"""Stream layouts, SINRs and rates for multi-stream VLC downlinks.

Three multiplexing schemes over the same linear-precoding transmit
model x = P s + d_dc:

* "sdma": one private stream per user, decoded treating the other
  users' streams as noise.
* "rsma": the private streams plus one common stream decoded first by
  every user (then cancelled before private decoding).
* "noma": the stronger user gets a private stream and the weaker
  user's message rides the common stream, which both users decode
  first.

A layout has exactly two users (`StreamLayout` refuses any other
count), so every reader of a layout holds two. There is one column set,
the RSMA streams of the K users: user k's private stream is column k
and the common stream column K. SDMA and NOMA are RSMA with a column
left empty: SDMA leaves the common column empty, and NOMA the weak
user's private column, its message riding the common one. A layout
stores only the scheme, the users and NOMA's strong user; its streams
and its column mask (`StreamLayout.active`) are derived from these.
Every precoder has the K + 1 columns, and an empty column holds zeros
(`StreamLayout.check_precoder`).

One successive-interference-cancellation rule holds on those columns:
every user decodes the common stream with every private stream as
interference, cancels it, then decodes its own private stream with the
other private streams as interference. `SicKernel` is that rule's one
home, for K users: K private stages, then K common stages, coded once
as a 0/1 mask of the private columns that interfere at each stage, which
the SINRs and the optimizer's stage powers both read (no `interferers`
list beside it). Every analytic SINR, rate and equalizer in the package
comes from it, whatever the scheme; an empty column's SINR and rate are
exactly 0, so a scheme differs from RSMA only in the columns it fills.

`assemble_report` is the one reader of a precoder's SINRs, rates,
common-rate cap and weighted sum rate: its `RateReport` holds every
user's private and common SINR on the RSMA streams, and an empty column
reads 0 there.

`monte_carlo_sinr` checks those SINRs by 4-PAM symbol simulation. It
takes a stage's interferers from the layout's decoding order, not from
the kernel it checks, and draws its symbols and noise chunk by chunk
from one seeded generator, in memory that does not grow with the number
of symbols.

All evaluation functions are pure; the Monte-Carlo estimator owns its
seeded generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelMatrix

__all__ = [
    "SCHEMES",
    "StreamDesc",
    "StreamLayout",
    "SicKernel",
    "Precoder",
    "RateReport",
    "build_layout",
    "default_shares",
    "assemble_report",
    "monte_carlo_sinr",
]

SCHEMES = ("rsma", "sdma", "noma")

# guards divisions in deliberately noiseless validation runs
_DEN_FLOOR = 1e-300
# fewest symbols monte_carlo_sinr accepts: at 10k the estimator's spread
# is about validate's 2% tolerance, so correct formulas could fail it. A
# call's time grows with the symbols, its memory does not: a million take
# about 26 ms and 0.36 MB on a 2-vCPU x86-64 host
MC_MIN_SYMBOLS = 100_000


@dataclass(frozen=True)
class StreamDesc:
    """One RSMA column: its kind and the users whose messages it carries.
    A private stream is decoded by its user alone; the common stream by
    every user, before the private ones (SIC). A column its scheme leaves
    empty carries no message (`carries == ()`)."""

    kind: str  # "private" | "common"
    carries: tuple[int, ...]  # users whose messages ride this stream


@dataclass(frozen=True)
class StreamLayout:
    """A scheme on the RSMA columns of its K = 2 users, the one count a
    layout takes; NOMA's `strong` user holds the private stream.

    `streams` is derived from these alone: user k's private stream is
    column k and the common stream column K. `active` marks the columns
    the scheme fills. A layout's SINRs and rates are read from
    `assemble_report`, where an empty column reads 0.
    """

    scheme: str
    num_users: int
    strong: int | None = None  # NOMA's strong user, None for the other schemes

    def __post_init__(self):
        if self.num_users != 2:
            raise ValueError(f"a layout has exactly two users, got {self.num_users}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.strong not in (tuple(range(self.num_users)) if self.scheme == "noma" else (None,)):
            raise ValueError(f"a {self.scheme} layout cannot have strong user {self.strong!r}")

    def check_channel(self, channel: ChannelMatrix) -> None:
        """ValueError unless `channel` has this layout's users (one gain row each)."""
        if channel.num_users != self.num_users:
            raise ValueError(f"the channel has {channel.num_users} users, the layout {self.num_users}")

    def check_precoder(self, precoder: Precoder) -> None:
        """ValueError unless `precoder` has the K + 1 RSMA columns, with
        every entry of a column this layout leaves empty at 0."""
        m = precoder.matrix
        if m.shape[1] != self.num_streams:
            raise ValueError(f"the precoder has {m.shape[1]} streams, the layout {self.num_streams}")
        if np.any(m[:, ~self.active]):
            raise ValueError(f"the precoder drives a column the {self.scheme} layout leaves empty")

    @cached_property
    def streams(self) -> tuple[StreamDesc, ...]:
        """The K + 1 RSMA columns. SDMA leaves the common column empty and
        NOMA the weak user's private column; the common stream carries the
        users without a private stream, or every user when each has one.
        Worked out on first use and kept (the fields are frozen)."""
        every = range(self.num_users)
        private = [(k,) if self.scheme != "noma" or k == self.strong else () for k in every]
        common = () if self.scheme == "sdma" else tuple(k for k in every if not private[k]) or tuple(every)
        return tuple(StreamDesc("private", c) for c in private) + (StreamDesc("common", common),)

    @property
    def active(self) -> np.ndarray:
        """The column mask, (K + 1,) booleans: True where a column carries a message."""
        return np.array([bool(s.carries) for s in self.streams])

    @property
    def num_streams(self) -> int:
        return self.num_users + 1

    @property
    def private_columns(self) -> tuple[int, ...]:
        """The private columns in use."""
        return tuple(np.flatnonzero(self.active[:-1]).tolist())


@dataclass(frozen=True)
class Precoder:
    """Fixture-by-stream precoding matrix on the K + 1 RSMA columns.

    Row l holds the amplitudes driving fixture l; its L1 norm is the
    drive headroom that row consumes and must stay within the active
    amplitude budget. Column k is user k's private stream and column K
    the common stream; a column the layout leaves empty holds zeros
    (`StreamLayout.check_precoder`).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("precoder matrix must be 2-D (fixtures x streams)")
        if not np.all(np.isfinite(m)):
            raise ValueError("precoder entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def num_streams(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class RateReport:
    """Per-user SINRs, rates, common-rate split and the weighted sum rate."""

    sinr_common: np.ndarray
    sinr_private: np.ndarray
    common_cap: float
    common_shares: np.ndarray
    private_rates: np.ndarray
    overall: np.ndarray
    wsr: float

    def __post_init__(self):
        for name in ("sinr_common", "sinr_private", "common_shares", "private_rates", "overall"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if np.any(v < 0):
                raise ValueError(f"{name} must be nonnegative")
        if self.common_shares.sum() > self.common_cap + 1e-9:
            raise ValueError("common shares exceed the common-rate cap")


def build_layout(scheme: str, channel: ChannelMatrix) -> StreamLayout:
    """Stream layout for a scheme on the channel's users, exactly two
    (any other count is the layout's ValueError).

    NOMA's strong user, who holds the private stream and decodes the weak
    user's message first, has the larger ||h_k||_1 / sigma_k, ties going
    to the lower index: under per-fixture L1 budgets epsilon with
    nonnegative gains, user k's largest received amplitude is
    epsilon ||h_k||_1, against its noise level sigma_k."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme != "noma":
        return StreamLayout(scheme, channel.num_users)
    strong = int(np.argmax(channel.gains.sum(axis=1) / np.sqrt(channel.noise)))
    return StreamLayout(scheme, channel.num_users, strong)


class SicKernel:
    """The SIC decoding rule of the RSMA streams of K users, on received
    amplitudes.

    Amplitudes A = H @ P have shape (B, K, K + 1): [b, k, s] is RSMA
    column s's amplitude at user k under precoder b, the private columns
    0..K-1 (user k's is column k) and then the common column K. A stage
    is one user decoding one stream: K private stages, user k decoding
    column k, then K common stages, user k decoding column K. The rule is
    coded once, as the 0/1 mask `_interferes` over (private columns,
    stages): a stage's interference is the power of the private columns
    the mask keeps, summed in column order. The mask drops only a private
    stage's own column, so a common stage sees all private power. `sinrs`
    and the polish's stage powers (`_Compiled._index_powers`) read it.

    Every precoder has these columns; a column its layout leaves empty
    is zero, so its stages have SINR exactly 0 and it adds +0 to every
    interference sum. `noise` holds
    the K noise variances of one channel, shared by every precoder, or a
    (B, K) array with one row per precoder. `sinrs` reads every stage's
    amplitudes through one flat gather whose indices are computed here;
    the optimizer's polish reads its stage powers through the same
    indices.
    """

    def __init__(self, num_users: int, noise: np.ndarray):
        K = self.n_priv = num_users
        # Amplitudes (B, K, K + 1) are read as (B, K (K + 1)). Each stage
        # (the private ones, then the common ones) is a column of
        # `_gather`; its rows are every private column at the stage's
        # user, in column order, then the stage's own amplitude
        users = np.concatenate((np.arange(K), np.arange(K)))
        own = np.concatenate((np.arange(K), np.full(K, K)))
        self._gather = np.array([users * (K + 1) + j for j in (*range(K), own)], dtype=np.intp)
        # the stage noise, floored at _DEN_FLOOR so every denominator is
        # positive; (1 or B, stages): a single row broadcasts over any batch
        self._sig2 = np.atleast_2d(np.maximum(noise, _DEN_FLOOR))[:, users]
        # 0 where a private column is its stage's own signal, else 1
        self._interferes = 1.0 - np.eye(K, 2 * K)

    def sinrs(self, A: np.ndarray):
        """(sinr_p, sinr_c): SINR of every private stage (B, K) and common
        stage (B, K), as transposed views of one stage-major array.

        The squared amplitudes are read through the flat gather,
        stage-major, (gather rows, stages, B): each
        amplitude column is squared into a contiguous row first, so a
        block of many precoders is gathered a row at a time. The
        interference is the masked private powers summed in column order:
        a private stage's own power becomes x * 0 = +0, and 0 + x = x
        exactly, so the sum is the other columns' in column order.
        """
        X2 = np.square(A.reshape(len(A), -1).T, order="C").take(self._gather, axis=0)
        n = self.n_priv
        # in place, so that a block of many precoders allocates few large arrays
        X2[:n] *= self._interferes[..., None]
        sinr = X2[0]
        for i in range(1, n):
            sinr += X2[i]
        sinr += self._sig2.T
        np.divide(X2[-1], sinr, out=sinr)
        return sinr[:n].T, sinr[n:].T


def default_shares(layout: StreamLayout, cap: float, weights: np.ndarray) -> np.ndarray:
    """Greedy common-rate split: all of it to the highest-priority taker.

    For NOMA the common stream carries only the weak user's message, so
    that user takes the whole cap; an empty common column (SDMA) gives
    no shares. Ties in priority go to the lower user index.
    """
    shares = np.zeros(layout.num_users)
    carries = layout.streams[-1].carries
    if carries and cap > 0.0:
        shares[carries[0] if len(carries) == 1 else int(np.argmax(weights))] = cap
    return shares


def assemble_report(
    channel: ChannelMatrix,
    precoder: Precoder,
    layout: StreamLayout,
    weights: np.ndarray | None = None,
) -> RateReport:
    """Full rate report for a precoder under a layout: the package's one
    reader of a precoder's SINRs, rates, common-rate cap and WSR.

    Every SINR and rate is indexed by user on the RSMA streams, whatever
    the layout: an empty column reads exactly 0 (SDMA's common SINRs and
    cap, NOMA's weak user's private SINR and rate). The cap is split by
    `default_shares`. `weights` are the user priorities of the weighted
    sum rate (uniform by default). A channel whose users are not the
    layout's, or a precoder that is not on its columns
    (`StreamLayout.check_precoder`), is a ValueError.
    """
    layout.check_channel(channel)
    layout.check_precoder(precoder)
    K = channel.num_users
    w = np.full(K, 1.0 / K) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (K,) or not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("weights must be finite and positive, one per user")

    sinr_p, sinr_c = SicKernel(K, channel.noise).sinrs(channel.gains @ precoder.matrix[None])
    s_private, s_common = sinr_p[0], sinr_c[0]  # 0 for an empty column
    p_rates = np.log2(1.0 + s_private)
    cap = float(np.log2(1.0 + s_common).min())

    shares = default_shares(layout, cap, w)
    overall = shares + p_rates
    return RateReport(
        sinr_common=s_common,
        sinr_private=s_private,
        common_cap=cap,
        common_shares=shares,
        private_rates=p_rates,
        overall=overall,
        wsr=float(w @ overall),
    )


# 4-PAM, zero mean, unit variance: levels {-3,-1,1,3}/sqrt(5)
_PAM4 = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0)
# most rows in a chunk of monte_carlo_sinr's draws (64 KB of float64 each)
_MC_CHUNK = 1 << 13


def _decoding_interferers(layout: StreamLayout, user: int, stream: int) -> list[int]:
    """The columns in use that are interference when `user` decodes
    column `stream`, from the decoding order alone: every user decodes the
    common stream first, with every private stream as interference, then
    cancels it and decodes its own private stream with the other private
    streams as interference. A column that is neither the user's private
    column nor the common one is a ValueError."""
    K = layout.num_users
    if not (0 <= user < K and stream in (user, K)):
        raise ValueError(f"column {stream} is not user {user}'s private stream or the common column {K}")
    return [j for j in layout.private_columns if j != stream]


def monte_carlo_sinr(
    channel: ChannelMatrix,
    precoder: Precoder,
    layout: StreamLayout,
    user: int,
    stream: int,
    num_symbols: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Empirical SINR of one stream at one receiver by symbol simulation.

    `stream` is an RSMA column the layout fills, and the precoder has the
    K + 1 RSMA columns (`StreamLayout.check_precoder`). Draws i.i.d.
    unit-variance 4-PAM symbols per column plus Gaussian
    receiver noise and measures signal power over interference-plus-
    noise power at the stream's SIC stage (common stage sees all
    private streams; private stage has the common stream cancelled).
    The interferers come from the layout's decoding order
    (`_decoding_interferers`), not from `SicKernel`, whose SINRs this
    checks. Converges to the analytic SINR; the estimate is
    deterministic for a fixed seed. The channel must have the layout's
    users (ValueError otherwise).

    Each chunk of at most `_MC_CHUNK` rows draws its 4-PAM indices with
    `rng.integers(0, 4, size=(rows, streams), dtype=np.uint8)`, then its
    noise with `rng.standard_normal(rows)`, from one
    `np.random.default_rng(seed)`, and adds its `np.add.reduce` sums to
    two running totals. A chunk's interference is read by a base-4 code of
    the I interferers' indices from a table of their 4^I amplitudes (16
    for two users), so the peak memory is a few chunk-sized arrays, under
    0.5 MB whatever the number of symbols.
    """
    try:
        num_symbols = operator.index(num_symbols)
    except TypeError:
        raise ValueError(f"num_symbols must be an integer, got {num_symbols!r}") from None
    if num_symbols < MC_MIN_SYMBOLS:
        raise ValueError(f"need at least {MC_MIN_SYMBOLS} symbols for a stable estimate")
    if not (0 <= stream < layout.num_streams and layout.active[stream]):
        raise ValueError(f"stream {stream} is not one of the layout's columns in use, {np.flatnonzero(layout.active)}")
    layout.check_precoder(precoder)
    layout.check_channel(channel)
    interferers = _decoding_interferers(layout, user, stream)

    rng = np.random.default_rng(seed)
    amps = channel.gains[user] @ precoder.matrix
    squares = np.square(_PAM4 * amps[stream])
    # row c: the interferers' levels at the base-4 digits of c, first
    # interferer most significant
    digits = np.arange(4 ** len(interferers))[:, None] // 4 ** np.arange(len(interferers) - 1, -1, -1) % 4
    table = _PAM4[digits] @ amps[interferers]
    sigma = np.sqrt(channel.noise[user])

    signal_sum = disturbance_sum = 0.0
    for start in range(0, num_symbols, _MC_CHUNK):
        rows = min(_MC_CHUNK, num_symbols - start)
        index = rng.integers(0, 4, size=(rows, precoder.num_streams), dtype=np.uint8)
        code = np.zeros(rows, dtype=np.intp)
        for j in interferers:
            code *= 4
            code += index[:, j]
        disturbance = table.take(code)
        part = rng.standard_normal(rows)
        part *= sigma
        disturbance += part
        signal_sum += np.add.reduce(squares.take(index[:, stream]))
        disturbance_sum += np.add.reduce(np.square(disturbance, out=disturbance))
    return float(signal_sum / num_symbols / max(disturbance_sum / num_symbols, _DEN_FLOOR))
