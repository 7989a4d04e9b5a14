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
count), so every reader of a layout holds two. SDMA and NOMA are RSMA
with a stream left at zero: SDMA is RSMA without the common stream, and
NOMA is RSMA without the weak user's private stream, its message riding
the common one. Every layout's streams sit on the RSMA streams of its K
users: user k's private stream is column k and the common stream column
K (`StreamLayout.rsma_columns`, `StreamLayout.to_rsma`), and a stream a
layout lacks is a zero column.

One successive-interference-cancellation rule holds on those columns:
every user decodes the common stream with every private stream as
interference, cancels it, then decodes its own private stream with the
other private streams as interference. `SicKernel` is that rule's one
home, for K users: K private stages, then K common stages, coded once
as a 0/1 mask of the private columns that interfere at each stage, which
the SINRs and the optimizer's stage powers both read (no `interferers`
list beside it). Every analytic SINR, rate and equalizer in the package
comes from it, whatever the scheme; a zero column's SINR and rate are
exactly 0, so a scheme differs from RSMA only in the columns it fills.

`assemble_report` is the one reader of a precoder's SINRs, rates,
common-rate cap and weighted sum rate: its `RateReport` holds every
user's private and common SINR on the RSMA streams, and a stream the
layout lacks reads 0 there.

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
    """One transmit stream: its owner and the users whose messages it
    carries. A private stream is decoded by its owner alone; a common
    stream by every user, before the private ones (SIC)."""

    kind: str  # "private" | "common"
    owner: int | None  # private stream owner, None for common
    carries: tuple[int, ...]  # users whose messages ride this stream


@dataclass(frozen=True)
class StreamLayout:
    """A scheme's streams on its K = 2 users, the one count a layout
    takes. A layout only says which RSMA streams a scheme fills
    (`rsma_columns`); its SINRs and rates are read from `assemble_report`,
    where a stream it lacks reads 0."""

    scheme: str
    num_users: int
    streams: tuple[StreamDesc, ...]

    def __post_init__(self):
        if self.num_users != 2:
            raise ValueError(f"a layout has exactly two users, got {self.num_users}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        commons = [s for s in self.streams if s.kind == "common"]
        if self.scheme == "sdma" and commons:
            raise ValueError("sdma layouts carry private streams only")
        if self.scheme != "sdma" and len(commons) != 1:
            raise ValueError(f"{self.scheme} layouts need exactly one common stream")

    def check_channel(self, channel: ChannelMatrix) -> None:
        """ValueError unless `channel` has this layout's users (one gain row each)."""
        if channel.num_users != self.num_users:
            raise ValueError(f"the channel has {channel.num_users} users, the layout {self.num_users}")

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def private_columns(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.streams) if s.kind == "private")

    @property
    def rsma_columns(self) -> tuple[int, ...]:
        """Each stream's column among the RSMA streams of as many users:
        user k's private stream is column k, the common stream column K."""
        return tuple(self.num_users if s.kind == "common" else s.owner for s in self.streams)

    def to_rsma(self, matrix: np.ndarray) -> np.ndarray:
        """(..., fixtures, streams) precoders of this layout placed on the
        RSMA columns; the columns this layout lacks are zero. A matrix
        whose last axis is not this layout's streams is a ValueError."""
        m = np.asarray(matrix, dtype=float)
        if m.shape[-1:] != (self.num_streams,):
            raise ValueError(f"precoders of shape {m.shape} do not have this layout's {self.num_streams} streams")
        out = np.zeros(m.shape[:-1] + (self.num_users + 1,))
        out[..., self.rsma_columns] = m
        return out


@dataclass(frozen=True)
class Precoder:
    """Fixture-by-stream precoding matrix.

    Row l holds the amplitudes driving fixture l; its L1 norm is the
    drive headroom that row consumes and must stay within the active
    amplitude budget.
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

    def max_row_l1(self) -> float:
        return float(np.abs(self.matrix).sum(axis=1).max()) if self.matrix.size else 0.0


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
    (any other count is the layout's ValueError); NOMA picks the strong
    user by row norm."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    num_users = channel.num_users
    every = tuple(range(num_users))
    streams = tuple(StreamDesc("private", k, (k,)) for k in every)
    if scheme == "sdma":
        return StreamLayout(scheme, num_users, streams)
    if scheme == "rsma":
        return StreamLayout(scheme, num_users, streams + (StreamDesc("common", None, every),))
    norms = np.linalg.norm(channel.gains, axis=1)
    strong = int(np.argmax(norms))  # ties break to the lower index
    weak = 1 - strong
    return StreamLayout(scheme, num_users, (streams[strong], StreamDesc("common", None, (weak,))))


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

    A layout's precoders are read on these columns (`StreamLayout.to_rsma`):
    a stream the layout lacks is a zero column, whose stages have SINR
    exactly 0 and which adds +0 to every interference sum. `noise` holds
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
    that user takes the whole cap. Ties in priority go to the lower
    user index.
    """
    shares = np.zeros(layout.num_users)
    stream = next((s for s in layout.streams if s.kind == "common"), None)
    if stream is None or cap <= 0.0:
        return shares
    if len(stream.carries) == 1:
        shares[stream.carries[0]] = cap
    else:
        shares[int(np.argmax(weights))] = cap
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
    the layout: a stream the layout lacks reads exactly 0 (SDMA's common
    SINRs and cap, NOMA's weak user's private SINR and rate). The cap is
    split by `default_shares`. `weights` are the user priorities of the
    weighted sum rate (uniform by default). A channel whose users are not
    the layout's is a ValueError.
    """
    layout.check_channel(channel)
    K = channel.num_users
    w = np.full(K, 1.0 / K) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (K,) or not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("weights must be finite and positive, one per user")

    sinr_p, sinr_c = SicKernel(K, channel.noise).sinrs(channel.gains @ layout.to_rsma(precoder.matrix)[None])
    s_private, s_common = sinr_p[0], sinr_c[0]  # 0 for a stream the layout lacks
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
    """The layout's streams that are interference when `user` decodes
    `stream`, from the decoding order alone: every user decodes the common
    stream first, with every private stream as interference, then cancels
    it and decodes its own private stream with the other private streams
    as interference. A stream that is neither the user's private stream
    nor the common one is a ValueError."""
    K = layout.num_users
    column = layout.rsma_columns[stream]
    if not (0 <= user < K and column in (user, K)):
        raise ValueError(f"column {column} is not user {user}'s private stream or the common column {K}")
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

    Draws i.i.d. unit-variance 4-PAM symbols per stream plus Gaussian
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
    if not 0 <= stream < layout.num_streams:
        raise ValueError(f"stream {stream} is not one of the layout's {layout.num_streams} streams")
    if precoder.num_streams != layout.num_streams:
        raise ValueError(f"the precoder has {precoder.num_streams} streams, the layout {layout.num_streams}")
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
