"""Stream layouts, SINRs and rates for multi-stream VLC downlinks.

Three multiplexing schemes over the same linear-precoding transmit
model x = P s + d_dc:

* "sdma": one private stream per user, decoded treating the other
  users' streams as noise.
* "rsma": the private streams plus one common stream decoded first by
  every user (then cancelled before private decoding).
* "noma": two users; the stronger user gets a private stream and the
  weaker user's message rides the common stream, which both users
  decode first.

All three share one successive-interference-cancellation rule: a user
decodes the common stream with every private stream as interference,
cancels it, then decodes its own private stream with the other private
streams as interference. `SicKernel` is that rule's one home, coded
once as a 0/1 mask of the private columns that interfere at each stage:
every analytic SINR, rate and equalizer in the package, and the
Monte-Carlo estimator's interferer set, come from it. A kernel is placed
at construction on the layout's own columns or, for the optimizer's
batches, on the RSMA columns of as many users.

SDMA and NOMA are RSMA with a stream left at zero and given zero
weight: SDMA is RSMA without the common stream, and NOMA is RSMA
without the weak user's private stream, its message riding the common
one. `StreamLayout.rsma_columns` maps each stream of a layout onto the
RSMA streams of as many users, which is all the optimizer compiles.

All evaluation functions are pure; the Monte-Carlo estimator owns its
seeded generator.
"""

from __future__ import annotations

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
    "sinr_common",
    "sinr_private",
    "rate",
    "common_cap",
    "default_shares",
    "assemble_report",
    "monte_carlo_sinr",
]

SCHEMES = ("rsma", "sdma", "noma")

# guards divisions in deliberately noiseless validation runs
_DEN_FLOOR = 1e-300
# fewest symbols monte_carlo_sinr accepts: at 10k the estimator's spread
# is about validate's 2% tolerance, so correct formulas could fail it
MC_MIN_SYMBOLS = 100_000


@dataclass(frozen=True)
class StreamDesc:
    """One transmit stream: who owns it and who decodes it; a common stream
    is decoded before the private ones (SIC)."""

    kind: str  # "private" | "common"
    owner: int | None  # private stream owner, None for common
    carries: tuple[int, ...]  # users whose messages ride this stream
    decoders: tuple[int, ...]  # users that decode this stream


@dataclass(frozen=True)
class StreamLayout:
    scheme: str
    num_users: int
    streams: tuple[StreamDesc, ...]

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        commons = [s for s in self.streams if s.kind == "common"]
        if self.scheme == "sdma" and commons:
            raise ValueError("sdma layouts carry private streams only")
        if self.scheme != "sdma" and len(commons) != 1:
            raise ValueError(f"{self.scheme} layouts need exactly one common stream")

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def private_columns(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.streams) if s.kind == "private")

    @property
    def common_column(self) -> int | None:
        for i, s in enumerate(self.streams):
            if s.kind == "common":
                return i
        return None

    def private_column_of(self, user: int) -> int | None:
        for i, s in enumerate(self.streams):
            if s.kind == "private" and s.owner == user:
                return i
        return None

    @property
    def common_stream(self) -> StreamDesc | None:
        c = self.common_column
        return self.streams[c] if c is not None else None

    @property
    def rsma_columns(self) -> tuple[int, ...]:
        """Each stream's column among the RSMA streams of as many users:
        user k's private stream is column k, the common stream column K."""
        return tuple(self.num_users if s.kind == "common" else s.owner for s in self.streams)

    def to_rsma(self, matrix: np.ndarray) -> np.ndarray:
        """(..., fixtures, streams) precoders of this layout placed on the
        RSMA columns; the columns this layout lacks are zero."""
        m = np.asarray(matrix, dtype=float)
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


def build_layout(scheme: str, num_users: int, channel: ChannelMatrix) -> StreamLayout:
    """Stream layout for a scheme; NOMA picks the strong user by row norm."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if num_users < 1:
        raise ValueError("need at least one user")
    every = tuple(range(num_users))
    if scheme == "sdma":
        streams = tuple(StreamDesc("private", k, (k,), (k,)) for k in every)
        return StreamLayout(scheme, num_users, streams)
    if scheme == "rsma":
        streams = tuple(StreamDesc("private", k, (k,), (k,)) for k in every)
        streams += (StreamDesc("common", None, every, every),)
        return StreamLayout(scheme, num_users, streams)
    # noma: two-user formulation only
    if num_users != 2:
        raise ValueError("noma layout supports exactly two users")
    norms = np.linalg.norm(channel.gains, axis=1)
    strong = 0 if norms[0] >= norms[1] else 1  # ties break to the lower index
    weak = 1 - strong
    streams = (
        StreamDesc("private", strong, (strong,), (strong,)),
        StreamDesc("common", None, (weak,), (0, 1)),
    )
    return StreamLayout(scheme, num_users, streams)


class SicKernel:
    """The SIC decoding rule of one layout, on received amplitudes.

    Amplitudes A = H @ P have shape (B, K, S): [b, k, s] is stream s's
    amplitude at user k under precoder b. A stage is one user decoding
    one stream: a private column at its owner (stages in column order)
    or the common stream at a decoder (in decoder order). The rule is
    coded once, as a 0/1 mask over (private columns, stages): a stage's
    interference is the power of the private columns the mask keeps,
    summed in column order. The mask drops only a private stage's own
    column, so a common stage sees all private power.

    The streams sit on the layout's own columns (S = its stream count),
    or with `on_rsma` on the RSMA columns of as many users
    (`StreamLayout.rsma_columns`, S = K + 1), the placement of the
    optimizer's batches. `noise` holds the K noise variances of one
    channel, shared by every precoder, or a (B, K) array with one row per
    precoder. `sinrs` reads every stage's amplitudes through one flat
    gather whose indices are computed here; the optimizer's polish reads
    its stage powers through the same indices.
    """

    def __init__(self, layout: StreamLayout, noise: np.ndarray, on_rsma: bool = False):
        self.layout = layout
        place = layout.rsma_columns if on_rsma else tuple(range(layout.num_streams))
        width = layout.num_users + 1 if on_rsma else layout.num_streams
        self._cols = tuple(place[j] for j in layout.private_columns)  # python ints index faster than numpy ones
        self.owners = np.array([layout.streams[j].owner for j in layout.private_columns], dtype=np.intp)
        self.n_priv = len(self._cols)
        stream = layout.common_stream
        self.common_col = None if stream is None else place[layout.common_column]
        self.decoders = np.array(() if stream is None else stream.decoders, dtype=np.intp)
        # Amplitudes (B, K, width) are read as (B, K * width). Each stage
        # (the private ones, then the common ones) is a column of
        # `_gather`; its rows are every private column at the stage's
        # user, in column order, then the stage's own amplitude
        users = np.concatenate((self.owners, self.decoders))
        own = np.array(self._cols + (self.common_col,) * len(self.decoders), dtype=np.intp)
        self._gather = np.array([users * width + j for j in (*self._cols, own)], dtype=np.intp)
        # the stage noise, floored at _DEN_FLOOR so every denominator is
        # positive; (1 or B, stages): a single row broadcasts over any batch
        self._sig2 = np.atleast_2d(np.maximum(noise, _DEN_FLOOR))[:, users]
        # 0 where a private column is its stage's own signal, else 1
        self._interferes = 1.0 - np.eye(self.n_priv, len(users))

    def interferers(self, user: int, stream: int) -> list[int]:
        """Columns whose power is interference when `user` decodes `stream`."""
        desc = self.layout.streams[stream]
        if desc.kind == "common":
            if user not in desc.decoders:
                raise ValueError(f"user {user} does not decode stream {stream}")
            stage = self.n_priv + desc.decoders.index(user)
        elif desc.owner != user:
            raise ValueError(f"stream {stream} is not user {user}'s private stream")
        else:
            stage = self.layout.private_columns.index(stream)
        return [j for j, m in zip(self._cols, self._interferes[:, stage].tolist()) if m]

    def sinrs(self, A: np.ndarray):
        """(sinr_p, sinr_c): SINR of every private stage (B, private
        columns) and common stage (B, decoders; None without a common
        stream), as transposed views of one stage-major array.

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
        # in place, so that a block of many precoders allocates few large
        # arrays; the common stages' mask is all 1
        X2[:n, :n] *= self._interferes[:, :n, None]
        sinr = X2[0]
        for i in range(1, n):
            sinr += X2[i]
        sinr += self._sig2.T
        np.divide(X2[-1], sinr, out=sinr)
        return sinr[:n].T, (None if self.common_col is None else sinr[n:].T)


def sinr_common(channel: ChannelMatrix, precoder: Precoder, layout: StreamLayout, user: int) -> float:
    """SINR of the common stream at `user`: every private stream interferes."""
    if layout.common_column is None:
        raise ValueError("layout has no common stream")
    return float(assemble_report(channel, precoder, layout).sinr_common[user])


def sinr_private(channel: ChannelMatrix, precoder: Precoder, layout: StreamLayout, user: int) -> float:
    """SINR of `user`'s private stream after the common stream is cancelled."""
    if layout.private_column_of(user) is None:
        raise ValueError(f"user {user} has no private stream in this layout")
    return float(assemble_report(channel, precoder, layout).sinr_private[user])


def rate(sinr: float) -> float:
    """Achievable rate log2(1 + SINR) in bits/s/Hz."""
    if sinr < 0:
        raise ValueError("SINR must be nonnegative")
    return float(np.log2(1.0 + sinr))


def common_cap(channel: ChannelMatrix, precoder: Precoder, layout: StreamLayout) -> float:
    """Decodable common rate: the minimum common-stream rate over its decoders."""
    if layout.common_column is None:
        raise ValueError("layout has no common stream")
    return assemble_report(channel, precoder, layout).common_cap


def default_shares(layout: StreamLayout, cap: float, weights: np.ndarray) -> np.ndarray:
    """Greedy common-rate split: all of it to the highest-priority taker.

    For NOMA the common stream carries only the weak user's message, so
    that user takes the whole cap. Ties in priority go to the lower
    user index.
    """
    shares = np.zeros(layout.num_users)
    stream = layout.common_stream
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
    shares: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> RateReport:
    """Full rate report for a precoder under a layout.

    `shares` splits the common-rate cap between users (validated); by
    default the greedy split of `default_shares` is used. `weights` are
    the user priorities of the weighted sum rate (uniform by default).
    """
    K = channel.num_users
    w = np.full(K, 1.0 / K) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (K,) or np.any(w <= 0):
        raise ValueError("weights must be positive, one per user")

    kernel = SicKernel(layout, channel.noise)
    sinr_p, sinr_c = kernel.sinrs(channel.gains @ precoder.matrix[None])
    s_private, s_common = np.zeros(K), np.zeros(K)
    s_private[kernel.owners] = sinr_p[0]
    p_rates = np.log2(1.0 + s_private)  # 0 for a user without a private stream
    cap = 0.0
    if sinr_c is not None:
        s_common[kernel.decoders] = sinr_c[0]
        cap = float(np.log2(1.0 + sinr_c[0]).min())

    if shares is None:
        shares = default_shares(layout, cap, w)
    else:
        shares = np.asarray(shares, dtype=float)
        if shares.shape != (K,):
            raise ValueError("shares must have one entry per user")
        if np.any(shares < 0) or shares.sum() > cap + 1e-9:
            raise ValueError("infeasible common-rate shares")
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
# symbol rows monte_carlo_sinr draws per call of the generator. Each
# index takes the next 32 bits of the generator's stream, whose spare
# half-word carries over from one call to the next, so the chunks draw
# the indices one call for all rows would, whatever their size
_MC_CHUNK_ROWS = 1 << 14


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
    Converges to the analytic SINR; the estimate is deterministic for a
    fixed seed.

    The symbol indices of every stream are drawn in chunks of rows, then
    the noise; only the stream's and its interferers' symbols are kept.
    The estimate is the one of drawing every symbol in one call, bit for
    bit.
    """
    if num_symbols < MC_MIN_SYMBOLS:
        raise ValueError(f"need at least {MC_MIN_SYMBOLS} symbols for a stable estimate")
    interferers = SicKernel(layout, channel.noise).interferers(user, stream)

    rng = np.random.default_rng(seed)
    amps = channel.gains[user] @ precoder.matrix
    signal = np.empty(num_symbols)
    others = np.empty((num_symbols, len(interferers)))
    for lo in range(0, num_symbols, _MC_CHUNK_ROWS):
        index = rng.integers(0, 4, size=(min(_MC_CHUNK_ROWS, num_symbols - lo), precoder.num_streams))
        _PAM4.take(index[:, stream], out=signal[lo : lo + len(index)])
        _PAM4.take(index[:, interferers], out=others[lo : lo + len(index)])
    noise = rng.normal(0.0, np.sqrt(channel.noise[user]), size=num_symbols)
    signal *= amps[stream]
    disturbance = others @ amps[interferers]
    disturbance += noise
    # squared in place: no array of N symbols is allocated past this point
    power = np.mean(np.square(signal, out=signal))
    return float(power / max(np.mean(np.square(disturbance, out=disturbance)), _DEN_FLOOR))
