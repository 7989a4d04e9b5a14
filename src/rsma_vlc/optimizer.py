"""Weighted-sum-rate precoder optimization under per-fixture L1 budgets.

Every start of a problem is projected onto the per-row L1 balls and
then finished by projected Newton on the face it identifies (`_polish`;
Bertsekas 1982): each row's support and signs, and the rows on their L1
balls, with a Levenberg shift. Rates depend on the precoder P only
through the received amplitudes A = H P, so the gradient and Hessian are
closed forms in A chained through H: one small (n, n) system per start,
n = L (K + 1) <= 12, solved for the whole batch at once. The common-rate
min enters through its decoders' weights: the binding decoder's, or at
the min's kink the weighting that makes the point most nearly
stationary, with the step held on the kink. A step is kept only if the
true weighted sum rate (WSR) rises, so a start's WSR never falls. It
stops at a residual of 1e-7 or `AoConfig.tolerance`, whichever is
smaller.

The fixed start set (ZF, the single-user corners, RSMA's split starts
and the warm starts; see `ao_solve`) does the exploring. One builder
(`_starts`) makes every problem's ZF, corners and split starts at once,
with one stacked pseudo-inverse for the whole batch. WMMSE
alternating optimization (AO; Shi, Razaviyayn, Luo & He 2011) once ran
up to 20 iterations from each start before the polish; from this start
set it changed no catalog WSR by more than rounding, so it went. The
names `ao_solve` and `AoConfig` stay (see each).

A start's residual is the most the first-order model of its WSR at its
final point, with the common-rate min taken of the decoders'
linearizations, could gain over the balls (b/s/Hz; a Frank-Wolfe gap,
see `_decoder_weights`), and a solution is `converged` when the winning
start's residual is at most `AoConfig.tolerance`.

The common-rate shares never enter the optimization explicitly: for
fixed priorities the optimal split is greedy (everything to the highest
priority taker, or to the weak user under NOMA), so the common stream
contributes through the minimum of the decoders' rates. On exit each
winner's report makes that split (`assemble_report`).

Every problem, every start and every precoder the solver returns is on
the one column set of the package, the K + 1 RSMA columns of its K users
(the private columns in user order, then the common one), and every
SINR and stage power, the grid oracle's included, comes from the one
SIC kernel of K users (`signal_model.SicKernel`: K private stages, then
K common decoders). A scheme is its layout's column mask
(`StreamLayout.active`), and enters only through it and its stream
weights: a private weight is the user's priority where the mask fills
the user's private column, else 0, and the common weight is the
priority of the user the greedy split hands the common rate to (0 for
SDMA). SDMA and NOMA are thus RSMA with an empty column. The starts
(`_starts`) leave it at 0 (`_Compiled.active`), the L1 projection keeps
it at 0 and the polish leaves it out of every face and step, so its
stages add exact zeros to every rate and derivative. Every weighted sum
of stage rates or their derivatives, the WSR of the true rates and of
the grid oracle included, is added stage by stage in the kernel's order
(`_stage_sum`).

Every start is one problem of a lockstep batch. Each problem has its own
row of every batched array: channel (gains stacked as (B, K, L), noise
as (B, K)), stream weights, (L, K + 1) precoder in a (B, L, K + 1)
stack, amplitude budget, Newton state, iteration count and WSR history.
All active problems take each polish iteration together; a problem that
has finished drops out of the batch. Each array operation touches only a
problem's own rows, and its sums run over that problem's entries alone
(no matrix product whose blocking could depend on the batch size), so a
problem's result does not depend on the problems that share its batch.
`ao_solve` runs the starts of every problem it is given in waves, each
wave one batch in which each problem keeps its own scheme: a batch that
mixes SDMA, NOMA and RSMA problems is one RSMA batch in which each
problem keeps the columns its layout leaves empty at 0. A problem may name
earlier problems of the call whose solutions become its warm starts
(`Problem.warm_from`), the only way a solution seeds another solve;
those starts run in a later wave, from the named problems' polished
winners. Which problems seed RSMA, and from what, is
`scenarios.solve_schemes`'s choice.

The arrays are a few problems of 2 x 4 x 3 entries, so a polish
iteration costs its count of numpy calls, not its arithmetic. Its Newton
systems, one per problem and one more per problem near the common-rate
kink, are stacked along the batch axis and solved by one `_newton_step`
call: a few dozen calls on (B, n, n) stacks, one `eigvalsh` and one
`solve`. A second call re-solves only the systems whose free step leaves
a ball. Then one L1 projection of every candidate step sorts and
thresholds the whole stack and keeps the rows inside their balls with
`where` (`project_rows_l1`); near the kink, one more projects the kink
candidates of those problems alone. The identities, index pairs and
masks these calls share are made once (`_eye`, `_pairs`,
`_Compiled.derivative_masks`).

A problem (`Problem`) is a channel, a scheme, an amplitude budget
epsilon and the problems whose solutions are its warm starts, plus the
layout that its scheme and channel decide, made once with the problem
(`Problem.layout`, NOMA's decoding order included) and carried by its
`Solution`; its starts are fixed by these (see `ao_solve`), so a solve
draws no random numbers. `AoConfig` holds only the settings every
problem of a call shares. The solver never sees an SNR: turning a
sweep's SNR into epsilon (`epsilon_from_snr`) is the caller's job.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix
from .signal_model import (
    Precoder,
    RateReport,
    SicKernel,
    StreamLayout,
    assemble_report,
    build_layout,
    default_shares,
)

__all__ = [
    "AoConfig",
    "Problem",
    "Solution",
    "NumericalFailure",
    "epsilon_from_snr",
    "project_rows_l1",
    "ao_solve",
    "grid_oracle",
]

LN2 = math.log(2.0)
# the polish: iteration cap, stop and step grids (Newton step lengths 2^-k
# and gradient steps 8^-k, k below each count)
_POLISH_MAX_ITER = 100
_POLISH_GAP = 1e-7
_NEWTON_STEPS = 8
_GRADIENT_STEPS = 8
# two common decoders this close, in bits, are at the common-rate min's
# kink for the polish's step
_KINK = 1e-2
# a row this close to its ball (relative to the radius) counts as on it
_FACE_BAND = 1e-2
# the Levenberg weight nu, relative to the largest curvature on the face:
# its floor, start and ceiling
_NU = (1e-9, 1e-3, 1e3)
# the common stream's budget shares of RSMA's split starts
_SPLITS = (0.2, 0.4, 0.6, 0.8)
# grid points per dimension the grid oracle accepts
ORACLE_RESOLUTIONS = range(2, 22)


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, made on first use and read-only, since every
    caller shares it."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), made on first use and read-only: every pair
    i < j of n items."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


class NumericalFailure(RuntimeError):
    """Raised when a start's WSR or the polish's derivatives are not finite."""


@dataclass(frozen=True)
class AoConfig:
    """Settings of the solver, for every problem of an `ao_solve` call;
    a problem's amplitude budget and warm starts are fields of its
    `Problem`, and the starts are no setting (see `ao_solve`).

    `tolerance` is the residual (b/s/Hz) at or below which a solution is
    `converged`; the polish stops there if that is below its own stop.

    The name is that of the alternating-optimization (AO) stage the
    solver once ran before its polish. It stays because scene files
    store these settings under `[ao]`: a file's `max_iterations` key, that
    stage's iteration cap, is ignored as unknown, as `corner_starts` and
    `restarts` are.
    """

    tolerance: float = 1e-4  # b/s/Hz: the residual of a converged solution

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")


@dataclass(frozen=True)
class Problem:
    """One problem of an `ao_solve` call: maximize the weighted sum rate
    of `scheme` ("rsma", "sdma" or "noma") on `channel` under the
    per-fixture amplitude budget `epsilon` (the radius of every row's L1
    ball). `warm_from` names earlier problems of the call (their indices)
    whose solutions are its warm starts, in that order.

    `layout` is `build_layout(scheme, channel)`, made with the problem
    and read by everything downstream (the solver, `Solution.layout`), so
    a problem's layout, NOMA's decoding order included, is decided once.
    An unknown scheme or a channel without exactly two users raises
    ValueError here."""

    channel: ChannelMatrix
    scheme: str
    epsilon: float
    warm_from: tuple = ()
    layout: StreamLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layout", build_layout(self.scheme, self.channel))


@dataclass(frozen=True)
class Solution:
    """One problem's result: the winning start's precoder, (L, K + 1) on
    the RSMA columns with its layout's empty columns at 0, rate report
    (with the common-rate shares), iteration count, convergence flag,
    WSR history and residual. `layout` is its problem's
    (`Problem.layout`), the one the report was assembled under.

    `restart_index` names the winner among the problem's starts, in the
    order `ao_solve` lists them: 0 is ZF, 1..K the single-user corners,
    then the `warm_from` solutions in order, and last, for RSMA, the four
    split starts (ZF, the corners and the splits as `_starts` builds
    them). `iterations` counts the winner's polish iterations, and
    `wsr_history` holds its WSR at its start, projected onto the balls,
    and after each of them (so it has `iterations` + 1 entries and never
    falls). `residual` is the winner's final residual in b/s/Hz, the most
    the first-order model of its WSR could gain over the balls (see
    `_decoder_weights`), and `converged` means it is at most
    `AoConfig.tolerance`.
    """

    precoder: Precoder
    report: RateReport
    iterations: int
    converged: bool
    restart_index: int
    wsr_history: tuple
    residual: float
    layout: StreamLayout

    @property
    def wsr(self) -> float:
        return self.report.wsr


def epsilon_from_snr(snr_db: float, sigma: float, reference_gain: float = 1.0) -> float:
    """Per-fixture amplitude budget for a target transmit SNR.

    epsilon = sigma * 10^(snr_db/20) / reference_gain, so the received
    electrical SNR (h p)^2 / sigma^2 of a reference-gain link scales as
    10^(snr_db/10).
    """
    if sigma <= 0:
        raise ValueError("noise standard deviation must be positive")
    if reference_gain <= 0:
        raise ValueError("reference gain must be positive")
    return sigma * 10.0 ** (snr_db / 20.0) / reference_gain


# --------------------------------------------------------------------------
# layout compilation and stage statistics
# --------------------------------------------------------------------------


def _stream_weights(layout: StreamLayout, w: np.ndarray) -> tuple[np.ndarray, float]:
    """(private, common) weights of a `layout` problem on the RSMA streams.

    private[k] is w_k where the layout's column mask fills user k's
    private column, else 0; common is the priority of the user the greedy
    split hands the common rate to, 0 with an empty common column.
    """
    if w.shape != (layout.num_users,) or not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("priorities must be finite and positive, one per user")
    return np.where(layout.active[:-1], w, 0.0), float(w @ default_shares(layout, 1.0, w))


class _Compiled(SicKernel):
    """The SIC kernel of a batch on the RSMA streams, plus the channel
    gains, stream weights and amplitude budgets.

    `channels`, `layouts` and `epsilons` hold one ChannelMatrix, one
    StreamLayout, of any scheme, and one amplitude budget per problem:
    B >= 1 of each, the channels all of one shape. Every per-problem
    array has one row per problem: the gains `H` (B, K, L), the stage
    noise (B, stages), the weights `w_priv` (B, K) and `w_common` (B,),
    the layouts' column masks `active` (B, K + 1) and the budgets `eps`
    (B,). Precoders are (B, L, K + 1).

    The kernel is the SIC kernel of K users, whatever the layouts: K
    private stages, then K common decoders, on the K + 1 RSMA columns. A
    column a problem's layout leaves empty (SDMA's common column, NOMA's
    weak user's private column) stays 0, and its stages add exact zeros
    to that problem's sums.
    """

    def __init__(self, channels: Sequence[ChannelMatrix], layouts: Sequence[StreamLayout], priorities: np.ndarray,
                 epsilons: Sequence[float]):
        if not (isinstance(channels, Sequence) and isinstance(layouts, Sequence)) or not channels \
                or len(channels) != len(layouts) or len({c.gains.shape for c in channels}) != 1:
            raise ValueError("a batch needs sequences of one channel per layout, at least one, all of one shape")
        self.eps = np.array(epsilons, dtype=float)
        if self.eps.shape != (len(channels),) or not (np.isfinite(self.eps).all() and (self.eps >= 0.0).all()):
            raise ValueError("epsilon must be finite and nonnegative, one per problem")
        w = np.asarray(priorities, dtype=float)
        weights = [_stream_weights(lay, w) for lay in layouts]
        self.w_priv = np.array([private for private, _ in weights])
        self.w_common = np.array([common for _, common in weights])
        self.active = np.stack([lay.active for lay in layouts])
        super().__init__(len(w), np.stack([c.noise for c in channels]))
        self.H = np.stack([c.gains for c in channels])
        self._index_powers(len(w))

    def _index_powers(self, K: int) -> None:
        """Which flat amplitudes make up each stage's powers, for the polish.

        Amplitudes (B, K, K + 1) are read as x (B, K (K + 1)). A stage's
        interference plus noise I is its noise plus the squares of x over
        `interference_mask`: its user's private columns that `_interferes`
        keeps. Its received power T adds its own amplitude (`power_mask`).

        `derivative_masks` holds, for T and then I, the mask M, 2 M, the
        (stages, W, W) diagonals 2 diag(M) of its Hessian and its sign in
        the rate (`_stage_derivatives`), made once per batch.
        """
        stages, W = self._gather.shape[1], K * (K + 1)
        self.interference_mask = np.zeros((stages, W))
        self.interference_mask[np.arange(stages)[:, None], self._gather[:K].T] = self._interferes.T
        self.power_mask = self.interference_mask.copy()
        self.power_mask[np.arange(stages), self._gather[-1]] = 1.0
        self.derivative_masks = tuple((mask, 2.0 * mask, (2.0 * mask)[..., None] * _eye(W), sign)
                                      for mask, sign in ((self.power_mask, 1.0), (self.interference_mask, -1.0)))

    def take(self, keep: np.ndarray) -> "_Compiled":
        """The compiled batch of the precoders selected by `keep` (a boolean
        mask or indices): every per-problem array's rows of `keep`."""
        sub = object.__new__(_Compiled)
        sub.__dict__.update(self.__dict__)
        sub.w_priv, sub.w_common, sub.active = self.w_priv[keep], self.w_common[keep], self.active[keep]
        sub.H, sub._sig2, sub.eps = self.H[keep], self._sig2[keep], self.eps[keep]
        return sub

    def true_rates(self, P: np.ndarray) -> np.ndarray:
        """WSR of the (B, L, K + 1) precoders under the greedy common-rate split."""
        return _amplitude_wsr(self, self.w_priv, self.w_common, self.H @ P)


def _amplitude_wsr(kernel: SicKernel, w_priv: np.ndarray, w_common, A: np.ndarray) -> np.ndarray:
    """WSR of (N, K, K + 1) received amplitudes on the RSMA columns under
    the greedy common-rate split: the private stages' rates weighted by
    the (1 or N, K) `w_priv` and added stage by stage (`_stage_sum`), then
    `w_common` (a scalar or one per row) times the common-rate cap (0
    with a zero common column). A solution's cap is read from its
    report."""
    sinr_p, sinr_c = kernel.sinrs(A)
    return _stage_sum(w_priv, np.log2(1.0 + sinr_p)) + w_common * np.log2(1.0 + sinr_c).min(axis=1)


# --------------------------------------------------------------------------
# the L1 projection
# --------------------------------------------------------------------------


def project_rows_l1(matrix: np.ndarray, radius) -> np.ndarray:
    """Euclidean projection of every row onto the L1 ball of `radius`.

    Rows run along the last axis. `radius` is one budget for all rows
    or an array that broadcasts against matrix.shape[:-1], one budget per
    row: (B, 1) gives each (L, n) stack of a (B, L, n) matrix its own, bit
    for bit as the (B, L) radius that repeats it.
    Sort-based exact projection, gather-free: every row of the stack is
    sorted and thresholded, none is picked out by a mask, and `where`
    keeps the rows already inside their ball unchanged (bitwise), so
    every row is projected with the same operations whatever the other
    rows are. The threshold theta is read from the (cumsum - radius) /
    rank array the sort condition is evaluated on, at the last rank
    where the condition holds. A projected row whose L1 norm still
    exceeds its radius is scaled onto the ball, so every row returned
    is inside it up to the rounding of that scaling.
    """
    r = np.asarray(radius, dtype=float)
    zero = None
    # a NaN radius fails both comparisons: it is neither above 0 nor at least 0
    if np.count_nonzero(r > 0.0) < r.size:
        if np.count_nonzero(~(r >= 0.0)):
            raise ValueError("radius must be nonnegative, not NaN")
        zero = r == 0.0
    P = np.asarray(matrix, dtype=float)
    if r.ndim and np.broadcast_shapes(r.shape, P.shape[:-1]) != P.shape[:-1]:
        raise ValueError("radius must be a scalar or broadcast against matrix.shape[:-1]")
    absP = np.abs(P)
    over = np.add.reduce(absP, axis=-1) > r
    if zero is not None:
        over &= ~zero
    over_rows = np.count_nonzero(over)
    if over_rows:
        n = P.shape[-1]
        U = absP.copy()
        U.sort(axis=-1)
        U = U[..., ::-1]
        css = np.add.accumulate(U, axis=-1)
        q = (css - (r[..., None] if r.ndim else r)) / np.arange(1.0, n + 1.0)
        cond = U > q  # U - q > 0, exactly, for finite U and q
        # flat index of the last rank whose condition holds (the last
        # rank if none does), counted back from each row's end
        last = np.arange(n - 1, q.size, n).reshape(over.shape) - cond[..., ::-1].argmax(axis=-1)
        out = np.sign(P) * np.maximum(absP - q.take(last)[..., None], 0.0)
        # theta is a difference of sums of the large entries, so a row far
        # outside its ball can come back a few digits over it: scale it on
        norm = np.add.reduce(np.abs(out), axis=-1)
        high = norm > r
        if np.count_nonzero(high):
            out *= np.where(high, r / np.where(high, norm, 1.0), 1.0)[..., None]
        if over_rows < over.size:
            out = np.where(over[..., None], out, P)
    else:
        out = np.array(P)
    if zero is not None:
        out[np.broadcast_to(zero, over.shape)] = 0.0
    return out


# --------------------------------------------------------------------------
# initial precoders
# --------------------------------------------------------------------------


def _starts(comp: _Compiled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zf, corners, splits): the fixed starts of every problem of `comp`
    on the RSMA columns, with the columns its layout leaves empty at 0,
    built for the whole batch at once. They are not projected onto the
    balls: `_solve_starts` projects every start.

    - zf (B, L, K + 1): zero forcing on the private columns the problem's
      mask fills. Pseudo-inverse columns (for a rank-deficient channel,
      the ridge-regularized inverse H^T (H H^T + 1e-6 I)^-1) are
      normalized to equal power and scaled by a common factor so the
      binding fixture row exactly meets the budget, whatever the scale of
      the gains (the columns are first scaled by a power of two, which is
      exact, so no norm overflows). With an active common
      column they are shrunk by 1e-3 and the common column takes each
      row's leftover budget.
    - corners (B, K, L, K + 1): the full budget on one user's stream, its
      private column or, for the user the mask leaves without one (NOMA's
      weak user), the common column: the single-user optima, which a
      start inside the balls reaches only by crawling.
    - splits (B, len(_SPLITS), L, K + 1): a share alpha of the budget on
      every row of the common column and the rest on ZF, for alpha in
      _SPLITS: the splits between the private and the common streams that
      ZF and the corners leave out. `ao_solve` starts only RSMA problems
      from them.

    The gains are nonnegative (`ChannelMatrix`), so a column of equal
    entries adds up in phase at every user.
    """
    H, active, eps = comp.H, comp.active, comp.eps
    B, K, L = H.shape
    Ht = H.transpose(0, 2, 1)
    ridge = Ht @ np.linalg.inv(H @ Ht + 1e-6 * np.eye(K))
    W = np.where((np.linalg.matrix_rank(H) < K)[:, None, None], ridge, np.linalg.pinv(H))
    # scaled by a power of two to a largest entry in [1/2, 1), exactly, so
    # that neither the squares of the norm overflow nor its floor binds
    W = np.ldexp(W, -np.frexp(np.abs(W).max(axis=(1, 2), keepdims=True))[1])
    W = W / np.maximum(np.linalg.norm(W, axis=1, keepdims=True), 1e-30)
    W = W * (eps / np.maximum(np.abs(W).sum(axis=2).max(axis=1), 1e-30))[:, None, None]
    zf = np.zeros((B, L, K + 1))
    zf[..., :K] = np.where(active[:, None, :K], W * np.where(active[:, K], 1.0 - 1e-3, 1.0)[:, None, None], 0.0)
    zf[..., K] = np.where(active[:, None, K], np.maximum(eps[:, None] - np.abs(zf).sum(axis=2), 0.0), 0.0)
    column = np.where(active[:, :K], np.arange(K), K)  # (B, K): the column of each user's corner
    corners = np.where(column[:, :, None, None] == np.arange(K + 1), eps[:, None, None, None], 0.0)
    alpha = np.array(_SPLITS)[:, None, None]
    splits = (1.0 - alpha) * zf[:, None]
    splits[..., K] += alpha[..., 0] * eps[:, None, None]
    return zf, np.broadcast_to(corners, (B, K, L, K + 1)), splits


# --------------------------------------------------------------------------
# the projected-Newton polish
# --------------------------------------------------------------------------


def _stage_derivatives(comp: _Compiled, P: np.ndarray):
    """(r, dr, d2r): every stage's rate in bits (B, stages), and its
    gradient (B, stages, W) and Hessian (B, stages, W, W) with respect to
    the flat received amplitudes x = (H P).reshape(B, W), W = K (K + 1).

    A stage's rate is (ln T - ln I) / ln 2 with T its received power and
    I = T - a^2 its interference plus noise. Each is the noise plus a sum
    of squares of x over a mask M (`_Compiled.power_mask`,
    `interference_mask`), and ln D, D = c + sum_M x_j^2, has gradient
    2 x_M / D and Hessian 2 diag(1_M) / D - (2 x_M / D)(2 x_M / D)^T.
    """
    x = (comp.H @ P).reshape(len(P), -1)
    x2 = x * x
    rate, grad, hess = 0.0, 0.0, 0.0
    for mask, mask2, diag, sign in comp.derivative_masks:
        D = comp._sig2 + (x2[:, None, :] * mask).sum(axis=2)
        g = mask2 * (x[:, None, :] / D[..., None])
        rate = rate + sign * np.log(D)
        grad = grad + sign * g
        hess = hess + sign * (diag / D[..., None, None] - g[..., :, None] * g[..., None, :])
    return rate / LN2, grad / LN2, hess / LN2


def _objective(comp: _Compiled, dr, d2r, lam: np.ndarray):
    """Gradient (B, W) and Hessian (B, W, W) in the flat amplitudes of
    sum_k w_k r_k + w_c sum_j lam_j r_cj, the two common decoders weighted
    by the (B, 2) `lam`."""
    weights = np.concatenate((comp.w_priv, comp.w_common[:, None] * lam), axis=1)
    return _stage_sum(weights, dr), _stage_sum(weights, d2r)


def _stage_sum(weights: np.ndarray, per_stage: np.ndarray) -> np.ndarray:
    """sum_s weights[:, s] per_stage[:, s], added stage by stage in order.
    A stage a problem does not weight adds exact zeros to its sum: this
    is the one reducer of weighted stage rates and their derivatives."""
    total = weights[:, 0, None] * per_stage[:, 0].reshape(len(per_stage), -1)
    for s in range(1, weights.shape[1]):
        total = total + weights[:, s, None] * per_stage[:, s].reshape(len(per_stage), -1)
    return total.reshape(per_stage.shape[:1] + per_stage.shape[2:])


def _decoder_weights(comp: _Compiled, r, dr, J, P: np.ndarray, near=None):
    """(gap, lam): the residual of the (B, L, S) precoders P of `comp` in
    b/s/Hz, and the (B, 2) common-decoder weights lam = (t, 1 - t) that
    attain it.

    t in [0, 1] weights common decoder 0 and 1 - t decoder 1; it starts
    on the binding decoder, decoder 0 on a tie. G(t), the gradient in P
    (chained through J) of sum_k w_k r_k + w_c (t r_c0 + (1 - t) r_c1),
    is affine in t, and

        gap(t) = sum_l eps ||G_l(t)||_inf - <G(t), P>    (eps = comp.eps)
                 + w_c (t r_c0 + (1 - t) r_c1 - min_j r_cj)

    is the Frank-Wolfe gap max_Q <G(t), Q - P> over the balls plus what
    the weighting gives away on the min. Both are linear in the point Q
    and in t, so min_t gap(t) is the most the WSR's first-order model,
    with the min taken of the decoders' linearizations, gains over the
    balls: the residual. On the common-rate min's kink (r_c0 = r_c1) it
    is the smallest gap over the weightings; where a decoder binds by
    delta bits, weight on the other one costs w_c delta, so the farther
    from the kink, the closer the residual is to the binding decoder's
    own gap, which bounds it. gap is convex and piecewise
    linear in t, so its minimum lies at 0, 1, or where two of a row's
    lines +-(a + t b) cross; only rows where gap falls as t leaves the
    binding decoder are searched.

    With `near` (bits), the second term is left out and t runs over [0,
    1] only where the decoders are within `near` of each other: the
    weighting that makes the point most nearly stationary on the kink,
    for the polish's kink step. A problem that does not weight the
    common stream (SDMA) has w_c = 0, so its gap is the private rates'
    alone.
    """
    n = comp.n_priv
    rc = r[:, n:]
    drc = dr[:, n:] * comp.w_common[:, None, None]
    a = _stage_sum(comp.w_priv, dr[:, :n])[:, None, :] + drc[:, 1:]  # (B, 1, W)
    b = drc[:, :1] - drc[:, 1:]
    t = (rc[:, 0] <= rc[:, 1]) * 1.0
    # what weight 1 on decoder 0, 1 gives away on the min
    if near is None:
        cost = comp.w_common[:, None] * (rc - rc.min(axis=1, keepdims=True))
    else:
        cost = np.zeros((len(r), 2))
        search = np.abs(rc[:, 0] - rc[:, 1]) <= near
    eps, mask = comp.eps, comp.active[:, None, :]
    a = (a @ J)[:, 0].reshape(P.shape) * mask
    b = (b @ J)[:, 0].reshape(P.shape) * mask

    def fw_gap(t, a, b, P, eps, cost):  # at the (rows, T) weights t
        G = a[:, None] + t[..., None, None] * b[:, None]
        fw = eps[:, None] * np.abs(G).max(axis=3).sum(axis=2) - (G * P[:, None]).sum(axis=(2, 3))
        return fw + t * cost[:, :1] + (1.0 - t) * cost[:, 1:]

    gap = fw_gap(t[:, None], a, b, P, eps, cost)[:, 0]
    if near is None:
        # gap's slope as weight moves off the binding decoder: a row's
        # eps ||G_l||_inf changes at the rate of its largest s_i db_i
        # over its entries of largest |G_i| (s_i the sign of G_i, or of
        # db_i at 0), and the min gives away w_c delta
        G = a + t[:, None, None] * b
        db = b * (1.0 - 2.0 * t)[:, None, None]
        absG = np.abs(G)
        rate = np.where(G != 0.0, np.sign(G) * db, np.abs(db))
        rate = np.where(absG == absG.max(axis=2, keepdims=True), rate, -np.inf).max(axis=2)
        slope = (eps[:, None] * rate).sum(axis=1) - (db * P).sum(axis=(1, 2)) + cost.max(axis=1)
        search = slope < 0.0
    if search.any():
        a, b = a[search], b[search]
        lines0 = np.concatenate((a, -a), axis=2)  # every row's 2 S lines, (rows, L, 2 S)
        lines1 = np.concatenate((b, -b), axis=2)
        i, j = _pairs(lines0.shape[2])
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (lines0[..., j] - lines0[..., i]) / (lines1[..., i] - lines1[..., j])
        rows = len(a)
        tk = np.concatenate((t[search, None], 1.0 - t[search, None], cross.reshape(rows, -1)), axis=1)
        tk = np.clip(np.where(np.isfinite(tk), tk, 0.0), 0.0, 1.0)
        gaps = fw_gap(tk, a, b, P[search], eps[search], cost[search])
        k = gaps.argmin(axis=1)
        gap[search], t[search] = gaps[np.arange(rows), k], tk[np.arange(rows), k]
    return gap, np.stack((t, 1.0 - t), axis=1)


def _newton_step(P: np.ndarray, grad: np.ndarray, hess: np.ndarray, eps: np.ndarray, active: np.ndarray,
                 held: np.ndarray, nu: np.ndarray, kink: np.ndarray, c: np.ndarray, gap_c: np.ndarray) -> np.ndarray:
    """The (B, L, S) Levenberg-shifted Newton step at P on the face that
    holds the rows of `held` (B, L) on their L1 balls (of radius `eps`, B)
    and, where `kink`, moves the two common decoders' rate difference
    gap_c (B,), of gradient c (B, n), to 0 to first order.

    Each of the B systems is solved on its own rows alone, so `_polish`
    stacks its binding-decoder systems and its kink systems into one call,
    and re-solves a subset of them in a second call with other `held` rows.

    A held row keeps its support and signs s, and its L1 norm moves to
    its radius. Its support is its entries above _FACE_BAND of the
    radius, and those below it (zeros included) whose signed gradient
    s_i G_i exceeds the row's multiplier, the mean s_i G_i of the others:
    an entry the multiplier outweighs goes to 0. The step is d0 + Z y,
    where d0 zeroes the entries dropped, spreads the missing norm evenly
    over the support along s, and Z projects onto the directions
    that keep the norm (I - s s^T / |support| on the support, 0
    elsewhere). Every other row moves freely in its active columns (Z =
    the identity there). Rows are separate blocks of Z, so every problem
    has one (n + 1, n + 1) system, n = L S:

        [sigma I - Z Hess Z   Z c] [y] = [Z (grad + Hess d0)]
        [(Z c)^T              0  ] [v]   [-gap_c - c^T d0   ]

    (the last row and column are the identity's without a kink, or when
    the face cannot move the difference; the kink row is scaled to
    sigma). The Levenberg shift sigma = max(lambda_max(Z Hess Z), 0) + nu
    |lambda|_max makes the upper left block positive definite; `nu` (one
    per problem) damps the step toward the gradient as it grows. Returns
    the step, the multiplier v of the kink row and Z c (both 0 without a
    kink row).
    """
    B, L, S = P.shape
    n = L * S
    absP = np.abs(P)
    G = grad.reshape(P.shape) * active[:, None, :]
    # a held row's multiplier: the mean of s_i G_i over its entries above
    # the band (its largest one if none is); an entry below the band stays
    # in (or enters) the support, with its sign or, at 0, its gradient's,
    # only if that beats the multiplier
    big = (absP > _FACE_BAND * eps[:, None, None]) | (absP == absP.max(axis=2, keepdims=True))
    big &= active[:, None, :] & (absP > 0.0)
    sign = np.where(absP > 0.0, np.sign(P), np.sign(G))
    multiplier = (sign * G * big).sum(axis=2) / np.maximum(big.sum(axis=2), 1)
    support = big | (active[:, None, :] & (sign * G > multiplier[..., None]))
    free = np.where(held[..., None], support, active[:, None, :])
    s = np.where(held[..., None] & free, sign, 0.0)
    count = np.maximum(free.sum(axis=2), 1)
    dropped = held[..., None] & ~free
    d0 = -P * dropped + s * ((eps[:, None] - (absP * ~dropped).sum(axis=2)) / count)[..., None]
    d0 = d0.reshape(B, n, 1)
    rows = free[..., None] * _eye(S) - s[..., :, None] * s[..., None, :] / count[..., None, None]
    Z = np.einsum("blst,lm->blsmt", rows, _eye(L)).reshape(B, n, n)
    ZHZ = Z @ hess @ Z
    ZHZ = 0.5 * (ZHZ + ZHZ.transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(ZHZ)
    scale = np.abs(lam).max(axis=1)
    shift = np.where(scale > 0.0, np.maximum(lam[:, -1], 0.0) + nu * scale, 1.0)
    M = np.zeros((B, n + 1, n + 1))
    M[:, :n, :n] = shift[:, None, None] * _eye(n) - ZHZ
    Zc = (Z @ c[..., None])[..., 0]
    # a face that cannot move the difference leaves it alone; the kink row
    # is scaled to the shift, so that no pivot of the system is tiny
    zmax = np.abs(Zc).max(axis=1)
    kink = kink & (zmax > 1e-9 * np.abs(c).max(axis=1))
    scaled = np.where(kink, shift / np.where(kink, zmax, 1.0), 0.0)
    M[:, :n, n] = M[:, n, :n] = Zc * scaled[:, None]
    M[:, n, n] = np.where(kink, 0.0, 1.0)
    rhs = np.concatenate(((Z @ (grad[..., None] + hess @ d0))[..., 0],
                          (scaled * (-gap_c - (c[:, None, :] @ d0)[:, 0, 0]))[:, None]), axis=1)
    y = np.linalg.solve(M, rhs[..., None])
    return (d0 + Z @ y[:, :n]).reshape(P.shape), scaled * y[:, n, 0], Zc * kink[:, None]


def _polish(comp: _Compiled, P: np.ndarray, wsr: np.ndarray, tolerance: float):
    """Projected Newton on the identified face, from every (B, L, K + 1)
    start of P in lockstep, each within its problem's budget `comp.eps`;
    `wsr` holds the starts' WSRs.

    Each iteration differentiates sum_k w_k r_k + w_c sum_j lam_j r_cj in
    A = H P and chains it through H: a (B, n) gradient and (B, n, n)
    Hessian, n = L (K + 1). Its Newton step d (`_newton_step`) is taken
    on the face that holds the rows near their balls (within _FACE_BAND)
    that a gradient step would push out, and then the rows the free step
    would take out of them, with lam weighting the binding common
    decoder (decoder 0 on a tie). When the two decoders are within _KINK
    bits of each other, a second step d' follows the kink of the
    common-rate min: it closes their difference to first order, with
    lam = (t, 1 - t), t first the weighting that makes the point most
    nearly stationary (`_decoder_weights`) and then corrected by each
    step's multiplier (sequential quadratic programming on the kink).
    The kink systems of the problems near the kink are stacked under every
    problem's binding-decoder system, and one `_newton_step` call solves
    them all. A second call solves again, with those rows held, only the
    systems whose free step takes a row out of its ball; for every other
    system the face would not change, and nor would its step.

    The candidates proj(P + a d) and proj(P + a d'), a = 2^-k, and each
    proj(P + a d') moved along Z c back onto the kink to first order (a
    second-order correction), are projected onto the balls, and the one
    of the highest true WSR is kept if it rises; if none does, the best
    of proj(P + t grad), t = 8^-k eps / |grad|_max, is kept if it rises,
    a step that can change the face. Away from the kink the kink
    candidates repeat the free ones, and the correction's projection and
    SINRs run on the problems near it alone. A problem's Levenberg
    weight nu falls fourfold after a full Newton step that rises and
    grows sixteenfold after a Newton step that does not.

    The residual is `_decoder_weights`'s. A problem stops when its
    residual is at most _POLISH_GAP or `tolerance`, whichever is smaller,
    when nothing rises at nu above _NU[2] (it is stuck), or after
    _POLISH_MAX_ITER iterations. It leaves the batch at the residual
    check that opens each iteration, the one exit: a stuck problem
    leaves at the next check, where its precoder has not moved, so its
    residual and count are those of the iteration it got stuck in. A
    problem that finds nothing rises at nu above _NU[2] while its
    residual is above `tolerance` starts afresh instead, if its WSR rose
    since it last did (or since its start): nu goes back to _NU[1] and
    the kink weight is taken anew. On the common-rate kink a
    multiplier-corrected weight and a grown nu can stall a problem at a
    point from which a fresh start climbs on (a NOMA problem with 4
    fixtures ended at a residual of 0.22 without it, and converges with
    it).

    Returns (P, history, residual): the final precoders, one list per
    start of its WSR before and after each of its iterations, and the
    final residuals.
    """
    B, L, S = P.shape
    n = L * S
    P, wsr = P.copy(), np.array(wsr, dtype=float)
    nu = np.full(B, _NU[1])
    kink_t = np.full(B, np.nan)  # the weight of decoder 0 at the kink
    rose = np.zeros(B, dtype=bool)  # the WSR rose since the start or the last fresh start
    stuck = np.zeros(B, dtype=bool)  # nothing rose at nu above _NU[2], and no fresh start
    history = np.empty((_POLISH_MAX_ITER + 1, B))
    history[0] = wsr
    iterations = np.empty(B, dtype=int)
    residual = np.empty(B)
    steps, tsteps = 0.5 ** np.arange(_NEWTON_STEPS), 0.125 ** np.arange(_GRADIENT_STEPS)
    H = comp.H
    J = (H[:, :, None, :, None] * _eye(S)[None, None, :, None, :]).reshape(B, -1, n)
    JT = np.ascontiguousarray(J.transpose(0, 2, 1))
    live, batch, Jl, JTl = np.arange(B), comp, J, JT
    stop = min(_POLISH_GAP, tolerance)
    for it in range(1, _POLISH_MAX_ITER + 2):
        Q = P[live]
        r, dr, d2r = _stage_derivatives(batch, Q)
        if not (np.isfinite(r).all() and np.isfinite(dr).all() and np.isfinite(d2r).all()):
            raise NumericalFailure("non-finite rate derivatives in the polish (check channel and noise scaling)")
        res, _ = _decoder_weights(batch, r, dr, Jl, Q)
        finished = (res <= stop) | stuck[live] | (it > _POLISH_MAX_ITER)
        if finished.any():
            residual[live[finished]] = res[finished]
            iterations[live[finished]] = it - 1
            keep = ~finished
            if not keep.any():
                break
            live, Q, res = live[keep], Q[keep], res[keep]
            r, dr, d2r = r[keep], dr[keep], d2r[keep]
            batch = comp.take(live)
            Jl, JTl = J[live], JT[live]
        m, e, act, nl, before = len(live), batch.eps, batch.active, nu[live], wsr[live]
        gap_c = r[:, -2] - r[:, -1]
        c = ((dr[:, -2] - dr[:, -1])[:, None, :] @ Jl)[:, 0]
        near = (np.abs(gap_c) <= _KINK) & (batch.w_common > 0.0)

        # one Newton system per problem on the binding decoder's smooth piece
        # (decoder 0 on a tie) and, near the kink, one more per near problem
        # that follows it, its decoders weighted by (t, 1 - t): first the
        # weighting that makes the point most nearly stationary, then t
        # corrected by the kink row's multiplier of each step. The kink
        # systems are stacked under the binding ones (system i is problem
        # owner[i]'s), so that one `_newton_step` call solves them all
        binding = (gap_c <= 0.0) * 1.0
        lam = np.stack((binding, 1.0 - binding), axis=1)
        kink_t[live[~near]] = np.nan
        kinked = np.flatnonzero(near)
        system = batch, Q, dr, d2r, Jl, JTl, e, act, nl, c, gap_c
        if len(kinked):
            t = kink_t[live[kinked]]
            fresh = np.isnan(t)
            if fresh.any():
                t = np.where(fresh, _decoder_weights(batch, r, dr, Jl, Q, _KINK)[1][kinked, 0], t)
            lam = np.concatenate((lam, np.stack((t, 1.0 - t), axis=1)))
            owner = np.concatenate((np.arange(m), kinked))
            system = (batch.take(owner),) + tuple(x[owner] for x in system[1:])
        sb, sQ, sdr, sd2r, sJ, sJT, se, sact, snu, sc, sgap = system
        kink = np.arange(len(sQ)) >= m
        grad_a, hess_a = _objective(sb, sdr, sd2r, lam)
        grad, hess = (grad_a[:, None, :] @ sJ)[:, 0], sJT @ hess_a @ sJ
        # the face: rows near their ball that a gradient step would push
        # out, and then the rows the free step would take out of it. A
        # system whose step takes none of its free rows out of its ball has
        # held | leaving == held, so only the others are solved again
        G = grad.reshape(sQ.shape) * sact[:, None, :]
        absQ = np.abs(sQ)
        outward = np.where(absQ > 0.0, np.sign(sQ) * G, np.abs(G)).sum(axis=2) > 0.0
        held = (absQ.sum(axis=2) >= se[:, None] * (1.0 - _FACE_BAND)) & outward
        d, v, zc = _newton_step(sQ, grad, hess, se, sact, held, snu, kink, sc, sgap)
        leaving = np.abs(sQ + d).sum(axis=2) > se[:, None]
        out = np.flatnonzero((leaving & ~held).any(axis=1))
        if len(out):
            d[out], v[out], zc[out] = _newton_step(sQ[out], grad[out], hess[out], se[out], sact[out],
                                                   (held | leaving)[out], snu[out], kink[out], sc[out], sgap[out])
        G, directions = G[:m], [d[:m]]
        if len(kinked):
            # away from the kink these candidates repeat the free ones, so
            # a problem's pick does not depend on the others
            directions.append(d[:m].copy())
            directions[1][kinked] = d[m:]
            kink_t[live[kinked]] = np.clip(t - v[m:] / batch.w_common[kinked], 0.0, 1.0)
        # a step longer than a ball's diameter is cut to it: projecting a
        # far point loses the step's direction, and its digits
        longest = [np.maximum(np.abs(d).sum(axis=2).max(axis=1), 1e-300) for d in directions]
        directions = [d * np.minimum(1.0, 2.0 * e / size)[:, None, None] for d, size in zip(directions, longest)]
        newton_cands = [Q[:, None] + steps[:, None, None] * d[:, None] for d in directions]
        if len(kinked):
            # a second-order correction: each kink candidate moves along Z c
            # until the decoders' rate difference is 0 to first order again
            k, zc = len(steps), zc[m:]
            kc = project_rows_l1(newton_cands[1][kinked].reshape(-1, L, S), np.repeat(e[kinked], k)[:, None])
            rep = batch.take(np.repeat(kinked, k))
            rates_c = np.log2(1.0 + rep.sinrs(rep.H @ kc)[1])
            czc = (c[kinked] * zc).sum(axis=1)
            along = np.where(czc > 0.0, 1.0 / np.where(czc > 0.0, czc, 1.0), 0.0)
            shift_k = (rates_c[:, 0] - rates_c[:, 1]).reshape(-1, k) * along[:, None]
            corrected = newton_cands[1].copy()
            corrected[kinked] = kc.reshape(-1, k, L, S) - shift_k[..., None, None] * zc.reshape(-1, 1, L, S)
            newton_cands.append(corrected)
        N = len(steps) * len(newton_cands)
        C = N + len(tsteps)
        gmax = np.abs(G).max(axis=(1, 2))
        t0 = e / np.where(gmax > 0.0, gmax, np.inf)
        cand = np.concatenate(newton_cands + [Q[:, None] + (t0[:, None] * tsteps)[..., None, None] * G[:, None]],
                              axis=1)
        cand = project_rows_l1(cand.reshape(m * C, L, S), np.repeat(e, C)[:, None])
        cwsr = batch.take(np.repeat(np.arange(m), C)).true_rates(cand).reshape(m, C)
        # the best Newton candidate if one rises, else the best gradient one
        newton_rose = cwsr[:, :N].max(axis=1) > before
        best = np.where(newton_rose, cwsr[:, :N].argmax(axis=1), N + cwsr[:, N:].argmax(axis=1))
        top = cwsr[np.arange(m), best]
        rise = top > before
        P[live[rise]] = cand.reshape(m, C, L, S)[rise, best[rise]]
        wsr[live[rise]] = top[rise]
        history[it, live] = wsr[live]
        full = best % len(steps) == 0
        nu[live] = nl = np.where(newton_rose, np.where(full, np.maximum(nl / 4.0, _NU[0]), nl),
                                 np.minimum(nl * 16.0, 16.0 * _NU[2]))
        rose[live[rise]] = True
        stuck[live] = halted = ~rise & (nl > _NU[2])
        afresh = halted & (res > tolerance) & rose[live]
        if afresh.any():
            again = live[afresh]
            nu[again], kink_t[again], rose[again], stuck[again] = _NU[1], np.nan, False, False
    return P, [history[: k + 1, b].tolist() for b, k in enumerate(iterations.tolist())], residual


# --------------------------------------------------------------------------
# the multi-start driver
# --------------------------------------------------------------------------


def _solve_starts(comp: _Compiled, P0: np.ndarray, config: AoConfig):
    """Every start of P0 projected onto its problem's balls (`comp.eps`),
    then polished in lockstep; returns `_polish`'s (P, history, residual)."""
    P = project_rows_l1(P0, comp.eps[:, None])
    wsr = comp.true_rates(P)
    bad = ~np.isfinite(wsr)
    if bad.any():
        raise NumericalFailure(f"non-finite WSR {wsr[bad][0]} at a start (check channel and noise scaling)")
    return _polish(comp, P, wsr, config.tolerance)


def ao_solve(
    problems: Sequence[Problem],
    priorities,
    config: AoConfig = AoConfig(),
    *,
    layout: StreamLayout,
) -> tuple[Solution, ...]:
    """Maximize each problem's weighted sum rate from its fixed starts,
    each finished by the projected-Newton polish; returns one Solution
    per problem, in order.

    A problem's starts are, in this order: ZF; one single-user corner
    per user, the full budget on that user's stream; the solutions of its
    `warm_from` problems (below); and, for RSMA, the four split starts
    with alpha = _SPLITS. `_starts` builds the ZF, corner and split starts
    of every problem of the call at once, and the loop only lays each
    problem's rows out in that order. The set is fixed, so a solve is
    deterministic. Every start is projected onto the balls and polished
    (`_polish`). The best final WSR wins, the earliest start on ties
    (`Solution.restart_index`). The polish only ever raises the WSR, so
    the result is at least as good as every warm start: an RSMA problem
    warm-started from its channel's SDMA and NOMA problems satisfies
    WSR(RSMA) >= max(WSR(SDMA), WSR(NOMA)). `scenarios.solve_schemes`
    seeds RSMA that way; without warm starts that bound is not assured.

    Each problem is solved under its own layout, `Problem.layout`
    (`build_layout(scheme, channel)`, made with the problem), which its
    Solution carries, so one call takes, say, the SDMA, NOMA (of either
    strong user) and RSMA problems of a sweep; the channels must
    all have one shape. Every start is built on the RSMA columns, with
    the columns the problem's layout leaves empty at 0 (see the module
    docstring), and each Solution's precoder is the winner's (L, K + 1)
    precoder on those columns.

    The starts are one table, a row per start in the order above,
    problem after problem: its problem (`owner`) and, for a warm start,
    the `warm_from` problem whose polished winner it is (`source`, -1
    for every other start). The starts run in waves, each one lockstep
    polish of its rows in table order: wave 0 holds every start without
    a source, and a warm start runs in its problem's depth, one more
    than the deepest depth of its `warm_from` problems (0 without warm
    starts). It is filled then from its source's winner, on the RSMA
    columns, with the columns its problem's layout leaves empty set to 0.

    The name is that of the alternating-optimization (AO) stage the
    solver once ran before the polish; it stays, with `layout`, because
    the benchmark's tracer binds both. `layout` is the first problem's
    `Problem.layout`, of its scheme: the tracer tags the call by
    `layout.scheme`.
    It goes once the tracer tags each problem by its own scheme (ROADMAP
    item 1).

    Every problem is solved under `config`. Each start's arithmetic
    touches only its own rows of every batched array, so a problem's
    Solution is the one it gets in a call of its `warm_from` problems
    and itself alone: a problem's result does not depend on its batch.
    """
    problems = tuple(problems)
    if not problems:
        raise ValueError("ao_solve needs at least one problem")
    if layout.scheme != problems[0].scheme:
        raise ValueError("layout must be of the first problem's scheme")
    if any(not 0 <= q < p for p, problem in enumerate(problems) for q in problem.warm_from):
        raise ValueError("warm_from may name only earlier problems of the call")
    w = np.asarray(priorities, dtype=float)
    channels = [problem.channel for problem in problems]
    layouts = [problem.layout for problem in problems]
    comp = _Compiled(channels, layouts, w, [problem.epsilon for problem in problems])
    K = channels[0].num_users

    zf, corners, splits = _starts(comp)
    blocks, owner, source, depth = [], [], [], []  # the start table, and each problem's depth
    for p, problem in enumerate(problems):
        refs = list(problem.warm_from)
        n = len(_SPLITS) * (problem.scheme == "rsma")
        blocks += [zf[p, None], corners[p], np.zeros((len(refs),) + zf.shape[1:]), splits[p, :n]]
        owner += [p] * (1 + K + len(refs) + n)
        source += [-1] * (K + 1) + refs + [-1] * n
        depth.append(1 + max(depth[q] for q in refs) if refs else 0)
    owner, source = np.array(owner), np.array(source)
    P = np.concatenate(blocks)
    firsts = np.searchsorted(owner, np.arange(len(problems) + 1)).tolist()
    wave = np.where(source >= 0, np.array(depth)[owner], 0)
    histories, residual, final = [None] * len(P), np.empty(len(P)), np.empty(len(P))

    def winner(q):  # the start of the best final WSR, the earliest on ties
        return firsts[q] + int(final[firsts[q] : firsts[q + 1]].argmax())

    for d in range(wave.max() + 1):
        rows = np.flatnonzero(wave == d)
        for b in rows[source[rows] >= 0]:
            P[b] = np.where(comp.active[owner[b]], P[winner(source[b])], 0.0)
        P[rows], hist, residual[rows] = _solve_starts(comp.take(owner[rows]), P[rows], config)
        for b, h in zip(rows, hist):
            histories[b], final[b] = h, h[-1]

    solutions = []
    for p, (ch, lay) in enumerate(zip(channels, layouts)):
        best = winner(p)
        precoder = Precoder(matrix=P[best].copy())
        report = assemble_report(ch, precoder, lay, weights=w)
        solutions.append(
            Solution(
                precoder=precoder,
                report=report,
                iterations=len(histories[best]) - 1,
                converged=bool(residual[best] <= config.tolerance),
                restart_index=best - firsts[p],
                wsr_history=tuple(histories[best]),
                residual=float(residual[best]),
                layout=lay,
            )
        )
    return tuple(solutions)


# --------------------------------------------------------------------------
# brute-force oracle for desk-scale instances
# --------------------------------------------------------------------------


def grid_oracle(
    channel: ChannelMatrix,
    layout: StreamLayout,
    priorities,
    epsilon: float,
    resolution: int = 21,
) -> float:
    """Exhaustive WSR maximum over a per-row L1-feasible precoder grid.

    Desk-scale verification only: refuses more than 2 fixtures or a
    resolution outside ORACLE_RESOLUTIONS (combinatorial blow-up), an
    epsilon that is negative or not finite, and a channel whose users are
    not the layout's. The grid has one dimension per column the layout's
    mask fills (`StreamLayout.active`), at most 3 for two users, and its
    rows hold 0 in the empty columns.

    The grid is `_grid_rows`, which holds the negation of each of its
    rows. Negating column s of every precoder row negates column s of the
    received amplitudes exactly, and every rate depends only on their
    squares, so the search fixes the sign of each column: the first row
    runs only over the grid rows whose entries are all >= 0, and the
    maximum is the one over the full grid, bit for bit.
    """
    layout.check_channel(channel)
    kernel = SicKernel(layout.num_users, channel.noise)
    private, common = _stream_weights(layout, np.asarray(priorities, dtype=float))
    active = layout.active
    L, S = channel.num_fixtures, int(active.sum())
    if L > 2 or resolution not in ORACLE_RESOLUTIONS:
        raise ValueError(f"grid oracle limited to <= 2 fixtures, resolution in {ORACLE_RESOLUTIONS}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be finite and nonnegative")
    if epsilon == 0.0:
        return 0.0
    grid = _grid_rows(epsilon, resolution, S)
    rows = np.zeros((len(grid), len(active)))
    rows[:, active] = grid  # an empty column is +0
    first = rows[(rows >= 0.0).all(axis=1)]
    H = channel.gains
    if L == 1:
        return float(_amplitude_wsr(kernel, private[None], common, first[:, None, :] * H[None, :, 0:1]).max())
    best = -np.inf
    # blocks of about 4e4 amplitude entries keep the temporaries in cache
    chunk = max(1, int(4e4 / rows.size))
    for lo in range(0, first.shape[0], chunk):
        r1 = first[lo : lo + chunk]
        # amplitudes for every (row1, row2) pair: A[k] = h_k0 r1 + h_k1 r2
        A = (
            H[None, None, :, 0:1] * r1[:, None, None, :]
            + H[None, None, :, 1:2] * rows[None, :, None, :]
        ).reshape(-1, channel.num_users, rows.shape[1])
        best = max(best, float(_amplitude_wsr(kernel, private[None], common, A).max()))
    return best


def _grid_rows(epsilon: float, resolution: int, S: int) -> np.ndarray:
    """The grid oracle's precoder rows: every point of the S-dimensional
    grid of `resolution` values per axis, from -epsilon to epsilon, that
    lies in the L1 ball of radius epsilon. Unlike np.linspace, whose
    middle point can round to a tiny negative number, the axis is
    symmetric bit for bit, so the negation of every grid row is one too.
    """
    axis = epsilon * (2.0 * np.arange(resolution) - (resolution - 1)) / (resolution - 1)
    mesh = np.stack(np.meshgrid(*([axis] * S), indexing="ij"), axis=-1).reshape(-1, S)
    return mesh[np.abs(mesh).sum(axis=1) <= epsilon + 1e-12]
