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
and the warm starts; see `ao_solve`) does the exploring. WMMSE
alternating optimization (AO; Shi, Razaviyayn, Luo & He 2011) once ran
up to 20 iterations from each start before the polish; from this start
set it changed no catalog WSR by more than rounding, so it went. The
names `ao_solve` and `AoConfig` stay (see each).

A start's residual is the most the first-order model of its WSR at its
final point, with the common-rate min taken of the decoders'
linearizations, could gain over the balls (b/s/Hz; a Frank-Wolfe gap,
see `_decoder_weights`), and a solution is `converged` when the winning
start's residual is at most `AoConfig.tolerance`. The SINRs behind the
true rates and the grid oracle, and the stage powers behind the
polish's derivatives, all come from signal_model.SicKernel.

The common-rate shares never enter the optimization explicitly: for
fixed priorities the optimal split is greedy (everything to the highest
priority taker, or to the weak user under NOMA), so the common stream
contributes through the minimum of the decoders' rates. The exact
shares are re-materialized from the true rates on exit.

Every problem is solved on the RSMA streams of its K users: the
private columns in user order, then the common one. Its scheme enters
only through its stream weights: a private weight is the user's
priority if its layout gives that user a private stream, else 0, and the
common weight is the priority of the user the greedy split hands the
common rate to (0 for SDMA). SDMA and NOMA are thus RSMA with a
zero-weighted stream. That stream starts at 0, the L1 projection keeps
it at 0 and the polish leaves its column out of every face and every
step, so it adds exact zeros to every rate and derivative. A batch's SIC
kernel is built from its one layout, or from RSMA's when its layouts
differ, so the stages of a stream that no problem of the batch weights
are left out.

Every start is one problem of a lockstep batch. Each problem has its
own channel (gains stacked as (B, K, L), noise as (B, K); a channel that
every problem shares is one row that broadcasts), stream weights, (L, K
+ 1) precoder in a (B, L, K + 1) stack, amplitude budget, Newton state,
iteration count and WSR history. All active problems take each polish
iteration together; a problem that has finished drops out of the batch.
Each array operation touches only a problem's own rows, and its sums
run over that problem's entries alone (no matrix product whose blocking
could depend on the batch size), so a problem's result does not depend
on the problems that share its batch. `ao_solve` runs the starts of
every problem it is given in waves, each wave one batch in which each
problem keeps its own scheme: a batch that mixes SDMA, NOMA and RSMA
problems is one RSMA batch in which each problem zero-weights the
streams its scheme lacks. A problem may name earlier problems of the
call whose solutions become its warm starts (`Problem.warm_from`), the
only way a solution seeds another solve; those starts run in a later
wave, from the named problems' polished winners. Which problems seed
RSMA, and from what, is `scenarios.solve_schemes`'s choice.

The arrays are a few problems of 2 x 4 x 3 entries, so a polish
iteration costs its count of numpy calls, not its arithmetic: a few
dozen calls on (B, n, n) stacks, one `eigvalsh` and one or two
`solve`s, and one L1 projection of every candidate step, which sorts
and thresholds the whole stack and keeps the rows inside their balls
with `where` (`project_rows_l1`).

A problem (`Problem`) is a channel, a scheme, an amplitude budget
epsilon and the problems whose solutions are its warm starts; its
starts are fixed by these (see `ao_solve`), so a solve draws no random
numbers. `AoConfig` holds only the settings every problem of a call
shares. The solver never sees an SNR: turning a sweep's SNR into
epsilon (`epsilon_from_snr`) is the caller's job.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, _rowdot
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
    "zf_precoder",
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Problem:
    """One problem of an `ao_solve` call: maximize the weighted sum rate
    of `scheme` ("rsma", "sdma" or "noma") on `channel` under the
    per-fixture amplitude budget `epsilon` (the radius of every row's L1
    ball). `warm_from` names earlier problems of the call (their indices)
    whose solutions are its warm starts, in that order."""

    channel: ChannelMatrix
    scheme: str
    epsilon: float
    warm_from: tuple = ()


@dataclass(frozen=True)
class Solution:
    """One problem's result: the winning start's precoder, rate report
    (with the common-rate shares), iteration count, convergence flag,
    WSR history and residual.

    `restart_index` names the winner among the problem's starts, in the
    order `ao_solve` lists them: 0 is ZF, 1..K the single-user corners,
    then the `warm_from` solutions in order, and last, for RSMA, the four
    split starts. `iterations` counts the winner's polish iterations, and
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

    private[k] is w_k if the layout gives user k a private stream, else
    0; common is the priority of the user the greedy split hands the
    common rate to, 0 without a common stream.
    """
    if w.shape != (layout.num_users,) or np.any(w <= 0):
        raise ValueError("priorities must be positive, one per user")
    private = np.zeros(layout.num_users)
    owners = [layout.streams[j].owner for j in layout.private_columns]
    private[owners] = w[owners]
    return private, float(w @ default_shares(layout, 1.0, w))


class _Compiled(SicKernel):
    """The SIC kernel of a batch on the RSMA streams, plus the channel
    gains and stream weights.

    `layout` is one StreamLayout or a sequence of them, of any schemes,
    one per problem; `channel` is one ChannelMatrix, shared by every
    problem, or a sequence with one per layout. The gains are held as (1
    or B, K, L) and the noise as (1 or B, K): a single channel is one
    row, whatever the layouts, and broadcasts over any batch. The
    weights are `w_priv` (1 or B, K) and `w_common` (1 or B,), one row
    per layout. Precoders are (B, L, K + 1).

    The kernel is built once, placed on the K + 1 RSMA columns, from the
    batch's one layout, or from RSMA's when its layouts differ. With
    positive priorities its stages are exactly those of the streams some
    problem weights: a stream no problem weights stays 0 and adds exact
    zeros, so SDMA's common stream (`common_col` is None) and the weak
    user's private stream of a NOMA batch with one strong user are left
    out. `w_own` holds the weights of the private stages kept.
    """

    def __init__(self, channel, layout, priorities: np.ndarray):
        channels = (channel,) if isinstance(channel, ChannelMatrix) else tuple(channel)
        layouts = (layout,) if isinstance(layout, StreamLayout) else tuple(layout)
        if not channels or len({c.gains.shape for c in channels}) != 1 or len(channels) not in (1, len(layouts)):
            raise ValueError("a batch needs at least one channel, all of one shape: one shared or one per layout")
        w = np.asarray(priorities, dtype=float)
        weights = [_stream_weights(lay, w) for lay in layouts]
        self.w_priv = np.array([private for private, _ in weights])
        self.w_common = np.array([common for _, common in weights])
        batch_layout = layouts[0] if len(set(layouts)) == 1 else build_layout("rsma", len(w), channels[0])
        super().__init__(batch_layout, np.stack([c.noise for c in channels]), on_rsma=True)
        self.w_own = self.w_priv[:, self.owners]
        self.H = np.stack([c.gains for c in channels])
        self._index_powers(len(w))

    def _index_powers(self, K: int) -> None:
        """Which flat amplitudes make up each stage's powers, for the polish.

        Amplitudes (B, K, K + 1) are read as x (B, K (K + 1)). A stage's
        received power T is its noise plus the squares of `power_mask`'s
        entries of x (the private columns at its user, and for a common
        stage its own amplitude), and its interference plus noise I the
        same without its own amplitude (`interference_mask`). `active`
        marks the columns some stage weights, (1 or B, K + 1).
        """
        width = K * (K + 1)
        stages = self._gather.shape[1]
        self.power_mask = np.zeros((stages, width))
        for s in range(stages):
            self.power_mask[s, self._gather[:, s]] = 1.0
        self.interference_mask = self.power_mask.copy()
        self.interference_mask[np.arange(stages), self._gather[-1]] = 0.0
        self.active = np.concatenate((self.w_priv > 0.0, (self.w_common > 0.0)[:, None]), axis=1)

    def take(self, keep: np.ndarray) -> "_Compiled":
        """The compiled batch of the precoders selected by `keep` (a boolean
        mask or indices). A single channel stays one row, so only the
        weights are gathered; a batch of one layout on one channel is
        returned as it is."""
        if len(self.w_priv) == 1:
            return self
        sub = object.__new__(_Compiled)
        sub.__dict__.update(self.__dict__)
        sub.w_priv, sub.w_own, sub.w_common = self.w_priv[keep], self.w_own[keep], self.w_common[keep]
        sub.active = self.active[keep]
        if len(self.H) > 1:
            sub.H, sub._sig2 = self.H[keep], self._sig2[keep]
        return sub

    def true_rates(self, P: np.ndarray):
        """(wsr, cap) of the (B, L, K + 1) precoders under the greedy common-rate split."""
        sinr_p, sinr_c = self.sinrs(self.H @ P)
        priv_rates = np.zeros((len(P), self.H.shape[1]))
        priv_rates[:, self.owners] = np.log2(1.0 + sinr_p)
        cap = np.zeros(len(P)) if sinr_c is None else np.log2(1.0 + sinr_c).min(axis=1)
        return _rowdot(priv_rates, self.w_priv) + self.w_common * cap, cap


def _amplitude_wsr(kernel: SicKernel, w_own: np.ndarray, w_common: float, A: np.ndarray) -> np.ndarray:
    """WSR of (N, K, S) received amplitudes of one layout's `kernel` under
    the greedy common-rate split, with `w_own` the weight of each private
    column; unlike true_rates, sums rates by one matrix-vector product."""
    sinr_p, sinr_c = kernel.sinrs(A)
    # .T: the stage-major (private columns, N) array, a BLAS-friendly operand
    wsr = w_own @ np.log2(1.0 + sinr_p).T
    if sinr_c is not None:
        wsr += w_common * np.log2(1.0 + sinr_c).min(axis=1)
    return wsr


# --------------------------------------------------------------------------
# the L1 projection
# --------------------------------------------------------------------------


def project_rows_l1(matrix: np.ndarray, radius) -> np.ndarray:
    """Euclidean projection of every row onto the L1 ball of `radius`.

    Rows run along the last axis. `radius` is one budget for all rows
    or an array of shape matrix.shape[:-1] with one budget per row.
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
    if np.count_nonzero(r <= 0.0):
        if np.count_nonzero(r < 0.0):
            raise ValueError("radius must be nonnegative")
        zero = r == 0.0
    P = np.asarray(matrix, dtype=float)
    if r.ndim and r.shape != P.shape[:-1]:
        raise ValueError("radius must be a scalar or of shape matrix.shape[:-1]")
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


def zf_precoder(channel: ChannelMatrix, epsilon: float) -> Precoder:
    """Zero-forcing directions scaled into the per-row L1 budget.

    Pseudo-inverse columns are normalized to equal power and scaled by a
    common factor so the binding fixture row exactly meets the budget.
    A rank-deficient channel falls back to a ridge-regularized inverse
    (ridge 1e-6).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    H = channel.gains
    K = channel.num_users
    if np.linalg.matrix_rank(H) < K:
        W = H.T @ np.linalg.inv(H @ H.T + 1e-6 * np.eye(K))
    else:
        W = np.linalg.pinv(H)
    norms = np.linalg.norm(W, axis=0)
    W = W / np.maximum(norms, 1e-30)
    row_l1 = np.abs(W).sum(axis=1).max()
    return Precoder(matrix=W * (epsilon / max(row_l1, 1e-30)))


def _zf_start(channel: ChannelMatrix, layout: StreamLayout, epsilon: float) -> np.ndarray:
    """ZF private columns; any common column takes the leftover row budget."""
    P = np.zeros((channel.num_fixtures, layout.num_streams))
    zf = zf_precoder(channel, epsilon).matrix
    common = layout.common_column
    frac = 1.0 if common is None else 1.0 - 1e-3
    for col in layout.private_columns:
        P[:, col] = zf[:, layout.streams[col].owner] * frac
    if common is not None:
        P[:, common] = np.maximum(epsilon - np.abs(P).sum(axis=1), 0.0) * _broadside(channel)
    return P


def _broadside(channel: ChannelMatrix) -> np.ndarray:
    """The signs (+1 at a zero) of each fixture's summed gains: a common
    column of these signs adds up in phase at every user."""
    signs = np.sign(channel.gains.sum(axis=0))
    signs[signs == 0] = 1.0
    return signs


def _beam_start(channel: ChannelMatrix, layout: StreamLayout, epsilon: float, user: int) -> np.ndarray:
    """Full budget to one user's stream: covers single-user corner optima.

    Users without a private stream (NOMA weak user) get the common
    column instead, matched in sign to their channel row.
    """
    P = np.zeros((channel.num_fixtures, layout.num_streams))
    col = layout.private_column_of(user)
    signs = np.sign(channel.gains[user])
    signs[signs == 0] = 1.0
    P[:, layout.common_column if col is None else col] = epsilon * signs
    return P


def _split_start(zf: np.ndarray, channel: ChannelMatrix, layout: StreamLayout, epsilon: float,
                 alpha: float) -> np.ndarray:
    """A share alpha of the budget on a common stream matched in sign to
    the summed channel (broadside), the rest on the problem's ZF start
    `zf` (`_zf_start`), projected onto the balls: the split between the
    private and the common streams that ZF and the corners leave out."""
    P = (1.0 - alpha) * zf
    P[:, layout.common_column] += alpha * epsilon * _broadside(channel)
    return project_rows_l1(P, epsilon)


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
    for mask, sign in ((comp.power_mask, 1.0), (comp.interference_mask, -1.0)):
        D = comp._sig2 + (x2[:, None, :] * mask).sum(axis=2)
        g = (2.0 * mask) * (x[:, None, :] / D[..., None])
        rate = rate + sign * np.log(D)
        grad = grad + sign * g
        diag = (2.0 * mask)[..., None] * np.eye(x.shape[1])
        hess = hess + sign * (diag / D[..., None, None] - g[..., :, None] * g[..., None, :])
    return rate / LN2, grad / LN2, hess / LN2


def _objective(comp: _Compiled, dr, d2r, lam: np.ndarray):
    """Gradient (B, W) and Hessian (B, W, W) in the flat amplitudes of
    sum_k w_k r_k + w_c sum_j lam_j r_cj, the common decoders weighted by
    the (B, decoders) `lam`."""
    B, n = len(dr), comp.n_priv
    weights = np.broadcast_to(comp.w_own, (B, n))
    if comp.common_col is not None:
        weights = np.concatenate((weights, comp.w_common[:, None] * lam), axis=1)
    return _stage_sum(weights, dr), _stage_sum(weights, d2r)


def _stage_sum(weights: np.ndarray, per_stage: np.ndarray) -> np.ndarray:
    """sum_s weights[:, s] per_stage[:, s], added stage by stage in order.
    A stage no problem weights adds exact zeros, so a problem's sum does
    not depend on which other stages its batch's kernel holds."""
    total = weights[:, 0, None] * per_stage[:, 0].reshape(len(per_stage), -1)
    for s in range(1, weights.shape[1]):
        total = total + weights[:, s, None] * per_stage[:, s].reshape(len(per_stage), -1)
    return total.reshape(per_stage.shape[:1] + per_stage.shape[2:])


def _decoder_weights(comp: _Compiled, r, dr, J, P: np.ndarray, eps: np.ndarray, active: np.ndarray, near=None):
    """(gap, lam): the residual of the (B, L, S) precoders P in b/s/Hz,
    and the (B, decoders) common-decoder weights lam that attain it.

    With two common decoders, t in [0, 1] weights decoder 0 and 1 - t
    decoder 1. G(t), the gradient in P (chained through J) of sum_k w_k
    r_k + w_c (t r_c0 + (1 - t) r_c1), is affine in t, and

        gap(t) = sum_l eps ||G_l(t)||_inf - <G(t), P>
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
    for the polish's kink step. Without a common stream the gap is the
    private rates' alone; with more than two decoders the binding one
    alone is weighted (the catalog's problems have two).
    """
    B, n = len(r), comp.n_priv
    a = _stage_sum(np.broadcast_to(comp.w_own, (B, n)), dr[:, :n])[:, None, :]  # (B, 1, W)
    b = np.zeros_like(a)
    t = np.zeros(B)
    cost = np.zeros((B, 2))  # what weight 1 on decoder 0, 1 gives away on the min
    search = np.zeros(B, dtype=bool)
    lam = np.zeros((B, 0))
    if comp.common_col is not None:
        rc = r[:, n:]
        binding = rc.argmin(axis=1)
        drc = dr[:, n:] * comp.w_common[:, None, None]
        lam = np.zeros_like(rc)
        lam[np.arange(B), binding] = 1.0
        if rc.shape[1] == 2:
            a, b = a + drc[:, 1:], drc[:, :1] - drc[:, 1:]
            t = lam[:, 0].copy()
            if near is None:
                cost = comp.w_common[:, None] * (rc - rc.min(axis=1, keepdims=True))
            else:
                search = np.abs(rc[:, 0] - rc[:, 1]) <= near
        else:
            a = a + _stage_sum(lam, drc)[:, None, :]
    mask = active[:, None, :]
    a = (a @ J)[:, 0].reshape(P.shape) * mask
    b = (b @ J)[:, 0].reshape(P.shape) * mask

    def fw_gap(t, a, b, P, eps, cost):  # at the (rows, T) weights t
        G = a[:, None] + t[..., None, None] * b[:, None]
        fw = eps[:, None] * np.abs(G).max(axis=3).sum(axis=2) - (G * P[:, None]).sum(axis=(2, 3))
        return fw + t * cost[:, :1] + (1.0 - t) * cost[:, 1:]

    gap = fw_gap(t[:, None], a, b, P, eps, cost)[:, 0]
    if near is None and lam.shape[1] == 2:
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
        i, j = np.triu_indices(lines0.shape[2], 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (lines0[..., j] - lines0[..., i]) / (lines1[..., i] - lines1[..., j])
        rows = len(a)
        tk = np.concatenate((t[search, None], 1.0 - t[search, None], cross.reshape(rows, -1)), axis=1)
        tk = np.clip(np.nan_to_num(tk, nan=0.0, posinf=0.0, neginf=0.0), 0.0, 1.0)
        gaps = fw_gap(tk, a, b, P[search], eps[search], cost[search])
        k = gaps.argmin(axis=1)
        gap[search], t[search] = gaps[np.arange(rows), k], tk[np.arange(rows), k]
    if lam.shape[1] == 2:
        lam = np.stack((t, 1.0 - t), axis=1)
    return gap, lam


def _newton_step(P: np.ndarray, grad: np.ndarray, hess: np.ndarray, radii: np.ndarray, active: np.ndarray,
                 held: np.ndarray, nu: np.ndarray, kink: np.ndarray, c: np.ndarray, gap_c: np.ndarray) -> np.ndarray:
    """The (B, L, S) Levenberg-shifted Newton step at P on the face that
    holds the rows of `held` (B, L) on their L1 balls and, where `kink`,
    moves the two common decoders' rate difference gap_c (B,), of
    gradient c (B, n), to 0 to first order.

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
    big = (absP > _FACE_BAND * radii[..., None]) | (absP == absP.max(axis=2, keepdims=True))
    big &= active[:, None, :] & (absP > 0.0)
    sign = np.where(absP > 0.0, np.sign(P), np.sign(G))
    multiplier = (sign * G * big).sum(axis=2) / np.maximum(big.sum(axis=2), 1)
    support = big | (active[:, None, :] & (sign * G > multiplier[..., None]))
    free = np.where(held[..., None], support, active[:, None, :])
    s = np.where(held[..., None] & free, sign, 0.0)
    count = np.maximum(free.sum(axis=2), 1)
    dropped = held[..., None] & ~free
    d0 = -P * dropped + s * ((radii - (absP * ~dropped).sum(axis=2)) / count)[..., None]
    d0 = d0.reshape(B, n, 1)
    rows = free[..., None] * np.eye(S) - s[..., :, None] * s[..., None, :] / count[..., None, None]
    Z = np.einsum("blst,lm->blsmt", rows, np.eye(L)).reshape(B, n, n)
    ZHZ = Z @ hess @ Z
    ZHZ = 0.5 * (ZHZ + ZHZ.transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(ZHZ)
    scale = np.abs(lam).max(axis=1)
    shift = np.where(scale > 0.0, np.maximum(lam[:, -1], 0.0) + nu * scale, 1.0)
    M = np.zeros((B, n + 1, n + 1))
    M[:, :n, :n] = shift[:, None, None] * np.eye(n) - ZHZ
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


def _polish(comp: _Compiled, radii: np.ndarray, P: np.ndarray, wsr: np.ndarray, tolerance: float):
    """Projected Newton on the identified face, from every (B, L, K + 1)
    start of P in lockstep; `radii` holds the (B, L) row budgets and
    `wsr` the starts' WSRs.

    Each iteration differentiates sum_k w_k r_k + w_c sum_j lam_j r_cj in
    A = H P and chains it through H: a (B, n) gradient and (B, n, n)
    Hessian, n = L (K + 1). Its Newton step d (`_newton_step`) is taken
    on the face that holds the rows near their balls (within _FACE_BAND)
    that a gradient step would push out, and then the rows the free step
    would take out of them, with lam weighting the binding common
    decoder. When two decoders are within _KINK bits of each other, a
    second step d' follows the kink of the common-rate min: it closes
    their difference to first order, with lam = (t, 1 - t), t first the
    weighting that makes the point most nearly stationary
    (`_decoder_weights`) and then corrected by each step's multiplier
    (sequential quadratic programming on the kink).

    The candidates proj(P + a d) and proj(P + a d'), a = 2^-k, and each
    proj(P + a d') moved along Z c back onto the kink to first order (a
    second-order correction), are projected onto the balls, and the one
    of the highest true WSR is kept if it rises; if none does, the best
    of proj(P + t grad), t = 8^-k eps / |grad|_max, is kept if it rises,
    a step that can change the face. A problem's Levenberg weight nu
    falls fourfold after a full Newton step that rises and grows
    sixteenfold after a Newton step that does not.

    The residual is `_decoder_weights`'s. A problem stops when its
    residual is at most _POLISH_GAP or `tolerance`, whichever is smaller,
    when nothing rises at nu above _NU[2], or after _POLISH_MAX_ITER
    iterations. A problem that finds nothing rises at nu above _NU[2]
    while its residual is above `tolerance` starts afresh instead, if its
    WSR rose since it last did (or since its start): nu goes back to
    _NU[1] and the kink weight is taken anew. On the common-rate kink a
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
    eps = radii.max(axis=1)
    active = np.broadcast_to(comp.active, (B, S))
    nu = np.full(B, _NU[1])
    kink_t = np.full(B, np.nan)  # the weight of decoder 0 at the kink
    rose = np.zeros(B, dtype=bool)  # the WSR rose since the start or the last fresh start
    history = np.empty((_POLISH_MAX_ITER + 1, B))
    history[0] = wsr
    iterations = np.full(B, _POLISH_MAX_ITER)
    residual = np.empty(B)
    steps, tsteps = 0.5 ** np.arange(_NEWTON_STEPS), 0.125 ** np.arange(_GRADIENT_STEPS)
    H = comp.H
    J = (H[:, :, None, :, None] * np.eye(S)[None, None, :, None, :]).reshape(len(H), -1, n)
    JT = J.transpose(0, 2, 1)
    live, batch, nd, n_priv = np.arange(B), comp, len(comp.decoders), comp.n_priv
    stop = min(_POLISH_GAP, tolerance)
    for it in range(1, _POLISH_MAX_ITER + 2):
        Q, e, act, R = P[live], eps[live], active[live], radii[live]
        Jl, JTl = (J, JT) if len(J) == 1 else (J[live], JT[live])
        r, dr, d2r = _stage_derivatives(batch, Q)
        if not (np.isfinite(r).all() and np.isfinite(dr).all() and np.isfinite(d2r).all()):
            raise NumericalFailure("non-finite rate derivatives in the polish (check channel and noise scaling)")
        res, _ = _decoder_weights(batch, r, dr, Jl, Q, e, act)
        finished = res <= stop
        if it > _POLISH_MAX_ITER:
            finished[:] = True
        if finished.any():
            residual[live[finished]] = res[finished]
            iterations[live[finished]] = it - 1
            keep = ~finished
            if not keep.any():
                break
            live, Q, e, act, R, res = live[keep], Q[keep], e[keep], act[keep], R[keep], res[keep]
            r, dr, d2r = r[keep], dr[keep], d2r[keep]
            batch = comp.take(live)
            Jl, JTl = (J, JT) if len(J) == 1 else (J[live], JT[live])
        m = len(live)
        if nd == 2:
            gap_c = r[:, -2] - r[:, -1]
            c = ((dr[:, -2] - dr[:, -1])[:, None, :] @ Jl)[:, 0]
            near = (np.abs(gap_c) <= _KINK) & (batch.w_common > 0.0)
        else:
            gap_c, c, near = np.zeros(m), np.zeros((m, n)), np.zeros(m, dtype=bool)

        def face_step(lam, kink):
            grad_a, hess_a = _objective(batch, dr, d2r, lam)
            grad, hess = (grad_a[:, None, :] @ Jl)[:, 0], JTl @ hess_a @ Jl
            # the face: rows near their ball that a gradient step would
            # push out, and then the rows the free step would take out of it
            G = grad.reshape(Q.shape) * act[:, None, :]
            absQ = np.abs(Q)
            outward = np.where(absQ > 0.0, np.sign(Q) * G, np.abs(G)).sum(axis=2) > 0.0
            held = (absQ.sum(axis=2) >= R * (1.0 - _FACE_BAND)) & outward
            d, v, zc = _newton_step(Q, grad, hess, R, act, held, nu[live], kink, c, gap_c)
            leaving = np.abs(Q + d).sum(axis=2) > R
            if (leaving & ~held).any():
                d, v, zc = _newton_step(Q, grad, hess, R, act, held | leaving, nu[live], kink, c, gap_c)
            return d, v, zc, G

        # the step on the binding decoder's smooth piece, and, near the
        # kink, the one that follows it, its decoders weighted by (t, 1 - t):
        # first the weighting that makes the point most nearly stationary,
        # then t corrected by the kink row's multiplier of each step
        binding = np.zeros((m, nd))
        if nd:
            binding[np.arange(m), r[:, n_priv:].argmin(axis=1)] = 1.0
        d, _, _, G = face_step(binding, np.zeros(m, dtype=bool))
        directions = [d]
        kink_t[live[~near]] = np.nan
        if near.any():
            t = kink_t[live]
            fresh = near & np.isnan(t)
            if fresh.any():
                t = np.where(fresh, _decoder_weights(batch, r, dr, Jl, Q, e, act, _KINK)[1][:, 0], t)
            t = np.where(near, t, 0.0)
            d, v, zc, _ = face_step(np.stack((t, 1.0 - t), axis=1), near)
            # away from the kink these candidates repeat the free ones, so
            # a problem's pick does not depend on the others
            directions.append(np.where(near[:, None, None], d, directions[0]))
            w_c = np.broadcast_to(batch.w_common, (m,))
            kink_t[live[near]] = np.clip(t - v / np.where(near, w_c, 1.0), 0.0, 1.0)[near]
        # a step longer than a ball's diameter is cut to it: projecting a
        # far point loses the step's direction, and its digits
        longest = [np.maximum(np.abs(d).sum(axis=2).max(axis=1), 1e-300) for d in directions]
        directions = [d * np.minimum(1.0, 2.0 * e / size)[:, None, None] for d, size in zip(directions, longest)]
        newton_cands = [Q[:, None] + steps[:, None, None] * d[:, None] for d in directions]
        if near.any():
            # a second-order correction: each kink candidate moves along Z c
            # until the decoders' rate difference is 0 to first order again
            k = len(steps)
            kc = project_rows_l1(newton_cands[1].reshape(m * k, L, S), np.repeat(R, k, axis=0))
            rep = batch.take(np.repeat(np.arange(m), k))
            rates_c = np.log2(1.0 + rep.sinrs(rep.H @ kc)[1])
            czc = (c * zc).sum(axis=1)
            along = np.where(near & (czc > 0.0), 1.0 / np.where(czc > 0.0, czc, 1.0), 0.0)
            shift_k = (rates_c[:, 0] - rates_c[:, 1]).reshape(m, k) * along[:, None]
            corrected = kc.reshape(m, k, L, S) - shift_k[..., None, None] * zc.reshape(m, 1, L, S)
            newton_cands.append(np.where(near[:, None, None, None], corrected, newton_cands[1]))
        N = len(steps) * len(newton_cands)
        C = N + len(tsteps)
        gmax = np.abs(G).max(axis=(1, 2))
        t0 = e / np.where(gmax > 0.0, gmax, np.inf)
        cand = np.concatenate(newton_cands + [Q[:, None] + (t0[:, None] * tsteps)[..., None, None] * G[:, None]],
                              axis=1)
        cand = project_rows_l1(cand.reshape(m * C, L, S), np.repeat(R, C, axis=0))
        cwsr, _ = batch.take(np.repeat(np.arange(m), C)).true_rates(cand)
        cwsr = cwsr.reshape(m, C)
        # the best Newton candidate if one rises, else the best gradient one
        newton_rose = cwsr[:, :N].max(axis=1) > wsr[live]
        best = np.where(newton_rose, cwsr[:, :N].argmax(axis=1), N + cwsr[:, N:].argmax(axis=1))
        top = cwsr[np.arange(m), best]
        rise = top > wsr[live]
        P[live[rise]] = cand.reshape(m, C, L, S)[rise, best[rise]]
        wsr[live[rise]] = top[rise]
        history[it, live] = wsr[live]
        full = best % len(steps) == 0
        nu[live] = np.where(newton_rose, np.where(full, np.maximum(nu[live] / 4.0, _NU[0]), nu[live]),
                            np.minimum(nu[live] * 16.0, 16.0 * _NU[2]))
        rose[live[rise]] = True
        stuck = ~rise & (nu[live] > _NU[2])
        afresh = stuck & (res > tolerance) & rose[live]
        if afresh.any():
            nu[live[afresh]], kink_t[live[afresh]], rose[live[afresh]] = _NU[1], np.nan, False
            stuck &= ~afresh
        if stuck.any():
            residual[live[stuck]] = res[stuck]
            iterations[live[stuck]] = it
            keep = ~stuck
            if not keep.any():
                break
            live = live[keep]
            batch = comp.take(live)
    return P, [history[: k + 1, b].tolist() for b, k in enumerate(iterations.tolist())], residual


# --------------------------------------------------------------------------
# the multi-start driver
# --------------------------------------------------------------------------


def _best(final, lo: int, n: int) -> int:
    """The start of lo .. lo + n - 1 with the best final WSR, the earliest on ties."""
    best = lo
    for b in range(lo + 1, lo + n):
        if final[b] > final[best]:
            best = b
    return best


def _solve_starts(comp: _Compiled, radii: np.ndarray, P0: np.ndarray, config: AoConfig):
    """Every start of P0 projected onto its (B, L) balls `radii`, then
    polished in lockstep; returns `_polish`'s (P, history, residual)."""
    P = project_rows_l1(P0, radii)
    wsr, _ = comp.true_rates(P)
    bad = ~np.isfinite(wsr)
    if bad.any():
        raise NumericalFailure(f"non-finite WSR {wsr[bad][0]} at a start (check channel and noise scaling)")
    return _polish(comp, radii, P, wsr, config.tolerance)


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
    per user, the full budget on that user's stream (`_beam_start`: the
    single-user optima, which a start inside the balls reaches only by
    crawling); the solutions of its `warm_from` problems (below); and, for
    RSMA, the four split starts `_split_start` with alpha = _SPLITS. The
    set is fixed, so a solve is deterministic. Every start is projected
    onto the balls and polished (`_polish`). The best final WSR wins, the
    earliest start on ties (`Solution.restart_index`). The polish only
    ever raises the WSR, so the result is at least as good as every warm
    start: an RSMA problem warm-started from its channel's SDMA and NOMA
    problems satisfies WSR(RSMA) >= max(WSR(SDMA), WSR(NOMA)).
    `scenarios.solve_schemes` seeds RSMA that way; without warm starts
    that bound is not assured.

    Each problem is solved under `build_layout(scheme, K, channel)` of
    its own scheme and channel, so one call takes, say, the SDMA, NOMA
    (of either strong user) and RSMA problems of a sweep; the channels
    must all have one shape. Every start is a matrix of that layout; the
    solver places it on the RSMA streams (see the module docstring), and
    each Solution's precoder and report are read back in that layout.

    The starts run in waves. Wave 0 holds every start but the warm
    ones. The warm starts of a problem run in wave d,
    one more than the deepest wave its `warm_from` problems finished in
    (a problem without warm starts finishes in wave 0): each is the
    polished winner of one `warm_from` problem, placed on the RSMA
    streams (`StreamLayout.to_rsma`) and read in this problem's layout,
    in the order given. Each wave is one lockstep polish.

    The name is that of the alternating-optimization (AO) stage the
    solver once ran before the polish; it stays, with `layout`, because
    the benchmark's tracer binds both. `layout` is the first problem's
    layout, of its scheme: the tracer tags the call by `layout.scheme`.
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
    epsilons = [float(problem.epsilon) for problem in problems]
    if min(epsilons) < 0:
        raise ValueError("epsilon must be nonnegative")
    w = np.asarray(priorities, dtype=float)
    channels = [problem.channel for problem in problems]
    built = {}  # one layout per distinct (scheme, channel)
    for problem, ch in zip(problems, channels):
        if (problem.scheme, id(ch)) not in built:
            built[problem.scheme, id(ch)] = build_layout(problem.scheme, ch.num_users, ch)
    layouts = [built[problem.scheme, id(ch)] for problem, ch in zip(problems, channels)]
    # a channel every problem shares is compiled once and broadcasts over
    # the batch, so dropping finished problems never copies its gains
    shared = len({id(ch) for ch in channels}) == 1
    comp = _Compiled(channels[0] if shared else channels, layouts[0] if len(built) == 1 else layouts, w)

    starts, counts, firsts, wave = [], [], [], []
    for problem, lay, eps in zip(problems, layouts, epsilons):
        ch, refs = problem.channel, problem.warm_from
        zf = _zf_start(ch, lay, eps)
        own = [zf] + [_beam_start(ch, lay, eps, k) for k in range(ch.num_users)]
        own += [np.zeros_like(zf)] * len(refs)  # filled from the named problems' winners
        if problem.scheme == "rsma":
            own += [_split_start(zf, ch, lay, eps, alpha) for alpha in _SPLITS]
        firsts.append(sum(counts))
        counts.append(len(own))
        starts.append(lay.to_rsma(np.stack(own)))
        wave.append(1 + max(wave[q] for q in refs) if refs else 0)
    K = channels[0].num_users
    owner = np.repeat(np.arange(len(problems)), counts)
    P = np.concatenate(starts)
    radii = np.repeat(np.repeat(epsilons, counts)[:, None], P.shape[1], axis=1)
    rank = np.concatenate([np.arange(n) for n in counts])  # each start's place among its problem's
    warm = (rank > K) & (rank <= K + np.array([len(problems[q].warm_from) for q in owner]))
    histories, residual, final = [None] * len(P), np.empty(len(P)), np.empty(len(P))

    def winner(q):
        return _best(final, firsts[q], counts[q])

    for d in range(max(wave) + 1):
        rows = np.flatnonzero(np.where(warm, np.array(wave)[owner] == d, d == 0))
        if not len(rows):
            continue
        for b in rows[warm[rows]]:
            p, q = owner[b], problems[owner[b]].warm_from[rank[b] - K - 1]
            sub, lay = layouts[q], layouts[p]
            matrix = P[winner(q)][:, sub.rsma_columns]  # its Solution's
            P[b] = lay.to_rsma(sub.to_rsma(matrix)[:, lay.rsma_columns])
        P[rows], hist, residual[rows] = _solve_starts(comp.take(owner[rows]), radii[rows], P[rows], config)
        for b, h in zip(rows, hist):
            histories[b], final[b] = h, h[-1]

    _, caps = comp.take(owner).true_rates(P)
    solutions = []
    for p, (ch, lay) in enumerate(zip(channels, layouts)):
        best = winner(p)
        shares = default_shares(lay, float(caps[best]), w)
        precoder = Precoder(matrix=P[best][:, lay.rsma_columns])
        report = assemble_report(ch, precoder, lay, shares=shares, weights=w)
        solutions.append(
            Solution(
                precoder=precoder,
                report=report,
                iterations=len(histories[best]) - 1,
                converged=bool(residual[best] <= config.tolerance),
                restart_index=best - firsts[p],
                wsr_history=tuple(histories[best]),
                residual=float(residual[best]),
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

    Desk-scale verification only: refuses more than 2 fixtures, 3
    streams or a resolution outside ORACLE_RESOLUTIONS (combinatorial
    blow-up).

    The grid is `_grid_rows`, which holds the negation of each of its
    rows. Negating column s of every precoder row negates column s of the
    received amplitudes exactly, and every rate depends only on their
    squares, so the search fixes the sign of each column: the first row
    runs only over the grid rows whose entries are all >= 0, and the
    maximum is the one over the full grid, bit for bit.
    """
    kernel = SicKernel(layout, channel.noise)
    private, common = _stream_weights(layout, np.asarray(priorities, dtype=float))
    w_own = private[kernel.owners]
    L, S = channel.num_fixtures, layout.num_streams
    if L > 2 or S > 3 or resolution not in ORACLE_RESOLUTIONS:
        raise ValueError(f"grid oracle limited to <= 2 fixtures, <= 3 streams, resolution in {ORACLE_RESOLUTIONS}")
    if epsilon == 0.0:
        return 0.0
    rows = _grid_rows(epsilon, resolution, S)
    first = rows[(rows >= 0.0).all(axis=1)]
    H = channel.gains
    if L == 1:
        return float(_amplitude_wsr(kernel, w_own, common, first[:, None, :] * H[None, :, 0:1]).max())
    best = -np.inf
    # blocks of about 4e4 amplitude entries keep the temporaries in cache
    chunk = max(1, int(4e4 / (rows.shape[0] * S)))
    for lo in range(0, first.shape[0], chunk):
        r1 = first[lo : lo + chunk]
        # amplitudes for every (row1, row2) pair: A[k] = h_k0 r1 + h_k1 r2
        A = (
            H[None, None, :, 0:1] * r1[:, None, None, :]
            + H[None, None, :, 1:2] * rows[None, :, None, :]
        ).reshape(-1, channel.num_users, S)
        best = max(best, float(_amplitude_wsr(kernel, w_own, common, A).max()))
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
