"""Weighted-sum-rate precoder optimization under per-fixture L1 budgets.

Alternating optimization in the WMMSE form: with the precoder fixed,
per-stream MMSE equalizers and inverse-MSE weights have closed forms;
with those fixed, the weighted-sum-MSE surrogate is concave quadratic
in the precoder and is maximized by accelerated projected gradient over
the per-row L1 balls. The surrogate is a tight lower bound of the true
weighted sum rate at freshly updated equalizers/weights, which makes
the outer loop monotonically nondecreasing. The stage amplitudes,
received powers and SINRs behind the equalizers, the surrogate, the
true rates and the grid oracle all come from signal_model.SicKernel.

The common-rate shares never enter the subproblem explicitly: for fixed
priorities the optimal split is greedy (everything to the highest
priority taker, or to the weak user under NOMA), so the common stream
contributes through the minimum of the decoders' surrogate rates. The
exact shares are re-materialized from the true rates on exit.

Every problem is solved on the RSMA streams of its K users: the
private columns in user order, then the common one. Its scheme enters
only through its stream weights: a private weight is the user's
priority if its layout gives that user a private stream, else 0, and the
common weight is the priority of the user the greedy split hands the
common rate to (0 for SDMA). SDMA and NOMA are thus RSMA with a
zero-weighted stream. That stream starts at 0, gets a zero gradient,
and the L1 projection keeps it at 0, so it adds exact zeros to every
rate, surrogate value and step bound, and the solve is the one of the
scheme's own layout bit for bit. A batch's SIC kernel is built from
its one layout, or from RSMA's when its layouts differ, so the stages of
a stream that no problem of the batch weights are left out.

Every start is one problem of a lockstep batch. Each problem has its
own channel (gains stacked as (B, K, L), noise as (B, K); a channel that
every problem shares is one row that broadcasts), stream weights, (L, K
+ 1) precoder in a (B, L, K + 1) stack, amplitude budget, FISTA state,
outer iteration count, convergence flag and WSR history. All active
problems take each AO iteration, and each projected-gradient step
inside it, together; a problem that has finished drops out of the
batch, and one can enter it later. Each array operation applies to
every problem the same floating-point operations in the same order as a
batch of one, so a problem's result does not depend, bit for bit, on
the problems that share its batch. `ao_solve` runs every start of every
problem it is given as one batch, each problem under its own scheme: a
batch that mixes SDMA, NOMA and RSMA problems is one RSMA batch in which
each problem zero-weights the streams its scheme lacks. A problem may
name earlier problems of the call whose solutions become its warm
starts (`Problem.warm_from`), the only way a solution seeds another
solve; those starts enter the running batch once the problems they
name have finished. Which problems seed RSMA, and from
what, is `scenarios.solve_schemes`'s choice.

The arrays are a few problems of 2 x 4 x 3 entries, so a
projected-gradient step costs its count of numpy calls, not its
arithmetic, and the step keeps that count low: the stage amplitudes and
powers come from one flat gather (`SicKernel.stage_arrays`); the
gradient is assembled from dense per-problem pieces built once per AO
iteration, with one gather of the binding common decoder's piece
(`_SurrogateBatch`); the L1 projection sorts and thresholds the whole
stack and keeps the rows inside their balls with `where`
(`project_rows_l1`); and FISTA's momentum weights come from a table.
None of this changes an operation: every entry still gets the
floating-point operations of a batch of one, in the same order.

A problem (`Problem`) is a channel, a scheme, an amplitude budget
epsilon, a random-start seed and the problems whose solutions are its
warm starts; `AoConfig` holds only the settings every problem of a call
shares. The solver never sees an SNR: turning a sweep's SNR into
epsilon (`epsilon_from_snr`) is the caller's job.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, _libm, _rowdot
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
_DEN_FLOOR = 1e-300
# inner projected-gradient loop of every AO iteration: step cap and
# relative surrogate-gain stop
_PG_MAX_ITER = 150
_PG_TOL = 1e-8
# grid points per dimension the grid oracle accepts
ORACLE_RESOLUTIONS = range(2, 22)


class NumericalFailure(RuntimeError):
    """Raised when the subproblem solver meets non-finite numbers."""


@dataclass(frozen=True)
class AoConfig:
    """Settings of the alternating-optimization solver.

    They hold for every problem of an `ao_solve` call; a problem's
    amplitude budget, random-start seed and warm starts are fields of its
    `Problem`. `restarts` counts all initializations including the
    mandatory ones (ZF, one single-user corner per user and the
    solutions of `warm_from`); random starts fill the rest, at least
    one.
    """

    tolerance: float = 1e-4  # bits/s/Hz WSR change
    max_iterations: int = 500
    restarts: int = 4

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")


@dataclass(frozen=True)
class Problem:
    """One problem of an `ao_solve` call: maximize the weighted sum rate
    of `scheme` ("rsma", "sdma" or "noma") on `channel` under the
    per-fixture amplitude budget `epsilon` (the radius of every row's L1
    ball), with `seed` seeding its random starts. `warm_from` names
    earlier problems of the call (their indices) whose solutions are its
    warm starts, in that order."""

    channel: ChannelMatrix
    scheme: str
    epsilon: float
    seed: int
    warm_from: tuple = ()


@dataclass(frozen=True)
class Solution:
    precoder: Precoder
    shares: np.ndarray
    report: RateReport
    iterations: int
    converged: bool
    restart_index: int
    wsr_history: tuple

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
    or B, K, L) with `HT` the matching (1 or B, L, K) view, `hnorm2` as
    (1 or B, K) and the noise as (1 or B, K): a single channel is one
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
        # a view: each problem's HT has the strides of its (K, L) gains' .T
        self.HT = self.H.transpose(0, 2, 1)
        self.hnorm2 = np.sum(self.H**2, axis=2)
        self._index_pieces(len(w))

    def _index_pieces(self, K: int) -> None:
        """Where `_SurrogateBatch` places its gradient coefficients.

        A problem's pieces are (slices, blocks, K, K + 1): one slice per
        common decoder (a single one without a common stream), holding
        the blocks lin, alpha and, with a common stream, cc2. Their
        coefficients come as one row per problem: the private stages'
        lin, then their alpha, then each decoder's cc2, then its lin.
        `piece_at` holds each coefficient's flat position in the pieces
        and `piece_of` its column in that row.
        """
        n, cols, owners = self.n_priv, list(self._cols), self.owners.tolist()
        decoders, common = self.decoders.tolist(), self.common_col is not None
        slices = len(decoders) if common else 1
        entries = []  # (slice, block, user, column, source column) of each coefficient
        for d in range(slices):
            for i, (owner, col) in enumerate(zip(owners, cols)):
                entries.append((d, 0, owner, col, i))
                entries += [(d, 1, owner, other, n + i) for other in cols]
            if common:
                entries += [(d, 2, decoders[d], col, 2 * n + d) for col in cols + [self.common_col]]
                entries.append((d, 0, decoders[d], self.common_col, 2 * n + slices + d))
        entries = np.array(entries, dtype=np.intp)
        self.piece_shape = (slices, 3 if common else 2, K, K + 1)
        self.piece_size = math.prod(self.piece_shape)
        self.piece_at = np.ravel_multi_index(tuple(entries[:, :4].T), self.piece_shape)
        self.piece_of = entries[:, 4]

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
        if len(self.H) > 1:
            sub.H, sub.hnorm2, sub._sig2 = self.H[keep], self.hnorm2[keep], self._sig2[keep]
            sub.HT = sub.H.transpose(0, 2, 1)
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


def _mmse_gu(a: np.ndarray, T: np.ndarray):
    """MMSE equalizer gains and inverse-MSE weights for one stage batch."""
    g = a / np.maximum(T, _DEN_FLOOR)
    mse = 1.0 - g * a  # equals 1/(1+SINR) at the MMSE gain
    u = 1.0 / np.maximum(mse, 1e-15)
    return g, u


# --------------------------------------------------------------------------
# projection and the surrogate subproblem
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
    where the condition holds.
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
        if over_rows < over.size:
            out = np.where(over[..., None], out, P)
    else:
        out = np.array(P)
    if zero is not None:
        out[np.broadcast_to(zero, over.shape)] = 0.0
    return out


class _SurrogateBatch:
    """Weighted-sum surrogates of the WSR for fixed equalizers/weights.

    One surrogate per problem of the batch: value(P) = sum_k w_k *
    r_p_k(P) + w_common * min_j r_c_j(P) with r = log2(u) + (1 - u *
    mse(P)) / ln 2 per stream stage; concave in P (quadratic per smooth
    piece). The gradient uses the binding decoder of the min term. The
    fixed step is 1 / (Hessian norm bound), which satisfies the descent
    lemma on every smooth piece. Equalizers and weights have one row per
    problem: (B, private stages) and (B, common decoders).

    The gradient with respect to the amplitudes A = H P is built from
    dense (K, K + 1) pieces, one stack per problem and possible binding
    decoder, set up once per AO iteration: `lin`, the constant term (each
    private stage's 2 coef g at its owner's own column, and the
    decoder's common term at its row of the common column); `alpha`,
    each user's private-stage curvature on every private column of its
    row; and the decoder's curvature `cc2` on the private and common
    columns of its row. A step gathers the binding decoder's stack and
    forms lin - alpha * A - cc2 * A, entry by entry the floating-point
    operations of a batch of one that scatters each term into zeros
    (the zeros of lin are +0, so no entry's sign of zero moves). Per-stage
    coefficients and per-problem scalars, the common weight included, are
    columns of one array, so dropping finished problems is two row
    gathers, plus the channels' when each problem has its own.
    """

    def __init__(self, comp: _Compiled, g_p, u_p, g_c, u_c):
        self.c = comp
        n = comp.n_priv
        common = comp.common_col is not None
        g = np.concatenate((g_p, g_c), axis=1) if common else g_p
        g2 = g**2
        coef_p = comp.w_own * u_p / LN2
        two_coef = 2.0 * coef_p
        alpha = two_coef * g2[:, :n]
        pieces = [two_coef * g_p, alpha]
        columns = [g2, 2.0 * g, coef_p, _rowdot(np.log2(u_p) + 1.0 / LN2, comp.w_own)[:, None]]
        lip = (alpha * comp.hnorm2[:, comp.owners]).sum(axis=1)
        if common:
            rate_coef_c = u_c / LN2  # unweighted; the min picks the binding decoder
            two_coef_c = 2.0 * (comp.w_common[:, None] * rate_coef_c)
            lip = lip + (two_coef_c * g2[:, n:] * comp.hnorm2[:, comp.decoders]).max(axis=1)
            # the gradient squares each decoder gain with the C library's
            # pow(), which can round differently from the array square
            # above; tests/serial_reference.py pins these bits
            g2_pow = _libm(math.pow, g_c.ravel(), 2.0).reshape(g_c.shape)
            pieces += [two_coef_c * g2_pow, two_coef_c * g_c]
            columns += [rate_coef_c, np.log2(u_c) + 1.0 / LN2, np.broadcast_to(comp.w_common, len(g))[:, None]]
        columns.append((1.0 / np.maximum(lip, 1e-12))[:, None])
        # g2, two_g (every stage), coef_p, base_p, [rate_coef_c, base_c, w_common], step
        self._columns = np.concatenate(columns, axis=1)
        # + 0.0 turns a -0.0 coefficient into the +0.0 that adding it to zeros gives
        dense = np.zeros((len(g), comp.piece_size))
        dense[:, comp.piece_at] = (np.concatenate(pieces, axis=1) + 0.0)[:, comp.piece_of]
        self._pieces = dense.reshape((len(g),) + comp.piece_shape)
        self._views()

    def _views(self):
        """Name the columns and pieces of the current problems."""
        c, v = self.c, self._columns
        n, m = c.n_priv, c.n_priv + len(c.decoders)  # private stages, all stages
        self.g2, self.two_g, self.coef_p = v[:, :m], v[:, m : 2 * m], v[:, 2 * m : 2 * m + n]
        self.base_p, self.step = v[:, 2 * m + n], v[:, -1]
        self.step3 = self.step[:, None, None]
        if c.common_col is None:
            self._lin, self._alpha = self._pieces[:, 0, 0], self._pieces[:, 0, 1]
        else:
            self.rate_coef_c, self.base_c = v[:, 2 * m + n + 1 : 3 * m + 1], v[:, 3 * m + 1 : -2]
            self.w_common = v[:, -2]
            self._by_decoder = self._pieces.reshape((-1,) + self._pieces.shape[2:])
            self._first = np.arange(0, len(v) * (m - n), m - n)  # each problem's first stack

    def take(self, keep: np.ndarray) -> "_SurrogateBatch":
        """The surrogates of the problems selected by `keep`. The weights
        are columns, so a shared channel (one row of gains and noise) is
        kept as it is and only a batch of per-problem channels is taken."""
        sub = object.__new__(_SurrogateBatch)
        sub.c = self.c if len(self.c.H) == 1 else self.c.take(keep)
        sub._columns, sub._pieces = self._columns[keep], self._pieces[keep]
        sub._views()
        return sub

    def _amplitudes_and_mse(self, P: np.ndarray):
        A = self.c.H @ P
        a, T = self.c.stage_arrays(A)
        return A, self.g2 * T - self.two_g * a + 1.0

    def value(self, P: np.ndarray) -> np.ndarray:
        c = self.c
        _, mse = self._amplitudes_and_mse(P)
        n = c.n_priv
        value = self.base_p - _rowdot(self.coef_p, mse[:, :n])
        if c.common_col is not None:
            value = value + self.w_common * (self.base_c - self.rate_coef_c * mse[:, n:]).min(axis=1)
        return value

    def grad(self, P: np.ndarray) -> np.ndarray:
        c = self.c
        if c.common_col is None:
            return c.HT @ (self._lin - self._alpha * (c.H @ P))
        A, mse = self._amplitudes_and_mse(P)
        jb = (self.base_c - self.rate_coef_c * mse[:, c.n_priv :]).argmin(axis=1)
        lin_alpha_cc2 = self._by_decoder.take(self._first + jb, axis=0)
        terms = lin_alpha_cc2[:, 1:] * A[:, None]
        return c.HT @ (lin_alpha_cc2[:, 0] - terms[:, 0] - terms[:, 1])


@functools.lru_cache(maxsize=4)
def _momentum(steps: int) -> np.ndarray:
    """FISTA's momentum weights (t_n / t_{n+1}, (t_n - 1) / t_{n+1}) for
    n = 0 .. steps, with t_0 = 1 and t_{n+1} = (1 + sqrt(1 + 4 t_n^2)) / 2;
    a read-only array shared by every caller. Each weight is computed
    with the float operations, in the order, of a per-step update."""
    table = np.empty((steps + 1, 2))
    t = 1.0
    for row in table:
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        row[:] = t / t_next, (t - 1.0) / t_next
        t = t_next
    table.flags.writeable = False
    return table


def _maximize_batch(sur: _SurrogateBatch, radius: np.ndarray, x: np.ndarray, max_iter: int, tol: float):
    """Monotone accelerated projected gradient on every surrogate in lockstep.

    FISTA-style momentum with a monotone safeguard: the kept iterate
    never decreases the surrogate, and momentum restarts whenever the
    accelerated candidate fails to improve. Each problem keeps its own
    momentum index, small-step count and flag for "y is the best point
    x"; it leaves the batch when its step from x itself fails or after
    two consecutive small gains. `radius` is (B, L) and every row of the
    (B, L, S) start `x` lies in its ball (the AO loop passes the previous
    projection's output); returns the (B, L, S) maximizers.
    """
    fx = sur.value(x)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise NumericalFailure(f"non-finite surrogate value {fx[bad][0]} at the subproblem start")
    out = np.empty_like(x)
    live = np.arange(len(x))  # batch positions of the problems still running
    y, x_prev = x, x
    momentum = _momentum(max_iter)
    steps = np.zeros(len(x), dtype=np.intp)  # improving steps since the momentum restarted
    small_steps = np.zeros(len(x), dtype=np.intp)
    y_is_x = np.ones(len(x), dtype=bool)  # None stands for False for every problem
    # np.count_nonzero tests a mask in one C call; .any() and .all() add a
    # Python frame each
    for _ in range(max_iter):
        grad = sur.grad(y)
        if np.count_nonzero(np.isfinite(grad)) < grad.size:
            raise NumericalFailure("non-finite surrogate gradient (check channel and noise scaling)")
        z = project_rows_l1(y + sur.step3 * grad, radius)
        fz = sur.value(z)
        up = fz >= fx
        weights = momentum.take(steps, axis=0)
        y_next = z + weights[:, 0, None, None] * (z - x) + weights[:, 1, None, None] * (x - x_prev)
        small = fz - fx <= tol * np.maximum(1.0, np.abs(fz))
        # improved: keep z and step on with momentum; otherwise restart
        # the momentum from x, or stop if the step from x itself failed
        if np.count_nonzero(up) == len(up):
            x_prev, x, y, fx = x, z, y_next, fz
            steps = steps + 1
            small_steps = np.where(small, small_steps + 1, 0)
            done = small_steps >= 2
            y_is_x = None
        else:
            down = ~up
            up3 = up[:, None, None]
            x_prev, x = x, np.where(up3, z, x)
            y = np.where(up3, y_next, x_prev)
            fx = np.where(up, fz, fx)
            steps = np.where(up, steps + 1, 0)
            small_steps = np.where(up, np.where(small, small_steps + 1, 0), small_steps)
            done = small_steps >= 2
            if y_is_x is not None:
                done |= down & y_is_x
            y_is_x = down
        if np.count_nonzero(done):
            out[live[done]] = x[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return out
            live = live[keep]
            sur = sur.take(keep)
            radius = radius[keep]
            x, x_prev, y, fx = x[keep], x_prev[keep], y[keep], fx[keep]
            steps, small_steps = steps[keep], small_steps[keep]
            if y_is_x is not None:
                y_is_x = y_is_x[keep]
    out[live] = x
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
        residual = np.maximum(epsilon - np.abs(P).sum(axis=1), 0.0)
        broadside = np.sign(channel.gains.sum(axis=0))
        broadside[broadside == 0] = 1.0
        P[:, common] = residual * broadside
    return P


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


def _random_start(channel: ChannelMatrix, layout: StreamLayout, epsilon: float, rng) -> np.ndarray:
    P = rng.uniform(-1.0, 1.0, size=(channel.num_fixtures, layout.num_streams))
    row_l1 = np.abs(P).sum(axis=1, keepdims=True)
    return P / np.maximum(row_l1, 1e-30) * (epsilon * rng.uniform(0.3, 1.0))


# --------------------------------------------------------------------------
# the alternating-optimization driver
# --------------------------------------------------------------------------


def _best(final, lo: int, n: int) -> int:
    """The start of lo .. lo + n - 1 with the best final WSR, the earliest on ties."""
    best = lo
    for b in range(lo + 1, lo + n):
        if final[b] > final[best]:
            best = b
    return best


def _ao_batch(comp: _Compiled, epsilon: np.ndarray, P0: np.ndarray, config: AoConfig, admit=()):
    """AO from every start of the (B, L, K + 1) stack P0 in lockstep.

    `comp` holds one channel per start or one shared channel, and
    `epsilon` one budget per start. Every start enters the batch at outer
    iteration 0, except those of `admit`: an entry (rows, after, fill)
    names starts whose rows of P0 are placeholders. They enter at the
    first outer iteration after every start of `after` has finished, from
    the (len(rows), L, K + 1) stack `fill(P, final)` returns, where P and
    `final` hold the final precoders and WSRs of the finished starts. A
    start's history, iteration count and `config.max_iterations` cap
    count its own iterations from its entry. The full compiled batch is
    kept, and the live rows are taken from it again whenever starts
    finish or enter.

    Returns (P, histories, converged): the final precoders, one WSR
    history list per start (its length minus one is the start's
    iteration count) and one convergence flag per start. A start leaves
    the batch once its WSR changes by at most `config.tolerance` in one
    iteration.
    """
    radii = np.repeat(np.asarray(epsilon, dtype=float)[:, None], P0.shape[1], axis=1)
    # row t: the WSR of each start after its own iteration t
    history = np.empty((config.max_iterations + 1, len(P0)))
    iterations = np.full(len(P0), config.max_iterations)
    converged = np.zeros(len(P0), dtype=bool)
    finished = np.zeros(len(P0), dtype=bool)
    entered = np.zeros(len(P0), dtype=np.intp)  # the outer iteration of each start's iteration 0
    out, final = np.empty_like(P0), np.empty(len(P0))
    waiting = list(admit)
    later = np.zeros(len(P0), dtype=bool)
    for rows, _, _ in waiting:
        later[rows] = True
    enter = np.flatnonzero(~later)
    P_enter = P0[enter]
    live, P, wsr = enter[:0], P0[:0], np.empty(0)
    n = comp.n_priv
    i, retake = 0, False
    while True:
        if len(enter):
            P_enter = project_rows_l1(P_enter, radii[enter])
            history[0, enter], _ = comp.take(enter).true_rates(P_enter)
            entered[enter] = i
            live = np.concatenate((live, enter))
            P = np.concatenate((P, P_enter))
            wsr = np.concatenate((wsr, history[0, enter]))
            retake = True
        if not len(live):
            break
        if retake:
            batch, radius, retake = comp.take(live), radii[live], False
        i += 1
        g, u = _mmse_gu(*batch.stage_arrays(batch.H @ P))
        sur = _SurrogateBatch(batch, g[:, :n], u[:, :n], g[:, n:], u[:, n:])
        P = _maximize_batch(sur, radius, P, _PG_MAX_ITER, _PG_TOL)
        new_wsr, _ = batch.true_rates(P)
        own = i - entered[live]
        history[own, live] = new_wsr
        settled = np.abs(new_wsr - wsr) <= config.tolerance
        done = settled | (own == config.max_iterations)
        if done.any():
            ended = live[done]
            converged[live[settled]] = True
            finished[ended] = True
            iterations[ended] = own[done]
            out[ended], final[ended] = P[done], new_wsr[done]
            keep = ~done
            live, P, new_wsr = live[keep], P[keep], new_wsr[keep]
            retake = True
        wsr = new_wsr
        ready = [entry for entry in waiting if finished[entry[1]].all()]
        if ready:
            waiting = [entry for entry in waiting if not finished[entry[1]].all()]
            enter = np.concatenate([rows for rows, _, _ in ready])
            P_enter = np.concatenate([fill(out, final) for _, _, fill in ready])
        else:
            enter = enter[:0]
    histories = [history[: k + 1, b].tolist() for b, k in enumerate(iterations.tolist())]
    return out, histories, converged


def ao_solve(
    problems: Sequence[Problem],
    priorities,
    config: AoConfig = AoConfig(),
    *,
    layout: StreamLayout,
) -> tuple[Solution, ...]:
    """Maximize each problem's weighted sum rate with the multi-start AO
    solver; returns one Solution per problem, in order.

    A problem's starts are, in this order: ZF; one single-user corner
    per user, the full budget on that user's stream (`_beam_start`: the
    single-user optima, which a start inside the balls reaches only by
    crawling); the solutions of its `warm_from` problems (below); and
    seeded random feasible starts up to `config.restarts` (at least one
    always). The best final WSR wins, the earliest start on ties.
    Ascent is monotone, so the result is at least as good as every warm
    start: an RSMA problem warm-started from its channel's converged
    SDMA and NOMA problems satisfies WSR(RSMA) >= max(WSR(SDMA),
    WSR(NOMA)). `scenarios.solve_schemes` seeds RSMA that way; without
    warm starts that bound is not assured.

    Each problem is solved under `build_layout(scheme, K, channel)` of
    its own scheme and channel, so one call takes, say, the SDMA, NOMA
    (of either strong user) and RSMA problems of a sweep; the channels
    must all have one shape. Every start is a matrix of that layout; the
    solver places it on the RSMA streams (see the module docstring), and
    each Solution's precoder and report are read back in that layout.

    The winning precoder of each `warm_from` problem, placed on the RSMA
    streams (`StreamLayout.to_rsma`) and read in this problem's layout,
    is one of its warm starts, in the order given. These starts enter
    the running batch at the first outer iteration after every start of
    the problems they name has finished; the problem's other starts
    enter at once. Every start counts its own iterations, under its own
    `config.max_iterations` cap, so its result is the one of a solve that
    begins when it enters.

    `layout` is the first problem's layout, of its scheme: the
    benchmark's tracer binds it to tag the call by `layout.scheme`. It
    goes once the tracer tags each problem by its own scheme (ROADMAP
    item 1).

    Every problem is solved under `config`. Every start of every problem
    runs in one lockstep batch, and each Solution is bit-for-bit the one
    that problem gets in a call of its `warm_from` problems and itself
    alone: a problem's result does not depend on its batch.
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

    def warm_solutions(refs, lay):
        def fill(P, final):
            ms = []
            for q in refs:
                sub = layouts[q]
                matrix = P[_best(final, firsts[q], counts[q])][:, sub.rsma_columns]  # its Solution's
                ms.append(sub.to_rsma(matrix)[:, lay.rsma_columns])
            return lay.to_rsma(np.stack(ms))
        return fill

    starts: list[np.ndarray] = []
    counts, firsts, admit = [], [], []
    for problem, lay, eps in zip(problems, layouts, epsilons):
        ch, refs = problem.channel, problem.warm_from
        own = [_zf_start(ch, lay, eps)] + [_beam_start(ch, lay, eps, k) for k in range(ch.num_users)]
        if refs:
            rows = sum(counts) + len(own) + np.arange(len(refs))
            after = np.concatenate([np.arange(firsts[q], firsts[q] + counts[q]) for q in refs])
            admit.append((rows, after, warm_solutions(refs, lay)))
            own += [np.zeros_like(own[0])] * len(refs)  # placeholders until the named problems finish
        rng = np.random.default_rng(problem.seed)
        n_random = max(1, config.restarts - len(own))  # always explore at random too
        own += [_random_start(ch, lay, eps, rng) for _ in range(n_random)]
        starts.append(lay.to_rsma(np.stack(own)))
        firsts.append(sum(counts))
        counts.append(len(own))

    batch = comp.take(np.repeat(np.arange(len(problems)), counts))
    P, histories, converged = _ao_batch(batch, np.repeat(epsilons, counts), np.concatenate(starts), config, admit)
    _, caps = batch.true_rates(P)
    final = [h[-1] for h in histories]
    solutions = []
    for ch, lay, lo, n in zip(channels, layouts, firsts, counts):
        best = _best(final, lo, n)
        shares = default_shares(lay, float(caps[best]), w)
        precoder = Precoder(matrix=P[best][:, lay.rsma_columns])
        report = assemble_report(ch, precoder, lay, shares=shares, weights=w)
        solutions.append(
            Solution(
                precoder=precoder,
                shares=shares,
                report=report,
                iterations=len(histories[best]) - 1,
                converged=bool(converged[best]),
                restart_index=best - lo,
                wsr_history=tuple(histories[best]),
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
