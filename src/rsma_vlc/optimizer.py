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
scheme's own layout bit for bit. The stages of a stream that no
problem of a batch weights are left out.

Every start is one problem of a lockstep batch. Each problem has its
own channel (gains stacked as (B, K, L), noise as (B, K); a batch whose
problems share a channel is one whose gains are all the same), stream
weights, (L, K + 1) precoder in a (B, L, K + 1) stack, amplitude budget,
FISTA state, outer iteration count, convergence flag and WSR history.
All active problems take each AO iteration, and each projected-gradient
step inside it, together; a problem that has finished drops out of the
batch, its channel with it. Each array operation applies to every
problem the same floating-point operations in the same order as a batch
of one, so a problem's result does not depend, bit for bit, on the
problems that share its batch. `ao_solve` runs every start of every
problem it is given as one batch, and solves nothing else: seeding RSMA
from the converged SDMA/NOMA solutions is `scenarios.solve_schemes`'s
job.

A problem is a channel, an amplitude budget epsilon, a random-start seed
and its warm starts; `AoConfig` holds only the settings every problem of
a call shares. The solver never sees an SNR: turning a sweep's SNR into
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
    amplitude budget, random-start seed and warm starts are arguments of
    that call. `restarts` counts all initializations including the
    mandatory ones (ZF, the corners and the caller's warm starts); random
    starts fill the rest, at least one.
    """

    tolerance: float = 1e-4  # bits/s/Hz WSR change
    max_iterations: int = 500
    restarts: int = 4
    # also start from single-user corners (degenerate service); off by
    # default so scheme comparisons rank non-degenerate solutions
    corner_starts: bool = False

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")


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


class _Stats:
    """Received amplitudes and stage quantities of a batch of precoders."""

    __slots__ = ("A", "a_p", "T_p", "a_c", "T_c")


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
    """The RSMA streams' SIC kernel plus the channel gains and stream weights.

    `channel` is one ChannelMatrix, shared by every precoder of a batch,
    or a sequence with one per precoder; `layout` is the scheme layout of
    each channel, one StreamLayout or a sequence to match. The gains are
    held as (1 or B, K, L) with `HT` the matching (1 or B, L, K) view and
    `hnorm2` as (1 or B, K), the weights as `w_priv` (1 or B, K) and
    `w_common` (1 or B,); a single channel broadcasts over any batch.
    Precoders are (B, L, K + 1). The stages of a stream that no layout
    weights are left out, since its column stays 0 and adds exact zeros:
    SDMA's common stream (`common_col` is None), and the weak user's
    private stream when every NOMA problem has the same strong user.
    `w_own` holds the weights of the private stages kept.
    """

    def __init__(self, channel, layout, priorities: np.ndarray):
        channels = (channel,) if isinstance(channel, ChannelMatrix) else tuple(channel)
        layouts = (layout,) if isinstance(layout, StreamLayout) else tuple(layout)
        if not channels or len({c.gains.shape for c in channels}) != 1 or len(layouts) != len(channels):
            raise ValueError("a batch needs at least one channel, all of one shape, and a layout each")
        w = np.asarray(priorities, dtype=float)
        weights = [_stream_weights(lay, w) for lay in layouts]
        self.w_priv = np.array([private for private, _ in weights])
        self.w_common = np.array([common for _, common in weights])
        # without a weighted common stream, the RSMA streams left are SDMA's
        scheme = "rsma" if self.w_common.any() else "sdma"
        super().__init__(build_layout(scheme, len(w), channels[0]), np.stack([c.noise for c in channels]))
        weighted = self.w_priv.any(axis=0)  # per private column, in user order
        self._cols = tuple(c for c, keep in zip(self._cols, weighted.tolist()) if keep)
        self.priv_cols, self.owners = self.priv_cols[weighted], self.owners[weighted]
        self.n_priv = len(self._cols)
        self.sig2_own = self.sig2_own[:, weighted]
        self.w_own = self.w_priv[:, weighted]
        self.H = np.stack([c.gains for c in channels])
        # a view: each problem's HT has the strides of its (K, L) gains' .T
        self.HT = self.H.transpose(0, 2, 1)
        self.hnorm2 = np.sum(self.H**2, axis=2)

    def take(self, keep: np.ndarray) -> "_Compiled":
        sub = super().take(keep)
        if sub is not self:
            sub.H, sub.hnorm2 = self.H[keep], self.hnorm2[keep]
            sub.HT = sub.H.transpose(0, 2, 1)
            sub.w_priv, sub.w_own, sub.w_common = self.w_priv[keep], self.w_own[keep], self.w_common[keep]
        return sub

    def stats(self, P: np.ndarray) -> _Stats:
        """Amplitudes and stage quantities of the (B, L, K + 1) precoders P."""
        s = _Stats()
        s.A = self.H @ P
        s.a_p, s.T_p, s.a_c, s.T_c = self.stages(s.A)
        return s

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
    Sort-based exact projection; rows already inside their ball are
    returned unchanged (bitwise), and every row is projected with the
    same operations whatever the other rows are.
    """
    r = np.asarray(radius, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be nonnegative")
    P = np.array(matrix, dtype=float)
    if r.ndim and r.shape != P.shape[:-1]:
        raise ValueError("radius must be a scalar or of shape matrix.shape[:-1]")
    absP = np.abs(P)
    over = absP.sum(axis=-1) > r
    if not r.all():
        zero = np.broadcast_to(r == 0.0, over.shape)
        P[zero] = 0.0
        over &= ~zero
    if not over.any():
        return P
    if r.ndim:
        rad = r[over]
        col = rad[:, None]
    else:
        rad = col = r
    V = absP[over]
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1)
    ranks = np.arange(1, V.shape[1] + 1)
    cond = U - (css - col) / ranks > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(V.shape[0]), rho] - rad) / (rho + 1)
    P[over] = np.sign(P[over]) * np.maximum(V - theta[:, None], 0.0)
    return P


class _SurrogateBatch:
    """Weighted-sum surrogates of the WSR for fixed equalizers/weights.

    One surrogate per problem of the batch: value(P) = sum_k w_k *
    r_p_k(P) + w_common * min_j r_c_j(P) with r = log2(u) + (1 - u *
    mse(P)) / ln 2 per stream stage; concave in P (quadratic per smooth
    piece). The gradient uses the binding decoder of the min term. The
    fixed step is 1 / (Hessian norm bound), which satisfies the descent
    lemma on every smooth piece. Equalizers and weights have one row per
    problem: (B, private stages) and (B, common decoders).
    """

    _FIELDS = (
        "g2_p", "two_g_p", "coef_p", "base_p", "alpha", "lin_p",
        "g2_c", "two_g_c", "rate_coef_c", "base_c", "cc2", "lin_c", "step",
    )

    def __init__(self, comp: _Compiled, g_p, u_p, g_c, u_c):
        self.c = comp
        self.g2_p = g_p**2
        self.two_g_p = 2.0 * g_p
        self.coef_p = comp.w_own * u_p / LN2
        # gradient pieces: -alpha_k * a_k on user k's private amplitudes,
        # +lin on each owner's own column
        self.alpha = np.zeros((len(g_p), comp.H.shape[1]))
        self.alpha[:, comp.owners] = 2.0 * self.coef_p * self.g2_p
        self.lin_p = 2.0 * self.coef_p * g_p
        self.base_p = _rowdot(np.log2(u_p) + 1.0 / LN2, comp.w_own)
        lip = (2.0 * self.coef_p * self.g2_p * comp.hnorm2[:, comp.owners]).sum(axis=1)
        if comp.common_col is not None:
            self.g2_c = g_c**2
            self.two_g_c = 2.0 * g_c
            self.rate_coef_c = u_c / LN2  # unweighted; the min picks the binding decoder
            coef_c = comp.w_common[:, None] * self.rate_coef_c
            self.base_c = np.log2(u_c) + 1.0 / LN2
            self.lin_c = 2.0 * coef_c * g_c
            lip = lip + (2.0 * coef_c * self.g2_c * comp.hnorm2[:, comp.decoders]).max(axis=1)
            # the gradient squares each decoder gain with numpy's scalar
            # `**` (C pow()), which can round differently from the array
            # square above; tests/serial_reference.py pins these bits
            g2_pow = np.array([g**2 for g in g_c.ravel()]).reshape(g_c.shape)
            self.cc2 = 2.0 * coef_c * g2_pow
        self.step = 1.0 / np.maximum(lip, 1e-12)

    def take(self, keep: np.ndarray) -> "_SurrogateBatch":
        """The surrogates of the problems selected by `keep`."""
        sub = object.__new__(_SurrogateBatch)
        sub.c = self.c.take(keep)
        for name in self._FIELDS:
            if hasattr(self, name):
                setattr(sub, name, getattr(self, name)[keep])
        return sub

    def _common_rates(self, s: _Stats) -> np.ndarray:
        mse_c = self.g2_c * s.T_c - self.two_g_c * s.a_c + 1.0
        return self.base_c - self.rate_coef_c * mse_c

    def value(self, P: np.ndarray) -> np.ndarray:
        c = self.c
        s = c.stats(P)
        mse_p = self.g2_p * s.T_p - self.two_g_p * s.a_p + 1.0
        value = self.base_p - _rowdot(self.coef_p, mse_p)
        if c.common_col is not None:
            value = value + c.w_common * self._common_rates(s).min(axis=1)
        return value

    def grad(self, P: np.ndarray) -> np.ndarray:
        c = self.c
        s = c.stats(P)
        A = s.A
        G = np.zeros_like(A)
        G[:, :, c.priv_cols] -= self.alpha[:, :, None] * A[:, :, c.priv_cols]
        G[:, c.owners, c.priv_cols] += self.lin_p
        if c.common_col is not None:
            rows = np.arange(len(P))
            jb = self._common_rates(s).argmin(axis=1)
            k = c.decoders[jb]
            cc2, lin = self.cc2[rows, jb], self.lin_c[rows, jb]
            r2, k2 = rows[:, None], k[:, None]
            G[r2, k2, c.priv_cols] -= cc2[:, None] * A[r2, k2, c.priv_cols]
            G[rows, k, c.common_col] += -cc2 * A[rows, k, c.common_col] + lin
        return c.HT @ G


def _maximize_batch(sur: _SurrogateBatch, radius: np.ndarray, P0: np.ndarray, max_iter: int, tol: float):
    """Monotone accelerated projected gradient on every surrogate in lockstep.

    FISTA-style momentum with a monotone safeguard: the kept iterate
    never decreases the surrogate, and momentum restarts whenever the
    accelerated candidate fails to improve. Each problem keeps its own
    momentum t, small-step count and flag for "y is the best point x";
    it leaves the batch when its step from x itself fails or after two
    consecutive small gains. `radius` is (B, L); returns the (B, L, S)
    maximizers.
    """
    x = project_rows_l1(P0, radius)
    fx = sur.value(x)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise NumericalFailure(f"non-finite surrogate value {fx[bad][0]} at the subproblem start")
    out = np.empty_like(x)
    live = np.arange(len(x))  # batch positions of the problems still running
    y, x_prev = x, x
    t = np.ones(len(x))
    small_steps = np.zeros(len(x), dtype=np.intp)
    y_is_x = np.ones(len(x), dtype=bool)
    for _ in range(max_iter):
        grad = sur.grad(y)
        if not np.isfinite(grad).all():
            raise NumericalFailure("non-finite surrogate gradient (check channel and noise scaling)")
        z = project_rows_l1(y + sur.step[:, None, None] * grad, radius)
        fz = sur.value(z)
        up = fz >= fx
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = z + (t / t_next)[:, None, None] * (z - x) + ((t - 1.0) / t_next)[:, None, None] * (x - x_prev)
        small = fz - fx <= tol * np.maximum(1.0, np.abs(fz))
        # improved: keep z and step on with momentum; otherwise restart
        # the momentum from x, or stop if the step from x itself failed
        done = ~up & y_is_x
        up3 = up[:, None, None]
        x_prev = x
        x = np.where(up3, z, x)
        y = np.where(up3, momentum, x_prev)
        fx = np.where(up, fz, fx)
        t = np.where(up, t_next, 1.0)
        small_steps = np.where(up, np.where(small, small_steps + 1, 0), small_steps)
        y_is_x = ~up
        done |= small_steps >= 2
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            if not keep.any():
                return out
            live = live[keep]
            sur = sur.take(keep)
            radius = radius[keep]
            x, x_prev, y, fx, t = x[keep], x_prev[keep], y[keep], fx[keep], t[keep]
            small_steps, y_is_x = small_steps[keep], y_is_x[keep]
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


def _ao_batch(comp: _Compiled, epsilon: np.ndarray, P0: np.ndarray, config: AoConfig):
    """AO from every start of the (B, L, K + 1) stack P0 in lockstep.

    `comp` holds one channel per start or one shared channel, and
    `epsilon` one budget per start. Returns (P, histories, converged):
    the final precoders, one WSR history list per start (its length
    minus one is the start's iteration count) and one convergence flag
    per start. A start leaves the batch once its WSR changes by at most
    `config.tolerance` in one iteration.
    """
    radius = np.repeat(np.asarray(epsilon, dtype=float)[:, None], P0.shape[1], axis=1)
    P = project_rows_l1(P0, radius)
    wsr, _ = comp.true_rates(P)
    histories = [[v] for v in wsr.tolist()]
    converged = np.zeros(len(P), dtype=bool)
    out = np.empty_like(P)
    live = np.arange(len(P))
    for _ in range(config.max_iterations):
        s = comp.stats(P)
        g_p, u_p = _mmse_gu(s.a_p, s.T_p)
        g_c = u_c = None
        if comp.common_col is not None:
            g_c, u_c = _mmse_gu(s.a_c, s.T_c)
        sur = _SurrogateBatch(comp, g_p, u_p, g_c, u_c)
        P = _maximize_batch(sur, radius, P, _PG_MAX_ITER, _PG_TOL)
        new_wsr, _ = comp.true_rates(P)
        for b, v in zip(live.tolist(), new_wsr.tolist()):
            histories[b].append(v)
        done = np.abs(new_wsr - wsr) <= config.tolerance
        if done.any():
            converged[live[done]] = True
            out[live[done]] = P[done]
            keep = ~done
            if not keep.any():
                return out, histories, converged
            live, P, radius, new_wsr = live[keep], P[keep], radius[keep], new_wsr[keep]
            comp = comp.take(keep)
        wsr = new_wsr
    out[live] = P
    return out, histories, converged


def ao_solve(
    channel: ChannelMatrix | Sequence[ChannelMatrix],
    layout: StreamLayout,
    priorities,
    epsilon: float | Sequence[float],
    seed: int | Sequence[int] = 0,
    config: AoConfig = AoConfig(),
    warm_starts: tuple = (),
) -> Solution | tuple[Solution, ...]:
    """Maximize the weighted sum rate with the multi-start AO solver.

    `epsilon` is the per-fixture amplitude budget (the radius of every
    row's L1 ball) and `seed` seeds the random starts. The starts are,
    in this order: ZF; with `config.corner_starts`, one per-user
    full-budget start each (they reach degenerate single-user optima);
    the matrices of `warm_starts`; and seeded random feasible starts up
    to `config.restarts` (at least one always). The best final WSR
    wins, the earliest start on ties. Ascent is monotone, so the result
    is at least as good as every warm start: an RSMA solve warm-started
    from the converged SDMA and NOMA solutions placed on its streams
    (`StreamLayout.to_rsma`) satisfies WSR(RSMA) >= max(WSR(SDMA),
    WSR(NOMA)). `scenarios.solve_schemes` seeds RSMA that way; without
    warm starts that bound is not assured.

    `layout` selects the scheme: each problem is solved under
    `build_layout(layout.scheme, K, its channel)`, so one call takes NOMA
    problems of either strong user. Every start, warm starts included, is
    a matrix of that layout; the solver places it on the RSMA streams
    (see the module docstring), and each Solution's precoder and report
    are read back in that layout.

    `epsilon` may also be a sequence of budgets, one problem each, e.g.
    the points of a sweep. `seed` is then a sequence of as many seeds,
    `channel` one channel shared by all problems or a sequence with one
    channel per problem (all of one shape), `warm_starts` one tuple of
    matrices per problem (or empty), and the result a tuple with one
    Solution per problem. Every problem is solved under `config`. Every
    start of every problem runs in one lockstep batch, and each Solution
    is bit-for-bit the one that problem gets when solved alone: a
    problem's result does not depend on its batch.
    """
    single = np.ndim(epsilon) == 0
    if single:
        epsilons, seeds, warm = (float(epsilon),), (seed,), (tuple(warm_starts),)
    else:
        epsilons = tuple(float(e) for e in epsilon)
        seeds = (seed,) if np.ndim(seed) == 0 else tuple(seed)
        warm = tuple(tuple(ws) for ws in warm_starts) or ((),) * len(epsilons)
        if not epsilons or len(seeds) != len(epsilons) or len(warm) != len(epsilons):
            raise ValueError("ao_solve needs at least one problem, and one seed and warm-start tuple each")
    if min(epsilons) < 0:
        raise ValueError("epsilon must be nonnegative")
    if isinstance(channel, ChannelMatrix):
        channels = (channel,) * len(epsilons)
    else:
        channels = tuple(channel)
        if single or len(channels) != len(epsilons):
            raise ValueError("a sequence of channels needs a sequence of budgets, one per channel")
    w = np.asarray(priorities, dtype=float)
    # a channel every problem shares is compiled once and broadcasts over
    # the batch, so dropping finished problems never copies its gains
    shared = all(ch is channels[0] for ch in channels)
    distinct = channels[:1] if shared else channels
    layouts = [build_layout(layout.scheme, ch.num_users, ch) for ch in distinct]
    comp = _Compiled(distinct, layouts, w)
    if shared:
        layouts *= len(channels)

    starts: list[np.ndarray] = []
    counts = []
    for ch, lay, eps, seed_i, warm_i in zip(channels, layouts, epsilons, seeds, warm):
        own = [_zf_start(ch, lay, eps)]
        if config.corner_starts:
            own += [_beam_start(ch, lay, eps, k) for k in range(ch.num_users)]
        own += [np.asarray(m, dtype=float) for m in warm_i]
        rng = np.random.default_rng(seed_i)
        n_random = max(1, config.restarts - len(own))  # always explore at random too
        own += [_random_start(ch, lay, eps, rng) for _ in range(n_random)]
        starts.append(lay.to_rsma(np.stack(own)))
        counts.append(len(own))

    batch = comp.take(np.repeat(np.arange(len(epsilons)), counts))
    P, histories, converged = _ao_batch(batch, np.repeat(epsilons, counts), np.concatenate(starts), config)
    _, caps = batch.true_rates(P)
    solutions = []
    lo = 0
    for ch, lay, n in zip(channels, layouts, counts):
        best = lo
        for b in range(lo + 1, lo + n):
            if histories[b][-1] > histories[best][-1]:
                best = b
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
        lo += n
    return solutions[0] if single else tuple(solutions)


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
    """
    kernel = SicKernel(layout, channel.noise)
    private, common = _stream_weights(layout, np.asarray(priorities, dtype=float))
    w_own = private[kernel.owners]
    L, S = channel.num_fixtures, layout.num_streams
    if L > 2 or S > 3 or resolution not in ORACLE_RESOLUTIONS:
        raise ValueError(f"grid oracle limited to <= 2 fixtures, <= 3 streams, resolution in {ORACLE_RESOLUTIONS}")
    if epsilon == 0.0:
        return 0.0
    axis = np.linspace(-epsilon, epsilon, resolution)
    mesh = np.stack(np.meshgrid(*([axis] * S), indexing="ij"), axis=-1).reshape(-1, S)
    rows = mesh[np.abs(mesh).sum(axis=1) <= epsilon + 1e-12]
    H = channel.gains
    if L == 1:
        return float(_amplitude_wsr(kernel, w_own, common, rows[:, None, :] * H[None, :, 0:1]).max())
    best = -np.inf
    # blocks of about 4e4 amplitude entries keep the temporaries in cache
    chunk = max(1, int(4e4 / (rows.shape[0] * S)))
    for lo in range(0, rows.shape[0], chunk):
        r1 = rows[lo : lo + chunk]
        # amplitudes for every (row1, row2) pair: A[k] = h_k0 r1 + h_k1 r2
        A = (
            H[None, None, :, 0:1] * r1[:, None, None, :]
            + H[None, None, :, 1:2] * rows[None, :, None, :]
        ).reshape(-1, channel.num_users, S)
        best = max(best, float(_amplitude_wsr(kernel, w_own, common, A).max()))
    return best
