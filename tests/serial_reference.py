"""Serial single-start AO solver kept as the reference for the batched one.

This is the one-problem-at-a-time implementation that the optimizer
ran before its AO loop became a lockstep batch: `_Compiled` statistics
of one precoder, the `_Surrogate` of one problem, the monotone FISTA
loop `_maximize_surrogate`, the AO loop `_ao_single` and the
multi-start `ao_solve` around it. The equivalence tests require the
batched solver to reproduce its results bit for bit, so its arithmetic
changes only together with the batched solver's, on purpose: the start
list (ZF, both corners, warm starts, random) and the subproblem start
(the feasible point the previous one returned, not projected again)
follow the optimizer's.
"""

from __future__ import annotations

import math

import numpy as np

from rsma_vlc.optimizer import (
    _PG_MAX_ITER,
    _PG_TOL,
    AoConfig,
    _beam_start,
    _random_start,
    _zf_start,
)
from rsma_vlc.signal_model import build_layout

LN2 = math.log(2.0)
_DEN_FLOOR = 1e-300


class _Stats:
    __slots__ = ("A", "priv_pow", "priv_sum", "a_p", "T_p", "intf_p", "a_c", "T_c", "intf_c")


class _Compiled:
    def __init__(self, channel, layout, priorities):
        self.H = channel.gains
        self.sig2 = channel.noise
        w = np.asarray(priorities, dtype=float)
        self.w = w
        self.layout = layout
        self.priv_cols = np.array(layout.private_columns, dtype=np.intp)
        self.owners = np.array(
            [layout.streams[j].owner for j in layout.private_columns], dtype=np.intp
        )
        self.n_priv = len(self.priv_cols)
        self.common_col = layout.common_column
        stream = layout.common_stream
        if stream is None:
            self.decoders = np.empty(0, dtype=np.intp)
            self.w_common = 0.0
        else:
            self.decoders = np.array(stream.decoders, dtype=np.intp)
            if len(stream.carries) == 1:
                self.w_common = float(w[stream.carries[0]])
            else:
                self.w_common = float(w[int(np.argmax(w))])
        self.num_streams = layout.num_streams
        self.num_fixtures = channel.num_fixtures
        self.hnorm2 = np.sum(self.H**2, axis=1)
        self.cross = 1.0 - np.eye(self.n_priv)

    def stats(self, P):
        s = _Stats()
        s.A = self.H @ P
        s.priv_pow = s.A[:, self.priv_cols] ** 2
        s.priv_sum = s.priv_pow.sum(axis=1)
        s.a_p = s.A[self.owners, self.priv_cols]
        s.intf_p = (s.priv_pow[self.owners] * self.cross[np.arange(self.n_priv)]).sum(axis=1)
        s.T_p = self.sig2[self.owners] + s.priv_sum[self.owners]
        if self.common_col is None:
            s.a_c = s.T_c = s.intf_c = np.empty(0)
        else:
            s.a_c = s.A[self.decoders, self.common_col]
            s.intf_c = s.priv_sum[self.decoders]
            s.T_c = self.sig2[self.decoders] + s.intf_c + s.a_c**2
        return s

    def true_rates(self, P):
        s = self.stats(P)
        priv_rates = np.zeros(len(self.w))
        if self.n_priv:
            sinr_p = s.a_p**2 / np.maximum(s.intf_p + self.sig2[self.owners], _DEN_FLOOR)
            priv_rates[self.owners] = np.log2(1.0 + sinr_p)
        cap = 0.0
        if self.common_col is not None:
            sinr_c = s.a_c**2 / np.maximum(s.intf_c + self.sig2[self.decoders], _DEN_FLOOR)
            cap = float(np.min(np.log2(1.0 + sinr_c)))
        wsr = float(self.w @ priv_rates) + self.w_common * cap
        return wsr, cap, priv_rates


def _mmse_gu(a, T):
    g = a / np.maximum(T, _DEN_FLOOR)
    mse = 1.0 - g * a
    u = 1.0 / np.maximum(mse, 1e-15)
    return g, u


def project_rows_l1(matrix, radius):
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    P = np.array(matrix, dtype=float)
    if radius == 0.0:
        P[:] = 0.0
        return P
    absP = np.abs(P)
    over = absP.sum(axis=1) > radius
    if not np.any(over):
        return P
    V = absP[over]
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1)
    ranks = np.arange(1, V.shape[1] + 1)
    cond = U - (css - radius) / ranks > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(V.shape[0]), rho] - radius) / (rho + 1)
    P[over] = np.sign(P[over]) * np.maximum(V - theta[:, None], 0.0)
    return P


class _Surrogate:
    def __init__(self, comp, g_p, u_p, g_c, u_c):
        self.c = comp
        self.g_p, self.u_p, self.g_c, self.u_c = g_p, u_p, g_c, u_c
        self.coef_p = comp.w[comp.owners] * u_p / LN2
        self.rate_coef_c = u_c / LN2
        self.coef_c = comp.w_common * self.rate_coef_c
        self.base_p = float(comp.w[comp.owners] @ (np.log2(u_p) + 1.0 / LN2)) if len(u_p) else 0.0
        self.base_c = np.log2(u_c) + 1.0 / LN2 if len(u_c) else np.empty(0)
        lip = float(np.sum(2.0 * self.coef_p * g_p**2 * comp.hnorm2[comp.owners]))
        if comp.common_col is not None and len(g_c):
            lip += float(np.max(2.0 * self.coef_c * g_c**2 * comp.hnorm2[comp.decoders]))
        self.step = 1.0 / max(lip, 1e-12)

    def _pieces(self, P):
        c = self.c
        s = c.stats(P)
        value = self.base_p
        if c.n_priv:
            mse_p = self.g_p**2 * s.T_p - 2.0 * self.g_p * s.a_p + 1.0
            value -= float(np.dot(self.coef_p, mse_p))
        r_c = None
        if c.common_col is not None:
            mse_c = self.g_c**2 * s.T_c - 2.0 * self.g_c * s.a_c + 1.0
            r_c = self.base_c - self.rate_coef_c * mse_c
            value += c.w_common * float(np.min(r_c))
        return s, value, r_c

    def value(self, P):
        return self._pieces(P)[1]

    def value_and_grad(self, P):
        c = self.c
        s, value, r_c = self._pieces(P)
        G = np.zeros_like(s.A)
        if c.n_priv:
            alpha = np.zeros(len(c.w))
            alpha[c.owners] = 2.0 * self.coef_p * self.g_p**2
            G[:, c.priv_cols] -= alpha[:, None] * s.A[:, c.priv_cols]
            G[c.owners, c.priv_cols] += 2.0 * self.coef_p * self.g_p
        if r_c is not None:
            jb = int(np.argmin(r_c))
            k = c.decoders[jb]
            cc2 = 2.0 * self.coef_c[jb] * self.g_c[jb] ** 2
            G[k, c.priv_cols] -= cc2 * s.A[k, c.priv_cols]
            G[k, c.common_col] += -cc2 * s.A[k, c.common_col] + 2.0 * self.coef_c[jb] * self.g_c[jb]
        return value, c.H.T @ G


def _maximize_surrogate(sur, epsilon, x, max_iter, tol):
    # x, the previous subproblem's output or the projected start, is feasible
    fx = sur.value(x)
    y, x_prev = x, x
    t = 1.0
    small_steps = 0
    for _ in range(max_iter):
        fy, grad = sur.value_and_grad(y)
        z = project_rows_l1(y + sur.step * grad, epsilon)
        fz = sur.value(z)
        if fz >= fx:
            gain = fz - fx
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z + (t / t_next) * (z - x) + ((t - 1.0) / t_next) * (x - x_prev)
            x_prev, x, fx, t = x, z, fz, t_next
        elif y is not x:
            y, x_prev, t = x, x, 1.0
            continue
        else:
            break
        if gain <= tol * max(1.0, abs(fx)):
            small_steps += 1
            if small_steps >= 2:
                break
        else:
            small_steps = 0
    return x, fx


def _ao_single(comp, epsilon, P0, config):
    """One AO run from one start; returns (P, history, iterations, converged)."""
    P = project_rows_l1(P0, epsilon)
    wsr, _, _ = comp.true_rates(P)
    history = [wsr]
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        s = comp.stats(P)
        g_p, u_p = _mmse_gu(s.a_p, s.T_p)
        g_c, u_c = _mmse_gu(s.a_c, s.T_c)
        sur = _Surrogate(comp, g_p, u_p, g_c, u_c)
        P, _ = _maximize_surrogate(sur, epsilon, P, _PG_MAX_ITER, _PG_TOL)
        new_wsr, _, _ = comp.true_rates(P)
        history.append(new_wsr)
        if abs(new_wsr - wsr) <= config.tolerance:
            converged = True
            break
        wsr = new_wsr
    return P, history, iterations, converged


def ao_solve(channel, layout, priorities, epsilon, seed=0, config=AoConfig(), warm_starts=(),
             embed_special_cases=True):
    """Multi-start AO, one start after another; returns (P, history, iterations, converged, index)."""
    w = np.asarray(priorities, dtype=float)
    comp = _Compiled(channel, layout, w)
    epsilon = float(epsilon)
    starts = [_zf_start(channel, layout, epsilon)]
    starts += [_beam_start(channel, layout, epsilon, k) for k in range(channel.num_users)]
    if layout.scheme == "rsma" and embed_special_cases:
        sdma_layout = build_layout("sdma", channel.num_users, channel)
        sdma = ao_solve(channel, sdma_layout, w, epsilon, seed, config)
        starts.append(sdma_layout.to_rsma(sdma[0]))
        if channel.num_users == 2:
            noma_layout = build_layout("noma", channel.num_users, channel)
            noma = ao_solve(channel, noma_layout, w, epsilon, seed, config)
            starts.append(noma_layout.to_rsma(noma[0]))
    for extra in warm_starts:
        starts.append(np.asarray(extra, dtype=float))
    rng = np.random.default_rng(seed)
    for _ in range(max(1, config.restarts - len(starts))):
        starts.append(_random_start(channel, layout, epsilon, rng))
    best = None
    for idx, P0 in enumerate(starts):
        P, history, iterations, converged = _ao_single(comp, epsilon, P0, config)
        if best is None or history[-1] > best[1][-1]:
            best = (P, history, iterations, converged, idx)
    return best
