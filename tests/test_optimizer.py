import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import rsma_vlc.optimizer as optimizer
import rsma_vlc.scenarios as scenarios
from rsma_vlc.channel import ChannelMatrix
from rsma_vlc.optimizer import (
    AoConfig,
    NumericalFailure,
    Problem,
    ao_solve,
    epsilon_from_snr,
    grid_oracle,
    project_rows_l1,
)
from rsma_vlc.signal_model import (
    SCHEMES,
    Precoder,
    SicKernel,
    StreamLayout,
    assemble_report,
    build_layout,
)

from helpers import max_row_l1, on_columns


def channel(gains, noise=None):
    g = np.array(gains, dtype=float)
    n = np.ones(g.shape[0]) if noise is None else np.array(noise, dtype=float)
    return ChannelMatrix(gains=g, noise=n)


def random_channel(rng, k=2, l=2):
    return channel(rng.uniform(0.1, 1.0, size=(k, l)))


def compiled(ch, lay, w, rows=1, eps=1.0):
    """The compiled batch of `rows` problems of one channel and layout: one
    row of every per-problem array per precoder. `eps` is every problem's
    budget, or one per problem."""
    return optimizer._Compiled([ch] * rows, [lay] * rows, np.array(w, dtype=float), np.broadcast_to(eps, rows))


def solve(ch, lay, w, eps, config=AoConfig()):
    """The Solution of one problem of `lay`'s scheme, solved alone."""
    [sol] = ao_solve([Problem(ch, lay.scheme, eps)], w, config, layout=lay)
    return sol


# a residual tolerance below the one at which the polish stops from some
# starts (nothing it tries raises the WSR any more), so that solves end
# both converged and not
TIGHT = 1e-12


def random_start(ch, lay, eps, rng):
    """A random point of the balls: each row drawn uniformly from [-1, 1]
    and scaled to a random share of its budget."""
    P = rng.uniform(-1.0, 1.0, size=(ch.num_fixtures, lay.active.sum()))
    return P / np.abs(P).sum(axis=1, keepdims=True) * (eps * rng.uniform(0.3, 1.0))


def newton_log(monkeypatch):
    """Record the polish's `_newton_step` calls, per lockstep iteration.

    Each iteration opens with one `_stage_derivatives` call on its live
    problems. The log holds one (live problems, calls) entry per
    iteration, and `calls` holds one (systems, kink systems) pair per
    `_newton_step` call made in it."""
    log = []
    stage_derivatives, newton_step = optimizer._stage_derivatives, optimizer._newton_step

    def stage_spy(comp, P):
        log.append((len(P), []))
        return stage_derivatives(comp, P)

    def step_spy(P, grad, hess, eps, active, held, nu, kink, *rest):
        log[-1][1].append((len(P), int(np.count_nonzero(kink))))
        return newton_step(P, grad, hess, eps, active, held, nu, kink, *rest)

    monkeypatch.setattr(optimizer, "_stage_derivatives", stage_spy)
    monkeypatch.setattr(optimizer, "_newton_step", step_spy)
    return log


def solve_all(problems, w, config=AoConfig()):
    """ao_solve on `problems`, given the first problem's layout."""
    return ao_solve(problems, w, config, layout=problems[0].layout)


class TestEpsilonFromSnr:
    def test_reference_points(self):
        assert epsilon_from_snr(0.0, 1.0) == pytest.approx(1.0)
        assert epsilon_from_snr(40.0, 1.0) == pytest.approx(100.0)
        assert epsilon_from_snr(20.0, 2.0) == pytest.approx(20.0)

    def test_reference_gain_rescales(self):
        assert epsilon_from_snr(40.0, 1.0, reference_gain=0.02) == pytest.approx(5000.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_from_snr(10.0, 0.0)


class TestEqualizerAndWeights:
    """The WMMSE identities (Shi et al. 2011) of the stage rates the polish
    differentiates. A stage of received power T, interference plus noise
    I and own amplitude a has the MMSE equalizer g = a / T, the MSE
    1 - g a = I / T and the weight u = 1 / MSE, so its rate is log2(u)
    and its rate's derivative in a is 2 g / ln 2: g and u are read here
    from `_stage_derivatives`."""

    @staticmethod
    def stages(channels, layouts, P, w=(0.5, 0.5)):
        """(comp, Q, r, g, u) of the (B, L, streams) precoders P of one
        layout, or of one per problem: the compiled batch, P on the RSMA
        columns, and each stage's rate, equalizer and weight (B, stages)."""
        if isinstance(layouts, list):
            Q = np.stack([on_columns(lay, p) for lay, p in zip(layouts, P)])
            comp = optimizer._Compiled(channels, layouts, np.array(w, dtype=float), np.ones(len(layouts)))
        else:
            Q = on_columns(layouts, P)
            comp = compiled(channels, layouts, w, len(P))
        r, dr, _ = optimizer._stage_derivatives(comp, Q)
        stage, own = np.arange(r.shape[1]), comp._gather[-1]
        g = dr[:, stage, own] * optimizer.LN2 / 2.0
        a = (comp.H @ Q).reshape(len(Q), -1)[:, own]
        return comp, Q, r, g, 1.0 / (1.0 - g * a)

    def test_zero_column_gives_zero_gain(self):
        ch = channel([[1.0, 0.0], [0.0, 1.0]])
        _, _, r, g, u = self.stages(ch, build_layout("sdma", ch), np.zeros((1, 2, 2)))
        assert np.all(g == 0.0) and np.all(u == 1.0) and np.all(r == 0.0)
        # a NOMA batch of both strong users keeps every private stage; each
        # problem's weak user has a zero amplitude under interference
        channels = [channel([[1.0, 0.2], [0.2, 0.5]]), channel([[0.5, 0.2], [0.2, 1.0]])]
        layouts = [build_layout("noma", c) for c in channels]
        comp, _, _, g, u = self.stages(channels, layouts, np.ones((2, 2, 2)))
        assert comp.n_priv == 2
        for b, lay in enumerate(layouts):
            weak = lay.streams[-1].carries[0]  # the common stream carries the weak user
            assert g[b, weak] == 0.0 and u[b, weak] == 1.0 and g[b, 1 - weak] != 0.0

    # one stream to one user: the second user's gains and precoder column are 0
    ONE_STREAM = np.array([[[1.0, 0.0], [0.0, 0.0]]])

    def test_single_stream_half_gain(self):
        ch = channel([[1.0, 0.0], [0.0, 0.0]])
        _, _, _, g, _ = self.stages(ch, build_layout("sdma", ch), self.ONE_STREAM)
        assert g[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_unit_sinr_gives_half_mse(self):
        ch = channel([[1.0, 0.0], [0.0, 0.0]])
        _, _, r, _, u = self.stages(ch, build_layout("sdma", ch), self.ONE_STREAM)
        assert 1.0 / u[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert u[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert r[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_equalizer_is_stage_mse_minimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", ch)
            P = rng.normal(size=(2, 3))
            _, _, _, g, _ = self.stages(ch, lay, P[None])
            for user, stream, gain in ((0, 0, g[0, 0]), (1, 1, g[0, 1]), (0, 2, g[0, 2]), (1, 2, g[0, 3])):
                amps = ch.gains[user] @ P
                if stream == 2:
                    total = ch.noise[user] + amps[2] ** 2 + amps[0] ** 2 + amps[1] ** 2
                else:
                    total = ch.noise[user] + amps[0] ** 2 + amps[1] ** 2
                mse = lambda gg: gg * gg * total - 2 * gg * amps[stream] + 1.0  # noqa: E731
                assert mse(gain) <= mse(gain + 1e-3) + 1e-15
                assert mse(gain) <= mse(gain - 1e-3) + 1e-15

    def test_neg_log_mse_equals_rate(self):
        # the weight u is 1 / mse, so log2(u) = -log2(mse)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", ch)
            p = Precoder(matrix=rng.normal(size=(2, 3)))
            _, _, r, _, u = self.stages(ch, lay, p.matrix[None])
            rep = assemble_report(ch, p, lay)
            for user in (0, 1):
                assert np.log2(u[0, user]) == pytest.approx(np.log2(1.0 + rep.sinr_private[user]), abs=1e-9)
                assert np.log2(u[0, 2 + user]) == pytest.approx(np.log2(1.0 + rep.sinr_common[user]), abs=1e-9)
                assert r[0, user] == pytest.approx(np.log2(u[0, user]), abs=1e-12)

    def test_state_rate_identity(self):
        # the stage rates, weighted under the greedy common-rate split, are
        # the WSR of true_rates and of the report, for every scheme on the
        # RSMA streams
        rng = np.random.default_rng(4)
        for scheme in SCHEMES:
            for w in ((0.5, 0.5), (0.3, 0.7), (0.8, 0.2)):
                ch = random_channel(rng)
                lay = build_layout(scheme, ch)
                P = rng.normal(size=(10, 2, lay.active.sum()))
                comp, Q, r, _, _ = self.stages(ch, lay, P, w)
                # SDMA's common decoders have rate 0 and weight 0
                value = r[:, : comp.n_priv] @ comp.w_priv[0] + comp.w_common * r[:, comp.n_priv :].min(axis=1)
                wsr = comp.true_rates(Q)
                np.testing.assert_allclose(value, wsr, rtol=0.0, atol=1e-9)
                for b in range(len(P)):
                    rep = assemble_report(ch, Precoder(matrix=Q[b]), lay, weights=np.array(w))
                    assert value[b] == pytest.approx(rep.wsr, abs=1e-9)


class TestProjection:
    def test_rows_inside_ball_untouched(self):
        P = np.array([[0.5, -0.3], [0.1, 0.0]])
        out = project_rows_l1(P, 1.0)
        assert np.array_equal(out, P)

    def test_known_projection(self):
        out = project_rows_l1(np.array([[3.0, 1.0]]), 2.0)
        assert np.allclose(out, [[2.0, 0.0]])
        out = project_rows_l1(np.array([[2.0, 2.0]]), 2.0)
        assert np.allclose(out, [[1.0, 1.0]])

    def test_signs_preserved(self):
        out = project_rows_l1(np.array([[-3.0, 1.0]]), 2.0)
        assert np.allclose(out, [[-2.0, 0.0]])

    def test_nan_radius_rejected(self):
        P = np.array([[3.0, 1.0], [0.1, 0.0]])
        for radius in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="radius"):
                project_rows_l1(P, radius)

    def test_feasibility_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = rng.normal(scale=3.0, size=(4, 3))
            r = rng.uniform(0.1, 2.0)
            out = project_rows_l1(P, r)
            assert np.abs(out).sum(axis=1).max() <= r + 1e-12

    def test_projection_optimality(self):
        # projected point beats random feasible points in euclidean distance
        rng = np.random.default_rng(6)
        v = np.array([[1.7, -2.3, 0.4]])
        proj = project_rows_l1(v, 1.5)
        for _ in range(200):
            q = rng.normal(size=(1, 3))
            q = q / np.abs(q).sum() * 1.5 * rng.uniform(0, 1)
            assert np.linalg.norm(v - proj) <= np.linalg.norm(v - q) + 1e-12

    def test_zero_radius(self):
        assert np.all(project_rows_l1(np.ones((2, 3)), 0.0) == 0.0)

    def test_rows_far_outside_come_back_inside(self):
        # entries of +-1e2 to 1e7 against radii of 0.5 to 50: theta is read
        # from a difference of large sums, and a row it leaves over its
        # radius is scaled onto the ball
        rng = np.random.default_rng(15)
        P = rng.choice([-1.0, 1.0], size=(3000, 4, 3)) * 10.0 ** rng.uniform(2.0, 7.0, size=(3000, 4, 3))
        radii = np.repeat(rng.uniform(0.5, 50.0, size=(3000, 1)), 4, axis=1)
        out = project_rows_l1(P, radii)
        assert np.all(np.abs(out).sum(axis=2) <= radii * (1.0 + 1e-15))
        assert np.all((out == 0.0) | (np.sign(out) == np.sign(P)))


class TestSubproblem:
    """_polish on one start's subproblem: the WSR over the balls."""

    @staticmethod
    def _polish(comp, start, tolerance=AoConfig().tolerance):
        # the solver polishes each start from a feasible point, as ao_solve does
        P0 = project_rows_l1(start, comp.eps[:, None])
        return optimizer._polish(comp, P0, comp.true_rates(P0), tolerance)

    def test_zero_budget_returns_origin(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        comp = compiled(ch, build_layout("rsma", ch), [0.5, 0.5], eps=0.0)
        P, history, residual = self._polish(comp, np.ones((1, 2, 3)))
        assert np.all(P == 0.0)
        assert comp.true_rates(P)[0] == 0.0
        assert assemble_report(ch, Precoder(matrix=P[0]), build_layout("rsma", ch)).common_cap == 0.0
        assert history[0] == [0.0] and residual[0] == 0.0

    def test_scalar_closed_form(self):
        # one fixture, one stream to one user (the second user's gain and
        # precoder column are 0): the WSR log2(1 + (h p)^2) rises with |p|,
        # so the optimum is the budget's edge, p = eps
        ch = channel([[0.8], [0.0]])
        lay = build_layout("sdma", ch)
        for p_prev, eps in ((0.4, 10.0), (0.9, 0.5)):
            comp = compiled(ch, lay, [1.0, 1.0], eps=eps)
            P, history, residual = self._polish(comp, on_columns(lay, np.array([[[p_prev, 0.0]]])))
            assert P[0, 0, 0] == pytest.approx(eps, rel=1e-12)
            assert P[0, 0, 1] == 0.0  # the second user's column
            assert P[0, 0, 2] == 0.0  # the unweighted common column
            assert history[0][-1] == pytest.approx(np.log2(1.0 + (0.8 * eps) ** 2), rel=1e-12)
            assert residual[0] <= AoConfig().tolerance

    def test_result_always_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ch = random_channel(rng)
            eps = rng.uniform(0.5, 20.0)
            comp = compiled(ch, build_layout("rsma", ch), [0.5, 0.5], eps=eps)
            start = project_rows_l1(rng.normal(size=(1, 2, 3)), np.full((1, 2), eps))
            P, history, _ = self._polish(comp, start)
            assert np.abs(P).sum(axis=2).max() <= eps + 1e-9
            assert comp.true_rates(P)[0] == history[0][-1] >= comp.true_rates(start)[0]

    @pytest.mark.parametrize("w", [(0.3, 0.7), (0.7, 0.3)], ids=["w0.3,0.7", "w0.7,0.3"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_grad_matches_central_difference(self, scheme, w):
        # the gradient the polish takes, with the binding common decoder
        # weighted, chained through H; away from the common-rate kink it
        # is the gradient of the true WSR
        rng = np.random.default_rng(10)
        ch = random_channel(rng, l=3)
        lay = build_layout(scheme, ch)
        Q = on_columns(lay, rng.normal(size=(40, 3, lay.active.sum())))
        comp = compiled(ch, lay, w, len(Q))
        r, dr, d2r = optimizer._stage_derivatives(comp, Q)
        rc = r[:, comp.n_priv :]
        binding = np.zeros_like(rc)
        binding[np.arange(len(Q)), rc.argmin(axis=1)] = 1.0
        if comp.w_common[0] > 0.0:
            # keep the states whose two decoders' rates differ by far more
            # than a step of h can move them
            clear = np.abs(rc[:, 0] - rc[:, 1]) > 1e-2
            assert clear.sum() >= 20
            Q, dr, d2r, binding = Q[clear], dr[clear], d2r[clear], binding[clear]
            comp = comp.take(np.flatnonzero(clear))
        else:  # SDMA's common decoders: rate 0 at every point
            assert np.all(rc == 0.0)
        grad_a, _ = optimizer._objective(comp, dr, d2r, binding)
        J = np.kron(ch.gains, np.eye(3))[None]
        grad = (grad_a[:, None, :] @ J)[:, 0].reshape(Q.shape)
        h = 1e-6
        central = np.empty_like(Q)
        for entry in np.ndindex(Q.shape[1:]):
            step = np.zeros_like(Q)
            step[(slice(None),) + entry] = h
            central[(slice(None),) + entry] = (comp.true_rates(Q + step) - comp.true_rates(Q - step)) / (2.0 * h)
        np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-8 * np.abs(grad).max())
        assert np.abs(grad).max() > 1e-3

    def test_non_finite_state_raises(self):
        # amplitudes of about 1e250 square to inf: the polish checks its
        # derivatives at such a point
        ch = channel([[1e150, 2e150], [3e150, 1e150]])
        lay = build_layout("sdma", ch)
        comp = compiled(ch, lay, [0.5, 0.5], eps=1e100)
        P = on_columns(lay, np.full((1, 2, 2), 0.5e100))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="derivatives"):
                optimizer._polish(comp, P, np.zeros(1), AoConfig().tolerance)


# The per-problem start builders `optimizer._starts` replaced, kept as its
# reference: ZF, a corner and a split start of one problem, (L, K + 1) on
# the RSMA columns. Their sign vectors are all ones on the nonnegative gains
# a ChannelMatrix holds.


def reference_zf(ch, active, epsilon):
    """ZF on the private columns `active` marks (ridge inverse for a
    rank-deficient channel); an active common column takes the leftover
    row budget along the summed channel's signs."""
    H, K = ch.gains, ch.num_users
    if np.linalg.matrix_rank(H) < K:
        W = H.T @ np.linalg.inv(H @ H.T + 1e-6 * np.eye(K))
    else:
        W = np.linalg.pinv(H)
    W = W / np.maximum(np.linalg.norm(W, axis=0), 1e-30)
    W = W * (epsilon / max(np.abs(W).sum(axis=1).max(), 1e-30))
    P = np.zeros((ch.num_fixtures, K + 1))
    users = np.flatnonzero(active[:K])
    P[:, users] = W[:, users] * (1.0 - 1e-3 if active[K] else 1.0)
    if active[K]:
        P[:, K] = np.maximum(epsilon - np.abs(P).sum(axis=1), 0.0) * reference_signs(ch.gains.sum(axis=0))
    return P


def reference_signs(v):
    signs = np.sign(v)
    signs[signs == 0] = 1.0
    return signs


def reference_corner(ch, active, epsilon, user):
    """The full budget on `user`'s private column, or on the common column
    where `active` leaves the user without one, along the user's signs."""
    P = np.zeros((ch.num_fixtures, ch.num_users + 1))
    P[:, user if active[user] else ch.num_users] = epsilon * reference_signs(ch.gains[user])
    return P


def reference_split(zf, ch, epsilon, alpha):
    """A share alpha of the budget on the common column, along the summed
    channel's signs, and the rest on the ZF start `zf`; not projected."""
    P = (1.0 - alpha) * zf
    P[:, -1] += alpha * epsilon * reference_signs(ch.gains.sum(axis=0))
    return P


def zf_rows(ch, eps):
    """The ZF start `_starts` builds for an SDMA problem of `ch`: ZF on the
    private columns, the common column 0."""
    return optimizer._starts(compiled(ch, build_layout("sdma", ch), (0.5, 0.5), eps=eps))[0][0]


class TestZfPrecoder:
    """The ZF start `_starts` builds (`zf_rows`)."""

    def test_diagonal_channel_gives_diagonal_precoder(self):
        ch = channel([[1.0, 0.0], [0.0, 0.5]])
        P = zf_rows(ch, 2.0)
        # on the K + 1 RSMA columns, the common one empty
        assert P.shape == (2, 3) and np.all(P[:, 2] == 0.0)
        assert abs(P[0, 1]) < 1e-12 and abs(P[1, 0]) < 1e-12
        assert np.abs(P).sum(axis=1).max() == pytest.approx(2.0)

    def test_zero_forcing_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ch = random_channel(rng)
            P = zf_rows(ch, 1.0)
            cross = ch.gains @ P
            assert abs(cross[0, 1]) < 1e-9 and abs(cross[1, 0]) < 1e-9

    def test_known_pseudo_inverse_directions(self):
        H = np.array([[1.0, 0.3], [0.2, 0.8]])
        ch = channel(H)
        P = zf_rows(ch, 1.0)
        # hand inverse via the adjugate; columns match up to positive scale
        det = 1.0 * 0.8 - 0.3 * 0.2
        inv = np.array([[0.8, -0.3], [-0.2, 1.0]]) / det
        for j in range(2):
            direction = inv[:, j] / np.linalg.norm(inv[:, j])
            got = P[:, j] / np.linalg.norm(P[:, j])
            assert np.allclose(got, direction, atol=1e-12)

    def test_rank_deficient_falls_back_to_ridge(self):
        ch = channel([[0.6, 0.3], [0.6, 0.3]])  # identical users
        P = zf_rows(ch, 1.0)
        assert np.all(np.isfinite(P))
        assert np.abs(P).sum(axis=1).max() <= 1.0 + 1e-9
        # the ridge inverse, not the pseudo-inverse, chose the directions
        W = ch.gains.T @ np.linalg.inv(ch.gains @ ch.gains.T + 1e-6 * np.eye(2))
        assert np.array_equal(P[:, :2], reference_zf(ch, np.array([True, True, False]), 1.0)[:, :2])
        assert np.allclose(P[:, :2] / np.linalg.norm(P[:, :2], axis=0), W / np.linalg.norm(W, axis=0))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_starts_do_not_depend_on_the_gains_scale(self, scheme):
        # gains s H with budget eps / s reach the same amplitudes as H with
        # eps: the ZF start is scaled by a power of two before its norms, so
        # no norm overflows (tiny gains) and their floor never binds (huge
        # gains, where it once broke equal-power ZF)
        def wsr(s, eps):
            [sol] = solve_all([Problem(channel(np.array([[1.0, 2.0], [3.0, 1.0]]) * s), scheme, eps)], (0.5, 0.5))
            return sol.wsr

        unit = wsr(1.0, 3.0)
        for s in (1e-100, 1e100, 1e150):
            assert wsr(s, 3.0 / s) == pytest.approx(unit, rel=1e-12, abs=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for s in (1e-160, 1e-300):
                assert math.isfinite(wsr(s, 3.0))


class TestStarts:
    """`_starts`: every problem's fixed starts, built for the whole batch
    at once."""

    def test_starts_match_the_per_problem_builders(self):
        # every scheme's problem on 300 drawn channels (generic, aligned and
        # with zero gains; 1-4 fixtures, one batch per count; budgets
        # 0.1-100) gets the starts of the per-problem builders, byte for
        # byte; a split start is compared after one projection, the one
        # `_solve_starts` gives every start
        rng = np.random.default_rng(60)
        channels, layouts, epsilons = [], [], []
        for i in range(300):
            fixtures = int(rng.integers(1, 5))
            if i % 3 == 0:
                gains = rng.uniform(0.05, 1.0, (2, fixtures))
            elif i % 3 == 1:  # aligned, [h; c h]
                h = rng.uniform(0.05, 1.0, fixtures)
                gains = np.stack((h, rng.uniform(0.1, 1.0) * h))
            else:  # about half the gains 0: some rows, or the whole matrix
                gains = np.where(rng.random((2, fixtures)) < 0.5, 0.0, rng.uniform(0.05, 1.0, (2, fixtures)))
            ch, eps = channel(gains, rng.uniform(0.5, 2.0, 2)), float(10.0 ** rng.uniform(-1.0, 2.0))
            for scheme in SCHEMES:
                channels.append(ch), layouts.append(build_layout(scheme, ch)), epsilons.append(eps)
        ranks = set()
        for fixtures in (1, 2, 3, 4):
            rows = [b for b, ch in enumerate(channels) if ch.num_fixtures == fixtures]
            comp = optimizer._Compiled([channels[b] for b in rows], [layouts[b] for b in rows],
                                       np.array([0.5, 0.5]), [epsilons[b] for b in rows])
            zf, corners, splits = optimizer._starts(comp)
            assert zf.shape == (len(rows), fixtures, 3) and corners.shape == (len(rows), 2, fixtures, 3)
            assert splits.shape == (len(rows), len(optimizer._SPLITS), fixtures, 3)
            for i, b in enumerate(rows):
                ch, active, eps = channels[b], layouts[b].active, epsilons[b]
                ranks.add(int(np.linalg.matrix_rank(ch.gains)))
                want = reference_zf(ch, active, eps)
                assert zf[i].tobytes() == want.tobytes()
                for user in range(2):
                    assert corners[i, user].tobytes() == reference_corner(ch, active, eps, user).tobytes()
                for alpha, got in zip(optimizer._SPLITS, splits[i]):
                    want_split = project_rows_l1(reference_split(want, ch, eps, alpha), eps)
                    assert project_rows_l1(got, eps).tobytes() == want_split.tobytes()
                assert np.all(zf[i][:, ~active] == 0.0) and np.all(corners[i][..., ~active] == 0.0)
        assert ranks == {0, 1, 2}

    def test_one_pseudo_inverse_per_call(self, monkeypatch):
        # one stacked pinv and matrix_rank for every problem of an ao_solve call
        calls = {"pinv": 0, "matrix_rank": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        # a generic, an aligned and a zero-gain channel, and a warm-started problem
        points = [([[0.9, 0.4], [0.3, 0.8]], 3.0), ([[0.6, 0.3], [0.3, 0.15]], 0.5), ([[0.0, 0.0], [0.3, 0.0]], 40.0)]
        problems = [Problem(channel(gains), scheme, eps) for gains, eps in points for scheme in SCHEMES]
        problems += [Problem(channel(points[0][0]), "rsma", 3.0, (0, 1))]
        solve_all(problems, (0.5, 0.5))
        assert calls == {"pinv": 1, "matrix_rank": 1}
        scenarios.solve_schemes([(channel([[0.9, 0.4], [0.3, 0.8]]), eps, SCHEMES) for eps in (1.0, 5.0)],
                                (0.5, 0.5), AoConfig())
        assert calls == {"pinv": 2, "matrix_rank": 2}


class TestProblemLayout:
    """A problem decides its layout once, where it is made, and its
    Solution carries that layout."""

    def test_layout_is_made_with_the_problem_and_carried_by_its_solution(self):
        ch = channel([[0.3, 0.2], [0.9, 0.4]], [1.0, 2.0])
        for scheme in SCHEMES:
            problem = Problem(ch, scheme, 2.0)
            assert problem.layout == build_layout(scheme, ch)
            [sol] = solve_all([problem], (0.5, 0.5))
            assert sol.layout is problem.layout
            # the report is the one assembled under that layout
            report = assemble_report(ch, sol.precoder, problem.layout, weights=np.array([0.5, 0.5]))
            assert np.array_equal(sol.report.overall, report.overall) and sol.wsr == report.wsr
        # derived: no constructor argument, left out of repr, and rebuilt
        # by dataclasses.replace
        with pytest.raises(TypeError):
            Problem(ch, "sdma", 1.0, (), build_layout("sdma", ch))
        assert "layout" not in repr(problem)
        assert replace(problem, scheme="noma").layout == build_layout("noma", ch)

    def test_bad_problem_raises_where_it_is_made(self):
        with pytest.raises(ValueError, match="unknown scheme 'tdma'"):
            Problem(channel([[0.3, 0.2], [0.9, 0.4]]), "tdma", 1.0)
        for users in (1, 3):
            with pytest.raises(ValueError, match=f"a layout has exactly two users, got {users}"):
                Problem(channel(np.full((users, 2), 0.5)), "sdma", 1.0)


class TestAoSolve:
    def test_zero_budget(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", ch)
        sol = solve(ch, lay, (0.5, 0.5), 0.0)
        assert sol.wsr == 0.0
        assert sol.converged
        assert sol.iterations == 0  # the origin is stationary: no polish iteration

    def test_non_finite_state_raises(self):
        # amplitudes of about 1e250 square to inf, so the starts' WSRs are
        # nan (TestSubproblem checks the polish's derivatives at such a point)
        ch = channel([[1e150, 2e150], [3e150, 1e150]])
        lay = build_layout("sdma", ch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="WSR"):
                solve(ch, lay, (0.5, 0.5), 1e100)

    def test_negative_budget_rejected(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("sdma", ch)
        with pytest.raises(ValueError, match="epsilon"):
            solve(ch, lay, (0.5, 0.5), -1.0)
        with pytest.raises(ValueError, match="epsilon"):
            ao_solve([Problem(ch, "sdma", 2.0), Problem(ch, "sdma", -1e-9)], (0.5, 0.5), layout=lay)

    def test_non_finite_budget_rejected(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", ch)
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                solve(ch, lay, (0.5, 0.5), eps)

    def test_non_finite_priority_rejected(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        for scheme in SCHEMES:
            for w in ((np.nan, 0.5), (np.inf, 0.5)):
                with pytest.raises(ValueError, match="priorities must be finite"):
                    solve(ch, build_layout(scheme, ch), w, 2.0)

    def test_monotone_and_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ch = random_channel(rng)
            scheme = ("rsma", "sdma", "noma")[int(rng.integers(3))]
            lay = build_layout(scheme, ch)
            eps = float(rng.uniform(1.0, 30.0))
            sol = solve(ch, lay, (0.5, 0.5), eps)
            hist = np.array(sol.wsr_history)
            assert np.all(np.diff(hist) >= -1e-8)
            assert max_row_l1(sol.precoder) <= eps + 1e-9
            assert np.all(sol.report.common_shares >= 0.0)
            assert sol.report.common_shares.sum() <= sol.report.common_cap + 1e-9

    def test_determinism(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("rsma", ch)
        a = solve(ch, lay, (0.5, 0.5), 5.0)
        b = solve(ch, lay, (0.5, 0.5), 5.0)
        assert np.array_equal(a.precoder.matrix, b.precoder.matrix)
        assert a.wsr == b.wsr
        assert a.wsr_history == b.wsr_history
        assert a.restart_index == b.restart_index

    @pytest.mark.parametrize("k", [2])  # a layout has exactly two users
    def test_fixed_start_set(self, k, monkeypatch):
        # every problem starts from ZF, one corner per user and its
        # warm_from solutions, and RSMA from the four split starts too; the
        # warm starts run as a second wave
        ch = random_channel(np.random.default_rng(50 + k), k=k, l=3)
        problems = [Problem(ch, "sdma", 4.0), Problem(ch, "noma", 5.0), Problem(ch, "rsma", 6.0, warm_from=(0, 1))]
        batches = []
        real_solve = optimizer._solve_starts

        def solve_starts(comp, P, config):
            batches.append(P.copy())
            return real_solve(comp, P, config)

        monkeypatch.setattr(optimizer, "_solve_starts", solve_starts)
        sols = solve_all(problems, np.full(k, 1.0 / k))
        splits = [len(optimizer._SPLITS) * (p.scheme == "rsma") for p in problems]
        warm = sum(len(p.warm_from) for p in problems)
        assert [len(P) for P in batches] == [sum(1 + k + n for n in splits), warm]
        # wave 0 holds each problem's ZF start, its corners, then its split
        # starts, as `_starts` builds them for the call's batch
        zf, corners, split_starts = optimizer._starts(
            optimizer._Compiled([ch] * 3, [p.layout for p in problems], np.full(k, 1.0 / k), [4.0, 5.0, 6.0]))
        first = 0
        # on the RSMA columns, with the columns the problem's layout leaves empty at 0
        for p, (problem, n) in enumerate(zip(problems, splits)):
            active = build_layout(problem.scheme, ch).active
            own = np.concatenate((zf[p, None], corners[p], split_starts[p, :n]))
            assert np.array_equal(batches[0][first : first + len(own)], own)
            assert np.all(own[..., ~active] == 0.0)
            first += len(own)
        for problem, sol, n in zip(problems, sols, splits):
            assert 0 <= sol.restart_index < 1 + k + len(problem.warm_from) + n

    def test_special_case_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            ch = random_channel(rng)
            eps = float(rng.uniform(2.0, 20.0))
            [sols] = scenarios.solve_schemes([(ch, eps, SCHEMES)], (0.5, 0.5), AoConfig())
            assert sols["rsma"].wsr >= sols["sdma"].wsr - 1e-9
            assert sols["rsma"].wsr >= sols["noma"].wsr - 1e-9

    def test_report_matches_stored_wsr(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("noma", ch)
        sol = solve(ch, lay, (0.5, 0.5), 8.0)
        assert sol.report.wsr == pytest.approx(sol.wsr_history[-1], abs=1e-9)

    def test_unequal_priorities_respected(self):
        # correlated channel: rates trade off, so the heavy user must win
        ch = channel([[1.0, 0.8], [0.8, 1.0]])
        lay = build_layout("sdma", ch)
        lop = solve(ch, lay, (0.9, 0.1), 10.0)
        assert lop.report.overall[0] > lop.report.overall[1]
        even = solve(ch, lay, (0.5, 0.5), 10.0)
        heavy = solve(ch, lay, (0.9, 0.1), 10.0)
        assert heavy.report.overall[0] >= even.report.overall[0] - 1e-6


class TestBatchedSolver:
    """The lockstep batch: a problem's result does not depend on the
    problems that share its batch, in the polish or the waves of warm
    starts."""

    @staticmethod
    def _same(a, b):
        return (
            np.array_equal(a.precoder.matrix, b.precoder.matrix)
            and a.wsr_history == b.wsr_history
            and a.iterations == b.iterations
            and a.converged == b.converged
            and a.restart_index == b.restart_index
            and a.residual == b.residual
        )

    # unequal priorities move NOMA's common weight (the weak user's) away
    # from RSMA's (the top priority): the weak user is user 0 on the
    # 2-fixture channel and user 1 on the 4-fixture one
    @pytest.mark.parametrize("fixtures,w", [
        pytest.param(2, (0.5, 0.5), id="2"),
        pytest.param(4, (0.5, 0.5), id="4"),
        pytest.param(2, (0.3, 0.7), id="2-w0.3,0.7"),
        pytest.param(4, (0.8, 0.2), id="4-w0.8,0.2"),
    ])
    @pytest.mark.parametrize("scheme", ["rsma", "sdma", "noma"])
    def test_every_start_matches_a_batch_of_one(self, scheme, fixtures, w):
        # the projection and the polish, for a stack of starts at three
        # budgets and for each start alone, bit for bit: at the default
        # tolerance, which every start reaches, and at TIGHT, which some stop
        # short of. Alone, a start's kink system sits right under its binding
        # system; in the batch, under every start's binding system
        rng = np.random.default_rng(40 + fixtures)
        ch = random_channel(rng, l=fixtures)
        lay = build_layout(scheme, ch)
        eps, starts = [], []
        for snr in (5.0, 15.0, 30.0):
            e = epsilon_from_snr(snr, 1.0)
            zf, corners, _ = optimizer._starts(compiled(ch, lay, w, eps=e))
            starts += [zf[0], *corners[0]]
            starts += [on_columns(lay, random_start(ch, lay, e, rng)) for _ in range(2)]
            eps += [e] * 5
        # SDMA's common column, NOMA's weak user's private column
        unused = np.flatnonzero(~lay.active).tolist()
        comp = compiled(ch, lay, w, len(starts), eps)
        for cfg in (AoConfig(), AoConfig(tolerance=TIGHT)):
            with pytest.MonkeyPatch.context() as mp:
                log = newton_log(mp)
                P, hist, res = optimizer._solve_starts(comp, np.stack(starts), cfg)
            # the batch stacks kink systems under the binding ones (not
            # SDMA's, which does not weight the common stream) and solves
            # again the systems whose free step leaves a ball, kink systems
            # among them, so the check below covers the stacked layout
            kinks = [k for _, step in log for _, k in step[:1]]
            again = [k for _, step in log for _, k in step[1:]]
            assert again and (max(kinks) > 0) == (scheme != "sdma")
            assert (max(again) > 0) == (scheme == "rsma" or (scheme == "noma" and fixtures == 4))
            polished, outcomes = 0, set()
            for b in range(len(starts)):
                one = compiled(ch, lay, w, eps=eps[b])
                P1, hist1, res1 = optimizer._solve_starts(one, starts[b][None], cfg)
                assert np.array_equal(P[b], P1[0]) and hist[b] == hist1[0] and res[b] == res1[0]
                # the reported residual is the one at the returned precoder,
                # whichever exit the start took (tolerance, stuck or cap)
                r, dr, _ = optimizer._stage_derivatives(one, P1)
                J = np.kron(ch.gains, np.eye(3))[None]
                gap, _ = optimizer._decoder_weights(one, r, dr, J, P1)
                assert gap[0] == res1[0]
                assert np.all(P[b][:, unused] == 0.0)
                assert np.all(np.diff(hist[b]) >= 0.0)
                polished += hist[b][-1] > hist[b][0]
                outcomes.add(bool(res[b] <= cfg.tolerance))
            assert polished  # the polish moved some start
            if cfg.tolerance != TIGHT:
                assert outcomes == {True}
            elif fixtures == 4 and scheme != "noma":  # NOMA's starts, and most at 2 fixtures, reach TIGHT
                assert outcomes == {True, False}  # both exits are exercised

    def test_mixed_budgets_and_start_counts(self):
        # the problems hold no, one and two warm starts: the solutions of
        # earlier problems, found under other budgets, in waves 1 and 2
        rng = np.random.default_rng(45)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", ch)
        epsilons = [2.0, epsilon_from_snr(12.0, 1.0), 30.0]
        warm_from = [(), (0,), (0, 1)]
        problems = [Problem(ch, "rsma", eps, refs) for eps, refs in zip(epsilons, warm_from)]
        sols = ao_solve(problems, (0.5, 0.5), layout=lay)
        assert isinstance(sols, tuple) and len(sols) == 3
        # each problem is solved as in a call of itself and the problems before it
        for n in (1, 2):
            alone = ao_solve(problems[:n], (0.5, 0.5), layout=lay)
            assert all(self._same(a, b) for a, b in zip(alone, sols))
        for eps, sol in zip(epsilons, sols):
            assert sol.converged and max_row_l1(sol.precoder) <= eps + 1e-9

    def test_batch_of_one_equals_batch_of_many(self):
        rng = np.random.default_rng(46)
        ch = random_channel(rng, l=2)
        for scheme in ("rsma", "sdma", "noma"):
            lay = build_layout(scheme, ch)
            epsilons = [epsilon_from_snr(snr, 1.0) for snr in (0.0, 10.0, 20.0, 30.0)]
            many = ao_solve([Problem(ch, scheme, eps) for eps in epsilons], (0.5, 0.5), layout=lay)
            for eps, sol in zip(epsilons, many):
                assert self._same(solve(ch, lay, (0.5, 0.5), eps), sol)
        # and with a second wave: each RSMA problem warm-started from its
        # budget's SDMA problem, in one call and in a call per budget
        n = len(epsilons)
        problems = [Problem(ch, "sdma", eps) for eps in epsilons]
        problems += [Problem(ch, "rsma", eps, (j,)) for j, eps in enumerate(epsilons)]
        many = solve_all(problems, (0.5, 0.5))
        for j in range(n):
            one = solve_all([problems[j], replace(problems[n + j], warm_from=(0,))], (0.5, 0.5))
            assert self._same(one[0], many[j]) and self._same(one[1], many[n + j])
            assert many[n + j].wsr >= many[j].wsr

    @staticmethod
    def _mixed_problems():
        # different gains and non-unit noise per problem; the channels
        # alternate which user has the larger L2 row norm, so NOMA's strong
        # user (of larger ||h_k||_1 / sigma_k) differs between them too and
        # one NOMA batch holds both NOMA layouts
        rng = np.random.default_rng(48)
        channels, epsilons = [], []
        for i in range(6):
            gains = rng.uniform(0.1, 1.0, size=(2, 4))
            if (np.linalg.norm(gains[0]) >= np.linalg.norm(gains[1])) != (i % 2 == 0):
                gains = gains[::-1].copy()
            channels.append(channel(gains, rng.uniform(0.3, 3.0, size=2)))
            sigma = float(np.sqrt(np.mean(channels[-1].noise)))
            epsilons.append(epsilon_from_snr(5.0 + 6.0 * i, sigma))
        epsilons[3] = 4.0
        assert len({build_layout("noma", ch) for ch in channels}) == 2
        return channels, epsilons

    @pytest.mark.parametrize("scheme,w", [
        *[pytest.param(scheme, (0.4, 0.6), id=scheme) for scheme in SCHEMES],
        *[pytest.param(scheme, w, id=f"{scheme}-w{w[0]},{w[1]}") for w in ((0.3, 0.7), (0.8, 0.2))
          for scheme in SCHEMES],
    ])
    def test_mixed_channel_batch_equals_each_problem_alone(self, scheme, w):
        # each problem is solved under its own channel's layout, at the
        # default tolerance and at TIGHT
        channels, epsilons = self._mixed_problems()
        for config in (AoConfig(), AoConfig(tolerance=TIGHT)):
            batched = solve_all([Problem(ch, scheme, eps) for ch, eps in zip(channels, epsilons)], w, config)
            assert isinstance(batched, tuple) and len(batched) == len(channels)
            outcomes = set()
            for ch, eps, sol in zip(channels, epsilons, batched):
                lay = build_layout(scheme, ch)
                alone = solve(ch, lay, w, eps, config)
                assert self._same(sol, alone)
                assert np.array_equal(sol.report.common_shares, alone.report.common_shares) and sol.wsr == alone.wsr
                outcomes.add(sol.converged)
            if config.tolerance != TIGHT:
                assert outcomes == {True}
            elif scheme != "noma" or w != (0.4, 0.6):  # at 0.4/0.6 every NOMA problem reaches TIGHT
                assert outcomes == {True, False}  # both exits are exercised

    @pytest.mark.parametrize("w", [(0.4, 0.6), (0.8, 0.2)], ids=["w0.4,0.6", "w0.8,0.2"])
    def test_sdma_and_noma_batch_equals_each_problem_alone(self, w):
        # one call solves the SDMA and the NOMA problem of every channel:
        # an RSMA batch in which SDMA zero-weights the common stream and
        # NOMA the weak user's private one, with NOMA of both strong users
        channels, epsilons = self._mixed_problems()
        problems = [Problem(ch, s, eps) for ch, eps in zip(channels, epsilons) for s in ("sdma", "noma")]
        for config in (AoConfig(), AoConfig(tolerance=TIGHT)):
            batched = solve_all(problems, w, config)
            assert len(batched) == len(problems)
            outcomes = set()
            for problem, sol in zip(problems, batched):
                ch, scheme, eps = problem.channel, problem.scheme, problem.epsilon
                lay = build_layout(scheme, ch)
                alone = solve(ch, lay, w, eps, config)
                assert self._same(sol, alone)
                assert np.array_equal(sol.report.common_shares, alone.report.common_shares) and sol.wsr == alone.wsr
                assert sol.precoder.matrix.shape == (ch.num_fixtures, lay.num_streams)
                assert np.array_equal(sol.report.overall, alone.report.overall)
                outcomes.add((scheme, sol.converged))
            expected = {("sdma", True), ("noma", True)}
            if config.tolerance == TIGHT:
                expected |= {("sdma", False), ("noma", False)}
            assert outcomes == expected  # both exits of each scheme are exercised
        # on one shared channel, too
        ch = channels[0]
        schemes = ["noma", "sdma", "sdma"]
        shared = solve_all([Problem(ch, scheme, eps) for scheme, eps in zip(schemes, [2.0, 2.0, 9.0])], w)
        for scheme, eps, sol in zip(schemes, [2.0, 2.0, 9.0], shared):
            assert self._same(sol, solve(ch, build_layout(scheme, ch), w, eps))

    def test_layout_is_the_first_problems_scheme(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        sdma, noma = build_layout("sdma", a), build_layout("noma", a)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "sdma", 1.0), Problem(a, "noma", 1.0)], (0.5, 0.5), layout=noma)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "noma", 1.0)], (0.5, 0.5), layout=sdma)

    def test_seeded_rsma_equals_each_channel_alone(self, monkeypatch):
        # solve_schemes solves the helpers and RSMA of every channel in one
        # call, each RSMA problem warm-started from its channel's SDMA,
        # then NOMA problem, and each channel's rows are its own call's
        channels, epsilons = self._mixed_problems()
        w = (0.4, 0.6)
        calls = []
        real = scenarios.ao_solve

        def spy(problems, priorities, config, *, layout):
            sols = real(problems, priorities, config, layout=layout)
            calls.append((problems, sols))
            return sols

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        solved = scenarios.solve_schemes([(ch, eps, ("rsma",)) for ch, eps in zip(channels, epsilons)], w, AoConfig())
        monkeypatch.undo()
        assert [list(point) for point in solved] == [["rsma"]] * len(channels)
        assert len(calls) == 1  # one batched call, the helpers included
        [(problems, sols)] = calls
        n = len(channels)
        assert [p.scheme for p in problems] == ["sdma"] * n + ["noma"] * n + ["rsma"] * n
        assert [p.warm_from for p in problems] == [()] * (2 * n) + [(j, n + j) for j in range(n)]
        for j, (ch, eps, point) in enumerate(zip(channels, epsilons, solved)):
            sol = point["rsma"]
            alone = scenarios.solve_schemes([(ch, eps, ("rsma",))], w, AoConfig())[0]["rsma"]
            assert self._same(sol, alone)
            assert np.array_equal(sol.report.common_shares, alone.report.common_shares) and sol.wsr == alone.wsr
            assert sol.wsr >= max(sols[j].wsr, sols[n + j].wsr) - 1e-12

    def test_rank_deficient_and_generic_points_equal_each_point_alone(self):
        # one solve_schemes batch mixes channels whose starts take the ridge
        # inverse (aligned users, identical users) with generic ones that
        # take the pseudo-inverse: every point's solutions are those of the
        # point solved alone
        rng = np.random.default_rng(62)
        points = []
        for i in range(6):
            h = rng.uniform(0.1, 1.0, 4)
            gains = (np.stack((h, rng.uniform(0.2, 0.9) * h)), np.stack((h, h)), rng.uniform(0.1, 1.0, (2, 4)))[i % 3]
            points.append((channel(gains, rng.uniform(0.5, 2.0, 2)), epsilon_from_snr(5.0 + 7.0 * i, 1.0), SCHEMES))
        w = (0.4, 0.6)
        batched = scenarios.solve_schemes(points, w, AoConfig())
        assert [int(np.linalg.matrix_rank(ch.gains)) for ch, _, _ in points] == [1, 1, 2] * 2
        for point, sols in zip(points, batched):
            [alone] = scenarios.solve_schemes([point], w, AoConfig())
            for scheme in SCHEMES:
                assert self._same(sols[scheme], alone[scheme])
                assert sols[scheme].precoder.matrix.tobytes() == alone[scheme].precoder.matrix.tobytes()

    @pytest.mark.parametrize("shared", [False, True], ids=["own-channels", "shared-channel"])
    def test_warm_from_equals_helpers_then_explicit_warm_starts(self, shared):
        # one call holds the SDMA, NOMA and RSMA problems; an RSMA
        # problem's warm starts run in the second wave, from its helpers'
        # winners, and it ends as in a call of its channel's helpers and
        # itself alone
        channels, epsilons = self._mixed_problems()
        if shared:
            channels = [channels[0]] * len(channels)
        w = (0.4, 0.6)
        n = len(channels)
        schemes = ["sdma"] * n + ["noma"] * n + ["rsma"] * n
        warm_from = [()] * (2 * n) + [(j, n + j) for j in range(n)]
        batched = solve_all([Problem(*p) for p in zip(channels * 3, schemes, epsilons * 3, warm_from)], w)
        for j, (ch, eps) in enumerate(zip(channels, epsilons)):
            layouts = [build_layout(s, ch) for s in ("sdma", "noma", "rsma")]
            helpers = [solve(ch, lay, w, eps) for lay in layouts[:2]]
            alone = solve_all([Problem(ch, "sdma", eps), Problem(ch, "noma", eps), Problem(ch, "rsma", eps, (0, 1))],
                              w)
            rsma = alone[2]
            assert all(self._same(got, want) for got, want in zip(alone, helpers))
            for got, want in zip(batched[j::n], helpers + [rsma]):
                assert np.array_equal(got.precoder.matrix, want.precoder.matrix)
                assert (got.iterations, got.converged, got.restart_index) == (
                    want.iterations, want.converged, want.restart_index)
                assert got.wsr_history == want.wsr_history
                assert np.array_equal(got.report.common_shares, want.report.common_shares) and got.wsr == want.wsr
            assert max(h.wsr for h in helpers) <= rsma.wsr + 1e-12

    @staticmethod
    def _drawn_batch(seed, trial):
        """(problems, priorities) of the `trial`-th batch drawn from `seed`:
        six 2-user channels (2 or 4 fixtures, random gains and noise; one
        shared by all six when `trial` is even) with 0-40 dB budgets, each
        channel's SDMA and NOMA problems in turn, then its RSMA problem
        warm-started from them, under random priorities."""
        rng = np.random.default_rng(seed)
        for t in range(trial + 1):
            fixtures = int(rng.choice([2, 4]))

            def draw():
                return ChannelMatrix(gains=rng.uniform(0.05, 1.0, (2, fixtures)), noise=rng.uniform(0.5, 2.0, 2))

            first = draw()
            channels = [first if t % 2 == 0 else draw() for _ in range(6)]
            epsilons = [epsilon_from_snr(float(rng.uniform(0.0, 40.0)), 1.0) for _ in range(6)]
            w = tuple(rng.uniform(0.2, 1.0, 2))
        problems = [Problem(ch, s, eps) for ch, eps in zip(channels, epsilons) for s in ("sdma", "noma")]
        problems += [Problem(ch, "rsma", eps, (2 * j, 2 * j + 1))
                     for j, (ch, eps) in enumerate(zip(channels, epsilons))]
        return problems, w

    def test_drawn_batches_equal_each_channel_alone(self):
        # batches in which a warm start wins: each channel's three
        # solutions are those of a call of its own, at the default tolerance,
        # which every problem reaches (two NOMA problems with 4 fixtures and
        # priorities 0.72/0.76 after a fresh start of the polish), and at
        # TIGHT, which some stop short of
        for config in (AoConfig(), AoConfig(tolerance=TIGHT)):
            outcomes, winners = set(), set()
            for seed, trial in ((1, 2), (3, 0), (4, 1)):
                problems, w = self._drawn_batch(seed, trial)
                batched = solve_all(problems, w, config)
                for j in range(6):
                    alone = solve_all([problems[2 * j], problems[2 * j + 1],
                                       replace(problems[12 + j], warm_from=(0, 1))], w, config)
                    for p, want in zip((2 * j, 2 * j + 1, 12 + j), alone):
                        got = batched[p]
                        assert self._same(got, want) and got.wsr == want.wsr
                        assert got.converged == (got.residual <= config.tolerance)
                        outcomes.add((problems[p].scheme, got.converged))
                    winners.add(alone[2].restart_index)
                    assert alone[2].wsr >= max(alone[0].wsr, alone[1].wsr) - 1e-12
            if config.tolerance != TIGHT:
                assert outcomes == {("sdma", True), ("noma", True), ("rsma", True)}
            else:
                assert ("noma", False) in outcomes and ("noma", True) in outcomes  # both exits are exercised
            assert winners & {3, 4}  # a warm start won somewhere (ZF and the corners are starts 0-2)

    def test_warm_starts_run_in_a_later_wave(self, monkeypatch):
        # wave 0 holds every start but the warm ones; each warm start is
        # the polished winner of its problem and runs in the wave after it
        ch = random_channel(np.random.default_rng(49), l=4)
        problems = [Problem(ch, "sdma", 3.0), Problem(ch, "noma", 3.0, (0,)), Problem(ch, "rsma", 3.0, (0, 1))]
        waves = []
        real = optimizer._solve_starts

        def solve_starts(comp, P0, config):
            waves.append(P0.copy())
            return real(comp, P0, config)

        monkeypatch.setattr(optimizer, "_solve_starts", solve_starts)
        sols = solve_all(problems, (0.5, 0.5))
        own = [1 + 2, 1 + 2, 1 + 2 + len(optimizer._SPLITS)]
        assert [len(P0) for P0 in waves] == [sum(own), 1, 2]
        noma = build_layout("noma", ch)
        assert np.array_equal(waves[1][0], np.where(noma.active, sols[0].precoder.matrix, 0.0))
        assert np.array_equal(waves[2][0], sols[0].precoder.matrix)
        assert np.array_equal(waves[2][1], sols[1].precoder.matrix)
        assert sols[2].wsr >= max(sols[0].wsr, sols[1].wsr)

    def test_warm_from_names_earlier_problems_only(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        sdma = build_layout("sdma", a)
        for warm_from in ([(0,), ()], [(), (1,)], [(), (2,)], [(), (-1,)]):
            with pytest.raises(ValueError):
                ao_solve([Problem(a, "sdma", 1.0, refs) for refs in warm_from], (0.5, 0.5), layout=sdma)
        with pytest.raises(ValueError):  # a single problem has no earlier one
            ao_solve([Problem(a, "sdma", 1.0, (0,))], (0.5, 0.5), layout=sdma)

    def test_batch_holds_one_row_per_problem(self):
        # a mixed batch on one channel: every per-problem array has a row per
        # problem, and take gathers keep's rows of each
        ch = channel([[0.9, 0.4], [0.3, 0.8]], [1.0, 0.7])
        layouts = [build_layout(s, ch) for s in ("sdma", "noma", "rsma")]
        comp = optimizer._Compiled([ch] * 3, layouts, np.array([0.4, 0.6]), [1.0, 2.5, 0.0])
        names = ("H", "_sig2", "w_priv", "w_common", "active", "eps")
        assert [getattr(comp, name).shape for name in names] == [(3, 2, 2), (3, 4), (3, 2), (3,), (3, 3), (3,)]
        assert comp.eps.tolist() == [1.0, 2.5, 0.0]
        keep = np.array([2, 0, 2, 1])
        sub = comp.take(keep)
        for name in names:
            assert np.array_equal(getattr(sub, name), getattr(comp, name)[keep])
        # one channel per layout, as sequences
        for channels, lays in (([ch] * 2, layouts), ([ch] * 4, layouts), ([], []), (ch, layouts[0]), ([ch], layouts[0])):
            with pytest.raises(ValueError, match="one channel per layout"):
                optimizer._Compiled(channels, lays, np.array([0.4, 0.6]), [1.0] * 3)
        # one finite nonnegative budget per problem
        for eps in ([1.0, 2.0], [1.0] * 4, [1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [np.inf] * 3, 1.0):
            with pytest.raises(ValueError, match="epsilon must be finite and nonnegative, one per problem"):
                optimizer._Compiled([ch] * 3, layouts, np.array([0.4, 0.6]), eps)

    # channels a and c have user 0 as NOMA's strong user, b has user 1
    BATCHES = {
        "sdma": ("sdma@a", "sdma@b"),
        "noma-one-strong-user": ("noma@a", "noma@c"),
        "noma-both-strong-users": ("noma@a", "noma@b"),
        "sdma+noma": ("sdma@a", "noma@b"),
        "rsma": ("rsma@a",),
        "rsma+sdma": ("sdma@a", "rsma@b"),
        "rsma+noma": ("noma@b", "rsma@a"),
        "rsma+sdma+noma": ("sdma@c", "noma@a", "rsma@b"),
    }

    @pytest.mark.parametrize("w", [(0.5, 0.5), (0.8, 0.2)], ids=["w0.5,0.5", "w0.8,0.2"])
    @pytest.mark.parametrize("kind", BATCHES)
    def test_every_batch_has_the_rsma_stages(self, kind, w):
        # whatever its schemes, a batch is compiled on the one SIC kernel of
        # K users: K private stages, then K common decoders, on the K + 1
        # RSMA columns; each problem weights only its layout's streams
        channels = {"a": channel([[0.9, 0.4], [0.3, 0.8]]), "b": channel([[0.3, 0.2], [0.5, 0.9]]),
                    "c": channel([[0.8, 0.5], [0.2, 0.3]])}
        problems = [entry.split("@") for entry in self.BATCHES[kind]]
        chans = [channels[name] for _, name in problems]
        layouts = [build_layout(scheme, ch) for (scheme, _), ch in zip(problems, chans)]
        comp = optimizer._Compiled(chans, layouts, np.array(w), np.ones(len(chans)))
        assert comp.n_priv == 2 and np.array_equal(comp._gather, SicKernel(2, np.ones(2))._gather)
        assert comp._gather.shape[1] == 4 and comp._gather.max() < 2 * 3
        # user k decodes private column k past the other one, and every
        # user decodes the common column 2 past both
        assert [np.flatnonzero(comp._interferes[:, k]).tolist() for k in (0, 1)] == [[1], [0]]
        assert [np.flatnonzero(comp._interferes[:, 2 + k]).tolist() for k in (0, 1)] == [[0, 1], [0, 1]]
        for row, lay in zip(comp.active, layouts):
            assert np.flatnonzero(row).tolist() == np.flatnonzero(lay.active).tolist()

    def test_channels_need_one_shape(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("sdma", a)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "sdma", 1.0), Problem(channel(np.ones((2, 3))), "sdma", 1.0)], (0.5, 0.5),
                     layout=lay)

    def test_empty_problem_list_rejected(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        with pytest.raises(ValueError):
            ao_solve([], (0.5, 0.5), layout=build_layout("sdma", a))

    def test_projection_radius_per_row(self):
        rng = np.random.default_rng(47)
        M = rng.normal(size=(5, 4, 3)) * 3.0
        budget = rng.uniform(0.0, 4.0, size=5)
        budget[2] = 0.0
        # every branch of the projection: a problem inside its ball, one
        # with rows inside and rows outside, tied magnitudes ((1, 1, 1) at
        # radius 2, (2, -2, 0) at radius 1) and a zero-radius problem
        # whose rows hold -0.0
        special = np.array([
            [[0.1, -0.2, 0.3], [0.0, 0.5, -0.5], [1.0, -0.0, 0.0], [-0.3, 0.3, 0.3]],
            [[0.1, -0.2, 0.3], [3.0, -2.0, 1.0], [0.5, 0.5, -0.5], [-4.0, -0.0, 1.0]],
            [[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0]],
            [[2.0, -2.0, 0.0], [0.0, 2.0, -2.0], [-2.0, -0.0, 2.0], [2.0, 2.0, 2.0]],
            [[-0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [2.0, -1.0, 0.5]],
        ])
        M = np.concatenate((M, special))
        budget = np.concatenate((budget, [4.0, 2.0, 2.0, 1.0, 0.0]))
        batch = project_rows_l1(M, np.repeat(budget[:, None], 4, axis=1))
        for b in range(len(M)):
            for row in range(4):
                # each row as a stack of one, bit for bit, and a point of its ball
                alone = project_rows_l1(M[b, row][None], budget[b])[0]
                assert batch[b, row].tobytes() == alone.tobytes()
                assert np.abs(alone).sum() <= budget[b] * (1.0 + 1e-12)
                if 0.0 < budget[b] and np.abs(M[b, row]).sum() <= budget[b]:
                    assert alone.tobytes() == M[b, row].tobytes()
        # a stack with every row outside its ball, and one with none
        for rows, radius in ((M[7:9], 0.5), (M[5:6], 4.0)):
            expected = np.stack([[project_rows_l1(r[None], radius)[0] for r in m] for m in rows])
            assert project_rows_l1(rows, np.full(rows.shape[:2], radius)).tobytes() == expected.tobytes()
            assert project_rows_l1(rows, radius).tobytes() == expected.tobytes()
        # a (B, 1) radius broadcasts over each problem's rows, bit for bit as
        # the repeated one, the zero-radius problems included; a radius that
        # does not broadcast against the rows is refused
        assert project_rows_l1(M, budget[:, None]).tobytes() == batch.tobytes()
        for radius in (budget, budget[None], budget[:, None, None], np.ones((len(M), 2))):
            with pytest.raises(ValueError):
                project_rows_l1(M, radius)


class TestPolish:
    """The projected-Newton polish and its residual."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_derivatives_match_central_differences(self, scheme):
        # the stage rates' gradient and Hessian in A = H P, weighted and
        # chained through H, against central differences of the true WSR
        rng = np.random.default_rng(60)
        ch = channel(rng.uniform(0.1, 1.0, size=(2, 4)), [1.0, 0.7])
        lay = build_layout(scheme, ch)
        P = on_columns(lay, rng.normal(size=(3, 4, lay.active.sum())))
        comp = compiled(ch, lay, [0.4, 0.6], len(P))
        J = np.kron(ch.gains, np.eye(3))[None]
        r, dr, d2r = optimizer._stage_derivatives(comp, P)
        # the K common decoders, of every scheme; SDMA's have rate 0 and weight 0
        binding = np.zeros((3, comp.n_priv))
        binding[np.arange(3), r[:, comp.n_priv :].argmin(axis=1)] = 1.0
        grad_a, hess_a = optimizer._objective(comp, dr, d2r, binding)
        grad, hess = (grad_a[:, None, :] @ J)[:, 0], J.transpose(0, 2, 1) @ hess_a @ J
        h, fd_grad, fd_hess = 1e-6, np.empty_like(grad), np.empty_like(hess)
        for i in range(12):
            step = np.zeros(12)
            step[i] = h
            up, down = P + step.reshape(4, 3), P - step.reshape(4, 3)
            fd_grad[:, i] = (comp.true_rates(up) - comp.true_rates(down)) / (2 * h)
            g_up = optimizer._objective(comp, *optimizer._stage_derivatives(comp, up)[1:], binding)[0]
            g_down = optimizer._objective(comp, *optimizer._stage_derivatives(comp, down)[1:], binding)[0]
            fd_hess[:, :, i] = ((g_up - g_down)[:, None, :] @ J)[:, 0] / (2 * h)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-8 * np.abs(grad).max())
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-7 * np.abs(hess).max())

    def test_kink_residual_is_the_smallest_gap_over_decoder_weights(self):
        # the residual at the common-rate kink minimizes the Frank-Wolfe gap
        # over the weightings of its two decoders; a grid of weights finds
        # no smaller gap
        rng = np.random.default_rng(61)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", ch)
        P = project_rows_l1(on_columns(lay, rng.normal(size=(20, 4, 3))), np.full((20, 4), 2.0))
        comp = compiled(ch, lay, [0.5, 0.5], len(P), eps=2.0)
        J = np.kron(ch.gains, np.eye(3))[None]
        r, dr, _ = optimizer._stage_derivatives(comp, P)
        gap, lam = optimizer._decoder_weights(comp, r, dr, J, P, np.inf)
        for t in np.linspace(0.0, 1.0, 201):
            G = optimizer._stage_sum(np.concatenate((np.full((20, 2), 0.5), 0.5 * np.array([[t, 1 - t]] * 20)), axis=1),
                                     dr)
            G = (G[:, None, :] @ J)[:, 0].reshape(P.shape)
            fw = 2.0 * np.abs(G).max(axis=2).sum(axis=1) - (G * P).sum(axis=(1, 2))
            assert np.all(gap <= fw + 1e-12)
        assert np.all(lam >= 0.0) and np.all(np.abs(lam.sum(axis=1) - 1.0) < 1e-12)
        # away from the kink only the binding decoder is weighted
        far, lam_far = optimizer._decoder_weights(comp, r, dr, J, P, 0.0)
        assert np.all(far >= gap - 1e-12) and set(lam_far.ravel().tolist()) <= {0.0, 1.0}

    def test_residual_counts_the_distance_to_the_kink(self):
        # the residual is min over the weight t of decoder 0 of the
        # Frank-Wolfe gap of G(t) plus what t gives away on the min, w_c (t
        # r_c0 + (1 - t) r_c1 - min_j r_cj): no weight of a grid does better,
        # on the kink, at points delta bits off it and at random points. Off
        # the kink it exceeds the smallest gap over the weights, by at most
        # w_c delta, and it never exceeds the binding decoder's gap
        rng = np.random.default_rng(61)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", ch)
        J = np.kron(ch.gains, np.eye(3))[None]
        w_c, eps = compiled(ch, lay, [0.5, 0.5]).w_common[0], 2.0

        def difference(P):  # r_c0 - r_c1, bits
            r = optimizer._stage_derivatives(compiled(ch, lay, [0.5, 0.5], len(P)), P)[0]
            return r[:, -2] - r[:, -1]

        # a point whose decoders cross as user 0's private column scales by s
        while True:
            P0 = project_rows_l1(on_columns(lay, rng.normal(size=(1, 4, 3))), np.full((1, 4), eps))
            scaled = lambda s: P0 * np.array([s, 1.0, 1.0])  # noqa: E731
            lo, hi = 0.5, 1.0
            if np.sign(difference(scaled(lo))[0]) != np.sign(difference(scaled(hi))[0]):
                break

        def at(delta):  # bisect s for r_c0 - r_c1 = delta
            a, b = lo, hi
            for _ in range(200):
                m = 0.5 * (a + b)
                if (difference(scaled(m))[0] - delta > 0) == (difference(scaled(a))[0] - delta > 0):
                    a = m
                else:
                    b = m
            return scaled(a)

        deltas = [0.0, 1e-6, 1e-4, 1e-3, 1e-2]
        P = np.concatenate([at(d) for d in deltas] + [project_rows_l1(
            on_columns(lay, rng.normal(size=(20, 4, 3))), np.full((20, 4), eps))])
        B = len(P)
        comp = compiled(ch, lay, [0.5, 0.5], B, eps)
        r, dr, _ = optimizer._stage_derivatives(comp, P)
        residual, lam = optimizer._decoder_weights(comp, r, dr, J, P)
        smallest, _ = optimizer._decoder_weights(comp, r, dr, J, P, np.inf)
        binding, _ = optimizer._decoder_weights(comp, r, dr, J, P, 0.0)
        rc = r[:, -2:]
        grid = []
        for t in np.linspace(0.0, 1.0, 2001):
            weights = np.concatenate((np.full((B, 2), 0.5), w_c * np.array([[t, 1 - t]] * B)), axis=1)
            G = optimizer._stage_sum(weights, dr)
            G = (G[:, None, :] @ J)[:, 0].reshape(P.shape)
            fw = eps * np.abs(G).max(axis=2).sum(axis=1) - (G * P).sum(axis=(1, 2))
            grid.append(fw + w_c * (t * rc[:, 0] + (1 - t) * rc[:, 1] - rc.min(axis=1)))
        grid = np.array(grid)
        delta = np.abs(rc[:, 0] - rc[:, 1])
        # the gap's slope in t is at most its Frank-Wolfe part's, 2 eps
        # sum_l |b_l|_inf with b = w_c (dG/dt), plus w_c delta
        slope = 2.0 * eps * np.abs(w_c * (dr[:, -2] - dr[:, -1]) @ J[0]).reshape(B, 4, 3).max(axis=2).sum(1)
        assert np.all(residual <= grid.min(axis=0) + 1e-12)
        assert np.all(residual >= grid.min(axis=0) - (slope + w_c * delta) / 2000)
        assert np.allclose(delta[: len(deltas)], np.abs(deltas), rtol=1e-6, atol=1e-12)
        assert np.all(smallest - 1e-12 <= residual) and np.all(residual <= binding + 1e-12)
        assert np.all(residual <= smallest + w_c * delta + 1e-12)
        assert residual[0] == pytest.approx(smallest[0], abs=1e-12)  # on the kink
        assert np.all(residual[1 : len(deltas)] > smallest[1 : len(deltas)])  # just off it
        assert np.all(binding[1 : len(deltas)] > smallest[1 : len(deltas)] + 1e-2)  # where the binding gap is large
        assert np.all(lam >= 0.0) and np.all(np.abs(lam.sum(axis=1) - 1.0) < 1e-12)

    def test_reaches_the_diagonal_optimum(self):
        # user k hears fixture k only, so SDMA's optimum puts each fixture's
        # whole budget on its own user's stream; the polish finds it from a
        # point inside the balls, with a zero residual, in a few iterations
        ch = channel([[1.0, 0.0], [0.0, 0.5]])
        lay = build_layout("sdma", ch)
        eps = 2.0
        comp = compiled(ch, lay, [0.5, 0.5], eps=eps)
        P0 = on_columns(lay, np.array([[[0.7, 0.2], [-0.1, 0.9]]]))
        wsr0 = comp.true_rates(P0)
        P, history, residual = optimizer._polish(comp, P0, wsr0, AoConfig().tolerance)
        expected = 0.5 * np.log2(1 + (1.0 * eps) ** 2) + 0.5 * np.log2(1 + (0.5 * eps) ** 2)
        assert history[0][-1] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(np.abs(P[0][:, :2]), np.diag([eps, eps]), atol=1e-9)
        assert abs(residual[0]) <= 1e-9 and len(history[0]) - 1 <= 10
        assert np.all(np.diff(history[0]) > 0.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monotone_feasible_and_stationary(self, scheme):
        # from random feasible points at 0-40 dB: every polish iteration
        # keeps the WSR and the balls, and every start ends converged
        rng = np.random.default_rng(62)
        ch = random_channel(rng, l=4)
        lay = build_layout(scheme, ch)
        eps = np.repeat([epsilon_from_snr(snr, 1.0) for snr in (0.0, 10.0, 20.0, 30.0, 40.0)], 4)
        comp = compiled(ch, lay, [0.5, 0.5], len(eps), eps)
        P0 = np.stack([on_columns(lay, random_start(ch, lay, e, rng)) for e in eps])
        wsr0 = comp.true_rates(P0)
        P, history, residual = optimizer._polish(comp, P0, wsr0, AoConfig().tolerance)
        for b in range(len(P0)):
            assert history[b][0] == wsr0[b] and np.all(np.diff(history[b]) >= 0.0)
            assert np.abs(P[b]).sum(axis=1).max() <= eps[b] * (1.0 + 1e-12)
            assert comp.take([b]).true_rates(P[b : b + 1])[0] == history[b][-1]
        assert np.all(residual <= AoConfig().tolerance)

    def test_one_stacked_newton_system_per_iteration(self, monkeypatch):
        # scenario1_4led at 0-25 dB: each lockstep iteration solves its
        # binding systems, one per start still live after its residual
        # check, and its kink systems, at most one per binding one, in one
        # `_newton_step` call, and at most one more call re-solves a strict
        # subset of them, those whose free step leaves a ball
        log = newton_log(monkeypatch)
        spec = replace(scenarios.catalog_scene("scenario1_4led"), sweep=scenarios.Sweep("snr_db", range(0, 30, 5)))
        assert not scenarios.run_sweep(spec).failures
        for live, calls in log:
            assert len(calls) <= 2
            if calls:
                systems, kinks = calls[0]
                assert kinks <= systems - kinks <= live
            if len(calls) == 2:
                assert calls[1][0] < calls[0][0]
        # both the stacked kink systems and the re-solve are exercised
        assert any(calls and calls[0][1] for _, calls in log) and any(len(calls) == 2 for _, calls in log)


class TestGridOracle:
    def test_zero_budget(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", ch)
        assert grid_oracle(ch, lay, (0.5, 0.5), epsilon=0.0) == 0.0

    def test_dimension_caps(self):
        ch3 = ChannelMatrix(gains=np.full((2, 3), 0.5), noise=np.ones(2))
        lay = build_layout("sdma", ch3)
        with pytest.raises(ValueError):
            grid_oracle(ch3, lay, (0.5, 0.5), epsilon=1.0)
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            grid_oracle(ch, build_layout("rsma", ch), (0.5, 0.5), epsilon=1.0, resolution=25)

    def test_channel_of_other_users_rejected(self):
        # a two-user layout and a three-user channel
        lay = build_layout("rsma", channel([[0.9, 0.3], [0.3, 0.9]]))
        ch3 = channel([[0.9, 0.3], [0.3, 0.9], [0.5, 0.5]])
        with pytest.raises(ValueError, match="the channel has 3 users, the layout 2"):
            grid_oracle(ch3, lay, (0.5, 0.5), 2.0, 11)

    def test_epsilon_must_be_finite_and_nonnegative(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
                grid_oracle(ch, build_layout("sdma", ch), (0.5, 0.5), epsilon=eps)

    def test_sdma_diagonal_hand_optimum(self):
        # decoupled rows: all budget on the own-user entry, rates add up
        ch = channel([[1.0, 0.0], [0.0, 0.5]])
        lay = build_layout("sdma", ch)
        eps = 2.0
        expected = 0.5 * np.log2(1 + (1.0 * eps) ** 2) + 0.5 * np.log2(1 + (0.5 * eps) ** 2)
        got = grid_oracle(ch, lay, (0.5, 0.5), epsilon=eps, resolution=21)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_oracle_matches_report_arithmetic(self):
        # the oracle's maximum is the best assemble_report WSR over its own grid
        from rsma_vlc.signal_model import assemble_report

        rng = np.random.default_rng(13)
        eps, res = 1.5, 5
        for scheme in ("rsma", "sdma", "noma"):
            ch = random_channel(rng)
            lay = build_layout(scheme, ch)
            S = lay.active.sum()
            axis = np.linspace(-eps, eps, res)
            mesh = np.stack(np.meshgrid(*([axis] * S), indexing="ij"), axis=-1).reshape(-1, S)
            rows = mesh[np.abs(mesh).sum(axis=1) <= eps + 1e-12]
            best = max(
                assemble_report(ch, Precoder(matrix=on_columns(lay, np.stack([r1, r2]))), lay,
                                weights=np.array([0.5, 0.5])).wsr
                for r1 in rows
                for r2 in rows
            )
            got = grid_oracle(ch, lay, (0.5, 0.5), epsilon=eps, resolution=res)
            assert got == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("resolution", [5, 11, 15, 21])
    def test_sign_fixed_search_equals_full_grid(self, resolution):
        # the oracle's first row runs over the grid rows with no negative
        # entry; on a grid that holds the negation of every row this loses
        # no maximum, bit for bit (on np.linspace it does)
        rng = np.random.default_rng(resolution)
        for scheme in SCHEMES:
            for _ in range(10):
                ch = channel(rng.uniform(0.1, 1.0, size=(2, 2)), rng.uniform(0.3, 3.0, size=2))
                lay = build_layout(scheme, ch)
                w = rng.uniform(0.2, 1.0, size=2)
                eps = float(10.0 ** rng.uniform(-0.5, 1.5))
                kernel = SicKernel(2, ch.noise)
                private, common = optimizer._stream_weights(lay, w)
                rows = optimizer._grid_rows(eps, resolution, lay.active.sum())
                assert set(map(tuple, -rows)) == set(map(tuple, rows))  # the negation of every row
                H = ch.gains
                best = -np.inf
                for lo in range(0, len(rows), 100):  # every (row 1, row 2) pair
                    A = (H[None, None, :, 0:1] * rows[lo : lo + 100, None, None, :]
                         + H[None, None, :, 1:2] * rows[None, :, None, :]).reshape(-1, 2, lay.active.sum())
                    wsr = optimizer._amplitude_wsr(kernel, private[None], common, on_columns(lay, A))
                    best = max(best, float(wsr.max()))
                assert grid_oracle(ch, lay, w, eps, resolution) == best

    def test_ao_close_to_oracle(self):
        rng = np.random.default_rng(14)
        cfg = AoConfig()
        for scheme in ("rsma", "sdma", "noma"):
            for _ in range(3):
                ch = random_channel(rng)
                eps = epsilon_from_snr(15.0, 1.0)
                sol = scenarios.solve_schemes([(ch, eps, (scheme,))], (0.5, 0.5), cfg)[0][scheme]
                oracle = grid_oracle(ch, sol.layout, (0.5, 0.5), epsilon=eps, resolution=21)
                assert abs(sol.wsr - oracle) <= 0.05 * oracle

    def test_noma_order_is_the_better_one(self):
        # NOMA's strong user has the larger ||h_k||_1 / sigma_k: on seeded
        # channels of unequal noise, at 0-40 dB and unequal priorities
        # too, the grid oracle under the chosen order reaches at least
        # what it reaches under the other order
        rng = np.random.default_rng(0)
        matters, l2_loses = 0, 0
        for _ in range(60):
            ch = channel(rng.uniform(0.05, 1.0, size=(2, 2)), rng.uniform(0.5, 2.0, size=2))
            eps = epsilon_from_snr(float(rng.uniform(0.0, 40.0)), 1.0)
            strong = build_layout("noma", ch).strong
            by_l2 = int(np.argmax(np.linalg.norm(ch.gains, axis=1)))
            for w in ((0.5, 0.5), (0.3, 0.7), (0.7, 0.3)):
                best = [grid_oracle(ch, StreamLayout("noma", 2, k), w, eps, resolution=21) for k in (0, 1)]
                assert best[strong] >= best[1 - strong] - 1e-9, (ch, eps, w)
                matters += abs(best[0] - best[1]) > 1e-9
                l2_loses += best[by_l2] < best[1 - by_l2] - 1e-9
        # the order matters in most cases, and the larger L2 row norm
        # picks the worse one in some of them
        assert matters >= 100 and l2_loses > 0
