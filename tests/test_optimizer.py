import numpy as np
import pytest
import serial_reference

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
    zf_precoder,
)
from rsma_vlc.signal_model import (
    SCHEMES,
    Precoder,
    SicKernel,
    assemble_report,
    build_layout,
    rate,
    sinr_common,
    sinr_private,
)


def channel(gains, noise=None):
    g = np.array(gains, dtype=float)
    n = np.ones(g.shape[0]) if noise is None else np.array(noise, dtype=float)
    return ChannelMatrix(gains=g, noise=n)


def random_channel(rng, k=2, l=2):
    return channel(rng.uniform(0.1, 1.0, size=(k, l)))


def solve(ch, lay, w, eps, seed=0, config=AoConfig()):
    """The Solution of one problem of `lay`'s scheme, solved alone."""
    [sol] = ao_solve([Problem(ch, lay.scheme, eps, seed)], w, config, layout=lay)
    return sol


def solve_all(problems, w, config=AoConfig()):
    """ao_solve on `problems`, given the first problem's layout."""
    first = problems[0]
    return ao_solve(problems, w, config, layout=build_layout(first.scheme, first.channel.num_users, first.channel))


def fresh_stages(ch, lay, P, w=None):
    """(compiled kernel, P on the RSMA streams, _mmse_gu's (g_p, u_p, g_c,
    u_c) there) for the (B, L, S) precoders P of layout `lay`."""
    w = np.full(ch.num_users, 1.0 / ch.num_users) if w is None else w
    comp = optimizer._Compiled(ch, lay, np.asarray(w, dtype=float))
    Q = lay.to_rsma(P)
    a, T = comp.stage_arrays(comp.H @ Q)
    n = comp.n_priv
    gu = [*optimizer._mmse_gu(a[:, :n], T[:, :n]), None, None]
    if comp.common_col is not None:
        gu[2:] = optimizer._mmse_gu(a[:, n:], T[:, n:])
    return comp, Q, gu


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
    """The MMSE equalizers and inverse-MSE weights of _mmse_gu at the compiled stages."""

    def test_zero_column_gives_zero_gain(self):
        ch = channel([[1.0, 0.0], [0.0, 1.0]])
        lay = build_layout("sdma", 2, ch)
        _, _, (g, u, _, _) = fresh_stages(ch, lay, np.zeros((1, 2, 2)))
        assert np.all(g == 0.0) and np.all(u == 1.0)
        # a NOMA batch of both strong users keeps every private stage; each
        # problem's weak user has a zero amplitude under interference
        channels = [channel([[1.0, 0.2], [0.2, 0.5]]), channel([[0.5, 0.2], [0.2, 1.0]])]
        layouts = [build_layout("noma", 2, c) for c in channels]
        comp = optimizer._Compiled(channels, layouts, np.array([0.5, 0.5]))
        a, T = comp.stage_arrays(comp.H @ np.stack([lay.to_rsma(np.ones((2, 2))) for lay in layouts]))
        g, u = optimizer._mmse_gu(a[:, : comp.n_priv], T[:, : comp.n_priv])
        for b, lay in enumerate(layouts):
            weak = lay.common_stream.carries[0]
            assert g[b, weak] == 0.0 and u[b, weak] == 1.0 and g[b, 1 - weak] != 0.0

    def test_single_stream_half_gain(self):
        ch = channel([[1.0, 0.0]])
        lay = build_layout("sdma", 1, ch)
        _, _, (g, _, _, _) = fresh_stages(ch, lay, np.array([[[1.0], [0.0]]]))
        assert g[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_unit_sinr_gives_half_mse(self):
        ch = channel([[1.0, 0.0]])
        lay = build_layout("sdma", 1, ch)
        _, _, (_, u, _, _) = fresh_stages(ch, lay, np.array([[[1.0], [0.0]]]))
        assert 1.0 / u[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert u[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_equalizer_is_stage_mse_minimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            P = rng.normal(size=(2, 3))
            _, _, (g_p, _, g_c, _) = fresh_stages(ch, lay, P[None])
            for user, stream, g in ((0, 0, g_p[0, 0]), (1, 1, g_p[0, 1]), (0, 2, g_c[0, 0]), (1, 2, g_c[0, 1])):
                amps = ch.gains[user] @ P
                if stream == 2:
                    total = ch.noise[user] + amps[2] ** 2 + amps[0] ** 2 + amps[1] ** 2
                else:
                    total = ch.noise[user] + amps[0] ** 2 + amps[1] ** 2
                mse = lambda gg: gg * gg * total - 2 * gg * amps[stream] + 1.0
                assert mse(g) <= mse(g + 1e-3) + 1e-15
                assert mse(g) <= mse(g - 1e-3) + 1e-15

    def test_neg_log_mse_equals_rate(self):
        # the weight u is 1 / mse, so log2(u) = -log2(mse)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            p = Precoder(matrix=rng.normal(size=(2, 3)))
            _, _, (_, u_p, _, u_c) = fresh_stages(ch, lay, p.matrix[None])
            for user in (0, 1):
                assert np.log2(u_p[0, user]) == pytest.approx(rate(sinr_private(ch, p, lay, user)), abs=1e-9)
                assert np.log2(u_c[0, user]) == pytest.approx(rate(sinr_common(ch, p, lay, user)), abs=1e-9)

    def test_state_rate_identity(self):
        # at fresh equalizers/weights the surrogate equals the greedy-share
        # WSR, for every scheme on the RSMA streams
        rng = np.random.default_rng(4)
        for scheme in SCHEMES:
            for w in ((0.5, 0.5), (0.3, 0.7), (0.8, 0.2)):
                ch = random_channel(rng)
                lay = build_layout(scheme, 2, ch)
                P = rng.normal(size=(10, 2, lay.num_streams))
                comp, Q, gu = fresh_stages(ch, lay, P, w)
                value = optimizer._SurrogateBatch(comp, *gu).value(Q)
                wsr, _ = comp.true_rates(Q)
                np.testing.assert_allclose(value, wsr, rtol=0.0, atol=1e-9)
                for b in range(len(P)):
                    rep = assemble_report(ch, Precoder(matrix=P[b]), lay, weights=np.array(w))
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


class TestSubproblem:
    """_maximize_batch on the surrogate of one WMMSE subproblem."""

    @staticmethod
    def _maximize(sur, eps, start, max_iter=optimizer._PG_MAX_ITER, tol=optimizer._PG_TOL):
        # the solver starts each subproblem from a feasible point, as the AO loop does
        radius = np.full(start.shape[:2], float(eps))
        return optimizer._maximize_batch(sur, radius, project_rows_l1(start, radius), max_iter, tol)

    def test_zero_budget_returns_origin(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", 2, ch)
        comp, Q, gu = fresh_stages(ch, lay, np.ones((1, 2, 3)), (0.5, 0.5))
        P = self._maximize(optimizer._SurrogateBatch(comp, *gu), 0.0, Q)
        assert np.all(P == 0.0)
        wsr, cap = comp.true_rates(P)
        assert wsr[0] == 0.0 and cap[0] == 0.0

    def test_scalar_closed_form(self):
        # one fixture, one user, one stream: quadratic in p with known optimum
        ch = channel([[0.8]])
        lay = build_layout("sdma", 1, ch)
        for p_prev, eps in ((0.4, 10.0), (0.9, 0.5)):
            comp, Q, gu = fresh_stages(ch, lay, np.array([[[p_prev]]]), (1.0,))
            g = float(gu[0][0, 0])
            # argmin of g^2 (h p)^2 - 2 g h p is p = 1/(g h), clipped to the budget
            expected = np.clip(1.0 / (g * 0.8), -eps, eps)
            P = self._maximize(optimizer._SurrogateBatch(comp, *gu), eps, Q, max_iter=4000, tol=1e-14)
            assert P[0, 0, 0] == pytest.approx(float(expected), abs=1e-6)
            assert P[0, 0, 1] == 0.0  # the unweighted common column

    def test_result_always_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            eps = rng.uniform(0.5, 20.0)
            comp, _, gu = fresh_stages(ch, lay, rng.normal(size=(1, 2, 3)), (0.5, 0.5))
            sur = optimizer._SurrogateBatch(comp, *gu)
            start = np.zeros((1, 2, 3))
            P = self._maximize(sur, eps, start)
            assert np.abs(P).sum(axis=2).max() <= eps + 1e-9
            assert sur.value(P)[0] >= sur.value(start)[0]

    @pytest.mark.parametrize("w", [(0.3, 0.7), (0.7, 0.3)], ids=["w0.3,0.7", "w0.7,0.3"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_grad_matches_central_difference(self, scheme, w):
        # the surrogate is quadratic on each smooth piece, so away from
        # the common-rate kink a central difference is exact up to rounding
        rng = np.random.default_rng(10)
        ch = random_channel(rng, l=3)
        lay = build_layout(scheme, 2, ch)
        comp, _, gu = fresh_stages(ch, lay, rng.normal(size=(40, 3, lay.num_streams)), w)
        sur = optimizer._SurrogateBatch(comp, *gu)
        Q = lay.to_rsma(rng.normal(size=(40, 3, lay.num_streams)))
        if comp.common_col is not None:
            # keep the states whose two decoders' rates differ by far more
            # than a step of h can move them
            _, mse = sur._amplitudes_and_mse(Q)
            rates = sur.base_c - sur.rate_coef_c * mse[:, comp.n_priv :]
            clear = np.abs(rates[:, 0] - rates[:, 1]) > 1e-2
            assert clear.sum() >= 20
            sur, Q = sur.take(clear), Q[clear]
        grad = sur.grad(Q)
        h = 1e-4
        central = np.empty_like(Q)
        for entry in np.ndindex(Q.shape[1:]):
            step = np.zeros_like(Q)
            step[(slice(None),) + entry] = h
            central[(slice(None),) + entry] = (sur.value(Q + step) - sur.value(Q - step)) / (2.0 * h)
        np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-9 * np.abs(grad).max())
        assert np.abs(grad).max() > 1e-3

    def test_non_finite_state_raises(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        comp = optimizer._Compiled(ch, build_layout("sdma", 2, ch), np.array([0.5, 0.5]))
        sur = optimizer._SurrogateBatch(comp, np.array([[np.inf, 1.0]]), np.ones((1, 2)), None, None)
        with pytest.raises(NumericalFailure):
            self._maximize(sur, 1.0, np.zeros((1, 2, 3)))


class TestZfPrecoder:
    def test_diagonal_channel_gives_diagonal_precoder(self):
        ch = channel([[1.0, 0.0], [0.0, 0.5]])
        P = zf_precoder(ch, 2.0).matrix
        assert abs(P[0, 1]) < 1e-12 and abs(P[1, 0]) < 1e-12
        assert np.abs(P).sum(axis=1).max() == pytest.approx(2.0)

    def test_zero_forcing_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ch = random_channel(rng)
            P = zf_precoder(ch, 1.0).matrix
            cross = ch.gains @ P
            assert abs(cross[0, 1]) < 1e-9 and abs(cross[1, 0]) < 1e-9

    def test_known_pseudo_inverse_directions(self):
        H = np.array([[1.0, 0.3], [0.2, 0.8]])
        ch = channel(H)
        P = zf_precoder(ch, 1.0).matrix
        # hand inverse via the adjugate; columns match up to positive scale
        det = 1.0 * 0.8 - 0.3 * 0.2
        inv = np.array([[0.8, -0.3], [-0.2, 1.0]]) / det
        for j in range(2):
            direction = inv[:, j] / np.linalg.norm(inv[:, j])
            got = P[:, j] / np.linalg.norm(P[:, j])
            assert np.allclose(got, direction, atol=1e-12)

    def test_rank_deficient_falls_back_to_ridge(self):
        ch = channel([[0.6, 0.3], [0.6, 0.3]])  # identical users
        P = zf_precoder(ch, 1.0).matrix
        assert np.all(np.isfinite(P))
        assert np.abs(P).sum(axis=1).max() <= 1.0 + 1e-9


class TestAoSolve:
    def test_zero_budget(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", 2, ch)
        sol = solve(ch, lay, (0.5, 0.5), 0.0)
        assert sol.wsr == 0.0
        assert sol.converged
        assert sol.iterations == 1

    def test_negative_budget_rejected(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("sdma", 2, ch)
        with pytest.raises(ValueError, match="epsilon"):
            solve(ch, lay, (0.5, 0.5), -1.0)
        with pytest.raises(ValueError, match="epsilon"):
            ao_solve([Problem(ch, "sdma", 2.0, 0), Problem(ch, "sdma", -1e-9, 1)], (0.5, 0.5), layout=lay)

    def test_monotone_and_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ch = random_channel(rng)
            scheme = ("rsma", "sdma", "noma")[int(rng.integers(3))]
            lay = build_layout(scheme, 2, ch)
            eps = float(rng.uniform(1.0, 30.0))
            seed = int(rng.integers(1 << 16))
            sol = solve(ch, lay, (0.5, 0.5), eps, seed, AoConfig(restarts=2))
            hist = np.array(sol.wsr_history)
            assert np.all(np.diff(hist) >= -1e-8)
            assert sol.precoder.max_row_l1() <= eps + 1e-9
            assert np.all(sol.shares >= 0.0)
            assert sol.shares.sum() <= sol.report.common_cap + 1e-9

    def test_determinism(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("rsma", 2, ch)
        a = solve(ch, lay, (0.5, 0.5), 5.0, seed=123)
        b = solve(ch, lay, (0.5, 0.5), 5.0, seed=123)
        assert np.array_equal(a.precoder.matrix, b.precoder.matrix)
        assert a.wsr == b.wsr
        assert a.wsr_history == b.wsr_history
        assert a.restart_index == b.restart_index

    def test_special_case_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            ch = random_channel(rng)
            eps, seed = float(rng.uniform(2.0, 20.0)), int(rng.integers(1 << 16))
            solved = scenarios.solve_schemes([ch], (0.5, 0.5), SCHEMES, AoConfig(), [eps], lambda *_: seed)
            sols = {s: sol for s, [(_, sol)] in solved.items()}
            assert sols["rsma"].wsr >= sols["sdma"].wsr - 1e-9
            assert sols["rsma"].wsr >= sols["noma"].wsr - 1e-9

    def test_report_matches_stored_wsr(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("noma", 2, ch)
        sol = solve(ch, lay, (0.5, 0.5), 8.0, seed=2)
        assert sol.report.wsr == pytest.approx(sol.wsr_history[-1], abs=1e-9)

    def test_unequal_priorities_respected(self):
        # correlated channel: rates trade off, so the heavy user must win
        ch = channel([[1.0, 0.8], [0.8, 1.0]])
        lay = build_layout("sdma", 2, ch)
        lop = solve(ch, lay, (0.9, 0.1), 10.0, seed=3)
        assert lop.report.overall[0] > lop.report.overall[1]
        even = solve(ch, lay, (0.5, 0.5), 10.0, seed=3)
        heavy = solve(ch, lay, (0.9, 0.1), 10.0, seed=3)
        assert heavy.report.overall[0] >= even.report.overall[0] - 1e-6


class TestBatchedSolver:
    """The lockstep batch against the serial single-start reference, bit for bit."""

    @staticmethod
    def _same(a, b):
        return (
            np.array_equal(a.precoder.matrix, b.precoder.matrix)
            and a.wsr_history == b.wsr_history
            and a.iterations == b.iterations
            and a.converged == b.converged
            and a.restart_index == b.restart_index
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
    def test_every_start_matches_serial_reference(self, scheme, fixtures, w):
        rng = np.random.default_rng(40 + fixtures)
        ch = random_channel(rng, l=fixtures)
        lay = build_layout(scheme, 2, ch)
        w = np.array(w)
        comp = optimizer._Compiled(ch, lay, w)
        cfg = AoConfig(max_iterations=25)
        eps, starts = [], []
        for snr in (5.0, 15.0, 30.0):
            e = epsilon_from_snr(snr, 1.0)
            starts.append(optimizer._zf_start(ch, lay, e))
            starts += [optimizer._beam_start(ch, lay, e, k) for k in range(2)]
            starts += [optimizer._random_start(ch, lay, e, rng) for _ in range(2)]
            eps += [e] * 5
        P, hist, conv = optimizer._ao_batch(comp, np.array(eps), lay.to_rsma(np.stack(starts)), cfg)
        # SDMA's common column, NOMA's weak user's private column
        unused = [c for c in range(3) if c not in lay.rsma_columns]
        ref_comp = serial_reference._Compiled(ch, lay, w)
        outcomes = set()
        for b, (e, P0) in enumerate(zip(eps, starts)):
            P_ref, hist_ref, its_ref, conv_ref = serial_reference._ao_single(ref_comp, e, P0, cfg)
            assert np.array_equal(P[b][:, lay.rsma_columns], P_ref)
            assert np.all(P[b][:, unused] == 0.0)
            assert hist[b] == hist_ref and len(hist[b]) - 1 == its_ref
            assert conv[b] == conv_ref
            outcomes.add(conv_ref)
        # RSMA converges from every start at 4 fixtures and (0.8, 0.2)
        if scheme != "rsma" or fixtures == 2 or w[0] == w[1]:
            assert outcomes == {True, False}  # both exits are exercised

    @pytest.mark.parametrize("scheme,w", [
        *[pytest.param(scheme, (0.3, 0.7), id=scheme) for scheme in SCHEMES],
        *[pytest.param(scheme, (0.8, 0.2), id=f"{scheme}-w0.8,0.2") for scheme in SCHEMES],
    ])
    def test_surrogate_pieces_match_serial_reference(self, scheme, w):
        # many random states, so that rare last-bit differences show
        rng = np.random.default_rng(44)
        ch = random_channel(rng, l=4)
        lay = build_layout(scheme, 2, ch)
        w = np.array(w)
        ref_comp = serial_reference._Compiled(ch, lay, w)
        P = rng.normal(size=(500, 4, lay.num_streams)) * 10.0 ** rng.uniform(-1, 2, size=(500, 1, 1))
        Q = rng.normal(size=P.shape) * 10.0
        comp, _, gu = fresh_stages(ch, lay, P, w)
        sur = optimizer._SurrogateBatch(comp, *gu)
        wsr, cap = comp.true_rates(lay.to_rsma(Q))
        value, grad = sur.value(lay.to_rsma(Q)), sur.grad(lay.to_rsma(Q))
        unused = [c for c in range(3) if c not in lay.rsma_columns]
        assert np.all(grad[:, :, unused] == 0.0)
        for b in range(len(P)):
            rs = ref_comp.stats(P[b])
            g_p, u_p = serial_reference._mmse_gu(rs.a_p, rs.T_p)
            g_c, u_c = serial_reference._mmse_gu(rs.a_c, rs.T_c)
            ref = serial_reference._Surrogate(ref_comp, g_p, u_p, g_c, u_c)
            ref_value, ref_grad = ref.value_and_grad(Q[b])
            assert (sur.step[b], value[b]) == (ref.step, ref_value)
            assert np.array_equal(grad[b][:, lay.rsma_columns], ref_grad)
            assert (wsr[b], cap[b]) == ref_comp.true_rates(Q[b])[:2]

    def test_mixed_budgets_and_start_counts(self):
        # the problems hold no, one and two warm starts: the solutions of
        # earlier problems, found under other budgets
        rng = np.random.default_rng(45)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", 2, ch)
        cfg = AoConfig(max_iterations=80)
        epsilons, seeds = [2.0, epsilon_from_snr(12.0, 1.0), 30.0], [1, 2, 3]
        warm_from = [(), (0,), (0, 1)]
        problems = [Problem(ch, "rsma", eps, seed, refs) for eps, seed, refs in zip(epsilons, seeds, warm_from)]
        sols = ao_solve(problems, (0.5, 0.5), cfg, layout=lay)
        assert isinstance(sols, tuple) and len(sols) == 3
        for eps, seed, refs, sol in zip(epsilons, seeds, warm_from, sols):
            ws = tuple(sols[q].precoder.matrix for q in refs)
            assert self._same_as_serial_reference(
                sol, ch, lay, (0.5, 0.5), eps, seed, cfg, warm_starts=ws, embed_special_cases=False,
            )

    def test_batch_of_one_equals_batch_of_many(self):
        rng = np.random.default_rng(46)
        ch = random_channel(rng, l=2)
        for scheme in ("rsma", "sdma", "noma"):
            lay = build_layout(scheme, 2, ch)
            epsilons = [epsilon_from_snr(snr, 1.0) for snr in (0.0, 10.0, 20.0, 30.0)]
            seeds = [7 + i for i in range(len(epsilons))]
            many = ao_solve([Problem(ch, scheme, eps, seed) for eps, seed in zip(epsilons, seeds)], (0.5, 0.5),
                            layout=lay)
            for eps, seed, sol in zip(epsilons, seeds, many):
                assert self._same(solve(ch, lay, (0.5, 0.5), eps, seed), sol)

    @staticmethod
    def _mixed_problems():
        # different gains and non-unit noise per problem; the channels
        # alternate which user is stronger, so one NOMA batch holds both
        # NOMA layouts
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
        assert len({build_layout("noma", 2, ch) for ch in channels}) == 2
        seeds = [100 + i for i in range(6)]
        return channels, epsilons, seeds, AoConfig(max_iterations=12)

    @staticmethod
    def _same_as_serial_reference(sol, ch, lay, w, eps, seed, cfg, **kw):
        P, hist, its, conv, idx = serial_reference.ao_solve(ch, lay, w, eps, seed, cfg, **kw)
        return (
            np.array_equal(sol.precoder.matrix, P) and sol.wsr_history == tuple(hist)
            and (sol.iterations, sol.converged, sol.restart_index) == (its, conv, idx)
        )

    @pytest.mark.parametrize("scheme,w", [
        *[pytest.param(scheme, (0.4, 0.6), id=scheme) for scheme in SCHEMES],
        *[pytest.param(scheme, w, id=f"{scheme}-w{w[0]},{w[1]}") for w in ((0.3, 0.7), (0.8, 0.2))
          for scheme in SCHEMES],
    ])
    def test_mixed_channel_batch_equals_each_problem_alone(self, scheme, w):
        # each problem is solved under its own channel's layout
        channels, epsilons, seeds, cfg = self._mixed_problems()
        batched = solve_all([Problem(*p) for p in zip(channels, [scheme] * len(channels), epsilons, seeds)], w, cfg)
        assert isinstance(batched, tuple) and len(batched) == len(channels)
        outcomes = set()
        for ch, eps, seed, sol in zip(channels, epsilons, seeds, batched):
            lay = build_layout(scheme, 2, ch)
            alone = solve(ch, lay, w, eps, seed, cfg)
            assert self._same(sol, alone)
            assert np.array_equal(sol.shares, alone.shares) and sol.wsr == alone.wsr
            assert self._same_as_serial_reference(sol, ch, lay, w, eps, seed, cfg, embed_special_cases=False)
            outcomes.add(sol.converged)
        if w == (0.4, 0.6):  # at the other priorities every NOMA problem converges
            assert outcomes == {True, False}  # both exits are exercised

    @pytest.mark.parametrize("w", [(0.4, 0.6), (0.8, 0.2)], ids=["w0.4,0.6", "w0.8,0.2"])
    def test_sdma_and_noma_batch_equals_each_problem_alone(self, w):
        # one call solves the SDMA and the NOMA problem of every channel:
        # an RSMA batch in which SDMA zero-weights the common stream and
        # NOMA the weak user's private one, with NOMA of both strong users
        channels, epsilons, seeds, cfg = self._mixed_problems()
        problems = [Problem(ch, s, eps, seed + 10 * (s == "noma"))
                    for ch, eps, seed in zip(channels, epsilons, seeds) for s in ("sdma", "noma")]
        batched = solve_all(problems, w, cfg)
        assert len(batched) == len(problems)
        outcomes = set()
        for problem, sol in zip(problems, batched):
            ch, scheme, eps, seed = problem.channel, problem.scheme, problem.epsilon, problem.seed
            lay = build_layout(scheme, 2, ch)
            alone = solve(ch, lay, w, eps, seed, cfg)
            assert self._same(sol, alone)
            assert np.array_equal(sol.shares, alone.shares) and sol.wsr == alone.wsr
            assert sol.precoder.matrix.shape == (ch.num_fixtures, lay.num_streams)
            assert np.array_equal(sol.report.overall, alone.report.overall)
            assert self._same_as_serial_reference(sol, ch, lay, w, eps, seed, cfg, embed_special_cases=False)
            outcomes.add((scheme, sol.converged))
        if w == (0.4, 0.6):  # at the other priorities every NOMA problem converges
            assert outcomes == {(s, c) for s in ("sdma", "noma") for c in (True, False)}  # both exits of both
        # on one shared channel, too
        ch = channels[0]
        schemes = ["noma", "sdma", "sdma"]
        shared = solve_all([Problem(*p) for p in zip([ch] * 3, schemes, [2.0, 2.0, 9.0], [1, 2, 3])], w, cfg)
        for scheme, eps, seed, sol in zip(schemes, [2.0, 2.0, 9.0], [1, 2, 3], shared):
            assert self._same(sol, solve(ch, build_layout(scheme, 2, ch), w, eps, seed, cfg))

    def test_layout_is_the_first_problems_scheme(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        sdma, noma = build_layout("sdma", 2, a), build_layout("noma", 2, a)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "sdma", 1.0, 0), Problem(a, "noma", 1.0, 0)], (0.5, 0.5), layout=noma)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "noma", 1.0, 0)], (0.5, 0.5), layout=sdma)

    def test_seeded_rsma_equals_nested_reference_and_each_channel_alone(self, monkeypatch):
        # solve_schemes gives RSMA the starts the serial reference's nested
        # SDMA/NOMA solves give it, in the same order
        channels, epsilons, seeds, cfg = self._mixed_problems()
        w = (0.4, 0.6)
        calls = []
        real = scenarios.ao_solve

        def spy(problems, priorities, config, *, layout):
            sols = real(problems, priorities, config, layout=layout)
            calls.append((problems, sols))
            return sols

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        solved = scenarios.solve_schemes(channels, w, ("rsma",), cfg, epsilons, lambda _, i: seeds[i])
        monkeypatch.undo()
        assert list(solved) == ["rsma"] and len(calls) == 1  # one batched call, the helpers included
        [(problems, sols)] = calls
        n = len(channels)
        assert [p.scheme for p in problems] == ["sdma"] * n + ["noma"] * n + ["rsma"] * n
        # each RSMA problem is warm-started from its channel's SDMA, then NOMA problem
        assert [p.warm_from for p in problems] == [()] * (2 * n) + [(j, n + j) for j in range(n)]
        for j, (ch, eps, seed, (lay, sol)) in enumerate(zip(channels, epsilons, seeds, solved["rsma"])):
            for sub, helper in zip((build_layout("sdma", 2, ch), build_layout("noma", 2, ch)), sols[j::n]):
                expected = serial_reference.ao_solve(ch, sub, w, eps, seed, cfg)[0]
                assert np.array_equal(sub.to_rsma(helper.precoder.matrix), sub.to_rsma(expected))
            [(_, alone)] = scenarios.solve_schemes([ch], w, ("rsma",), cfg, [eps], lambda *_: seed)["rsma"]
            assert self._same(sol, alone)
            assert np.array_equal(sol.shares, alone.shares) and sol.wsr == alone.wsr
            assert self._same_as_serial_reference(sol, ch, lay, w, eps, seed, cfg, embed_special_cases=True)

    @pytest.mark.parametrize("shared", [False, True], ids=["own-channels", "shared-channel"])
    def test_warm_from_equals_helpers_then_explicit_warm_starts(self, shared):
        # one call holds the SDMA, NOMA and RSMA problems; an RSMA
        # problem's warm starts enter once its helpers' starts have all
        # finished, and it ends as in a call of its channel's helpers and
        # itself alone, and as the serial reference solved after them
        # from their solutions, given as explicit warm starts
        channels, epsilons, seeds, cfg = self._mixed_problems()
        if shared:
            channels = [channels[0]] * len(channels)
        w = (0.4, 0.6)
        n = len(channels)
        schemes = ["sdma"] * n + ["noma"] * n + ["rsma"] * n
        warm_from = [()] * (2 * n) + [(j, n + j) for j in range(n)]
        batched = solve_all([Problem(*p) for p in zip(
            channels * 3, schemes, epsilons * 3, [s + 10 * (i // n) for i, s in enumerate(seeds * 3)], warm_from,
        )], w, cfg)
        winners = set()
        for j, (ch, eps, seed) in enumerate(zip(channels, epsilons, seeds)):
            layouts = [build_layout(s, 2, ch) for s in ("sdma", "noma", "rsma")]
            helpers = [solve(ch, lay, w, eps, seed + 10 * i, cfg) for i, lay in enumerate(layouts[:2])]
            alone = solve_all([Problem(ch, "sdma", eps, seed, ()), Problem(ch, "noma", eps, seed + 10, ()),
                               Problem(ch, "rsma", eps, seed + 20, (0, 1))], w, cfg)
            rsma = alone[2]
            assert all(self._same(got, want) for got, want in zip(alone, helpers))
            warm = tuple(lay.to_rsma(h.precoder.matrix) for lay, h in zip(layouts, helpers))
            assert self._same_as_serial_reference(rsma, ch, layouts[2], w, eps, seed + 20, cfg, warm_starts=warm,
                                                  embed_special_cases=False)
            for got, want in zip(batched[j::n], helpers + [rsma]):
                assert np.array_equal(got.precoder.matrix, want.precoder.matrix)
                assert (got.iterations, got.converged, got.restart_index) == (
                    want.iterations, want.converged, want.restart_index)
                assert got.wsr_history == want.wsr_history
                assert np.array_equal(got.shares, want.shares) and got.wsr == want.wsr
            winners.add(rsma.restart_index)
            assert max(h.wsr for h in helpers) <= rsma.wsr
        if not shared:
            assert winners & {3, 4}  # a warm start won somewhere (ZF and the corners are starts 0-2)

    def test_admitted_start_counts_its_own_iterations(self):
        # the first start converges after 3 iterations, the second runs to
        # the cap of 4; the admitted one enters at outer iteration 5, after
        # both, and still runs to a cap of 4 iterations of its own
        rng = np.random.default_rng(49)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", 2, ch)
        comp = optimizer._Compiled(ch, lay, np.array([0.4, 0.6]))
        cfg = AoConfig(max_iterations=4, tolerance=1e-300)
        eps = epsilon_from_snr(10.0, 1.0)
        P0 = lay.to_rsma(np.stack([optimizer._zf_start(ch, lay, eps), optimizer._random_start(ch, lay, eps, rng),
                                   np.zeros((4, 3))]))
        seen = []

        def fill(P, final):
            seen.append(final[:2].tolist())
            return P[[0], :, ::-1].copy()  # the first start's result, its columns reversed

        P, hist, conv = optimizer._ao_batch(comp, np.full(3, eps), P0, cfg, admit=[([2], [0, 1], fill)])
        assert [len(h) - 1 for h in hist] == [3, 4, 4] and conv.tolist() == [True, False, False]
        assert seen == [[hist[0][-1], hist[1][-1]]]
        P_alone, hist_alone, _ = optimizer._ao_batch(comp, np.full(1, eps), P[[0], :, ::-1].copy(), cfg)
        assert hist[2] == hist_alone[0] and np.array_equal(P[2], P_alone[0])

    def test_warm_from_names_earlier_problems_only(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        sdma = build_layout("sdma", 2, a)
        for warm_from in ([(0,), ()], [(), (1,)], [(), (2,)], [(), (-1,)]):
            with pytest.raises(ValueError):
                ao_solve([Problem(a, "sdma", 1.0, 0, refs) for refs in warm_from], (0.5, 0.5), layout=sdma)
        with pytest.raises(ValueError):  # a single problem has no earlier one
            ao_solve([Problem(a, "sdma", 1.0, 0, (0,))], (0.5, 0.5), layout=sdma)

    def test_shared_channel_stays_one_row_in_a_mixed_batch(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        layouts = [build_layout(s, 2, ch) for s in ("sdma", "noma", "rsma")]
        comp = optimizer._Compiled(ch, layouts, np.array([0.4, 0.6]))
        assert (len(comp.H), len(comp._sig2), len(comp.w_priv)) == (1, 1, 3)
        keep = np.array([2, 0, 2, 1])
        sub = comp.take(keep)
        assert sub.H is comp.H and sub.HT is comp.HT and sub._sig2 is comp._sig2
        for name in ("w_priv", "w_own", "w_common"):
            assert np.array_equal(getattr(sub, name), getattr(comp, name)[keep])

    # channels a and c have user 0 as NOMA's strong user, b has user 1
    KEPT_BATCHES = {
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
    @pytest.mark.parametrize("kind", KEPT_BATCHES)
    def test_kept_stages_are_the_streams_some_problem_weights(self, kind, w):
        channels = {"a": channel([[0.9, 0.4], [0.3, 0.8]]), "b": channel([[0.3, 0.2], [0.5, 0.9]]),
                    "c": channel([[0.8, 0.5], [0.2, 0.3]])}
        problems = [entry.split("@") for entry in self.KEPT_BATCHES[kind]]
        chans = [channels[name] for _, name in problems]
        layouts = [build_layout(scheme, 2, ch) for (scheme, _), ch in zip(problems, chans)]
        comp = optimizer._Compiled(chans, layouts, np.array(w))
        # a private column is kept if some problem weights it, the common one likewise
        weighted = comp.w_priv.any(axis=0)
        kept = np.flatnonzero(weighted)
        assert comp._cols == tuple(kept.tolist())
        assert np.array_equal(comp.owners, kept)
        assert np.array_equal(comp.w_own, comp.w_priv[:, weighted])
        if comp.w_common.any():
            assert comp.common_col == 2 and comp.decoders.tolist() == [0, 1]
        else:
            assert comp.common_col is None and len(comp.decoders) == 0
        assert kind != "noma-one-strong-user" or comp._cols == (0,)
        # every kept stage reads the (B, K, K + 1) amplitudes of the RSMA columns
        assert comp._gather.max() < 2 * 3

    def test_channels_need_one_shape(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("sdma", 2, a)
        with pytest.raises(ValueError):
            ao_solve([Problem(a, "sdma", 1.0, 0), Problem(channel(np.ones((2, 3))), "sdma", 1.0, 0)], (0.5, 0.5),
                     layout=lay)

    def test_empty_problem_list_rejected(self):
        a = channel([[0.9, 0.4], [0.3, 0.8]])
        with pytest.raises(ValueError):
            ao_solve([], (0.5, 0.5), layout=build_layout("sdma", 2, a))

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
            assert np.array_equal(batch[b], serial_reference.project_rows_l1(M[b], budget[b]))
            assert batch[b].tobytes() == serial_reference.project_rows_l1(M[b], budget[b]).tobytes()
        # a stack with every row outside its ball, and one with none
        for rows, radius in ((M[7:9], 0.5), (M[5:6], 4.0)):
            expected = np.stack([serial_reference.project_rows_l1(m, radius) for m in rows])
            assert project_rows_l1(rows, np.full(rows.shape[:2], radius)).tobytes() == expected.tobytes()
            assert project_rows_l1(rows, radius).tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            project_rows_l1(M, budget[:, None])


class TestGridOracle:
    def test_zero_budget(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", 2, ch)
        assert grid_oracle(ch, lay, (0.5, 0.5), epsilon=0.0) == 0.0

    def test_dimension_caps(self):
        ch3 = ChannelMatrix(gains=np.full((2, 3), 0.5), noise=np.ones(2))
        lay = build_layout("sdma", 2, ch3)
        with pytest.raises(ValueError):
            grid_oracle(ch3, lay, (0.5, 0.5), epsilon=1.0)
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            grid_oracle(ch, build_layout("rsma", 2, ch), (0.5, 0.5), epsilon=1.0, resolution=25)

    def test_sdma_diagonal_hand_optimum(self):
        # decoupled rows: all budget on the own-user entry, rates add up
        ch = channel([[1.0, 0.0], [0.0, 0.5]])
        lay = build_layout("sdma", 2, ch)
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
            lay = build_layout(scheme, 2, ch)
            S = lay.num_streams
            axis = np.linspace(-eps, eps, res)
            mesh = np.stack(np.meshgrid(*([axis] * S), indexing="ij"), axis=-1).reshape(-1, S)
            rows = mesh[np.abs(mesh).sum(axis=1) <= eps + 1e-12]
            best = max(
                assemble_report(ch, Precoder(matrix=np.stack([r1, r2])), lay, weights=np.array([0.5, 0.5])).wsr
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
                lay = build_layout(scheme, 2, ch)
                w = rng.uniform(0.2, 1.0, size=2)
                eps = float(10.0 ** rng.uniform(-0.5, 1.5))
                kernel = SicKernel(lay, ch.noise)
                private, common = optimizer._stream_weights(lay, w)
                rows = optimizer._grid_rows(eps, resolution, lay.num_streams)
                assert set(map(tuple, -rows)) == set(map(tuple, rows))  # the negation of every row
                H = ch.gains
                best = -np.inf
                for lo in range(0, len(rows), 100):  # every (row 1, row 2) pair
                    A = (H[None, None, :, 0:1] * rows[lo : lo + 100, None, None, :]
                         + H[None, None, :, 1:2] * rows[None, :, None, :]).reshape(-1, 2, lay.num_streams)
                    best = max(best, float(optimizer._amplitude_wsr(kernel, private[kernel.owners], common, A).max()))
                assert grid_oracle(ch, lay, w, eps, resolution) == best

    def test_ao_close_to_oracle(self):
        rng = np.random.default_rng(14)
        cfg = AoConfig()
        for scheme in ("rsma", "sdma", "noma"):
            for _ in range(3):
                ch = random_channel(rng)
                eps, seed = epsilon_from_snr(15.0, 1.0), int(rng.integers(1 << 16))
                solved = scenarios.solve_schemes([ch], (0.5, 0.5), (scheme,), cfg, [eps], lambda *_: seed)
                lay, sol = solved[scheme][0]
                oracle = grid_oracle(ch, lay, (0.5, 0.5), epsilon=eps, resolution=21)
                assert abs(sol.wsr - oracle) <= 0.05 * oracle
