import numpy as np
import pytest
import serial_reference

import rsma_vlc.optimizer as optimizer
import rsma_vlc.scenarios as scenarios
from rsma_vlc.channel import ChannelMatrix, Fixture
from rsma_vlc.optimizer import (
    AoConfig,
    NumericalFailure,
    ao_solve,
    embed_noma_matrix,
    embed_sdma_matrix,
    epsilon_from_snr,
    grid_oracle,
    mmse_equalizer,
    mse_and_weight,
    project_rows_l1,
    snapshot_state,
    solve_subproblem,
    zf_precoder,
)
from rsma_vlc.signal_model import SCHEMES, Precoder, build_layout, rate, sinr_common, sinr_private


def channel(gains, noise=None):
    g = np.array(gains, dtype=float)
    n = np.ones(g.shape[0]) if noise is None else np.array(noise, dtype=float)
    return ChannelMatrix(gains=g, noise=n)


def random_channel(rng, k=2, l=2):
    return channel(rng.uniform(0.1, 1.0, size=(k, l)))


class TestEpsilonFromSnr:
    def test_reference_points(self):
        assert epsilon_from_snr(0.0, 1.0) == pytest.approx(1.0)
        assert epsilon_from_snr(40.0, 1.0) == pytest.approx(100.0)
        assert epsilon_from_snr(20.0, 2.0) == pytest.approx(20.0)

    def test_reference_gain_rescales(self):
        assert epsilon_from_snr(40.0, 1.0, reference_gain=0.02) == pytest.approx(5000.0)

    def test_fixture_enables_drive_cap(self):
        fx = Fixture(position=(0, 0, 4.0), dc_bias=0.4, max_drive=1.0)
        assert epsilon_from_snr(40.0, 1.0, fixture=fx) == pytest.approx(0.4)
        assert epsilon_from_snr(-20.0, 1.0, fixture=fx) == pytest.approx(0.1)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_from_snr(10.0, 0.0)


class TestEqualizerAndWeights:
    def test_zero_column_gives_zero_gain(self):
        ch = channel([[1.0, 0.0], [0.0, 1.0]])
        lay = build_layout("sdma", 2, ch)
        p = Precoder(matrix=np.zeros((2, 2)))
        assert mmse_equalizer(ch, p, lay, 0, 0) == 0.0
        mse, u = mse_and_weight(ch, p, lay, 0.0, 0, 0)
        assert mse == 1.0 and u == 1.0

    def test_single_stream_half_gain(self):
        ch = channel([[1.0, 0.0]])
        lay = build_layout("sdma", 1, ch)
        p = Precoder(matrix=np.array([[1.0], [0.0]]))
        assert mmse_equalizer(ch, p, lay, 0, 0) == pytest.approx(0.5, rel=1e-14)

    def test_unit_sinr_gives_half_mse(self):
        ch = channel([[1.0, 0.0]])
        lay = build_layout("sdma", 1, ch)
        p = Precoder(matrix=np.array([[1.0], [0.0]]))
        g = mmse_equalizer(ch, p, lay, 0, 0)
        mse, u = mse_and_weight(ch, p, lay, g, 0, 0)
        assert mse == pytest.approx(0.5, rel=1e-12)
        assert u == pytest.approx(2.0, rel=1e-12)

    def test_equalizer_is_stage_mse_minimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            p = Precoder(matrix=rng.normal(size=(2, 3)))
            for user, stream in ((0, 0), (1, 1), (0, 2), (1, 2)):
                g = mmse_equalizer(ch, p, lay, user, stream)
                amps = ch.gains[user] @ p.matrix
                if stream == 2:
                    total = ch.noise[user] + amps[2] ** 2 + amps[0] ** 2 + amps[1] ** 2
                else:
                    total = ch.noise[user] + amps[0] ** 2 + amps[1] ** 2
                mse = lambda gg: gg * gg * total - 2 * gg * amps[stream] + 1.0
                assert mse(g) <= mse(g + 1e-3) + 1e-15
                assert mse(g) <= mse(g - 1e-3) + 1e-15

    def test_neg_log_mse_equals_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            p = Precoder(matrix=rng.normal(size=(2, 3)))
            for user in (0, 1):
                g = mmse_equalizer(ch, p, lay, user, user)
                mse, _ = mse_and_weight(ch, p, lay, g, user, user)
                assert -np.log2(mse) == pytest.approx(rate(sinr_private(ch, p, lay, user)), abs=1e-9)
                gc = mmse_equalizer(ch, p, lay, user, 2)
                mse_c, _ = mse_and_weight(ch, p, lay, gc, user, 2)
                assert -np.log2(mse_c) == pytest.approx(rate(sinr_common(ch, p, lay, user)), abs=1e-9)

    def test_state_rate_identity(self):
        # -sum_k w_k log2(mse) over streams reproduces the greedy-share WSR
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            P = rng.normal(size=(2, 3))
            w = np.array([0.5, 0.5])
            st = snapshot_state(ch, lay, w, P)
            priv = -np.log2(1.0 / st.mse_weights["private"])
            common = -np.log2(1.0 / st.mse_weights["common"])
            wsr_from_mse = float(w @ priv) + max(w) * float(np.min(common))
            from rsma_vlc.signal_model import assemble_report

            rep = assemble_report(ch, Precoder(matrix=P), lay, weights=w)
            assert wsr_from_mse == pytest.approx(rep.wsr, abs=1e-9)


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
    def _state(self, ch, lay, P):
        st = snapshot_state(ch, lay, (0.5,) * ch.num_users, P)
        return st.equalizers, st.mse_weights

    def test_zero_budget_returns_origin(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("rsma", 2, ch)
        eq, uw = self._state(ch, lay, np.ones((2, 3)))
        P, shares = solve_subproblem(ch, lay, eq, uw, (0.5, 0.5), epsilon=0.0)
        assert np.all(P == 0.0)
        assert np.all(shares == 0.0)

    def test_scalar_closed_form(self):
        # one fixture, one user, one stream: quadratic in p with known optimum
        ch = channel([[0.8]])
        lay = build_layout("sdma", 1, ch)
        for p_prev, eps in ((0.4, 10.0), (0.9, 0.5)):
            st = snapshot_state(ch, lay, (1.0,), np.array([[p_prev]]))
            g = float(st.equalizers["private"][0])
            # argmin of g^2 (h p)^2 - 2 g h p is p = 1/(g h), clipped to the budget
            expected = np.clip(1.0 / (g * 0.8), -eps, eps)
            P, _ = solve_subproblem(
                ch, lay, st.equalizers, st.mse_weights, (1.0,), epsilon=eps,
                start=np.array([[p_prev]]), max_iter=4000, tol=1e-14,
            )
            assert P[0, 0] == pytest.approx(float(expected), abs=1e-6)

    def test_result_always_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ch = random_channel(rng)
            lay = build_layout("rsma", 2, ch)
            eps = rng.uniform(0.5, 20.0)
            eq, uw = self._state(ch, lay, rng.normal(size=(2, 3)))
            P, shares = solve_subproblem(ch, lay, eq, uw, (0.5, 0.5), epsilon=eps)
            assert np.abs(P).sum(axis=1).max() <= eps + 1e-9
            assert np.all(shares >= 0.0)

    def test_non_finite_state_raises(self):
        ch = channel([[1.0, 0.2], [0.2, 1.0]])
        lay = build_layout("sdma", 2, ch)
        eq = {"private": np.array([np.inf, 1.0]), "common": np.array([])}
        uw = {"private": np.array([1.0, 1.0]), "common": np.array([])}
        with pytest.raises(NumericalFailure):
            solve_subproblem(ch, lay, eq, uw, (0.5, 0.5), epsilon=1.0)


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
        sol = ao_solve(ch, lay, (0.5, 0.5), AoConfig(epsilon=0.0))
        assert sol.wsr == 0.0
        assert sol.converged
        assert sol.iterations == 1

    def test_monotone_and_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ch = random_channel(rng)
            scheme = ("rsma", "sdma", "noma")[int(rng.integers(3))]
            lay = build_layout(scheme, 2, ch)
            eps = float(rng.uniform(1.0, 30.0))
            cfg = AoConfig(epsilon=eps, restarts=2, seed=int(rng.integers(1 << 16)))
            sol = ao_solve(ch, lay, (0.5, 0.5), cfg)
            hist = np.array(sol.wsr_history)
            assert np.all(np.diff(hist) >= -1e-8)
            assert sol.precoder.max_row_l1() <= eps + 1e-9
            assert np.all(sol.shares >= 0.0)
            assert sol.shares.sum() <= sol.report.common_cap + 1e-9

    def test_determinism(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("rsma", 2, ch)
        cfg = AoConfig(epsilon=5.0, seed=123)
        a = ao_solve(ch, lay, (0.5, 0.5), cfg)
        b = ao_solve(ch, lay, (0.5, 0.5), cfg)
        assert np.array_equal(a.precoder.matrix, b.precoder.matrix)
        assert a.wsr == b.wsr
        assert a.wsr_history == b.wsr_history
        assert a.restart_index == b.restart_index

    def test_special_case_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            ch = random_channel(rng)
            cfg = AoConfig(epsilon=float(rng.uniform(2.0, 20.0)), seed=int(rng.integers(1 << 16)))
            solved = scenarios.solve_schemes([ch], (0.5, 0.5), SCHEMES, lambda *_: cfg)
            sols = {s: sol for s, [(_, sol)] in solved.items()}
            assert sols["rsma"].wsr >= sols["sdma"].wsr - 1e-9
            assert sols["rsma"].wsr >= sols["noma"].wsr - 1e-9

    def test_report_matches_stored_wsr(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("noma", 2, ch)
        sol = ao_solve(ch, lay, (0.5, 0.5), AoConfig(epsilon=8.0, seed=2))
        assert sol.report.wsr == pytest.approx(sol.wsr_history[-1], abs=1e-9)

    def test_unequal_priorities_respected(self):
        # correlated channel: rates trade off, so the heavy user must win
        ch = channel([[1.0, 0.8], [0.8, 1.0]])
        lay = build_layout("sdma", 2, ch)
        lop = ao_solve(ch, lay, (0.9, 0.1), AoConfig(epsilon=10.0, seed=3))
        assert lop.report.overall[0] > lop.report.overall[1]
        even = ao_solve(ch, lay, (0.5, 0.5), AoConfig(epsilon=10.0, seed=3))
        heavy = ao_solve(ch, lay, (0.9, 0.1), AoConfig(epsilon=10.0, seed=3))
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

    @pytest.mark.parametrize("fixtures", [2, 4])
    @pytest.mark.parametrize("scheme", ["rsma", "sdma", "noma"])
    def test_every_start_matches_serial_reference(self, scheme, fixtures):
        rng = np.random.default_rng(40 + fixtures)
        ch = random_channel(rng, l=fixtures)
        lay = build_layout(scheme, 2, ch)
        w = np.array([0.5, 0.5])
        comp = optimizer._Compiled(ch, lay, w)
        cfg = AoConfig(max_iterations=25)
        eps, starts = [], []
        for snr in (5.0, 15.0, 30.0):
            e = epsilon_from_snr(snr, 1.0)
            starts.append(optimizer._zf_start(ch, comp, e))
            starts += [optimizer._beam_start(ch, comp, e, k) for k in range(2)]
            starts += [optimizer._random_start(ch, comp, e, rng) for _ in range(2)]
            eps += [e] * 5
        P, hist, conv = optimizer._ao_batch(comp, np.array(eps), np.stack(starts), cfg)
        ref_comp = serial_reference._Compiled(ch, lay, w)
        outcomes = set()
        for b, (e, P0) in enumerate(zip(eps, starts)):
            P_ref, hist_ref, its_ref, conv_ref = serial_reference._ao_single(ref_comp, e, P0, cfg)
            assert np.array_equal(P[b], P_ref)
            assert hist[b] == hist_ref and len(hist[b]) - 1 == its_ref
            assert conv[b] == conv_ref
            outcomes.add(conv_ref)
        assert outcomes == {True, False}  # both exits are exercised

    @pytest.mark.parametrize("scheme", ["rsma", "sdma", "noma"])
    def test_surrogate_pieces_match_serial_reference(self, scheme):
        # many random states, so that rare last-bit differences show
        rng = np.random.default_rng(44)
        ch = random_channel(rng, l=4)
        lay = build_layout(scheme, 2, ch)
        w = np.array([0.3, 0.7])
        comp = optimizer._Compiled(ch, lay, w)
        ref_comp = serial_reference._Compiled(ch, lay, w)
        P = rng.normal(size=(500, 4, lay.num_streams)) * 10.0 ** rng.uniform(-1, 2, size=(500, 1, 1))
        Q = rng.normal(size=P.shape) * 10.0
        s = comp.stats(P)
        gu = [*optimizer._mmse_gu(s.a_p, s.T_p), None, None]
        if comp.common_col is not None:
            gu[2:] = optimizer._mmse_gu(s.a_c, s.T_c)
        sur = optimizer._SurrogateBatch(comp, *gu)
        wsr, cap = comp.true_rates(Q)
        value, grad = sur.value(Q), sur.grad(Q)
        for b in range(len(P)):
            rs = ref_comp.stats(P[b])
            g_p, u_p = serial_reference._mmse_gu(rs.a_p, rs.T_p)
            g_c, u_c = serial_reference._mmse_gu(rs.a_c, rs.T_c)
            ref = serial_reference._Surrogate(ref_comp, g_p, u_p, g_c, u_c)
            ref_value, ref_grad = ref.value_and_grad(Q[b])
            assert (sur.step[b], value[b]) == (ref.step, ref_value)
            assert np.array_equal(grad[b], ref_grad)
            assert (wsr[b], cap[b]) == ref_comp.true_rates(Q[b])[:2]

    def test_mixed_budgets_and_start_counts(self):
        rng = np.random.default_rng(45)
        ch = random_channel(rng, l=4)
        lay = build_layout("rsma", 2, ch)
        sd_lay = build_layout("sdma", 2, ch)
        extra = embed_sdma_matrix(lay, sd_lay, zf_precoder(ch, 2.0).matrix)
        configs = [
            AoConfig(epsilon=2.0, seed=1, max_iterations=80),
            AoConfig(snr_db=12.0, seed=2, max_iterations=80),
            AoConfig(epsilon=30.0, seed=3, max_iterations=80),
        ]
        warm = [(), (extra,), (extra, 0.5 * extra)]
        sols = ao_solve(ch, lay, (0.5, 0.5), configs, warm_starts=warm)
        assert isinstance(sols, tuple) and len(sols) == 3
        for cfg, ws, sol in zip(configs, warm, sols):
            assert self._same_as_serial_reference(
                sol, ch, lay, (0.5, 0.5), cfg, warm_starts=ws, embed_special_cases=False,
            )

    def test_batch_of_one_equals_batch_of_many(self):
        rng = np.random.default_rng(46)
        ch = random_channel(rng, l=2)
        for scheme in ("rsma", "sdma", "noma"):
            lay = build_layout(scheme, 2, ch)
            configs = [AoConfig(snr_db=snr, seed=7 + i) for i, snr in enumerate((0.0, 10.0, 20.0, 30.0))]
            many = ao_solve(ch, lay, (0.5, 0.5), configs)
            for cfg, sol in zip(configs, many):
                assert self._same(ao_solve(ch, lay, (0.5, 0.5), cfg), sol)

    @staticmethod
    def _mixed_problems():
        # different gains and non-unit noise per problem; the channels
        # alternate which user is stronger, so NOMA sees both strong-user
        # orders under one layout and RSMA's NOMA warm starts come from
        # two layout groups
        rng = np.random.default_rng(48)
        channels, configs = [], []
        for i in range(6):
            gains = rng.uniform(0.1, 1.0, size=(2, 4))
            if (np.linalg.norm(gains[0]) >= np.linalg.norm(gains[1])) != (i % 2 == 0):
                gains = gains[::-1].copy()
            channels.append(channel(gains, rng.uniform(0.3, 3.0, size=2)))
            configs.append(AoConfig(snr_db=5.0 + 6.0 * i, seed=100 + i, max_iterations=12, corner_starts=True))
        configs[3] = AoConfig(epsilon=4.0, seed=103, max_iterations=12, corner_starts=True)
        assert len({build_layout("noma", 2, ch) for ch in channels}) == 2
        return channels, configs

    @staticmethod
    def _same_as_serial_reference(sol, ch, lay, w, cfg, **kw):
        P, hist, its, conv, idx = serial_reference.ao_solve(ch, lay, w, cfg, **kw)
        return (
            np.array_equal(sol.precoder.matrix, P) and sol.wsr_history == tuple(hist)
            and (sol.iterations, sol.converged, sol.restart_index) == (its, conv, idx)
        )

    @pytest.mark.parametrize("scheme", ["rsma", "sdma", "noma"])
    def test_mixed_channel_batch_equals_each_problem_alone(self, scheme):
        channels, configs = self._mixed_problems()
        lay = build_layout(scheme, 2, channels[0])
        w = (0.4, 0.6)
        batched = ao_solve(channels, lay, w, configs)
        assert isinstance(batched, tuple) and len(batched) == len(configs)
        outcomes = set()
        for ch, cfg, sol in zip(channels, configs, batched):
            alone = ao_solve(ch, lay, w, cfg)
            assert self._same(sol, alone)
            assert np.array_equal(sol.shares, alone.shares) and sol.wsr == alone.wsr
            assert self._same_as_serial_reference(sol, ch, lay, w, cfg, embed_special_cases=False)
            outcomes.add(sol.converged)
        assert outcomes == {True, False}  # both exits are exercised

    def test_seeded_rsma_equals_nested_reference_and_each_channel_alone(self, monkeypatch):
        # solve_schemes gives RSMA the starts the serial reference's nested
        # SDMA/NOMA solves give it, in the same order
        channels, configs = self._mixed_problems()
        w = (0.4, 0.6)
        warm = []
        real = scenarios.ao_solve

        def spy(channel, layout, priorities, config, **kw):
            if layout.scheme == "rsma":
                warm.append(kw["warm_starts"])
            return real(channel, layout, priorities, config, **kw)

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        solved = scenarios.solve_schemes(channels, w, ("rsma",), lambda _, i: configs[i])
        monkeypatch.undo()
        assert list(solved) == ["rsma"] and len(warm) == 1  # one batched RSMA call
        for ch, cfg, ws, (lay, sol) in zip(channels, configs, warm[0], solved["rsma"]):
            expected = [
                embed(lay, sub, serial_reference.ao_solve(ch, sub, w, cfg)[0])
                for embed, sub in ((embed_sdma_matrix, build_layout("sdma", 2, ch)),
                                   (embed_noma_matrix, build_layout("noma", 2, ch)))
            ]
            assert len(ws) == 2 and all(np.array_equal(a, b) for a, b in zip(ws, expected))
            [(_, alone)] = scenarios.solve_schemes([ch], w, ("rsma",), lambda *_: cfg)["rsma"]
            assert self._same(sol, alone)
            assert np.array_equal(sol.shares, alone.shares) and sol.wsr == alone.wsr
            assert self._same_as_serial_reference(sol, ch, lay, w, cfg, embed_special_cases=True)

    def test_channel_sequence_needs_one_config_each(self):
        a, b = channel([[0.9, 0.4], [0.3, 0.8]]), channel([[0.5, 0.4], [0.3, 0.2]])
        lay = build_layout("sdma", 2, a)
        with pytest.raises(ValueError):
            ao_solve([a, b], lay, (0.5, 0.5), AoConfig())
        with pytest.raises(ValueError):
            ao_solve([a, b], lay, (0.5, 0.5), [AoConfig()] * 3)
        with pytest.raises(ValueError):
            ao_solve([a, channel(np.ones((2, 3)))], lay, (0.5, 0.5), [AoConfig()] * 2)

    def test_configs_may_differ_only_in_per_problem_fields(self):
        ch = channel([[0.9, 0.4], [0.3, 0.8]])
        lay = build_layout("sdma", 2, ch)
        with pytest.raises(ValueError):
            ao_solve(ch, lay, (0.5, 0.5), [AoConfig(), AoConfig(restarts=2)])
        with pytest.raises(ValueError):
            ao_solve(ch, lay, (0.5, 0.5), [AoConfig(), AoConfig()], warm_starts=[()])
        with pytest.raises(ValueError):
            ao_solve(ch, lay, (0.5, 0.5), [])

    def test_projection_radius_per_row(self):
        rng = np.random.default_rng(47)
        M = rng.normal(size=(5, 4, 3)) * 3.0
        budget = rng.uniform(0.0, 4.0, size=5)
        budget[2] = 0.0
        batch = project_rows_l1(M, np.repeat(budget[:, None], 4, axis=1))
        for b in range(5):
            assert np.array_equal(batch[b], serial_reference.project_rows_l1(M[b], budget[b]))
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

    def test_ao_close_to_oracle(self):
        rng = np.random.default_rng(14)
        for scheme in ("rsma", "sdma", "noma"):
            for _ in range(3):
                ch = random_channel(rng)
                eps = epsilon_from_snr(15.0, 1.0)
                cfg = AoConfig(epsilon=eps, seed=int(rng.integers(1 << 16)), corner_starts=True)
                lay, sol = scenarios.solve_schemes([ch], (0.5, 0.5), (scheme,), lambda *_: cfg)[scheme][0]
                oracle = grid_oracle(ch, lay, (0.5, 0.5), epsilon=eps, resolution=21)
                assert abs(sol.wsr - oracle) <= 0.05 * oracle
