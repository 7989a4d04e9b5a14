import math
from dataclasses import replace

import numpy as np
import pytest

import rsma_vlc.scenarios as scenarios
from rsma_vlc.channel import Receiver
from rsma_vlc.optimizer import epsilon_from_snr
from rsma_vlc.scenarios import (
    ScenarioSpec,
    Sweep,
    build_scene_channel,
    catalog,
    reference_gain,
    run_sweep,
    users_for_separation,
)
from rsma_vlc.cli import main
from rsma_vlc.signal_model import build_layout

CATALOG_NAMES = {
    "scenario1_4led",
    "scenario2_4led",
    "scenario3_4led",
    "scenario1_2led",
    "scenario2_2led",
    "separation_sweep_2led",
}


def separation(spec):
    a, b = spec.users[0].position, spec.users[1].position
    return float(np.linalg.norm(a - b))


class TestCatalog:
    def test_names(self):
        assert set(catalog()) == CATALOG_NAMES

    def test_user_separations(self):
        cat = catalog()
        assert separation(cat["scenario1_4led"]) == pytest.approx(3.0)
        assert separation(cat["scenario1_2led"]) == pytest.approx(3.0)
        assert separation(cat["scenario2_4led"]) == pytest.approx(0.4)
        assert separation(cat["scenario2_2led"]) == pytest.approx(0.4)
        assert separation(cat["scenario3_4led"]) == pytest.approx(0.94)

    def test_scenario3_shares_user2_with_scenario2(self):
        cat = catalog()
        assert np.allclose(
            cat["scenario3_4led"].users[1].position, cat["scenario2_4led"].users[1].position
        )

    def test_separation_sweep_extent(self):
        spec = catalog()["separation_sweep_2led"]
        assert spec.sweep.name == "separation"
        assert max(spec.sweep.values) == pytest.approx(5.0)
        users = users_for_separation(spec, 5.0)
        assert np.allclose(users[0].position, (-2.5, 0.0, 0.8))
        assert np.allclose(users[1].position, (2.5, 0.0, 0.8))
        at_36 = users_for_separation(spec, 3.6)
        assert np.allclose(at_36[0].position, (-1.8, 0.0, 0.8))
        assert np.allclose(at_36[1].position, (1.8, 0.0, 0.8))

    def test_every_user_inside_room_and_fov(self):
        for spec in catalog().values():
            hx, hy, hz = spec.room[0] / 2, spec.room[1] / 2, spec.room[2]
            for rx in spec.users:
                x, y, z = rx.position
                assert abs(x) <= hx and abs(y) <= hy and 0 <= z <= hz
                # inside the field of view of every fixture in the catalog scenes
                for fx in spec.fixtures:
                    ray = fx.position - rx.position
                    cos_in = float(ray @ rx.normal / np.linalg.norm(ray))
                    assert math.degrees(math.acos(cos_in)) <= rx.fov

    def test_catalog_builders_return_fresh_specs(self):
        spec = catalog()["scenario1_4led"]
        spec.fixtures[0].position[0] = 99.0  # vandalize the returned copy
        fresh = catalog()["scenario1_4led"]
        assert fresh.fixtures[0].position[0] == pytest.approx(-1.25)

    def test_device_defaults(self):
        spec = catalog()["scenario1_4led"]
        fx, rx = spec.fixtures[0], spec.users[0]
        assert fx.leds_per_fixture == 3600
        assert fx.semi_angle_half_power == 60.0
        assert rx.area == pytest.approx(1e-4)
        assert rx.refractive_index == 1.5
        assert rx.fov == 60.0
        assert rx.filter_gain == 1.0
        assert rx.position[2] == pytest.approx(0.8)
        assert spec.priorities == (0.5, 0.5)


class TestGeometryValidation:
    def test_user_outside_room_rejected(self):
        base = catalog()["scenario1_2led"]
        outside = (Receiver(position=(3.0, 0.0, 0.8)), base.users[1])
        with pytest.raises(ValueError):
            replace(base, users=outside)

    def test_priority_count_must_match(self):
        base = catalog()["scenario1_2led"]
        with pytest.raises(ValueError):
            replace(base, priorities=(1.0,))

    def test_sweep_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Sweep("snr_db", ())
        with pytest.raises(ValueError):
            Sweep("frequency", (1.0,))


class TestReferenceGain:
    def test_area_mean_value(self):
        # deterministic quadrature over the floor, frozen bit for bit: the
        # gains are added in a fixed order, so another summation order fails
        expected = {4: 0.015083412588890803, 2: 0.01659942443770614}  # by fixture count
        for name, spec in catalog().items():
            assert reference_gain(spec) == expected[len(spec.fixtures)], name

    def test_none_policy(self):
        spec = replace(catalog()["scenario1_4led"], gain_reference="none")
        assert reference_gain(spec) == 1.0


class TestChannels:
    def test_scenario1_all_gains_positive(self):
        ch = build_scene_channel(catalog()["scenario1_4led"])
        assert ch.gains.shape == (2, 4)
        assert np.all(ch.gains > 0)
        assert np.all(ch.noise == 1.0)

    def test_separation_channel_swap_symmetry(self):
        spec = catalog()["separation_sweep_2led"]
        for sep in spec.sweep.values:
            ch = build_scene_channel(spec, sep)
            assert np.allclose(ch.gains[0], ch.gains[1][::-1], rtol=1e-12)


class TestRunSweep:
    def _tiny(self, **kw):
        spec = catalog()["scenario1_2led"]
        return replace(spec, sweep=Sweep("snr_db", (5.0, 15.0)), **kw)

    def test_row_structure(self):
        res = run_sweep(self._tiny(schemes=("rsma", "sdma")), base_seed=1)
        assert len(res.rows) == 4
        assert [r.scheme for r in res.rows] == ["rsma", "rsma", "sdma", "sdma"]
        assert [r.sweep_value for r in res.rows] == [5.0, 15.0, 5.0, 15.0]
        for row in res.rows:
            assert row.converged and row.error is None
            assert row.wsr >= 0.0
            assert len(row.rates) == 2

    def test_empty_schemes_give_empty_result(self):
        res = run_sweep(self._tiny(schemes=()))
        assert res.rows == ()

    def test_budget_overflow_fails_its_point_only(self, monkeypatch, tmp_path):
        # 10^(SNR/20) overflows a float at 10,000 dB: that point gets an
        # error row in every scheme, the other point its clean row
        spec = replace(self._tiny(schemes=("rsma", "sdma")), sweep=Sweep("snr_db", (5.0, 1e4)))
        res = run_sweep(spec, base_seed=1)
        clean = run_sweep(replace(spec, sweep=Sweep("snr_db", (5.0,))), base_seed=1)
        assert [(r.scheme, r.sweep_value) for r in res.failures] == [("rsma", 1e4), ("sdma", 1e4)]
        assert all(r.error.startswith("OverflowError") and r.wsr == 0.0 for r in res.failures)
        assert tuple(r for r in res.rows if r.sweep_value == 5.0) == clean.rows

        # a sweep whose every point overflows solves nothing: one error row
        # per scheme, and `run` exits 2
        calls = []
        monkeypatch.setattr(scenarios, "ao_solve", lambda *args, **kw: calls.append(args))
        res = run_sweep(replace(self._tiny(), sweep=Sweep("snr_db", (1e4,))), base_seed=1)
        assert [(r.scheme, r.sweep_value) for r in res.rows] == [(s, 1e4) for s in ("noma", "rsma", "sdma")]
        assert res.failures == res.rows
        assert all(r.error.startswith("OverflowError") for r in res.rows)
        out = tmp_path / "rows.csv"
        assert main(["run", "--scenario", "scenario1_2led", "--snr", "10000", "--out", str(out)]) == 2
        assert calls == []

    def test_deterministic_across_reruns_and_workers(self):
        # the chunks differ with the worker count, the rows must not
        spec = replace(self._tiny(), sweep=Sweep("snr_db", (5.0, 15.0, 25.0)))
        a = run_sweep(spec, base_seed=7, workers=1)
        b = run_sweep(spec, base_seed=7, workers=1)
        c = run_sweep(spec, base_seed=7, workers=2)
        assert len(a.rows) == 9
        assert a == b == c

    def test_seed_changes_solutions_not_structure(self):
        spec = self._tiny(schemes=("sdma",))
        a = run_sweep(spec, base_seed=1)
        b = run_sweep(spec, base_seed=2)
        assert [r.seed for r in a.rows] != [r.seed for r in b.rows]
        assert [r.sweep_value for r in a.rows] == [r.sweep_value for r in b.rows]

    def test_rsma_rows_dominate_special_cases(self):
        res = run_sweep(self._tiny(), base_seed=3)
        by = {s: dict(res.wsr_series(s)) for s in ("rsma", "sdma", "noma")}
        for snr in (5.0, 15.0):
            assert by["rsma"][snr] >= by["sdma"][snr] - 1e-9
            assert by["rsma"][snr] >= by["noma"][snr] - 1e-9

    def test_solver_failure_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}
        real = scenarios.ao_solve

        def flaky(channel, layout, priorities, epsilon, **kw):
            calls["n"] += 1
            if layout.scheme == "sdma":
                raise RuntimeError("synthetic solver blowup")
            return real(channel, layout, priorities, epsilon, **kw)

        monkeypatch.setattr(scenarios, "ao_solve", flaky)
        res = run_sweep(self._tiny(schemes=("sdma", "noma")), base_seed=1)
        failed = [r for r in res.rows if r.scheme == "sdma"]
        fine = [r for r in res.rows if r.scheme == "noma"]
        assert all(r.error and "synthetic" in r.error for r in failed)
        assert all(not r.converged and r.wsr == 0.0 for r in failed)
        assert all(r.error is None and r.converged for r in fine)
        assert res.failures == tuple(failed)

        # a failure at one point of a batched call fails that point only
        spec = self._tiny()
        monkeypatch.setattr(scenarios, "ao_solve", real)
        clean = run_sweep(spec, base_seed=1)
        calls = []
        # the budget of the 15 dB point (the scene has unit noise)
        eps15 = epsilon_from_snr(15.0, 1.0, reference_gain=reference_gain(spec))

        def point_flaky(channel, layout, priorities, epsilon, **kw):
            calls.append((layout.scheme, np.size(epsilon)))
            if layout.scheme == "noma" and eps15 in np.atleast_1d(epsilon):
                raise RuntimeError("synthetic point blowup")
            return real(channel, layout, priorities, epsilon, **kw)

        monkeypatch.setattr(scenarios, "ao_solve", point_flaky)
        res = run_sweep(spec, base_seed=1)
        # one batched call per scheme; NOMA then falls back to one call per point
        assert calls == [("sdma", 2), ("noma", 2), ("noma", 1), ("noma", 1), ("rsma", 2)]
        assert [(r.scheme, r.sweep_value) for r in res.failures] == [("noma", 15.0)]
        assert "synthetic point blowup" in res.failures[0].error
        # every other row is the clean one, except RSMA at the failed point,
        # which lost its NOMA warm start
        for got, want in zip(res.rows, clean.rows):
            if (got.scheme, got.sweep_value) not in {("noma", 15.0), ("rsma", 15.0)}:
                assert got == want
        rsma15 = [r for r in res.rows if (r.scheme, r.sweep_value) == ("rsma", 15.0)]
        assert rsma15[0].error is None and rsma15[0].converged

        # when every helper fails at a point, RSMA still solves it, from its
        # own ZF/random starts alone (no warm start, no helper re-solve)
        calls = []

        def helpers_flaky(channel, layout, priorities, epsilon, **kw):
            calls.append((layout.scheme, np.size(epsilon)))
            if layout.scheme == "rsma":
                warm = kw["warm_starts"] if np.ndim(epsilon) else (kw["warm_starts"],)
                assert [len(w) for w in warm] == [2, 0]
            elif eps15 in np.atleast_1d(epsilon):
                raise RuntimeError("synthetic helper blowup")
            return real(channel, layout, priorities, epsilon, **kw)

        monkeypatch.setattr(scenarios, "ao_solve", helpers_flaky)
        res = run_sweep(spec, base_seed=1)
        assert calls == [
            ("sdma", 2), ("sdma", 1), ("sdma", 1),
            ("noma", 2), ("noma", 1), ("noma", 1), ("rsma", 2),
        ]
        assert [(r.scheme, r.sweep_value) for r in res.failures] == [("noma", 15.0), ("sdma", 15.0)]
        rsma = {r.sweep_value: r for r in res.for_scheme("rsma")}
        assert rsma[5.0] == [r for r in clean.rows if (r.scheme, r.sweep_value) == ("rsma", 5.0)][0]
        assert rsma[15.0].error is None and rsma[15.0].converged and rsma[15.0].wsr > 0.0

    def test_separation_sweep_point(self):
        spec = replace(
            catalog()["separation_sweep_2led"],
            sweep=Sweep("separation", (3.6,)),
            snr_db=20.0,
        )
        res = run_sweep(spec, base_seed=0)
        assert len(res.rows) == 1
        assert res.rows[0].sweep_value == 3.6
        assert res.rows[0].wsr > 5.0

    def test_separation_sweep_workers(self):
        # the chunks (batches of points with their own channels) differ
        # with the worker count, the rows must not
        spec = replace(
            catalog()["separation_sweep_2led"],
            sweep=Sweep("separation", (2.0, 3.6, 5.0)),
            snr_db=20.0,
            schemes=("rsma", "sdma", "noma"),
        )
        a = run_sweep(spec, base_seed=4, workers=1)
        b = run_sweep(spec, base_seed=4, workers=2)
        assert [r.sweep_value for r in a.rows] == [2.0, 3.6, 5.0] * 3
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_separation_sweep_batch_equals_points_alone(self, workers, monkeypatch):
        # off-centre fixtures make the second user the stronger one at
        # short separations and the first at long ones, so NOMA's points
        # have two layouts, and one batched call solves them all
        spec = replace(
            catalog()["separation_sweep_2led"],
            fixtures=(scenarios._fixture(-2.4, 0.0), scenarios._fixture(0.4, 0.0)),
            sweep=Sweep("separation", (0.4, 1.2, 2.8, 4.4)),
            snr_db=20.0,
            schemes=("rsma", "sdma", "noma"),
        )
        values = spec.sweep.values
        channels = [build_scene_channel(spec, v) for v in values]
        assert len({build_layout("noma", 2, ch) for ch in channels}) == 2
        ref = reference_gain(spec)
        alone = [row for point in enumerate(values) for row in scenarios._solve_chunk(spec, [point], 5, ref)]
        alone.sort(key=lambda r: (r.scheme, values.index(r.sweep_value)))
        calls = []
        real = scenarios.ao_solve

        def spy(channel, layout, priorities, epsilon, **kw):
            calls.append((layout.scheme, np.size(epsilon)))
            return real(channel, layout, priorities, epsilon, **kw)

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        res = run_sweep(spec, base_seed=5, workers=workers)
        assert res.rows == tuple(alone)
        if workers == 1:  # the pool's processes keep their own call lists
            assert calls == [("sdma", 4), ("noma", 4), ("rsma", 4)]
