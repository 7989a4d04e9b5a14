import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import rsma_vlc.scenarios as scenarios
import rsma_vlc.signal_model as signal_model
from rsma_vlc.channel import ChannelMatrix, Receiver
from rsma_vlc.optimizer import AoConfig, epsilon_from_snr
from rsma_vlc.scenarios import (
    ScenarioSpec,
    Sweep,
    build_scene_channel,
    catalog_scene,
    reference_gain,
    run_sweep,
    users_for_separation,
)
from rsma_vlc.cli import main
from rsma_vlc.signal_model import StreamLayout, build_layout

from helpers import catalog, for_scheme, max_row_l1, wsr_series

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


def _problems(problems):
    """(scheme, epsilon) of every problem of one ao_solve call."""
    return [(p.scheme, p.epsilon) for p in problems]


def _swept_in_groups(spec, groups) -> tuple:
    """The rows of `spec`'s sweep with its points swept in `groups`, one
    run_sweep call per tuple of sweep values, sorted as run_sweep sorts."""
    values = spec.sweep.values
    rows = [row for group in groups for row in run_sweep(replace(spec, sweep=Sweep(spec.sweep.name, group))).rows]
    return tuple(sorted(rows, key=lambda r: (r.scheme, values.index(r.sweep_value))))


class TestCatalog:
    def test_names(self):
        assert set(catalog()) == CATALOG_NAMES

    def test_exact_equality_never_raises(self):
        # scenes, fixtures and receivers compare field by field, an array
        # field element for element: one bit apart is unequal
        a, b = catalog_scene("scenario1_2led"), catalog_scene("scenario1_2led")
        assert a == b and not a != b
        assert a.fixtures == b.fixtures and a.users == b.users
        x, y, z = a.users[0].position
        moved = replace(a, users=(replace(a.users[0], position=(np.nextafter(x, 0.0), y, z)), a.users[1]))
        assert moved != a and not moved == a and moved.users[0] != a.users[0]
        assert moved.fixtures == a.fixtures and moved.users[1] == a.users[1]
        # another shape or another type is unequal, never an error
        assert Receiver(position=np.zeros((2, 3))) != Receiver(position=np.zeros(3))
        assert a != a.name and a.fixtures[0] != a.users[0] and a.users[0] != None  # noqa: E711

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

    def test_separation_keeps_each_users_height(self):
        spec = catalog()["separation_sweep_2led"]
        raised = replace(spec, users=(spec.users[0], replace(spec.users[1], position=(0.1, 0.0, 1.5))))
        users = users_for_separation(raised, 3.0)
        assert np.allclose(users[0].position, (-1.5, 0.0, 0.8))
        assert np.allclose(users[1].position, (1.5, 0.0, 1.5))

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
        with pytest.raises(ValueError, match="user at .* lies outside the room"):
            replace(base, users=outside)
        # fixtures too, with the users' bounds: two fixtures 7.75 and 10.25 m
        # off center in a 5 m room; the catalog's sit on the 4 m ceiling
        far = tuple(replace(fx, position=fx.position + (9.0, 0.0, 0.0)) for fx in base.fixtures)
        with pytest.raises(ValueError, match="fixture at .* lies outside the room"):
            replace(base, fixtures=far)
        assert all(fx.position[2] == base.room[2] for fx in base.fixtures)

    def test_separation_sweep_needs_two_users(self):
        # the sweep mirrors users 0 and 1 only: a third user would be dropped;
        # and a scene of any sweep has exactly two users
        third = Receiver(position=(0.5, 1.0, 0.8))
        for name in ("separation_sweep_2led", "scenario1_2led"):
            base = catalog()[name]
            with pytest.raises(ValueError, match="a scene has exactly two users, got 3"):
                replace(base, users=base.users + (third,), priorities=(0.3, 0.3, 0.4))
            with pytest.raises(ValueError, match="a scene has exactly two users, got 1"):
                replace(base, users=base.users[:1], priorities=(1.0,))

    def test_separation_must_keep_users_in_room(self):
        # the mirrored users sit at x = +-v/2: 9 m puts them 4.5 m off center
        # in a 5 m room; the catalog's 5 m puts them on the walls
        base = catalog()["separation_sweep_2led"]
        assert max(base.sweep.values) == 5.0
        for values in ((9.0,), (1.0, 5.2), (-6.0,)):
            with pytest.raises(ValueError, match=f"separation {values[-1]} puts the users outside the room"):
                replace(base, sweep=Sweep("separation", values))
        assert replace(base, sweep=Sweep("separation", (5.0, -5.0))).sweep.values == (5.0, -5.0)
        # a wider room takes wider separations
        assert replace(base, room=(10.0, 5.0, 4.0), sweep=Sweep("separation", (9.0,))).sweep.values == (9.0,)

    def test_priority_count_must_match(self):
        base = catalog()["scenario1_2led"]
        with pytest.raises(ValueError):
            replace(base, priorities=(1.0,))

    def test_scheme_listed_twice_rejected(self):
        # a repeated scheme would give an unsolvable point one error row per
        # repeat
        base = catalog()["scenario1_2led"]
        for schemes in (("rsma", "rsma"), ("sdma", "noma", "sdma")):
            with pytest.raises(ValueError, match=f"scheme '{schemes[0]}' is listed twice"):
                replace(base, schemes=schemes)

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
        res = run_sweep(self._tiny(schemes=("rsma", "sdma")))
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
        res = run_sweep(spec)
        clean = run_sweep(replace(spec, sweep=Sweep("snr_db", (5.0,))))
        assert [(r.scheme, r.sweep_value) for r in res.failures] == [("rsma", 1e4), ("sdma", 1e4)]
        assert all(r.error.startswith("OverflowError") and r.wsr == 0.0 for r in res.failures)
        assert tuple(r for r in res.rows if r.sweep_value == 5.0) == clean.rows

        # a sweep whose every point overflows solves nothing: one error row
        # per scheme, and `run` exits 2
        calls = []
        monkeypatch.setattr(scenarios, "ao_solve", lambda *args, **kw: calls.append(args))
        res = run_sweep(replace(self._tiny(), sweep=Sweep("snr_db", (1e4,))))
        assert [(r.scheme, r.sweep_value) for r in res.rows] == [(s, 1e4) for s in ("noma", "rsma", "sdma")]
        assert res.failures == res.rows
        assert all(r.error.startswith("OverflowError") for r in res.rows)
        out = tmp_path / "rows.csv"
        assert main(["run", "--scenario", "scenario1_2led", "--snr", "10000", "--out", str(out)]) == 2
        assert calls == []

    def test_deterministic_across_reruns_and_workers(self):
        # a sweep's rows do not depend on how its points are grouped into
        # solves: they equal those of each point swept alone
        spec = replace(self._tiny(), sweep=Sweep("snr_db", (5.0, 15.0, 25.0)))
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert len(a.rows) == 9
        assert a == b
        assert a.rows == _swept_in_groups(spec, [(v,) for v in spec.sweep.values])

    def test_rsma_rows_dominate_special_cases(self):
        res = run_sweep(self._tiny())
        by = {s: dict(wsr_series(res, s)) for s in ("rsma", "sdma", "noma")}
        for snr in (5.0, 15.0):
            assert by["rsma"][snr] >= by["sdma"][snr] - 1e-9
            assert by["rsma"][snr] >= by["noma"][snr] - 1e-9

    def test_solver_failure_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}
        real = scenarios.ao_solve

        def flaky(problems, priorities, config, *, layout):
            calls["n"] += 1
            if any(p.scheme == "sdma" for p in problems):
                raise RuntimeError("synthetic solver blowup")
            return real(problems, priorities, config, layout=layout)

        monkeypatch.setattr(scenarios, "ao_solve", flaky)
        res = run_sweep(self._tiny(schemes=("sdma", "noma")))
        failed = [r for r in res.rows if r.scheme == "sdma"]
        fine = [r for r in res.rows if r.scheme == "noma"]
        assert all(r.error and "synthetic" in r.error for r in failed)
        assert all(not r.converged and r.wsr == 0.0 for r in failed)
        assert all(r.error is None and r.converged for r in fine)
        assert res.failures == tuple(failed)

        # a failure at one point of a batched call fails that point only
        spec = self._tiny()
        monkeypatch.setattr(scenarios, "ao_solve", real)
        clean = run_sweep(spec)
        calls = []
        # the budget of the 15 dB point (the scene has unit noise)
        eps15 = epsilon_from_snr(15.0, 1.0, reference_gain=reference_gain(spec))

        def point_flaky(problems, priorities, config, *, layout):
            calls.append((problems[0].scheme, len(problems)))
            if ("noma", eps15) in _problems(problems):
                raise RuntimeError("synthetic point blowup")
            return real(problems, priorities, config, layout=layout)

        monkeypatch.setattr(scenarios, "ao_solve", point_flaky)
        res = run_sweep(spec)
        # one batched SDMA + NOMA + RSMA call, listed under its first
        # problem's scheme, falls back to one call per (scheme, point); an
        # RSMA point's call solves its helpers that succeeded again first
        assert calls == [("sdma", 6), ("sdma", 1), ("sdma", 1), ("noma", 1), ("noma", 1), ("sdma", 3), ("sdma", 2)]
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
        # own ZF, corner and split starts alone (no warm start, no helper
        # re-solve); at the other point its call re-solves both helpers
        calls, warm = [], []

        def helpers_flaky(problems, priorities, config, *, layout):
            calls.append((problems[0].scheme, len(problems)))
            warm.append([len(p.warm_from) for p in problems if p.scheme == "rsma"])
            if any(p.scheme != "rsma" and p.epsilon == eps15 for p in problems):
                raise RuntimeError("synthetic helper blowup")
            return real(problems, priorities, config, layout=layout)

        monkeypatch.setattr(scenarios, "ao_solve", helpers_flaky)
        res = run_sweep(spec)
        assert calls == [
            ("sdma", 6), ("sdma", 1), ("sdma", 1), ("noma", 1), ("noma", 1), ("sdma", 3), ("rsma", 1),
        ]
        assert warm == [[2, 2], [], [], [], [], [2], [0]]
        assert [(r.scheme, r.sweep_value) for r in res.failures] == [("noma", 15.0), ("sdma", 15.0)]
        rsma = {r.sweep_value: r for r in for_scheme(res, "rsma")}
        assert rsma[5.0] == [r for r in clean.rows if (r.scheme, r.sweep_value) == ("rsma", 5.0)][0]
        assert rsma[15.0].error is None and rsma[15.0].converged and rsma[15.0].wsr > 0.0

    def test_solve_schemes_gives_each_point_its_schemes(self, monkeypatch):
        # one dict per point, in point order, of the schemes it asks for;
        # the SDMA and NOMA helpers of an RSMA point are solved, not returned
        spec = self._tiny()
        ch = build_scene_channel(spec)
        points = [(ch, 2.0, ("noma",)), (ch, 3.0, ("rsma", "sdma")), (ch, 4.0, ("rsma",))]
        calls = []
        real = scenarios.ao_solve

        def spy(problems, priorities, config, *, layout):
            calls.append(_problems(problems))
            return real(problems, priorities, config, layout=layout)

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        solved = scenarios.solve_schemes(points, (0.5, 0.5), spec.ao)
        assert [list(point) for point in solved] == [["noma"], ["rsma", "sdma"], ["rsma"]]
        # every SDMA problem, then every NOMA one, then every RSMA one
        assert calls == [[("sdma", 3.0), ("sdma", 4.0), ("noma", 2.0), ("noma", 3.0), ("noma", 4.0),
                          ("rsma", 3.0), ("rsma", 4.0)]]
        for (_, eps, _), point in zip(points, solved):
            for scheme, sol in point.items():
                assert sol.layout == build_layout(scheme, ch) and max_row_l1(sol.precoder) <= eps + 1e-9

    def test_solve_schemes_refuses_bad_points_before_solving(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved a point")

        monkeypatch.setattr(scenarios, "ao_solve", never)
        ch = build_scene_channel(self._tiny())
        with pytest.raises(ValueError, match=r"unknown schemes \['tdma'\]"):
            scenarios.solve_schemes([(ch, 1.0, ("sdma",)), (ch, 1.0, ("rsma", "tdma"))], (0.5, 0.5), AoConfig())
        three = ChannelMatrix(gains=np.full((3, 2), 0.5), noise=np.ones(3))
        with pytest.raises(ValueError, match="a layout has exactly two users, got 3"):
            scenarios.solve_schemes([(ch, 1.0, ("sdma",)), (three, 1.0, ("noma",))], (0.5, 0.5), AoConfig())
        assert scenarios.solve_schemes([], (0.5, 0.5), AoConfig()) == []

    def test_separation_sweep_point(self):
        spec = replace(
            catalog()["separation_sweep_2led"],
            sweep=Sweep("separation", (3.6,)),
            snr_db=20.0,
        )
        res = run_sweep(spec)
        assert len(res.rows) == 1
        assert res.rows[0].sweep_value == 3.6
        assert res.rows[0].wsr > 5.0

    def test_separation_sweep_workers(self):
        # the rows of points with their own channels do not depend on how
        # the points are grouped into solves either: each point alone, or
        # round-robin in two groups
        spec = replace(
            catalog()["separation_sweep_2led"],
            sweep=Sweep("separation", (2.0, 3.6, 5.0)),
            snr_db=20.0,
            schemes=("rsma", "sdma", "noma"),
        )
        a = run_sweep(spec)
        assert [r.sweep_value for r in a.rows] == [2.0, 3.6, 5.0] * 3
        assert a.rows == _swept_in_groups(spec, [(2.0,), (3.6,), (5.0,)])
        assert a.rows == _swept_in_groups(spec, [(2.0, 5.0), (3.6,)])

    def test_separation_sweep_batch_equals_points_alone(self, monkeypatch):
        # off-centre fixtures make the second user the stronger one at
        # short separations and the first at long ones, so NOMA's points
        # have two layouts, and one batched call solves them all
        spec = replace(
            catalog()["separation_sweep_2led"],
            fixtures=(scenarios._fixture(-2.4, 0.0), scenarios._fixture(1.2, 0.0)),
            sweep=Sweep("separation", (0.4, 1.2, 2.8, 4.4)),
            snr_db=20.0,
            schemes=("rsma", "sdma", "noma"),
        )
        values = spec.sweep.values
        channels = [build_scene_channel(spec, v) for v in values]
        assert len({build_layout("noma", ch) for ch in channels}) == 2
        alone = _swept_in_groups(spec, [(v,) for v in values])
        calls = []
        real = scenarios.ao_solve

        def spy(problems, priorities, config, *, layout):
            calls.append((problems[0].scheme, len(problems)))
            return real(problems, priorities, config, layout=layout)

        monkeypatch.setattr(scenarios, "ao_solve", spy)
        res = run_sweep(spec)
        assert res.rows == alone
        assert calls == [("sdma", 12)]


class TestTracerContract:
    """The benchmark's traced run wraps ao_solve, binds its `layout` and
    reads `layout.scheme` to tag each call. A call whose `layout` is not
    one StreamLayout would raise there, the sweep would fall back to one
    solve per problem, and the traced run would time another program."""

    def test_every_call_gets_one_layout_and_none_falls_back(self, monkeypatch):
        real = scenarios.ao_solve
        signature = inspect.signature(real)
        calls, raised = [], []

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            try:
                return real(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise
            finally:
                layout = bound["layout"]
                calls.append((type(layout), layout.scheme, len(bound["problems"])))

        monkeypatch.setattr(scenarios, "ao_solve", traced)
        spec = replace(catalog()["scenario1_2led"], sweep=Sweep("snr_db", (5.0, 15.0)))
        assert not run_sweep(spec).failures
        separations = replace(
            catalog()["separation_sweep_2led"],
            sweep=Sweep("separation", (1.2, 3.6)),
            snr_db=20.0,
            schemes=("rsma", "sdma", "noma"),
        )
        assert not run_sweep(separations).failures
        assert main(["validate", "--mc-instances", "1", "--oracle-instances", "2"]) == 0
        assert raised == []
        # each sweep: SDMA, NOMA and RSMA in one call; validate: one call
        # for every oracle instance, RSMA's helpers included
        one_sweep = [(StreamLayout, "sdma", 6)]
        assert calls == one_sweep * 2 + [(StreamLayout, "sdma", 10)]

    def test_monte_carlo_calls_keep_what_the_tracer_reads(self, monkeypatch):
        # the traced run sizes each monte_carlo_sinr call from the
        # precoder's column count, the layout's private columns in use and
        # the kind of the stream it checks: on validate's RSMA calls, 3
        # columns, 2 private ones, and the common stream at column 2
        real = signal_model.monte_carlo_sinr
        signature = inspect.signature(real)
        calls = []

        def traced(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(signal_model, "monte_carlo_sinr", traced)
        assert main(["validate", "--mc-instances", "6", "--oracle-instances", "1"]) == 0
        assert len(calls) == 6 and {call["stream"] for call in calls} == {0, 1, 2}
        for call in calls:
            layout, stream = call["layout"], call["stream"]
            assert layout.scheme == "rsma" and call["precoder"].num_streams == 3
            assert len(layout.private_columns) == 2
            assert (layout.streams[stream].kind == "common") == (stream == 2)
