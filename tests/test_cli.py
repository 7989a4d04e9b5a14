import configparser
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rsma_vlc.cli as cli
import rsma_vlc.optimizer as optimizer
import rsma_vlc.scenarios as scenarios
import rsma_vlc.signal_model as signal_model
from rsma_vlc.channel import ChannelMatrix, Fixture, Receiver
from rsma_vlc.cli import CSV_HEADER, ConfigError, RunConfig, load_scenario, main, save_scenario
from rsma_vlc.optimizer import ORACLE_RESOLUTIONS, AoConfig
from rsma_vlc.scenarios import ScenarioSpec, Sweep

from helpers import catalog

RUN = ["run", "--scenario", "scenario1_2led", "--schemes", "rsma,sdma", "--snr", "5,15"]
# scenario1_2led as saved while AoConfig still had corner_starts
LEGACY_SCENE = Path(__file__).parent / "data" / "legacy_corner_starts.ini"


class TestRunCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(RUN + ["--out", str(out), "--seed", "3"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # schemes x sweep points
        assert all(line.endswith(",3") for line in lines[1:])  # the seed column holds --seed
        assert capsys.readouterr().out.count("rsma,snr_db") == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(RUN + ["--out", str(a), "--seed", "9"]) == 0
        assert main(RUN + ["--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output_round_trips(self, tmp_path):
        out = tmp_path / "rows.json"
        assert main(RUN + ["--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        # the CSV columns, plus each row's solver residual
        assert set(rows[0]) == set(CSV_HEADER.split(",")) | {"residual"}
        assert all(0.0 <= row["residual"] <= 1e-4 for row in rows)

    def test_csv_cells_round_trip_precision(self, tmp_path):
        out = tmp_path / "rows.csv"
        main(RUN + ["--out", str(out), "--format", "json"])
        # writing json first then csv must agree on the same values
        out_csv = tmp_path / "rows2.csv"
        main(RUN + ["--out", str(out_csv)])
        rows = json.loads(out.read_text())
        lines = out_csv.read_text().splitlines()[1:]
        for rec, line in zip(rows, lines):
            assert float(line.split(",")[3]) == rec["wsr_bps_hz"]

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_out_exits_1_without_rows(self, target, tmp_path, capsys, monkeypatch):
        # a missing parent directory or a directory is an error before the
        # sweep runs, and no temp file is left behind
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran for an --out that cannot be written")

        monkeypatch.setattr(cli, "run_sweep", never)
        out = tmp_path / "missing" / "rows.csv" if target == "missing" else tmp_path / "outdir"
        if target == "directory":
            out.mkdir()
        assert main(["run", "--scenario", "scenario1_2led", "--schemes", "sdma", "--snr", "10",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path):
        # the rename onto a directory fails after the temp file is written
        target = tmp_path / "outdir"
        target.mkdir()
        with pytest.raises(OSError):
            cli._write_atomic(str(target), "rows\n")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unknown_scenario_exits_1(self, capsys):
        assert main(["run", "--scenario", "warehouse"]) == 1
        err = capsys.readouterr().err
        assert "scenario1_4led" in err and "separation_sweep_2led" in err

    def test_scenario_and_file_are_exclusive(self):
        assert main(["run", "--scenario", "scenario1_2led", "--scenario-file", "x.ini"]) == 1
        assert main(["run"]) == 1

    def test_multi_snr_on_separation_sweep_rejected(self):
        assert main(["run", "--scenario", "separation_sweep_2led", "--snr", "20,40"]) == 1

    def test_bad_scheme_rejected(self):
        assert main(["run", "--scenario", "scenario1_2led", "--schemes", "tdma"]) == 1

    def test_repeated_scheme_exits_1_without_output(self, tmp_path, capsys):
        # one row per scheme and point: a repeat, even where the point
        # cannot be solved, is a configuration error
        out = tmp_path / "rows.csv"
        argv = ["run", "--scenario", "scenario1_2led", "--schemes", "rsma,rsma", "--snr", "5,7000", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: scheme 'rsma' is listed twice\n")
        assert not out.exists()


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        spec = catalog()["scenario2_4led"]
        path = tmp_path / "scene.ini"
        save_scenario(spec, str(path))
        loaded = load_scenario(str(path))
        assert loaded.name == spec.name
        assert loaded.sweep == spec.sweep
        assert loaded.priorities == spec.priorities
        assert loaded.schemes == spec.schemes
        assert loaded.snr_db == spec.snr_db
        assert len(loaded.fixtures) == 4 and len(loaded.users) == 2
        for a, b in zip(loaded.fixtures, spec.fixtures):
            assert np.allclose(a.position, b.position)
            assert a.leds_per_fixture == b.leds_per_fixture
        for a, b in zip(loaded.users, spec.users):
            assert np.allclose(a.position, b.position)
            assert a.area == b.area
        for spec in catalog().values():  # every field of every catalog scene
            save_scenario(spec, str(path))
            assert load_scenario(str(path)) == spec

    def test_missing_keys_take_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text(
            "[sweep]\nname = snr_db\nvalues = 0 10\n\n"
            "[fixture 1]\nposition = 0 0 4\n\n"
            "[user 1]\nposition = -1 0 0.8\n\n"
            "[user 2]\nposition = 1 0 0.8\n"
        )
        expected = ScenarioSpec(
            name="minimal.ini",
            fixtures=(Fixture(position=(0.0, 0.0, 4.0)),),
            users=(Receiver(position=(-1.0, 0.0, 0.8)), Receiver(position=(1.0, 0.0, 0.8))),
            sweep=Sweep("snr_db", (0.0, 10.0)),
        )
        assert load_scenario(str(path)) == expected

    def test_ao_round_trip(self, tmp_path):
        ao = AoConfig(tolerance=3e-3)
        spec = replace(catalog()["scenario1_2led"], ao=ao)
        path = tmp_path / "scene.ini"
        save_scenario(spec, str(path))
        assert load_scenario(str(path)).ao == ao
        # the sweep sets each point's seed, so files store none; files that
        # still do load their other [ao] values
        text = path.read_text()
        assert "seed" not in text
        legacy = tmp_path / "legacy.ini"
        legacy.write_text(text.replace("tolerance = 0.003\n", "tolerance = 0.003\nseed = 11\n"))
        assert "seed = 11" in legacy.read_text()
        assert load_scenario(str(legacy)).ao == ao

    def test_ao_config_is_the_ao_section(self, tmp_path):
        # every solver setting is a scene-file key, and nothing else is
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["scenario1_2led"], str(path))
        cp = configparser.ConfigParser()
        cp.read(path)
        assert [f.name for f in fields(AoConfig)] == list(cp["ao"])

    def test_legacy_noise_variance_key_ignored(self, tmp_path):
        # files written before Receiver.noise_variance was removed still load
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["scenario1_2led"], str(path))
        cp = configparser.ConfigParser()
        cp.read(path)
        for section in ("user 1", "user 2"):
            cp[section]["noise_variance"] = "2.5"
        legacy = tmp_path / "legacy.ini"
        with open(legacy, "w") as fh:
            cp.write(fh)
        assert "noise_variance" in legacy.read_text()
        resaved = tmp_path / "resaved.ini"
        save_scenario(load_scenario(str(legacy)), str(resaved))
        assert resaved.read_text() == path.read_text()

    @pytest.mark.parametrize("line", ["corner_starts = false\n", "restarts = 4\n", "max_iterations = 500\n"],
                             ids=["corner_starts", "restarts", "max_iterations"])
    def test_legacy_corner_starts_key_ignored(self, line, tmp_path):
        # files saved while AoConfig had corner_starts, restarts or
        # max_iterations still load: every solve has the one fixed start
        # set and no AO stage now, so each key is an unknown one
        legacy = LEGACY_SCENE.read_text()
        assert line in legacy
        plain = tmp_path / LEGACY_SCENE.name  # the same basename, so the same default name
        plain.write_text(legacy.replace(line, ""))
        assert load_scenario(str(LEGACY_SCENE)) == load_scenario(str(plain))
        rows = []
        for path in (LEGACY_SCENE, plain):
            out = tmp_path / f"rows{len(rows)}.json"
            argv = ["run", "--scenario-file", str(path), "--schemes", "sdma", "--snr", "10", "--format", "json"]
            assert main(argv + ["--out", str(out)]) == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]

    def test_run_from_file(self, tmp_path):
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["scenario1_2led"], str(path))
        out = tmp_path / "rows.csv"
        code = main(
            ["run", "--scenario-file", str(path), "--schemes", "sdma", "--snr", "10", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_malformed_file_exits_1_without_output(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[scenario\nname oops")
        out = tmp_path / "never.csv"
        assert main(["run", "--scenario-file", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("sweep", "values", "5 nan"),
        ("sweep", "values", "5 inf"),
        ("sweep", "values", "-inf 10"),
        ("scenario", "snr_db", "nan"),
        ("scenario", "snr_db", "inf"),
        ("scenario", "priorities", "0.5 nan"),
        ("scenario", "priorities", "inf 0.5"),
        ("scenario", "room", "nan 5 4"),
        ("scenario", "room", "5 inf 4"),
        ("ao", "tolerance", "nan"),
        ("ao", "tolerance", "inf"),
    ])
    def test_non_finite_number_exits_1_without_output(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["scenario1_2led"], str(path))
        cp = configparser.ConfigParser()
        cp.read(path)
        cp[section][key] = value
        with open(path, "w") as fh:
            cp.write(fh)
        out = tmp_path / "never.csv"
        assert main(["run", "--scenario-file", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed scenario file {str(path)!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "channel-dump"])
    @pytest.mark.parametrize("edit", ["third-user", "values-9"])
    def test_bad_separation_scene_exits_1_without_output(self, command, edit, tmp_path, capsys):
        # a separation sweep with a third user, or a separation that puts
        # the mirrored users outside the room, is a malformed scene file
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["separation_sweep_2led"], str(path))
        cp = configparser.ConfigParser()
        cp.read(path)
        if edit == "third-user":
            cp["scenario"]["priorities"] = "0.3 0.3 0.4"
            cp["user 3"] = dict(cp["user 2"], position="0.5 1.0 0.8")
            message = "a scene has exactly two users, got 3"
        else:
            cp["sweep"]["values"] = "9"
            message = "separation 9.0 puts the users outside the room"
        with open(path, "w") as fh:
            cp.write(fh)
        argv = [command, "--scenario-file", str(path)]
        if command == "run":
            argv += ["--schemes", "rsma", "--snr", "20"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed scenario file {str(path)!r}: {message}\n"

    def test_repeated_scheme_in_file_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "scene.ini"
        save_scenario(catalog()["scenario1_2led"], str(path))
        text = path.read_text()
        assert "schemes = rsma sdma noma\n" in text
        path.write_text(text.replace("schemes = rsma sdma noma\n", "schemes = rsma rsma\n"))
        assert main(["run", "--scenario-file", str(path), "--snr", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed scenario file {str(path)!r}: scheme 'rsma' is listed twice\n"

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["run", "--scenario-file", str(tmp_path / "nope.ini")]) == 1


class TestChannelDump:
    def test_separation_scene_reads_each_users_height(self, tmp_path, capsys):
        # user 2 raised from the catalog's 0.8 m to 1.5 m changes its gains
        dumps = []
        for height in (0.8, 1.5):
            path = tmp_path / f"scene-{height}.ini"
            save_scenario(catalog()["separation_sweep_2led"], str(path))
            cp = configparser.ConfigParser()
            cp.read(path)
            cp["user 2"]["position"] = f"0.1 0.0 {height}"
            with open(path, "w") as fh:
                cp.write(fh)
            assert main(["channel-dump", "--scenario-file", str(path)]) == 0
            dumps.append(capsys.readouterr().out.splitlines())
        assert dumps[0][0] == dumps[1][0]
        assert dumps[0][2:] != dumps[1][2:]

    def test_symmetric_matrix_and_unit_noise(self, capsys):
        assert main(["channel-dump", "--scenario", "scenario1_2led"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("user")]
        assert len(lines) == 2
        g1 = lines[0].split("[")[1].split("]")[0].split()
        g2 = lines[1].split("[")[1].split("]")[0].split()
        assert g1 == g2[::-1]  # mirror users see swapped fixtures
        assert all(float(g) > 0 for g in g1)
        assert "noise 1.0" in lines[0]

    def test_physical_noise_mode(self, capsys):
        assert main(["channel-dump", "--scenario", "scenario1_2led", "--noise-mode", "physical"]) == 0
        out = capsys.readouterr().out
        noise = float(out.splitlines()[-1].split("noise")[1])
        assert 0 < noise < 1e-10


class TestValidate:
    ARGS = [
        "validate", "--mc-instances", "4", "--mc-symbols", "100000",
        "--oracle-instances", "2", "--oracle-resolution", "11",
    ]

    def test_default_checks_pass(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "validation PASSED" in out
        assert out.count("PASS") >= 10

    def test_seed_variation(self):
        for seed in (1, 2, 3):
            assert main(self.ARGS + ["--seed", str(seed)]) == 0

    def test_corrupted_sinr_formula_fails_suite(self, capsys, monkeypatch):
        real = signal_model.assemble_report

        def corrupted(channel, precoder, layout, **kwargs):
            report = real(channel, precoder, layout, **kwargs)
            return replace(report, sinr_private=1.1 * report.sinr_private)  # 10% bias

        monkeypatch.setattr(signal_model, "assemble_report", corrupted)
        assert main(self.ARGS) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_zeroed_private_mask_fails_monte_carlo(self, capsys, monkeypatch):
        # the Monte-Carlo interferers do not come from SicKernel, so a kernel
        # whose private stages see no other private stream fails them
        real = signal_model.SicKernel.__init__

        def corrupted(self, *args, **kwargs):
            real(self, *args, **kwargs)
            self._interferes = np.zeros_like(self._interferes)

        monkeypatch.setattr(signal_model.SicKernel, "__init__", corrupted)
        argv = ["validate", "--seed", "0", "--mc-instances", "6", "--mc-symbols", "100000", "--oracle-instances", "0"]
        assert main(argv) == 2
        verdicts = re.findall(r"^mc\[\d+\] user (\d) stream (\d): .* (PASS|FAIL)$", capsys.readouterr().out, re.M)
        assert len(verdicts) == 6
        assert any(stream == user and verdict == "FAIL" for user, stream, verdict in verdicts)

    def test_symbol_floor_passes_on_correct_formulas(self, capsys):
        argv = ["validate", "--seed", "0", "--mc-instances", "20", "--oracle-instances", "0"]
        assert main(argv + ["--mc-symbols", str(signal_model.MC_MIN_SYMBOLS)]) == 0
        assert "validation PASSED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",  # (command, an option it does not take)
        [("validate", o) for o in (
            ["--scenario", "scenario1_2led"],
            ["--scenario-file", "scene.ini"],
            ["--schemes", "rsma"],
            ["--snr", "20"],
            ["--noise-mode", "physical"],
            ["--delta", "0.1"],
            ["--max-iters", "1"],
            ["--restarts", "2"],
            ["--workers", "2"],
            ["--out", "val.txt"],
            ["--format", "csv"],
        )] + [("channel-dump", o) for o in (
            ["--out", "dump.csv"],
            ["--format", "json"],
            ["--seed", "5"],
            ["--workers", "3"],
            ["--schemes", "rsma"],
            ["--snr", "20"],
            ["--delta", "0.1"],
            ["--max-iters", "1"],
            ["--restarts", "2"],
        )],
    )
    def test_options_validate_would_ignore_exit_1(self, option, tmp_path, monkeypatch, capsys):
        command, given = option
        monkeypatch.chdir(tmp_path)
        base = self.ARGS if command == "validate" else ["channel-dump", "--scenario", "scenario1_2led"]
        assert main(base + given) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {command} does not take {given[0]}")
        assert list(tmp_path.iterdir()) == []

    def test_failed_solve_is_one_fail_line(self, capsys, monkeypatch):
        argv = ["validate", "--seed", "0", "--mc-instances", "0", "--oracle-instances", "2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out.splitlines()
        real_solve_schemes, real_ao_solve = scenarios.solve_schemes, scenarios.ao_solve
        failing = []  # the channel of the first NOMA instance

        def solve_schemes(points, *args):
            failing.append(next(ch for ch, _, wanted in points if wanted == ("noma",)))
            return real_solve_schemes(points, *args)

        def ao_solve(problems, *args, **kwargs):
            if any(p.channel is failing[0] and p.scheme == "noma" for p in problems):
                raise optimizer.NumericalFailure("non-finite surrogate value nan at the subproblem start")
            return real_ao_solve(problems, *args, **kwargs)

        monkeypatch.setattr(scenarios, "solve_schemes", solve_schemes)
        monkeypatch.setattr(scenarios, "ao_solve", ao_solve)
        assert main(argv) == 2
        printed = capsys.readouterr().out.splitlines()
        fail = "oracle[noma:00] solve failed: NumericalFailure: non-finite surrogate value nan at the subproblem start FAIL"
        # every other line, the other instances' checks included, is the one of a clean run
        assert printed == [fail if line.startswith("oracle[noma:00]") else line for line in clean[:-1]] + [
            "validation FAILED (1 checks)"
        ]

    def test_batched_solves_print_what_one_at_a_time_solves_print(self, capsys):
        assert main(["validate", "--seed", "0", "--mc-instances", "2", "--oracle-instances", "3"]) in (0, 2)
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("oracle[")]
        # the same draws, each instance solved on its own
        rng = np.random.default_rng(0)
        for _ in range(2):
            cli._random_instance(rng, epsilon=3.0)
        expected = []
        eps, cfg = optimizer.epsilon_from_snr(15.0, 1.0), AoConfig()
        for scheme in signal_model.SCHEMES:
            for i in range(3):
                ch = ChannelMatrix(gains=rng.uniform(0.2, 1.0, size=(2, 2)), noise=np.ones(2))
                rng.integers(1 << 31)  # validate spends one draw per instance
                sol = scenarios.solve_schemes([(ch, eps, (scheme,))], (0.5, 0.5), cfg)[0][scheme]
                oracle = optimizer.grid_oracle(ch, sol.layout, (0.5, 0.5), epsilon=eps)
                deviation = abs(sol.wsr - oracle) / max(oracle, 1e-12)
                expected.append(f"oracle[{scheme}:{i:02d}] ao {sol.wsr:.4f} grid {oracle:.4f} "
                                f"deviation {deviation:.3%} {'PASS' if deviation <= 0.05 else 'FAIL'}")
        assert printed == expected

    def test_output_does_not_depend_on_the_pool_size(self, capsys, monkeypatch):
        argv = ["validate", "--seed", "2", "--mc-instances", "5", "--mc-symbols", "100001", "--oracle-instances", "3"]
        code = main(argv)
        default = capsys.readouterr().out
        sizes = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: sizes.append(cpus) or set(range(cpus)))
            assert main(argv) == code
            assert capsys.readouterr().out == default
        assert sizes == [1, 4]

    def test_worker_exception_leaves_after_the_same_lines(self, capsys, monkeypatch):
        argv = ["validate", "--seed", "0", "--mc-instances", "2", "--oracle-instances", "2"]
        threads = threading.active_count()
        main(argv)
        clean = capsys.readouterr().out.splitlines()
        # the 5th call of a one-at-a-time pass is the one on the 5th oracle
        # instance (noma:00); under the pool the calls may start in any order
        rng = np.random.default_rng(0)
        for _ in range(2):
            cli._random_instance(rng, epsilon=3.0)
        for _ in range(5):
            fifth = rng.uniform(0.2, 1.0, size=(2, 2))
            rng.integers(1 << 31)
        real = optimizer.grid_oracle

        def grid_oracle(channel, *args, **kwargs):
            if np.array_equal(channel.gains, fifth):
                raise RuntimeError("oracle broke")
            return real(channel, *args, **kwargs)

        monkeypatch.setattr(optimizer, "grid_oracle", grid_oracle)
        with pytest.raises(RuntimeError, match="oracle broke"):
            main(argv)
        assert capsys.readouterr().out.splitlines() == clean[: clean.index(next(
            line for line in clean if line.startswith("oracle[noma:00]")))]
        assert threading.active_count() == threads

    def test_pool_threads_end_with_main(self):
        threads = threading.active_count()
        assert main(self.ARGS) == 0
        assert threading.active_count() == threads


class TestLayoutDecidedOnce:
    """Each problem's layout is built once, where the problem is made:
    one `build_layout` call per problem (and per Monte-Carlo instance of
    `validate`), wherever the package calls it from."""

    @staticmethod
    def spy(monkeypatch) -> list:
        real, calls = signal_model.build_layout, []

        def build_layout(scheme, channel):
            calls.append(scheme)
            return real(scheme, channel)

        for name, module in list(sys.modules.items()):
            if name.startswith("rsma_vlc") and getattr(module, "build_layout", None) is real:
                monkeypatch.setattr(module, "build_layout", build_layout)
        return calls

    def test_snr_sweep_pass(self, monkeypatch, tmp_path):
        calls = self.spy(monkeypatch)
        for scenario, snrs in (("scenario1_4led", "0,5,10,15,20,25"), ("scenario2_2led", "0,5,10,15,20,25,30,35,40")):
            argv = ["run", "--scenario", scenario, "--snr", snrs, "--seed", "0", "--workers", "1",
                    "--format", "json", "--out", str(tmp_path / f"{scenario}.json")]
            assert main(argv) == 0
        assert len(calls) == 3 * (6 + 9) == 45

    def test_validate_pass(self, monkeypatch, capsys):
        calls = self.spy(monkeypatch)
        assert main(["validate", "--seed", "0", "--mc-instances", "20", "--oracle-instances", "18"]) == 0
        # each of the 18 RSMA instances brings its SDMA and NOMA helpers
        assert len(calls) == 20 + 18 * 3 + 18 * 2 == 110


class TestConfigPlumbing:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("run", {"--scenario", "--scenario-file", "--schemes", "--snr", "--noise-mode", "--delta",
                     "--seed", "--workers", "--out", "--format"}),
            ("channel-dump", {"--scenario", "--scenario-file", "--noise-mode"}),
            ("validate", {"--seed", "--mc-instances", "--mc-symbols", "--oracle-instances",
                          "--oracle-resolution"}),
        ],
    )
    def test_help_lists_exactly_own_options(self, command, options, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == options | {"--help"}

    def test_workers_env_not_read(self, monkeypatch, capsys):
        # RSMA_VLC_WORKERS is no setting, and --workers takes only 1: the
        # sweep runs in one process
        monkeypatch.setenv("RSMA_VLC_WORKERS", "3")
        args = cli.build_parser().parse_args(["run", "--scenario", "scenario1_2led"])
        assert cli._config_from_args(args).workers == 1
        args = cli.build_parser().parse_args(["run", "--scenario", "scenario1_2led", "--workers", "2"])
        with pytest.raises(ConfigError, match="workers must be 1: the sweep runs in one process"):
            cli._config_from_args(args)
        monkeypatch.setenv("RSMA_VLC_WORKERS", "two")
        assert main(["run", "--scenario", "scenario1_2led", "--schemes", "sdma", "--snr", "10"]) == 0
        assert main(["run", "--scenario", "scenario1_2led", "--schemes", "sdma", "--snr", "10", "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", "scenario1_2led", "--schemes", "sdma", "--snr", "10", "--workers", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: workers must be 1: the sweep runs in one process, got 2\n"

    def test_import_loads_no_process_pool(self):
        # the sweep runs in one process, so the command line never needs
        # multiprocessing; a fresh interpreter shows what the import loads
        package = Path(cli.__file__).resolve().parents[1]
        code = ("import sys, rsma_vlc.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "[]\n"

    def test_bad_worker_counts_exit_1(self, capsys):
        for workers in ("-3", "0", "2"):
            assert main(["run", "--scenario", "scenario1_2led", "--workers", workers]) == 1
            assert "error: workers must be 1: the sweep runs in one process" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--mc-symbols", str(signal_model.MC_MIN_SYMBOLS - 1)],
            ["validate", "--oracle-resolution", str(ORACLE_RESOLUTIONS[-1] + 1)],
            ["validate", "--oracle-resolution", str(ORACLE_RESOLUTIONS[0] - 1)],
            ["validate", "--oracle-resolution", str(ORACLE_RESOLUTIONS[0] + 1)],
            RUN + ["--max-iters", "0"],
            RUN + ["--restarts", "0"],
            RUN + ["--delta", "-1"],
            ["run", "--scenario", "scenario1_2led", "--snr", "abc"],
            ["run", "--scenario", "scenario1_2led", "--snr", "5,,15"],
            ["validate", "--mc-instances", "-3", "--oracle-instances", "-2"],
            ["validate", "--oracle-instances", "-2"],
            ["validate", "--seed", "-1"],
            ["run", "--scenario", "scenario1_2led", "--seed", "-1"],
            # malformed values argparse itself rejects
            ["run", "--scenario", "scenario1_2led", "--seed", "abc"],
            ["run", "--scenario", "scenario1_2led", "--workers", "two"],
            ["run", "--scenario", "scenario1_2led", "--format", "xml"],
            ["run", "--scenario", "scenario1_2led", "--max-iters", "1.5"],
            ["run", "--scenario", "scenario1_2led", "--noise-mode", "loud"],
            # argparse takes nan as a float; AoConfig rejects it
            ["run", "--scenario", "scenario1_2led", "--delta", "nan"],
        ],
    )
    def test_bad_inputs_exit_1_before_output(self, argv, tmp_path, capsys):
        bad_snr = argv[-2:] in (["--snr", "abc"], ["--snr", "5,,15"])
        out = tmp_path / "rows.csv"
        if argv[0] == "run":  # validate writes no file and does not take --out
            argv = argv + ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if argv[0] == "validate":
            assert captured.err.startswith(f"error: {argv[1][2:]} must be")
        if bad_snr:
            assert captured.err.startswith("error: --snr ")
        assert not out.exists()

    def test_resolve_spec_builds_only_the_named_catalog_scene(self, monkeypatch):
        built = []
        spec_type = scenarios.ScenarioSpec
        monkeypatch.setattr(scenarios, "ScenarioSpec", lambda **kw: built.append(kw["name"]) or spec_type(**kw))
        for name, want in catalog().items():
            built.clear()
            got = cli._resolve_spec(RunConfig(scenario=name))
            assert built == [name]
            assert got == want
            for a, b in zip(got.fixtures + got.users, want.fixtures + want.users):
                assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))

    def test_unknown_scenario_lists_the_catalog(self, capsys):
        assert main(["channel-dump", "--scenario", "nope"]) == 1
        names = ", ".join(sorted(catalog()))
        assert capsys.readouterr().err == f"error: unknown scenario 'nope'; valid entries: {names}\n"

    def test_runconfig_validation(self, tmp_path, capsys):
        # a command that reads a scene needs exactly one of --scenario and
        # --scenario-file; validate reads none
        for command in ("run", "channel-dump"):
            for scene in ([], ["--scenario", "scenario1_2led", "--scenario-file", str(tmp_path / "x.ini")]):
                assert main([command, *scene]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: exactly one of --scenario / --scenario-file is required\n"
        assert cli._config_from_args(cli.build_parser().parse_args(["validate"])).scenario is None
        with pytest.raises(ConfigError):
            RunConfig(scenario="a", format="xml")

    def test_delta_below_the_polish_stop_converges(self, tmp_path):
        # the polish stops at the smaller of its own stop (1e-7) and the
        # tolerance; its own stop leaves this row at a residual of about
        # 9e-8, above this --delta
        out = tmp_path / "rows.json"
        argv = ["run", "--scenario", "scenario3_4led", "--schemes", "sdma", "--snr", "40", "--delta", "1e-8",
                "--format", "json", "--out", str(out)]
        assert optimizer._POLISH_GAP > 1e-8
        assert main(argv) == 0
        [row] = json.loads(out.read_text())
        assert row["converged"] and row["residual"] <= 1e-8

    def test_ao_overrides_reach_solver(self, tmp_path, monkeypatch):
        seen = []
        real = optimizer._solve_starts

        def solve_starts(comp, P, config):
            seen.append(config.tolerance)
            return real(comp, P, config)

        monkeypatch.setattr(optimizer, "_solve_starts", solve_starts)
        out = tmp_path / "rows.csv"
        code = main(RUN + ["--out", str(out), "--delta", "0.1"])
        assert code in (0, 2)  # a loose tolerance may stop before convergence
        assert out.exists()
        assert seen and set(seen) == {0.1}
        # a row counts its polish iterations
        iterations = [int(l.split(",")[7]) for l in out.read_text().splitlines()[1:]]
        assert all(i <= optimizer._POLISH_MAX_ITER for i in iterations)
