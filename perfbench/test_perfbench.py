"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Tiny runs of every workload in both modes, the names in BENCHMARK.json,
the output checks on hand-made outputs, the absence of wrappers in the
measuring process and the refusal to run outside a source checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from workloads import Call, Result, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(workload, trace):
    result = _last_json(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", str(trace), "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_calls():
    for name, w in workloads.WORKLOADS.items():
        assert w.calls(5, "full", "tmp") == w.calls(5, "full", "tmp"), name
    orders = {tuple(workloads.channel_dump_calls(seed, "full", "tmp")) for seed in range(3)}
    assert len(orders) == 3


def test_measuring_process_holds_no_wrapper(tmp_path):
    common = ("--workload", "channel_dump", "--seed", "1", "--seconds", "0", "--size", "tiny",
              "--tmp", str(tmp_path))
    measured = _last_json(_bench("--role", "measure", *common))
    assert measured["wrappers"] == []
    traced = _last_json(_bench("--role", "traced", *common))
    assert "rsma_vlc.cli.main" in traced["wrappers"]
    for caller in ("scenarios.ao_solve", "scenarios.fixture_gain", "scenarios.build_channel",
                   "cli.run_sweep", "cli.reference_gain", "cli.build_scene_channel"):
        assert f"rsma_vlc.{caller}" in traced["bindings"]


def test_refuses_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "snr_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=200)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _row(scheme, snr, wsr, converged=True, r1=None):
    r1 = wsr if r1 is None else r1
    return {"scheme": scheme, "sweep_value": snr, "wsr_bps_hz": wsr, "r1_bps_hz": r1,
            "r2_bps_hz": 2 * wsr - r1, "converged": converged}


def test_snr_check_counts_defects_and_rejects_a_wrong_wsr():
    calls = workloads.snr_sweep_calls(0, "tiny", "tmp")
    call = next(c for c in calls if "scenario2_2led" in c.argv)  # at 0 and 5 dB
    rows = [_row("rsma", 0.0, 2.0), _row("rsma", 5.0, 3.0),
            _row("sdma", 0.0, 2.0), _row("sdma", 5.0, 1.5, converged=False),
            _row("noma", 0.0, 2.5), _row("noma", 5.0, 2.9)]
    tally = Tally()
    workloads.snr_sweep_check(Result(call, 2, "", json.dumps(rows), 1.0), tally)
    assert (tally.ops, tally.ok, tally.failed, tally.problems) == (6, 5, 0, [])
    assert (tally.pairs, tally.pair_breaks) == (3, 1)  # sdma falls from 2.0 to 1.5
    assert (tally.points, tally.dominance_breaks) == (2, 1)  # rsma 2.0 < noma 2.5 at 0 dB

    rows[0]["r1_bps_hz"] += 0.1  # the WSR no longer equals the mean user rate
    tally = Tally()
    workloads.snr_sweep_check(Result(call, 2, "", json.dumps(rows), 1.0), tally)
    assert len(tally.problems) == 1

    tally = Tally()
    workloads.snr_sweep_check(Result(call, 2, "", json.dumps(rows[:-1]), 1.0), tally)
    assert tally.failed == 6 and tally.problems


def test_validate_check_counts_fail_lines():
    call = workloads.validate_calls(0, "tiny", "tmp")[0]
    stdout = "\n".join([
        "mc[00] user 0 stream 2: deviation 3.1% FAIL",
        "oracle[rsma:00] ao 3.1741 grid 3.1741 deviation 0.000% PASS",
        "oracle[sdma:00] ao 2.7892 grid 2.7892 deviation 0.000% PASS",
        "oracle[noma:00] ao 3.1804 grid 3.1804 deviation 0.000% PASS",
        "validation FAILED (1 checks)",
    ])
    tally = Tally()
    workloads.validate_check(Result(call, 2, stdout, None, 1.0), tally)
    assert (tally.ops, tally.ok, tally.solved, tally.problems) == (4, 3, 3, [])
    assert tally.wsr == [3.1741, 2.7892, 3.1804]
    tally = Tally()
    workloads.validate_check(Result(call, 0, stdout, None, 1.0), tally)
    assert tally.problems  # exit 0 despite a FAIL line


def test_channel_dump_check_rejects_a_zero_gain():
    call = Call(("channel-dump", "--scenario", "scenario1_2led", "--noise-mode", "unit"))
    head = ["# scenario scenario1_2led: 2 users x 2 fixtures",
            "# noise_mode unit, gain reference 0.0166"]
    good = head + ["user 1: gains [2.6e-02 2.4e-02]  noise 1.0",
                   "user 2: gains [2.4e-02 2.6e-02]  noise 1.0"]
    tally = Tally()
    workloads.channel_dump_check(Result(call, 0, "\n".join(good), None, 1.0), tally)
    assert (tally.ops, tally.ok, tally.problems) == (1, 1, [])
    assert tally.wsr[0] > 0
    bad = good[:-1] + ["user 2: gains [0.000000e+00 2.6e-02]  noise 1.0"]
    tally = Tally()
    workloads.channel_dump_check(Result(call, 0, "\n".join(bad), None, 1.0), tally)
    assert (tally.ops, tally.ok) == (1, 0)
