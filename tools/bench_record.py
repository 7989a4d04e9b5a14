#!/usr/bin/env python3
"""Record this checkout's benchmark in one JSON file.

    python3 tools/bench_record.py --out BENCH_12.json
    python3 tools/bench_record.py --size tiny --runs 1 --seconds 1 --out /tmp/bench.json

Run it from the root of a source checkout; it needs only the
standard library (the benchmark itself needs numpy). For every workload
of BENCHMARK.json it runs `perfbench/run.py` `--runs` times with
`--trace 0` (seeds 1, 2, ...) and once with `--trace 1` (seed 1). The
file it writes holds the environment, the median and first and third
quartiles of every end-to-end metric per workload, and the traced
per-layer values. It then prints each figure's change against the
newest other `BENCH_*.json` at the repository root.

`wsr_mean_bps_hz` is compared with a relative tolerance of 1e-12: on
channel_dump its last digit depends on how many passes fit into a run.

Exits 1, writing nothing, if a run fails, reports an incorrect result or
lacks a metric that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 400.0
WSR_REL_TOL = 1e-12


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero, printed no result or was incorrect."""


def run_bench(command: list, workload: str, seed: int, seconds: float, size: str, trace: int):
    """One perfbench run; returns (its result object, its environment line)."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
                      "--size", size, "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{' '.join(argv)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        problems = [ln for ln in lines if ln.startswith("# problem:")]
        raise RunFailed(f"{' '.join(argv)} is not correct:\n" + "\n".join(problems))
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    return result, env


def summary(values: list) -> dict:
    """Median and first and third quartiles of one metric over the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(bench: dict, runs: int, seconds: float, size: str) -> dict:
    command = [sys.executable] + bench["command"][1:]
    workloads, env = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        samples = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        for seed in range(1, runs + 1):
            result, env = run_bench(command, workload, seed, seconds, size, trace=0)
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed}: ops_per_s {result['metrics']['ops_per_s']['value']:.4g}",
                  file=sys.stderr)
        traced, _ = run_bench(command, workload, 1, seconds, size, trace=1)
        missing = [name for name, values in samples.items() if len(values) != runs]
        missing += [m["name"] for m in bench["per_layer"] if m["name"] not in traced["metrics"]]
        if missing:
            raise RunFailed(f"{workload}: no value for {', '.join(missing)}")
        workloads[workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {name: {"unit": result["metrics"][name]["unit"], **summary(values)}
                           for name, values in samples.items()},
            "per_layer": traced["metrics"],
        }
    environment = {key: env.get(key) for key in ("python", "numpy", "nproc", "cpu", "commit")}
    environment.update(runs=runs, seconds=seconds, size=size)
    return {"environment": environment, "workloads": workloads}


def newest_record(exclude: Path) -> Path | None:
    numbered = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and path.resolve() != exclude.resolve():
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


def _same(name: str, old: float, new: float) -> bool:
    if name == "wsr_mean_bps_hz":
        return math.isclose(old, new, rel_tol=WSR_REL_TOL, abs_tol=0.0)
    return old == new


def print_deltas(old: dict, new: dict, bench: dict) -> None:
    better = {m["name"]: m.get("better") for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, rec in new["workloads"].items():
        before = old.get("workloads", {}).get(workload)
        if before is None:
            print(f"{workload}: not in the older record")
            continue
        rows = [(name, before["end_to_end"].get(name, {}).get("median"), m["median"])
                for name, m in rec["end_to_end"].items()]
        rows += [(name, before["per_layer"].get(name, {}).get("value"), m["value"])
                 for name, m in rec["per_layer"].items()]
        for name, was, now in rows:
            if was is None:
                change = "new"
            elif _same(name, was, now):
                change = "="
            elif was:
                change = f"{now / was:.3f}x ({better.get(name)} is better)"
            else:
                change = f"from 0 ({better.get(name)} is better)"
            was = "-" if was is None else format(was, ".6g")
            print(f"{workload:13s} {name:46s} {was:>12} -> {now:<12.6g} {change}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path, help="file to write, e.g. BENCH_12.json")
    p.add_argument("--runs", type=int, default=5, help="--trace 0 runs per workload (default 5)")
    p.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        rec = record(bench, args.runs, seconds, args.size)
    except RunFailed as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    older = newest_record(args.out)
    args.out.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {args.out}")
    if older is None:
        print("no earlier BENCH_*.json to compare with")
    else:
        print(f"changes against {older.name}:")
        print_deltas(json.loads(older.read_text()), rec, bench)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
