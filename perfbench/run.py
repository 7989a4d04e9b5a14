#!/usr/bin/env python3
"""Benchmark of the rsma-vlc command line, end to end or layer by layer.

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
the checkout's `src/` directory and driven only through
`rsma_vlc.cli.main`, called in-process. The last line of standard
output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. Five fresh interpreters
each import the program and build the workload's argument lists, and
`setup_s` is the median of their start-to-ready times and that of the
measuring process. The measuring process then repeats whole passes of
the workload while the next one fits in `--seconds` (at least one);
`ops_per_s` is the operations of a pass over the median pass time.

`--trace 1` reports per-layer metrics: one untraced pass and one traced
pass, each in its own fresh process. Only the traced process wraps the
program's functions (see tracing.py). Work is split into child
processes of this script (`--role`), all waited for before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, Result, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_PROBES = 5
RUN_LIMIT_S = 175.0  # a whole run, children included, ends within this
READY = "perfbench-ready"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "wsr_mean_bps_hz": "b/s/Hz",
    "snr_monotone_frac": "ratio",
    "rsma_dominance_frac": "ratio",
}
PER_LAYER = {
    "optimizer.ao_solve.calls": "count",
    "optimizer.ao_solve.s": "s",
    "optimizer.ao_solve.self_s": "s",
    **{f"optimizer.ao_solve.{scheme}.s_{q}": "s"
       for scheme in ("rsma", "sdma", "noma") for q in ("p50", "p90")},
    "optimizer.ao_solve.useful_ratio": "ratio",
    "optimizer.project_rows_l1.calls": "count",
    "optimizer.project_rows_l1.s": "s",
    "optimizer.grid_oracle.calls": "count",
    "optimizer.grid_oracle.s": "s",
    "signal_model.monte_carlo_sinr.calls": "count",
    "signal_model.monte_carlo_sinr.s": "s",
    "signal_model.monte_carlo_sinr.mbytes_computed": "MB",
    "signal_model.assemble_report.calls": "count",
    "signal_model.assemble_report.s": "s",
    "signal_model.build_layout.calls": "count",
    "channel.fixture_gain.calls": "count",
    "channel.fixture_gain.s": "s",
    "channel.build_channel.calls": "count",
    "channel.build_channel.s": "s",
    "scenarios.reference_gain.calls": "count",
    "scenarios.reference_gain.s": "s",
    "scenarios.build_scene_channel.calls": "count",
    "scenarios.build_scene_channel.s": "s",
    "scenarios.run_sweep.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no report."""


# --------------------------------------------------------------------------
# child side: set up, run passes, report
# --------------------------------------------------------------------------


def _set_up(args):
    """Import the program and build the workload's calls, then signal readiness."""
    sys.path.insert(0, str(SRC))
    from rsma_vlc import cli

    calls = WORKLOADS[args.workload].calls(args.seed, args.size, args.tmp)
    print(READY, flush=True)
    return cli, calls


def _run_pass(cli, calls) -> list:
    results = []
    for call in calls:
        out = io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(call.argv))
            except Exception as exc:  # a crash is a failed call, not a benchmark error
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        output = None
        if call.out and os.path.exists(call.out):
            with open(call.out) as fh:
                output = fh.read()
            os.remove(call.out)
        results.append(Result(call, rc, out.getvalue(), output, seconds, error))
    return results


def _digest(results: list) -> str:
    blob = json.dumps([[list(r.call.argv), r.rc, r.stdout, r.output] for r in results])
    return hashlib.sha256(blob.encode()).hexdigest()


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def child_main(args) -> int:
    tracer = None
    cli, calls = _set_up(args)
    if args.role == "setup":
        return 0
    if args.role == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    check = WORKLOADS[args.workload].check
    tally = Tally()
    walls, digests = [], []
    start = time.perf_counter()
    while True:
        results = _run_pass(cli, calls)
        walls.append(sum(r.seconds for r in results))
        digests.append(_digest(results))
        for r in results:
            check(r, tally)
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break
    if len(set(digests)) > 1:
        tally.problems.append("identical passes printed different outputs")
    import numpy

    report = {
        "walls": walls,
        "ops": tally.ops,
        "ok": tally.ok,
        "failed": tally.failed,
        "quality": tally.quality(),
        "problems": tally.problems,
        "digest": digests[0],
        "peak_rss_mb": _peak_rss_mb(),
        "wrappers": tracing.wrapped_names(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(tally.solved // len(walls))
        report["layer_calls"] = tracer.calls
        report["bindings"] = tracer.bindings
    print(json.dumps(report))
    return 0


# --------------------------------------------------------------------------
# parent side: spawn children, combine their reports
# --------------------------------------------------------------------------


def _spawn(role: str, args, seconds: float):
    """Run one child; returns (seconds from spawn to ready, report or None)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--size", args.size,
           "--tmp", args.tmp]
    err_path = os.path.join(args.tmp, f"{role}.stderr")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, text=True, cwd=ROOT)
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{role} child timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != READY or proc.returncode != 0:
        with open(err_path) as fh:
            raise ChildFailed(f"{role} child exited {proc.returncode}:\n{fh.read()}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _environment(numpy_version: str) -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def untraced_run(args) -> dict:
    setup = [_spawn("setup", args, 0.0)[0] for _ in range(SETUP_PROBES)]
    ready_s, m = _spawn("measure", args, args.seconds)
    setup.append(ready_s)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": m["ops"] / len(m["walls"]) / statistics.median(m["walls"]),
        "peak_rss_mb": m["peak_rss_mb"],
        **m["quality"],
    }
    problems = m["problems"] + [f"wrapper in the measuring process: {w}" for w in m["wrappers"]]
    print(f"# passes {len(m['walls'])}, wall {sum(m['walls']):.3f} s, setup samples "
          + " ".join(f"{s:.3f}" for s in setup))
    return _result(args, m, problems, {k: values[k] for k in END_TO_END}, END_TO_END)


def traced_run(args) -> dict:
    _, plain = _spawn("measure", args, 0.0)
    _, traced = _spawn("traced", args, 0.0)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = sum(traced["walls"]) / sum(plain["walls"]) - 1.0
    idle = [f for f in WORKLOADS[args.workload].traced_layers if traced["layer_calls"][f] == 0]
    if idle:
        raise ChildFailed(f"traced run made no calls to {', '.join(idle)}: a wrapper is not bound")
    problems = plain["problems"] + traced["problems"]
    problems += [f"wrapper in the untraced process: {w}" for w in plain["wrappers"]]
    if traced["digest"] != plain["digest"]:
        problems.append("traced pass printed different outputs than the untraced pass")
    print(f"# untraced wall {sum(plain['walls']):.3f} s, traced wall {sum(traced['walls']):.3f} s, "
          f"bindings {' '.join(traced['bindings'])}")
    return _result(args, plain, problems, {k: layers[k] for k in PER_LAYER}, PER_LAYER)


def _result(args, report: dict, problems: list, values: dict, units: dict) -> dict:
    env = _environment(report["numpy"])
    print("# env " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "size": args.size}))
    for p in problems:
        print(f"# problem: {p}")
    return {
        "correct": not problems,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def parent_main(args) -> int:
    if not (SRC / "rsma_vlc" / "cli.py").is_file():
        print(f"perfbench: no rsma_vlc source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a terminated benchmark still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args.deadline = time.monotonic() + RUN_LIMIT_S
    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    args.tmp = str(tmp)
    try:
        result = traced_run(args) if args.trace else untraced_run(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long pass, for the benchmark's own tests")
    p.add_argument("--role", choices=("main", "setup", "measure", "traced"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--tmp", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    return parent_main(args) if args.role == "main" else child_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
