#!/usr/bin/env python3
"""Regenerate the golden outputs that tests/test_golden.py pins, or check
that the code still reproduces them exactly.

    PYTHONPATH=src python3 tools/regen_golden.py
    PYTHONPATH=src python3 tools/regen_golden.py --check

Run it from the root of a source checkout. It runs each command of
COMMANDS through `rsma_vlc.cli.main` in-process and writes
tests/golden_outputs.json: per command its argument list, its exit code
and either the JSON rows `run` writes (to a temporary `--out` file) or
the lines `validate` and `channel-dump` print. The test replays the
stored argument lists, so this table is their one definition. A change that moves results on
purpose regenerates the file and lists the moved rows, or the largest
move, in CHANGES.md.

`--check` writes nothing. It re-runs every command and compares its
entry with the stored one exactly, as JSON text: every float must be
equal, not within the test's 1e-9. It prints the commands whose output
moved and exits 1 if any did, 0 otherwise. This is the check of a change
meant to leave every output byte-identical. It is not part of CI:
exact equality across BLAS and numpy builds is not promised, which is
why the test allows 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from rsma_vlc import cli
from rsma_vlc.scenarios import CATALOG_NAMES

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "golden_outputs.json"


def _run(scenario: str, snr: str, *extra: str) -> list:
    return ["run", "--scenario", scenario, "--snr", snr, *extra, "--seed", "0", "--workers", "1", "--format", "json"]


FULL = "0,5,10,15,20,25,30,35,40"

# the rows of the paper's main figure (the benchmark's snr_sweep), the
# other catalog SNR sweeps, NOMA under unequal per-user noise (physical
# noise on scenario3_4led), a separation sweep whose problems each have
# their own channel, the validate pass the benchmark runs, and the
# channel-dump of every catalog scene in both noise modes (the benchmark's
# channel_dump), whose lines pin the channel layer's printed output
COMMANDS = {
    "scenario2_2led": _run("scenario2_2led", FULL),
    "scenario1_4led": _run("scenario1_4led", FULL),
    "scenario2_4led": _run("scenario2_4led", FULL),
    "scenario3_4led": _run("scenario3_4led", FULL),
    "scenario1_2led": _run("scenario1_2led", FULL),
    "scenario3_4led_physical": _run("scenario3_4led", FULL, "--noise-mode", "physical"),
    "separation_sweep_2led": _run("separation_sweep_2led", "20", "--schemes", "rsma,sdma,noma"),
    "validate": ["validate", "--seed", "0", "--mc-instances", "20", "--oracle-instances", "18"],
    **{
        f"channel_dump_{scene}_{mode}": ["channel-dump", "--scenario", scene, "--noise-mode", mode]
        for scene in CATALOG_NAMES
        for mode in ("unit", "physical")
    },
}


def record(argv: list) -> dict:
    """argv, exit code and output of one command: the rows of a `run`, the stdout lines otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--out", out] if argv[0] == "run" else argv)
        entry = {"argv": argv, "exit": code}
        if argv[0] == "run":
            with open(out) as fh:
                entry["rows"] = json.load(fh)
        else:
            entry["stdout"] = stdout.getvalue().splitlines()
    return entry


def _text(entry) -> str:
    return json.dumps(entry, sort_keys=True)


def check() -> int:
    """Re-run COMMANDS against the stored file; print what moved, return the exit code."""
    stored = json.loads(OUT.read_text())
    moved = sorted(set(stored) ^ set(COMMANDS))
    moved += [name for name, argv in COMMANDS.items()
              if name in stored and _text(record(argv)) != _text(stored[name])]
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(COMMANDS) - len(moved)} of {len(COMMANDS)} commands match {OUT.relative_to(ROOT)} exactly")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare every command with the stored outputs exactly; write nothing")
    if parser.parse_args(argv).check:
        return check()
    golden = {name: record(argv) for name, argv in COMMANDS.items()}
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
