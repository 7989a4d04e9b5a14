#!/usr/bin/env python3
"""Record the WSR floors of the seeded random-problem suite.

    PYTHONPATH=src python3 tools/random_floors.py

Run it from the root of a source checkout. It draws COUNT two-user
problems from `numpy.random.default_rng(SEED)`: problem i has 2 fixtures
if i is even and 4 if odd, gains U(0.05, 1), per-user noise U(0.5, 2),
priorities (w1, 1 - w1) with w1 U(0.1, 0.9), and an SNR U(0, 40) dB,
turned into the amplitude budget as the sweeps do (`epsilon_from_snr`
with the noise's root mean square). Each problem is solved by one
`scenarios.solve_schemes` call for SDMA, NOMA and RSMA under the default
`AoConfig`, and tests/data/random_floors.json gets the problem, each
scheme's WSR as its floor, and each scheme's `converged` flag.

The test (`tests/test_optimizer.py`, `TestRandomProblems`) reads the
problems from the file, so it does not depend on the generator's stream.
A floor only rises: record it from a commit whose rows the suite is to
hold, and say in CHANGES.md which commit that was.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rsma_vlc.channel import ChannelMatrix
from rsma_vlc.optimizer import AoConfig, epsilon_from_snr
from rsma_vlc.scenarios import solve_schemes

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "random_floors.json"
SEED, COUNT = 18, 100
SCHEMES = ("sdma", "noma", "rsma")


def draw(seed: int = SEED, count: int = COUNT) -> list:
    """The suite's problems: gains, noise, w1 and SNR (dB) of each."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        gains = rng.uniform(0.05, 1.0, size=(2, 4 if i % 2 else 2))
        noise = rng.uniform(0.5, 2.0, size=2)
        problems.append({"gains": gains.tolist(), "noise": noise.tolist(),
                         "w1": float(rng.uniform(0.1, 0.9)), "snr_db": float(rng.uniform(0.0, 40.0))})
    return problems


def solve(problem: dict) -> dict:
    """{scheme: Solution} of one suite problem, every scheme in one call."""
    noise = np.array(problem["noise"])
    channel = ChannelMatrix(gains=np.array(problem["gains"]), noise=noise)
    epsilon = epsilon_from_snr(problem["snr_db"], float(np.sqrt(np.mean(noise))))
    [solved] = solve_schemes([(channel, epsilon, SCHEMES)], (problem["w1"], 1.0 - problem["w1"]), AoConfig())
    return solved


def main() -> int:
    rows = []
    for problem in draw():
        solved = solve(problem)
        rows.append({**problem, "floor": {s: solved[s].wsr for s in SCHEMES},
                     "converged": {s: solved[s].converged for s in SCHEMES}})
    note = (f"The seeded random-problem suite (tools/random_floors.py, seed {SEED}): each problem's "
            "SDMA, NOMA and RSMA WSR and converged flag as one solve_schemes call reported them. "
            "A row may only rise above its floor, and no fewer rows may converge.")
    OUT.write_text(json.dumps({"note": note, "problems": rows}, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {len(rows)} problems")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
