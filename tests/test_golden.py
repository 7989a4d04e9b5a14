"""Golden outputs: the rows of the paper's main figure, a validate pass
and the channel-dump of every catalog scene.

tests/golden_outputs.json holds, per command, its argument list, its
exit code and its output (the JSON rows of a `run`, the stdout lines of
`validate` and `channel-dump`); `tools/regen_golden.py` writes it. Each
test replays one command: floats must agree to 1e-9, and integers,
booleans, strings and the printed lines exactly.
"""

import json
import math
from pathlib import Path

import pytest

from rsma_vlc.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
FLOAT_TOL = 1e-9


def _mismatches(got, want, where="") -> list:
    """Where `got` differs from `want`: floats beyond FLOAT_TOL, anything else at all."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if type(got) is float and math.isfinite(got) and abs(got - want) <= FLOAT_TOL:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path, capsys):
    want = GOLDEN[name]
    argv = want["argv"]
    out = tmp_path / "rows.json"
    code = main(argv + ["--out", str(out)] if argv[0] == "run" else argv)
    got = {"argv": argv, "exit": code}
    if argv[0] == "run":
        got["rows"] = json.loads(out.read_text())
    else:
        got["stdout"] = capsys.readouterr().out.splitlines()
    assert _mismatches(got, want) == []


def test_comparison_rules():
    assert _mismatches({"a": [1.0, True, 2]}, {"a": [1.0 + 5e-10, True, 2]}) == []
    assert _mismatches([1.0 + 2e-9], [1.0]) != []
    assert _mismatches([1], [True]) != [] and _mismatches([1.0], [1]) != []
    assert _mismatches(["x"], ["y"]) != [] and _mismatches({"a": 1}, {"b": 1}) != []
