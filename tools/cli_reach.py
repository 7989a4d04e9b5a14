#!/usr/bin/env python3
"""List the code of `src/` that no command of the CLI reaches.

    PYTHONPATH=src python3 tools/cli_reach.py

Run it from the root of a source checkout; it takes no options and
needs only the standard library (the program itself needs numpy). It
runs these commands in this process through `rsma_vlc.cli.main` under a
line tracer (`sys.settrace`, and `threading.settrace` for `validate`'s
pool threads) limited to the files of `src/`:

* every command of `regen_golden.COMMANDS`, the ones the golden outputs
  pin and the benchmark runs: `run` on the five catalog SNR scenes (with
  `--snr`, `--format json` and `--workers 1`; scenario3_4led under physical
  noise too) and on the separation sweep at `--snr 20` with all three
  schemes, the benchmark's `validate` pass, and `channel-dump` of all six
  catalog scenes under unit and physical noise. Each `run` writes its
  rows to an `--out` file, as `regen_golden.record` has it;
* `run --scenario-file` of a scene saved by `cli.save_scenario` (the
  save itself is not traced: no command saves a scene).

It then prints every function that no command called and every
statement inside a called function that no command reached, file by
file in line order. A `raise` statement is left out (boundary checks
are reached by tests, not by well-formed commands), as are docstrings
and module-level statements, which run on import. The commands draw
only seeded numbers, so the listing is the same on every run.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

from regen_golden import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def commands(out: str, scene_file: str) -> list:
    """The argument lists of every traced command, in the order they run:
    COMMANDS, each `run` writing to the file `out`, then the saved scene's run."""
    return (
        [argv + ["--out", out] if argv[0] == "run" else argv for argv in COMMANDS.values()]
        + [["run", "--scenario-file", scene_file, "--seed", "0", "--workers", "1"]]
    )


class Reach:
    """The code objects called and the lines run in `src/` files."""

    def __init__(self):
        self.prefix = str(SRC) + "/"
        self.called: set = set()  # (file, first line)
        self.lines: set = set()  # (file, line)

    def trace(self, frame, event, arg):
        file = frame.f_code.co_filename
        if not file.startswith(self.prefix):
            return None
        self.called.add((file, frame.f_code.co_firstlineno))
        self.lines.add((file, frame.f_lineno))
        return self.local

    def local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local


def _executable(code) -> set:
    """Every line that some code object nested in `code` can run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, function node) of every def, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node
            yield from _functions(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _own_statements(function: ast.AST):
    """Every statement of a function's body, compound ones included, but
    not those of the functions and classes it defines, nor its docstring."""
    body = list(function.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    stack = body[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        children = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        for handler in getattr(node, "handlers", ()):
            children += handler.body
        stack += children[::-1]


def unreached(reach: Reach) -> list:
    """The report's lines: each unreached function and statement."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        file, source = str(path), path.read_text()
        executable = _executable(compile(source, file, "exec"))
        text = source.splitlines()
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for name, node in _functions(ast.parse(source, file)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (file, first) not in reach.called:
                out.append(f"{module}:{node.lineno} function {name}")
                continue
            for stmt in _own_statements(node):
                if isinstance(stmt, ast.Raise):
                    continue
                # a statement's own lines: its header, without the lines of
                # the statements it holds
                inner = {line for child in ast.walk(stmt) if child is not stmt and isinstance(child, ast.stmt)
                         for line in range(child.lineno, child.end_lineno + 1)}
                own = set(range(stmt.lineno, stmt.end_lineno + 1)) - inner
                if own & executable and not any((file, line) in reach.lines for line in own):
                    out.append(f"{module}:{stmt.lineno} in {name}: {text[stmt.lineno - 1].strip()}")
    return out


def main() -> int:
    reach = Reach()
    with tempfile.TemporaryDirectory() as tmp:
        from rsma_vlc import cli
        from rsma_vlc.scenarios import catalog_scene

        scene_file = str(Path(tmp) / "scene.ini")
        cli.save_scenario(catalog_scene("scenario1_2led"), scene_file)
        sink = io.StringIO()
        threading.settrace(reach.trace)
        sys.settrace(reach.trace)
        try:
            for argv in commands(str(Path(tmp) / "rows.json"), scene_file):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                if code != 0:
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    return 1
        finally:
            sys.settrace(None)
            threading.settrace(None)
    listing = unreached(reach)
    print(f"# unreached by {len(commands('', ''))} commands: {len(listing)} functions and statements")
    print("\n".join(listing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
