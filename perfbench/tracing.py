"""Per-layer tracing for the benchmark's traced run.

The traced run wraps public functions of the rsma_vlc modules from
outside the package. Each wrapper is bound wherever a module of the
package holds the original function object, so callers that imported
the name (``scenarios.ao_solve``, ``cli.run_sweep``) reach it as well as
callers that resolve it in the defining module. Only the traced run
calls `Tracer.install`; the process that measures end-to-end metrics
never does, and `wrapped_names` lets it prove that.

For every wrapped function the tracer keeps the call count, inclusive
seconds (outermost calls only, so recursion is not counted twice) and
self seconds (duration minus the time covered by wrapped child calls).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

# module -> public functions wrapped in the traced run
LAYERS = {
    "channel": ("fixture_gain", "build_channel"),
    "signal_model": ("build_layout", "assemble_report", "monte_carlo_sinr"),
    "optimizer": ("ao_solve", "project_rows_l1", "grid_oracle"),
    "scenarios": ("reference_gain", "build_scene_channel", "run_sweep"),
    "cli": ("main",),
}
SCHEMES = ("rsma", "sdma", "noma")
MARK = "__perfbench_layer__"
PACKAGE = "rsma_vlc"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def wrapped_names() -> list:
    """Every `module.attribute` of the package that holds a tracing wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, value in vars(m).items() if hasattr(value, MARK)]


def _mc_bytes(bound: inspect.BoundArguments) -> int:
    """Bytes of the arrays one monte_carlo_sinr call allocates, from their sizes.

    Symbol indices and symbols (2 N S), the interferer gather (N I),
    noise, signal, disturbance and the two squared arrays (5 N), at 8
    bytes per element. Computed, not measured: cache traffic is ignored.
    """
    a = bound.arguments
    n = int(a["num_symbols"])
    streams = a["precoder"].num_streams
    desc = a["layout"].streams[a["stream"]]
    private = len(a["layout"].private_columns)
    interferers = private if desc.kind == "common" else private - 1
    return 8 * n * (2 * streams + interferers + 5)


class Tracer:
    """In-memory per-function counters filled by the installed wrappers."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list] = {}  # "optimizer.ao_solve.<scheme>" -> seconds
        self.bytes_computed: dict[str, int] = {}
        self.bindings: list[str] = []
        self._children: list[float] = []  # wrapped-child seconds of each open call
        self._depth: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.inclusive[name] = 0.0
        self.self_time[name] = 0.0
        self._depth[name] = 0
        sig = inspect.signature(fn)
        if name == "optimizer.ao_solve":
            def tag(args, kwargs):
                layout = sig.bind(*args, **kwargs).arguments["layout"]
                return f"{name}.{layout.scheme}"
        else:
            tag = None
        if name == "signal_model.monte_carlo_sinr":
            self.bytes_computed[name] = 0

            def count_bytes(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.bytes_computed[name] += _mc_bytes(bound)
        else:
            count_bytes = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = self._children.pop()
                self._depth[name] -= 1
                if self._children:
                    self._children[-1] += dur
                self.calls[name] += 1
                if self._depth[name] == 0:
                    self.inclusive[name] += dur
                self.self_time[name] += dur - children
                if tag is not None:
                    self.durations.setdefault(tag(args, kwargs), []).append(dur)
                if count_bytes is not None:
                    count_bytes(args, kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYERS and bind it wherever the package holds it."""
        for module_name in LAYERS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = _package_modules()
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self.bindings.append(f"{m.__name__}.{attr}")

    def metrics(self, operations_using_a_solve: int) -> dict:
        """Per-layer figures named `<module>.<function>.<stat>` (values only)."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for scheme in SCHEMES:
            durations = self.durations.get(f"optimizer.ao_solve.{scheme}", [])
            out[f"optimizer.ao_solve.{scheme}.s_p50"] = _percentile(durations, 50)
            out[f"optimizer.ao_solve.{scheme}.s_p90"] = _percentile(durations, 90)
        solves = self.calls["optimizer.ao_solve"]
        out["optimizer.ao_solve.useful_ratio"] = operations_using_a_solve / solves if solves else 0.0
        mc = "signal_model.monte_carlo_sinr"
        out[f"{mc}.mbytes_computed"] = self.bytes_computed[mc] / 1e6
        return out


def _percentile(values: list, q: int) -> float:
    """Interpolated percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
