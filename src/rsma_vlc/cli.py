"""Command-line front end: scenario runs, channel dumps, validation.

Commands and the options each takes (any other option exits 1):
  run           solve a scene's sweep, print CSV rows, write CSV/JSON rows
                --scenario NAME or --scenario-file PATH, --schemes, --snr,
                --noise-mode, --delta (the residual at which a solution
                counts as converged), --seed (only written to the seed
                column: the solver draws no random numbers), --workers
                (RSMA_VLC_WORKERS when not given), --out, --format
  channel-dump  print the gain matrix and noise vector of a scene
                --scenario NAME or --scenario-file PATH, --noise-mode
  validate      Monte-Carlo SINR checks and brute-force oracle cross-checks
                --seed, --mc-instances, --mc-symbols, --oracle-instances,
                --oracle-resolution
An option not given takes its RunConfig default, or the scene's own value.

Scenario files are INI files with sections [scenario], [sweep], [ao] and
one [fixture i] / [user i] per fixture and user (save_scenario writes
them). Each key is a field name of ScenarioSpec, Sweep, AoConfig, Fixture
or Receiver; a missing key takes the field's default and an unknown key
is ignored. The fields without a default (each position, the sweep's name
and values) are required; name defaults to the file's basename. Vectors
and lists are space-separated.

Exit codes: 0 full success (and -h), 1 configuration errors (an unknown
option, a malformed value, an unusable setting), 2 partial solver or
validation failures. Output files are written atomically (temp file
then rename), so a file exists only for completed runs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import optimizer, scenarios, signal_model
from .channel import ChannelMatrix, Fixture, Receiver
from .optimizer import ORACLE_RESOLUTIONS, AoConfig
from .scenarios import ScenarioSpec, Sweep, build_scene_channel, catalog, reference_gain, run_sweep

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_scenario",
    "save_scenario",
    "cmd_run",
    "cmd_channel_dump",
    "cmd_validate",
    "main",
]

CSV_HEADER = (
    "scheme,sweep_name,sweep_value,wsr_bps_hz,r1_bps_hz,r2_bps_hz,"
    "r_common_cap,iterations,converged,seed"
)


class ConfigError(Exception):
    """Unusable configuration; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved command-line options for one invocation."""

    scenario: str | None = None
    scenario_file: str | None = None
    schemes: tuple | None = None
    snr: tuple | None = None
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    noise_mode: str | None = None
    tolerance: float | None = None
    workers: int = 1
    mc_instances: int = 20
    mc_symbols: int = 1_000_000
    oracle_instances: int = 20
    oracle_resolution: int = 21

    def __post_init__(self):
        if (self.scenario is None) == (self.scenario_file is None):
            raise ConfigError("exactly one of --scenario / --scenario-file is required")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.mc_instances < 0:
            raise ConfigError(f"mc-instances must be >= 0, got {self.mc_instances}")
        if self.oracle_instances < 0:
            raise ConfigError(f"oracle-instances must be >= 0, got {self.oracle_instances}")
        if self.mc_symbols < signal_model.MC_MIN_SYMBOLS:
            raise ConfigError(f"mc-symbols must be >= {signal_model.MC_MIN_SYMBOLS}, got {self.mc_symbols}")
        if self.oracle_resolution not in ORACLE_RESOLUTIONS:
            lo, hi = ORACLE_RESOLUTIONS[0], ORACLE_RESOLUTIONS[-1]
            raise ConfigError(f"oracle-resolution must be in [{lo}, {hi}], got {self.oracle_resolution}")


# --------------------------------------------------------------------------
# declarative scenario files (INI, hand-editable)
# --------------------------------------------------------------------------

# ScenarioSpec fields stored as sections of their own, not as [scenario] keys
_NESTED = ("fixtures", "users", "sweep", "ao")


def _file_keys(cls) -> list:
    """(name, type) of each field a scenario file stores for `cls`."""
    skip = _NESTED if cls is ScenarioSpec else ()
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.name not in skip]


def _text(value) -> str:
    if isinstance(value, np.ndarray):
        value = tuple(value.tolist())
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def _parse(kind, text: str):
    if kind is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"not a boolean: {text!r}")
        return states[text.lower()]
    if kind in (int, float, str):
        return kind(text)
    return tuple(_word(t) for t in text.replace(",", " ").split())  # vectors and lists


def _word(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read(cls, section, **fallbacks):
    """Build `cls` from the keys present in `section`; the others keep their defaults."""
    given = {name: _parse(kind, section[name]) for name, kind in _file_keys(cls) if name in section}
    return cls(**{**fallbacks, **given})


def save_scenario(spec: ScenarioSpec, path: str) -> None:
    """Write a scenario as an INI file that load_scenario reads back."""
    cp = configparser.ConfigParser()
    sections = [("scenario", spec), ("sweep", spec.sweep), ("ao", spec.ao)]
    sections += [(f"fixture {i}", fx) for i, fx in enumerate(spec.fixtures, start=1)]
    sections += [(f"user {i}", rx) for i, rx in enumerate(spec.users, start=1)]
    for title, obj in sections:
        cp[title] = {name: _text(getattr(obj, name)) for name, _ in _file_keys(type(obj))}
    with open(path, "w") as fh:
        cp.write(fh)


def load_scenario(path: str) -> ScenarioSpec:
    """Parse a scenario INI file into a ScenarioSpec."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read scenario file {path!r}")

        def section(title):
            return cp[title] if cp.has_section(title) else {}

        return _read(
            ScenarioSpec,
            section("scenario"),
            name=os.path.basename(path),
            fixtures=tuple(_read(Fixture, cp[s]) for s in cp.sections() if s.startswith("fixture")),
            users=tuple(_read(Receiver, cp[s]) for s in cp.sections() if s.startswith("user")),
            sweep=_read(Sweep, section("sweep")),
            ao=_read(AoConfig, section("ao")),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"malformed scenario file {path!r}: {exc}") from exc


def _resolve_spec(config: RunConfig) -> ScenarioSpec:
    if config.scenario_file is not None:
        spec = load_scenario(config.scenario_file)
    else:
        known = catalog()
        if config.scenario not in known:
            raise ConfigError(
                f"unknown scenario {config.scenario!r}; valid entries: {', '.join(sorted(known))}"
            )
        spec = known[config.scenario]
    if config.schemes is not None:
        bad = [s for s in config.schemes if s not in signal_model.SCHEMES]
        if bad:
            raise ConfigError(f"unknown schemes {bad}; valid: {', '.join(signal_model.SCHEMES)}")
        spec = replace(spec, schemes=tuple(config.schemes))
    if config.noise_mode is not None:
        spec = replace(spec, noise_mode=config.noise_mode)
    if config.snr is not None:
        if spec.sweep.name == "snr_db":
            spec = replace(spec, sweep=Sweep("snr_db", config.snr))
        elif len(config.snr) == 1:
            spec = replace(spec, snr_db=config.snr[0])
        else:
            raise ConfigError("separation sweeps take a single --snr operating point")
    if config.tolerance is not None:
        try:
            spec = replace(spec, ao=replace(spec.ao, tolerance=config.tolerance))
        except ValueError as exc:  # AoConfig's own limits
            raise ConfigError(str(exc)) from None
    return spec


# --------------------------------------------------------------------------
# output formatting
# --------------------------------------------------------------------------


def _row_record(row, seed: int) -> dict:
    r1, r2 = row.rates
    return {
        "scheme": row.scheme,
        "sweep_name": row.sweep_name,
        "sweep_value": float(row.sweep_value),
        "wsr_bps_hz": float(row.wsr),
        "r1_bps_hz": float(r1),
        "r2_bps_hz": float(r2),
        "r_common_cap": float(row.common_cap),
        "iterations": int(row.iterations),
        "converged": bool(row.converged),
        "seed": seed,
        "residual": None if row.residual is None else float(row.residual),
    }


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _render(records: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = CSV_HEADER.split(",")
    writer.writerow(header)
    for rec in records:
        writer.writerow([_cell(rec[col]) for col in header])
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_run(config: RunConfig) -> int:
    """Run the sweep and write one row per (scheme, sweep point)."""
    spec = _resolve_spec(config)
    if len(spec.users) != 2:
        raise ConfigError("the tabular output format carries exactly two user rate columns")
    result = run_sweep(spec, workers=config.workers)
    records = [_row_record(r, config.seed) for r in result.rows]
    if config.out:
        _write_atomic(config.out, _render(records, config.format))
    print(f"# scenario {spec.name}: {len(records)} rows")
    print(_render(records, "csv"), end="")
    failures = result.failures
    for row in failures:
        print(f"warning: {row.scheme} @ {row.sweep_value}: {row.error}", file=sys.stderr)
    return 2 if failures or any(not r.converged for r in result.rows) else 0


def cmd_channel_dump(config: RunConfig) -> int:
    """Print the users x fixtures gain matrix and the noise vector."""
    spec = _resolve_spec(config)
    channel = build_scene_channel(spec, spec.sweep.values[0] if spec.sweep.name == "separation" else None)
    print(f"# scenario {spec.name}: {channel.num_users} users x {channel.num_fixtures} fixtures")
    print(f"# noise_mode {spec.noise_mode}, gain reference {reference_gain(spec)!r}")
    for k in range(channel.num_users):
        gains = " ".join(f"{g:.6e}" for g in channel.gains[k])
        print(f"user {k + 1}: gains [{gains}]  noise {float(channel.noise[k])!r}")
    return 0


def _random_instance(rng, epsilon: float):
    """Seeded 2x2 channel and a feasible RSMA precoder for validation."""
    gains = rng.uniform(0.2, 1.0, size=(2, 2))
    channel = ChannelMatrix(gains=gains, noise=np.ones(2))
    layout = signal_model.build_layout("rsma", 2, channel)
    P = rng.uniform(-1.0, 1.0, size=(2, layout.num_streams))
    P *= epsilon / np.abs(P).sum(axis=1, keepdims=True)
    return channel, layout, signal_model.Precoder(matrix=P)


def cmd_validate(config: RunConfig) -> int:
    """Monte-Carlo SINR agreement and AO-vs-oracle cross-checks."""
    rng = np.random.default_rng(config.seed)
    failures = 0

    print("== Monte-Carlo SINR agreement (tolerance 2%) ==")
    for i in range(config.mc_instances):
        channel, layout, precoder = _random_instance(rng, epsilon=3.0)
        user = i % 2
        stream = layout.private_column_of(user) if i % 3 else layout.common_column
        if stream == layout.common_column:
            analytic = signal_model.sinr_common(channel, precoder, layout, user)
        else:
            analytic = signal_model.sinr_private(channel, precoder, layout, user)
        empirical = signal_model.monte_carlo_sinr(
            channel, precoder, layout, user, stream, num_symbols=config.mc_symbols, seed=1000 + i
        )
        deviation = abs(empirical - analytic) / max(analytic, 1e-12)
        ok = deviation <= 0.02
        failures += not ok
        print(f"mc[{i:02d}] user {user} stream {stream}: deviation {deviation:.4%} "
              f"{'PASS' if ok else 'FAIL'}")

    print("== AO vs grid oracle (tolerance 5%) ==")
    # every instance is drawn first, in the order the checks print; the
    # channels have unit noise, so 15 dB is this budget for AO and oracle alike
    epsilon = optimizer.epsilon_from_snr(15.0, 1.0)
    instances = []  # (scheme, channel)
    for scheme in signal_model.SCHEMES:
        for _ in range(config.oracle_instances):
            gains = rng.uniform(0.2, 1.0, size=(2, 2))
            rng.integers(1 << 31)  # spent, so that a seed draws the instances it always has
            instances.append((scheme, ChannelMatrix(gains=gains, noise=np.ones(2))))
    # one solve for every instance
    solved = scenarios.solve_schemes(
        [channel for _, channel in instances], (0.5, 0.5), [(scheme,) for scheme, _ in instances],
        AoConfig(), [epsilon] * len(instances),
    )
    for scheme in signal_model.SCHEMES:
        checked = [channel for s, channel in instances if s == scheme]
        for i, (channel, (layout, sol)) in enumerate(zip(checked, solved.get(scheme, ()))):
            if isinstance(sol, Exception):  # a failed solve is one failed check
                failures += 1
                print(f"oracle[{scheme}:{i:02d}] solve failed: {type(sol).__name__}: {sol} FAIL")
                continue
            oracle = optimizer.grid_oracle(
                channel, layout, (0.5, 0.5), epsilon=epsilon, resolution=config.oracle_resolution,
            )
            deviation = abs(sol.wsr - oracle) / max(oracle, 1e-12)
            ok = deviation <= 0.05
            failures += not ok
            print(f"oracle[{scheme}:{i:02d}] ao {sol.wsr:.4f} grid {oracle:.4f} "
                  f"deviation {deviation:.3%} {'PASS' if ok else 'FAIL'}")

    print(f"validation {'PASSED' if failures == 0 else f'FAILED ({failures} checks)'}")
    return 0 if failures == 0 else 2


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


# every option once: flag -> add_argument keywords; the dest of each is a
# RunConfig field, which holds the default
_OPTIONS = {
    "--scenario": {"help": "name from the scenario catalog"},
    "--scenario-file": {"help": "path to a scenario INI file"},
    "--schemes": {"help": "comma list from rsma,sdma,noma"},
    "--snr": {"help": "comma list of SNR points in dB"},
    "--noise-mode": {"choices": ("unit", "physical"), "help": "receiver noise model"},
    "--delta": {"dest": "tolerance", "metavar": "DELTA", "type": float,
                "help": "convergence (residual) tolerance in bits/s/Hz"},
    "--seed": {"type": int, "help": "random seed of validate's instances; run writes it to its seed column"},
    "--workers": {"type": int, "help": "parallel sweep workers; RSMA_VLC_WORKERS when not given"},
    "--out": {"help": "output file path"},
    "--format": {"choices": ("csv", "json"), "help": "format of the --out file"},
    "--mc-instances": {"type": int, "help": "Monte-Carlo SINR checks"},
    "--mc-symbols": {"type": int, "help": "symbols per Monte-Carlo check"},
    "--oracle-instances": {"type": int, "help": "grid-oracle checks per scheme"},
    "--oracle-resolution": {"type": int, "help": "grid points per precoder axis"},
}

# the options each command takes
_COMMANDS = {
    "run": ("solve a scene's sweep and write one row per scheme and point", (
        "--scenario", "--scenario-file", "--schemes", "--snr", "--noise-mode", "--delta",
        "--seed", "--workers", "--out", "--format")),
    "channel-dump": ("print a scene's gain matrix and noise vector",
                     ("--scenario", "--scenario-file", "--noise-mode")),
    "validate": ("Monte-Carlo SINR checks and brute-force oracle cross-checks", (
        "--seed", "--mc-instances", "--mc-symbols", "--oracle-instances", "--oracle-resolution")),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose value errors raise ConfigError (exit 1)
    instead of printing the usage text and exiting 2; -h still exits 0.
    The subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every `main` call."""
    parser = _Parser(
        prog="rsma-vlc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for command, (summary, flags) in _COMMANDS.items():
        # an option not given stays out of the namespace, so RunConfig's default holds
        p = sub.add_parser(command, help=summary, description=summary, argument_default=argparse.SUPPRESS)
        for flag in flags:
            kwargs = dict(_OPTIONS[flag])
            default = defaults[kwargs.get("dest", flag[2:].replace("-", "_"))]
            if default is not None:
                kwargs["help"] = f"{kwargs.get('help', '')} (default {default})".lstrip()
            p.add_argument(flag, **kwargs)
    return parser


def _snr_points(text: str) -> tuple:
    try:
        points = tuple(float(t) for t in text.split(","))
    except ValueError:
        points = ()
    if not points or not np.all(np.isfinite(points)):
        raise ConfigError(f"--snr takes a comma list of finite numbers, got {text!r}")
    return points


def _config_from_args(args) -> RunConfig:
    given = {name: value for name, value in vars(args).items() if name != "command"}
    if "schemes" in given:
        given["schemes"] = tuple(given["schemes"].split(","))
    if "snr" in given:
        given["snr"] = _snr_points(given["snr"])
    if args.command == "run" and "workers" not in given and "RSMA_VLC_WORKERS" in os.environ:
        text = os.environ["RSMA_VLC_WORKERS"]
        try:
            given["workers"] = int(text)
        except ValueError:
            raise ConfigError(f"RSMA_VLC_WORKERS must be an integer, got {text!r}") from None
    if args.command == "validate":
        given["scenario"] = "scenario1_4led"  # validate needs no scenario; satisfy the invariant
    return RunConfig(**given)


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:
            named = [t.partition("=")[0] for t in extras if t.startswith("--")]
            raise ConfigError(f"{args.command} does not take {', '.join(named or extras)}")
        config = _config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "channel-dump":
            return cmd_channel_dump(config)
        return cmd_validate(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
