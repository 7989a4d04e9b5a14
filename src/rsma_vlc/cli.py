"""Command-line front end: scenario runs, channel dumps, validation.

Subcommands:
  run           solve the requested sweep, write CSV/JSON rows
  channel-dump  print the gain matrix and noise vector of a scenario
  validate      Monte-Carlo SINR checks and brute-force oracle cross-checks

Exit codes: 0 full success, 1 configuration errors, 2 partial solver or
validation failures. Output files are written atomically (temp file
then rename), so a file exists only for completed runs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import dataclass, replace

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
    max_iters: int | None = None
    restarts: int | None = None
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
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.mc_symbols < signal_model.MC_MIN_SYMBOLS:
            raise ConfigError(f"mc-symbols must be >= {signal_model.MC_MIN_SYMBOLS}, got {self.mc_symbols}")
        if self.oracle_resolution not in ORACLE_RESOLUTIONS:
            lo, hi = ORACLE_RESOLUTIONS[0], ORACLE_RESOLUTIONS[-1]
            raise ConfigError(f"oracle-resolution must be in [{lo}, {hi}], got {self.oracle_resolution}")


# --------------------------------------------------------------------------
# declarative scenario files (INI, hand-editable)
# --------------------------------------------------------------------------


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.replace(",", " ").split())


def save_scenario(spec: ScenarioSpec, path: str) -> None:
    """Write a scenario as an INI file that load_scenario reads back."""
    cp = configparser.ConfigParser()
    cp["scenario"] = {
        "name": spec.name,
        "room": " ".join(repr(v) for v in spec.room),
        "priorities": " ".join(repr(v) for v in spec.priorities),
        "schemes": " ".join(spec.schemes),
        "noise_mode": spec.noise_mode,
        "snr_db": repr(spec.snr_db),
        "gain_reference": spec.gain_reference,
    }
    cp["sweep"] = {"name": spec.sweep.name, "values": " ".join(repr(v) for v in spec.sweep.values)}
    cp["ao"] = {
        "tolerance": repr(spec.ao.tolerance),
        "max_iterations": str(spec.ao.max_iterations),
        "restarts": str(spec.ao.restarts),
        "seed": str(spec.ao.seed),
        "corner_starts": str(spec.ao.corner_starts),
    }
    for i, fx in enumerate(spec.fixtures, start=1):
        cp[f"fixture {i}"] = {
            "position": " ".join(repr(float(v)) for v in fx.position),
            "orientation": " ".join(repr(float(v)) for v in fx.orientation),
            "semi_angle_half_power": repr(fx.semi_angle_half_power),
            "leds_per_fixture": str(fx.leds_per_fixture),
            "conversion_factor": repr(fx.conversion_factor),
            "dc_bias": repr(fx.dc_bias),
            "max_drive": repr(fx.max_drive),
        }
    for i, rx in enumerate(spec.users, start=1):
        cp[f"user {i}"] = {
            "position": " ".join(repr(float(v)) for v in rx.position),
            "normal": " ".join(repr(float(v)) for v in rx.normal),
            "area": repr(rx.area),
            "fov": repr(rx.fov),
            "refractive_index": repr(rx.refractive_index),
            "filter_gain": repr(rx.filter_gain),
            "responsivity": repr(rx.responsivity),
        }
    with open(path, "w") as fh:
        cp.write(fh)


def load_scenario(path: str) -> ScenarioSpec:
    """Parse a scenario INI file into a ScenarioSpec."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read scenario file {path!r}")
        sc = cp["scenario"]
        sweep = cp["sweep"]
        fixtures = []
        users = []
        for section in cp.sections():
            if section.startswith("fixture"):
                s = cp[section]
                fixtures.append(
                    Fixture(
                        position=_floats(s["position"]),
                        orientation=_floats(s.get("orientation", "0 0 -1")),
                        semi_angle_half_power=s.getfloat("semi_angle_half_power", 60.0),
                        leds_per_fixture=s.getint("leds_per_fixture", 3600),
                        conversion_factor=s.getfloat("conversion_factor", 1.0),
                        dc_bias=s.getfloat("dc_bias", 0.5),
                        max_drive=s.getfloat("max_drive", 1.0),
                    )
                )
            elif section.startswith("user"):
                s = cp[section]
                users.append(
                    Receiver(
                        position=_floats(s["position"]),
                        normal=_floats(s.get("normal", "0 0 1")),
                        area=s.getfloat("area", 1e-4),
                        fov=s.getfloat("fov", 60.0),
                        refractive_index=s.getfloat("refractive_index", 1.5),
                        filter_gain=s.getfloat("filter_gain", 1.0),
                        responsivity=s.getfloat("responsivity", 1.0),
                    )
                )
        ao = AoConfig(
            tolerance=cp.getfloat("ao", "tolerance", fallback=1e-4),
            max_iterations=cp.getint("ao", "max_iterations", fallback=500),
            restarts=cp.getint("ao", "restarts", fallback=4),
            seed=cp.getint("ao", "seed", fallback=0),
            corner_starts=cp.getboolean("ao", "corner_starts", fallback=False),
        )
        return ScenarioSpec(
            name=sc.get("name", os.path.basename(path)),
            fixtures=tuple(fixtures),
            users=tuple(users),
            sweep=Sweep(sweep["name"], _floats(sweep["values"])),
            room=_floats(sc.get("room", "5 5 4")),
            priorities=_floats(sc.get("priorities", "0.5 0.5")),
            schemes=tuple(sc.get("schemes", "rsma sdma noma").split()),
            noise_mode=sc.get("noise_mode", "unit"),
            snr_db=sc.getfloat("snr_db", 40.0),
            gain_reference=sc.get("gain_reference", "area_mean"),
            ao=ao,
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
    given = {"tolerance": config.tolerance, "max_iterations": config.max_iters, "restarts": config.restarts}
    overrides = {k: v for k, v in given.items() if v is not None}
    if overrides:
        try:
            spec = replace(spec, ao=replace(spec.ao, **overrides))
        except ValueError as exc:  # AoConfig's own limits
            raise ConfigError(str(exc)) from None
    return spec


# --------------------------------------------------------------------------
# output formatting
# --------------------------------------------------------------------------


def _row_record(row) -> dict:
    r1 = row.rates[0] if len(row.rates) > 0 else 0.0
    r2 = row.rates[1] if len(row.rates) > 1 else 0.0
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
        "seed": int(row.seed),
    }


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _render(records: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    import io

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
    result = run_sweep(spec, base_seed=config.seed, workers=config.workers)
    records = [_row_record(r) for r in result.rows]
    if config.out:
        _write_atomic(config.out, _render(records, config.format))
    print(f"# scenario {spec.name}: {len(records)} rows")
    print(CSV_HEADER)
    for rec in records:
        print(",".join(_cell(rec[c]) for c in CSV_HEADER.split(",")))
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


def cmd_validate(config: RunConfig | None = None) -> int:
    """Monte-Carlo SINR agreement and AO-vs-oracle cross-checks."""
    config = config or RunConfig(scenario="scenario1_4led")
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
    # every instance is drawn first, in the order the checks print
    snr_db = 15.0
    drawn = {}
    for scheme in signal_model.SCHEMES:
        drawn[scheme] = []
        for _ in range(config.oracle_instances):
            gains = rng.uniform(0.2, 1.0, size=(2, 2))
            cfg = AoConfig(snr_db=snr_db, seed=int(rng.integers(1 << 31)), corner_starts=True)
            drawn[scheme].append((ChannelMatrix(gains=gains, noise=np.ones(2)), cfg))
    epsilon = optimizer.epsilon_from_snr(snr_db, 1.0)
    for scheme, instances in drawn.items():
        channels = [channel for channel, _ in instances]
        configs = [cfg for _, cfg in instances]  # RSMA's helpers run under RSMA's config
        solved = scenarios.solve_schemes(channels, (0.5, 0.5), (scheme,), lambda _, i: configs[i])[scheme]
        for i, (channel, (layout, sol)) in enumerate(zip(channels, solved)):
            if isinstance(sol, Exception):
                raise sol
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="name from the scenario catalog")
    p.add_argument("--scenario-file", help="path to a scenario INI file")
    p.add_argument("--schemes", help="comma list from rsma,sdma,noma")
    p.add_argument("--snr", help="comma list of SNR points in dB")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--noise-mode", choices=("unit", "physical"))
    p.add_argument("--delta", type=float, help="AO convergence tolerance in bits/s/Hz")
    p.add_argument("--max-iters", type=int, help="AO iteration cap")
    p.add_argument("--restarts", type=int, help="AO restart count")
    p.add_argument("--workers", type=int, help="parallel sweep workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsma-vlc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "channel-dump", "validate"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "validate":
            p.add_argument("--mc-instances", type=int, default=20)
            p.add_argument("--mc-symbols", type=int, default=1_000_000)
            p.add_argument("--oracle-instances", type=int, default=20)
            p.add_argument("--oracle-resolution", type=int, default=21)
    return parser


# the options each command would otherwise silently ignore: validate
# draws its own instances, channel-dump solves and writes nothing
_NOT_TAKEN = {
    "channel-dump": ("out", "format", "seed", "workers", "schemes", "snr", "delta", "max_iters", "restarts"),
    "validate": ("scenario", "scenario_file", "schemes", "snr", "noise_mode", "delta", "max_iters", "restarts",
                 "workers", "out", "format"),
}


def _config_from_args(args) -> RunConfig:
    not_taken = _NOT_TAKEN.get(args.command, ())
    given = ["--" + name.replace("_", "-") for name in not_taken if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"{args.command} does not take {', '.join(given)}")
    workers = args.workers
    if args.command == "run" and workers is None:
        text = os.environ.get("RSMA_VLC_WORKERS", "1")
        try:
            workers = int(text)
        except ValueError:
            raise ConfigError(f"RSMA_VLC_WORKERS must be an integer, got {text!r}") from None
    scenario = args.scenario
    if args.command == "validate":
        scenario = "scenario1_4led"  # validate needs no scenario; satisfy the invariant
    return RunConfig(
        scenario=scenario,
        scenario_file=args.scenario_file,
        schemes=tuple(args.schemes.split(",")) if args.schemes else None,
        snr=tuple(float(s) for s in args.snr.split(",")) if args.snr else None,
        seed=0 if args.seed is None else args.seed,
        out=args.out,
        format=args.format or "csv",
        noise_mode=args.noise_mode,
        tolerance=args.delta,
        max_iters=args.max_iters,
        restarts=args.restarts,
        workers=1 if workers is None else workers,
        mc_instances=getattr(args, "mc_instances", 20),
        mc_symbols=getattr(args, "mc_symbols", 1_000_000),
        oracle_instances=getattr(args, "oracle_instances", 20),
        oracle_resolution=getattr(args, "oracle_resolution", 21),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
