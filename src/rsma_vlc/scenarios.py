"""Catalog of room/user experiment setups, the sweep runner, and
`solve_schemes`, the one path that seeds RSMA from SDMA/NOMA. SDMA and
NOMA are RSMA with an empty column (see `optimizer`), so their converged
precoders, on the RSMA columns as every precoder is, are RSMA warm starts.
`solve_schemes` takes (channel, epsilon, schemes) points and returns one
{scheme: Solution} per point; each Solution carries the layout its
problem decided once (`Problem.layout`).

All cataloged scenes use a 5 x 5 x 4 m room (origin at the floor
center, z up), ceiling fixtures of 3600 LEDs with a 60 degree
half-power semi-angle, and 1 cm^2 photodiodes (refractive index 1.5,
unit filter gain, 60 degree field of view) at 0.8 m height. Fixture
layouts: four at the room quarter points or two on the x axis.

The sweep turns each point's SNR into the amplitude budget epsilon
that the solver is given; the optimizer itself never sees an SNR. The
per-fixture SNR axis is referenced to the spatially averaged fixture
gain over the room floor at user height ("area_mean" policy): epsilon =
sigma * 10^(SNR/20) / reference_gain, with sigma the RMS noise level of
the point's channel. This keeps the SNR scale geometry-independent
while preserving all relative path effects; set gain_reference="none"
to interpret the SNR against raw physical gains instead.

Since epsilon scales with sigma, the noise level cancels from every SINR
when the users see equal noise: there, noise_mode="physical" moves no
rate beyond rounding. Physical noise acts only through unequal per-user
noise, each user's SINR scaling with sigma^2 over its own variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .channel import ChannelMatrix, Fixture, Receiver, build_channel, exact_eq, fixture_gain
from .optimizer import AoConfig, Problem, ao_solve, epsilon_from_snr
from .signal_model import SCHEMES

__all__ = [
    "Sweep",
    "ScenarioSpec",
    "SweepRow",
    "SweepResult",
    "CATALOG_NAMES",
    "catalog",
    "catalog_scene",
    "reference_gain",
    "build_scene_channel",
    "users_for_separation",
    "run_sweep",
    "solve_schemes",
]

ROOM = (5.0, 5.0, 4.0)
USER_HEIGHT = 0.8
FIXTURE_HEIGHT = 4.0
FOUR_LED_XY = ((-1.25, 1.25), (-1.25, -1.25), (1.25, 1.25), (1.25, -1.25))
TWO_LED_XY = ((-1.25, 0.0), (1.25, 0.0))
# "top of the room" user row for the close-separation scenarios. It was
# picked while the solver still missed the single-user corners, to put a
# NOMA/SDMA crossover near 35 dB; with those corners found, NOMA and SDMA
# tie at the single-user value at 25-30 dB in both scenario-2 scenes, so
# no crossover lands there (ROADMAP "Measured", criterion 4)
SCENARIO2_Y = 1.4
DEFAULT_SNR_SWEEP = tuple(float(s) for s in range(0, 41, 5))
DEFAULT_SEPARATIONS = tuple(k / 5.0 for k in range(1, 26))  # 0.2 .. 5.0 m
REFERENCE_GRID = 41  # lattice points per floor axis in reference_gain


@dataclass(frozen=True)
class Sweep:
    """One swept quantity: per-fixture SNR in dB or user separation in m."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in ("snr_db", "separation"):
            raise ValueError(f"unknown sweep {self.name!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values or not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"sweep values must be one or more finite numbers, got {self.values}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment, of exactly two users
    (any other count is a ValueError, whatever the sweep). Every fixture
    and user lies in the room, and a separation sweep has no value v that
    mirrors the users out of it (to x = +-v/2, `users_for_separation`).
    """

    name: str
    fixtures: tuple
    users: tuple
    sweep: Sweep
    room: tuple = ROOM
    priorities: tuple = (0.5, 0.5)
    schemes: tuple = SCHEMES
    # "physical" moves rates only through unequal per-user noise: the
    # sweep's epsilon scales with the RMS noise level sigma
    noise_mode: str = "unit"
    snr_db: float = 40.0  # operating SNR when sweeping separations
    gain_reference: str = "area_mean"
    ao: AoConfig = AoConfig()

    __eq__ = exact_eq

    def __post_init__(self):
        object.__setattr__(self, "fixtures", tuple(self.fixtures))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "priorities", tuple(float(p) for p in self.priorities))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.fixtures:
            raise ValueError("scenario needs at least one fixture")
        if len(self.users) != 2:
            raise ValueError(f"a scene has exactly two users, got {len(self.users)}")
        if not all(0 < p < math.inf for p in self.priorities) or len(self.priorities) != len(self.users):
            raise ValueError("priorities must be positive finite numbers, one per user")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
            if s in self.schemes[:i]:
                raise ValueError(f"scheme {s!r} is listed twice")
        if self.noise_mode not in ("unit", "physical"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")
        if self.gain_reference not in ("area_mean", "none"):
            raise ValueError(f"unknown gain_reference {self.gain_reference!r}")
        # a NaN size would pass every comparison with the users below
        if len(self.room) != 3 or not all(0 < v < math.inf for v in self.room):
            raise ValueError(f"room must be three finite positive sizes, got {self.room}")
        hx, hy, hz = self.room[0] / 2.0, self.room[1] / 2.0, self.room[2]
        for kind, devices in (("fixture", self.fixtures), ("user", self.users)):
            for device in devices:
                x, y, z = device.position
                if abs(x) > hx or abs(y) > hy or not 0.0 <= z <= hz:
                    raise ValueError(f"{kind} at {device.position} lies outside the room")
        if self.sweep.name == "separation":
            for v in self.sweep.values:
                if abs(v) / 2.0 > hx:
                    raise ValueError(f"separation {v} puts the users outside the room")


def _fixture(x: float, y: float) -> Fixture:
    return Fixture(position=(x, y, FIXTURE_HEIGHT))


def _receiver(x: float, y: float) -> Receiver:
    return Receiver(position=(x, y, USER_HEIGHT))


# name -> fixture layout, user positions, sweep and other ScenarioSpec fields
_SNR_SWEEP = ("snr_db", DEFAULT_SNR_SWEEP)
_CATALOG = {
    "scenario1_4led": (FOUR_LED_XY, ((-1.5, 0.0), (1.5, 0.0)), _SNR_SWEEP, {}),
    "scenario2_4led": (FOUR_LED_XY, ((-0.2, SCENARIO2_Y), (0.2, SCENARIO2_Y)), _SNR_SWEEP, {}),
    "scenario3_4led": (FOUR_LED_XY, ((-0.74, SCENARIO2_Y), (0.2, SCENARIO2_Y)), _SNR_SWEEP, {}),
    "scenario1_2led": (TWO_LED_XY, ((-1.5, 0.0), (1.5, 0.0)), _SNR_SWEEP, {}),
    "scenario2_2led": (TWO_LED_XY, ((-0.2, SCENARIO2_Y), (0.2, SCENARIO2_Y)), _SNR_SWEEP, {}),
    "separation_sweep_2led": (
        TWO_LED_XY, ((-0.1, 0.0), (0.1, 0.0)), ("separation", DEFAULT_SEPARATIONS), {"schemes": ("rsma",)}
    ),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog_scene(name: str) -> ScenarioSpec:
    """The catalog scene `name` as a fresh spec object (KeyError for an
    unknown name); it builds that one scene only."""
    led_xy, user_xy, (sweep, values), kw = _CATALOG[name]
    return ScenarioSpec(
        name=name,
        fixtures=tuple(_fixture(*p) for p in led_xy),
        users=tuple(_receiver(*p) for p in user_xy),
        sweep=Sweep(sweep, values),
        **kw,
    )


def catalog() -> dict[str, ScenarioSpec]:
    """Named experiment setups; every call builds fresh spec objects.

    Users sit mid-room 3 m apart (scenario 1), near the room top 0.4 m
    apart (scenario 2), or 0.94 m apart along the same row (scenario 3,
    four fixtures). The separation sweep moves two users symmetrically
    from the center toward opposite walls, 5 m apart at most.
    """
    return {name: catalog_scene(name) for name in CATALOG_NAMES}


def reference_gain(spec: ScenarioSpec) -> float:
    """Spatially averaged fixture gain over the room floor at user height.

    Deterministic midpoint-free quadrature on a square lattice spanning
    the floor; averaged over fixtures. This is the link-gain reference
    of the SNR axis under the "area_mean" policy.

    One `fixture_gain` call evaluates the whole lattice for every fixture
    (one `los_gain` call per group of alike fixtures). The gains are
    added strictly left to right, fixture by fixture and x before y: this
    value sets epsilon at every sweep point, and a pairwise sum (np.sum)
    would move it, and every row, in the last bits.
    """
    if spec.gain_reference == "none":
        return 1.0
    xs = np.linspace(-spec.room[0] / 2.0, spec.room[0] / 2.0, REFERENCE_GRID)
    ys = np.linspace(-spec.room[1] / 2.0, spec.room[1] / 2.0, REFERENCE_GRID)
    height = spec.users[0].position[2]
    x, y = np.meshgrid(xs, ys, indexing="ij")
    floor = np.stack([x.ravel(), y.ravel(), np.full(x.size, height)], axis=1)
    probe = replace(spec.users[0], position=floor)
    gains = fixture_gain(spec.fixtures, probe).ravel()
    return float(np.add.accumulate(gains)[-1]) / (len(spec.fixtures) * REFERENCE_GRID**2)


def users_for_separation(spec: ScenarioSpec, separation: float) -> tuple:
    """Users mirrored through the room center, `separation` apart along x,
    each at its own height."""
    half = separation / 2.0
    return tuple(replace(u, position=(x, 0.0, u.position[2])) for u, x in zip(spec.users, (-half, half)))


def build_scene_channel(spec: ScenarioSpec, sweep_value: float | None = None) -> ChannelMatrix:
    """Channel matrix of the scenario, repositioning users for separation sweeps."""
    users = spec.users
    if spec.sweep.name == "separation" and sweep_value is not None:
        users = users_for_separation(spec, sweep_value)
    return build_channel(list(spec.fixtures), list(users), noise_mode=spec.noise_mode)


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    sweep_name: str
    sweep_value: float
    wsr: float
    rates: tuple
    common_cap: float
    iterations: int
    converged: bool
    error: str | None = None
    residual: float | None = None  # the Solution's; None on an error row


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    rows: tuple

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.rows if r.error is not None)


def _solve_points(problems, priorities, config) -> list:
    """One Solution or the raised exception per Problem.

    Several problems run as one batched ao_solve call. If it raises,
    each problem is solved again, in order, as one call of its own: the
    problems of its `warm_from` that succeeded (solve_schemes's helpers,
    which have no warm starts of their own), then the problem,
    warm-started from their solutions. A problem's result does not
    depend on its batch, so the helpers solve to their results again and
    only the failing problems fail. Each call hands ao_solve its first
    problem's layout as `layout`.
    """
    if len(problems) > 1:
        try:
            return list(ao_solve(problems, priorities, config, layout=problems[0].layout))
        except Exception:  # isolate the failure below
            pass
    results = []
    for problem in problems:
        helpers = [problems[q] for q in problem.warm_from if not isinstance(results[q], Exception)]
        alone = replace(problem, warm_from=tuple(range(len(helpers))))
        call = helpers + [alone]
        try:
            results.append(ao_solve(call, priorities, config, layout=call[0].layout)[-1])
        except Exception as exc:  # failed points must not sink the sweep
            results.append(exc)
    return results


def solve_schemes(points, priorities, config) -> list:
    """One {scheme: Solution or the raised exception} per point, in point
    order, holding the schemes that point asks for.

    `points` holds (channel, epsilon, schemes) triples: channel j is
    solved under the amplitude budget epsilon_j in each of its schemes
    (each Solution carries its layout, `Solution.layout`). Every channel
    has exactly two users and every scheme is known (ValueError
    otherwise, raised before anything is solved). This is the one
    place RSMA is seeded from the special cases: each RSMA problem names
    its own point's SDMA and NOMA problems, in that order, as its
    `warm_from`, so their converged precoders are its warm starts and
    WSR(RSMA) >= max(WSR(SDMA), WSR(NOMA)) holds by monotone ascent.
    These helpers are solved also where only RSMA is requested; one that
    failed at a point gives no warm start there. Every solve runs under
    the AoConfig `config`.

    Every problem of every point is one batched ao_solve call, NOMA ones
    of either strong user included: every SDMA problem, then every NOMA
    problem, then every RSMA problem, each in point order. The RSMA
    problems' warm starts run as the call's second wave, from the
    helpers' polished winners. If the call raises, each (scheme, point)
    is solved in a call of its own, after its helpers that succeeded.
    """
    points = list(points)
    unknown = sorted({scheme for _, _, schemes in points for scheme in schemes} - set(SCHEMES))
    if unknown:
        raise ValueError(f"unknown schemes {unknown}")
    keys = [(scheme, j) for scheme in ("sdma", "noma", "rsma")
            for j, (_, _, schemes) in enumerate(points) if scheme in schemes or "rsma" in schemes]
    index = {key: p for p, key in enumerate(keys)}
    problems = [
        Problem(points[j][0], scheme, points[j][1], (index["sdma", j], index["noma", j]) if scheme == "rsma" else ())
        for scheme, j in keys
    ]
    solved = dict(zip(keys, _solve_points(problems, priorities, config)))
    return [{scheme: solved[scheme, j] for scheme in schemes} for j, (_, _, schemes) in enumerate(points)]


def _row(spec: ScenarioSpec, scheme: str, value: float, sol) -> SweepRow:
    """The sweep row of one point: its Solution, or the exception it raised."""
    if isinstance(sol, Exception):
        return SweepRow(
            scheme=scheme, sweep_name=spec.sweep.name, sweep_value=value,
            wsr=0.0, rates=(0.0,) * len(spec.users), common_cap=0.0,
            iterations=0, converged=False,
            error=f"{type(sol).__name__}: {sol}",
        )
    return SweepRow(
        scheme=scheme, sweep_name=spec.sweep.name, sweep_value=value,
        wsr=sol.wsr, rates=tuple(float(r) for r in sol.report.overall),
        common_cap=sol.report.common_cap, iterations=sol.iterations,
        converged=sol.converged, residual=sol.residual,
    )


def _solve_chunk(spec: ScenarioSpec, points: list, ref: float) -> list:
    """Rows of a chunk of (index, value) sweep points (separate process safe).

    Each point's amplitude budget is epsilon_from_snr of its SNR, its
    channel's RMS noise level and the reference gain `ref`. The chunk is
    one `solve_schemes` call, so its SDMA, NOMA and RSMA points are one
    batched solve, each RSMA point's warm starts running in its second
    wave from its own point's SDMA/NOMA solutions. The points of an SNR
    sweep share one channel; a separation sweep moves
    the users, so each of its points has a channel of its own. A point
    whose budget cannot be computed (say, 10^(SNR/20) overflows) gets an
    error row in every scheme and is not solved.
    """
    if spec.sweep.name == "separation":
        scenes = [(build_scene_channel(spec, value), spec.snr_db) for _, value in points]
    else:
        channel = build_scene_channel(spec)
        scenes = [(channel, value) for _, value in points]
    rows, solvable, wanted = [], [], []
    for (_, value), (channel, snr) in zip(points, scenes):
        try:
            eps = epsilon_from_snr(snr, float(np.sqrt(np.mean(channel.noise))), reference_gain=ref)
        except (ArithmeticError, ValueError) as exc:
            rows += [_row(spec, s, value, exc) for s in spec.schemes]
            continue
        solvable.append(value)
        wanted.append((channel, eps, spec.schemes))

    for value, solved in zip(solvable, solve_schemes(wanted, spec.priorities, spec.ao)):
        rows += [_row(spec, scheme, value, sol) for scheme, sol in solved.items()]
    return rows


def run_sweep(spec: ScenarioSpec, workers: int = 1) -> SweepResult:
    """Solve every (scheme, sweep value) of the scenario.

    With `workers` > 1 the points are dealt round-robin into that many
    chunks, one per worker process, so the slow points (high SNR) spread
    over the workers; each chunk solves the SDMA, NOMA and RSMA problems
    of its points in one batched ao_solve call, whether the points share
    one channel (an SNR sweep) or each have their own (a separation
    sweep). A point's result does not depend on the batch it is solved
    in, so any worker count produces identical rows. If a batched call
    raises, each (scheme, point) of it is solved again in a call of its
    own, after its helpers that succeeded, and only the ones that still
    fail get a row with `error` set. Rows come back sorted by (scheme,
    sweep index).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    points = list(enumerate(spec.sweep.values))
    ref = reference_gain(spec)
    n = min(workers, len(points))
    if n > 1:
        chunks = [points[c::n] for c in range(n)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(_solve_chunk, repeat(spec), chunks, repeat(ref)))
    else:
        results = [_solve_chunk(spec, points, ref)]
    rows = [row for chunk in results for row in chunk]
    order = {v: i for i, v in points}
    rows.sort(key=lambda r: (r.scheme, order[r.sweep_value]))
    return SweepResult(scenario=spec.name, rows=tuple(rows))
