"""Indoor visible-light LoS channel model.

Computes DC channel gains between ceiling LED fixtures and photodiode
receivers from scene geometry (generalized Lambertian emission, optical
filter and concentrator, receiver field of view) plus shot/thermal
receiver noise variances.

Geometry convention: right-handed room frame with the origin at the
floor center and z pointing up. Fixtures normally face straight down
(0, 0, -1), receivers straight up (0, 0, 1). Angles are measured from
the device axis; a link contributes zero gain once the incidence angle
exceeds the receiver field of view or the emitter faces away.

`los_gain` is the one LoS kernel. It takes arrays of LED positions or
of photodiode positions (a `Receiver` whose position is (..., 3)) and
evaluates all links in one numpy pass; `radiant_intensity` and
`concentrator_gain` take arrays of angles. One position in gives a
Python float out, and an array call equals the single calls bit for bit.
Arc cosines, cosines and powers go through the C math library one
element at a time, so the gains are those of Python's `math` formulas on
any CPU; each chain runs once per distinct cosine of a call, which
repeats often on a symmetric floor lattice. `fixture_gain` takes a
sequence of fixtures and makes one kernel call per group of alike
fixtures (orientation, semi-angle, LED count), their positions stacked
against the receiver's. `build_channel` makes one `fixture_gain` call
per user, and `scenarios.reference_gain` one for the whole floor
lattice and every fixture.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

__all__ = [
    "Fixture",
    "Receiver",
    "NoiseParams",
    "ChannelMatrix",
    "lambertian_order",
    "radiant_intensity",
    "concentrator_gain",
    "los_gain",
    "fixture_gain",
    "shot_noise_variance",
    "thermal_noise_variance",
    "noise_variance",
    "build_channel",
]

DOWN = (0.0, 0.0, -1.0)
UP = (0.0, 0.0, 1.0)


def _points(value, name: str) -> np.ndarray:
    """One point (3,) or an array of points (..., 3), all finite."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise ValueError(f"{name} must have 3 components per point, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _vec3(value, name: str) -> np.ndarray:
    v = _points(value, name)
    if v.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 components, got shape {v.shape}")
    return v


def _unit_vec3(value, name: str) -> np.ndarray:
    v = _vec3(value, name)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError(f"{name} must be a nonzero direction")
    return v / norm


def exact_eq(self, other) -> bool:
    """Field-by-field equality of two instances of one dataclass that
    never raises: an array field is equal when its shape and every element
    are (`np.array_equal`), so one position one bit apart compares unequal."""
    if type(self) is not type(other):
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)))


@dataclass(frozen=True)
class Fixture:
    """A ceiling luminaire of `leds_per_fixture` co-located LEDs.

    The whole fixture acts as one source. `dc_bias` is the DC operating
    point at which the "physical" noise model evaluates shot noise; it
    must lie below `max_drive`. Neither caps the amplitude budget, which
    the sweep derives from the SNR (see scenarios).
    """

    position: np.ndarray
    orientation: np.ndarray = DOWN
    semi_angle_half_power: float = 60.0  # degrees
    leds_per_fixture: int = 3600
    conversion_factor: float = 1.0  # W/A electrical-to-optical
    dc_bias: float = 0.5
    max_drive: float = 1.0

    __eq__ = exact_eq

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position, "position"))
        object.__setattr__(self, "orientation", _unit_vec3(self.orientation, "orientation"))
        if not 0.0 < self.semi_angle_half_power < 90.0:
            raise ValueError("semi_angle_half_power must lie in (0, 90) degrees")
        if self.leds_per_fixture < 1:
            raise ValueError("leds_per_fixture must be >= 1")
        if not 0.0 < self.dc_bias < self.max_drive:
            raise ValueError("drive levels must satisfy 0 < dc_bias < max_drive")


@dataclass(frozen=True)
class Receiver:
    """A single-photodiode receiver with optical filter and concentrator.

    `position` is one point (3,) or, to probe many places at once (see
    `fixture_gain`), an array of points (..., 3) sharing the other
    properties.
    """

    position: np.ndarray
    normal: np.ndarray = UP
    area: float = 1e-4  # m^2
    fov: float = 60.0  # degrees
    refractive_index: float = 1.5
    filter_gain: float = 1.0
    responsivity: float = 1.0  # A/W

    __eq__ = exact_eq

    def __post_init__(self):
        object.__setattr__(self, "position", _points(self.position, "position"))
        object.__setattr__(self, "normal", _unit_vec3(self.normal, "normal"))
        if self.area <= 0:
            raise ValueError("area must be positive")
        if not 0.0 < self.fov <= 90.0:
            raise ValueError("fov must lie in (0, 90] degrees")
        if self.refractive_index < 1.0:
            raise ValueError("refractive_index must be >= 1")
        if not 0.0 < self.filter_gain <= 1.0:
            raise ValueError("filter_gain must lie in (0, 1]")


@dataclass(frozen=True)
class NoiseParams:
    """Constants of the shot/thermal receiver noise model.

    Defaults are standard indoor values; `bandwidth_factor_i3` is the
    0.0868 constant of the third thermal-noise bandwidth integral.
    """

    electronic_charge: float = 1.602e-19  # C
    bandwidth: float = 1e6  # Hz
    background_current: float = 1e-4  # A
    noise_bandwidth_factor: float = 0.562  # I_2
    boltzmann: float = 1.380649e-23  # J/K
    temperature: float = 295.0  # K
    open_loop_gain: float = 10.0
    capacitance_per_area: float = 1.12e-6  # F/m^2
    fet_noise_factor: float = 1.5
    fet_transconductance: float = 0.03  # S
    bandwidth_factor_i3: float = 0.0868

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise ValueError(f"noise parameter {name} must be positive")


@dataclass(frozen=True)
class ChannelMatrix:
    """DC gains (users x fixtures) plus per-user noise variances."""

    gains: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        n = np.asarray(self.noise, dtype=float)
        if g.ndim != 2:
            raise ValueError("gains must be a 2-D users x fixtures matrix")
        if n.shape != (g.shape[0],):
            raise ValueError("noise must have one entry per user")
        if np.any(g < 0) or not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite and nonnegative")
        if np.any(n <= 0) or not np.all(np.isfinite(n)):
            raise ValueError("noise variances must be finite and positive")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "noise", n)

    @property
    def num_users(self) -> int:
        return self.gains.shape[0]

    @property
    def num_fixtures(self) -> int:
        return self.gains.shape[1]


def lambertian_order(semi_angle_half_power: float) -> float:
    """Lambertian mode number m = -ln 2 / ln cos(half-power semi-angle).

    m(60 deg) = 1; narrower beams give larger m. The angle must lie in
    (0, 90) degrees for the emission pattern to be defined.
    """
    if not 0.0 < semi_angle_half_power < 90.0:
        raise ValueError("semi-angle at half power must lie in (0, 90) degrees")
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_half_power)))


def _libm(fn, values: np.ndarray, *constants: float) -> np.ndarray:
    """The math-library function fn(value, *constants) of each value of a 1-D array.

    numpy's SIMD arccos and power may round the last bit differently from
    the C library, depending on the CPU; going through `math` keeps every
    gain the same on every host.
    """
    return np.fromiter(map(fn, values.tolist(), *map(repeat, constants)), float, len(values))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one per row of the 2-D `a`;
    `b` is one vector or one row per row of `a`.

    Goes through matmul's vector-vector path (BLAS ddot per row), which
    rounds exactly like np.dot of one row; a matrix-vector product, an
    einsum or an elementwise product summed with .sum() may round
    differently.
    """
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _as_given(out: np.ndarray) -> float | np.ndarray:
    """A Python float for a single evaluation, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def radiant_intensity(m: float, tx_angle) -> float | np.ndarray:
    """Generalized Lambertian radiant intensity (m+1)/(2*pi) * cos(angle)^m.

    `tx_angle` is the emission angle from the fixture axis in radians, a
    number or an array; the result is a float or an array of its shape.
    Anything beyond pi/2 radiates into the back hemisphere and gives 0.
    """
    if m <= 0:
        raise ValueError("Lambertian order must be positive")
    angle = np.asarray(tx_angle, dtype=float)
    if np.any(angle < 0):
        raise ValueError("emission angle must be nonnegative")
    lit = angle <= math.pi / 2
    out = np.zeros(angle.shape)
    out[lit] = (m + 1.0) / (2.0 * math.pi) * _libm(math.pow, _libm(math.cos, angle[lit]), m)
    return _as_given(out)


def concentrator_gain(n: float, fov: float, rx_angle) -> float | np.ndarray:
    """Optical concentrator gain n^2 / sin^2(fov) inside the field of view.

    `fov` in degrees, `rx_angle` (incidence from the receiver normal) in
    radians, a number or an array; the result is a float or an array of
    its shape. Incidence beyond the field of view gives 0.
    """
    if n < 1.0:
        raise ValueError("refractive index must be >= 1")
    if not 0.0 < fov <= 90.0:
        raise ValueError("fov must lie in (0, 90] degrees")
    angle = np.asarray(rx_angle, dtype=float)
    if np.any(angle < 0):
        raise ValueError("incidence angle must be nonnegative")
    return _as_given(np.where(angle > math.radians(fov), 0.0, n**2 / math.sin(math.radians(fov)) ** 2))


def los_gain(led_position, led_orientation, m: float, rx: Receiver) -> float | np.ndarray:
    """DC gain of LED to photodiode line-of-sight links.

    h = A/d^2 * R_o(tx_angle) * T_s * g(rx_angle) * cos(rx_angle) inside
    the receiver field of view, 0 outside or when the LED faces away.
    Cosines are clamped to [-1, 1] to absorb floating-point drift in the
    dot products.

    `led_position` and `rx.position` are each one point (3,) or an array
    of points (..., 3); they broadcast against each other, for example N
    LEDs to one photodiode or one LED to N photodiode positions. One pair
    of points gives a float, anything else an array of the broadcast
    shape less its last axis. Every link is evaluated with the same
    operations, so an array call equals the single calls bit for bit.
    """
    led_pos = _points(led_position, "led_position")
    led_dir = _unit_vec3(led_orientation, "led_orientation")
    ray = rx.position - led_pos  # LED -> PD
    shape = ray.shape[:-1]
    ray = ray.reshape(-1, 3)
    d2 = _rowdot(ray, ray)
    if np.any(d2 < 1e-24):
        raise ValueError("LED and receiver positions coincide")
    d = np.sqrt(d2)
    cos_tx = np.clip(_rowdot(ray, led_dir) / d, -1.0, 1.0)
    cos_rx = np.clip(_rowdot(-ray, rx.normal) / d, -1.0, 1.0)
    lit = (cos_rx > 0.0) & (cos_tx > 0.0)
    cos_rx = cos_rx[lit]
    # the angle chains run once per distinct cosine, scattered back by the
    # inverse index; lit links have cosines > 0, so no -0.0 is merged into
    # 0.0 and equal values are equal bit patterns
    tx, tx_of = np.unique(cos_tx[lit], return_inverse=True)
    rx_cos, rx_of = np.unique(cos_rx, return_inverse=True)
    gain = np.zeros(len(ray))
    gain[lit] = (
        rx.area
        / d2[lit]
        * radiant_intensity(m, _libm(math.acos, tx))[tx_of]
        * rx.filter_gain
        * concentrator_gain(rx.refractive_index, rx.fov, _libm(math.acos, rx_cos))[rx_of]
        * cos_rx
    )
    return _as_given(gain.reshape(shape))


def fixture_gain(fixtures: Sequence[Fixture], rx: Receiver) -> np.ndarray:
    """DC gains of whole fixtures to one photodiode, or to each of a batch.

    `fixtures` is a sequence of fixtures; the result holds one gain per
    fixture along its leading axis, in their order. `rx.position` is one
    point (3,), which gives shape (L,), or an array of points (..., 3),
    which gives (L, ...); the other receiver properties are shared. Each
    fixture is its center-point approximation Q * los_gain(center): the
    LEDs of one fixture are far closer to each other than to the
    receiver. Fixtures that share orientation, semi-angle and LED count
    form a group, and each group's positions go through one `los_gain`
    call, stacked along a leading axis; a lone fixture is a group of one.
    Every gain equals that of a call on its fixture alone, bit for bit.
    """
    fixtures = tuple(fixtures)
    groups: dict = {}
    for i, fx in enumerate(fixtures):
        key = (fx.orientation.tobytes(), fx.semi_angle_half_power, fx.leds_per_fixture)
        groups.setdefault(key, []).append(i)
    # one fixture per leading row, broadcast against the photodiode positions
    lead = (1,) * (rx.position.ndim - 1)
    gains = np.empty((len(fixtures), *rx.position.shape[:-1]))
    for members in groups.values():
        fx = fixtures[members[0]]
        positions = np.stack([fixtures[i].position for i in members]).reshape(len(members), *lead, 3)
        m = lambertian_order(fx.semi_angle_half_power)
        gains[members] = fx.leds_per_fixture * los_gain(positions, fx.orientation, m, rx)
    return gains


def shot_noise_variance(params: NoiseParams, responsivity: float, received_signal: float) -> float:
    """Shot noise variance 2qB(zeta*h*x + I_bg*I_2) in A^2.

    `received_signal` is the received optical power in W; the signal
    term is its photocurrent responsivity * power.
    """
    if responsivity < 0 or received_signal < 0:
        raise ValueError("responsivity and received signal must be nonnegative")
    return (
        2.0
        * params.electronic_charge
        * params.bandwidth
        * (responsivity * received_signal + params.background_current * params.noise_bandwidth_factor)
    )


def thermal_noise_variance(params: NoiseParams, area: float) -> float:
    """Thermal noise variance of the transimpedance front end in A^2.

    Feedback-resistor term scales with the detector area and B^2, the
    FET channel term with area^2 and B^3.
    """
    if area < 0:
        raise ValueError("area must be nonnegative")
    kt = params.boltzmann * params.temperature
    eta_a = params.capacitance_per_area * area
    first = 8.0 * math.pi * kt / params.open_loop_gain * eta_a * params.noise_bandwidth_factor * params.bandwidth**2
    second = (
        16.0
        * math.pi**2
        * kt
        * params.fet_noise_factor
        / params.fet_transconductance
        * eta_a**2
        * params.bandwidth_factor_i3
        * params.bandwidth**3
    )
    return first + second


def noise_variance(params: NoiseParams, responsivity: float, received_signal: float, area: float) -> float:
    """Total receiver noise variance: shot plus thermal."""
    return shot_noise_variance(params, responsivity, received_signal) + thermal_noise_variance(params, area)


def build_channel(
    scene: list[Fixture],
    users: list[Receiver],
    noise_mode: str = "unit",
) -> ChannelMatrix:
    """Assemble the users x fixtures gain matrix and noise vector.

    Row k is one `fixture_gain` call over the whole scene for user k.
    noise_mode "unit" sets every variance to 1 (normalized analysis);
    "physical" evaluates the shot/thermal model at the DC operating
    point (each fixture driven at its DC bias).
    """
    if not scene or not users:
        raise ValueError("need at least one fixture and one user")
    if noise_mode not in ("unit", "physical"):
        raise ValueError(f"unknown noise_mode {noise_mode!r}")
    gains = np.stack([fixture_gain(scene, rx) for rx in users])
    if noise_mode == "unit":
        noise = np.ones(len(users))
    else:
        params = NoiseParams()
        noise = np.empty(len(users))
        for k, rx in enumerate(users):
            received = sum(
                gains[k, j] * fx.conversion_factor * fx.dc_bias for j, fx in enumerate(scene)
            )
            noise[k] = noise_variance(params, rx.responsivity, received, rx.area)
    return ChannelMatrix(gains=gains, noise=noise)
