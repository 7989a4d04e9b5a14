import math
from dataclasses import replace

import numpy as np
import pytest

from rsma_vlc.channel import (
    ChannelMatrix,
    Fixture,
    NoiseParams,
    Receiver,
    _fixture_led_grid,
    build_channel,
    concentrator_gain,
    fixture_gain,
    lambertian_order,
    los_gain,
    noise_variance,
    radiant_intensity,
    shot_noise_variance,
    thermal_noise_variance,
)

# worked single-link geometry: fixture straight above the photodiode
LED_POS = (0.0, 0.0, 4.0)
RX = Receiver(position=(0.0, 0.0, 0.8))

# frozen by the one-shot expression oracle in test_thermal_noise_golden
THERMAL_GOLDEN = 6.793315927687443e-19


class TestLambertianOrder:
    def test_sixty_degrees_gives_order_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-14)

    def test_wide_beam_limit_falls_to_zero(self):
        orders = [lambertian_order(a) for a in (85.0, 89.0, 89.9, 89.9999)]
        assert all(m > 0 for m in orders)
        assert all(a > b for a, b in zip(orders, orders[1:]))
        assert orders[-1] < 0.06

    def test_thirty_degrees_matches_direct_evaluation(self):
        expected = -math.log(2.0) / math.log(math.cos(math.radians(30.0)))
        assert lambertian_order(30.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(4.81884, rel=1e-5)

    @pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 120.0])
    def test_angle_domain(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)

    def test_order_positive_for_all_valid_angles(self):
        for angle in np.linspace(0.5, 89.5, 90):
            assert lambertian_order(angle) > 0.0


class TestRadiantIntensity:
    def test_on_axis(self):
        assert radiant_intensity(1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_grazing(self):
        assert radiant_intensity(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_sixty_degrees_off_axis(self):
        assert radiant_intensity(1.0, math.pi / 3) == pytest.approx(2.0 / (2 * math.pi) * 0.5, rel=1e-14)

    def test_back_hemisphere_is_dark(self):
        assert radiant_intensity(1.0, math.pi / 2 + 0.01) == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            radiant_intensity(0.0, 0.1)
        with pytest.raises(ValueError):
            radiant_intensity(1.0, -0.1)


class TestConcentratorGain:
    def test_table_values(self):
        assert concentrator_gain(1.5, 60.0, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_outside_fov(self):
        assert concentrator_gain(1.5, 60.0, math.radians(61.0)) == 0.0

    def test_unit_index_full_fov(self):
        for angle in (0.0, 0.3, math.radians(90.0)):
            assert concentrator_gain(1.0, 90.0, angle) == pytest.approx(1.0, rel=1e-14)


class TestLosGain:
    def test_worked_boresight_link(self):
        # A/d^2 * (1/pi) * T_s * n^2/sin^2(fov) * cos(0)
        d2 = (4.0 - 0.8) ** 2
        expected = 1e-4 / d2 * (1.0 / math.pi) * 1.0 * 3.0 * 1.0
        h = los_gain(LED_POS, (0, 0, -1), 1.0, RX)
        assert h == pytest.approx(expected, rel=1e-12)
        assert h == pytest.approx(9.325e-6, rel=2e-4)

    def test_outside_fov_is_zero(self):
        narrow = Receiver(position=(4.0, 0.0, 3.9), fov=10.0)  # nearly sideways incidence
        assert los_gain(LED_POS, (0, 0, -1), 1.0, narrow) == 0.0

    def test_linear_in_area(self):
        h1 = los_gain(LED_POS, (0, 0, -1), 1.0, RX)
        doubled = Receiver(position=(0.0, 0.0, 0.8), area=2e-4)
        assert los_gain(LED_POS, (0, 0, -1), 1.0, doubled) == pytest.approx(2 * h1, rel=1e-12)

    def test_linear_in_filter_gain(self):
        h1 = los_gain(LED_POS, (0, 0, -1), 1.0, RX)
        halved = Receiver(position=(0.0, 0.0, 0.8), filter_gain=0.5)
        assert los_gain(LED_POS, (0, 0, -1), 1.0, halved) == pytest.approx(0.5 * h1, rel=1e-12)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            los_gain((0, 0, 0.8), (0, 0, -1), 1.0, RX)

    def test_gain_decreases_with_vertical_distance(self):
        heights = np.linspace(1.0, 3.5, 12)
        gains = [los_gain((0, 0, z), (0, 0, -1), 1.0, RX) for z in heights]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_emitter_facing_away_is_dark(self):
        assert los_gain((0, 0, 4.0), (0, 0, 1.0), 1.0, RX) == 0.0


class TestFixtureGain:
    def test_scales_los_gain_by_led_count(self):
        fx = Fixture(position=LED_POS)
        h1 = los_gain(LED_POS, (0, 0, -1), 1.0, RX)
        assert fixture_gain(fx, RX) == pytest.approx(3600 * h1, rel=1e-12)
        assert fixture_gain(fx, RX) == pytest.approx(0.033568, rel=2e-4)

    def test_single_led_fixture_equals_los_gain(self):
        fx = Fixture(position=LED_POS, leds_per_fixture=1)
        assert fixture_gain(fx, RX) == los_gain(LED_POS, (0, 0, -1), 1.0, RX)

    def test_outside_fov_is_zero(self):
        fx = Fixture(position=LED_POS)
        narrow = Receiver(position=(4.0, 0.0, 3.9), fov=10.0)
        assert fixture_gain(fx, narrow) == 0.0

    def test_exact_sum_approaches_center_approximation(self):
        fx = Fixture(position=LED_POS, leds_per_fixture=3600)
        approx = fixture_gain(fx, RX)
        spread = fixture_gain(fx, RX, exact=True, led_pitch=0.01)
        tight = fixture_gain(fx, RX, exact=True, led_pitch=1e-4)
        assert spread == pytest.approx(approx, rel=0.02)
        assert tight == pytest.approx(approx, rel=1e-5)

    def test_exact_sum_requires_square_count(self):
        fx = Fixture(position=LED_POS, leds_per_fixture=10)
        with pytest.raises(ValueError):
            fixture_gain(fx, RX, exact=True)


class TestArrayKernel:
    """One array call of the kernel equals the single-position calls bit for bit."""

    @staticmethod
    def _geometry(seed):
        # tilted fixture and receiver; the points reach above the fixture
        # (emitter faces away) and far to the side (outside the fov)
        rng = np.random.default_rng(seed)
        fx = Fixture(
            position=(0.3, -0.2, 3.0),
            orientation=np.array([0.0, 0.0, -1.0]) + rng.normal(scale=0.4, size=3),
            semi_angle_half_power=rng.uniform(20.0, 70.0),
        )
        rx = Receiver(
            position=(0.0, 0.0, 0.8),
            normal=np.array([0.0, 0.0, 1.0]) + rng.normal(scale=0.4, size=3),
            fov=rng.uniform(30.0, 80.0),
            area=rng.uniform(0.5e-4, 2e-4),
            filter_gain=rng.uniform(0.5, 1.0),
        )
        points = rng.uniform((-5.0, -5.0, -1.0), (5.0, 5.0, 5.0), size=(300, 3))
        return fx, rx, points

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_of_photodiodes_equals_single_calls(self, seed):
        fx, rx, points = self._geometry(seed)
        m = lambertian_order(fx.semi_angle_half_power)
        batch_rx = replace(rx, position=points)
        singles = [replace(rx, position=p) for p in points]
        los = los_gain(fx.position, fx.orientation, m, batch_rx)
        fixture = fixture_gain(fx, batch_rx)
        assert los.shape == fixture.shape == (len(points),)
        assert all(type(los_gain(fx.position, fx.orientation, m, r)) is float for r in singles[:3])
        assert los.tolist() == [los_gain(fx.position, fx.orientation, m, r) for r in singles]
        assert fixture.tolist() == [fixture_gain(fx, r) for r in singles]
        # both ways to a dark link occur, and give exactly 0
        ray = points - fx.position
        cos_rx = -ray @ rx.normal / np.linalg.norm(ray, axis=1)
        facing_away = ray @ fx.orientation <= 0.0
        outside_fov = ~facing_away & (cos_rx < math.cos(math.radians(rx.fov)))
        assert facing_away.any() and outside_fov.any() and (los > 0).any()
        assert np.all(los[facing_away | outside_fov] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_of_leds_equals_single_calls(self, seed):
        fx, rx, points = self._geometry(seed)
        rx = replace(rx, position=(0.1, 0.2, 0.8))
        m = lambertian_order(fx.semi_angle_half_power)
        batch = los_gain(points, fx.orientation, m, rx)
        assert batch.tolist() == [los_gain(p, fx.orientation, m, rx) for p in points]
        assert (batch == 0.0).any() and (batch > 0.0).any()

    def test_coincident_position_in_a_batch_rejected(self):
        fx, rx, points = self._geometry(0)
        points[7] = fx.position
        with pytest.raises(ValueError, match="coincide"):
            fixture_gain(fx, replace(rx, position=points))
        with pytest.raises(ValueError, match="coincide"):
            los_gain(points, fx.orientation, 1.0, replace(rx, position=fx.position))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_sum_equals_single_led_calls(self, seed):
        fx, rx, points = self._geometry(seed)
        fx = replace(fx, leds_per_fixture=49)
        m = lambertian_order(fx.semi_angle_half_power)
        grid = _fixture_led_grid(fx, 0.05)
        lit = points[fixture_gain(fx, replace(rx, position=points)) > 0][:5]
        for p in lit:
            probe = replace(rx, position=p)
            expected = 0.0
            for led in grid:
                expected += los_gain(led, fx.orientation, m, probe)
            assert fixture_gain(fx, probe, exact=True, led_pitch=0.05) == pytest.approx(expected, rel=1e-12)
        batch = fixture_gain(fx, replace(rx, position=lit), exact=True, led_pitch=0.05)
        singles = [fixture_gain(fx, replace(rx, position=p), exact=True, led_pitch=0.05) for p in lit]
        assert batch == pytest.approx(singles, rel=1e-12)


class TestNoise:
    def test_shot_noise_background_only(self):
        params = NoiseParams(electronic_charge=1.6e-19)
        assert shot_noise_variance(params, 0.9, 0.0) == pytest.approx(1.798e-17, rel=1e-3)

    def test_shot_noise_linear_in_bandwidth(self):
        p1 = NoiseParams()
        p2 = NoiseParams(bandwidth=2e6)
        assert shot_noise_variance(p2, 0.5, 1e-6) == pytest.approx(
            2 * shot_noise_variance(p1, 0.5, 1e-6), rel=1e-12
        )

    def test_thermal_noise_golden(self):
        # one-shot expression oracle, frozen as THERMAL_GOLDEN
        p = NoiseParams()
        kt = 1.380649e-23 * 295.0
        oracle = (
            8 * math.pi * kt / 10.0 * 1.12e-6 * 1e-4 * 0.562 * 1e6**2
            + 16 * math.pi**2 * kt * 1.5 / 0.03 * (1.12e-6 * 1e-4) ** 2 * 0.0868 * 1e6**3
        )
        assert oracle == pytest.approx(THERMAL_GOLDEN, rel=1e-12)
        assert thermal_noise_variance(p, 1e-4) == pytest.approx(THERMAL_GOLDEN, rel=1e-12)

    def test_thermal_noise_area_scaling(self):
        p = NoiseParams()
        assert thermal_noise_variance(p, 0.0) == 0.0
        # first term linear, second quadratic: halving the area more than halves the total
        full = thermal_noise_variance(p, 1e-4)
        half = thermal_noise_variance(p, 0.5e-4)
        assert half > full / 4
        assert half < full / 2

    def test_total_is_exact_sum(self):
        p = NoiseParams(electronic_charge=1.6e-19)
        total = noise_variance(p, 0.9, 2e-6, 1e-4)
        assert total == shot_noise_variance(p, 0.9, 2e-6) + thermal_noise_variance(p, 1e-4)

    def test_zero_signal_zero_area_leaves_background_shot(self):
        p = NoiseParams(electronic_charge=1.6e-19)
        assert noise_variance(p, 0.9, 0.0, 1e-40) == pytest.approx(1.7984e-17, rel=1e-6)


class TestBuildChannel:
    def _mirror_scene(self):
        fixtures = [Fixture(position=(-1.25, 0, 4.0)), Fixture(position=(1.25, 0, 4.0))]
        users = [Receiver(position=(-1.0, 0, 0.8)), Receiver(position=(1.0, 0, 0.8))]
        return fixtures, users

    def test_mirror_symmetry(self):
        fixtures, users = self._mirror_scene()
        ch = build_channel(fixtures, users)
        assert ch.gains[0, 0] == pytest.approx(ch.gains[1, 1], rel=1e-12)
        assert ch.gains[0, 1] == pytest.approx(ch.gains[1, 0], rel=1e-12)

    def test_unit_noise_mode(self):
        fixtures, users = self._mirror_scene()
        ch = build_channel(fixtures, users, noise_mode="unit")
        assert np.all(ch.noise == 1.0)

    def test_physical_noise_mode(self):
        fixtures, users = self._mirror_scene()
        ch = build_channel(fixtures, users, noise_mode="physical")
        assert np.all(ch.noise > 0)
        assert np.all(ch.noise < 1e-10)  # ampere-squared scale

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            build_channel([], [RX])
        with pytest.raises(ValueError):
            build_channel([Fixture(position=LED_POS)], [])

    def test_unknown_noise_mode_rejected(self):
        fixtures, users = self._mirror_scene()
        with pytest.raises(ValueError):
            build_channel(fixtures, users, noise_mode="loud")


class TestTypes:
    def test_fixture_validation(self):
        with pytest.raises(ValueError):
            Fixture(position=LED_POS, semi_angle_half_power=95.0)
        with pytest.raises(ValueError):
            Fixture(position=LED_POS, leds_per_fixture=0)
        with pytest.raises(ValueError):
            Fixture(position=LED_POS, dc_bias=1.5, max_drive=1.0)
        assert Fixture(position=LED_POS).drive_headroom == 0.5

    def test_receiver_validation(self):
        with pytest.raises(ValueError):
            Receiver(position=(0, 0, 0.8), fov=0.0)
        with pytest.raises(ValueError):
            Receiver(position=(0, 0, 0.8), refractive_index=0.9)
        with pytest.raises(ValueError):
            Receiver(position=(0, 0, np.inf))

    def test_orientation_normalized(self):
        fx = Fixture(position=LED_POS, orientation=(0, 0, -7.0))
        assert np.allclose(fx.orientation, (0, 0, -1.0))

    def test_channel_matrix_validation(self):
        with pytest.raises(ValueError):
            ChannelMatrix(gains=np.array([[0.1, -0.2]]), noise=np.ones(1))
        with pytest.raises(ValueError):
            ChannelMatrix(gains=np.array([[0.1, 0.2]]), noise=np.zeros(1))

    def test_noise_params_positive(self):
        with pytest.raises(ValueError):
            NoiseParams(bandwidth=0.0)
