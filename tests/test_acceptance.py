"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The scenario sweeps (five scenes, SNR 0..40 dB in 5 dB steps, all
three schemes) are computed once and shared across criteria.
"""

import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from rsma_vlc.channel import ChannelMatrix, Fixture, Receiver, fixture_gain, lambertian_order, los_gain
from rsma_vlc.channel import concentrator_gain
from rsma_vlc.cli import main
from rsma_vlc.optimizer import AoConfig, epsilon_from_snr, grid_oracle
from rsma_vlc.scenarios import Sweep, build_scene_channel, catalog, reference_gain, run_sweep, solve_schemes
from rsma_vlc.signal_model import (
    Precoder,
    build_layout,
    monte_carlo_sinr,
    sinr_common,
    sinr_private,
)

SNR_GRID = tuple(float(s) for s in range(0, 41, 5))
SCENARIOS = ("scenario1_4led", "scenario2_4led", "scenario3_4led", "scenario1_2led", "scenario2_2led")


@lru_cache(maxsize=None)
def scenario_sweep(name: str):
    spec = replace(catalog()[name], sweep=Sweep("snr_db", SNR_GRID))
    return run_sweep(spec, base_seed=0, workers=2)


@lru_cache(maxsize=None)
def separation_sweep(snr_db: float):
    spec = replace(catalog()["separation_sweep_2led"], snr_db=snr_db)
    return run_sweep(spec, base_seed=0, workers=2)


def wsr_at(name: str, scheme: str, snr: float) -> float:
    return dict(scenario_sweep(name).wsr_series(scheme))[snr]


def _report(line: str):
    print(f"\n{line}")


def test_criterion_1_scenario1_absolute_wsr():
    t0 = time.monotonic()
    spec = catalog()["scenario1_4led"]
    channel = build_scene_channel(spec)
    eps = epsilon_from_snr(40.0, float(np.sqrt(np.mean(channel.noise))), reference_gain=reference_gain(spec))
    _, sol = solve_schemes([channel], (0.5, 0.5), ("rsma",), spec.ao, [eps], lambda *_: 0)["rsma"][0]
    elapsed = time.monotonic() - t0
    assert 15.5 * 0.8 <= sol.wsr <= 15.5 * 1.2
    assert elapsed <= 120.0
    swept = wsr_at("scenario1_4led", "rsma", 40.0)
    assert 15.5 * 0.8 <= swept <= 15.5 * 1.2
    _report(
        f"ACCEPTANCE 1: PASS  scenario1_4led RSMA @40dB WSR={sol.wsr:.3f} b/s/Hz "
        f"(target 15.5 +/-20%), solve time {elapsed:.1f}s"
    )


def test_criterion_2_scenario2_absolute_and_ordering():
    w40 = wsr_at("scenario2_4led", "rsma", 40.0)
    assert 13.0 * 0.8 <= w40 <= 13.0 * 1.2
    for snr in (20.0, 25.0, 30.0, 35.0, 40.0):
        assert wsr_at("scenario2_4led", "rsma", snr) < wsr_at("scenario1_4led", "rsma", snr)
    _report(
        f"ACCEPTANCE 2: PASS  scenario2_4led RSMA @40dB WSR={w40:.3f} b/s/Hz "
        f"(target 13 +/-20%), below scenario 1 at every SNR >= 20 dB"
    )


def test_criterion_3_scheme_ordering_suite():
    for name in SCENARIOS:
        for snr in SNR_GRID:
            rsma = wsr_at(name, "rsma", snr)
            assert rsma >= wsr_at(name, "sdma", snr) - 1e-9, (name, snr)
            assert rsma >= wsr_at(name, "noma", snr) - 1e-9, (name, snr)
    for name in ("scenario1_4led", "scenario1_2led"):
        assert wsr_at(name, "sdma", 40.0) >= wsr_at(name, "noma", 40.0)
    _report(
        "ACCEPTANCE 3: PASS  WSR(RSMA) >= WSR(SDMA), WSR(NOMA) at all 45 scenario/SNR "
        "points; scenario 1 has SDMA >= NOMA at 40 dB for both fixture counts"
    )


def test_rows_reach_single_user_floor():
    # serving user k alone, at the full budget on its own stream, gives
    # w_k log2(1 + (eps ||h_k||_1)^2 / sigma_k^2); every scheme that gives
    # user k a private stream can do that, so no row may fall below it
    below = []
    for name in SCENARIOS:
        spec = catalog()[name]
        channel = build_scene_channel(spec)
        sigma, ref = float(np.sqrt(np.mean(channel.noise))), reference_gain(spec)
        for scheme in ("rsma", "sdma", "noma"):
            layout = build_layout(scheme, channel.num_users, channel)
            served = [k for k in range(channel.num_users) if layout.private_column_of(k) is not None]
            for snr, wsr in scenario_sweep(name).wsr_series(scheme):
                eps = epsilon_from_snr(snr, sigma, reference_gain=ref)
                floor = max(spec.priorities[k] * math.log2(1.0 + (eps * np.abs(channel.gains[k]).sum()) ** 2
                                                           / channel.noise[k]) for k in served)
                if wsr < floor - 1e-9:
                    below.append((name, scheme, snr, wsr, floor))
    assert below == []
    _report(
        "SINGLE-USER FLOOR: PASS  every row of the five SNR sweeps is at least the best "
        "single-user rate of the users its scheme gives a private stream"
    )


def _crossover_interval(name: str):
    """Grid interval where the NOMA-SDMA gap changes sign."""
    gaps = [(snr, wsr_at(name, "noma", snr) - wsr_at(name, "sdma", snr)) for snr in SNR_GRID]
    crossing = None
    for (s0, g0), (s1, g1) in zip(gaps, gaps[1:]):
        if g0 > 0 >= g1:
            crossing = (s0, s1)
    return crossing


def test_criterion_4_noma_sdma_crossover():
    for name, nominal in (("scenario2_4led", 35.0), ("scenario2_2led", 36.0)):
        for snr in (25.0, 30.0):
            assert wsr_at(name, "noma", snr) > wsr_at(name, "sdma", snr), (name, snr)
        assert wsr_at(name, "sdma", 40.0) > wsr_at(name, "noma", 40.0), name
        lo, hi = _crossover_interval(name)
        assert 30.0 <= lo and hi <= 40.0, (name, lo, hi)
        assert nominal - 5.0 <= hi and lo <= nominal + 5.0, (name, lo, hi)
    _report(
        "ACCEPTANCE 4: PASS  NOMA beats SDMA through 30 dB and SDMA wins at 40 dB in both "
        "scenario-2 variants; crossovers inside 30-40 dB (nominal 35/36 +/-5 dB)"
    )


def test_criterion_5_separation_peak():
    peaks = {}
    for snr in (20.0, 30.0, 40.0):
        series = separation_sweep(snr).wsr_series("rsma")
        values = np.array([w for _, w in series])
        seps = [s for s, _ in series]
        top = int(np.argmax(values))
        peaks[snr] = seps[top]
        assert 3.2 <= seps[top] <= 4.0, (snr, seps[top])
        # unimodal within solver noise: rising before the peak, falling after
        diffs = np.diff(values)
        assert np.all(diffs[:top] > -0.01), snr
        assert np.all(diffs[top:] < 0.01), snr
    assert len(set(peaks.values())) == 1
    _report(
        f"ACCEPTANCE 5: PASS  separation sweep unimodal with the peak at "
        f"{peaks[40.0]:.1f} m (target 3.6 +/-0.4 m) at 20/30/40 dB alike"
    )


def test_criterion_6_property_suite():
    # a) monotone ascent and feasibility on 100 random instances: every
    # instance is drawn first, then each scheme's are solved in one call
    rng = np.random.default_rng(606)
    drawn = {"rsma": [], "sdma": [], "noma": []}
    for i in range(100):
        ch = ChannelMatrix(gains=rng.uniform(0.1, 1.0, size=(2, 2)), noise=np.ones(2))
        scheme = ("rsma", "sdma", "noma")[i % 3]
        eps = float(rng.uniform(0.5, 40.0))
        drawn[scheme].append((ch, eps, int(rng.integers(1 << 16))))
    for scheme, instances in drawn.items():
        channels, epsilons, seeds = zip(*instances)
        solved = solve_schemes(channels, (0.5, 0.5), (scheme,), AoConfig(), epsilons,
                               lambda _, j: seeds[j])[scheme]
        for eps, (_, sol) in zip(epsilons, solved):
            assert np.all(np.diff(sol.wsr_history) >= -1e-8)
            assert sol.precoder.max_row_l1() <= eps + 1e-9
            shares = sol.report.common_shares
            assert np.all(shares >= 0) and shares.sum() <= sol.report.common_cap + 1e-9

    # b) Monte-Carlo agreement within 2% at 1e6 symbols on 20 instances
    rng = np.random.default_rng(707)
    for i in range(20):
        ch = ChannelMatrix(gains=rng.uniform(0.2, 1.0, size=(2, 2)), noise=np.ones(2))
        lay = build_layout("rsma", 2, ch)
        P = rng.uniform(-1.0, 1.0, size=(2, 3))
        P *= 3.0 / np.abs(P).sum(axis=1, keepdims=True)
        pre = Precoder(matrix=P)
        user = i % 2
        stream = lay.private_column_of(user) if i % 3 else lay.common_column
        analytic = (
            sinr_common(ch, pre, lay, user)
            if stream == lay.common_column
            else sinr_private(ch, pre, lay, user)
        )
        empirical = monte_carlo_sinr(ch, pre, lay, user, stream, num_symbols=1_000_000, seed=i)
        assert abs(empirical - analytic) <= 0.02 * analytic, i

    # c) grid-oracle agreement within 5% on 20 instances per scheme, all
    # drawn first and each scheme's solved in one call
    rng = np.random.default_rng(808)
    eps = epsilon_from_snr(15.0, 1.0)
    drawn = {}
    for scheme in ("rsma", "sdma", "noma"):
        drawn[scheme] = [
            (ChannelMatrix(gains=rng.uniform(0.1, 1.0, size=(2, 2)), noise=np.ones(2)), int(rng.integers(1 << 16)))
            for _ in range(20)
        ]
    for scheme, instances in drawn.items():
        channels, seeds = zip(*instances)
        solved = solve_schemes(channels, (0.5, 0.5), (scheme,), AoConfig(), [eps] * 20,
                               lambda _, j: seeds[j])[scheme]
        for i, (ch, (lay, sol)) in enumerate(zip(channels, solved)):
            oracle = grid_oracle(ch, lay, (0.5, 0.5), epsilon=eps, resolution=21)
            assert abs(sol.wsr - oracle) <= 0.05 * oracle, (scheme, i)

    _report(
        "ACCEPTANCE 6a-c: PASS  monotone ascent and feasibility on 100 AO instances; "
        "Monte-Carlo SINR within 2% on 20 instances; grid oracle within 5% on 20x3 instances"
    )


def test_criterion_6_determinism(tmp_path):
    args = ["run", "--scenario", "scenario2_2led", "--schemes", "rsma,noma", "--snr", "10,30", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report("ACCEPTANCE 6d: PASS  byte-identical CSV across two runs with the same seed")


def test_criterion_7_channel_unit_values():
    m = lambertian_order(60.0)
    g = concentrator_gain(1.5, 60.0, 0.0)
    assert m == pytest.approx(1.0, abs=1e-14)
    assert g == pytest.approx(3.0, abs=1e-14)

    rx = Receiver(position=(0.0, 0.0, 0.8))
    h1 = los_gain((0.0, 0.0, 4.0), (0.0, 0.0, -1.0), m, rx)
    hq = fixture_gain(Fixture(position=(0.0, 0.0, 4.0)), rx)

    def sig4(x):
        return float(f"{x:.4g}")

    assert sig4(h1) == sig4(9.325e-6)
    assert sig4(hq) == sig4(0.033568)
    _report(
        f"ACCEPTANCE 7: PASS  m(60deg)={m!r}, concentrator gain {g!r}, "
        f"worked link constants {h1:.4g} / {hq:.4g} at 4 significant figures"
    )
