import numpy as np
import pytest

import rsma_vlc.optimizer as optimizer
from rsma_vlc.channel import ChannelMatrix
from rsma_vlc.signal_model import (
    MC_MIN_SYMBOLS,
    SCHEMES,
    Precoder,
    SicKernel,
    build_layout,
    assemble_report,
    common_cap,
    default_shares,
    monte_carlo_sinr,
    rate,
    sinr_common,
    sinr_private,
)


def channel_2x2(gains=((0.9, 0.3), (0.3, 0.9)), noise=(1.0, 1.0)):
    return ChannelMatrix(gains=np.array(gains, dtype=float), noise=np.array(noise, dtype=float))


# hand instance from the SINR definitions: p1=[0.5,-0.5], p2=[-0.2,0.4], p12=[1,1]
HAND = Precoder(matrix=np.array([[0.5, -0.2, 1.0], [-0.5, 0.4, 1.0]]))
# (h1.p12)^2=1.44, (h1.p1)^2=0.09, (h1.p2)^2=0.0036
HAND_COMMON_U1 = 1.44 / (0.09 + 0.0036 + 1.0)
HAND_PRIVATE_U1 = 0.09 / (0.0036 + 1.0)


class TestLayouts:
    def test_sdma_private_only(self):
        lay = build_layout("sdma", 2, channel_2x2())
        assert lay.num_streams == 2
        assert lay.common_column is None
        assert [s.owner for s in lay.streams] == [0, 1]

    def test_rsma_adds_common(self):
        lay = build_layout("rsma", 2, channel_2x2())
        assert lay.num_streams == 3
        assert lay.common_column == 2
        assert lay.common_stream.decoders == (0, 1)
        assert lay.common_stream.carries == (0, 1)

    def test_noma_strong_user_selection(self):
        ch = channel_2x2(gains=((1.0, 0.2), (0.3, 0.25)))
        lay = build_layout("noma", 2, ch)
        assert [s.kind for s in lay.streams] == ["private", "common"]
        assert lay.streams[0].owner == 0  # larger row norm
        assert lay.common_stream.carries == (1,)
        assert lay.common_stream.decoders == (0, 1)

    def test_noma_tie_breaks_to_lower_index(self):
        lay = build_layout("noma", 2, channel_2x2())
        assert lay.streams[0].owner == 0

    def test_noma_needs_two_users(self):
        ch = ChannelMatrix(gains=np.ones((3, 2)), noise=np.ones(3))
        with pytest.raises(ValueError):
            build_layout("noma", 3, ch)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_layout("tdma", 2, channel_2x2())


class TestSinr:
    def test_zero_common_column(self):
        p = Precoder(matrix=np.array([[0.5, -0.2, 0.0], [-0.5, 0.4, 0.0]]))
        lay = build_layout("rsma", 2, channel_2x2())
        assert sinr_common(channel_2x2(), p, lay, 0) == 0.0

    def test_interference_free_common(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        p = Precoder(matrix=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        lay = build_layout("rsma", 2, ch)
        assert sinr_common(ch, p, lay, 0) == pytest.approx(4.0, rel=1e-14)

    def test_common_hand_instance(self):
        lay = build_layout("rsma", 2, channel_2x2())
        assert sinr_common(channel_2x2(), HAND, lay, 0) == pytest.approx(HAND_COMMON_U1, rel=1e-12)

    def test_zero_private_column(self):
        p = Precoder(matrix=np.zeros((2, 2)))
        lay = build_layout("sdma", 2, channel_2x2())
        assert sinr_private(channel_2x2(), p, lay, 0) == 0.0

    def test_orthogonal_users(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        p = Precoder(matrix=np.array([[0.7, 0.0], [0.0, 0.4]]))
        lay = build_layout("sdma", 2, ch)
        assert sinr_private(ch, p, lay, 0) == pytest.approx(0.49, rel=1e-14)

    def test_private_hand_instance(self):
        lay = build_layout("rsma", 2, channel_2x2())
        assert sinr_private(channel_2x2(), HAND, lay, 0) == pytest.approx(HAND_PRIVATE_U1, rel=1e-12)

    def test_three_user_private_hand_instance(self):
        # h1=(1,0), h2=(0,1), h3=(1,1); columns p1=(1,0), p2=(0,2), p3=(0.5,0.5), common=(1,1)
        ch = ChannelMatrix(gains=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), noise=np.ones(3))
        lay = build_layout("rsma", 3, ch)
        P = Precoder(matrix=np.array([[1.0, 0.0, 0.5, 1.0], [0.0, 2.0, 0.5, 1.0]]))
        # user amplitudes (p1, p2, p3, common): (1, 0, .5, 1), (0, 2, .5, 1), (1, 2, 1, 2)
        assert sinr_private(ch, P, lay, 0) == pytest.approx(1.0 / (0.0 + 0.25 + 1.0), rel=1e-14)
        assert sinr_private(ch, P, lay, 1) == pytest.approx(4.0 / (0.0 + 0.25 + 1.0), rel=1e-14)
        assert sinr_private(ch, P, lay, 2) == pytest.approx(1.0 / (1.0 + 4.0 + 1.0), rel=1e-14)
        assert sinr_common(ch, P, lay, 2) == pytest.approx(4.0 / (1.0 + 4.0 + 1.0 + 1.0), rel=1e-14)
        kernel = SicKernel(lay, ch.noise)
        assert kernel.interferers(0, 0) == [1, 2]
        assert kernel.interferers(2, 3) == [0, 1, 2]
        with pytest.raises(ValueError):
            kernel.interferers(0, 1)

    def test_private_stage_excludes_common_stream(self):
        # adding power to the common column must not change any private SINR
        lay = build_layout("rsma", 2, channel_2x2())
        boosted = Precoder(matrix=HAND.matrix * np.array([1.0, 1.0, 7.0]))
        for k in (0, 1):
            assert sinr_private(channel_2x2(), boosted, lay, k) == sinr_private(
                channel_2x2(), HAND, lay, k
            )

    def test_common_stage_includes_all_privates(self):
        lay = build_layout("rsma", 2, channel_2x2())
        boosted = Precoder(matrix=HAND.matrix * np.array([2.0, 1.0, 1.0]))
        assert sinr_common(channel_2x2(), boosted, lay, 0) < sinr_common(channel_2x2(), HAND, lay, 0)


class TestRates:
    def test_rate_values(self):
        assert rate(0.0) == 0.0
        assert rate(1.0) == pytest.approx(1.0, rel=1e-15)
        assert rate(3.0) == pytest.approx(2.0, rel=1e-15)

    def test_common_cap_symmetric(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        assert common_cap(ch, p, lay) == rate(sinr_common(ch, p, lay, 0))

    def test_common_cap_zero_user(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("rsma", 2, ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))  # user 2 hears nothing
        assert common_cap(ch, p, lay) == 0.0

    def test_common_cap_hand_instance(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        r0 = rate(sinr_common(ch, HAND, lay, 0))
        r1 = rate(sinr_common(ch, HAND, lay, 1))
        assert common_cap(ch, HAND, lay) == min(r0, r1)


class TestAssembleReport:
    def test_zero_precoder_zero_wsr(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        rep = assemble_report(ch, Precoder(matrix=np.zeros((2, 3))), lay)
        assert rep.wsr == 0.0

    def test_sdma_common_fields_zero(self):
        ch = channel_2x2()
        lay = build_layout("sdma", 2, ch)
        rep = assemble_report(ch, Precoder(matrix=HAND.matrix[:, :2]), lay)
        assert rep.common_cap == 0.0
        assert np.all(rep.common_shares == 0.0)
        assert np.all(rep.sinr_common == 0.0)

    def test_noma_hand_instance(self):
        # strong user 1 private, weak user 2 on the common stream
        ch = channel_2x2(gains=((1.0, 0.2), (0.3, 0.25)), noise=(1.0, 1.0))
        lay = build_layout("noma", 2, ch)
        p = Precoder(matrix=np.array([[0.5, 0.5], [0.0, 0.5]]))  # columns: private(u1), common
        rep = assemble_report(ch, p, lay)
        # scalar oracle: gamma_1 = (h1.p1)^2 / sigma^2, no other private stream
        g1 = (1.0 * 0.5) ** 2 / 1.0
        # common stream decoded at both users with the private as interference
        c_at_1 = (0.5 + 0.2 * 0.5) ** 2 / ((0.5) ** 2 + 1.0)
        c_at_2 = (0.3 * 0.5 + 0.25 * 0.5) ** 2 / ((0.3 * 0.5) ** 2 + 1.0)
        assert rep.sinr_private[0] == pytest.approx(g1, rel=1e-12)
        assert rep.common_cap == pytest.approx(np.log2(1 + min(c_at_1, c_at_2)), rel=1e-12)
        assert rep.common_shares[1] == pytest.approx(rep.common_cap)  # all to the weak user
        assert rep.common_shares[0] == 0.0
        assert rep.overall[0] == pytest.approx(np.log2(1 + g1), rel=1e-12)

    def test_share_validation(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        cap = common_cap(ch, HAND, lay)
        with pytest.raises(ValueError):
            assemble_report(ch, HAND, lay, shares=np.array([cap, cap]))
        with pytest.raises(ValueError):
            assemble_report(ch, HAND, lay, shares=np.array([-0.1, 0.0]))

    def test_overall_identity(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        rep = assemble_report(ch, HAND, lay)
        assert np.all(rep.overall == rep.common_shares + rep.private_rates)
        assert rep.common_shares.sum() <= rep.common_cap + 1e-9

    def test_default_share_goes_to_heavier_user(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        rep = assemble_report(ch, HAND, lay, weights=np.array([0.3, 0.7]))
        assert rep.common_shares[1] == pytest.approx(rep.common_cap)
        tie = default_shares(lay, 1.0, np.array([0.5, 0.5]))
        assert tie[0] == 1.0 and tie[1] == 0.0  # ties to user 1

    def test_rsma_with_zero_common_equals_sdma_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            gains = rng.uniform(0.05, 1.0, size=(2, 2))
            noise = rng.uniform(0.5, 2.0, size=2)
            ch = ChannelMatrix(gains=gains, noise=noise)
            privates = rng.normal(size=(2, 2))
            rsma = build_layout("rsma", 2, ch)
            sdma = build_layout("sdma", 2, ch)
            rep_r = assemble_report(ch, Precoder(matrix=np.hstack([privates, np.zeros((2, 1))])), rsma)
            rep_s = assemble_report(ch, Precoder(matrix=privates), sdma)
            assert np.array_equal(rep_r.private_rates, rep_s.private_rates)
            assert np.array_equal(rep_r.overall, rep_s.overall)
            assert rep_r.wsr == rep_s.wsr

    def test_scale_law(self):
        # scaling every column by alpha > 1 scales numerators by alpha^2 and
        # never decreases any SINR
        rng = np.random.default_rng(11)
        for _ in range(25):
            gains = rng.uniform(0.05, 1.0, size=(2, 2))
            ch = ChannelMatrix(gains=gains, noise=np.ones(2))
            lay = build_layout("rsma", 2, ch)
            P = Precoder(matrix=rng.normal(size=(2, 3)))
            alpha = rng.uniform(1.1, 3.0)
            Pa = Precoder(matrix=alpha * P.matrix)
            for k in (0, 1):
                assert sinr_private(ch, Pa, lay, k) >= sinr_private(ch, P, lay, k) - 1e-15
                assert sinr_common(ch, Pa, lay, k) >= sinr_common(ch, P, lay, k) - 1e-15


class TestMonteCarlo:
    def test_interference_free_agreement(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("rsma", 2, ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        est = monte_carlo_sinr(ch, p, lay, 0, lay.common_column, num_symbols=1_000_000, seed=42)
        assert est == pytest.approx(4.0, rel=0.02)

    def test_hand_instance_agreement(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        est = monte_carlo_sinr(ch, HAND, lay, 0, 0, num_symbols=1_000_000, seed=9)
        assert est == pytest.approx(HAND_PRIVATE_U1, rel=0.02)

    def test_seed_reproducibility(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        a = monte_carlo_sinr(ch, HAND, lay, 1, 1, num_symbols=MC_MIN_SYMBOLS, seed=5)
        b = monte_carlo_sinr(ch, HAND, lay, 1, 1, num_symbols=MC_MIN_SYMBOLS, seed=5)
        assert a == b

    def test_noiseless_single_stream_is_flagged_large(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)), noise=(1e-300, 1e-300))
        lay = build_layout("rsma", 2, ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        est = monte_carlo_sinr(ch, p, lay, 0, lay.common_column, num_symbols=MC_MIN_SYMBOLS, seed=1)
        assert est > 1e12

    @pytest.mark.parametrize("scheme", ["rsma", "noma"])
    def test_streamed_draws_equal_one_draw(self, scheme):
        # an odd symbol count ends on a partial chunk with an odd number of
        # indices; NOMA's private stage has no interferer at all
        ch = channel_2x2(noise=(1.3, 0.7))
        lay = build_layout(scheme, 2, ch)
        P = np.array([[0.5, -0.2, 1.0], [-0.5, 0.4, 1.0]])[:, : lay.num_streams]
        num_symbols = MC_MIN_SYMBOLS + 1
        kernel = SicKernel(lay, ch.noise)
        stages = [(user, stream) for stream, desc in enumerate(lay.streams)
                  for user in (desc.decoders if desc.kind == "common" else (desc.owner,))]
        for seed, (user, stream) in enumerate(stages):
            rng = np.random.default_rng(seed)
            amps = ch.gains[user] @ P
            pam4 = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0)
            symbols = pam4[rng.integers(0, 4, size=(num_symbols, lay.num_streams))]
            noise = rng.normal(0.0, np.sqrt(ch.noise[user]), size=num_symbols)
            others = kernel.interferers(user, stream)
            signal = amps[stream] * symbols[:, stream]
            disturbance = symbols[:, others] @ amps[others] + noise
            expected = float(np.mean(signal**2) / np.mean(disturbance**2))
            got = monte_carlo_sinr(ch, Precoder(matrix=P), lay, user, stream, num_symbols=num_symbols, seed=seed)
            assert got == expected, (user, stream)

    def test_symbol_count_floor(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        with pytest.raises(ValueError):
            monte_carlo_sinr(ch, HAND, lay, 0, 0, num_symbols=100, seed=1)

    def test_wrong_stream_pairing_rejected(self):
        ch = channel_2x2()
        lay = build_layout("rsma", 2, ch)
        with pytest.raises(ValueError, match="not user 0's private stream"):
            monte_carlo_sinr(ch, HAND, lay, 0, 1, num_symbols=MC_MIN_SYMBOLS, seed=1)


def loop_sinrs(H, noise, P, layout):
    """Reference SINRs from explicit loops: private by column, common by decoder."""
    A = H @ P
    priv = layout.private_columns
    sinr_p = []
    for c in priv:
        k = layout.streams[c].owner
        interference = 0.0
        for j in priv:
            if j != c:
                interference += A[k, j] ** 2
        sinr_p.append(A[k, c] ** 2 / (interference + noise[k]))
    sinr_c = []
    if layout.common_column is not None:
        for k in layout.common_stream.decoders:
            interference = 0.0
            for j in priv:
                interference += A[k, j] ** 2
            sinr_c.append(A[k, layout.common_column] ** 2 / (interference + noise[k]))
    return np.array(sinr_p), np.array(sinr_c)


KERNEL_CASES = [(s, k, l) for s in SCHEMES for k in (2, 3, 4) for l in (1, 2, 4) if s != "noma" or k == 2]


@pytest.mark.parametrize("scheme,users,fixtures", KERNEL_CASES)
def test_kernel_agrees_with_every_caller(scheme, users, fixtures):
    # reports, true_rates, the oracle WSR and the polish's stage rates all
    # come from SicKernel, and agree with each other and with per-column loops
    rng = np.random.default_rng(100 * users + fixtures)
    ch = ChannelMatrix(gains=rng.uniform(0.05, 1.0, size=(users, fixtures)), noise=rng.uniform(0.5, 2.0, size=users))
    lay = build_layout(scheme, users, ch)
    w = rng.uniform(0.2, 1.0, size=users)
    comp = optimizer._Compiled(ch, lay, w)
    P = rng.normal(size=(16, fixtures, lay.num_streams))
    A = ch.gains @ P
    kernel = SicKernel(lay, ch.noise)
    sinr_p, sinr_c = kernel.sinrs(A)
    stage_rates = optimizer._stage_derivatives(comp, lay.to_rsma(P))[0]
    n = kernel.n_priv
    r_p, r_c = stage_rates[:, :n], stage_rates[:, n:]
    wsr_true, cap_true = comp.true_rates(lay.to_rsma(P))
    w_priv, w_common = optimizer._stream_weights(lay, w)
    w_own = w_priv[kernel.owners]
    wsr_oracle = optimizer._amplitude_wsr(kernel, w_own, w_common, A)
    owners = [lay.streams[c].owner for c in lay.private_columns]
    for b in range(len(P)):
        ref_p, ref_c = loop_sinrs(ch.gains, ch.noise, P[b], lay)
        np.testing.assert_allclose(sinr_p[b], ref_p, rtol=1e-12)
        rep = assemble_report(ch, Precoder(matrix=P[b]), lay, weights=w)
        np.testing.assert_allclose(rep.sinr_private[owners], ref_p, rtol=1e-12)
        # the stage rates, (ln T - ln I) / ln 2 of each stage's received
        # power T and interference plus noise I
        wsr_stage = float(w_own @ r_p[b])
        if lay.common_column is not None:
            np.testing.assert_allclose(sinr_c[b], ref_c, rtol=1e-12)
            decoders = list(lay.common_stream.decoders)
            np.testing.assert_allclose(rep.sinr_common[decoders], ref_c, rtol=1e-12)
            wsr_stage += w_common * float(r_c[b].min())
            assert cap_true[b] == pytest.approx(rep.common_cap, abs=1e-12)
        else:
            assert r_c.size == 0 and sinr_c is None
        for wsr in (wsr_true[b], wsr_oracle[b], wsr_stage):
            assert wsr == pytest.approx(rep.wsr, abs=1e-12)
