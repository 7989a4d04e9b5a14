import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rsma_vlc.optimizer as optimizer
import rsma_vlc.signal_model as signal_model
from rsma_vlc.channel import ChannelMatrix
from rsma_vlc.signal_model import (
    MC_MIN_SYMBOLS,
    SCHEMES,
    Precoder,
    SicKernel,
    StreamLayout,
    build_layout,
    assemble_report,
    default_shares,
    monte_carlo_sinr,
)

from helpers import on_columns


def channel_2x2(gains=((0.9, 0.3), (0.3, 0.9)), noise=(1.0, 1.0)):
    return ChannelMatrix(gains=np.array(gains, dtype=float), noise=np.array(noise, dtype=float))


# hand instance from the SINR definitions: p1=[0.5,-0.5], p2=[-0.2,0.4], p12=[1,1]
HAND = Precoder(matrix=np.array([[0.5, -0.2, 1.0], [-0.5, 0.4, 1.0]]))
# (h1.p12)^2=1.44, (h1.p1)^2=0.09, (h1.p2)^2=0.0036
HAND_COMMON_U1 = 1.44 / (0.09 + 0.0036 + 1.0)
HAND_PRIVATE_U1 = 0.09 / (0.0036 + 1.0)
# (h2.p12)^2=1.44, (h2.p1)^2=0.09, (h2.p2)^2=0.09
HAND_COMMON_U2 = 1.44 / (0.09 + 0.09 + 1.0)


class TestLayouts:
    def test_sdma_private_only(self):
        lay = build_layout("sdma", channel_2x2())
        assert lay.num_streams == 3
        assert [s.kind for s in lay.streams] == ["private", "private", "common"]
        assert [s.carries for s in lay.streams] == [(0,), (1,), ()]
        assert lay.private_columns == (0, 1) and lay.active.tolist() == [True, True, False]

    def test_rsma_adds_common(self):
        lay = build_layout("rsma", channel_2x2())
        assert lay.num_streams == 3
        assert lay.active.tolist() == [True, True, True]
        assert lay.streams[2].kind == "common" and lay.streams[2].carries == (0, 1)
        # every user decodes the common stream, with every private stream
        # as interference
        kernel = SicKernel(2, channel_2x2().noise)
        assert [np.flatnonzero(kernel._interferes[:, 2 + k]).tolist() for k in (0, 1)] == [[0, 1], [0, 1]]

    def test_noma_strong_user_selection(self):
        ch = channel_2x2(gains=((1.0, 0.2), (0.3, 0.25)))
        lay = build_layout("noma", ch)
        assert [s.kind for s in lay.streams] == ["private", "private", "common"]
        assert lay.strong == 0 and lay.streams[0].carries == (0,)  # larger ||h_k||_1 / sigma_k
        assert lay.streams[2].carries == (1,)
        assert lay.active.tolist() == [True, False, True]
        # both users decode the common stream: each has a common SINR
        rep = assemble_report(ch, Precoder(matrix=on_columns(lay, [[0.5, 1.0], [0.5, 1.0]])), lay)
        assert np.all(rep.sinr_common > 0.0) and rep.sinr_private[1] == 0.0

    def test_noma_strong_user_by_l1_norm_over_noise_level(self):
        # user 0 has the larger L2 row norm, user 1 the larger L1 norm, the
        # most amplitude the per-fixture budgets can put at a user
        assert build_layout("noma", channel_2x2(gains=((1.0, 0.0), (0.6, 0.6)))).strong == 1
        # against the noise level sigma_k, not its variance: 1.2 / 1 > 2 / 2
        # while 1.2 / 1 < 2 / 1.5
        gains = ((0.6, 0.6), (1.0, 1.0))
        assert build_layout("noma", channel_2x2(gains=gains, noise=(1.0, 4.0))).strong == 0
        assert build_layout("noma", channel_2x2(gains=gains, noise=(1.0, 2.25))).strong == 1

    def test_noma_tie_breaks_to_lower_index(self):
        lay = build_layout("noma", channel_2x2())
        assert lay.strong == 0

    def test_noma_needs_two_users(self):
        # as does every scheme: a layout has exactly two users, so no solver,
        # oracle or report is ever given another count, and each path
        # raises the layout's error
        for users in (1, 3):
            ch = ChannelMatrix(gains=np.ones((users, 2)), noise=np.ones(users))
            w = np.full(users, 1.0 / users)
            message = f"a layout has exactly two users, got {users}"
            with pytest.raises(ValueError, match=message):
                StreamLayout("sdma", users)
            for scheme in SCHEMES:
                with pytest.raises(ValueError, match=message):
                    build_layout(scheme, ch)
                # ao_solve builds each problem's layout from its own channel
                two = build_layout(scheme, channel_2x2())
                with pytest.raises(ValueError, match=message):
                    optimizer.ao_solve([optimizer.Problem(ch, scheme, 1.0)], w, layout=two)
                with pytest.raises(ValueError, match=message):
                    optimizer.grid_oracle(ch, build_layout(scheme, ch), w, epsilon=1.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_layout("tdma", channel_2x2())

    def test_strong_user_is_nomas_alone(self):
        # a layout stores only what build_layout decides: NOMA needs one of
        # its users as the strong one, and no other scheme takes one
        for scheme, strong in (("noma", None), ("noma", 2), ("noma", -1), ("sdma", 0), ("rsma", 1)):
            with pytest.raises(ValueError, match="cannot have strong user"):
                StreamLayout(scheme, 2, strong)


class TestSinr:
    """Every SINR is read from the report, indexed by user on the RSMA
    streams; an empty or zero column reads 0."""

    def test_zero_common_column(self):
        p = Precoder(matrix=np.array([[0.5, -0.2, 0.0], [-0.5, 0.4, 0.0]]))
        lay = build_layout("rsma", channel_2x2())
        assert np.all(assemble_report(channel_2x2(), p, lay).sinr_common == 0.0)

    def test_interference_free_common(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        p = Precoder(matrix=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        lay = build_layout("rsma", ch)
        assert assemble_report(ch, p, lay).sinr_common[0] == pytest.approx(4.0, rel=1e-14)

    def test_common_hand_instance(self):
        lay = build_layout("rsma", channel_2x2())
        rep = assemble_report(channel_2x2(), HAND, lay)
        assert rep.sinr_common[0] == pytest.approx(HAND_COMMON_U1, rel=1e-12)
        assert rep.sinr_common[1] == pytest.approx(HAND_COMMON_U2, rel=1e-12)

    def test_zero_private_column(self):
        lay = build_layout("sdma", channel_2x2())
        p = Precoder(matrix=on_columns(lay, np.zeros((2, 2))))
        rep = assemble_report(channel_2x2(), p, lay)
        assert np.all(rep.sinr_private == 0.0) and np.all(rep.private_rates == 0.0)

    def test_orthogonal_users(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("sdma", ch)
        p = Precoder(matrix=on_columns(lay, [[0.7, 0.0], [0.0, 0.4]]))
        assert assemble_report(ch, p, lay).sinr_private[0] == pytest.approx(0.49, rel=1e-14)

    def test_private_hand_instance(self):
        lay = build_layout("rsma", channel_2x2())
        assert assemble_report(channel_2x2(), HAND, lay).sinr_private[0] == pytest.approx(HAND_PRIVATE_U1, rel=1e-12)

    def test_three_user_private_hand_instance(self):
        # SicKernel codes the SIC rule of K users, though a layout has two
        # h1=(1,0), h2=(0,1), h3=(1,1); columns p1=(1,0), p2=(0,2), p3=(0.5,0.5), common=(1,1)
        gains = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        P = np.array([[1.0, 0.0, 0.5, 1.0], [0.0, 2.0, 0.5, 1.0]])
        # the kernel's mask: user 0's private stage (stage 0) and user 2's
        # common stage (stage 3 + 2)
        kernel = SicKernel(3, np.ones(3))
        assert np.flatnonzero(kernel._interferes[:, 0]).tolist() == [1, 2]
        assert np.flatnonzero(kernel._interferes[:, 5]).tolist() == [0, 1, 2]
        # user amplitudes (p1, p2, p3, common): (1, 0, .5, 1), (0, 2, .5, 1), (1, 2, 1, 2)
        sinr_p, sinr_c = kernel.sinrs((gains @ P)[None])
        assert sinr_p[0, 0] == pytest.approx(1.0 / (0.0 + 0.25 + 1.0), rel=1e-14)
        assert sinr_p[0, 1] == pytest.approx(4.0 / (0.0 + 0.25 + 1.0), rel=1e-14)
        assert sinr_p[0, 2] == pytest.approx(1.0 / (1.0 + 4.0 + 1.0), rel=1e-14)
        assert sinr_c[0, 2] == pytest.approx(4.0 / (1.0 + 4.0 + 1.0 + 1.0), rel=1e-14)

    def test_private_stage_excludes_common_stream(self):
        # adding power to the common column must not change any private SINR
        lay = build_layout("rsma", channel_2x2())
        boosted = Precoder(matrix=HAND.matrix * np.array([1.0, 1.0, 7.0]))
        rep_boosted, rep = assemble_report(channel_2x2(), boosted, lay), assemble_report(channel_2x2(), HAND, lay)
        assert np.array_equal(rep_boosted.sinr_private, rep.sinr_private)

    def test_common_stage_includes_all_privates(self):
        lay = build_layout("rsma", channel_2x2())
        boosted = Precoder(matrix=HAND.matrix * np.array([2.0, 1.0, 1.0]))
        rep_boosted, rep = assemble_report(channel_2x2(), boosted, lay), assemble_report(channel_2x2(), HAND, lay)
        assert rep_boosted.sinr_common[0] < rep.sinr_common[0]


class TestRates:
    def test_rate_values(self):
        # orthogonal users at SINR 0, 1 and 3: rates log2(1 + SINR) = 0, 1 and 2
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("sdma", ch)
        assert np.all(assemble_report(ch, Precoder(matrix=on_columns(lay, np.zeros((2, 2)))), lay).private_rates == 0.0)
        rep = assemble_report(ch, Precoder(matrix=on_columns(lay, np.diag([1.0, np.sqrt(3.0)]))), lay)
        assert rep.private_rates[0] == pytest.approx(1.0, rel=1e-15)
        assert rep.private_rates[1] == pytest.approx(2.0, rel=1e-15)

    def test_common_cap_symmetric(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        rep = assemble_report(ch, p, lay)
        assert rep.sinr_common[0] == rep.sinr_common[1]
        assert rep.common_cap == np.log2(1.0 + rep.sinr_common[0])

    def test_common_cap_zero_user(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("rsma", ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))  # user 2 hears nothing
        assert assemble_report(ch, p, lay).common_cap == 0.0

    def test_common_cap_hand_instance(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        rep = assemble_report(ch, HAND, lay)
        assert rep.common_cap == min(np.log2(1.0 + rep.sinr_common[0]), np.log2(1.0 + rep.sinr_common[1]))
        assert rep.common_cap == pytest.approx(np.log2(1.0 + min(HAND_COMMON_U1, HAND_COMMON_U2)), rel=1e-12)


# a two-user RSMA layout and a channel of three users
THREE_USERS = ChannelMatrix(gains=np.array([[0.9, 0.3], [0.3, 0.9], [0.5, 0.5]]), noise=np.ones(3))
OTHER_USERS = "the channel has 3 users, the layout 2"


class TestAssembleReport:
    def test_channel_of_other_users_rejected(self):
        lay = build_layout("rsma", channel_2x2())
        with pytest.raises(ValueError, match=OTHER_USERS):
            assemble_report(THREE_USERS, HAND, lay)
        with pytest.raises(ValueError, match=OTHER_USERS):
            assemble_report(THREE_USERS, HAND, lay, weights=np.full(3, 1.0 / 3.0))

    def test_zero_precoder_zero_wsr(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        rep = assemble_report(ch, Precoder(matrix=np.zeros((2, 3))), lay)
        assert rep.wsr == 0.0

    def test_sdma_common_fields_zero(self):
        ch = channel_2x2()
        lay = build_layout("sdma", ch)
        rep = assemble_report(ch, Precoder(matrix=on_columns(lay, HAND.matrix[:, :2])), lay)
        assert rep.common_cap == 0.0
        assert np.all(rep.common_shares == 0.0)
        assert np.all(rep.sinr_common == 0.0)

    def test_noma_hand_instance(self):
        # strong user 1 private, weak user 2 on the common stream
        ch = channel_2x2(gains=((1.0, 0.2), (0.3, 0.25)), noise=(1.0, 1.0))
        lay = build_layout("noma", ch)
        p = Precoder(matrix=on_columns(lay, [[0.5, 0.5], [0.0, 0.5]]))  # columns in use: private(u1), common
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
        # a RateReport refuses shares above the common-rate cap or below 0
        ch = channel_2x2()
        rep = assemble_report(ch, HAND, build_layout("rsma", ch))
        with pytest.raises(ValueError, match="exceed the common-rate cap"):
            replace(rep, common_shares=np.array([rep.common_cap, rep.common_cap]))
        with pytest.raises(ValueError, match="common_shares must be nonnegative"):
            replace(rep, common_shares=np.array([-0.1, 0.0]))

    def test_non_finite_weights_rejected(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        for w in ((np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5)):
            with pytest.raises(ValueError, match="weights must be finite"):
                assemble_report(ch, HAND, lay, weights=w)

    def test_wrong_stream_count_rejected(self):
        # a 1-column precoder on SDMA's 3 columns is not broadcast to them
        ch = channel_2x2(gains=((0.9, 0.4), (0.3, 0.8)))
        with pytest.raises(ValueError, match="the precoder has 1 streams, the layout 3"):
            assemble_report(ch, Precoder(matrix=np.ones((2, 1))), build_layout("sdma", ch))

    @pytest.mark.parametrize("scheme,column", [("sdma", 2), ("noma", 1)])
    def test_nonzero_empty_column_rejected(self, scheme, column):
        # SDMA's common column and NOMA's weak user's private column are
        # empty: a precoder that drives one is refused by the report and by
        # the Monte-Carlo check alike, not read as RSMA
        ch = channel_2x2(gains=((0.9, 0.4), (0.3, 0.8)))
        lay = build_layout(scheme, ch)
        assert not lay.active[column]
        P = on_columns(lay, [[0.5, 0.2], [-0.1, 0.4]])
        assemble_report(ch, Precoder(matrix=P), lay)
        P[1, column] = 1e-300
        message = f"the precoder drives a column the {scheme} layout leaves empty"
        with pytest.raises(ValueError, match=message):
            assemble_report(ch, Precoder(matrix=P), lay)
        with pytest.raises(ValueError, match=message):
            monte_carlo_sinr(ch, Precoder(matrix=P), lay, 0, 0, num_symbols=MC_MIN_SYMBOLS, seed=1)

    def test_overall_identity(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        rep = assemble_report(ch, HAND, lay)
        assert np.all(rep.overall == rep.common_shares + rep.private_rates)
        assert rep.common_shares.sum() <= rep.common_cap + 1e-9

    def test_default_share_goes_to_heavier_user(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
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
            rsma = build_layout("rsma", ch)
            sdma = build_layout("sdma", ch)
            rep_r = assemble_report(ch, Precoder(matrix=np.hstack([privates, np.zeros((2, 1))])), rsma)
            rep_s = assemble_report(ch, Precoder(matrix=on_columns(sdma, privates)), sdma)
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
            lay = build_layout("rsma", ch)
            P = Precoder(matrix=rng.normal(size=(2, 3)))
            alpha = rng.uniform(1.1, 3.0)
            Pa = Precoder(matrix=alpha * P.matrix)
            rep_a, rep = assemble_report(ch, Pa, lay), assemble_report(ch, P, lay)
            assert np.all(rep_a.sinr_private >= rep.sinr_private - 1e-15)
            assert np.all(rep_a.sinr_common >= rep.sinr_common - 1e-15)


class TestMonteCarlo:
    def test_channel_of_other_users_rejected(self):
        lay = build_layout("rsma", channel_2x2())
        for user, stream in ((0, 0), (0, 2), (2, 2)):
            with pytest.raises(ValueError, match=OTHER_USERS):
                monte_carlo_sinr(THREE_USERS, HAND, lay, user, stream, num_symbols=MC_MIN_SYMBOLS)

    def test_interference_free_agreement(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)))
        lay = build_layout("rsma", ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        est = monte_carlo_sinr(ch, p, lay, 0, 2, num_symbols=1_000_000, seed=42)  # the common stream
        assert est == pytest.approx(4.0, rel=0.02)

    def test_hand_instance_agreement(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        est = monte_carlo_sinr(ch, HAND, lay, 0, 0, num_symbols=1_000_000, seed=9)
        assert est == pytest.approx(HAND_PRIVATE_U1, rel=0.02)

    def test_seed_reproducibility(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        a = monte_carlo_sinr(ch, HAND, lay, 1, 1, num_symbols=MC_MIN_SYMBOLS, seed=5)
        b = monte_carlo_sinr(ch, HAND, lay, 1, 1, num_symbols=MC_MIN_SYMBOLS, seed=5)
        assert a == b

    def test_noiseless_single_stream_is_flagged_large(self):
        ch = channel_2x2(gains=((1.0, 0.0), (0.0, 1.0)), noise=(1e-300, 1e-300))
        lay = build_layout("rsma", ch)
        p = Precoder(matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        est = monte_carlo_sinr(ch, p, lay, 0, 2, num_symbols=MC_MIN_SYMBOLS, seed=1)  # the common stream
        assert est > 1e12

    @pytest.mark.parametrize("scheme", ["rsma", "sdma", "noma"])
    def test_streamed_draws_equal_one_draw(self, scheme):
        # the chunks' draws, concatenated, against one matmul and np.mean
        # over every row; the sums differ only in their order. An odd count
        # ends on a short last chunk, and 16 * _MC_CHUNK + 1 on a chunk of
        # one row; NOMA's private stage has no interferer at all
        ch = channel_2x2(noise=(1.3, 0.7))
        lay = build_layout(scheme, ch)
        P = on_columns(lay, np.array([[0.5, -0.2, 1.0], [-0.5, 0.4, 1.0]])[:, : lay.active.sum()])
        # the SIC rule, stated here: every user decodes the common stream
        # with every private stream as interference, and the user of a
        # private stream decodes it with the other private streams
        stages = [(user, stream) for stream, desc in enumerate(lay.streams) if desc.carries
                  for user in (range(lay.num_users) if desc.kind == "common" else desc.carries)]
        chunk = signal_model._MC_CHUNK
        draws = [(num_symbols, user, stream) for num_symbols in (MC_MIN_SYMBOLS + 1, 16 * chunk + 1)
                 for user, stream in stages]
        for seed, (num_symbols, user, stream) in enumerate(draws):
            rng = np.random.default_rng(seed)
            indices, normals = [], []
            for start in range(0, num_symbols, chunk):
                rows = min(chunk, num_symbols - start)
                indices.append(rng.integers(0, 4, size=(rows, lay.num_streams), dtype=np.uint8))
                normals.append(rng.standard_normal(rows))
            amps = ch.gains[user] @ P
            pam4 = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0)
            symbols = pam4[np.concatenate(indices)]
            noise = np.sqrt(ch.noise[user]) * np.concatenate(normals)
            others = [j for j in lay.private_columns if j != stream]
            signal = amps[stream] * symbols[:, stream]
            disturbance = symbols[:, others] @ amps[others] + noise
            expected = float(np.mean(signal**2) / np.mean(disturbance**2))
            got = monte_carlo_sinr(ch, Precoder(matrix=P), lay, user, stream, num_symbols=num_symbols, seed=seed)
            assert got == pytest.approx(expected, rel=1e-12), (num_symbols, user, stream)

    @pytest.mark.parametrize("num_users", [2])  # a layout has exactly two users
    def test_interferers_agree_with_the_kernel(self, num_users):
        # the Monte-Carlo interferers come from the decoding order, not from
        # SicKernel's mask; both must name the same streams at every stage
        gains = np.random.default_rng(4).uniform(0.2, 1.0, size=(num_users, num_users))
        ch = ChannelMatrix(gains=gains, noise=np.ones(num_users))
        kernel = SicKernel(num_users, ch.noise)
        for scheme in SCHEMES:
            lay = build_layout(scheme, ch)
            for stream, desc in enumerate(lay.streams):
                for user in (range(num_users) if desc.kind == "common" else desc.carries) if desc.carries else ():
                    stage = num_users + user if desc.kind == "common" else user
                    expected = [j for j in np.flatnonzero(kernel._interferes[:, stage]).tolist() if lay.active[j]]
                    assert signal_model._decoding_interferers(lay, user, stream) == expected, (scheme, user, stream)

    def test_peak_memory_of_a_million_symbols(self):
        # the common stage of RSMA, which has the most interferers; numpy's
        # buffers are traced
        ch = channel_2x2(noise=(1.3, 0.7))
        lay = build_layout("rsma", ch)
        # a first call imports numpy.random's modules, once per process
        monte_carlo_sinr(ch, HAND, lay, 0, 2, num_symbols=MC_MIN_SYMBOLS, seed=3)
        peaks = []
        for num_symbols in (1_000_000, 4_000_000):
            tracemalloc.start()
            try:
                monte_carlo_sinr(ch, HAND, lay, 0, 2, num_symbols=num_symbols, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a few chunks' arrays, whatever the number of symbols: 4e6 symbols
        # peak within the bound of 1e6
        assert peaks[0] <= 1e6 and peaks[1] <= 1e6

    @pytest.mark.parametrize("scheme,streams", [("rsma", 2), ("sdma", 4)])
    def test_wrong_stream_count_rejected(self, scheme, streams):
        # a precoder with fewer or more columns than the layout's K + 1
        ch = channel_2x2(gains=((0.9, 0.4), (0.3, 0.8)))
        lay = build_layout(scheme, ch)
        with pytest.raises(ValueError, match=f"the precoder has {streams} streams, the layout {lay.num_streams}"):
            monte_carlo_sinr(ch, Precoder(matrix=np.ones((2, streams))), lay, 0, 0, num_symbols=MC_MIN_SYMBOLS, seed=1)

    def test_symbol_count_floor(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        with pytest.raises(ValueError):
            monte_carlo_sinr(ch, HAND, lay, 0, 0, num_symbols=100, seed=1)

    @pytest.mark.parametrize("num_symbols", [1e6, 100_000.5, "1000000", None])
    def test_non_integer_symbol_count_rejected_before_any_draw(self, num_symbols, monkeypatch):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)

        def no_draws(*args):
            raise AssertionError("drew before checking the symbol count")

        monkeypatch.setattr(signal_model.np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="num_symbols must be an integer"):
            monte_carlo_sinr(ch, HAND, lay, 0, 0, num_symbols=num_symbols, seed=1)

    def test_wrong_stream_pairing_rejected(self):
        ch = channel_2x2()
        lay = build_layout("rsma", ch)
        with pytest.raises(ValueError, match="not user 0's private stream"):
            monte_carlo_sinr(ch, HAND, lay, 0, 1, num_symbols=MC_MIN_SYMBOLS, seed=1)
        # a stream index outside the layout's columns in use, negative ones
        # and SDMA's empty common column included
        for layout, stream in ((lay, -1), (lay, 3), (build_layout("sdma", ch), 2)):
            P = Precoder(matrix=on_columns(layout, HAND.matrix[:, : layout.active.sum()]))
            with pytest.raises(ValueError, match=f"stream {stream} is not one of the layout's"):
                monte_carlo_sinr(ch, P, layout, 0, stream, num_symbols=MC_MIN_SYMBOLS, seed=1)


def loop_sinrs(H, noise, P, layout):
    """Reference SINRs from explicit loops over the columns the layout
    fills: private by column, common by user (every user decodes it)."""
    A = H @ P
    priv = layout.private_columns
    sinr_p = []
    for c in priv:
        k = c  # user k's private column
        interference = 0.0
        for j in priv:
            if j != c:
                interference += A[k, j] ** 2
        sinr_p.append(A[k, c] ** 2 / (interference + noise[k]))
    sinr_c = []
    for c in [i for i, s in enumerate(layout.streams) if s.kind == "common" and s.carries]:
        for k in range(len(H)):
            interference = 0.0
            for j in priv:
                interference += A[k, j] ** 2
            sinr_c.append(A[k, c] ** 2 / (interference + noise[k]))
    return np.array(sinr_p), np.array(sinr_c)


KERNEL_CASES = [(s, 2, l) for s in SCHEMES for l in (1, 2, 4)]  # a layout has exactly two users


@pytest.mark.parametrize("scheme,users,fixtures", KERNEL_CASES)
def test_kernel_agrees_with_every_caller(scheme, users, fixtures):
    # reports, true_rates, the oracle WSR and the polish's stage rates all
    # come from SicKernel, and agree with each other and with per-column loops
    rng = np.random.default_rng(100 * users + fixtures)
    ch = ChannelMatrix(gains=rng.uniform(0.05, 1.0, size=(users, fixtures)), noise=rng.uniform(0.5, 2.0, size=users))
    lay = build_layout(scheme, ch)
    w = rng.uniform(0.2, 1.0, size=users)
    P = rng.normal(size=(16, fixtures, lay.active.sum()))
    comp = optimizer._Compiled([ch] * len(P), [lay] * len(P), w, np.ones(len(P)))
    # every caller reads the precoders on the RSMA columns
    Q = on_columns(lay, P)
    A = ch.gains @ Q
    kernel = SicKernel(users, ch.noise)
    sinr_p, sinr_c = kernel.sinrs(A)
    # the polish's stages are the kernel's whatever the scheme: K private
    # stages in user order, then the K common decoders
    stage_rates = optimizer._stage_derivatives(comp, Q)[0]
    assert comp.n_priv == users and stage_rates.shape == (len(P), 2 * users)
    assert sinr_p.shape == sinr_c.shape == (len(P), users)
    r_p, r_c = stage_rates[:, :users], stage_rates[:, users:]
    wsr_true = comp.true_rates(Q)
    w_priv, w_common = optimizer._stream_weights(lay, w)
    wsr_oracle = optimizer._amplitude_wsr(kernel, w_priv[None], w_common, A)
    owners = list(lay.private_columns)
    unserved = [k for k in range(users) if k not in owners]
    for b in range(len(P)):
        ref_p, ref_c = loop_sinrs(ch.gains, ch.noise, Q[b], lay)
        np.testing.assert_allclose(sinr_p[b, owners], ref_p, rtol=1e-12)
        rep = assemble_report(ch, Precoder(matrix=Q[b]), lay, weights=w)
        np.testing.assert_allclose(rep.sinr_private[owners], ref_p, rtol=1e-12)
        # the stage rates, (ln T - ln I) / ln 2 of each stage's received
        # power T and interference plus noise I; a column the layout leaves
        # empty is zero, so its stages' SINRs and rates are exactly 0
        np.testing.assert_allclose(r_p[b, owners], np.log2(1.0 + ref_p), rtol=0.0, atol=1e-12)
        assert np.all(sinr_p[b, unserved] == 0.0) and np.all(rep.sinr_private[unserved] == 0.0)
        assert np.all(r_p[b, unserved] == 0.0)
        if lay.scheme != "sdma":
            np.testing.assert_allclose(sinr_c[b], ref_c, rtol=1e-12)
            np.testing.assert_allclose(rep.sinr_common, ref_c, rtol=1e-12)
            np.testing.assert_allclose(r_c[b], np.log2(1.0 + ref_c), rtol=0.0, atol=1e-12)
        else:
            assert np.all(sinr_c[b] == 0.0) and np.all(rep.sinr_common == 0.0)
            assert np.all(r_c[b] == 0.0) and w_common == 0.0
        wsr_stage = float(w_priv @ r_p[b]) + w_common * float(r_c[b].min())
        assert float(r_c[b].min()) == pytest.approx(rep.common_cap, abs=1e-12)
        for wsr in (wsr_true[b], wsr_oracle[b], wsr_stage):
            assert wsr == pytest.approx(rep.wsr, abs=1e-12)


@pytest.mark.parametrize("mask", ["zeros", "random"])
@pytest.mark.parametrize("scheme,users,fixtures", [("rsma", 2, 2), ("noma", 2, 4)])
def test_polish_stages_read_the_kernels_mask(scheme, users, fixtures, mask, monkeypatch):
    # the SIC rule is coded once, in SicKernel's 0/1 mask: built with
    # another mask (each private stage's own column still 0), the kernel's
    # SINRs and the polish's stage rates both follow it
    rng = np.random.default_rng(7 * users + fixtures)
    real = SicKernel.__init__

    def other_mask(self, *args, **kwargs):
        real(self, *args, **kwargs)
        K = self.n_priv
        m = np.zeros((K, 2 * K)) if mask == "zeros" else rng.integers(0, 2, size=(K, 2 * K)).astype(float)
        m[np.arange(K), np.arange(K)] = 0.0
        self._interferes = m

    ch = ChannelMatrix(gains=rng.uniform(0.05, 1.0, size=(users, fixtures)), noise=rng.uniform(0.5, 2.0, size=users))
    lay = build_layout(scheme, ch)
    Q = on_columns(lay, rng.normal(size=(16, fixtures, lay.active.sum())))
    monkeypatch.setattr(SicKernel, "__init__", other_mask)
    comp = optimizer._Compiled([ch] * len(Q), [lay] * len(Q), np.full(users, 1.0 / users), np.ones(len(Q)))
    assert not np.array_equal(comp._interferes, 1.0 - np.eye(users, 2 * users))
    sinr_p, sinr_c = comp.sinrs(comp.H @ Q)
    rates = np.log2(1.0 + np.concatenate((sinr_p, sinr_c), axis=1))
    np.testing.assert_allclose(optimizer._stage_derivatives(comp, Q)[0], rates, rtol=0.0, atol=1e-12)
    # the zero mask moves the SINRs off the true rule's (a random one may
    # drop only a column the layout leaves at 0)
    monkeypatch.undo()
    assert mask != "zeros" or not np.allclose(np.concatenate(SicKernel(users, ch.noise).sinrs(ch.gains @ Q), axis=1),
                           np.concatenate((sinr_p, sinr_c), axis=1))
