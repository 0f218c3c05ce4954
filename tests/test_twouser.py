"""Two-user closed forms: optimizer, region sweeps, scalar sum rate, FDM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miso_sud.numlin import FeasibilityError
from miso_sud.oracle import ConstrainedMaxProblem, rank_one_search
from miso_sud.region import pareto_filter
from miso_sud.twouser import (
    TwoUserChannel,
    cross_angles,
    fdm_beats_zf_condition,
    fdm_region,
    fdm_zf_threshold,
    interference_limited_region,
    max_signal_given_interference,
    scalar_sud_sum_rate,
    two_user_region,
)
from tests.conftest import build_symmetric_pair, random_pair_channel, random_vector

LOG2_55 = np.log2(5.5)
LOG2_7 = np.log2(7.0)


class TestMaxSignal:
    def test_orthogonal_channels(self):
        gamma, value = max_signal_given_interference(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, 0.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(gamma), [1.0, 0.0], atol=1e-12)

    def test_forty_five_degree_channel(self):
        h1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        h3 = np.array([1.0, 0.0])
        _, value = max_signal_given_interference(h1, h3, 1.0, 0.5)
        assert value == pytest.approx(np.sin(np.deg2rad(75.0)) ** 2, abs=1e-9)

    def test_dependent_channels(self):
        h3 = np.array([1.0, 0.0])
        gamma, value = max_signal_given_interference(2.0 * h3, h3, 1.0, 0.5)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(h3, gamma)) ** 2 == pytest.approx(0.25, abs=1e-12)

    def test_infeasible_level(self):
        with pytest.raises(FeasibilityError):
            max_signal_given_interference(np.ones(2), np.array([1.0, 0.0]), 1.0, 1.5)

    def test_zero_cross_channel(self):
        gamma, value = max_signal_given_interference(
            np.array([2.0, 0.0]), np.zeros(2), 1.0, 0.0)
        assert value == pytest.approx(4.0)
        assert np.linalg.norm(gamma) ** 2 == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(FeasibilityError):
            max_signal_given_interference(np.ones(2), np.zeros(2), 1.0, 0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_constraint_activity_and_power(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        cplx = bool(rng.integers(0, 2))
        h1 = random_vector(rng, dim, cplx)
        h3 = random_vector(rng, dim, cplx)
        p = float(rng.uniform(0.2, 5.0))
        z = float(rng.uniform(0.0, 1.0)) * np.sqrt(p) * np.linalg.norm(h3)
        gamma, value = max_signal_given_interference(h1, h3, p, z)
        assert abs(np.vdot(h3, gamma)) == pytest.approx(z, abs=1e-9 * max(1.0, z))
        # random directions never carry dependent h1, h3: full power is used
        assert np.linalg.norm(gamma) ** 2 == pytest.approx(p, rel=1e-10)
        assert abs(np.vdot(h1, gamma)) ** 2 == pytest.approx(value, rel=1e-9)

    def test_upper_bounds_multistart_search(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            cplx = bool(rng.integers(0, 2))
            h1 = random_vector(rng, dim, cplx)
            h3 = random_vector(rng, dim, cplx)
            p = float(rng.uniform(0.3, 4.0))
            z = float(rng.uniform(0.05, 0.95)) * np.sqrt(p) * np.linalg.norm(h3)
            _, value = max_signal_given_interference(h1, h3, p, z)
            prob = ConstrainedMaxProblem(target=h1, caps=((h3, z * z, "equality"),), p=p)
            report = rank_one_search(prob, starts=10, seed=3)
            assert report.value <= value + 1e-9 * max(1.0, value)
            assert value - report.value <= 1e-3 * max(1.0, value)


class TestTwoUserRegion:
    def test_zero_sweep_corner(self, symmetric_pair):
        samples = two_user_region(symmetric_pair, 3, 3)
        corner = samples[0]
        assert corner.params[0].psi == (0.0,)
        assert corner.rates[0] == pytest.approx(LOG2_55, abs=1e-10)
        assert corner.rates[1] == pytest.approx(LOG2_55, abs=1e-10)

    def test_partner_at_maximum_rate(self, symmetric_pair):
        grid = 5
        samples = two_user_region(symmetric_pair, grid, grid)
        edge = samples[grid - 1]
        assert edge.params[1].psi[0] == pytest.approx(np.pi / 2 - np.pi / 3)
        assert edge.rates[1] == pytest.approx(LOG2_7, abs=1e-10)
        assert edge.rates[0] == pytest.approx(np.log2(1.0 + 4.5 / 1.5), abs=1e-10)

    def test_orthogonal_cross_channels_degenerate(self):
        ch = TwoUserChannel(
            h1=np.array([1.0, 0.0]), h2=np.array([0.0, 0.7]),
            h3=np.array([0.0, 0.5]), h4=np.array([1.0, 0.0]),
            p1=6.0, p2=6.0, field="complex")
        samples = two_user_region(ch, 4, 4)
        for s in samples:
            assert s.rates[0] == pytest.approx(LOG2_7, abs=1e-10)
            assert s.rates[1] == pytest.approx(LOG2_7, abs=1e-10)

    def test_monotone_signal_and_interference(self):
        rng = np.random.default_rng(22)
        ch = random_pair_channel(rng)
        grid = 15
        samples = two_user_region(ch, grid, grid)
        sig1 = [samples[i1 * grid].interference[0, 0] for i1 in range(grid)]
        z1 = [samples[i1 * grid].interference[0, 1] for i1 in range(grid)]
        assert np.all(np.diff(sig1) >= -1e-9)
        assert np.all(np.diff(z1) >= -1e-12)

    def test_rates_recompute_from_beamformers(self):
        rng = np.random.default_rng(23)
        ch = random_pair_channel(rng)
        pref = ch.prefactor
        for s in two_user_region(ch, 7, 7):
            g1, g2 = s.beamformers
            sinr1 = abs(np.vdot(ch.h(0, 0), g1)) ** 2 / (1.0 + abs(np.vdot(ch.h(1, 0), g2)) ** 2)
            sinr2 = abs(np.vdot(ch.h(1, 1), g2)) ** 2 / (1.0 + abs(np.vdot(ch.h(0, 1), g1)) ** 2)
            assert s.rates[0] == pytest.approx(pref * np.log2(1.0 + sinr1), abs=1e-10)
            assert s.rates[1] == pytest.approx(pref * np.log2(1.0 + sinr2), abs=1e-10)

    def test_real_field_half_prefactor(self):
        cplx = build_symmetric_pair(field="complex")
        real = build_symmetric_pair(field="real")
        s_c = two_user_region(cplx, 3, 3)
        s_r = two_user_region(real, 3, 3)
        for a, b in zip(s_c, s_r):
            assert b.rates[0] == pytest.approx(a.rates[0] / 2.0, rel=1e-12)

    def test_nats_flag(self, symmetric_pair):
        bits = two_user_region(symmetric_pair, 3, 3)
        nats = two_user_region(symmetric_pair, 3, 3, nats=True)
        for a, b in zip(bits, nats):
            assert b.rates[0] == pytest.approx(a.rates[0] * np.log(2.0), rel=1e-12)

    def test_region_shrinks_with_cross_gain(self):
        sweeps = [two_user_region(build_symmetric_pair(cross_norm=s), 13, 13)
                  for s in (0.8, 1.5, 2.5)]
        for small, large in zip(sweeps, sweeps[1:]):
            for a, b in zip(small, large):
                assert b.rates[0] <= a.rates[0] + 1e-12
                assert b.rates[1] <= a.rates[1] + 1e-12

    def test_grid_validation(self, symmetric_pair):
        with pytest.raises(ValueError):
            two_user_region(symmetric_pair, 1, 5)


class TestInterferenceLimited:
    def test_large_caps_reduce_to_plain_region(self, symmetric_pair):
        ch = symmetric_pair
        qmax1 = ch.powers[0] * np.linalg.norm(ch.h(0, 1)) ** 2 * np.cos(np.pi / 3) ** 2
        qmax2 = ch.powers[1] * np.linalg.norm(ch.h(1, 0)) ** 2 * np.cos(np.pi / 3) ** 2
        plain = two_user_region(ch, 9, 9)
        capped = interference_limited_region(ch, 2 * qmax1, 2 * qmax2, 9, 9)
        assert len(plain) == len(capped)
        for a, b in zip(plain, capped):
            assert a.params[0].psi == b.params[0].psi
            assert a.params[1].psi == b.params[1].psi
            assert a.rates == b.rates

    def test_zero_caps_give_zero_forcing_rectangle(self, symmetric_pair):
        samples = interference_limited_region(symmetric_pair, 0.0, 0.0, 5, 5)
        for s in samples:
            assert s.params[0].psi == (0.0,)
            assert s.params[1].psi == (0.0,)
            assert s.rates[0] == pytest.approx(LOG2_55, abs=1e-10)

    def test_half_cap_stays_inside(self, symmetric_pair):
        ch = symmetric_pair
        qmax = ch.powers[0] * np.linalg.norm(ch.h(0, 1)) ** 2 * np.cos(np.pi / 3) ** 2
        q = qmax / 2.0
        capped = interference_limited_region(ch, q, q, 21, 21)
        for s in capped:
            assert s.interference[0, 1] <= q + 1e-12
            assert s.interference[1, 0] <= q + 1e-12
        plain = np.array([s.rates for s in two_user_region(ch, 201, 201)])
        front = plain[pareto_filter(plain)]
        front = front[np.argsort(front[:, 0])]
        for s in capped:
            # frontier is decreasing, so the first front point at or beyond
            # this r1 carries the largest r2 still reachable there
            idx = np.searchsorted(front[:, 0], s.rates[0] - 1e-9, side="left")
            envelope = front[min(idx, front.shape[0] - 1), 1]
            assert s.rates[1] <= envelope + 5e-2

    def test_zero_cross_channel_rejected(self):
        ch = TwoUserChannel(h1=np.ones(2), h2=np.zeros(2), h3=np.ones(2),
                            h4=np.ones(2), p1=1.0, p2=1.0, field="real")
        with pytest.raises(FeasibilityError):
            interference_limited_region(ch, 1.0, 1.0, 3, 3)

    def test_negative_cap_rejected(self, symmetric_pair):
        with pytest.raises(ValueError):
            interference_limited_region(symmetric_pair, -0.1, 0.0, 3, 3)


class TestScalarSumRate:
    def test_no_interference(self):
        rate, corner = scalar_sud_sum_rate(3.0, 2.0, 0.0, 0.0)
        assert rate == pytest.approx(np.log2(4.0) + np.log2(3.0), rel=1e-12)
        assert corner == (3.0, 2.0)

    def test_moderate_interference_keeps_both_active(self):
        rate, corner = scalar_sud_sum_rate(1.0, 1.0, 1.0, 1.0)
        assert rate == pytest.approx(2.0 * np.log2(1.5), rel=1e-12)
        assert corner == (1.0, 1.0)

    def test_strong_interference_silences_one_user(self):
        rate, corner = scalar_sud_sum_rate(10.0, 10.0, 10.0, 10.0)
        assert rate == pytest.approx(np.log2(11.0), rel=1e-12)
        assert corner == (0.0, 10.0)

    def test_tie_broken_toward_joint_power(self):
        rate, corner = scalar_sud_sum_rate(5.0, 0.0, 2.0, 2.0)
        assert rate == pytest.approx(np.log2(6.0), rel=1e-12)
        assert corner == (5.0, 0.0)

    def test_nats(self):
        rate, _ = scalar_sud_sum_rate(1.0, 1.0, 1.0, 1.0, nats=True)
        assert rate == pytest.approx(2.0 * np.log(1.5), rel=1e-12)


class TestFdm:
    def test_endpoint(self, symmetric_pair):
        pairs = fdm_region(symmetric_pair, 5)
        assert pairs[-1].r1 == pytest.approx(LOG2_7, abs=1e-12)
        assert pairs[-1].r2 == 0.0
        assert pairs[0].r1 == 0.0
        assert pairs[0].r2 == pytest.approx(LOG2_7, abs=1e-12)

    def test_half_split(self, symmetric_pair):
        pairs = fdm_region(symmetric_pair, 5)
        mid = pairs[2]
        assert mid.r1 == pytest.approx(0.5 * np.log2(13.0), rel=1e-12)
        assert mid.r2 == pytest.approx(0.5 * np.log2(13.0), rel=1e-12)

    def test_threshold_values(self):
        assert fdm_zf_threshold(4.0) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert 1.0 - 1e-4 <= fdm_zf_threshold(1e-9) <= 1.0
        assert fdm_zf_threshold(1e9) <= 1e-2
        with pytest.raises(ValueError):
            fdm_zf_threshold(0.0)

    def test_condition(self):
        assert fdm_beats_zf_condition(np.deg2rad(44.9), 4.0)
        assert not fdm_beats_zf_condition(np.deg2rad(45.1), 4.0)
        assert fdm_beats_zf_condition(np.deg2rad(89.0), 1e-9)
        assert not fdm_beats_zf_condition(0.1, 1e9)
        with pytest.raises(ValueError):
            fdm_beats_zf_condition(-0.1, 1.0)


class TestChannelPlumbing:
    def test_angles(self, symmetric_pair):
        assert cross_angles(symmetric_pair)[0] == pytest.approx(np.pi / 3, abs=1e-12)
        assert cross_angles(symmetric_pair)[1] == pytest.approx(np.pi / 3, abs=1e-12)

    def test_as_network_layout(self):
        h1, h2, h3, h4 = (np.array([1.0, k]) for k in (2.0, 3.0, 4.0, 5.0))
        ch = TwoUserChannel(h1=h1, h2=h2, h3=h3, h4=h4, p1=1.0, p2=2.0, field="real")
        assert ch.m == 2
        assert np.array_equal(ch.channels[0][:, 0], h1)
        assert np.array_equal(ch.channels[0][:, 1], h3)
        assert np.array_equal(ch.channels[1][:, 0], h2)
        assert np.array_equal(ch.channels[1][:, 1], h4)

    def test_needs_two_users(self, three_user_net):
        with pytest.raises(ValueError):
            two_user_region(three_user_net, 3, 3)
        with pytest.raises(ValueError):
            fdm_region(three_user_net, 3)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TwoUserChannel(h1=np.ones(3), h2=np.ones(2), h3=np.ones(2),
                           h4=np.ones(2), p1=1.0, p2=1.0, field="real")
