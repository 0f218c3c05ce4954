"""Interference-frame reduction, spherical parametrization, and lifts."""

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import approx_fprime
from hypothesis import given, settings, strategies as st

from miso_sud.mreduce import (
    ReducedFrame,
    SphericalParams,
    best_rank_one_sweep,
    gamma_from_angles,
    powers_closed_form,
    rank_one_rows,
    rank_one_table,
    reduce_interference_frame,
    lift_covariance,
    spherical_rank_one,
)
from miso_sud import mreduce
from miso_sud.mreduce import _angle_rows, _box_pattern, _frame_terms, _signal_leaks, _zoom_rows
from miso_sud.oracle import ConstrainedMaxProblem, rank_one_search
from miso_sud.twouser import max_signal_given_interference
from tests.conftest import H1, certify_input, random_vector


def maxabs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def true_angle(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return np.pi / 2
    return float(np.arccos(np.clip(np.real(np.vdot(a, b)) / (na * nb), -1.0, 1.0)))


class TestReduceFrame:
    def test_single_interferer_split(self):
        rng = np.random.default_rng(10)
        own = random_vector(rng, 4, True)
        h1 = random_vector(rng, 4, True)
        fr = reduce_interference_frame(own, [h1])
        assert fr.mbar == 1
        assert abs(abs(fr.h_low[0]) - abs(np.vdot(h1, own)) / np.linalg.norm(h1)) <= 1e-10
        assert abs(np.linalg.norm(fr.h_hat) ** 2
                   - (np.linalg.norm(own) ** 2 - abs(fr.h_low[0]) ** 2)) <= 1e-10

    def test_orthogonal_interferer(self):
        own = np.array([1.0, 0.0, 0.0])
        fr = reduce_interference_frame(own, [np.array([0.0, 1.0, 0.0])])
        assert abs(fr.h_low[0]) <= 1e-14
        assert np.linalg.norm(fr.h_hat) == pytest.approx(1.0, abs=1e-14)

    def test_three_user_channel_frame(self):
        own, i1, i2 = H1[:, 0], H1[:, 1], H1[:, 2]
        fr = reduce_interference_frame(own, [i1, i2])
        assert fr.mbar == 2
        t = fr.transform
        assert maxabs(t.conj().T @ t - np.eye(5)) <= 1e-12
        assert (np.linalg.norm(fr.h_low) ** 2 + np.linalg.norm(fr.h_hat) ** 2
                == pytest.approx(np.linalg.norm(own) ** 2, rel=1e-10))
        for j, v in enumerate((i1, i2)):
            w = t.conj().T @ v
            assert maxabs(w[j + 1:]) <= 1e-10
            assert maxabs(w[:2] - fr.hj_low[j]) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_frame_invariants(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 8))
        m1 = int(rng.integers(0, 5))
        cplx = bool(rng.integers(0, 2))
        own = random_vector(rng, t, cplx)
        interf = [random_vector(rng, t, cplx) for _ in range(m1)]
        fr = reduce_interference_frame(own, interf)
        assert fr.mbar == min(t, m1)
        tr = fr.transform
        assert maxabs(tr.conj().T @ tr - np.eye(t)) <= 1e-12
        assert abs(np.linalg.norm(fr.h_low) ** 2 + np.linalg.norm(fr.h_hat) ** 2
                   - np.linalg.norm(own) ** 2) <= 1e-10 * max(1.0, np.linalg.norm(own) ** 2)
        assert maxabs(tr @ np.concatenate([fr.h_low, fr.h_hat]) - own) <= 1e-10
        for j, v in enumerate(interf):
            w = tr.conj().T @ v
            assert maxabs(w[min(j + 1, t):]) <= 1e-10 * max(1.0, np.linalg.norm(v))
            assert maxabs(w[:fr.mbar] - fr.hj_low[j]) <= 1e-12 * max(1.0, np.linalg.norm(v))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduce_interference_frame(np.ones(3), [np.ones(2)])


class TestSphericalRankOne:
    def test_first_coordinate_saturates(self):
        _, s11 = spherical_rank_one(3.0, SphericalParams((np.pi / 2, 1.234)))
        expect = np.zeros((2, 2))
        expect[0, 0] = 3.0
        assert np.allclose(s11, expect, atol=1e-12)

    def test_second_coordinate_saturates(self):
        _, s11 = spherical_rank_one(3.0, SphericalParams((0.0, np.pi / 2)))
        expect = np.zeros((2, 2))
        expect[1, 1] = 3.0
        assert np.allclose(s11, expect, atol=1e-12)

    def test_two_angle_entries(self):
        _, s11 = spherical_rank_one(1.0, SphericalParams((np.pi / 6, np.pi / 4)))
        s1, c1, s2 = np.sin(np.pi / 6), np.cos(np.pi / 6), np.sin(np.pi / 4)
        expect = np.array([[s1 * s1, s1 * c1 * s2], [s1 * c1 * s2, c1 * c1 * s2 * s2]])
        assert np.allclose(s11, expect, atol=1e-12)
        assert s11[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert s11[1, 1] == pytest.approx(0.375, abs=1e-12)
        assert s11[0, 1] == pytest.approx(0.30618621784789724, abs=1e-12)

    def test_two_angle_matrix_reproduced(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = float(rng.uniform(0.1, 4.0))
            psi1, psi2 = rng.uniform(0.0, np.pi, size=2)
            _, s11 = spherical_rank_one(p, SphericalParams((psi1, psi2)))
            s1, c1, s2 = np.sin(psi1), np.cos(psi1), np.sin(psi2)
            expect = p * np.array([[s1 * s1, s1 * c1 * s2],
                                   [s1 * c1 * s2, c1 * c1 * s2 * s2]])
            assert maxabs(s11 - expect) <= 1e-12 * max(1.0, p)

    def test_trace_within_budget(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mbar = int(rng.integers(1, 5))
            params = SphericalParams(rng.uniform(0, np.pi, mbar),
                                     rng.uniform(0, 2 * np.pi, mbar))
            gam, s11 = spherical_rank_one(2.5, params)
            assert np.trace(s11).real <= 2.5 + 1e-12
            assert np.linalg.matrix_rank(s11, tol=1e-10) <= 1
            assert np.allclose(s11, 2.5 * np.outer(gam, gam.conj()), atol=1e-12)


class TestLift:
    def test_no_residual_block_embedding(self):
        rng = np.random.default_rng(13)
        own = random_vector(rng, 2, False)
        interf = [random_vector(rng, 2, False) for _ in range(3)]
        fr = reduce_interference_frame(own, interf)
        assert fr.h_hat.size == 0
        _, s11 = spherical_rank_one(1.0, SphericalParams((0.3, 1.1)))
        s = lift_covariance(fr, s11, 1.0)
        expect = fr.transform @ s11 @ fr.transform.conj().T
        assert maxabs(s - expect) <= 1e-12

    def test_zero_block_power_on_residual(self):
        rng = np.random.default_rng(14)
        own = random_vector(rng, 4, True)
        interf = [random_vector(rng, 4, True)]
        fr = reduce_interference_frame(own, interf)
        s = lift_covariance(fr, np.zeros((1, 1)), 2.0)
        signal = float(np.real(own.conj() @ s @ own))
        assert signal == pytest.approx(2.0 * np.linalg.norm(fr.h_hat) ** 2, rel=1e-10)
        assert abs(np.real(interf[0].conj() @ s @ interf[0])) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_power_consistency(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 9))
        m1 = int(rng.integers(0, 5))
        cplx = bool(rng.integers(0, 2))
        own = random_vector(rng, t, cplx)
        interf = [random_vector(rng, t, cplx) for _ in range(m1)]
        fr = reduce_interference_frame(own, interf)
        if fr.mbar == 0:
            return
        p = float(rng.uniform(0.2, 4.0))
        params = SphericalParams(rng.uniform(0, np.pi, fr.mbar),
                                 rng.uniform(0, 2 * np.pi, fr.mbar) if cplx else None)
        _, s11 = spherical_rank_one(p, params)
        s = lift_covariance(fr, s11, p)
        assert np.trace(s).real <= p + 1e-12 * max(1.0, p)
        if fr.h_hat.size and np.linalg.norm(fr.h_hat) > 1e-9:
            assert np.trace(s).real == pytest.approx(p, rel=1e-10)
        for j, v in enumerate(interf):
            got = float(np.real(v.conj() @ s @ v))
            want = float(np.real(fr.hj_low[j].conj() @ s11 @ fr.hj_low[j]))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestPowersClosedForm:
    @staticmethod
    def angles_of(h0, h1, h2):
        return (true_angle(h0, h1), true_angle(h1, h2), true_angle(h0, h2))

    def test_matches_lift_on_random_real_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            t = int(rng.integers(3, 7))
            h0, h1, h2 = (random_vector(rng, t, False) for _ in range(3))
            th01, th12, th02 = self.angles_of(h0, h1, h2)
            fr = reduce_interference_frame(h0, [h1, h2])
            p = float(rng.uniform(0.3, 5.0))
            psi1, psi2 = rng.uniform(0.0, np.pi, size=2)
            _, s11 = spherical_rank_one(p, SphericalParams((psi1, psi2)))
            s = lift_covariance(fr, s11, p)
            got = (float(np.real(h0 @ s @ h0)), float(np.real(h1 @ s @ h1)),
                   float(np.real(h2 @ s @ h2)))
            want = powers_closed_form(np.linalg.norm(h0), np.linalg.norm(h1),
                                      np.linalg.norm(h2), th01, th12, th02,
                                      p, psi1, psi2)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_zero_angles_zero_interference(self):
        rng = np.random.default_rng(16)
        h0, h1, h2 = (random_vector(rng, 4, False) for _ in range(3))
        th01, th12, th02 = self.angles_of(h0, h1, h2)
        sig, z1, z2 = powers_closed_form(np.linalg.norm(h0), np.linalg.norm(h1),
                                         np.linalg.norm(h2), th01, th12, th02,
                                         2.0, 0.0, 0.0)
        assert z1 == 0.0 and z2 == 0.0
        denom = np.sin(th01) * np.sin(th12)
        th_hat = np.arccos(np.clip(
            (np.cos(th02) - np.cos(th01) * np.cos(th12)) / denom, -1, 1))
        assert sig == pytest.approx(
            2.0 * np.linalg.norm(h0) ** 2 * np.sin(th01) ** 2 * np.sin(th_hat) ** 2,
            rel=1e-10)

    def test_full_power_point(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h0, h1, h2 = (random_vector(rng, 3, False) for _ in range(3))
            th01, th12, th02 = self.angles_of(h0, h1, h2)
            denom = np.sin(th01) * np.sin(th12)
            th_hat = np.pi / 2 if denom <= 1e-12 else np.arccos(np.clip(
                (np.cos(th02) - np.cos(th01) * np.cos(th12)) / denom, -1, 1))
            p = 1.5
            sig, z1, z2 = powers_closed_form(
                np.linalg.norm(h0), np.linalg.norm(h1), np.linalg.norm(h2),
                th01, th12, th02, p, np.pi / 2 - th01, np.pi / 2 - th_hat)
            assert sig == pytest.approx(p * np.linalg.norm(h0) ** 2, rel=1e-9)
            assert z1 == pytest.approx(p * np.linalg.norm(h1) ** 2 * np.cos(th01) ** 2,
                                       rel=1e-9, abs=1e-12)
            assert z2 == pytest.approx(p * np.linalg.norm(h2) ** 2 * np.cos(th02) ** 2,
                                       rel=1e-9, abs=1e-12)

    def test_orthogonal_triple(self):
        sig, z1, z2 = powers_closed_form(2.0, 1.0, 1.0, np.pi / 2, np.pi / 2,
                                         np.pi / 2, 3.0, 0.0, 0.0)
        assert sig == pytest.approx(12.0, rel=1e-12)
        assert z1 == 0.0 and z2 == 0.0


class TestSweep:
    def test_matches_closed_form_under_cap(self):
        rng = np.random.default_rng(18)
        worst = 0.0
        for _ in range(60):
            t = int(rng.integers(2, 6))
            cplx = bool(rng.integers(0, 2))
            h1 = random_vector(rng, t, cplx)
            h3 = random_vector(rng, t, cplx)
            p = float(rng.uniform(0.5, 5.0))
            cap = float(rng.uniform(0.05, 1.0))
            val, _, _ = best_rank_one_sweep(h1, [(h3, cap)], p, rounds=16,
                                            complex_phases=cplx)
            n3 = np.linalg.norm(h3)
            z_mf = np.sqrt(p) * abs(np.vdot(h3, h1)) / np.linalg.norm(h1)
            zstar = min(np.sqrt(cap), z_mf, np.sqrt(p) * n3)
            _, ref = max_signal_given_interference(h1, h3, p, zstar)
            worst = max(worst, abs(val - ref) / max(1.0, ref))
        assert worst <= 1e-8

    def test_no_caps_matched_filter(self):
        rng = np.random.default_rng(19)
        h = random_vector(rng, 3, True)
        val, _, beam = best_rank_one_sweep(h, [], 2.0)
        assert val == pytest.approx(2.0 * np.linalg.norm(h) ** 2, rel=1e-12)
        assert abs(np.vdot(h, beam)) ** 2 == pytest.approx(val, rel=1e-10)

    def test_beam_achieves_tabulated_powers(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            t = int(rng.integers(2, 6))
            cplx = bool(rng.integers(0, 2))
            own = random_vector(rng, t, cplx)
            interf = [random_vector(rng, t, cplx)
                      for _ in range(int(rng.integers(1, 4)))]
            fr = reduce_interference_frame(own, interf)
            axes = [np.linspace(0, np.pi, 5)] * fr.mbar
            p = 1.3
            angles, _, signal, zsq, beams = rank_one_table(fr, p, axes)
            for k in range(angles.shape[0]):
                b = beams[k]
                assert np.linalg.norm(b) ** 2 <= p + 1e-9
                assert abs(np.vdot(own, b)) ** 2 == pytest.approx(
                    signal[k], rel=1e-8, abs=1e-10)
                for j, v in enumerate(interf):
                    assert abs(np.vdot(v, b)) ** 2 == pytest.approx(
                        zsq[k, j], rel=1e-8, abs=1e-10)

    def test_infeasible_negative_cap(self):
        with pytest.raises(ValueError):
            best_rank_one_sweep(np.ones(2), [(np.ones(2), -1.0)], 1.0)


class TestSweepOnCertifyInputs:
    """Real inputs with two caps on which a one-seed sweep stopped in the
    wrong local maximum.  With d = mbar = 2 the own channel has no residual
    direction and the feasible gammas form a disk cut by two slabs, with
    local maxima at cap-cap vertices and on the rim |gamma| = 1; (2, 1768)
    needs a vertex inside the disk, (11, 2201) has d = 3.  On (3, 10632),
    (2, 12936) and (10, 11752) the optimum is a vertex in a sliver of the disk
    that no grid seed reaches: every seed ended 1.0e-3 to 6.1e-3 short."""

    @pytest.mark.parametrize("seed,index", [
        (20, 56), (11, 504), (11, 632), (12, 712), (14, 584), (15, 1272),
        (2, 1768), (11, 2201), (3, 10632), (2, 12936), (10, 11752),
    ])
    def test_reaches_the_rank_one_optimum(self, seed, index):
        # drawn as perfbench's certify workload draws (seed, index)
        h, caps, p = certify_input(seed, index, 2 + index % 4, False, 2)
        val, _, beam = best_rank_one_sweep(h, caps, p)
        prob = ConstrainedMaxProblem(
            target=h, caps=tuple((v, b, "upper") for v, b in caps), p=p)
        search = rank_one_search(prob).value
        assert search - val <= 1e-6 * max(1.0, search)
        # the sweep admits a cap excess of 1e-9 * max(1, bound); on (15, 1272)
        # its beam uses it and lands 2.1e-5 above the search, a gain bounded
        # by that excess times the cap's multiplier lambda_1 = 5,352
        tol = 1e-9 * max(1.0, max(b for _, b in caps))
        assert np.linalg.norm(beam) ** 2 <= p * (1.0 + 1e-12)
        for v, b in caps:
            assert abs(np.vdot(v, beam)) ** 2 <= b + tol
        assert abs(np.vdot(h, beam)) ** 2 == pytest.approx(val, rel=1e-10)


def _draw(rng, d, cplx):
    v = rng.standard_normal(d)
    if cplx:
        v = (v + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
    return v


def sweep_golden_inputs():
    """(name, h, caps, p, complex_phases) inputs whose sweep results are pinned."""
    cases = []
    # two inputs per certify cell (d = 2-5; real with 1 or 2 caps, complex
    # with 1), drawn as perfbench's certify workload draws seed 7
    for index in range(32):
        cplx = (index // 4) % 2 == 1
        n_caps = 1 if cplx else 1 + (index // 8) % 2
        h, caps, p = certify_input(7, index, 2 + index % 4, cplx, n_caps)
        cases.append((f"certify-{index}", h, caps, p, cplx))
    rng = np.random.default_rng(2024)
    # t = mbar = 3: the rim |gamma| = 1 is swept as well
    h = _draw(rng, 3, False)
    caps = [(g, 0.4 * float(np.linalg.norm(g)) ** 2) for g in (_draw(rng, 3, False) for _ in range(3))]
    cases.append(("rim", h, caps, 1.5, False))
    # complex, mbar = 2 < t = 3, with phases swept
    h = _draw(rng, 3, True)
    caps = [(g, 0.3 * float(np.linalg.norm(g)) ** 2) for g in (_draw(rng, 3, True) for _ in range(2))]
    cases.append(("phases", h, caps, 2.0, True))
    cases.append(("no-cap", _draw(rng, 4, True), [], 1.2, True))
    return cases


# float.hex of (value, angles) of best_rank_one_sweep on sweep_golden_inputs,
# with one BLAS thread: any change to the search path (angles visited, their
# order, the arithmetic of a visit) shows here
SWEEP_GOLDEN = [
('certify-0', '0x1.8d9f05eddc36cp-2', ('0x1.0c91ed487873ep+1',)),
    ('certify-1', '0x1.98411c949b028p+0', ('0x1.f5bc23a234e71p-2',)),
    ('certify-2', '0x1.d1988cf40e50ap+3', ('0x1.8a562a076bcddp+1',)),
    ('certify-3', '0x1.36c9c26759a09p+4', ('0x1.967c7464a147cp-2',)),
    ('certify-4', '0x1.d6792e7492e4ep-1', ('0x1.4dbbd7c3c7697p+1',)),
    ('certify-5', '0x1.261223a83ed46p+1', ('0x1.f5e392e2c1f18p-2',)),
    ('certify-6', '0x1.7b70d30957907p+4', ('0x1.3308687ef313cp+1',)),
    ('certify-7', '0x1.9baf887af1901p+2', ('0x1.8583b1aea1784p+1',)),
    ('certify-8', '0x1.1e71c35eeb9c5p-4', ('0x1.79f58417f97dep+1', '0x1.921fb54442d18p+0')),
    ('certify-9', '0x1.415241f7221f2p+1', ('0x1.b9263e46ea20bp-2', '0x1.2941d6280937fp+1')),
    ('certify-10', '0x1.85aa89f043d57p+3', ('0x1.9efebabe1e131p-2', '0x1.2f8e3958225b8p-2')),
    ('certify-11', '0x1.732b95b8fe1d6p+4', ('-0x1.9a25218ad23a8p-5', '0x1.a10ac4befd100p-4')),
    ('certify-12', '0x1.1fbc301577891p-1', ('0x1.46e9d5284c9adp+1',)),
    ('certify-13', '0x1.3c959f534de9ep+3', ('0x1.5e5da1f0aa4d8p+1',)),
    ('certify-14', '0x1.18aae676b67ecp+3', ('0x1.79fc046c0a58fp-3',)),
    ('certify-15', '0x1.0cac4cea999abp+3', ('0x1.5b5774f8f69ccp+1',)),
    ('certify-16', '0x1.86b0f0b60a022p-1', ('0x1.411e7433d0291p+1',)),
    ('certify-17', '0x1.1d66b6e2a2ac8p+1', ('0x1.a11958d44913bp-2',)),
    ('certify-18', '0x1.3f979cacbd1e5p+3', ('0x1.12c81c59d2ae0p-1',)),
    ('certify-19', '0x1.6403bc913285ep+0', ('0x1.73e6f97e60f44p+1',)),
    ('certify-20', '0x1.5a906ee870276p+1', ('0x1.720dd83a64d08p-2',)),
    ('certify-21', '0x1.e1035b0fe9303p+0', ('0x1.75d0c6819dc4cp-1',)),
    ('certify-22', '0x1.c52661c2e9058p+1', ('0x1.305651b142abcp+1',)),
    ('certify-23', '0x1.3e2122ae40628p+3', ('0x1.55bf596dbed5ap-2',)),
    ('certify-24', '0x1.4bf2a912142bap+2', ('0x1.4bfce66190ae5p-1', '0x1.5439961f1f9b7p-1')),
    ('certify-25', '0x1.849db8ab8aa38p+1', ('0x1.7e30d1466690ep-1', '0x1.7596d3df9c452p+0')),
    ('certify-26', '0x1.46e08c65882abp+3', ('0x1.10549a82c7742p-1', '0x1.12b43556f99fbp-1')),
    ('certify-27', '0x1.4682b7aa57c91p+2', ('0x1.ae423a868de51p-5', '0x1.785ad1078e560p-1')),
    ('certify-28', '0x1.c78c6104219c6p+0', ('0x1.13da022014790p+1',)),
    ('certify-29', '0x1.0818dd142b283p+2', ('0x1.21499172c573bp+1',)),
    ('certify-30', '0x1.36b1d810a36cep+3', ('0x1.1f53e227ac2ffp+1',)),
    ('certify-31', '0x1.750705bb168a1p+2', ('0x1.5e82190e437b4p+1',)),
    ('rim', '0x1.06b246ed23ac5p+2', ('0x1.4caa828d6a1afp+1', '0x1.5e87e2fbc4fbap+1', '0x1.921fb54442d18p+0')),
    ('phases', '0x1.6f55a6d8c6c19p+2', ('-0x1.13332179a27b1p-2', '0x1.483d546531826p+1', '0x0.0p+0', '0x1.d94317090541fp-3')),
    ('no-cap', '0x1.c835d77a7b1b3p+1', ()),
]


class TestSweepSearchPath:
    @pytest.mark.parametrize("case,golden", zip(sweep_golden_inputs(), SWEEP_GOLDEN),
                             ids=[g[0] for g in SWEEP_GOLDEN])
    def test_value_and_angles_are_pinned(self, case, golden):
        name, h, caps, p, cplx = case
        assert name == golden[0]
        val, angles, _ = best_rank_one_sweep(h, caps, p, complex_phases=cplx)
        assert float(val).hex() == golden[1]
        assert tuple(float(a).hex() for a in angles) == golden[2]

    @pytest.mark.parametrize("case", sweep_golden_inputs(), ids=lambda c: c[0])
    def test_beam_realizes_the_value(self, case):
        _, h, caps, p, cplx = case
        val, _, beam = best_rank_one_sweep(h, caps, p, complex_phases=cplx)
        assert abs(np.vdot(h, beam)) ** 2 == pytest.approx(val, rel=1e-12)
        tol = 1e-9 * max([1.0] + [b for _, b in caps])
        for v, b in caps:
            assert abs(np.vdot(v, beam)) ** 2 <= b + tol
        assert np.linalg.norm(beam) ** 2 <= p * (1.0 + 1e-12)


class TestSignalLeaks:
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("mbar", [0, 1, 2, 3])
    def test_matches_rank_one_rows_bit_for_bit(self, mbar, cplx):
        rng = np.random.default_rng(40 + 2 * mbar + cplx)
        for t in (mbar, mbar + 2):
            if t == 0:
                continue
            own = random_vector(rng, t, cplx)
            frame = reduce_interference_frame(own, [random_vector(rng, t, cplx) for _ in range(mbar)])
            assert frame.mbar == mbar
            psis = rng.uniform(0.0, np.pi, size=(7, mbar))
            for omegas in (None, rng.uniform(0.0, 2 * np.pi, size=(7, mbar))):
                _, signal, zsq, _ = rank_one_rows(frame, 1.7, psis, omegas)
                got = _signal_leaks(_frame_terms(frame), 1.7, psis, omegas)
                assert np.array_equal(got[3], signal)
                assert np.array_equal(got[4], zsq)


class TestZoomRows:
    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9])
    def test_matches_linspace_axes_bit_for_bit(self, n):
        rng = np.random.default_rng(70 + n)
        for k in range(6):
            for _ in range(4):
                center = rng.uniform(-4.0, 4.0, size=k)
                width = rng.uniform(1e-7, 1.0, size=k) * 10.0 ** rng.integers(-3, 2, size=k)
                free = rng.integers(0, 2, size=k).astype(bool)
                cols = np.flatnonzero(free)
                got = _zoom_rows(center, width, n, cols, _box_pattern(n, cols.size))
                want = _angle_rows([c + np.linspace(-w, w, n) if f else np.atleast_1d(c)
                                    for c, w, f in zip(center, width, free)])
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _captured_slsqp_calls(monkeypatch, inputs):
    """(objective, jac, constraints, start) of every SLSQP call that
    best_rank_one_sweep makes on inputs = [(h, caps, p, complex_phases)]."""
    calls = []
    minimize = scipy.optimize.minimize

    def record(fun, x0, **kw):
        calls.append((fun, kw["jac"], kw["constraints"], np.array(x0, dtype=float)))
        return minimize(fun, x0, **kw)

    monkeypatch.setattr(scipy.optimize, "minimize", record)
    for h, caps, p, cplx in inputs:
        best_rank_one_sweep(h, caps, p, complex_phases=cplx)
    return calls


class TestSweepJacobians:
    """SLSQP gets the Jacobians it would build itself without jac: SciPy's
    2-point rule with absolute step sqrt(eps), the same bits.  SciPy's public
    approx_fprime(x, f, sqrt(eps)) is approx_derivative(f, x, "2-point",
    abs_step=sqrt(eps)), which SLSQP calls."""

    # (seed, index, d, complex, caps) of certify inputs: mbar 1-3, real and
    # complex; (1, 247) and (1, 84) rerun the step with the caps pulled in
    CASES = [(1, 3, 2, False, 1), (1, 247, 2, False, 2), (1, 5, 3, False, 3),
             (1, 2, 3, True, 1), (1, 84, 3, True, 2), (1, 64, 4, True, 3)]

    def test_match_scipy_forward_differences_bit_for_bit(self, monkeypatch):
        inputs = [certify_input(s, i, d, c, k) + (c,) for s, i, d, c, k in self.CASES]
        calls = _captured_slsqp_calls(monkeypatch, inputs)
        # a polish reruns its step (same objective) with nonzero cap margins
        reruns = sum(a[0] is b[0] for a, b in zip(calls, calls[1:]))
        assert reruns >= 2
        assert {x0.size for *_, x0 in calls} == {1, 2, 3, 5}
        step = np.sqrt(np.finfo(float).eps)
        rng = np.random.default_rng(17)
        for fun, jac, cons, x0 in calls:
            # x_i = 0 (either sign) and |x_i| so large that x_i + sqrt(eps)
            # rounds back to x_i, where SciPy falls back to a relative step
            points = [x0, rng.uniform(-7.0, 7.0, x0.size)]
            for j in range(x0.size):
                for big in (0.0, -0.0, 1e17, -3e16, 4.5e15):
                    x = x0.copy()
                    x[j] = big
                    points.append(x)
            for x in points:
                assert jac(x).tobytes() == approx_fprime(x, fun, step).tobytes()
                for con in cons:
                    want = np.atleast_2d(approx_fprime(x, con["fun"], step))
                    assert con["jac"](x).tobytes() == want.tobytes()


class TestSweepCost:
    """Signal-and-leak evaluations of one sweep.  The seeds zoom in lockstep,
    one evaluation per step for all of them, where each seed used to take its
    own, and seeds that zoomed to the same point are polished once.  Before
    both, a sweep evaluated 107 times on the real input (6 seeds, the rim
    chart among them) and 166 times on the complex one; the lockstep zoom
    alone takes 35 and 75, and with one polish per point 25 and 66.  Counts
    are deterministic, so this guards the cost on any host; the values are
    those from before, bit for bit."""

    @pytest.mark.parametrize("case,most,value", [
        ((1, 0, 2, False, 2), 30, "0x1.029ec543bfc90p+3"),
        ((1, 0, 3, True, 2), 70, "0x1.7f9a699a66d5bp+0"),
    ])
    def test_seeds_share_their_zoom_evaluations(self, monkeypatch, case, most, value):
        calls = []
        signal_leaks = mreduce._signal_leaks

        def counted(*args):
            calls.append(args)
            return signal_leaks(*args)

        monkeypatch.setattr(mreduce, "_signal_leaks", counted)
        h, caps, p = certify_input(*case)
        val, _, _ = best_rank_one_sweep(h, caps, p, complex_phases=case[3])
        assert len(calls) <= most
        assert float(val).hex() == value
