"""Interference-frame reduction, spherical parametrization, and lifts."""

import numpy as np
import pytest
import scipy.optimize
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
from miso_sud.oracle import ConstrainedMaxProblem, general_rank_solve, rank_one_search
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
            val, _ = best_rank_one_sweep(h1, [(h3, cap)], p, complex_phases=cplx)
            n3 = np.linalg.norm(h3)
            z_mf = np.sqrt(p) * abs(np.vdot(h3, h1)) / np.linalg.norm(h1)
            zstar = min(np.sqrt(cap), z_mf, np.sqrt(p) * n3)
            _, ref = max_signal_given_interference(h1, h3, p, zstar)
            worst = max(worst, abs(val - ref) / max(1.0, ref))
        assert worst <= 1e-8

    def test_no_caps_matched_filter(self):
        rng = np.random.default_rng(19)
        h = random_vector(rng, 3, True)
        val, beam = best_rank_one_sweep(h, [], 2.0)
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
    """Real inputs with two caps on which the angle-grid search that this
    solve replaced stopped in the wrong local maximum of its chart.  With
    d = mbar = 2 the feasible beams form a disk cut by two slabs, with
    optima at cap-cap vertices and on the rim; (2, 1768) has its vertex
    inside the disk, (11, 2201) has d = 3, and on (3, 10632), (2, 12936) and
    (10, 11752) the vertex lies in a sliver of the disk."""

    @pytest.mark.parametrize("seed,index", [
        (20, 56), (11, 504), (11, 632), (12, 712), (14, 584), (15, 1272),
        (2, 1768), (11, 2201), (3, 10632), (2, 12936), (10, 11752),
    ])
    def test_reaches_the_rank_one_optimum(self, seed, index):
        # drawn as perfbench's certify workload draws (seed, index)
        h, caps, p = certify_input(seed, index, 2 + index % 4, False, 2)
        val, beam = best_rank_one_sweep(h, caps, p)
        prob = ConstrainedMaxProblem(
            target=h, caps=tuple((v, b, "upper") for v, b in caps), p=p)
        search = rank_one_search(prob).value
        assert search - val <= 1e-6 * max(1.0, search)
        assert np.linalg.norm(beam) ** 2 <= p * (1.0 + 1e-12)
        for v, b in caps:
            assert abs(np.vdot(v, beam)) ** 2 <= b * (1.0 + 1e-12)
        assert abs(np.vdot(h, beam)) ** 2 == pytest.approx(val, rel=1e-10)


def _draw(rng, d, cplx):
    v = rng.standard_normal(d)
    if cplx:
        v = (v + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
    return v


def sweep_golden_inputs():
    """(name, h, caps, p, complex_phases) inputs on which the returned beam is checked."""
    cases = []
    # two inputs per certify cell (d = 2-5; real with 1 or 2 caps, complex
    # with 1), drawn as perfbench's certify workload draws seed 7
    for index in range(32):
        cplx = (index // 4) % 2 == 1
        n_caps = 1 if cplx else 1 + (index // 8) % 2
        h, caps, p = certify_input(7, index, 2 + index % 4, cplx, n_caps)
        cases.append((f"certify-{index}", h, caps, p, cplx))
    rng = np.random.default_rng(2024)
    # t = 3 with three caps: no direction is free of them
    h = _draw(rng, 3, False)
    caps = [(g, 0.4 * float(np.linalg.norm(g)) ** 2) for g in (_draw(rng, 3, False) for _ in range(3))]
    cases.append(("rim", h, caps, 1.5, False))
    # complex, two caps in t = 3
    h = _draw(rng, 3, True)
    caps = [(g, 0.3 * float(np.linalg.norm(g)) ** 2) for g in (_draw(rng, 3, True) for _ in range(2))]
    cases.append(("phases", h, caps, 2.0, True))
    cases.append(("no-cap", _draw(rng, 4, True), [], 1.2, True))
    return cases


# float.hex of (value, angles) that the angle-grid search which best_rank_one_sweep
# replaced returned on sweep_golden_inputs, with one BLAS thread
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
        value = float.fromhex(golden[1])
        angles = np.array([float.fromhex(a) for a in golden[2]])
        frame = reduce_interference_frame(h, [v for v, _ in caps])
        omegas = angles[None, frame.mbar:] if angles.size > frame.mbar else None
        _, signal, zsq, beams = rank_one_rows(frame, p, angles[None, :frame.mbar], omegas)
        # the pinned angles still give the pinned value, bit for bit
        assert float(signal[0]).hex() == golden[1]
        val, beam = best_rank_one_sweep(h, caps, p, complex_phases=cplx)
        # that search admitted a cap excess of 1e-9 * max(1, b), and certify-24
        # and phases spent 7e-13 and 1.7e-11 of it; with lambda_j b_j <= value
        # a relative excess e moves the value by at most e relative
        bounds = np.array([b for _, b in caps])
        excess = max(float(np.max(zsq[0] / bounds)) - 1.0, 0.0) if caps else 0.0
        assert val == pytest.approx(value, rel=1e-12 + excess, abs=0.0)
        # the beam is the angles' beam up to a global phase; the search stopped
        # up to 5e-15 short, where the value is flat to second order, so its
        # angles hold to about sqrt(5e-15)
        old = beams[0]
        turn = np.vdot(beam, old)
        turn = turn / abs(turn) if np.iscomplexobj(turn) else np.sign(turn)
        assert np.linalg.norm(beam * turn - old) <= 1.5e-7 * np.linalg.norm(old)

    @pytest.mark.parametrize("case", sweep_golden_inputs(), ids=lambda c: c[0])
    def test_beam_realizes_the_value(self, case):
        _, h, caps, p, cplx = case
        val, beam = best_rank_one_sweep(h, caps, p, complex_phases=cplx)
        assert abs(np.vdot(h, beam)) ** 2 == pytest.approx(val, rel=1e-12)
        for v, b in caps:
            assert abs(np.vdot(v, beam)) ** 2 <= b * (1.0 + 1e-12)
        assert np.linalg.norm(beam) ** 2 <= p * (1.0 + 1e-12)


class TestSweepCost:
    """One SLSQP solve per call, from w = 0, with exact gradients.  The
    iteration counts (one BLAS thread) guard that cost on any host: the
    angle-grid search that this solve replaced ran 4, 2 and 5 SLSQP polishes
    of up to 120 iterations each on these inputs, and took 84-95 ms on
    certify seed 20, op 56.  The values are those of that search (float.hex),
    to 1e-12."""

    @pytest.mark.parametrize("case,most,value", [
        ((20, 56, 2, False, 2), 16, "0x1.7099ddfb013ecp-1"),
        ((1, 0, 2, False, 2), 7, "0x1.029ec543bfc90p+3"),
        ((1, 0, 3, True, 2), 11, "0x1.7f9a699a66d5bp+0"),
    ])
    def test_one_short_slsqp_solve(self, monkeypatch, case, most, value):
        minimize, iterations = scipy.optimize.minimize, []

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            iterations.append(res.nit)
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        h, caps, p = certify_input(*case)
        val, _ = best_rank_one_sweep(h, caps, p, complex_phases=case[3])
        assert len(iterations) == 1 and iterations[0] <= most
        assert val == pytest.approx(float.fromhex(value), rel=1e-12, abs=0.0)


class TestSweepInputs:
    H = np.array([1.0, 0.5, -0.3])

    def test_zero_bound_cap_is_solved_off_its_vector(self):
        # the cap slack of a search within 1e-9 of each bound put the value
        # 3.3e-5 above the dual bound, on the zero cap's budget
        caps = [(np.array([1.0, 1.0, 0.0]), 0.0), (np.array([0.0, 1.0, 0.0]), 0.1)]
        val, beam = best_rank_one_sweep(self.H, caps, 2.0)
        dual = general_rank_solve(ConstrainedMaxProblem(
            target=self.H, caps=tuple((v, b, "upper") for v, b in caps), p=2.0))
        bound = dual.certificate["dual_value"]
        assert val == pytest.approx(0.3142792206, rel=1e-9, abs=0.0)
        assert val <= bound * (1.0 + 1e-12)
        assert abs(np.vdot(caps[0][0], beam)) <= 1e-14

    @pytest.mark.parametrize("h,caps,p", [
        (H, [(np.ones(3), np.nan)], 1.0),
        (H, [(np.ones(3), np.inf)], 1.0),
        (H, [(np.array([1.0, np.nan, 0.0]), 0.1)], 1.0),
        (H, [], np.nan),
        (H, [], np.inf),
        (np.array([1.0, np.inf, 0.0]), [], 1.0),
    ], ids=["nan-bound", "inf-bound", "nan-cap-entry", "nan-power", "inf-power", "inf-target"])
    def test_non_finite_inputs_are_refused(self, h, caps, p):
        with pytest.raises(ValueError):
            best_rank_one_sweep(h, caps, p)

    def test_zero_budget_or_target(self):
        assert best_rank_one_sweep(self.H, [], 0.0)[0] == 0.0
        val, beam = best_rank_one_sweep(np.zeros(3), [(np.ones(3), 0.5)], 2.0)
        assert val == 0.0 and not np.any(beam)
