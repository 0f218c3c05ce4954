"""Tests for the independent verification solvers."""

import numpy as np
import pytest

from miso_sud.numlin import FeasibilityError, eig_hermitian
from miso_sud.oracle import (
    ConstrainedMaxProblem,
    general_rank_solve,
    kkt_inertia_check,
    rank_one_search,
    weighted_sum_boundary,
)
from miso_sud.twouser import max_signal_given_interference

from conftest import (
    EX1_CROSS_A,
    EX1_CROSS_B,
    EX1_RANK_ONE_VALUE,
    EX1_TARGET,
    build_symmetric_pair,
    certify_input,
    random_vector,
)


def single_cap_truth(h, g, cap, p, samples=4001):
    """Brute-force the single-upper-cap optimum from the closed form."""
    zs = np.sqrt(np.linspace(0.0, cap, samples))
    return max(max_signal_given_interference(h, g, p, float(z))[1] for z in zs)


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ConstrainedMaxProblem(target=np.ones(3), caps=((np.ones(2), 0.1, "upper"),))

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            ConstrainedMaxProblem(target=np.ones(2), caps=((np.ones(2), -0.1, "upper"),))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ConstrainedMaxProblem(target=np.ones(2), caps=((np.ones(2), 0.1, "between"),))

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            ConstrainedMaxProblem(target=np.ones(2), p=-1.0)

    def test_complex_detection(self):
        real = ConstrainedMaxProblem(target=np.ones(2))
        cplx = ConstrainedMaxProblem(target=np.array([1.0 + 1j, 0.0]))
        assert not real.is_complex
        assert cplx.is_complex


class TestGeneralRankSolve:
    def test_no_caps_matched_filter(self):
        h = np.array([2.0, -1.0, 0.5])
        p = 1.5
        rep = general_rank_solve(ConstrainedMaxProblem(target=h, p=p), restarts=2)
        top = p * float(np.linalg.norm(h)) ** 2
        assert rep.value == pytest.approx(top, rel=1e-5)
        want = p * np.outer(h, h) / float(np.linalg.norm(h)) ** 2
        assert np.max(np.abs(rep.s - want)) <= 1e-4 * top

    def test_single_cap_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            cplx = bool(rng.integers(0, 2))
            h = random_vector(rng, d, cplx)
            g = random_vector(rng, d, cplx)
            p = float(rng.uniform(0.5, 3.0))
            cap = float(rng.uniform(0.05, 0.8)) * p * np.linalg.norm(g) ** 2
            prob = ConstrainedMaxProblem(target=h, caps=((g, cap, "upper"),), p=p)
            rep = general_rank_solve(prob, restarts=4)
            truth = single_cap_truth(h, g, cap, p)
            assert abs(rep.value - truth) <= 1e-4 * max(1.0, truth)

    def test_equality_cap_example(self, example1_problem):
        rep = general_rank_solve(example1_problem, restarts=4)
        assert rep.value >= 7.10
        lam = eig_hermitian(rep.s)[0]
        rank = int(np.sum(lam > 1e-6 * float(np.max(np.abs(rep.s)))))
        assert rank == 2
        assert rep.certified

    def test_report_is_feasible(self):
        rng = np.random.default_rng(5)
        h = random_vector(rng, 3, True)
        g = random_vector(rng, 3, True)
        cap = 0.3 * float(np.linalg.norm(g)) ** 2
        prob = ConstrainedMaxProblem(target=h, caps=((g, cap, "upper"),), p=1.0)
        rep = general_rank_solve(prob, restarts=2)
        lam = eig_hermitian(rep.s)[0]
        scale = max(float(np.max(np.abs(rep.s))), 1e-12)
        assert float(lam[0]) >= -1e-8 * scale
        assert float(np.real(np.trace(rep.s))) <= prob.p + 1e-6
        assert float(np.real(g.conj() @ rep.s @ g)) <= cap + 1e-5
        # residual vector covers the cap, the trace, and the PSD slack
        assert rep.residuals.shape == (3,)
        assert float(rep.residuals.max()) <= 1e-5
        assert rep.iterations > 0

    def test_dominates_rank_one(self, example1_problem):
        general = general_rank_solve(example1_problem, restarts=4)
        rank_one = rank_one_search(example1_problem, starts=30)
        assert general.value >= rank_one.value - 1e-9

    def test_infeasible_equality_cap(self):
        v = np.array([1.0, 0.0])
        prob = ConstrainedMaxProblem(
            target=np.ones(2), caps=((v, 5.0, "equality"),), p=1.0
        )
        with pytest.raises(FeasibilityError):
            general_rank_solve(prob, restarts=1)

    @pytest.mark.parametrize("caps", [
        # each cap alone is within reach, together they need trace 2.4 > 2
        ((np.array([1.0, 0.0, 0.0]), 1.2, "equality"),
         (np.array([0.0, 1.0, 0.0]), 1.2, "equality")),
        # one direction pinned to two different powers
        ((np.array([1.0, 1.0, 0.0]), 1.0, "equality"),
         (np.array([1.0, 1.0, 0.0]), 2.0, "equality")),
    ], ids=["trace", "parallel"])
    def test_jointly_infeasible_equality_caps(self, caps):
        prob = ConstrainedMaxProblem(target=np.array([1.0, 0.5, -0.3]), caps=caps, p=2.0)
        with pytest.raises(FeasibilityError, match="not jointly satisfiable"):
            general_rank_solve(prob, restarts=1)

    def test_certificate_bounds_the_value(self):
        rng = np.random.default_rng(29)
        for k in range(40):
            d = int(rng.integers(2, 6))
            cplx = bool(rng.integers(0, 2))
            h = random_vector(rng, d, cplx)
            p = float(rng.uniform(0.5, 3.0))
            caps = []
            for _ in range(k % 3):
                g = random_vector(rng, d, cplx)
                caps.append((g, float(rng.uniform(0.1, 0.9)) * p * float(np.linalg.norm(g)) ** 2,
                             "upper"))
            rep = general_rank_solve(ConstrainedMaxProblem(target=h, caps=tuple(caps), p=p),
                                     restarts=2)
            cert = rep.certificate
            assert rep.certified
            assert cert["gap"] == pytest.approx(cert["dual_value"] - rep.value, abs=1e-15)
            assert abs(cert["gap"]) <= 1e-9 * max(1.0, rep.value)
            assert np.all(cert["lambdas"] >= 0.0) and cert["lambdas"].shape == (len(caps),)
            # the bound is the dual function at the reported multipliers
            pairs = list(zip(cert["lambdas"], caps))
            top = np.linalg.eigvalsh(
                np.outer(h, h.conj()) - sum(lam * np.outer(v, v.conj()) for lam, (v, _, _) in pairs)
            )[-1]
            bound = p * max(top, 0.0) + sum(lam * b for lam, (_, b, _) in pairs)
            assert bound == pytest.approx(cert["dual_value"], rel=1e-12)


class TestRankOneSearch:
    def test_no_caps_matched_filter(self):
        h = np.array([1.0, 2.0, -2.0])
        p = 2.0
        rep = rank_one_search(ConstrainedMaxProblem(target=h, p=p), starts=4)
        assert rep.value == pytest.approx(p * 9.0, rel=1e-12)
        g = rep.certificate["gamma"]
        cross = abs(np.vdot(h, g)) ** 2
        assert cross == pytest.approx(rep.value, rel=1e-12)

    def test_example_value(self, example1_problem):
        rep = rank_one_search(example1_problem, starts=50)
        assert rep.value == pytest.approx(EX1_RANK_ONE_VALUE, abs=0.01)
        assert rep.certified

    def test_deterministic(self, example1_problem):
        a = rank_one_search(example1_problem, starts=20, seed=9)
        b = rank_one_search(example1_problem, starts=20, seed=9)
        assert a.value == b.value
        assert np.array_equal(a.certificate["gamma"], b.certificate["gamma"])

    def test_single_upper_cap_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            cplx = bool(rng.integers(0, 2))
            h = random_vector(rng, d, cplx)
            g = random_vector(rng, d, cplx)
            p = float(rng.uniform(0.5, 2.0))
            cap = float(rng.uniform(0.1, 0.7)) * p * np.linalg.norm(g) ** 2
            prob = ConstrainedMaxProblem(target=h, caps=((g, cap, "upper"),), p=p)
            rep = rank_one_search(prob, starts=40)
            truth = single_cap_truth(h, g, cap, p)
            assert rep.value == pytest.approx(truth, rel=1e-6)

    def test_zero_vector_cap_infeasible(self):
        prob = ConstrainedMaxProblem(
            target=np.ones(2), caps=((np.zeros(2), 0.5, "equality"),), p=1.0
        )
        with pytest.raises(FeasibilityError):
            rank_one_search(prob)

    def test_cap_above_budget_infeasible(self):
        v = np.array([0.5, 0.0])
        prob = ConstrainedMaxProblem(
            target=np.ones(2), caps=((v, 1.0, "equality"),), p=1.0
        )
        with pytest.raises(FeasibilityError):
            rank_one_search(prob)


class TestEqualityCapReach:
    # v'Sv <= tr(S)*||v||^2 <= p*||v||^2, so an equality cap reaches at most 4 here
    V = np.array([1.0, 1.0])
    P = 2.0

    def problem(self, bound):
        return ConstrainedMaxProblem(
            target=np.array([1.0, 0.5]), caps=((self.V, bound, "equality"),), p=self.P
        )

    @pytest.mark.parametrize("solve", [
        lambda prob: general_rank_solve(prob, restarts=1),
        rank_one_search,
    ], ids=["general", "search"])
    def test_both_solvers_share_the_reach_check(self, solve):
        with pytest.raises(FeasibilityError, match="exceeds the trace budget"):
            solve(self.problem(4.0 + 1e-6))
        assert np.isfinite(solve(self.problem(4.0)).value)

    def test_full_reach_beam_lies_along_the_cap(self):
        rep = rank_one_search(self.problem(4.0))
        assert rep.value == pytest.approx(self.P * 1.5**2 / 2.0, rel=1e-6)

    def test_general_returns_the_one_feasible_covariance(self):
        v = np.array([1.0, 1.0, 0.0])
        prob = ConstrainedMaxProblem(
            target=np.array([1.0, 0.5, -0.3]), caps=((v, 4.0, "equality"),), p=self.P
        )
        rep = general_rank_solve(prob, restarts=1)
        assert np.max(np.abs(rep.s - self.P * np.outer(v, v) / 2.0)) <= 1e-12
        assert rep.value == pytest.approx(2.25, rel=1e-12)
        assert float(rep.residuals.max()) <= 1e-9
        assert rep.certified


def upper_problem(h, caps, p):
    return ConstrainedMaxProblem(target=h, caps=tuple((v, b, "upper") for v, b in caps), p=p)


def independent_check(prob, rep, tol=1e-7):
    """Gap and residuals of a report recomputed from its S and multipliers alone."""
    h, s = prob.target, rep.s
    value = float(np.real(h.conj() @ s @ h))
    lam = rep.certificate["lambdas"]
    pairs = list(zip(lam, prob.caps))
    mat = np.outer(h, h.conj()) - sum(m * np.outer(v, v.conj()) for m, (v, _, _) in pairs)
    bound = prob.p * max(np.linalg.eigvalsh(mat)[-1], 0.0) + sum(m * b for m, (_, b, _) in pairs)
    excess = [float(np.real(v.conj() @ s @ v)) - b for v, b, _ in prob.caps]
    excess += [float(np.real(np.trace(s))) - prob.p, -float(np.linalg.eigvalsh(s)[0])]
    return bound - value <= tol * max(1.0, abs(bound)) and max(excess) <= tol * max(1.0, prob.p)


class TestDualSearchCost:
    """Real two-cap certify inputs whose inner multiplier's minimizer is the
    trace switch, where top(hh' - sum lam v v') crosses 0 and the slope
    jumps: a root search on the slope can only bisect there (759-973
    evaluations).  Evaluation counts are deterministic, so this guards the
    cost on any host; the values are pinned to 1e-12."""

    @pytest.mark.parametrize("seed,index,value", [
        (2, 120, 0.19254330677217166),
        (1, 168, 0.05394755830461853),
        (2, 24, 0.3944599135806194),
    ])
    def test_kink_inputs_are_cheap_and_unchanged(self, seed, index, value):
        prob = upper_problem(*certify_input(seed, index, 2, False, 2))
        rep = general_rank_solve(prob, restarts=2)
        assert rep.iterations <= 150
        assert rep.certified
        assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert independent_check(prob, rep)


class TestZeroBoundCaps:
    H = np.array([1.0, 0.5, -0.3])
    ZERO = (np.array([1.0, 1.0, 0.0]), 0.0)

    def test_zero_cap_beside_another_cap(self):
        # Sv = 0 on the zero cap: the optimum lives on span{(1,-1,0), e3}
        prob = upper_problem(self.H, [self.ZERO, (np.array([0.0, 1.0, 0.0]), 0.1)], 2.0)
        rep = general_rank_solve(prob)
        assert rep.certified
        assert rep.value == pytest.approx(0.314279220614, abs=1e-9)
        assert rep.certificate["lambdas"][0] == np.inf
        assert abs(np.real(self.ZERO[0] @ rep.s @ self.ZERO[0])) <= 1e-12

    def test_single_zero_cap_keeps_its_value(self):
        prob = upper_problem(self.H, [self.ZERO], 2.0)
        rep = general_rank_solve(prob)
        # p ||Ph||^2 with P the projector off (1, 1, 0)
        assert rep.certified
        assert rep.value == pytest.approx(0.43, rel=1e-12)

    def test_zero_caps_spanning_the_space(self):
        caps = [(np.eye(2)[0], 0.0), (np.eye(2)[1], 0.0)]
        rep = general_rank_solve(upper_problem(np.array([1.0, 2.0]), caps, 1.0))
        assert rep.certified and rep.value == 0.0 and not np.any(rep.s)


def test_three_caps_in_two_dimensions_are_never_falsely_certified():
    """certify_op(1, 312, 2, False, 3): more caps than dimensions.  The first
    nesting order ends infeasible (cap residual 0.246, gap -0.088); the
    report must say so or be certified by a certificate that checks out."""
    prob = upper_problem(*certify_input(1, 312, 2, False, 3))
    rep = general_rank_solve(prob, restarts=2)
    assert not rep.certified or independent_check(prob, rep)
    # the second order certifies it; the search over rank-one beams agrees
    assert rep.certified
    assert rep.value == pytest.approx(rank_one_search(prob).value, rel=1e-9)


class TestWeightedSumBoundary:
    def test_first_user_only(self):
        net = build_symmetric_pair()
        rates = weighted_sum_boundary(net, (1.0, 0.0), resolution=61)
        assert rates[0] == pytest.approx(np.log2(7.0), abs=1e-9)

    def test_symmetric_weights(self):
        net = build_symmetric_pair()
        rates = weighted_sum_boundary(net, (1.0, 1.0), resolution=61)
        assert abs(rates[0] - rates[1]) <= 0.05
        assert rates[0] + rates[1] >= 2.0 * np.log2(5.5) - 1e-9

    def test_three_user_plumbing(self, three_user_net):
        rates = weighted_sum_boundary(three_user_net, (0.0, 0.0, 1.0), resolution=5)
        assert len(rates) == 3
        h3 = three_user_net.h(2, 2)
        top = 0.5 * np.log2(1.0 + three_user_net.powers[2] * np.linalg.norm(h3) ** 2)
        assert 0.0 < rates[2] <= top + 1e-9

    def test_weight_validation(self):
        net = build_symmetric_pair()
        with pytest.raises(ValueError):
            weighted_sum_boundary(net, (1.0,))
        with pytest.raises(ValueError):
            weighted_sum_boundary(net, (1.0, -0.5))
        with pytest.raises(ValueError):
            weighted_sum_boundary(net, (0.0, 0.0))


class TestKktInertiaCheck:
    def test_no_caps(self):
        assert kkt_inertia_check(np.array([1.0, 2.0]), [], [])

    def test_orthonormal_columns(self):
        t = np.array([1.0, 0.0, 0.0])
        caps = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        assert kkt_inertia_check(t, caps, [2.0, 0.5])

    def test_random_draws_always_pass(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(0, d + 3))
            cplx = bool(rng.integers(0, 2))
            t = random_vector(rng, d, cplx)
            caps = [random_vector(rng, d, cplx) for _ in range(k)]
            lam = rng.uniform(0.0, 5.0, size=k)
            assert kkt_inertia_check(t, caps, lam)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            kkt_inertia_check(np.ones(2), [np.ones(2)], [-1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kkt_inertia_check(np.ones(2), [np.ones(2)], [1.0, 2.0])


class TestExampleAgreement:
    def test_example1_gap(self):
        target = np.array(EX1_TARGET)
        prob = ConstrainedMaxProblem(
            target=target,
            caps=(
                (np.array(EX1_CROSS_A), 0.3, "equality"),
                (np.array(EX1_CROSS_B), 0.6, "equality"),
            ),
            p=1.0,
        )
        general = general_rank_solve(prob, restarts=4)
        rank_one = rank_one_search(prob, starts=50)
        # a genuine gap separates the general and rank-one optima here
        assert general.value - rank_one.value > 0.02
