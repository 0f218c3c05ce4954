"""Independent verification solvers.

Nothing here reuses the closed forms under test: the general-rank solver
minimizes the Lagrange dual, whose every value bounds the optimum over
covariances of any rank, and recovers a feasible covariance from the dual
optimum, so the gap between bound and value certifies its answer; the
rank-one search solves exact phase-parametrized subproblems, and the
weighted-sum driver brute-forces rate sweeps.  Agreement between these and
the analytic optimizers is what the test suite certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
# module level on purpose: importing the oracle layer is where scipy is paid
from scipy.optimize import brentq

from .numlin import FeasibilityError, eig_hermitian, hermitize
from .region import MisoNetwork, m_user_region
from .twouser import two_user_region

__all__ = [
    "ConstrainedMaxProblem",
    "OracleReport",
    "general_rank_solve",
    "rank_one_search",
    "weighted_sum_boundary",
    "kkt_inertia_check",
]

_KINDS = ("equality", "upper")


@dataclass(frozen=True)
class ConstrainedMaxProblem:
    """Maximize target' S target over PSD S, trace(S) <= p, quadratic caps.

    caps is a sequence of (vector, bound, kind) with kind 'equality'
    (h' S h = bound) or 'upper' (h' S h <= bound); bounds are powers, not
    amplitudes.
    """

    target: np.ndarray
    caps: tuple = ()
    p: float = 1.0
    dim: int = 0

    def __post_init__(self):
        target = np.atleast_1d(np.asarray(self.target))
        dim = self.dim or target.size
        if target.size != dim:
            raise ValueError("target dimension mismatch")
        caps = []
        for vec, bound, kind in self.caps:
            vec = np.atleast_1d(np.asarray(vec))
            if vec.size != dim:
                raise ValueError("cap vector dimension mismatch")
            if bound < 0:
                raise ValueError("cap bounds must be non-negative")
            if kind not in _KINDS:
                raise ValueError(f"cap kind must be one of {_KINDS}")
            caps.append((vec, float(bound), kind))
        if self.p < 0:
            raise ValueError("trace budget must be non-negative")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "caps", tuple(caps))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "dim", dim)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.target) or any(
            np.iscomplexobj(v) for v, _, _ in self.caps
        )


@dataclass(frozen=True)
class OracleReport:
    value: float
    s: np.ndarray
    residuals: np.ndarray
    iterations: int
    certified: bool
    certificate: dict = field(default_factory=dict)


def _cap_residuals(prob: ConstrainedMaxProblem, s: np.ndarray) -> np.ndarray:
    """Per-cap violation (|v - bound| on equality caps, (v - bound)+ on upper
    caps), then the trace excess, then the PSD slack."""
    res = []
    for vec, bound, kind in prob.caps:
        v = float(np.real(vec.conj() @ s @ vec))
        res.append(abs(v - bound) if kind == "equality" else max(v - bound, 0.0))
    res.append(max(float(np.real(np.trace(s))) - prob.p, 0.0))
    lam = eig_hermitian(hermitize(s, tol=1e-6))[0]
    res.append(max(-float(lam[0]), 0.0))
    return np.array(res)


def _check_equality_reach(vec: np.ndarray, bound: float, p: float) -> float:
    """Refuse an equality cap above p*||v||^2, the most v'Sv reaches at tr S <= p;
    return that reach."""
    top = p * float(np.linalg.norm(vec)) ** 2
    if bound > top + 1e-9 * max(1.0, top):
        raise FeasibilityError("equality cap exceeds the trace budget times the gain")
    return top


def _null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the x with rows @ x = 0."""
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    return vh[rank:].conj().T


# a bracket search doubles its step at most this often, to 2**40 times the
# multiplier's natural size h'h / v'v, before it takes the dual to fall
# without a minimum along that multiplier (infeasible equality caps)
_MAX_DOUBLINGS = 40


def _dual_eigh(prob: ConstrainedMaxProblem, lam):
    """Eigenvalues (ascending) and eigenvectors of A = hh' - sum_j lam_j v_j v_j',
    and p uu' on its top eigenvector u."""
    cols = np.stack([prob.target] + [v for v, _, _ in prob.caps], axis=1)
    # eigh reads one triangle, so the product's rounding asymmetry is harmless
    mu, q = np.linalg.eigh((cols * np.concatenate([[1.0], -lam])) @ cols.conj().T)
    u = q[:, -1:]
    return mu, q, (u * prob.p) @ u.conj().T


def _face_covariance(prob: ConstrainedMaxProblem, lam, held):
    """A covariance optimal with the caps in ``held`` held and the others
    priced by lam, and the dual bound g(lam).

    With A = hh' - sum_j lam_j v_j v_j', every feasible S of any rank has
    h'Sh = tr AS + sum_j lam_j v_j'Sv_j <= p max(top(A), 0) + lam.b = g(lam)
    when lam_j >= 0 on upper caps (equality caps take either sign).  S
    attains it on the top eigenspace of A with trace p if top(A) > 0 and
    each held cap with lam_j != 0 met exactly (complementary slackness).
    With no held cap active that face is closed form: p uu' on the top
    eigenvector u, or 0 when top(A) <= 0.  Otherwise S = U W U' is fitted
    on the top r eigenvectors, r = 1, 2, ..., until the least-norm W
    meeting those linear conditions, a combination of their own matrices,
    meets them exactly and is PSD.
    """
    h = prob.target
    mu, q, face = _dual_eigh(prob, lam)
    top = float(mu[-1])
    bound = prob.p * max(top, 0.0) + sum(m * b for m, (_, b, _) in zip(lam, prob.caps))
    rows = [j for j in held if prob.caps[j][2] == "equality" or lam[j] > 0.0]
    if not rows:
        return (face if top > 0.0 else np.zeros_like(face)), bound
    # a top eigenvalue within rounding of 0 leaves the trace free below p
    for traced in [True] if top > 1e-9 * float(np.vdot(h, h).real) else [False, True]:
        rhs = np.array([prob.p] * traced + [prob.caps[j][1] for j in rows])
        for r in range(1, prob.dim + 1):
            u = q[:, -r:]
            mats = np.stack([np.eye(r)] * traced + [
                np.outer(c, c.conj()) for c in (u.conj().T @ prob.caps[j][0] for j in rows)])
            gram = np.real(np.einsum("iab,jba->ij", mats, mats))
            coef = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            w = np.einsum("i,iab->ab", coef, mats)
            s = u @ w @ u.conj().T
            if (np.abs(gram @ coef - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())
                    and np.linalg.eigvalsh(w)[0] >= -1e-9 * prob.p
                    and np.real(np.trace(w)) <= prob.p * (1.0 + 1e-9)):
                return s, bound
    return s, bound


def _minimize_dual(prob: ConstrainedMaxProblem, order, max_iter: int):
    """Multipliers minimizing g, one cap per nesting level, in ``order``,
    and the number of covariances evaluated.

    Level l prices caps order[:l] and holds the rest.  Its optimum is a
    maximum of functions affine in the multiplier lam_j of cap j = order[l],
    so b_j - v_j'Sv_j at any covariance S optimal one level down is a slope
    of it, which changes sign once, at the minimizer: a doubling step
    brackets the change and Brent's method closes it in max_iter steps.

    Trace-switch rule.  At the innermost level of an upper cap the face
    below is p uu' on the top eigenvector u of A(t) while top(A(t)) > 0,
    and 0 once it falls below, so the slope jumps from b_j - p|v_j'u|^2 to
    b_j at the trace switch t0, the root of top(A(t)).  Brent's method
    would bisect that jump.  So when the bracket straddles t0 (top(A) > 0
    at its left end, < 0 at its right end), t0 is found first: top(A(t))
    is convex and decreasing with slope -|v_j'u|^2, so Newton steps from
    the left end stay left of t0 and converge to it.  A negative slope left
    of t0 makes the kink t0 the minimizer; otherwise the slope's own root
    lies left of t0 and Brent's method closes it there.  Equality caps and
    outer levels keep the plain search.  Each probe of a level is computed
    once, and the count is of eigendecompositions, top(A) probes included.
    """
    lam = np.zeros(len(prob.caps))
    evals = 0
    h2 = max(float(np.linalg.norm(prob.target)) ** 2, 1e-300)

    def solve(level):
        nonlocal evals
        if level < len(order):
            j = order[level]
            vec, bound, kind = prob.caps[j]
            innermost = level == len(order) - 1
            seen = {}

            def probe(t):
                """v_j'Sv_j at lam_j = t with the levels below at their optima
                (innermost: S = p uu', whatever the sign of top(A)), and
                top(A) there on the innermost level; lam is left at that point."""
                nonlocal evals
                if t not in seen:
                    lam[j] = t
                    if innermost:
                        evals += 1
                        mu, _, s = _dual_eigh(prob, lam)
                        top = float(mu[-1])
                    else:
                        s, top = solve(level + 1), None
                    seen[t] = float(np.real(vec.conj() @ s @ vec)), top, lam.copy()
                leak, top, state = seen[t]
                lam[:] = state
                return leak, top

            def slope(t):
                leak, top = probe(t)
                # past the trace switch the innermost face is 0
                return bound - (0.0 if innermost and top <= 0.0 else leak)

            def trace_switch(t, stop, step):
                """The root of top(A(t)) between t and stop, by Newton steps."""
                leak, top = probe(t)
                for _ in range(max_iter):
                    nxt = min(t + prob.p * top / max(leak, 1e-300), stop)
                    if not nxt - t > 1e-15 * step:
                        break
                    t = nxt
                    leak, top = probe(t)
                    if top <= 0.0:
                        break
                return t

            first = slope(0.0)
            if first < 0.0 or (first > 0.0 and kind == "equality"):
                sign, lo = -np.sign(first), 0.0
                step = h2 / max(float(np.linalg.norm(vec)) ** 2, 1e-300)
                for _ in range(_MAX_DOUBLINGS):
                    hi = sign * step
                    if slope(hi) * sign >= 0.0:
                        a, b = min(lo, hi), max(lo, hi)
                        if innermost and kind == "upper" and probe(a)[1] > 0.0 > probe(b)[1]:
                            b = trace_switch(a, b, step)
                            if bound - probe(b)[0] < 0.0:
                                # negative left of the switch, b_j > 0 right of it
                                break
                        slope(brentq(slope, a, b, xtol=1e-15 * step,
                                     maxiter=max_iter, disp=False))
                        break
                    lo, step = hi, 2.0 * step
        evals += 1
        return _face_covariance(prob, lam, order[level:])[0]

    solve(0)
    return lam, evals


def general_rank_solve(prob: ConstrainedMaxProblem, tol: float = 1e-7,
                       max_iter: int = 400, restarts: int = 8,
                       seed: int = 0) -> OracleReport:
    """Optimum over covariances of every rank, certified by the Lagrange dual.

    The dual g(lam) = p max(top(hh' - sum_j lam_j v_j v_j'), 0) + lam.b is
    minimized one multiplier at a time (_minimize_dual) and the covariance
    recovered on the face of its minimizer (_face_covariance); ``value`` is
    h'Sh of that covariance, never the bound.  The certificate holds
    ``dual_value`` g(lambdas), an upper bound on h'Sh over every feasible S
    of any rank, ``lambdas`` the cap multipliers in cap order, and ``gap``
    dual_value - value, at least the distance to the optimum.
    ``certified`` means the gap is within tol relative and every residual
    (one per cap, then the trace, then the PSD slack) within
    tol * max(1, p).  While the certificate stays open the search reruns
    with the caps nested in another order drawn with ``seed``, up to
    ``restarts`` orders; the first certified report is returned, or else
    the one with the smallest gap.
    An equality cap at its reach p||v||^2 admits only p vv'/||v||^2, which
    is returned as is (the dual tends to its value as that multiplier goes
    to -inf).  A cap of bound 0 forces Sv = 0, so the problem is solved on
    the orthogonal complement of those cap vectors and S lifted back: the
    dual there bounds every feasible S of the original, whose own dual has
    no minimizer along those multipliers and tends to it as they grow, so
    they are reported as inf.  A negative bound proves the caps jointly
    infeasible.
    """
    h = prob.target
    zero = [j for j, (_, bound, _) in enumerate(prob.caps) if bound == 0.0]
    if zero:
        basis = _null_basis(np.stack([prob.caps[j][0].conj() for j in zero]))
        kept = [j for j in range(len(prob.caps)) if j not in zero]
        lam = np.full(len(prob.caps), np.inf)
        s, bound, evals = np.zeros((prob.dim, prob.dim), dtype=basis.dtype), 0.0, 0
        if basis.shape[1]:
            coords = basis.conj().T
            sub = general_rank_solve(ConstrainedMaxProblem(
                target=coords @ h, p=prob.p,
                caps=tuple((coords @ prob.caps[j][0], prob.caps[j][1], prob.caps[j][2])
                           for j in kept)), tol, max_iter, restarts, seed)
            s = basis @ sub.s @ coords
            bound, evals = sub.certificate["dual_value"], sub.iterations
            lam[kept] = sub.certificate["lambdas"]
        return replace(_report(prob, s, bound, lam, tol), iterations=evals)

    res_tol = tol * max(1.0, prob.p)
    for j, (vec, bound, kind) in enumerate(prob.caps):
        if kind != "equality":
            continue
        reach = _check_equality_reach(vec, bound, prob.p)
        if reach > 0.0 and bound >= reach - tol * max(1.0, reach):
            s = prob.p * np.outer(vec, vec.conj()) / float(np.linalg.norm(vec)) ** 2
            residuals = _cap_residuals(prob, s)
            if float(residuals.max()) > res_tol:
                raise FeasibilityError("caps are not jointly satisfiable within the trace budget")
            value = float(np.real(h.conj() @ s @ h))
            lam = np.where(np.arange(len(prob.caps)) == j, -np.inf, 0.0)
            return OracleReport(value=value, s=s, residuals=residuals, iterations=0,
                                certified=True,
                                certificate={"dual_value": value, "lambdas": lam, "gap": 0.0})

    k = len(prob.caps)
    rng = np.random.default_rng(seed)
    tried, best, evals = [], None, 0
    while len(tried) < min(max(restarts, 1), math.factorial(k)):
        order = tuple(range(k)) if not tried else tuple(int(j) for j in rng.permutation(k))
        if order in tried:
            continue
        tried.append(order)
        lam, used = _minimize_dual(prob, order, max_iter)
        evals += used
        s, bound = _face_covariance(prob, lam, order)
        if bound < -tol * prob.p * max(float(np.linalg.norm(h)) ** 2, 1.0):
            # h'Sh >= 0 for every feasible S, so a negative bound proves infeasibility
            raise FeasibilityError("caps are not jointly satisfiable within the trace budget")
        report = _report(prob, s, bound, lam, tol)
        if best is None or report.certified or report.certificate["gap"] < best.certificate["gap"]:
            best = report
        if report.certified:
            break
    return replace(best, iterations=evals)


def _report(prob: ConstrainedMaxProblem, s, bound, lam, tol: float) -> OracleReport:
    """The report of covariance s against the dual bound at lam (iterations 0)."""
    h = prob.target
    s = hermitize(s, tol=1e-6)
    value = float(np.real(h.conj() @ s @ h))
    residuals = _cap_residuals(prob, s)
    gap = bound - value
    certified = bool(gap <= tol * max(1.0, abs(bound))
                     and residuals.max() <= tol * max(1.0, prob.p))
    return OracleReport(value=value, s=s, residuals=residuals, iterations=0,
                        certified=certified,
                        certificate={"dual_value": bound, "lambdas": lam, "gap": gap})


class _PhaseSlices:
    """Max |h' g| over ||g||^2 <= p with cmat g pinned, factored once.

    The pseudoinverse and a null-space basis of cmat are computed a single
    time; evaluating one right-hand side is then two small matrix products.
    """

    def __init__(self, h, cmat, p, tol):
        self.p = p
        self.tol = tol
        self.pinv = np.linalg.pinv(cmat)
        self.cmat = cmat
        self.nbasis = _null_basis(cmat)
        hn = self.nbasis.conj().T @ h
        self.hn_norm = float(np.linalg.norm(hn))
        self.null_dir = (self.nbasis @ hn) / self.hn_norm if self.hn_norm > 0 else None
        self.h = h
        self.real_case = not (np.iscomplexobj(h) or np.iscomplexobj(cmat))

    def solve(self, rhs):
        g0 = self.pinv @ rhs
        if np.linalg.norm(self.cmat @ g0 - rhs) > self.tol:
            return None
        room = self.p - float(np.linalg.norm(g0)) ** 2
        if room < -self.tol * max(1.0, self.p):
            return None
        room = max(room, 0.0)
        base = complex(self.h.conj() @ g0)
        value = (abs(base) + self.hn_norm * np.sqrt(room)) ** 2
        g = g0
        if self.null_dir is not None and room > 0.0:
            align = base / abs(base) if abs(base) > 0.0 else 1.0
            if self.real_case:
                align = float(np.real(align))
            g = g0 + align * np.sqrt(room) * self.null_dir
        return float(value), g


def _sign_patterns(k: int, limit: int = 4096):
    total = 2**k
    if total <= limit:
        for bits in range(total):
            yield np.array([1.0 if (bits >> j) & 1 else -1.0 for j in range(k)])
    else:
        rng = np.random.default_rng(k)
        for _ in range(limit):
            yield rng.choice([-1.0, 1.0], size=k)


def _rank_one_equality(h, vecs, amps, p, cplx, starts, seed, tol):
    """Best rank-one value with |v_j' g| pinned to amps_j, exact per phase."""
    k = len(vecs)
    if k == 0:
        n = float(np.linalg.norm(h))
        if n == 0.0:
            return 0.0, np.zeros(h.size, dtype=complex if cplx else float)
        return p * n * n, np.sqrt(p) * h / n
    cmat = np.stack([v.conj() for v in vecs], axis=0)
    slices = _PhaseSlices(h, cmat, p, tol)
    if k == 1 and cplx:
        # the phase of the one pinned amplitude is a global phase of g
        return slices.solve(amps.astype(complex))
    best = None
    if not cplx:
        for signs in _sign_patterns(k):
            got = slices.solve(signs * amps)
            if got is not None and (best is None or got[0] > best[0]):
                best = got
    else:
        rng = np.random.default_rng(seed)
        inits = [np.zeros(k)] + [
            rng.uniform(0.0, 2 * np.pi, size=k) for _ in range(max(starts - 1, 0))
        ]
        grid = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
        for phases in inits:
            phases = phases.copy()
            cur = slices.solve(amps * np.exp(1j * phases))
            for _ in range(12):
                moved = False
                for j in range(k):
                    vals = []
                    for ph in grid:
                        trial = phases.copy()
                        trial[j] = ph
                        got = slices.solve(amps * np.exp(1j * trial))
                        vals.append((got[0] if got is not None else -np.inf, ph, got))
                    vbest = max(vals, key=lambda t: t[0])
                    if vbest[2] is not None and (cur is None or vbest[0] > cur[0] + 1e-12):
                        phases[j] = vbest[1]
                        cur = vbest[2]
                        moved = True
                if not moved:
                    break
            if cur is not None and (best is None or cur[0] > best[0]):
                best = cur
    return best


def rank_one_search(prob: ConstrainedMaxProblem, starts: int = 50,
                    seed: int = 0) -> OracleReport:
    """Best rank-one covariance S = g g' under the problem's caps.

    Equality caps pin the amplitudes |v_j' g|; for each choice of their
    phases (signs in the real field, enumerated exhaustively) the remaining
    problem is linear-affine and solved exactly, so the search is only over
    the phase torus.  Upper caps are handled by enumerating active subsets
    and keeping candidates that satisfy the inactive caps.  Deterministic
    given (starts, seed).
    """
    cplx = prob.is_complex
    dt = complex if cplx else float
    h = prob.target.astype(dt)
    p = prob.p
    tol = 1e-9 * max(1.0, p)

    eq = [(v.astype(dt), b) for v, b, kind in prob.caps if kind == "equality"]
    up = [(v.astype(dt), b) for v, b, kind in prob.caps if kind == "upper"]
    for v, b in eq:
        if float(np.linalg.norm(v)) == 0.0:
            if b > tol:
                raise FeasibilityError("equality cap through a zero vector")
        else:
            _check_equality_reach(v, b, p)
    eq = [(v, b) for v, b in eq if float(np.linalg.norm(v)) > 0.0]
    up = [(v, b) for v, b in up if float(np.linalg.norm(v)) > 0.0]

    def eq_candidate(extra):
        vecs = [v for v, _ in eq] + [v for v, _ in extra]
        amps = np.array([np.sqrt(b) for _, b in eq] + [np.sqrt(b) for _, b in extra])
        return _rank_one_equality(h, vecs, amps, p, cplx, starts, seed, 1e-8)

    best = None
    subsets = range(2 ** len(up)) if len(up) <= 10 else [0, 2 ** len(up) - 1]
    for mask in subsets:
        extra = [up[j] for j in range(len(up)) if (mask >> j) & 1]
        inactive = [up[j] for j in range(len(up)) if not (mask >> j) & 1]
        got = eq_candidate(extra)
        if got is None:
            continue
        val, g = got
        ok = all(
            abs(np.vdot(v, g)) ** 2 <= b + 1e-7 * max(1.0, b) for v, b in inactive
        )
        if ok and (best is None or val > best[0]):
            best = (val, g)

    if best is None:
        raise FeasibilityError("no phase assignment satisfies the equality caps")
    val, g = best
    s = hermitize(np.outer(g, g.conj()))
    residuals = _cap_residuals(prob, s)
    return OracleReport(
        value=float(val),
        s=s,
        residuals=residuals,
        iterations=starts,
        certified=bool(residuals.max() <= 1e-6 * max(1.0, p)),
        certificate={"gamma": g, "method": "phase-parametrized exact subproblems"},
    )


def weighted_sum_boundary(net: MisoNetwork, mu, resolution: int = 0,
                          nats: bool = False):
    """Best weighted sum of rates over a brute-force sweep; returns the rates.

    For two users the sweep is the two-user region grid; for more users
    it is the general spherical grid sweep.  The default resolution is 181
    points per angle for two users and 41 for three or more.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.size != net.m:
        raise ValueError("need one weight per user")
    if np.any(mu < 0) or not np.any(mu > 0):
        raise ValueError("weights must be non-negative and not all zero")
    if resolution <= 0:
        resolution = 181 if net.m == 2 else 41
    if net.m == 2:
        samples = two_user_region(net, resolution, resolution, nats=nats)
        rates = np.array([s.rates for s in samples])
    else:
        rates = np.array([s.rates for s in m_user_region(net, grid=resolution, nats=nats)])
    scores = rates @ mu
    return tuple(float(v) for v in rates[int(np.argmax(scores))])


def kkt_inertia_check(target, caps, lambdas, tol: float = 1e-9) -> bool:
    """At most one negative eigenvalue of H diag(-1, lambda) H'.

    H stacks the objective vector and the cap vectors as columns; the
    lambdas are the non-negative cap multipliers.  The bound underwrites
    low-rank optimal covariances and should hold for every valid input.
    """
    target = np.atleast_1d(np.asarray(target))
    caps = [np.atleast_1d(np.asarray(c)) for c in caps]
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lambdas.size != len(caps):
        raise ValueError("need one multiplier per cap")
    if np.any(lambdas < 0):
        raise ValueError("multipliers must be non-negative")
    cols = [target] + caps
    hmat = np.stack(cols, axis=1)
    weights = np.concatenate([[-1.0], lambdas])
    c = (hmat * weights) @ hmat.conj().T
    c = hermitize(c, tol=np.inf)
    lam = eig_hermitian(c)[0]
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    negatives = int(np.sum(lam < -tol * max(scale, 1e-300)))
    return negatives <= 1
