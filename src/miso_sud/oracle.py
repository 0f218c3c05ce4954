"""Independent verification solvers.

Nothing here reuses the closed forms under test: the general-rank solver is
projected gradient ascent with Dykstra alternating projections, the rank-one
search solves exact phase-parametrized subproblems, and the weighted-sum
driver brute-forces rate sweeps.  Agreement between these and the analytic
optimizers is what the test suite certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# module level on purpose: importing the oracle layer is where scipy is paid
from scipy.optimize import nnls

from .numlin import FeasibilityError, eig_hermitian, hermitize, project_psd
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


def _cap_gaps(prob: ConstrainedMaxProblem, s: np.ndarray) -> list:
    """Per-cap violation: |v - bound| for equality caps, (v - bound)+ for upper."""
    gaps = []
    for vec, bound, kind in prob.caps:
        v = float(np.real(vec.conj() @ s @ vec))
        gaps.append(abs(v - bound) if kind == "equality" else max(v - bound, 0.0))
    return gaps


def _cap_residuals(prob: ConstrainedMaxProblem, s: np.ndarray) -> np.ndarray:
    res = _cap_gaps(prob, s)
    res.append(max(float(np.real(np.trace(s))) - prob.p, 0.0))
    lam = eig_hermitian(hermitize(s, tol=1e-6))[0]
    res.append(max(-float(lam[0]), 0.0))
    return np.array(res)


def _project_trace(s: np.ndarray, p: float) -> np.ndarray:
    tr = float(np.real(np.trace(s)))
    if tr <= p:
        return s
    d = s.shape[0]
    return s - ((tr - p) / d) * np.eye(d, dtype=s.dtype)


def _project_cap(s: np.ndarray, vec: np.ndarray, lo: float, hi: float) -> np.ndarray:
    v = float(np.real(vec.conj() @ s @ vec))
    if lo <= v <= hi:
        return s
    bound = hi if v > hi else lo
    nrm4 = float(np.linalg.norm(vec)) ** 4
    if nrm4 == 0.0:
        return s
    a = np.outer(vec, vec.conj())
    return s - ((v - bound) / nrm4) * a


def _violation(prob: ConstrainedMaxProblem, s: np.ndarray) -> float:
    """Worst cap or trace violation, assuming s is already PSD."""
    return max([max(float(np.real(np.trace(s))) - prob.p, 0.0)] + _cap_gaps(prob, s))


def _dykstra(s, prob: ConstrainedMaxProblem, band: float, sweeps: int, tol: float):
    """Alternating projections with Dykstra corrections onto the cap set.

    The PSD projection runs last in each sweep, so the returned iterate is
    always PSD and convergence checking reduces to the cheap cap gaps.
    """
    projections = [lambda m: _project_trace(m, prob.p)]
    for vec, bound, kind in prob.caps:
        lo = bound - band if kind == "equality" else 0.0
        hi = bound + band
        projections.append(lambda m, v=vec, a=lo, b=hi: _project_cap(m, v, a, b))
    projections.append(project_psd)
    increments = [np.zeros_like(s) for _ in projections]
    for sweep in range(sweeps):
        for k, proj in enumerate(projections):
            t = s - increments[k]
            s = proj(t)
            increments[k] = s - t
        if _violation(prob, s) <= tol:
            break
    return s


def _check_equality_reach(vec: np.ndarray, bound: float, p: float) -> None:
    """Refuse an equality cap above p*||v||^2, the most v'Sv reaches at tr S <= p."""
    top = p * float(np.linalg.norm(vec)) ** 2
    if bound > top + 1e-9 * max(1.0, top):
        raise FeasibilityError("equality cap exceeds the trace budget times the gain")


def _feasible_start(prob: ConstrainedMaxProblem, tol: float) -> np.ndarray:
    for vec, bound, kind in prob.caps:
        if kind == "equality":
            _check_equality_reach(vec, bound, prob.p)
    d = prob.dim
    dt = complex if prob.is_complex else float
    s0 = (prob.p / (2.0 * d)) * np.eye(d, dtype=dt)
    s0 = _dykstra(s0, prob, band=0.0, sweeps=400, tol=tol)
    res = _cap_residuals(prob, s0)
    if float(res.max()) > 100 * tol:
        raise FeasibilityError("caps are not jointly satisfiable within the trace budget")
    return s0


def _dominant_subspace(s: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    lam, q = eig_hermitian(s)
    top = float(lam[-1]) if lam.size else 0.0
    keep = lam > rel * max(top, 1e-300)
    return q[:, keep]


def _polish_subspace(prob: ConstrainedMaxProblem, s: np.ndarray, value: float,
                     tol: float):
    """Re-solve restricted to leading eigenspaces to strip rank noise.

    Ascent leaves tiny spurious eigenvalues on the solution; re-solving in
    the span of the top r eigenvectors for growing r and adopting the first
    r that preserves the value gives a clean low-rank answer.
    """
    lam, q = eig_hermitian(s)
    slack = 1e-6 * max(1.0, abs(value))
    for r in range(1, prob.dim):
        v = q[:, -r:]
        sub = ConstrainedMaxProblem(
            target=v.conj().T @ prob.target,
            caps=tuple((v.conj().T @ vec, b, k) for vec, b, k in prob.caps),
            p=prob.p,
        )
        try:
            s_sub = _feasible_start(sub, tol)
        except FeasibilityError:
            continue
        s_sub = _ascend(sub, s_sub, tol, max_iter=150)
        cand = hermitize(v @ s_sub @ v.conj().T, tol=1e-6)
        cand_val = float(np.real(prob.target.conj() @ cand @ prob.target))
        if cand_val >= value - slack and float(_cap_residuals(prob, cand).max()) <= 100 * tol:
            return cand, cand_val
    return s, value


def _ascend(prob: ConstrainedMaxProblem, s: np.ndarray, tol: float, max_iter: int):
    h = prob.target
    grad = np.outer(h, h.conj())
    scale = float(np.linalg.norm(h)) ** 2
    eta = 1.0 / max(scale, 1e-12)
    value = float(np.real(h.conj() @ s @ h))
    feas = 100 * tol
    stall = 0
    for _ in range(max_iter):
        cand = _dykstra(s + eta * grad, prob, band=1e-8, sweeps=40, tol=10 * tol)
        res = _violation(prob, cand)
        new = float(np.real(h.conj() @ cand @ h))
        # accept only steps that stay on the constraint set
        if res <= feas and new > value + 1e-14:
            improved = new - value
            s, value = cand, new
            if improved < 1e-10 * max(1.0, value):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            eta = min(eta * 1.3, 1e3 / max(scale, 1e-12))
        else:
            eta *= 0.5
            if eta * scale < 1e-10:
                break
    # one tight projection pass so the report sits on the constraint set
    return _dykstra(s, prob, band=1e-9, sweeps=400, tol=0.1 * tol)


def _fit_multipliers(prob: ConstrainedMaxProblem, s: np.ndarray):
    """Least-squares lambda >= 0 for grad stationarity on range(S)."""
    v = _dominant_subspace(s)
    if v.shape[1] == 0 or not prob.caps:
        return np.zeros(len(prob.caps)), 0.0

    def flat(mat):
        red = v.conj().T @ mat @ v
        return np.concatenate([np.real(red).ravel(), np.imag(red).ravel()])

    h = prob.target
    rhs = flat(np.outer(h, h.conj()))
    cols = [flat(np.outer(vec, vec.conj())) for vec, _, _ in prob.caps]
    cols.append(flat(np.eye(prob.dim, dtype=s.dtype)))
    a = np.stack(cols, axis=1)
    lam, resid = nnls(a, rhs)
    scale = max(float(np.linalg.norm(rhs)), 1e-12)
    return lam[:-1], float(resid) / scale


def general_rank_solve(prob: ConstrainedMaxProblem, tol: float = 1e-7,
                       max_iter: int = 400, restarts: int = 8,
                       seed: int = 0) -> OracleReport:
    """Projected gradient ascent over the capped PSD set, multi-start.

    Gradient steps on the (linear) objective alternate with Dykstra
    projections onto the intersection of the PSD cone, the trace ball, and
    the per-cap halfspaces (equality caps as thin bands).  Certification
    combines restart agreement, a non-negative least-squares fit of the
    stationarity multipliers on the solution's range, and the inertia test
    of that multiplier vector.
    """
    s0 = _feasible_start(prob, tol)
    d = prob.dim
    dt = complex if prob.is_complex else float
    rng = np.random.default_rng(seed)
    h = prob.target

    best_s = None
    best_val = -np.inf
    values = []
    iterations = 0
    for start in range(max(restarts, 1)):
        if start == 0:
            s = s0.copy()
        else:
            g = rng.standard_normal((d, d))
            if prob.is_complex:
                g = g + 1j * rng.standard_normal((d, d))
            raw = (g @ g.conj().T).astype(dt)
            raw *= prob.p / (2.0 * max(float(np.real(np.trace(raw))), 1e-12))
            s = _dykstra(raw, prob, band=1e-8, sweeps=100, tol=10 * tol)
        s = _ascend(prob, s, tol, max_iter)
        val = float(np.real(h.conj() @ s @ h))
        values.append(val)
        iterations += max_iter
        if val > best_val:
            best_val, best_s = val, s

    best_s, best_val = _polish_subspace(prob, best_s, best_val, tol)
    best_s = hermitize(best_s, tol=1e-6)
    residuals = _cap_residuals(prob, best_s)
    lam, stat_resid = _fit_multipliers(prob, best_s)
    inertia_ok = (
        kkt_inertia_check(prob.target, [v for v, _, _ in prob.caps], lam)
        if prob.caps
        else True
    )
    spread = (max(values) - min(values)) / max(1.0, abs(best_val))
    agree = spread <= 1e-4 or len(values) == 1
    res_ok = float(residuals.max()) <= 100 * tol
    certified = bool(res_ok and agree and inertia_ok)
    return OracleReport(
        value=best_val,
        s=best_s,
        residuals=residuals,
        iterations=iterations,
        certified=certified,
        certificate={
            "lambdas": lam,
            "stationarity_residual": stat_resid,
            "inertia_ok": inertia_ok,
            "restart_values": values,
            "restart_spread": spread,
        },
    )


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
        _, sv, vh = np.linalg.svd(cmat, full_matrices=True)
        rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
        self.nbasis = vh[rank:].conj().T
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
