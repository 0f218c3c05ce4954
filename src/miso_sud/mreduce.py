"""Dimension reduction for per-transmitter covariance optimization.

A transmitter with t antennas facing m-1 interference constraints never
needs more than mbar = min(t, m-1) effective dimensions: an accumulated
block-unitary change of basis compresses every interfering cross channel
into a leading mbar-dimensional block, leaving the own channel split into a
low part (seen by the constraints) and a residual that is interference-free.
Rank-one covariances of the reduced block are parametrized by spherical
angles; the lift back to full dimension fills in the residual direction
optimally via the bordered completion of :mod:`miso_sud.rankone`.  The
rank-one oracle best_rank_one_sweep needs no angles: it solves the capped
problem as a convex program in beam coordinates, sharing no code with the
oracles of :mod:`miso_sud.oracle` that it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import hermitize, null_basis, unitary_completion
from .rankone import CompletionInput, lemma5_complete

__all__ = [
    "ReducedFrame",
    "SphericalParams",
    "reduce_interference_frame",
    "spherical_rank_one",
    "lift_covariance",
    "powers_closed_form",
    "gamma_from_angles",
    "sweeps_phases",
    "default_axes",
    "rank_one_rows",
    "rank_one_table",
    "best_rank_one_sweep",
]

# relative tail norm below which an interferer adds no direction (rounding
# leaves about 1e-16 for a cross channel in the span of earlier ones)
_VACUOUS_TAIL = 1e-12


@dataclass(frozen=True)
class SphericalParams:
    """Sweep angles of one transmitter: mbar polar angles plus phases.

    psi entries sweep [0, pi] in region sweeps (any real value is legal,
    pinned constructions use negatives for obtuse channel angles); omega
    holds one phase per coordinate and stays all-zero for real channels.
    """

    psi: tuple
    omega: tuple

    def __init__(self, psi, omega=None):
        psi = tuple(float(v) for v in np.atleast_1d(psi)) if np.ndim(psi) else (float(psi),)
        if omega is None:
            omega = (0.0,) * len(psi)
        else:
            omega = tuple(float(v) for v in np.atleast_1d(omega))
        if len(omega) != len(psi):
            raise ValueError("psi and omega must have equal length")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "omega", omega)

    @classmethod
    def _of_floats(cls, psi: tuple, omega: tuple) -> "SphericalParams":
        """Wrap float tuples whose lengths the caller has already checked."""
        params = object.__new__(cls)
        object.__setattr__(params, "psi", psi)
        object.__setattr__(params, "omega", omega)
        return params

    @property
    def mbar(self) -> int:
        return len(self.psi)


@dataclass(frozen=True)
class ReducedFrame:
    """Reduced basis of one transmitter's covariance problem.

    transform is the accumulated t x t unitary T; in the new basis the j-th
    interfering vector is (hj_low[j]; 0) and the own channel is
    (h_low; h_hat), so ||h_low||^2 + ||h_hat||^2 = ||h_own||^2.
    """

    transform: np.ndarray
    h_low: np.ndarray
    h_hat: np.ndarray
    hj_low: tuple
    mbar: int

    @property
    def dim(self) -> int:
        return self.transform.shape[0]


def reduce_interference_frame(h_own, h_interf) -> ReducedFrame:
    """Compress interference constraints into a leading mbar-dim block.

    Each interferer in turn gets a block unitary that is the identity on the
    coordinates reserved so far and rotates the interferer's tail onto the
    next coordinate, which leaves earlier interferers untouched and produces
    the upper-triangular support pattern.  An interferer whose tail vanishes
    (a zero cross channel, or one in the span of earlier ones) already lies
    in the reserved block and reserves no coordinate, so mbar is the rank of
    the cross channels, at most min(t, m-1), and h_hat is the own channel
    projected off their span.
    """
    h_own = np.atleast_1d(np.asarray(h_own))
    vecs = [np.atleast_1d(np.asarray(v)) for v in h_interf]
    t = h_own.size
    for v in vecs:
        if v.size != t:
            raise ValueError("all channel vectors must share the transmitter dimension")
    m1 = len(vecs)
    cplx = np.iscomplexobj(h_own) or any(np.iscomplexobj(v) for v in vecs)
    dtype = complex if cplx else float
    transform = np.eye(t, dtype=dtype)
    own = h_own.astype(dtype)
    work = [v.astype(dtype) for v in vecs]

    mbar = 0
    for j in range(m1):
        if mbar == t:
            break
        tail = work[j][mbar:]
        if np.linalg.norm(tail) <= _VACUOUS_TAIL * np.linalg.norm(vecs[j]):
            # later steps leave this vector unrotated, so clear its noise tail
            tail[:] = 0.0
            continue
        u = unitary_completion(tail)
        uh = u.conj().T
        own[mbar:] = uh @ own[mbar:]
        for k in range(j, m1):
            work[k][mbar:] = uh @ work[k][mbar:]
        transform[:, mbar:] = transform[:, mbar:] @ u
        mbar += 1

    return ReducedFrame(
        transform=transform,
        h_low=own[:mbar].copy(),
        h_hat=own[mbar:].copy(),
        hj_low=tuple(v[:mbar].copy() for v in work),
        mbar=mbar,
    )


def gamma_from_angles(psis: np.ndarray, omegas=None) -> np.ndarray:
    """Unit-ball direction vectors from spherical angles, vectorized.

    Rows of ``psis`` (n x mbar) produce rows gamma with
    gamma_k = exp(i*omega_k) * sin(psi_k) * prod_{j<k} cos(psi_j),
    so |gamma| <= 1 always.  The signed cosine product (rather than
    sqrt(1 - sum |gamma_j|^2)) keeps full sign coverage when phases are
    pinned to zero for real channels and reproduces the printed two-angle
    covariance entrywise.
    """
    psis = np.atleast_2d(np.asarray(psis, dtype=float))
    sinp = np.sin(psis)
    cosp = np.cos(psis)
    lead = np.cumprod(cosp, axis=1)
    lead = np.concatenate([np.ones((psis.shape[0], 1)), lead[:, :-1]], axis=1)
    gam = sinp * lead
    if omegas is not None:
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        if np.any(om != 0.0):
            gam = gam * np.exp(1j * om)
    return gam


def _angles_of_gamma(gam) -> np.ndarray:
    """Rows of psi whose gamma_from_angles rows are the real rows of gam (n x mbar,
    norms <= 1): the running cosine product stays non-negative, signs land on the sines."""
    psi, lead = np.zeros_like(gam), np.ones(len(gam))
    for k in range(gam.shape[1]):
        live = lead > 1e-12
        s = np.where(live, np.clip(gam[:, k] / np.where(live, lead, 1.0), -1.0, 1.0), 0.0)
        psi[:, k] = np.arcsin(s)
        lead = lead * np.sqrt(np.maximum(1.0 - s * s, 0.0))
    return psi


def spherical_rank_one(p: float, params: SphericalParams):
    """Rank-one reduced covariance S11 = P * gamma gamma^H from sweep angles."""
    if p < 0:
        raise ValueError("power must be non-negative")
    gam = gamma_from_angles(np.asarray(params.psi), np.asarray(params.omega))[0]
    s11 = p * np.outer(gam, gam.conj())
    return gam, hermitize(s11)


def lift_covariance(frame: ReducedFrame, s11, p: float) -> np.ndarray:
    """Lift a reduced covariance to the full antenna basis.

    The residual direction h_hat receives the unused trace budget through
    the bordered completion, so the own-signal power meets the completion
    bound while every interference power is fixed by S11 alone.
    """
    s11 = np.atleast_2d(np.asarray(s11))
    if s11.shape[0] != frame.mbar:
        raise ValueError("S11 must be mbar x mbar")
    comp = CompletionInput(x=frame.h_low, y=frame.h_hat, k11=s11, p=p)
    k = lemma5_complete(comp)
    t = frame.transform
    return hermitize(t @ k @ t.conj().T, tol=1e-6)


def powers_closed_form(norm0, norm1, norm2, theta01, theta12, theta02, p, psi1, psi2):
    """Signal and interference powers of the two-angle rank-one sweep.

    Angles are the pairwise channel angles of the own vector (0) and the two
    interfered receivers' cross vectors (1, 2); theta_hat is the angle
    between the residuals of vectors 0 and 2 after projecting vector 1 out,
    recovered spherically from the three pairwise angles with a pi/2
    fallback when the configuration degenerates.
    """
    s01, s12 = np.sin(theta01), np.sin(theta12)
    denom = s01 * s12
    if denom <= 1e-12:
        theta_hat = np.pi / 2
    else:
        arg = (np.cos(theta02) - np.cos(theta01) * np.cos(theta12)) / denom
        theta_hat = np.arccos(np.clip(arg, -1.0, 1.0))
    sp1, cp1 = np.sin(psi1), np.cos(psi1)
    sp2, cp2 = np.sin(psi2), np.cos(psi2)
    inline = np.cos(theta01) * sp1 + s01 * np.cos(theta_hat) * cp1 * sp2
    resid = s01 * np.sin(theta_hat) * abs(cp1 * cp2)
    signal = p * norm0**2 * (abs(inline) + resid) ** 2
    z1sq = p * norm1**2 * sp1**2
    z2sq = p * norm2**2 * (np.cos(theta12) * sp1 + s12 * cp1 * sp2) ** 2
    return signal, z1sq, z2sq


def rank_one_rows(frame: ReducedFrame, p: float, psis, omegas=None):
    """Own signal, leaks and beams of one transmitter at rows of sweep angles.

    psis (and omegas, if given) are n x mbar arrays, one row per sample.
    Returns (gammas, signal, zsq, beams) as described in rank_one_table.
    """
    n = psis.shape[0]
    gam = gamma_from_angles(psis, omegas) if frame.mbar else np.zeros((n, 0))
    own_proj = gam @ frame.h_low.conj() if frame.mbar else np.zeros(n)
    hat_norm = float(np.linalg.norm(frame.h_hat))
    slack = np.sqrt(np.maximum(1.0 - np.sum(np.abs(gam) ** 2, axis=1), 0.0))
    signal = p * (np.abs(own_proj) + hat_norm * slack) ** 2
    cross = np.stack([v.conj() for v in frame.hj_low], axis=1) if frame.hj_low else None
    zsq = p * np.abs(gam @ cross) ** 2 if frame.hj_low else np.zeros((n, 0))

    # beamformer realizing the lift: reduced part sqrt(P)*gamma, residual part
    # phase-aligned with the own-signal contribution
    t = frame.dim
    cplx = np.iscomplexobj(gam) or np.iscomplexobj(frame.transform)
    kappa = np.zeros((n, t), dtype=complex if cplx else float)
    kappa[:, : frame.mbar] = np.sqrt(p) * gam
    if t > frame.mbar and hat_norm > 0.0:
        mag = np.abs(own_proj)
        if cplx:
            align = np.where(mag > 0.0, own_proj / np.where(mag > 0.0, mag, 1.0), 1.0)
        else:
            align = np.where(own_proj < 0.0, -1.0, 1.0)
        resid = (np.sqrt(p) * slack * align)[:, None] * (frame.h_hat / hat_norm)
        kappa[:, frame.mbar:] = resid
    beams = kappa @ frame.transform.T
    return gam, signal, zsq, beams


def sweeps_phases(mbar: int, complex_field: bool) -> bool:
    """Whether a rank-one sweep of mbar reduced dimensions varies phases.

    Only a complex field has phases, and with one dimension the only phase
    is a global phase of the reduced direction, which changes no power; so
    the first phase is pinned to 0 and the others vary when mbar > 1.
    """
    return complex_field and mbar > 1


def default_axes(mbar: int, grid: int, phases: bool):
    """Uniform sweep axes: grid polar angles on [0, pi] per reduced dimension.

    With phases (see sweeps_phases), each dimension after the first also
    sweeps grid phases on [0, 2 pi) and the first phase is pinned to 0.
    Returns (psi_axes, omega_axes or None).
    """
    psi_axes = [np.linspace(0.0, np.pi, grid)] * mbar
    omega_axes = None
    if sweeps_phases(mbar, phases):
        omega_axes = [np.zeros(1)] + [
            np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
        ] * (mbar - 1)
    return psi_axes, omega_axes


def rank_one_table(frame: ReducedFrame, p: float, psi_axes, omega_axes=None):
    """Cartesian sweep table over one transmitter's spherical parameters.

    Returns (angles, gammas, signal, zsq, beams):
      angles: (n, k) rows of swept values, psi axes first then omega axes,
              lexicographic with the first axis slowest;
      gammas: (n, mbar) reduced directions;
      signal: (n,) own-signal power after the optimal lift;
      zsq:    (n, len(hj_low)) interference powers at each constrained rx;
      beams:  (n, t) full-dimension beamformers realizing those powers.
    """
    axes = [np.atleast_1d(np.asarray(a, dtype=float)) for a in psi_axes]
    n_psi = len(axes)
    if n_psi != frame.mbar:
        raise ValueError("need one psi axis per reduced dimension")
    use_omega = omega_axes is not None
    if use_omega:
        oaxes = [np.atleast_1d(np.asarray(a, dtype=float)) for a in omega_axes]
        if len(oaxes) != frame.mbar:
            raise ValueError("need one omega axis per reduced dimension")
        axes = axes + oaxes
    angles = _angle_rows(axes)
    omegas = angles[:, n_psi:] if use_omega else None
    return (angles,) + rank_one_rows(frame, p, angles[:, :n_psi], omegas)


def _angle_rows(axes) -> np.ndarray:
    """Rows of the Cartesian product of float axes, the first axis slowest."""
    if len(axes) <= 1:
        return axes[0][:, None].copy() if axes else np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def best_rank_one_sweep(h_own, caps, p, complex_phases: bool = False):
    """Max |h'w|^2 over beams with ||w||^2 <= p and |v_j'w|^2 <= b_j for the
    (cross_vector v_j, bound b_j) pairs of caps, as (|h'w|^2, w).

    With h'w made real by a global phase this is max Re(h'w), a convex
    second-order cone program (Wiesel, Eldar & Shamai, IEEE TSP 2006),
    solved by SLSQP from w = 0 on the real coordinates x of w (complex when
    any input is, or with complex_phases) and on the complement of the
    vectors of caps of bound 0.  Newton steps on the multipliers finish it;
    the beam is then scaled into exact feasibility.  The name of the
    angle-grid search this replaced is kept for the benchmark.
    """
    # scipy is imported here, not at module level, so that the region
    # sweeps and the CLI run on numpy alone
    from scipy.optimize import minimize

    # np.stack refuses vectors of different dimensions
    cols = np.stack([np.atleast_1d(np.asarray(u)) for u in [h_own] + [v for v, _ in caps]], axis=1)
    bounds, p = np.array([float(b) for _, b in caps]), float(p)
    if not np.all(np.isfinite(np.concatenate([cols.ravel(), bounds, [p]]))) or min([p, *bounds]) < 0:
        raise ValueError("channels must be finite, power and cap bounds finite and non-negative")
    cplx = complex_phases or np.iscomplexobj(cols)
    zero = np.concatenate([[False], bounds == 0.0])
    basis = null_basis(cols[:, zero].conj().T) if zero.any() else np.eye(len(cols))

    def real(a):
        """a as a real matrix on x = (Re y, Im y) when y is complex."""
        return np.block([[a.real, -a.imag], [a.imag, a.real]]) if cplx else a

    g = basis.conj().T @ cols[:, ~zero]
    c = real(g[:, :1])[:, 0]
    norm = float(np.linalg.norm(c))
    if norm == 0.0 or p == 0.0:
        return 0.0, np.zeros(len(cols), dtype=complex if cplx else float)
    # the budget ||w||^2 <= p, then the caps |v_j'w|^2 <= b_j, as x'Q_i x <= b_i
    quads = np.stack([np.eye(c.size)] + [real(np.outer(u, u.conj())) for u in g[:, 1:].T])
    budgets = np.concatenate([[p], bounds])[~zero]
    res = minimize(lambda x: -(c @ x) / norm, np.zeros(c.size), jac=lambda x: -c / norm,
                   method="SLSQP", options={"maxiter": 200, "ftol": 1e-15},
                   constraints=[{"type": "ineq", "fun": lambda x: budgets - (quads @ x) @ x,
                                 "jac": lambda x: -2.0 * (quads @ x)}])
    best = (-1.0, None)
    for x in (res.x, _multiplier_newton(c, quads, budgets, res.x)):
        w = basis @ (x[:g.shape[0]] + 1j * x[g.shape[0]:] if cplx else x)
        gains = np.abs(w @ cols.conj()) ** 2
        forms = np.concatenate([[np.vdot(w, w).real], gains[1:][~zero[1:]]])
        w = w * np.sqrt(np.min(budgets / np.maximum(forms, budgets)))
        best = max(best, (float(abs(np.vdot(cols[:, 0], w)) ** 2), w), key=lambda got: got[0])
    return best


def _multiplier_newton(c, quads, budgets, x0):
    """The maximizer of c'x on the constraints x'Q_i x <= b_i active at x0, or
    x0 if that fails: Newton steps on their multipliers mu, fitted to c = M x0
    first, minimize the dual, where x = M^-1 c with M = 2 sum_i mu_i Q_i, the
    gradient is b - x'Q x and the Hessian 4 (Q x)' M^-1 (Q x)."""
    qx = quads @ x0
    act = np.flatnonzero(qx @ x0 >= budgets * (1.0 - 1e-6))
    mu = np.linalg.lstsq(2.0 * qx[act].T, c, rcond=None)[0]
    try:
        for _ in range(30):
            m = 2.0 * np.tensordot(mu, quads[act], 1)
            x = np.linalg.solve(m, c)
            qx = quads[act] @ x
            resid = budgets[act] - qx @ x
            if np.all(np.abs(resid) <= 1e-15 * budgets[act]):
                break
            mu = mu - np.linalg.solve(4.0 * qx @ np.linalg.solve(m, qx.T), resid)
    except np.linalg.LinAlgError:
        return x0
    return x if np.all(np.isfinite(x)) else x0
