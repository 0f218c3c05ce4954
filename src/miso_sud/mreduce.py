"""Dimension reduction for per-transmitter covariance optimization.

A transmitter with t antennas facing m-1 interference constraints never
needs more than mbar = min(t, m-1) effective dimensions: an accumulated
block-unitary change of basis compresses every interfering cross channel
into a leading mbar-dimensional block, leaving the own channel split into a
low part (seen by the constraints) and a residual that is interference-free.
Rank-one covariances of the reduced block are parametrized by spherical
angles; the lift back to full dimension fills in the residual direction
optimally via the bordered completion of :mod:`miso_sud.rankone`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import hermitize, unitary_completion
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


def _frame_terms(frame: ReducedFrame):
    """Angle-free terms of _signal_leaks: mbar, conj(h_low), ||h_hat||, conj cross columns."""
    cross = np.stack([v.conj() for v in frame.hj_low], axis=1) if frame.hj_low else None
    return frame.mbar, frame.h_low.conj(), float(np.linalg.norm(frame.h_hat)), cross


def _signal_leaks(terms, p: float, psis, omegas=None):
    """Reduced directions, own projections, slacks, signal and leaks at rows of
    sweep angles, from the _frame_terms of one frame."""
    mbar, own, hat_norm, cross = terms
    n = psis.shape[0]
    gam = gamma_from_angles(psis, omegas) if mbar else np.zeros((n, 0))
    own_proj = gam @ own if mbar else np.zeros(n)
    slack = np.sqrt(np.maximum(1.0 - np.sum(np.abs(gam) ** 2, axis=1), 0.0))
    signal = p * (np.abs(own_proj) + hat_norm * slack) ** 2
    zsq = p * np.abs(gam @ cross) ** 2 if cross is not None else np.zeros((n, 0))
    return gam, own_proj, slack, signal, zsq


def rank_one_rows(frame: ReducedFrame, p: float, psis, omegas=None):
    """Own signal, leaks and beams of one transmitter at rows of sweep angles.

    psis (and omegas, if given) are n x mbar arrays, one row per sample.
    Returns (gammas, signal, zsq, beams) as described in rank_one_table.
    """
    _, _, hat_norm, _ = terms = _frame_terms(frame)
    gam, own_proj, slack, signal, zsq = _signal_leaks(terms, p, psis, omegas)

    # beamformer realizing the lift: reduced part sqrt(P)*gamma, residual part
    # phase-aligned with the own-signal contribution
    t = frame.dim
    cplx = np.iscomplexobj(gam) or np.iscomplexobj(frame.transform)
    kappa = np.zeros((len(psis), t), dtype=complex if cplx else float)
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


def _box_pattern(n: int, count: int) -> np.ndarray:
    """Index rows of the Cartesian product of count axes of n points, the first
    axis slowest: one row of shape (0,) when count is 0."""
    return np.indices((n,) * count).reshape(count, n ** count).T


def _zoom_rows(center, width, n: int, cols, pattern) -> np.ndarray:
    """Rows of the box center + linspace(-width, width, n) on the axes cols,
    the other axes at center, in the order of pattern = _box_pattern(n, len(cols)).

    The rows are bit for bit those of _angle_rows on those linspace axes:
    the offsets of every axis are computed at once in linspace's own
    arithmetic (n >= 2).
    """
    offsets = np.arange(n, dtype=float)[:, None] * ((width - -width) / (n - 1)) + -width
    offsets[-1] = width
    rows = np.repeat(center[None, :], len(pattern), axis=0)
    rows[:, cols] = center[cols] + offsets[pattern, cols]
    return rows


def best_rank_one_sweep(h_own, caps, p, grid: int = 0, rounds: int = 12,
                        complex_phases: bool = False):
    """Best rank-one own-signal power under upper interference caps, by sweep.

    caps is a list of (cross_vector, bound) pairs treated as upper limits on
    the interference power.  A coarse grid over the reduced spherical
    parameters seeds several well-separated incumbents; each is refined by
    a deterministic shrinking-box zoom and then a smooth constrained local
    step, which tracks optima that sit on cap boundaries where axis-aligned
    grids lose linear accuracy.  Without a residual direction (t = mbar) the
    power can sit on the rim |gamma| = 1, a fold of the angle chart that
    neither step can slide along; the rim is then also swept on its own, as
    the slice psi_mbar = pi/2 with mbar - 1 free angles, which adds three
    seeds of its own.  The search evaluates signal and leaks only, and the
    SLSQP objective and caps share one evaluation per point; the beam is
    built once, at the returned angles.  Returns (value, angles, beam).
    """
    # scipy is imported here, not at module level, so that the region
    # sweeps and the CLI run on numpy alone
    from scipy.optimize import minimize

    vecs = [np.asarray(v) for v, _ in caps]
    bounds = np.array([float(b) for _, b in caps])
    frame = reduce_interference_frame(h_own, vecs)
    terms = _frame_terms(frame)
    mbar = frame.mbar
    tol = 1e-9 * max(1.0, float(bounds.max()) if bounds.size else 1.0)
    n_axes = mbar * (2 if sweeps_phases(mbar, complex_phases) else 1)
    if grid <= 0:
        grid = {0: 2, 1: 41, 2: 41, 3: 15, 4: 11}.get(min(n_axes, 4), 7)
    zoom_pts = 9 if n_axes <= 2 else (5 if n_axes == 3 else 3)
    n_seeds = 1 if n_axes <= 1 else (3 if n_axes == 2 else (4 if n_axes == 3 else 6))
    psi_axes, omega_axes = default_axes(mbar, grid, complex_phases)
    use_omega = omega_axes is not None
    axes = psi_axes + (omega_axes if use_omega else [])
    widths = np.array([np.pi / max(grid - 1, 1)] * mbar
                      + ([2 * np.pi / grid] * mbar if use_omega else []))

    # a chart is the mask of angles a seed may move: the first phase is
    # pinned to 0, and on the rim chart so is psi_mbar, to pi/2
    disk = np.ones(len(axes), dtype=bool)
    if use_omega:
        disk[mbar] = False

    def table(angles):
        """Rows of angles, their signal and leaks, and the mask of rows within every cap."""
        omega = angles[:, mbar:] if use_omega else None
        _, _, _, signal, zsq = _signal_leaks(terms, p, angles[:, :mbar], omega)
        return angles, signal, zsq, np.all(zsq <= bounds + tol, axis=1)

    def top_candidates(free, count):
        """The best feasible grid rows of one chart, pairwise two cells apart."""
        pinned = [a if f else np.array([np.pi / 2 if i < mbar else 0.0])
                  for i, (a, f) in enumerate(zip(axes, free))]
        angles, signal, _, feas = table(_angle_rows(pinned))
        # psi_mbar enters gamma only through its sine: pi - psi_mbar is a
        # mirror image of psi_mbar, not another basin
        canon = angles.copy()
        last = canon[:, mbar - 1:mbar]
        np.minimum(last, np.pi - last, out=last)
        order = np.flatnonzero(feas)
        order = order[np.argsort(signal[order])][::-1]
        chosen = []
        for j in order:
            far = True
            for c in chosen:
                delta = np.abs(canon[j] - canon[c])
                if use_omega:
                    w = delta[mbar:]
                    delta[mbar:] = np.minimum(w, 2 * np.pi - w)
                # seeds two coarse cells apart count as distinct basins
                if float(np.max(delta / widths)) < 2.0:
                    far = False
                    break
            if far:
                chosen.append(j)
                if len(chosen) == count:
                    break
        return [(float(signal[j]), angles[j], free) for j in chosen]

    def polish(seed):
        val0, center, free = seed
        if not np.any(free):
            return seed
        memo = {}

        def table_at(x):
            # SLSQP asks for the objective and the caps at the same points
            key = x.tobytes()
            if key not in memo:
                full = center.copy()
                full[free] = x
                _, sig, zs, feas = table(full[None, :])
                memo[key] = float(sig[0]), zs[0], bool(feas[0]), full
            return memo[key]

        def local_step(start, margin):
            cons = []
            if bounds.size:
                cons.append({"type": "ineq", "fun": lambda x: bounds - margin - table_at(x)[1]})
            res = minimize(lambda x: -table_at(x)[0], start, method="SLSQP",
                           constraints=cons, options={"maxiter": 120, "ftol": 1e-12})
            x = np.asarray(res.x, dtype=float)
            return table_at(x) if np.all(np.isfinite(x)) else None

        got = local_step(center[free], 0.0)
        if got is not None and not got[2]:
            # the step can stop a rounding error outside a cap: rerun it from
            # there with the caps pulled in by twice that overshoot
            got = local_step(got[3][free], 2.0 * np.maximum(got[1] - bounds, 0.0))
        if got is None or not got[2] or got[0] <= val0:
            return seed
        return got[0], got[3], free

    seeds = top_candidates(disk, n_seeds)
    if not seeds:
        # psi = 0 is always feasible (zero interference); the grid contains
        # it, so reaching here means caps are negative or numerics broke
        raise ValueError("no feasible sweep point under the given caps")
    if 0 < mbar == frame.dim:
        seeds += top_candidates(disk & (np.arange(disk.size) != mbar - 1), 3)
    best = None
    for seed in seeds:
        cur = seed
        free = seed[2]
        cols = np.flatnonzero(free)
        pattern = _box_pattern(zoom_pts, cols.size)
        width = widths.copy()
        shrinks = 0
        steps = 0
        while shrinks < rounds and steps < 5 * rounds:
            steps += 1
            angles, signal, _, feas = table(_zoom_rows(cur[1], width, zoom_pts, cols, pattern))
            moved = False
            if np.any(feas):
                idx = int(np.flatnonzero(feas)[np.argmax(signal[feas])])
                if signal[idx] > cur[0]:
                    moved = signal[idx] - cur[0] > 1e-6 * max(1.0, abs(cur[0]))
                    cur = (float(signal[idx]), angles[idx], free)
            if not moved:
                width /= 3.0
                shrinks += 1
        cur = polish(cur)
        if best is None or cur[0] > best[0]:
            best = cur
    value, angles = best[:2]
    omega = angles[None, mbar:] if use_omega else None
    return value, angles, rank_one_rows(frame, p, angles[None, :mbar], omega)[3][0]
