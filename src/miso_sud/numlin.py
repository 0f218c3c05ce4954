"""Dense Hermitian linear algebra kernel for small dimensions.

Everything here operates on plain numpy arrays: 1-D arrays play the role of
channel/beamforming vectors, 2-D arrays the role of Hermitian or unitary
matrices.  Dimensions stay tiny (a handful of antennas), so robustness and
reproducibility win over speed everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FeasibilityError",
    "NumericalError",
    "hermitize",
    "unitary_completion",
    "null_basis",
    "eig_hermitian",
    "psd_check",
    "project_psd",
]


class FeasibilityError(ValueError):
    """Requested optimization/construction has no feasible point."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge."""


def hermitize(a, tol: float = 1e-9) -> np.ndarray:
    """Validate that ``a`` is Hermitian and return the symmetrized copy.

    Symmetrizing by (A + A^H)/2 scrubs roundoff off-Hermitian parts;
    asymmetry larger than ``tol`` (absolute, relative to the largest entry)
    is treated as a caller bug rather than noise.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    asym = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    return (a + a.conj().T) / 2.0


def unitary_completion(h) -> np.ndarray:
    """Unitary U whose first column is h/||h||, so U^H h = (||h||, 0, ..., 0).

    Built from a single Householder reflector for determinism.  The zero
    vector returns the identity by convention, which keeps downstream angle
    code well defined.
    """
    h = np.asarray(h)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("expected a vector of dimension >= 1")
    n = h.size
    nrm = float(np.linalg.norm(h))
    eye = np.eye(n, dtype=complex if np.iscomplexobj(h) else float)
    if nrm == 0.0:
        return eye
    x = h.astype(eye.dtype)
    # alpha carries the phase of x[0] so v = x - alpha*e1 never cancels
    x0 = x[0]
    phase = x0 / abs(x0) if abs(x0) > 0 else 1.0
    alpha = -phase * nrm
    v = x.copy()
    v[0] -= alpha
    vv = np.vdot(v, v).real
    if vv <= 0.0:
        return eye
    refl = eye - (2.0 / vv) * np.outer(v, v.conj())
    # refl maps x to alpha*e1; a diagonal phase twist turns that into +||x||*e1
    u = refl.copy()
    u[:, 0] *= alpha / nrm
    return u


def null_basis(rows) -> np.ndarray:
    """Orthonormal columns spanning the x with rows @ x = 0."""
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    return vh[rank:].conj().T


def eig_hermitian(a, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(lam, q)`` with eigenvalues ascending and A = q @ diag(lam) @ q^H.
    Backed by LAPACK through numpy; non-convergence raises NumericalError.
    """
    a = hermitize(a, tol=tol)
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hermitian eigensolver failed: {exc}") from exc
    return lam, q


def psd_check(a, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue of Hermitian ``a`` is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    lam, _ = eig_hermitian(a)
    return bool(lam[0] >= -tol)


def project_psd(a) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm (eigenvalue clip)."""
    lam, q = eig_hermitian(a)
    lam = np.maximum(lam, 0.0)
    out = (q * lam) @ q.conj().T
    return (out + out.conj().T) / 2.0
