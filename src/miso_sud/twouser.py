"""Closed-form two-user machinery.

For two users the per-transmitter problem of maximizing own-signal power at a
fixed interference level has an explicit solution, so the whole rate region
boundary is a two-angle sweep, run on the m-user engine of
:mod:`miso_sud.region`.  This module also carries the
interference-limited variant, the scalar-channel sum-rate maximum, and the
frequency-division baseline with its beats-zero-forcing threshold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numlin import FeasibilityError, unitary_completion
from .region import MisoNetwork, _cross_blocks, _grid_table, _samples, _user_frame, rate_from_sinr

__all__ = [
    "TwoUserChannel",
    "cross_angles",
    "RatePair",
    "max_signal_given_interference",
    "two_user_region",
    "interference_limited_region",
    "scalar_sud_sum_rate",
    "fdm_region",
    "fdm_beats_zf_condition",
    "fdm_zf_threshold",
]


class TwoUserChannel(MisoNetwork):
    """Two-user network in the paper's notation: h1, h4 direct, h2, h3 cross.

    Receiver 1 sees h1 from its own transmitter and h2 from the other;
    receiver 2 sees h4 from its own and h3 from transmitter 1.  Noise is
    unit variance, so p1, p2 are noise-normalized budgets.  The result is
    the m = 2 MisoNetwork with h(0, 0) = h1, h(0, 1) = h3, h(1, 0) = h2 and
    h(1, 1) = h4.
    """

    def __init__(self, h1, h2, h3, h4, p1, p2, field="complex"):
        super().__init__(
            channels=(np.stack([h1, h3], axis=1), np.stack([h2, h4], axis=1)),
            powers=(p1, p2),
            field=field,
        )


def _pair_angle(direct, cross) -> float:
    """Angle in [0, pi/2] via the modulus inner product; 0 if a norm vanishes."""
    nd = float(np.linalg.norm(direct))
    nc = float(np.linalg.norm(cross))
    if nd == 0.0 or nc == 0.0:
        return 0.0
    c = abs(complex(np.vdot(cross, direct))) / (nd * nc)
    return float(np.arccos(np.clip(c, 0.0, 1.0)))


def _require_two_users(net: MisoNetwork):
    if net.m != 2:
        raise ValueError("a two-user function needs a network with m = 2")


def cross_angles(net: MisoNetwork) -> tuple:
    """Angles theta_i in [0, pi/2] between user i's direct and cross channel."""
    _require_two_users(net)
    return tuple(_pair_angle(net.h(i, i), net.h(i, 1 - i)) for i in range(2))


class RatePair(NamedTuple):
    r1: float
    r2: float


def max_signal_given_interference(h1, h3, p: float, z: float):
    """Largest own-signal power at interference level exactly z squared.

    Maximizes |h1' gamma|^2 over ||gamma||^2 <= p subject to |h3' gamma| = z
    (the constraint is vacuous when h3 = 0, where z must be 0).  Returns
    (gamma, value); the optimal covariance is the rank-one gamma gamma'.
    """
    h1 = np.atleast_1d(np.asarray(h1))
    h3 = np.atleast_1d(np.asarray(h3))
    if h1.size != h3.size:
        raise ValueError("h1 and h3 must have equal dimension")
    if p < 0:
        raise FeasibilityError("power budget must be non-negative")
    if z < 0:
        raise FeasibilityError("interference level must be non-negative")
    n3 = float(np.linalg.norm(h3))
    n1 = float(np.linalg.norm(h1))
    tol = 1e-9 * max(1.0, np.sqrt(p) * max(n3, 1.0))
    cplx = np.iscomplexobj(h1) or np.iscomplexobj(h3)
    dtype = complex if cplx else float

    if n3 == 0.0:
        if z > tol:
            raise FeasibilityError("nonzero interference required through a zero channel")
        if n1 == 0.0:
            return np.zeros(h1.size, dtype=dtype), 0.0
        gamma = (np.sqrt(p) / n1) * h1.astype(dtype)
        return gamma, p * n1**2

    if z > np.sqrt(p) * n3 + tol:
        raise FeasibilityError("interference level exceeds the power budget times the cross gain")
    a = min(z / n3, np.sqrt(p))

    u3 = unitary_completion(h3)
    h1_hat = u3.conj().T @ h1.astype(dtype)
    lead = complex(h1_hat[0])
    rest = h1_hat[1:]
    nrest = float(np.linalg.norm(rest))
    b = np.sqrt(max(p - a * a, 0.0))

    gamma_hat = np.zeros(h1.size, dtype=dtype)
    k = lead / abs(lead) if abs(lead) > 0.0 else 1.0
    if not cplx:
        k = float(np.real(k))
    gamma_hat[0] = a * k
    if nrest > 0.0:
        gamma_hat[1:] = (b / nrest) * rest
    value = (a * abs(lead) + b * nrest) ** 2
    gamma = u3 @ gamma_hat
    if not cplx:
        gamma = np.real(gamma)
    return gamma, float(value)


def _engine_tables(net: MisoNetwork, caps, grid1: int, grid2: int) -> list:
    """Per-user tables of psi_i in linspace(0, bar_i, grid_i) on the m-user engine.

    bar_i is pi/2 - theta_i, or less under caps = (q1, q2) as
    interference_limited_region describes.  The table row at psi is
    max_signal_given_interference at the level sqrt(p) * ||h_cross|| *
    sin(psi).  A zero cross channel leaves no angle (mbar = 0): that user's
    one row is its matched filter, with empty psi.
    """
    if caps is not None and any(q < 0 for q in caps):
        raise ValueError("interference caps must be non-negative")
    bars = [np.pi / 2 - theta for theta in cross_angles(net)]
    if caps is not None:
        norms = [float(np.linalg.norm(net.h(i, 1 - i))) for i in range(2)]
        if 0.0 in norms:
            raise FeasibilityError("interference-limited sweep needs nonzero cross channels")
        for i, (q, p, nc) in enumerate(zip(caps, net.powers, norms)):
            if p != 0.0:
                bars[i] = min(bars[i], np.arcsin(np.sqrt(np.clip(q / (p * nc**2), 0.0, 1.0))))
    if grid1 < 2 or grid2 < 2:
        raise ValueError("grid sizes must be at least 2")
    tables = []
    for i, (bar, grid) in enumerate(zip(bars, (grid1, grid2))):
        frame, order = _user_frame(net, i)
        psi_axes = [np.linspace(0.0, bar, grid)] * frame.mbar
        tables.append(_grid_table(frame, order, net.powers[i], psi_axes))
    return tables


def two_user_region(net: MisoNetwork, grid1: int = 181, grid2: int = 181,
                    nats: bool = False) -> list:
    """Sample the full rate region boundary sweep.

    psi_i spans [0, pi/2 - theta_i] uniformly; each of the grid1*grid2
    samples carries both beamformers, both rates, and the signal and
    interference powers behind them.
    """
    tables = _engine_tables(net, None, grid1, grid2)
    return list(_samples(_cross_blocks(net, tables, nats)))


def interference_limited_region(net: MisoNetwork, q1: float, q2: float,
                                grid1: int = 181, grid2: int = 181,
                                nats: bool = False) -> list:
    """Region sweep with per-receiver interference caps q1, q2.

    The caps shrink the sweep ranges to psi_i in [0, min(pi/2 - theta_i,
    asin(sqrt(q_i / (p_i ||h_cross||^2))))].  Both cross channels must be
    nonzero for the caps to be meaningful.
    """
    tables = _engine_tables(net, (q1, q2), grid1, grid2)
    return list(_samples(_cross_blocks(net, tables, nats)))


def scalar_sud_sum_rate(p1: float, p2: float, a: float, b: float,
                        nats: bool = False):
    """Maximum treat-interference-as-noise sum rate of the scalar channel.

    Direct gains are 1, cross power gains a (into receiver 1) and b (into
    receiver 2).  The maximum is attained at one of three power corners;
    returns (rate, corner) with ties broken toward both-users-on.
    """
    if min(p1, p2, a, b) < 0:
        raise ValueError("powers and gains must be non-negative")

    def f(x, y):
        return (rate_from_sinr(x / (1.0 + a * y), 1.0, nats)
                + rate_from_sinr(y / (1.0 + b * x), 1.0, nats))

    corners = [(p1, p2), (0.0, p2), (p1, 0.0)]
    vals = [f(x, y) for x, y in corners]
    best = int(np.argmax(vals))
    return float(vals[best]), corners[best]


def fdm_region(net: MisoNetwork, grid: int = 101, nats: bool = False) -> list:
    """Frequency-division baseline: bandwidth split alpha against 1 - alpha.

    Each user transmits over its fraction with the matched filter and no
    interference; the endpoints are the single-user corners.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    _require_two_users(net)
    pref = net.prefactor
    g1 = net.powers[0] * float(np.linalg.norm(net.h(0, 0))) ** 2
    g2 = net.powers[1] * float(np.linalg.norm(net.h(1, 1))) ** 2
    out = []
    for alpha in np.linspace(0.0, 1.0, grid):
        r1 = alpha * rate_from_sinr(g1 / alpha, pref, nats) if alpha > 0.0 else 0.0
        beta = 1.0 - alpha
        r2 = beta * rate_from_sinr(g2 / beta, pref, nats) if beta > 0.0 else 0.0
        out.append(RatePair(float(r1), float(r2)))
    return out


def fdm_zf_threshold(p: float) -> float:
    """Cross-channel alignment below which half-band FDM beats zero forcing.

    Evaluated as sqrt(2 / (1 + sqrt(1 + 2p))), algebraically equal to
    sqrt((sqrt(1 + 2p) - 1) / p) but stable for small p.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    return float(np.sqrt(2.0 / (1.0 + np.sqrt(1.0 + 2.0 * p))))


def fdm_beats_zf_condition(theta: float, p: float) -> bool:
    """True when the zero-forcing corner falls inside the FDM region.

    For the symmetric unit-gain channel at angle theta, zero forcing keeps
    sin(theta) of each direct channel, so FDM wins at small angles.
    """
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2]")
    return bool(np.sin(theta) <= fdm_zf_threshold(p))
