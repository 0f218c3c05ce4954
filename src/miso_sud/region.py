"""Rate region assembly for m-user interference networks.

Each transmitter sweeps a rank-one covariance parametrized by spherical
angles in its reduced frame; rate tuples follow by treating interference as
noise.  This module owns the network/sample containers, the grid and random
sweep drivers, the zero-forcing and single-user-maximum special points, and
Pareto/hull post-processing of rate points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mreduce import (
    ReducedFrame,
    SphericalParams,
    default_axes,
    rank_one_rows,
    rank_one_table,
    reduce_interference_frame,
    sweeps_phases,
)

__all__ = [
    "MisoNetwork",
    "RegionSample",
    "channel_angle",
    "rate_from_sinr",
    "three_user_region",
    "m_user_region",
    "zf_point",
    "single_user_max_surface",
    "pareto_filter",
    "pareto_prune_samples",
    "pareto_hull",
]

_LN2 = float(np.log(2.0))

# candidates that pareto_filter decides in one vectorised step
_PARETO_BLOCK = 256
# most booleans one pareto_filter comparison holds, which bounds its memory
_PARETO_CELLS = 1 << 22


@dataclass(frozen=True)
class MisoNetwork:
    """An m-user interference network with unit-variance receiver noise.

    channels[j] is the t_j x m matrix whose i-th column is the vector from
    transmitter j to receiver i, matching the column layout H_j = [h_j1 ...
    h_jm]; powers[i] is transmitter i's budget.  field picks the rate
    prefactor: 1 for circularly symmetric complex signalling, 1/2 for real.
    """

    channels: tuple
    powers: tuple
    field: str = "complex"

    def __post_init__(self):
        chans = tuple(np.atleast_2d(np.asarray(h)) for h in self.channels)
        powers = tuple(float(p) for p in self.powers)
        m = len(powers)
        if len(chans) != m:
            raise ValueError("need one channel matrix per transmitter")
        if m < 2:
            raise ValueError("need at least two users")
        for j, h in enumerate(chans):
            if h.shape[1] != m:
                raise ValueError(f"channel matrix {j} must have m={m} columns")
        if any(p < 0 for p in powers):
            raise ValueError("powers must be non-negative")
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")
        if self.field == "real" and any(np.iscomplexobj(h) for h in chans):
            raise ValueError("real-field network has complex channel entries")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "powers", powers)

    @property
    def m(self) -> int:
        return len(self.powers)

    @property
    def prefactor(self) -> float:
        return 0.5 if self.field == "real" else 1.0

    def h(self, j: int, i: int) -> np.ndarray:
        """Channel vector from transmitter j to receiver i."""
        return self.channels[j][:, i]


@dataclass(frozen=True)
class RegionSample:
    """One achievable point: per-user sweep params, rates, beamformers.

    interference[j, i] is the power transmitter j's beam deposits at
    receiver i (diagonal entries hold the own-signal powers).
    """

    params: tuple
    rates: tuple
    beamformers: tuple
    interference: np.ndarray


def channel_angle(x, y) -> float:
    """Angle between two real vectors in [0, pi]; pi/2 if either is zero."""
    x = np.asarray(x)
    y = np.asarray(y)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return np.pi / 2
    c = float(np.real(np.vdot(x, y))) / (nx * ny)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def rate_from_sinr(sinr, prefactor: float = 1.0, nats: bool = False):
    """log(1 + SINR) in bits (or nats) scaled by the field prefactor."""
    val = np.log1p(sinr)
    if not nats:
        val = val / _LN2
    return prefactor * val


def _user_frame(net: MisoNetwork, i: int, order=None) -> tuple[ReducedFrame, list]:
    order = list(order) if order is not None else [j for j in range(net.m) if j != i]
    frame = reduce_interference_frame(net.h(i, i), [net.h(i, j) for j in order])
    return frame, order


class _UserTable:
    """Sweep rows of one transmitter: params, signal, leaks, beams (internal).

    targets[c] is the receiver that leak column c of zsq reaches.
    """

    __slots__ = ("targets", "params", "signal", "zsq", "beams")

    def __init__(self, targets, angles, n_psi, signal, zsq, beams):
        self.targets = targets
        # built once per row, since the cross product revisits every row
        if angles.shape[1] not in (n_psi, 2 * n_psi):
            raise ValueError("psi and omega must have equal length")
        zeros = (0.0,) * n_psi
        self.params = [SphericalParams._of_floats(tuple(row[:n_psi]), tuple(row[n_psi:]) or zeros)
                       for row in angles.tolist()]
        self.signal = signal
        self.zsq = zsq
        # one read-only array per row, shared by every sample that uses it
        beams.setflags(write=False)
        self.beams = list(beams)

    def __len__(self):
        return len(self.params)


def _grid_table(frame: ReducedFrame, targets, power: float, psi_axes,
                omega_axes=None) -> _UserTable:
    angles, _, signal, zsq, beams = rank_one_table(frame, power, psi_axes, omega_axes)
    return _UserTable(targets, angles, frame.mbar, signal, zsq, beams)


def _emit_rows(net: MisoNetwork, tables, idx, nats: bool):
    """RegionSamples whose user i takes row idx[i][r] of its table, r = 0, 1, ..."""
    m = net.m
    sig = np.stack([tables[i].signal[idx[i]] for i in range(m)], axis=0)
    itf = np.zeros_like(sig)
    inter = np.zeros((sig.shape[1], m, m))
    for j, t in enumerate(tables):
        zj = t.zsq[idx[j]]
        for c, rx in enumerate(t.targets):
            itf[rx] += zj[:, c]
        inter[:, j, j] = sig[j]
        inter[:, j, t.targets] = zj
    rates = rate_from_sinr(sig / (1.0 + itf), net.prefactor, nats).T.tolist()
    rows = [ix.tolist() for ix in idx]
    params = zip(*[[t.params[k] for k in ks] for t, ks in zip(tables, rows)])
    beams = zip(*[[t.beams[k] for k in ks] for t, ks in zip(tables, rows)])
    for p, r, b, it in zip(params, rates, beams, inter):
        yield RegionSample(params=p, rates=tuple(r), beamformers=b, interference=it.copy())


def _emit_cross(net: MisoNetwork, tables, nats: bool, chunk: int = 8192):
    """Stream RegionSamples over the cross product of per-user tables."""
    sizes = [len(t) for t in tables]
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        yield from _emit_rows(net, tables, np.unravel_index(flat, sizes), nats)


def _random_stream(net: MisoNetwork, seed: int, count: int, nats: bool, chunk: int = 8192):
    """Stream RegionSamples whose angles are drawn i.i.d. uniform, user by user."""
    rng = np.random.default_rng(seed)
    frames = [_user_frame(net, i) for i in range(net.m)]
    cplx = net.field == "complex"
    done = 0
    while done < count:
        n = min(chunk, count - done)
        tables = []
        for i, (frame, order) in enumerate(frames):
            mbar = frame.mbar
            psis = rng.uniform(0.0, np.pi, size=(n, mbar))
            omegas = np.zeros((n, mbar))
            if sweeps_phases(mbar, cplx):
                omegas[:, 1:] = rng.uniform(0.0, 2 * np.pi, size=(n, mbar - 1))
            _, signal, zsq, beams = rank_one_rows(frame, net.powers[i], psis, omegas)
            angles = np.concatenate([psis, omegas], axis=1)
            tables.append(_UserTable(order, angles, mbar, signal, zsq, beams))
        yield from _emit_rows(net, tables, [np.arange(n)] * net.m, nats)
        done += n


def m_user_region(net: MisoNetwork, grid: int = 24, sampler: str = "grid",
                  seed: int = 0, count: int = 1_000_000, axes=None,
                  nats: bool = False):
    """Stream achievable rate samples over per-user spherical sweeps.

    sampler 'grid' sweeps each user's angles over uniform closed grids (or
    explicit per-user ``axes``, a list with one list of axis arrays per
    user); sampler 'random' draws ``count`` i.i.d. uniform tuples from a
    seeded generator.  Samples arrive in deterministic order either way.
    """
    if all(p == 0.0 for p in net.powers):
        # every beam is zero, so the whole region is the origin
        yield zf_point(net, nats)
        return
    if sampler == "random":
        yield from _random_stream(net, seed, count, nats)
        return
    if sampler != "grid":
        raise ValueError(f"unknown sampler '{sampler}'")
    if grid < 2 and axes is None:
        raise ValueError("grid must be at least 2")
    tables = []
    cplx = net.field == "complex"
    for i in range(net.m):
        frame, order = _user_frame(net, i)
        if axes is not None:
            user_axes = [np.asarray(a, dtype=float) for a in axes[i]]
            psi_axes = user_axes[: frame.mbar]
            omega_axes = user_axes[frame.mbar:] or None
            if len(psi_axes) != frame.mbar:
                raise ValueError("explicit axes must cover each reduced dimension")
        else:
            psi_axes, omega_axes = default_axes(frame.mbar, grid, cplx)
        tables.append(_grid_table(frame, order, net.powers[i], psi_axes, omega_axes))
    yield from _emit_cross(net, tables, nats)


def three_user_region(net: MisoNetwork, grid: int = 24, sampler: str = "grid",
                      seed: int = 0, count: int = 1_000_000, axes=None,
                      nats: bool = False):
    """Three-user specialization of m_user_region (same sweep, same order)."""
    if net.m != 3:
        raise ValueError("three_user_region needs a 3-user network")
    yield from m_user_region(net, grid=grid, sampler=sampler, seed=seed,
                             count=count, axes=axes, nats=nats)


def zf_point(net: MisoNetwork, nats: bool = False) -> RegionSample:
    """The all-angles-zero sample: zero interference everywhere.

    Each transmitter pours its budget into the component of its own channel
    orthogonal to all cross channels.  A transmitter with no such component
    (reduced residual empty) simply gets rate zero.
    """
    tables = []
    for i in range(net.m):
        frame, order = _user_frame(net, i)
        psi_axes = [np.zeros(1)] * frame.mbar
        tables.append(_grid_table(frame, order, net.powers[i], psi_axes))
    return next(_emit_cross(net, tables, nats))


def _invert_gamma_to_psi(gamma: np.ndarray) -> np.ndarray:
    """Angles whose signed-cosine-product recursion reproduces ``gamma``.

    Valid for real gamma with norm <= 1; the running cosine product is kept
    non-negative, signs land on the sines.
    """
    psi = np.zeros(gamma.size)
    lead = 1.0
    for k, g in enumerate(gamma):
        if lead <= 1e-12:
            psi[k] = 0.0
            continue
        s = float(np.clip(g / lead, -1.0, 1.0))
        psi[k] = np.arcsin(s)
        lead *= np.sqrt(max(1.0 - s * s, 0.0))
    return psi


def single_user_max_surface(net: MisoNetwork, user: int, grid: int = 24,
                            nats: bool = False):
    """Sweep the region face where one user's rate sits at its maximum.

    The chosen user's angles are pinned to the matched-filter values
    (pi/2 - theta01, pi/2 - theta_hat in the three-user notation); every
    other transmitter nulls the chosen receiver, which after reordering its
    interferer list to put that receiver first means pinning its first
    angle to 0, and sweeps its remaining angle over [0, pi].  The chosen
    user's rate is constant across the stream for real channels.
    """
    if net.m != 3:
        raise ValueError("single_user_max_surface needs a 3-user network")
    if not 0 <= user < net.m:
        raise ValueError("user index out of range")
    tables = []
    for i in range(net.m):
        if i == user:
            frame, order = _user_frame(net, i)
            own_norm = float(np.linalg.norm(net.h(i, i)))
            if own_norm > 0.0 and frame.mbar:
                target = np.real(frame.h_low) / own_norm
                psi_pin = _invert_gamma_to_psi(target)
            else:
                psi_pin = np.zeros(frame.mbar)
            psi_axes = [np.array([v]) for v in psi_pin]
        else:
            frame, order = _user_frame(
                net, i, [user] + [j for j in range(net.m) if j not in (i, user)]
            )
            psi_axes = [np.zeros(1)] + [np.linspace(0.0, np.pi, grid)] * (frame.mbar - 1)
            if frame.mbar == 0:
                psi_axes = []
        tables.append(_grid_table(frame, order, net.powers[i], psi_axes))
    yield from _emit_cross(net, tables, nats)


def _as_points(samples) -> np.ndarray:
    pts = np.array([getattr(s, "rates", s) for s in samples], dtype=float)
    if not len(pts):
        raise ValueError("empty sample stream")
    return pts.reshape(pts.shape[0], -1)


def _dominated(cand: np.ndarray, by: np.ndarray) -> np.ndarray:
    """dom[a, b]: row a of ``by`` dominates row b of ``cand``.

    Domination means at least as large in every coordinate and larger in
    one; a NaN coordinate neither dominates nor is dominated.
    """
    ge = np.all(by[:, None, :] >= cand[None, :, :], axis=2)
    gt = np.any(by[:, None, :] > cand[None, :, :], axis=2)
    return ge & gt


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise-maximal rows (original order).

    Rows are visited by descending coordinate sum (stable), and a row is
    dropped when a row kept before it dominates it.  Since domination is
    transitive, that is the same as being dominated by any earlier row: so
    each block of candidates is checked against the rows kept from earlier
    blocks and against the earlier rows of its own block, all at once.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    order = np.argsort(-pts.sum(axis=1), kind="stable")
    keep = np.zeros(n, dtype=bool)
    kept = pts[:0]
    for start in range(0, n, _PARETO_BLOCK):
        idx = order[start:start + _PARETO_BLOCK]
        cand = pts[idx]
        drop = np.any(np.triu(_dominated(cand, cand), k=1), axis=0)
        step = max(1, _PARETO_CELLS // (len(idx) * max(pts.shape[1], 1)))
        for lo in range(0, kept.shape[0], step):
            live = ~drop
            if not np.any(live):
                break
            drop[live] = np.any(_dominated(cand[live], kept[lo:lo + step]), axis=0)
        keep[idx[~drop]] = True
        kept = np.concatenate([kept, cand[~drop]])
    return keep


def pareto_prune_samples(samples, chunk: int = 4096) -> list:
    """Pareto-maximal RegionSamples of a stream, pruning incrementally."""
    archive: list = []
    arch_pts = np.zeros((0, 0))
    buf: list = []

    def flush():
        nonlocal archive, arch_pts, buf
        if not buf:
            return
        pts = _as_points(buf)
        if arch_pts.size:
            allpts = np.vstack([arch_pts, pts])
            allsmp = archive + buf
        else:
            allpts = pts
            allsmp = buf
        mask = pareto_filter(allpts)
        archive = [s for s, k in zip(allsmp, mask) if k]
        arch_pts = allpts[mask]
        buf = []

    for s in samples:
        buf.append(s)
        if len(buf) >= chunk:
            flush()
    flush()
    return archive


def _hull_2d(points: np.ndarray) -> list:
    """Extreme points of the 2-D convex hull, monotone chain, collinear dropped."""
    pts = np.unique(np.round(points, 12), axis=0)
    if pts.shape[0] <= 2:
        return [tuple(p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(tuple(p))
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(tuple(p))
    return lower[:-1] + upper[:-1]


def pareto_hull(samples, mode: str = "pareto") -> list:
    """Post-process a sample stream into boundary rate points.

    mode 'pareto' keeps componentwise-maximal points.  mode 'hull' returns
    the extreme points of the convex hull of the points together with all
    their coordinate projections down to the origin, so the hull describes
    time-sharing including silent users; in three or more dimensions the
    hull is replaced by Pareto filtering of that union.
    """
    pts = _as_points(samples)
    if mode == "pareto":
        mask = pareto_filter(pts)
        return [tuple(p) for p in pts[mask]]
    if mode != "hull":
        raise ValueError("mode must be 'pareto' or 'hull'")
    d = pts.shape[1]
    masks = np.array(
        [[(k >> b) & 1 for b in range(d)] for k in range(2**d)], dtype=float
    )
    union = (pts[:, None, :] * masks[None, :, :]).reshape(-1, d)
    if d == 2:
        return _hull_2d(union)
    mask = pareto_filter(union)
    out = union[mask]
    out = np.unique(np.round(out, 12), axis=0)
    return [tuple(p) for p in out]
