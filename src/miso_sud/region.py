"""Rate region assembly for m-user interference networks.

Each transmitter sweeps a rank-one covariance parametrized by spherical
angles in its reduced frame; rate tuples follow by treating interference as
noise.  This module owns the network/sample containers, the grid and random
sweep drivers, the zero-forcing and single-user-maximum special points, and
Pareto/hull post-processing of rate points.

A beam fixes its own signal and leaks whatever the other beams are, so a
sweep is a stream of blocks: a table of rows per user (angles, signal,
leaks, beams), per-user row indices and the rates.  The public generators
wrap blocks into RegionSamples; the command line writes CSV from blocks.
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


@dataclass(eq=False)
class _UserTable:
    """Sweep rows of one transmitter: (n, mbar) psi and omega angles (omega
    zero where phases are not swept), signal, leaks and beams (internal).
    targets[c] is the receiver that leak column c of zsq reaches."""

    targets: list
    psi: np.ndarray
    omega: np.ndarray
    signal: np.ndarray
    zsq: np.ndarray
    beams: np.ndarray
    _rows: tuple = None

    def rows(self):
        """Each row's SphericalParams and read-only beam, built on first use."""
        if self._rows is None:
            self.beams.setflags(write=False)
            params = [SphericalParams._of_floats(tuple(p), tuple(o))
                      for p, o in zip(self.psi.tolist(), self.omega.tolist())]
            self._rows = (params, list(self.beams))
        return self._rows


# the per-row array fields of _UserTable
_COLUMNS = ("psi", "omega", "signal", "zsq", "beams")


@dataclass(eq=False)
class _Block:
    """Sweep rows: row r takes row idx[i][r] of tables[i] and has rates[r] (internal)."""

    tables: list
    idx: list
    rates: np.ndarray

    def __len__(self):
        return len(self.rates)

    def __getitem__(self, rows):
        return _Block(self.tables, [ix[rows] for ix in self.idx], self.rates[rows])


def _cat(blocks):
    """The rows of blocks as one block (None if none), on their shared tables
    or else on new tables gathered from theirs."""
    if len(blocks) <= 1:
        return blocks[0] if blocks else None
    rates = np.concatenate([b.rates for b in blocks])
    first = blocks[0].tables
    if all(b.tables is first for b in blocks):
        return _Block(first, [np.concatenate(ix) for ix in zip(*(b.idx for b in blocks))], rates)

    def gather(i, name):
        return np.concatenate([getattr(b.tables[i], name)[b.idx[i]] for b in blocks])
    tables = [_UserTable(t.targets, *(gather(i, c) for c in _COLUMNS)) for i, t in enumerate(first)]
    return _Block(tables, [np.arange(len(rates))] * len(tables), rates)


def _grid_table(frame: ReducedFrame, targets, power: float, psi_axes,
                omega_axes=None) -> _UserTable:
    angles, _, signal, zsq, beams = rank_one_table(frame, power, psi_axes, omega_axes)
    k = frame.mbar
    omega = angles[:, k:] if omega_axes is not None else np.zeros_like(angles)
    return _UserTable(targets, angles[:, :k], omega, signal, zsq, beams)


def _cross_rates(net: MisoNetwork, tables, idx, nats: bool) -> np.ndarray:
    """(n, m) rates of the rows whose user i takes row idx[i][r] of its table."""
    sig = np.stack([t.signal[ix] for t, ix in zip(tables, idx)], axis=0)
    itf = np.zeros_like(sig)
    for t, ix in zip(tables, idx):
        zj = t.zsq[ix]
        for c, rx in enumerate(t.targets):
            itf[rx] += zj[:, c]
    return np.ascontiguousarray(rate_from_sinr(sig / (1.0 + itf), net.prefactor, nats).T)


def _samples(blocks):
    """Stream the RegionSamples of a block stream, one per row."""
    for b in blocks:
        m = len(b.tables)
        inter = np.zeros((len(b), m, m))
        for j, (t, ix) in enumerate(zip(b.tables, b.idx)):
            inter[:, j, j] = t.signal[ix]
            inter[:, j, t.targets] = t.zsq[ix]
        rows = [t.rows() for t in b.tables]
        picks = [ix.tolist() for ix in b.idx]
        params = zip(*[[r[0][k] for k in ks] for r, ks in zip(rows, picks)])
        beams = zip(*[[r[1][k] for k in ks] for r, ks in zip(rows, picks)])
        for p, r, bm, it in zip(params, b.rates.tolist(), beams, inter):
            yield RegionSample(params=p, rates=tuple(r), beamformers=bm, interference=it.copy())


def _cross_blocks(net: MisoNetwork, tables, nats: bool, chunk: int = 8192):
    """Stream blocks over the cross product of per-user tables."""
    sizes = [len(t.signal) for t in tables]
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        yield _Block(tables, idx, _cross_rates(net, tables, idx, nats))


def _pruned_tables(tables) -> list:
    """Each table without the rows that another row of it beats: at least its
    signal, at most each of its leaks, and strictly better in one.

    A user's own rate rises with its signal and the other users' rates fall
    with its leaks, monotonically even in floating point (_cross_rates sums
    the leaks in a fixed order, then divides and takes log1p), so putting a
    beating row in place of a beaten one lowers no rate.  Hence the cross
    product of the pruned tables reaches every Pareto-maximal rate point of
    the full one, and its own maximal rows are maximal in the full one; the
    rows lost are those whose rates tie a kept row bit for bit.
    """
    out = []
    for t in tables:
        keep = pareto_filter(np.column_stack([t.signal, -t.zsq]))
        out.append(_UserTable(t.targets, *(getattr(t, c)[keep] for c in _COLUMNS)))
    return out


def _random_blocks(net: MisoNetwork, seed: int, count: int, nats: bool, chunk: int = 8192):
    """Stream blocks whose angles are drawn i.i.d. uniform, user by user."""
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
            tables.append(_UserTable(order, psis, omegas, signal, zsq, beams))
        idx = [np.arange(n)] * net.m
        yield _Block(tables, idx, _cross_rates(net, tables, idx, nats))
        done += n


def _grid_tables(net: MisoNetwork, grid: int = 24, axes=None) -> list:
    """Per-user tables whose cross product is m_user_region's grid sweep
    (same arguments); one all-zero row each when every power is zero."""
    if all(p == 0.0 for p in net.powers):
        # every beam is zero, so the whole region is the origin
        return _zf_tables(net)
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
    return tables


def _region_blocks(net: MisoNetwork, grid: int = 24, sampler: str = "grid",
                   seed: int = 0, count: int = 1_000_000, axes=None,
                   nats: bool = False):
    """Stream the blocks of m_user_region (same arguments, same row order)."""
    if sampler not in ("grid", "random"):
        raise ValueError(f"unknown sampler '{sampler}'")
    if sampler == "random" and any(p != 0.0 for p in net.powers):
        return _random_blocks(net, seed, count, nats)
    return _cross_blocks(net, _grid_tables(net, grid, axes), nats)


def m_user_region(net: MisoNetwork, grid: int = 24, sampler: str = "grid",
                  seed: int = 0, count: int = 1_000_000, axes=None,
                  nats: bool = False):
    """Stream achievable rate samples over per-user spherical sweeps.

    sampler 'grid' sweeps each user's angles over uniform closed grids (or
    explicit per-user ``axes``, a list with one list of axis arrays per
    user); sampler 'random' draws ``count`` i.i.d. uniform tuples from a
    seeded generator.  Samples arrive in deterministic order either way.
    """
    yield from _samples(_region_blocks(net, grid, sampler, seed, count, axes, nats))


def three_user_region(net: MisoNetwork, grid: int = 24, sampler: str = "grid",
                      seed: int = 0, count: int = 1_000_000, axes=None,
                      nats: bool = False):
    """Three-user specialization of m_user_region (same sweep, same order)."""
    if net.m != 3:
        raise ValueError("three_user_region needs a 3-user network")
    yield from m_user_region(net, grid=grid, sampler=sampler, seed=seed,
                             count=count, axes=axes, nats=nats)


def _zf_tables(net: MisoNetwork) -> list:
    tables = []
    for i in range(net.m):
        frame, order = _user_frame(net, i)
        tables.append(_grid_table(frame, order, net.powers[i], [np.zeros(1)] * frame.mbar))
    return tables


def zf_point(net: MisoNetwork, nats: bool = False) -> RegionSample:
    """The all-angles-zero sample: zero interference everywhere.

    Each transmitter pours its budget into the component of its own channel
    orthogonal to all cross channels.  A transmitter with no such component
    (reduced residual empty) simply gets rate zero.
    """
    return next(_samples(_cross_blocks(net, _zf_tables(net), nats)))


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
    yield from _samples(_cross_blocks(net, tables, nats))


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
    ge = np.ones((len(by), len(cand)), dtype=bool)
    gt = np.zeros((len(by), len(cand)), dtype=bool)
    for k in range(cand.shape[1]):
        a, b = by[:, k, None], cand[None, :, k]
        ge &= a >= b
        gt |= a > b
    return ge & gt


def _undominated(cand: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Mask of the rows of cand that no row of by dominates, comparing slices
    of by that hold at most _PARETO_CELLS booleans."""
    live = np.ones(len(cand), dtype=bool)
    step = max(1, _PARETO_CELLS // max(cand.size, 1))
    for lo in range(0, len(by), step):
        if not np.any(live):
            break
        live[live] = ~np.any(_dominated(cand[live], by[lo:lo + step]), axis=0)
    return live


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows that no other row dominates (original order).

    Rows are visited in descending lexicographic order, where every row comes
    after the rows that dominate it, and a row is dropped when a row kept
    before it dominates it.  Since domination is transitive, that is the same
    as being dominated by any row: so each block of candidates is checked
    against the rows kept from earlier blocks, and the survivors against the
    earlier survivors of their own block, all at once.  Equal rows are all
    kept.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    order = np.lexsort(-pts.T[::-1]) if pts.shape[1] else np.arange(n)
    keep = np.zeros(n, dtype=bool)
    kept = pts[:0]
    for start in range(0, n, _PARETO_BLOCK):
        idx = order[start:start + _PARETO_BLOCK]
        cand = pts[idx]
        live = _undominated(cand, kept)
        rest = cand[live]
        live[live] = ~np.any(np.triu(_dominated(rest, rest), k=1), axis=0)
        keep[idx[live]] = True
        kept = np.concatenate([kept, cand[live]])
    return keep


def _pareto_archive(pieces, cat):
    """Pareto-maximal rows (None if none) of a stream of (points, rows) pieces,
    in stream order; cat([kept, rows]) joins two.  Each piece is filtered on
    its own, and its survivors that the kept rows do not dominate join them
    and drop the kept rows they dominate: by transitivity, no other row of
    the piece can dominate a kept row."""
    arch_pts = arch = None
    for pts, rows in pieces:
        mask = pareto_filter(pts)
        pts, rows = pts[mask], rows[mask]
        if arch is not None:
            live = _undominated(pts, arch_pts)
            old = _undominated(arch_pts, pts[live])
            pts, rows = np.vstack([arch_pts[old], pts[live]]), cat([arch[old], rows[live]])
        arch_pts, arch = pts, rows
    return arch


def pareto_prune_samples(samples, chunk: int = 4096) -> list:
    """Pareto-maximal RegionSamples of a stream, pruning incrementally."""
    def pieces():
        it = iter(samples)
        while buf := [s for _, s in zip(range(chunk), it)]:
            yield _as_points(buf), np.fromiter(buf, dtype=object, count=len(buf))

    kept = _pareto_archive(pieces(), np.concatenate)
    return [] if kept is None else list(kept)


def _pareto_blocks(blocks, chunk: int = 4096):
    """Pareto-maximal rows of a block stream as one block (None if empty): like
    pareto_prune_samples, it keeps the rows no row of the stream dominates, in
    stream order, so block sizes and chunk cuts do not change the result."""
    pieces = (b[s:s + chunk] for b in blocks for s in range(0, len(b), chunk))
    return _pareto_archive(((p.rates, p) for p in pieces), _cat)


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

    mode 'pareto' keeps the distinct componentwise-maximal points, sorted.
    mode 'hull' returns the extreme points of the convex hull of the points
    together with all their coordinate projections down to the origin, so the
    hull describes time-sharing including silent users; in three or more
    dimensions the hull is replaced by Pareto filtering of that union.
    """
    pts = _as_points(samples)
    if mode == "pareto":
        return [tuple(p) for p in np.unique(pts[pareto_filter(pts)], axis=0)]
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
