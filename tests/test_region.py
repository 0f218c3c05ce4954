"""Region assembly: sweeps, special points, Pareto filtering, convex hull."""

from types import SimpleNamespace

import numpy as np
import pytest

from miso_sud import region
from miso_sud.cli import bundled_config, load_network
from miso_sud.mreduce import SphericalParams
from miso_sud.region import (
    MisoNetwork,
    channel_angle,
    m_user_region,
    pareto_filter,
    pareto_hull,
    pareto_prune_samples,
    rate_from_sinr,
    single_user_max_surface,
    three_user_region,
    zf_point,
)
from miso_sud.twouser import (
    TwoUserChannel,
    _engine_tables,
    cross_angles,
    max_signal_given_interference,
    two_user_region,
)
from tests.conftest import (
    H1,
    ZF_TRIPLE,
    build_symmetric_pair,
    build_three_user,
    random_pair_channel,
    random_vector,
)

LOG2_55 = np.log2(5.5)


def recompute_rates(net, sample, nats=False):
    rates = []
    for i in range(net.m):
        sig = abs(np.vdot(net.h(i, i), sample.beamformers[i])) ** 2
        noise = 1.0 + sum(
            abs(np.vdot(net.h(j, i), sample.beamformers[j])) ** 2
            for j in range(net.m) if j != i)
        rates.append(rate_from_sinr(sig / noise, net.prefactor, nats))
    return rates


class TestNetwork:
    def test_layout_accessor(self, three_user_net):
        assert three_user_net.m == 3
        assert np.array_equal(three_user_net.h(0, 2), H1[:, 2])
        assert three_user_net.prefactor == 0.5

    def test_real_field_rejects_complex_entries(self):
        with pytest.raises(ValueError):
            MisoNetwork(channels=(np.eye(2) * (1 + 1j), np.eye(2)),
                        powers=(1.0, 1.0), field="real")

    def test_column_count_must_match_users(self):
        with pytest.raises(ValueError):
            MisoNetwork(channels=(np.ones((2, 3)), np.ones((2, 2))),
                        powers=(1.0, 1.0))

    def test_at_least_two_users(self):
        with pytest.raises(ValueError):
            MisoNetwork(channels=(np.ones((2, 1)),), powers=(1.0,))


class TestHelpers:
    def test_channel_angle_signed(self):
        assert channel_angle([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(np.pi)
        assert channel_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)
        assert channel_angle([1.0, 0.0], [0.0, 0.0]) == pytest.approx(np.pi / 2)

    def test_rate_from_sinr(self):
        assert rate_from_sinr(3.0) == pytest.approx(2.0)
        assert rate_from_sinr(3.0, 0.5) == pytest.approx(1.0)
        assert rate_from_sinr(np.e - 1.0, 1.0, nats=True) == pytest.approx(1.0)


class TestZfPoint:
    def test_symmetric_pair_corner(self, symmetric_pair):
        s = zf_point(symmetric_pair)
        assert s.rates[0] == pytest.approx(LOG2_55, abs=1e-10)
        assert s.rates[1] == pytest.approx(LOG2_55, abs=1e-10)
        assert s.interference[0, 1] <= 1e-10
        assert s.interference[1, 0] <= 1e-10

    def test_three_user_reference_triple(self):
        net = build_three_user(field="complex")
        s = zf_point(net, nats=True)
        for got, want in zip(s.rates, ZF_TRIPLE):
            assert got == pytest.approx(want, abs=1e-3)

    def test_orthogonal_cross_gives_single_user_maxima(self):
        ch = build_symmetric_pair(theta=np.pi / 2)
        s = zf_point(ch)
        assert s.rates[0] == pytest.approx(np.log2(7.0), abs=1e-10)
        assert s.rates[1] == pytest.approx(np.log2(7.0), abs=1e-10)

    @pytest.mark.parametrize("case", ["zero", "collinear", "t1", "t1_zero", "complex"])
    def test_matches_projection_off_cross_span(self, case):
        # each zero-forcing rate is that of the own channel projected off the
        # span of its cross channels, also when a cross channel adds no
        # direction of its own
        rng = np.random.default_rng(32)
        m, t, cplx = {"zero": (2, 2, False), "collinear": (3, 3, False),
                      "t1": (2, 1, False), "t1_zero": (2, 1, False),
                      "complex": (3, 3, True)}[case]
        chans = [random_vector(rng, t * m, cplx).reshape(t, m) for _ in range(m)]
        if case in ("zero", "t1_zero"):
            chans[0][:, 1] = 0.0
        elif m == 3:
            # user 0's cross channels into receivers 1 and 2 are collinear
            chans[0][:, 2] = -2.5 * chans[0][:, 1]
        net = MisoNetwork(channels=tuple(chans), powers=(1.5,) * m,
                          field="complex" if cplx else "real")
        s = zf_point(net)
        for i in range(m):
            own = net.h(i, i)
            cross = np.stack([net.h(i, j) for j in range(m) if j != i], axis=1)
            u, sv, _ = np.linalg.svd(cross, full_matrices=False)
            span = u[:, sv > 1e-9 * sv.max()] if sv.max() > 0.0 else u[:, :0]
            resid = own - span @ (span.conj().T @ own)
            want = rate_from_sinr(net.powers[i] * np.linalg.norm(resid) ** 2, net.prefactor)
            assert s.rates[i] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert np.all(np.abs(np.delete(s.interference[i], i)) <= 1e-12)

    def test_no_zero_forcing_direction_gives_zero_rate(self):
        net = MisoNetwork(channels=(np.array([[1.0, 1.0]]), np.array([[0.5, 2.0]])),
                          powers=(1.0, 1.0), field="real")
        s = zf_point(net)
        assert s.rates == (0.0, 0.0)


class TestThreeUserRegion:
    def test_wrong_user_count(self, symmetric_pair):
        with pytest.raises(ValueError):
            list(three_user_region(symmetric_pair, grid=2))

    def test_grid_count_and_zero_corner(self, three_user_net):
        samples = list(three_user_region(three_user_net, grid=3))
        assert len(samples) == 3 ** 6
        zero = samples[0]
        assert all(p == (0.0, 0.0) for p in (s.psi for s in zero.params))
        ref = zf_point(three_user_net)
        assert zero.rates == ref.rates

    def test_matches_general_sweep(self, three_user_net):
        a = list(three_user_region(three_user_net, grid=2))
        b = list(m_user_region(three_user_net, grid=2))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.rates == y.rates
            assert all(px.psi == py.psi for px, py in zip(x.params, y.params))

    def test_random_sampler_deterministic(self, three_user_net):
        a = list(three_user_region(three_user_net, sampler="random", seed=7, count=50))
        b = list(three_user_region(three_user_net, sampler="random", seed=7, count=50))
        assert len(a) == 50
        for x, y in zip(a, b):
            assert x.rates == y.rates
        c = list(three_user_region(three_user_net, sampler="random", seed=8, count=50))
        assert any(x.rates != y.rates for x, y in zip(a, c))

    def test_rates_recompute_and_budgets(self, three_user_net):
        for s in three_user_region(three_user_net, sampler="random", seed=1, count=200):
            got = recompute_rates(three_user_net, s)
            for a, b in zip(s.rates, got):
                assert a == pytest.approx(b, abs=1e-10)
            for i in range(3):
                assert np.linalg.norm(s.beamformers[i]) ** 2 <= \
                    three_user_net.powers[i] + 1e-9

    def test_zero_forcing_triple_is_dominated(self, three_user_net):
        ref = zf_point(three_user_net).rates
        # interference grows quadratically in the angles while signal grows
        # linearly, so a strictly dominating point hides near zero
        vals = np.array([0.0, 0.05, 0.1, 0.15])
        axes = [[vals, vals]] * 3
        dominated = False
        for s in three_user_region(three_user_net, axes=axes):
            if all(r >= z + 1e-2 for r, z in zip(s.rates, ref)):
                dominated = True
                break
        assert dominated


class TestMUserRegion:
    def test_two_user_equivalence_on_matched_axes(self):
        # every sample, in sweep order, against max_signal_given_interference
        # at that sample's psi; a vanished cross channel leaks nothing
        rng = np.random.default_rng(30)
        chans = [random_pair_channel(rng, cplx=c) for c in (False, True) for _ in range(5)]
        zero = random_pair_channel(rng, dim=3, cplx=False)
        chans.append(TwoUserChannel(h1=zero.h(0, 0), h2=zero.h(1, 0), h3=np.zeros(3),
                                    h4=zero.h(1, 1), p1=zero.powers[0], p2=zero.powers[1],
                                    field=zero.field))
        grids = (9, 7)
        for ch in chans:
            theta1, theta2 = cross_angles(ch)
            users = ((ch.h(0, 0), ch.h(0, 1), ch.powers[0], theta1),
                     (ch.h(1, 1), ch.h(1, 0), ch.powers[1], theta2))
            samples = two_user_region(ch, *grids)
            keys = [tuple(p.psi for p in s.params) for s in samples]
            assert keys == sorted(keys)
            for i, ((_, cross, _, theta), grid) in enumerate(zip(users, grids)):
                if np.linalg.norm(cross) > 0.0:
                    seen = sorted({s.params[i].psi[0] for s in samples})
                    assert seen == list(np.linspace(0.0, np.pi / 2 - theta, grid))
            for s in samples:
                sig, leak = [], []
                for (own, cross, p, _), params in zip(users, s.params):
                    psi = params.psi[0] if params.psi else 0.0
                    z = np.sqrt(p) * np.linalg.norm(cross) * np.sin(psi)
                    sig.append(max_signal_given_interference(own, cross, p, z)[1])
                    leak.append(z * z)
                want = (rate_from_sinr(sig[0] / (1.0 + leak[1]), ch.prefactor),
                        rate_from_sinr(sig[1] / (1.0 + leak[0]), ch.prefactor))
                for got, w in zip(s.rates, want):
                    assert got == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_all_powers_zero(self):
        net = MisoNetwork(channels=(np.eye(2), np.eye(2)), powers=(0.0, 0.0),
                          field="real")
        samples = list(m_user_region(net, grid=4))
        assert len(samples) == 1
        assert samples[0].rates == (0.0, 0.0)

    def test_complex_field_sweeps_phases(self):
        rng = np.random.default_rng(31)
        chans = tuple(random_vector(rng, 6, True).reshape(2, 3) for _ in range(3))
        net = MisoNetwork(channels=chans, powers=(1.0, 1.0, 1.0), field="complex")
        grid = 3
        samples = list(m_user_region(net, grid=grid))
        # each user: mbar=2 angles plus one free phase (first phase pinned)
        assert len(samples) == (grid ** 3) ** 3
        omegas = {s.params[0].omega for s in samples}
        assert len(omegas) == grid

    def test_invalid_sampler(self, three_user_net):
        with pytest.raises(ValueError):
            list(m_user_region(three_user_net, sampler="sobol"))


class TestSingleUserSurface:
    def test_pinned_user_rate_constant(self, three_user_net):
        own = np.linalg.norm(H1[:, 0])
        target = 0.5 * np.log2(1.0 + 1.0 * own ** 2)
        seen = 0
        for s in single_user_max_surface(three_user_net, 0, grid=5):
            assert s.rates[0] == pytest.approx(target, abs=1e-9)
            seen += 1
        assert seen == 25

    def test_two_by_two(self, three_user_net):
        samples = list(single_user_max_surface(three_user_net, 1, grid=2))
        assert len(samples) == 4
        rates = {round(s.rates[1], 12) for s in samples}
        assert len(rates) == 1

    def test_validation(self, three_user_net, symmetric_pair):
        with pytest.raises(ValueError):
            list(single_user_max_surface(symmetric_pair, 0))
        with pytest.raises(ValueError):
            list(single_user_max_surface(three_user_net, 5))


class TestParetoHull:
    def test_pareto_mask(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4], [0.3, 0.3]])
        mask = pareto_filter(pts)
        assert mask.tolist() == [True, True, True, False]

    def test_pareto_mode(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        out = {tuple(p) for p in pareto_hull(pts, mode="pareto")}
        assert out == {(1.0, 0.0), (0.0, 1.0), (0.4, 0.4)}

    def test_hull_extremes_drop_interior(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        out = {tuple(np.round(p, 12)) for p in pareto_hull(pts, mode="hull")}
        assert out == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_collinear_keeps_endpoints(self):
        pts = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        out = {tuple(np.round(p, 12)) for p in pareto_hull(pts, mode="hull")}
        assert out == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_prune_samples_matches_filter(self, symmetric_pair):
        samples = two_user_region(symmetric_pair, 7, 7)
        pts = np.array([s.rates for s in samples])
        kept = pareto_prune_samples(samples)
        want = {tuple(p) for p in pts[pareto_filter(pts)]}
        got = {s.rates for s in kept}
        assert got == want

    def test_large_cross_gain_hull_collapses_to_tetragon(self):
        corner = np.array([np.log2(5.5), np.log2(5.5)])
        gaps = []
        for sigma in (2.0, 5.0, 25.0):
            ch = build_symmetric_pair(cross_norm=sigma)
            verts = np.array(pareto_hull(two_user_region(ch, 121, 121), mode="hull"))
            for point in ([np.log2(7.0), 0.0], [0.0, np.log2(7.0)]):
                assert np.min(np.max(np.abs(verts - np.array(point)), axis=1)) <= 1e-9
            gaps.append(float(np.min(np.max(np.abs(verts - corner), axis=1))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-9

    def test_three_dimensional_hull_mode(self, three_user_net):
        samples = list(three_user_region(three_user_net, grid=3))
        out = np.array(pareto_hull(samples, mode="hull"))
        assert out.shape[1] == 3
        pts = np.array([s.rates for s in samples])
        best = pts.max(axis=0)
        assert np.all(out.max(axis=0) >= best - 1e-12)


def _reference_pareto_filter(points):
    """Brute force: keep a row iff no row of the input dominates it (a NaN
    coordinate compares false, so a NaN row neither dominates nor is dominated)."""
    pts = np.asarray(points, dtype=float)
    keep = np.ones(len(pts), dtype=bool)
    for s in range(0, len(pts), 256):
        rows = pts[s:s + 256]
        ge = np.ones((len(rows), len(pts)), dtype=bool)
        gt = np.zeros((len(rows), len(pts)), dtype=bool)
        for k in range(pts.shape[1]):
            ge &= pts[:, k] >= rows[:, k, None]
            gt |= pts[:, k] > rows[:, k, None]
        keep[s:s + 256] = ~np.any(ge & gt, axis=1)
    return keep


def _tie_heavy_points(n, d, seed):
    """Points on the unit simplex, so that sums tie: a coarse grid (some rows
    pulled inside), continuous rows (a large front), exact duplicates,
    +-1-ulp twins and, for n > 4, a NaN row."""
    rng = np.random.default_rng(seed)
    coarse = rng.multinomial(8, np.full(d, 1.0 / d), size=n) / 8.0
    coarse *= np.where(rng.uniform(size=(n, 1)) < 0.8, 1.0, 0.75)
    pts = np.where(rng.uniform(size=(n, 1)) < 0.5, coarse, rng.dirichlet(np.ones(d), size=n))
    for _ in range(n // 5):
        i, j = rng.integers(0, n, size=2)
        pts[j] = pts[i]
        if rng.uniform() < 0.7:
            k = rng.integers(0, d)
            pts[j, k] = np.nextafter(pts[i, k], np.inf if rng.uniform() < 0.5 else -np.inf)
    if n > 4:
        pts[rng.integers(0, n), rng.integers(0, d)] = np.nan
    return pts


class TestParetoFilterEquivalence:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 257, 700, 3001])
    def test_matches_reference_loop(self, n, d):
        pts = _tie_heavy_points(n, d, seed=1000 * d + n)
        assert np.array_equal(pareto_filter(pts), _reference_pareto_filter(pts))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_reference_in_small_comparison_steps(self, d, monkeypatch):
        # kept rows checked a few at a time, as on a front of many thousands
        monkeypatch.setattr(region, "_PARETO_CELLS", 2000)
        pts = _tie_heavy_points(1500, d, seed=7 + d)
        assert np.array_equal(pareto_filter(pts), _reference_pareto_filter(pts))

    def test_empty_and_dimensionless_inputs(self):
        assert pareto_filter(np.zeros((0, 3))).tolist() == []
        assert pareto_filter(np.zeros((4, 0))).tolist() == [True] * 4

    def test_sweep_front_matches_reference(self, three_user_net):
        pts = np.array([s.rates for s in three_user_region(three_user_net, grid=5)])
        assert np.array_equal(pareto_filter(pts), _reference_pareto_filter(pts))

    @pytest.mark.parametrize("chunk", [97, 1000, 5000])
    def test_prune_samples_archive_merge(self, three_user_net, chunk, monkeypatch):
        # chunk < n merges each chunk into the kept archive
        samples = list(three_user_region(three_user_net, grid=4))
        got = pareto_prune_samples(iter(samples), chunk=chunk)
        monkeypatch.setattr(region, "pareto_filter", _reference_pareto_filter)
        monkeypatch.setattr(
            region, "_as_points",
            lambda ss: np.vstack([np.asarray(s.rates, dtype=float) for s in ss]))
        want = pareto_prune_samples(iter(samples), chunk=chunk)
        assert [id(s) for s in got] == [id(s) for s in want]

    @pytest.mark.parametrize("sizes", [(97, 1000, 3), (300,), (5000, 64)])
    def test_block_pruning_does_not_depend_on_block_sizes(self, sizes):
        # tie-heavy rows cut into blocks of other sizes than the samples'
        # chunks keep the rows pareto_prune_samples keeps, in its order
        pts = _tie_heavy_points(6000, 3, 11)
        whole = region._Block([None], [np.arange(len(pts))], pts)
        cuts = np.cumsum(np.resize(sizes, len(pts)))
        cuts = [0, *cuts[cuts < len(pts)].tolist(), len(pts)]
        kept = region._pareto_blocks((whole[a:b] for a, b in zip(cuts, cuts[1:])), chunk=300)
        rows = [SimpleNamespace(rates=tuple(p), row=k) for k, p in enumerate(pts)]
        want = pareto_prune_samples(rows, chunk=300)
        assert kept.idx[0].tolist() == [s.row for s in want]

    def test_random_blocks_prune_like_their_samples(self, three_user_net):
        # random blocks each carry their own tables, which pruning gathers
        def blocks():
            return region._random_blocks(three_user_net, 3, 2000, False, chunk=700)

        kept = region._pareto_blocks(blocks(), chunk=300)
        want = pareto_prune_samples(region._samples(blocks()), chunk=300)
        got = list(region._samples([kept]))
        assert [(s.params, s.rates) for s in got] == [(s.params, s.rates) for s in want]

    def test_prune_tie_heavy_points_archive_merge(self, monkeypatch):
        samples = [SimpleNamespace(rates=tuple(p)) for p in _tie_heavy_points(2000, 3, 5)]
        got = pareto_prune_samples(samples, chunk=300)
        monkeypatch.setattr(region, "pareto_filter", _reference_pareto_filter)
        want = pareto_prune_samples(samples, chunk=300)
        assert [id(s) for s in got] == [id(s) for s in want]


def _whole_archive_filter(pieces):
    """Archive merge by filtering the whole kept archive again together with
    each new piece, the slow reference for region._pareto_archive."""
    arch_pts = arch = None
    for pts, rows in pieces:
        if arch is not None:
            pts, rows = np.vstack([arch_pts, pts]), np.concatenate([arch, rows])
        mask = pareto_filter(pts)
        arch_pts, arch = pts[mask], rows[mask]
    return arch


@pytest.mark.parametrize("cells", [None, 2000])
@pytest.mark.parametrize("chunk", [150, 700])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_archive_merge_matches_whole_archive_filter(d, chunk, cells, monkeypatch):
    # tie-heavy streams of 5 to 20 chunks: the same rows kept, in the same order
    if cells:
        monkeypatch.setattr(region, "_PARETO_CELLS", cells)
    pts = _tie_heavy_points(3000, d, seed=70 + d)
    pieces = [(pts[s:s + chunk], np.arange(s, min(s + chunk, len(pts))))
              for s in range(0, len(pts), chunk)]
    got = region._pareto_archive(iter(pieces), np.concatenate)
    assert got.tolist() == _whole_archive_filter(pieces).tolist()


def test_pareto_filter_drops_row_dominated_within_a_rounded_sum_tie():
    assert pareto_filter(np.array([[1.0, 1e-17], [1.0, 2e-17]])).tolist() == [False, True]


@pytest.mark.parametrize("d", [2, 3])
def test_pareto_filter_does_not_depend_on_row_order(d):
    pts = _tie_heavy_points(1200, d, seed=40 + d)
    perm = np.random.default_rng(d).permutation(len(pts))
    assert np.array_equal(pareto_filter(pts[perm]), pareto_filter(pts)[perm])


def _front_rows(net, tables):
    """The exact front of the cross product of tables: its (angles, rates)
    rows and the bytes of its rate vectors."""
    front = region._pareto_blocks(region._cross_blocks(net, tables, False))
    cols = [t.psi[ix] for t, ix in zip(front.tables, front.idx)]
    cols += [t.omega[ix] for t, ix in zip(front.tables, front.idx)]
    rows = {tuple(r) for r in np.hstack(cols + [front.rates]).tolist()}
    return rows, {r.tobytes() for r in front.rates}


def _check_pruned_front(net, tables):
    # what --pareto writes against the exact front of the full sweep: the
    # same distinct rate points bit for bit (so every full front row's rates
    # appear), on rows that the full front holds too
    full, full_points = _front_rows(net, tables)
    pruned, pruned_points = _front_rows(net, region._pruned_tables(tables))
    assert pruned_points == full_points
    assert pruned <= full
    return pruned, full


def _drawn_network(seed, field="complex"):
    """A 3-user network drawn as perfbench's workloads draw one: 2-5 antennas
    per transmitter, Gaussian channels, powers uniform in [1, 10]."""
    rng = np.random.default_rng(seed)
    chans = []
    for t in rng.integers(2, 6, size=3):
        h = rng.standard_normal((int(t), 3))
        if field == "complex":
            h = (h + 1j * rng.standard_normal((int(t), 3))) / np.sqrt(2.0)
        chans.append(h)
    return MisoNetwork(channels=tuple(chans), powers=tuple(rng.uniform(1.0, 10.0, size=3)),
                       field=field)


class TestPrunedTablesKeepTheFront:
    @pytest.mark.parametrize("field,grid", [("real", 6), ("real", 10), ("complex", 3)])
    def test_paper_sec4(self, field, grid):
        net = load_network(dict(bundled_config("paper_sec4"), field=field))
        _check_pruned_front(net, region._grid_tables(net, grid))

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("caps", [None, (0.25, 0.4)])
    def test_two_user_figures(self, name, caps):
        # region2 sweeps without caps, ilregion with them
        net = load_network(bundled_config(name))
        _check_pruned_front(net, _engine_tables(net, caps, 10, 10))

    @pytest.mark.parametrize("seed", range(4))
    def test_drawn_networks(self, seed):
        net = _drawn_network(seed)
        _check_pruned_front(net, region._grid_tables(net, 3))

    @pytest.mark.parametrize("user", [0, 1, 2])
    def test_zero_direct_channel_or_power(self, user):
        # a receiver with no signal gains no rate from a smaller leak, so rows
        # that differ only in their leak to it tie, and pruning drops some of them
        net = _drawn_network(7, field="real")
        chans = [np.array(h) for h in net.channels]
        chans[user][:, user] = 0.0
        powers = list(net.powers)
        powers[user] = 0.0
        for case in (MisoNetwork(tuple(chans), net.powers, "real"),
                     MisoNetwork(net.channels, tuple(powers), "real")):
            pruned, full = _check_pruned_front(case, region._grid_tables(case, 6))
            assert pruned < full
