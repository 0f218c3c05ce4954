"""End-to-end tests for the command-line front end."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miso_sud
import miso_sud.cli as cli
import miso_sud.region as region
from miso_sud.cli import bundled_config, load_network, main, network_config
from miso_sud.mreduce import SphericalParams
from miso_sud.numlin import NumericalError
from miso_sud.region import (
    MisoNetwork,
    RegionSample,
    m_user_region,
    pareto_prune_samples,
    three_user_region,
)
from miso_sud.twouser import (
    TwoUserChannel,
    _engine_tables,
    cross_angles,
    interference_limited_region,
    scalar_sud_sum_rate,
    two_user_region,
)
from tests.conftest import (
    build_symmetric_pair,
    build_three_user,
    random_pair_channel,
    random_vector,
)


def cfg_path(tmp_path, name, **extra):
    doc = bundled_config(name)
    doc.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestConfigHandling:
    def test_bundled_configs_load(self):
        for name in ("fig3", "fig4", "fig5", "paper_sec4"):
            doc = bundled_config(name)
            net = load_network(doc)
            assert net.m == len(doc["channels"])
        prob_doc = bundled_config("example1")
        assert set(prob_doc) == {"target", "caps", "p"}

    def test_network_layout(self):
        net = load_network(bundled_config("fig3"))
        assert net.m == 2 and net.field == "complex"
        assert net.channels[0].shape == (2, 2)
        assert np.allclose(net.h(0, 0), [1.0, 0.0])
        assert np.allclose(net.h(1, 0), [0.2886751345948129, 0.5])

    def test_config_round_trip(self):
        doc = network_config(load_network(bundled_config("paper_sec4")))
        again = network_config(load_network(doc))
        assert doc == again

    def test_complex_entries_round_trip(self):
        doc = {
            "channels": [
                [[[1.0, 0.5], [0.0, -0.25]], [[0.2, 0.0], [0.3, 0.1]]],
                [[[0.1, 0.2], [1.0, 0.0]], [[0.9, -0.3], [0.0, 0.0]]],
            ],
            "powers": [1.0, 2.0],
            "field": "complex",
        }
        net = load_network(doc)
        assert np.iscomplexobj(net.h(0, 0))
        assert network_config(net) == network_config(load_network(network_config(net)))

    def test_real_field_rejects_pairs(self):
        doc = {
            "channels": [[[[1.0, 0.5]]], [[[0.0, 1.0]]]],
            "powers": [1.0, 1.0],
            "field": "real",
        }
        with pytest.raises(cli.ConfigError):
            load_network(doc)

    def test_dump_config_flag(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        dump = tmp_path / "dump.json"
        rc = main(["region2", "--config", src, "--grid", "3",
                   "--out", str(tmp_path / "r.csv"), "--dump-config", str(dump)])
        assert rc == 0
        assert json.loads(dump.read_text()) == network_config(load_network(bundled_config("fig3")))


class TestRegionCommands:
    def test_region2_csv(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        out = tmp_path / "region.csv"
        rc = main(["region2", "--config", src, "--grid", "9", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["psi1", "psi2", "R1", "R2",
                          "gamma1_1", "gamma1_2", "gamma2_1", "gamma2_2"]
        assert len(rows) == 81
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)
        for r in rows[:5]:
            assert r[4] ** 2 + r[5] ** 2 <= 6.0 + 1e-9

    def test_region2_psi_columns_are_per_user_angles(self, tmp_path):
        # h3 = 0 leaves user 1 no angle, so the one psi column is user 2's
        doc = {"field": "real", "powers": [5, 5],
               "channels": [[[1.0, 0.2], [0.0, 0.0]], [[0.3, 0.4], [0.2, 1.0]]]}
        src = tmp_path / "h3_zero.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "region.csv"
        assert main(["region2", "--config", str(src), "--grid", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["psi1", "R1", "R2",
                          "gamma1_1", "gamma1_2", "gamma2_1", "gamma2_2"]
        theta2 = cross_angles(load_network(doc))[1]
        assert [r[0] for r in rows] == list(np.linspace(0.0, np.pi / 2 - theta2, 3))

    def test_region2_deterministic(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["region2", "--config", src, "--grid", "7", "--out", str(a)]) == 0
        assert main(["region2", "--config", src, "--grid", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_region2_split_grids_and_pareto(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        out = tmp_path / "r.csv"
        assert main(["region2", "--config", src, "--grid1", "9", "--grid2", "5",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 45
        assert main(["region2", "--config", src, "--grid1", "9", "--grid2", "5",
                     "--pareto", "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) < 45

    def test_region2_nats_ratio(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        bits, nats = tmp_path / "b.csv", tmp_path / "n.csv"
        assert main(["region2", "--config", src, "--grid", "5", "--out", str(bits)]) == 0
        assert main(["region2", "--config", src, "--grid", "5", "--nats",
                     "--out", str(nats)]) == 0
        _, rb = read_csv(bits)
        _, rn = read_csv(nats)
        for b, n in zip(rb, rn):
            assert n[2] == pytest.approx(b[2] * np.log(2.0), abs=1e-12)
            assert n[3] == pytest.approx(b[3] * np.log(2.0), abs=1e-12)

    def test_zf_point(self, tmp_path, capsys):
        src = cfg_path(tmp_path, "fig3")
        assert main(["zf", "--config", src]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "R1,R2"
        r1, r2 = (float(v) for v in lines[1].split(","))
        assert r1 == pytest.approx(np.log2(5.5), abs=1e-12)
        assert r2 == pytest.approx(np.log2(5.5), abs=1e-12)

    def test_zf_nats(self, tmp_path, capsys):
        src = cfg_path(tmp_path, "fig3")
        assert main(["zf", "--config", src, "--nats"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[1]
        assert float(line.split(",")[0]) == pytest.approx(np.log(5.5), abs=1e-12)

    def test_ilregion_config_caps(self, tmp_path):
        src = cfg_path(tmp_path, "fig5")
        out = tmp_path / "il.csv"
        rc = main(["ilregion", "--config", src, "--grid", "9", "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out)[1]) == 81

    def test_ilregion_zero_caps_collapse(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        out = tmp_path / "il.csv"
        rc = main(["ilregion", "--config", src, "--grid", "5", "--q1", "0",
                   "--q2", "0", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        zf = np.log2(5.5)
        for r in rows:
            assert r[2] == pytest.approx(zf, abs=1e-9)
            assert r[3] == pytest.approx(zf, abs=1e-9)

    def test_ilregion_needs_caps(self, tmp_path, capsys):
        src = cfg_path(tmp_path, "fig3")
        assert main(["ilregion", "--config", src, "--grid", "5"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "usage" in err

    def test_region3_header_and_count(self, tmp_path):
        src = cfg_path(tmp_path, "paper_sec4")
        out = tmp_path / "r3.csv"
        rc = main(["region3", "--config", src, "--grid", "3", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["psi1", "psi2", "psi3", "psi4", "psi5", "psi6",
                          "R1", "R2", "R3"]
        assert len(rows) == 729

    def test_region3_needs_three_users(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        assert main(["region3", "--config", src, "--grid", "3",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_region3_random_sampler(self, tmp_path):
        src = cfg_path(tmp_path, "paper_sec4")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["region3", "--config", src, "--sampler", "random", "--count", "40"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "1", "--out", str(b)]) == 0
        assert main(base + ["--seed", "2", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert len(read_csv(a)[1]) == 40

    def test_regionm_two_user(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        out = tmp_path / "rm.csv"
        rc = main(["regionm", "--config", src, "--grid", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["psi1", "psi2", "R1", "R2"]
        assert len(rows) == 25

    def test_hull_modes(self, tmp_path):
        src = cfg_path(tmp_path, "fig3")
        pareto, hull = tmp_path / "p.csv", tmp_path / "h.csv"
        assert main(["hull", "--config", src, "--grid", "7", "--out", str(pareto)]) == 0
        assert main(["hull", "--config", src, "--grid", "7", "--mode", "hull",
                     "--out", str(hull)]) == 0
        hp, rp = read_csv(pareto)
        hh, rh = read_csv(hull)
        assert hp == hh == ["R1", "R2"]
        # each distinct front point once; the hull's Pareto-maximal vertices
        # are front points, its other vertices their projections to the axes
        assert 0 < len({tuple(r) for r in rp}) == len(rp) <= 49
        upper = np.array(rh)[region.pareto_filter(np.array(rh))]
        front = np.round(np.array(rp), 12)
        assert len(upper) and all(np.any(np.all(front == v, axis=1)) for v in upper)

    def test_fdm_rows(self, tmp_path, capsys):
        src = cfg_path(tmp_path, "fig3")
        assert main(["fdm", "--config", src, "--grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "alpha,R1,R2"
        assert len(lines) == 6
        mid = [float(v) for v in lines[3].split(",")]
        assert mid[0] == pytest.approx(0.5)
        assert mid[1] == pytest.approx(0.5 * np.log2(13.0), abs=1e-12)


class TestScalarAndVerify:
    def test_scalar_sum_json(self, tmp_path):
        out = tmp_path / "scalar.json"
        rc = main(["scalar-sum", "--p1", "5", "--p2", "6", "--a", "0.4",
                   "--b", "3.0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        rate, corner = scalar_sud_sum_rate(5.0, 6.0, 0.4, 3.0)
        assert doc["sum_rate"] == pytest.approx(rate, rel=1e-12)
        assert doc["argmax"] == pytest.approx(list(corner), rel=1e-12)

    def test_verify_fig7(self, capsys):
        assert main(["verify", "--suite", "fig7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["base"] == "natural"
        assert report["prefactor"] == 1.0

    def test_verify_eq79(self, tmp_path):
        out = tmp_path / "eq79.json"
        assert main(["verify", "--suite", "eq79", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["threshold_p_4"] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_verify_example1(self, capsys):
        assert main(["verify", "--suite", "example1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["general_rank_value"] >= 7.10
        assert report["general_rank"] == 2

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "eq79", lambda: {"pass": False})
        assert main(["verify", "--suite", "eq79"]) == 3


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["region2", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["region2", "--config", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ["region3", "--config", "paper_sec4", "--grid", "1"],
        ["regionm", "--config", "paper_sec4", "--grid", "1", "--pareto"],
        ["hull", "--config", "paper_sec4", "--grid", "1"],
        ["fdm", "--config", "fig3", "--grid", "1"],
        ["region2", "--config", "fig3", "--grid", "1"],
        ["ilregion", "--config", "fig3", "--q1", "-1", "--q2", "0.5"],
    ])
    def test_bad_sweep_arguments_print_usage(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage:" in err and "Traceback" not in err

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        doc = {
            "channels": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[0.3, 0.4], [1.0, 0.0]],
            ],
            "powers": [6.0, 6.0],
            "field": "complex",
        }
        src = tmp_path / "degenerate.json"
        src.write_text(json.dumps(doc))
        rc = main(["ilregion", "--config", str(src), "--grid", "5",
                   "--q1", "0.1", "--q2", "0.1"])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


def _reference_csv(samples, net, with_beams) -> bytes:
    """A per-sample CSV formatter (a key tuple and a row per sample, one sort
    of the tuples), kept as the reference for the block writer."""
    samples = list(samples)
    first = samples[0]
    cplx = any(np.iscomplexobj(b) for b in first.beamformers)
    with_omegas = net.field == "complex" and any(len(p.psi) > 1 for p in first.params)
    n_psi = sum(len(p.psi) for p in first.params)
    header = [f"psi{k + 1}" for k in range(n_psi)]
    if with_omegas:
        header += [f"omega{k + 1}" for k in range(n_psi)]
    header += [f"R{i + 1}" for i in range(net.m)]
    if with_beams:
        for i, beam in enumerate(first.beamformers):
            for k in range(np.atleast_1d(beam).size):
                tag = f"gamma{i + 1}_{k + 1}"
                header += [f"{tag}_re", f"{tag}_im"] if cplx else [tag]
    keyed = []
    for s in samples:
        key = [v for p in s.params for v in p.psi]
        if with_omegas:
            key += [v for p in s.params for v in p.omega]
        row = key + list(s.rates)
        if with_beams:
            for beam in s.beamformers:
                for v in np.atleast_1d(beam):
                    row += [float(np.real(v)), float(np.imag(v))] if cplx else [float(np.real(v))]
        keyed.append((tuple(key), row))
    keyed.sort(key=lambda kr: kr[0])
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in r) for _, r in keyed]
    return ("\n".join(lines) + "\n").encode()


def _shuffled(samples, seed):
    samples = list(samples)
    return [samples[k] for k in np.random.default_rng(seed).permutation(len(samples))]


def _signed_zero_samples():
    """Hand-made samples: -0.0 in keys, rates and beams; tied keys out of order."""
    psis = [(0.5, -0.0), (0.5, 0.0), (-0.0, 1.0), (0.0, 1.0), (0.5, -0.0), (0.25, 0.0)]
    out = []
    for k, (a, b) in enumerate(psis):
        out.append(RegionSample(
            params=(SphericalParams((a,), (0.0,)), SphericalParams((b,), (-0.0,))),
            rates=(-0.0 if k % 2 else 0.1 * k, 1.0 / (k + 3)),
            beamformers=(np.array([-0.0 + 0.0j, 1.0 - 0.0j]), np.array([-0.0, 0.5 * k])),
            interference=np.zeros((2, 2)),
        ))
    return out


def _keyless_samples():
    """Every user without an angle: all keys are empty, so order is kept."""
    return [RegionSample(params=(SphericalParams(()), SphericalParams(())),
                         rates=(1.0 / (k + 1), -0.0 if k == 3 else float(k)),
                         beamformers=(np.array([float(k), -0.0]), np.array([0.5])),
                         interference=np.zeros((2, 2)))
            for k in range(9)]


def _csv_cases():
    rng = np.random.default_rng(61)
    real_pair = build_symmetric_pair(field="real")
    cplx_pair = random_pair_channel(rng, dim=3, cplx=True)
    # user 1's channels are real, so its beams stay float on a complex network
    mixed = MisoNetwork(channels=(rng.normal(size=(3, 2)),
                                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),
                        powers=(2.0, 3.0), field="complex")
    h3_zero = TwoUserChannel(h1=random_vector(rng, 3, True), h2=random_vector(rng, 3, True),
                             h3=np.zeros(3, dtype=complex), h4=random_vector(rng, 3, True),
                             p1=2.0, p2=1.5)
    real3, cplx3 = build_three_user("real"), build_three_user("complex")
    return {
        "real_beams": (real_pair, _shuffled(two_user_region(real_pair, 9, 7), 1), True),
        "real_no_beams": (real3, _shuffled(three_user_region(real3, grid=3), 2), False),
        "complex_beams": (cplx_pair, _shuffled(two_user_region(cplx_pair, 8, 6), 3), True),
        "omega_no_beams": (cplx3, _shuffled(m_user_region(cplx3, grid=2), 4), False),
        "omega_random_beams": (cplx3, list(m_user_region(cplx3, sampler="random",
                                                          count=300, seed=5)), True),
        "float_beam_on_complex": (mixed, _shuffled(two_user_region(mixed, 6, 5), 6), True),
        "mbar_zero_user": (h3_zero, _shuffled(two_user_region(h3_zero, 7, 9), 7), True),
        "signed_zeros": (cplx_pair, _signed_zero_samples(), True),
        "no_keys": (cplx_pair, _keyless_samples(), True),
    }


def _blocks_of(samples, size=7):
    """The samples as blocks of up to size rows, each on tables of its own."""
    for start in range(0, len(samples), size):
        part = samples[start:start + size]
        n = len(part)
        tables = []
        for i, (par, beam) in enumerate(zip(part[0].params, part[0].beamformers)):
            k, t = len(par.psi), np.atleast_1d(beam).size
            tables.append(region._UserTable(
                None,
                np.array([s.params[i].psi for s in part], dtype=float).reshape(n, k),
                np.array([s.params[i].omega for s in part], dtype=float).reshape(n, k),
                np.zeros(n), np.zeros((n, 0)),
                np.array([s.beamformers[i] for s in part]).reshape(n, t)))
        yield region._Block(tables, [np.arange(n)] * len(tables),
                            np.array([s.rates for s in part], dtype=float))


class TestCsvWriterGolden:
    @pytest.mark.parametrize("step", [5, 4096])
    @pytest.mark.parametrize("case", sorted(_csv_cases()))
    def test_matches_reference_bytes(self, case, step, tmp_path, monkeypatch):
        net, samples, with_beams = _csv_cases()[case]
        monkeypatch.setattr(cli, "_ROWS_PER_STEP", step)
        out = tmp_path / "out.csv"
        cli._emit_blocks(_blocks_of(samples), net, str(out), with_beams)
        assert out.read_bytes() == _reference_csv(samples, net, with_beams)

    def test_float_beam_case_mixes_dtypes(self):
        _, samples, _ = _csv_cases()["float_beam_on_complex"]
        assert [np.iscomplexobj(b) for b in samples[0].beamformers] == [False, True]

    def test_stdout_matches_reference_bytes(self, capsysbinary):
        net, samples, with_beams = _csv_cases()["complex_beams"]
        cli._emit_blocks(_blocks_of(samples), net, None, with_beams)
        assert capsysbinary.readouterr().out == _reference_csv(samples, net, with_beams)

    def test_empty_stream_is_a_numerical_failure(self):
        with pytest.raises(NumericalError):
            cli._emit_blocks(iter([]), build_symmetric_pair(), None, True)


def _complex_pair_config():
    return network_config(random_pair_channel(np.random.default_rng(12), dim=3, cplx=True))


def _zero_cross_config():
    # transmitter 1's channel to receiver 2 is zero, so user 1 has no angle
    doc = network_config(random_pair_channel(np.random.default_rng(13), dim=3, cplx=True))
    doc["channels"][0][1] = [[0.0, 0.0]] * 3
    return doc


def _zero_power_config():
    doc = bundled_config("paper_sec4")
    doc["powers"] = [0.0, 0.0, 0.0]
    return doc


def _pareto(stream):
    return lambda *a, **k: pareto_prune_samples(stream(*a, **k))


def _pruned_front(tables):
    """The exact front of the stream over the dominance-pruned tables(net, grid),
    which is what --pareto writes for a grid sweep."""
    def stream(net, g, nats):
        pruned = region._pruned_tables(tables(net, g))
        return pareto_prune_samples(region._samples(region._cross_blocks(net, pruned, nats)))
    return stream


def _two_user_tables(net, g):
    return _engine_tables(net, None, g, g)


# command, config, extra flags, the public RegionSample stream it writes
# (called with the network, the grid and --nats) and whether beams are written.
# region2 at grid 100 (10,000 rows) and the random sampler at count 9,000
# span two 8,192-row blocks, so the writer joins blocks before its one sort.
_CLI_CASES = {
    "region2_real_grid100": ("region2", "fig3", ["--grid", "100", "--real"],
                             lambda net, g, nats: two_user_region(net, g, g, nats), True),
    "region2_complex_grid100": ("region2", _complex_pair_config, ["--grid", "100"],
                                lambda net, g, nats: two_user_region(net, g, g, nats), True),
    "ilregion_nats_real": ("ilregion", "fig4", ["--grid", "30", "--q1", "0.25", "--q2", "0.4",
                                                "--nats", "--real"],
                           lambda net, g, nats: interference_limited_region(
                               net, 0.25, 0.4, g, g, nats), True),
    "region2_pareto": ("region2", "fig5", ["--grid", "70", "--pareto"],
                       _pruned_front(_two_user_tables), True),
    "region3_pareto": ("region3", "paper_sec4", ["--grid", "5", "--pareto"],
                       _pruned_front(region._grid_tables), False),
    "region3_random_two_chunks": ("region3", "paper_sec4",
                                  ["--sampler", "random", "--count", "9000", "--seed", "3"],
                                  lambda net, g, nats: three_user_region(
                                      net, sampler="random", count=9000, seed=3), False),
    "region3_random_pareto": ("region3", "paper_sec4",
                              ["--sampler", "random", "--count", "9000", "--seed", "4",
                               "--pareto"],
                              _pareto(lambda net, g, nats: three_user_region(
                                  net, sampler="random", count=9000, seed=4)), False),
    "regionm_complex_omegas": ("regionm", lambda: network_config(build_three_user("complex")),
                               ["--grid", "3"],
                               lambda net, g, nats: m_user_region(net, grid=g), False),
    "regionm_pareto": ("regionm", "fig3", ["--grid", "40", "--pareto"],
                       _pruned_front(region._grid_tables), False),
    "region2_zero_cross": ("region2", _zero_cross_config, ["--grid", "9"],
                           lambda net, g, nats: two_user_region(net, g, g, nats), True),
    "region2_zero_cross_pareto": ("region2", _zero_cross_config, ["--grid", "9", "--pareto"],
                                  _pruned_front(_two_user_tables), True),
    "region3_zero_power": ("region3", _zero_power_config, ["--grid", "5"],
                           lambda net, g, nats: three_user_region(net, grid=g), False),
}


class TestCliBytesMatchSampleStream:
    """The sweep commands write from blocks; their CSV must be byte for byte
    what the reference per-sample writer makes of the public RegionSample
    stream, or under --pareto on a grid, of the exact front over the pruned
    tables (tests/test_region.py checks that front against the full sweep's)."""

    @pytest.mark.parametrize("case", sorted(_CLI_CASES))
    def test_csv_bytes(self, case, tmp_path):
        command, config, flags, stream, with_beams = _CLI_CASES[case]
        doc = bundled_config(config) if isinstance(config, str) else config()
        src = tmp_path / "config.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(src), *flags, "--out", str(out)]) == 0
        net = load_network(doc, force_real="--real" in flags)
        grid = int(flags[flags.index("--grid") + 1]) if "--grid" in flags else 24
        want = _reference_csv(stream(net, grid, "--nats" in flags), net, with_beams)
        assert out.read_bytes() == want

    def test_zero_cross_case_leaves_a_user_without_angles(self):
        net = load_network(_zero_cross_config())
        assert [len(p.psi) for p in two_user_region(net, 3, 3)[0].params] == [0, 1]


def test_benchmark_probes_resolve():
    # perfbench's tracer patches each (module, attribute) by name at run time
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, *_ in tracing.PROBES:
        module = importlib.import_module(f"miso_sud.{mod}")
        assert hasattr(module, attr), f"miso_sud.{mod}.{attr} is missing"


# Runs in a fresh interpreter: the numpy-only commands, then the oracle suite.
_SCIPY_FREE_CHILD = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

import miso_sud
assert not scipy_modules(), scipy_modules()
import miso_sud.cli as cli
cli.build_parser()
commands = [
    ["region2", "--config", "fig3", "--grid", "9"],
    ["region3", "--config", "paper_sec4", "--grid", "3", "--pareto"],
    ["region3", "--config", "paper_sec4", "--sampler", "random", "--count", "50"],
    ["zf", "--config", "paper_sec4"],
    ["fdm", "--config", "fig3", "--grid", "5"],
    ["hull", "--config", "fig3", "--grid", "7"],
]
for k, argv in enumerate(commands):
    assert cli.main(argv + ["--out", f"out{k}.csv"]) == 0, argv
assert not scipy_modules(), scipy_modules()
assert cli.main(["verify", "--suite", "example1", "--out", "example1.json"]) == 0
assert "scipy.optimize" in sys.modules
"""


def _run_fresh(code, cwd):
    src = str(Path(miso_sud.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_numpy_commands_do_not_import_scipy(tmp_path):
    # scipy serves only the oracles; the sweep, zf, fdm and hull commands
    # must not pay its import.  The bare config names resolve to the bundled
    # configs because the child runs in an empty directory.
    done = _run_fresh(_SCIPY_FREE_CHILD, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "example1.json").read_text())["pass"] is True


def test_public_names_resolve(tmp_path):
    done = _run_fresh("import miso_sud; print(miso_sud.oracle.__name__)", tmp_path)
    assert done.stdout.strip() == "miso_sud.oracle", done.stderr
    for name in miso_sud.__all__:
        assert getattr(miso_sud, name) is not None, name
        assert name in dir(miso_sud), name
    from miso_sud import general_rank_solve, weighted_sum_boundary

    assert general_rank_solve is miso_sud.oracle.general_rank_solve
    assert weighted_sum_boundary is miso_sud.oracle.weighted_sum_boundary
    with pytest.raises(AttributeError):
        miso_sud.no_such_name
