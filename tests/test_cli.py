"""End-to-end tests for the command-line front end."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import miso_sud.cli as cli
from miso_sud.cli import bundled_config, load_network, main, network_config
from miso_sud.twouser import cross_angles, scalar_sud_sum_rate


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
        assert 0 < len(rh) <= len(rp) <= 49

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


def test_benchmark_probes_resolve():
    # perfbench's tracer patches each (module, attribute) by name at run time
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, *_ in tracing.PROBES:
        module = importlib.import_module(f"miso_sud.{mod}")
        assert hasattr(module, attr), f"miso_sud.{mod}.{attr} is missing"
