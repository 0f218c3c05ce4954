"""Tests of the benchmark itself: inputs, checks, tracing, compare, contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from miso_sud import cli  # noqa: E402


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _op_output(op, tmp_path):
    prep = W.prepare(op, str(tmp_path))
    return prep, W.execute(prep)


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    for index in range(8):
        a = W.generate(workload, 7, index).input_bytes()
        b = W.generate(workload, 7, index).input_bytes()
        assert a == b
        assert a != W.generate(workload, 8, index).input_bytes()


def test_generated_config_parses_to_the_same_channels():
    op = W.generate("sweep", 3, 5)
    net = cli.load_network(op.config())
    assert net.field == op.field == "complex"
    for j in range(op.m):
        assert np.array_equal(net.channels[j], op.channels[j])


def test_mix_cycles_with_the_index():
    ops = [W.generate("sweep", 1, i) for i in range(12)]
    assert [op.kind for op in ops] == ["front3", "region2", "random"] * 4
    assert [op.field for op in ops] == ["real"] * 3 + ["real", "complex", "complex"] + [
        "real"] * 3 + ["real", "complex", "complex"]
    assert all(op.points == 4 ** 6 for op in ops if op.kind == "front3")


# ------------------------------------------------------------------ checks


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    lines = edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("index", [0, 3])
def test_front3_check_flags_a_missing_front_row(tmp_path, index):
    prep, outcome = _op_output(W.generate("sweep", 2, index), tmp_path)
    assert W.check(prep, outcome).ok

    def drop_best_r1(lines):
        header, rows = lines[0], lines[1:]
        col = header.split(",").index("R1")
        best = max(float(r.split(",")[col]) for r in rows)
        return [header] + [r for r in rows if float(r.split(",")[col]) < best - 1e-6]

    _rewrite(prep.out_path, drop_best_r1)
    assert not W.check(prep, outcome).ok


def test_front3_check_flags_a_rate_off_its_angles(tmp_path):
    prep, outcome = _op_output(W.generate("sweep", 2, 0), tmp_path)

    def bump(lines):
        vals = lines[1].split(",")
        vals[-1] = repr(float(vals[-1]) + 1e-6)
        return [lines[0], ",".join(vals)] + lines[2:]

    _rewrite(prep.out_path, bump)
    verdict = W.check(prep, outcome)
    assert not verdict.ok and "reference" in verdict.detail


def test_emit_check_flags_a_short_csv(tmp_path):
    prep, outcome = _op_output(W.generate("sweep", 2, 1), tmp_path)
    assert W.check(prep, outcome).ok
    _rewrite(prep.out_path, lambda lines: lines[:-1])
    assert "rows" in W.check(prep, outcome).detail


@pytest.mark.parametrize("index", [2, 4])
def test_emit_check_flags_wrong_rates(tmp_path, index):
    op = W.generate("sweep", 2, index)
    prep, outcome = _op_output(op, tmp_path)
    assert W.check(prep, outcome).ok
    rate_cols = slice(2, 4) if op.kind == "region2" else slice(-op.m, None)

    def skew(lines):
        out = [lines[0]]
        for ln in lines[1:]:
            vals = ln.split(",")
            vals[rate_cols] = [repr(float(v) * (1 + 1e-6)) for v in vals[rate_cols]]
            out.append(",".join(vals))
        return out

    _rewrite(prep.out_path, skew)
    assert "rates differ" in W.check(prep, outcome).detail


def test_certify_check_flags_a_gap_and_a_disagreement(tmp_path):
    prep, outcome = _op_output(W.generate("certify", 2, 0), tmp_path)
    verdict = W.check(prep, outcome)
    assert verdict.ok and "certified" in verdict.facts
    low = W.Outcome(general=outcome.general, search=outcome.search,
                    sweep=outcome.sweep - 0.01 * max(1.0, outcome.sweep))
    assert "general - sweep" in W.check(prep, low).detail
    search = outcome.search.value - 0.01 * max(1.0, outcome.search.value)
    apart = W.Outcome(general=outcome.general, sweep=outcome.sweep,
                      search=dataclasses.replace(outcome.search, value=search))
    assert "sweep - search" in W.check(prep, apart).detail


def test_certify_mix_gives_complex_problems_one_cap():
    ops = [W.generate("certify", 1, index) for index in range(16)]
    assert {len(op.caps) for op in ops if op.field == "real"} == {1, 2}
    assert {len(op.caps) for op in ops if op.field == "complex"} == {1}


# With two caps on a complex problem, rank_one_search steps the relative
# phase of the caps on a 25-point grid and ends below best_rank_one_sweep,
# which matches an independent SLSQP solve to 1e-9.  Such problems are kept
# out of the certify mix and held here until the search is fixed.
@pytest.mark.xfail(strict=True, reason="rank_one_search falls 1.3e-3 to 2.0e-3 short "
                   "of the rank-one optimum on complex problems with two caps")
@pytest.mark.parametrize("seed,index,d", [(1, 51, 2), (3, 19, 2), (8, 19, 2), (304, 13, 3)])
def test_certify_search_with_two_complex_caps(tmp_path, seed, index, d):
    prep, outcome = _op_output(W.certify_op(seed, index, d, True, 2), tmp_path)
    verdict = W.check(prep, outcome)
    assert verdict.ok, verdict.detail


def test_nonzero_exit_fails_the_check(tmp_path):
    prep = W.prepare(W.generate("sweep", 2, 0), str(tmp_path))
    assert not W.check(prep, W.Outcome(code=2)).ok


# ------------------------------------------------------------------ tracing


def test_self_times_add_up_and_probes_are_removed(tmp_path):
    originals = {(mod, attr): getattr(__import__(f"miso_sud.{mod}", fromlist=[attr]), attr)
                 for mod, attr, *_ in tracing.PROBES}
    tracer = tracing.Tracer()
    ops = [W.generate("sweep", 4, index) for index in (1, 2)]
    tracer.install()
    try:
        for index, op in enumerate(ops):
            prep = W.prepare(op, str(tmp_path))
            tracer.op = index
            tracer.call(*tracing.ROOT, True, W.execute, prep)
            tracer.op = None
            assert W.check(prep, W.Outcome()).ok
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(__import__(f"miso_sud.{mod}", fromlist=[attr]), attr) is fn
    roots = [s for s in tracer.spans if s[3] == tracing.ROOT[0]]
    total_self = sum(tracer.layer_self_s().values())
    assert total_self == pytest.approx(sum(s[7] for s in roots), rel=1e-9)
    assert tracer.calls("twouser.sweep") == 1
    assert tracer.counts["twouser.sweep.items"] == ops[0].grid ** 2
    assert tracer.counts["region.sweep.items"] == ops[1].count
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tracer.spans)


# ------------------------------------------------------------------ compare


def _summary(values):
    import suite

    return suite.summarize(values)


def test_compare_verdicts():
    base = _summary([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00])
    faster = _summary([v * 0.8 for v in base["values"]])
    slower = _summary([v * 1.2 for v in base["values"]])
    same = _summary(list(reversed(base["values"])))
    assert compare.verdict(base, faster, "lower", 0.1) == "improved"
    assert compare.verdict(base, slower, "lower", 0.1) == "worse"
    assert compare.verdict(base, same, "lower", 0.1) == "no worse"
    assert compare.verdict(base, slower, "higher", 0.1) == "improved"
    noisy = _summary([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0])
    assert compare.verdict(noisy, same, "lower", 0.1) == "unresolved"
    zero = _summary([0.0] * 10)
    assert compare.verdict(zero, zero, "lower", 0.0) == "no worse"
    assert compare.verdict(zero, _summary([0.1] * 10), "lower", 0.0) == "worse"


# ------------------------------------------------------------------ contract


def test_benchmark_json_is_within_the_runner_contract():
    doc = spec.BENCHMARK
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert all(set(w) == {"name", "why"} for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) < 3420


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_runs_pass_every_check(workload):
    for trace, names in ((0, [m["name"] for m in spec.GATED]),
                         (1, [m["name"] for m in spec.PER_LAYER])):
        done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == names
        for m in last["metrics"].values():
            assert set(m) == {"value", "unit"} and isinstance(m["value"], float)
            assert m["value"] > 0 or trace


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
