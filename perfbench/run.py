"""Run one workload of the miso-sud benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from a source checkout: the program is imported from ``src/`` beside
this directory, never from an installed copy.  Ops run one at a time in
this single-threaded process (a closed loop with one client).  The first of
the workload's rounds takes new inputs until it has used its share of
``--seconds`` of op time; later rounds repeat the same inputs in order.  An
op's latency is the fastest of its repeats, which keeps the host's short
CPU speed swings out of the figures.  Every execution's output is checked
outside its timed span.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
full record of the run (machine facts, op counts, every metric, and the
spans of a traced run) goes to ``perfbench/out/``.

With ``--trace 1`` every input runs twice in a row, untraced and then with
probes installed, within the same ``--seconds``; the ratio of the two op
times is ``trace_overhead``.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 5
WARMUP_OPS = 1
WARMUP_INDEX = 10**6
WALL_CAP_S = 150.0   # stop early rather than overrun the 180 s limit

# A fresh process prints the seconds it takes to import miso_sud.cli and
# build its parser.  Given an op, it then runs that op alone and prints how
# far its peak RSS rose above its RSS just before the op, in bytes, so the
# figure holds the program's memory and not the harness's or the checks'.
CHILD_CODE = (
    "import resource, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import miso_sud.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
    "if len(sys.argv) > 2:\n"
    "    sys.path.insert(0, sys.argv[2])\n"
    "    import workloads\n"
    "    op = workloads.generate(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))\n"
    "    prep = workloads.prepare(op, sys.argv[6])\n"
    "    with open('/proc/self/statm') as fh:\n"
    "        before = int(fh.read().split()[1]) * resource.getpagesize()\n"
    "    workloads.execute(prep)\n"
    "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - before)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import miso_sud from this checkout's src/ and nowhere else."""
    if not (SRC / "miso_sud" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'miso_sud'}")
    sys.path.insert(0, str(SRC))
    import miso_sud

    if Path(miso_sud.__file__).resolve().parent != (SRC / "miso_sud").resolve():
        fail(f"miso_sud imported from {miso_sud.__file__}, not from {SRC}")
    return miso_sud


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def measure_fresh(workload: str, seed: int, probes: int, workdir: str) -> tuple:
    """Set-up seconds of each fresh process, and the peak RSS growth in bytes of
    each of the workload's first ``probes`` inputs, each run alone in one of them."""
    times, growth = [], []
    for k in range(SETUP_SPAWNS):
        argv = [sys.executable, "-c", CHILD_CODE, str(SRC)]
        if k < probes:
            argv += [str(HERE), workload, str(seed), str(k), workdir]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        lines = done.stdout.strip().splitlines()
        times.append(float(lines[0]))
        if k < probes:
            growth.append(int(lines[1]))
    return times, growth


class Pass:
    """Results of one timed call: repeat times per input, checks, failures."""

    def __init__(self):
        self.ops = []        # distinct inputs, in order
        self.times = []      # times[i]: seconds of each repeat of ops[i]
        self.facts = []      # facts[i]: what the first check of ops[i] found
        self.verdicts = []   # one per execution
        self.failures = []

    def record(self, slot, op, elapsed, verdict):
        if slot is None:
            self.ops.append(op)
            self.times.append([elapsed])
            self.facts.append(verdict.facts)
        else:
            self.times[slot].append(elapsed)
        self.verdicts.append(verdict)
        if not verdict.ok and len(self.failures) < 5:
            self.failures.append({"index": op.index, "kind": op.kind, "detail": verdict.detail})

    @property
    def latencies(self) -> list:
        """Per input, its fastest repeat."""
        return [min(ts) for ts in self.times]

    @property
    def busy(self) -> float:
        return sum(sum(ts) for ts in self.times)

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if not v.ok)


def run_op(workloads, op, workdir, timed_call):
    prep = workloads.prepare(op, workdir)
    t0 = time.perf_counter()
    try:
        outcome = timed_call(prep)
        err = None
    except Exception:  # noqa: BLE001 - an op that raises counts as failed
        outcome, err = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if err is None:
        verdict = workloads.check(prep, outcome)
    else:
        verdict = workloads.Verdict(False, err)
    return elapsed, verdict


def run_rounds(workloads, ops_source, workdir, budget_s, deadline, calls, rounds,
               cycle=1) -> list:
    """Time each input once per call in ``calls`` per round; one Pass per call.

    The first round takes new inputs until its op time reaches
    ``budget_s / rounds`` and the inputs fill whole cycles of ``cycle``, so
    every run holds the mix in the same proportions; later rounds repeat
    those inputs in order, so the repeats of one input lie a round apart and
    the host's speed swings rarely hit all of them.
    """
    passes = [Pass() for _ in calls]

    def execute(slot, op):
        for res, timed_call in zip(passes, calls):
            elapsed, verdict = run_op(workloads, op, workdir, timed_call)
            res.record(slot, op, elapsed, verdict)

    for op in ops_source:
        spent = sum(p.busy for p in passes) >= budget_s / rounds
        if (spent and len(passes[0].ops) % cycle == 0) or time.monotonic() > deadline:
            break
        execute(None, op)
    for _ in range(rounds - 1):
        for slot, op in enumerate(list(passes[0].ops)):
            if time.monotonic() > deadline:
                return passes
            execute(slot, op)
    return passes


def percentile(values, pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(spec, workload, res: Pass, setup_times, growth) -> tuple[dict, dict]:
    lat = res.latencies
    busy = sum(lat)
    n = len(lat)
    executions = len(res.verdicts)
    tail_pct = spec.WORKLOADS[workload]["tail_pct"]
    tail = percentile(lat, tail_pct)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "ops_per_s": n / busy,
        "peak_rss_mb": max(growth) / 2**20,
        "fail_ratio": res.failed / executions,
    }
    extra = {
        "ops": n, "executions": executions, "failed": res.failed,
        "op_time_s": busy, "all_repeats_s": res.busy,
        "tail": {"pct": tail_pct, "beyond": sum(1 for x in lat if x > tail), "of": n},
        "setup_samples_s": setup_times,
        "rss_growth_bytes": growth,
        "latencies_s": lat,
        "kinds": [f"{op.kind}/{op.field}" for op in res.ops],
    }
    if workload in spec.workloads_of("points_per_s"):
        points = sum(op.points for op in res.ops)
        values["points_per_s"] = points / busy
        extra["points"] = points
    if workload in spec.workloads_of("certified_ratio"):
        certified = sum(1 for f in res.facts if f.get("certified"))
        values["certified_ratio"] = certified / n
        extra["certified"] = {"certified": certified, "of": n}
    units = {m["name"]: m["unit"] for m in spec.E2E}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, extra


def per_layer(spec, tracer, res: Pass, untraced: Pass) -> dict:
    """Layer metrics of the traced executions; counts are means per execution."""
    n = len(res.verdicts)
    traced_s = tracer.self_s(*tracer.stats)  # all self time = traced op wall time
    layer = tracer.layer_self_s()
    repeats = [len(ts) for ts in res.times]
    facts = [f for f, k in zip(res.facts, repeats) for _ in range(k)]

    def pct(seconds):
        return 100.0 * seconds / traced_s

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    samples = tracer.counts["region.sweep.items"]
    region_points = sum(op.points * k for op, k in zip(res.ops, repeats)
                        if op.kind in ("front3", "random"))
    rows = sum(f.get("rows", 0) for f in facts)
    pareto_in = tracer.counts["region.pareto_in"]
    twouser_samples = tracer.counts["twouser.sweep.items"]
    fronts = [f["front_distinct"] for f in facts if "front_distinct" in f]
    gaps = [f["gap"] for f in facts if "gap" in f]
    values = {
        "trace_overhead": sum(res.latencies) / sum(untraced.latencies) - 1.0,
        "bench.self_pct": pct(layer["bench"]),
        "cli.self_pct": pct(layer["cli"]),
        "cli.rows_written": rows / n,
        "cli.bytes_written": sum(f.get("bytes", 0) for f in facts) / n,
        "cli.rows_per_s": rate(rows, layer["cli"]),
        "region.self_pct": pct(layer["region"]),
        "region.sweep_pct": pct(tracer.self_s("region.sweep")),
        "region.samples": samples / n,
        "region.samples_per_point": samples / region_points if region_points else 0.0,
        "region.samples_per_s": rate(samples, tracer.self_s("region.sweep")),
        "region.pareto_pct": pct(tracer.self_s("region.pareto", "region.pareto_filter")),
        "region.pareto_in": pareto_in / n,
        "region.pareto_out": tracer.counts["region.pareto_out"] / n,
        "region.front_distinct": sum(fronts) / len(fronts) if fronts else 0.0,
        "region.pareto_keep_ratio": tracer.counts["region.pareto_out"] / pareto_in if pareto_in else 0.0,
        "region.pareto_filter_calls": tracer.calls("region.pareto_filter") / n,
        "mreduce.self_pct": pct(layer["mreduce"]),
        "mreduce.frame_calls": tracer.calls("mreduce.frame") / n,
        "mreduce.frame_pct": pct(tracer.self_s("mreduce.frame")),
        "mreduce.table_calls": tracer.calls("mreduce.table") / n,
        "mreduce.table_rows": tracer.counts["mreduce.table.items"] / n,
        "mreduce.table_pct": pct(tracer.self_s("mreduce.table")),
        "mreduce.sweep_calls": tracer.calls("mreduce.sweep") / n,
        "mreduce.sweep_pct": pct(tracer.self_s("mreduce.sweep")),
        "twouser.self_pct": pct(layer["twouser"]),
        "twouser.sweep_pct": pct(tracer.self_s("twouser.sweep")),
        "twouser.samples": twouser_samples / n,
        "twouser.closed_form_calls": tracer.calls("twouser.closed_form") / n,
        "twouser.samples_per_s": rate(twouser_samples, layer["twouser"]),
        "oracle.self_pct": pct(layer["oracle"]),
        "oracle.general_calls": tracer.calls("oracle.general") / n,
        "oracle.general_pct": pct(tracer.self_s("oracle.general")),
        "oracle.search_calls": tracer.calls("oracle.search") / n,
        "oracle.search_pct": pct(tracer.self_s("oracle.search")),
        "oracle.gap_max": max(gaps) if gaps else 0.0,
        "numlin.self_pct": pct(layer["numlin"]),
        "numlin.eig_calls": tracer.calls("numlin.eig") / n,
        "numlin.eig_pct": pct(tracer.self_s("numlin.eig")),
        "numlin.hermitize_calls": tracer.calls("numlin.hermitize") / n,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec.PER_LAYER}


def op_stream(workloads, workload, seed):
    i = 0
    while True:
        yield workloads.generate(workload, seed, i)
        i += 1


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    import tracing
    import workloads

    deadline = time.monotonic() + WALL_CAP_S
    facts = machine_facts()
    wl_spec = spec.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times, growth = measure_fresh(args.workload, args.seed,
                                            wl_spec["memory_probes"], str(workdir))
        warm = (workloads.generate(args.workload, args.seed, WARMUP_INDEX + k)
                for k in range(WARMUP_OPS))
        run_rounds(workloads, warm, str(workdir), float("inf"), deadline,
                   [workloads.execute], 1)

        calls = [workloads.execute]
        if args.trace:
            # each input runs untraced, then traced, so both see the same machine state
            tracer = tracing.Tracer()

            def traced(prep):
                tracer.install()
                tracer.op = prep.op.index
                try:
                    return tracer.call(*tracing.ROOT, True, workloads.execute, prep)
                finally:
                    tracer.op = None
                    tracer.uninstall()

            calls.append(traced)
        passes = run_rounds(workloads, op_stream(workloads, args.workload, args.seed),
                            str(workdir), args.seconds, deadline, calls,
                            wl_spec["rounds"], wl_spec["cycle"])
        plain = passes[0]
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts}
        e2e, extra = end_to_end(spec, args.workload, plain, setup_times, growth)
        record["end_to_end"] = e2e
        record["run"] = extra
        record["failures"] = [f for p in passes for f in p.failures]
        attempted = sum(len(p.verdicts) for p in passes)
        failed = sum(p.failed for p in passes)
        if args.trace:
            metrics = per_layer(spec, tracer, passes[1], plain)
            record["per_layer"] = metrics
            record["probes"] = {k: {"calls": c, "busy_s": b, "self_s": s}
                                for k, (c, b, s) in sorted(tracer.stats.items())}
            record["spans"] = tracer.span_rows()
        else:
            metrics = {m["name"]: e2e[m["name"]] for m in spec.GATED}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["attempted"], record["failed"] = attempted, failed
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    show = record["per_layer"] if args.trace else e2e
    print(f"# {args.workload} seed={args.seed} ops={extra['ops']} "
          f"tail=p{extra['tail']['pct']} ({extra['tail']['beyond']} of {extra['ops']} beyond) "
          f"failed={failed}/{attempted} record={out_file.relative_to(ROOT)}")
    if "certified" in extra:
        print(f"# certified {extra['certified']['certified']}/{extra['certified']['of']}")
    for name, m in show.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"# FAILED op {f['index']} ({f['kind']}): {f['detail'].splitlines()[-1]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
