"""Run every workload over several seeds and write one result file.

    python3 perfbench/suite.py --seeds 10 --seconds 40 --out perfbench/out/result.json

Each run is its own process (``run.py``), so every workload runs single
threaded in a fresh interpreter.  Seeds go in the outer loop so slow drift
of the machine spreads over all workloads.  After the untraced runs, one
traced run per workload (the first seed) gives the per-layer metrics.

The result file holds the machine facts, the commit, the seeds, every run's
metrics and op counts, and per metric the median and quartiles; compare
two such files with ``compare.py``.  The table printed at the end lists
every end-to-end metric by name and unit, with the failure and
certification counts behind the ratios.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 200


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["result_line"] = last
    return record


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return list(range(1, int(text) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="10", help="N (seeds 1..N) or LO-HI")
    parser.add_argument("--seconds", type=float, default=spec.BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    for name in names:
        if name not in spec.WORKLOADS:
            parser.error(f"unknown workload {name!r}")

    runs = {name: [] for name in names}
    machine = None
    for seed in seeds:
        for name in names:
            rec = run_one(name, seed, args.seconds, 0)
            machine = machine or rec["machine"]
            runs[name].append({
                "seed": seed,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "correct": rec["result_line"]["correct"],
                "metrics": {k: v["value"] for k, v in rec["end_to_end"].items()},
                "run": rec["run"],
                "failures": rec["failures"],
            })
            print(f"ran {name} seed {seed}: {rec['attempted']} ops, {rec['failed']} failed",
                  file=sys.stderr, flush=True)

    result = {"machine": machine, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in names:
        traced = run_one(name, seeds[0], args.seconds, 1)
        metrics = {}
        for m in spec.E2E:
            if name in spec.workloads_of(m["name"]):
                metrics[m["name"]] = {"unit": m["unit"], **summarize(
                    [r["metrics"][m["name"]] for r in runs[name]])}
        result["workloads"][name] = {
            "spec": {**spec.WORKLOADS[name], "loop": spec.LOOP},
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "metrics": metrics,
            "runs": runs[name],
            "trace": {"seed": seeds[0], "per_layer": traced["per_layer"],
                      "probes": traced["probes"], "attempted": traced["attempted"],
                      "failed": traced["failed"]},
        }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    print(f"wrote {out}")
    return 0


def print_table(result: dict) -> None:
    m = result["machine"]
    print(f"machine: {m['nproc']} cpus, Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']}, commit {m['commit']}")
    for name, wl in result["workloads"].items():
        print(f"\n== {name}: {wl['spec']['mix']}")
        print(f"   {wl['spec']['loop']}; seeds {result['seeds'][0]}..{result['seeds'][-1]}, "
              f"{result['seconds']:g} s of op time per run")
        for metric, s in wl["metrics"].items():
            note = ""
            if metric == "fail_ratio":
                note = f"  ({wl['failed']} failed of {wl['attempted']} attempted)"
            elif metric == "certified_ratio":
                cert = sum(r["run"]["certified"]["certified"] for r in wl["runs"])
                base = sum(r["run"]["certified"]["of"] for r in wl["runs"])
                note = f"  ({cert} certified of {base} instances)"
            elif metric == "op_tail_s":
                tails = [r["run"]["tail"] for r in wl["runs"]]
                note = (f"  (p{tails[0]['pct']}, {min(t['beyond'] for t in tails)}-"
                        f"{max(t['beyond'] for t in tails)} ops beyond, of "
                        f"{min(t['of'] for t in tails)}-{max(t['of'] for t in tails)})")
            print(f"   {metric:18s} {s['median']:.6g} {s['unit']}  "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]{note}")
        tr = wl["trace"]
        print(f"   -- traced run (seed {tr['seed']}, {tr['failed']} failed of "
              f"{tr['attempted']} attempted)")
        for metric, v in tr["per_layer"].items():
            print(f"   {metric:28s} {v['value']:.6g} {v['unit']}")


if __name__ == "__main__":
    sys.exit(main())
