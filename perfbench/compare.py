"""Compare two suite result files, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json

For each end-to-end metric of each workload it prints both medians and
quartiles and one verdict:

  improved    NEW wins at least 9 in 10 of the run pairs (ties count for
              neither) and the medians differ by more than BASE's own
              spread (q3 - q1);
  unresolved  BASE's spread, as a share of its median, is wider than the
              metric's bound, unless every NEW run is better than every
              BASE run;
  worse       NEW's median is worse than BASE's by more than the bound;
  no worse    otherwise.

Runs are paired in seed order.  Bounds and directions come from
BENCHMARK.json, and from spec.py for the metrics it does not gate.
"""

from __future__ import annotations

import json
import sys

import spec


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    lower = better == "lower"
    b_vals, n_vals = base["values"], new["values"]
    pairs = list(zip(b_vals, n_vals))
    wins = sum(1 for b, n in pairs if _better(n, b, lower))
    spread = base["q3"] - base["q1"]
    if pairs and wins >= 0.9 * len(pairs) and abs(new["median"] - base["median"]) > spread:
        return "improved"
    all_better = all(_better(n, b, lower) for n in n_vals for b in b_vals)
    share = spread / abs(base["median"]) if base["median"] else (0.0 if spread == 0 else float("inf"))
    if share > bound and not all_better:
        return "unresolved"
    limit = base["median"] * (1 + bound if lower else 1 - bound)
    if _better(limit, new["median"], lower):
        return "worse"
    return "no worse"


def compare(base: dict, new: dict) -> list:
    """Rows of (workload, metric, unit, base summary, new summary, verdict)."""
    rows = []
    for m in spec.E2E:
        for name in spec.workloads_of(m["name"]):
            b = base["workloads"].get(name, {}).get("metrics", {}).get(m["name"])
            n = new["workloads"].get(name, {}).get("metrics", {}).get(m["name"])
            if b is None or n is None:
                continue
            rows.append((name, m["name"], m["unit"], b, n,
                         verdict(b, n, m["better"], m["bound"])))
    rows.sort(key=lambda r: list(spec.WORKLOADS).index(r[0]))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    for label, res in (("base", base), ("new", new)):
        m = res["machine"]
        print(f"{label}: commit {m['commit']}, {m['nproc']} cpus, Python {m['python']}, "
              f"numpy {m['numpy']}, scipy {m['scipy']}, seeds {res['seeds']}, "
              f"{res['seconds']:g} s per run")
    current = None
    for name, metric, unit, b, n, v in compare(base, new):
        if name != current:
            print(f"\n== {name}")
            current = name
        print(f"   {metric:16s} {unit:6s} base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
              f"  new {n['median']:.5g} [{n['q1']:.5g}, {n['q3']:.5g}]  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
