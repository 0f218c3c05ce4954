"""What the benchmark measures beyond what ``BENCHMARK.json`` lists.

``BENCHMARK.json`` at the repository root holds the workload names and
their reasons, and the gated metrics with their units, directions and
bounds; this module reads it.  Here live only the details an outside
runner does not read: each workload's op mix and repeats, its tail
percentile, the end-to-end metrics that are printed and compared but not
gated, and the workloads each metric applies to.  Everything here describes
the benchmark, not the program: the program only ever sees the inputs that
``workloads`` generates.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))

# Every workload is a closed loop with one client: the next op is sent only
# after the previous one has returned and been checked.
LOOP = "closed, 1 client"

# ``rounds`` is how many times each input runs, a round apart; an op's
# latency is its fastest repeat, because the host's CPU speed swings by up
# to 1.7x on a scale of seconds.  ``tail_pct`` is fixed per workload so that
# it means the same thing on every commit: p80 on certify, with 20 or more of
# its 95-165 inputs beyond it, and p75 on sweep, whose runs hold 30-36
# inputs (the count beyond it is printed with it).
# ``cycle`` is the length of the mix's pattern in op indices (for certify,
# the cycle of d, which sets most of an op's cost); a run takes whole cycles.
# ``memory_probes`` is how many of the leading inputs each run alone in one
# of the fresh set-up processes to measure the program's peak memory: one
# cycle of the mix, or one input per process where the cycle is longer.
WORKLOADS = {
    "sweep": {
        "mix": "three CLI commands take turns on generated networks: region3 --grid 4 "
               "--pareto (4,096 points, one Pareto chunk) on real-field 3-user networks, "
               "region2 --grid 121 (14,641 rows with beamformer columns) on 2-user "
               "networks with t in 2..4, and region3 --sampler random --count 10000 on "
               "3-user networks; t_i in 2..5 for 3-user networks; region2 and the random "
               "sampler alternate real and complex fields",
        "cycle": 6,
        "rounds": 2,
        "tail_pct": 75,
        "memory_probes": 5,
    },
    "certify": {
        "mix": "one upper-capped problem per op shaped like acceptance criterion 6 "
               "(d in 2..5, real with 1-2 caps or complex with 1 cap), "
               "solved by general_rank_solve(restarts=2), best_rank_one_sweep and "
               "rank_one_search",
        "cycle": 4,
        "rounds": 1,
        "tail_pct": 80,
        "memory_probes": 4,
    },
}
assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]

# End-to-end metrics that BENCHMARK.json does not gate, because they do not
# apply to every workload or read 0 on a correct run.  The suite and compare
# tools print and judge them on the workloads named.
UNGATED = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "certified_ratio", "unit": "ratio", "better": "higher", "bound": 0.1},
]
GATED = BENCHMARK["end_to_end"]
E2E = GATED + UNGATED
APPLIES = {"points_per_s": ("sweep",), "certified_ratio": ("certify",)}
PER_LAYER = BENCHMARK["per_layer"]


def workloads_of(metric: str) -> tuple:
    """The workloads an end-to-end metric is reported on."""
    return tuple(APPLIES.get(metric, WORKLOADS))
