"""Seeded inputs, the timed call into the program, and the output checks.

Each op is generated from ``(workload, seed, index)`` alone, so the same seed
always yields byte-identical configs and problems.  Structure (field, user
count, command) cycles with the op index so every run sees the same mix;
the seed draws antenna counts, channel coefficients, powers, caps and
sampler seeds.

An op has three phases: ``prepare`` (untimed: write the config, build the
problem object), ``execute`` (timed: the call into the program) and
``check`` (untimed: recompute and compare the outputs).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np

from miso_sud import cli, mreduce, oracle

TAGS = {"sweep": 1, "certify": 3}

FRONT3_GRID = 4       # region3 --grid --pareto, real field
EMIT_GRID2 = 121      # region2 --grid
EMIT_COUNT = 10_000   # region3 --sampler random --count
RATE_TOL = 1e-9
CERT_TOL = 1e-3
CHECKED_ROWS = 8


@dataclass
class Op:
    """One generated input of a workload."""

    workload: str
    index: int
    kind: str                 # front3 | region2 | random | certify
    field: str
    channels: list = dc_field(default_factory=list)   # channels[j]: t_j x m, column i = tx j -> rx i
    powers: list = dc_field(default_factory=list)
    grid: int = 0
    count: int = 0
    sample_seed: int = 0
    target: np.ndarray = None
    caps: list = dc_field(default_factory=list)        # (vector, bound) upper caps
    p: float = 0.0
    check_rows: list = dc_field(default_factory=list)  # uniforms in [0, 1) picking rows to recompute

    @property
    def m(self) -> int:
        return len(self.channels)

    def h(self, j: int, i: int) -> np.ndarray:
        return self.channels[j][:, i]

    @property
    def points(self) -> int:
        """Nominal sweep points: product of the grid sizes, or the sample count."""
        if self.kind == "front3":
            total = 1
            for h in self.channels:
                total *= self.grid ** min(h.shape[0], self.m - 1)
            return total
        if self.kind == "region2":
            return self.grid * self.grid
        if self.kind == "random":
            return self.count
        return 0

    def config(self) -> dict:
        chans = []
        for h in self.channels:
            cols = []
            for i in range(h.shape[1]):
                if self.field == "complex":
                    cols.append([[float(v.real), float(v.imag)] for v in h[:, i]])
                else:
                    cols.append([float(v) for v in h[:, i]])
            chans.append(cols)
        return {"m": self.m, "field": self.field,
                "powers": [float(p) for p in self.powers], "channels": chans}

    def argv(self, config_path: str, out_path: str) -> list:
        if self.kind == "front3":
            args = ["region3", "--config", config_path, "--grid", str(self.grid), "--pareto"]
        elif self.kind == "region2":
            args = ["region2", "--config", config_path, "--grid", str(self.grid)]
        else:
            args = ["region3", "--config", config_path, "--sampler", "random",
                    "--count", str(self.count), "--seed", str(self.sample_seed)]
        return args + ["--out", out_path]

    def input_bytes(self) -> bytes:
        """Canonical bytes of everything the program receives."""
        if self.kind == "certify":
            doc = {"target": _vec(self.target), "p": self.p,
                   "caps": [[_vec(v), b] for v, b in self.caps]}
        else:
            doc = {"argv": self.argv("CONFIG", "OUT"), "config": self.config()}
        return json.dumps(doc, sort_keys=True).encode()


def _vec(v):
    return [[float(x.real), float(x.imag)] for x in v] if np.iscomplexobj(v) else [float(x) for x in v]


def _draw_vector(rng, d: int, cplx: bool) -> np.ndarray:
    v = rng.standard_normal(d)
    if cplx:
        v = (v + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
    return v


def _draw_network(rng, m: int, field_: str, t_lo: int, t_hi: int):
    dims = rng.integers(t_lo, t_hi + 1, size=m)
    chans = []
    for t in dims:
        h = rng.standard_normal((int(t), m))
        if field_ == "complex":
            h = (h + 1j * rng.standard_normal((int(t), m))) / np.sqrt(2.0)
        chans.append(h)
    powers = [float(p) for p in rng.uniform(1.0, 10.0, size=m)]
    return chans, powers


def certify_op(seed: int, index: int, d: int, cplx: bool, n_caps: int) -> Op:
    """An upper-capped problem of dimension ``d`` drawn for ``(seed, index)``."""
    rng = np.random.default_rng([TAGS["certify"], seed, index])
    checks = [float(u) for u in rng.uniform(size=CHECKED_ROWS)]
    h = _draw_vector(rng, d, cplx)
    p = float(rng.uniform(0.5, 3.0))
    caps = []
    for _ in range(n_caps):
        g = _draw_vector(rng, d, cplx)
        caps.append((g, float(rng.uniform(0.1, 0.9)) * p * float(np.linalg.norm(g)) ** 2))
    return Op("certify", index, "certify", "complex" if cplx else "real",
              target=h, caps=caps, p=p, check_rows=checks)


def generate(workload: str, seed: int, index: int) -> Op:
    """The index-th op of a workload under a seed (deterministic)."""
    if workload == "certify":
        # one cell of d x field x cap count per index, as in criterion 6; d,
        # which sets most of the cost, cycles fastest so that any run length
        # holds every d about equally often.  A complex problem gets one cap:
        # with two, rank_one_search steps the relative phase on a grid and can
        # end up to 2e-3 below the rank-one optimum
        # (tests: test_certify_search_with_two_complex_caps).
        d = 2 + index % 4
        cplx = (index // 4) % 2 == 1
        n_caps = 1 if cplx else 1 + (index // 8) % 2
        return certify_op(seed, index, d, cplx, n_caps)
    rng = np.random.default_rng([TAGS[workload], seed, index])
    checks = [float(u) for u in rng.uniform(size=CHECKED_ROWS)]
    if workload == "sweep":
        # the three commands take turns; region2 and the random sampler
        # alternate real and complex fields from one turn to the next
        kind = ("front3", "region2", "random")[index % 3]
        field_ = "complex" if kind != "front3" and (index // 3) % 2 else "real"
        if kind == "front3":
            chans, powers = _draw_network(rng, 3, field_, 2, 5)
            return Op(workload, index, kind, field_, chans, powers,
                      grid=FRONT3_GRID, check_rows=checks)
        if kind == "region2":
            chans, powers = _draw_network(rng, 2, field_, 2, 4)
            return Op(workload, index, kind, field_, chans, powers,
                      grid=EMIT_GRID2, check_rows=checks)
        chans, powers = _draw_network(rng, 3, field_, 2, 5)
        return Op(workload, index, kind, field_, chans, powers, count=EMIT_COUNT,
                  sample_seed=int(rng.integers(0, 2**31)), check_rows=checks)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Prepared:
    op: Op
    config_path: str = ""
    out_path: str = ""
    problem: object = None


@dataclass
class Outcome:
    """What an op returned: the exit code or the oracle values."""

    code: int = 0
    general: object = None
    sweep: float = 0.0
    search: object = None


def prepare(op: Op, workdir: str) -> Prepared:
    prep = Prepared(op)
    if op.kind == "certify":
        prep.problem = oracle.ConstrainedMaxProblem(
            target=op.target, caps=tuple((v, b, "upper") for v, b in op.caps), p=op.p)
        return prep
    prep.config_path = os.path.join(workdir, "config.json")
    prep.out_path = os.path.join(workdir, "out.csv")
    with open(prep.config_path, "w", encoding="utf-8") as fh:
        json.dump(op.config(), fh)
    if os.path.exists(prep.out_path):
        os.remove(prep.out_path)
    return prep


def execute(prep: Prepared) -> Outcome:
    """The timed part: one call into the program, looked up at call time."""
    op = prep.op
    if op.kind != "certify":
        return Outcome(code=cli.main(op.argv(prep.config_path, prep.out_path)))
    general = oracle.general_rank_solve(prep.problem, restarts=2)
    sweep = mreduce.best_rank_one_sweep(op.target, op.caps, op.p,
                                        complex_phases=op.field == "complex")[0]
    search = oracle.rank_one_search(prep.problem)
    return Outcome(general=general, sweep=float(sweep), search=search)


# ---------------------------------------------------------------- checks


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    facts: dict = dc_field(default_factory=dict)


def check(prep: Prepared, outcome: Outcome) -> Verdict:
    op = prep.op
    if op.kind == "certify":
        return _check_certify(outcome)
    if outcome.code != 0:
        return Verdict(False, f"exit code {outcome.code}")
    try:
        with open(prep.out_path, "rb") as fh:
            raw = fh.read()
        header, rows = _parse_csv(raw.decode("utf-8"))
    except (OSError, ValueError) as exc:
        return Verdict(False, f"unreadable output: {exc}")
    facts = {"rows": len(rows), "bytes": len(raw)}
    if op.kind == "front3":
        v = _check_front3(op, header, rows)
    elif op.kind == "region2":
        v = _check_region2(op, header, rows)
    else:
        v = _check_random(op, header, rows)
    v.facts = {**facts, **v.facts}
    return v


def _parse_csv(text: str):
    head, _, body = text.rstrip("\n").partition("\n")
    header = head.split(",")
    lines = body.split("\n") if body else []
    if any(ln.count(",") != len(header) - 1 for ln in lines):
        raise ValueError("row width differs from header width")
    rows = np.array(",".join(lines).split(",") if lines else [], dtype=float)
    return header, rows.reshape(len(lines), len(header))


def _rates_close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= RATE_TOL * np.maximum(1.0, np.abs(want))))


def _prefactor(op: Op) -> float:
    return 0.5 if op.field == "real" else 1.0


def _rate(op: Op, signal, interference):
    return _prefactor(op) * np.log2(1.0 + np.asarray(signal) / (1.0 + np.asarray(interference)))


def _frame(op: Op, i: int):
    order = [j for j in range(op.m) if j != i]
    return mreduce.reduce_interference_frame(op.h(i, i), [op.h(i, j) for j in order]), order


def _sweep_header(op: Op, mbars) -> list:
    n_psi = sum(mbars)
    header = [f"psi{k + 1}" for k in range(n_psi)]
    if op.field == "complex" and any(mb > 1 for mb in mbars):
        header += [f"omega{k + 1}" for k in range(n_psi)]
    return header + [f"R{i + 1}" for i in range(op.m)]


def _picked(op: Op, n_rows: int) -> list:
    return sorted({int(u * n_rows) for u in op.check_rows})


def _check_front3(op: Op, header, rows) -> Verdict:
    """Compare the CSV front with a brute-force columnar reference (real field)."""
    tables = []
    for i in range(op.m):
        frame, order = _frame(op, i)
        psi_axes = [np.linspace(0.0, np.pi, op.grid)] * frame.mbar
        angles, _, signal, zsq, _ = mreduce.rank_one_table(frame, op.powers[i], psi_axes, None)
        tables.append((frame.mbar, angles, signal, zsq, order))
    mbars = [t[0] for t in tables]
    if header != _sweep_header(op, mbars):
        return Verdict(False, f"header {header}")
    if len(rows) == 0:
        return Verdict(False, "empty front")

    sizes = [len(t[2]) for t in tables]
    ref = np.empty((int(np.prod(sizes)), op.m))
    for rx in range(op.m):
        shape = [1] * op.m
        shape[rx] = sizes[rx]
        sig = np.broadcast_to(tables[rx][2].reshape(shape), sizes)
        itf = np.zeros(sizes)
        for j in range(op.m):
            if j != rx:
                shape = [1] * op.m
                shape[j] = sizes[j]
                itf = itf + tables[j][3][:, tables[j][4].index(rx)].reshape(shape)
        ref[:, rx] = _rate(op, sig, itf).ravel()

    # every CSV row must be the reference point at its own angles
    lookups = [{tuple(a.tolist()): k for k, a in enumerate(t[1])} for t in tables]
    front = rows[:, -op.m:]
    for r, row in enumerate(rows):
        ks = []
        off = 0
        for i, mb in enumerate(mbars):
            k = lookups[i].get(tuple(row[off:off + mb]))
            off += mb
            if k is None:
                return Verdict(False, f"row {r} angles are not on the grid")
            ks.append(k)
        if not _rates_close(front[r], ref[np.ravel_multi_index(ks, sizes)]):
            return Verdict(False, f"row {r} rates differ from the reference")

    # strict dominance: better in every coordinate by more than the tolerance;
    # weak dominance: no worse in any coordinate by more than the tolerance
    tol = RATE_TOL
    if np.any(np.all(ref[:, None, :] > front[None, :, :] + tol, axis=2)):
        return Verdict(False, "a reference point strictly dominates a front row")
    covered = np.any(np.all(front[None, :, :] >= ref[:, None, :] - tol, axis=2), axis=1)
    if not np.all(covered):
        return Verdict(False, f"{int(np.sum(~covered))} reference points not covered by the front")
    distinct = len({tuple(p) for p in front.tolist()})
    return Verdict(True, facts={"front_distinct": distinct})


def _check_region2(op: Op, header, rows) -> Verdict:
    """Row count, header, and rates recomputed from the beam columns by SINR."""
    cplx = op.field == "complex"
    want = ["psi1", "psi2", "R1", "R2"]
    for i in range(2):
        t = op.channels[i].shape[0]
        for k in range(t):
            want += [f"gamma{i + 1}_{k + 1}_re", f"gamma{i + 1}_{k + 1}_im"] if cplx else [
                f"gamma{i + 1}_{k + 1}"]
    if header != want:
        return Verdict(False, f"header {header}")
    if len(rows) != op.grid * op.grid:
        return Verdict(False, f"{len(rows)} rows, expected {op.grid * op.grid}")
    t1 = op.channels[0].shape[0]
    for r in _picked(op, len(rows)):
        vals = rows[r, 4:]
        if cplx:
            beams = vals[0::2] + 1j * vals[1::2]
        else:
            beams = vals
        g = (beams[:t1], beams[t1:])
        for i in range(2):
            if float(np.vdot(g[i], g[i]).real) > op.powers[i] * (1.0 + RATE_TOL):
                return Verdict(False, f"row {r} beam {i + 1} exceeds its power budget")
        rates = []
        for i in range(2):
            other = 1 - i
            sig = abs(np.vdot(op.h(i, i), g[i])) ** 2
            itf = abs(np.vdot(op.h(other, i), g[other])) ** 2
            rates.append(_rate(op, sig, itf))
        if not _rates_close(rows[r, 2:4], rates):
            return Verdict(False, f"row {r} rates differ from the SINR of its beams")
    return Verdict(True)


def _check_random(op: Op, header, rows) -> Verdict:
    """Row count, header, and rates recomputed through rank_one_table."""
    frames = [_frame(op, i) for i in range(op.m)]
    mbars = [f.mbar for f, _ in frames]
    if header != _sweep_header(op, mbars):
        return Verdict(False, f"header {header}")
    if len(rows) != op.count:
        return Verdict(False, f"{len(rows)} rows, expected {op.count}")
    n_psi = sum(mbars)
    with_omega = op.field == "complex" and any(mb > 1 for mb in mbars)
    for r in _picked(op, len(rows)):
        row = rows[r]
        signal = np.zeros(op.m)
        itf = np.zeros(op.m)
        off = 0
        for i, (frame, order) in enumerate(frames):
            psi_axes = [np.array([v]) for v in row[off:off + frame.mbar]]
            omega_axes = None
            if with_omega:
                omega_axes = [np.array([v]) for v in row[n_psi + off:n_psi + off + frame.mbar]]
            off += frame.mbar
            _, _, sig, zsq, _ = mreduce.rank_one_table(frame, op.powers[i], psi_axes, omega_axes)
            signal[i] = sig[0]
            for c, rx in enumerate(order):
                itf[rx] += zsq[0, c]
        if not _rates_close(row[-op.m:], _rate(op, signal, itf)):
            return Verdict(False, f"row {r} rates differ from rank_one_table at its angles")
    return Verdict(True)


def _check_certify(outcome: Outcome) -> Verdict:
    """The criterion-6 gate plus agreement of the two rank-one oracles."""
    general = float(outcome.general.value)
    sweep = outcome.sweep
    search = float(outcome.search.value)
    gap = (general - sweep) / max(1.0, abs(general))
    spread = abs(sweep - search) / max(1.0, abs(search))
    facts = {"certified": bool(outcome.general.certified), "gap": gap, "spread": spread}
    if not gap <= CERT_TOL:
        return Verdict(False, f"general - sweep gap {gap:.3e} exceeds {CERT_TOL}", facts)
    if not spread <= CERT_TOL:
        return Verdict(False, f"|sweep - search| {spread:.3e} exceeds {CERT_TOL}", facts)
    return Verdict(True, facts=facts)
