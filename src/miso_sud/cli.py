"""Command-line front end.

Subcommands cover the region sweeps (two-user, three-user, m-user,
interference-limited), the scalar and FDM baselines, the zero-forcing point,
Pareto/hull post-processing, and a verification suite runner.  Outputs are
deterministic: CSV rows are sorted by their parameter tuples and floats are
serialized with shortest round-trip precision.

The sweep commands write from the region module's block stream (per-user
tables, per-user row indices, rates) and build no per-sample objects: each
table row's angle and beam text is formatted once and gathered per output
row, and only the rates are formatted row by row.  Under --pareto a grid
sweep first drops, from each user's table, the rows that another row of it
beats (at least the signal, at most every leak), then writes the exact
Pareto front of the cross product of what is left: the sweep's distinct
front points, without the angle rows that tie them through a beaten row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np

from .mreduce import sweeps_phases
from .numlin import FeasibilityError, NumericalError
from .region import (
    MisoNetwork,
    _cat,
    _cross_blocks,
    _grid_tables,
    _pareto_blocks,
    _pruned_tables,
    _region_blocks,
    pareto_hull,
    zf_point,
)
from .twouser import _engine_tables, fdm_region, fdm_zf_threshold, scalar_sud_sum_rate

# not called by the sweeps, which write from blocks; kept so perfbench/tracing.py can patch them
from .region import m_user_region, pareto_prune_samples, three_user_region  # noqa: F401
from .twouser import two_user_region  # noqa: F401

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _entry_to_number(entry):
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ConfigError("complex entries must be [re, im] pairs")
        return complex(float(entry[0]), float(entry[1]))
    return float(entry)


def _parse_channels(raw, field: str):
    has_pairs = any(
        isinstance(e, (list, tuple))
        for block in raw
        for col in block
        for e in col
    )
    if has_pairs and field == "real":
        raise ConfigError("real field requested but channel entries have imaginary parts")
    mats = []
    for block in raw:
        cols = []
        for col in block:
            vals = [_entry_to_number(e) for e in col]
            cols.append([complex(v) for v in vals] if has_pairs else vals)
        mats.append(np.array(cols).T)
    return tuple(mats)


def load_network(cfg: dict, force_real: bool = False) -> MisoNetwork:
    """Build a network from a parsed config document."""
    try:
        raw = cfg["channels"]
        powers = tuple(float(p) for p in cfg["powers"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config must provide channels and powers: {exc}") from None
    field = cfg.get("field", "complex")
    if force_real:
        field = "real"
    channels = _parse_channels(raw, field)
    try:
        return MisoNetwork(channels=channels, powers=powers, field=field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def network_config(net: MisoNetwork) -> dict:
    """Serializable document that load_network parses back identically."""
    chans = []
    for h in net.channels:
        cols = []
        for i in range(h.shape[1]):
            col = h[:, i]
            if net.field == "complex" and np.iscomplexobj(h):
                cols.append([[float(v.real), float(v.imag)] for v in col])
            else:
                cols.append([float(np.real(v)) for v in col])
        chans.append(cols)
    return {"channels": chans, "powers": list(net.powers), "field": net.field}


def _two_user_from_network(net: MisoNetwork) -> MisoNetwork:
    if net.m != 2:
        raise ConfigError("this subcommand needs a two-user config")
    return net


def _load_config_file(path: str) -> dict:
    """Read a JSON config; a bare bundled name resolves when no file exists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        name = os.path.basename(path)
        if name == path:
            # bare name, no directory part: fall back to the packaged configs
            if name.endswith(".json"):
                name = name[:-5]
            try:
                return bundled_config(name)
            except OSError:
                pass
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def bundled_config(name: str) -> dict:
    """Load one of the packaged example configuration documents."""
    ref = resources.files("miso_sud").joinpath("configs", f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _beam_columns(tag: str, length: int, cplx: bool):
    parts = ("_re", "_im") if cplx else ("",)
    return [f"{tag}_{k + 1}{part}" for k in range(length) for part in parts]


def _write_text(path, chunks):
    """Write an iterable of text chunks to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _text(rows) -> np.ndarray:
    """Object array of each float row as comma-joined repr (shortest round trip) text."""
    out = np.empty(len(rows), dtype=object)
    out[:] = [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
    return out


def _write_rows(path, header, rows):
    """Write CSV, a header and then the float rows, to path or stdout."""
    _write_text(path, [",".join(header) + "\n", *(line + "\n" for line in _text(rows))])


# rows formatted per step
_ROWS_PER_STEP = 4096


def _emit_blocks(blocks, net, out, with_beams, pareto=False):
    """Write a sweep's block stream as CSV rows sorted by their angle keys.

    The psi1..psiK columns are each user's mbar_i angles concatenated in user
    order, where mbar_i is the rank of user i's cross channels, so a user
    whose cross channels vanish adds no column; omega columns follow suit,
    then the rates and the beams (complex ones as interleaved re, im).
    pareto keeps the rows that no row of the stream dominates; one stable
    lexsort on the angle columns orders the rows.
    """
    rows = _pareto_blocks(blocks) if pareto else _cat(list(blocks))
    if rows is None:
        raise NumericalError("sweep produced no samples")
    tables, idx = rows.tables, rows.idx
    cplx = any(np.iscomplexobj(t.beams) for t in tables)
    widths = [t.psi.shape[1] for t in tables]
    with_omegas = any(sweeps_phases(k, net.field == "complex") for k in widths)

    header = [f"psi{k + 1}" for k in range(sum(widths))]
    angles = [(t.psi, ix) for t, ix in zip(tables, idx) if t.psi.shape[1]]
    if with_omegas:
        header += [f"omega{k + 1}" for k in range(sum(widths))]
        angles += [(t.omega, ix) for t, ix in zip(tables, idx) if t.psi.shape[1]]
    header += [f"R{i + 1}" for i in range(net.m)]
    beams = []
    if with_beams:
        for i, (t, ix) in enumerate(zip(tables, idx)):
            header += _beam_columns(f"gamma{i + 1}", t.beams.shape[1], cplx)
            cols = t.beams.astype(complex).view(float) if cplx else np.real(t.beams)
            beams.append((_text(cols), ix))

    keys = [a[ix, k] for a, ix in angles for k in range(a.shape[1])]
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(rows))
    angles = [(_text(a), ix) for a, ix in angles]

    def lines():
        yield ",".join(header) + "\n"
        for start in range(0, len(order), _ROWS_PER_STEP):
            pick = order[start:start + _ROWS_PER_STEP]
            cols = [text[ix[pick]] for text, ix in angles] + [_text(rows.rates[pick])]
            cols += [text[ix[pick]] for text, ix in beams]
            yield "".join(",".join(parts) + "\n" for parts in zip(*cols))

    _write_text(out, lines())


def _add_common(p, network: bool = True):
    if network:
        p.add_argument("--config", required=True, help="JSON network config path")
        p.add_argument("--real", action="store_true",
                       help="treat the channel as real-valued (half prefactor)")
        p.add_argument("--dump-config", metavar="PATH",
                       help="write the parsed config back out and continue")
    p.add_argument("--nats", action="store_true", help="rates in nats instead of bits")
    p.add_argument("--out", help="output path (default stdout)")


def _prepare_network(args):
    cfg = _load_config_file(args.config)
    net = load_network(cfg, force_real=args.real)
    if getattr(args, "dump_config", None):
        _write_text(args.dump_config, [json.dumps(network_config(net), indent=2) + "\n"])
    return net


def _cmd_region2(args):
    """region2, or ilregion with the caps from --q1/--q2 or the config's 'q'."""
    net = _two_user_from_network(_prepare_network(args))
    grids = (args.grid1 or args.grid, args.grid2 or args.grid)
    caps = None
    if args.command == "ilregion":
        cfg_q = _load_config_file(args.config).get("q", [None, None])
        q1 = args.q1 if args.q1 is not None else cfg_q[0]
        q2 = args.q2 if args.q2 is not None else cfg_q[1]
        if q1 is None or q2 is None:
            raise ConfigError("ilregion needs interference caps --q1/--q2 (or 'q' in the config)")
        caps = (float(q1), float(q2))
    blocks = _sweep(net, _engine_tables(net, caps, *grids), args)
    _emit_blocks(blocks, net, args.out, with_beams=True, pareto=args.pareto)
    return 0


def _sweep(net, tables, args):
    """Blocks over the cross product of per-user tables, each table pruned to
    the rows no other row of it beats under --pareto (region._pruned_tables)."""
    return _cross_blocks(net, _pruned_tables(tables) if args.pareto else tables, args.nats)


def _region_m(args, need_m=None):
    net = _prepare_network(args)
    if need_m is not None and net.m != need_m:
        raise ConfigError(f"this subcommand needs an m={need_m} config")
    if args.sampler == "random":
        blocks = _region_blocks(net, sampler="random", seed=args.seed, count=args.count,
                                nats=args.nats)
    else:
        blocks = _sweep(net, _grid_tables(net, args.grid), args)
    _emit_blocks(blocks, net, args.out, with_beams=False, pareto=args.pareto)
    return 0


def _cmd_zf(args):
    net = _prepare_network(args)
    sample = zf_point(net, nats=args.nats)
    header = [f"R{i + 1}" for i in range(net.m)]
    _write_rows(args.out, header, [sample.rates])
    return 0


def _cmd_fdm(args):
    net = _two_user_from_network(_prepare_network(args))
    points = fdm_region(net, grid=args.grid, nats=args.nats)
    alphas = np.linspace(0.0, 1.0, args.grid)
    rows = [[float(a), p.r1, p.r2] for a, p in zip(alphas, points)]
    _write_rows(args.out, ["alpha", "R1", "R2"], rows)
    return 0


def _cmd_scalar_sum(args):
    rate, corner = scalar_sud_sum_rate(args.p1, args.p2, args.a, args.b,
                                       nats=args.nats)
    doc = {"sum_rate": rate, "argmax": list(corner)}
    _write_text(args.out or None, [json.dumps(doc, indent=2) + "\n"])
    return 0


def _cmd_hull(args):
    net = _prepare_network(args)
    # the pruned tables reach the sweep's downward closure with far fewer rows
    blocks = _cross_blocks(net, _pruned_tables(_grid_tables(net, args.grid)), args.nats)
    points = pareto_hull(np.concatenate([b.rates for b in blocks]), mode=args.mode)
    rows = sorted(list(p) for p in points)
    _write_rows(args.out, [f"R{i + 1}" for i in range(net.m)], rows)
    return 0


def _example1_problem():
    from .oracle import ConstrainedMaxProblem  # loads scipy, so only on demand

    cfg = bundled_config("example1")
    caps = tuple(
        (np.array(c["vector"], dtype=float), float(c["bound"]), c["kind"])
        for c in cfg["caps"]
    )
    return ConstrainedMaxProblem(
        target=np.array(cfg["target"], dtype=float), caps=caps, p=float(cfg["p"])
    )


def _suite_example1():
    from .oracle import general_rank_solve, rank_one_search

    prob = _example1_problem()
    general = general_rank_solve(prob)
    rank_one = rank_one_search(prob, starts=50, seed=0)
    lam = np.linalg.eigvalsh(general.s)
    rank = int(np.sum(lam > 1e-6 * float(lam.max())))
    passed = (
        general.value >= 7.10
        and abs(rank_one.value - 7.0805) <= 0.01
        and rank == 2
    )
    return {
        "general_rank_value": general.value,
        "rank_one_value": rank_one.value,
        "general_rank": rank,
        "expected": [7.1100, 7.0805],
        "pass": bool(passed),
    }


def _suite_fig7():
    net_cfg = bundled_config("paper_sec4")
    expected = [1.8118, 2.2998, 2.3077]
    attempts = []
    for field in ("real", "complex"):
        doc = dict(net_cfg)
        doc["field"] = field
        net = load_network(doc)
        for nats in (False, True):
            rates = zf_point(net, nats=nats).rates
            label = ("natural" if nats else "base2") + (
                "-half" if field == "real" else ""
            )
            ok = all(abs(r - e) <= 1e-3 for r, e in zip(rates, expected))
            attempts.append({"convention": label, "rates": list(rates), "pass": ok})
            if ok:
                return {
                    "rates": list(rates),
                    "expected": expected,
                    "base": "natural" if nats else "base2",
                    "prefactor": 0.5 if field == "real" else 1.0,
                    "attempts": attempts,
                    "pass": True,
                }
    return {"expected": expected, "attempts": attempts, "pass": False}


def _suite_eq79():
    lo = fdm_zf_threshold(1e-9)
    hi = fdm_zf_threshold(1e9)
    mid = fdm_zf_threshold(4.0)
    passed = (1 - 1e-4 <= lo <= 1.0) and hi <= 1e-2 and abs(mid - np.sqrt(0.5)) <= 1e-12
    return {
        "threshold_p_small": lo,
        "threshold_p_large": hi,
        "threshold_p_4": mid,
        "pass": bool(passed),
    }


_SUITES = {"example1": _suite_example1, "fig7": _suite_fig7, "eq79": _suite_eq79}


def _cmd_verify(args):
    report = _SUITES[args.suite]()
    _write_text(args.out or None, [json.dumps(report, indent=2) + "\n"])
    return 0 if report["pass"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="miso-sud",
                     description="Achievable rate regions of interference "
                                 "networks under single-user detection")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, caps in (("region2", False), ("ilregion", True)):
        p = sub.add_parser(name, help="two-user sweep under interference caps"
                           if caps else "two-user region sweep")
        _add_common(p)
        p.add_argument("--grid", type=int, default=181)
        p.add_argument("--grid1", type=int, default=0)
        p.add_argument("--grid2", type=int, default=0)
        if caps:
            p.add_argument("--q1", type=float, default=None)
            p.add_argument("--q2", type=float, default=None)
        p.add_argument("--pareto", action="store_true")
        p.set_defaults(func=_cmd_region2)

    for name, need in (("region3", 3), ("regionm", None)):
        p = sub.add_parser(name, help=f"{'three' if need else 'm'}-user region sweep")
        _add_common(p)
        p.add_argument("--grid", type=int, default=24)
        p.add_argument("--sampler", choices=("grid", "random"), default="grid")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=10**6)
        p.add_argument("--pareto", action="store_true")
        p.set_defaults(func=lambda a, _n=need: _region_m(a, _n))

    p = sub.add_parser("zf", help="zero-forcing rate point")
    _add_common(p)
    p.set_defaults(func=_cmd_zf)

    p = sub.add_parser("fdm", help="frequency-division baseline region")
    _add_common(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_fdm)

    p = sub.add_parser("scalar-sum", help="scalar-channel maximum sum rate")
    _add_common(p, network=False)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_scalar_sum)

    p = sub.add_parser("hull", help="boundary points of a sweep")
    _add_common(p)
    p.add_argument("--grid", type=int, default=24)
    p.add_argument("--mode", choices=("pareto", "hull"), default="pareto")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FeasibilityError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError, and the argument checks of the sweep drivers (grid sizes, caps)
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
