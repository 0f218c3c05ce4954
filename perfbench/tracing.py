"""Spans and counters recorded around the program's public functions.

The program is not edited: each probe replaces a module attribute under the
name its caller looks it up by (``miso_sud.cli.three_user_region`` is what
``cli`` calls, ``miso_sud.region.rank_one_table`` is what the sweep calls)
and restores it afterwards.  Probes record only while an op is open.

Three kinds of probe:
  span  one record per call: name, layer, start, end, parent and op id;
  gen   one record per generator, each ``next()`` timed as an activation;
  leaf  no record, only calls and time (for functions called thousands of
        times per op, such as ``eig_hermitian``), so memory stays bounded.
Self time is a probe's time minus the time of probes nested inside it, so
the self times of one op add up to the op's traced wall time.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute, probe name, layer, kind); SIZES says how many items a
# call produced, counted as "<name>.items"
PROBES = [
    ("cli", "main", "cli.main", "cli", "span"),
    ("cli", "three_user_region", "region.sweep", "region", "gen"),
    ("cli", "m_user_region", "region.sweep", "region", "gen"),
    ("cli", "pareto_prune_samples", "region.pareto", "region", "pareto"),
    ("cli", "two_user_region", "twouser.sweep", "twouser", "span"),
    ("region", "pareto_filter", "region.pareto_filter", "region", "span"),
    ("region", "reduce_interference_frame", "mreduce.frame", "mreduce", "span"),
    ("region", "rank_one_table", "mreduce.table", "mreduce", "span"),
    ("mreduce", "best_rank_one_sweep", "mreduce.sweep", "mreduce", "span"),
    ("twouser", "max_signal_given_interference", "twouser.closed_form", "twouser", "leaf"),
    ("oracle", "general_rank_solve", "oracle.general", "oracle", "span"),
    ("oracle", "rank_one_search", "oracle.search", "oracle", "span"),
    ("oracle", "eig_hermitian", "numlin.eig", "numlin", "leaf"),
    ("oracle", "hermitize", "numlin.hermitize", "numlin", "leaf"),
    ("numlin", "hermitize", "numlin.hermitize", "numlin", "leaf"),
    ("mreduce", "hermitize", "numlin.hermitize", "numlin", "leaf"),
    ("mreduce", "unitary_completion", "numlin.unitary_completion", "numlin", "leaf"),
    ("twouser", "unitary_completion", "numlin.unitary_completion", "numlin", "leaf"),
]

SIZES = {
    "twouser.sweep": len,
    "mreduce.table": lambda result: len(result[0]),
}

ROOT = ("bench.op", "bench")
LAYERS = ("bench", "cli", "region", "mreduce", "twouser", "oracle", "numlin")


class Tracer:
    """In-memory spans and per-probe totals for one traced pass."""

    def __init__(self):
        self.spans = []          # (id, parent, op, name, layer, start, end, busy_s, self_s)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, busy_s, self_s
        self.layer_of = {ROOT[0]: ROOT[1]}
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []         # open frames: [span id, start, child time]
        self._ids = itertools.count(1)
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self):
        for mod, attr, name, layer, kind in PROBES:
            module = importlib.import_module(f"miso_sud.{mod}")
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            self.layer_of[name] = layer
            setattr(module, attr, self._wrap(orig, name, layer, kind))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, fn, name, layer, kind):
        if kind == "gen":
            def probe(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return gen if self.op is None else self._generator(name, layer, gen)
        elif kind == "pareto":
            def probe(samples, *args, **kwargs):
                if self.op is None:
                    return fn(samples, *args, **kwargs)
                out = self.call(name, layer, True, fn, self._counted(samples), *args, **kwargs)
                self.counts["region.pareto_out"] += len(out)
                return out
        else:
            record = kind == "span"
            size = SIZES.get(name)

            def probe(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                out = self.call(name, layer, record, fn, *args, **kwargs)
                if size is not None:
                    self.counts[f"{name}.items"] += size(out)
                return out
        probe.__wrapped__ = fn
        return probe

    # -- recording ----------------------------------------------------
    def _enter(self, sid):
        frame = [sid, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name):
        end = _clock()
        self._stack.pop()
        busy = end - frame[1]
        if self._stack:
            self._stack[-1][2] += busy
        st = self.stats[name]
        st[0] += 1
        st[1] += busy
        st[2] += busy - frame[2]
        return end, busy, busy - frame[2]

    def _parent(self):
        return self._stack[-1][0] if self._stack else 0

    def call(self, name, layer, record, fn, *args, **kwargs):
        """Run ``fn`` inside a probe; spans are kept only when ``record``."""
        parent = self._parent()
        sid = next(self._ids) if record else 0
        frame = self._enter(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            end, busy, own = self._leave(frame, name)
            if record:
                self.spans.append((sid, parent, self.op, name, layer, frame[1], end, busy, own))

    def _generator(self, name, layer, gen):
        sid = next(self._ids)
        parent = first = last = None
        busy = own = 0.0
        try:
            while True:
                if first is None:
                    parent = self._parent()
                frame = self._enter(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last, b, o = self._leave(frame, name)
                    first = frame[1] if first is None else first
                    busy += b
                    own += o
                self.counts[f"{name}.items"] += 1
                yield item
        finally:
            gen.close()
            if first is not None:
                self.spans.append((sid, parent, self.op, name, layer, first, last, busy, own))

    def _counted(self, samples):
        for s in samples:
            self.counts["region.pareto_in"] += 1
            yield s

    # -- results ------------------------------------------------------
    def self_s(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, own) in self.stats.items():
            out[self.layer_of[name]] += own
        return out

    def span_rows(self) -> list:
        keys = ("id", "parent", "op", "name", "layer", "start", "end", "busy_s", "self_s")
        return [dict(zip(keys, s)) for s in self.spans]
