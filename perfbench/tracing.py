"""The traced run: spans and counts at the boundaries of redarg's modules.

Tracing is installed from outside the package.  Each traced function is
replaced by a wrapper under every name that holds it in a ``redarg.*``
module namespace, so calls between modules and calls inside a module
both go through the wrapper; ``App.__post_init__`` is replaced on the
class.  Nothing is installed during the timed runs.

Spans live in flat arrays (name, parent, start, end) until the run
ends.  A span's self time is its duration minus the durations of its
direct children; the self times of every span, the harness's own root
span included, add up to the time the roots cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function): a span records each call
SPANS = [
    ("cli", "main"),
    ("trs", "parse_trs"),
    ("trs", "parse_term"),
    ("trs", "build_property_report"),
    ("trs", "critical_pairs"),
    ("trs", "check_completely_defined"),
    ("analysis", "analyze"),
    ("analysis", "variable_case"),
    ("analysis", "pattern_case"),
    ("analysis", "check_triple"),
    ("erasure", "erase_trs"),
    ("erasure", "reduced_erasure"),
    ("rewrite", "normalize"),
    ("rewrite", "successors"),
    ("rewrite", "bounded_semantics"),
    ("oracle", "brute_force_redundant"),
    ("oracle", "enumerate_contexts"),
    ("oracle", "enumerate_ground_terms"),
    ("oracle", "differential_verify"),
    ("oracle", "random_ground_term"),
]

# (module, function): only calls are counted; these run too often for spans
COUNTED = [
    ("analysis", "fi_triples"),
    ("terms", "unify"),
    ("terms", "unify_up_to_arg"),
    ("terms", "match"),
    ("rewrite", "rewrite_step"),
    ("oracle", "plug"),
]

ROOT_SPAN = "bench.op"


def _observers(counts: dict) -> dict:
    """Counts read from return values, keyed by span or counter name."""

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    return {
        "trs.critical_pairs": lambda r: add("trs.critical_pairs.pairs", len(r)),
        "analysis.analyze": lambda r: add("analysis.rounds", r.rounds),
        "rewrite.normalize": lambda r: add("rewrite.steps", r.steps),
        "rewrite.successors": lambda r: add("rewrite.successors.terms", len(r)),
        "rewrite.bounded_semantics":
            lambda r: add("rewrite.bounded_semantics.truncated", int(r.truncated)),
        "terms.match": lambda r: add("terms.match.hits", r is not None),
        "erasure.reduced_erasure": lambda r: add("erasure.reduced_erasure.aborts", int(bool(r[1]))),
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn, observe):
        nid = self._name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn, observe):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self) -> None:
        import redarg.terms

        observers = _observers(self.counts)
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, func in table:
                name = f"{module}.{func}"
                original = getattr(sys.modules[f"redarg.{module}"], func)
                self._rebind(original, make(name, original, observers.get(name)))

        app = redarg.terms.App
        post_init = app.__post_init__
        counts = self.counts

        def counted_post_init(node):
            counts["terms.App.constructed"] = counts.get("terms.App.constructed", 0) + 1
            post_init(node)

        app.__post_init__ = counted_post_init
        self._undo.append((app, "__post_init__", post_init))

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "redarg" and not modname.startswith("redarg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and call count per span name, and the seconds the
        root spans cover."""
        n = len(self.start)
        child = [0.0] * n
        roots = 0.0
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
            else:
                roots += dur
        selfs = {name: 0.0 for name in self.names}
        calls = {name: 0 for name in self.names}
        for sid in range(n):
            name = self.names[self.name_of[sid]]
            selfs[name] += self.end[sid] - self.start[sid] - child[sid]
            calls[name] += 1
        return selfs, calls, roots

    def write(self, path: Path) -> None:
        """Spans as four arrays in native byte order after a one-line JSON
        header that names them."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def span_metric(name: str) -> str:
    """A span's self time, as a share of the traced wall time.  A
    share, not seconds: a layer that a workload never calls reads 0 on
    every run, and a time that never changes would look like no
    measurement at all."""
    return f"{name}.self_pct"


# Per-layer metrics every traced run reports: (name, unit, better).
PER_LAYER = (
    [(span_metric(f"{m}.{f}"), "%", "lower") for m, f in SPANS]
    + [
        (span_metric(ROOT_SPAN), "%", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.gap_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trs.build_property_report.calls_per_op", "count", "lower"),
        ("trs.critical_pairs.pairs", "count", "lower"),
        ("analysis.rounds", "count", "lower"),
        ("analysis.pattern_case.calls", "count", "lower"),
        ("analysis.fi_triples.calls", "count", "lower"),
        ("terms.unify.calls", "count", "lower"),
        ("terms.unify_up_to_arg.calls", "count", "lower"),
        ("rewrite.steps", "count", "lower"),
        ("rewrite.us_per_step", "us/step", "lower"),
        ("rewrite.rewrite_step.calls", "count", "lower"),
        ("rewrite.successors.calls", "count", "lower"),
        ("rewrite.successors.terms", "count", "lower"),
        ("rewrite.bounded_semantics.calls", "count", "lower"),
        ("rewrite.bounded_semantics.truncated", "count", "lower"),
        ("oracle.cases", "count", "higher"),
        ("oracle.seval_hit_ratio", "ratio", "higher"),
        ("terms.match.calls", "count", "lower"),
        ("terms.match.hit_ratio", "ratio", "higher"),
        ("terms.App.constructed", "count", "lower"),
        ("erasure.reduced_erasure.calls", "count", "lower"),
        ("erasure.reduced_erasure.aborts", "count", "lower"),
    ]
)


def per_layer(tracer: Tracer, ops: int, wall: float, untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric from `ops` traced operations that took
    `wall` seconds, and `untraced_wall` seconds without tracing."""
    selfs, calls, roots = tracer.self_times()
    c = dict(tracer.counts)
    for name, k in calls.items():
        c[f"{name}.calls"] = k
    normalize_s = sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer.start))
        if tracer.names[tracer.name_of[i]] == "rewrite.normalize"
    )
    steps = c.get("rewrite.steps", 0)
    cases = c.get("oracle.plug.calls", 0) // 2  # the oracle plugs each case twice
    seval = c.get("rewrite.bounded_semantics.calls", 0)
    matches = c.get("terms.match.calls", 0)
    values = {
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(selfs.values()),
        "trace.gap_s": wall - roots,
        "trace.overhead": wall / untraced_wall,
        "trace.spans": len(tracer.start),
        "trs.build_property_report.calls_per_op":
            c.get("trs.build_property_report.calls", 0) / ops,
        "rewrite.us_per_step": 1e6 * normalize_s / steps if steps else 0.0,
        "oracle.cases": cases,
        "oracle.seval_hit_ratio": 1 - seval / (2 * cases) if cases else 0.0,
        "terms.match.hit_ratio": c.get("terms.match.hits", 0) / matches if matches else 0.0,
    }
    for name in [f"{m}.{f}" for m, f in SPANS] + [ROOT_SPAN]:
        values[span_metric(name)] = 100 * selfs.get(name, 0.0) / wall
    for name, _, _ in PER_LAYER:
        values.setdefault(name, c.get(name, 0))
    return values
