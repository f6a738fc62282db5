"""Span tracing of nplabel from outside the program, and the per-layer
metrics derived from the spans.

While installed, a Tracer replaces each target (a dotted name such as
``nplabel.treescan.find_labeling``) with a wrapper that records a span:
id, parent span, repetition, name, start, end and a few attributes taken
from the arguments and the result.  Only names that callers look up at call
time are wrapped, so the program's own calls go through the wrappers.
Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.

Splitting enumeration into sequence walk, Graph build and canonical filter,
or search into CSR/order build and kernel, needs spans inside the program;
this tracer does not attempt it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from nplabel.treescan import ahu_canonical


class TraceGuardError(RuntimeError):
    """A wrapped name is missing or was never called during its workload."""


def _search_attrs(args, out):
    g = args[0]
    return {"n": g.n, "nodes": out.nodes_explored, "status": out.status, "graph": g}


# Attributes recorded per wrapped function name.  "graph" is kept in memory
# only (for the hardest-tree report) and never written out.
_ATTRS = {
    "find_labeling": _search_attrs,
    "generate": lambda args, out: {"vertices": out.n},
    "verify": lambda args, out: {"vertices": args[0].n},
    "coprime_matching": lambda args, out: {"n": args[0]},
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    rep: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.calls = {t: 0 for t in self.targets}
        self.rep = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._saved = []

    def install(self, rep: int) -> None:
        """Wrap every target; raise TraceGuardError if one does not exist."""
        self.rep = rep
        for target in self.targets:
            module_name, _, attr = target.rpartition(".")
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise TraceGuardError("%s is missing or not callable; the "
                                      "layer it measures would read 0" % target)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def check_called(self, workload: str) -> None:
        never = [t for t, n in self.calls.items() if n == 0]
        if never:
            raise TraceGuardError(
                "never called during workload %s: %s; the layers they measure "
                "would read 0" % (workload, ", ".join(never)))

    def _open(self, target):
        self.calls[target] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return span_id, parent

    def _wrap(self, target, fn):
        name = target.replace("nplabel.", "", 1)
        attrs = _ATTRS.get(target.rpartition(".")[2])

        if inspect.isgeneratorfunction(fn):
            # The span runs from the call to exhaustion and counts the items;
            # it is not pushed as a parent, since the caller runs between items.
            def gen_wrapper(*args, **kwargs):
                span_id, parent = self._open(target)
                start = time.perf_counter()
                count = 0
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
                self.spans.append(Span(span_id, parent, self.rep, name, start,
                                       time.perf_counter(), {"trees": count}))

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span_id, parent = self._open(target)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            self.spans.append(Span(span_id, parent, self.rep, name, start, end,
                                   attrs(args, out) if attrs else {}))
            return out

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line, in order of completion."""
        with open(path, "w") as fh:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "rep": s.rep,
                       "name": s.name, "start": s.start, "end": s.end}
                row.update((k, v) for k, v in s.attrs.items() if k != "graph")
                fh.write(json.dumps(row) + "\n")


# -- per-layer metrics -------------------------------------------------------

_TREE_LABELERS = {"labelers.label_bivalent_free", "labelers.label_full_binary"}


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]):
    """Per-layer metrics of one repetition's spans, and the names of those
    whose layer the workload never entered (they read 0)."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    names = {}
    for s in spans:
        by_name[s.name].append(s)
        names[s.id] = s.name
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    m = {}
    absent = set()

    def layer(span_names, values):
        m.update(values)
        if not any(by_name[n] for n in span_names):
            absent.update(values)

    def total(*span_names, key=None):
        return sum(s.attrs[key] if key else s.seconds
                   for n in span_names for s in by_name[n])

    enum = "treescan.enumerate_free_trees"
    layer([enum], {"treescan.enum_s": total(enum),
                   "treescan.enum_trees": total(enum, key="trees")})
    kind = "treescan.find_labeling"
    searches = by_name[kind]
    nodes = [s.attrs["nodes"] for s in searches] or [0]
    found = [s for s in searches if s.attrs["status"] == "found"]
    seconds = sum(s.seconds for s in searches)
    status = [s.attrs["status"] for s in searches]
    layer([kind], {
        "search.calls": len(searches),
        "search.s": seconds,
        "search.nodes": sum(nodes),
        "search.nodes_per_s": _ratio(sum(nodes), seconds),
        "search.nodes_p50": _nearest_rank(nodes, 0.50),
        "search.nodes_p99": _nearest_rank(nodes, 0.99),
        "search.nodes_max": max(nodes),
        "search.call_ms_p99": 1000 * _nearest_rank(
            [s.seconds for s in searches] or [0.0], 0.99),
        "search.useful_ratio": _ratio(sum(s.attrs["n"] for s in found),
                                      sum(s.attrs["nodes"] for s in found)),
        "search.found": status.count("found"),
        "search.exhausted": status.count("exhausted"),
        "search.inconclusive": status.count("inconclusive"),
    })

    matchings = by_name["labelers.coprime_matching"]
    layer(["labelers.coprime_matching", "labelers.bertrand_prime"], {
        "numtheory.coprime_matching_even_s": sum(
            s.seconds for s in matchings if s.attrs["n"] % 2 == 0),
        "numtheory.coprime_matching_odd_s": sum(
            s.seconds for s in matchings if s.attrs["n"] % 2 == 1),
        "numtheory.coprime_matching_calls": len(matchings),
        "numtheory.bertrand_prime_s": total("labelers.bertrand_prime"),
    })

    # Labeler times are inclusive and count only the outermost labeler span,
    # so a labeler called by another (label_path from label_caterpillar) is
    # not counted twice.
    labelers = [n for n in by_name if n.startswith("labelers.label_")]
    outer = [s for n in labelers for s in by_name[n]
             if not names.get(s.parent, "").startswith("labelers.label_")]
    own = ("labelers.label_caterpillar", "labelers.label_firecracker")
    layer(labelers + ["labelers.verify"], {
        "labelers.caterpillar_s": sum(
            s.seconds for s in outer if s.name == "labelers.label_caterpillar"),
        "labelers.firecracker_self_s": sum(
            s.seconds - child_s[s.id] for s in by_name["labelers.label_firecracker"]),
        "labelers.tree_s": sum(s.seconds for s in outer if s.name in _TREE_LABELERS),
        "labelers.other_s": sum(s.seconds for s in outer
                                if s.name not in _TREE_LABELERS and s.name not in own),
        "labelers.verify_calls": len(by_name["labelers.verify"]),
    })

    verifies = ("cli.verify", "labelers.verify")
    verify_s = total(*verifies)
    layer(verifies, {
        "graph.verify_s": verify_s,
        "graph.verify_calls": sum(len(by_name[n]) for n in verifies),
        "graph.verify_vertices_per_s": _ratio(total(*verifies, key="vertices"),
                                              verify_s),
    })

    generate_s = total("cli.generate")
    layer(["cli.generate"], {
        "families.generate_s": generate_s,
        "families.generate_vertices_per_s": _ratio(
            total("cli.generate", key="vertices"), generate_s),
    })

    layer(["cli.main"], {"cli.label_self_s": sum(
        s.seconds - child_s[s.id] for s in by_name["cli.main"])})
    return m, absent


def hardest_trees(spans: List[Span], count: int = 5):
    """The ``count`` searched trees with most nodes, hardest first, as their
    canonical code and node count."""
    searches = [s for s in spans if s.name == "treescan.find_labeling"]
    searches.sort(key=lambda s: -s.attrs["nodes"])
    return [{"code": ahu_canonical(s.attrs["graph"]), "nodes": s.attrs["nodes"]}
            for s in searches[:count]]


def aggregate(per_rep: List[Dict[str, float]], units: Dict[str, str]):
    """Counts come from the first traced repetition, so they repeat exactly
    for a given seed; every other metric is the median over repetitions."""
    return {name: per_rep[0][name] if units[name] == "count"
            else statistics.median(r[name] for r in per_rep)
            for name in per_rep[0]}
