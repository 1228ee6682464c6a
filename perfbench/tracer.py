"""Outside-in tracer for the patlab benchmark.

The library is never edited.  `install` rebinds each traced public function
at every name a patlab module binds it to (so `oracle.avoider_list`, which
oracle imports by name, is traced as well as `perms.avoider_list`), patches
class methods on their class, and puts every original back on exit.

There are two kinds of wrapper:

- a span wrapper records one span per call: name, start, end, parent span
  and a few attributes (cache hit, pattern, order, ...);
- a counting wrapper, for fine-grained calls, adds the call and its seconds
  to the innermost open span instead of recording a span.

A call made from inside the same layer belongs to the outer call: a span
whose parent has the same name is folded into the parent, and a counting
wrapper counts only the outermost call of its layer.  Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

DFS_CLASSES = ("123", "321")
ASSEMBLER_CLASSES = ("132", "231", "312", "213")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)   # layer -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._active: set[str] = set()   # counted layers with a call in progress

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.clock(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def add_count(self, layer: str, seconds: float) -> None:
        if not self._open:
            raise RuntimeError(f"counted call to {layer} outside any span")
        c = self._open[-1].counts.setdefault(layer, [0, 0.0])
        c[0] += 1
        c[1] += seconds

    def subtree(self, root: Span) -> list[Span]:
        """root and every span below it."""
        below = {root.id}
        out = [root]
        for s in self.spans[root.id + 1:]:   # spans are stored in start order
            if s.parent in below:
                below.add(s.id)
                out.append(s)
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# -- wrappers -------------------------------------------------------------------

def _span_wrapper(tracer, layer, fn, describe, cache):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        hits = cache.cache_info().hits if cache is not None else 0
        with tracer.span(layer) as s:
            result = fn(*args, **kwargs)
        _annotate(s, sig, args, kwargs, result, describe, cache, hits)
        return result
    return wrapper


def _generator_span_wrapper(tracer, layer, fn, describe, cache):
    # The span covers producing every item, not the consumer's loop body.
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        hits = cache.cache_info().hits if cache is not None else 0
        with tracer.span(layer) as s:
            items = list(fn(*args, **kwargs))
        _annotate(s, sig, args, kwargs, items, describe, cache, hits)
        yield from items
    return wrapper


def _annotate(s, sig, args, kwargs, result, describe, cache, hits):
    if cache is not None:
        s.attrs["hit"] = cache.cache_info().hits > hits
    if describe is not None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        s.attrs.update(describe(bound.arguments, result))


def _count_wrapper(tracer, layer, fn):
    def wrapper(*args, **kwargs):
        if layer in tracer._active:
            return fn(*args, **kwargs)
        tracer._active.add(layer)
        start = tracer.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._active.discard(layer)
            tracer.add_count(layer, tracer.clock() - start)
    return wrapper


@dataclass(frozen=True)
class Target:
    """One traced public function: where it is defined and how it is traced."""

    owner: object          # defining module, or the class of a method
    attr: str
    layer: str
    kind: str              # span | generator | count
    describe: object = None   # (bound arguments, result) -> span attributes
    cache: object = None      # lru_cache whose hits mark a span as a cache hit


def patlab_targets() -> list[Target]:
    """Every layer boundary the benchmark traces."""
    from patlab import catalog, dyck, oracle, perms
    from patlab.series import TruncatedSeries

    def enum_attrs(a, result):
        return {"pattern": perms.perm_str(tuple(a["pattern"])), "n": a["n"],
                "perms": len(result)}

    return [
        Target(perms, "avoider_list", "perms.enumerate", "span",
               enum_attrs, perms.avoider_list),
        Target(perms, "enumerate_avoiders", "perms.enumerate", "generator",
               enum_attrs, perms.avoider_list),
        Target(perms, "consecutive_match_positions", "perms.match", "count"),
        Target(oracle, "brute_distribution", "oracle", "span",
               lambda a, r: {"generic": any(len(g) >= 4 for g in a["tracked"])},
               oracle._distribution),
        Target(catalog, "fixed_point_solve", "series.fixed_point", "span",
               lambda a, r: {"terms": sum(sum(1 for _ in s.poly.terms())
                                          for s in r)}),
        Target(TruncatedSeries, "substitute", "series.substitute", "count"),
        Target(TruncatedSeries, "inverse_unit", "series.inverse_unit", "count"),
        Target(catalog, "solve_system", "catalog.solve", "span",
               lambda a, r: {"entry": a["entry_id"], "order": a["order"]},
               catalog.solve_system),
        Target(catalog, "printed_identity_check", "catalog.identity", "span"),
        Target(catalog, "closed_coeff", "catalog.closed_coeff", "count"),
        Target(dyck, "phi_map", "dyck.map", "count"),
        Target(dyck, "psi_map", "dyck.map", "count"),
        Target(dyck, "phi_inverse", "dyck.map", "count"),
        Target(dyck, "psi_inverse", "dyck.map", "count"),
        Target(dyck, "path_pattern_count", "dyck.count", "count"),
        Target(dyck, "enumerate_paths", "dyck.paths", "generator"),
    ]


def _bindings(target: Target, original) -> list[tuple[object, str]]:
    """Every (namespace owner, name) that binds the original."""
    if inspect.isclass(target.owner):
        return [(target.owner, target.attr)]
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "patlab" or name.startswith("patlab.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                out.append((module, attr))
    return out


@contextmanager
def install(tracer: Tracer):
    """Trace every layer boundary for the duration of the block, then
    restore the originals."""
    saved = []
    try:
        for t in patlab_targets():
            original = vars(t.owner)[t.attr] if inspect.isclass(t.owner) \
                else getattr(t.owner, t.attr)
            if t.kind == "count":
                wrapper = _count_wrapper(tracer, t.layer, original)
            elif t.kind == "generator":
                wrapper = _generator_span_wrapper(tracer, t.layer, original,
                                                  t.describe, t.cache)
            else:
                wrapper = _span_wrapper(tracer, t.layer, original,
                                        t.describe, t.cache)
            for owner, attr in _bindings(t, original):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in kids.get(s.id, ())]
        out[s.id] = s.duration - covered(iv for iv in inside if iv[0] < iv[1])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The benchmark's per-layer metrics over a set of spans.

    `.s` is the inclusive time of a layer's outermost spans, `.self_s`
    excludes the time of child spans, `.calls` counts outermost calls.
    """
    from patlab.checks import SUITES

    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def top(name):
        return [s for s in spans if s.name == name
                and (s.parent not in by_id or by_id[s.parent].name != name)]

    counts: dict[str, list] = {}
    for s in spans:
        for layer, (calls, secs) in s.counts.items():
            c = counts.setdefault(layer, [0, 0.0])
            c[0] += calls
            c[1] += secs

    def counted(layer):
        calls, secs = counts.get(layer, (0, 0.0))
        return {f"{layer}.calls": calls, f"{layer}.s": secs}

    m: dict[str, float] = {}

    enum = top("perms.enumerate")
    m["perms.enumerate.calls"] = len(enum)
    m["perms.enumerate.s"] = sum(s.duration for s in enum)
    m["perms.enumerate.perms"] = sum(s.attrs["perms"] for s in enum)
    m["perms.enumerate.hit_ratio"] = _ratio(
        sum(1 for s in enum if s.attrs["hit"]), len(enum))
    m["perms.enumerate.dfs_s"] = sum(s.duration for s in enum
                                     if s.attrs["pattern"] in DFS_CLASSES)
    m["perms.enumerate.assembler_s"] = sum(
        s.duration for s in enum if s.attrs["pattern"] in ASSEMBLER_CLASSES)
    m.update(counted("perms.match"))

    queries = top("oracle")
    misses = [s for s in queries if not s.attrs["hit"]]
    miss_ids = {s.id for s in misses}
    scanned = sum(s.attrs["perms"] for s in spans
                  if s.name == "perms.enumerate" and s.parent in miss_ids)
    m["oracle.calls"] = len(queries)
    m["oracle.hit_ratio"] = _ratio(len(queries) - len(misses), len(queries))
    m["oracle.self_s"] = sum(own[s.id] for s in queries)
    m["oracle.perms_scanned"] = scanned
    m["oracle.perms_per_s"] = _ratio(scanned, sum(own[s.id] for s in misses))
    m["oracle.window_s"] = sum(own[s.id] for s in queries
                               if not s.attrs["generic"])
    m["oracle.generic_s"] = sum(own[s.id] for s in queries if s.attrs["generic"])

    solves = top("series.fixed_point")
    m["series.fixed_point.calls"] = len(solves)
    m["series.fixed_point.s"] = sum(s.duration for s in solves)
    m["series.terms"] = sum(s.attrs["terms"] for s in solves)
    m.update(counted("series.substitute"))
    m.update(counted("series.inverse_unit"))

    systems = top("catalog.solve")
    m["catalog.solve.calls"] = len(systems)
    m["catalog.solve.hit_ratio"] = _ratio(
        sum(1 for s in systems if s.attrs["hit"]), len(systems))
    m["catalog.solve.self_s"] = sum(own[s.id] for s in systems)
    m["catalog.thm8_o16_s"] = sum(
        s.duration for s in systems
        if s.attrs["entry"] == "thm8" and s.attrs["order"] == 16)
    idents = top("catalog.identity")
    m["catalog.identity.calls"] = len(idents)
    m["catalog.identity.s"] = sum(s.duration for s in idents)
    m.update(counted("catalog.closed_coeff"))

    m.update(counted("dyck.map"))
    m.update(counted("dyck.count"))
    m["dyck.paths.s"] = sum(s.duration for s in top("dyck.paths"))

    checks = [s for s in spans if s.name.startswith("checks.")]
    for suite in SUITES:
        m[f"checks.{suite}.s"] = sum(s.duration for s in checks
                                     if s.name == f"checks.{suite}")
    m["checks.count"] = len(checks)
    return m
