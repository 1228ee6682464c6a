"""Tests for the outside-in tracer.

    python3 -m pytest perfbench/tests
"""

import inspect
import sys

import pytest

import tracer as tr
from patlab import catalog, dyck, oracle, perms
from patlab.series import TruncatedSeries


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps():
    assert tr.covered([]) == 0
    assert tr.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tr.covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tr.Tracer(clock)
    with t.span("a") as a:
        clock.now = 1.0
        with t.span("b") as b:
            clock.now = 3.0
            with t.span("c"):
                clock.now = 3.5
        clock.now = 4.0
        with t.span("d") as d:
            clock.now = 6.0
        clock.now = 10.0
    own = tr.self_times(t.spans)
    assert a.duration == 10.0
    assert own[a.id] == 10.0 - 2.5 - 2.0      # b and d, not the grandchild
    assert own[b.id] == 2.5 - 0.5
    assert own[d.id] == 2.0
    assert [s.parent for s in t.spans] == [None, a.id, b.id, a.id]
    assert [s.name for s in t.subtree(b)] == ["b", "c"]


def test_counted_calls_fold_into_the_enclosing_span():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def inner(x):
        clock.now += 1.0
        return x

    counted = tr._count_wrapper(t, "layer", inner)
    outer = tr._count_wrapper(t, "layer", lambda x: counted(x) + counted(x))
    with t.span("run") as run:
        assert outer(2) == 4
        counted(1)
    assert run.counts == {"layer": [2, 3.0]}   # the nested calls are outer's
    with pytest.raises(RuntimeError):
        counted(1)


def _clear_caches():
    perms.avoider_list.cache_clear()
    oracle._distribution.cache_clear()
    catalog.solve_system.cache_clear()


def test_cache_hits_are_counted_per_call():
    _clear_caches()
    t = tr.Tracer()
    with tr.install(t), t.span("run"):
        for _ in range(2):
            oracle.brute_distribution((1, 3, 2), [(1, 2, 3, 4)], 5)
        oracle.brute_distribution((1, 3, 2), [(2, 1)], 5)
        perms.avoider_list((1, 2, 3), 4)
        perms.avoider_list((1, 2, 3), 4)
        catalog.solve_catalog("thm5", 6)
        catalog.solve_catalog("thm5", 6)
    m = tr.layer_metrics(t.spans)
    assert m["oracle.calls"] == 3
    assert m["oracle.hit_ratio"] == pytest.approx(1 / 3)
    assert m["oracle.perms_scanned"] == 2 * 42        # each miss scans S_5(132)
    assert m["oracle.generic_s"] > 0 and m["oracle.window_s"] > 0
    assert m["perms.enumerate.calls"] == 4            # 132 per oracle miss, 123 twice
    assert m["perms.enumerate.hit_ratio"] == 0.5
    assert m["perms.enumerate.perms"] == 2 * 42 + 2 * 14
    assert m["catalog.solve.calls"] == 2
    assert m["catalog.solve.hit_ratio"] == 0.5
    assert m["series.fixed_point.calls"] == 1
    assert m["series.terms"] > 0


def test_generators_and_fine_grained_layers():
    t = tr.Tracer()
    with tr.install(t), t.span("run") as run:
        paths = list(dyck.enumerate_paths(4))
        for w in paths:
            dyck.phi_map(dyck.phi_inverse(w))
            dyck.path_pattern_count(w, "RD")
        below = list(perms.enumerate_avoiders(11, (1, 3, 2)))
        catalog.closed_coeff("thm1eq", 4, 1)       # an alias calls itself once
        TruncatedSeries.const(1, 3).inverse_unit()
    assert len(paths) == 14 and len(below) == 58786
    m = tr.layer_metrics(t.spans)
    assert run.counts["dyck.map"][0] == 28
    assert m["dyck.count.calls"] == 14
    assert m["dyck.paths.s"] > 0
    assert m["perms.enumerate.perms"] == 58786
    assert m["perms.enumerate.assembler_s"] > 0 and m["perms.enumerate.dfs_s"] == 0
    assert m["catalog.closed_coeff.calls"] == 1
    assert m["series.inverse_unit.calls"] == 1


def _bindings():
    """Every name bound in a patlab module or on TruncatedSeries."""
    out = {}
    for name, module in sys.modules.items():
        if name == "patlab" or name.startswith("patlab."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("TruncatedSeries", k): v
                for k, v in vars(TruncatedSeries).items()})
    return out


def test_every_wrapper_is_removed():
    before = _bindings()
    originals = {id(v) for k, v in before.items()
                 if k[1] in {t.attr for t in tr.patlab_targets()}}
    t = tr.Tracer()
    with pytest.raises(KeyError):
        with tr.install(t):
            during = _bindings()
            assert oracle.avoider_list is perms.avoider_list
            assert not any(id(v) in originals for v in during.values()
                           if callable(v) and not inspect.isclass(v))
            raise KeyError("the block fails; the wrappers still go")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
