import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from patlab import checks, perms
from patlab.limits import ORACLE_MAX_N
from patlab.oracle import _distribution, brute_distribution
from patlab.series import VARS, Poly, catalan, pack, poly_str

X = Poly.variable("x")
Y = Poly.variable("y")


def test_single_pattern_slice():
    d = brute_distribution((1, 2, 3), [(1, 3, 2)], 3)
    assert d.poly == X * Y + 3 * Y + Poly.variable("y", 2)
    assert d.variables == ("x",)


def test_four_pattern_slice():
    d = brute_distribution((1, 3, 2),
                           [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)], 3)
    want = (Poly.variable("x1") + Poly.variable("x2") * Y
            + Poly.variable("x3") * Y + Poly.variable("x4") * Y * Y + Y)
    assert d.poly == want


def test_untracked_slice_counts_class():
    d = brute_distribution((1, 2, 3), [], 4)
    assert sum(c for _, c in d.poly.terms()) == 14


def test_nothing_tracked_counts_the_class():
    for lam in itertools.permutations((1, 2, 3)):
        for n in range(7):
            d = brute_distribution(lam, [], n, variables=(), track_des=False)
            assert d.poly == Poly.const(catalan(n))


def test_track_des_off():
    d = brute_distribution((1, 3, 2), [(2, 3, 1)], 4, track_des=False)
    assert poly_str(d.poly) == "8 + 6*x"


def test_coefficient_sums_and_degree_bounds():
    patterns = [(1, 3, 2), (2, 3, 1)]
    for lam in ((1, 2, 3), (1, 3, 2)):
        for n in range(8):
            d = brute_distribution(lam, patterns, n)
            assert sum(c for _, c in d.poly.terms()) == catalan(n)
            assert d.poly.degree("y") <= max(n - 1, 0)
            for var, g in zip(d.variables, patterns):
                assert d.poly.degree(var) <= max(n - len(g) + 1, 0)


def test_window_totals_cover_all_length3_patterns():
    # Every length-3 window is one of the five patterns available to the
    # avoidance class, so tracked counts total n - 2.
    gammas = [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    for n in range(3, 8):
        for p in perms.avoider_list((1, 2, 3), n):
            total = sum(len(perms.consecutive_match_positions(p, g))
                        for g in gammas)
            assert total == n - 2


def test_limit():
    with pytest.raises(ValueError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], ORACLE_MAX_N + 1)


def test_variable_count_must_match():
    with pytest.raises(ValueError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], 3, variables=("x1", "x2"))


@pytest.mark.parametrize("variables", [("x", "x"), ("y", "x"), ("x5", "x"),
                                       ("t", "x1")])
def test_variables_must_be_distinct_pattern_variables(variables):
    # A repeated name would add two patterns' counts into one exponent, and
    # y already carries the descents.
    with pytest.raises(ValueError, match="distinct variables"):
        brute_distribution((1, 3, 2), [(1, 2), (2, 1)], 3, variables=variables)
    d = brute_distribution((1, 3, 2), [(1, 2), (2, 1)], 3, variables=("x", "x4"),
                           track_des=False)
    x4 = Poly.variable("x4")
    assert d.poly == X ** 2 + 3 * X * x4 + x4 ** 2   # 123; 213, 231, 312; 321


def _recount(avoided, tracked, n, variables, track_des):
    # The definition, with none of the oracle's machinery: filter S_n and
    # reduce every window.
    poly = Poly()
    for p in itertools.permutations(range(1, n + 1)):
        if perms.contains_classical(p, avoided):
            continue
        exps = {}
        if track_des:
            exps["y"] = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        for var, g in zip(variables, tracked):
            k = len(g)
            exps[var] = sum(1 for i in range(n - k + 1)
                            if perms.reduce_word(p[i:i + k]) == g)
        poly = poly + Poly.monomial({v: e for v, e in exps.items() if e})
    return poly


@pytest.mark.parametrize("avoided, tracked, track_des", [
    ((1, 3, 2), [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)], True),
    ((1, 2, 3), [(2, 1, 4, 3), (3, 2, 1, 4), (4, 1, 3, 2)], True),
    ((3, 2, 1), [(1, 3, 2), (2, 1), (3, 1, 2), (1, 2)], False),
    ((1, 2, 3), [(1, 3, 2), (3, 2, 1, 4), (2, 3, 1), (2, 1, 4, 3)], True),
])
def test_same_length_patterns_match_slow_recount(avoided, tracked, track_des):
    variables = tuple(f"x{i + 1}" for i in range(len(tracked)))
    for n in range(8):
        d = brute_distribution(avoided, tracked, n, variables=variables,
                               track_des=track_des)
        assert d.poly == _recount(avoided, tracked, n, variables, track_des)


def test_env_cap_binds_the_oracle(monkeypatch):
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    with pytest.raises(perms.EnumerationLimitError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], 9)
    poly = brute_distribution((1, 2, 3), [(1, 3, 2)], 8).poly
    assert poly.substitute({"x": 1, "y": 1}).constant_term() == catalan(8)
    # the library's n_max does not reach past the cap either
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_check("rec_thm1", n_max=10)


def _recount_packed(avoided, tracked, n, variables, track_des):
    # One avoider at a time: count each statistic and pack its monomial.
    counter = {}
    for p in perms.avoider_list(avoided, n):
        exps = {v: len(perms.consecutive_match_positions(p, g))
                for v, g in zip(variables, tracked)}
        if track_des:
            exps["y"] = len(perms.descent_set(p))
        key = pack(exps)
        counter[key] = counter.get(key, 0) + 1
    return counter


_pattern = st.integers(1, 4).flatmap(
    lambda k: st.permutations(range(1, k + 1))).map(tuple)


@settings(max_examples=60, deadline=None)
@given(avoided=st.permutations((1, 2, 3)).map(tuple), n=st.integers(0, 8),
       marks=st.lists(st.tuples(st.sampled_from(VARS[2:]), _pattern),
                      unique_by=lambda mark: mark[0], max_size=5),
       track_des=st.booleans())
@example(avoided=(1, 3, 2), n=8, marks=[("x4", (2, 1)), ("x", (1, 2, 3))],
         track_des=True)
@example(avoided=(3, 2, 1), n=7, marks=[("x", (1, 3, 2)), ("x4", (2, 1))],
         track_des=False)
@example(avoided=(1, 2, 3), n=0, marks=[("x2", (1,))], track_des=True)
@example(avoided=(2, 1, 3), n=6, marks=[], track_des=False)
def test_packed_tally_matches_a_per_permutation_recount(avoided, n, marks,
                                                        track_des):
    variables = tuple(v for v, _ in marks)
    tracked = tuple(g for _, g in marks)
    poly = _distribution(avoided, tracked, n, variables, track_des)
    assert poly.c == _recount_packed(avoided, tracked, n, variables, track_des)
