import re

import pytest
from hypothesis import given, settings, strategies as st

from patlab import catalog, checks
from patlab.series import (
    EqContext,
    NonContractiveError,
    NonInvertibleError,
    Poly,
    T_CAP_HARD,
    VARS,
    TruncatedSeries,
    catalan,
    fixed_point_solve,
    gen_binom,
    geometric,
    monomial_str,
    multinom,
    poly_str,
    series_str,
    y_reverse,
)

T = Poly.variable("t")
Y = Poly.variable("y")
X = Poly.variable("x")


def coeffs(series, var="t"):
    return [series.t_slice(n).constant_term() for n in range(series.order + 1)]


def test_poly_basic_products():
    assert (1 + T) * (1 - T) == 1 - T ** 2
    s = TruncatedSeries.of(Poly.const(1) + T * Y, 1)
    assert series_str(s * s) == "1 + 2*t*y"
    a = fixed_point_solve(lambda v, c: (c.one + c.t,), 2)[0]
    q = (Y * (a - 1) + 1) ** 2
    assert q.t_slice(0) == Poly.const(1)
    assert q.t_slice(1) == 2 * Y
    assert q.t_slice(2) == Y * Y


def test_cancelling_products_leave_no_zero_coefficient():
    # Within one product kernel call: the x terms of (1 + x)(1 - x).
    p = (1 + X) * (1 - X)
    assert p.c == (1 - X * X).c and 0 not in p.c.values()
    # Across two calls into the same slice: slice 1 of (1 + t x)(1 - t x)
    # takes -x from the pair (0, 1) and then x from the pair (1, 0).
    s = TruncatedSeries.of(1 + T * X, 3) * TruncatedSeries.of(1 - T * X, 3)
    assert s.slices == [{0: 1}, {}, {(X * X).c.popitem()[0]: -1}, {}]
    # So in a lazy product: slice 2 of (t x v)(1 - t x) is x^2 - x^2.
    (lazy,) = fixed_point_solve(
        lambda v, c: (c.one + c.t * c.x * v[0] * (c.one - c.t * c.x),), 3)
    assert lazy.slices[2] == {}
    assert all(0 not in d.values() for d in lazy.slices)


def test_series_mixing_uses_min_order():
    a = TruncatedSeries.of(Poly.const(1) + T, 5)
    b = TruncatedSeries.of(Poly.const(1) + T, 2)
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_geometric_series():
    one = TruncatedSeries.const(1, 3)
    t = TruncatedSeries(T, 3)
    assert series_str(geometric(one, t)) == "1 + t + t^2 + t^3"


def test_division_by_catalan_denominator():
    # 1/(1 - t D) reproduces D itself when D is the Catalan series.
    d = fixed_point_solve(lambda v, c: (c.one + c.t * v[0] ** 2,), 3)[0]
    one = TruncatedSeries.const(1, 3)
    t = TruncatedSeries(T, 3)
    quotient = one.div_unit(one - t * d)
    assert coeffs(quotient) == [1, 1, 2, 5]


def test_division_requires_unit_constant_term():
    d = fixed_point_solve(lambda v, c: (c.one + c.t * v[0] ** 2,), 3)[0]
    with pytest.raises(NonInvertibleError):
        (d - 1).inverse_unit()


def test_div_unit_cancels_products():
    b = TruncatedSeries.of(Poly.const(1) + T * Y + Poly.variable("t", 2), 6)
    a = TruncatedSeries.of(Poly.const(1) - T + X * Poly.variable("t", 3), 6)
    assert (a * b).div_unit(b).poly == a.poly


def test_all_three_catalan_recursions_agree():
    last_segment = fixed_point_solve(
        lambda v, c: (c.geo(c.one, c.t * v[0]),), 9)[0]
    first_return = fixed_point_solve(
        lambda v, c: (c.one + c.t * v[0] ** 2,), 9)[0]
    combined = fixed_point_solve(
        lambda v, c: (c.one + v[0] * c.geo(c.t, c.t * v[0]),), 9)[0]
    expected = [catalan(n) for n in range(10)]
    assert coeffs(last_segment) == expected
    assert coeffs(first_return) == expected
    assert coeffs(combined) == expected


def test_fixed_point_rejects_non_contractive_equation():
    with pytest.raises(NonContractiveError):
        fixed_point_solve(lambda v, c: (v[0] + c.t,), 4)


def test_fixed_point_solver_residual_postcondition():
    sol = fixed_point_solve(lambda v, c: (c.one + c.t * v[0] ** 2,), 6)[0]
    ctx_eval = TruncatedSeries.const(1, 6) + TruncatedSeries(T, 6) * sol ** 2
    assert ctx_eval.poly == sol.poly


def test_substitution_motzkin():
    # M = 1 + t y M + t^2 x M^2 turns into the Motzkin series at y = x = 1
    # and into 1/(1 - t) when the quadratic part is switched off.
    s = fixed_point_solve(
        lambda v, c: (c.one + c.t * c.y * v[0] + c.t ** 2 * c.x * v[0] ** 2,),
        6)[0]
    assert coeffs(s.substitute({"y": 1, "x": 1})) == [1, 1, 2, 4, 9, 21, 51]
    assert coeffs(s.substitute({"y": 1, "x": 0})) == [1] * 7
    assert s.substitute({}).poly == s.poly


def test_substituting_t_is_rejected():
    s = TruncatedSeries.of(Poly.const(1) + T, 3)
    with pytest.raises(ValueError):
        s.substitute({"t": 1})


def test_substituting_an_unknown_variable_is_rejected():
    # As Poly.variable does; a KeyError would escape the CLI's usage path.
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        Poly.const(3).substitute({"z": 1})
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        TruncatedSeries.of(Poly.const(1) + T, 3).substitute({"y": 1, "z": 2})


def test_y_reverse_examples_and_involution():
    assert y_reverse(Poly.variable("y", 2), 3) == Poly.const(1)
    assert y_reverse(Poly.const(1), 3) == Poly.variable("y", 2)
    p = 3 * Y + X * Y + Poly.variable("y", 2)
    assert y_reverse(y_reverse(p, 4), 4) == p
    with pytest.raises(ValueError):
        y_reverse(Poly.variable("y", 3), 3)


def test_gen_binom_values():
    assert gen_binom(-2, 3) == -4
    assert gen_binom(5, 2) == 10
    assert gen_binom(3, 8) == 0
    assert gen_binom(7, -1) == 0
    assert gen_binom(-1, 0) == 1


def test_gen_binom_matches_multinom_for_nonnegative_alpha():
    for alpha in range(8):
        for j in range(10):
            want = multinom(alpha, [j, alpha - j]) if j <= alpha else 0
            assert gen_binom(alpha, j) == want


def test_multinom_values():
    assert multinom(5, [1, 4, 0, 0]) == 5
    assert multinom(3, [0, 3, 0, 0]) == 1
    assert multinom(4, [2, 1]) == 0
    assert multinom(6, [2, 2, 2]) == 90
    assert multinom(3, [-1, 4]) == 0


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(12) == 208012


def test_lagrange_inversion_property():
    # For F = t * delta(F) with delta = (1 + (x-1) z^m)/(1 - z), the t^n
    # coefficient equals (1/n) [z^(n-1)] delta(z)^n.
    for m in (2, 3, 4):
        def system(v, c, m=m):
            # 1 - F is a unit because F has no constant term
            return (c.t * c.geo(c.one + (c.x - 1) * v[0] ** m, v[0]),)

        f = fixed_point_solve(system, 12, seeds=[0])[0]
        for n in range(1, 13):
            # delta(z)^n with z played by t
            one = TruncatedSeries.const(1, max(n - 1, 0))
            zx = TruncatedSeries(T, max(n - 1, 0))
            delta = (one + (TruncatedSeries(X, max(n - 1, 0)) - 1) * zx ** m) \
                .div_unit(one - zx)
            rhs = (delta ** n).t_slice(n - 1).div_exact(n)
            assert f.t_slice(n) == rhs, (m, n)


small_polys = st.builds(
    lambda terms: sum((Poly.monomial({"t": a, "y": b, "x": c}, coeff)
                       for (a, b, c, coeff) in terms), Poly()),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                       st.integers(-5, 5)), max_size=5))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys)
@settings(max_examples=40, deadline=None)
def test_series_div_roundtrip(p):
    den = TruncatedSeries.of(Poly.const(1) + T * Y - Poly.variable("t", 2) * X, 6)
    s = TruncatedSeries.of(p, 6)
    assert (s * den).div_unit(den).poly == s.poly


def test_rendering():
    assert poly_str(Poly()) == "0"
    assert poly_str(Poly.const(-3) + X) == "-3 + x"
    slice3 = 9 + 5 * Poly.variable("x1")
    assert poly_str(slice3) == "9 + 5*x1"
    s = TruncatedSeries.of(
        Poly.const(1) + T + 2 * Poly.variable("t", 2)
        + Poly.variable("t", 3) * (4 + X), 3)
    assert series_str(s) == "1 + t + 2*t^2 + (4+x)*t^3"
    assert monomial_str((0, 2, 0, 1, 0, 0, 0), 1) == "x1*y^2"


# -- exponent overflow -------------------------------------------------------

def test_exponent_overflow_is_rejected():
    with pytest.raises(ValueError):
        Poly.variable("x", 300)
    with pytest.raises(ValueError):
        Poly.variable("x", -1)
    with pytest.raises(ValueError):
        Poly.variable("x", 200) * Poly.variable("x", 100)
    with pytest.raises(ValueError):
        Poly.variable("x4", 128) ** 2   # the top field carries out of the key
    assert Poly.variable("x", 200) * Poly.variable("x", 55) == \
        Poly.variable("x", 255)
    # a pair dropped by the t-cap cannot overflow
    a = TruncatedSeries(Poly.monomial({"t": 3, "x": 200}), 5)
    assert a * TruncatedSeries(Poly.monomial({"t": 3, "x": 100}), 5) == \
        TruncatedSeries.const(0, 5)
    with pytest.raises(ValueError):
        a * TruncatedSeries(Poly.monomial({"t": 2, "x": 100}), 5)
    # inverse_unit and substitute multiply without going through mul
    with pytest.raises(ValueError):
        TruncatedSeries.of(1 + T * Poly.variable("y", 200), 2).inverse_unit()
    with pytest.raises(ValueError):
        (X * Poly.variable("y", 100)).substitute({"x": Poly.variable("y", 200)})
    assert (X * Poly.variable("y", 55)).substitute(
        {"x": Poly.variable("y", 200)}) == Poly.variable("y", 255)


_EXP_VARS = ("t", "y", "x1", "x4")

wide_polys = st.lists(
    st.tuples(st.tuples(*[st.sampled_from((0, 1, 100, 127, 128, 155, 200, 255))
                          for _ in _EXP_VARS]),
              st.integers(-3, 3).filter(bool)),
    max_size=4)


def _poly_of(terms):
    out = Poly()
    for exps, coeff in terms:
        out = out + Poly.monomial(dict(zip(_EXP_VARS, exps)), coeff)
    return out


@given(wide_polys, wide_polys)
@settings(max_examples=200, deadline=None)
def test_product_raises_exactly_when_an_exponent_exceeds_255(a, b):
    p, q = _poly_of(a), _poly_of(b)
    sums = [(tuple(i + j for i, j in zip(ea, eb)), ca * cb)
            for ea, ca in p.terms() for eb, cb in q.terms()]
    if any(e > 255 for exps, _ in sums for e in exps):
        with pytest.raises(ValueError):
            p * q
        return
    # monomial() packs each exponent sum on its own, without mul
    assert p * q == sum((Poly.monomial(dict(zip(VARS, exps)), c)
                         for exps, c in sums), Poly())


# -- substitute and inverse_unit against their term-by-term formulas ---------

def _substitute_by_sums(p, assignments):
    from patlab.series import _SHIFT
    values = {v: (q if isinstance(q, Poly) else Poly.const(q))
              for v, q in assignments.items()}
    out = Poly()
    for k, coeff in p.c.items():
        rest = k
        factor = Poly.const(coeff)
        for v, q in values.items():
            e = (k >> _SHIFT[v]) & 0xFF
            if e:
                rest -= e << _SHIFT[v]
                factor = factor * q ** e
        out = out + Poly({rest: 1}) * factor
    return out


def _inverse_by_sums(s):
    unit = s.poly.t_slice(0).constant_term()
    den = {n: s.poly.t_slice(n) for n in range(1, s.order + 1)}
    inv = {0: Poly.const(unit)}
    for n in range(1, s.order + 1):
        acc = Poly()
        for j in range(1, n + 1):
            acc = acc + den[j] * inv[n - j]
        inv[n] = acc.div_exact(-unit)
    out = Poly()
    for n, slice_ in inv.items():
        out = out + Poly({n: 1}) * slice_
    return out


mixed_polys = st.builds(
    lambda terms: sum((Poly.monomial({"t": a, "y": b, "x": c, "x1": d}, coeff)
                       for (a, b, c, d, coeff) in terms), Poly()),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 2), st.integers(-5, 5)), max_size=8))


@given(mixed_polys, mixed_polys, st.integers(-3, 3),
       st.sampled_from(("x", "y", "x1")))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_term_by_term_sums(p, value, scalar, var):
    for assignments in ({var: value}, {var: scalar},
                        {"y": value, "x": scalar, "x1": Poly.variable("x2")}):
        assert p.substitute(assignments) == _substitute_by_sums(p, assignments)


_renamed_to = st.sampled_from(("t", "y", "x", "x1", "x2")).map(Poly.variable)


@given(mixed_polys,
       st.dictionaries(st.sampled_from(("y", "x", "x1")),
                       st.one_of(_renamed_to, _renamed_to, st.integers(-2, 2),
                                 mixed_polys)))
@settings(max_examples=120, deadline=None)
def test_renames_match_term_by_term_sums(p, assignments):
    # A bare-variable value moves the exponent; mixed with scalars, other
    # polynomials and swaps, all values still substitute at once.
    assert p.substitute(assignments) == _substitute_by_sums(p, assignments)


def test_renames_swap_and_keep_the_exponent_guard():
    var = Poly.variable
    assert (X * Y ** 2).substitute({"x": Y, "y": X}) == Y * X ** 2
    assert (X ** 200 * Y ** 100).substitute({"x": Y, "y": X}) == \
        Y ** 200 * X ** 100
    assert (X ** 200 * Y ** 55).substitute({"x": Y}) == var("y", 255)
    # y is replaced as well, so its own exponent does not add to x's
    assert (X ** 200 * Y ** 100).substitute({"x": Y, "y": 2}) == \
        2 ** 100 * Y ** 200
    for p, assignments in ((X ** 200 * Y ** 100, {"x": Y}),
                           (X ** 200 * var("x1", 100), {"x": Y, "x1": Y}),
                           (X ** 200 * Y ** 100, {"x": Y, "y": X * Y})):
        with pytest.raises(ValueError, match="exponent"):
            p.substitute(assignments)


@given(mixed_polys, st.sampled_from((1, -1)), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_inverse_unit_matches_term_by_term_sums(p, unit, order):
    s = TruncatedSeries.of(p - p.t_slice(0) + unit, order)
    inv = s.inverse_unit()
    assert inv.poly == _inverse_by_sums(s).truncate_t(order)
    assert (s * inv).poly == Poly.const(1)


@given(mixed_polys, mixed_polys, st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 3), st.sampled_from((1, -1)), st.integers(-2, 2))
@settings(max_examples=80, deadline=None)
def test_series_arithmetic_matches_truncated_poly_arithmetic(
        p, q, m, n, k, unit, scalar):
    # The slice-by-slice series against flat Poly arithmetic cut at the
    # smaller order.
    a, b = TruncatedSeries(p, m), TruncatedSeries(q, n)
    low = min(m, n)
    assert a.poly == p.truncate_t(m)
    for got, want, order in ((a + b, p + q, low), (a - b, p - q, low),
                             (a * b, p * q, low), (scalar - a, scalar - p, m),
                             (a * scalar, p * scalar, m),
                             (a ** k, p ** k, m)):
        assert got.order == order
        assert got.poly == want.truncate_t(order)
        assert got == TruncatedSeries(want, order)
    u = TruncatedSeries(p - p.t_slice(0) + unit, m)
    assert (u.poly * u.inverse_unit().poly).truncate_t(m) == 1
    for assignments in ({"x": q}, {"y": scalar, "x1": q}):
        assert a.substitute(assignments).poly == \
            p.substitute(assignments).truncate_t(m)
    assert a.t_slice(-1) == Poly()
    with pytest.raises(ValueError, match="beyond series order"):
        a.t_slice(m + 1)
    assert [a.t_slice(j) for j in range(m + 1)] == \
        [p.t_slice(j) for j in range(m + 1)]
    assert (a == b) == (m == n and p.truncate_t(m) == q.truncate_t(n))
    assert a != TruncatedSeries(p, m + 1)


@given(mixed_polys, mixed_polys, mixed_polys, st.integers(0, 4),
       st.integers(-3, 3).filter(bool), st.sampled_from((1, -1)),
       st.lists(st.integers(0, T_CAP_HARD), min_size=2, max_size=2, unique=True))
@settings(max_examples=80, deadline=None)
def test_an_operation_cut_to_a_lower_order_is_the_operation_at_it(
        p, q, r, j, coeff, unit, orders):
    # The ground for serving a lower order as a truncation of a solve at a
    # higher one: each eager operation at order K, cut to k < K, is the same
    # operation on its operands cut to k.  Mixing the orders of two operands
    # gives the same too.
    low, high = sorted(orders)
    a, b = TruncatedSeries(p, high), TruncatedSeries(q, high)
    # 1 - ratio[0] is the unit, so geometric inverts it.
    ratio = TruncatedSeries(r - r.t_slice(0) + 1 - unit, high)
    term = TruncatedSeries(Poly.monomial({"t": j, "x": 1}, coeff), high)
    mul = lambda u, v: u * v
    for name, op, u, v, mixed in (
            ("sum", lambda u, v: u + v, a, b, True),
            ("difference", lambda u, v: u - v, a, b, True),
            ("product", mul, a, b, True),
            ("one-term product", mul, a, term, True),
            ("one-term product", mul, term, a, True),
            ("geometric", geometric, a, ratio, True),
            ("square", lambda u, v: u * u, a, a, False),
            ("substitute", lambda u, v: u.substitute({"x": v.poly, "y": 2}),
             a, b, False)):
        cut_u, cut_v = u.truncate(low), v.truncate(low)
        want = op(cut_u, cut_v)
        assert op(u, v).truncate(low) == want, name
        if mixed:
            assert op(u, cut_v) == want and op(cut_u, v) == want, name
    with pytest.raises(ValueError, match="cannot truncate"):
        a.truncate(high + 1)


# -- the lazy fixed-point solver against the cap-by-cap iteration ------------

def _solve_cap_by_cap(equations, order, seeds=None):
    # The solver as it was before lazy evaluation: one unknown after the
    # other, each iterated on its right-hand side of the system with the
    # truncation cap growing 1..order, then re-evaluated once at full order
    # to verify stabilisation.
    seeds = [1] if seeds is None else list(seeds)
    vals = [TruncatedSeries.const(s, order) for s in seeds]
    for i in range(len(seeds)):
        for cap in range(1, order + 1):
            capped = [TruncatedSeries(v.poly.truncate_t(cap), cap) for v in vals]
            step = equations(capped, EqContext(cap))[i]
            vals[i] = TruncatedSeries(step.poly.truncate_t(cap), order)
        final = equations(vals, EqContext(order))[i]
        if final.poly.truncate_t(order) != vals[i].poly:
            raise NonContractiveError(
                f"unknown {i} did not stabilise at order {order}")
        vals[i] = TruncatedSeries(final.poly.truncate_t(order), order)
    return vals


def _catalog_solves():
    registered = {}
    for c in checks.REGISTRY:
        if "series" in c.params:
            registered.setdefault(c.params["series"], set()).add(
                (c.params.get("m"), c.params.get("a")))
    return [(eid, m, a) for eid, entry in catalog.CATALOG.items()
            for m, a in (sorted(registered[eid], key=repr) if entry.needs_m
                         else [(None, None)])]


@pytest.mark.parametrize("order", range(9))
def test_catalog_solves_match_the_cap_by_cap_iteration(order, monkeypatch):
    solve = catalog._solve   # cold: past the lru_cache and the solve chain
    for eid, m, a in _catalog_solves():
        got = solve(eid, order, m, a)
        with monkeypatch.context() as mp:
            mp.setattr(catalog, "fixed_point_solve", _solve_cap_by_cap)
            want = solve(eid, order, m, a)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == want[name], (eid, m, a, order, name)


_eq_terms = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 2), st.integers(0, 3)),
    min_size=1, max_size=5)


def _equation(seed, terms, ratio_terms):
    """The one-unknown system seed + t*P(v, y, x), or seed + t*P/(1 - t*R)
    with a ratio R."""
    def poly_in(v, c, terms):
        out = c.const(0)
        for coeff, tj, ya, xb, vk in terms:
            out = out + coeff * c.t ** tj * c.y ** ya * c.x ** xb * v[0] ** vk
        return out

    def system(v, c):
        p = poly_in(v, c, terms)
        if ratio_terms:
            p = c.geo(p, c.t * poly_in(v, c, ratio_terms))
        return (seed + c.t * p,)
    return system


@given(st.sampled_from((1, 0)), _eq_terms,
       st.one_of(st.just([]), _eq_terms), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_contractive_equations_match_the_cap_by_cap_iteration(
        seed, terms, ratio_terms, order):
    system = _equation(seed, terms, ratio_terms)
    want = _solve_cap_by_cap(system, order, seeds=[seed])
    assert fixed_point_solve(system, order, seeds=[seed]) == want
    if seed == 1:
        assert fixed_point_solve(system, order) == want


def test_a_seed_is_an_int():
    # A seed is a constant term; a solved series is refused, not read as
    # known slices.
    system = lambda v, c: (c.one + c.t * v[0] ** 2,)
    (solved,) = fixed_point_solve(system, 4)
    for seed in (solved, solved.poly, "1"):
        with pytest.raises(TypeError, match="seed of unknown 0 must be an int"):
            fixed_point_solve(system, 6, [seed])


def test_sums_with_repeated_and_constant_terms_match():
    for eq in (lambda v, c: c.one + c.t * (v[0] + v[0]),
               lambda v, c: c.one + c.t * (v[0] - v[0] + c.x * v[0] + v[0]),
               lambda v, c: c.one + c.t * ((v[0] + 1) + (v[0] - 1)) * v[0],
               lambda v, c: 1 - c.t * (2 * v[0] - (v[0] * v[0] - v[0])) + c.t,
               lambda v, c: c.one + c.geo(c.t * v[0], c.t - c.t + c.t * v[0]),
               lambda v, c: c.one - c.t * -(v[0] * c.y)):
        system = lambda v, c: (eq(v, c),)
        assert fixed_point_solve(system, 6) == _solve_cap_by_cap(system, 6)


def test_lazy_solve_keeps_the_exponent_overflow_guard():
    calls = []

    def system(v, c):
        calls.append(c)
        return (c.one + c.t * c.y ** 200 * v[0] ** 2,)

    for order in (2, 5):
        calls.clear()
        with pytest.raises(ValueError):
            fixed_point_solve(system, order)
        assert len(calls) == 1   # raised by the lazy pass, not the check
    # one slice short of the overflow
    (s,) = fixed_point_solve(system, 1)
    assert s.poly == 1 + T * Poly.variable("y", 200)


def test_a_slice_that_needs_itself_is_not_contractive():
    for eq in (lambda v, c: v[0] + c.t,
               lambda v, c: c.one + v[0] * v[0] - v[0],
               lambda v, c: c.one + c.t * v[0] + (c.x - 1) * v[0]):
        with pytest.raises(NonContractiveError):
            fixed_point_solve(lambda v, c: (eq(v, c),), 3)
    # the seed is slice 0; a right-hand side that disagrees fails the check
    with pytest.raises(NonContractiveError):
        fixed_point_solve(lambda v, c: (2 + c.t * v[0],), 3)


def test_a_later_unknown_reads_an_earlier_one_at_the_same_slice():
    # Slice n of v1 = v0^2 needs slice n of v0, solved in the same pass.
    def system(v, c):
        return (c.one + c.t * v[0] ** 2, v[0] * v[0])

    for order in (0, 1, 6, 16):
        v0, v1 = fixed_point_solve(system, order, seeds=[1, 1])
        assert coeffs(v0) == [catalan(n) for n in range(order + 1)]
        assert v1 == v0 * v0
    assert fixed_point_solve(system, 8, seeds=[1, 1]) == \
        _solve_cap_by_cap(system, 8, seeds=[1, 1])
    with pytest.raises(ValueError):   # one seed per right-hand side
        fixed_point_solve(system, 3)


def test_a_cycle_between_two_unknowns_is_not_contractive():
    # v0 = v1 and v1 = v0: the seeds agree, and slice 1 of each needs the
    # other's slice 1.
    with pytest.raises(NonContractiveError,
                       match="^unknown 0: its slice t\\^1 depends on itself$"):
        fixed_point_solve(lambda v, c: (1 + v[1] - 1, 1 + v[0] - 1), 3,
                          seeds=[1, 1])


@pytest.mark.parametrize("order", (0, 1, 8, 16))
def test_the_system_is_called_once_lazily_and_once_eagerly(order):
    eager = []

    def counted(v, c):
        eager.append(isinstance(c, EqContext))
        return catalog._thm8(v, c)

    fixed_point_solve(counted, order, seeds=[1, 1, 1])
    assert eager == [False, True]


def test_powers_agree_with_repeated_products_and_reject_negative_exponents():
    p = 1 + T + X * Y
    s = TruncatedSeries.of(p, 4)
    for n in range(6):
        assert p ** n == _repeated(p, n, Poly.const(1))
        assert s ** n == _repeated(s, n, TruncatedSeries.const(1, 4))
        (lazy,) = fixed_point_solve(
            lambda v, c: (c.one + c.t * v[0] ** n,), 6)
        assert lazy == fixed_point_solve(
            lambda v, c: (c.one + c.t * _repeated(v[0], n, c.one),), 6)[0]
    for base in (p, s):
        with pytest.raises(ValueError, match="negative power"):
            base ** -1
    with pytest.raises(ValueError, match="negative power"):
        fixed_point_solve(lambda v, c: (c.one + c.t * v[0] ** -1,), 3)


def _repeated(base, n, one):
    out = one
    for _ in range(n):
        out = out * base
    return out


# -- geometric tails and squares ---------------------------------------------

@given(mixed_polys, mixed_polys, st.sampled_from((0, 2)), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_geometric_matches_division_by_one_minus_the_ratio(p, q, head, order):
    # the ratio's t^0 slice is the constant head
    first = TruncatedSeries(p, order)
    ratio = TruncatedSeries(q - q.t_slice(0) + head, order)
    tail = geometric(first, ratio)
    assert tail == first.div_unit(1 - ratio)
    assert tail.poly == (first.poly * _inverse_by_sums(1 - ratio)).truncate_t(order)
    assert tail.order == order


@pytest.mark.parametrize("head", (0, 2))
@pytest.mark.parametrize("order", (0, 1, 5, 9))
def test_lazy_geometric_matches_division_by_one_minus_the_ratio(head, order):
    # The lazy tail, with a lazy or constant first and ratio, against
    # div_unit on the solved series.
    def parts(v, c):
        return ((c.y * v[0] + c.x, c.t * c.x * v[0] + head),
                (c.t * v[0] ** 2, c.t * c.y + head),
                (c.x + c.t * c.y, c.t * v[0] - c.t * c.x + head),
                (c.x + c.t, c.t * c.y + head))

    def system(v, c):
        return (c.one + c.t * sum((c.geo(f, r) for f, r in parts(v, c)),
                                  c.const(0)),)

    (sol,) = fixed_point_solve(system, order)
    c = EqContext(order)
    want = c.one + c.t * sum((f.div_unit(1 - r) for f, r in parts([sol], c)),
                             c.const(0))
    assert sol == want


def _not_invertible(shown):
    return "^" + re.escape("series is not invertible: constant term must be "
                           f"+1 or -1, got {shown}") + "$"


def test_a_non_unit_denominator_keeps_its_message():
    one = TruncatedSeries.const(1, 3)
    for head, shown in ((X, "1 - x"), (Poly.const(1), "0"),
                        (Poly.const(3), "-2")):
        ratio = TruncatedSeries(head + T, 3)
        with pytest.raises(NonInvertibleError, match=_not_invertible(shown)):
            geometric(one, ratio)
        with pytest.raises(NonInvertibleError, match=_not_invertible(shown)):
            fixed_point_solve(
                lambda v, c: (c.one + c.t * c.geo(c.one, head + c.t * v[0]),), 3)
        with pytest.raises(NonInvertibleError, match=_not_invertible(shown)):
            fixed_point_solve(
                lambda v, c: (c.one + c.t * c.geo(v[0], ratio),), 3)
    with pytest.raises(NonInvertibleError, match=_not_invertible("1 + x")):
        TruncatedSeries(1 + X + T, 3).inverse_unit()


@given(mixed_polys, st.integers(0, 8), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_squares_equal_the_product_with_an_equal_copy(p, order, k):
    copy = Poly(dict(p.c))
    assert p * p == p * copy
    s = TruncatedSeries(p, order)
    twin = TruncatedSeries(p, order)
    assert s * s == s * twin
    assert s ** k == _repeated(s, k, TruncatedSeries.const(1, order)) == \
        TruncatedSeries(p ** k, order)


def test_lazy_squares_equal_the_product_with_an_equal_copy():
    # q * q is a square; two calls of part build two equal nodes, whose
    # product takes the general path.
    def part(v, c):
        return c.y * v[0] + c.t * c.x

    def squares(v, c):
        q = part(v, c)
        return (c.one + c.t * (q * q) + c.t ** 2 * (c.x * v[0]) ** 3,)

    def copies(v, c):
        xv = [c.x * v[0] for _ in range(3)]
        return (c.one + c.t * (part(v, c) * part(v, c))
                + c.t ** 2 * xv[0] * xv[1] * xv[2],)

    for order in (0, 1, 2, 7, 12):
        assert fixed_point_solve(squares, order) == \
            fixed_point_solve(copies, order)


def test_squares_and_tails_keep_the_exponent_overflow_guard():
    var = Poly.variable
    with pytest.raises(ValueError):
        (1 + var("y", 128)) ** 2
    assert var("y", 127) ** 2 == var("y", 254)
    s = TruncatedSeries.of(1 + T * var("y", 200), 2)
    with pytest.raises(ValueError):
        s * s
    assert TruncatedSeries.of(1 + T * var("y", 200), 1) ** 2 == \
        TruncatedSeries.of(1 + 2 * T * var("y", 200), 1)
    with pytest.raises(ValueError):
        geometric(TruncatedSeries.const(1, 2),
                  TruncatedSeries.of(T * var("y", 200), 2))
    assert geometric(TruncatedSeries.const(1, 1),
                     TruncatedSeries.of(T * var("y", 200), 1)) == \
        TruncatedSeries.of(1 + T * var("y", 200), 1)
    # In a solve: a square of a series whose slice 1 holds y^200, and tails
    # whose slice 2 or 3 multiplies y^200 by y^200.
    for system, deepest in (
            (lambda v, c: (c.one + c.t * c.y ** 200 + c.t * v[0] ** 2,), 1),
            (lambda v, c: (c.one + c.t * c.geo(c.one, c.t * c.y ** 200 * v[0]),), 1),
            (lambda v, c: (c.one + c.geo(c.t * v[0], c.t * c.y ** 200),), 2)):
        fixed_point_solve(system, deepest)
        with pytest.raises(ValueError, match="exponent overflow"):
            fixed_point_solve(system, deepest + 1)


# -- products by one term ------------------------------------------------------

_one_terms = st.tuples(st.sampled_from((1, -1, 2, -2, 5, -5)),
                       st.integers(0, 10), st.integers(0, 3), st.integers(0, 3))


@given(_one_terms, mixed_polys, st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_a_product_by_one_term_matches_the_general_kernel(term, p, order):
    # coeff * t^j * y^a * x^b with j from 0 to past the order; the term's
    # own series reaches t^j, so the product's order is the other's.
    coeff, j, a, b = term
    m = Poly.monomial({"t": j, "y": a, "x": b}, coeff)
    one, other = TruncatedSeries(m, max(j, order)), TruncatedSeries(p, order)
    want = TruncatedSeries(p * m, order)    # Poly products use the kernel
    assert one * other == want and other * one == want
    assert (one * other).order == order
    assert all(0 not in d.values() for d in (one * other).slices)
    assert one * one == TruncatedSeries(m * m, max(j, order))
    assert other * coeff == TruncatedSeries(p * coeff, order)


@given(st.lists(st.tuples(_one_terms, st.booleans(), st.integers(0, 2)),
                min_size=1, max_size=4), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_lazy_products_by_one_term_match_the_eager_evaluation(terms, order):
    # Each term multiplies an unknown, a square, a tail or another shifted
    # node by a monomial, on the left or the right.
    def system(v, c):
        out = c.const(0)
        for (coeff, j, a, b), left, kind in terms:
            mono = coeff * c.t ** j * c.y ** a * c.x ** b
            node = (v[0], v[0] * v[0], c.geo(v[0], c.t * v[0]))[kind]
            out = out + (mono * node if left else node * mono)
            out = out + mono * (c.x * node)
        return (c.one + c.t * out,)
    assert fixed_point_solve(system, order) == _solve_cap_by_cap(system, order)


def test_products_by_one_term_keep_the_exponent_overflow_guard():
    var = Poly.variable
    for order in (0, 2):
        big = TruncatedSeries.of(var("y", 200), order)
        with pytest.raises(ValueError, match="exponent overflow"):
            big * TruncatedSeries.of(var("y", 60), order)
        with pytest.raises(ValueError, match="exponent overflow"):
            TruncatedSeries.of(var("y", 60), order) * (big + T)
    assert TruncatedSeries.of(var("y", 200), 2) * \
        TruncatedSeries.of(var("y", 55), 2) == TruncatedSeries.of(var("y", 255), 2)
    # The same products in the lazy pass: the big exponent in the factor,
    # in a shifted node's factor, or in the unknown's own slice.
    calls = []
    for system in (lambda v, c: (c.one + c.t * c.y ** 60 * (c.y ** 200 * v[0]),),
                   lambda v, c: (c.one + c.t * (v[0] * c.y ** 200) * c.y ** 60,),
                   lambda v, c: (c.one + c.t * c.y ** 200 + c.t * c.y ** 60 * v[0],)):
        def counted(v, c, system=system):
            calls.append(c)
            return system(v, c)
        calls.clear()
        with pytest.raises(ValueError, match="exponent overflow"):
            fixed_point_solve(counted, 2)
        assert len(calls) == 1   # raised by the lazy pass, not the check


def test_a_scaled_unknown_is_not_contractive():
    for rhs in (lambda v, c: 2 * v[0], lambda v, c: v[0] * 2,
                lambda v, c: c.x * v[0], lambda v, c: -v[0] * c.y):
        with pytest.raises(NonContractiveError, match="depends on itself"):
            fixed_point_solve(lambda v, c: (rhs(v, c),), 3)


# -- work pins -----------------------------------------------------------------

def _pairs_of(solve, monkeypatch):
    """The coefficient pairs the product kernels visit during solve(), and
    the kernel calls: a product of dicts of sizes a and b visits a*b pairs,
    a square of size a a*(a+1)/2.  A product by one term re-keys and calls
    no kernel."""
    from patlab import series

    count = [0, 0]
    mul, square = series._mul_into, series._square_into

    def counted_mul(out, a, b, bits):
        count[0] += len(a) * len(b)
        count[1] += 1
        mul(out, a, b, bits)

    def counted_square(out, a, bits):
        count[0] += len(a) * (len(a) + 1) // 2
        count[1] += 1
        square(out, a, bits)

    with monkeypatch.context() as mp:
        mp.setattr(series, "_mul_into", counted_mul)
        mp.setattr(series, "_square_into", counted_square)
        solve()
    return tuple(count)


@pytest.mark.parametrize("args, pairs, calls", [
    pytest.param(("thm8", 16, None, None), 313_594, 961, id="thm8"),
    pytest.param(("fam_132_1m", 16, 3, None), 5_148, 425, id="fam_132_1m"),
])
def test_a_solve_does_no_more_coefficient_products_than_recorded(
        args, pairs, calls, monkeypatch):
    # Exact arithmetic makes the counts deterministic; a regression in the
    # number of products shows here without timing noise.
    solve = catalog._solve   # cold: past the lru_cache and the solve chain
    got = _pairs_of(lambda: solve(*args), monkeypatch)
    assert got[0] <= pairs and got[1] <= calls


def test_a_solve_chain_does_no_more_coefficient_products_than_recorded(
        monkeypatch):
    # thm8 at orders 10, 12, 14 and 16 in turn from an empty chain, as the
    # series-o16 workload asks them: a cold solve at 10, one at the cap, and
    # two truncations of it.  The four cold solves take 491,372 pairs in
    # 2,580 calls.
    monkeypatch.setattr(catalog, "_SOLVED", {})
    solve = catalog.solve_system.__wrapped__   # past the lru_cache
    got = _pairs_of(lambda: [solve("thm8", order) for order in (10, 12, 14, 16)],
                    monkeypatch)
    assert got[0] <= 326_270 and got[1] <= 1_322
