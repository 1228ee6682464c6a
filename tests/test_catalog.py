import hashlib
import inspect
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from patlab import catalog, checks
from patlab.oracle import brute_distribution
from patlab.series import (
    EqContext,
    Poly,
    T_CAP_HARD,
    catalan,
    fixed_point_solve,
    poly_str,
    series_str,
)


def x0_coeffs(entry_id, order):
    s = catalog.solve_catalog(entry_id, order).substitute({"y": 1, "x": 0})
    return [s.t_slice(n).constant_term() for n in range(order + 1)]


def test_thm5_slices():
    s = catalog.solve_catalog("thm5", 4).substitute({"y": 1})
    assert series_str(s) == "1 + t + 2*t^2 + (4+x)*t^3 + (8+6x)*t^4"


def test_thm8_t3_slice():
    s = catalog.solve_catalog("thm8", 3)
    want = (Poly.variable("x1") + Poly.variable("x2") * Poly.variable("y")
            + Poly.variable("x3") * Poly.variable("y")
            + Poly.variable("x4") * Poly.variable("y", 2) + Poly.variable("y"))
    assert s.t_slice(3) == want


def test_fam_123_1m2_m3_t3():
    s = catalog.solve_catalog("fam_123_1m2", 3, m=3).substitute({"y": 1})
    assert poly_str(s.t_slice(3)) == "4 + x"


def test_fam_123_2m31_m3_prefix():
    s = catalog.solve_catalog("fam_123_2m31", 4, m=3)
    assert series_str(s) == "1 + t + 2*t^2 + (4+x)*t^3 + (9+5x)*t^4"


def test_param_domains():
    with pytest.raises(ValueError):
        catalog.solve_catalog("fam_132_a1m", 4, m=3, a=1)
    with pytest.raises(ValueError):
        catalog.solve_catalog("fam_132_a1m", 4, m=3, a=3)
    with pytest.raises(ValueError):
        catalog.solve_catalog("fam_123_1m2", 4, m=1)
    with pytest.raises(ValueError):
        catalog.solve_catalog("fam_123_1m2", 4)
    with pytest.raises(ValueError):
        catalog.solve_catalog("thm5", 4, m=3)
    with pytest.raises(ValueError):
        catalog.solve_catalog("nonesuch", 4)


def test_family_patterns():
    assert catalog.family_pattern("fam_123_1m2", 3) == (1, 3, 2)
    assert catalog.family_pattern("fam_123_1m2", 5) == (1, 5, 4, 3, 2)
    assert catalog.family_pattern("fam_123_2m31", 4) == (2, 4, 3, 1)
    assert catalog.family_pattern("fam_132_1m", 4) == (1, 2, 3, 4)
    assert catalog.family_pattern("fam_132_a1m", 5, 3) == (3, 1, 2, 4, 5)
    assert catalog.family_pattern("fam_132_m1head", 4) == (3, 1, 2, 4)
    assert catalog.family_pattern("fam_132_2m1", 5) == (2, 3, 4, 5, 1)
    assert catalog.family_pattern("fam_132_a2m1", 5, 4) == (4, 2, 3, 5, 1)
    assert catalog.family_pattern("fam_132_m1m1", 5) == (4, 2, 3, 5, 1)


# -- raw sum forms ---------------------------------------------------------------
#
# The catalog compresses every infinite sum over the last-segment size into
# geometric closed forms.  Re-evaluate the defining sums term by term (all
# terms beyond the truncation order vanish) and require identical series.

def sum_powers(c, base, lo, hi, weight):
    total = c.const(0)
    for k in range(lo, min(hi, c.order) + 1):
        total = total + weight(k) * base ** k
    return total


def eq_thm3_a0(v, c):
    a0 = v[0]
    out = c.one + c.t * c.x * c.y * a0
    for k in range(2, c.order + 1):
        out = out + c.t ** k * c.x ** (k - 2) * c.y ** (k - 1) * a0 ** k
    return out


def partial(a0, a1, j, c):
    # A1 + (A1 - 1)(A0 + ... + A0^j)
    out = a1
    for i in range(1, j + 1):
        out = out + (a1 - 1) * a0 ** i
    return out


def eq_thm3_a1(v, c):
    a0, a1 = v[0], v[1]
    out = c.one + c.t * c.y * a0
    for k in range(2, c.order + 1):
        out = out + (c.t ** k * c.x ** (k - 2) * c.y ** (k - 1) * a0
                     * partial(a0, a1, k - 2, c))
    return out


def eq_thm3_a(v, c):
    a0, a1 = v[0], v[1]
    out = c.one + c.t * a1 + c.t ** 2 * partial(a0, a1, 1, c)
    for k in range(3, c.order + 1):
        out = out + (c.t ** k * c.x ** (k - 3) * c.y ** (k - 2)
                     * partial(a0, a1, k - 1, c))
    return out


def eq_thm7_a0(v, c):
    a0 = v[0]
    out = c.one + c.t * c.x3 * c.y * a0 + c.t ** 2 * c.x1 * c.y * a0 ** 2
    for k in range(3, c.order + 1):
        out = out + (c.t ** k * c.x2 * c.x3 ** (k - 2) * c.y ** (k - 1)
                     * a0 ** k)
    return out


def eq_thm7_a1(v, c):
    a0, a1 = v[0], v[1]
    out = c.one + c.t * c.y * a0 + c.t ** 2 * c.x2 * c.y * a0 * a1
    for k in range(3, c.order + 1):
        out = out + (c.t ** k * c.x1 * c.x3 ** (k - 2) * c.y ** (k - 1) * a0
                     * partial(a0, a1, k - 2, c))
    return out


def eq_thm7_a(v, c):
    a0, a1 = v[0], v[1]
    out = c.one + c.t * a1 + c.t ** 2 * partial(a0, a1, 1, c)
    for k in range(3, c.order + 1):
        out = out + (c.t ** k * c.x1 * c.x3 ** (k - 3) * c.y ** (k - 2)
                     * partial(a0, a1, k - 1, c))
    return out


def geom_tail(a0, j, c):
    # 1 + A0 + ... + A0^j
    out = c.one
    for i in range(1, j + 1):
        out = out + a0 ** i
    return out


def eq_thm8_a0(v, c):
    a0 = v[0]
    q0 = c.x2 * (a0 - 1) + 1
    out = c.one + c.t * c.x4 * c.y * a0
    for k in range(2, c.order + 1):
        out = out + (c.t ** k * c.x1 ** (k - 2) * c.x3 * c.y * a0 ** (k - 1)
                     * q0)
    return out


def eq_thm8_a1(v, c):
    a0, a1 = v[0], v[1]
    q0 = c.x2 * (a0 - 1) + 1
    q1 = c.x2 * (a1 - 1) + 1
    out = c.one + c.t * c.y * a0 + c.t ** 2 * c.x3 * c.y * a0 * q1
    for k in range(3, c.order + 1):
        out = out + (c.t ** k * c.x1 ** (k - 2) * c.x3 * c.y * a0
                     * (geom_tail(a0, k - 3, c) * q0 * (a1 - 1) + q1))
    return out


def eq_thm8_a(v, c):
    a0, a1 = v[0], v[1]
    q0 = c.x2 * (a0 - 1) + 1
    q1 = c.x2 * (a1 - 1) + 1
    out = c.one + c.t * a1
    for k in range(2, c.order + 1):
        out = out + (c.t ** k * c.x1 ** (k - 2)
                     * (geom_tail(a0, k - 2, c) * q0 * (a1 - 1) + q1))
    return out


def _system(*equations):
    """A system whose i-th right-hand side is the i-th equation's."""
    return lambda v, c: tuple(eq(v, c) for eq in equations)


@pytest.mark.parametrize("entry_id,raw", [
    ("thm3", [eq_thm3_a0, eq_thm3_a1, eq_thm3_a]),
    ("thm7", [eq_thm7_a0, eq_thm7_a1, eq_thm7_a]),
    ("thm8", [eq_thm8_a0, eq_thm8_a1, eq_thm8_a]),
])
def test_compressed_equations_match_raw_sums(entry_id, raw):
    order = 6
    raw_solution = fixed_point_solve(_system(*raw), order, [1] * len(raw))
    system = catalog.solve_system(entry_id, order)
    names = ["A0", "A1", "A"]
    for name, raw_series in zip(names, raw_solution):
        assert system[name].poly == raw_series.poly, (entry_id, name)


def test_thm1_thm2_raw_sums():
    order = 6

    def thm1_a1(v, c):
        out = c.one + c.t * c.y * v[0] + c.t ** 2 * c.y * v[0] ** 2
        for k in range(3, c.order + 1):
            out = out + c.t ** k * c.x * c.y ** (k - 1) * v[0] ** k
        return out

    def thm2_a1(v, c):
        out = c.one + c.t * c.y * v[0] + c.t ** 2 * c.x * c.y * v[0] ** 2
        for k in range(3, c.order + 1):
            out = out + c.t ** k * c.y ** (k - 1) * v[0] ** k
        return out

    assert fixed_point_solve(_system(thm1_a1), order)[0].poly == \
        catalog.solve_system("thm1", order)["A1"].poly
    assert fixed_point_solve(_system(thm2_a1), order)[0].poly == \
        catalog.solve_system("thm2", order)["A1"].poly


def test_thm4_thm6_raw_sums():
    order = 6

    def thm4_a(v, c):
        q = c.y * (v[0] - 1) + 1
        out = c.one + c.t * q
        for k in range(2, c.order + 1):
            out = out + c.t ** k * c.x ** (k - 2) * q ** k
        return out

    def thm6_a(v, c):
        q = c.y * (v[0] - 1) + 1
        out = c.one + c.t * q
        for k in range(2, c.order + 1):
            out = out + c.t ** k * (c.x * c.y * (v[0] - 1) + 1) * q ** (k - 1)
        return out

    assert fixed_point_solve(_system(thm4_a), order)[0].poly == \
        catalog.solve_catalog("thm4", order).poly
    assert fixed_point_solve(_system(thm6_a), order)[0].poly == \
        catalog.solve_catalog("thm6", order).poly


def raw_fam_123_1m2(m):
    def eq(v, c):
        out = c.const(0)
        for k in range(0, c.order + 1):
            marked = c.x if k >= m else c.one
            out = out + marked * c.t ** k * v[0] ** k
        return out
    return eq


def raw_fam_132_1m(m):
    def eq(v, c):
        out = c.const(0)
        for k in range(0, c.order + 1):
            marked = c.x ** (k - m + 1) if k >= m else c.one
            out = out + marked * c.t ** k * v[0] ** k
        return out
    return eq


def test_family_raw_sums():
    order = 7
    for m in (2, 3, 4):
        assert fixed_point_solve(_system(raw_fam_123_1m2(m)), order)[0].poly == \
            catalog.solve_catalog("fam_123_1m2", order, m=m).poly
        assert fixed_point_solve(_system(raw_fam_132_1m(m)), order)[0].poly == \
            catalog.solve_catalog("fam_132_1m", order, m=m).poly


def test_family_raw_sums_at_the_hard_cap_need_no_deep_recursion():
    # Lazy slices are computed bottom-up, so the stack depth a solve needs
    # follows the equation's expression depth, not the order.
    order = 16
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        solved = {(raw, m): fixed_point_solve(_system(raw(m)), order)[0]
                  for raw in (raw_fam_123_1m2, raw_fam_132_1m) for m in (2, 3, 4)}
    finally:
        sys.setrecursionlimit(limit)
    for m in (2, 3, 4):
        assert solved[raw_fam_123_1m2, m].poly == \
            catalog.solve_catalog("fam_123_1m2", order, m=m).poly
        assert solved[raw_fam_132_1m, m].poly == \
            catalog.solve_catalog("fam_132_1m", order, m=m).poly


# -- solutions against the oracle, small ------------------------------------------

THEOREM_TRACKING = {
    "thm1": ((1, 2, 3), [(1, 3, 2)]),
    "thm2": ((1, 2, 3), [(2, 3, 1)]),
    "thm3": ((1, 2, 3), [(3, 2, 1)]),
    "thm4": ((1, 3, 2), [(1, 2, 3)]),
    "thm5": ((1, 3, 2), [(2, 3, 1)]),
    "thm6": ((1, 3, 2), [(2, 1, 3)]),
    "thm8": ((1, 3, 2), [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]),
}


@pytest.mark.parametrize("entry_id", sorted(THEOREM_TRACKING))
def test_theorem_series_match_oracle_small(entry_id):
    lam, tracked = THEOREM_TRACKING[entry_id]
    variables = ("x",) if len(tracked) == 1 else tuple(
        f"x{i + 1}" for i in range(len(tracked)))
    s = catalog.solve_catalog(entry_id, 6)
    for n in range(7):
        want = brute_distribution(lam, tracked, n, variables=variables).poly
        assert s.t_slice(n) == want, (entry_id, n)


def test_closed_coeff_values():
    assert catalog.closed_coeff("thm1eq", 3, 1) == 1
    assert catalog.closed_coeff("thm1eq", 4, 1) == 5
    assert catalog.closed_coeff("thm4eq", 4, 1) == 4
    assert catalog.closed_coeff("thm2eq", 3, 1) == 0   # oracle gives 1
    assert catalog.closed_coeff("thm2eq", 4, 1) == 0   # oracle gives 5
    assert catalog.closed_coeff("thm5eq", 4, 1) == 4   # oracle gives 6
    assert catalog.closed_coeff("cf_132_1m_printed", 5, 1, 3) == 21  # oracle 15
    with pytest.raises(catalog.UnsupportedIndexError):
        catalog.closed_coeff("cf_123_1m2", 4, 0, 3)
    with pytest.raises(ValueError):
        catalog.closed_coeff("thm1eq", 3, 1, m=4)
    with pytest.raises(ValueError):
        catalog.closed_coeff("cf_123_1m2", 3, 1)  # m missing


def test_closed_coeff_k0_complement():
    for m in (2, 3):
        for n in range(1, 7):
            gamma = catalog.family_pattern("fam_132_1m", m)
            want = brute_distribution((1, 3, 2), [gamma], n, variables=("x",),
                                      track_des=False).poly.coefficient({})
            assert catalog.closed_coeff_k0("cf_132_1m", n, m) == want


def test_closed_coeff_can_be_fractional():
    value = catalog.closed_coeff("cf_132_1m_printed", 5, 2, 2)
    assert isinstance(value, Fraction) and value.denominator != 1


def test_reference_sequences():
    assert catalog.reference_sequence("catalan", 4) == 14
    assert catalog.reference_sequence("seq_123_231_x0", 5) == 23
    assert catalog.reference_sequence("seq_132_231_x0", 4) == 8
    assert catalog.reference_sequence("seq_132_231_x0", 0) == 1
    assert catalog.reference_sequence("seq_132_213_x0", 9) == 1223
    assert [catalog.reference_sequence("motzkin", n) for n in range(7)] == \
        [1, 1, 2, 4, 9, 21, 51]
    with pytest.raises(ValueError):
        catalog.reference_sequence("seq_123_231_x0", 9)
    with pytest.raises(ValueError):
        catalog.reference_sequence("fibonacci", 3)


def test_identity_verdicts():
    assert catalog.printed_identity_check("thm1_quadratic", 8).ok
    assert not catalog.printed_identity_check("thm1_quadratic_printed", 8).ok
    assert catalog.printed_identity_check("thm2_polynomial", 8).ok
    assert catalog.printed_identity_check("123long2", 8, m=3).ok
    assert not catalog.printed_identity_check("123long2_printed", 8, m=3).ok
    assert catalog.printed_identity_check("thm8_rational", 8).ok
    assert catalog.printed_identity_check("thm8_expansion", 5).ok
    verdict = catalog.printed_identity_check("thm7_expansion", 5)
    assert not verdict.ok
    assert verdict.witness == (3, "1", 1, 0)
    with pytest.raises(ValueError):
        catalog.printed_identity_check("nonesuch", 8)


def _printed_thm7_residual(system, c):
    # The thm7 residual A denom - numer with the printed numerator and
    # denominator as printed, before they were grouped by powers of A0.
    a0, A = system["A0"], system["A"]
    a0_sq = a0 ** 2
    t, y, x1, x2, x3 = c.t, c.y, c.x1, c.x2, c.x3
    g = a0 * t ** 2 * y * (x1 - x2) - 1
    denom = (x3 * (x1 - x2)
             * (a0 * x3 ** 2 * t ** 2 * y ** 2 * g
                - (a0 + 1) * x3 * t * y * g
                + a0 * x1 * t ** 2 * y - 1))
    part_x1 = x1 * (
        x3 ** 2 * t * y * (a0_sq * t ** 2 * (x2 * t ** 2 * y ** 2
                                             + y * (3 * x2 * t + 2 * x2 + t + 1) + 1)
                           + a0 * ((x2 + 1) * t ** 3 * y
                                   + t ** 2 * (2 * x2 * y + y + 2) + t + 1)
                           + t + 1)
        + x2 * t ** 2 * (a0_sq * (-1) * t * y + a0 - 1)
        + a0_sq * x3 ** 4 * t ** 5 * y ** 3
        - a0 * x3 ** 3 * t ** 2 * y ** 2 * (a0 * (x2 + 1) * t ** 3 * y
                                            + t ** 2 * (a0 * (2 * x2 * y + y + 2) + 1)
                                            + t + 1)
        + x3 * (a0 * x2 * t ** 4 * y * (a0 - y)
                - a0 * t ** 3 * y * (a0 * x2 + x2 + 1)
                - a0 * t ** 2 * (x2 * y + y + 1) - t - 1))
    part_x2 = x2 * (
        -a0_sq * x3 ** 4 * t ** 5 * y ** 3
        - x3 ** 2 * t * y * (a0_sq * (2 * t - 1) * t ** 2 * y
                             + a0 * (t ** 3 * y + t ** 2 * (y + 2) + t + 1)
                             + t + 1)
        + x3 * (t ** 2 * (a0_sq * (-1) * y + y + 1)
                + a0 * (a0 + 1) * t ** 3 * y + t + 1)
        + a0 * x3 ** 3 * t ** 2 * y ** 2 * (a0 * t ** 3 * y + (a0 + 1) * t ** 2 + t + 1)
        + (a0 - 1) * t)
    part_x3 = (x3 * t * (x3 * t * y - 1)
               * (a0_sq * x3 * t * y * (x3 * t * y - 1) + a0 - 1))
    part_x1sq = (a0 * x1 ** 2 * t ** 2 * y
                 * (-(a0) * x2 * t ** 2 + a0 * x3 ** 3 * t ** 2 * y ** 2
                    - (a0 + 1) * x3 ** 2 * t * y + x3))
    part_x2sq = (a0 * x2 ** 2 * x3 * t ** 3 * y
                 * (a0 * x3 ** 2 * t * (t + 1) * y ** 2
                    - x3 * y * (a0 * t ** 2 * y + 2 * a0 * t + a0 + t + 1)
                    + (a0 + 1) * t * y + 1))
    numer = part_x1 + part_x2 + part_x3 + part_x1sq + part_x2sq
    return A * denom - numer


@pytest.mark.parametrize("order", (0, 4, T_CAP_HARD))
def test_thm7_residual_in_powers_of_a0_is_the_printed_one(order):
    system = catalog.solve_system("thm7", order)
    c = EqContext(order)
    assert catalog._thm7_rational(system, c, None, None) == \
        _printed_thm7_residual(system, c)


def _identity_params(identity_id):
    """The parameters an identity takes: those of its catalog entry."""
    entry = catalog.CATALOG[catalog.IDENTITIES[identity_id].entry]
    return ("m",) * entry.needs_m + ("a",) * (entry.a_bounds is not None)


@pytest.mark.parametrize("identity_id", sorted(catalog.IDENTITIES))
def test_identity_check_rejects_stray_parameters(identity_id):
    takes = _identity_params(identity_id)
    given = {"m": 4, "a": 3}
    for stray in ("m", "a"):
        if stray in takes:
            continue
        params = {k: v for k, v in given.items() if k in takes or k == stray}
        with pytest.raises(ValueError,
                           match=f"^{identity_id} takes no parameter {stray}$"):
            catalog.printed_identity_check(identity_id, 4, **params)


def test_every_registered_identity_instance_runs():
    idents = [c for c in checks.REGISTRY if c.check_id.startswith("ident_")]
    assert {c.params["identity"] for c in idents} == set(catalog.IDENTITIES)
    for c in idents:
        res = checks.run_check(c.check_id, c.params, n_max=4)
        assert res.status in ("pass", "report_only_pass", "report_only_fail")


def test_identity_table_agrees_with_the_catalog():
    registered = [c for c in checks.REGISTRY if c.suite == "identities"]
    assert [c.check_id for c in registered] == [
        f"ident_{i}" for i, ident in catalog.IDENTITIES.items()
        for _ in ident.instances]
    for identity_id, ident in catalog.IDENTITIES.items():
        assert ident.entry in catalog.CATALOG
        assert (ident.residual is None) != (ident.printed is None)
        entry = catalog.CATALOG[ident.entry]
        for c in registered:
            if c.params["identity"] == identity_id:
                assert c.trust == ident.trust
                entry.check_params(c.params.get("m"), c.params.get("a"))
                assert set(c.params) - {"identity"} == \
                    set(_identity_params(identity_id))


def test_every_identity_verdict_is_pinned():
    # The verdict and witness of every registered identity instance at
    # orders 0..8, then 0..16, in registry order.
    digest = hashlib.sha256()
    registered = [c for c in checks.REGISTRY if c.suite == "identities"]
    for order in range(T_CAP_HARD + 1):
        for c in registered:
            p = c.params
            v = catalog.printed_identity_check(p["identity"], order,
                                               m=p.get("m"), a=p.get("a"))
            digest.update(repr((c.check_id, sorted(c.params.items()), order,
                                v.identity_id, v.ok, v.witness)).encode())
        if order == 8:
            assert digest.hexdigest() == (
                "5e3d59f4a438c43632139678aa8c779f78ac2215aa3ab0ab8ab448c76a8fc713")
    assert digest.hexdigest() == (
        "94d1349252c8080916072d8d2291788f2941da281654607b395c720f2b0572a3")


def _registered_solves():
    """Every registered (entry, m, a) system, in catalog order."""
    registered: dict[str, set] = {}
    for c in checks.REGISTRY:
        if "series" in c.params:
            registered.setdefault(c.params["series"], set()).add(
                (c.params.get("m"), c.params.get("a")))
    return [(eid, m, a) for eid, entry in catalog.CATALOG.items()
            for m, a in (sorted(registered[eid], key=repr) if entry.needs_m
                         else [(None, None)])]


def _solves_digest(orders):
    # Every series of every registered system, derived ones included: its
    # name, order and terms in canonical order.
    digest = hashlib.sha256()
    for order in orders:
        for eid, m, a in _registered_solves():
            system = catalog.solve_system(eid, order, m, a)
            for name in sorted(system):
                digest.update(repr((eid, m, a, order, name,
                                    system[name].order,
                                    list(system[name].poly.terms()))).encode())
    return digest.hexdigest()


def test_every_catalog_solve_is_pinned():
    assert _solves_digest((8, 16)) == (
        "6bcb2dc2ca44de314086dab9181a9c89aed68e5c2831773997e85d6e81009553")


@pytest.mark.parametrize("order, want", [
    (10,
     "0d424fb38f272cf9e5d7fd24d3eb11ebaefb54dd0df7e4506c55464639c96930"),
    (16,
     "c580cd063c4cbb83a414e9cca2c24832fc175fa3c4c5dc575bbbc5241c2d8e1e"),
])
def test_every_catalog_solve_is_pinned_at(order, want):
    # Recorded before the solver took whole systems in one pass.
    assert _solves_digest((order,)) == want


# -- one solve chain per system -------------------------------------------------

@lru_cache(maxsize=None)
def _cold(eid, order, m, a):
    return catalog._solve(eid, order, m, a)


def _check_chain(eid, m, a, orders):
    # solve_system past its lru_cache, from an empty chain, at orders in
    # turn: each system equals the cold solve at its order.  The system is
    # solved at most twice, with int seeds: at the first order, then at
    # T_CAP_HARD when a higher order is first asked; each solve runs one
    # eager evaluation, at its own order.  Then an order outside
    # [0, T_CAP_HARD] raises the cold solve's ValueError before any solve
    # and leaves the chain as it was.
    want = [_cold(eid, order, m, a) for order in orders]
    refused = {}
    for order in (-1, T_CAP_HARD + 1):
        with pytest.raises(ValueError) as cold:
            catalog._solve(eid, order, m, a)
        refused[order] = str(cold.value)
    solves, eager = [], []

    def solve(equations, order, seeds):
        def counted(v, c):
            if isinstance(c, EqContext):
                eager.append(order)
            return equations(v, c)
        assert all(type(s) is int for s in seeds)
        solves.append(order)
        return fixed_point_solve(counted, order, seeds)

    climbs = any(order > orders[0] for order in orders)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "_SOLVED", {})
        mp.setattr(catalog, "fixed_point_solve", solve)
        got = [catalog.solve_system.__wrapped__(eid, order, m, a)
               for order in orders]
        assert got == want, (eid, m, a, orders)
        assert solves == [orders[0]] + [T_CAP_HARD] * climbs
        assert eager == solves
        held = catalog._SOLVED[eid, m, a]
        assert held[0] == solves[-1]
        for order, message in refused.items():
            with pytest.raises(ValueError) as chained:
                catalog.solve_system.__wrapped__(eid, order, m, a)
            assert str(chained.value) == message
        assert catalog._SOLVED == {(eid, m, a): held}
        assert eager == solves == [orders[0]] + [T_CAP_HARD] * climbs


@pytest.mark.parametrize("orders", [
    pytest.param(range(T_CAP_HARD + 1), id="ascending"),
    pytest.param(range(T_CAP_HARD, -1, -1), id="descending"),
])
def test_chained_solves_equal_cold_ones(orders):
    for eid, m, a in _registered_solves():
        _check_chain(eid, m, a, orders)


@given(st.sampled_from(_registered_solves()),
       st.lists(st.integers(0, T_CAP_HARD), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_solves_chained_in_any_order_equal_cold_ones(system, orders):
    _check_chain(*system, orders)


def test_clearing_the_solve_cache_makes_the_next_solve_cold(monkeypatch):
    # cache_clear empties the chain as well as the lru_cache, so the next
    # order, a lower one too, is solved cold and not served as a truncation.
    catalog.solve_system("thm8", 12)
    catalog.solve_system.cache_clear()
    assert catalog._SOLVED == {}
    assert catalog.solve_system.cache_info().currsize == 0
    seeds = []

    def solve(equations, order, s):
        seeds.extend(s)
        return fixed_point_solve(equations, order, s)
    monkeypatch.setattr(catalog, "fixed_point_solve", solve)
    assert catalog.solve_system("thm8", 10) == _cold("thm8", 10, None, None)
    assert seeds and all(type(s) is int for s in seeds)


def test_solved_series_sum_to_catalan():
    for entry_id in ("thm1", "thm5", "thm8"):
        s = catalog.solve_catalog(entry_id, 8)
        for n in range(9):
            total = sum(c for _, c in s.t_slice(n).terms())
            assert total == catalan(n)


def test_motzkin_matches_convolution_and_reaches_3000():
    # The defining convolution M_n = M_{n-1} + sum_i M_i M_{n-2-i} ...
    m = [catalog.reference_sequence("motzkin", n) for n in range(120)]
    for n in range(1, 120):
        assert m[n] == m[n - 1] + sum(m[i] * m[n - 2 - i] for i in range(n - 1))
    # ... and, far past any recursion limit, M_n = sum_k C(n, 2k) Catalan(k).
    big = 3000
    assert catalog.reference_sequence("motzkin", big) == sum(
        comb(big, 2 * k) * catalan(k) for k in range(big // 2 + 1))


@pytest.mark.parametrize("entry_id", ["thm8", "thm7"])
def test_identity_check_reuses_the_solved_system(entry_id):
    # printed_identity_check and solve_catalog must share one cache key.
    catalog.solve_catalog(entry_id, 10)
    misses = catalog.solve_system.cache_info().misses
    catalog.printed_identity_check(f"{entry_id}_rational", 10)
    assert catalog.solve_system.cache_info().misses == misses


# -- the catalog's data against the code it replaced -----------------------------
#
# Until the entries carried their own equations, patterns and domains, these
# were an if chain in solve_system, one in family_pattern and two domain
# tables.  The copies below are that code, with the two equations that are
# now one (thm3's and thm7's A) copied too.  It calls each entry's system
# function, since a solve takes a whole system.

def _old_thm3_a(v, c):
    a0, a1 = v[0], v[1]
    u = c.t * c.x * c.y
    tail = c.geo(c.t ** 3 * c.y, u)  # last-segment weights for k >= 3
    return (c.one + c.t * a1 + c.t ** 2 * (a0 * (a1 - 1) + a1)
            + tail * a1
            + tail * (a1 - 1) * (a0 + a0 ** 2 * c.geo(c.one, u * a0)))


def _old_thm7_a(v, c):
    a0, a1 = v[0], v[1]
    u = c.t * c.x3 * c.y
    tail = c.geo(c.t ** 3 * c.x1 * c.y, u)  # k >= 3 last-segment weights
    return (c.one + c.t * a1 + c.t ** 2 * (a0 * (a1 - 1) + a1)
            + tail * a1
            + tail * (a1 - 1) * (a0 + a0 ** 2 * c.geo(c.one, u * a0)))


def _with_old_a(system, old_a):
    """The system with its A equation replaced by the old one."""
    return lambda v, c: system(v, c)[:2] + (old_a(v, c),)


def _old_solve_system(entry_id, order, m=None, a=None):
    if entry_id == "thm1":
        (a1,) = fixed_point_solve(catalog._thm1, order)
        return {"A1": a1, "A": catalog._a_from_a1(a1)}
    if entry_id == "thm2":
        (a1,) = fixed_point_solve(catalog._thm2, order)
        c = EqContext(order)
        return {"A1": a1, "A": catalog._a_from_a1(a1) + c.t ** 2 * (1 - c.x) * a1 ** 2}
    if entry_id == "thm3":
        a0, a1, a = fixed_point_solve(_with_old_a(catalog._thm3, _old_thm3_a),
                                      order, [1, 1, 1])
        return {"A0": a0, "A1": a1, "A": a}
    if entry_id == "thm4":
        (a,) = fixed_point_solve(catalog._thm4, order)
        return {"A": a}
    if entry_id == "thm5":
        (a,) = fixed_point_solve(catalog._thm5, order)
        return {"A": a}
    if entry_id == "thm5_remark":
        a1, a = fixed_point_solve(catalog._thm5_remark, order, [1, 1])
        return {"A1": a1, "A": a}
    if entry_id == "thm6":
        (a,) = fixed_point_solve(catalog._thm6, order)
        return {"A": a}
    if entry_id == "thm7":
        a0, a1, a = fixed_point_solve(_with_old_a(catalog._thm7, _old_thm7_a),
                                      order, [1, 1, 1])
        return {"A0": a0, "A1": a1, "A": a}
    if entry_id == "thm8":
        a0, a1, a = fixed_point_solve(catalog._thm8, order, [1, 1, 1])
        return {"A0": a0, "A1": a1, "A": a}
    if entry_id == "fam_123_1m2":
        (b,) = fixed_point_solve(catalog._fam_123_1m2(m), order)
        return {"B": b}
    if entry_id == "fam_123_2m31":
        b1, b = fixed_point_solve(catalog._fam_123_2m31(m), order, [1, 1])
        return {"B1": b1, "B": b}
    if entry_id == "fam_132_1m":
        (b,) = fixed_point_solve(catalog._fam_132_1m(m), order)
        return {"B": b}
    if entry_id == "fam_132_a1m":
        (b,) = fixed_point_solve(catalog._fam_132_a1m(m, a), order)
        return {"B": b}
    if entry_id == "fam_132_m1head":
        (b,) = fixed_point_solve(catalog._fam_132_m1head(m), order)
        return {"B": b}
    if entry_id == "fam_132_2m1":
        b1, b = fixed_point_solve(catalog._fam_132_2m1(m), order, [1, 1])
        return {"B1": b1, "B": b}
    if entry_id == "fam_132_a2m1":
        b1, b = fixed_point_solve(catalog._fam_132_a2m1(m, a), order, [1, 1])
        return {"B1": b1, "B": b}
    if entry_id == "fam_132_m1m1":
        b1, b = fixed_point_solve(catalog._fam_132_m1m1(m), order, [1, 1])
        return {"B1": b1, "B": b}
    raise ValueError(f"unknown catalog id {entry_id!r}")


def _old_family_pattern(entry_id, m, a=None):
    if entry_id == "fam_123_1m2":        # 1 m (m-1) ... 2
        return (1,) + tuple(range(m, 1, -1))
    if entry_id == "fam_123_2m31":       # 2 m (m-1) ... 3 1
        return (2,) + tuple(range(m, 2, -1)) + (1,)
    if entry_id == "fam_132_1m":         # 1 2 ... m
        return tuple(range(1, m + 1))
    if entry_id == "fam_132_a1m":        # a 1 2 ... (a-1) (a+1) ... m
        return (a,) + tuple(v for v in range(1, m + 1) if v != a)
    if entry_id == "fam_132_m1head":     # canonical: (m-1) 1 2 .. (m-2) m
        return (m - 1,) + tuple(range(1, m - 1)) + (m,)
    if entry_id == "fam_132_2m1":        # 2 3 ... m 1
        return tuple(range(2, m + 1)) + (1,)
    if entry_id == "fam_132_a2m1":       # a 2 3 ... (a-1) (a+1) ... m 1
        return (a,) + tuple(v for v in range(2, m + 1) if v != a) + (1,)
    if entry_id == "fam_132_m1m1":       # canonical: (m-1) 2 3 .. (m-2) m 1
        return (m - 1,) + tuple(range(2, m - 1)) + (m, 1)
    raise ValueError(f"not a family entry: {entry_id}")


_OLD_M_DOMAIN = {"fam_123_1m2": 2, "fam_123_2m31": 2, "fam_132_1m": 2,
                 "fam_132_a1m": 3, "fam_132_m1head": 3, "fam_132_2m1": 2,
                 "fam_132_a2m1": 4, "fam_132_m1m1": 4}
_OLD_A_DOMAIN = {"fam_132_a1m": (2, -1), "fam_132_a2m1": (3, -1)}


def _old_check_params(entry_id, m=None, a=None):
    if entry_id in _OLD_M_DOMAIN:
        if m is None:
            raise ValueError(f"{entry_id} needs a pattern length m")
        lo = _OLD_M_DOMAIN[entry_id]
        if m < lo:
            raise ValueError(f"{entry_id} needs m >= {lo}, got {m}")
    elif m is not None:
        raise ValueError(f"{entry_id} takes no parameter m")
    if entry_id in _OLD_A_DOMAIN:
        if a is None:
            raise ValueError(f"{entry_id} needs a head parameter a")
        lo, hi = _OLD_A_DOMAIN[entry_id]
        if not (lo <= a <= m + hi):
            raise ValueError(
                f"{entry_id} needs {lo} <= a <= m{hi:+d}, got a = {a}")
    elif a is not None:
        raise ValueError(f"{entry_id} takes no parameter a")


def _registered_instances():
    registered = {}
    for c in checks.REGISTRY:
        if "series" in c.params:
            registered.setdefault(c.params["series"], set()).add(
                (c.params.get("m"), c.params.get("a")))
    return [(eid, m, a) for eid, entry in catalog.CATALOG.items()
            for m, a in (sorted(registered[eid], key=repr) if entry.needs_m
                         else [(None, None)])]


@pytest.mark.parametrize("order", range(11))
def test_catalog_data_solves_as_the_old_if_chain(order):
    for eid, m, a in _registered_instances():
        got = catalog.solve_system(eid, order, m, a)
        want = _old_solve_system(eid, order, m, a)
        assert list(got) == list(want), (eid, m, a)
        for name in want:
            assert got[name] == want[name], (eid, m, a, order, name)


def test_catalog_data_gives_the_old_family_patterns():
    for eid, entry in catalog.CATALOG.items():
        if not entry.needs_m:
            with pytest.raises(ValueError, match="not a family entry"):
                catalog.family_pattern(eid, 3)
            continue
        for m in range(entry.m_min, 9):
            for a in (range(2, m + 1) if entry.a_bounds else [None]):
                assert catalog.family_pattern(eid, m, a) == \
                    _old_family_pattern(eid, m, a), (eid, m, a)
    for eid, m, a in _registered_instances():
        if m is not None:
            assert catalog.family_pattern(eid, m, a) == _old_family_pattern(eid, m, a)
    with pytest.raises(ValueError, match="not a family entry: nonesuch"):
        catalog.family_pattern("nonesuch", 3)


def test_check_params_messages_are_unchanged():
    # The CLI prints these messages; every entry and a grid of good and bad
    # (m, a) must raise the same text, or pass, as before.
    for eid, entry in catalog.CATALOG.items():
        for m in (None, 0, 1, 2, 3, 4, 5, 6):
            for a in (None, 0, 1, 2, 3, 4, 5, 6):
                try:
                    _old_check_params(eid, m, a)
                    want = None
                except ValueError as exc:
                    want = str(exc)
                try:
                    entry.check_params(m, a)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == want, (eid, m, a)
    with pytest.raises(ValueError, match="unknown catalog id 'nonesuch'"):
        catalog.solve_system("nonesuch", 4)
