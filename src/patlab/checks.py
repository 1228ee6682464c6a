"""Conformance harness: every claim gets a deterministic pass/fail check.

Checks are grouped into suites (symmetries, bijections, recursions,
closed_forms, identities, sequences).  A check either carries hard trust,
in which case a failure fails the whole run, or is report-only: suspected
misprints are solved, compared and recorded, but never gate the build.

Each check compares two independently produced objects, with the
brute-force oracle on one side wherever the claim is about permutations.
Failures always carry a witness: the first disagreeing coefficient in
canonical monomial order.

The statistic transports (transport_*, transport_general) are data: each
names an avoider class, a consecutive pattern and the Dyck-path factors
whose counts add up to it.  All transports of one class and range are
certified in a single cached pass that maps each avoider once and counts
every pattern with one compiled counter; each check looks up its verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import catalog, dyck, oracle, perms
from .series import VARS, Poly, catalan, monomial_str, y_reverse

HARD = catalog.HARD_PASS
REPORT = catalog.REPORT_ONLY

SUITES = ("symmetries", "bijections", "recursions", "closed_forms",
          "identities", "sequences")

DIST_NMAX = 10      # joint-distribution checks
COUNT_NMAX = 12     # counting-only checks
IDENTITY_ORDER = 8

LENGTH3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    n_range: str
    status: str               # pass | fail | report_only_pass | report_only_fail
    witness: dict | None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "report_only_pass")


def _witness(n, monomial, expected, actual) -> dict:
    def plain(v):
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        if isinstance(v, (int, str)):
            return v
        return str(v)
    return {"n": n, "monomial": monomial, "expected": plain(expected),
            "actual": plain(actual)}


def _poly_witness(n: int, want: Poly, got: Poly) -> dict | None:
    diff = want - got
    if not diff:
        return None
    exps, _ = next(diff.terms())
    label = monomial_str(exps, 1)
    where = {v: e for v, e in zip(VARS, exps) if e}
    return _witness(n, label, want.coefficient(where), got.coefficient(where))


def _slice(lam, gamma, n) -> Poly:
    return oracle.brute_distribution(lam, [gamma], n, variables=("x",)).poly


def _pattern_str(p) -> str:
    return perms.perm_str(tuple(p))


# -- individual check bodies ----------------------------------------------------
#
# Each runner returns (ok, witness_dict_or_None, n_range_string).

def _run_seq_catalan(params, n_max):
    lam = perms.parse_perm(params["avoid"])
    top = min(n_max, COUNT_NMAX)
    for n in range(top + 1):
        count = sum(1 for _ in perms.enumerate_avoiders(n, lam))
        if count != catalan(n):
            return False, _witness(n, "1", catalan(n), count), f"n<={top}"
    return True, None, f"n<={top}"


def _run_seq_series(params, n_max):
    entry = params["series"]
    order = min(n_max, DIST_NMAX)
    s = catalog.solve_catalog(entry, order).substitute({"y": 1, "x": 0})
    name = params["sequence"]
    for n in range(order + 1):
        try:
            want = catalog.reference_sequence(name, n)
        except ValueError:
            break  # stored prefix exhausted
        got = s.t_slice(n).constant_term()
        if got != want:
            return False, _witness(n, "1", want, got), f"n<={order}"
    return True, None, f"n<={order}"


def _run_sym_pair(params, n_max):
    kind = params["action"]
    lam = perms.parse_perm(params["lambda"])
    gam = perms.parse_perm(params["gamma"])
    top = min(n_max, 9)
    lam2 = perms.symmetry_transform(lam, kind)
    gam2 = perms.symmetry_transform(gam, kind)
    for n in range(top + 1):
        base = _slice(lam, gam, n)
        image = _slice(lam2, gam2, n)
        if kind == "reverse_complement":
            want = base
        else:
            want = y_reverse(base, n) if n >= 1 else base
        w = _poly_witness(n, want, image)
        if w:
            return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _run_sym_123_rc(params, n_max):
    gam = perms.parse_perm(params["gamma"])
    top = min(n_max, 9)
    other = perms.reverse_complement(gam)
    for n in range(top + 1):
        w = _poly_witness(n, _slice((1, 2, 3), gam, n), _slice((1, 2, 3), other, n))
        if w:
            return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _run_sym_phi(params, n_max):
    k = params["k"]
    top = min(n_max, 9)
    desc = tuple(range(k, 0, -1))                      # k..21
    hook = (1,) + tuple(range(k, 1, -1))               # 1k..32
    for gamma in (desc, hook):
        for n in range(top + 1):
            w = _poly_witness(n, _slice((3, 1, 2), gamma, n),
                              _slice((2, 1, 3), gamma, n))
            if w:
                w["monomial"] = f"{_pattern_str(gamma)}: {w['monomial']}"
                return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _run_sym_1321(params, n_max):
    k = params["k"]
    top = min(n_max, 9)
    pairs = [
        (tuple(range(1, k + 1)), tuple(range(k, 0, -1))),          # 12..k | k..21
        ((k,) + tuple(range(1, k)),                                # k12..(k-1)
         tuple(range(k - 1, 0, -1)) + (k,)),                       # (k-1)..21k
    ]
    for left, right in pairs:
        for n in range(top + 1):
            base = _slice((1, 3, 2), right, n)
            want = y_reverse(base, n) if n >= 1 else base
            w = _poly_witness(n, want, _slice((1, 3, 2), left, n))
            if w:
                w["monomial"] = f"{_pattern_str(left)}: {w['monomial']}"
                return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _run_bij_staircase(params, n_max):
    # Avoiders are in the class by construction and each preimage gets one
    # class test, so the round trips use the unguarded staircase word.
    which = params["map"]
    top = min(n_max, DIST_NMAX)
    inv, lam = ((dyck.phi_inverse, (1, 3, 2)) if which == "phi"
                else (dyck.psi_inverse, (1, 2, 3)))
    fwd = dyck.staircase_word
    for n in range(top + 1):
        for p in perms.avoider_list(lam, n):
            if inv(fwd(p)) != p:
                return False, _witness(n, perms.perm_str(p), perms.perm_str(p),
                                       perms.perm_str(inv(fwd(p)))), f"n<={top}"
        for w in dyck.enumerate_paths(n):
            q = inv(w)
            if perms.contains_classical(q, lam):
                return False, _witness(n, w, f"{perms.perm_str(lam)}-avoider",
                                       perms.perm_str(q)), f"n<={top}"
            if fwd(q) != w:
                return False, _witness(n, w, w, fwd(q)), f"n<={top}"
    return True, None, f"n<={top}"


def _run_bij_phin(params, n_max):
    top = min(n_max, 9)
    for n in range(top + 1):
        seen = set()
        for p in perms.avoider_list((3, 1, 2), n):
            q = perms.phi_n(p)
            if perms.contains_classical(q, (2, 1, 3)):
                return False, _witness(n, perms.perm_str(p), "213-avoider",
                                       perms.perm_str(q)), f"n<={top}"
            if perms.descent_set(q) != perms.descent_set(p):
                return False, _witness(n, perms.perm_str(p), "equal descent sets",
                                       perms.perm_str(q)), f"n<={top}"
            if perms.phi_n_inverse(q) != p:
                return False, _witness(n, perms.perm_str(p), perms.perm_str(p),
                                       perms.perm_str(perms.phi_n_inverse(q))), \
                    f"n<={top}"
            seen.add(q)
        if len(seen) != catalan(n):
            return False, _witness(n, "1", catalan(n), len(seen)), f"n<={top}"
    return True, None, f"n<={top}"


# statistic -> (avoided class, consecutive pattern, Dyck-path factors whose
# counts on the class's staircase path add up to the pattern's count).
# Descents are the pattern 21.
_TRANSPORTS = {
    "psi_des": ((1, 2, 3), (2, 1), ("RD", "RRR")),
    "psi_132": ((1, 2, 3), (1, 3, 2), ("DRRR",)),
    "psi_231": ((1, 2, 3), (2, 3, 1), ("DRRD",)),
    "phi_des": ((1, 3, 2), (2, 1), ("RD",)),
    "phi_123": ((1, 3, 2), (1, 2, 3), ("RRR",)),
}


@lru_cache(maxsize=None)
def _transport_verdicts(lam, top, stats):
    """Certify many statistic transports over one avoider class in one pass.

    stats is a tuple of (consecutive pattern, Dyck factors).  Every avoider
    of lam with n <= top is mapped once to its staircase path (by the
    unguarded dyck.staircase_word: avoider_list gives only members of the
    class); all patterns are counted over the class of each n at once by
    perms.class_pattern_counts.
    Returns {stat: (ok, witness, n_range)}; a statistic's witness is its
    first disagreement in (n, lex) order, and a failing statistic does not
    stop the others.
    """
    patterns = [pattern for pattern, _ in stats]
    factors = [f for _, f in stats]
    witnesses = [None] * len(stats)
    for n in range(top + 1):
        avoiders = perms.avoider_list(lam, n)
        counts = perms.class_pattern_counts(avoiders, patterns)
        for p, row in zip(avoiders, zip(*counts)):
            word = dyck.staircase_word(p)
            for j, left in enumerate(row):
                if witnesses[j] is None:
                    right = sum(dyck.path_pattern_count(word, f)
                                for f in factors[j])
                    if left != right:
                        witnesses[j] = _witness(n, perms.perm_str(p), left, right)
    return {stat: (w is None, w, f"n<={top}")
            for stat, w in zip(stats, witnesses)}


def _transport_verdict(lam, top, stats, stat):
    ok, witness, n_range = _transport_verdicts(lam, top, stats)[stat]
    return ok, dict(witness) if witness else None, n_range


def _run_transport(params, n_max):
    lam, gamma, factors = _TRANSPORTS[params["statistic"]]
    stats = tuple((g, f) for c, g, f in _TRANSPORTS.values() if c == lam)
    return _transport_verdict(lam, min(n_max, DIST_NMAX), stats,
                              (gamma, factors))


def _general_stat(params):
    gamma = perms.parse_perm(params["gamma"])
    return gamma, (dyck.pattern_path(gamma, params["variant"]),)


@lru_cache(maxsize=None)
def _general_stats():
    # Built on first use, not at import: one statistic per registered
    # transport_general check.
    return tuple(_general_stat(c.params) for c in REGISTRY
                 if c.check_id == "transport_general")


def _run_transport_general(params, n_max):
    return _transport_verdict((1, 3, 2), min(n_max, 9), _general_stats(),
                              _general_stat(params))


def _series_for(entry_id, order, m=None, a=None):
    return catalog.solve_catalog(entry_id, order, m=m, a=a)


def _run_rec_theorem(params, n_max):
    entry_id = params["series"]
    entry = catalog.CATALOG[entry_id]
    top = min(n_max, DIST_NMAX if entry.trust == HARD else 9)
    solved = _series_for(entry_id, top)
    tracked = {"thm1": [(1, 3, 2)], "thm2": [(2, 3, 1)], "thm3": [(3, 2, 1)],
               "thm4": [(1, 2, 3)], "thm5": [(2, 3, 1)], "thm6": [(2, 1, 3)],
               "thm7": [(1, 3, 2), (2, 3, 1), (3, 2, 1)],
               "thm8": [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]}[entry_id]
    variables = ("x",) if len(tracked) == 1 else tuple(
        f"x{i + 1}" for i in range(len(tracked)))
    for n in range(top + 1):
        want = oracle.brute_distribution(entry.avoided, tracked, n,
                                         variables=variables).poly
        w = _poly_witness(n, want, solved.t_slice(n))
        if w:
            return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _run_rec_family(params, n_max):
    entry_id = params["series"]
    m = params["m"]
    a = params.get("a")
    entry = catalog.CATALOG[entry_id]
    top = min(n_max, DIST_NMAX if entry.trust == HARD else 9)
    solved = _series_for(entry_id, top, m=m, a=a)
    gamma = (perms.parse_perm(params["gamma"]) if "gamma" in params
             else catalog.family_pattern(entry_id, m, a))
    for n in range(top + 1):
        want = oracle.brute_distribution(entry.avoided, [gamma], n,
                                         variables=("x",), track_des=False).poly
        w = _poly_witness(n, want, solved.t_slice(n))
        if w:
            return False, w, f"n<={top}"
    return True, None, f"n<={top}"


def _subs(spec: dict) -> dict:
    # Substitution values in params are ints or variable names.
    return {v: (Poly.variable(val) if isinstance(val, str) else val)
            for v, val in spec.items()}


def _run_series_equal(params, n_max):
    """Two solved series that must agree after substitutions."""
    order = params.get("order", DIST_NMAX)
    left = _series_for(params["left"], order, m=params.get("left_m"),
                       a=params.get("left_a"))
    if "left_set" in params:
        left = left.substitute(_subs(params["left_set"]))
    right = _series_for(params["right"], order, m=params.get("right_m"),
                        a=params.get("right_a"))
    if "right_set" in params:
        right = right.substitute(_subs(params["right_set"]))
    for n in range(order + 1):
        w = _poly_witness(n, left.t_slice(n), right.t_slice(n))
        if w:
            return False, w, f"order<={order}"
    return True, None, f"order<={order}"


def _run_thm5_remark(params, n_max):
    order = min(n_max, DIST_NMAX)
    main = catalog.solve_catalog("thm5", order)
    remark = catalog.solve_catalog("thm5_remark", order)
    for n in range(order + 1):
        w = _poly_witness(n, main.t_slice(n), remark.t_slice(n))
        if w:
            return False, w, f"order<={order}"
    return True, None, f"order<={order}"


def _run_closed_form(params, n_max):
    form = params["form"]
    m = params["m"]
    family = {"cf_123_1m2": ("fam_123_1m2", (1, 2, 3)),
              "cf_123_2m31": ("fam_123_2m31", (1, 2, 3)),
              "cf_132_1m": ("fam_132_1m", (1, 3, 2)),
              "cf_132_1m_printed": ("fam_132_1m", (1, 3, 2)),
              "cf_132_2m1": ("fam_132_2m1", (1, 3, 2))}[form]
    family_id, lam = family
    gamma = catalog.family_pattern(family_id, m)
    hard = catalog.CLOSED_FORM_TRUST[form] == HARD
    top = min(n_max, DIST_NMAX if hard else 8)
    k0_route = form in ("cf_123_1m2", "cf_132_1m")
    for n in range(1, top + 1):
        want = oracle.brute_distribution(lam, [gamma], n, variables=("x",),
                                         track_des=False).poly
        for k in range(1, n + 1):
            got = catalog.closed_coeff(form, n, k, m)
            expected = want.coefficient({"x": k})
            if got != expected:
                return False, _witness(n, f"x^{k}", expected, got), f"n<={top}"
        if k0_route:
            got0 = catalog.closed_coeff_k0(form, n, m)
            expected0 = want.coefficient({})
            if got0 != expected0:
                return False, _witness(n, "x^0 (complement route)",
                                       expected0, got0), f"n<={top}"
    return True, None, f"n<={top}"


def _run_closed_vs_series(params, n_max):
    m = params["m"]
    order = 14  # fixed range; the series side is cheap in (t, x)
    s = catalog.solve_catalog("fam_123_1m2", order, m=m)
    for n in range(1, order + 1):
        sl = s.t_slice(n)
        for k in range(1, n + 1):
            got = catalog.closed_coeff("cf_123_1m2", n, k, m)
            want = Fraction(sl.coefficient({"x": k}))
            if got != want:
                return False, _witness(n, f"x^{k}", want, got), f"n<={order}"
        if catalog.closed_coeff_k0("cf_123_1m2", n, m) != sl.coefficient({}):
            return False, _witness(n, "x^0 (complement route)",
                                   sl.coefficient({}),
                                   catalog.closed_coeff_k0("cf_123_1m2", n, m)), \
                f"n<={order}"
    return True, None, f"n<={order}"


def _run_identity(params, n_max):
    ident = params["identity"]
    order = min(n_max, IDENTITY_ORDER)
    if ident.endswith("expansion"):
        order = min(order, 5)
    verdict = catalog.printed_identity_check(ident, order, m=params.get("m"),
                                             a=params.get("a"))
    if verdict.ok:
        return True, None, f"order<={order}"
    n, mono, expected, actual = verdict.witness
    return False, _witness(n, mono, expected, actual), f"order<={order}"


# -- the registry ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    check_id: str
    suite: str
    trust: str
    params: dict
    runner: object


def _build_registry() -> list[CheckDef]:
    defs: list[CheckDef] = []

    def add(check_id, suite, trust, runner, **params):
        defs.append(CheckDef(check_id, suite, trust, dict(params), runner))

    # sequences
    for lam in LENGTH3:
        add("seq_catalan_avoiders", "sequences", HARD, _run_seq_catalan,
            avoid=perms.perm_str(lam))
    add("seq_motzkin_thm1", "sequences", HARD, _run_seq_series,
        series="thm1", sequence="motzkin")
    add("seq_motzkin_thm4", "sequences", HARD, _run_seq_series,
        series="thm4", sequence="motzkin")
    add("seq_123_231_x0_thm2", "sequences", HARD, _run_seq_series,
        series="thm2", sequence="seq_123_231_x0")
    add("seq_123_321_x0_thm3", "sequences", REPORT, _run_seq_series,
        series="thm3", sequence="seq_123_231_x0")
    add("seq_132_213_x0_thm6", "sequences", HARD, _run_seq_series,
        series="thm6", sequence="seq_132_213_x0")
    add("seq_132_231_x0_thm5", "sequences", HARD, _run_seq_series,
        series="thm5", sequence="seq_132_231_x0")

    # symmetries
    for action in ("reverse_complement", "reverse", "complement"):
        short = {"reverse_complement": "sym_rc", "reverse": "sym_r",
                 "complement": "sym_c"}[action]
        for lam in LENGTH3:
            for gam in LENGTH3:
                add(short, "symmetries", HARD, _run_sym_pair, action=action,
                    **{"lambda": perms.perm_str(lam)},
                    gamma=perms.perm_str(gam))
    for gam in ((1, 3, 2), (2, 3, 1), (3, 2, 1)):
        add("sym_123_rc", "symmetries", HARD, _run_sym_123_rc,
            gamma=perms.perm_str(gam))
    for k in (2, 3, 4):
        add("sym_phi", "symmetries", HARD, _run_sym_phi, k=k)
        add("sym_1321", "symmetries", HARD, _run_sym_1321, k=k)

    # bijections and transports
    add("bij_phi", "bijections", HARD, _run_bij_staircase, map="phi")
    add("bij_psi", "bijections", HARD, _run_bij_staircase, map="psi")
    add("bij_phin", "bijections", HARD, _run_bij_phin)
    for stat in ("psi_des", "psi_132", "psi_231", "phi_des", "phi_123"):
        add(f"transport_{stat}", "bijections", HARD, _run_transport,
            statistic=stat)
    for gamma in _admissible_patterns(5):
        add("transport_general", "bijections", HARD, _run_transport_general,
            gamma=perms.perm_str(gamma),
            variant=dyck.admissible_variant(gamma))

    # recursions vs oracle
    for tid in ("thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "thm7", "thm8"):
        add(f"rec_{tid}", "recursions", catalog.CATALOG[tid].trust,
            _run_rec_theorem, series=tid)
    for fid, mas in (("fam_123_1m2", (2, 3, 4, 5)),
                     ("fam_123_2m31", (3, 4, 5)),
                     ("fam_132_1m", (3, 4, 5)),
                     ("fam_132_m1head", (3, 4, 5)),
                     ("fam_132_2m1", (3, 4, 5))):
        for m in mas:
            add(f"rec_{fid}", "recursions", HARD, _run_rec_family,
                series=fid, m=m)
    add("rec_fam_132_m1head", "recursions", HARD, _run_rec_family,
        series="fam_132_m1head", m=4, gamma="3214")  # the other admissible body
    for m, a in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        add("rec_fam_132_a1m", "recursions", REPORT, _run_rec_family,
            series="fam_132_a1m", m=m, a=a)
    for m, a in ((4, 3), (5, 3), (5, 4)):
        add("rec_fam_132_a2m1", "recursions", REPORT, _run_rec_family,
            series="fam_132_a2m1", m=m, a=a)
    for m in (4, 5):
        add("rec_fam_132_m1m1", "recursions", REPORT, _run_rec_family,
            series="fam_132_m1m1", m=m)

    # specialisations and cross identities
    # Variable roles in thm8 are x1=123, x2=213, x3=231, x4=321, so thm5
    # (tracking 231) keeps x3 and thm6 (tracking 213) keeps x2.
    for other, kill in (("thm4", ("x2", "x3", "x4")),
                        ("thm5", ("x1", "x2", "x4")),
                        ("thm6", ("x1", "x3", "x4"))):
        keep = [v for v in ("x1", "x2", "x3", "x4") if v not in kill][0]
        subs = {v: 1 for v in kill}
        subs[keep] = "x"
        add(f"spec_thm8_{other}", "recursions", HARD, _run_series_equal,
            left="thm8", left_set=subs, right=other, order=10)
    add("famcons_123_2m31_thm2", "recursions", HARD, _run_series_equal,
        left="fam_123_2m31", left_m=3, right="thm2",
        right_set={"y": 1}, order=10)
    add("famcons_132_1m_thm4", "recursions", HARD, _run_series_equal,
        left="fam_132_1m", left_m=3, right="thm4", right_set={"y": 1},
        order=10)
    add("famcons_132_2m1_thm5", "recursions", HARD, _run_series_equal,
        left="fam_132_2m1", left_m=3, right="thm5", right_set={"y": 1},
        order=10)
    add("famcons_132_m1head_thm6", "recursions", HARD, _run_series_equal,
        left="fam_132_m1head", left_m=3, right="thm6", right_set={"y": 1},
        order=10)
    add("cross_a2m1_m1m1", "recursions", HARD, _run_series_equal,
        left="fam_132_a2m1", left_m=4, left_a=3, right="fam_132_m1m1",
        right_m=4, order=9)
    add("rec_thm5_remark", "recursions", HARD, _run_thm5_remark)

    # closed forms vs oracle
    for m in (2, 3, 4):
        add("cf_123_1m2", "closed_forms", HARD, _run_closed_form,
            form="cf_123_1m2", m=m)
        add("cf_132_1m", "closed_forms", HARD, _run_closed_form,
            form="cf_132_1m", m=m)
        add("cf_series_fam_123_1m2", "closed_forms", HARD,
            _run_closed_vs_series, m=m)
    add("cf_thm2eq", "closed_forms", REPORT, _run_closed_form,
        form="cf_123_2m31", m=3)
    add("cf_thm5eq", "closed_forms", REPORT, _run_closed_form,
        form="cf_132_2m1", m=3)
    for m in (4, 5):
        add("cf_123_2m31", "closed_forms", REPORT, _run_closed_form,
            form="cf_123_2m31", m=m)
        add("cf_132_2m1", "closed_forms", REPORT, _run_closed_form,
            form="cf_132_2m1", m=m)
    add("cf_132_1m_printed", "closed_forms", REPORT, _run_closed_form,
        form="cf_132_1m_printed", m=3)

    # printed identities
    add("ident_thm1_quadratic", "identities", HARD, _run_identity,
        identity="thm1_quadratic")
    add("ident_thm1_quadratic_printed", "identities", REPORT, _run_identity,
        identity="thm1_quadratic_printed")
    add("ident_thm2_polynomial", "identities", HARD, _run_identity,
        identity="thm2_polynomial")
    for m in (2, 3, 4, 5):
        add("ident_123long2", "identities", HARD, _run_identity,
            identity="123long2", m=m)
    add("ident_123long2_printed", "identities", REPORT, _run_identity,
        identity="123long2_printed", m=3)
    for m in (2, 3, 4, 5):
        add("ident_132long1", "identities", HARD, _run_identity,
            identity="132long1", m=m)
    for m, a in ((4, 3), (5, 3), (5, 4)):
        add("ident_132general1", "identities", HARD, _run_identity,
            identity="132general1", m=m, a=a)
    for m in (4, 5):
        add("ident_long2132", "identities", HARD, _run_identity,
            identity="long2132", m=m)
    add("ident_thm7_rational", "identities", REPORT, _run_identity,
        identity="thm7_rational")
    add("ident_thm7_expansion", "identities", REPORT, _run_identity,
        identity="thm7_expansion")
    add("ident_thm8_rational", "identities", HARD, _run_identity,
        identity="thm8_rational")
    add("ident_thm8_expansion", "identities", HARD, _run_identity,
        identity="thm8_expansion")

    return defs


def _admissible_patterns(max_len: int):
    """All 132-avoiding patterns of length <= max_len with a transport variant."""
    from itertools import permutations
    out = []
    for m in range(1, max_len + 1):
        for g in permutations(range(1, m + 1)):
            if perms.contains_classical(g, (1, 3, 2)):
                continue
            if dyck.admissible_variant(g) is not None:
                out.append(g)
    return out


REGISTRY = _build_registry()


def _status(trust: str, ok: bool) -> str:
    if trust == HARD:
        return "pass" if ok else "fail"
    return "report_only_pass" if ok else "report_only_fail"


def _execute(check: CheckDef, n_max: int) -> CheckResult:
    ok, witness, n_range = check.runner(check.params, n_max)
    return CheckResult(check_id=check.check_id, params=check.params,
                       n_range=n_range, status=_status(check.trust, ok),
                       witness=witness)


def run_check(check_id: str, params: dict | None = None,
              n_max: int = DIST_NMAX) -> CheckResult:
    """Run one registered check, selecting by id and (optionally) params."""
    matches = [c for c in REGISTRY if c.check_id == check_id]
    if not matches:
        raise ValueError(f"unknown check id {check_id!r}")
    if params:
        narrowed = [c for c in matches
                    if all(c.params.get(k) == v for k, v in params.items())]
        if not narrowed:
            raise ValueError(f"no registered {check_id} check with params {params}")
        exact = [c for c in narrowed if c.params == params]
        matches = exact if len(exact) == 1 else narrowed
    if len(matches) > 1:
        raise ValueError(
            f"{check_id} is parameterised; pass params to pick one of "
            f"{[c.params for c in matches]}")
    return _execute(matches[0], n_max)


def run_suite(suite: str, n_max: int = DIST_NMAX) -> dict:
    """Run a suite (or "all") and assemble the conformance report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{('all',) + SUITES}")
    if n_max > COUNT_NMAX:
        raise ValueError(f"n_max must be at most {COUNT_NMAX}")
    chosen = [c for c in REGISTRY if suite == "all" or c.suite == suite]
    results = [_execute(c, n_max) for c in chosen]
    results.sort(key=lambda r: (r.check_id,
                                json.dumps(r.params, sort_keys=True)))
    aggregate = "pass" if all(r.status != "fail" for r in results) else "fail"
    report = {
        "suite": suite,
        "n_max": n_max,
        "aggregate": aggregate,
        "checks": [_result_json(r) for r in results],
    }
    return report


def _result_json(r: CheckResult) -> dict:
    out = {"id": r.check_id, "params": r.params, "status": r.status}
    if r.witness is not None:
        out["witness"] = r.witness
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
