"""Conformance harness: every claim gets a deterministic pass/fail check.

Checks are grouped into suites (symmetries, bijections, recursions,
closed_forms, identities, sequences).  A check either carries hard trust,
in which case a failure fails the whole run, or is report-only: suspected
misprints are solved, compared and recorded, but never gate the build.

Each check compares two independently produced objects, with the
brute-force oracle on one side wherever the claim is about permutations.
Failures always carry a witness: the first disagreeing coefficient in
canonical monomial order.

The checks over the staircase classes 132 and 123 (bij_phi, bij_psi and
the transports) share one pass per class and n, cached so that each level
is certified once per process whatever n_max asks for it: lane arithmetic
(patlab.lanes) on the packed class's columns that keeps only the verdicts.
For each n the class's staircase words are the columns of their staircase
counts (dyck.staircase_counts; row by row they are dyck.staircase_word),
and no word string is made.  The certificate: the words are Dyck paths,
strictly increasing, and catalan(n) of them, so they are the paths in lex
order (dyck.is_lex_path_class); and the lane preimage rebuilds the class's
columns from them (dyck.staircase_preimage_lanes).  A transport
(transport_*, transport_general) is data, a consecutive pattern and the
Dyck factors whose counts add up to it: one whole-class count of every
pattern, and one of every factor over the words' step columns
(dyck.path_step_columns), each an int, certify them all.
bij_phin certifies phi_n, the min-tree relabelling from 312- to
213-avoiders, by lane arithmetic on the packed 312 class's columns
(perms.phi_n_lanes; row by row it is perms._phi_n): the lane inverse gives
the columns back (one-to-one), the descent masks agree, no image has
q_j < q_i < (largest entry after j) for i < j (avoids 213), and the 213
class is as large as the 312 class (onto); this pass too is cached per n.
Only an n whose bijection pass fails is searched element by element, with
every round-trip and class test, for its first witness.

Every check covers n (or the order) <= n_max, or the fixed range its
registry entry gives; the symmetries alone stop at SYMMETRY_NMAX
(patlab.limits), and cf_series_fam_123_1m2 runs at the series cap
T_CAP_HARD.  run_check and run_suite hold n_max to the enumeration cap
(perms.check_enumeration_n), the one bound on brute force, before any
check runs, so PATLAB_NMAX_CAP binds every check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

from . import catalog, dyck, lanes, oracle, perms
from .limits import DIST_NMAX, SYMMETRY_NMAX
from .series import T_CAP_HARD, Poly, catalan, slice_differences, y_reverse

HARD = catalog.HARD_PASS

SUITES = ("symmetries", "bijections", "recursions", "closed_forms",
          "identities", "sequences")

LENGTH3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


class CheckResult(namedtuple("CheckResult",
                             "check_id params n_range status witness")):
    """One check's outcome; status is pass, fail, report_only_pass or
    report_only_fail."""
    __slots__ = ()


def _witness(n, monomial, expected, actual) -> dict:
    from fractions import Fraction   # loaded on first use, not at import

    def plain(v):
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        if isinstance(v, (int, str)):
            return v
        return str(v)
    return {"n": n, "monomial": monomial, "expected": plain(expected),
            "actual": plain(actual)}


def _first_disagreement(points, n_range):
    """(ok, witness, n_range) of a check that compares two sides point by point.

    points lazily yields (n, monomial, expected, actual) in the check's
    order; the first point whose sides differ is the witness, and no later
    point is computed.
    """
    for n, monomial, expected, actual in points:
        if expected != actual:
            return False, _witness(n, monomial, expected, actual), n_range
    return True, None, n_range


# -- individual check bodies ----------------------------------------------------
#
# Each runner returns (ok, witness_dict_or_None, n_range_string).

def _run_seq_catalan(params, n_max):
    lam = perms.parse_perm(params["avoid"])
    return _first_disagreement(
        ((n, "1", catalan(n), len(cls))
         for n, cls in enumerate(perms.avoider_levels(n_max, lam))), f"n<={n_max}")


def _run_seq_series(params, n_max):
    s = catalog.solve_catalog(params["series"], n_max).substitute({"y": 1, "x": 0})
    wants = []
    for n in range(n_max + 1):
        try:
            wants.append(catalog.reference_sequence(params["sequence"], n))
        except ValueError:
            break   # stored prefix exhausted
    return _first_disagreement(
        ((n, "1", want, s.t_slice(n).constant_term())
         for n, want in enumerate(wants)), f"n<={len(wants) - 1}")


def _symmetric_slices(n_max, pairs, reverse, label):
    """Each pair ((class, pattern), (class', pattern')): the slices of the
    first, y-reversed if reverse, equal those of the second for every n;
    with label, a witness names pattern'."""
    top = min(n_max, SYMMETRY_NMAX)

    def dist(lam, gamma, n, rev=False):
        base = oracle.brute_distribution(lam, [gamma], n, variables=("x",)).poly
        return y_reverse(base, n) if rev and n >= 1 else base
    return _first_disagreement(
        (point for (lam, gam), (lam2, gam2) in pairs for point in slice_differences(
            range(top + 1), lambda n: dist(lam, gam, n, reverse),
            lambda n: dist(lam2, gam2, n),
            f"{perms.perm_str(gam2)}: " if label else "")), f"n<={top}")


def _run_sym_pair(params, n_max):
    kind = params["action"]
    lam = perms.parse_perm(params["lambda"])
    gam = perms.parse_perm(params["gamma"])
    image = (perms.symmetry_transform(lam, kind),
             perms.symmetry_transform(gam, kind))
    return _symmetric_slices(n_max, [((lam, gam), image)],
                             kind != "reverse_complement", False)


def _run_sym_phi(params, n_max):
    k = params["k"]
    desc = tuple(range(k, 0, -1))                      # k..21
    hook = (1,) + tuple(range(k, 1, -1))               # 1k..32
    return _symmetric_slices(
        n_max, [(((3, 1, 2), gamma), ((2, 1, 3), gamma)) for gamma in (desc, hook)],
        False, True)


def _run_sym_1321(params, n_max):
    k = params["k"]
    pairs = [
        (tuple(range(1, k + 1)), tuple(range(k, 0, -1))),          # 12..k | k..21
        ((k,) + tuple(range(1, k)),                                # k12..(k-1)
         tuple(range(k - 1, 0, -1)) + (k,)),                       # (k-1)..21k
    ]
    return _symmetric_slices(
        n_max, [(((1, 3, 2), right), ((1, 3, 2), left)) for left, right in pairs],
        True, True)


def _staircase_witness(lam, n):
    # Every round-trip and class test of one n, element by element; the
    # first failure in lex order, or None.
    fwd, pre = dyck.staircase_word, dyck.staircase_preimage
    for p in perms.avoider_list(lam, n):
        back = pre(fwd(p), lam)
        if back != p:
            return _witness(n, perms.perm_str(p), perms.perm_str(p),
                            perms.perm_str(back))
    for w in dyck.enumerate_paths(n):
        q = pre(w, lam)
        if perms.contains_classical(q, lam):
            return _witness(n, w, f"{perms.perm_str(lam)}-avoider",
                            perms.perm_str(q))
        if fwd(q) != w:
            return _witness(n, w, w, fwd(q))
    return None


def _first_witness(top, witness_at):
    """(ok, witness, n_range) of a check over n = 0..top.

    witness_at(n) is the witness of level n, or None; the first level that
    has one gives it.  A bijection's level runs one whole-class pass, and
    only an n whose pass fails is searched element by element, the search's
    None certifying n all the same.  Every lower n passed a stronger test
    than the search, so the witness is the first in (n, lex) order.
    """
    for n in range(top + 1):
        found = witness_at(n)
        if found:
            return False, dict(found), f"n<={top}"
    return True, None, f"n<={top}"


@lru_cache(maxsize=None)
def _phin_pass(n):
    # The four lane tests of the module docstring, once per n per process.
    cls = perms.avoider_list((3, 1, 2), n)
    m, cols = len(cls), cls.columns()
    images = perms.phi_n_lanes(cols, m)
    below = partial(lanes.below, high=lanes.units(m)[1])
    descents = lambda cs: [below(b, a) for a, b in zip(cs, cs[1:])]
    if (perms.phi_n_lanes(images, m, inverse=True) != cols
            or descents(images) != descents(cols)):
        return False
    top = 0     # the largest entry after j, lane by lane
    for j in range(n - 1, 0, -1):
        q = images[j]
        if any(below(q, qi) & below(qi, top) for qi in images[:j]):
            return False
        top = lanes.select(below(top, q), q, top)
    return len(perms.avoider_list((2, 1, 3), n)) == m


def _phin_witness(n):
    # Every class, descent and round-trip test of one n, element by
    # element; the first failure in lex order, or None.
    seen = set()
    for p in perms.avoider_list((3, 1, 2), n):
        q = perms._phi_n(p)
        if perms.contains_classical(q, (2, 1, 3)):
            return _witness(n, perms.perm_str(p), "213-avoider", perms.perm_str(q))
        if perms.descent_set(q) != perms.descent_set(p):
            return _witness(n, perms.perm_str(p), "equal descent sets",
                            perms.perm_str(q))
        back = perms._phi_n(q, inverse=True)
        if back != p:
            return _witness(n, perms.perm_str(p), perms.perm_str(p),
                            perms.perm_str(back))
        seen.add(q)
    if len(seen) != catalan(n):
        return _witness(n, "1", catalan(n), len(seen))
    return None


def _run_bij_phin(params, n_max):
    return _first_witness(
        n_max, lambda n: None if _phin_pass(n) else _phin_witness(n))


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
def _staircase_pass(lam, n, stats):
    """Every verdict at n of the checks over one staircase class, lam 132
    or 123, so that each level is certified once per process.

    stats is a tuple of transports (consecutive pattern, Dyck factors),
    certified with the bijection.  The words are the class's
    staircase-count columns (dyck.staircase_counts on the packed class's
    columns; avoider_list gives only members of the class), and no word
    string is made.  The bijection holds at n if the words are the Dyck
    paths in lex order (dyck.is_lex_path_class) and the lane preimage
    gives the class's columns back.  A statistic's pattern counts are
    compared with the sum of its factors' counts over the words' step
    columns, one int each, and the lanes are decoded only on a mismatch.
    Each pattern is counted once, and every statistic of that pattern is
    compared before the next pattern is counted.
    Returns {stat: witness or None}, the bijection's under None; a witness
    is the first disagreement in lex order.
    """
    avoiders = perms.avoider_list(lam, n)
    m, cols = len(avoiders), avoiders.columns()
    counts = dyck.staircase_counts(cols, m)
    # staircase_word keeps lex order on both classes: two members first
    # differ at a new left-to-right minimum, since every other column's
    # value is fixed by the prefix, and the smaller entry there gives
    # more D's.  So the i-th avoider must map to the i-th path, and
    # the i-th path back to it.
    certified = (dyck.is_lex_path_class(counts, m) and
                 dyck.staircase_preimage_lanes(counts, m, lam) == cols)
    witnesses = {None: None if certified else _staircase_witness(lam, n)}
    factors = list(dict.fromkeys(f for _, fs in stats for f in fs))
    counted = dict(zip(factors, dyck.class_factor_counts(
        dyck.path_step_columns(counts, m), m, factors)))
    by_pattern = {}
    for stat in stats:
        by_pattern.setdefault(stat[0], []).append(stat)
    for gamma, group in by_pattern.items():
        left, = perms.class_pattern_counts(avoiders, [gamma])
        for stat in group:
            # No lane carries into the next: a factor count is at most
            # 2n <= 28 within the enumeration cap, and a transport adds
            # at most two factors.
            right = sum(counted[f] for f in stat[1])
            witnesses[stat] = None
            if left != right:
                ls, rs = lanes.unpack(left, m), lanes.unpack(right, m)
                i = next(i for i in range(m) if ls[i] != rs[i])
                witnesses[stat] = _witness(n, perms.perm_str(avoiders[i]),
                                           ls[i], rs[i])
    return witnesses


def _staircase_stat(params):
    """(class, statistic) of a check of the staircase pass: None for
    bij_phi and bij_psi, (pattern, Dyck factors) for a transport."""
    if "map" in params:
        return ((1, 3, 2) if params["map"] == "phi" else (1, 2, 3)), None
    if "statistic" in params:
        lam, gamma, factors = _TRANSPORTS[params["statistic"]]
        return lam, (gamma, factors)
    gamma = perms.parse_perm(params["gamma"])
    return (1, 3, 2), (gamma, (dyck.pattern_path(gamma, params["variant"]),))


@lru_cache(maxsize=None)
def _class_stats():
    # Built on first use, not at import: class -> the statistics of its
    # registered transport checks.
    out = {}
    for c in REGISTRY:
        if c.runner is _run_staircase:
            lam, stat = _staircase_stat(c.params)
            out[lam] = out.get(lam, ()) + ((stat,) if stat else ())
    return out


def _run_staircase(params, n_max):
    lam, stat = _staircase_stat(params)
    stats = _class_stats()[lam]
    return _first_witness(n_max, lambda n: _staircase_pass(lam, n, stats)[stat])


def _oracle_slice(entry, tracked, n) -> Poly:
    """Slice n of what a catalog entry counts, by brute force: its class,
    the given tracked patterns and its variables."""
    return oracle.brute_distribution(entry.avoided, tracked, n,
                                     variables=entry.pattern_variables,
                                     track_des="y" in entry.variables).poly


def _run_recursion(params, n_max):
    """A catalog system against the oracle; params may name another tracked
    pattern with the same distribution."""
    entry = catalog.CATALOG[params["series"]]
    m, a = params.get("m"), params.get("a")
    solved = catalog.solve_catalog(entry.id, n_max, m=m, a=a)
    tracked = ((perms.parse_perm(params["gamma"]),) if "gamma" in params
               else entry.tracked(m, a))
    return _first_disagreement(slice_differences(
        range(n_max + 1), lambda n: _oracle_slice(entry, tracked, n),
        solved.t_slice), f"n<={n_max}")


def _subs(spec: dict) -> dict:
    # Substitution values in params are ints or variable names.
    return {v: (Poly.variable(val) if isinstance(val, str) else val)
            for v, val in spec.items()}


def _run_series_equal(params, n_max):
    """Two solved series that must agree after substitutions; without an
    order in params the order is n_max."""
    order = params.get("order", n_max)

    def solved(side):
        s = catalog.solve_catalog(params[side], order, m=params.get(f"{side}_m"),
                                  a=params.get(f"{side}_a"))
        if f"{side}_set" in params:
            s = s.substitute(_subs(params[f"{side}_set"]))
        return s
    left, right = solved("left"), solved("right")
    return _first_disagreement(
        slice_differences(range(order + 1), left.t_slice, right.t_slice),
        f"order<={order}")


def _closed_points(form_id, m, ns, want):
    """A closed form's [t^n x^k] for k = 1..n against want(n), then k = 0 by
    the complement route where the form has it."""
    form = catalog.CLOSED_FORMS[form_id]
    for n in ns:
        sl = want(n)
        rest = catalan(n)   # closed_coeff_k0, from the values just yielded
        for k in range(1, n + 1):
            value = catalog.closed_coeff(form_id, n, k, m)
            rest -= value
            yield n, f"x^{k}", sl.coefficient({"x": k}), value
        if form.k0_route:
            yield n, "x^0 (complement route)", sl.coefficient({}), rest


def _run_closed_form(params, n_max):
    form_id, m = params["form"], params["m"]
    family = catalog.CATALOG[catalog.CLOSED_FORMS[form_id].family]
    return _first_disagreement(_closed_points(
        form_id, m, range(1, n_max + 1),
        lambda n: _oracle_slice(family, family.tracked(m, None), n)),
        f"n<={n_max}")


def _run_closed_vs_series(params, n_max):
    m = params["m"]
    s = catalog.solve_catalog("fam_123_1m2", T_CAP_HARD, m=m)
    return _first_disagreement(
        _closed_points("cf_123_1m2", m, range(1, T_CAP_HARD + 1), s.t_slice),
        f"n<={T_CAP_HARD}")


def _run_identity(params, n_max):
    ident = params["identity"]
    order = catalog.IDENTITIES[ident].top(n_max)
    verdict = catalog.printed_identity_check(ident, order, m=params.get("m"),
                                             a=params.get("a"))
    return _first_disagreement([] if verdict.ok else [verdict.witness],
                               f"order<={order}")


# -- the registry ----------------------------------------------------------------

class CheckDef(namedtuple("CheckDef", "check_id suite trust params runner")):
    __slots__ = ()


# Instances of the registry's parameterised checks: (m,) or (m, a).
_FAMILY_INSTANCES = {
    "fam_123_1m2": ((2,), (3,), (4,), (5,)),
    "fam_123_2m31": ((3,), (4,), (5,)),
    "fam_132_1m": ((3,), (4,), (5,)),
    "fam_132_a1m": ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)),
    "fam_132_m1head": ((3,), (4,), (5,)),
    "fam_132_2m1": ((3,), (4,), (5,)),
    "fam_132_a2m1": ((4, 3), (5, 3), (5, 4)),
    "fam_132_m1m1": ((4,), (5,)),
}
# check id -> (catalog series, reference sequence at y = 1, x = 0)
_SEQUENCE_CHECKS = {
    "seq_motzkin_thm1": ("thm1", "motzkin"),
    "seq_motzkin_thm4": ("thm4", "motzkin"),
    "seq_123_231_x0_thm2": ("thm2", "seq_123_231_x0"),
    "seq_123_321_x0_thm3": ("thm3", "seq_123_231_x0"),
    "seq_132_213_x0_thm6": ("thm6", "seq_132_213_x0"),
    "seq_132_231_x0_thm5": ("thm5", "seq_132_231_x0"),
}
# check id -> (closed form, m values)
_CLOSED_FORM_CHECKS = {
    "cf_123_1m2": ("cf_123_1m2", (2, 3, 4)),
    "cf_132_1m": ("cf_132_1m", (2, 3, 4)),
    "cf_thm2eq": ("cf_123_2m31", (3,)),
    "cf_thm5eq": ("cf_132_2m1", (3,)),
    "cf_123_2m31": ("cf_123_2m31", (4, 5)),
    "cf_132_2m1": ("cf_132_2m1", (4, 5)),
    "cf_132_1m_printed": ("cf_132_1m_printed", (3,)),
}


def _m_a(instance) -> dict:
    return dict(zip(("m", "a"), instance))


def _with(runner, **fixed):
    """runner with params it takes but the check's params do not show."""
    return lambda params, n_max: runner({**fixed, **params}, n_max)


def _build_registry() -> list[CheckDef]:
    defs: list[CheckDef] = []

    def add(check_id, suite, trust, runner, **params):
        defs.append(CheckDef(check_id, suite, trust, dict(params), runner))

    # sequences
    for lam in LENGTH3:
        add("seq_catalan_avoiders", "sequences", HARD, _run_seq_catalan,
            avoid=perms.perm_str(lam))
    for check_id, (series, sequence) in _SEQUENCE_CHECKS.items():
        add(check_id, "sequences", catalog.CATALOG[series].trust,
            _run_seq_series, series=series, sequence=sequence)

    # symmetries
    for action in ("reverse_complement", "reverse", "complement"):
        short = {"reverse_complement": "sym_rc", "reverse": "sym_r",
                 "complement": "sym_c"}[action]
        for lam in LENGTH3:
            for gam in LENGTH3:
                add(short, "symmetries", HARD, _run_sym_pair, action=action,
                    **{"lambda": perms.perm_str(lam)},
                    gamma=perms.perm_str(gam))
    for gam in ((1, 3, 2), (2, 3, 1), (3, 2, 1)):  # rc fixes the class 123
        add("sym_123_rc", "symmetries", HARD,
            _with(_run_sym_pair, action="reverse_complement",
                  **{"lambda": "123"}), gamma=perms.perm_str(gam))
    for k in (2, 3, 4):
        add("sym_phi", "symmetries", HARD, _run_sym_phi, k=k)
        add("sym_1321", "symmetries", HARD, _run_sym_1321, k=k)

    # bijections and transports
    add("bij_phi", "bijections", HARD, _run_staircase, map="phi")
    add("bij_psi", "bijections", HARD, _run_staircase, map="psi")
    add("bij_phin", "bijections", HARD, _run_bij_phin)
    for stat in ("psi_des", "psi_132", "psi_231", "phi_des", "phi_123"):
        add(f"transport_{stat}", "bijections", HARD, _run_staircase,
            statistic=stat)
    for gamma in _admissible_patterns(5):
        add("transport_general", "bijections", HARD, _run_staircase,
            gamma=perms.perm_str(gamma),
            variant=dyck.admissible_variant(gamma))

    # recursions vs oracle; thm5_remark is checked against thm5 below
    for eid, entry in catalog.CATALOG.items():
        if eid == "thm5_remark":
            continue
        for instance in _FAMILY_INSTANCES.get(eid, ((),)):
            add(f"rec_{eid}", "recursions", entry.trust, _run_recursion,
                series=eid, **_m_a(instance))
    add("rec_fam_132_m1head", "recursions",
        catalog.CATALOG["fam_132_m1head"].trust, _run_recursion,
        series="fam_132_m1head", m=4, gamma="3214")  # the other admissible body

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
    for family, theorem in (("fam_123_2m31", "thm2"), ("fam_132_1m", "thm4"),
                            ("fam_132_2m1", "thm5"), ("fam_132_m1head", "thm6")):
        add(f"famcons_{family.removeprefix('fam_')}_{theorem}", "recursions", HARD,
            _run_series_equal, left=family, left_m=3, right=theorem,
            right_set={"y": 1}, order=10)
    add("cross_a2m1_m1m1", "recursions", HARD, _run_series_equal,
        left="fam_132_a2m1", left_m=4, left_a=3, right="fam_132_m1m1",
        right_m=4, order=9)
    add("rec_thm5_remark", "recursions", catalog.CATALOG["thm5_remark"].trust,
        _with(_run_series_equal, left="thm5", right="thm5_remark"))

    # closed forms vs oracle, and cf_123_1m2 vs its series
    for check_id, (form, ms) in _CLOSED_FORM_CHECKS.items():
        for m in ms:
            add(check_id, "closed_forms", catalog.CLOSED_FORMS[form].trust,
                _run_closed_form, form=form, m=m)
    for m in (2, 3, 4):
        add("cf_series_fam_123_1m2", "closed_forms",
            catalog.CLOSED_FORMS["cf_123_1m2"].trust, _run_closed_vs_series, m=m)

    # printed identities
    for ident_id, ident in catalog.IDENTITIES.items():
        for instance in ident.instances:
            add(f"ident_{ident_id}", "identities", ident.trust, _run_identity,
                identity=ident_id, **_m_a(instance))

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
    perms.check_enumeration_n(n_max)
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
    perms.check_enumeration_n(n_max)
    import json   # loaded on first use, not at import

    chosen = [c for c in REGISTRY if suite == "all" or c.suite == suite]
    results = [_execute(c, n_max) for c in chosen]
    results.sort(key=lambda r: (r.check_id,
                                json.dumps(r.params, sort_keys=True)))
    aggregate = "pass" if all(r.status != "fail" for r in results) else "fail"
    return {
        "suite": suite,
        "n_max": n_max,
        "aggregate": aggregate,
        "checks": [_result_json(r) for r in results],
    }


def _result_json(r: CheckResult) -> dict:
    out = {"id": r.check_id, "params": r.params, "status": r.status}
    if r.witness is not None:
        out["witness"] = r.witness
    return out


def report_to_json(report: dict) -> str:
    import json

    return json.dumps(report, indent=2) + "\n"
