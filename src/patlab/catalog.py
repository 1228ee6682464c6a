"""The catalog of generating-function recursions and closed coefficient forms.

Every entry solves a functional equation for a joint distribution over an
avoidance class by t-adic fixed point:

  thm1..thm6    single length-3 consecutive pattern, variables (t, y, x),
  thm7, thm8    several patterns at once, variables (t, y, x1..),
  fam_*         one pattern of each shape family, variables (t, x).

Infinite sums over the size of the last horizontal segment always compress
to geometric tails with unit denominators, so the solver stays in exact
integer arithmetic.  Where a published one-line form divides by a non-unit
(a factor like B-1 with zero constant term), the catalog solves the
two-function proof system instead and the one-line form is re-checked as a
cleared polynomial identity; see printed_identity_check.

Trust levels: "hard_pass" entries must match the brute-force oracle exactly
and gate the build; "report_only" entries carry suspected misprints and are
solved and compared, with the verdict recorded but never asserted.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

from .series import (
    EqContext,
    Poly,
    T_CAP_HARD,
    TruncatedSeries,
    binom,
    catalan,
    fixed_point_solve,
    gen_binom,
    multinom,
    slice_differences,
)

HARD_PASS = "hard_pass"
REPORT_ONLY = "report_only"


class CatalogEntry(namedtuple(
        "CatalogEntry", "id trust avoided variables anchor unknowns equations"
        " tracked derive m_min a_bounds", defaults=(None, None, None))):
    """One generating-function system, described as data.

    variables are those of the primary series; anchor is the defining
    equation(s), as text.
    equations(m, a) gives the system, one function of (vals, ctx) that
    returns a right-hand side per unknown, in the order of `unknowns`;
    derive(system, ctx), if set, adds series computed from the solved ones.
    tracked(m, a) gives the consecutive patterns counted over the avoided
    class, one per x-variable of `variables` in order; y counts descents.
    m must be at least m_min (None: no m); a_bounds = (lo, hi) asks for
    lo <= a <= m + hi (None: no a).
    """
    __slots__ = ()

    @property
    def needs_m(self) -> bool:
        return self.m_min is not None

    @property
    def pattern_variables(self) -> tuple[str, ...]:
        return tuple(v for v in self.variables if v not in ("t", "y"))

    def check_params(self, m=None, a=None):
        if self.needs_m:
            if m is None:
                raise ValueError(f"{self.id} needs a pattern length m")
            if m < self.m_min:
                raise ValueError(f"{self.id} needs m >= {self.m_min}, got {m}")
        elif m is not None:
            raise ValueError(f"{self.id} takes no parameter m")
        if self.a_bounds is not None:
            if a is None:
                raise ValueError(f"{self.id} needs a head parameter a")
            lo, hi = self.a_bounds
            if not (lo <= a <= m + hi):
                raise ValueError(
                    f"{self.id} needs {lo} <= a <= m{hi:+d}, got a = {a}")
        elif a is not None:
            raise ValueError(f"{self.id} takes no parameter a")


def family_pattern(entry_id: str, m: int, a: int | None = None) -> tuple[int, ...]:
    """The consecutive pattern whose distribution a family entry computes."""
    entry = CATALOG.get(entry_id)
    if entry is None or not entry.needs_m:
        raise ValueError(f"not a family entry: {entry_id}")
    (pattern,) = entry.tracked(m, a)
    return pattern


# -- the equations -------------------------------------------------------------
#
# Each system is written as f(vals, ctx) and gives one right-hand side per
# unknown, in the order of the entry's unknowns; vals holds a value for
# every unknown, ctx supplies ring constants and the geometric helper
# geo(first, ratio) = first / (1 - ratio).  A part that several right-hand
# sides use is a local value, built once per call.
#
# Sums over the last-segment size k telescope by grouping copies of the tail
# ratio; equations involving the partial sums A0 + A0^2 + ... + A0^j are
# reorganised by summing over j first, which keeps every denominator a unit.
#
# The equations are written for few coefficient products; the solved series
# do not depend on it:
#   - each shared power is built once, and a higher power from the lower
#     one (A^3 as A^2 * A);
#   - the t-power goes in first: t A1 is formed before it is squared, and
#     t^k before a product whose top k slices it would drop, so the eager
#     check never forms those slices;
#   - a tail that multiplies a series takes it into its first, geo(f X, r)
#     for geo(f, r) X: one recursion on a sparse ratio, no product.

def _thm1(v, c):
    ta1 = c.t * v[0]
    ta1_sq = ta1 ** 2
    return (c.one + c.y * ta1 + c.y * ta1_sq
            + c.geo(c.x * c.y ** 2 * ta1_sq * ta1, c.y * ta1),)


def _thm2(v, c):
    ta1 = c.t * v[0]
    ta1_sq = ta1 ** 2
    return (c.one + c.y * ta1 + c.x * c.y * ta1_sq
            + c.geo(c.y ** 2 * ta1_sq * ta1, c.y * ta1),)


def _a_from_a1(a1: TruncatedSeries) -> TruncatedSeries:
    """A = 1 + (A1 - 1)/y: drop the extended step's extra descent."""
    poly = (a1 - 1).poly.div_monomial({"y": 1})
    return TruncatedSeries(poly, a1.order) + 1


def _a_over_partial_sums(ta0, a1, d, ds, u, last, c):
    """A = 1 + t A1 + t^2 S_1 + sum_{k>=3} t^k last run^(k-3) y^(k-2) S_(k-1).

    thm3 and thm7 differ only in the marks: u = t run y weighs each column
    of an interior run and last marks the last segment.  ta0 = t A0,
    d = A1 - 1 and ds = d t^2 A0^2 G, with G = 1/(1 - u A0), are the
    system's shared parts.  p = t^2 S_1, and the terms k >= 3 sum to
    t y last (p + ds)/(1 - u).
    """
    p = c.t ** 2 * a1 + d * (c.t * ta0)
    return c.one + c.t * a1 + p + c.geo(c.t * c.y * last * (p + ds), u)


def _thm3(v, c):
    a0, a1, _ = v
    u = c.t * c.x * c.y              # per-column weight of an interior run
    ta0 = c.t * a0
    s = c.geo(ta0 ** 2, u * a0)      # t^2 A0^2 G
    d = a1 - 1
    ds = d * s
    # segment sizes k >= 2 weigh t^2 y/(1 - u)
    return (c.one + u * a0 + c.y * s,
            c.one + c.y * ta0 + c.geo(c.t * c.y * (ta0 * a1 + c.x * c.y * ds), u),
            _a_over_partial_sums(ta0, a1, d, ds, u, c.one, c))


def _thm4(v, c):
    tq = c.t * (c.y * (v[0] - 1) + 1)
    return (c.one + tq + c.geo(tq ** 2, c.x * tq),)


def _thm5(v, c):
    (a,) = v
    return (c.one + c.t * (a + c.y * (a - 1))
            + c.t * c.x * c.y * (a - 1) ** 2,)


def _thm5_remark(v, c):
    # The published compression of A carries a spurious factor y on the
    # tail; expanding the last segment (weight t^k, no new descent) gives
    # A = 1/(1 - t A1).
    ta1 = c.t * v[0]
    g = c.geo(c.one, ta1)
    return (c.one + c.y * ta1 + c.x * c.y * ta1 ** 2 * g, g)


def _thm6(v, c):
    # With Q = d + 1 and P = x d + 1, d = y (A-1): the tail t^2 Q P/(1 - tQ)
    # is tP/(1 - tQ) - tP, so A = 1 + t (Q - P) + tP/(1 - tQ).
    d = c.y * (v[0] - 1)
    return (c.one + c.t * (d - c.x * d)
            + c.geo(c.t * (c.x * d + 1), c.t * (d + 1)),)


def _thm7(v, c):
    a0, a1, _ = v
    u = c.t * c.x3 * c.y
    ta0 = c.t * a0
    t2a0_sq = ta0 ** 2
    s = c.geo(t2a0_sq, u * a0)       # t^2 A0^2 G
    d = a1 - 1
    ds = d * s
    ta0a1 = ta0 * a1
    # segment sizes k >= 3 weigh t^3 x1 x3 y^2/(1 - u)
    return (c.one + u * a0 + c.x1 * c.y * t2a0_sq
            + c.t * c.x2 * c.x3 * c.y ** 2 * a0 * s,
            c.one + c.y * ta0 + c.t * c.x2 * c.y * ta0a1
            + c.geo(c.t * c.x1 * c.x3 * c.y ** 2 * (c.t * ta0a1 + ds), u),
            _a_over_partial_sums(ta0, a1, d, ds, u, c.x1, c))


def _thm8(v, c):
    # G = 1/(1 - t x1 A0) and inner = Q1 + Q0 (A1-1) G.  The k-sums are
    # t^2 x3 y A0 Q0 G in A0, t x1 x3 y A0 w in A1 and w in A, where
    # w = t^2 inner/(1 - t x1).
    a0, a1, _ = v
    q0 = c.x2 * (a0 - 1) + 1
    q1 = c.x2 * (a1 - 1) + 1
    t2q0g = c.geo(c.t ** 2 * q0, c.t * c.x1 * a0)
    t2q1 = c.t ** 2 * q1
    w = c.geo(t2q1 + (a1 - 1) * t2q0g, c.t * c.x1)
    x3ya0 = c.x3 * c.y * a0
    return (c.one + c.t * c.x4 * c.y * a0 + x3ya0 * t2q0g,
            c.one + c.t * c.y * a0 + x3ya0 * (t2q1 + c.t * c.x1 * w),
            c.one + c.t * a1 + w)


def _powers_sum(u, upto: int, c):
    """(sum_{k=0..upto-1} u^k, u^upto), the sum as an explicit polynomial
    sum; the power is the last term built."""
    total = c.const(0)
    term = c.one
    for _ in range(upto):
        total = total + term
        term = term * u
    return total, term


def _fam_123_1m2(m):
    def system(v, c):
        u = c.t * v[0]                # segment sizes k >= m are marked
        return (c.geo(c.one + (c.x - 1) * u ** m, u),)
    return system


def _fam_123_2m31(m):
    def system(v, c):
        u = c.t * v[0]
        g = c.geo(c.one, u)                            # B = 1/(1 - t B1)
        return (g + (c.x - 1) * u ** (m - 1), g)       # interior size m-1
    return system


def _fam_132_1m(m):
    def system(v, c):
        u = c.t * v[0]
        head, um1 = _powers_sum(u, m - 1, c)           # sizes 0..m-2
        # sizes k >= m-1 weigh u^k x^(k-m+1)
        return (head + c.geo(um1, c.x * u),)
    return system


def _fam_132_a1m(m, a):
    def system(v, c):
        (b,) = v
        num = c.one + c.t ** (m - 1) * b ** (m - a) * (c.x - 1) * (b - 1)
        return (c.geo(num, c.t * b),)
    return system


def _fam_132_m1head(m):
    def system(v, c):
        (b,) = v
        num = c.one + c.t ** (m - 1) * (c.x - 1) * (b ** 2 - b)
        return (c.geo(num, c.t * b),)
    return system


def _fam_132_2m1(m):
    def system(v, c):
        b1, _ = v
        u = c.t * b1
        g = c.geo(c.one, u)                            # B = 1/(1 - t B1)
        return (g + (c.x - 1) * u ** (m - 1) * g, g)
    return system


def _fam_132_a2m1(m, a):
    def system(v, c):
        b1, _ = v
        g = c.geo(c.one, c.t * b1)                     # B = 1/(1 - t B1)
        return (g + c.t ** (m - 2) * b1 ** (m - a) * (c.x - 1) * (b1 - 1), g)
    return system


def _fam_132_m1m1(m):
    def system(v, c):
        b1, _ = v
        g = c.geo(c.one, c.t * b1)                     # B = 1/(1 - t B1)
        return (g + c.t ** (m - 2) * (c.x - 1) * (b1 ** 2 - b1), g)
    return system


CATALOG: dict[str, CatalogEntry] = {}


def _entry(*fields, **defaults):
    entry = CatalogEntry(*fields, **defaults)
    CATALOG[entry.id] = entry


def _fixed(*items):
    """Tracked patterns that take no (m, a)."""
    return lambda m, a: items


_entry("thm1", HARD_PASS, (1, 2, 3), ("t", "y", "x"),
       "A1 = 1 + t y A1 + t^2 y A1^2 + t^3 x y^2 A1^3/(1 - t y A1);  A = 1 + (A1-1)/y",
       ("A1",), lambda m, a: _thm1, _fixed((1, 3, 2)),
       derive=lambda s, c: {"A": _a_from_a1(s["A1"])})
_entry("thm2", HARD_PASS, (1, 2, 3), ("t", "y", "x"),
       "A1 = 1 + t y A1 + t^2 x y A1^2 + t^3 y^2 A1^3/(1 - t y A1);  "
       "A = 1 + (A1-1)/y + t^2 (1-x) A1^2",
       ("A1",), lambda m, a: _thm2, _fixed((2, 3, 1)),
       derive=lambda s, c: {
           "A": _a_from_a1(s["A1"]) + (1 - c.x) * (c.t * s["A1"]) ** 2})
_entry("thm3", REPORT_ONLY, (1, 2, 3), ("t", "y", "x"),
       "A0 = 1 + t x y A0 + sum_{k>=2} t^k x^(k-2) y^(k-1) A0^k;  "
       "A1 = 1 + t y A0 + sum_{k>=2} t^k x^(k-2) y^(k-1) A0 S_(k-2);  "
       "A = 1 + t A1 + t^2 S_1 + sum_{k>=3} t^k x^(k-3) y^(k-2) S_(k-1)  "
       "with S_j = A1 + (A1-1)(A0 + .. + A0^j)",
       ("A0", "A1", "A"), lambda m, a: _thm3, _fixed((3, 2, 1)))
_entry("thm4", HARD_PASS, (1, 3, 2), ("t", "y", "x"),
       "A = 1 + t Q + sum_{k>=2} t^k x^(k-2) Q^k,  Q = y(A-1) + 1",
       ("A",), lambda m, a: _thm4, _fixed((1, 2, 3)))
_entry("thm5", HARD_PASS, (1, 3, 2), ("t", "y", "x"),
       "A = 1 + t(A + y(A-1)) + t x y (A-1)^2",
       ("A",), lambda m, a: _thm5, _fixed((2, 3, 1)))
_entry("thm5_remark", HARD_PASS, (1, 3, 2), ("t", "y", "x"),
       "A1 = 1 + t y A1 + t^2 x y A1^2/(1 - t A1);  A = 1/(1 - t A1)",
       ("A1", "A"), lambda m, a: _thm5_remark, _fixed((2, 3, 1)))
_entry("thm6", HARD_PASS, (1, 3, 2), ("t", "y", "x"),
       "A = 1 + t Q + sum_{k>=2} t^k (x y (A-1) + 1) Q^(k-1),  Q = y(A-1) + 1",
       ("A",), lambda m, a: _thm6, _fixed((2, 1, 3)))
_entry("thm7", REPORT_ONLY, (1, 2, 3), ("t", "y", "x1", "x2", "x3"),
       "A0 = 1 + t x3 y A0 + t^2 x1 y A0^2 + sum_{k>=3} t^k x2 x3^(k-2) y^(k-1) A0^k;  "
       "A1 = 1 + t y A0 + t^2 x2 y A0 A1 + sum_{k>=3} t^k x1 x3^(k-2) y^(k-1) A0 S_(k-2);  "
       "A = 1 + t A1 + t^2 S_1 + sum_{k>=3} t^k x1 x3^(k-3) y^(k-2) S_(k-1)",
       ("A0", "A1", "A"), lambda m, a: _thm7,
       _fixed((1, 3, 2), (2, 3, 1), (3, 2, 1)))
_entry("thm8", HARD_PASS, (1, 3, 2), ("t", "y", "x1", "x2", "x3", "x4"),
       "A0 = 1 + t x4 y A0 + sum_{k>=2} t^k x1^(k-2) x3 y A0^(k-1) Q0;  "
       "A1 = 1 + t y A0 + t^2 x3 y A0 Q1 "
       "+ sum_{k>=3} t^k x1^(k-2) x3 y A0 (G_(k-3) Q0 (A1-1) + Q1);  "
       "A = 1 + t A1 + sum_{k>=2} t^k x1^(k-2) (G_(k-2) Q0 (A1-1) + Q1)  "
       "with Q0 = x2(A0-1)+1, Q1 = x2(A1-1)+1, G_j = 1 + A0 + .. + A0^j",
       ("A0", "A1", "A"), lambda m, a: _thm8,
       _fixed((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)))
_entry("fam_123_1m2", HARD_PASS, (1, 2, 3), ("t", "x"),
       "B = (1 + (x-1) t^m B^m)/(1 - t B)",
       ("B",), lambda m, a: _fam_123_1m2(m),
       lambda m, a: ((1,) + tuple(range(m, 1, -1)),),          # 1 m (m-1) ... 2
       m_min=2)
_entry("fam_123_2m31", HARD_PASS, (1, 2, 3), ("t", "x"),
       "B1 = 1/(1 - t B1) + (x-1) t^(m-1) B1^(m-1);  B = 1/(1 - t B1)",
       ("B1", "B"), lambda m, a: _fam_123_2m31(m),
       lambda m, a: ((2,) + tuple(range(m, 2, -1)) + (1,),),   # 2 m (m-1) ... 3 1
       m_min=2)
_entry("fam_132_1m", HARD_PASS, (1, 3, 2), ("t", "x"),
       "B = (1 - t^(m-1) B^(m-1))/(1 - t B) + t^(m-1) B^(m-1)/(1 - t x B)",
       ("B",), lambda m, a: _fam_132_1m(m),
       lambda m, a: (tuple(range(1, m + 1)),),                 # 1 2 ... m
       m_min=2)
_entry("fam_132_a1m", REPORT_ONLY, (1, 3, 2), ("t", "x"),
       "B = (1 + t^(m-1) B^(m-a) (x-1)(B-1))/(1 - t B)",
       ("B",), lambda m, a: _fam_132_a1m(m, a),
       # a 1 2 ... (a-1) (a+1) ... m
       lambda m, a: ((a,) + tuple(v for v in range(1, m + 1) if v != a),),
       m_min=3, a_bounds=(2, -1))
_entry("fam_132_m1head", HARD_PASS, (1, 3, 2), ("t", "x"),
       "B = (1 + t^(m-1) (x-1)(B^2 - B))/(1 - t B)",
       ("B",), lambda m, a: _fam_132_m1head(m),
       # canonical: (m-1) 1 2 .. (m-2) m
       lambda m, a: ((m - 1,) + tuple(range(1, m - 1)) + (m,),),
       m_min=3)
_entry("fam_132_2m1", HARD_PASS, (1, 3, 2), ("t", "x"),
       "B1 = (1 + (x-1) t^(m-1) B1^(m-1))/(1 - t B1);  B = 1/(1 - t B1)",
       ("B1", "B"), lambda m, a: _fam_132_2m1(m),
       lambda m, a: (tuple(range(2, m + 1)) + (1,),),          # 2 3 ... m 1
       m_min=2)
_entry("fam_132_a2m1", REPORT_ONLY, (1, 3, 2), ("t", "x"),
       "B1 = 1/(1 - t B1) + t^(m-2) B1^(m-a) (x-1)(B1-1);  B = 1/(1 - t B1)",
       ("B1", "B"), lambda m, a: _fam_132_a2m1(m, a),
       # a 2 3 ... (a-1) (a+1) ... m 1
       lambda m, a: ((a,) + tuple(v for v in range(2, m + 1) if v != a) + (1,),),
       m_min=4, a_bounds=(3, -1))
_entry("fam_132_m1m1", REPORT_ONLY, (1, 3, 2), ("t", "x"),
       "B1 = 1/(1 - t B1) + t^(m-2) (x-1)(B1^2 - B1);  B = 1/(1 - t B1)",
       ("B1", "B"), lambda m, a: _fam_132_m1m1(m),
       # canonical: (m-1) 2 3 .. (m-2) m 1
       lambda m, a: ((m - 1,) + tuple(range(2, m - 1)) + (m, 1),),
       m_min=4)


# Each system solved so far, by (entry_id, m, a), as (order, system): solved
# at the first order asked, then at T_CAP_HARD once a higher order is asked.
# Every order at or below it is served as its truncation, since the eager
# arithmetic works slice by slice: a cold solve at that order is the same.
_SOLVED: dict[tuple, tuple[int, dict[str, TruncatedSeries]]] = {}


@lru_cache(maxsize=None)
def solve_system(entry_id: str, order: int, m: int | None = None,
                 a: int | None = None) -> dict[str, TruncatedSeries]:
    """Solve a catalog system; returns every series of the system by name.

    The primary series is under "A" (or "B" for the families); auxiliary
    ones appear as "A0"/"A1"/"B1" where the system has them.  A system is
    solved cold at most twice: at the first order asked, and at T_CAP_HARD
    when a higher order is first asked.  Each solve runs its eager check at
    its own full order (see fixed_point_solve); every order asked is a
    truncation of the last solve.
    """
    key = entry_id, m, a
    top, system = _SOLVED.get(key, (None, None))
    if top is None or not 0 <= order <= top:
        if top is not None and not 0 <= order <= T_CAP_HARD:
            raise ValueError(f"order {order} outside [0, {T_CAP_HARD}]")
        top = order if top is None else T_CAP_HARD
        system = _solve(entry_id, top, m, a)
        _SOLVED[key] = top, system
    return {name: s.truncate(order) for name, s in system.items()}


def _cache_clear(clear=solve_system.cache_clear):
    # solve_system.cache_clear empties the chain too, so the next solve is cold.
    _SOLVED.clear()
    clear()


solve_system.cache_clear = _cache_clear


def _solve(entry_id, order, m=None, a=None):
    """solve_system past both its caches: a cold solve at order."""
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise ValueError(f"unknown catalog id {entry_id!r}")
    entry.check_params(m, a)
    system = dict(zip(entry.unknowns, fixed_point_solve(
        entry.equations(m, a), order, [1] * len(entry.unknowns))))
    if entry.derive is not None:
        system.update(entry.derive(system, EqContext(order)))
    return system


def solve_catalog(entry_id: str, order: int, m: int | None = None,
                  a: int | None = None) -> TruncatedSeries:
    """The primary solved series of a catalog entry."""
    system = solve_system(entry_id, order, m, a)
    return system["B" if "B" in system else "A"]


# -- closed coefficient formulas ----------------------------------------------

CLOSED_FORM_ALIASES = {
    "thm1eq": ("cf_123_1m2", 3),
    "thm2eq": ("cf_123_2m31", 3),
    "thm4eq": ("cf_132_1m", 3),
    "thm5eq": ("cf_132_2m1", 3),
}

class UnsupportedIndexError(ValueError):
    """k = 0 requested from a formula whose prefactor is 1/k."""


def _cf_123_1m2(n, k, m):
    if k == 0:
        raise UnsupportedIndexError(
            "the prefactor 1/k is undefined at k = 0; use the row total "
            "C_n minus the k >= 1 values")
    total = 0
    for i in range(k, n // m + 1):
        total += ((-1) ** (i - k)
                  * multinom(2 * n - m * i,
                             [n - m * i, n + 1 - i, k - 1, i - k]))
    return total, k


def _cf_123_2m31(n, k, m):
    if n < 1:
        raise ValueError("cf_123_2m31 needs n >= 1")
    total = 0
    for i in range((m * n - 1) // (m + 2) + 1):
        total += ((-1) ** (m * n + n + k + 1)
                  * binom(n, i)
                  * gen_binom(m * n - m * i - 2 * n + i, m * n - 1)
                  * gen_binom(m * n - m * i - n + i, k))
    return total, n


def _cf_132_1m(n, k, m, printed=False):
    # The printed form has the sign (-1)^((m-1) j) and no factor C(n+1-i, j).
    total = 0
    for i in range(n // (m - 1) + 1):
        for j in range(n + 2 - i):
            total += (((-1) ** ((m - 1) * j) if printed
                       else (-1) ** j * binom(n + 1 - i, j))
                      * binom(n + 1, i)
                      * binom(i + k - 1, k)
                      * binom(2 * n - m * i - m * j + j - k, n - i))
    return total, n + 1


def _cf_132_2m1(n, k, m):
    if n < 1:
        raise ValueError("cf_132_2m1 needs n >= 1")
    total = 0
    for i in range(n - k + 1):
        total += ((-1) ** (m * k + k + i + n + 1)
                  * gen_binom(m * i - i - n, n + 1 - m * k - k))
    return binom(n, k) * total, n


class ClosedForm(namedtuple("ClosedForm", "trust family k0_route coeff")):
    """A closed formula for [t^n x^k] of a family entry's series.

    family is the catalog family whose coefficients it gives; with k0_route,
    k = 0 is checked as C_n minus the k >= 1 values; coeff(n, k, m) gives
    the value as (numerator, denominator), for m >= 2.
    """
    __slots__ = ()


CLOSED_FORMS = {
    "cf_123_1m2": ClosedForm(HARD_PASS, "fam_123_1m2", True, _cf_123_1m2),
    "cf_123_2m31": ClosedForm(REPORT_ONLY, "fam_123_2m31", False, _cf_123_2m31),
    "cf_132_1m": ClosedForm(HARD_PASS, "fam_132_1m", True, _cf_132_1m),
    "cf_132_1m_printed": ClosedForm(REPORT_ONLY, "fam_132_1m", False,
                                    partial(_cf_132_1m, printed=True)),
    "cf_132_2m1": ClosedForm(REPORT_ONLY, "fam_132_2m1", False, _cf_132_2m1),
}


def closed_coeff(form_id: str, n: int, k: int, m: int | None = None) -> Fraction:
    """Evaluate a closed coefficient formula, as an exact rational.

    form_id is one of cf_123_1m2, cf_123_2m31, cf_132_1m, cf_132_2m1 (with
    m required), or a theorem alias thm1eq/thm2eq/thm4eq/thm5eq fixing m=3.

    cf_123_1m2 is the published formula as printed.  cf_132_1m restores an
    inner factor C(n+1-i, j) and the alternating sign (-1)^j that the
    published one-line form garbled; the published variant is available as
    cf_132_1m_printed and is report-only, as are cf_123_2m31 and cf_132_2m1,
    whose published forms disagree with small-case truth.
    """
    if form_id in CLOSED_FORM_ALIASES:
        base, fixed_m = CLOSED_FORM_ALIASES[form_id]
        if m not in (None, fixed_m):
            raise ValueError(f"{form_id} has m = {fixed_m} fixed")
        return closed_coeff(base, n, k, fixed_m)
    if m is None:
        raise ValueError(f"{form_id} needs the pattern length m")
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    form = CLOSED_FORMS.get(form_id)
    if form is None:
        raise ValueError(f"unknown closed form {form_id!r}")
    if m < 2:
        raise ValueError(f"{form_id} needs m >= 2")
    from fractions import Fraction   # loaded on first use, not at import
    return Fraction(*form.coeff(n, k, m))


def closed_coeff_k0(form_id: str, n: int, m: int | None = None) -> Fraction:
    """k = 0 coefficient via the complement route: C_n minus the k >= 1 sum."""
    from fractions import Fraction
    total = Fraction(catalan(n))
    for k in range(1, n + 1):
        total -= closed_coeff(form_id, n, k, m)
    return total


# -- reference sequences --------------------------------------------------------

_STORED_SEQUENCES = {
    "seq_123_231_x0": (1, 1, 2, 4, 9, 23, 63, 178, 514),
    "seq_132_213_x0": (1, 1, 2, 4, 9, 22, 57, 154, 429, 1223),
}


def reference_sequence(name: str, n: int) -> int:
    """Stored and derivable reference sequences.

    catalan and motzkin are computed; seq_123_231_x0 and seq_132_213_x0 are
    stored published prefixes and reject n beyond them; seq_132_231_x0 is
    1, then 2^(n-1).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if name == "catalan":
        return catalan(n)
    if name == "motzkin":
        return _motzkin(n)
    if name in _STORED_SEQUENCES:
        stored = _STORED_SEQUENCES[name]
        if n >= len(stored):
            raise ValueError(f"{name} is stored through n = {len(stored) - 1}")
        return stored[n]
    if name == "seq_132_231_x0":
        return 1 if n == 0 else 2 ** (n - 1)
    raise ValueError(f"unknown sequence {name!r}")


def _motzkin(n: int) -> int:
    # (m+2) M_m = (2m+1) M_{m-1} + 3(m-1) M_{m-2}, from M_0 = M_1 = 1; the
    # division is exact.
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m + 1) * cur + 3 * (m - 1) * prev) // (m + 2)
    return cur


# -- printed-identity checks -----------------------------------------------------
#
# Published one-line equations and Taylor expansions are re-checked against
# the solved series after clearing every denominator (always legal, even for
# non-unit denominators like B-1).  A failing identity is a verdict, not an
# error; several are expected to fail and are recorded as such.

class IdentityVerdict(namedtuple("IdentityVerdict", "identity_id ok witness",
                                 defaults=(None,))):
    """An identity's verdict; witness is (n, monomial, expected, actual)."""
    __slots__ = ()


def _thm1_quadratic(system, c, m, a):
    # One-line form obtained by clearing 1 - t y Q from the defining
    # system; the published variant drops the t^2 (1-y) Q^2 term and
    # squares the final y, so it only holds at y = 1.
    A = system["A"]
    q = c.y * (A - 1) + 1
    q_sq = q ** 2
    return (c.one + c.t * q_sq + c.t ** 2 * (1 - c.y) * q_sq
            + c.t ** 3 * (c.x - 1) * c.y * q_sq * q - A)


def _thm1_quadratic_printed(system, c, m, a):
    A = system["A"]
    q = c.y * (A - 1) + 1
    q_sq = q ** 2
    return c.one + c.t * q_sq + c.t ** 3 * (c.x - 1) * c.y ** 2 * q_sq * q - A


def _thm2_polynomial(system, c, m, a):
    A = system["A"]
    t, y, x = c.t, c.y, c.x
    w = A - 1
    w_sq = w ** 2
    # (A - 2) w = w^2 - w
    inner = (y * (w_sq * x ** 2 * y
                  + x * (w_sq * w * y ** 3 + w_sq * y ** 2 + w * y + 2 * A - 1)
                  - (w * y + 1) * (y * ((w_sq - w) * y + 2 * A - 3) + 3))
             + 1)
    rhs = (t ** 2 * (y - 1) ** 2 * inner
           + w * y * ((y - 3) * y + 3) + 1
           - t * (y - 1) ** 2 * (w * y + 1)
           * (y * (A * (x + y - 2) - x - y + 3) - 1))
    return rhs - A


def _123long2(system, c, m, a):
    # Cleared form re-derived from the two-function system; the published
    # one-line form shifts two of the three B-powers up by B^2.
    B = system["B"]
    lhs = B ** (m - 2) * (B - 1) if m >= 2 else B - 1
    return lhs - c.t * (B ** m + (c.x - 1) * (B - 1) ** (m - 1))


def _123long2_printed(system, c, m, a):
    B = system["B"]
    return B ** m * (B - 1) - c.t * (B ** (m + 2) + (c.x - 1) * (B - 1) ** (m - 1))


def _132long1(system, c, m, a):
    B = system["B"]
    e = max(0, 3 - m)  # clear the B^(m-4) denominator fully
    lhs = B ** (m - 3 + e) * (B - 1)
    return lhs - c.t * B ** e * (B ** (m - 1) + (c.x - 1) * (B - 1) ** (m - 1))


def _132general1(system, c, m, a):
    B = system["B"]
    lhs = B ** (m - a) * (B - 1)
    rhs = (c.t * B ** (m - a + 2)
           + c.t ** (a - 2) * (c.x - 1) * (B - 1 - c.t * B) * (B - 1) ** (m - a))
    return lhs - rhs


def _long2132(system, c, m, a):
    B = system["B"]
    rhs = (c.t * B ** 3
           + c.t ** (m - 3) * (c.x - 1) * (B - 1 - c.t * B) * (B - 1))
    return B * (B - 1) - rhs


def _thm8_rational(system, c, m, a):
    a0, a1, A = system["A0"], system["A1"], system["A"]
    t, y, x1, x2, x3 = c.t, c.y, c.x1, c.x2, c.x3
    # (A - 1 - t A1) t x1 x3 y A0 = A1 - 1 - t y A0 - t^2 x3 y A0 Q1, with
    # its two products by t x3 y A0 taken as one
    q1 = x2 * (a1 - 1) + 1
    return (t * x3 * y * a0 * (x1 * (A - 1 - t * a1) + t * q1)
            - (a1 - 1 - t * y * a0))


def _thm7_rational(system, c, m, a):
    # The printed A = numer/denom, cleared: A denom - numer.  Both sides are
    # quadratics in A0, so the residual is sum_k (A d_k - n_k) A0^k, taken
    # by Horner in A0.  Its coefficients are polynomials in t, y, x1..x3.
    a0, A = system["A0"], system["A"]
    t, y, x1, x2, x3 = c.t, c.y, c.x1, c.x2, c.x3
    u = t * x3 * y
    w = u - 1
    # denom = x3 (x1 - x2) (A0 x3^2 t^2 y^2 g - (A0 + 1) x3 t y g
    #                       + A0 x1 t^2 y - 1), with g = A0 e - 1
    e = t ** 2 * y * (x1 - x2)
    d = (w, u * (1 - u - e) + x1 * t ** 2 * y, e * u * w)
    # numer as printed is the sum of five parts: the terms with a factor x1,
    # with x2, with x3 alone, with x1^2 and with x2^2.  Each is given here
    # as its coefficients of A0^0, A0^1 and A0^2.
    t2y = t ** 2 * y
    parts = (
        # x1 (...)
        (x1 * ((t + 1) * x3 * w - x2 * t ** 2),
         x1 * (x3 ** 2 * t * y * ((x2 + 1) * t ** 3 * y
                                  + t ** 2 * (2 * x2 * y + y + 2) + t + 1)
               + x2 * t ** 2 - x3 ** 3 * t2y * y * (t ** 2 + t + 1)
               - x3 * t ** 2 * (x2 * t ** 2 * y ** 2 + (x2 + 1) * t * y
                                + x2 * y + y + 1)),
         x1 * t2y * (x3 ** 2 * t * (x2 * t ** 2 * y ** 2
                                    + y * (3 * x2 * t + 2 * x2 + t + 1) + 1)
                     - x2 * t + x3 ** 4 * t ** 3 * y ** 2
                     - x3 ** 3 * t ** 2 * y * ((x2 + 1) * t * y
                                               + 2 * x2 * y + y + 2)
                     + x2 * x3 * t * (t - 1))),
        # x2 (...)
        (x2 * (x3 * (t ** 2 * (y + 1) + t + 1) - x3 ** 2 * t * y * (t + 1) - t),
         x2 * (t + x3 * t2y * t + x3 ** 3 * t2y * y * (t ** 2 + t + 1)
               - x3 ** 2 * t * y * (t ** 3 * y + t ** 2 * (y + 2) + t + 1)),
         x2 * t2y * x3 * ((t - 1) + x3 ** 2 * t ** 2 * y * (t * y + 1)
                          - (2 * t - 1) * x3 * t * y - x3 ** 3 * t ** 3 * y ** 2)),
        # x3 t (x3 t y - 1) (A0^2 x3 t y (x3 t y - 1) + A0 - 1)
        (-x3 * t * w, x3 * t * w, x3 * t * u * w ** 2),
        # A0 x1^2 t^2 y (...)
        (c.const(0), x1 ** 2 * t2y * x3 * -w,
         x1 ** 2 * t2y * (x3 ** 3 * t2y * y - x3 ** 2 * t * y - x2 * t ** 2)),
        # A0 x2^2 x3 t^3 y (...)
        (c.const(0), x2 ** 2 * x3 * t2y * t * (1 + t * y - x3 * y * (t + 1)),
         x2 ** 2 * x3 * t2y * t * y * (x3 ** 2 * t * (t + 1) * y
                                       - x3 * (t ** 2 * y + 2 * t + 1) + t)),
    )
    ad = A * (x3 * (x1 - x2))
    r0, r1, r2 = (ad * dk - sum(nk, c.const(0))
                  for dk, nk in zip(d, zip(*parts)))
    return (r2 * a0 + r1) * a0 + r0


_THM7_PRINTED = {
    0: [(1, {})],
    1: [(1, {})],
    2: [(1, {}), (1, {"y": 1})],
    3: [(1, {"x3": 1, "y": 2}), (1, {"x1": 1, "y": 1}), (1, {"x2": 1, "y": 1}),
        (2, {"y": 1}), (1, {})],
    4: [(1, {"x3": 2, "y": 3}), (2, {"x1": 1, "x3": 1, "y": 2}),
        (1, {"x2": 1, "x3": 1, "y": 2}), (3, {"x1": 1, "y": 2}),
        (2, {"x2": 1, "y": 2}), (3, {"x3": 1, "y": 2}), (3, {"x1": 1, "y": 1}),
        (5, {"x2": 1, "y": 1}), (3, {"y": 1}), (1, {})],
    5: [(1, {"x3": 3, "y": 4}), (3, {"x1": 1, "x3": 2, "y": 3}),
        (1, {"x2": 1, "x3": 2, "y": 3}), (13, {"x1": 1, "x3": 1, "y": 3}),
        (5, {"x2": 1, "x3": 1, "y": 3}), (4, {"x3": 2, "y": 3}),
        (3, {"x1": 2, "y": 2}), (10, {"x1": 1, "x2": 1, "y": 2}),
        (10, {"x1": 1, "x3": 1, "y": 2}), (3, {"x2": 2, "y": 2}),
        (7, {"x2": 1, "x3": 1, "y": 2}), (12, {"x1": 1, "y": 2}),
        (15, {"x2": 1, "y": 2}), (6, {"x3": 1, "y": 2}), (6, {"x1": 1, "y": 1}),
        (16, {"x2": 1, "y": 1}), (4, {"y": 1}), (1, {})],
}

_THM8_PRINTED = {
    0: [(1, {})],
    1: [(1, {})],
    2: [(1, {"y": 1}), (1, {})],
    3: [(1, {"x1": 1}), (1, {"x2": 1, "y": 1}), (1, {"x3": 1, "y": 1}),
        (1, {"x4": 1, "y": 2}), (1, {"y": 1})],
    4: [(1, {"x1": 2}), (1, {"x1": 1, "x2": 1, "y": 1}),
        (1, {"x1": 1, "x3": 1, "y": 1}), (2, {"x1": 1, "y": 1}),
        (1, {"x2": 1, "x3": 1, "y": 2}), (1, {"x2": 1, "x3": 1, "y": 1}),
        (2, {"x2": 1, "x4": 1, "y": 2}), (1, {"x3": 1, "x4": 1, "y": 2}),
        (1, {"x3": 1, "y": 2}), (1, {"x3": 1, "y": 1}), (1, {"x4": 2, "y": 3}),
        (1, {"x4": 1, "y": 2})],
    5: [(1, {"x1": 3}), (1, {"x1": 2, "x2": 1, "y": 1}),
        (1, {"x1": 2, "x3": 1, "y": 1}), (3, {"x1": 2, "y": 1}),
        (1, {"x1": 1, "x2": 1, "x3": 1, "y": 2}),
        (2, {"x1": 1, "x2": 1, "x3": 1, "y": 1}),
        (3, {"x1": 1, "x2": 1, "x4": 1, "y": 2}),
        (1, {"x1": 1, "x3": 1, "x4": 1, "y": 2}), (2, {"x1": 1, "x3": 1, "y": 2}),
        (3, {"x1": 1, "x3": 1, "y": 1}), (3, {"x1": 1, "x4": 1, "y": 2}),
        (1, {"x2": 2, "x3": 1, "y": 2}), (1, {"x2": 1, "x3": 2, "y": 2}),
        (3, {"x2": 1, "x3": 1, "x4": 1, "y": 3}),
        (2, {"x2": 1, "x3": 1, "x4": 1, "y": 2}), (3, {"x2": 1, "x3": 1, "y": 2}),
        (3, {"x2": 1, "x4": 2, "y": 3}), (1, {"x3": 2, "y": 2}),
        (1, {"x3": 1, "x4": 2, "y": 3}), (2, {"x3": 1, "x4": 1, "y": 3}),
        (1, {"x3": 1, "x4": 1, "y": 2}), (1, {"x3": 1, "y": 2}),
        (1, {"x4": 3, "y": 4}), (1, {"x4": 2, "y": 3})],
}


class Identity(namedtuple("Identity", "trust entry residual printed instances",
                          defaults=(None, None, ((),)))):
    """A published equation or expansion, checked on a catalog entry.

    residual(system, ctx, m, a) gives the equation with every denominator
    cleared, a series that must vanish; printed gives an expansion's t^n
    slices as {n: [(coefficient, exponents), ...]}.  instances are the
    registered (m,) or (m, a); the entry's domain says which it takes.
    """
    __slots__ = ()

    def top(self, order: int) -> int:
        """The order a check at `order` reaches: an expansion stops at its
        last printed slice."""
        return order if self.printed is None else min(order, max(self.printed))


IDENTITIES = {
    "thm1_quadratic": Identity(HARD_PASS, "thm1", _thm1_quadratic),
    "thm1_quadratic_printed": Identity(REPORT_ONLY, "thm1", _thm1_quadratic_printed),
    "thm2_polynomial": Identity(HARD_PASS, "thm2", _thm2_polynomial),
    "123long2": Identity(HARD_PASS, "fam_123_2m31", _123long2,
                         instances=((2,), (3,), (4,), (5,))),
    "123long2_printed": Identity(REPORT_ONLY, "fam_123_2m31", _123long2_printed,
                                 instances=((3,),)),
    "132long1": Identity(HARD_PASS, "fam_132_2m1", _132long1,
                         instances=((2,), (3,), (4,), (5,))),
    "132general1": Identity(HARD_PASS, "fam_132_a2m1", _132general1,
                            instances=((4, 3), (5, 3), (5, 4))),
    "long2132": Identity(HARD_PASS, "fam_132_m1m1", _long2132,
                         instances=((4,), (5,))),
    "thm7_rational": Identity(REPORT_ONLY, "thm7", _thm7_rational),
    "thm7_expansion": Identity(REPORT_ONLY, "thm7", printed=_THM7_PRINTED),
    "thm8_rational": Identity(HARD_PASS, "thm8", _thm8_rational),
    "thm8_expansion": Identity(HARD_PASS, "thm8", printed=_THM8_PRINTED),
}


def printed_identity_check(identity_id: str, order: int, m: int | None = None,
                           a: int | None = None) -> IdentityVerdict:
    """Substitute solved series into a published equation or expansion.

    A cleared equation's residual is compared with zero slice by slice, an
    expansion with its printed slices; the witness is the first
    disagreeing coefficient.  A parameter the identity does not take is a
    ValueError.
    """
    ident = IDENTITIES.get(identity_id)
    if ident is None:
        raise ValueError(f"unknown identity {identity_id!r}")
    entry = CATALOG[ident.entry]
    for name, value, takes in (("m", m, entry.needs_m),
                               ("a", a, entry.a_bounds is not None)):
        if value is not None and not takes:
            raise ValueError(f"{identity_id} takes no parameter {name}")
    top = ident.top(order)
    # Four positional arguments, as solve_catalog passes them: lru_cache
    # keys on the call's form, so another form would solve the system again.
    system = solve_system(ident.entry, top, m, a)
    if ident.printed is None:
        want = lambda n: Poly()
        got = ident.residual(system, EqContext(top), m, a).t_slice
    else:
        want = lambda n: sum((Poly.monomial(exps, coeff)
                              for coeff, exps in ident.printed[n]), Poly())
        got = system["A"].t_slice
    witness = next(slice_differences(range(top + 1), want, got), None)
    return IdentityVerdict(identity_id, witness is None, witness)
