"""Exact sparse polynomials and t-truncated power series.

The coefficient ring is the integers (Python ints, so arbitrary precision),
and the variable set is fixed: t, y, x, x1, x2, x3, x4.  The variable t
grades everything: a TruncatedSeries of order N carries no information above
t^N and every arithmetic operation truncates there.  Polynomials are plain
and exact.

Monomials are packed into a single int, one byte per variable with t in the
lowest byte, so that multiplying monomials is integer addition.  Exponents
stay far below 256 in this library (t is hard-capped at 16); a product that
would carry out of a byte raises ValueError instead of corrupting the next
variable.

A Poly keeps this packed form in one coefficient dict.  A TruncatedSeries is
stored as its t-slices, one t-free coefficient dict per power of t, so its
products, geometric tails and comparisons work slice by slice and never
regroup the terms by t-degree.  A product by a series of one term
c*t^j*K re-keys the other operand: slice n of the product is slice n - j
of the other with every key moved by K and every coefficient times c, as
no two of its terms meet.  A square sums each unordered pair of slices and
of terms once.  A geometric tail first/(1 - ratio) is one recursion,
slice n from first's slice n and the ratio times the tail's lower slices,
not an inverse followed by a product.

fixed_point_solve evaluates a whole system of equations once on lazy series,
which compute every unknown's t-slices in one pass, each slice from lower
slices, and then once more eagerly, as TruncatedSeries at full order, to
check the solution.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from math import comb, factorial, prod
from operator import or_

VARS = ("t", "y", "x", "x1", "x2", "x3", "x4")

T_CAP_HARD = 16
T_DEFAULT_ORDER = 10

_SHIFT = {v: 8 * i for i, v in enumerate(VARS)}
_TMASK = 0xFF
_HIGH = sum(0x80 << s for s in _SHIFT.values())    # top bit of every field
_CARRY = sum(0x100 << s for s in _SHIFT.values())  # bit just above every field


class NonInvertibleError(ValueError):
    """Division by a series whose constant term is not a unit (+1 or -1)."""


class NonContractiveError(RuntimeError):
    """A fixed-point system is not contractive: a slice of an unknown
    depends on itself, or the solution does not satisfy the system."""


def pack(exps: dict[str, int]) -> int:
    key = 0
    for v, e in exps.items():
        if e < 0 or e > 255:
            raise ValueError(f"exponent out of range for {v}: {e}")
        key |= e << _SHIFT[v]
    return key


def unpack(key: int) -> tuple[int, ...]:
    return tuple((key >> _SHIFT[v]) & 0xFF for v in VARS)


def _sort_key(key: int) -> tuple[int, ...]:
    # Canonical monomial order: by (deg_t, deg_y), then by the x-block with
    # x1 varying fastest, so x2*y sorts before x3*y.
    t, y, x, x1, x2, x3, x4 = unpack(key)
    return (t, y, x4, x3, x2, x1, x)


class Poly:
    """Sparse multivariate polynomial with exact integer coefficients.

    Zero coefficients are never stored.  Instances are treated as immutable;
    no method mutates self.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = coeffs if coeffs is not None else {}

    @staticmethod
    def const(value: int) -> "Poly":
        return Poly({0: value}) if value else Poly()

    @staticmethod
    def variable(name: str, power: int = 1) -> "Poly":
        if name not in _SHIFT:
            raise ValueError(f"unknown variable {name!r}")
        if power < 0 or power > 255:
            raise ValueError(f"exponent out of range for {name}: {power}")
        return Poly({power << _SHIFT[name]: 1}) if power else Poly.const(1)

    @staticmethod
    def monomial(exps: dict[str, int], coeff: int = 1) -> "Poly":
        return Poly({pack(exps): coeff}) if coeff else Poly()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Poly)):
            return NotImplemented
        out = dict(self.c)
        _add_into(out, _as_poly(other).c.items())
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Poly)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Poly)):
            return NotImplemented
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        """Product; raises ValueError if an exponent would exceed 255."""
        if not isinstance(other, (int, Poly)):
            return NotImplemented
        a, b = self.c, _as_poly(other).c
        out: dict[int, int] = {}
        if a is b:
            _square_into(out, a, reduce(or_, a, 0))
        else:
            _mul_into(out, a, b, reduce(or_, a, 0) | reduce(or_, b, 0))
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly.const(1))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        return f"Poly({poly_str(self)})"

    # -- structure ---------------------------------------------------------

    def truncate_t(self, cap: int) -> "Poly":
        return Poly({k: v for k, v in self.c.items() if (k & _TMASK) <= cap})

    def t_degree(self) -> int:
        return max((k & _TMASK for k in self.c), default=0)

    def degree(self, var: str) -> int:
        sh = _SHIFT[var]
        return max(((k >> sh) & 0xFF for k in self.c), default=0)

    def t_slice(self, n: int) -> "Poly":
        """Coefficient of t^n, as a polynomial in the remaining variables."""
        return Poly({k - (n or 0): v for k, v in self.c.items()
                     if (k & _TMASK) == n})

    def coefficient(self, exps: dict[str, int]) -> int:
        return self.c.get(pack(exps), 0)

    def constant_term(self) -> int:
        return self.c.get(0, 0)

    def terms(self):
        """Yield (exponent tuple over VARS, coefficient) in canonical order."""
        for k in sorted(self.c, key=_sort_key):
            yield unpack(k), self.c[k]

    def substitute(self, assignments: dict[str, "Poly | int"]) -> "Poly":
        """Substitute variables by integers or polynomials, exactly and all
        at once, so {x: y, y: x} swaps x and y.

        An integer scales the coefficient and a bare variable renames: the
        exponent moves to the new variable's field.  Only other polynomial
        values multiply.
        """
        for v in assignments:
            if v not in _SHIFT:
                raise ValueError(f"unknown variable {v!r}")
        scalars, renames, polys = [], [], []
        for v, p in assignments.items():
            if isinstance(p, int):
                scalars.append((_SHIFT[v], p))
            elif (to := _bare_field(p)) is not None:
                renames.append((_SHIFT[v], to))
            else:
                polys.append((_SHIFT[v], _as_poly(p)))
        cleared = sum(0xFF << _SHIFT[v] for v in assignments)
        powers: dict[tuple[int, int], Poly] = {}
        out: dict[int, int] = {}
        for k, coeff in self.c.items():
            rest = k & ~cleared
            for sh, val in scalars:
                coeff *= val ** ((k >> sh) & 0xFF)
            for sh, to in renames:
                moved = ((k >> sh) & 0xFF) << to
                if (rest ^ moved ^ (rest + moved)) & _CARRY:
                    raise ValueError(
                        f"exponent overflow: substituting into "
                        f"{monomial_str(unpack(k))} gives an exponent above 255")
                rest += moved
            if not polys:
                out[rest] = out.get(rest, 0) + coeff
                continue
            factor = Poly.const(coeff)
            for sh, p in polys:
                e = (k >> sh) & 0xFF
                if e:
                    if (sh, e) not in powers:
                        powers[sh, e] = p ** e
                    factor = factor * powers[sh, e]
            _mul_into(out, {rest: 1}, factor.c,
                      rest | reduce(or_, factor.c, 0))
        return Poly({k: v for k, v in out.items() if v})

    def div_exact(self, divisor: int) -> "Poly":
        """Divide every coefficient by an integer; error if not exact."""
        out = {}
        for k, v in self.c.items():
            q, r = divmod(v, divisor)
            if r:
                raise ValueError(f"coefficient {v} not divisible by {divisor}")
            out[k] = q
        return Poly(out)

    def div_monomial(self, exps: dict[str, int]) -> "Poly":
        """Divide by a monomial; every term must be divisible."""
        d = pack(exps)
        out = {}
        for k, v in self.c.items():
            for var, e in exps.items():
                if ((k >> _SHIFT[var]) & 0xFF) < e:
                    raise NonInvertibleError(
                        f"term not divisible by {monomial_str(unpack(d))}")
            out[k - d] = v
        return Poly(out)


def _power(base, n: int, one):
    """base ** n by square-and-multiply; the ring's one for n = 0.  Each
    squaring is a product of base with itself, which the rings compute from
    half the pairs."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        if n > 1:
            base = base * base
        n >>= 1
    return one if result is None else result


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


_BARE = {1 << sh: sh for sh in _SHIFT.values()}


def _bare_field(value) -> int | None:
    """The field shift of a bare variable (one term, exponent 1, coefficient
    1), or None for any other value."""
    if isinstance(value, Poly) and len(value.c) == 1:
        ((key, coeff),) = value.c.items()
        if coeff == 1:
            return _BARE.get(key)
    return None


def _add_into(out: dict[int, int], terms) -> None:
    """Add (key, coefficient) pairs into out in place, dropping zeros."""
    for k, v in terms:
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]


def _mul_into(out: dict[int, int], a: dict[int, int], b: dict[int, int],
              bits: int) -> None:
    """Add the product of two coefficient dicts into out in place.

    bits is the OR of the keys of both; see _check_products.
    """
    if bits & _HIGH:
        _check_products(a, b)
    if len(a) > len(b):
        a, b = b, a
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            elif k in out:
                del out[k]


def _square_into(out: dict[int, int], a: dict[int, int], bits: int) -> None:
    """Add the square of a coefficient dict into out in place, from each
    unordered pair of terms once.

    bits is the OR of a's keys; see _check_products.
    """
    if bits & _HIGH:
        _check_products(a, a)
    items = list(a.items())
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        s = out.get(k, 0) + ca * ca
        if s:
            out[k] = s
        elif k in out:
            del out[k]
        ca += ca
        for kb, cb in items[i + 1:]:
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            elif k in out:
                del out[k]


def _square_slice(at, low: int, n: int) -> dict[int, int]:
    """Slice n of a series' square, from each unordered pair of slices once:
    twice the pairs i < n - i, plus the square of slice n/2.  at(i) gives
    slice i with the OR of its keys; slices below low are empty."""
    out: dict[int, int] = {}
    for i in range(low, (n + 1) // 2):
        da, abits = at(i)
        db, bbits = at(n - i)
        if da and db:
            _mul_into(out, da, db, abits | bbits)
    if out:
        out = {k: v + v for k, v in out.items()}
    if not n & 1 and n >= 2 * low:
        d, bits = at(n // 2)
        if d:
            _square_into(out, d, bits)
    return out


# Multiplying monomials adds their keys, so an exponent sum above 255 would
# carry into the next variable.  When the OR of all keys of both factors has
# no field's top bit set, every exponent is below 128 and no sum can carry;
# _mul_into tests that first and calls _check_products only otherwise.

def _check_products(a, b) -> None:
    """Raise ValueError if multiplying a key of a by a key of b would carry
    out of an 8-bit exponent field."""
    for ka in a:
        for kb in b:
            if (ka ^ kb ^ (ka + kb)) & _CARRY:
                raise ValueError(
                    f"exponent overflow: {monomial_str(unpack(ka))} * "
                    f"{monomial_str(unpack(kb))} has an exponent above 255")


def _one_term(slices) -> tuple[int, int, int] | None:
    """(j, key, coeff) when a series' only term is coeff * t^j * key, else
    None."""
    term = None
    for j, d in enumerate(slices):
        if d:
            if term is not None or len(d) > 1:
                return None
            ((key, coeff),) = d.items()
            term = j, key, coeff
    return term


def _shifted(d: dict[int, int], key: int, coeff: int) -> dict[int, int]:
    """coeff * key times a t-free coefficient dict: each term re-keyed, as
    no two terms of the product meet (the guard as in _mul_into).  d itself
    comes back when the factor is 1."""
    if reduce(or_, d, key) & _HIGH:
        _check_products(d, (key,))
    if coeff == 1:
        return {k + key: v for k, v in d.items()} if key else d
    return {k + key: coeff * v for k, v in d.items()}


def _bits(slices) -> list[int]:
    """The OR of the keys of each slice, for the overflow guard."""
    return [reduce(or_, d, 0) for d in slices]


def _sum(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a + b as coefficient dicts; an empty operand shares the other."""
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    _add_into(out, b.items())
    return out


def _unit(c0: dict[int, int]) -> int:
    """A denominator's constant term c0 as +1 or -1; NonInvertibleError for
    any other."""
    if c0 != {0: 1} and c0 != {0: -1}:
        raise NonInvertibleError(
            "series is not invertible: constant term must be +1 or -1, "
            f"got {poly_str(Poly(c0))}")
    return c0[0]


def _one_minus(d: dict[int, int]) -> dict[int, int]:
    """1 - d for a t-free coefficient dict d."""
    return _sum({0: 1}, {k: -v for k, v in d.items()})


class TruncatedSeries:
    """A series known to be correct for all t-degrees <= order.

    It is stored as its t-slices: slices[n] is the t-free coefficient dict
    of t^n, for n = 0..order, in Poly's packed keys; `poly` joins them into
    one packed Poly on demand.  Every operation works slice by slice.
    Mixing two series uses the smaller order; a product is the triangular
    convolution of slice pairs and drops every pair above it.  Coefficients
    beyond the order are never reported.  Series and their slice dicts are
    treated as immutable, so slices may be shared between series and with
    the polynomials t_slice returns.
    """

    __slots__ = ("slices", "order")

    def __init__(self, poly: Poly, order: int):
        if order < 0 or order > T_CAP_HARD:
            raise ValueError(f"series order {order} outside [0, {T_CAP_HARD}]")
        slices: list[dict[int, int]] = [{} for _ in range(order + 1)]
        for k, v in poly.c.items():
            n = k & _TMASK
            if n <= order:
                slices[n][k - n] = v
        self.slices, self.order = slices, order

    @classmethod
    def _of_slices(cls, slices: list[dict[int, int]], order: int):
        out = cls.__new__(cls)
        out.slices, out.order = slices, order
        return out

    @staticmethod
    def const(value: int, order: int) -> "TruncatedSeries":
        return TruncatedSeries(Poly.const(value), order)

    @staticmethod
    def of(poly: Poly, order: int) -> "TruncatedSeries":
        return TruncatedSeries(poly, order)

    @property
    def poly(self) -> Poly:
        # t is the lowest byte, so t^n shifts a t-free key by n and no two
        # slices share a key.
        return Poly({k + n: v for n, d in enumerate(self.slices)
                     for k, v in d.items()})

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Poly)):
            return TruncatedSeries(_as_poly(other), self.order)
        raise TypeError(f"cannot mix TruncatedSeries with {type(other).__name__}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.slices == other.slices

    def __add__(self, other):
        other = self._coerce(other)
        return TruncatedSeries._of_slices(
            [_sum(a, b) for a, b in zip(self.slices, other.slices)],
            min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of_slices(
            [{k: -v for k, v in d.items()} for d in self.slices], self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        a, b = self.slices, other.slices
        for term, rest in ((_one_term(b), a), (_one_term(a), b)):
            if term is not None:
                j, key, coeff = term
                return TruncatedSeries._of_slices(
                    [{} for _ in range(min(j, order + 1))]
                    + [_shifted(d, key, coeff)
                       for d in rest[:max(order + 1 - j, 0)]], order)
        abits = _bits(a)
        if a is b:
            at = list(zip(a, abits)).__getitem__
            return TruncatedSeries._of_slices(
                [_square_slice(at, 0, n) for n in range(order + 1)], order)
        bbits = _bits(b)
        out: list[dict[int, int]] = [{} for _ in range(order + 1)]
        for i in range(order + 1):
            da = a[i]
            if not da:
                continue
            for j in range(order + 1 - i):
                if b[j]:
                    _mul_into(out[i + j], da, b[j], abits[i] | bbits[j])
        return TruncatedSeries._of_slices(out, order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        return _power(self, n, TruncatedSeries.const(1, self.order))

    def inverse_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse when the t^0 slice is +1 or -1: the
        geometric tail 1/(1 - (1 - self))."""
        return geometric(TruncatedSeries.const(1, self.order), 1 - self)

    def div_unit(self, den: "TruncatedSeries") -> "TruncatedSeries":
        den = self._coerce(den)
        return self * den.inverse_unit()

    def truncate(self, order: int) -> "TruncatedSeries":
        """The series cut to a lower order; its slices are shared."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncatedSeries._of_slices(self.slices[:order + 1], order)

    def substitute(self, assignments: dict[str, "Poly | int"]) -> "TruncatedSeries":
        if "t" in assignments:
            raise ValueError("cannot substitute t: it is the truncation grading")
        return TruncatedSeries(self.poly.substitute(assignments), self.order)

    def t_slice(self, n: int) -> Poly:
        if n > self.order:
            raise ValueError(f"slice t^{n} beyond series order {self.order}")
        return Poly(self.slices[n]) if n >= 0 else Poly()

    def __repr__(self):
        return f"TruncatedSeries({series_str(self)}, order={self.order})"


def geometric(first: TruncatedSeries, ratio: TruncatedSeries) -> TruncatedSeries:
    """first + first*ratio + first*ratio^2 + ... = first / (1 - ratio).

    The denominator's constant term 1 - ratio[0] must be +1 or -1, so the
    ratio's t^0 slice is 0 or 2; any other raises NonInvertibleError.  With
    unit = 1/(1 - ratio[0]), slice n of the tail G is
    unit * (first[n] + sum_{j>=1} ratio[j] * G[n-j]): one convolution, where
    an inverse followed by a product takes two.
    """
    order = min(first.order, ratio.order)
    unit = _unit(_one_minus(ratio.slices[0]))
    terms = [(j, d, reduce(or_, d, 0))
             for j, d in enumerate(ratio.slices[1:order + 1], 1) if d]
    out: list[dict[int, int]] = []
    out_bits: list[int] = []
    for n in range(order + 1):
        acc = dict(first.slices[n])
        for j, rj, bits in terms:
            if j > n:
                break
            _mul_into(acc, rj, out[n - j], bits | out_bits[n - j])
        if unit == -1:
            acc = {k: -v for k, v in acc.items()}
        out.append(acc)
        out_bits.append(reduce(or_, acc, 0))
    return TruncatedSeries._of_slices(out, order)


def fixed_point_solve(equations, order: int, seeds=None) -> list[TruncatedSeries]:
    """Solve a system S_i = F_i(S_1..S_k) by t-adic fixed point.

    equations(vals, ctx) gives one right-hand side per unknown, where vals
    holds a value for every unknown and ctx provides ring constants at the
    working order (see EqContext).  Seeds give the unknowns' constant terms,
    one int per unknown (default: one unknown, seed 1); any other seed
    raises TypeError.  The system is called twice.  The first call builds
    every right-hand side on lazy series (see _Lazy): slice 0 of an unknown
    is its seed, slice n is slice n of its right-hand side, and one relaxed
    pass computes slice n of every unknown from lower slices, n = 1..order.
    A slice that needs itself raises NonContractiveError.  The second call
    evaluates the system eagerly on the solved values at full order; each
    right-hand side must give its unknown back, which checks both
    stabilisation and the lazy arithmetic, at every slice.  A part that
    several right-hand sides share is built once per call, as one of the
    system's local values.

    >>> (c,) = fixed_point_solve(lambda v, ctx: (ctx.one + ctx.t * v[0] ** 2,), 6)
    >>> series_str(c)
    '1 + t + 2*t^2 + 5*t^3 + 14*t^4 + 42*t^5 + 132*t^6'
    """
    if order < 0 or order > T_CAP_HARD:
        raise ValueError(f"order {order} outside [0, {T_CAP_HARD}]")
    ctx = EqContext(order)
    vals = _solve_lazily(equations, ctx, [1] if seeds is None else seeds)
    for i, (final, val) in enumerate(zip(equations(vals, ctx), vals, strict=True)):
        if final.slices[:order + 1] != val.slices:
            raise NonContractiveError(
                f"unknown {i} did not stabilise at order {order}")
    return vals


def _solve_lazily(equations, ctx: EqContext, seeds) -> list[TruncatedSeries]:
    """The relaxed pass of fixed_point_solve; the lazy graph is freed when
    it returns, before the eager check."""
    order = ctx.order
    unknowns = [_Unknown(s, order, i) for i, s in enumerate(seeds)]
    try:
        for unknown, rhs in zip(unknowns, equations(unknowns, _LazyContext(ctx)),
                                strict=True):
            unknown.rhs = _lift(rhs, order)
        for n in range(order + 1):
            for unknown in unknowns:
                unknown.at(n)
    finally:
        for unknown in unknowns:
            unknown.rhs = None   # break the cycles so the graph can be freed
    # The solution keeps one int per distinct t-free key: a monomial recurs
    # in many slices, and each product made it afresh.
    keys: dict[int, int] = {}
    return [TruncatedSeries._of_slices(
        [{keys.setdefault(k, k): v for k, v in d.items()} for d, _ in u.cache],
        order) for u in unknowns]


class EqContext:
    """Ring constants at a fixed truncation order, for writing equations."""

    def __init__(self, order: int):
        self.order = order
        self.one = TruncatedSeries.const(1, order)
        for v in VARS:
            setattr(self, v, TruncatedSeries(Poly.variable(v), order))

    def const(self, value: int) -> TruncatedSeries:
        return TruncatedSeries.const(value, self.order)

    def geo(self, first: TruncatedSeries, ratio: TruncatedSeries) -> TruncatedSeries:
        return geometric(first, ratio)


# -- lazy series for the fixed-point solver ------------------------------------
#
# Online ("relaxed") power-series evaluation, after van der Hoeven, "Relax,
# but don't be too lazy" (J. Symb. Comput., 2002).  A node gives its t^n
# slice as a t-free coefficient dict, computed from lower slices of its
# operands.  `val` is a static lower bound on the node's t-valuation; a
# product reads only the slice pairs (i, n-i) within its operands' bounds,
# so t*X never asks X for slice n.  Sub-expressions without an unknown are
# folded into TruncatedSeries constants as the system is built, with the
# eager arithmetic; a product by a one-term constant is a _Shift.  Slices
# are memoised only on nodes that a product or a geometric tail reads; a
# _Shift reads one slice of its node per slice and leaves the node as it is.
# `cache` is None on the others, and they compute a slice whenever asked.
# A memoised slice is stored with the OR of its keys, for the
# exponent-overflow guard in _mul_into.

class _Lazy:
    __slots__ = ("order", "val", "cache")

    def __init__(self, order: int, val: int):
        self.order = order
        self.val = val
        self.cache = None

    def memoise(self) -> None:
        if self.cache is None:
            self.cache = []

    def at(self, n: int):
        """(slice n, OR of its keys), memoised; computes lower slices first."""
        cache = self.cache
        while len(cache) <= n:
            d = self.compute(len(cache))
            cache.append((d, reduce(or_, d, 0)))
        return cache[n]

    def slice(self, n: int) -> dict[int, int]:
        """Slice n as a t-free coefficient dict; callers must not mutate it."""
        return self.compute(n) if self.cache is None else self.at(n)[0]

    def compute(self, n: int) -> dict[int, int]:
        raise NotImplementedError

    def __add__(self, other):
        return _lin(((1, self), (1, _lift(other, self.order))))

    __radd__ = __add__

    def __neg__(self):
        return _lin(((-1, self),))

    def __sub__(self, other):
        return _lin(((1, self), (-1, _lift(other, self.order))))

    def __rsub__(self, other):
        return _lin(((1, _lift(other, self.order)), (-1, self)))

    def __mul__(self, other):
        return _mul(self, _lift(other, self.order))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, _lift(1, self.order))


class _Const(_Lazy):
    """A known series: a TruncatedSeries cut into memoised slices."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        slices = series.slices
        super().__init__(series.order, next(
            (n for n, d in enumerate(slices) if d), series.order + 1))
        self.series = series
        self.cache = list(zip(slices, _bits(slices)))

    def at(self, n: int):
        return self.cache[n] if n < len(self.cache) else ({}, 0)


class _Lin(_Lazy):
    """An integer linear combination of nodes, at most one of them constant."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__(terms[0][1].order, min(node.val for _, node in terms))
        self.terms = terms

    def compute(self, n):
        out: dict[int, int] = {}
        for coeff, node in self.terms:
            if node.val <= n:
                d = node.slice(n)
                _add_into(out, d.items() if coeff == 1 else
                          ((k, coeff * v) for k, v in d.items()))
        return out


class _Mul(_Lazy):
    """A product of two nodes, at least one of them with an unknown in it;
    a square when both are the same node."""

    __slots__ = ("a", "b")

    def __init__(self, a: _Lazy, b: _Lazy):
        super().__init__(a.order, a.val + b.val)
        self.a, self.b = a, b
        a.memoise()
        b.memoise()

    def compute(self, n):
        a, b = self.a, self.b
        if a is b:
            return _square_slice(a.at, a.val, n)
        out: dict[int, int] = {}
        for i in range(a.val, n - b.val + 1):
            da, abits = a.at(i)
            db, bbits = b.at(n - i)
            if da and db:
                _mul_into(out, da, db, abits | bbits)
        return out


class _Shift(_Lazy):
    """A node times a one-term constant coeff * t^j * key: slice n is the
    node's slice n - j, re-keyed."""

    __slots__ = ("node", "j", "key", "coeff")

    def __init__(self, node: _Lazy, j: int, key: int, coeff: int):
        super().__init__(node.order, node.val + j)
        self.node, self.j, self.key, self.coeff = node, j, key, coeff

    def compute(self, n):
        if n < self.val:
            return {}
        return _shifted(self.node.slice(n - self.j), self.key, self.coeff)


class _Geo(_Lazy):
    """first / (1 - ratio), by geometric's recursion run relaxed: slice n
    reads first's slice n, the ratio's slices 1..n and its own lower
    slices."""

    __slots__ = ("first", "ratio", "unit")

    def __init__(self, first: _Lazy, ratio: _Lazy):
        super().__init__(first.order, first.val)
        self.first, self.ratio = first, ratio
        self.cache = []
        ratio.memoise()

    def compute(self, n):
        first, ratio = self.first, self.ratio
        if n == 0:
            self.unit = _unit(_one_minus(ratio.at(0)[0]))
        acc = dict(first.slice(n)) if first.val <= n else {}
        for j in range(max(ratio.val, 1), n - self.val + 1):
            rj, rbits = ratio.at(j)
            gj, gbits = self.at(n - j)
            if rj and gj:
                _mul_into(acc, rj, gj, rbits | gbits)
        return acc if self.unit == 1 else {k: -v for k, v in acc.items()}


class _Unknown(_Lazy):
    """One unknown of the system: its seed, then the slices of its
    right-hand side."""

    __slots__ = ("seed", "index", "rhs", "busy")

    def __init__(self, seed: int, order: int, index: int):
        if not isinstance(seed, int):
            raise TypeError(f"seed of unknown {index} must be an int, "
                            f"not {type(seed).__name__}")
        super().__init__(order, 0)
        self.seed, self.index = seed, index
        self.rhs = None
        self.busy = False
        self.cache = []

    def compute(self, n):
        if n == 0:
            return {0: self.seed} if self.seed else {}
        if self.busy:
            raise NonContractiveError(
                f"unknown {self.index}: its slice t^{n} depends on itself")
        self.busy = True
        try:
            return self.rhs.slice(n) if self.rhs.val <= n else {}
        finally:
            self.busy = False


def _lift(value, order: int) -> _Lazy:
    if isinstance(value, _Lazy):
        return value
    if isinstance(value, TruncatedSeries):
        return _Const(value)
    return _Const(TruncatedSeries(_as_poly(value), order))


def _lin(terms) -> _Lazy:
    """Sum of coefficient * node: nested sums are flattened, repeated nodes
    merged and constants folded into one."""
    merged: dict[int, list] = {}
    const = None
    for coeff, node in terms:
        for c, sub in (node.terms if isinstance(node, _Lin) else ((1, node),)):
            c *= coeff
            if isinstance(sub, _Const):
                part = sub.series if c == 1 else sub.series * c
                const = part if const is None else const + part
            elif id(sub) in merged:
                merged[id(sub)][0] += c
            else:
                merged[id(sub)] = [c, sub]
    out = [(c, sub) for c, sub in merged.values() if c]
    if const is not None and any(const.slices):
        out.append((1, _Const(const)))
    if not out:
        return _Const(const if const is not None
                      else TruncatedSeries.const(0, terms[0][1].order))
    if len(out) == 1 and out[0][0] == 1:
        return out[0][1]
    return _Lin(out)


def _mul(a: _Lazy, b: _Lazy) -> _Lazy:
    if isinstance(b, _Const):
        a, b = b, a
    if isinstance(a, _Const):
        if isinstance(b, _Const):
            return _Const(a.series * b.series)
        term = _one_term(a.series.slices)
        if term == (0, 0, 1):
            return b
        if term is not None:
            return _Shift(b, *term)
        if not any(a.series.slices):
            return a
    return _Mul(a, b)


class _LazyContext:
    """EqContext's ring constants as lazy constants, for the building pass."""

    def __init__(self, ctx: EqContext):
        self.order = ctx.order
        self.one = _Const(ctx.one)
        for v in VARS:
            setattr(self, v, _Const(getattr(ctx, v)))

    def const(self, value: int) -> _Lazy:
        return _lift(value, self.order)

    def geo(self, first, ratio) -> _Lazy:
        first, ratio = _lift(first, self.order), _lift(ratio, self.order)
        if isinstance(first, _Const) and isinstance(ratio, _Const):
            return _Const(geometric(first.series, ratio.series))
        return _Geo(first, ratio)


# -- slices ---------------------------------------------------------------------

def slice_differences(ns, want, got, prefix=""):
    """Compare polynomial slices want(n) and got(n) over ns: for each n, the
    first coefficient in canonical monomial order where they differ, as
    (n, prefix + monomial, expected, actual).

    >>> want, got = Poly.variable("x") + 1, 2 * Poly.variable("x") + 1
    >>> list(slice_differences([0], lambda n: want, lambda n: got))
    [(0, 'x', 1, 2)]
    """
    for n in ns:
        w, g = want(n), got(n)
        diff = w - g
        if diff:
            exps, _ = next(diff.terms())
            where = {v: e for v, e in zip(VARS, exps) if e}
            yield (n, prefix + monomial_str(exps, 1), w.coefficient(where),
                   g.coefficient(where))


def y_reverse(slice_poly: Poly, n: int) -> Poly:
    """Map the coefficient of y^d to y^(n-1-d) within a fixed t^n slice.

    The argument must be t-free with y-degree at most n-1; the map is an
    involution on such slices.
    """
    if n < 1:
        raise ValueError("y_reverse needs a slice of degree n >= 1")
    if slice_poly.t_degree() > 0:
        raise ValueError("y_reverse expects a t-free slice polynomial")
    if slice_poly.degree("y") > n - 1:
        raise ValueError(
            f"y-degree {slice_poly.degree('y')} exceeds n-1 = {n - 1}")
    sh = _SHIFT["y"]
    out = {}
    for k, v in slice_poly.c.items():
        d = (k >> sh) & 0xFF
        out[k - (d << sh) + ((n - 1 - d) << sh)] = v
    return Poly(out)


# -- integer combinatorics ----------------------------------------------------

def gen_binom(alpha: int, j: int) -> int:
    """Generalized binomial coefficient: alpha(alpha-1)...(alpha-j+1)/j!.

    Defined for integer alpha of any sign; 0 for j < 0, 1 for j = 0.
    """
    if j < 0:
        return 0
    if alpha >= 0:
        return comb(alpha, j)
    return prod(range(alpha, alpha - j, -1)) // factorial(j)


def multinom(n: int, parts) -> int:
    """n! / prod(part!), or 0 if any part is negative or they don't sum to n."""
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    return prod(map(comb, accumulate(parts), parts))


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 unless 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def catalan(n: int) -> int:
    """The n-th Catalan number, (1/(n+1)) * C(2n, n)."""
    return comb(2 * n, n) // (n + 1)


# -- rendering ----------------------------------------------------------------

# Within a monomial, variables print in the order t, x, x1..x4, y; monomials
# are sorted by (deg_t, deg_y, deg_x, deg_x1..deg_x4).
_PRINT_ORDER = ("t", "x", "x1", "x2", "x3", "x4", "y")


def monomial_str(exps: tuple[int, ...], coeff: int = 1, star_coeff: bool = True) -> str:
    by_var = dict(zip(VARS, exps))
    parts = []
    for v in _PRINT_ORDER:
        e = by_var[v]
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    mag = abs(coeff)
    if not parts:
        body = str(mag)
    elif mag == 1:
        body = "*".join(parts)
    elif star_coeff:
        body = "*".join([str(mag)] + parts)
    else:
        body = str(mag) + "*".join(parts)
    return ("-" if coeff < 0 else "") + body


def poly_str(p: Poly) -> str:
    """Canonical flat rendering, e.g. '9 + 5*x1' or 'x1 + x2*y + y'."""
    terms = list(p.terms())
    if not terms:
        return "0"
    out = monomial_str(*terms[0])
    for exps, coeff in terms[1:]:
        sign = " - " if coeff < 0 else " + "
        out += sign + monomial_str(exps, abs(coeff))
    return out


def _compact_slice_str(p: Poly) -> str:
    terms = list(p.terms())
    out = monomial_str(*terms[0], star_coeff=False)
    for exps, coeff in terms[1:]:
        sign = "-" if coeff < 0 else "+"
        out += sign + monomial_str(exps, abs(coeff), star_coeff=False)
    return out


def series_str(s: TruncatedSeries) -> str:
    """Rendering grouped by t-degree, e.g. '1 + t + 2*t^2 + (4+x)*t^3'."""
    chunks = []
    for n in range(s.order + 1):
        sl = s.t_slice(n)
        if not sl:
            continue
        tpart = "" if n == 0 else ("t" if n == 1 else f"t^{n}")
        if len(sl.c) == 1:
            ((key, coeff),) = sl.c.items()
            full = unpack(key + (n << _SHIFT["t"]))
            chunks.append(monomial_str(full, coeff))
        else:
            chunks.append(f"({_compact_slice_str(sl)})*{tpart}")
    return " + ".join(chunks) if chunks else "0"
