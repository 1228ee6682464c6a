"""Brute-force joint distributions over pattern-avoiding permutations.

These are the ground truth that every solved generating function is checked
against: full enumeration of an avoidance class, counting descents and
consecutive matches, accumulated into an exact polynomial.  The counts come
from one pass over the whole class (perms.class_pattern_counts: one int per
pattern, a byte lane per permutation, so n < 128).  A pattern of length k
matches at most n - k + 1 windows, so its count is a digit of radix
max(n - k + 2, 1); descents are the pattern 21.  The count ints, in order,
are grouped into one-byte mixed-radix codes.  One group (descents plus one
pattern, at every n <= 14, the enumeration cap) is tallied on its code
bytes by byte partition (lanes.tally).  Two or more are laid into a record
of 2 or 4 bytes per permutation and tallied as native unsigned ints by
collections.Counter.
Each distinct code (a few dozen) is decoded into its monomial key.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from functools import lru_cache
from math import prod

from . import lanes
from .perms import Perm, avoider_list, check_enumeration_n, class_pattern_counts
from .series import _SHIFT, VARS, Poly


class DistributionSlice(namedtuple("DistributionSlice",
                                   "n avoided tracked variables poly")):
    """Joint statistic polynomial for one n: sum over the avoiders of
    y^des * prod x_i^(matches of gamma_i)."""
    __slots__ = ()


# The record widths, and the native unsigned format that Counter reads a
# record of 2 or 4 bytes as; a record of 1 byte goes to lanes.tally.  Six
# lanes (y and five x variables) fill at most three bytes: two radices of
# at most n + 1 <= 15 always share a byte (15 * 15 <= 256).
_FORMATS = {1: "B", 2: "H", 4: "I"}


def _byte_groups(radices) -> list[list[int]]:
    """Lane indices, in order, grouped so that each group's radices multiply
    to at most 256: each group's mixed-radix code is one byte.

    >>> _byte_groups([12, 11, 11, 11, 11])
    [[0, 1], [2, 3], [4]]
    """
    groups, span = [[]], 1
    for i, radix in enumerate(radices):
        if span * radix > 256:
            groups.append([])
            span = 1
        groups[-1].append(i)
        span *= radix
    return groups


def _group_codes(counts, radices, groups, m) -> list[bytes]:
    """Each group's mixed-radix code of each of the m permutations, one byte
    per permutation."""
    codes = []
    for group in groups:
        # Every digit is below its radix, so every code is below 256 and no
        # carry crosses from one permutation's byte into the next.
        code, place = 0, 1
        for i in group:
            code += counts[i] * place
            place *= radices[i]
        codes.append(lanes.unpack(code, m))
    return codes


@lru_cache(maxsize=None)
def _distribution(avoided: Perm, tracked: tuple[Perm, ...], n: int,
                  variables: tuple[str, ...], track_des: bool) -> Poly:
    # One pass over the class: descents are the consecutive pattern 21.
    names = (("y",) if track_des else ()) + variables
    patterns = (((2, 1),) if track_des else ()) + tracked
    radices = [max(n - len(p) + 2, 1) for p in patterns]
    groups = _byte_groups(radices)
    width = next(w for w in _FORMATS if w >= len(groups))
    avoiders = avoider_list(avoided, n)
    m = len(avoiders)
    # The count ints are freed once they are coded: the codes take less.
    codes = _group_codes(class_pattern_counts(avoiders, patterns), radices,
                         groups, m)
    if width == 1:  # popped, so that the tally frees it once it is split
        tally = lanes.tally(codes.pop(), prod(radices))
    else:
        records = bytearray(width * m)
        for g, values in enumerate(codes):
            byte = g if sys.byteorder == "little" else width - 1 - g
            records[byte::width] = values
        tally = Counter(memoryview(records).cast(_FORMATS[width]))
    out = {}
    for record, count in tally.items():
        key = 0
        for group in groups:
            record, code = divmod(record, 256)
            for i in group:
                code, e = divmod(code, radices[i])
                key |= e << _SHIFT[names[i]]
        out[key] = count
    return Poly(out)


def brute_distribution(avoided: Perm, tracked, n: int,
                       variables=None, track_des: bool = True) -> DistributionSlice:
    """Exact joint polynomial over S_n(avoided).

    tracked is a sequence of consecutive patterns; variables names the
    polynomial variable carrying each one (default "x" for a single pattern,
    "x1".. otherwise), each a distinct one of x, x1..x4.  Descents are
    tracked in y unless disabled.
    """
    check_enumeration_n(n)  # the enumeration cap, which PATLAB_NMAX_CAP may lower
    tracked = tuple(tuple(g) for g in tracked)
    if variables is None:
        variables = ("x",) if len(tracked) == 1 else tuple(
            f"x{i + 1}" for i in range(len(tracked)))
    variables = tuple(variables)
    if len(variables) != len(tracked):
        raise ValueError("one variable per tracked pattern is required")
    if len(set(variables)) != len(variables) or not set(variables) <= set(VARS[2:]):
        raise ValueError(f"tracked patterns need distinct variables among "
                         f"x, x1..x4; got {variables}")
    poly = _distribution(tuple(avoided), tracked, n, variables, track_des)
    return DistributionSlice(n=n, avoided=tuple(avoided), tracked=tracked,
                             variables=variables, poly=poly)
