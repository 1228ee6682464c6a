"""Brute-force joint distributions over pattern-avoiding permutations.

These are the ground truth that every solved generating function is checked
against: full enumeration of an avoidance class, counting descents and
consecutive matches, accumulated into an exact polynomial.  The counts come
from one pass over the whole class (perms.class_pattern_counts over the
packed class's byte-lane columns, one lane per permutation, so n < 128).
A Poly key holds one byte per variable, so each pattern's counts are laid
into its variable's byte of an 8-byte record per permutation; read as
native unsigned 64-bit ints, the records are the monomial keys, and their
tally is the coefficient dict.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .limits import ORACLE_MAX_N
from .perms import Perm, avoider_list, check_enumeration_n, class_pattern_counts
from .series import _SHIFT, VARS, Poly


@dataclass(frozen=True)
class DistributionSlice:
    """Joint statistic polynomial for one n: sum over the avoiders of
    y^des * prod x_i^(matches of gamma_i)."""

    n: int
    avoided: Perm
    tracked: tuple[Perm, ...]
    variables: tuple[str, ...]
    poly: Poly


@lru_cache(maxsize=None)
def _distribution(avoided: Perm, tracked: tuple[Perm, ...], n: int,
                  variables: tuple[str, ...], track_des: bool) -> Poly:
    # One pass over the class: descents are the consecutive pattern 21.
    names = (("y",) if track_des else ()) + variables
    patterns = (((2, 1),) if track_des else ()) + tracked
    avoiders = avoider_list(avoided, n)
    records = bytearray(8 * len(avoiders))
    for name, counts in zip(names, class_pattern_counts(avoiders, patterns)):
        byte = _SHIFT[name] // 8
        records[(byte if sys.byteorder == "little" else 7 - byte)::8] = counts
    return Poly(dict(Counter(memoryview(records).cast("Q"))))


def brute_distribution(avoided: Perm, tracked, n: int,
                       variables=None, track_des: bool = True) -> DistributionSlice:
    """Exact joint polynomial over S_n(avoided).

    tracked is a sequence of consecutive patterns; variables names the
    polynomial variable carrying each one (default "x" for a single pattern,
    "x1".. otherwise), each a distinct one of x, x1..x4.  Descents are
    tracked in y unless disabled.
    """
    if n < 0 or n > ORACLE_MAX_N:
        raise ValueError(f"oracle n = {n} outside [0, {ORACLE_MAX_N}]")
    check_enumeration_n(n)  # PATLAB_NMAX_CAP binds the oracle too
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
