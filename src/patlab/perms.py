"""Permutations in one-line notation: patterns, statistics and enumeration.

A permutation is a tuple of the integers 1..n; the empty tuple is the empty
permutation.  Classical patterns match arbitrary subsequences, consecutive
patterns match contiguous windows.  Everything here is a pure function of
its inputs.

There is one consecutive matcher: compile_pattern turns a pattern into its
inverse, so a window matches when its entries at those offsets increase
(k-1 comparisons).  consecutive_match_positions applies it to one
permutation.  class_pattern_counts applies it to a whole avoider class at
once: column j of the class is one big int with one byte lane per
permutation (patlab.lanes), a single big-int subtraction compares two
columns in every lane, and each pattern's counts come back as one int, a
byte lane per permutation, so the length must be below 128.

avoider_list is the one cache of class lists, for the six length-3
patterns only.  A class is its columns: one PackedClass holds S_n's n
byte-lane columns, with one lane per permutation, in lex order.  A Perm
tuple exists only as a decoded row, when the class is indexed or
iterated; class_pattern_counts and the other lane passes read the columns
as they are.  One step grows every class by its first entry (_grow,
West's generating trees): S_m is the union over v = 1..m of v followed by
the rows of S_{m-1} that take v (_RULES), lifted; v ascends and S_{m-1}
is in lex order, so S_m comes out in lex order with no sort.  The step
reads S_{m-1}'s columns and writes S_m's, column by column, with no row
form in between.  An avoider_list miss at n >= 1 grows S_{n-1} read from
the cache.  avoider_levels is the one walk past the cache: it gives S_0,
S_1, ... in turn, read from the cache up to AVOIDERS_CACHED_MAX_N and
each level above it grown once, uncached; enumerate_avoiders yields the
rows of its last level.

phi_n (312- to 213-avoiders, descents kept) relabels a permutation's
min-tree, its Cartesian tree by minimum: a 312-avoider is its tree
labelled in root-left-right preorder, a 213-avoider in root-right-left
preorder.  So entry i of the image is 1 + (i's ancestors left of i) +
(positions right of i's subtree); the inverse swaps left and right.  Row
form: _phi_n, one monotonic-stack scan.  Lane form: phi_n_lanes, over a
whole class's columns at once.

Text form: undelimited digits for n <= 9 ("869743251"), comma-separated
entries for longer permutations.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial

from . import lanes
from .limits import AVOIDERS_CACHED_MAX_N, DEFAULT_MAX_N

Perm = tuple[int, ...]

SYMMETRY_KINDS = ("reverse", "complement", "reverse_complement")


class EnumerationLimitError(ValueError):
    """n exceeds the configured enumeration cap."""


def max_enumeration_n() -> int:
    """Enumeration cap: 14 by default, lowered (never raised) by PATLAB_NMAX_CAP."""
    cap = DEFAULT_MAX_N
    env = os.environ.get("PATLAB_NMAX_CAP")
    if env is not None:
        try:
            cap = min(cap, int(env))
        except ValueError:
            raise ValueError(f"PATLAB_NMAX_CAP is not an integer: {env!r}")
    return cap


def check_enumeration_n(n: int) -> None:
    """Reject n < 0 and n above the enumeration cap."""
    cap = max_enumeration_n()
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise EnumerationLimitError(f"n = {n} exceeds the enumeration cap {cap}")


def check_permutation(entries) -> Perm:
    p = tuple(entries)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def parse_perm(text: str) -> Perm:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        entries = [int(part) for part in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"malformed permutation {text!r}")
        entries = [int(ch) for ch in text]
    return check_permutation(entries)


def perm_str(p: Perm) -> str:
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def reduce_word(word) -> Perm:
    """Order-isomorphic permutation: the i-th smallest letter becomes i.

    >>> reduce_word((5, 1))
    (2, 1)
    >>> reduce_word((2, 6, 3, 8))
    (1, 3, 2, 4)
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError(f"letters are not distinct: {word}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def descent_set(p: Perm) -> frozenset[int]:
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


# -- symmetry actions ---------------------------------------------------------

def reverse(p: Perm) -> Perm:
    return p[::-1]


def complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - v for v in p)


def reverse_complement(p: Perm) -> Perm:
    return complement(reverse(p))


def symmetry_transform(p: Perm, kind: str) -> Perm:
    if kind == "reverse":
        return reverse(p)
    if kind == "complement":
        return complement(p)
    if kind == "reverse_complement":
        return reverse_complement(p)
    raise ValueError(f"unknown symmetry {kind!r}")


# -- classical containment ----------------------------------------------------

def _contains_123(p: Perm) -> bool:
    # Track the least value seen and the least value with a smaller one before it.
    n = len(p)
    low = n + 1
    mid = n + 1
    for v in p:
        if v > mid:
            return True
        if v > low:
            mid = v if v < mid else mid
        elif v < low:
            low = v
    return False


def _contains_132(p: Perm) -> bool:
    # Stack scan from the right: find i < j < k with p[i] < p[k] < p[j].
    stack: list[int] = []
    best_low = 0  # largest candidate for the pattern's smallest entry
    for v in reversed(p):
        if v < best_low:
            return True
        while stack and stack[-1] < v:
            best_low = stack.pop()
        stack.append(v)
    return False


def _contains_subsequence(p: Perm, pat: Perm) -> bool:
    k = len(pat)
    n = len(p)
    if k == 0:
        return True
    if k > n:
        return False

    def extend(chosen: list[int], start: int) -> bool:
        if len(chosen) == k:
            return True
        j = len(chosen)
        for i in range(start, n - (k - j) + 1):
            v = p[i]
            ok = True
            for a in range(j):
                if (pat[a] < pat[j]) != (chosen[a] < v):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                if extend(chosen, i + 1):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


def contains_classical(p: Perm, pat: Perm) -> bool:
    """Does pat occur in p as a (not necessarily contiguous) subsequence?"""
    if len(pat) == 0:
        raise ValueError("patterns must be nonempty")
    if len(pat) == 3:
        # O(n) scans for the two base patterns; the rest via symmetries.
        if pat == (1, 2, 3):
            return _contains_123(p)
        if pat == (3, 2, 1):
            return _contains_123(complement(p))
        if pat == (1, 3, 2):
            return _contains_132(p)
        if pat == (2, 3, 1):
            return _contains_132(reverse(p))
        if pat == (3, 1, 2):
            return _contains_132(complement(p))
        if pat == (2, 1, 3):
            return _contains_132(reverse_complement(p))
    return _contains_subsequence(p, pat)


def avoids_classical(p: Perm, pat: Perm) -> bool:
    return not contains_classical(p, pat)


# -- consecutive matches ------------------------------------------------------
#
# A window p[i..i+k-1] matches pat iff its entries, read in increasing order of
# pattern value, increase: p[i+o0] < p[i+o1] < ... where (o0, o1, ...) is
# pat^-1 written 0-based (Elizalde and Noy's window trick).  That is k-1
# comparisons.

def compile_pattern(pat: Perm) -> tuple[int, ...]:
    """Window offsets of pat's entries sorted by value: pat^-1, 0-based.

    >>> compile_pattern((2, 4, 1, 3))
    (2, 0, 3, 1)
    """
    if len(pat) == 0:
        raise ValueError("patterns must be nonempty")
    offsets = [0] * len(pat)
    for i, v in enumerate(check_permutation(pat)):
        offsets[v - 1] = i
    return tuple(offsets)


def consecutive_match_positions(p: Perm, pat: Perm) -> list[int]:
    """1-based start positions i with reduce(p[i..i+k-1]) equal to pat."""
    first, *rest = compile_pattern(pat)
    out = []
    for i in range(len(p) - len(rest)):
        prev = p[i + first]
        for o in rest:
            v = p[i + o]
            if v < prev:
                break
            prev = v
        else:
            out.append(i + 1)
    return out


def _check_byte_lane(n: int) -> None:
    if n >= 128:
        raise ValueError(f"length {n} does not fit a byte lane (n < 128)")


def class_pattern_counts(cls: PackedClass, patterns) -> list[int]:
    """Consecutive-pattern counts over a whole packed class at once.

    Returns one int per pattern, in the order given (repeats included):
    byte lane j is the number of windows of cls[j] matching it.  The class
    is read through its byte-lane columns.

    >>> cls = PackedClass(lanes.columns(bytes((1, 3, 2, 4, 2, 1, 4, 3)), 4), 2)
    >>> [hex(c) for c in class_pattern_counts(cls, [(2, 1), (1, 3, 2)])]
    ['0x201', '0x101']
    """
    compiled = [compile_pattern(pat) for pat in patterns]
    m, n, cols = len(cls), cls.n, cls.columns()
    _, high = lanes.units(m)
    below = lanes.below
    out = []
    for offsets in compiled:
        total = 0
        for i in range(n - len(offsets) + 1):
            hits = high
            for a, b in zip(offsets, offsets[1:]):
                hits &= below(cols[i + a], cols[i + b], high)
            total += hits >> 7
        out.append(total)
    return out


# -- avoider enumeration ------------------------------------------------------

_DECODE_BLOCKS = 16  # see PackedClass._decode


class PackedClass:
    """Permutations of one length n < 128, stored only as n byte-lane columns.

    Column j is one int whose lane i is entry j of row i (patlab.lanes),
    and m is the number of rows; columns() gives the columns to
    class_pattern_counts and the other lane passes.  len, iteration and
    indexing (negative indices included) decode rows from the columns a
    block of rows at a time (_decode), and nothing decoded is kept.
    """

    __slots__ = ("n", "_len", "_columns")

    def __init__(self, columns: list[int], m: int):
        _check_byte_lane(len(columns))
        self.n, self._len, self._columns = len(columns), m, columns

    def _decode(self, lo: int, hi: int):
        """The rows lo..hi-1, in order, one tuple each.

        They are decoded in at most _DECODE_BLOCKS blocks, one lanes.window
        per column each, so a reader holds about 1/_DECODE_BLOCKS of the
        class decoded (and one column while a window is cut from it); each
        block shifts every column once, so more blocks cost more time."""
        per = max(1, -(-(hi - lo) // _DECODE_BLOCKS))  # rows per block
        for a in range(lo, hi, per):
            b = min(a + per, hi)
            yield from zip(*[lanes.window(c, a, b)
                             for c in self._columns]) if self.n else [()] * (b - a)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Perm:
        i = range(self._len)[i]
        return next(self._decode(i, i + 1))

    def __iter__(self):
        return self._decode(0, self._len)

    # reversed() would fall back to __len__ and __getitem__ and decode one
    # row per call; None makes it a TypeError.
    __reversed__ = None

    def columns(self) -> list[int]:
        """Column j: entry j of every row, one little-endian byte lane each."""
        return self._columns


# West's rule, one row per class: a row q of S_L(pattern) takes v in
# 1..m = L + 1 as its first entry (v followed by q, q's entries >= v up by
# one, avoids the pattern) iff a key of q is at most (or at least) v plus
# an offset.  A key over no entries is neutral: 0 (or m).
_RULES = {                              # key, at most, offset
    (1, 3, 2): ("first", True, 0),      # q_1 <= v
    (3, 1, 2): ("first", False, -1),    # q_1 >= v - 1
    (1, 2, 3): ("run", True, -1),       # first entry off L, L-1, .. <= v - 1
    (3, 2, 1): ("run", False, 0),       # first entry off 1, 2, .. >= v
    (2, 3, 1): ("prefix", True, -1),    # largest of q_1..q_{v-1} <= v - 1
    (2, 1, 3): ("prefix", False, 0),    # smallest of q_1..q_{m-v} >= v
}


def _takes(pattern: Perm, prev: PackedClass):
    """For v = 1..m, the lane flags of the rows of prev = S_{m-1}(pattern)
    that take v (_RULES): bit 7 set in each such row's lane, read off
    prev.columns()."""
    kind, at_most, offset = _RULES[pattern]
    L, m, cols = prev.n, prev.n + 1, prev.columns()
    ones, high = lanes.units(len(prev))
    le = partial(lanes.below, high=high)  # bit 7 of the lanes where a <= b

    def holds(key, bound):
        return le(key, bound) if at_most else le(bound, key)

    neutral = (0 if at_most else m) * ones
    if kind == "first":
        keys = [cols[0] if L else neutral] * m
    elif kind == "run":  # from the right, so the leftmost entry off it stays
        key = neutral
        for j in reversed(range(L)):
            run = (L - j if at_most else j + 1) * ones
            key = lanes.select(le(cols[j], run) & le(run, cols[j]), key, cols[j])
        keys = [key] * m
    else:  # keys[k]: the extreme of q_1..q_k, indexed by v - 1 or by m - v
        keys = [neutral]
        for c in cols:
            keys.append(lanes.select(holds(keys[-1], c), c, keys[-1]))
        keys = keys if at_most else keys[::-1]
    return (holds(key, (v + offset) * ones)
            for v, key in zip(range(1, m + 1), keys))


def _grow(prev: PackedClass, pattern: Perm) -> PackedClass:
    """S_m(pattern) from prev = S_{m-1}(pattern), in lex order (see the
    module docstring), built column by column from prev's columns.  Column
    0 is each v once per row that takes it.  Column j + 1 is, for each v in
    turn, column j of prev without the rows that do not take v and with
    the entries >= v lifted by one: one lanes.drop per v and column.

    >>> for lam in ((1, 3, 2), (3, 1, 2), (1, 2, 3), (3, 2, 1), (2, 3, 1), (2, 1, 3)):
    ...     print(perm_str(lam), [perm_str(p) for p in _grow(avoider_list(lam, 2), lam)])
    132 ['123', '213', '231', '312', '321']
    312 ['123', '132', '213', '231', '321']
    123 ['132', '213', '231', '312', '321']
    321 ['123', '132', '213', '231', '312']
    231 ['123', '132', '213', '312', '321']
    213 ['123', '132', '231', '312', '321']
    """
    count, m = len(prev), prev.n + 1
    high = lanes.units(count)[1]
    heads, drops = [], []
    for v, takes in zip(range(1, m + 1), _takes(pattern, prev)):
        heads.append(bytes((v,)) * takes.bit_count())
        drops.append(high ^ takes)
    lifts = [bytes((*range(v), *range(v + 1, 256), 0)) for v in range(1, m + 1)]
    head = b"".join(heads)
    cols = [lanes.pack(head)]
    for c in prev.columns():
        cols.append(lanes.pack(b"".join([lanes.drop(c, d, count, lift)
                                         for d, lift in zip(drops, lifts)])))
    return PackedClass(cols, len(head))


@lru_cache(maxsize=None)
def avoider_list(pattern: Perm, n: int) -> PackedClass:
    """All of S_n avoiding the length-3 pattern, sorted lexicographically.

    Cached, as its byte-lane columns.  For n >= 1 the class is grown by one
    step (_grow) from S_{n-1}, read from this cache.  Use avoider_levels or
    enumerate_avoiders for large n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_byte_lane(n)
    if pattern not in _RULES:
        raise ValueError(f"avoider lists cover only the length-3 patterns, "
                         f"not {perm_str(pattern)}")
    return _grow(avoider_list(pattern, n - 1), pattern) if n else PackedClass([], 1)


def avoider_levels(top: int, pattern: Perm):
    """Yield S_n(pattern) in lex order for n = 0..top in turn.  top is
    checked against the enumeration cap before anything is yielded or
    grown.  Levels up to AVOIDERS_CACHED_MAX_N are avoider_list's cached
    classes; each level above it is grown once from the one before, and
    none of them is cached."""
    check_enumeration_n(top)
    pattern = check_permutation(pattern)
    for n in range(top + 1):
        cls = (avoider_list(pattern, n) if n <= AVOIDERS_CACHED_MAX_N
               else _grow(cls, pattern))
        yield cls


def enumerate_avoiders(n: int, pattern: Perm):
    """Yield S_n(pattern) in lexicographic order of one-line notation."""
    for cls in avoider_levels(n, pattern):
        pass
    yield from cls


# -- the descent-preserving bijection between 312- and 213-avoiders ----------

def phi_n(p: Perm) -> Perm:
    """Descent-set-preserving bijection from 312-avoiders to 213-avoiders,
    relabelling p's min-tree (see the module docstring)."""
    if contains_classical(p, (3, 1, 2)):
        raise ValueError(f"{perm_str(p)} contains 312")
    return _phi_n(p)


def phi_n_inverse(q: Perm) -> Perm:
    """Inverse of phi_n, from 213-avoiders back to 312-avoiders."""
    if contains_classical(q, (2, 1, 3)):
        raise ValueError(f"{perm_str(q)} contains 213")
    return _phi_n(q, inverse=True)


def _phi_n(p: Perm, inverse: bool = False) -> Perm:
    # phi_n (or its inverse) without the class guard.  The stack holds i's
    # ancestors left of i; an entry popped at i has its subtree end before
    # i.  The inverse swaps left and right: the mirrored scan.
    if inverse:
        return _phi_n(p[::-1])[::-1]
    n = len(p)
    out = [0] * n
    stack: list[int] = []
    for i, v in enumerate(p):
        while stack and p[stack[-1]] > v:
            out[stack.pop()] += n - i
        out[i] = len(stack) + 1
        stack.append(i)
    return tuple(out)


def phi_n_lanes(cols: list[int], m: int, inverse: bool = False) -> list[int]:
    """_phi_n of every row of m at once, on their byte-lane columns (as
    PackedClass.columns() gives them); returns the images' columns.

    For j < i, j is an ancestor of i, and i in j's subtree, iff entry j is
    below entries j+1..i: a running AND of lane comparisons.  Each such
    pair adds 1 to image entry i and takes 1 off entry j, which starts at
    n - j."""
    if inverse:
        return phi_n_lanes(cols[::-1], m)[::-1]
    n = len(cols)
    ones, high = lanes.units(m)
    out = [ones * (n - j) for j in range(n)]
    for j in range(n):
        below = high
        for i in range(j + 1, n):
            below &= lanes.below(cols[j], cols[i], high)
            out[i] += below >> 7
            out[j] -= below >> 7
    return out
