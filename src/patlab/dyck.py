"""Dyck paths as step words over {D, R}, and the staircase bijections.

A path of size n is a word with n down-steps D and n right-steps R in which
every prefix has at least as many D's as R's.  Paths run from the top-left
to the bottom-right corner of an n-by-n square, weakly below the diagonal.

phi_map / psi_map both send a permutation to the boundary of the region
shaded north-east of its plotted entries; that word depends only on the
positions and values of the left-to-right minima.  The two inverses differ:
phi_inverse fills the gaps with the least usable values (giving the unique
132-avoiding preimage), psi_inverse with the greatest (123-avoiding).

Under these maps a consecutive pattern of the permutation becomes a count of
path factors (path_pattern_count, overlaps included); the transport checks
in patlab.checks certify each such correspondence by one pass over a class.
"""

from __future__ import annotations

from bisect import bisect_right

from .perms import (
    Perm,
    avoids_classical,
    check_enumeration_n,
    check_permutation,
    perm_str,
)

DyckWord = str


class InvalidPathError(ValueError):
    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def parse_path(text: str) -> DyckWord:
    """Validate a step word; errors name the first offending index."""
    depth = 0
    for i, step in enumerate(text):
        if step == "D":
            depth += 1
        elif step == "R":
            depth -= 1
            if depth < 0:
                raise InvalidPathError(
                    f"prefix rises above the diagonal at index {i}", i)
        else:
            raise InvalidPathError(f"invalid step {step!r} at index {i}", i)
    if depth != 0:
        raise InvalidPathError(
            f"unbalanced path: {text.count('D')} D's vs {text.count('R')} R's",
            len(text))
    return text


def path_size(word: DyckWord) -> int:
    return len(word) // 2


def first_return(word: DyckWord) -> int:
    """Least i > 0 such that some prefix holds exactly i D's and i R's."""
    if not word:
        raise ValueError("the empty path has no return")
    depth = 0
    rs = 0
    for step in word:
        if step == "D":
            depth += 1
        else:
            depth -= 1
            rs += 1
            if depth == 0:
                return rs
    raise InvalidPathError("word never returns to the diagonal")


def horizontal_segments(word: DyckWord) -> list[int]:
    """Lengths of the maximal R-runs, in step order (top to bottom)."""
    out = []
    run = 0
    for step in word:
        if step == "R":
            run += 1
        elif run:
            out.append(run)
            run = 0
    if run:
        out.append(run)
    return out


def peaks(word: DyckWord) -> int:
    """Number of DR factors."""
    return sum(1 for i in range(len(word) - 1) if word[i] == "D" and word[i + 1] == "R")


def path_pattern_count(word: DyckWord, pattern: str, extended: bool = False) -> int:
    """Contiguous-factor occurrences of pattern, overlaps included.

    With extended=True a single D is appended before counting, which treats
    the final horizontal segment as if it were interior.  Each occurrence is
    found with str.find, restarting one step past the previous start.
    """
    if not pattern:
        raise ValueError("path patterns must be nonempty")
    w = word + "D" if extended else word
    count = 0
    i = w.find(pattern)
    while i >= 0:
        count += 1
        i = w.find(pattern, i + 1)
    return count


# -- the staircase maps -------------------------------------------------------

def staircase_word(p: Perm) -> DyckWord:
    """The path phi_map and psi_map return, without their class guard."""
    n = len(p)
    parts = []
    low = n + 1
    for v in p:
        if v < low:
            parts.append("D" * (low - v))
            low = v
        parts.append("R")
    return "".join(parts)


def _column_depths(word: DyckWord) -> list[int]:
    depths = []
    depth = 0
    for step in word:
        if step == "D":
            depth += 1
        else:
            depths.append(depth)
    return depths


def phi_map(p: Perm) -> DyckWord:
    """Dyck path of a 132-avoiding permutation (left-to-right minima staircase)."""
    check_permutation(p)
    if not avoids_classical(p, (1, 3, 2)):
        raise ValueError(f"{perm_str(p)} contains 132")
    return staircase_word(p)


def psi_map(p: Perm) -> DyckWord:
    """Dyck path of a 123-avoiding permutation (same staircase construction)."""
    check_permutation(p)
    if not avoids_classical(p, (1, 2, 3)):
        raise ValueError(f"{perm_str(p)} contains 123")
    return staircase_word(p)


def _minima_skeleton(word: DyckWord):
    """Per column: the assigned minimum value, or None for a gap column."""
    n = path_size(word)
    depths = _column_depths(word)
    skeleton: list[int | None] = []
    prev = 0
    for depth in depths:
        skeleton.append(n + 1 - depth if depth > prev else None)
        prev = depth
    return skeleton


def phi_inverse(word: DyckWord) -> Perm:
    """The unique 132-avoiding preimage of a Dyck path under phi_map.

    Gap columns take the least unused value above the running minimum; the
    values of each horizontal segment then form an increasing run started
    by its left-to-right minimum.
    """
    skeleton = _minima_skeleton(parse_path(word))
    reserved = {v for v in skeleton if v is not None}
    free = sorted(v for v in range(1, path_size(word) + 1) if v not in reserved)
    out = []
    low = path_size(word) + 1
    for v in skeleton:
        if v is not None:
            low = v
            out.append(v)
        else:
            i = bisect_right(free, low)
            out.append(free.pop(i))
    return tuple(out)


def psi_inverse(word: DyckWord) -> Perm:
    """The unique 123-avoiding preimage: gap columns take the greatest
    unused values, so the non-minima form one decreasing sequence."""
    skeleton = _minima_skeleton(parse_path(word))
    reserved = {v for v in skeleton if v is not None}
    free = sorted((v for v in range(1, path_size(word) + 1) if v not in reserved),
                  reverse=True)
    free_at = 0
    out = []
    for v in skeleton:
        if v is not None:
            out.append(v)
        else:
            out.append(free[free_at])
            free_at += 1
    return tuple(out)


# -- pattern paths for the general transport ---------------------------------

def pattern_path(gamma: Perm, variant: str) -> str:
    """Step-word pattern matched in place of a consecutive pattern gamma.

    variant "phi_prime" drops the initial D-run of gamma's path; it is the
    transport pattern when gamma ends with its maximum, and an intermediate
    otherwise.  "phi_double_prime" also drops the final R and requires gamma
    to end with (max, 1).
    """
    check_permutation(gamma)
    m = len(gamma)
    if m == 0:
        raise ValueError("patterns must be nonempty")
    if not avoids_classical(gamma, (1, 3, 2)):
        raise ValueError(f"{perm_str(gamma)} contains 132")
    if variant == "phi_prime":
        return staircase_word(gamma)[m + 1 - gamma[0]:]
    if variant == "phi_double_prime":
        if m < 2 or gamma[-2] != m or gamma[-1] != 1:
            raise ValueError(
                "phi_double_prime needs the pattern to end with (max, 1): "
                f"{perm_str(gamma)}")
        return staircase_word(gamma)[m + 1 - gamma[0]:-1]
    raise ValueError(f"unknown variant {variant!r}")


def admissible_variant(gamma: Perm) -> str | None:
    """Which pattern_path variant applies to gamma, if any."""
    m = len(gamma)
    if m >= 1 and gamma[-1] == m:
        return "phi_prime"
    if m >= 2 and gamma[-2] == m and gamma[-1] == 1:
        return "phi_double_prime"
    return None


# -- enumeration ---------------------------------------------------------------

def enumerate_paths(n: int, max_n: int | None = None):
    """All Dyck paths of size n, lexicographic with D < R."""
    check_enumeration_n(n, max_n)

    # Depth-first with an explicit stack; pushing R before D pops D first,
    # which gives lex order.  Once all n D's are placed only R's remain.
    stack = [("", 0)]
    while stack:
        prefix, ds = stack.pop()
        rs = len(prefix) - ds
        if ds == n:
            yield prefix + "R" * (n - rs)
            continue
        if rs < ds:
            stack.append((prefix + "R", ds))
        stack.append((prefix + "D", ds + 1))
