"""Dyck paths as step words over {D, R}, and the staircase bijections.

A path of size n is a word with n down-steps D and n right-steps R in which
every prefix has at least as many D's as R's.  Paths run from the top-left
to the bottom-right corner of an n-by-n square, weakly below the diagonal.

phi_map / psi_map both send a permutation to the boundary of the region
shaded north-east of its plotted entries; that word depends only on the
positions and values of the left-to-right minima.  The two inverses differ:
phi_inverse fills the gaps with the least usable values (giving the unique
132-avoiding preimage), psi_inverse with the greatest (123-avoiding).
staircase_word and staircase_preimage are the same maps without their
guards, for callers whose inputs are valid by construction; the preimage
is one pass over the path's columns.

Under these maps a consecutive pattern of the permutation becomes a count of
path factors (path_pattern_count, overlaps included).

The staircase maps also run on a whole packed class, one byte lane per row
(patlab.lanes).  staircase_counts gives the class's words as the columns of
their staircase counts (the D's before each R); is_lex_path_class certifies
that they are the Dyck paths in lex order, staircase_preimage_lanes maps
them back to columns, and path_step_columns spreads them into the step
columns over which class_factor_counts counts factors, one int each.  The
staircase pass in patlab.checks certifies the bijections and every
transport with these kernels; the row maps stay as their twins and for the
witness search.
"""

from __future__ import annotations

from . import lanes
from .perms import (
    Perm,
    avoids_classical,
    check_enumeration_n,
    check_permutation,
    perm_str,
)
from .series import catalan

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


def path_pattern_count(word: DyckWord, pattern: str) -> int:
    """Contiguous-factor occurrences of pattern, overlaps included.

    Each occurrence is found with str.find, restarting one step past the
    previous start.
    """
    if not pattern:
        raise ValueError("path patterns must be nonempty")
    count = 0
    i = word.find(pattern)
    while i >= 0:
        count += 1
        i = word.find(pattern, i + 1)
    return count


def class_factor_counts(steps: list[int], m: int, factors) -> list[int]:
    """Factor counts over m step words of one length at once.

    The twin of perms.class_pattern_counts: steps are the words' step
    columns, as path_step_columns gives them, lane i of column k 1 where
    step k of word i is D and 0 where it is R.  The words must be shorter
    than 256, so that no count carries out of its byte lane, and every lane
    must hold 0 or 1; otherwise ValueError.  Returns one int per factor, in
    the order given: byte lane i is path_pattern_count(word i, factor).

    An occurrence at offset k is the AND of its steps' lanes, an R step
    taken as the complement of the D lanes.

    >>> # the words DDRR and DRDR, step by step
    >>> steps = [0x0101, 0x0001, 0x0100, 0x0000]
    >>> [hex(c) for c in class_factor_counts(steps, 2, ["DR", "RD"])]
    ['0x201', '0x100']
    """
    for f in factors:
        if not f or f.strip("DR"):
            raise ValueError(f"factors must be nonempty words over D, R: {f!r}")
    size = len(steps)
    if size >= 256:
        raise ValueError(f"length {size} does not fit a byte lane (2n < 256)")
    ones, _ = lanes.units(m)
    if any(col & ~ones for col in steps):
        raise ValueError(f"step lanes must each hold 0 or 1, in {m} lanes")
    out = []
    for f in factors:
        total = 0
        for i in range(size - len(f) + 1):
            hits = ones
            for col, step in zip(steps[i:i + len(f)], f):
                hits &= col if step == "D" else col ^ ones
                if not hits:
                    break
            total += hits
        out.append(total)
    return out


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


def staircase_preimage(word: DyckWord, lam: Perm) -> Perm:
    """The lam-avoiding preimage of a Dyck path, lam being 132 or 123.

    Unguarded: word must be a Dyck path (as enumerate_paths yields them).
    One pass over the columns (the R's): an R after a run of k D's is a new
    left-to-right minimum, k below the previous one (n + 1 at first), and
    uncovers the values between the two; any other R is a gap column.  The
    uncovered values are kept in decreasing order: for 132 a gap takes the
    least (the list is a stack), for 123 the greatest (a queue).
    """
    if lam == (1, 3, 2):
        least = True
    elif lam == (1, 2, 3):
        least = False
    else:
        raise ValueError(f"no staircase preimage for the class {perm_str(lam)}")
    low = len(word) // 2 + 1    # the running minimum
    free: list[int] = []
    front = 0                   # 123: free[:front] are used
    out = []
    for run in word.split("R")[:-1]:    # the D's before each R
        if run:
            v = low - len(run)
            free.extend(range(low - 1, v, -1))
            low = v
            out.append(v)
        elif least:
            out.append(free.pop())
        else:
            out.append(free[front])
            front += 1
    return tuple(out)


def phi_inverse(word: DyckWord) -> Perm:
    """The unique 132-avoiding preimage of a Dyck path under phi_map.

    Gap columns take the least unused value above the running minimum; the
    values of each horizontal segment then form an increasing run started
    by its left-to-right minimum.
    """
    return staircase_preimage(parse_path(word), (1, 3, 2))


def psi_inverse(word: DyckWord) -> Perm:
    """The unique 123-avoiding preimage: gap columns take the greatest
    unused values, so the non-minima form one decreasing sequence."""
    return staircase_preimage(parse_path(word), (1, 2, 3))


# -- the staircase maps on byte lanes -------------------------------------------
#
# A word ending in R, with n R's, is D^c_1 R D^c_2 R ... D^c_n R: the kernels
# below carry m words as the byte-lane columns of their staircase counts c_j,
# lane i of column j the c_j of word i.  Entries and counts stay below 128,
# so that lanes.below never borrows across lanes.


def staircase_counts(cols: list[int], m: int) -> list[int]:
    """staircase_word of m permutations of one length at once.

    cols are their byte-lane columns (perms.PackedClass.columns()); returns
    the columns of their words' staircase counts.  c_j is low - p_j where
    p_j is below low, the running minimum (n + 1 at first), and 0 elsewhere:
    one masked lane subtraction per column.

    >>> cols = [0x0302, 0x0103, 0x0201]     # the rows 231 and 312
    >>> [hex(c) for c in staircase_counts(cols, 2)]   # DDRRDR and DRDDRR
    ['0x102', '0x200', '0x1']
    """
    ones, high = lanes.units(m)
    low = (len(cols) + 1) * ones
    out = []
    for col in cols:
        keep = lanes.spread(lanes.below(low, col, high))  # not a new minimum
        c = (low | keep) - (col | keep)
        low -= c
        out.append(c)
    return out


def is_lex_path_class(counts: list[int], m: int) -> bool:
    """Whether the m words with these staircase-count columns are the Dyck
    paths of size n = len(counts), each once, in lex order with D < R.

    counts are as staircase_counts gives them.  Three lane tests: every
    word is a path (the partial sums S_j = c_1 + ... + c_j have S_j >= j,
    and S_n = n); the words strictly increase, which is the c-rows strictly
    decreasing in lex order, each row compared with the next one through
    c >> 8; and m is catalan(n), the number of paths.
    """
    n = len(counts)
    if m != catalan(n):
        return False
    ones, high = lanes.units(m)
    pairs = high >> 8       # lane i compares row i with row i + 1
    total = settled = 0     # settled: pairs whose rows first differ downwards
    tied = pairs
    for j, c in enumerate(counts, 1):
        total += c
        if lanes.below(j * ones, total, high) != high:
            return False
        up = lanes.below(c, c >> 8, high)
        settled |= tied & ~up
        tied &= up & lanes.below(c >> 8, c, high)
    return total == n * ones and settled == pairs


def staircase_preimage_lanes(counts: list[int], m: int, lam: Perm) -> list[int]:
    """staircase_preimage of m Dyck paths at once, lam being 132 or 123.

    The paths are given by their staircase-count columns; returns the
    preimages' byte-lane columns.  Unguarded like staircase_preimage.  A
    column with c > 0 is a new minimum, low - c, and uncovers the values
    between it and the old minimum low; a gap column (c = 0) takes the
    least uncovered unused value for 132, the greatest for 123.  free[v]
    is 0xFF in the lanes where v is uncovered and unused, so a column
    costs O(n) lane operations.
    """
    n = len(counts)
    if lam == (1, 3, 2):
        order = range(1, n + 1)
    elif lam == (1, 2, 3):
        order = range(n, 0, -1)
    else:
        raise ValueError(f"no staircase preimage for the class {perm_str(lam)}")
    ones, high = lanes.units(m)
    low = (n + 1) * ones
    free = [0] * (n + 1)
    out = []
    for c in counts:
        new = low - c
        gap = lanes.spread(lanes.below(c, 0, high))
        col = new & ~gap
        for v in order:
            vs = v * ones
            # v is uncovered where new < v < low
            inside = high ^ (lanes.below(vs, new, high) | lanes.below(low, vs, high))
            avail = free[v] | lanes.spread(inside)
            take = avail & gap
            free[v] = avail ^ take
            col |= vs & take
            gap ^= take
        low = new
        out.append(col)
    return out


def path_step_columns(counts: list[int], m: int) -> list[int]:
    """The 2n step columns of the m words with these staircase-count
    columns: lane i of column k is 1 where step k of word i is D, 0 where
    it is R, as class_factor_counts reads them.

    The j-th R of a word sits at step S_j + j - 1, S_j = c_1 + ... + c_j.
    """
    n = len(counts)
    ones, high = lanes.units(m)
    steps = [ones] * (2 * n)
    total = 0
    for j, c in enumerate(counts, 1):
        total += c
        for s in range(j, n + 1):     # an R at step s + j - 1 where S_j = s
            steps[s + j - 1] ^= lanes.below(total ^ s * ones, 0, high) >> 7
    return steps


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

def enumerate_paths(n: int):
    """All Dyck paths of size n, lexicographic with D < R."""
    check_enumeration_n(n)

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
