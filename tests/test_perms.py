import gc
import hashlib
import itertools
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from patlab import lanes, perms
from patlab.limits import AVOIDERS_CACHED_MAX_N, DEFAULT_MAX_N
from patlab.series import catalan

from classes import packed_class

perm_strategy = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


def _counts_of_one(p, pats):
    # The whole-class counter applied to a class of one permutation: one
    # int per pattern, one byte lane.
    return tuple(perms.class_pattern_counts(packed_class(len(p), [p]), pats))


def test_reduce_word():
    assert perms.reduce_word((5, 1)) == (2, 1)
    assert perms.reduce_word((2, 6, 3, 8)) == (1, 3, 2, 4)
    assert perms.reduce_word((1, 2, 3)) == (1, 2, 3)
    assert perms.reduce_word(()) == ()
    with pytest.raises(ValueError):
        perms.reduce_word((2, 2))


def test_parse_and_render():
    assert perms.parse_perm("869743251") == (8, 6, 9, 7, 4, 3, 2, 5, 1)
    long = tuple(range(1, 12))
    assert perms.parse_perm(perms.perm_str(long)) == long
    assert "," in perms.perm_str(long)
    assert perms.parse_perm("") == ()
    with pytest.raises(ValueError):
        perms.parse_perm("1231")
    with pytest.raises(ValueError):
        perms.parse_perm("13")


def test_descent_stats():
    assert len(perms.descent_set((1, 2, 3, 4, 5))) == 0
    p = perms.parse_perm("15324")
    ds = perms.descent_set(p)
    des, asc = len(ds), len(p) - 1 - len(ds)
    assert ds == frozenset({2, 3}) and des == 2 and asc == 2
    assert len(perms.descent_set((3, 2, 1))) == 2
    assert perms.descent_set(()) == frozenset()


def test_symmetries_paper_example():
    p = perms.parse_perm("15324")
    assert perms.symmetry_transform(p, "reverse") == perms.parse_perm("42351")
    assert perms.symmetry_transform(p, "complement") == perms.parse_perm("51342")
    assert perms.symmetry_transform(p, "reverse_complement") == \
        perms.parse_perm("24315")
    with pytest.raises(ValueError):
        perms.symmetry_transform(p, "transpose")


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_symmetries_are_involutions(p):
    for kind in perms.SYMMETRY_KINDS:
        assert perms.symmetry_transform(perms.symmetry_transform(p, kind), kind) == p
    assert perms.reverse_complement(p) == perms.complement(perms.reverse(p))


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_descents_transport_under_symmetries(p):
    n = len(p)
    des = len(perms.descent_set(p))
    assert len(perms.descent_set(perms.reverse_complement(p))) == des
    if n >= 1:
        assert len(perms.descent_set(perms.reverse(p))) == n - 1 - des


def test_contains_classical_examples():
    assert perms.contains_classical(perms.parse_perm("23541"), (1, 3, 2))
    assert not perms.contains_classical((), (1, 3, 2))
    assert perms.avoids_classical((2, 1), (1, 2, 3))
    with pytest.raises(ValueError):
        perms.contains_classical((1, 2), ())


@given(perm_strategy)
@settings(max_examples=120, deadline=None)
def test_length3_scans_match_subsequence_search(p):
    for pat in itertools.permutations((1, 2, 3)):
        assert perms.contains_classical(p, pat) == \
            perms._contains_subsequence(p, pat)


def test_consecutive_matches_examples():
    # 23541 is sometimes quoted as having no consecutive 132, but the window
    # 3,5,4 at position 2 reduces to 132; the definition decides.
    assert perms.consecutive_match_positions(
        perms.parse_perm("23541"), (1, 3, 2)) == [2]
    assert perms.consecutive_match_positions(
        perms.parse_perm("24531"), (1, 3, 2)) == []
    positions = perms.consecutive_match_positions(
        perms.parse_perm("869743251"), (1, 3, 2))
    assert positions == [2] and len(positions) == 1
    assert perms.consecutive_match_positions((1, 2, 3, 4), (1, 2, 3)) == [1, 2]


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_consecutive_matches_are_classical_occurrences(p):
    for pat in itertools.permutations((1, 2, 3)):
        count = len(perms.consecutive_match_positions(p, pat))
        assert count <= max(len(p) - 2, 0)
        if count:
            assert perms.contains_classical(p, pat)
        if perms.avoids_classical(p, pat):
            assert count == 0


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_match_transport_under_reverse_complement(p):
    for pat in itertools.permutations((1, 2, 3)):
        image = perms.reverse_complement(pat)
        assert len(perms.consecutive_match_positions(p, pat)) == \
            len(perms.consecutive_match_positions(perms.reverse_complement(p), image))


@given(perm_strategy)
@settings(max_examples=60, deadline=None)
def test_window3_counts_agree_with_direct_scan(p):
    pats = list(itertools.permutations((1, 2, 3)))
    counts = _counts_of_one(p, pats)
    for pat, count in zip(pats, counts):
        assert count == len(perms.consecutive_match_positions(p, pat))


def test_enumerate_avoiders_small():
    got = [perms.perm_str(p) for p in perms.enumerate_avoiders(3, (1, 2, 3))]
    assert got == ["132", "213", "231", "312", "321"]
    assert sum(1 for _ in perms.enumerate_avoiders(4, (1, 2, 3))) == 14
    assert list(perms.enumerate_avoiders(0, (1, 2, 3))) == [()]


def test_enumerate_avoiders_lex_and_counts():
    for lam in itertools.permutations((1, 2, 3)):
        for n in range(9):
            got = list(perms.enumerate_avoiders(n, lam))
            assert got == sorted(got)
            assert len(got) == len(set(got)) == catalan(n)
            assert all(perms.avoids_classical(p, lam) for p in got)


def test_avoider_lists_hold_only_class_members_through_n10():
    # The transport checks map avoider_list's output to staircase paths
    # without the class guard of phi_map/psi_map, to this depth.
    for lam in ((1, 3, 2), (1, 2, 3)):
        for n in range(11):
            got = perms.avoider_list(lam, n)
            assert list(got) == sorted(set(got))
            assert len(got) == catalan(n)
            assert all(perms.avoids_classical(p, lam) for p in got)


def test_enumerate_avoiders_generic_pattern():
    # Only the six length-3 classes are enumerated.
    for pattern in ((1, 2, 3, 4), (2, 1), (1,)):
        with pytest.raises(ValueError, match="length-3"):
            list(perms.enumerate_avoiders(5, pattern))
        with pytest.raises(ValueError, match="length-3"):
            perms.avoider_list(pattern, 5)


def test_classes_above_the_cache_cap_are_never_cached():
    # enumerate_avoiders walks avoider_levels, which reads every length up
    # to the cap from the cache and grows the level above it, uncached.
    # The first walk misses each length once (a miss at n >= 1 reads
    # n - 1: a hit); the second walk hits every length.
    cap = AVOIDERS_CACHED_MAX_N
    perms.avoider_list.cache_clear()
    for lam in itertools.permutations((1, 2, 3)):
        got = list(perms.enumerate_avoiders(cap + 1, lam))
        *_, top = perms.avoider_levels(cap + 1, lam)
        assert len(got) == len(top) == catalan(cap + 1)
        assert all(p < q for p, q in zip(got, got[1:]))
    info = perms.avoider_list.cache_info()
    assert (info.hits, info.misses, info.currsize) == (
        6 * (2 * cap + 1), 6 * (cap + 1), 6 * (cap + 1))
    perms.avoider_list((1, 2, 3), cap + 1)  # a miss, reading the cap: a hit
    assert perms.avoider_list.cache_info()[:2] == (6 * (2 * cap + 1) + 1,
                                                   6 * (cap + 1) + 1)


def test_a_walk_past_the_enumeration_cap_raises_before_any_growth(monkeypatch):
    # avoider_levels checks top before it yields or grows anything, so
    # neither walk yields the levels below the cap first.
    def never(*args):
        raise AssertionError("grew a class")
    perms.avoider_list.cache_clear()
    monkeypatch.setattr(perms, "_grow", never)
    for lam in CLASSES:
        with pytest.raises(perms.EnumerationLimitError):
            next(perms.enumerate_avoiders(DEFAULT_MAX_N + 1, lam))
        with pytest.raises(perms.EnumerationLimitError):
            next(perms.avoider_levels(DEFAULT_MAX_N + 1, lam))
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    with pytest.raises(perms.EnumerationLimitError):
        next(perms.avoider_levels(9, (1, 3, 2)))
    assert perms.avoider_list.cache_info().currsize == 0


def test_an_avoider_list_miss_reads_the_length_below_from_the_cache():
    # A miss at n >= 1 grows S_{n-1}, which it reads from the cache: here
    # a hit, since the loop asks for n - 1 first.
    perms.avoider_list.cache_clear()
    for n in range(7):
        for lam in itertools.permutations((1, 2, 3)):
            assert len(perms.avoider_list(lam, n)) == catalan(n)
    info = perms.avoider_list.cache_info()
    assert (info.hits, info.misses, info.currsize) == (36, 42, 42)


def test_warming_a_class_in_ascending_n_grows_each_length_once(monkeypatch):
    calls, grow = [], perms._grow

    def counted(prev, pattern):
        calls.append(prev.n + 1)
        return grow(prev, pattern)
    monkeypatch.setattr(perms, "_grow", counted)
    perms.avoider_list.cache_clear()
    for n in range(11):
        assert len(perms.avoider_list((2, 3, 1), n)) == catalan(n)
    assert calls == list(range(1, 11))


def test_enumeration_cap(monkeypatch):
    with pytest.raises(perms.EnumerationLimitError):
        list(perms.enumerate_avoiders(15, (1, 2, 3)))
    monkeypatch.setenv("PATLAB_NMAX_CAP", "5")
    with pytest.raises(perms.EnumerationLimitError):
        list(perms.enumerate_avoiders(6, (1, 2, 3)))
    assert sum(1 for _ in perms.enumerate_avoiders(5, (1, 2, 3))) == 42
    monkeypatch.setenv("PATLAB_NMAX_CAP", "99")
    assert perms.max_enumeration_n() == 14  # the env may never raise the cap


def test_phi_n_examples():
    assert perms.phi_n(perms.parse_perm("32415")) == perms.parse_perm("53412")
    assert perms.phi_n((1,)) == (1,)
    assert perms.phi_n((2, 1)) == (2, 1)
    assert perms.phi_n(()) == ()
    with pytest.raises(ValueError):
        perms.phi_n((3, 1, 2))


def test_phi_n_bijection_properties():
    for n in range(8):
        seen = set()
        for p in perms.avoider_list((3, 1, 2), n):
            q = perms.phi_n(p)
            assert perms.avoids_classical(q, (2, 1, 3))
            assert perms.descent_set(q) == perms.descent_set(p)
            assert perms.phi_n_inverse(q) == p
            seen.add(q)
        assert len(seen) == catalan(n)


def _recursive_phi_n(p):
    # The former recursive definitions, kept as the reference.
    n = len(p)
    if n <= 1:
        return p
    r = p.index(1) + 1
    left = _recursive_phi_n(tuple(v - 1 for v in p[:r - 1]))
    right = _recursive_phi_n(tuple(v - r for v in p[r:]))
    return (tuple(v + n - r + 1 for v in left) + (1,)
            + tuple(v + 1 for v in right))


def _recursive_phi_n_inverse(q):
    n = len(q)
    if n <= 1:
        return q
    r = q.index(1) + 1
    left = _recursive_phi_n_inverse(tuple(v - (n - r + 1) for v in q[:r - 1]))
    right = _recursive_phi_n_inverse(tuple(v - 1 for v in q[r:]))
    return (tuple(v + 1 for v in left) + (1,)
            + tuple(v + r for v in right))


def test_phi_n_matches_the_recursive_definition():
    for n in range(11):
        for p in perms.avoider_list((3, 1, 2), n):
            assert perms.phi_n(p) == _recursive_phi_n(p), p
        for q in perms.avoider_list((2, 1, 3), n):
            assert perms.phi_n_inverse(q) == _recursive_phi_n_inverse(q), q


def test_phi_n_lanes_equal_the_per_permutation_map():
    for n in range(11):
        for lam, inverse in (((3, 1, 2), False), ((2, 1, 3), True)):
            cls = perms.avoider_list(lam, n)
            images = perms.phi_n_lanes(cls.columns(), len(cls), inverse)
            want = [perms._phi_n(p, inverse) for p in cls]
            assert images == packed_class(n, want).columns(), (n, inverse)
            back = perms.phi_n_lanes(images, len(cls), not inverse)
            assert back == cls.columns(), (n, inverse)


def test_phi_n_has_no_recursion_depth_limit():
    n = 3000
    identity = tuple(range(1, n + 1))
    decreasing = identity[::-1]
    for p in (identity, decreasing):
        assert perms.phi_n(p) == p
        assert perms.phi_n_inverse(p) == p


def _positions_by_definition(p, pat):
    k = len(pat)
    return [i + 1 for i in range(len(p) - k + 1)
            if perms.reduce_word(p[i:i + k]) == pat]


PATTERNS_1_TO_5 = {k: list(itertools.permutations(range(1, k + 1)))
                   for k in range(1, 6)}


@given(st.integers(0, 12).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple))
@settings(max_examples=60, deadline=None)
def test_compiled_matcher_agrees_with_reduce_word(p):
    for k, pats in PATTERNS_1_TO_5.items():
        counts = _counts_of_one(p, pats)
        for pat, count in zip(pats, counts):
            want = _positions_by_definition(p, pat)
            assert perms.consecutive_match_positions(p, pat) == want
            assert count == len(want)


@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.permutations(list(range(1, n + 1))).map(tuple),
                    max_size=12),
           st.lists(st.integers(1, 6).flatmap(
               lambda k: st.permutations(list(range(1, k + 1)))).map(tuple),
               max_size=6))))
@settings(max_examples=150, deadline=None)
def test_class_counts_equal_per_permutation_positions(case):
    n, perm_list, pats = case
    counts = perms.class_pattern_counts(packed_class(n, perm_list), pats)
    assert len(counts) == len(pats)
    for pat, column in zip(pats, counts):
        assert list(lanes.unpack(column, len(perm_list))) == [
            len(perms.consecutive_match_positions(p, pat)) for p in perm_list]


def test_class_counts_reject_what_does_not_fit_a_byte_lane():
    with pytest.raises(ValueError, match="n < 128"):
        perms.class_pattern_counts(packed_class(128, [range(1, 129)]), [(1, 2)])
    counts = perms.class_pattern_counts(packed_class(127, [range(127, 0, -1)]),
                                        [(2, 1)])
    assert counts == [126]


def test_compile_pattern_is_the_inverse():
    assert perms.compile_pattern((1,)) == (0,)
    assert perms.compile_pattern((2, 4, 1, 3)) == (2, 0, 3, 1)
    for pat in PATTERNS_1_TO_5[4]:
        offsets = perms.compile_pattern(pat)
        assert [pat[o] for o in offsets] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        perms.compile_pattern(())
    with pytest.raises(ValueError):
        perms.compile_pattern((1, 3))


def test_pattern_counter_mixed_lengths_and_repeats():
    # Counts come back in the order asked for, repeats included.
    p = perms.parse_perm("869743251")
    pats = [(1, 3, 2), (2, 1), (2, 1, 3, 4), (1, 3, 2), (3, 2, 1), (1,)]
    want = tuple(len(_positions_by_definition(p, pat)) for pat in pats)
    assert _counts_of_one(p, pats) == want
    assert perms.class_pattern_counts(packed_class(len(p), [p]), []) == []


CLASSES = list(itertools.permutations((1, 2, 3)))


def _filtered(lam, n):
    return [p for p in itertools.permutations(range(1, n + 1))
            if not perms.contains_classical(p, lam)]


@pytest.mark.parametrize("lam", CLASSES)
def test_generating_trees_match_filtered_permutations(lam):
    # Each step grows the filtered class below it, so no cache is read;
    # itertools yields lexicographic order.
    below = _filtered(lam, 0)
    for n in range(1, 9):
        want = _filtered(lam, n)
        grown = perms._grow(packed_class(n - 1, below), lam)
        assert b"".join(map(bytes, grown)) == b"".join(map(bytes, want))
        below = want
    cls = packed_class(8, below)
    for n in range(9, 13):
        cls = perms._grow(cls, lam)
        assert len(cls) == catalan(n)


def test_packed_class_reads_as_the_filtered_permutations():
    for lam in CLASSES:
        for n in range(9):
            got, want = perms.avoider_list(lam, n), _filtered(lam, n)
            assert isinstance(got, perms.PackedClass)
            assert len(got) == len(want)
            assert list(got) == want
            assert [got[i] for i in range(len(got))] == want
            assert got[-1] == want[-1] and got[-len(want)] == want[0]
            with pytest.raises(IndexError):
                got[len(want)]
            with pytest.raises(IndexError):
                got[-len(want) - 1]


def test_a_packed_class_cannot_be_reversed():
    # Without __reversed__, reversed() would read the class one decoded row
    # per index; a class is read only forward, by index or by its columns.
    cls = perms.avoider_list((1, 3, 2), 4)
    with pytest.raises(TypeError):
        reversed(cls)


@given(st.sampled_from(CLASSES), st.integers(0, 9),
       st.lists(st.integers(2, 5).flatmap(
           lambda k: st.permutations(list(range(1, k + 1)))).map(tuple),
           min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_packed_counts_equal_the_generic_path(lam, n, pats):
    # The generic path is the per-permutation matcher.
    packed = perms.avoider_list(lam, n)
    assert [lanes.unpack(c, len(packed))
            for c in perms.class_pattern_counts(packed, pats)] == [
        bytes(len(perms.consecutive_match_positions(p, pat)) for p in packed)
        for pat in pats]


def test_avoider_lists_through_n10_are_pinned():
    # sha256 of every class list, six classes in itertools order, n = 0..10,
    # each permutation's entries as bytes, read through the public sequence.
    digest = hashlib.sha256()
    for lam in CLASSES:
        for n in range(11):
            digest.update(bytes(chain.from_iterable(perms.avoider_list(lam, n))))
    assert digest.hexdigest() == (
        "bddbda9c2f37ba27f508f9e25590d5448b033ea175b84099261d210891518f03")


@pytest.mark.parametrize("lam, n, want", [
    ((1, 2, 3), 11,
     "d3d7f1e6e45599a294b91e7d68a646a1d6d1d8d6338adcc0dbd9a03d2be3cbba"),
    ((1, 2, 3), 12,
     "872571032dc3e469ff47bec83b9e1eda03bc48f3d20d09a203c9297f2b19d7b8"),
    ((3, 2, 1), 11,
     "88fe21f0c3aa3d9e533b69f84c13a1d71e5c3b5e0bcfa2c880668e65060619da"),
    ((3, 2, 1), 12,
     "5c32e3601e7c5fb9a60c94f715cc2205072ab6c54ac78451341b2c9f02f7c715"),
    ((1, 3, 2), 11,
     "d29ca31c0f51923d634aef6d36ba26454ebf7633dd3e2630c9658c776264bb45"),
    ((1, 3, 2), 12,
     "f4d8f8e06f9cb29ca45abe08ff7713bd47d529ef928d176067f07260d9a92bfc"),
    ((2, 3, 1), 11,
     "dd5d566e83efa9c089f59653b5d7dabdc630dc9a9aea4397a28d96c20428d2a2"),
    ((2, 3, 1), 12,
     "36dcf7d053b7a3e41b656612d815a5557810e2386cb54a362a3bb4c94c97d4fe"),
    ((3, 1, 2), 11,
     "11c30c45084a2a7d327a111410d098f79b37c064111670fb876537383d159886"),
    ((3, 1, 2), 12,
     "2a5cd8d28f4f3c16b71aee080751099acc923f06910097cc3f47dc5a42c58b47"),
    ((2, 1, 3), 11,
     "00608ba318eac408f6d266cc95dfac1f924f3a34987c14b3c66bcc85c4a35510"),
    ((2, 1, 3), 12,
     "5db13a80d6e0dbff1ab184052e2bd0cb5bb7c28f2f8625902b503dc7ed0c8dd8"),
])
def test_avoider_lists_at_n11_and_n12_are_pinned(lam, n, want):
    # sha256 of the class's bytes, each permutation's entries in lex order,
    # recorded from constructions independent of _grow: 123 and 321 from
    # West's generating trees with a final sort, the other four by joining
    # shorter avoiders at the maximum or minimum and sorting.
    rows = list(perms.enumerate_avoiders(n, lam))
    assert len(rows) == catalan(n)
    assert hashlib.sha256(b"".join(map(bytes, rows))).hexdigest() == want


CHAIN_BYTES = sum(n * catalan(n) for n in range(12))  # 873,885: S_0..S_11, a byte an entry


@pytest.mark.parametrize("lam", [(1, 3, 2), (1, 2, 3)])
def test_a_cached_class_chain_is_stored_once_as_its_columns(lam):
    # Every cached S_n is held as its columns only (about a byte per entry),
    # and no growth step holds a second copy of the class it builds.
    perms.avoider_list.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        perms.avoider_list(lam, 11).columns()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live <= 1.25 * CHAIN_BYTES, live / CHAIN_BYTES
    assert peak <= 2.5 * CHAIN_BYTES, peak / CHAIN_BYTES


def test_reading_a_class_row_by_row_holds_a_bounded_block():
    # S_12(132), 2,496,144 entry bytes: iterating it decodes a block of rows
    # at a time, so the peak stays under a quarter of the class (unpacking
    # every column at once held a second copy), and it gives the rows that
    # whole unpacked columns give.
    for cls in perms.avoider_levels(12, (1, 3, 2)):
        pass
    gc.collect()
    tracemalloc.start()
    try:
        for _ in cls:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(cls) * cls.n / 4, peak / (len(cls) * cls.n)
    whole = list(zip(*[lanes.unpack(c, len(cls)) for c in cls.columns()]))
    assert list(cls) == whole
    assert cls[-1] == whole[-1]


def test_avoider_list_rejects_what_does_not_fit_a_byte_lane(monkeypatch):
    # The guard comes before any enumeration.
    def never(*args):
        raise AssertionError("enumerated")
    monkeypatch.setattr(perms, "_grow", never)
    for lam in CLASSES:
        with pytest.raises(ValueError, match=r"length 128 does not fit a byte "
                                             r"lane \(n < 128\)"):
            perms.avoider_list(lam, 128)
