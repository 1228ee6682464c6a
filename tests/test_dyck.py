import pytest
from hypothesis import given, settings, strategies as st

from patlab import dyck, lanes, perms
from patlab.series import catalan

from classes import packed_class

PAPER_PATH = "DDRDDRRRDDRDRDRRDR"


def test_parse_path():
    assert dyck.parse_path("DR") == "DR"
    assert dyck.parse_path(PAPER_PATH) == PAPER_PATH
    assert dyck.parse_path("") == ""
    with pytest.raises(dyck.InvalidPathError) as err:
        dyck.parse_path("RD")
    assert err.value.index == 0
    with pytest.raises(dyck.InvalidPathError) as err:
        dyck.parse_path("DRR")
    with pytest.raises(dyck.InvalidPathError) as err:
        dyck.parse_path("DXDR")
    assert err.value.index == 1


def test_path_pattern_count():
    assert dyck.path_pattern_count(PAPER_PATH, "DRRR") == 1
    assert dyck.path_pattern_count(PAPER_PATH, "DRRD") == 1
    assert dyck.path_pattern_count("DDRR", "DRRD") == 0
    assert dyck.path_pattern_count("RRRR", "RRR") == 2  # overlaps count
    with pytest.raises(ValueError):
        dyck.path_pattern_count("DR", "")


def test_staircase_maps_paper_examples():
    assert dyck.phi_map(perms.parse_perm("867943251")) == PAPER_PATH
    assert dyck.psi_map(perms.parse_perm("869743251")) == PAPER_PATH
    assert dyck.phi_map((1,)) == "DR"
    assert dyck.psi_map((1,)) == "DR"
    assert dyck.phi_map(perms.parse_perm("42351")) == "DDRDDRRRDR"
    assert dyck.phi_inverse(PAPER_PATH) == perms.parse_perm("867943251")
    assert dyck.psi_inverse(PAPER_PATH) == perms.parse_perm("869743251")
    with pytest.raises(ValueError):
        dyck.phi_map((1, 3, 2))
    with pytest.raises(ValueError):
        dyck.psi_map((1, 2, 3))


def test_roundtrips_exhaustive():
    for n in range(9):
        for p in perms.avoider_list((1, 3, 2), n):
            assert dyck.phi_inverse(dyck.phi_map(p)) == p
        for p in perms.avoider_list((1, 2, 3), n):
            assert dyck.psi_inverse(dyck.psi_map(p)) == p
        for w in dyck.enumerate_paths(n):
            assert dyck.phi_map(dyck.phi_inverse(w)) == w
            assert dyck.psi_map(dyck.psi_inverse(w)) == w


def test_staircase_word_keeps_lex_order_on_both_classes():
    """The i-th avoider of 132 or 123 maps to the i-th path (D < R).

    A word's prefix fixes the permutation's prefix: a column after D's is a
    new left-to-right minimum, and any other column takes the least (132) or
    greatest (123) free value, a choice made by the prefix alone.  So two
    class members first differ at a new left-to-right minimum, and the one
    with the smaller entry there has more D's before that R, which makes
    its word smaller.  The bijection checks walk the class and the paths in
    lockstep on this.
    """
    for lam in ((1, 3, 2), (1, 2, 3)):
        for n in range(11):
            assert list(map(dyck.staircase_word, perms.avoider_list(lam, n))) \
                == list(dyck.enumerate_paths(n))


def test_pattern_path_examples():
    g = perms.parse_perm("42351")
    assert dyck.pattern_path(g, "phi_prime") == "RDDRRRDR"
    assert dyck.pattern_path(g, "phi_double_prime") == "RDDRRRD"
    assert dyck.pattern_path((1, 2, 3), "phi_prime") == "RRR"
    assert dyck.pattern_path((2, 1, 3), "phi_prime") == "RDRR"
    assert dyck.pattern_path((2, 3, 1), "phi_double_prime") == "RRD"
    assert dyck.pattern_path((2, 1), "phi_double_prime") == "RD"
    assert dyck.pattern_path((1,), "phi_prime") == "R"
    with pytest.raises(ValueError):
        dyck.pattern_path((1, 3, 2), "phi_prime")  # contains 132
    with pytest.raises(ValueError):
        dyck.pattern_path((1, 2, 3), "phi_double_prime")  # must end max,1
    with pytest.raises(ValueError):
        dyck.pattern_path((2, 1), "phi")


def test_admissible_variant():
    assert dyck.admissible_variant((1, 2, 3)) == "phi_prime"
    assert dyck.admissible_variant((2, 3, 1)) == "phi_double_prime"
    assert dyck.admissible_variant((3, 2, 1)) is None
    assert dyck.admissible_variant((1,)) == "phi_prime"


def test_enumerate_paths():
    assert list(dyck.enumerate_paths(2)) == ["DDRR", "DRDR"]
    assert list(dyck.enumerate_paths(0)) == [""]
    for n in range(8):
        paths = list(dyck.enumerate_paths(n))
        assert paths == sorted(paths)
        assert len(paths) == catalan(n)
    with pytest.raises(perms.EnumerationLimitError):
        next(dyck.enumerate_paths(15))


def _recursive_paths(n):
    # The former recursive-generator definition, kept as the reference.
    word = []

    def rec(ds, rs):
        if ds == n and rs == n:
            yield "".join(word)
            return
        if ds < n:
            word.append("D")
            yield from rec(ds + 1, rs)
            word.pop()
        if rs < ds:
            word.append("R")
            yield from rec(ds, rs + 1)
            word.pop()

    yield from rec(0, 0)


def test_enumerate_paths_matches_recursive_definition(monkeypatch):
    for n in range(11):
        assert list(dyck.enumerate_paths(n)) == list(_recursive_paths(n)), n
    for n in (11, 12):
        assert sum(1 for _ in dyck.enumerate_paths(n)) == catalan(n)
    with pytest.raises(ValueError):
        next(dyck.enumerate_paths(-1))
    monkeypatch.setenv("PATLAB_NMAX_CAP", "4")
    with pytest.raises(perms.EnumerationLimitError):
        next(dyck.enumerate_paths(5))


@given(st.text("DR", max_size=16), st.text("DR", min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_path_pattern_count_matches_startswith_definition(word, pattern):
    want = sum(1 for i in range(len(word) - len(pattern) + 1)
               if word.startswith(pattern, i))
    assert dyck.path_pattern_count(word, pattern) == want


def test_statistic_transport_examples():
    # Descents map to RD under the 132-side, RD+RRR under the 123-side.
    for n in range(8):
        for p in perms.avoider_list((1, 3, 2), n):
            w = dyck.phi_map(p)
            assert len(perms.descent_set(p)) == \
                dyck.path_pattern_count(w, "RD")
            assert len(perms.consecutive_match_positions(p, (1, 2, 3))) == \
                dyck.path_pattern_count(w, "RRR")
        for p in perms.avoider_list((1, 2, 3), n):
            w = dyck.psi_map(p)
            assert len(perms.descent_set(p)) == (
                dyck.path_pattern_count(w, "RD")
                + dyck.path_pattern_count(w, "RRR"))
            assert len(perms.consecutive_match_positions(p, (1, 3, 2))) == \
                dyck.path_pattern_count(w, "DRRR")
            assert len(perms.consecutive_match_positions(p, (2, 3, 1))) == \
                dyck.path_pattern_count(w, "DRRD")


def test_peaks_equal_left_to_right_minima():
    for n in range(7):
        for p in perms.avoider_list((1, 3, 2), n):
            minima = sum(1 for i in range(n) if all(p[j] > p[i] for j in range(i)))
            # a peak is a DR factor
            assert dyck.path_pattern_count(dyck.phi_map(p), "DR") == minima


def test_staircase_preimage_equals_the_guarded_inverses():
    for n in range(11):
        for w in dyck.enumerate_paths(n):
            assert dyck.staircase_preimage(w, (1, 3, 2)) == dyck.phi_inverse(w)
            assert dyck.staircase_preimage(w, (1, 2, 3)) == dyck.psi_inverse(w)
    assert dyck.staircase_preimage(PAPER_PATH, (1, 3, 2)) == \
        perms.parse_perm("867943251")
    with pytest.raises(ValueError):
        dyck.staircase_preimage("DR", (2, 1, 3))


def _lane_rows(cols, m):
    # The rows of m byte lanes, decoded from their columns.
    return list(zip(*(c.to_bytes(m, "little") for c in cols))) if cols else [()] * m


def _step_columns(words):
    # class_factor_counts' input: lane i of column k is 1 where step k of
    # word i is D.
    size = len(words[0]) if words else 0
    return [int.from_bytes(bytes(w[k] == "D" for w in words), "little")
            for k in range(size)]


def test_staircase_lanes_equal_the_row_maps():
    # The lane kernels against staircase_word and staircase_preimage on
    # every avoider of both classes, n = 0 included.
    for lam in ((1, 3, 2), (1, 2, 3)):
        for n in range(11):
            cls = perms.avoider_list(lam, n)
            m = len(cls)
            words = [dyck.staircase_word(p) for p in cls]
            counts = dyck.staircase_counts(cls.columns(), m)
            assert _lane_rows(counts, m) == \
                [tuple(map(len, w.split("R")[:-1])) for w in words]
            steps = dyck.path_step_columns(counts, m)
            assert ["".join("RD"[step] for step in row)
                    for row in _lane_rows(steps, m)] == words
            assert _lane_rows(dyck.staircase_preimage_lanes(counts, m, lam),
                              m) == [dyck.staircase_preimage(w, lam)
                                     for w in words]
            assert dyck.is_lex_path_class(counts, m)
    with pytest.raises(ValueError):
        dyck.staircase_preimage_lanes([1], 1, (2, 1, 3))


def test_is_lex_path_class_rejects_broken_classes():
    n = 5
    rows = _lane_rows(dyck.staircase_counts(
        perms.avoider_list((1, 3, 2), n).columns(), catalan(n)), catalan(n))
    assert rows[-2:] == [(1, 1, 1, 2, 0), (1, 1, 1, 1, 1)]

    def certified(rows):
        cols = packed_class(n, rows).columns()
        return dyck.is_lex_path_class(cols, len(rows))
    assert certified(rows)
    swapped = list(rows)
    swapped[3], swapped[9] = rows[9], rows[3]
    assert not certified(swapped)
    assert not certified(rows[:10] + rows[9:10] + rows[11:])   # a duplicate
    # The last word DRDRDRDRDR as RDDRDRDRDR: still the greatest word, but
    # S_1 = 0 < 1; and as DRDRDRDRDDR, with S_5 = 6.
    assert not certified(rows[:-1] + [(0, 2, 1, 1, 1)])
    assert not certified(rows[:-1] + [(1, 1, 1, 1, 2)])
    assert not certified(rows[:-1])                # one row short of catalan(n)


@given(st.integers(0, 10).flatmap(lambda size: st.lists(
           st.text("DR", min_size=size, max_size=size), max_size=12)),
       st.lists(st.text("DR", min_size=1, max_size=6), min_size=1,
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_class_factor_counts_match_path_pattern_count(words, factors):
    counts = dyck.class_factor_counts(_step_columns(words), len(words),
                                      factors)
    assert [list(lanes.unpack(c, len(words))) for c in counts] == [
        [dyck.path_pattern_count(w, f) for w in words] for f in factors]


def test_class_factor_counts_examples_and_guards():
    # overlapping occurrences each count, as in path_pattern_count
    assert dyck.class_factor_counts(_step_columns(["RRRR", "DRRR"]), 2,
                                    ["RRR", "R"]) == [0x0102, 0x0304]
    assert dyck.class_factor_counts([], 0, ["DR"]) == [0]
    assert dyck.class_factor_counts([], 1, ["D"]) == [0]
    # 255 steps still fit a byte lane; 256 could carry
    assert dyck.class_factor_counts([0] * 255, 1, ["R"]) == [0xFF]
    with pytest.raises(ValueError, match="byte lane"):
        dyck.class_factor_counts([0] * 256, 1, ["R"])
    with pytest.raises(ValueError):     # a step wider than the 2 words
        dyck.class_factor_counts([0x010001], 2, ["DR"])
    with pytest.raises(ValueError):     # a step that is neither D nor R
        dyck.class_factor_counts([1, 2], 1, ["DR"])
    with pytest.raises(ValueError):
        dyck.class_factor_counts([1, 0], 1, [""])
