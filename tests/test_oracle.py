import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from patlab import checks, perms
from patlab.limits import DEFAULT_MAX_N
from patlab.oracle import (_FORMATS, _byte_groups, _distribution,
                           brute_distribution)
from patlab.series import VARS, Poly, catalan, pack, poly_str

X = Poly.variable("x")
Y = Poly.variable("y")


def test_single_pattern_slice():
    d = brute_distribution((1, 2, 3), [(1, 3, 2)], 3)
    assert d.poly == X * Y + 3 * Y + Poly.variable("y", 2)
    assert d.variables == ("x",)


def test_four_pattern_slice():
    d = brute_distribution((1, 3, 2),
                           [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)], 3)
    want = (Poly.variable("x1") + Poly.variable("x2") * Y
            + Poly.variable("x3") * Y + Poly.variable("x4") * Y * Y + Y)
    assert d.poly == want


def test_untracked_slice_counts_class():
    d = brute_distribution((1, 2, 3), [], 4)
    assert sum(c for _, c in d.poly.terms()) == 14


def test_nothing_tracked_counts_the_class():
    for lam in itertools.permutations((1, 2, 3)):
        for n in range(7):
            d = brute_distribution(lam, [], n, variables=(), track_des=False)
            assert d.poly == Poly.const(catalan(n))


def test_track_des_off():
    d = brute_distribution((1, 3, 2), [(2, 3, 1)], 4, track_des=False)
    assert poly_str(d.poly) == "8 + 6*x"


def test_coefficient_sums_and_degree_bounds():
    patterns = [(1, 3, 2), (2, 3, 1)]
    for lam in ((1, 2, 3), (1, 3, 2)):
        for n in range(8):
            d = brute_distribution(lam, patterns, n)
            assert sum(c for _, c in d.poly.terms()) == catalan(n)
            assert d.poly.degree("y") <= max(n - 1, 0)
            for var, g in zip(d.variables, patterns):
                assert d.poly.degree(var) <= max(n - len(g) + 1, 0)


def test_window_totals_cover_all_length3_patterns():
    # Every length-3 window is one of the five patterns available to the
    # avoidance class, so tracked counts total n - 2.
    gammas = [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    for n in range(3, 8):
        for p in perms.avoider_list((1, 2, 3), n):
            total = sum(len(perms.consecutive_match_positions(p, g))
                        for g in gammas)
            assert total == n - 2


def test_limit():
    # The enumeration cap is the oracle's one bound.
    with pytest.raises(perms.EnumerationLimitError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], DEFAULT_MAX_N + 1)
    with pytest.raises(ValueError, match="non-negative"):
        brute_distribution((1, 2, 3), [(1, 3, 2)], -1)


def test_variable_count_must_match():
    with pytest.raises(ValueError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], 3, variables=("x1", "x2"))


@pytest.mark.parametrize("variables", [("x", "x"), ("y", "x"), ("x5", "x"),
                                       ("t", "x1")])
def test_variables_must_be_distinct_pattern_variables(variables):
    # A repeated name would add two patterns' counts into one exponent, and
    # y already carries the descents.
    with pytest.raises(ValueError, match="distinct variables"):
        brute_distribution((1, 3, 2), [(1, 2), (2, 1)], 3, variables=variables)
    d = brute_distribution((1, 3, 2), [(1, 2), (2, 1)], 3, variables=("x", "x4"),
                           track_des=False)
    x4 = Poly.variable("x4")
    assert d.poly == X ** 2 + 3 * X * x4 + x4 ** 2   # 123; 213, 231, 312; 321


def _recount(avoided, tracked, n, variables, track_des):
    # The definition, with none of the oracle's machinery: filter S_n and
    # reduce every window.
    poly = Poly()
    for p in itertools.permutations(range(1, n + 1)):
        if perms.contains_classical(p, avoided):
            continue
        exps = {}
        if track_des:
            exps["y"] = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        for var, g in zip(variables, tracked):
            k = len(g)
            exps[var] = sum(1 for i in range(n - k + 1)
                            if perms.reduce_word(p[i:i + k]) == g)
        poly = poly + Poly.monomial({v: e for v, e in exps.items() if e})
    return poly


@pytest.mark.parametrize("avoided, tracked, track_des", [
    ((1, 3, 2), [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)], True),
    ((1, 2, 3), [(2, 1, 4, 3), (3, 2, 1, 4), (4, 1, 3, 2)], True),
    ((3, 2, 1), [(1, 3, 2), (2, 1), (3, 1, 2), (1, 2)], False),
    ((1, 2, 3), [(1, 3, 2), (3, 2, 1, 4), (2, 3, 1), (2, 1, 4, 3)], True),
])
def test_same_length_patterns_match_slow_recount(avoided, tracked, track_des):
    variables = tuple(f"x{i + 1}" for i in range(len(tracked)))
    for n in range(8):
        d = brute_distribution(avoided, tracked, n, variables=variables,
                               track_des=track_des)
        assert d.poly == _recount(avoided, tracked, n, variables, track_des)


def test_env_cap_binds_the_oracle(monkeypatch):
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    with pytest.raises(perms.EnumerationLimitError):
        brute_distribution((1, 2, 3), [(1, 3, 2)], 9)
    poly = brute_distribution((1, 2, 3), [(1, 3, 2)], 8).poly
    assert poly.substitute({"x": 1, "y": 1}).constant_term() == catalan(8)
    # the library's n_max does not reach past the cap either
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_check("rec_thm1", n_max=10)


def _recount_packed(avoided, tracked, n, variables, track_des):
    # One avoider at a time: count each statistic and pack its monomial.
    counter = {}
    for p in perms.avoider_list(avoided, n):
        exps = {v: len(perms.consecutive_match_positions(p, g))
                for v, g in zip(variables, tracked)}
        if track_des:
            exps["y"] = len(perms.descent_set(p))
        key = pack(exps)
        counter[key] = counter.get(key, 0) + 1
    return counter


_pattern = st.integers(1, 4).flatmap(
    lambda k: st.permutations(range(1, k + 1))).map(tuple)


@settings(max_examples=60, deadline=None)
@given(avoided=st.permutations((1, 2, 3)).map(tuple), n=st.integers(0, 8),
       marks=st.lists(st.tuples(st.sampled_from(VARS[2:]), _pattern),
                      unique_by=lambda mark: mark[0], max_size=5),
       track_des=st.booleans())
@example(avoided=(1, 3, 2), n=8, marks=[("x4", (2, 1)), ("x", (1, 2, 3))],
         track_des=True)
@example(avoided=(3, 2, 1), n=7, marks=[("x", (1, 3, 2)), ("x4", (2, 1))],
         track_des=False)
@example(avoided=(1, 2, 3), n=0, marks=[("x2", (1,))], track_des=True)
@example(avoided=(2, 1, 3), n=6, marks=[], track_des=False)
# Every lane reaches its largest count (on 87654321 or 12345678), at each
# record width: radices 8, 9 take one byte; 8, 9, 7 two; 8, 9, 8, 7, 6 four.
@example(avoided=(1, 2, 3), n=8, marks=[("x", (1,))], track_des=True)
@example(avoided=(3, 2, 1), n=8,
         marks=[("x1", (1, 2)), ("x2", (1,)), ("x3", (1, 2, 3))],
         track_des=False)
@example(avoided=(1, 2, 3), n=8,
         marks=[("x", (1,)), ("x1", (2, 1)), ("x2", (3, 2, 1)),
                ("x3", (4, 3, 2, 1))],
         track_des=True)
def test_packed_tally_matches_a_per_permutation_recount(avoided, n, marks,
                                                        track_des):
    variables = tuple(v for v, _ in marks)
    tracked = tuple(g for _, g in marks)
    poly = _distribution(avoided, tracked, n, variables, track_des)
    assert poly.c == _recount_packed(avoided, tracked, n, variables, track_des)


def _radix(n, k):
    # one more than the most windows a length-k pattern can match
    return max(n - k + 1, 0) + 1


def _width(radices):
    return next(w for w in _FORMATS if w >= len(_byte_groups(radices)))


def test_descents_and_one_pattern_take_one_byte():
    for n in range(DEFAULT_MAX_N + 1):
        for k in range(1, n + 2):
            assert _width([_radix(n, 2), _radix(n, k)]) == 1
            assert _width([_radix(n, k)]) == 1
        # y and five x lanes: any two radices share a byte, so at most three
        assert len(_byte_groups([_radix(n, 1)] * 6)) <= 3
    assert [_width(r) for r in ([8, 9], [8, 9, 7], [8, 9, 8, 7, 6])] == [1, 2, 4]
    for width, fmt in _FORMATS.items():
        assert memoryview(bytearray(width)).cast(fmt).itemsize == width


def test_byte_groups_keep_lane_order_and_fit_a_byte():
    assert _byte_groups([]) == [[]]
    assert _byte_groups([1, 1, 16, 16, 1, 2]) == [[0, 1, 2, 3, 4], [5]]
    assert _byte_groups([13, 13, 2, 13]) == [[0, 1], [2, 3]]


def _digest(poly):
    return hashlib.sha256(repr(sorted(poly.c.items())).encode()).hexdigest()


_DES_X1 = (("x1",), True)
# sha256 of the sorted coefficient dict at n = 11 and n = 12: the
# benchmark's dist-n11 draws for seeds 1-3, the thm8 set over 132, and one
# family query without descents.
_PINS = [
    ((1, 2, 3), ((2, 4, 1, 3),), *_DES_X1,
     "2e000f33141a451e073b742057c8a687715d1c5f6413739258936e8fe442ee81",
     "0cd9fac62f13b1a103efda98c5b4eb6c843e121803a74a66ef3a21027ceff6eb"),
    ((1, 2, 3), ((2, 4, 3, 1),), *_DES_X1,
     "e7b1df2cbcc7700b9a0d933db7d869925a091a8533340beed5cee9cdae6da059",
     "e77800d2661b33a4c5a308e6075b9a2257cb6d142b0a7b351e72428a3f4fe908"),
    ((1, 2, 3), ((2, 5, 4, 1, 3),), *_DES_X1,
     "4f9204b682aac17caa22facde4ad8ab6bcb9cb106c7eacc535ede78931af10d4",
     "d2626f214d158746e8501876789178f79e545bd9baef13417af956db39b05613"),
    ((1, 2, 3), ((4, 3, 2, 1),), *_DES_X1,
     "b832e5deea21a3be22c337d0c90a1fee0a0cedcd7f5be4b6508c089a29705925",
     "3fdbc7d76589be95e451d4101e990a8789a14c66e332d39990ccefdbad327f1a"),
    ((1, 2, 3), ((5, 3, 4, 2, 1),), *_DES_X1,
     "f24a1ee5e80a21e5079151e107c9af8a95a3711058da844381795ac942287a50",
     "db66f753154cea53683f9a9e74d05aafa88e6f7bbfd7946fc17ff61072de0e80"),
    ((1, 2, 3), ((5, 4, 1, 3, 2),), *_DES_X1,
     "55d98ff5a5f5a897554eed74279224ca3ff0aa42739b2c1fc55b3737c9c0ae9d",
     "e419eeff2f5156cf467490d444eff7de5ef8ed2bd641b00e38e780771b52bf64"),
    ((1, 3, 2), ((2, 1, 3, 4),), *_DES_X1,
     "73657746ac04e29c5a551ef0b480696f7e133a5f0a4db253b2fcf984721735d3",
     "bbf9b1353bfd08ae6de598d6d34bb91d67dd8f987666a721edc4f7e2c87b0c60"),
    ((1, 3, 2), ((2, 3, 1, 4),), *_DES_X1,
     "9b7dd72b73d443c1b097741ceb9852a077e04cfba73e74d8aa9f1906cfc019e1",
     "bec44a0d4010d5466d180c663a8bfffac82abe074aa5be334912f548d1dbff27"),
    ((1, 3, 2), ((2, 3, 4, 5, 1),), *_DES_X1,
     "30b39ef61a33f8646c54c77c45c034f525b2db452b941b087996af561f807a29",
     "7828bef300415293504f4c4fcef65a0dedc03466c171a16672e08f092e7e5fa0"),
    ((1, 3, 2), ((4, 3, 1, 2),), *_DES_X1,
     "9699d5fa38dbfc382496dec9078b989c9e994e56895d79f37dc3614d346857a3",
     "a0006c0bb2ef91fd12c7f56ac3448d67065cc29950bd1389a6f31c4759023b8d"),
    ((1, 3, 2), ((4, 5, 1, 2, 3),), *_DES_X1,
     "926e2ad21de276e98e0d66a6194d70bab3493181eb8c9ce9e20d0d16ee3b44fa",
     "135242389847d3c4dd91df68a330a9f5e96c473b4e69912571d5f4a513009036"),
    ((3, 2, 1), ((1, 2, 4, 3),), *_DES_X1,
     "b36b7a990b11d13b71c80827d7fcd8045b5a3bd48591fdf876ac2a1ecf809a63",
     "f4607afcc1fc5c30ff5c2c2e1820bb9efd5b25ef7d5c92b1805d7330bce63b0b"),
    ((3, 2, 1), ((2, 3, 4, 1),), *_DES_X1,
     "d675adce847a98a32b4c08cbe10c2866fdf08fd2791a59026345292209ea212a",
     "4bdc4f92a40cd61056987daac3632c47e5b29feeaaa3da25d220fd3a0f85e61c"),
    ((3, 2, 1), ((4, 1, 2, 3),), *_DES_X1,
     "d675adce847a98a32b4c08cbe10c2866fdf08fd2791a59026345292209ea212a",
     "4bdc4f92a40cd61056987daac3632c47e5b29feeaaa3da25d220fd3a0f85e61c"),
    ((1, 3, 2), ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)),
     ("x1", "x2", "x3", "x4"), True,
     "de88dd946176f34ead119b10089d7b4e7b262541863f9de9b51f7181de0d25c8",
     "64c45521f04394f919a100b06eaebefba2cb53ac1bc7bb2359739c50465a24ff"),
    ((1, 2, 3), ((1, 5, 4, 3, 2),), ("x",), False,
     "1608aaf1bcd24b84a7e9c1a0e23fa1f302a7096f7853a2b4ea58dac7e55eb6fa",
     "2110c4402fff251bd52a55c215153ee06ec8c523ad8ee1cd46206d8cbc855a2c"),
]


def _word(p):
    return "".join(map(str, p))


@pytest.mark.parametrize(
    "avoided, tracked, variables, track_des, n11, n12", _PINS,
    ids=[_word(a) + "-" + "-".join(map(_word, t)) + ("" if d else "-no-y")
         for a, t, _, d, _, _ in _PINS])
def test_distribution_is_pinned(avoided, tracked, variables, track_des,
                                n11, n12):
    assert _digest(_distribution(avoided, tracked, 11, variables,
                                 track_des)) == n11
    assert _digest(_distribution(avoided, tracked, 12, variables,
                                 track_des)) == n12
