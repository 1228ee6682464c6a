import hashlib
import json

import pytest

from patlab import checks, dyck, oracle, perms
from patlab.limits import AVOIDERS_CACHED_MAX_N
from patlab.series import catalan

from classes import packed_class


@pytest.fixture(autouse=True)
def _fresh_bijection_passes():
    # The staircase passes are cached by (class, n, statistics) and the
    # phi_n pass by n; a test that swaps a map must neither read nor leave
    # a verdict.
    checks._staircase_pass.cache_clear()
    checks._phin_pass.cache_clear()
    yield
    checks._staircase_pass.cache_clear()
    checks._phin_pass.cache_clear()


def test_run_check_single():
    res = checks.run_check("bij_phin", n_max=6)
    assert res.status == "pass"
    assert res.check_id == "bij_phin"
    assert res.witness is None


def test_run_check_needs_params_for_parameterised_ids():
    with pytest.raises(ValueError):
        checks.run_check("sym_rc")
    res = checks.run_check("sym_rc", {"lambda": "132", "gamma": "213"}, n_max=6)
    assert res.status == "pass"


def test_run_check_unknown_id():
    with pytest.raises(ValueError):
        checks.run_check("rec_thm9")
    with pytest.raises(ValueError):
        checks.run_check("sym_rc", {"lambda": "111", "gamma": "213"})


def test_documented_report_only_witnesses():
    res = checks.run_check("cf_thm2eq", n_max=6)
    assert res.status == "report_only_fail"
    assert res.witness == {"n": 3, "monomial": "x^1", "expected": 1, "actual": 0}
    res = checks.run_check("cf_thm5eq", n_max=6)
    assert res.status == "report_only_fail"
    assert res.witness == {"n": 4, "monomial": "x^1", "expected": 6, "actual": 4}
    res = checks.run_check("ident_thm7_expansion", n_max=5)
    assert res.status == "report_only_fail"
    assert res.witness == {"n": 3, "monomial": "1", "expected": 1, "actual": 0}


def test_rec_thm7_reports_but_does_not_gate():
    res = checks.run_check("rec_thm7", n_max=6)
    assert res.status == "report_only_fail"
    assert res.witness["n"] == 4
    report = checks.run_suite("recursions", 6)
    assert report["aggregate"] == "pass"


def test_suite_report_shape_and_roundtrip():
    report = checks.run_suite("sequences", 6)
    assert list(report.keys()) == ["suite", "n_max", "aggregate", "checks"]
    assert report["aggregate"] == "pass"
    for entry in report["checks"]:
        assert list(k for k in entry if k != "witness") == \
            ["id", "params", "status"]
        assert entry["status"] in ("pass", "fail", "report_only_pass",
                                   "report_only_fail")
        if "fail" in entry["status"]:
            assert set(entry["witness"]) == {"n", "monomial", "expected",
                                             "actual"}
    text = checks.report_to_json(report)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    # deterministic: a second run must be byte-identical
    assert checks.report_to_json(checks.run_suite("sequences", 6)) == text


def test_suite_ordering_is_sorted():
    report = checks.run_suite("closed_forms", 6)
    keys = [(c["id"], json.dumps(c["params"], sort_keys=True))
            for c in report["checks"]]
    assert keys == sorted(keys)


def test_unknown_suite_and_nmax_guard():
    with pytest.raises(ValueError):
        checks.run_suite("everything", 6)
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_suite("sequences", 15)


def test_negative_nmax_is_rejected_not_a_vacuous_pass():
    # An empty range would pass every check without comparing anything.
    for suite in ("symmetries", "all"):
        with pytest.raises(ValueError, match="non-negative"):
            checks.run_suite(suite, -1)
    for check_id in ("bij_phin", "rec_thm5", "cf_thm2eq"):
        with pytest.raises(ValueError, match="non-negative"):
            checks.run_check(check_id, n_max=-1)
    assert checks.run_check("bij_phin", n_max=0).status == "pass"


def test_symmetry_checks_small():
    for action in ("sym_rc", "sym_r", "sym_c"):
        res = checks.run_check(action, {"lambda": "123", "gamma": "132"},
                               n_max=6)
        assert res.status == "pass", (action, res.witness)
    assert checks.run_check("sym_1321", {"k": 3}, n_max=6).status == "pass"
    assert checks.run_check("sym_phi", {"k": 3}, n_max=6).status == "pass"


def test_transport_general_instance():
    res = checks.run_check("transport_general", {"gamma": "42351"}, n_max=6)
    assert res.status == "pass"
    assert res.params["variant"] == "phi_double_prime"


def _sequential_transport(lam, top, pattern, factors):
    # One statistic at a time, the way the transports were first checked.
    fwd = dyck.phi_map if lam == (1, 3, 2) else dyck.psi_map
    for n in range(top + 1):
        for p in perms.avoider_list(lam, n):
            left = len(perms.consecutive_match_positions(p, pattern))
            right = sum(dyck.path_pattern_count(fwd(p), f) for f in factors)
            if left != right:
                return {"n": n, "monomial": perms.perm_str(p),
                        "expected": left, "actual": right}
    return None


def test_transport_pass_keeps_each_first_witness():
    wrong = ((2, 1), ("RD",))  # psi_des without its RRR factor
    also_wrong = ((1, 3, 2), ("DRR",))  # overcounts 132
    # wrong shares its pattern with psi_des, which comes after it and passes
    stats = (((1, 3, 2), ("DRRR",)), wrong, ((2, 3, 1), ("DRRD",)), also_wrong,
             ((2, 1), ("RD", "RRR")))
    levels = [checks._staircase_pass((1, 2, 3), n, stats) for n in range(8)]
    verdicts = {stat: checks._first_witness(7, lambda n: levels[n][stat])
                for stat in stats}
    for stat in stats:
        ok, witness, n_range = verdicts[stat]
        want = _sequential_transport((1, 2, 3), 7, *stat)
        assert witness == want and ok == (want is None) and n_range == "n<=7"
    assert not verdicts[wrong][0] and not verdicts[also_wrong][0]
    # 132 has one descent; its path DDDRRR has no RD, only RRR
    assert verdicts[wrong][1] == {"n": 3, "monomial": "132",
                                  "expected": 1, "actual": 0}
    assert verdicts[stats[0]][0] and verdicts[stats[2]][0]
    assert verdicts[stats[4]][0]


def test_transport_pass_counts_each_pattern_once_per_n(monkeypatch):
    calls = []
    real = perms.class_pattern_counts

    def counting(avoiders, patterns):
        calls.append((len(avoiders), tuple(patterns)))
        return real(avoiders, patterns)
    monkeypatch.setattr(perms, "class_pattern_counts", counting)
    stats = checks._class_stats()[(1, 3, 2)]
    patterns = {gamma for gamma, _ in stats}
    assert (len(stats), len(patterns)) == (34, 32)  # 21 and 123 twice each
    for n in range(7):
        verdicts = checks._staircase_pass((1, 3, 2), n, stats)
        assert all(verdicts[stat] is None for stat in stats)
    assert sorted(calls) == sorted((catalan(n), (gamma,))
                                   for n in range(7) for gamma in patterns)


def test_transport_checks_match_the_suite_report():
    records = {(c["id"], json.dumps(c["params"], sort_keys=True)): c
               for c in checks.run_suite("bijections", 10)["checks"]}
    transports = [c for c in checks.REGISTRY
                  if c.check_id.startswith("transport_")]
    assert len(transports) == 5 + 32
    checks._staircase_pass.cache_clear()   # run_check recomputes them
    for c in transports:
        res = checks.run_check(c.check_id, c.params, n_max=10)
        assert checks._result_json(res) == \
            records[(c.check_id, json.dumps(c.params, sort_keys=True))]
        assert res.n_range == "n<=10"


def _broken_preimage(real):
    # From n = 3 on, every path gets lam followed by 4..n, which contains lam.
    def broken(word, lam):
        n = len(word) // 2
        return lam + tuple(range(4, n + 1)) if n >= 3 else real(word, lam)
    return broken


def test_bij_psi_records_a_preimage_outside_the_class(monkeypatch):
    # A broken inverse whose preimage contains 123 must give a failing
    # witness, not an exception from the guarded map.
    monkeypatch.setattr(perms, "avoider_list",
                        lambda lam, n: packed_class(n, []))
    monkeypatch.setattr(dyck, "staircase_preimage",
                        _broken_preimage(dyck.staircase_preimage))
    res = checks.run_check("bij_psi", n_max=4)
    assert res.status == "fail"
    assert res.witness == {"n": 3, "monomial": "DDDRRR",
                           "expected": "123-avoider", "actual": "123"}


def test_bij_phi_records_a_preimage_outside_the_class(monkeypatch):
    monkeypatch.setattr(perms, "avoider_list",
                        lambda lam, n: packed_class(n, []))
    monkeypatch.setattr(dyck, "staircase_preimage",
                        _broken_preimage(dyck.staircase_preimage))
    res = checks.run_check("bij_phi", n_max=4)
    assert res.status == "fail"
    assert res.witness == {"n": 3, "monomial": "DDDRRR",
                           "expected": "132-avoider", "actual": "132"}


# -- the whole-class bijection passes against the element-by-element loops ---

def _bij_staircase_reference(params, n_max):
    # bij_phi / bij_psi as they were before the lockstep pass: every
    # avoider's round trip, then every path's preimage tested for the class
    # and mapped back.
    lam = (1, 3, 2) if params["map"] == "phi" else (1, 2, 3)
    top = n_max
    fwd, pre = dyck.staircase_word, dyck.staircase_preimage
    for n in range(top + 1):
        for p in perms.avoider_list(lam, n):
            back = pre(fwd(p), lam)
            if back != p:
                return False, checks._witness(
                    n, perms.perm_str(p), perms.perm_str(p),
                    perms.perm_str(back)), f"n<={top}"
        for w in dyck.enumerate_paths(n):
            q = pre(w, lam)
            if perms.contains_classical(q, lam):
                return False, checks._witness(
                    n, w, f"{perms.perm_str(lam)}-avoider",
                    perms.perm_str(q)), f"n<={top}"
            if fwd(q) != w:
                return False, checks._witness(n, w, w, fwd(q)), f"n<={top}"
    return True, None, f"n<={top}"


def _bij_phin_reference(params, n_max):
    # bij_phin as it was before the packed pass: each image tested for 213,
    # for its descent set and for its round trip, then the images counted.
    top = n_max
    for n in range(top + 1):
        seen = set()
        for p in perms.avoider_list((3, 1, 2), n):
            q = perms._phi_n(p)
            if perms.contains_classical(q, (2, 1, 3)):
                return False, checks._witness(
                    n, perms.perm_str(p), "213-avoider",
                    perms.perm_str(q)), f"n<={top}"
            if perms.descent_set(q) != perms.descent_set(p):
                return False, checks._witness(
                    n, perms.perm_str(p), "equal descent sets",
                    perms.perm_str(q)), f"n<={top}"
            back = perms._phi_n(q, inverse=True)
            if back != p:
                return False, checks._witness(
                    n, perms.perm_str(p), perms.perm_str(p),
                    perms.perm_str(back)), f"n<={top}"
            seen.add(q)
        if len(seen) != catalan(n):
            return False, checks._witness(n, "1", catalan(n), len(seen)), \
                f"n<={top}"
    return True, None, f"n<={top}"


def _agrees_with_reference(check_id, params, n_max):
    res = checks.run_check(check_id, params, n_max=n_max)
    reference = (_bij_phin_reference if check_id == "bij_phin"
                 else _bij_staircase_reference)
    ok, witness, n_range = reference(params, n_max)
    assert (res.status, res.witness, res.n_range) == \
        ("pass" if ok else "fail", witness, n_range)
    return res


def _rows(cols, m):
    # The rows of m byte lanes, decoded from their columns.
    return list(zip(*(c.to_bytes(m, "little") for c in cols))) if cols else [()] * m


def _rowwise_staircase(monkeypatch):
    # The staircase lane kernels through the per-row maps, looked up when
    # called so that a fault in dyck.staircase_word or staircase_preimage
    # reaches the pass: decode the rows from the columns, map each one and
    # encode the results as columns again.
    def columns(n, rows):
        return packed_class(n, rows).columns()

    def counts(cols, m):
        words = map(dyck.staircase_word, _rows(cols, m))
        return columns(len(cols), [map(len, w.split("R")[:-1]) for w in words])

    def preimage(counts, m, lam):
        words = ("".join("D" * c + "R" for c in row) for row in _rows(counts, m))
        return columns(len(counts),
                       [dyck.staircase_preimage(w, lam) for w in words])
    monkeypatch.setattr(dyck, "staircase_counts", counts)
    monkeypatch.setattr(dyck, "staircase_preimage_lanes", preimage)


def _wrong_preimage_on(bad):
    real = dyck.staircase_preimage
    return lambda w, lam: real(w, lam)[::-1] if w == bad else real(w, lam)


@pytest.mark.parametrize("check_id, witness", [
    ("bij_phi", {"n": 6, "monomial": "452361", "expected": "452361",
                 "actual": "163254"}),
    ("bij_psi", {"n": 6, "monomial": "462531", "expected": "462531",
                 "actual": "135264"}),
])
def test_bij_staircase_wrong_preimage_keeps_the_witness(monkeypatch, check_id,
                                                        witness):
    bad = list(dyck.enumerate_paths(6))[37]
    monkeypatch.setattr(dyck, "staircase_preimage", _wrong_preimage_on(bad))
    _rowwise_staircase(monkeypatch)
    params = {"map": check_id[4:]}
    assert _agrees_with_reference(check_id, params, 10).witness == witness


def test_bij_psi_wrong_word_keeps_the_witness(monkeypatch):
    real = dyck.staircase_word
    bad = perms.parse_perm("5431762")      # the 101st 123-avoider of 7

    def fwd(p):
        w = real(p)
        return w[:2] + w[3] + w[2] + w[4:] if p == bad else w
    monkeypatch.setattr(dyck, "staircase_word", fwd)
    _rowwise_staircase(monkeypatch)
    res = _agrees_with_reference("bij_psi", {"map": "psi"}, 10)
    assert res.witness == {"n": 7, "monomial": "5431762",
                           "expected": "5431762", "actual": "6431752"}


def _rowwise_lanes(phi):
    # phi_n_lanes through a per-row map: decode the rows from the columns,
    # map each one and encode the images as columns again.
    def lanes(cols, m, inverse=False):
        return packed_class(len(cols), [phi(p, inverse)
                                        for p in _rows(cols, m)]).columns()
    return lanes


_PHIN_A = perms.parse_perm("214563")       # the 51st and 52nd 312-avoiders of 6
_PHIN_B = perms.parse_perm("214653")
_PHIN_DESCENTS = {"n": 6, "monomial": "214563",
                  "expected": "equal descent sets", "actual": "613542"}


@pytest.mark.parametrize("fault, witness", [
    # A's image is B's: a collision.
    ("collision", _PHIN_DESCENTS),
    # A and B swap images both ways: still a bijection onto the 213 class
    # that undoes itself, but descent sets break.
    ("swap", _PHIN_DESCENTS),
    # The identity both ways keeps round trips and descents, but its images
    # are 312-avoiders, not 213-avoiders.
    ("identity", {"n": 3, "monomial": "213", "expected": "213-avoider",
                  "actual": "213"}),
])
def test_bij_phin_faults_keep_the_witness(monkeypatch, fault, witness):
    # The fault goes into the lane pass and the element-by-element search.
    real = perms._phi_n
    forward = {_PHIN_A: real(_PHIN_B)}
    backward = {}
    if fault == "swap":
        forward[_PHIN_B] = real(_PHIN_A)
        backward = {v: k for k, v in forward.items()}

    def phi(p, inverse=False):
        if fault == "identity":
            return tuple(p)
        table = backward if inverse else forward
        return table.get(tuple(p)) or real(p, inverse)
    monkeypatch.setattr(perms, "_phi_n", phi)
    monkeypatch.setattr(perms, "phi_n_lanes", _rowwise_lanes(phi))
    assert _agrees_with_reference("bij_phin", {}, 10).witness == witness


@pytest.mark.parametrize("check_id", ["bij_phi", "bij_psi"])
def test_bij_staircase_passes_a_bijection_out_of_lex_order(monkeypatch,
                                                          check_id):
    # Two paths of 4 swapped on both maps: still a bijection with its
    # inverse, so the check passes, through the element-by-element search
    # of n = 4, the one n whose words are out of lex order.
    paths = list(dyck.enumerate_paths(4))
    swap = {paths[3]: paths[9], paths[9]: paths[3]}
    fwd, pre = dyck.staircase_word, dyck.staircase_preimage
    monkeypatch.setattr(dyck, "staircase_word",
                        lambda p: swap.get(fwd(p), fwd(p)))
    monkeypatch.setattr(dyck, "staircase_preimage",
                        lambda w, lam: pre(swap.get(w, w), lam))
    _rowwise_staircase(monkeypatch)
    searched, search = [], checks._staircase_witness
    monkeypatch.setattr(checks, "_staircase_witness",
                        lambda lam, n: searched.append(n) or search(lam, n))
    res = _agrees_with_reference(check_id, {"map": check_id[4:]}, 6)
    assert searched == [4]
    assert res.status == "pass" and res.n_range == "n<=6"


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_bijection_passes_call_each_map_once_per_element(monkeypatch):
    checks._class_stats()   # its pattern paths are made once per process
    counts = {}
    # Every passing bijection check is lane arithmetic: no element is mapped
    # one by one, and no path is enumerated.
    for module, name in ((perms, "contains_classical"), (perms, "_phi_n"),
                         (dyck, "staircase_word"), (dyck, "staircase_preimage"),
                         (dyck, "enumerate_paths")):
        _counting(monkeypatch, module, name, counts)
    for check_id in ("bij_phi", "bij_psi"):
        counts.update(dict.fromkeys(counts, 0))
        res = checks.run_check(check_id, {"map": check_id[4:]}, n_max=10)
        assert res.status == "pass"
        assert counts == dict.fromkeys(counts, 0)
    counts.update(dict.fromkeys(counts, 0))
    assert checks.run_check("bij_phin", n_max=10).status == "pass"
    assert counts == dict.fromkeys(counts, 0)


def test_bijection_suite_maps_each_avoider_once(monkeypatch):
    # One staircase pass per class serves bij_phi/bij_psi and every
    # transport, on lanes: no avoider is mapped one by one, and the only
    # words made are two pattern paths per transport_general check (the
    # class's statistics and the check's own).
    checks._class_stats.cache_clear()
    counts = {}
    for name in ("staircase_word", "staircase_preimage", "enumerate_paths"):
        _counting(monkeypatch, dyck, name, counts)
    assert checks.run_suite("bijections", 10)["aggregate"] == "pass"
    assert counts == {"staircase_word": 2 * 32, "staircase_preimage": 0,
                      "enumerate_paths": 0}


def test_a_passing_verify_reads_classes_only_through_their_columns(monkeypatch):
    # Rows are decoded (PackedClass._decode) only to name a witness, so a
    # passing run holds no second, row-major copy of any class.
    def no_rows(self, lo, hi):
        raise AssertionError("a class was decoded into rows")
    monkeypatch.setattr(perms.PackedClass, "_decode", no_rows)
    oracle._distribution.cache_clear()
    report = checks.run_suite("all", 10)
    assert report["aggregate"] == "pass" and len(report["checks"]) == 251


def test_catalan_counts_obey_the_env_cap_and_cache_nothing_above_it(monkeypatch):
    # The counts are read off the packed classes; the cap still binds, and
    # a class above AVOIDERS_CACHED_MAX_N is grown from the cap and dropped.
    perms.avoider_list.cache_clear()
    res = checks.run_check("seq_catalan_avoiders", {"avoid": "312"}, n_max=12)
    assert res.status == "pass" and res.n_range == "n<=12"
    assert perms.avoider_list.cache_info().currsize == AVOIDERS_CACHED_MAX_N + 1
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_check("seq_catalan_avoiders", {"avoid": "312"}, n_max=10)


def test_catalan_counts_grow_each_level_above_the_cache_cap_once(monkeypatch):
    # With S_0..S_10 cached, n_max = 12 grows S_11 and S_12 once each per
    # class: avoider_levels grows each level from the one before.
    registered = [c for c in checks.REGISTRY
                  if c.check_id == "seq_catalan_avoiders"]
    assert len(registered) == 6
    for c in registered:
        perms.avoider_list(perms.parse_perm(c.params["avoid"]),
                           AVOIDERS_CACHED_MAX_N)
    counts = {}
    _counting(monkeypatch, perms, "_grow", counts)
    for c in registered:
        assert checks.run_check(c.check_id, c.params, n_max=12).status == "pass"
    assert counts == {"_grow": 2 * 6}


def test_every_bijection_check_covers_one_range():
    # One brute range for the bijection suite: n <= n_max.
    for n_max in range(13):
        for c in checks.REGISTRY:
            if c.suite == "bijections":
                res = checks.run_check(c.check_id, c.params, n_max=n_max)
                assert res.n_range == f"n<={n_max}", (n_max, c)


def test_staircase_levels_are_certified_once():
    # Each (class, n) is one cached pass, whatever n_max asks for it.
    checks.run_check("bij_phi", n_max=5)
    checks.run_check("transport_phi_des", n_max=6)
    checks.run_check("bij_psi", n_max=4)
    info = checks._staircase_pass.cache_info()
    # 132: n <= 5, then only n = 6 is new; 123: n <= 4
    assert (info.misses, info.hits) == (6 + 1 + 5, 6)


def test_phin_levels_are_certified_once():
    # n_max = 0..12 asks for 91 levels, of which 13 are distinct.
    for n_max in range(13):
        assert checks.run_check("bij_phin", {}, n_max).status == "pass"
    info = checks._phin_pass.cache_info()
    assert (info.misses, info.hits) == (13, 91 - 13)


def test_a_complement_route_computes_each_coefficient_once(monkeypatch):
    # n = 1..10 has 55 points with k >= 1; the x^0 points reuse them.
    from patlab import catalog
    counts = {}
    _counting(monkeypatch, catalog, "closed_coeff", counts)
    res = checks.run_check("cf_132_1m", {"form": "cf_132_1m", "m": 2}, 10)
    assert res.status == "pass" and counts == {"closed_coeff": 55}


def test_a_recursion_reaches_n_13_by_brute_force():
    # The oracle's one bound is the enumeration cap, so n_max = 13 compares
    # the solve with brute force at n = 13 too.
    res = checks.run_check("rec_thm8", n_max=13)
    assert (res.status, res.n_range, res.witness) == ("pass", "n<=13", None)


def _coverage_table(n_max):
    # [check id, params, n_range] of every registered check at n_max.
    return [[c.check_id, c.params, checks.run_check(c.check_id, c.params,
                                                    n_max=n_max).n_range]
            for c in checks.REGISTRY]


def test_coverage_table_is_pinned():
    # What every check covers at n_max = 10: a change of any check's range
    # must show up here as a deliberate edit.
    table = _coverage_table(10)
    assert len(table) == 251
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "31c31a0699443515e8d357021e42584f5f65d3dc9aed46581cace1b56ca096e6")


def test_coverage_table_is_pinned_at_the_oracle_cap():
    # The same at n_max = 12, where the verify report is pinned too.
    table = _coverage_table(12)
    assert len(table) == 251
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "b0170c204a5c07a748043ddf102bf1f60b7f19908a9aa24d58c8339503a8eccb")


# The ranges that do not follow n_max: a fixed order or size per check id
# prefix, and the last n of each stored reference prefix.
_FIXED_RANGES = {"spec_thm8_": "order<=10", "famcons_": "order<=10",
                 "cross_": "order<=9", "cf_series_": "n<=16"}
_STORED_PREFIX_TOPS = {"seq_123_231_x0": 8, "seq_132_213_x0": 9}


def _one_range_rule(c, n_max):
    """The n_range the one-range rule gives check c at n_max."""
    for prefix, fixed in _FIXED_RANGES.items():
        if c.check_id.startswith(prefix):
            return fixed
    if c.suite == "symmetries":                 # brute force on both sides
        return f"n<={min(n_max, 9)}"
    if "sequence" in c.params:
        top = _STORED_PREFIX_TOPS.get(c.params["sequence"], n_max)
        return f"n<={min(n_max, top)}"
    if c.check_id in ("ident_thm7_expansion", "ident_thm8_expansion"):
        return f"order<={min(n_max, 5)}"        # the printed expansions
    if c.suite == "identities" or c.check_id == "rec_thm5_remark":
        return f"order<={n_max}"
    return f"n<={n_max}"


@pytest.mark.parametrize("n_max", [0, 7, 11, 12])
def test_every_check_covers_n_max_but_the_symmetries(n_max):
    # Brute force, recursions, closed forms and cleared identities all
    # cover n_max; no cap but SYMMETRY_NMAX clamps a range below it.
    table = _coverage_table(n_max)
    assert len(table) == 251
    for c, (check_id, params, n_range) in zip(checks.REGISTRY, table):
        assert n_range == _one_range_rule(c, n_max), (check_id, params)


def test_env_cap_binds_every_check(monkeypatch):
    # n_max is held to the enumeration cap before any check runs, the
    # bijection passes (which read avoider_list, uncapped) included.
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    picked = [("bij_phi", None), ("bij_psi", None), ("bij_phin", None),
              ("transport_phi_des", None),
              ("transport_general", {"gamma": "2341"})]
    for check_id, params in picked:
        with pytest.raises(perms.EnumerationLimitError):
            checks.run_check(check_id, params, n_max=10)
        with pytest.raises(ValueError, match="non-negative"):
            checks.run_check(check_id, params, n_max=-1)
        assert checks.run_check(check_id, params, n_max=8).n_range == "n<=8"
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_suite("bijections", 10)
    with pytest.raises(perms.EnumerationLimitError, match="cap 8"):
        checks.run_suite("bijections", 15)
