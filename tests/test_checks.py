import json

import pytest

from patlab import checks, dyck, perms
from patlab.limits import AVOIDERS_CACHED_MAX_N


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
    with pytest.raises(ValueError):
        checks.run_suite("sequences", 13)


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
    wrong = ((2, 1), ("RD",))             # psi_des without its RRR factor
    also_wrong = ((1, 3, 2), ("DRR",))    # a factor that overcounts 132
    stats = (((1, 3, 2), ("DRRR",)), wrong, ((2, 3, 1), ("DRRD",)),
             also_wrong)
    verdicts = checks._transport_verdicts((1, 2, 3), 7, stats)
    for stat in stats:
        ok, witness, n_range = verdicts[stat]
        want = _sequential_transport((1, 2, 3), 7, *stat)
        assert witness == want and ok == (want is None) and n_range == "n<=7"
    assert not verdicts[wrong][0] and not verdicts[also_wrong][0]
    # 132 has one descent; its path DDDRRR has no RD, only RRR
    assert verdicts[wrong][1] == {"n": 3, "monomial": "132",
                                  "expected": 1, "actual": 0}
    assert verdicts[stats[0]][0] and verdicts[stats[2]][0]


def test_transport_checks_match_the_suite_report():
    records = {(c["id"], json.dumps(c["params"], sort_keys=True)): c
               for c in checks.run_suite("bijections", 10)["checks"]}
    transports = [c for c in checks.REGISTRY
                  if c.check_id.startswith("transport_")]
    assert len(transports) == 5 + 32
    checks._transport_verdicts.cache_clear()   # run_check recomputes them
    for c in transports:
        res = checks.run_check(c.check_id, c.params, n_max=10)
        assert checks._result_json(res) == \
            records[(c.check_id, json.dumps(c.params, sort_keys=True))]
        assert res.n_range == ("n<=9" if c.check_id == "transport_general"
                               else "n<=10")


def _broken_preimage(real):
    # From n = 3 on, every path gets lam followed by 4..n, which contains lam.
    def broken(word, lam):
        n = len(word) // 2
        return lam + tuple(range(4, n + 1)) if n >= 3 else real(word, lam)
    return broken


def test_bij_psi_records_a_preimage_outside_the_class(monkeypatch):
    # A broken inverse whose preimage contains 123 must give a failing
    # witness, not an exception from the guarded map.
    monkeypatch.setattr(perms, "avoider_list", lambda lam, n: ())
    monkeypatch.setattr(dyck, "staircase_preimage",
                        _broken_preimage(dyck.staircase_preimage))
    res = checks.run_check("bij_psi", n_max=4)
    assert res.status == "fail"
    assert res.witness == {"n": 3, "monomial": "DDDRRR",
                           "expected": "123-avoider", "actual": "123"}


def test_bij_phi_records_a_preimage_outside_the_class(monkeypatch):
    monkeypatch.setattr(perms, "avoider_list", lambda lam, n: ())
    monkeypatch.setattr(dyck, "staircase_preimage",
                        _broken_preimage(dyck.staircase_preimage))
    res = checks.run_check("bij_phi", n_max=4)
    assert res.status == "fail"
    assert res.witness == {"n": 3, "monomial": "DDDRRR",
                           "expected": "132-avoider", "actual": "132"}


def test_catalan_counts_obey_the_env_cap_and_cache_nothing_above_it(monkeypatch):
    # The counts are read off the packed classes; the cap still binds, and
    # a class above AVOIDERS_CACHED_MAX_N is built fresh and dropped.
    perms.avoider_list.cache_clear()
    res = checks.run_check("seq_catalan_avoiders", {"avoid": "312"}, n_max=12)
    assert res.status == "pass" and res.n_range == "n<=12"
    assert perms.avoider_list.cache_info().currsize == AVOIDERS_CACHED_MAX_N + 1
    monkeypatch.setenv("PATLAB_NMAX_CAP", "8")
    with pytest.raises(perms.EnumerationLimitError):
        checks.run_check("seq_catalan_avoiders", {"avoid": "312"}, n_max=10)
