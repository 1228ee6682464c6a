"""Acceptance criteria, one test per criterion.

Every comparison is an exact integer equality; there are no tolerances.
Each test prints a single PASS/FAIL line (visible with pytest -s), and the
full module doubles as the conformance gate for the build.
"""

import hashlib
import itertools

from patlab import catalog, checks, perms
from patlab.series import Poly, catalan, poly_str


def _report(criterion, description, ok):
    line = f"ACCEPTANCE {criterion} ({description}): {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def _all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    for r in bad:
        print(f"  FAIL {r.check_id} {r.params}: {r.witness}")
    return not bad


def test_criterion_01_catalan_counts():
    ok = True
    for lam in itertools.permutations((1, 2, 3)):
        res = checks.run_check("seq_catalan_avoiders",
                               {"avoid": perms.perm_str(lam)}, n_max=12)
        ok = ok and res.status == "pass"
    ok = ok and catalan(12) == 208012
    _report(1, "avoider counts are Catalan for n <= 12", ok)


def test_criterion_02_bijection_round_trips():
    results = [checks.run_check("bij_phi", n_max=10),
               checks.run_check("bij_psi", n_max=10),
               checks.run_check("bij_phin", n_max=9)]
    ok = _all_pass(results)
    _report(2, "staircase bijections and the descent-preserving map", ok)


def test_criterion_03_statistic_transport():
    results = [checks.run_check(f"transport_{s}", n_max=10)
               for s in ("psi_des", "psi_132", "psi_231", "phi_des", "phi_123")]
    general = [c for c in checks.REGISTRY if c.check_id == "transport_general"]
    assert len(general) == 32
    results += [checks.run_check("transport_general", c.params, n_max=9)
                for c in general]
    ok = _all_pass(results)
    _report(3, "statistic transport incl. the general reduction", ok)


def test_criterion_04_symmetry_suites():
    report = checks.run_suite("symmetries", 9)
    ok = (report["aggregate"] == "pass"
          and all(c["status"] == "pass" for c in report["checks"]))
    _report(4, "reverse/complement and slice-reversal symmetries", ok)


def test_criterion_05_hard_recursions():
    results = []
    for tid in ("thm1", "thm2", "thm4", "thm5", "thm6", "thm8"):
        results.append(checks.run_check(f"rec_{tid}", n_max=10))
    for fid, ms in (("fam_123_1m2", (2, 3, 4, 5)),
                    ("fam_123_2m31", (3, 4, 5)),
                    ("fam_132_1m", (3, 4, 5)),
                    ("fam_132_m1head", (3, 4, 5)),
                    ("fam_132_2m1", (3, 4, 5))):
        for m in ms:
            results.append(checks.run_check(
                f"rec_{fid}", {"m": m, "series": fid}, n_max=10))
    ok = _all_pass(results)
    # spot values stated for the gate
    thm5 = catalog.solve_catalog("thm5", 4).substitute({"y": 1})
    ok = ok and poly_str(thm5.t_slice(4)) == "8 + 6*x"
    fam = catalog.solve_catalog("fam_123_2m31", 4, m=3)
    ok = ok and poly_str(fam.t_slice(4)) == "9 + 5*x"
    thm8 = catalog.solve_catalog("thm8", 3)
    printed = (Poly.variable("x1") + Poly.variable("x2") * Poly.variable("y")
               + Poly.variable("x3") * Poly.variable("y")
               + Poly.variable("x4") * Poly.variable("y", 2)
               + Poly.variable("y"))
    ok = ok and thm8.t_slice(3) == printed
    _report(5, "hard-pass recursions equal the oracle to n = 10", ok)


def test_criterion_06_investigation_set():
    outcomes = {}
    for cid, params in (("rec_thm3", {}), ("rec_thm7", {}),
                        ("rec_fam_132_a1m", {"m": 4, "a": 2}),
                        ("rec_fam_132_a2m1", {"m": 4, "a": 3}),
                        ("rec_fam_132_m1m1", {"m": 4})):
        first = checks.run_check(cid, params or None, n_max=9)
        second = checks.run_check(cid, params or None, n_max=9)
        outcomes[cid] = first.status
        assert first.status in ("report_only_pass", "report_only_fail")
        assert (first.status, first.witness) == (second.status, second.witness)
    cross = checks.run_check("cross_a2m1_m1m1", n_max=9)
    ok = cross.status == "pass"
    print(f"  investigation verdicts: {outcomes}")
    _report(6, "investigation systems solved with recorded verdicts", ok)


def test_criterion_07_closed_form_hard_pass():
    results = []
    for m in (2, 3, 4):
        results.append(checks.run_check("cf_123_1m2",
                                        {"form": "cf_123_1m2", "m": m},
                                        n_max=10))
        results.append(checks.run_check("cf_132_1m",
                                        {"form": "cf_132_1m", "m": m},
                                        n_max=10))
    ok = _all_pass(results)
    _report(7, "closed forms equal oracle coefficients, k = 0 via complement", ok)


def test_criterion_08_closed_form_report_only():
    r2 = checks.run_check("cf_thm2eq", n_max=8)
    r5 = checks.run_check("cf_thm5eq", n_max=8)
    ok = (r2.status == "report_only_fail"
          and r2.witness == {"n": 3, "monomial": "x^1", "expected": 1,
                             "actual": 0}
          and r5.status == "report_only_fail"
          and r5.witness == {"n": 4, "monomial": "x^1", "expected": 6,
                             "actual": 4})
    _report(8, "documented closed-form discrepancies are reported", ok)


def test_criterion_09_reference_sequences():
    results = [checks.run_check(cid, n_max=10)
               for cid in ("seq_123_231_x0_thm2", "seq_132_213_x0_thm6",
                           "seq_132_231_x0_thm5", "seq_motzkin_thm1",
                           "seq_motzkin_thm4")]
    ok = _all_pass(results)
    _report(9, "series specialisations match the reference sequences", ok)


def test_criterion_10_specialisation_identities():
    results = [checks.run_check(f"spec_thm8_{other}", n_max=10)
               for other in ("thm4", "thm5", "thm6")]
    ok = _all_pass(results)
    _report(10, "four-pattern series specialises onto each single-pattern one", ok)


def test_criterion_11_lagrange_inversion():
    results = [checks.run_check("cf_series_fam_123_1m2", {"m": m}, n_max=14)
               for m in (2, 3, 4)]
    ok = _all_pass(results)
    _report(11, "closed form equals the fixed-point series to n = 14", ok)


def test_criterion_12_printed_identities():
    quad = checks.run_check("ident_thm1_quadratic", n_max=8)
    rational = checks.run_check("ident_thm8_rational", n_max=8)
    expansion = checks.run_check("ident_thm7_expansion", n_max=5)
    printed_t3 = sum(coeff for coeff, _ in catalog._THM7_PRINTED[3])
    ok = (quad.status == "pass" and rational.status == "pass"
          and expansion.status == "report_only_fail"
          and expansion.witness == {"n": 3, "monomial": "1", "expected": 1,
                                    "actual": 0}
          and printed_t3 == 6 and catalan(3) == 5)
    _report(12, "cleared identities vanish; the misprinted expansion is flagged", ok)


# sha256 of `patlab verify --suite all --nmax 10`'s report, and of --nmax 12's
REPORT_N10_SHA256 = "c195ebf9fadd04ae4ae6acbd3f9214c8ef441f0c0e97dcd8da7b5ab6539c840f"
REPORT_N12_SHA256 = "74e1cfec42f72883c242e5642c1f31c9a17b00efb978d086f6e5f4675f8aeb3f"


def test_full_suite_aggregate():
    report = checks.run_suite("all", 10)
    counts = {}
    for entry in report["checks"]:
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    print(f"  full harness: {counts}")
    assert report["aggregate"] == "pass"
    assert counts.get("fail", 0) == 0
    # the report itself is fixed: every check, status and witness
    assert len(report["checks"]) == 251
    assert counts == {"pass": 226, "report_only_pass": 12,
                      "report_only_fail": 13}
    text = checks.report_to_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_N10_SHA256


def test_full_suite_report_at_the_oracle_cap():
    # Every check but the symmetries covers n <= 12 here, and the report is
    # still fixed: the same checks, statuses and witnesses as at n_max = 10.
    report = checks.run_suite("all", 12)
    counts = {}
    for entry in report["checks"]:
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    assert len(report["checks"]) == 251
    assert counts == {"pass": 226, "report_only_pass": 12,
                      "report_only_fail": 13}
    text = checks.report_to_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_N12_SHA256
