import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import patlab
from patlab import catalog
from patlab.cli import build_parser, main
from patlab.limits import DIST_NMAX
from patlab.series import Poly, poly_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_text(capsys):
    code, out, _ = run_cli(capsys, "dist", "--avoid", "132",
                           "--track", "123,213,231,321", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1] == "n=3: x1 + y + x2*y + x3*y + x4*y^2"


def test_dist_single_pattern_with_set(capsys):
    code, out, _ = run_cli(capsys, "dist", "--avoid", "123", "--track", "231",
                           "--n", "4", "--set", "y=1")
    assert code == 0
    assert out.splitlines()[-1] == "n=4: 9 + 5*x1"
    assert out.splitlines()[0] == "n=0: 1"


def test_dist_formats(capsys):
    code, out, _ = run_cli(capsys, "dist", "--avoid", "123", "--track", "132",
                           "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slices"][3]["poly"] == "3*y + x1*y + y^2"
    code, out, _ = run_cli(capsys, "dist", "--avoid", "123", "--track", "132",
                           "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,monomial,coefficient"
    assert "2,y,1" in out.splitlines()


def test_dist_usage_errors(capsys):
    code, _, err = run_cli(capsys, "dist", "--avoid", "1234",
                           "--track", "132", "--n", "3")
    assert code == 2 and "length-3" in err
    code, _, err = run_cli(capsys, "dist", "--avoid", "123",
                           "--track", "132", "--n", "15")
    assert code == 2
    code, _, err = run_cli(capsys, "dist", "--avoid", "132",
                           "--track", "12,21,123,321,213", "--n", "3")
    assert code == 2 and "distinct variables" in err
    code, _, err = run_cli(capsys, "dist", "--avoid", "132", "--track", "12",
                           "--n", "3", "--set", "z=2")
    assert code == 2 and "unknown variable 'z'" in err


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "--id", "thm5", "--order", "4",
                           "--set", "y=1")
    assert code == 0
    assert out.strip() == "1 + t + 2*t^2 + (4+x)*t^3 + (8+6x)*t^4"
    code, out, _ = run_cli(capsys, "series", "--id", "fam_123_1m2", "--m", "3",
                           "--order", "5", "--set", "y=1,x=0")
    assert code == 0
    assert out.strip() == "1 + t + 2*t^2 + 4*t^3 + 9*t^4 + 21*t^5"


def test_series_at_the_hard_cap_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "series", "--id", "thm8", "--order", "16")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "21d7b94bffa0debb04084d29ab21426fc8a0ebb59e44ca61279c9d3af4e70705")


def test_series_domain_error(capsys):
    code, _, err = run_cli(capsys, "series", "--id", "fam_132_a1m",
                           "--m", "3", "--a", "1")
    assert code == 2 and "2 <= a" in err
    code, _, err = run_cli(capsys, "series", "--id", "thm9")
    assert code == 2
    code, _, err = run_cli(capsys, "series", "--id", "thm5", "--order", "3",
                           "--set", "z=1")
    assert code == 2 and "unknown variable 'z'" in err


@pytest.mark.parametrize("sets", [("x=1,y=2,x=3",), ("x=1", "y=2", " x=3")],
                         ids=["one flag", "repeated flags"])
@pytest.mark.parametrize("command", [
    ("series", "--id", "thm5", "--order", "2"),
    ("dist", "--avoid", "132", "--track", "123", "--n", "2"),
], ids=["series", "dist"])
def test_set_naming_a_variable_twice_is_a_usage_error(capsys, command, sets):
    argv = list(command)
    for chunk in sets:
        argv += ["--set", chunk]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --set names x more than once\n")


def test_coeff_command(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--id", "thm1eq", "--n", "4",
                           "--k", "1")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "coeff", "--id", "thm4eq", "--n", "4",
                           "--k", "1")
    assert code == 0 and out.strip() == "4"


def test_coeff_warns_on_report_only_disagreement(capsys):
    code, out, err = run_cli(capsys, "coeff", "--id", "thm5eq", "--n", "4",
                             "--k", "1")
    assert code == 0 and out.strip() == "4"
    assert "oracle value is 6" in err


def test_coeff_k0_usage_error(capsys):
    code, _, err = run_cli(capsys, "coeff", "--id", "cf_123_1m2", "--n", "4",
                           "--k", "0", "--m", "3")
    assert code == 2 and "C_n" in err


def test_bijection_command(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--map", "phi",
                           "--perm", "867943251")
    assert code == 0 and out.strip() == "DDRDDRRRDDRDRDRRDR"
    code, out, _ = run_cli(capsys, "bijection", "--map", "psi",
                           "--path", "DDRDDRRRDDRDRDRRDR", "--inverse")
    assert code == 0 and out.strip() == "869743251"
    code, out, _ = run_cli(capsys, "bijection", "--map", "phin",
                           "--perm", "32415")
    assert code == 0 and out.strip() == "53412"
    code, out, _ = run_cli(capsys, "bijection", "--map", "phin",
                           "--perm", "53412", "--inverse")
    assert code == 0 and out.strip() == "32415"


def test_bijection_domain_errors(capsys):
    code, _, err = run_cli(capsys, "bijection", "--map", "phi",
                           "--perm", "132")
    assert code == 2 and "132" in err
    code, _, err = run_cli(capsys, "bijection", "--map", "phi",
                           "--path", "RD", "--inverse")
    assert code == 2 and "index 0" in err
    code, _, err = run_cli(capsys, "bijection", "--map", "phi")
    assert code == 2


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "sequences",
                           "--nmax", "6", "--report", str(target))
    assert code == 0
    assert "aggregate=pass" in out
    doc = json.loads(target.read_text())
    assert doc["suite"] == "sequences"
    # byte-identical reruns
    first = target.read_text()
    run_cli(capsys, "verify", "--suite", "sequences", "--nmax", "6",
            "--report", str(target))
    assert target.read_text() == first


def test_verify_stdout_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijections",
                           "--nmax", "5")
    assert code == 0
    json.loads(out)
    code, _, err = run_cli(capsys, "verify", "--suite", "sequences",
                           "--nmax", "15")
    assert code == 2


def test_verify_nmax_defaults_to_the_limits_table():
    assert build_parser().parse_args(["verify"]).nmax == DIST_NMAX


def test_verify_unwritable_report(tmp_path, capsys):
    target = tmp_path / "nope" / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "sequences",
                           "--nmax", "5", "--report", str(target))
    assert code == 3 and "cannot write report" in err


def test_env_cap_lowers_cli_limit(monkeypatch, capsys):
    monkeypatch.setenv("PATLAB_NMAX_CAP", "4")
    code, _, err = run_cli(capsys, "dist", "--avoid", "123", "--track", "132",
                           "--n", "5")
    assert code == 2
    code, out, _ = run_cli(capsys, "dist", "--avoid", "123", "--track", "132",
                           "--n", "4")
    assert code == 0


def test_determinism(capsys):
    args = ("series", "--id", "thm8", "--order", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_negative_sizes_are_usage_errors(tmp_path, capsys):
    target = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "symmetries",
                             "--nmax", "-1", "--report", str(target))
    assert code == 2 and "--nmax must be non-negative" in err
    assert not target.exists() and out == ""
    code, out, err = run_cli(capsys, "dist", "--avoid", "132", "--track", "123",
                             "--n", "-1")
    assert code == 2 and "--n must be non-negative" in err and out == ""


def test_coeff_oracle_warning_respects_the_env_cap(monkeypatch, capsys):
    # thm5eq at n = 4, k = 1 prints 4; the oracle gives 6
    args = ("coeff", "--id", "thm5eq", "--n", "4", "--k", "1")
    monkeypatch.setenv("PATLAB_NMAX_CAP", "3")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and out.strip() == "4" and err == ""
    monkeypatch.setenv("PATLAB_NMAX_CAP", "4")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and out.strip() == "4" and "oracle value is 6" in err


def test_dist_reaches_n_13_by_brute_force(capsys):
    # Brute force's one bound is the enumeration cap: n = 13 runs, and its
    # slice equals the solved thm5 (231 over 132, with descents).
    code, out, _ = run_cli(capsys, "dist", "--avoid", "132", "--track", "231",
                           "--n", "13")
    assert code == 0
    solved = catalog.solve_catalog("thm5", 13).t_slice(13)
    want = poly_str(solved.substitute({"x": Poly.variable("x1")}))
    assert out.splitlines()[-1] == f"n=13: {want}"


def test_coeff_warns_from_the_oracle_up_to_n_14(capsys):
    # thm5eq is report-only: at n = 13 its value is checked against the
    # oracle, which agrees with the hard fam_132_2m1 solve; above the cap
    # no oracle value is read.
    truth = catalog.solve_catalog("fam_132_2m1", 13, m=3).t_slice(13)
    code, out, err = run_cli(capsys, "coeff", "--id", "thm5eq", "--n", "13",
                             "--k", "1")
    assert code == 0 and truth.coefficient({"x": 1}) == 67584
    assert err == (f"warning: thm5eq is a report-only formula; "
                   f"the oracle value is 67584\n")
    code, out, err = run_cli(capsys, "coeff", "--id", "thm5eq", "--n", "15",
                             "--k", "1")
    assert code == 0 and out.strip() and err == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """(argv, result) for each command of README's CLI block; result is its
    `# ->` annotation, on its line or the next, else None."""
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        code, _, note = line.partition("#")
        if code.strip():
            out.append([shlex.split(code)[1:], None])
        if note.startswith(" -> "):
            out[-1][1] = note[4:]
    return out


def test_readme_commands_run_through_python_m_patlab(tmp_path):
    # Each in a fresh interpreter, the cold path that main() in-process
    # never takes.
    commands = _readme_commands()
    assert [r for _, r in commands if r] == [
        "9 + 5*x1", "1 + t + 2*t^2 + (4+x)*t^3 + (8+6x)*t^4", "5",
        "4, with a warning"]
    env = {k: v for k, v in os.environ.items() if k != "PATLAB_NMAX_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(patlab.__file__).parents[1]), env.get("PYTHONPATH", "")])
    for argv, result in commands:
        if argv[0] == "verify":
            argv = argv[:-1] + [str(tmp_path / argv[-1])]
        proc = subprocess.run([sys.executable, "-m", "patlab", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        last = proc.stdout.splitlines()[-1]
        if result is None:
            continue
        value, warned, _ = result.partition(", with a warning")
        assert last == value or last.endswith(": " + value), (argv, last)
        assert proc.stderr.startswith("warning:") == bool(warned), argv
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["aggregate"] == "pass" and len(report["checks"]) == 251
