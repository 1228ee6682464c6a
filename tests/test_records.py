"""patlab's records are immutable named tuples, and `import patlab` loads no
`dataclasses` or `inspect`.

Each of the seven records (CatalogEntry, ClosedForm, IdentityVerdict and
Identity in catalog, CheckResult and CheckDef in checks, DistributionSlice in
oracle) refuses attribute assignment, builds by keyword with its defaults,
compares by value and reprs as `Name(field=value, ...)`.  A record is a
tuple, so it also unpacks, indexes and equals a plain tuple of its fields;
no `isinstance(..., tuple)` test in src/patlab can receive one, and
test_no_source_module_tests_for_a_tuple keeps it so.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patlab
from patlab import catalog, checks, oracle
from patlab.series import Poly

PACKAGE = Path(patlab.__file__).parent


def _fn(*args):
    return None


# (record, keyword arguments for every field, fields left to their defaults
# with their default values)
RECORDS = [
    (catalog.CatalogEntry,
     dict(id="e", trust=catalog.HARD_PASS, avoided=(1, 3, 2),
          variables=("t", "y", "x"), anchor="A = 1 + tA^2",
          unknowns=("A",), equations=_fn, tracked=_fn),
     dict(derive=None, m_min=None, a_bounds=None)),
    (catalog.ClosedForm,
     dict(trust=catalog.REPORT_ONLY, family="fam_132_1m", k0_route=True,
          coeff=_fn),
     {}),
    (catalog.IdentityVerdict, dict(identity_id="thm1_quadratic", ok=True),
     dict(witness=None)),
    (catalog.Identity, dict(trust=catalog.HARD_PASS, entry="thm1"),
     dict(residual=None, printed=None, instances=((),))),
    (checks.CheckResult,
     dict(check_id="c", params={"m": 3}, n_range="n<=10", status="pass",
          witness=None),
     {}),
    (checks.CheckDef,
     dict(check_id="c", suite="sequences", trust=catalog.HARD_PASS,
          params={"m": 3}, runner=_fn),
     {}),
    (oracle.DistributionSlice,
     dict(n=3, avoided=(1, 3, 2), tracked=((1, 2, 3),), variables=("x",),
          poly=Poly.variable("x")),
     {}),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=IDS)
def test_a_record_keeps_its_fields_defaults_equality_and_repr(record, given,
                                                              defaults):
    rec = record(**given)
    fields = {**given, **defaults}
    assert record._fields == tuple(fields)
    assert {f: getattr(rec, f) for f in record._fields} == fields
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert rec == record(**fields) and rec == tuple(fields.values())
    first = record._fields[0]
    assert rec != record(**{**fields, first: "other"})
    assert repr(rec) == (f"{record.__name__}("
                         + ", ".join(f"{k}={v!r}" for k, v in fields.items())
                         + ")")


def test_the_registered_records_keep_their_methods_and_defaults():
    entry = catalog.CATALOG["fam_132_a1m"]
    assert entry.needs_m and entry.pattern_variables == ("x",)
    with pytest.raises(ValueError, match="needs a head parameter a"):
        entry.check_params(m=4)
    thm8 = catalog.CATALOG["thm8"]
    assert (thm8.derive, thm8.m_min, thm8.a_bounds) == (None, None, None)
    ident = catalog.IDENTITIES["thm8_expansion"]
    assert ident.residual is None and ident.instances == ((),)
    assert ident.top(16) == max(ident.printed) == 5 and ident.top(3) == 3
    assert catalog.IDENTITIES["thm8_rational"].top(16) == 16
    verdict = catalog.printed_identity_check("thm1_quadratic", 6)
    assert verdict == catalog.IdentityVerdict("thm1_quadratic", True)


def test_no_source_module_tests_for_a_tuple():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    in ("isinstance", "issubclass")
                    and any(isinstance(n, ast.Name) and n.id == "tuple"
                            for n in ast.walk(node.args[1]))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"a record would pass these tuple tests: {found}"


def test_importing_patlab_loads_no_dataclasses_or_inspect():
    # Modules loaded at start-up (site and what it imports) are not counted:
    # only what each import adds.
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import patlab\n"
            "package = set(sys.modules)\n"
            "import patlab.cli\n"
            "print(json.dumps([sorted(package - before),\n"
            "                  sorted(set(sys.modules) - package)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, cli = json.loads(proc.stdout)
    assert "patlab.catalog" in package and "patlab.cli" in cli
    for added in (package, cli):
        assert not {"dataclasses", "inspect"} & set(added), added


def test_importing_patlab_loads_no_fractions_decimal_or_json():
    # Each is imported where it is first used: Fraction by the closed forms
    # and witnesses, json by report sorting and output.  Only what the
    # imports add is counted, as above.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import patlab, patlab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"patlab.catalog", "patlab.checks", "patlab.cli"} <= added
    assert not {"fractions", "decimal", "_decimal", "json"} & added, added
