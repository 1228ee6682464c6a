"""patlab.limits is the one table of caps; a cap that no module reads any
more is dead and goes with the code that used it."""

import ast
from pathlib import Path

import patlab

PACKAGE = Path(patlab.__file__).parent


def test_every_limit_is_imported_by_another_module():
    limits = PACKAGE / "limits.py"
    defined = {t.id for node in ast.parse(limits.read_text()).body
               if isinstance(node, ast.Assign) for t in node.targets}
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "limits":
                imported.update(alias.name for alias in node.names)
    assert "DEFAULT_MAX_N" in defined
    assert not defined - imported, f"caps no module imports: {sorted(defined - imported)}"
