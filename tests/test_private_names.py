"""A module-level private function, class or constant that nothing in
patlab names any more is dead, and goes with the code that used it."""

import ast
from pathlib import Path

import patlab

PACKAGE = Path(patlab.__file__).parent


def _names(node):
    # Every name the node's subtree reads: variables, attributes, imports.
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_module_name_is_named_elsewhere():
    # A definition's own body does not count: a recursive helper whose
    # last caller is gone is dead too.
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, ast.Assign):
                own = {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign):
                own = {node.target.id}
            else:
                own = set()
            named.update(set(_names(node)) - own)
            defined.update((name, f"{path.name}:{node.lineno}") for name in own
                           if name.startswith("_") and not name.startswith("__"))
    dead = {name: where for name, where in defined.items() if name not in named}
    assert not dead, f"private names nothing else names: {dead}"
