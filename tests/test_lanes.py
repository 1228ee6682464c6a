"""patlab.lanes is the one owner of the byte-lane format: its primitives
against their per-lane definitions, and a structural pin, in the style of
tests/test_limits.py, that no other module builds the lane masks."""

import ast
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import patlab
from patlab import lanes, perms

PACKAGE = Path(patlab.__file__).parent


def _int(values):
    return int.from_bytes(bytes(values), "little")


@given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 127)),
                max_size=20))
@example([])
@example([(0, 0)])
@example([(127, 0), (0, 127), (127, 127), (0, 0)])
@settings(max_examples=200, deadline=None)
def test_below_is_the_per_lane_comparison(pairs):
    m = len(pairs)
    a, b = _int(x for x, _ in pairs), _int(y for _, y in pairs)
    got = lanes.below(a, b, lanes.units(m)[1])
    assert lanes.unpack(got, m) == bytes(0x80 if x <= y else 0 for x, y in pairs)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 255),
                          st.integers(0, 255)), max_size=20))
@example([])
@settings(max_examples=200, deadline=None)
def test_select_is_the_per_lane_choice(lanes_drawn):
    m = len(lanes_drawn)
    flags = _int(0x80 if f else 0 for f, _, _ in lanes_drawn)
    a = _int(x for _, x, _ in lanes_drawn)
    b = _int(y for _, _, y in lanes_drawn)
    assert lanes.unpack(lanes.spread(flags), m) == bytes(
        0xFF if f else 0 for f, _, _ in lanes_drawn)
    assert lanes.unpack(lanes.select(flags, a, b), m) == bytes(
        x if f else y for f, x, y in lanes_drawn)


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.permutations(list(range(1, n + 1))), max_size=12))))
@settings(max_examples=100, deadline=None)
def test_columns_round_trip_the_rows_of_a_packed_class(case):
    n, rows = case
    cls = perms.PackedClass(n, [bytes(r) for r in rows])
    cols = lanes.columns(cls.rows, n)
    assert cls.columns() == cols
    assert len(cols) == n
    back = zip(*(lanes.unpack(c, len(cls)) for c in cols))
    assert b"".join(map(bytes, back)) == cls.rows


def _is_int_from_bytes(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_bytes"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "int")


def test_lanes_is_the_one_owner_of_the_lane_masks():
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (path.name != "lanes.py" and isinstance(node, ast.Constant)
                    and node.value in (b"\x80", b"\x01")):
                builders.append(f"{path.name}:{node.lineno}")
            if path.name == "oracle.py" and _is_int_from_bytes(node):
                builders.append(f"{path.name}:{node.lineno} int.from_bytes")
    assert not builders, f"lane masks built outside lanes.py: {builders}"


def test_lanes_imports_nothing_from_patlab():
    tree = ast.parse((PACKAGE / "lanes.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("patlab")
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "patlab" for a in node.names)
