"""patlab.lanes is the one owner of the byte-lane format: its primitives
against their per-lane definitions, and a structural pin, in the style of
tests/test_limits.py, that no other module builds the lane masks or the
bit-7 delete set, or translates bytes."""

import ast
from collections import Counter
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
    cols = lanes.columns(b"".join(map(bytes, rows)), n)
    assert len(cols) == n
    cls = perms.PackedClass(cols, len(rows))
    assert cls.columns() is cols
    assert list(cls) == [tuple(r) for r in rows]
    assert lanes.columns(b"".join(map(bytes, cls)), n) == cols


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 127)), max_size=20),
       st.binary(min_size=256, max_size=256))
@example([], bytes(256))
@example([(False, 0)], bytes(range(1, 256)) + b"\0")
@example([(True, 127)], bytes(256))
@settings(max_examples=200, deadline=None)
def test_drop_is_the_per_lane_filter_and_map(lanes_drawn, table):
    m = len(lanes_drawn)
    x = _int(v for _, v in lanes_drawn)
    flags = _int(0x80 if f else 0 for f, _ in lanes_drawn)
    assert lanes.drop(x, flags, m, table) == bytes(
        table[v] for f, v in lanes_drawn if not f)


@given(st.binary(max_size=40).flatmap(lambda values: st.tuples(
    st.just(values), st.integers(0, len(values)).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, len(values)))))))
@example((b"", (0, 0)))
@example((bytes(range(255, 215, -1)), (0, 40)))
@example((b"\0\0\0\xff", (1, 3)))
@settings(max_examples=200, deadline=None)
def test_window_is_a_slice_of_the_lanes(case):
    values, (lo, hi) = case
    assert lanes.window(lanes.pack(values), lo, hi) == values[lo:hi]


@given(st.integers(1, 256).flatmap(lambda radix: st.tuples(
    st.just(radix), st.binary(max_size=600).map(
        lambda b: bytes(v % radix for v in b)))))
@example((1, b""))
@example((256, b""))
@example((1, bytes(40)))
@example((132, bytes([77]) * 300))
@example((256, bytes(range(256))))
@example((9, bytes([8]) * 5))
@example((132, bytes([131]) * 1000))
@settings(max_examples=300, deadline=None)
def test_tally_is_the_byte_counter(case):
    radix, values = case
    got = lanes.tally(values, radix)
    assert got == dict(Counter(values))


def _is_int_from_bytes(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_bytes"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "int")


def _is_range_from_128(node):
    # range(128, ...): the start of the bit-7 delete set of lanes.drop.
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 128)


def _is_translate(node):
    # x.translate(...): the byte filter of lanes.drop and lanes.tally.
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "translate")


def test_lanes_is_the_one_owner_of_the_lane_masks():
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (path.name != "lanes.py" and isinstance(node, ast.Constant)
                    and node.value in (b"\x80", b"\x01")):
                builders.append(f"{path.name}:{node.lineno}")
            if path.name != "lanes.py" and _is_range_from_128(node):
                builders.append(f"{path.name}:{node.lineno} bit-7 delete set")
            if path.name != "lanes.py" and _is_translate(node):
                builders.append(f"{path.name}:{node.lineno} translate")
            if path.name == "oracle.py" and _is_int_from_bytes(node):
                builders.append(f"{path.name}:{node.lineno} int.from_bytes")
    assert not builders, f"lane format handled outside lanes.py: {builders}"


def test_lanes_imports_nothing_from_patlab():
    tree = ast.parse((PACKAGE / "lanes.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("patlab")
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "patlab" for a in node.names)
