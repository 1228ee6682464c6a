"""The one way the tests build a packed class: from its rows."""

from patlab import lanes, perms


def packed_class(n, rows):
    """The PackedClass of rows, each a sequence of n entries, in order."""
    rows = [bytes(r) for r in rows]
    return perms.PackedClass(lanes.columns(b"".join(rows), n), len(rows))
