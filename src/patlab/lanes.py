"""Byte lanes: one small unsigned value per row, carried in one big int.

Lane i of an int is its byte i, little-endian.  A column of m rows is one
int with m lanes, and one big-int operation acts on every lane at once.
Values compared stay below 128, so that a comparison never borrows from the
next lane; sums stay below 256, so that no carry crosses into it.  This
module owns the format; it imports nothing from patlab.

>>> high = units(3)[1]                             # 0x808080
>>> a, b = columns(bytes((1, 5, 7, 7, 9, 2)), 2)   # the rows 15, 77, 92
>>> unpack(below(a, b, high), 3)                   # 1 <= 5, 7 <= 7, 9 > 2
b'\\x80\\x80\\x00'
>>> list(unpack(select(below(a, b, high), a, b), 3))   # the row minima
[1, 7, 2]
"""

from __future__ import annotations

_BYTES = bytes(range(256))  # every byte value; slices are delete sets
_FLAGGED = _BYTES[128:]      # the byte values with bit 7 set
_LEAF = 8  # tally counts a range of at most this many values one by one


def units(m: int) -> tuple[int, int]:
    """0x01 and 0x80 in each of m lanes."""
    ones = int.from_bytes(b"\x01" * m, "little")
    return ones, ones << 7


def below(a: int, b: int, high: int) -> int:
    """Bit 7 of each lane set where a's lane is at most b's.

    high is units(m)[1]; lanes hold values below 128, so no borrow crosses
    into the next lane of (b | high) - a."""
    return ((b | high) - a) & high


def spread(flags: int) -> int:
    """0xFF in each lane whose bit 7 is set in flags, 0 in the others."""
    return (flags >> 7) * 0xFF


def select(flags: int, a: int, b: int) -> int:
    """a's lanes where flags has bit 7 set, b's in the others."""
    return b ^ (a ^ b) & spread(flags)


def drop(x: int, flags: int, m: int, table: bytes) -> bytes:
    """The values of x's m lanes, lane 0 first, each mapped through table
    (a bytes.translate table), without the lanes where flags has bit 7 set.
    x's lanes hold values below 128, so one translate of x | flags that
    deletes the bytes 128..255 does both.

    >>> x, flags = 0x07040903, 0x00008000        # lanes 3, 9, 4, 7; lane 1 flagged
    >>> list(drop(x, flags, 4, bytes(range(1, 256)) + b"\\0"))   # the rest, plus one
    [4, 5, 8]
    """
    return unpack(x | flags, m).translate(table, _FLAGGED)


def tally(values: bytes, radix: int) -> dict[int, int]:
    """{value: count} over the bytes of values, each below radix <= 256.

    The value range is halved until it is at most _LEAF values wide, each
    half kept by one translate that deletes the other half's values; then
    each value of a range is counted in its part.  Empty parts are not
    split, and a part is freed once it is split, values too if the caller
    keeps no reference to it.

    >>> tally(bytes((3, 0, 3, 9, 3)), 12)
    {0: 1, 3: 3, 9: 1}
    """
    out = {}
    parts = [(values, 0, radix)]
    del values  # the stack holds the only reference the tally keeps
    while parts:
        part, lo, hi = parts.pop()
        if hi - lo <= _LEAF:
            for v in range(lo, hi):
                if count := part.count(v):
                    out[v] = count
            continue
        mid = (lo + hi) // 2
        low = part.translate(None, _BYTES[mid:hi])
        if len(low) < len(part):
            parts.append((part.translate(None, _BYTES[lo:mid]) if low else part,
                          mid, hi))
        if low:
            parts.append((low, lo, mid))
    return out


def pack(values: bytes) -> int:
    """The int whose lanes hold values, lane 0 first."""
    return int.from_bytes(values, "little")


def columns(rows: bytes, n: int) -> list[int]:
    """The n columns of rows of n bytes each: column j holds entry j of
    every row, one lane per row."""
    return [pack(rows[j::n]) for j in range(n)]


def unpack(x: int, m: int) -> bytes:
    """The values of x's m lanes, lane 0 first."""
    return x.to_bytes(m, "little")


def window(x: int, lo: int, hi: int) -> bytes:
    """The values of x's lanes lo..hi-1, lane lo first; no other is unpacked."""
    return unpack((x >> 8 * lo) & ((1 << 8 * (hi - lo)) - 1), hi - lo)
