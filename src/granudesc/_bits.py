"""Small helpers for sets represented as integer bitmasks.

Bit i of an object mask stands for object index i; likewise for
attributes.  Python integers are arbitrary width, so these work for any
context size.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def flags_mask(flags: Iterable[bool]) -> int:
    """The mask with bit i set where flag i is true (one flag or more),
    read by ``int`` in C from the flags as binary digits, highest first."""
    return int(bytes(flags).translate(_FLAG_DIGITS)[::-1], 2)


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Unbuilt:
    """Stands for row k of the table of ``bit_tuple`` until its first read,
    which builds the row whole and puts it in the table by one item
    assignment, so a thread reads either this stand-in or all of the row."""

    def __init__(self, k: int) -> None:
        self.k = k

    def __getitem__(self, value: int) -> tuple[int, ...]:
        row: list[tuple[int, ...]] = [()]
        for i in range(8 * self.k, 8 * self.k + 8):
            row += [t + (i,) for t in row]  # the values with bit i set follow
        _BYTE_ROWS[self.k] = built = tuple(row)
        return built[value]


# _BYTE_ROWS[k][v]: the set bit positions of byte value v at byte k
_TABLE_BYTES = 8
_TABLE_MASK = (1 << 8 * _TABLE_BYTES) - 1
_BYTE_ROWS: list[tuple[tuple[int, ...], ...] | _Unbuilt] = [
    _Unbuilt(k) for k in range(_TABLE_BYTES)
]


def bit_tuple(mask: int) -> tuple[int, ...]:
    """The set bit positions in ascending order, as ``tuple(bits(mask))``.

    The low ``_TABLE_BYTES`` bytes are read a byte at a time from a table
    of 256 entries per byte, each row built when a mask first reaches its
    byte, so a mask of at most 8 bits builds one row and the table's
    memory stays bounded however wide the mask; any higher bits go
    through ``bits``.  Cheaper than ``bits`` for a whole tuple; ``bits``
    stays the reader for loops.
    """
    out: tuple[int, ...] = ()
    low = mask & _TABLE_MASK
    for row in _BYTE_ROWS:
        if not low:
            break
        out += row[low & 255]
        low >>= 8
    if mask > _TABLE_MASK:
        out += tuple(bits(mask & ~_TABLE_MASK))
    return out


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def concept_order(masks: Iterable[int], width: int) -> list[int]:
    """Distinct masks below ``1 << width`` in concept order, the order in
    which ``Concept.sort_key`` lists extents: larger first, then holding
    the lowest differing object first.  Two stable sorts, both
    descending: by the membership string, bit 0 first (of two strings of
    one width, the greater holds the lowest bit where they differ), then
    by size."""
    fmt = f"0{width}b"
    order = sorted(masks, key=lambda m: format(m, fmt)[::-1], reverse=True)
    order.sort(key=int.bit_count, reverse=True)
    return order
