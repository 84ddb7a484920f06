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


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _byte_table()[k][v]: the set bit positions of byte value v at byte k
_TABLE_BYTES = 8
_TABLE_MASK = (1 << 8 * _TABLE_BYTES) - 1
_BYTE_BITS: tuple[tuple[tuple[int, ...], ...], ...] = ()


def _byte_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The per-byte table of ``bit_tuple``, built whole on first use and
    assigned once, so a thread reads either no table or all of it."""
    global _BYTE_BITS
    if not _BYTE_BITS:
        table = []
        for k in range(0, 8 * _TABLE_BYTES, 8):
            row: list[tuple[int, ...]] = [()]
            for i in range(k, k + 8):
                row += [t + (i,) for t in row]  # the values with bit i set follow
            table.append(tuple(row))
        _BYTE_BITS = tuple(table)
    return _BYTE_BITS


def bit_tuple(mask: int) -> tuple[int, ...]:
    """The set bit positions in ascending order, as ``tuple(bits(mask))``.

    The low ``_TABLE_BYTES`` bytes are read a byte at a time from a fixed
    table of 8 x 256 entries, so its memory stays bounded however wide
    the mask; any higher bits go through ``bits``.  Cheaper than ``bits``
    for a whole tuple; ``bits`` stays the reader for loops.
    """
    out: tuple[int, ...] = ()
    low = mask & _TABLE_MASK
    for row in _BYTE_BITS or _byte_table():
        if not low:
            break
        out += row[low & 255]
        low >>= 8
    if mask > _TABLE_MASK:
        out += tuple(bits(mask & ~_TABLE_MASK))
    return out


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def member_vector(mask: int, width: int) -> str:
    """Membership string, index 0 first: "1" where the bit is set.

    The order key for lexicographic ties.  Strings of one width compare
    character by character, so two masks below ``1 << width`` order by
    their lowest differing bit, the mask holding it last.
    """
    return format(mask, f"0{width}b")[::-1]


def concept_key(mask: int, width: int) -> tuple[int, str]:
    """Concept order, sorted descending: by size, then holding the lowest
    differing object first, as ``Concept.sort_key`` lists extents."""
    return mask.bit_count(), member_vector(mask, width)
