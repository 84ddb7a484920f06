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


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def member_vector(mask: int, width: int) -> str:
    """Membership string, index 0 first: "1" where the bit is set.

    The order key for lexicographic ties and for the kernel's lectic
    order.  Strings of one width compare character by character, so two
    masks below ``1 << width`` order by their lowest differing bit, the
    mask holding it last.
    """
    return format(mask, f"0{width}b")[::-1]
