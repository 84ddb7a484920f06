"""Bitset kernels: edge shapes and wide inputs."""

from __future__ import annotations

import granudesc
from granudesc import _kernel


def test_backend_name_is_exported() -> None:
    assert granudesc.backend_name is _kernel.backend_name
    assert granudesc.backend_name() == "pure"


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------


def test_concept_enumeration_edge_shapes() -> None:
    assert _kernel.formal_concepts([], 3) == [(0b111, 0)]
    assert _kernel.formal_concepts([0, 0], 0) == [(0, 0b11)]
    assert _kernel.formal_concepts([0b001, 0b010, 0b100], 3) == [
        (7, 0), (4, 4), (2, 2), (1, 1), (0, 7),
    ]


def test_enumeration_starts_at_top() -> None:
    # attr0 holds everywhere, so the top intent is not empty
    out = _kernel.formal_concepts([0b11, 0b01], 2)
    assert out[0] == (0b11, 0b01)
    assert len(out) == len(set(out))


# ---------------------------------------------------------------------------
# minimal covers
# ---------------------------------------------------------------------------


def test_cover_edge_shapes() -> None:
    assert _kernel.minimal_cover_unions([], 0, False) == [0]
    assert _kernel.minimal_cover_unions([], 0b1, False) == []
    # strict covers of the empty target are the minimal nonempty unions
    assert _kernel.minimal_cover_unions([0b01, 0b10], 0, True) == [0b01, 0b10]
    assert _kernel.minimal_cover_unions([0b01, 0b11], 0b01, True) == [0b11]


# ---------------------------------------------------------------------------
# masks wider than a machine word
# ---------------------------------------------------------------------------


def test_wide_inputs_use_the_portable_path() -> None:
    # 65 objects and a 71-bit target: masks are Python integers, so
    # closure enumeration and cover search answer at any width
    n = 65
    cols = [(1 << n) - 1, 1 << 64, 0b1]
    assert _kernel.formal_concepts(cols, n) == [
        ((1 << n) - 1, 0b001),
        (0b1, 0b101),
        (1 << 64, 0b011),
        (0, 0b111),
    ]

    cands = [1 << 70, 0b1, (1 << 70) | 0b1]
    target = (1 << 70) | 0b1
    assert _kernel.minimal_cover_unions(cands, target) == [(1 << 70) | 0b1]
