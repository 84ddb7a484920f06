"""Bitset kernels: edge shapes and wide inputs."""

from __future__ import annotations

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import granudesc
from granudesc import _kernel, parse_description
from granudesc._bits import mask_of, set_of

from . import oracles


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


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(0, 10),
    n_att=st.integers(0, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=400, deadline=None)
def test_concepts_match_next_closure_and_brute_force(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    rows = tuple(tuple(rng.random() < density for _ in range(n_att)) for _ in range(n_obj))
    cols = [mask_of(i for i in range(n_obj) if rows[i][j]) for j in range(n_att)]
    got = _kernel.formal_concepts(cols, n_obj)
    assert got == oracles.formal_concepts_next_closure(cols, n_obj)
    brute = oracles.formal_concepts_bruteforce(rows, n_att)
    assert {(set_of(e), set_of(a)) for e, a in got} == brute


# ---------------------------------------------------------------------------
# minimal covers and minimal transversals
# ---------------------------------------------------------------------------


def _cover_problem(
    rng: random.Random, n_obj: int, n_cand: int, density: float, union_target: bool
) -> tuple[list[int], int]:
    """Random candidates, and a target that is a union of some of them or
    a random half of the objects."""
    cands = [mask_of(i for i in range(n_obj) if rng.random() < density) for _ in range(n_cand)]
    if union_target:
        target = 0
        for c in cands:
            if rng.random() < 0.5:
                target |= c
    else:
        target = mask_of(i for i in range(n_obj) if rng.random() < 0.5)
    return cands, target


def test_cover_edge_shapes() -> None:
    assert _kernel.minimal_cover_unions([], 0, False) == [0]
    assert _kernel.minimal_cover_unions([], 0b1, False) == []
    # strict covers of the empty target are the minimal nonempty unions
    assert _kernel.minimal_cover_unions([0b01, 0b10], 0, True) == [0b01, 0b10]
    assert _kernel.minimal_cover_unions([0b01, 0b11], 0b01, True) == [0b11]
    # the target is a union; its cheapest step up is a candidate disjoint from it
    assert _kernel.minimal_cover_unions([0b001, 0b110, 0b100], 0b001, True) == [0b101]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(0, 10),
    n_cand=st.integers(0, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    union_target=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_cover_search_matches_per_object_search_and_brute_force(
    seed: int, n_obj: int, n_cand: int, density: float, union_target: bool
) -> None:
    cands, target = _cover_problem(random.Random(seed), n_obj, n_cand, density, union_target)
    entries = list(enumerate(set_of(c) for c in cands))
    for strict in (False, True):
        brute = oracles.minimal_cover_entries(entries, set_of(target), strict)
        want = sorted((mask_of(u) for _, u in brute), key=lambda m: (m.bit_count(), m))
        assert _kernel.minimal_cover_unions(cands, target, strict) == want
    per_object = oracles.strict_covers_per_object(cands, target)
    assert _kernel.minimal_cover_unions(cands, target, True) == per_object


@given(seed=st.integers(0, 2**32 - 1), union_target=st.booleans())
@settings(max_examples=200, deadline=None)
def test_cover_search_matches_list_search_at_bounds_scale(seed: int, union_target: bool) -> None:
    # past the sizes brute force can take (the test above covers the small
    # ones); the list-based search the kernel replaced is the reference.
    # The seed draws the sizes, since hypothesis favours the low end of a range.
    rng = random.Random(seed)
    n_obj, n_cand, density = rng.randint(16, 32), rng.randint(8, 16), rng.uniform(0.2, 0.5)
    cands, target = _cover_problem(rng, n_obj, n_cand, density, union_target)
    pool = [c for c in cands if c]
    plain = oracles.minimal_masks(oracles.covering_unions_lists(pool, target))
    assert _kernel.minimal_cover_unions(cands, target) == plain
    strict = oracles.strict_covers_per_object(cands, target)
    assert _kernel.minimal_cover_unions(cands, target, True) == strict


def _transversals_brute_force(pool: list[int], target: int) -> list[int]:
    """Inclusion-minimal index masks whose members' union holds target,
    found by trying every subset of indices; by size, then index tuple."""
    hits = []
    for s in range(1 << len(pool)):
        union = 0
        for i in range(len(pool)):
            if s >> i & 1:
                union |= pool[i]
        if target & ~union == 0:
            hits.append(s)
    minimal = [s for s in hits if not any(h != s and h & ~s == 0 for h in hits)]
    return sorted(minimal, key=lambda s: (s.bit_count(), [i for i in range(len(pool)) if s >> i & 1]))


def test_transversal_edge_shapes() -> None:
    # the empty target: every single index, empty and duplicate candidates too
    assert _kernel.minimal_transversals([0b01, 0, 0b01], 0) == [0b001, 0b010, 0b100]
    assert _kernel.minimal_transversals([], 0) == []
    # an uncoverable target
    assert _kernel.minimal_transversals([], 0b1) == []
    assert _kernel.minimal_transversals([0b001, 0b010, 0], 0b111) == []
    # equal candidates are different transversals; bits outside target are ignored
    assert _kernel.minimal_transversals([0b11, 0b111, 0b01], 0b11) == [0b001, 0b010]
    assert _kernel.minimal_transversals([0b01, 0b10, 0b11], 0b11) == [0b100, 0b011]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(0, 10),
    n_cand=st.integers(0, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    union_target=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_transversals_match_brute_force(
    seed: int, n_obj: int, n_cand: int, density: float, union_target: bool
) -> None:
    cands, target = _cover_problem(random.Random(seed), n_obj, n_cand, density, union_target)
    got = _kernel.minimal_transversals(cands, target)
    if target:
        assert got == _transversals_brute_force(cands, target)
    else:
        assert got == [1 << i for i in range(n_cand)]


def _garbage_after(call) -> int:
    """Unreachable objects the cyclic collector finds after one call,
    with the collector off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_calls_leave_no_reference_cycles(table3) -> None:
    # a cycle lives until the collector runs; these calls leave none
    cover = lambda: _kernel.minimal_cover_unions([0b011, 0b110, 0b100], 0b111)
    assert cover() == [0b111]
    assert _garbage_after(cover) == 0
    assert _garbage_after(lambda: parse_description("a1 & !a4", table3)) == 0


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
