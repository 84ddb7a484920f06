"""Bitset kernels: edge shapes and wide inputs."""

from __future__ import annotations

import gc
import random
import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

import granudesc
from granudesc import _bits, _kernel, parse_description
from granudesc._bits import bit_tuple, bits, mask_of, set_of

from . import oracles


def test_backend_name_is_exported() -> None:
    assert granudesc.backend_name is _kernel.backend_name
    assert granudesc.backend_name() == "pure"


# ---------------------------------------------------------------------------
# the byte-table bit reader
# ---------------------------------------------------------------------------


def _mask_of_width(width: int) -> st.SearchStrategy[int]:
    """Masks whose highest set bit is bit ``width - 1``."""
    return st.integers(1 << width - 1, (1 << width) - 1)


@given(
    mask=st.just(0)
    | st.integers(0, 199).map(lambda i: 1 << i)
    | st.integers(1, 200).flatmap(_mask_of_width)
    # widths either side of the table's last byte and well past it
    | st.sampled_from([63, 64, 65, 101, 200]).flatmap(_mask_of_width)
)
@settings(max_examples=500, deadline=None)
def test_bit_tuple_reads_like_bits(mask: int) -> None:
    assert list(bit_tuple(mask)) == list(bits(mask))


def _whole_byte_table() -> list[tuple[tuple[int, ...], ...]]:
    """The reader's table built whole, all 8 rows at once, as it was
    before each row was built on first use."""
    table = []
    for k in range(0, 64, 8):
        row: list[tuple[int, ...]] = [()]
        for i in range(k, k + 8):
            row += [t + (i,) for t in row]
        table.append(tuple(row))
    return table


def test_bit_table_stays_within_its_bound() -> None:
    for width in (8, 64, 65, 200, 1000):
        bit_tuple((1 << width) - 1)
    # one row per byte, 8 bytes of 256 entries, wider bits read by bits()
    rows = _bits._BYTE_ROWS
    assert len(rows) == _bits._TABLE_BYTES == 8
    assert rows == _whole_byte_table()
    assert rows[7][0x80] == (63,)


def _unbuilt_rows() -> list[_bits._Unbuilt]:
    return [_bits._Unbuilt(k) for k in range(_bits._TABLE_BYTES)]


def _built(rows: list) -> list[int]:
    return [k for k, row in enumerate(rows) if isinstance(row, tuple)]


def test_bit_table_rows_are_built_on_first_use(monkeypatch) -> None:
    monkeypatch.setattr(_bits, "_BYTE_ROWS", _unbuilt_rows())
    rows = _bits._BYTE_ROWS
    assert bit_tuple(0) == ()
    assert _built(rows) == []
    assert bit_tuple(0b1011) == (0, 1, 3)  # a mask of at most 8 objects: one row
    assert _built(rows) == [0]
    # bytes 1 and 2 are read up to bit 20; bit 70 lies above the table
    assert bit_tuple(1 << 20 | 1 << 70) == (20, 70)
    assert _built(rows) == [0, 1, 2]
    bit_tuple((1 << 64) - 1)
    assert rows == _whole_byte_table()


def test_bit_table_built_under_threads_reads_alike(monkeypatch) -> None:
    # threads racing to build the rows each see no row or a whole one; 8
    # threads on fewer cores, switching often
    masks = [random.Random(i).getrandbits(80) for i in range(400)]
    wrong: list[int] = []
    monkeypatch.setattr(_bits, "_BYTE_ROWS", _unbuilt_rows())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def read() -> None:
            wrong.extend(m for m in masks if bit_tuple(m) != tuple(bits(m)))

        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert _bits._BYTE_ROWS == _whole_byte_table()
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------


def _concept_order(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Pairs by extent size descending, then by the extent's sorted indices."""
    return sorted(pairs, key=lambda p: (-p[0].bit_count(), tuple(bits(p[0]))))


def test_concept_enumeration_edge_shapes() -> None:
    assert _kernel.formal_concepts([], 3) == [(0b111, 0)]
    assert _kernel.formal_concepts([0, 0], 0) == [(0, 0b11)]
    # concept order: the extent {0} comes before {1} and {2}
    assert _kernel.formal_concepts([0b001, 0b010, 0b100], 3) == [
        (7, 0), (1, 1), (2, 2), (4, 4), (0, 7),
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
    assert got == _concept_order(oracles.formal_concepts_next_closure(cols, n_obj))
    brute = oracles.formal_concepts_bruteforce(rows, n_att)
    assert {(set_of(e), set_of(a)) for e, a in got} == brute


@st.composite
def _column_lists(draw) -> tuple[int, list[int]]:
    """An object count, at times past the 64 objects of ``bit_tuple``'s
    table, and up to 11 columns among which empty, full and repeated ones."""
    n = draw(st.integers(0, 10) | st.sampled_from([63, 64, 65, 80]))
    full = (1 << n) - 1
    cols = draw(st.lists(st.integers(0, full), max_size=8))
    cols += draw(st.lists(st.sampled_from([0, full, *cols]), max_size=3))
    return n, draw(st.permutations(cols))


@given(_column_lists())
@example((0, []))
@example((0, [0, 0]))
@example((3, []))
@example((3, [0b101, 0, 0b101, 0b111, 0]))
@example((70, [1 << 69 | 1, 0, (1 << 70) - 1, 1 << 69 | 1, 1 << 64]))
@settings(max_examples=400, deadline=None)
def test_one_pass_enumeration_matches_two_pass_and_next_closure(
    table: tuple[int, list[int]],
) -> None:
    n, cols = table
    got = _kernel.formal_concepts(cols, n)
    assert got == oracles.formal_concepts_two_pass(cols, n)
    assert got == _concept_order(oracles.formal_concepts_next_closure(cols, n))


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


@given(
    seed=st.integers(0, 2**32 - 1),
    n_inside=st.integers(0, 4),
    duplicate=st.booleans(),
    whole_target=st.booleans(),
    union_target=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_cover_search_with_candidates_inside_the_target(
    seed: int, n_inside: int, duplicate: bool, whole_target: bool, union_target: bool
) -> None:
    # candidates inside the target are folded out of the search; plant some,
    # with repeats and the target itself, among bounds-scale problems
    rng = random.Random(seed)
    n_obj, n_cand, density = rng.randint(16, 32), rng.randint(8, 16), rng.uniform(0.2, 0.5)
    cands, target = _cover_problem(rng, n_obj, n_cand, density, union_target)
    for _ in range(n_inside):
        cands.append(target & mask_of(i for i in range(n_obj) if rng.random() < 0.5))
    if duplicate:
        cands += rng.sample(cands, 2)
    if whole_target:
        cands.append(target)
    rng.shuffle(cands)
    pool = [c for c in cands if c]
    plain = oracles.minimal_masks(oracles.covering_unions_lists(pool, target))
    assert _kernel.minimal_cover_unions(cands, target) == plain
    strict = oracles.strict_covers_per_object(cands, target)
    assert _kernel.minimal_cover_unions(cands, target, True) == strict


def test_cover_edge_shapes_with_candidates_inside_the_target() -> None:
    # 0b0011 and 0b0100 make up the target 0b0111: it is its own cover,
    # and the strict covers are its one-step unions
    cands = [0b1100, 0b0011, 0b10000, 0b0100]
    assert _kernel.minimal_cover_unions(cands, 0b0111) == [0b0111]
    assert _kernel.minimal_cover_unions(cands, 0b0111, True) == [0b01111, 0b10111]
    # 0b0011 covers part of the target; object 2 needs one outside candidate
    cands = [0b0011, 0b1100, 0b10100, 0b0001]
    for strict in (False, True):
        assert _kernel.minimal_cover_unions(cands, 0b0111, strict) == [0b01111, 0b10111]
    # the empty target is covered by the empty union, whatever the pool
    assert _kernel.minimal_cover_unions([0b01, 0b10], 0) == [0]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(0, 10),
    n_cand=st.integers(0, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    union_target=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_cover_search_finds_each_union_once(
    seed: int, n_obj: int, n_cand: int, density: float, union_target: bool
) -> None:
    # leaves are tested where they are made and kept in a set, exactly the
    # recursive search's; sizes 0 give the empty target and the empty pool
    cands, target = _cover_problem(random.Random(seed), n_obj, n_cand, density, union_target)
    pool = [c for c in cands if c]
    found = list(_kernel._covering_unions(pool, target))
    assert len(found) == len(set(found))
    assert set(found) == oracles.covering_unions_recursive(pool, target)
    for u in found:
        assert target & ~u == 0
        assert u == mask_of(j for c in pool if c & ~u == 0 for j in bits(c))
    lists = oracles.covering_unions_lists(pool, target)
    assert oracles.minimal_masks(found) == oracles.minimal_masks(lists)
    assert _kernel.minimal_cover_unions(cands, target) == oracles.minimal_masks(lists)
    strict = oracles.strict_covers_per_object(cands, target)
    assert _kernel.minimal_cover_unions(cands, target, True) == strict
    keeps = lambda s: target & ~mask_of(j for i in bits(s) for j in bits(cands[i])) == 0
    scan = oracles.minimal_subsets_scan(list(range(n_cand)), keeps)
    assert _kernel.minimal_transversals(cands, target) == scan


def test_cover_search_of_the_empty_target_or_pool() -> None:
    assert _kernel._covering_unions([], 0) == {0}
    assert _kernel._covering_unions([0b01, 0b10], 0) == {0}
    assert _kernel._covering_unions([], 0b1) == set()
    # three branches reach the union 0b111 (the list search keeps all three)
    pool = [0b011, 0b110, 0b101]
    assert oracles.covering_unions_lists(pool, 0b111) == [0b111] * 3
    assert _kernel._covering_unions(pool, 0b111) == {0b111}


@given(masks=st.lists(st.integers(0, 63), max_size=40))
@settings(max_examples=300, deadline=None)
def test_minimal_antichain_matches_oracle_order(masks: list[int]) -> None:
    assert _kernel._minimal_antichain(masks) == oracles.minimal_masks(masks)


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
