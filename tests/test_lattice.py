"""Concept enumeration across the four systems, plus the formal order."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granudesc import (
    CnIntent,
    CompoundContext,
    Flavor,
    FlavorMismatch,
    FormalContext,
    SizeGuardExceeded,
    appose_negation,
    cn_extent,
    cn_intent,
    complement_context,
    compound_extent,
    compound_intent,
    extent,
    intent,
    is_cn_definable,
    is_three_way_definable,
    is_wedge_definable,
    lower_three_way,
    lower_wedge,
    make_cn_context,
    necessity,
    possibility,
    render,
    upper_cn,
)
from granudesc.lattice import (
    Concept,
    ConceptLattice,
    concept_join,
    concept_json_obj,
    concept_label,
    concept_leq,
    concept_meet,
    concepts_to_text,
    enumerate_cn,
    enumerate_formal,
    enumerate_object_oriented,
    enumerate_three_way,
    intent_names,
    lattice_to_dot,
)
from granudesc import _kernel, lattice
from granudesc._bits import set_of

from . import oracles
from .conftest import objs, random_cn_context, random_context

# reference lattice of the running example, 0-based extents with intent names,
# in canonical order (extent size descending, then lexicographic)
REFERENCE_CONCEPTS = [
    (frozenset({0, 1, 2, 3, 4, 5, 6}), []),
    (frozenset({0, 1, 6}), ["a2"]),
    (frozenset({0, 5, 6}), ["a3"]),
    (frozenset({1, 2, 6}), ["a1"]),
    (frozenset({3, 4, 5}), ["a5"]),
    (frozenset({0, 6}), ["a2", "a3"]),
    (frozenset({1, 6}), ["a1", "a2"]),
    (frozenset({4, 5}), ["a4", "a5"]),
    (frozenset({5}), ["a3", "a4", "a5"]),
    (frozenset({6}), ["a1", "a2", "a3"]),
    (frozenset(), ["a1", "a2", "a3", "a4", "a5"]),
]

REFERENCE_COVERS = (
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 5), (1, 6), (2, 5), (2, 8), (3, 6), (4, 7),
    (5, 9), (6, 9), (7, 8),
    (8, 10), (9, 10),
)


def _by_extent(lat: ConceptLattice, ext: frozenset[int]):
    matches = [c for c in lat.concepts if c.extent == ext]
    assert len(matches) == 1
    return matches[0]


# ---------------------------------------------------------------------------
# formal system
# ---------------------------------------------------------------------------


def test_reference_table_has_eleven_concepts_in_canonical_order(table1) -> None:
    lat = enumerate_formal(table1)
    got = [(c.extent, intent_names(c)) for c in lat.concepts]
    assert got == REFERENCE_CONCEPTS


def test_reference_table_cover_edges_and_bounds(table1) -> None:
    lat = enumerate_formal(table1)
    assert lat.covers == REFERENCE_COVERS
    assert lat.top.extent == frozenset(range(7))
    assert lat.bottom.extent == frozenset()
    for upper, lower in lat.covers:
        assert lat.concepts[lower].extent < lat.concepts[upper].extent


def test_all_zeros_context_has_only_the_bounds() -> None:
    ctx = FormalContext(("o1", "o2"), ("a1", "a2"), ((0, 0), (0, 0)))
    lat = enumerate_formal(ctx)
    assert {(c.extent, frozenset(c.intent)) for c in lat.concepts} == {
        (frozenset({0, 1}), frozenset()),
        (frozenset(), frozenset({0, 1})),
    }


def test_formal_concepts_satisfy_closure_laws(table1) -> None:
    for c in enumerate_formal(table1).concepts:
        assert intent(table1, c.extent) == c.intent
        assert extent(table1, c.intent) == c.extent


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_formal_enumeration_matches_bruteforce(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    """Every enumerated pair appears in the exhaustive subset scan and back."""
    ctx = random_context(random.Random(seed), n_obj, n_att, density)
    lat = enumerate_formal(ctx)
    got = {(c.extent, frozenset(c.intent)) for c in lat.concepts}
    assert got == oracles.formal_concepts_bruteforce(ctx.incidence)
    assert len(lat.concepts) == len(got)


# ---------------------------------------------------------------------------
# object-oriented system
# ---------------------------------------------------------------------------


def test_object_oriented_contains_reference_pairs(table1) -> None:
    lat = enumerate_object_oriented(table1)
    pairs = {(c.extent, tuple(intent_names(c))) for c in lat.concepts}
    assert (objs(table1, "1", "4", "5", "6", "7"), ("a3", "a4", "a5")) in pairs
    assert (objs(table1, "1", "2", "5", "6", "7"), ("a2", "a3", "a4")) in pairs


def test_object_oriented_all_ones_collapses() -> None:
    ctx = FormalContext(("o1", "o2"), ("a1", "a2"), ((1, 1), (1, 1)))
    lat = enumerate_object_oriented(ctx)
    assert {(c.extent, frozenset(c.intent)) for c in lat.concepts} == {
        (frozenset({0, 1}), frozenset({0, 1})),
        (frozenset(), frozenset()),
    }


def test_object_oriented_closure_laws(table1) -> None:
    for c in enumerate_object_oriented(table1).concepts:
        assert necessity(table1, c.extent) == c.intent
        assert possibility(table1, c.intent) == c.extent


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=100, deadline=None)
def test_object_oriented_extents_mirror_complement_extents(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    ctx = random_context(random.Random(seed), n_obj, n_att, density)
    universe = frozenset(range(n_obj))
    oo_extents = {c.extent for c in enumerate_object_oriented(ctx).concepts}
    formal_of_comp = enumerate_formal(complement_context(ctx))
    assert oo_extents == {universe - c.extent for c in formal_of_comp.concepts}


# ---------------------------------------------------------------------------
# three-way system
# ---------------------------------------------------------------------------


def test_three_way_contains_reference_pairs(table3) -> None:
    lat = enumerate_three_way(table3)
    pairs = {(c.extent, tuple(intent_names(c))) for c in lat.concepts}
    assert (frozenset({1, 6}), ("a1", "a2", "not_a4", "not_a5")) in pairs
    assert (frozenset({1}), ("a1", "a2", "not_a3", "not_a4", "not_a5")) in pairs


def test_three_way_single_cell_context() -> None:
    ctx = FormalContext(("o1",), ("a1",), ((1,),))
    assert len(enumerate_three_way(appose_negation(ctx)).concepts) == 2
    assert len(enumerate_formal(ctx).concepts) == 1


def test_three_way_closure_laws(table3) -> None:
    for c in enumerate_three_way(table3).concepts:
        assert compound_intent(table3, c.extent) == c.intent
        assert compound_extent(table3, c.intent) == c.extent


def test_three_way_rejects_cn_flavor(table5) -> None:
    with pytest.raises(FlavorMismatch):
        enumerate_three_way(table5)


# ---------------------------------------------------------------------------
# common-and-necessary system
# ---------------------------------------------------------------------------


def test_cn_family_contains_reference_concepts(table5) -> None:
    family = enumerate_cn(table5)
    assert isinstance(family, list)
    by_extent = {c.extent: c.intent for c in family}
    assert len(by_extent) == len(family)  # deduplicated, nonempty extents
    assert all(by_extent)
    a, b = table5.a_attributes, table5.b_attributes
    assert by_extent[objs(table5, "2", "3", "7")] == CnIntent(
        frozenset({a.index("a1")}), frozenset({b.index("b2"), b.index("b4")})
    )
    assert by_extent[objs(table5, "2", "3")] == CnIntent(
        frozenset({a.index("a1")}), frozenset({b.index("b3")})
    )
    assert by_extent[objs(table5, "1", "6", "7")] == CnIntent(
        frozenset({a.index("a3")}), frozenset({b.index("b1"), b.index("b2")})
    )


def test_cn_family_members_are_fixed_points(table5) -> None:
    for c in enumerate_cn(table5):
        assert cn_intent(table5, c.extent) == c.intent
        assert cn_extent(table5, c.intent) == c.extent


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 5),
    n_a=st.integers(1, 4),
    n_b=st.integers(1, 10),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=80, deadline=None)
def test_cn_enumeration_matches_bruteforce(
    seed: int, n_obj: int, n_a: int, n_b: int, density: float
) -> None:
    # up to 10 b-columns on 5 objects: repeated traces, empty b-columns and
    # fixed points reached from several a-extents
    cctx = random_cn_context(random.Random(seed), n_obj, n_a, n_b, density)
    family = enumerate_cn(cctx)
    assert repr(family) == repr(oracles.enumerate_cn_per_point(cctx))
    for c in family:  # the mask-level listing agrees with the public call
        assert c.intent == cn_intent(cctx, c.extent)
        assert not c.intent.no_b_cover
    got = {c.extent for c in family}
    want = oracles.cn_fixed_points(
        oracles.column_extents(cctx.a_incidence),
        oracles.column_extents(cctx.b_incidence),
        n_obj,
    )
    assert got == want
    assert got == oracles.cn_fixed_points_scan(
        oracles.column_extents(cctx.a_incidence),
        oracles.column_extents(cctx.b_incidence),
        n_obj,
    )


@pytest.mark.parametrize(
    "shape",
    [(14, 6, 40, 0.5, False), (20, 4, 40, 0.2, True)],
    ids=["14x(6+40)", "20x(4+40)-forced"],
)
def test_cn_enumeration_on_wide_b_blocks(shape) -> None:
    n_obj, n_a, n_b, density, force = shape
    cctx = random_cn_context(random.Random(n_obj * n_b), n_obj, n_a, n_b, density)
    family = enumerate_cn(cctx, force=force)
    want = oracles.enumerate_cn_per_point(cctx)
    assert family and family == want
    # the reprs without the context's, which would repeat it per concept
    assert repr([(c.extent, c.intent, c.system) for c in family]) == repr(
        [(c.extent, c.intent, c.system) for c in want]
    )


def test_cn_enumeration_runs_no_cover_search(table5, monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_cn ran a cover search")

    want = repr(enumerate_cn(table5))
    monkeypatch.setattr(_kernel, "minimal_cover_unions", refuse)
    assert repr(enumerate_cn(table5)) == want
    with pytest.raises(AssertionError, match="cover search"):
        cn_intent(table5, enumerate_cn(table5)[0].extent)


def test_cn_rejects_three_way_flavor(table3) -> None:
    with pytest.raises(FlavorMismatch):
        enumerate_cn(table3)


# ---------------------------------------------------------------------------
# cover edges
# ---------------------------------------------------------------------------


def _assert_covers_match_bruteforce(ctx: FormalContext) -> None:
    for lat in (
        enumerate_formal(ctx),
        enumerate_object_oriented(ctx),
        enumerate_three_way(appose_negation(ctx)),
    ):
        want = oracles.cover_edges_bruteforce([c.extent for c in lat.concepts])
        assert lat.covers == want, lat.system


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=100, deadline=None)
def test_cover_edges_match_bruteforce(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    _assert_covers_match_bruteforce(
        random_context(random.Random(seed), n_obj, n_att, density)
    )


@pytest.mark.parametrize(
    "rows",
    [((0, 0), (0, 0)), ((1, 1), (1, 1)), ((1,),), ((0,),)],
    ids=["all_zeros", "all_ones", "single_one", "single_zero"],
)
def test_cover_edges_on_edge_shapes(rows) -> None:
    ctx = FormalContext(
        tuple(f"o{i}" for i in range(len(rows))),
        tuple(f"a{j}" for j in range(len(rows[0]))),
        rows,
    )
    _assert_covers_match_bruteforce(ctx)


def _kernel_column_sets(n: int, cols: list[int]) -> list[list[int]]:
    """The columns the kernel meets for the formal, object-oriented
    (complemented) and three-way (flattened) lattices of one table."""
    comp = [((1 << n) - 1) ^ c for c in cols]
    return [cols, comp, cols + comp]


@st.composite
def _column_tables(draw) -> tuple[int, list[int]]:
    """An object count and column masks, with empty, all-ones and duplicate
    columns mixed in, and tables of no column or more than 64 objects."""
    n = draw(st.integers(0, 72))
    full = (1 << n) - 1
    cols: list[int] = []
    for _ in range(draw(st.integers(0, 5))):
        kinds = [st.just(0), st.just(full), st.integers(0, full)]
        if cols:
            kinds.append(st.sampled_from(cols))
        cols.append(draw(st.one_of(kinds)))
    return n, cols


@given(table=_column_tables())
@example(table=(70, [(1 << 70) - 1, 0, 0b1011 << 60, 0b1011 << 60, 0x5555 << 50]))
@example(table=(65, [1 << 64, (1 << 65) - 2]))
@example(table=(3, []))
@settings(max_examples=150, deadline=None)
def test_lower_neighbours_match_counting_and_bruteforce(table) -> None:
    """Lindig's shrinking-``mins`` rule gives the edges of the counting rule
    it replaced and of the pair-by-pair Hasse diagram."""
    n, cols = table
    for cs in _kernel_column_sets(n, cols):
        pairs = _kernel.formal_concepts(cs, n)
        got = sorted(lattice._lower_neighbours(pairs, cs))
        assert got == sorted(oracles.lower_neighbours_counting(pairs, cs))
        assert tuple(got) == oracles.cover_edges_bruteforce([set_of(e) for e, _ in pairs])


def test_lower_neighbours_match_counting_at_benchmark_shapes() -> None:
    """Fixed-seed tables of the ``perfbench`` lattice shapes at density 0.5,
    no hypothesis, so every CI Python runs the same cases.  The benchmark's
    own check only asks each edge to be ordered and the DOT edge count to
    match, not that the edges are exactly the covers, so this is the one
    full check at benchmark size (the brute-force Hasse diagram is too slow
    there)."""
    rng = random.Random(1901)
    for _ in range(16):
        for n, m, which in ((32, 14, 0), (24, 12, 1), (24, 8, 2)):
            cols = list(random_context(rng, n, m, 0.5).column_masks)
            cs = _kernel_column_sets(n, cols)[which]
            pairs = _kernel.formal_concepts(cs, n)
            got = sorted(lattice._lower_neighbours(pairs, cs))
            assert got == sorted(oracles.lower_neighbours_counting(pairs, cs))
            assert len(got) >= len(pairs) - 1  # every concept but the top has an upper cover


# ---------------------------------------------------------------------------
# concept order
# ---------------------------------------------------------------------------


def _four_families(ctx: FormalContext, cctx: CompoundContext) -> list[list[Concept]]:
    return [
        list(enumerate_formal(ctx).concepts),
        list(enumerate_object_oriented(ctx).concepts),
        list(enumerate_three_way(appose_negation(ctx)).concepts),
        enumerate_cn(cctx),
    ]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 8),
    n_att=st.integers(1, 5),
    n_b=st.integers(1, 4),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_every_family_lists_its_concepts_in_concept_order(
    seed: int, n_obj: int, n_att: int, n_b: int, density: float
) -> None:
    """Each family comes sorted by ``Concept.sort_key``, every key once, with
    the sorted intents a fresh concept computes seeded; the object-oriented
    listing is the formal one over the complemented columns in reverse."""
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    cctx = random_cn_context(rng, n_obj, n_att, n_b, density)
    families = _four_families(ctx, cctx)
    _assert_seeded_intents(families)
    for concepts in families:
        keys = [c.sort_key() for c in concepts]
        assert list(concepts) == sorted(concepts, key=Concept.sort_key)
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    full = frozenset(range(n_obj))
    flipped = [full - c.extent for c in enumerate_formal(complement_context(ctx)).concepts]
    assert [c.extent for c in enumerate_object_oriented(ctx).concepts] == flipped[::-1]


@pytest.mark.parametrize("n_objects", [0, 1, 3])
def test_neighbour_edges_without_attributes(n_objects: int) -> None:
    # a table needs an attribute, so the empty column list is checked on masks
    pairs = _kernel.formal_concepts([], n_objects)
    assert pairs == [((1 << n_objects) - 1, 0)]
    assert lattice._lower_neighbours(pairs, []) == []


# ---------------------------------------------------------------------------
# order operations
# ---------------------------------------------------------------------------


def test_meet_and_join_reference_values(table1) -> None:
    lat = enumerate_formal(table1)
    c_a1 = _by_extent(lat, objs(table1, "2", "3", "7"))
    c_a2 = _by_extent(lat, objs(table1, "1", "2", "7"))
    met = concept_meet(c_a1, c_a2)
    assert met == _by_extent(lat, objs(table1, "2", "7"))
    assert intent_names(met) == ["a1", "a2"]

    c_obj7 = _by_extent(lat, objs(table1, "7"))
    c_obj6 = _by_extent(lat, objs(table1, "6"))
    joined = concept_join(c_obj7, c_obj6)
    assert joined == _by_extent(lat, objs(table1, "1", "6", "7"))
    assert intent_names(joined) == ["a3"]


def test_meet_join_with_bounds(table1) -> None:
    lat = enumerate_formal(table1)
    for c in lat.concepts:
        assert concept_meet(c, lat.bottom) == lat.bottom
        assert concept_join(c, lat.top) == lat.top
        assert concept_leq(lat.bottom, c)
        assert concept_leq(c, lat.top)


def test_leq_is_a_partial_order(table1) -> None:
    cs = enumerate_formal(table1).concepts
    for a in cs:
        assert concept_leq(a, a)
        for b in cs:
            assert concept_leq(a, b) == (a.extent <= b.extent)
            assert concept_leq(a, b) == (b.intent <= a.intent)
            if concept_leq(a, b) and concept_leq(b, a):
                assert a == b
            for c in cs:
                if concept_leq(a, b) and concept_leq(b, c):
                    assert concept_leq(a, c)


def test_meet_join_stay_inside_the_lattice_and_absorb(table1) -> None:
    cs = enumerate_formal(table1).concepts
    members = set(cs)
    for a in cs:
        for b in cs:
            met, joined = concept_meet(a, b), concept_join(a, b)
            assert met in members and joined in members
            assert concept_join(a, met) == a
            assert concept_meet(a, joined) == a


def test_order_ops_reject_mixed_inputs(table1, table6) -> None:
    formal = enumerate_formal(table1).top
    other_ctx = enumerate_formal(table6).top
    oo = enumerate_object_oriented(table1).top
    with pytest.raises(ValueError):
        concept_leq(formal, oo)
    with pytest.raises(ValueError):
        concept_meet(formal, other_ctx)
    with pytest.raises(ValueError):
        concept_join(oo, oo)


# ---------------------------------------------------------------------------
# size guards
# ---------------------------------------------------------------------------


def test_attribute_guard_blocks_wide_contexts() -> None:
    wide = FormalContext(
        ("o1", "o2"),
        tuple(f"a{j}" for j in range(1, 32)),
        ((0,) * 31, (0,) * 31),
    )
    with pytest.raises(SizeGuardExceeded):
        enumerate_formal(wide)
    with pytest.raises(SizeGuardExceeded):
        enumerate_object_oriented(wide)
    assert len(enumerate_formal(wide, force=True).concepts) == 2


def test_attribute_guard_counts_doubled_columns() -> None:
    # 16 attributes flatten to 32 columns once negations are apposed
    ctx = FormalContext(("o1",), tuple(f"a{j}" for j in range(1, 17)), ((1,) * 16,))
    with pytest.raises(SizeGuardExceeded):
        enumerate_three_way(appose_negation(ctx))


def test_cn_object_guard() -> None:
    names = tuple(str(i) for i in range(1, 22))
    rows = ((1,),) * 21
    cctx = make_cn_context(
        FormalContext(names, ("p1",), rows), FormalContext(names, ("q1",), rows)
    )
    with pytest.raises(SizeGuardExceeded):
        enumerate_cn(cctx)
    forced = enumerate_cn(cctx, force=True)
    assert [c.extent for c in forced] == [frozenset(range(21))]


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------


def test_concept_label_and_text_listing(table1) -> None:
    lat = enumerate_formal(table1)
    assert concept_label(lat.concepts[6]) == "{2,7} | {a1,a2}"
    assert concept_label(lat.bottom) == "∅ | {a1,a2,a3,a4,a5}"
    assert concept_label(lat.bottom, ascii_ops=True) == "{} | {a1,a2,a3,a4,a5}"

    text = concepts_to_text(lat.concepts)
    lines = text.splitlines()
    assert len(lines) == 11 and text.endswith("\n")
    assert lines[0] == "C0 = ({1,2,3,4,5,6,7}, ∅)"
    assert lines[6] == "C6 = ({2,7}, {a1,a2})"
    assert lines[10] == "C10 = (∅, {a1,a2,a3,a4,a5})"
    assert concepts_to_text([]) == concepts_to_text([], ascii_ops=True) == ""


def test_concept_json_objects(table1, table5) -> None:
    lat = enumerate_formal(table1)
    assert concept_json_obj(lat.concepts[6]) == {
        "extent": [2, 7],
        "intent": ["a1", "a2"],
        "system": "formal",
    }
    cn = enumerate_cn(table5)
    target = next(c for c in cn if c.extent == objs(table5, "2", "3", "7"))
    assert concept_json_obj(target) == {
        "extent": [2, 3, 7],
        "intent": ["a1", "b2", "b4"],
        "system": "common_necessary",
    }


def test_dot_output_shape(table1) -> None:
    lat = enumerate_formal(table1)
    dot = lattice_to_dot(lat)
    lines = dot.splitlines()
    assert lines[0] == "digraph concepts {"
    assert "  { rank=source; c0; }" in lines
    assert sum(1 for ln in lines if "[label=" in ln) == 11
    assert sum(1 for ln in lines if "->" in ln) == len(REFERENCE_COVERS)
    assert '  c6 [label="{2,7} | {a1,a2}"];' in lines
    assert "  c0 -> c1;" in lines
    assert lines[-1] == "}" and dot.endswith("}\n")


def _fresh(c: Concept) -> Concept:
    return Concept(c.extent, c.intent, c.system, c.context)


def _render(concepts: list[Concept], order: tuple[str, ...]) -> dict[str, object]:
    lat = ConceptLattice(tuple(concepts), (), concepts[0].system)
    run = {
        "text": lambda: (concepts_to_text(concepts), concepts_to_text(concepts, True)),
        "json": lambda: [concept_json_obj(c) for c in concepts],
        "dot": lambda: (lattice_to_dot(lat), lattice_to_dot(lat, True)),
        "names": lambda: [intent_names(c) for c in concepts],
    }
    return {name: run[name]() for name in order}


@pytest.mark.parametrize("order", list(permutations(("text", "json", "dot", "names"))))
def test_renderings_match_fresh_concepts_in_any_order(table1, table5, order) -> None:
    lat = enumerate_formal(table1)
    c1, c2 = lat.concepts[3], lat.concepts[4]
    families = [
        list(lat.concepts),
        list(enumerate_object_oriented(table1).concepts),
        list(enumerate_three_way(appose_negation(table1)).concepts),
        enumerate_cn(table5),
        [concept_meet(c1, c2), concept_join(c1, c2), concept_meet(c1, c1)],
    ]
    for concepts in families:
        want = _render([_fresh(c) for c in concepts], ("text", "json", "dot", "names"))
        assert _render(concepts, order) == want
        assert _render(concepts, order[::-1]) == want


def _assert_seeded_intents(families: list[list[Concept]]) -> None:
    for concepts in families:
        for c in concepts:
            assert c.__dict__["_sorted_intent"] == _fresh(c)._sorted_intent
            assert intent_names(c) == intent_names(_fresh(c))


def test_listings_seed_the_sorted_intent_on_the_data_tables(table1, table3, table5) -> None:
    _assert_seeded_intents(_four_families(table1, table5))
    _assert_seeded_intents([list(enumerate_three_way(table3).concepts)])


@pytest.mark.parametrize(
    "clone",
    [lambda cs: pickle.loads(pickle.dumps(cs)), lambda cs: [copy.copy(c) for c in cs]],
    ids=["pickle", "copy"],
)
@pytest.mark.parametrize("rendered", [False, True], ids=["seeded", "rendered"])
def test_cloned_concepts_render_as_fresh_ones(table1, table5, clone, rendered) -> None:
    lat = enumerate_formal(table1)
    c1, c2 = lat.concepts[3], lat.concepts[4]
    families = _four_families(table1, table5)
    families.append([concept_meet(c1, c2), concept_join(c1, c2), concept_meet(c1, c1)])
    everything = ("text", "json", "dot", "names")
    for concepts in families:
        want = _render([_fresh(c) for c in concepts], everything)
        if rendered:
            _render(concepts, everything)
        clones = clone(concepts)
        assert clones == concepts
        assert _render(clones, everything) == want


def test_rendered_concepts_keep_equality_and_names(table1) -> None:
    lat = enumerate_formal(table1)
    c1, c2 = lat.concepts[3], lat.concepts[4]
    for c in (*lat.concepts, concept_meet(c1, c2), concept_join(c1, c2)):
        plain = _fresh(c)
        names = intent_names(c)
        names.append("zz")
        concept_json_obj(c)["intent"].append("zz")
        concept_label(c)
        assert intent_names(c) == intent_names(plain)
        assert "zz" not in intent_names(c)
        assert c == plain and hash(c) == hash(plain)
        assert c.sort_key() == plain.sort_key()


# ---------------------------------------------------------------------------
# listed concepts build their sets on first read
# ---------------------------------------------------------------------------


def _listings(table1, table3, table5) -> list[list[Concept]]:
    """The four families on the data tables, each listed anew."""
    return [
        list(enumerate_formal(table1).concepts),
        list(enumerate_object_oriented(table1).concepts),
        list(enumerate_three_way(table3).concepts),
        enumerate_cn(table5),
    ]


def _unread(families: list[list[Concept]]) -> bool:
    return not any({"extent", "intent"} & c.__dict__.keys() for cs in families for c in cs)


# per family, the derivation operator that gives an extent's intent
_DERIVE = {
    "formal": intent,
    "object_oriented": necessity,
    "three_way": compound_intent,
    "common_necessary": cn_intent,
}


def test_listing_and_rendering_build_no_sets(table1, table3, table5) -> None:
    families = _listings(table1, table3, table5)
    for concepts in families:
        _render(concepts, ("text", "json", "dot", "names"))
        for c in concepts:
            concept_label(c)
            c.sort_key()
    assert _unread(families)


def test_first_reads_build_the_sets_of_eager_concepts(table1, table3, table5) -> None:
    for concepts in _listings(table1, table3, table5):
        for c in concepts:
            ext, att = c.extent, c.intent
            assert type(ext) is frozenset and ext == frozenset(c._sorted_extent)
            assert att == _DERIVE[c.system.value](c.context, ext)
            assert c.extent is ext and c.intent is att
            assert _fresh(c)._sorted_intent == c._sorted_intent


def test_cn_intent_with_an_empty_a_part_splits_at_the_a_block() -> None:
    # a1 holds on o1 only, so the fixed point {o1, o2} has no a-part
    a = FormalContext(("o1", "o2"), ("a1",), ((True,), (False,)))
    b = FormalContext(("o1", "o2"), ("b1", "b2"), ((True, True), (True, False)))
    concepts = enumerate_cn(make_cn_context(a, b))
    assert _unread([concepts])
    assert [c._sorted_intent for c in concepts] == [(1, 2), (0, 2)]
    assert [c.intent for c in concepts] == [
        CnIntent(frozenset(), frozenset({0, 1})),
        CnIntent(frozenset({0}), frozenset({1})),
    ]
    assert [c.intent for c in concepts] == [cn_intent(c.context, c.extent) for c in concepts]


@pytest.mark.parametrize(
    "check",
    [
        lambda c, twin: c == twin and twin == c and not c != twin,
        lambda c, twin: hash(c) == hash(twin),
        lambda c, twin: repr(c) == repr(twin),
        lambda c, twin: pickle.loads(pickle.dumps(c)) == twin,
        lambda c, twin: copy.copy(c) == twin,
        lambda c, twin: copy.deepcopy(c) == twin,
    ],
    ids=["eq", "hash", "repr", "pickle", "copy", "deepcopy"],
)
def test_unread_concepts_behave_as_eager_twins(table1, table3, table5, check) -> None:
    twins = [[_fresh(c) for c in cs] for cs in _listings(table1, table3, table5)]
    families = _listings(table1, table3, table5)
    assert _unread(families)
    for concepts, eager in zip(families, twins):
        assert [check(c, t) for c, t in zip(concepts, eager)] == [True] * len(eager)


def test_order_operations_on_unread_concepts_match_eager_twins(table1) -> None:
    twins = [_fresh(c) for c in enumerate_formal(table1).concepts]
    for op in (concept_leq, concept_meet, concept_join):
        for i, j in permutations(range(len(twins)), 2):
            concepts = enumerate_formal(table1).concepts
            assert op(concepts[i], concepts[j]) == op(twins[i], twins[j])


def _fresh_tables() -> list[tuple]:
    """A plain table, a three-way and a cn compound, built anew so that no
    mask or flattened table has been read yet, each with the verdict,
    bound and listing to ask of it."""
    rng = random.Random(20)
    return [
        (random_context(rng, 16, 8, 0.4), is_wedge_definable, lower_wedge, enumerate_formal),
        (
            appose_negation(random_context(rng, 12, 6, 0.4)),
            is_three_way_definable,
            lower_three_way,
            enumerate_three_way,
        ),
        (random_cn_context(rng, 10, 4, 4, 0.4), is_cn_definable, upper_cn, enumerate_cn),
    ]


def _granule(ctx: FormalContext | CompoundContext) -> frozenset[int]:
    """Every other object that has the first attribute, so the intent is
    not empty; on a cn compound only those with some b-attribute too."""
    if isinstance(ctx, FormalContext):
        return frozenset(i for i in range(0, ctx.n_objects, 2) if ctx.incidence[i][0])
    cn = ctx.flavor is Flavor.COMMON_NECESSARY
    return frozenset(
        i
        for i in range(0, ctx.n_objects, 2)
        if ctx.a_incidence[i][0] and (any(ctx.b_incidence[i]) or not cn)
    )


def _answers(tables: list[tuple]) -> list[object]:
    """Per table, a verdict and a bound with their descriptions rendered,
    and the listing as text, JSON and DOT."""
    got: list[object] = []
    for ctx, verdict_of, bound_of, listing_of in tables:
        granule = _granule(ctx)
        verdict, bound = verdict_of(ctx, granule), bound_of(ctx, granule)
        described = [verdict.description] + [d for _, d in bound.granules]
        listing = listing_of(ctx)
        concepts = list(getattr(listing, "concepts", listing))
        got += [verdict, bound, [d and render(d) for d in described]]
        got.append(_render(concepts, ("text", "json", "dot")))
    return got


def test_threads_on_first_use_of_fresh_contexts_read_alike() -> None:
    # eight threads meet the same fresh contexts, switching often, so that
    # several may compute one context's masks or flattened table at once;
    # each must still read a whole value, equal to a single thread's
    want = _answers(_fresh_tables())
    tables = _fresh_tables()
    start = threading.Barrier(8)
    got: list[list[object]] = []

    def ask() -> None:
        start.wait()
        got.append(_answers(tables))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8
