"""Approaching descriptions: tightest supersets and maximal/minimal bounds."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granudesc import (
    CoverProblem,
    Direction,
    FlavorMismatch,
    FormalContext,
    GranuleDescError,
    Inapplicable,
    Mode,
    appose_negation,
    enumerate_minimal_covers,
    evaluate,
    lower_three_way,
    lower_vee,
    lower_wedge,
    render,
    upper_cn,
    upper_three_way,
    upper_vee,
    upper_wedge,
)

from . import oracles
from .conftest import objs, random_cn_context, random_context


def _granules(ap) -> list[tuple[frozenset[int], str | None]]:
    return [(g, None if d is None else render(d)) for g, d in ap.granules]


def _subset(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# conjunctive closures
# ---------------------------------------------------------------------------


def test_upper_wedge_closure(table1) -> None:
    ap = upper_wedge(table1, objs(table1, "1", "2"))
    assert ap.direction is Direction.UPPER and ap.mode is Mode.WEDGE
    assert _granules(ap) == [(objs(table1, "1", "2", "7"), "a2")]
    assert ap.exact is False


def test_upper_wedge_fixed_point(table1) -> None:
    ap = upper_wedge(table1, objs(table1, "2", "7"))
    assert _granules(ap) == [(objs(table1, "2", "7"), "a1 ∧ a2")]
    assert ap.exact is True


def test_upper_wedge_on_second_table(table6) -> None:
    ap = upper_wedge(table6, objs(table6, "4", "5", "6"))
    assert _granules(ap) == [(objs(table6, "2", "4", "5", "6"), "a2")]
    assert ap.exact is False


def test_upper_wedge_inapplicable_without_shared_attribute(table1) -> None:
    with pytest.raises(Inapplicable):
        upper_wedge(table1, range(7))


def test_lower_wedge_antichain(table6) -> None:
    ap = lower_wedge(table6, objs(table6, "4", "5", "6"))
    assert ap.direction is Direction.LOWER and ap.mode is Mode.WEDGE
    assert _granules(ap) == [
        (objs(table6, "4", "5"), "a2 ∧ a3"),
        (objs(table6, "4", "6"), "a2 ∧ a5"),
    ]
    assert ap.exact is False


def test_lower_wedge_is_strict_even_for_definable_granules(table1) -> None:
    ap = lower_wedge(table1, objs(table1, "2", "7"))
    assert ap.exact is True
    assert _granules(ap) == [(objs(table1, "7"), "a1 ∧ a2 ∧ a3")]


def test_lower_wedge_empty_bound_keeps_its_description(table1) -> None:
    # the only definable proper subset of {2} is the empty granule, and the
    # full conjunction does evaluate to it
    ap = lower_wedge(table1, objs(table1, "2"))
    assert _granules(ap) == [(frozenset(), "a1 ∧ a2 ∧ a3 ∧ a4 ∧ a5")]


def test_lower_wedge_with_no_achievable_cover() -> None:
    ctx = FormalContext(
        ("Peter", "John", "Grace", "Jenny"),
        ("c1", "c2", "c3", "c4"),
        ((1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
    )
    ap = lower_wedge(ctx, {1, 2})
    assert ap.granules == ()
    assert ap.exact is False


def test_lower_wedge_rejects_the_whole_universe(table1) -> None:
    with pytest.raises(ValueError):
        lower_wedge(table1, range(7))


# ---------------------------------------------------------------------------
# three-way closures
# ---------------------------------------------------------------------------


def test_upper_three_way_fixed_point(table3) -> None:
    ap = upper_three_way(table3, objs(table3, "2", "7"))
    assert ap.exact is True
    assert _granules(ap) == [(objs(table3, "2", "7"), "a1 ∧ a2 ∧ ¬a4 ∧ ¬a5")]


def test_upper_three_way_closure(table3) -> None:
    ap = upper_three_way(table3, objs(table3, "1", "2"))
    assert ap.exact is False
    assert _granules(ap) == [(objs(table3, "1", "2", "7"), "a2 ∧ ¬a4 ∧ ¬a5")]


def test_upper_three_way_of_empty_granule(table3) -> None:
    ap = upper_three_way(table3, frozenset())
    assert _granules(ap)[0][0] == frozenset()
    assert ap.exact is True


def test_lower_three_way_antichain(table3) -> None:
    ap = lower_three_way(table3, objs(table3, "1", "2", "6"))
    assert ap.exact is False
    assert _granules(ap) == [
        (objs(table3, "2"), "a1 ∧ a2 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"),
        (objs(table3, "1", "6"), "a3 ∧ ¬a1"),
    ]


def test_lower_three_way_strict_on_definable_granule(table3) -> None:
    ap = lower_three_way(table3, objs(table3, "2", "3", "7"))
    assert ap.exact is True
    assert _granules(ap) == [
        (objs(table3, "2", "3"), "a1 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"),
        (objs(table3, "2", "7"), "a1 ∧ a2 ∧ ¬a4 ∧ ¬a5"),
    ]


def test_three_way_approximations_check_flavor(table5) -> None:
    with pytest.raises(FlavorMismatch):
        upper_three_way(table5, {0})
    with pytest.raises(FlavorMismatch):
        lower_three_way(table5, {0})


# ---------------------------------------------------------------------------
# disjunctive bounds
# ---------------------------------------------------------------------------


def test_lower_vee_fixed_point(table1) -> None:
    ap = lower_vee(table1, objs(table1, "1", "4", "5", "6", "7"))
    assert ap.exact is True
    assert _granules(ap) == [
        (objs(table1, "1", "4", "5", "6", "7"), "a3 ∨ a4 ∨ a5")
    ]


def test_lower_vee_collapses_to_empty(table1) -> None:
    ap = lower_vee(table1, objs(table1, "1", "2"))
    assert ap.exact is False
    assert _granules(ap) == [(frozenset(), None)]


def test_lower_vee_of_universe(table1) -> None:
    ap = lower_vee(table1, range(7))
    assert ap.exact is True
    assert _granules(ap) == [
        (frozenset(range(7)), "a1 ∨ a2 ∨ a3 ∨ a4 ∨ a5")
    ]


def test_upper_vee_single_minimal_cover(table1) -> None:
    ap = upper_vee(table1, objs(table1, "1", "2"))
    assert ap.exact is False
    assert _granules(ap) == [(objs(table1, "1", "2", "7"), "a2")]

    ap = upper_vee(table1, objs(table1, "4"))
    assert _granules(ap) == [(objs(table1, "4", "5", "6"), "a5")]


def test_upper_vee_fixed_point(table1) -> None:
    ap = upper_vee(table1, objs(table1, "1", "4", "5", "6", "7"))
    assert ap.exact is True
    assert _granules(ap) == [
        (objs(table1, "1", "4", "5", "6", "7"), "a3 ∨ a4 ∨ a5")
    ]


def test_upper_vee_input_validation(table1) -> None:
    with pytest.raises(ValueError):
        upper_vee(table1, frozenset())
    bare = FormalContext(("o1", "o2"), ("a1",), ((1,), (0,)))
    with pytest.raises(Inapplicable):
        upper_vee(bare, {1})


# ---------------------------------------------------------------------------
# two-part closures
# ---------------------------------------------------------------------------


def test_upper_cn_fixed_points(table5) -> None:
    ap = upper_cn(table5, objs(table5, "2", "3"))
    assert ap.exact is True
    assert _granules(ap) == [(objs(table5, "2", "3"), "a1 ∧ (b3)")]

    ap = upper_cn(table5, objs(table5, "2", "7"))
    assert ap.exact is True
    assert _granules(ap) == [(objs(table5, "2", "7"), "a1 ∧ a2 ∧ (b2 ∨ b4)")]


def test_upper_cn_closure(table5) -> None:
    ap = upper_cn(table5, objs(table5, "1", "2"))
    assert ap.exact is False
    assert _granules(ap) == [
        (objs(table5, "1", "2", "7"), "a2 ∧ (b1 ∨ b2 ∨ b4)")
    ]


def test_upper_cn_applicability(table5, table3, scores) -> None:
    with pytest.raises(ValueError):
        upper_cn(table5, frozenset())
    with pytest.raises(FlavorMismatch):
        upper_cn(table3, {0})
    with pytest.raises(Inapplicable):
        upper_cn(table5, objs(table5, "1", "4"))  # no common attribute
    with pytest.raises(Inapplicable):
        upper_cn(scores, objs(scores, "Peter"))  # outside every b-extent


# ---------------------------------------------------------------------------
# cover enumeration
# ---------------------------------------------------------------------------


def _complement_candidates(ctx: FormalContext) -> tuple[tuple[int, frozenset[int]], ...]:
    universe = frozenset(range(ctx.n_objects))
    cols = oracles.column_extents(ctx.incidence)
    return tuple((j, universe - ext) for j, ext in enumerate(cols))


def test_minimal_covers_on_the_complement_fixture(table6) -> None:
    problem = CoverProblem(_complement_candidates(table6), frozenset({0, 1, 2}))
    assert enumerate_minimal_covers(problem) == [
        (frozenset({1, 4}), frozenset({0, 1, 2, 4})),
        (frozenset({0, 1, 2}), frozenset({0, 1, 2, 5})),
    ]


def test_minimal_covers_empty_target() -> None:
    problem = CoverProblem(((0, frozenset({1})),), frozenset())
    assert enumerate_minimal_covers(problem) == [(frozenset(), frozenset())]


def test_minimal_covers_uncoverable_target() -> None:
    problem = CoverProblem(((0, frozenset({1})),), frozenset({0, 1}))
    assert enumerate_minimal_covers(problem) == []


def test_cover_problem_rejects_duplicate_ids() -> None:
    with pytest.raises(ValueError):
        CoverProblem(((0, frozenset()), (0, frozenset({1}))), frozenset())


def test_cover_problem_rejects_negative_object_indices() -> None:
    with pytest.raises(ValueError, match="^candidate 0 holds negative object index -1$"):
        CoverProblem(((0, frozenset({-1})),), frozenset({0}))
    with pytest.raises(ValueError, match="^candidate 7 holds negative object index -3$"):
        CoverProblem(((2, frozenset({1})), (7, frozenset({4, -3, -1}))), frozenset())
    with pytest.raises(ValueError, match="^the target holds negative object index -2$"):
        CoverProblem(((0, frozenset({1})),), frozenset({-2, 0}))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_cand=st.integers(0, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    strict=st.booleans(),
    union_target=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_minimal_covers_match_exhaustive_search(
    seed: int, n_obj: int, n_cand: int, density: float, strict: bool, union_target: bool
) -> None:
    rng = random.Random(seed)
    cands = tuple(
        (j, frozenset(i for i in range(n_obj) if rng.random() < density))
        for j in range(n_cand)
    )
    if union_target:
        # a union of candidates, so a strict search must step past it
        target = frozenset().union(*(c for _, c in cands if rng.random() < 0.5))
    else:
        target = _subset(rng, n_obj)
    got = enumerate_minimal_covers(CoverProblem(cands, target), strict=strict)
    assert got == oracles.minimal_cover_entries(list(cands), target, strict=strict)


# ---------------------------------------------------------------------------
# optimality against brute force
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=100, deadline=None)
def test_bounds_are_optimal_on_plain_contexts(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    x = _subset(rng, n_obj)
    cols = oracles.column_extents(ctx.incidence)
    conjs = oracles.conj_family(cols, n_obj)
    disjs = oracles.disj_family(cols)

    # upper wedge: least definable superset
    try:
        up = upper_wedge(ctx, x)
    except Inapplicable:
        assert not any(z >= x for z in conjs)
    else:
        granule = up.granules[0][0]
        assert granule in conjs and granule >= x
        assert all(granule <= z for z in conjs if z >= x)

    # lower wedge: exactly the maximal definable strict subsets
    if len(x) < n_obj:
        lo = lower_wedge(ctx, x)
        got = {g for g, _ in lo.granules}
        assert got == oracles.maximal_strict_subsets(conjs, x)

    # lower vee: unique greatest definable subset
    lv = lower_vee(ctx, x)
    granule = lv.granules[0][0]
    inside = {z for z in disjs if z <= x}
    assert granule == frozenset().union(*inside) if inside else granule == frozenset()
    assert all(z <= granule for z in inside)

    # upper vee: exactly the minimal definable supersets
    if x:
        try:
            uv = upper_vee(ctx, x)
        except Inapplicable:
            assert not any(z >= x for z in disjs)
        else:
            got = {g for g, _ in uv.granules}
            assert got == oracles.minimal_supersets(disjs, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 5),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=80, deadline=None)
def test_bounds_are_optimal_on_three_way_compounds(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    cctx = appose_negation(ctx)
    x = _subset(rng, n_obj)
    family = oracles.conj_family(oracles.doubled_columns(ctx.incidence), n_obj)

    try:
        up = upper_three_way(cctx, x)
    except Inapplicable:
        # every attribute is mixed on x, so no conjunction contains x
        assert not any(z >= x for z in family)
    else:
        granule = up.granules[0][0]
        assert granule in family and granule >= x
        assert all(granule <= z for z in family if z >= x)

    if len(x) < n_obj:
        lo = lower_three_way(cctx, x)
        got = {g for g, _ in lo.granules}
        assert got == oracles.maximal_strict_subsets(family, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 5),
    n_a=st.integers(1, 4),
    n_b=st.integers(1, 4),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=80, deadline=None)
def test_upper_cn_is_least_superset(
    seed: int, n_obj: int, n_a: int, n_b: int, density: float
) -> None:
    rng = random.Random(seed)
    cctx = random_cn_context(rng, n_obj, n_a, n_b, density)
    x = _subset(rng, n_obj)
    if not x:
        return
    family = oracles.cn_family(
        oracles.column_extents(cctx.a_incidence),
        oracles.column_extents(cctx.b_incidence),
        n_obj,
    )
    try:
        up = upper_cn(cctx, x)
    except Inapplicable:
        assert not any(z >= x for z in family)
        return
    granule = up.granules[0][0]
    assert granule in family and granule >= x
    # minimal, not least: the two-part family is not closed under
    # intersection, so incomparable supersets may exist
    assert not any(z >= x and z < granule for z in family)


def _shaped_context(
    rng: random.Random, n_obj: int, n_att: int, density: float, shape: str
) -> FormalContext:
    rows = [[rng.random() < density for _ in range(n_att)] for _ in range(n_obj)]
    if shape == "empty column":
        j = rng.randrange(n_att)
        for row in rows:
            row[j] = False
    elif shape in ("full row", "empty row"):
        rows[rng.randrange(n_obj)] = [shape == "full row"] * n_att
    objects = tuple(str(i + 1) for i in range(n_obj))
    return FormalContext(objects, tuple(f"a{j + 1}" for j in range(n_att)), tuple(map(tuple, rows)))


def _granule_of_kind(rng: random.Random, ctx: FormalContext, kind: str) -> frozenset[int]:
    universe = frozenset(range(ctx.n_objects))
    if kind == "empty":
        return frozenset()
    if kind == "full":
        return universe
    if kind == "random":
        return _subset(rng, ctx.n_objects)
    cols = oracles.column_extents(ctx.incidence)
    chosen = [c for c in cols if rng.random() < 0.5] or [rng.choice(cols)]
    if kind == "extent":
        return universe.intersection(*chosen)
    return frozenset().union(*chosen)


def _outcome(call) -> str | tuple[type, str]:
    """The repr of the whole answer, or the type and message of the error."""
    try:
        return repr(call())
    except (ValueError, GranuleDescError) as exc:
        return type(exc), str(exc)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 9),
    n_att=st.integers(1, 7),
    density=st.floats(0.1, 0.95),
    shape=st.sampled_from(["plain", "empty column", "full row", "empty row"]),
    kind=st.sampled_from(["empty", "full", "random", "extent", "union"]),
)
@settings(max_examples=200, deadline=None)
def test_cover_bounds_match_the_separate_routines(
    seed: int, n_obj: int, n_att: int, density: float, shape: str, kind: str
) -> None:
    # direction, mode, granules with their descriptions and exact, or the
    # exception, as the conjunctive lower bounds and upper_vee gave them
    # from their own routines
    rng = random.Random(seed)
    ctx = _shaped_context(rng, n_obj, n_att, density, shape)
    cctx = appose_negation(ctx)
    x = _granule_of_kind(rng, ctx, kind)
    pairs = [
        (lambda: lower_wedge(ctx, x),
         lambda: oracles.lower_by_complement_cover(ctx, x, Mode.WEDGE)),
        (lambda: lower_three_way(cctx, x),
         lambda: oracles.lower_by_complement_cover(cctx, x, Mode.THREE_WAY)),
        (lambda: upper_vee(ctx, x), lambda: oracles.upper_vee_by_cover(ctx, x)),
    ]
    for got, want in pairs:
        assert _outcome(got) == _outcome(want)


# ---------------------------------------------------------------------------
# shared result invariants
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.2, 0.3, 0.5]))
@settings(max_examples=60, deadline=None)
def test_cover_bounds_come_in_strictly_increasing_order(seed: int, density: float) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, 16, 12, density)
    x = _subset(rng, 16)
    cols = oracles.column_extents(ctx.incidence)
    runs = [
        lambda: lower_wedge(ctx, x).granules,
        lambda: lower_three_way(appose_negation(ctx), x).granules,
        lambda: upper_vee(ctx, x).granules,
        lambda: [(u, ids) for ids, u in enumerate_minimal_covers(
            CoverProblem(tuple(enumerate(cols)), x))],
    ]
    for run in runs:
        try:
            granules = run()
        except (Inapplicable, ValueError):
            continue
        keys = [(len(g), tuple(sorted(g))) for g, _ in granules]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_results_self_validate_and_stay_sorted(table1, table3, table5) -> None:
    cases = [
        (table1, objs(table1, "1", "2"), upper_wedge(table1, objs(table1, "1", "2"))),
        (table1, objs(table1, "1", "2"), lower_wedge(table1, objs(table1, "1", "2"))),
        (
            table3,
            objs(table3, "1", "2", "6"),
            lower_three_way(table3, objs(table3, "1", "2", "6")),
        ),
        (table1, objs(table1, "1", "2"), upper_vee(table1, objs(table1, "1", "2"))),
        (table1, frozenset(range(7)), lower_vee(table1, range(7))),
        (table5, objs(table5, "1", "2"), upper_cn(table5, objs(table5, "1", "2"))),
    ]
    for ctx, x, ap in cases:
        sizes = [(len(g), tuple(sorted(g))) for g, _ in ap.granules]
        assert sizes == sorted(sizes)
        assert len({g for g, _ in ap.granules}) == len(ap.granules)
        for g, d in ap.granules:
            if d is not None:
                assert evaluate(ctx, d) == g
            if ap.direction is Direction.UPPER:
                assert g >= x
            else:
                assert g <= x
