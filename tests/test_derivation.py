from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granudesc import (
    CompoundContext,
    FlavorMismatch,
    FormalContext,
    cn_extent,
    cn_intent,
    CnIntent,
    complement_context,
    compound_extent,
    compound_intent,
    extent,
    intent,
    make_cn_context,
    necessity,
    possibility,
)
from granudesc._bits import mask_of, set_of
from granudesc.derivation import _cn_b_choice

from . import oracles
from .conftest import attrs, obj_names, objs, random_cn_context, random_context

# ---------------------------------------------------------------------------
# shared-attribute / shared-object operators
# ---------------------------------------------------------------------------


def test_intent_examples(table1: FormalContext) -> None:
    assert intent(table1, objs(table1, "2", "7")) == attrs(table1.attributes, "a1", "a2")
    assert intent(table1, frozenset()) == frozenset(range(5))
    assert intent(table1, frozenset(range(7))) == frozenset()


def test_extent_examples(table1: FormalContext) -> None:
    assert obj_names(table1, extent(table1, attrs(table1.attributes, "a5"))) == {"4", "5", "6"}
    assert extent(table1, frozenset()) == frozenset(range(7))
    assert obj_names(table1, extent(table1, attrs(table1.attributes, "a2", "a3"))) == {"1", "7"}


def test_index_validation(table1: FormalContext) -> None:
    with pytest.raises(ValueError):
        intent(table1, {7})
    with pytest.raises(ValueError):
        extent(table1, {5})


# ---------------------------------------------------------------------------
# compound (attribute + complement) operators
# ---------------------------------------------------------------------------


def flat(table3: CompoundContext, *names: str) -> frozenset[int]:
    return attrs(table3.flattened.attributes, *names)


def test_compound_intent_examples(table3: CompoundContext) -> None:
    assert compound_intent(table3, objs(table3, "2", "7")) == flat(
        table3, "a1", "a2", "not_a4", "not_a5"
    )
    assert compound_intent(table3, frozenset()) == frozenset(range(10))
    assert compound_intent(table3, objs(table3, "2", "3")) == flat(
        table3, "a1", "not_a3", "not_a4", "not_a5"
    )


def test_compound_extent_examples(table3: CompoundContext) -> None:
    got = compound_extent(table3, flat(table3, "a1", "a2", "not_a3", "not_a4", "not_a5"))
    assert obj_names(table3, got) == {"2"}
    assert compound_extent(table3, frozenset()) == frozenset(range(7))
    got = compound_extent(table3, flat(table3, "a1", "not_a3", "not_a4", "not_a5"))
    assert obj_names(table3, got) == {"2", "3"}


def test_compound_ops_reject_cn_flavor(table5: CompoundContext) -> None:
    with pytest.raises(FlavorMismatch):
        compound_intent(table5, {0})
    with pytest.raises(FlavorMismatch):
        compound_extent(table5, {0})


# ---------------------------------------------------------------------------
# possibility / necessity
# ---------------------------------------------------------------------------


def test_possibility_examples(table1: FormalContext) -> None:
    got = possibility(table1, attrs(table1.attributes, "a3", "a4", "a5"))
    assert obj_names(table1, got) == {"1", "4", "5", "6", "7"}
    assert possibility(table1, frozenset()) == frozenset()
    got = possibility(table1, attrs(table1.attributes, "a2", "a3", "a4"))
    assert obj_names(table1, got) == {"1", "2", "5", "6", "7"}


def test_necessity_examples(table1: FormalContext) -> None:
    got = necessity(table1, objs(table1, "1", "4", "5", "6", "7"))
    assert got == attrs(table1.attributes, "a3", "a4", "a5")
    assert necessity(table1, frozenset(range(7))) == frozenset(range(5))
    assert necessity(table1, objs(table1, "1", "2")) == frozenset()


# ---------------------------------------------------------------------------
# common-and-necessary operators
# ---------------------------------------------------------------------------


def test_cn_extent_examples(table5: CompoundContext) -> None:
    e = CnIntent(
        attrs(table5.a_attributes, "a1"), attrs(table5.b_attributes, "b2", "b4")
    )
    assert obj_names(table5, cn_extent(table5, e)) == {"2", "3", "7"}
    e = CnIntent(attrs(table5.a_attributes, "a1"), attrs(table5.b_attributes, "b3"))
    assert obj_names(table5, cn_extent(table5, e)) == {"2", "3"}
    # empty a-part means no conjunctive constraint; the b-part is a plain union
    e = CnIntent(frozenset(), frozenset(range(4)))
    assert cn_extent(table5, e) == frozenset(range(7))
    # empty b-part is an empty union
    assert cn_extent(table5, CnIntent(frozenset({0}), frozenset())) == frozenset()


def test_cn_intent_examples(table5: CompoundContext) -> None:
    got = cn_intent(table5, objs(table5, "2", "3", "7"))
    assert got.a_part == attrs(table5.a_attributes, "a1")
    assert got.b_part == attrs(table5.b_attributes, "b2", "b4")
    assert not got.no_b_cover

    got = cn_intent(table5, objs(table5, "2", "3"))
    assert got.a_part == attrs(table5.a_attributes, "a1")
    assert got.b_part == attrs(table5.b_attributes, "b3")

    got = cn_intent(table5, objs(table5, "1", "6", "7"))
    assert got.a_part == attrs(table5.a_attributes, "a3")
    assert got.b_part == attrs(table5.b_attributes, "b1", "b2")


def test_cn_intent_flags_missing_b_cover(scores: CompoundContext) -> None:
    # Peter sits in no elective-course extent, so no union can reach him
    got = cn_intent(scores, objs(scores, "Peter"))
    assert got.no_b_cover
    assert got.b_part == frozenset()
    assert got.a_part == frozenset(range(4))


def test_cn_intent_rejects_empty_granule(table5: CompoundContext) -> None:
    with pytest.raises(ValueError):
        cn_intent(table5, frozenset())


def test_cn_ops_reject_three_way_flavor(table3: CompoundContext) -> None:
    with pytest.raises(FlavorMismatch):
        cn_intent(table3, {0})
    with pytest.raises(FlavorMismatch):
        cn_extent(table3, CnIntent(frozenset(), frozenset()))


# (entry point, the fixture it is wrongly given, further arguments)
WRONG_KIND = [
    ("is_three_way_definable", "table1", ()),
    ("is_cn_definable", "table1", ()),
    ("upper_three_way", "table1", ()),
    ("lower_three_way", "table1", ()),
    ("upper_cn", "table1", ()),
    ("enumerate_three_way", "table1", None),
    ("enumerate_cn", "table1", None),
    ("three_way_conj", "table1", ()),
    ("conj_disj", "table1", ({0},)),
    ("conj_of", "table3", ()),
    ("disj_of", "table3", ()),
    ("is_wedge_definable", "table3", ()),
    ("is_vee_definable", "table5", ()),
    ("find_covering_elements", "table3", ()),
    ("upper_wedge", "table5", ()),
    ("lower_wedge", "table3", ()),
    ("upper_vee", "table3", ()),
    ("lower_vee", "table5", ()),
    ("enumerate_formal", "table3", None),
    ("enumerate_object_oriented", "table5", None),
    ("intent", "table3", ()),
    ("extent", "table5", ()),
    ("minimal_descriptions", "table1", ("cn",)),
    ("minimal_descriptions", "table1", ("three_way",)),
    ("minimal_descriptions", "table5", ("wedge",)),
    ("intersect_descriptions", "table1", ({0}, "three_way")),
    ("union_vee_descriptions", "table3", ({0},)),
]


@pytest.mark.parametrize(
    "name, fixture, rest",
    WRONG_KIND,
    ids=[f"{n}-{f}-{r[-1] if r else ''}" for n, f, r in WRONG_KIND],
)
def test_wrong_context_kind_raises_flavor_mismatch(request, name, fixture, rest) -> None:
    import granudesc

    ctx = request.getfixturevalue(fixture)
    args = (ctx,) if rest is None else (ctx, {0}, *rest)
    with pytest.raises(FlavorMismatch, match=name):
        getattr(granudesc, name)(*args)


# ---------------------------------------------------------------------------
# derivation laws on random contexts
# ---------------------------------------------------------------------------


def _subsets(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if rng.random() < 0.5)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 8),
    n_att=st.integers(1, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=200, deadline=None)
def test_derivation_laws(seed: int, n_obj: int, n_att: int, density: float) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    x1, x2 = _subsets(rng, n_obj), _subsets(rng, n_obj)
    b1, b2 = _subsets(rng, n_att), _subsets(rng, n_att)

    # antitone on both sides
    if x1 <= x2:
        assert intent(ctx, x2) <= intent(ctx, x1)
    if b1 <= b2:
        assert extent(ctx, b2) <= extent(ctx, b1)
    # extensivity
    assert x1 <= extent(ctx, intent(ctx, x1))
    assert b1 <= intent(ctx, extent(ctx, b1))
    # idempotent closures
    assert intent(ctx, extent(ctx, intent(ctx, x1))) == intent(ctx, x1)
    assert extent(ctx, intent(ctx, extent(ctx, b1))) == extent(ctx, b1)
    # adjunction
    assert (x1 <= extent(ctx, b1)) == (b1 <= intent(ctx, x1))
    # union/intersection laws
    assert intent(ctx, x1 | x2) == intent(ctx, x1) & intent(ctx, x2)
    assert extent(ctx, b1 | b2) == extent(ctx, b1) & extent(ctx, b2)
    assert intent(ctx, x1 & x2) >= intent(ctx, x1) | intent(ctx, x2)
    assert extent(ctx, b1 & b2) >= extent(ctx, b1) | extent(ctx, b2)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 7),
    n_att=st.integers(1, 7),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=120, deadline=None)
def test_possibility_necessity_duality(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    comp = complement_context(ctx)
    universe = frozenset(range(n_obj))
    b = _subsets(rng, n_att)
    x = _subsets(rng, n_obj)
    assert possibility(ctx, b) == universe - extent(comp, b)
    assert necessity(ctx, x) == intent(comp, universe - x)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_cn_closure_is_extensive(seed: int) -> None:
    rng = random.Random(seed)
    cctx = random_cn_context(rng, rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 5), 0.5)
    n = len(cctx.objects)
    x = _subsets(rng, n)
    if not x:
        return
    e = cn_intent(cctx, x)
    if e.no_b_cover or not e.a_part:
        return
    assert cn_extent(cctx, e) >= x


def test_cn_b_part_matches_full_pool_rule() -> None:
    """The trace-restricted pool gives the b-part the full pool gives, on
    covered random granules, and both of its paths run."""
    paths = {"restricted": 0, "fallback": 0}

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_obj=st.integers(1, 9),
        n_a=st.integers(1, 5),
        n_b=st.integers(1, 6),
        density=st.sampled_from([0.2, 0.5, 0.8]),
    )
    @settings(max_examples=300, deadline=None)
    def check(seed: int, n_obj: int, n_a: int, n_b: int, density: float) -> None:
        rng = random.Random(seed)
        cctx = random_cn_context(rng, n_obj, n_a, n_b, density)
        x = mask_of(_subsets(rng, n_obj) & possibility(cctx.b_block, range(n_b)))
        if not x:
            return
        got = cn_intent(cctx, set_of(x))
        a_part = mask_of(got.a_part)
        assert not got.no_b_cover
        assert got.b_part == set_of(oracles.cn_b_part_full_pool(cctx, x, a_part))
        outside = mask_of(extent(cctx.a_block, got.a_part)) & ~x
        reach = 0
        for c in cctx.b_block.column_masks:
            if not c & outside:
                reach |= c
        paths["fallback" if x & ~reach else "restricted"] += 1

    check()
    assert paths["restricted"] and paths["fallback"], paths


@given(st.lists(st.integers(1, 2**9 - 1), min_size=1, max_size=12, unique=True))
@settings(max_examples=200, deadline=None)
def test_cn_b_choice_takes_the_least_union_by_size_then_member_vector(
    unions: list[int],
) -> None:
    # one b-column per object, so the b-part names the chosen union itself
    ident = FormalContext(
        tuple(str(i) for i in range(9)),
        tuple(f"b{j}" for j in range(9)),
        tuple(tuple(i == j for j in range(9)) for i in range(9)),
    )
    want = min(unions, key=lambda y: (y.bit_count(), oracles.member_vector(y, 9)))
    assert _cn_b_choice(ident, unions) == want


def test_cn_b_part_falls_back_to_every_b_extent() -> None:
    # g = {1,2}, and the only b-extent meets g outside the granule {1}:
    # the restricted pool is empty, so the b-part comes from the full pool
    a = FormalContext(("1", "2"), ("a1",), ((True,), (True,)))
    b = FormalContext(("1", "2"), ("b1",), ((True,), (True,)))
    cctx = make_cn_context(a, b)
    assert cn_intent(cctx, {0}) == CnIntent(frozenset({0}), frozenset({0}))
    assert oracles.cn_b_part_full_pool(cctx, 0b01, 0b1) == 0b1
