"""Definability verdicts, composed descriptions and minimal descriptions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granudesc import (
    CompoundContext,
    FlavorMismatch,
    FormalContext,
    Inapplicable,
    Mode,
    Reason,
    Status,
    appose_negation,
    cn_intent,
    compound_extent,
    conj_disj,
    conj_of,
    evaluate,
    find_covering_elements,
    intersect_descriptions,
    is_cn_definable,
    is_three_way_definable,
    is_vee_definable,
    is_wedge_definable,
    make_cn_context,
    minimal_descriptions,
    render,
    union_vee_descriptions,
    upper_cn,
)
from granudesc import _kernel
from granudesc._bits import bits
from granudesc.definability import _RULES, _Rule

from . import oracles
from .conftest import (
    WIDE_CN_MINIMAL,
    WIDE_CN_OBJECT,
    objs,
    random_cn_context,
    random_context,
)


def _subset(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# conjunctive mode
# ---------------------------------------------------------------------------


def test_wedge_definable_pair(table1) -> None:
    v = is_wedge_definable(table1, objs(table1, "2", "7"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ a2"
    assert evaluate(table1, v.description) == objs(table1, "2", "7")


def test_wedge_definable_singleton_uses_full_intent(table1) -> None:
    v = is_wedge_definable(table1, objs(table1, "6"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a3 ∧ a4 ∧ a5"


def test_wedge_indefinable_reports_closure_witness(table1) -> None:
    v = is_wedge_definable(table1, objs(table1, "1", "2"))
    assert v.status is Status.INDEFINABLE
    assert v.description is None
    assert v.witness == objs(table1, "1", "2", "7")


def test_wedge_whole_universe_is_inapplicable(table1) -> None:
    # no attribute is shared by all seven objects
    v = is_wedge_definable(table1, range(7))
    assert v.status is Status.INAPPLICABLE
    assert v.reason is Reason.EMPTY_INTENT


def test_wedge_empty_granule(table1) -> None:
    v = is_wedge_definable(table1, frozenset())
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ a2 ∧ a3 ∧ a4 ∧ a5"
    assert evaluate(table1, v.description) == frozenset()


def test_the_self_check_refuses_a_description_of_another_granule(table1, monkeypatch) -> None:
    rule = _RULES[Mode.WEDGE]
    a1 = conj_of(table1, [0])  # objects 2, 3 and 7

    def wrong(ctx, attrs):
        return a1

    monkeypatch.setitem(_RULES, Mode.WEDGE, _Rule(**{**rule.__getstate__(), "build": wrong}))
    with pytest.raises(AssertionError) as err:
        is_wedge_definable(table1, objs(table1, "2", "7"))
    assert str(err.value) == f"description {a1!r} evaluates to [1, 2, 6], not [1, 6]"


def test_covering_elements(table1) -> None:
    assert find_covering_elements(table1, objs(table1, "1", "2")) == objs(table1, "7")
    assert find_covering_elements(table1, objs(table1, "2", "7")) == frozenset()
    with pytest.raises(Inapplicable):
        find_covering_elements(table1, range(7))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_covering_emptiness_equals_wedge_definability(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    """The no-covering-element diagnostic and the closure check agree."""
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    x = _subset(rng, n_obj)
    verdict = is_wedge_definable(ctx, x)
    if verdict.status is Status.INAPPLICABLE:
        with pytest.raises(Inapplicable):
            find_covering_elements(ctx, x)
    else:
        empty = find_covering_elements(ctx, x) == frozenset()
        assert empty == (verdict.status is Status.DEFINABLE)


# ---------------------------------------------------------------------------
# three-way mode
# ---------------------------------------------------------------------------


def test_three_way_definable_pairs(table3) -> None:
    v = is_three_way_definable(table3, objs(table3, "2", "7"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ a2 ∧ ¬a4 ∧ ¬a5"

    v = is_three_way_definable(table3, objs(table3, "2", "3"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"


def test_three_way_empty_granule_is_definable(table3) -> None:
    # a1 together with its negation already has an empty extent
    v = is_three_way_definable(table3, frozenset())
    assert v.status is Status.DEFINABLE
    assert evaluate(table3, v.description) == frozenset()


def test_three_way_indefinable_witness(table3) -> None:
    v = is_three_way_definable(table3, objs(table3, "1", "2"))
    assert v.status is Status.INDEFINABLE
    assert v.witness == objs(table3, "1", "2", "7")


def test_three_way_rejects_cn_compound(table5) -> None:
    with pytest.raises(FlavorMismatch):
        is_three_way_definable(table5, {0})


# ---------------------------------------------------------------------------
# disjunctive mode
# ---------------------------------------------------------------------------


def test_vee_definable_pairs(table1) -> None:
    v = is_vee_definable(table1, objs(table1, "1", "4", "5", "6", "7"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a3 ∨ a4 ∨ a5"

    v = is_vee_definable(table1, objs(table1, "1", "2", "4", "5", "6", "7"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a2 ∨ a3 ∨ a4 ∨ a5"


def test_vee_inapplicable_when_no_extent_fits(table1) -> None:
    v = is_vee_definable(table1, objs(table1, "1", "2"))
    assert v.status is Status.INAPPLICABLE
    assert v.reason is Reason.EMPTY_INTENT


def test_vee_indefinable_witness(table1) -> None:
    v = is_vee_definable(table1, objs(table1, "5", "6", "7"))
    assert v.status is Status.INDEFINABLE
    assert v.witness == objs(table1, "5", "6")


def test_vee_whole_universe(table1) -> None:
    v = is_vee_definable(table1, range(7))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∨ a2 ∨ a3 ∨ a4 ∨ a5"


def test_vee_complement_route_agrees_on_fixtures(table1) -> None:
    for x in [
        objs(table1, "1", "4", "5", "6", "7"),
        objs(table1, "1", "2"),
        objs(table1, "5", "6", "7"),
        frozenset(range(7)),
        frozenset(),
    ]:
        assert oracles.vee_verdict_via_complement(table1, x) == is_vee_definable(table1, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_vee_complement_route_agrees_everywhere(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    x = _subset(rng, n_obj)
    assert oracles.vee_verdict_via_complement(ctx, x) == is_vee_definable(ctx, x)


# ---------------------------------------------------------------------------
# common-and-necessary mode
# ---------------------------------------------------------------------------


def test_cn_definable_pairs(table5) -> None:
    v = is_cn_definable(table5, objs(table5, "2", "3", "7"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ (b2 ∨ b4)"

    v = is_cn_definable(table5, objs(table5, "2", "3"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ (b3)"


def test_cn_definable_on_two_part_scores(scores) -> None:
    v = is_cn_definable(scores, objs(scores, "Grace", "Jenny"))
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "c1 ∧ c2 ∧ c3 ∧ c4 ∧ (ec1 ∨ ec2)"


def test_cn_inapplicable_reasons(scores, table5) -> None:
    v = is_cn_definable(scores, objs(scores, "Peter"))
    assert v.status is Status.INAPPLICABLE
    assert v.reason is Reason.NO_B_COVER

    v = is_cn_definable(table5, objs(table5, "1", "4"))
    assert v.status is Status.INAPPLICABLE
    assert v.reason is Reason.EMPTY_A_PART


def test_cn_indefinable_witness(table5) -> None:
    v = is_cn_definable(table5, objs(table5, "3", "7"))
    assert v.status is Status.INDEFINABLE
    assert v.witness == objs(table5, "2", "3", "7")


def test_cn_input_validation(table5, table3) -> None:
    with pytest.raises(ValueError):
        is_cn_definable(table5, frozenset())
    with pytest.raises(ValueError):
        is_cn_definable(table5, {9})
    with pytest.raises(FlavorMismatch):
        is_cn_definable(table3, {0})


# ---------------------------------------------------------------------------
# verdicts against exhaustive formula search
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=100, deadline=None)
def test_plain_verdicts_match_formula_families(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    """Definable exactly when some nonempty attribute subset evaluates to X."""
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    cols = oracles.column_extents(ctx.incidence)
    conjs = oracles.conj_family(cols, n_obj)
    disjs = oracles.disj_family(cols)
    threes = oracles.conj_family(
        oracles.doubled_columns(ctx.incidence), n_obj
    )
    cctx = appose_negation(ctx)
    x = _subset(rng, n_obj)
    assert (is_wedge_definable(ctx, x).status is Status.DEFINABLE) == (x in conjs)
    assert (is_vee_definable(ctx, x).status is Status.DEFINABLE) == (x in disjs)
    assert (is_three_way_definable(cctx, x).status is Status.DEFINABLE) == (
        x in threes
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 5),
    n_a=st.integers(1, 4),
    n_b=st.integers(1, 4),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=80, deadline=None)
def test_cn_verdicts_match_formula_family(
    seed: int, n_obj: int, n_a: int, n_b: int, density: float
) -> None:
    rng = random.Random(seed)
    cctx = random_cn_context(rng, n_obj, n_a, n_b, density)
    family = oracles.cn_family(
        oracles.column_extents(cctx.a_incidence),
        oracles.column_extents(cctx.b_incidence),
        n_obj,
    )
    x = _subset(rng, n_obj)
    if not x:
        return
    assert (is_cn_definable(cctx, x).status is Status.DEFINABLE) == (x in family)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_intersect_three_way_descriptions(table3) -> None:
    v = intersect_descriptions(
        table3, objs(table3, "2", "3"), objs(table3, "2", "7"), mode="three_way"
    )
    assert v.status is Status.DEFINABLE
    assert evaluate(table3, v.description) == objs(table3, "2")
    assert render(v.description) == "a1 ∧ a2 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"


def test_intersect_wedge_descriptions(table1) -> None:
    v = intersect_descriptions(
        table1, objs(table1, "2", "3", "7"), objs(table1, "1", "2", "7")
    )
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a1 ∧ a2"
    assert evaluate(table1, v.description) == objs(table1, "2", "7")


def test_intersect_same_granule_is_its_description(table1) -> None:
    x = objs(table1, "2", "7")
    v = intersect_descriptions(table1, x, x)
    assert v.description == is_wedge_definable(table1, x).description


def test_intersect_requires_definable_inputs(table1) -> None:
    v = intersect_descriptions(table1, objs(table1, "1", "2"), objs(table1, "2", "7"))
    assert v.status is Status.INAPPLICABLE
    assert v.description is None
    with pytest.raises(ValueError):
        intersect_descriptions(table1, {0}, {1}, mode="vee")


def test_union_vee_descriptions(table1) -> None:
    v = union_vee_descriptions(
        table1,
        objs(table1, "1", "4", "5", "6", "7"),
        objs(table1, "1", "2", "5", "6", "7"),
    )
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a2 ∨ a3 ∨ a4 ∨ a5"
    assert evaluate(table1, v.description) == objs(
        table1, "1", "2", "4", "5", "6", "7"
    )


def test_union_vee_widens_to_the_closure_intent(table1) -> None:
    v = union_vee_descriptions(
        table1, objs(table1, "4", "5", "6"), objs(table1, "1", "6", "7")
    )
    assert v.status is Status.DEFINABLE
    assert render(v.description) == "a3 ∨ a4 ∨ a5"
    assert evaluate(table1, v.description) == objs(table1, "1", "4", "5", "6", "7")


def test_union_vee_same_granule_and_precondition(table1) -> None:
    x = objs(table1, "1", "4", "5", "6", "7")
    assert union_vee_descriptions(table1, x, x).description == is_vee_definable(
        table1, x
    ).description
    v = union_vee_descriptions(table1, x, objs(table1, "1", "2"))
    assert v.status is Status.INAPPLICABLE


# ---------------------------------------------------------------------------
# minimal descriptions
# ---------------------------------------------------------------------------


def test_minimal_wedge_descriptions(table1) -> None:
    got = [render(d) for d in minimal_descriptions(table1, objs(table1, "6"), "wedge")]
    assert got == ["a3 ∧ a4", "a3 ∧ a5"]
    got = [
        render(d) for d in minimal_descriptions(table1, objs(table1, "2", "7"), "wedge")
    ]
    assert got == ["a1 ∧ a2"]


def test_minimal_three_way_descriptions(table3) -> None:
    got = [
        render(d)
        for d in minimal_descriptions(table3, objs(table3, "2", "3"), "three_way")
    ]
    assert got == ["a1 ∧ ¬a3", "¬a3 ∧ ¬a5"]


def test_minimal_vee_descriptions(table1) -> None:
    got = [
        render(d)
        for d in minimal_descriptions(
            table1, objs(table1, "1", "4", "5", "6", "7"), "vee"
        )
    ]
    assert got == ["a3 ∨ a5"]


def test_minimal_cn_descriptions(table5) -> None:
    got = [
        render(d)
        for d in minimal_descriptions(table5, objs(table5, "2", "3", "7"), "cn")
    ]
    assert got == ["a1 ∧ (b4)", "a1 ∧ (b1 ∨ b3)", "a1 ∧ (b2 ∨ b3)"]


@pytest.mark.parametrize(
    ("entry", "call"),
    [
        ("is_cn_definable", is_cn_definable),
        ("upper_cn", upper_cn),
        ("cn_intent", cn_intent),
        ("minimal_descriptions", lambda c, x: minimal_descriptions(c, x, "cn")),
    ],
)
def test_cn_entry_points_refuse_the_empty_granule(table5, entry, call) -> None:
    with pytest.raises(ValueError, match=f"^{entry} needs a non-empty granule$"):
        call(table5, frozenset())


def test_minimal_descriptions_evaluate_back(table1, table3, table5) -> None:
    cases = [
        (table1, objs(table1, "6"), "wedge"),
        (table3, objs(table3, "2", "3"), "three_way"),
        (table1, objs(table1, "1", "4", "5", "6", "7"), "vee"),
        (table5, objs(table5, "2", "3", "7"), "cn"),
    ]
    for ctx, x, mode in cases:
        for d in minimal_descriptions(ctx, x, mode):
            assert evaluate(ctx, d) == x


def _pin_context() -> FormalContext:
    # a1 and a2 hold everywhere, a4 nowhere
    rows = ((1, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0))
    return FormalContext(("o1", "o2", "o3"), ("a1", "a2", "a3", "a4"), rows)


def _minimal_texts(ctx, x, mode: str) -> list[str]:
    return [render(d) for d in minimal_descriptions(ctx, x, mode)]


def test_minimal_descriptions_of_the_full_granule() -> None:
    ctx = _pin_context()
    every = range(3)
    # every attribute holding everywhere describes the full granule alone
    assert _minimal_texts(ctx, every, "wedge") == ["a1", "a2"]
    assert _minimal_texts(appose_negation(ctx), every, "three_way") == ["a1", "a2", "¬a4"]


def test_minimal_descriptions_of_the_empty_granule() -> None:
    ctx = _pin_context()
    assert _minimal_texts(ctx, [], "vee") == ["a4"]
    ctx = FormalContext(("o1", "o2"), ("a1", "a2"), ((1, 0), (0, 1)))
    assert _minimal_texts(ctx, [], "vee") == []


def test_minimal_descriptions_of_indefinable_granules(table1, table3) -> None:
    assert is_wedge_definable(table1, objs(table1, "1", "2")).status is Status.INDEFINABLE
    assert _minimal_texts(table1, objs(table1, "1", "2"), "wedge") == []
    assert is_three_way_definable(table3, objs(table3, "1", "2")).status is Status.INDEFINABLE
    assert _minimal_texts(table3, objs(table3, "1", "2"), "three_way") == []
    x = objs(table1, "1", "4", "5", "6")  # a5 fits inside, but 1 stays out
    assert is_vee_definable(table1, x).status is Status.INDEFINABLE
    assert _minimal_texts(table1, x, "vee") == []


def test_minimal_cn_descriptions_without_premise(table5) -> None:
    # no a-attribute is shared by all seven objects
    assert is_cn_definable(table5, range(7)).reason is Reason.EMPTY_A_PART
    assert _minimal_texts(table5, range(7), "cn") == []
    # o2 carries no b-attribute, so no b-disjunct covers the granule
    a = FormalContext(("o1", "o2"), ("a1",), ((1,), (1,)))
    b = FormalContext(("o1", "o2"), ("b1",), ((1,), (0,)))
    cctx = make_cn_context(a, b)
    assert is_cn_definable(cctx, [0, 1]).reason is Reason.NO_B_COVER
    assert _minimal_texts(cctx, [0, 1], "cn") == []


def test_minimal_three_way_descriptions_over_a_wide_base() -> None:
    # a one-object granule shares all 18 flattened columns it touches; a
    # scan of every subset would try 2^18 of them
    m = 18
    cctx = appose_negation(random_context(random.Random(18), 40, m, 0.4))
    x = frozenset({0})
    found = minimal_descriptions(cctx, x, "three_way")
    assert found
    for d in found:
        assert evaluate(cctx, d) == x
        flat = {a.index + m * a.negated for a in d.atoms}
        for j in flat:
            assert compound_extent(cctx, flat - {j}) != x


def _granule_for(rng: random.Random, cols: list[int], n: int, kind: str) -> int:
    """A random subset, an intersection or a union of random columns."""
    if kind == "random":
        return rng.getrandbits(n) if n else 0
    x = 0 if kind == "union" else (1 << n) - 1
    for c in cols:
        if rng.random() < 0.4:
            x = x | c if kind == "union" else x & c
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 7),
    n_att=st.integers(1, 6),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    kind=st.sampled_from(["random", "meet", "union"]),
)
@settings(max_examples=200, deadline=None)
def test_minimal_descriptions_match_subset_scan(
    seed: int, n_obj: int, n_att: int, density: float, kind: str
) -> None:
    """The transversal search gives the old scan's lists, order included,
    on definable granules and on others."""
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    x = _granule_for(rng, list(ctx.column_masks), n_obj, kind)
    xs = [i for i in range(n_obj) if x >> i & 1]
    for mode, c in (("wedge", ctx), ("vee", ctx), ("three_way", appose_negation(ctx))):
        assert minimal_descriptions(c, xs, mode) == oracles.minimal_descriptions_scan(c, x, mode)
    cctx = random_cn_context(rng, n_obj, rng.randint(1, 4), rng.randint(1, 4), density)
    if kind != "random":
        # an a-extent cut down to a union of b-extents is cn-definable
        a = _granule_for(rng, list(cctx.a_block.column_masks), n_obj, "meet")
        x = a & _granule_for(rng, list(cctx.b_block.column_masks), n_obj, "union")
        xs = [i for i in range(n_obj) if x >> i & 1]
    if x:
        want = oracles.minimal_descriptions_scan(cctx, x, "cn")
        assert minimal_descriptions(cctx, xs, "cn") == want


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 14),
    n_a=st.integers(1, 8),
    n_b=st.integers(1, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    kind=st.sampled_from(["random", "cn"]),
)
@settings(max_examples=200, deadline=None)
def test_minimal_cn_descriptions_match_the_a_part_loop(
    seed: int, n_obj: int, n_a: int, n_b: int, density: float, kind: str
) -> None:
    """The two transversal searches give the per-a-part loop's lists,
    order included, at sizes a scan of every subset cannot reach."""
    rng = random.Random(seed)
    cctx = random_cn_context(rng, n_obj, n_a, n_b, density)
    if kind == "cn":
        a = _granule_for(rng, list(cctx.a_block.column_masks), n_obj, "meet")
        x = a & _granule_for(rng, list(cctx.b_block.column_masks), n_obj, "union")
    else:
        x = rng.getrandbits(n_obj)
    x = x or 1 << rng.randrange(n_obj)
    want = [
        conj_disj(cctx, bits(s & ((1 << n_a) - 1)), bits(s >> n_a))
        for s in oracles.cn_minimal_a_part_loop(cctx, x)
    ]
    assert minimal_descriptions(cctx, bits(x), "cn") == want


def test_minimal_cn_descriptions_over_a_wide_a_block(wide_cn, monkeypatch) -> None:
    # the granule's a-intent holds 21 attributes, so a search per subset of
    # it would run 2^21 - 1 times; here one runs for the b-parts and one
    # per b-part
    x = frozenset({WIDE_CN_OBJECT})
    assert sum(wide_cn.a_incidence[WIDE_CN_OBJECT]) == 21
    searches = []
    search = _kernel.minimal_transversals
    monkeypatch.setattr(
        _kernel, "minimal_transversals", lambda *a: searches.append(a) or search(*a)
    )
    found = minimal_descriptions(wide_cn, x, "cn")
    monkeypatch.undo()
    assert len(found) == WIDE_CN_MINIMAL
    assert len(searches) <= 1 + len({d.disj_atoms for d in found})
    for d in found:
        assert evaluate(wide_cn, d) == x
        a = [t.index for t in d.conj_atoms]
        b = [t.index for t in d.disj_atoms]
        # each part stays non-empty; dropping any other atom changes the set
        shorter = [([j for j in a if j != i], b) for i in a if len(a) > 1]
        shorter += [(a, [j for j in b if j != i]) for i in b if len(b) > 1]
        for sa, sb in shorter:
            assert evaluate(wide_cn, conj_disj(wide_cn, sa, sb)) != x


def test_minimal_descriptions_unknown_mode(table1) -> None:
    with pytest.raises(ValueError):
        minimal_descriptions(table1, {0}, "linear")
