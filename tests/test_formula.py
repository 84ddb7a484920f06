from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granudesc import (
    Atom,
    Block,
    CompoundContext,
    Conj,
    ConjDisj,
    Disj,
    FlavorMismatch,
    FormalContext,
    GranuleDescError,
    appose_negation,
    conj_disj,
    conj_of,
    disj_of,
    evaluate,
    extent,
    make_cn_context,
    parse_description,
    possibility,
    render,
    three_way_conj,
)

from granudesc import formula

from .conftest import attrs, obj_names, objs, random_cn_context, random_context
from .oracles import FRESH_BUILDERS, column_extents, parse_description_scanner
from .oracles import _TOKEN as SCANNER_TOKEN


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def a(index: int, name: str, negated: bool = False) -> Atom:
    return Atom(Block.A, index, name, negated)


def test_empty_descriptions_rejected() -> None:
    with pytest.raises(GranuleDescError):
        Conj(())
    with pytest.raises(GranuleDescError):
        Disj(())


def test_duplicate_atoms_rejected() -> None:
    with pytest.raises(GranuleDescError):
        Conj((a(0, "a1"), a(0, "a1")))
    # same index with opposite polarity is two distinct atoms
    Conj((a(0, "a1"), a(0, "a1", negated=True)))


def test_disjunction_atoms_must_be_positive() -> None:
    with pytest.raises(GranuleDescError):
        Disj((a(0, "a1", negated=True),))


def test_conj_disj_block_discipline() -> None:
    b = Atom(Block.B, 0, "b1")
    ConjDisj((a(0, "a1"),), (b,))
    with pytest.raises(GranuleDescError):
        ConjDisj((b,), (b,))
    with pytest.raises(GranuleDescError):
        ConjDisj((a(0, "a1"),), (a(1, "a2"),))
    with pytest.raises(GranuleDescError):
        ConjDisj((), (b,))


# ---------------------------------------------------------------------------
# the builders' trusted path against the fresh-atom reference
# ---------------------------------------------------------------------------


def _outcome(build, *args):
    """What a builder returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _index_list(rng: random.Random, width: int) -> list[int]:
    """Indices in range(width) in any order, some twice; now and then
    none, or one below or above the range."""
    chosen = [j for j in range(width) if rng.random() < 0.4]
    chosen += rng.sample(chosen, len(chosen) // 2)
    r = rng.random()
    if r < 0.15:
        chosen.append(rng.choice([-1 - rng.randrange(3), width + rng.randrange(3)]))
    elif r < 0.25:
        chosen = []
    rng.shuffle(chosen)
    return chosen


def _all_atoms(d) -> tuple[Atom, ...]:
    return d.conj_atoms + d.disj_atoms if isinstance(d, ConjDisj) else d.atoms


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["plain", "three_way", "cn"]),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 6),
    n_b=st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_builders_match_fresh_atom_reference(
    seed: int, kind: str, n_obj: int, n_att: int, n_b: int
) -> None:
    rng = random.Random(seed)
    if kind == "plain":
        ctx = random_context(rng, n_obj, n_att, 0.4)
        calls = [("conj_of", (n_att,)), ("disj_of", (n_att,))]
    elif kind == "three_way":
        ctx = appose_negation(random_context(rng, n_obj, n_att, 0.4))
        calls = [("three_way_conj", (2 * n_att,))]
    else:
        ctx = random_cn_context(rng, n_obj, n_att, n_b, 0.4)
        calls = [("conj_disj", (n_att, n_b))]
    twin = dataclasses.replace(ctx)
    for name, widths in calls:
        for _ in range(8):
            index_lists = [_index_list(rng, w) for w in widths]
            built = _outcome(getattr(formula, name), ctx, *index_lists)
            ref = _outcome(FRESH_BUILDERS[name], ctx, *index_lists)
            assert built == ref
            if isinstance(ref, tuple):  # both raised, alike
                continue
            assert type(built) is type(ref)
            assert hash(built) == hash(ref) and repr(built) == repr(ref)
            for ascii_ops in (False, True):
                text = render(built, ascii_ops=ascii_ops)
                assert text == render(ref, ascii_ops=ascii_ops)
                again = parse_description(text, ctx)
                # a one-atom disjunction reads back as a conjunction
                assert again == built or (
                    isinstance(built, Disj)
                    and len(built.atoms) == 1
                    and again == Conj(built.atoms)
                )
            twice = getattr(formula, name)(ctx, *index_lists)
            assert all(x is y for x, y in zip(_all_atoms(twice), _all_atoms(built)))
    # the atom rows kept on the context change none of its identity
    assert ctx == twin and hash(ctx) == hash(twin) and repr(ctx) == repr(twin)


def test_builder_errors_keep_their_order(table5: CompoundContext) -> None:
    for a_attrs, b_attrs in [(set(), {99}), ({-1}, {99}), ({99}, set()), (set(), {0})]:
        built = _outcome(conj_disj, table5, a_attrs, b_attrs)
        assert built == _outcome(FRESH_BUILDERS["conj_disj"], table5, a_attrs, b_attrs)
    assert _outcome(conj_disj, table5, set(), {99}) == (
        ValueError, "attribute index 99 out of range"
    )
    assert _outcome(conj_disj, table5, {0}, set()) == (
        GranuleDescError, "a description needs at least one atom"
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_conj_example(table1: FormalContext) -> None:
    d = conj_of(table1, attrs(table1.attributes, "a1", "a2"))
    assert obj_names(table1, evaluate(table1, d)) == {"2", "7"}


def test_evaluate_disj_example(table1: FormalContext) -> None:
    d = disj_of(table1, attrs(table1.attributes, "a3", "a4", "a5"))
    assert obj_names(table1, evaluate(table1, d)) == {"1", "4", "5", "6", "7"}


def test_evaluate_conj_disj_example(scores: CompoundContext) -> None:
    d = conj_disj(scores, range(4), range(2))
    assert obj_names(scores, evaluate(scores, d)) == {"Grace", "Jenny"}


def test_evaluate_three_way_conj(table3: CompoundContext) -> None:
    flat = table3.flattened
    d = three_way_conj(table3, attrs(flat.attributes, "a1", "a2", "not_a4", "not_a5"))
    assert obj_names(table3, evaluate(table3, d)) == {"2", "7"}


def test_evaluate_rejects_unresolvable_atoms(table1: FormalContext, table5) -> None:
    with pytest.raises(GranuleDescError):
        evaluate(table1, Conj((a(0, "zzz"),)))
    with pytest.raises(GranuleDescError):
        evaluate(table1, Conj((a(0, "a1", negated=True),)))
    with pytest.raises(GranuleDescError):
        evaluate(table1, Conj((Atom(Block.B, 0, "b1"),)))
    with pytest.raises(FlavorMismatch):
        evaluate(table1, ConjDisj((a(0, "a1"),), (Atom(Block.B, 0, "b1"),)))
    with pytest.raises(GranuleDescError):
        evaluate(table5, ConjDisj((a(0, "a1"),), (Atom(Block.B, 9, "b99"),)))


def test_evaluate_refuses_negated_b_atoms(table3: CompoundContext, table5) -> None:
    # only the a-block of a three-way compound has negated atoms
    for ctx, name in [(table3, "not_a1"), (table5, "b1")]:
        with pytest.raises(GranuleDescError, match="does not resolve"):
            evaluate(ctx, Conj((Atom(Block.B, 0, name, negated=True),)))


# the atom kinds each context admits, by (block, negated)
ADMITTED = {
    "plain": {(Block.A, False)},
    "three_way": {(Block.A, False), (Block.B, False), (Block.A, True)},
    "cn": {(Block.A, False), (Block.B, False)},
}


def _kind_columns(ctx, kind: str) -> dict:
    """Names and object sets of all four atom kinds, read from the raw
    incidence; a negated atom keeps its name and holds where it fails.  A
    plain table lends its one block to both, as a hand-built atom may."""
    if kind == "plain":
        a_names = b_names = ctx.attributes
        a_cols = b_cols = column_extents(ctx.incidence)
    else:
        a_names, b_names = ctx.a_attributes, ctx.b_attributes
        a_cols, b_cols = column_extents(ctx.a_incidence), column_extents(ctx.b_incidence)
    universe = frozenset(range(ctx.n_objects))
    return {
        (Block.A, False): (a_names, a_cols),
        (Block.B, False): (b_names, b_cols),
        (Block.A, True): (a_names, [universe - c for c in a_cols]),
        (Block.B, True): (b_names, [universe - c for c in b_cols]),
    }


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["plain", "three_way", "cn"]),
    n_obj=st.integers(1, 6),
    n_att=st.integers(1, 5),
    n_b=st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_every_admitted_atom_resolves_and_no_other(
    seed: int, kind: str, n_obj: int, n_att: int, n_b: int
) -> None:
    rng = random.Random(seed)
    if kind == "plain":
        ctx = random_context(rng, n_obj, n_att, 0.4)
    elif kind == "three_way":
        ctx = appose_negation(random_context(rng, n_obj, n_att, 0.4))
    else:
        ctx = random_cn_context(rng, n_obj, n_att, n_b, 0.4)
    for (block, negated), (names, cols) in _kind_columns(ctx, kind).items():
        admitted = (block, negated) in ADMITTED[kind]
        for j, name in enumerate(names):
            atom = Atom(block, j, name, negated)
            if admitted:
                assert evaluate(ctx, Conj((atom,))) == cols[j]
            else:
                with pytest.raises(GranuleDescError, match="does not resolve"):
                    evaluate(ctx, Conj((atom,)))
        j = rng.randrange(len(names))
        wrong = [
            Atom(block, -1, names[-1], negated),
            Atom(block, len(names), names[j], negated),
            Atom(block, j, names[j] + "x", negated),
            Atom(block, j, names[j - 1] if len(names) > 1 else "zzz", negated),
        ]
        for atom in wrong:
            with pytest.raises(GranuleDescError, match="does not resolve"):
                evaluate(ctx, Conj((atom,)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obj=st.integers(1, 8),
    n_att=st.integers(1, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_derivation(
    seed: int, n_obj: int, n_att: int, density: float
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    chosen = frozenset(j for j in range(n_att) if rng.random() < 0.5) or frozenset({0})
    assert evaluate(ctx, conj_of(ctx, chosen)) == extent(ctx, chosen)
    assert evaluate(ctx, disj_of(ctx, chosen)) == possibility(ctx, chosen)
    # monotonicity under atom growth
    grown = chosen | {rng.randrange(n_att)}
    assert evaluate(ctx, conj_of(ctx, grown)) <= evaluate(ctx, conj_of(ctx, chosen))
    assert evaluate(ctx, disj_of(ctx, grown)) >= evaluate(ctx, disj_of(ctx, chosen))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_conj(table1: FormalContext) -> None:
    d = conj_of(table1, attrs(table1.attributes, "a2", "a1"))
    assert render(d) == "a1 ∧ a2"
    assert render(d, ascii_ops=True) == "a1 & a2"


def test_render_conj_disj(table5: CompoundContext) -> None:
    d = conj_disj(table5, attrs(table5.a_attributes, "a1"), attrs(table5.b_attributes, "b2", "b4"))
    assert render(d) == "a1 ∧ (b2 ∨ b4)"
    assert render(d, ascii_ops=True) == "a1 & (b2 | b4)"


def test_render_orders_negated_atoms_last() -> None:
    d = Conj((a(0, "a1", negated=True), a(2, "a3")))
    assert render(d) == "a3 ∧ ¬a1"
    assert render(d, ascii_ops=True) == "a3 & !a1"


def test_render_disj(table1: FormalContext) -> None:
    d = disj_of(table1, attrs(table1.attributes, "a5", "a3", "a4"))
    assert render(d) == "a3 ∨ a4 ∨ a5"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_conj(table1: FormalContext) -> None:
    d = parse_description("a1 & a2", table1)
    assert isinstance(d, Conj)
    assert obj_names(table1, evaluate(table1, d)) == {"2", "7"}
    assert parse_description("a1 ∧ a2", table1) == d


def test_parse_disj(table1: FormalContext) -> None:
    d = parse_description("a3 | a4 | a5", table1)
    assert isinstance(d, Disj)
    assert evaluate(table1, d) == objs(table1, "1", "4", "5", "6", "7")


def test_parse_single_atom(table1: FormalContext) -> None:
    d = parse_description("a5", table1)
    assert evaluate(table1, d) == objs(table1, "4", "5", "6")


def test_parse_conj_disj(table5: CompoundContext) -> None:
    d = parse_description("a1 & (b2 | b4)", table5)
    assert isinstance(d, ConjDisj)
    assert obj_names(table5, evaluate(table5, d)) == {"2", "3", "7"}
    assert parse_description("a1 ∧ (b2 ∨ b4)", table5) == d


def test_parse_negated(table3: CompoundContext) -> None:
    d = parse_description("¬a4 ∧ a1", table3)
    assert isinstance(d, Conj)
    assert render(d) == "a1 ∧ ¬a4"
    assert parse_description("a1 & !a4", table3) == d


@pytest.mark.parametrize("text", ["!!a1", "¬¬a1", "a2 & !¬a1", "! ! a1"])
def test_parse_refuses_repeated_negation(table3: CompoundContext, text: str) -> None:
    with pytest.raises(GranuleDescError, match="repeated negation"):
        parse_description(text, table3)


def test_parse_errors(table1: FormalContext, table5: CompoundContext) -> None:
    with pytest.raises(GranuleDescError):
        parse_description("a1 | a2 & a3", table1)
    with pytest.raises(GranuleDescError):
        parse_description("zzz", table1)
    with pytest.raises(GranuleDescError):
        parse_description("", table1)
    with pytest.raises(GranuleDescError):
        parse_description("a1 & (b2 | b4)", table1)
    with pytest.raises(GranuleDescError):
        parse_description("(b2 | b4)", table5)
    with pytest.raises(GranuleDescError):
        parse_description("a1 & (b2 & b4)", table5)


def test_parse_render_round_trip(table1, table3, table5) -> None:
    samples = [
        conj_of(table1, {0, 1}),
        disj_of(table1, {2, 3, 4}),
        three_way_conj(table3, {0, 8, 9}),
        conj_disj(table5, {0}, {1, 3}),
    ]
    ctxs = [table1, table1, table3, table5]
    for d, ctx in zip(samples, ctxs):
        for ascii_ops in (False, True):
            again = parse_description(render(d, ascii_ops=ascii_ops), ctx)
            assert evaluate(ctx, again) == evaluate(ctx, d)


_NAME_WORDS = st.text(alphabet="abxyz_019", min_size=1, max_size=3)
_SPACED_NAMES = st.lists(
    st.builds(
        lambda words, sep: sep.join(words),
        st.lists(_NAME_WORDS, min_size=1, max_size=3),
        st.sampled_from([" ", "  ", "\t", " \t "]),
    ),
    min_size=2,
    max_size=4,
    unique=True,
)


@given(a_names=_SPACED_NAMES, b_names=_SPACED_NAMES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_names_with_inner_spaces_round_trip(a_names, b_names, seed: int) -> None:
    rng = random.Random(seed)
    # "B" is outside the a-names' alphabet, so no b-name is also an a-name
    b_names = [f"B {n}" for n in b_names]
    rows = [[rng.random() < 0.5 for _ in a_names] for _ in range(3)]
    plain = FormalContext(("1", "2", "3"), tuple(a_names), rows)
    b_rows = [[rng.random() < 0.5 for _ in b_names] for _ in range(3)]
    cn = make_cn_context(plain, FormalContext(plain.objects, tuple(b_names), b_rows))
    n = len(a_names)
    samples = [
        (plain, conj_of(plain, range(n))),
        (plain, disj_of(plain, range(n))),
        (appose_negation(plain), three_way_conj(appose_negation(plain), range(2 * n))),
        (cn, conj_disj(cn, {0}, range(len(b_names)))),
    ]
    for ctx, d in samples:
        for ascii_ops in (False, True):
            assert parse_description(render(d, ascii_ops), ctx) == d


# ---------------------------------------------------------------------------
# the one-pass reader against the token scanner it replaced
# ---------------------------------------------------------------------------

_SYMBOLS = ["(", ")", "∧", "∨", "¬", "&", "|", "!"]
_PIECES = _SYMBOLS + ["a1", "a4", "a5", "not_a1", "not_a3", "b1", "b2", "zzz", "a", " ", "\t"]


def _names_side_by_side(text: str) -> bool:
    """Whether the scanner's tokens put two names next to each other,
    which it refuses and the reader takes for one spaced name."""
    tokens = SCANNER_TOKEN.findall(text)
    return any(
        x not in _SYMBOLS and y not in _SYMBOLS for x, y in zip(tokens, tokens[1:])
    )


@given(
    pieces=st.lists(
        st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", " ", "  "])), max_size=10
    )
)
@settings(max_examples=400, deadline=None)
def test_reader_matches_scanner(table1, table3, table5, pieces) -> None:
    text = "".join(p + sep for p, sep in pieces)
    assume(not _names_side_by_side(text))
    for ctx in (table1, table3, table5):
        assert _outcome(parse_description, text, ctx) == _outcome(
            parse_description_scanner, text, ctx
        )
