from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granudesc import (
    CompoundContext,
    ContextFormatError,
    Flavor,
    FormalContext,
    appose_negation,
    complement_context,
    make_cn_context,
    parse_compound,
    parse_context,
    serialize_compound,
    serialize_context,
)

from .conftest import load_text, random_context

TABLE1_ROWS = (".XX..", "XX...", "X....", "....X", "...XX", "..XXX", "XXX..")
TABLE4_ROWS = ("X..XX", "..XXX", ".XXXX", "XXXX.", "XXX..", "XX...", "...XX")


def rows_of(ctx: FormalContext) -> tuple[str, ...]:
    return tuple("".join("X" if v else "." for v in row) for row in ctx.incidence)


def test_parse_table1_shape(table1: FormalContext) -> None:
    assert table1.objects == tuple("1234567")
    assert table1.attributes == ("a1", "a2", "a3", "a4", "a5")
    assert rows_of(table1) == TABLE1_ROWS


@pytest.mark.parametrize(
    "name", ["table1.cxt", "table6.cxt", "scores_a.cxt", "scores_b.cxt", "table5_b.cxt"]
)
def test_cxt_round_trip_is_byte_identity(name: str) -> None:
    text = load_text(name)
    ctx = parse_context(text)
    assert serialize_context(ctx) == text
    assert parse_context(serialize_context(ctx)) == ctx


def test_cxt_trailing_newline_optional() -> None:
    text = load_text("table1.cxt")
    assert parse_context(text.rstrip("\n")) == parse_context(text)


def test_json_round_trip(table1: FormalContext) -> None:
    text = serialize_context(table1, format="json")
    payload = json.loads(text)
    assert payload["objects"] == list(table1.objects)
    assert payload["attributes"] == list(table1.attributes)
    assert payload["incidence"][0] == [0, 1, 1, 0, 0]
    assert parse_context(text) == table1


def test_compound_json_round_trip(table5_json: CompoundContext) -> None:
    assert table5_json.flavor is Flavor.COMMON_NECESSARY
    text = serialize_compound(table5_json)
    assert parse_compound(text) == table5_json


def test_one_by_one_round_trip() -> None:
    ctx = FormalContext(("o",), ("a",), ((True,),))
    assert parse_context(serialize_context(ctx)) == ctx


@pytest.mark.parametrize(
    "mangle, line, column",
    [
        (lambda t: t.replace("B\n", "A\n", 1), 1, None),
        (lambda t: t.replace("B\n\n", "B\n", 1), 2, None),
        (lambda t: t.replace("\n7\n", "\nseven\n", 1), 3, None),
        (lambda t: t.replace("\n5\n\n", "\n0\n\n", 1), 4, None),
        (lambda t: t.replace(".XX..", ".XX.", 1), 18, None),
        (lambda t: t.replace(".XX..", ".XZ..", 1), 18, 3),
        (lambda t: t + "junk\n", 25, None),
    ],
)
def test_cxt_parse_errors_report_position(mangle, line, column) -> None:
    with pytest.raises(ContextFormatError) as err:
        parse_context(mangle(load_text("table1.cxt")))
    assert err.value.line == line
    assert err.value.column == column


def test_cxt_truncated_input() -> None:
    text = "\n".join(load_text("table1.cxt").split("\n")[:8]) + "\n"
    with pytest.raises(ContextFormatError):
        parse_context(text)


def test_json_syntax_error_reports_position() -> None:
    with pytest.raises(ContextFormatError) as err:
        parse_context('{"objects": [,]}')
    assert err.value.line == 1
    assert err.value.column is not None


def test_json_field_errors() -> None:
    with pytest.raises(ContextFormatError):
        parse_context('{"objects": ["1"], "attributes": "a", "incidence": [[1]]}')
    with pytest.raises(ContextFormatError):
        parse_context('{"objects": ["1"], "attributes": ["a"], "incidence": [[2]]}')
    with pytest.raises(ContextFormatError):
        parse_compound("[1, 2]")


def test_cxt_with_crlf_line_ends_parses_like_lf(table1: FormalContext) -> None:
    text = load_text("table1.cxt")
    assert "\r" not in text
    assert parse_context(text.replace("\n", "\r\n")) == table1


def test_json_cells_must_be_integer_or_boolean() -> None:
    shape = '{{"objects": ["1", "2"], "attributes": ["a"], "incidence": [[{}], [{}]]}}'
    assert parse_context(shape.format(1, 0)) == parse_context(shape.format("true", "false"))
    for cell in ("1.0", "0.0", '"1"', "null"):
        with pytest.raises(ContextFormatError) as err:
            parse_context(shape.format(cell, 0))
        assert str(err.value) == "field 'incidence', row 1 must hold 0/1 cells"


def test_constructor_rejects_bad_shapes() -> None:
    with pytest.raises(ContextFormatError):
        FormalContext(("1", "1"), ("a",), ((True,), (False,)))
    with pytest.raises(ContextFormatError):
        FormalContext(("1",), ("a", "a"), ((True, False),))
    with pytest.raises(ContextFormatError):
        FormalContext(("1",), ("a\nb",), ((True,),))
    with pytest.raises(ContextFormatError):
        FormalContext(("1", "2"), ("a",), ((True,),))
    with pytest.raises(ContextFormatError):
        FormalContext(("1",), ("a",), ((True, False),))


def test_complement_matches_flipped_rows(table1: FormalContext) -> None:
    comp = complement_context(table1)
    assert rows_of(comp) == TABLE4_ROWS
    assert comp.attributes == ("not_a1", "not_a2", "not_a3", "not_a4", "not_a5")
    assert comp.objects == table1.objects


def test_complement_is_involution(table1: FormalContext) -> None:
    assert complement_context(complement_context(table1)) == table1


def test_complement_of_all_ones_is_all_zeros() -> None:
    ones = FormalContext(("1", "2", "3"), ("a", "b", "c"), ((True,) * 3,) * 3)
    assert rows_of(complement_context(ones)) == ("...", "...", "...")


def test_appose_negation_blocks(table1: FormalContext) -> None:
    cctx = appose_negation(table1)
    assert cctx.flavor is Flavor.THREE_WAY
    assert cctx.a_block == table1
    assert rows_of(cctx.b_block) == TABLE4_ROWS
    # cross-block complementarity, cell by cell
    for arow, brow in zip(cctx.a_incidence, cctx.b_incidence):
        assert all(a != b for a, b in zip(arow, brow))


def test_appose_flattened_row(table1: FormalContext) -> None:
    flat = appose_negation(table1).flattened
    assert rows_of(flat)[0] == ".XX..X..XX"
    assert flat.attributes[:5] == table1.attributes


def test_appose_one_by_one() -> None:
    cctx = appose_negation(FormalContext(("o",), ("a",), ((True,),)))
    assert cctx.b_incidence == ((False,),)


def test_make_cn_context(table1: FormalContext) -> None:
    b = parse_context(load_text("table5_b.cxt"))
    cctx = make_cn_context(table1, b)
    assert cctx.flavor is Flavor.COMMON_NECESSARY
    assert cctx.a_block == table1
    assert cctx.b_block == b
    # same table twice is legal; blocks just need matching objects
    twin = FormalContext(table1.objects, ("z1", "z2", "z3", "z4", "z5"), table1.incidence)
    assert make_cn_context(table1, twin).b_block == twin


def test_make_cn_context_object_mismatch(table1: FormalContext) -> None:
    other = FormalContext(("x", "y"), ("b1",), ((True,), (False,)))
    with pytest.raises(ContextFormatError):
        make_cn_context(table1, other)


@given(
    n_obj=st.integers(1, 8),
    n_att=st.integers(1, 8),
    density=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_random_round_trips(n_obj: int, n_att: int, density: float, seed: int) -> None:
    ctx = random_context(random.Random(seed), n_obj, n_att, density)
    assert parse_context(serialize_context(ctx)) == ctx
    assert parse_context(serialize_context(ctx, format="json")) == ctx
    assert complement_context(complement_context(ctx)) == ctx
    cctx = appose_negation(ctx)
    assert parse_compound(serialize_compound(cctx)) == cctx
    assert cctx.a_block == ctx
