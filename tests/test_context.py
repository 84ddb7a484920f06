from __future__ import annotations

import copy
import json
import pickle
import random
import sys

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

from .conftest import load_text, random_cn_context, random_context
from .oracles import masks_per_cell

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
        pytest.param(
            lambda t: t.replace("\n5\n\n", "\n5\nx\n", 1),
            5,
            None,
            id="no-blank-line-after-counts",  # the only raise a non-empty line 5 reaches
        ),
    ],
)
def test_cxt_parse_errors_report_position(mangle, line, column) -> None:
    with pytest.raises(ContextFormatError) as err:
        parse_context(mangle(load_text("table1.cxt")))
    assert err.value.line == line
    assert err.value.column == column


@pytest.mark.parametrize(
    "mangle, line, column",
    [
        pytest.param(
            lambda t: t.replace(".XX..", ".XX.", 1).replace("XX...", "XZ...", 1),
            18,
            None,
            id="short-row-before-bad-character",
        ),
        pytest.param(
            lambda t: t.replace(".XX..", ".XZ..", 1)[: -len("XXX..\n")],
            18,
            3,
            id="bad-character-before-truncation",
        ),
        pytest.param(
            lambda t: t.replace(".XX..", ".XZ..", 1) + "junk\n",
            18,
            3,
            id="bad-character-before-trailing-content",
        ),
        pytest.param(
            lambda t: t.replace("\n2\n", "\n1\n", 1).replace(".XX..", ".XZ..", 1),
            18,
            3,
            id="row-fault-before-name-fault",
        ),
    ],
)
def test_cxt_first_fault_in_line_order_wins(mangle, line, column) -> None:
    # a short row before a bad character, a bad character before truncation
    # (the last row cut) or trailing content, and any row fault before a
    # name fault
    with pytest.raises(ContextFormatError) as err:
        parse_context(mangle(load_text("table1.cxt")))
    assert err.value.line == line
    assert err.value.column == column


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("B\n\n2\n1\n\no1\no1\na1\nX\n.\n", 7, "duplicate object name 'o1' (positions 1 and 2)"),
        (
            "B\n\n2\n2\n\no1\no2\na1\na1\nXX\n..\n",
            9,
            "duplicate attribute name 'a1' (positions 1 and 2)",
        ),
        ("B\n\n2\n1\n\no1\n\na1\nX\n.\n", 7, "object 2 has an empty name"),
        ("B\n\n1\n2\n\no1\na1\n\nX.\n", 8, "attribute 2 has an empty name"),
        # "\r\r\n" is a lone CR, then a line end
        ("B\n\n2\n1\n\no1\n\r\r\na1\nX\n.\n", 7, "object name '\\r' contains a newline"),
        ("B\n\n1\n2\n\no1\na1\na\r2\nX.\n", 8, "attribute name 'a\\r2' contains a newline"),
    ],
)
def test_cxt_name_faults_report_the_name_line(text: str, line: int, message: str) -> None:
    # for a repeated name, the line of its second occurrence
    with pytest.raises(ContextFormatError) as err:
        parse_context(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, None, message)


@pytest.mark.parametrize(
    "names, message",
    [
        ('"objects": ["o1", "o1"], "attributes": ["a1"]', "duplicate object name 'o1'"),
        ('"objects": ["o1", "o2"], "attributes": ["", "a2"]', "attribute 1 has an empty name"),
    ],
)
def test_json_name_faults_have_no_line(names: str, message: str) -> None:
    with pytest.raises(ContextFormatError, match=message) as err:
        parse_context("{" + names + ', "incidence": [[1, 0], [0, 1]]}')
    assert err.value.line is None


def _two_by_one_cxt(object_count: str) -> str:
    return f"B\n\n{object_count}\n1\n\no1\no2\na1\nX\n.\n"


@pytest.mark.parametrize("count", ["٢", "２", "0_2", "+1"])
def test_cxt_counts_are_ascii_digits(count: str) -> None:
    # each of these reads as a number under int()
    with pytest.raises(ContextFormatError) as err:
        parse_context(_two_by_one_cxt(count))
    assert err.value.line == 3
    assert err.value.message == f"expected object count, got {count!r}"


@pytest.mark.parametrize("count", [" 2", "2 "])
def test_cxt_counts_may_be_padded_with_spaces(count: str) -> None:
    assert parse_context(_two_by_one_cxt(count)) == parse_context(_two_by_one_cxt("2"))


def test_cxt_truncated_input() -> None:
    text = "\n".join(load_text("table1.cxt").split("\n")[:8]) + "\n"
    with pytest.raises(ContextFormatError):
        parse_context(text)


def test_json_syntax_error_reports_position() -> None:
    with pytest.raises(ContextFormatError) as err:
        parse_context('{"objects": [,]}')
    assert err.value.line == 1
    assert err.value.column is not None


@pytest.mark.parametrize("parse", [parse_context, parse_compound])
def test_deeply_nested_json_is_a_format_error(parse) -> None:
    text = '{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ContextFormatError, match="JSON nested too deeply"):
        parse(text)


def test_json_field_errors() -> None:
    with pytest.raises(ContextFormatError):
        parse_context('{"objects": ["1"], "attributes": "a", "incidence": [[1]]}')
    with pytest.raises(ContextFormatError):
        parse_context('{"objects": ["1"], "attributes": ["a"], "incidence": [[2]]}')
    with pytest.raises(ContextFormatError):
        parse_compound("[1, 2]")
    with pytest.raises(ContextFormatError, match="^field 'incidence' must be a list of rows$"):
        parse_context('{"objects": ["1"], "attributes": ["a"], "incidence": {"1": [1]}}')
    with pytest.raises(ContextFormatError) as err:
        parse_compound('{"flavor": "two_way"}')
    assert str(err.value) == (
        "field 'flavor' must be 'three_way' or 'common_necessary', got 'two_way'"
    )
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        serialize_context(FormalContext(("1",), ("a",), ((True,),)), "xml")


def test_parse_context_points_compound_input_to_parse_compound() -> None:
    text = load_text("table5.json")
    with pytest.raises(ContextFormatError, match="parse_compound"):
        parse_context(text)
    assert parse_compound(text).flavor is Flavor.COMMON_NECESSARY


@pytest.mark.parametrize("name", ["table1.cxt", "table1.json", "table5.json"])
def test_one_byte_order_mark_is_dropped(table1: FormalContext, name: str) -> None:
    # what reading a BOM file as "utf-8" gives; JSON is not misread as cxt
    if name == "table1.json":
        text = serialize_context(table1, "json")
    else:
        text = load_text(name)
    parse = parse_compound if name == "table5.json" else parse_context
    assert parse("\ufeff" + text) == parse(text)
    with pytest.raises(ContextFormatError):
        parse("\ufeff\ufeff" + text)


def test_cxt_with_crlf_line_ends_parses_like_lf(table1: FormalContext) -> None:
    text = load_text("table1.cxt")
    assert "\r" not in text
    assert parse_context(text.replace("\n", "\r\n")) == table1


def test_json_cells_must_be_integer_or_boolean() -> None:
    shape = '{{"objects": ["1", "2"], "attributes": ["a"], "incidence": [[{}], [{}]]}}'
    assert parse_context(shape.format(1, 0)) == parse_context(shape.format("true", "false"))
    for cell in ("1.0", "0.0", '"1"', "null", "[1]"):
        with pytest.raises(ContextFormatError) as err:
            parse_context(shape.format(cell, 0))
        assert str(err.value) == "field 'incidence', row 1 must hold 0/1 cells"


@pytest.mark.parametrize(
    "rows",
    [
        "[[1], [1.0], [2]]",  # a bad type before a bad value
        "[[1], [2], [1.0]]",  # a bad value before a bad type
        "[[0], 1, [2]]",  # a row that is no list
        '[[0], {"0": 1}, [1]]',
        '[[0], "1", [1]]',
    ],
)
def test_json_rows_report_the_first_bad_row(rows: str) -> None:
    text = '{"objects": ["1", "2", "3"], "attributes": ["a"], "incidence": ' + rows + "}"
    with pytest.raises(ContextFormatError) as err:
        parse_context(text)
    assert str(err.value) == "field 'incidence', row 2 must hold 0/1 cells"


def test_three_way_reports_the_first_pair_that_is_not_complementary() -> None:
    # object 2 fails at pair 3 and object 3 at pair 1: objects come first
    a = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    b = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    text = json.dumps({
        "objects": ["1", "2", "3"],
        "a_attributes": ["a1", "a2", "a3"],
        "b_attributes": ["b1", "b2", "b3"],
        "a_incidence": a,
        "b_incidence": b,
        "flavor": "three_way",
    })
    with pytest.raises(ContextFormatError) as err:
        parse_compound(text)
    assert str(err.value) == (
        "three-way blocks must be complementary; object 2, attribute pair 3 is not"
    )


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
    with pytest.raises(ContextFormatError, match="^a context needs at least one object$"):
        FormalContext((), ("a",), ())
    with pytest.raises(KeyError, match="unknown attribute 'b'"):
        FormalContext(("1",), ("a",), ((True,),)).attribute_index("b")
    one = (("1",), ("a",))
    with pytest.raises(ContextFormatError, match=r"^attribute names shared between blocks: \['a'\]$"):
        CompoundContext(*one, ("a",), ((True,),), ((False,),), Flavor.COMMON_NECESSARY)
    with pytest.raises(ContextFormatError, match="^a three-way compound needs equally sized blocks$"):
        CompoundContext(*one, ("b", "c"), ((True,),), ((False, True),), Flavor.THREE_WAY)


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


@given(
    n_obj=st.sampled_from([1, 63, 64, 65]) | st.integers(1, 70),
    n_att=st.sampled_from([1, 63, 64, 65]) | st.integers(1, 70),
    density=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_masks_equal_the_per_cell_builder(
    n_obj: int, n_att: int, density: float, seed: int
) -> None:
    rng = random.Random(seed)
    ctx = random_context(rng, n_obj, n_att, density)
    cn = random_cn_context(rng, n_obj, n_att, max(1, n_att // 2), density)
    three_way = appose_negation(ctx)
    for table in (ctx, cn.a_block, cn.b_block, cn.flattened, three_way.b_block, three_way.flattened):
        masks = table.row_masks, table.column_masks, table.column_union, table.empty_columns
        assert masks == masks_per_cell(table.incidence)


def _assert_flattened_as_built_cell_by_cell(cctx: CompoundContext) -> None:
    """The flattened table, its seeded column masks and the masks it
    builds equal those of a table built from the joined rows, also on
    clones taken before and after its first read."""
    rows = [a + b for a, b in zip(cctx.a_incidence, cctx.b_incidence)]
    want = FormalContext(cctx.objects, cctx.a_attributes + cctx.b_attributes, rows)
    masks = want.row_masks, want.column_masks, want.column_union, want.empty_columns
    clones = (lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy)
    for clone in (*clones, lambda c: c, *clones):
        flat = clone(cctx).flattened
        assert flat == want and flat.__dict__["column_masks"] == want.column_masks
        assert (flat.row_masks, flat.column_masks, flat.column_union, flat.empty_columns) == masks


def test_flattened_data_compounds_equal_tables_built_cell_by_cell() -> None:
    table1 = parse_context(load_text("table1.cxt"))
    scores = parse_context(load_text("scores_a.cxt")), parse_context(load_text("scores_b.cxt"))
    for cctx in (
        parse_compound(load_text("table3.json")),
        parse_compound(load_text("table5.json")),
        appose_negation(table1),
        make_cn_context(table1, parse_context(load_text("table5_b.cxt"))),
        make_cn_context(*scores),
    ):
        _assert_flattened_as_built_cell_by_cell(cctx)


@given(
    n_obj=st.sampled_from([1, 63, 64, 65]) | st.integers(1, 12),
    n_att=st.integers(1, 10),
    density=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_flattened_compounds_equal_tables_built_cell_by_cell(
    n_obj: int, n_att: int, density: float, seed: int
) -> None:
    rng = random.Random(seed)
    three_way = appose_negation(random_context(rng, n_obj, n_att, density))
    cn = random_cn_context(rng, n_obj, n_att, n_att // 2 + 1, density)
    _assert_flattened_as_built_cell_by_cell(three_way)
    _assert_flattened_as_built_cell_by_cell(cn)


def _ingest(text: str) -> None:
    """Parse a table and build every mask, as the benchmarks' set-up does."""
    if '"flavor"' in text:
        cctx = parse_compound(text)
        tables = (cctx.a_block, cctx.b_block, cctx.flattened)
    else:
        tables = (parse_context(text),)
    for table in tables:
        table.row_masks, table.column_masks, table.column_union, table.empty_columns


def _python_calls(fn) -> int:
    """The Python-level calls ``fn()`` makes, each resumption of a
    generator counting as one; a count, so no clock is read."""
    calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_ingest_makes_no_python_call_per_cell() -> None:
    # a per-cell generator or helper would make about n * m = 90,000 calls
    n = m = 300
    ctx = random_context(random.Random(7), n, m, 0.5)
    cctx = appose_negation(random_context(random.Random(8), n, m // 2, 0.5))
    texts = serialize_context(ctx), serialize_context(ctx, "json"), serialize_compound(cctx)
    for text in texts:
        _ingest(text)  # the first call may import
        assert _python_calls(lambda: _ingest(text)) < 10 * (n + m)
