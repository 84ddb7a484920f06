"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granudesc import FormalContext, make_cn_context, serialize_compound, serialize_context
from granudesc.cli import main

from .conftest import DATA, WIDE_CN_MINIMAL, WIDE_CN_OBJECT

TABLE1 = str(DATA / "table1.cxt")
TABLE6 = str(DATA / "table6.cxt")
TABLE5_JSON = str(DATA / "table5.json")
TABLE5_B = str(DATA / "table5_b.cxt")
SCORES_A = str(DATA / "scores_a.cxt")
SCORES_B = str(DATA / "scores_b.cxt")

TABLE4_CXT = (
    "B\n\n7\n5\n\n"
    + "".join(f"{i}\n" for i in range(1, 8))
    + "".join(f"not_a{j}\n" for j in range(1, 6))
    + "X..XX\n..XXX\n.XXXX\nXXXX.\nXXX..\nXX...\n...XX\n"
)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reports_shape(capsys) -> None:
    code, out, err = run(capsys, ["validate", TABLE1])
    assert code == 0 and err == ""
    assert out == "ok: 7 objects, 5 attributes, 14 incidences\n"


def test_validate_reports_compound_shape(capsys) -> None:
    code, out, _ = run(capsys, ["validate", TABLE5_JSON])
    assert code == 0
    assert out == (
        "ok: common_necessary compound, 7 objects, 5+4 attributes, 25 incidences\n"
    )


def test_validate_flags_broken_input(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.cxt"
    bad.write_text("B\n\n2\n1\n\no1\no2\na1\nX?\nX.\n", encoding="utf-8")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert err.startswith("error:") and "line" in err


def test_validate_plain_json_naming_an_attribute_flavor(capsys, tmp_path) -> None:
    # only a top-level "flavor" key marks a compound
    path = tmp_path / "plain.json"
    path.write_text(
        '{"objects": ["o1", "o2"], "attributes": ["flavor", "size"], '
        '"incidence": [[1, 0], [1, 1]]}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out, err) == (0, "ok: 2 objects, 2 attributes, 3 incidences\n", "")


def test_missing_input_file(capsys, tmp_path) -> None:
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.cxt")])
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# concepts
# ---------------------------------------------------------------------------


def test_concepts_text_listing(capsys) -> None:
    code, out, _ = run(capsys, ["concepts", TABLE1, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "C0 = ({1,2,3,4,5,6,7}, ∅)"
    assert lines[10] == "C10 = (∅, {a1,a2,a3,a4,a5})"


def test_concepts_default_format_is_json_when_piped(capsys) -> None:
    # captured stdout is not a terminal
    code, out, _ = run(capsys, ["concepts", TABLE1])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 11
    assert payload[0] == {
        "extent": [1, 2, 3, 4, 5, 6, 7],
        "intent": [],
        "system": "formal",
    }


def test_concepts_dot_output(capsys) -> None:
    code, out, _ = run(capsys, ["concepts", TABLE1, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph concepts {")
    assert out.count("[label=") == 11
    assert out.count("->") == 15
    assert "{ rank=source; c0; }" in out


def test_concepts_other_variants(capsys) -> None:
    code, out, _ = run(capsys, ["concepts", TABLE1, "--variant", "three-way"])
    assert code == 0
    assert all(c["system"] == "three_way" for c in json.loads(out))

    code, out, _ = run(capsys, ["concepts", TABLE1, "--variant", "object-oriented"])
    assert code == 0
    assert len(json.loads(out)) == 17

    code, out, _ = run(
        capsys,
        ["concepts", TABLE1, "--variant", "cn", "--compound", TABLE5_B],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 17
    assert all(c["system"] == "common_necessary" for c in payload)
    assert {"extent": [2, 3, 7], "intent": ["a1", "b2", "b4"],
            "system": "common_necessary"} in payload


@pytest.mark.parametrize(
    ("variant", "message"),
    [
        ("formal", "error: variant formal takes no --compound\n"),
        ("object-oriented", "error: variant object-oriented takes no --compound\n"),
        ("three-way", "error: three-way mode derives its compound; drop --compound\n"),
    ],
)
def test_concepts_rejects_compound_outside_cn(capsys, variant, message) -> None:
    code, out, err = run(
        capsys,
        ["concepts", TABLE1, "--variant", variant, "--compound", TABLE5_B],
    )
    assert (code, out, err) == (2, "", message)


def test_concepts_cn_has_no_dot_form(capsys) -> None:
    code, _, err = run(
        capsys,
        ["concepts", TABLE5_JSON, "--variant", "cn", "--format", "dot"],
    )
    assert code == 2 and "no lattice" in err


def test_concepts_unknown_variant(capsys) -> None:
    code, _, err = run(capsys, ["concepts", TABLE1, "--variant", "modal"])
    assert code == 2 and err.startswith("error:")


def test_concepts_single_cell_context(capsys, tmp_path) -> None:
    path = tmp_path / "dot.cxt"
    path.write_text(serialize_context(FormalContext(("o1",), ("a1",), ((0,),))))
    code, out, _ = run(capsys, ["concepts", str(path), "--format", "text"])
    assert code == 0
    assert out.splitlines() == ["C0 = ({o1}, ∅)", "C1 = (∅, {a1})"]


def test_concepts_empty_cn_family_prints_nothing(capsys, tmp_path) -> None:
    # with every b-column empty no granule is a cn fixed point
    a = FormalContext(("o1", "o2"), ("a1",), ((1,), (0,)))
    b = FormalContext(("o1", "o2"), ("b1",), ((0,), (0,)))
    path = tmp_path / "empty_cn.json"
    path.write_text(serialize_compound(make_cn_context(a, b)))
    argv = ["concepts", str(path), "--variant", "cn", "--format"]
    assert run(capsys, argv + ["text"]) == (0, "", "")
    assert run(capsys, argv + ["json"]) == (0, "[]\n", "")


def test_concepts_size_guard_and_force(capsys, tmp_path) -> None:
    wide = FormalContext(
        ("o1",), tuple(f"a{j}" for j in range(1, 32)), ((0,) * 31,)
    )
    path = tmp_path / "wide.cxt"
    path.write_text(serialize_context(wide))
    code, _, err = run(capsys, ["concepts", str(path)])
    assert code == 3 and "--force" in err
    code, out, _ = run(capsys, ["concepts", str(path), "--force"])
    assert code == 0 and len(json.loads(out)) == 2


# ---------------------------------------------------------------------------
# define
# ---------------------------------------------------------------------------


def test_define_wedge_definable(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["define", TABLE1, "--granule", "2,7", "--mode", "wedge", "--format", "text"],
    )
    assert code == 0
    assert out == "definable: a1 ∧ a2\n"


def test_define_ascii_connectives(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", TABLE1, "--granule", "2,7", "--mode", "wedge",
            "--format", "text", "--ascii",
        ],
    )
    assert code == 0 and out == "definable: a1 & a2\n"


def test_define_wedge_indefinable(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["define", TABLE1, "--granule", "1,2", "--mode", "wedge", "--format", "text"],
    )
    assert code == 1
    assert out == "indefinable (closure {1,2,7})\n"


def test_define_wedge_inapplicable_universe(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", TABLE1, "--granule", "1,2,3,4,5,6,7", "--mode", "wedge",
            "--format", "text",
        ],
    )
    assert code == 4
    assert out == "inapplicable: empty_intent\n"


def test_define_vee(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", TABLE1, "--granule", "1,4,5,6,7", "--mode", "vee",
            "--format", "text",
        ],
    )
    assert code == 0 and out == "definable: a3 ∨ a4 ∨ a5\n"


def test_define_three_way(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["define", TABLE1, "--granule", "2,3", "--mode", "three-way"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "definable"
    assert payload["description"] == {
        "conj": ["a1"],
        "disj": [],
        "negated": ["a3", "a4", "a5"],
    }
    assert payload["reason"] is None and payload["witness"] is None


def test_define_cn_with_two_files(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", SCORES_A, "--compound", SCORES_B,
            "--granule", "Grace,Jenny", "--mode", "cn", "--format", "text",
        ],
    )
    assert code == 0
    assert out == "definable: c1 ∧ c2 ∧ c3 ∧ c4 ∧ (ec1 ∨ ec2)\n"


def test_define_cn_with_compound_json_input(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["define", TABLE5_JSON, "--granule", "2,3", "--mode", "cn", "--format", "text"],
    )
    assert code == 0 and out == "definable: a1 ∧ (b3)\n"


def test_define_cn_inapplicable(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", SCORES_A, "--compound", SCORES_B,
            "--granule", "Peter", "--mode", "cn", "--format", "text",
        ],
    )
    assert code == 4 and out == "inapplicable: no_b_cover\n"


def test_define_unknown_object(capsys) -> None:
    code, _, err = run(
        capsys,
        ["define", TABLE1, "--granule", "2,9", "--mode", "wedge"],
    )
    assert code == 2 and "unknown object '9'" in err


def test_define_cn_needs_compound(capsys) -> None:
    code, _, err = run(
        capsys, ["define", TABLE1, "--granule", "2,3", "--mode", "cn"]
    )
    assert code == 2 and "--compound" in err


def test_define_minimal_listing(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", TABLE1, "--granule", "6", "--mode", "wedge",
            "--format", "text", "--minimal",
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "definable: a3 ∧ a4 ∧ a5",
        "minimal: a3 ∧ a4",
        "minimal: a3 ∧ a5",
    ]
    code, out, _ = run(
        capsys,
        ["define", TABLE1, "--granule", "6", "--mode", "wedge", "--minimal"],
    )
    assert json.loads(out)["minimal"] == ["a3 ∧ a4", "a3 ∧ a5"]


def test_define_minimal_cn_over_a_wide_a_block(capsys, tmp_path, wide_cn) -> None:
    path = tmp_path / "wide.json"
    path.write_text(serialize_compound(wide_cn), encoding="utf-8")
    code, out, _ = run(
        capsys,
        [
            "define", str(path), "--granule", wide_cn.objects[WIDE_CN_OBJECT],
            "--mode", "cn", "--format", "json", "--minimal",
        ],
    )
    assert code == 0
    assert len(json.loads(out)["minimal"]) == WIDE_CN_MINIMAL


def test_define_json_indefinable_payload(capsys) -> None:
    code, out, _ = run(
        capsys, ["define", TABLE1, "--granule", "1,2", "--mode", "wedge"]
    )
    assert code == 1
    assert json.loads(out) == {
        "status": "indefinable",
        "description": None,
        "reason": None,
        "witness": [1, 2, 7],
    }


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def test_approx_lower_wedge_json(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "approx", TABLE6, "--granule", "4,5,6", "--mode", "wedge",
            "--direction", "lower",
        ],
    )
    assert code == 0
    assert json.loads(out) == {
        "direction": "lower",
        "mode": "wedge",
        "exact": False,
        "results": [
            {"granule": [4, 5], "description": "a2 ∧ a3"},
            {"granule": [4, 6], "description": "a2 ∧ a5"},
        ],
    }


def test_approx_upper_wedge(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "approx", TABLE6, "--granule", "4,5,6", "--mode", "wedge",
            "--direction", "upper",
        ],
    )
    assert code == 0
    assert json.loads(out) == {
        "direction": "upper",
        "mode": "wedge",
        "exact": False,
        "results": [{"granule": [2, 4, 5, 6], "description": "a2"}],
    }


def test_approx_upper_of_definable_granule_is_exact(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "approx", TABLE1, "--granule", "2,7", "--mode", "wedge",
            "--direction", "upper",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["results"] == [{"granule": [2, 7], "description": "a1 ∧ a2"}]


def test_approx_text_output(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "approx", TABLE6, "--granule", "4,5,6", "--mode", "wedge",
            "--direction", "lower", "--format", "text",
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "exact: false",
        "{4,5}: a2 ∧ a3",
        "{4,6}: a2 ∧ a5",
    ]


def test_approx_lower_vee_empty_bound(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "approx", TABLE1, "--granule", "1,2", "--mode", "vee",
            "--direction", "lower", "--format", "text",
        ],
    )
    assert code == 0
    assert out.splitlines() == ["exact: false", "∅: (no description)"]


def test_approx_has_no_lower_cn(capsys) -> None:
    code, _, err = run(
        capsys,
        [
            "approx", TABLE1, "--compound", TABLE5_B, "--granule", "1,2",
            "--mode", "cn", "--direction", "lower",
        ],
    )
    assert code == 2 and "no lower approximation" in err


def test_approx_inapplicable_exit_code(capsys) -> None:
    code, _, err = run(
        capsys,
        [
            "approx", TABLE1, "--granule", "1,2,3,4,5,6,7", "--mode", "wedge",
            "--direction", "upper",
        ],
    )
    assert code == 4 and err.startswith("inapplicable:")


def test_approx_rejects_improper_granule(capsys) -> None:
    # a lower bound needs a proper subset
    code, _, err = run(
        capsys,
        [
            "approx", TABLE1, "--granule", "1,2,3,4,5,6,7", "--mode", "wedge",
            "--direction", "lower",
        ],
    )
    assert code == 2 and "proper subset" in err


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def test_convert_complement_matches_fixture(capsys) -> None:
    code, out, _ = run(capsys, ["convert", TABLE1, "--op", "complement"])
    assert code == 0
    assert out == TABLE4_CXT


def test_convert_appose_flattens_both_blocks(capsys) -> None:
    code, out, _ = run(capsys, ["convert", TABLE1, "--op", "appose"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "7" and lines[3] == "10"
    assert lines[5:12] == [str(i) for i in range(1, 8)]
    assert lines[12:22] == [f"a{j}" for j in range(1, 6)] + [
        f"not_a{j}" for j in range(1, 6)
    ]
    assert lines[22] == ".XX..X..XX"


def test_convert_complement_twice_restores_input(capsys, tmp_path) -> None:
    first = tmp_path / "comp.cxt"
    code, _, _ = run(
        capsys, ["convert", TABLE1, "--op", "complement", "--output", str(first)]
    )
    assert code == 0
    code, out, _ = run(capsys, ["convert", str(first), "--op", "complement"])
    assert code == 0
    assert out == (DATA / "table1.cxt").read_text(encoding="utf-8")


def test_convert_appose_json_round_trip(capsys, table3) -> None:
    from granudesc import parse_compound

    code, out, _ = run(capsys, ["convert", TABLE1, "--op", "appose", "--format", "json"])
    assert code == 0
    assert parse_compound(out) == table3


def test_convert_rejects_compound_input(capsys) -> None:
    code, _, err = run(capsys, ["convert", TABLE5_JSON, "--op", "complement"])
    assert code == 2 and "plain formal context" in err


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _stdin_of(data: bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` with bytes behind it, as a pipe has."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_stdin_dash_input(capsys, monkeypatch) -> None:
    monkeypatch.setattr(sys, "stdin", _stdin_of((DATA / "table1.cxt").read_bytes()))
    code, out, _ = run(
        capsys,
        ["define", "-", "--granule", "2,7", "--mode", "wedge", "--format", "text"],
    )
    assert code == 0 and out == "definable: a1 ∧ a2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["define", "-", "--compound", "-", "--granule", "1", "--mode", "cn"],
        ["concepts", "-", "--compound", "-", "--variant", "cn"],
    ],
)
def test_compound_from_stdin_when_the_input_is_stdin(capsys, monkeypatch, argv) -> None:
    # stdin holds one table; a second read would find it empty and blame
    # the valid input, so the pair is refused before either read
    stdin = _stdin_of((DATA / "table1.cxt").read_bytes())
    monkeypatch.setattr(sys, "stdin", stdin)
    err = "error: --compound - conflicts with input -: stdin is read once\n"
    assert run(capsys, argv) == (2, "", err)
    assert stdin.buffer.tell() == 0


@pytest.mark.parametrize(
    "count, padded",
    [("٢", False), ("２", False), ("0_2", False), ("+1", False), (" 2", True), ("2 ", True)],
)
def test_cxt_counts_through_the_command_line(capsys, monkeypatch, count, padded) -> None:
    data = f"B\n\n{count}\n1\n\no1\no2\na1\nX\n.\n".encode()
    monkeypatch.setattr(sys, "stdin", _stdin_of(data))
    if padded:
        want = (0, "ok: 2 objects, 1 attributes, 1 incidences\n", "")
    else:
        want = (2, "", f"error: stdin: line 3: expected object count, got {count!r}\n")
    assert run(capsys, ["validate", "-"]) == want


def test_a_parse_error_names_the_input_it_comes_from(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.cxt"
    bad.write_text("B\n\n٢\n1\n\no1\no2\na1\nX\n.\n", encoding="utf-8")
    good = str(DATA / "table1.cxt")
    want = (2, "", f"error: {bad}: line 3: expected object count, got '٢'\n")
    for first, second in ((good, str(bad)), (str(bad), good)):
        argv = ["define", first, "--compound", second, "--granule", "1", "--mode", "cn"]
        assert run(capsys, argv) == want


def test_undecodable_input_exits_2_alike_from_file_and_stdin(
    capsys, monkeypatch, tmp_path
) -> None:
    # Latin-1 "é" is the byte 0xE9, a UTF-8 lead byte that the newline after it breaks
    data = "B\n\n1\n1\n\ncafé\na1\nX\n".encode("latin-1")
    path = tmp_path / "latin1.cxt"
    path.write_bytes(data)
    output = tmp_path / "out"
    for argv in (["validate"], ["convert", "--op", "complement", "--output", str(output)]):
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 2 and out == ""
        assert err == (
            f"error: cannot read {path}: not UTF-8 at byte 11 (invalid continuation byte)\n"
        )
        monkeypatch.setattr(sys, "stdin", _stdin_of(data))
        assert run(capsys, [argv[0], "-", *argv[1:]]) == (2, "", err.replace(str(path), "stdin"))
    assert not output.exists()


@pytest.mark.parametrize("name", ["table1.cxt", "table5.json"])
def test_input_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, name) -> None:
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
    want = run(capsys, ["validate", str(DATA / name)])
    assert want[0] == 0 and run(capsys, ["validate", str(path)]) == want


def test_undecodable_input_after_a_byte_order_mark_counts_it(capsys, tmp_path) -> None:
    # the offset counts from the start of the input, the BOM's 3 bytes included
    path = tmp_path / "bom_latin1.cxt"
    path.write_bytes(b"\xef\xbb\xbf" + "B\n\n1\n1\n\ncafé\na1\nX\n".encode("latin-1"))
    assert run(capsys, ["validate", str(path)]) == (
        2, "", f"error: cannot read {path}: not UTF-8 at byte 14 (invalid continuation byte)\n"
    )


def test_deeply_nested_json_exits_2(capsys, tmp_path) -> None:
    path = tmp_path / "deep.json"
    path.write_text('{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert run(capsys, ["validate", str(path)]) == (
        2, "", f"error: {path}: JSON nested too deeply\n"
    )


def test_granule_accepts_names_and_indices(capsys) -> None:
    code, out, _ = run(
        capsys,
        [
            "define", SCORES_A.replace("scores_a", "scores_a"), "--compound",
            SCORES_B, "--granule", "3,Jenny", "--mode", "cn", "--format", "text",
        ],
    )
    # Grace is the third row
    assert code == 0
    assert out == "definable: c1 ∧ c2 ∧ c3 ∧ c4 ∧ (ec1 ∨ ec2)\n"


def test_numeric_names_win_over_indices_with_warning(capsys, tmp_path) -> None:
    shadow = FormalContext(("2", "1"), ("a1",), ((1,), (0,)))
    path = tmp_path / "shadow.cxt"
    path.write_text(serialize_context(shadow))
    code, out, err = run(
        capsys,
        ["define", str(path), "--granule", "2", "--mode", "wedge", "--format", "text"],
    )
    assert code == 0
    assert "using the name" in err
    # name "2" is the first object, whose row carries a1
    assert out == "definable: a1\n"


def test_granule_tolerates_blank_tokens(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["define", TABLE1, "--granule", "2,,7,", "--mode", "wedge", "--format", "text"],
    )
    assert code == 0 and out == "definable: a1 ∧ a2\n"


@pytest.mark.parametrize("token", ["²", "٣", "3²"])
def test_granule_index_is_ascii_digits_only(capsys, token) -> None:
    # Python's int() reads '٣' as 3 and fails on '²'; neither is an index
    code, out, err = run(
        capsys,
        ["define", TABLE1, "--granule", token, "--mode", "wedge", "--format", "text"],
    )
    assert (code, out) == (2, "")
    assert err == f"error: unknown object {token!r}\n"


def test_granule_reads_non_ascii_digit_names(capsys, tmp_path) -> None:
    named = FormalContext(("²", "٣", "x"), ("a1", "a2"), ((1, 0), (0, 1), (0, 0)))
    path = tmp_path / "named.cxt"
    path.write_text(serialize_context(named), encoding="utf-8")
    argv = ["define", str(path), "--mode", "wedge", "--format", "text", "--granule"]
    assert run(capsys, argv + ["²"]) == (0, "definable: a1\n", "")
    assert run(capsys, argv + ["٣"]) == (0, "definable: a2\n", "")


# ---------------------------------------------------------------------------
# malformed input bytes
# ---------------------------------------------------------------------------

SEED_INPUTS = [p.read_bytes() for p in sorted(DATA.glob("*")) if p.name != "cli_golden.json"]
BAD_UTF8 = [b"\xff", b"\xe9", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def _mutated_input(draw) -> bytes:
    """A data file with bits flipped, bytes inserted and invalid UTF-8 spliced in."""
    data = bytearray(draw(st.sampled_from(SEED_INPUTS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["flip", "insert", "bom", "utf8"]))
        if kind == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(list(b'{}[]",:X.\r'))).to_bytes(1, "big")
        elif kind == "bom":
            data[0:0] = b"\xef\xbb\xbf"
        else:
            data[at:at] = draw(st.sampled_from(BAD_UTF8))
    return bytes(data)


@given(
    data=_mutated_input(),
    via_stdin=st.booleans(),
    mode=st.sampled_from(["wedge", "three-way", "vee", "cn"]),
    variant=st.sampled_from(["formal", "object-oriented", "three-way", "cn"]),
)
@settings(max_examples=200, deadline=None)
def test_no_input_bytes_escape_main(data: bytes, via_stdin: bool, mode: str, variant: str) -> None:
    """Whatever the bytes, each command ends in an exit code, not a traceback."""
    commands = [
        ["validate"],
        ["concepts", "--variant", variant],
        ["define", "--granule", "1", "--mode", mode],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for argv in commands:
            source = "-" if via_stdin else str(path)
            with (
                mock.patch.object(sys, "stdin", _stdin_of(data)),
                redirect_stdout(io.StringIO()),
                redirect_stderr(io.StringIO()),
            ):
                code = main([argv[0], source, *argv[1:]])
            assert 0 <= code <= 4, argv
