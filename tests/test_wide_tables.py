"""Searches a thousand candidates deep, through the library and the CLI.

On the 1,200 x 1,200 identity table each search below adds one candidate
per object of the granule, one after another, on a single branch.  Each
input has one answer; a search that kept its nodes on the interpreter
stack would stop at the recursion limit instead.  The table's masks,
built in bulk, are checked against the per-cell builder too.
"""

from __future__ import annotations

import json

import pytest

from granudesc import (
    CoverProblem,
    Disj,
    FormalContext,
    disj_of,
    enumerate_minimal_covers,
    minimal_descriptions,
    render,
    serialize_context,
    upper_vee,
)
from granudesc.cli import main

from .oracles import masks_per_cell

N = 1200


@pytest.fixture(scope="module")
def wide(tmp_path_factory) -> dict:
    """The identity table, the same plus an object ``all`` carrying every
    attribute, and a cxt file of each."""
    rows = [[i == j for j in range(N)] for i in range(N)]
    names = [f"o{i}" for i in range(N)]
    attributes = [f"a{j}" for j in range(N)]
    identity = FormalContext(names, attributes, rows)
    with_all = FormalContext(names + ["all"], attributes, rows + [[True] * N])
    folder = tmp_path_factory.mktemp("wide")
    paths = {}
    for key, ctx in (("identity", identity), ("with_all", with_all)):
        paths[key] = folder / f"{key}.cxt"
        paths[key].write_text(serialize_context(ctx), encoding="utf-8")
    return {"identity": identity, "with_all": with_all, "paths": paths}


def test_masks_of_the_identity_table_equal_the_per_cell_builder(wide) -> None:
    identity = wide["identity"]
    masks = identity.row_masks, identity.column_masks, identity.column_union, identity.empty_columns
    assert masks == masks_per_cell(identity.incidence)
    assert identity.column_masks == tuple(1 << i for i in range(N))


def test_minimal_vee_description_of_1199_objects(wide) -> None:
    (d,) = minimal_descriptions(wide["identity"], range(N - 1), "vee")
    assert isinstance(d, Disj)
    assert [a.name for a in d.atoms] == [f"a{j}" for j in range(N - 1)]


def test_upper_vee_of_1200_objects(wide) -> None:
    ctx = wide["with_all"]
    result = upper_vee(ctx, range(N))
    assert not result.exact
    ((granule, d),) = result.granules
    assert granule == frozenset(range(N + 1))
    assert d == disj_of(ctx, range(N))


def test_one_minimal_cover_of_1200_candidates() -> None:
    # candidate j holds object j and object N, outside the target
    problem = CoverProblem(tuple((j, frozenset({j, N})) for j in range(N)), frozenset(range(N)))
    assert enumerate_minimal_covers(problem) == [(frozenset(range(N)), frozenset(range(N + 1)))]


def test_cli_define_minimal_on_the_wide_table(wide, capsys) -> None:
    granule = ",".join(f"o{i}" for i in range(N - 1))
    path = str(wide["paths"]["identity"])
    argv = ["define", path, "--granule", granule, "--mode", "vee", "--minimal", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    text = render(disj_of(wide["identity"], range(N - 1)))
    assert payload["status"] == "definable"
    assert payload["minimal"] == [text]


def test_cli_approx_upper_vee_on_the_wide_table(wide, capsys) -> None:
    granule = ",".join(f"o{i}" for i in range(N))
    path = str(wide["paths"]["with_all"])
    argv = ["approx", path, "--granule", granule, "--mode", "vee", "--direction", "upper",
            "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    text = render(disj_of(wide["with_all"], range(N)))
    assert payload["exact"] is False
    assert payload["results"] == [{"granule": list(range(1, N + 2)), "description": text}]
