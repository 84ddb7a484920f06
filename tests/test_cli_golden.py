"""Byte-for-byte replay of recorded command-line runs.

``data/cli_golden.json`` holds one record per argument list: the exit
code, stdout and stderr that ``granudesc.cli.main`` produced for it,
recorded in process before the mode dispatch was rebuilt around one
table of modes.  It covers ``define`` (with and without ``--minimal``)
in every mode, ``approx`` for every direction and mode, ``concepts`` for
every variant, text/json/dot and ``--ascii`` output, the context-kind
errors, ``convert`` and ``validate``.  One record was updated later, on
purpose: ``concepts --variant three-way --compound ...`` now exits 2,
as ``--compound`` is refused by every variant but cn.  File arguments
are stored as names inside ``tests/data``.
"""

from __future__ import annotations

import json

import pytest

from .conftest import DATA
from .test_cli import run

RECORDS = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))


def _resolve(arg: str) -> str:
    return str(DATA / arg) if arg.endswith((".cxt", ".json")) else arg


def test_cli_output_matches_snapshot(capsys) -> None:
    mismatches = []
    for record in RECORDS:
        code, out, err = run(capsys, [_resolve(a) for a in record["argv"]])
        if (code, out, err) != (record["code"], record["out"], record["err"]):
            mismatches.append((record, code, out, err))
    if mismatches:
        record, code, out, err = mismatches[0]
        pytest.fail(
            f"{len(mismatches)} of {len(RECORDS)} runs differ; first: "
            f"{' '.join(record['argv'])}\n"
            f"expected code {record['code']}, stdout {record['out']!r}, "
            f"stderr {record['err']!r}\n"
            f"got code {code}, stdout {out!r}, stderr {err!r}"
        )
