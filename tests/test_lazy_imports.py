"""The package runs its modules on first use.

``import granudesc`` puts every submodule in ``sys.modules`` unrun; the
first read of a submodule's attribute runs it and binds its public
names in the package, and each CLI subcommand runs only the modules it
needs, and none loads ``dataclasses`` or ``inspect``.  A run module is a
plain ``ModuleType``; an unrun one is of a subclass.  The loading is
checked in fresh interpreters, since the test session has long since
run everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import granudesc

from .conftest import DATA

SRC = str(Path(granudesc.__file__).resolve().parent.parent)

PUBLIC_NAMES = (
    "Approximation", "Atom", "AttributeSet", "Block", "CnIntent", "CompoundContext",
    "Concept", "ConceptLattice", "Conj", "ConjDisj", "ContextFormatError",
    "CoverProblem", "Description", "Direction", "Disj", "Flavor", "FlavorMismatch",
    "FormalContext", "GranuleDescError", "Inapplicable", "Mode", "ObjectSet",
    "Reason", "SizeGuardExceeded", "Status", "System", "Verdict", "appose_negation",
    "backend_name", "cn_extent", "cn_intent", "complement_context",
    "compound_extent", "compound_intent", "concept_join", "concept_leq",
    "concept_meet", "conj_disj", "conj_of", "disj_of", "enumerate_cn",
    "enumerate_formal", "enumerate_minimal_covers", "enumerate_object_oriented",
    "enumerate_three_way", "evaluate", "extent", "find_covering_elements", "intent",
    "intersect_descriptions", "is_cn_definable", "is_three_way_definable",
    "is_vee_definable", "is_wedge_definable", "lattice_to_dot", "lower_three_way",
    "lower_vee", "lower_wedge", "make_cn_context", "minimal_descriptions",
    "necessity", "parse_compound", "parse_context", "parse_description",
    "possibility", "render", "serialize_compound", "serialize_context",
    "three_way_conj", "union_vee_descriptions", "upper_cn", "upper_three_way",
    "upper_vee", "upper_wedge",
)
SUBMODULES = (
    "_bits", "_kernel", "errors", "context", "derivation", "formula",
    "definability", "approximation", "lattice",
)


def _fresh(code: str, *args: str) -> object:
    """What ``code`` prints as JSON, run in a new interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------


def test_all_names_the_public_names_once() -> None:
    assert len(PUBLIC_NAMES) == 74
    assert sorted(granudesc.__all__) == list(PUBLIC_NAMES)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_a_public_name_is_its_home_module_object(name: str) -> None:
    value = getattr(granudesc, name)
    home = sys.modules[f"granudesc.{granudesc._HOME[name]}"]
    assert value is getattr(home, name)
    if isinstance(value, type) or callable(value) and hasattr(value, "__code__"):
        assert value.__module__ == home.__name__
    # the first lookup keeps the value, so later ones are plain reads
    assert vars(granudesc)[name] is value


def test_dir_lists_the_public_names_and_submodules() -> None:
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(granudesc))


def test_star_import_binds_every_public_name() -> None:
    namespace: dict[str, object] = {}
    exec("from granudesc import *", namespace)
    assert {n: namespace[n] for n in PUBLIC_NAMES} == {
        n: getattr(granudesc, n) for n in PUBLIC_NAMES
    }


def test_an_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="'granudesc' has no attribute 'no_such_name'"):
        granudesc.no_such_name  # noqa: B018
    assert not hasattr(granudesc, "no_such_name")


def test_a_bare_import_registers_each_submodule_unrun() -> None:
    code = (
        "import json, sys, types\n"
        "import granudesc\n"
        "names = sorted(m[10:] for m in sys.modules if m.startswith('granudesc.'))\n"
        "same = [getattr(granudesc, m) is sys.modules['granudesc.' + m] for m in names]\n"
        "run = [m for m in names if type(sys.modules['granudesc.' + m]) is types.ModuleType]\n"
        "print(json.dumps([names, same, run]))\n"
    )
    names, same, run = _fresh(code)
    assert names == sorted(SUBMODULES)
    assert same == [True] * len(SUBMODULES)
    assert run == []


def test_a_run_binds_the_names_that_a_patch_of_all_modules_restores() -> None:
    # what a tracer does: run every submodule through sys.modules, replace a
    # function in every granudesc module that holds it, then put it back;
    # a package name first read meanwhile must not keep the replacement
    code = (
        "import json, sys\n"
        "import granudesc\n"
        "for name in list(sys.modules):\n"
        "    if name.startswith('granudesc.'):\n"
        "        vars(sys.modules[name])\n"
        "original = sys.modules['granudesc.formula'].render\n"
        "def wrapper(*args):\n"
        "    return original(*args)\n"
        "patched = [m for name, m in sys.modules.items()\n"
        "           if name.split('.')[0] == 'granudesc' and vars(m).get('render') is original]\n"
        "for m in patched:\n"
        "    m.render = wrapper\n"
        "during = granudesc.render is wrapper\n"
        "for m in patched:\n"
        "    m.render = original\n"
        "print(json.dumps([during, granudesc.render is original]))\n"
    )
    assert _fresh(code) == [True, True]


def test_threads_reading_an_unrun_module_wait_for_its_run() -> None:
    code = (
        "import json, sys, threading\n"
        "import granudesc\n"
        "sys.setswitchinterval(1e-6)\n"
        "start = threading.Barrier(8)\n"
        "got = []\n"
        "def read():\n"
        "    start.wait()\n"
        "    got.append(granudesc.lattice.enumerate_formal is granudesc.enumerate_formal)\n"
        "threads = [threading.Thread(target=read) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "print(json.dumps(got))\n"
    )
    assert _fresh(code) == [True] * 8


# ---------------------------------------------------------------------------
# the modules each subcommand loads
# ---------------------------------------------------------------------------

_PARSING = ["_bits", "cli", "context", "errors"]
_DEFINING = sorted(_PARSING + ["_kernel", "definability", "derivation", "formula"])
_SUBCOMMANDS = {
    "validate": (["validate", "table1.cxt"], _PARSING),
    "convert": (["convert", "table1.cxt", "--op", "appose", "--format", "json"], _PARSING),
    "define": (
        ["define", "table1.cxt", "--granule", "2,3", "--mode", "three-way", "--minimal"],
        _DEFINING,
    ),
    "approx": (
        ["approx", "table1.cxt", "--granule", "1,3", "--mode", "vee", "--direction", "upper"],
        sorted(_DEFINING + ["approximation"]),
    ),
    "concepts": (["concepts", "table1.cxt", "--format", "dot"], sorted(_DEFINING + ["lattice"])),
}


# the records are plain classes: importing ``dataclasses`` (and ``inspect``,
# which it pulls in) costs each call several milliseconds
_HEAVY_STDLIB = ["dataclasses", "inspect"]


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_a_subcommand_loads_only_what_it_runs(command: str) -> None:
    argv, want = _SUBCOMMANDS[command]
    code = (
        "import contextlib, io, json, os, sys, types\n"
        f"heavy = {_HEAVY_STDLIB!r}\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "from granudesc.cli import main\n"
        "os.chdir(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[2:])\n"
        "loaded = sorted(m[10:] for m, mod in sys.modules.items()\n"
        "                if m.startswith('granudesc.') and type(mod) is types.ModuleType)\n"
        "print(json.dumps([status, loaded, before, [m for m in heavy if m in sys.modules]]))\n"
    )
    status, loaded, before, after = _fresh(code, str(DATA), *argv)
    assert status == 0
    assert loaded == want
    assert before == after == []
