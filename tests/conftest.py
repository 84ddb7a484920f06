from __future__ import annotations

import random
from pathlib import Path

import pytest

from granudesc import (
    CompoundContext,
    FormalContext,
    appose_negation,
    make_cn_context,
    parse_compound,
    parse_context,
)

DATA = Path(__file__).parent / "data"


def load_text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def objs(ctx, *names: str) -> frozenset[int]:
    """Object index set from object names."""
    return frozenset(ctx.objects.index(n) for n in names)


def attrs(names_pool, *names: str) -> frozenset[int]:
    """Attribute index set from attribute names in the given name tuple."""
    return frozenset(names_pool.index(n) for n in names)


def obj_names(ctx, indices) -> set[str]:
    return {ctx.objects[i] for i in indices}


def random_context(
    rng: random.Random,
    n_objects: int,
    n_attributes: int,
    density: float,
) -> FormalContext:
    rows = tuple(
        tuple(rng.random() < density for _ in range(n_attributes))
        for _ in range(n_objects)
    )
    objects = tuple(str(i + 1) for i in range(n_objects))
    attributes = tuple(f"a{j + 1}" for j in range(n_attributes))
    return FormalContext(objects, attributes, rows)


def random_cn_context(
    rng: random.Random,
    n_objects: int,
    n_a: int,
    n_b: int,
    density: float,
) -> CompoundContext:
    a = random_context(rng, n_objects, n_a, density)
    b_rows = tuple(
        tuple(rng.random() < density for _ in range(n_b))
        for _ in range(n_objects)
    )
    b = FormalContext(a.objects, tuple(f"b{j + 1}" for j in range(n_b)), b_rows)
    return make_cn_context(a, b)


# The granule of ``wide_cn``: object 22 carries 21 of the 24 a-attributes,
# the most of any object.  Its 715 minimal cn descriptions were checked
# once, equal in order, against ``oracles.cn_minimal_a_part_loop``, which
# takes about a minute on them.
WIDE_CN_OBJECT = 21
WIDE_CN_MINIMAL = 715


@pytest.fixture(scope="session")
def wide_cn() -> CompoundContext:
    """A 40-object compound with a wide a-block: 24 a-attributes at density
    0.6 and 12 b-attributes at 0.3."""
    rng = random.Random(5)
    a = random_context(rng, 40, 24, 0.6)
    b_rows = tuple(tuple(rng.random() < 0.3 for _ in range(12)) for _ in range(40))
    b = FormalContext(a.objects, tuple(f"b{j + 1}" for j in range(12)), b_rows)
    return make_cn_context(a, b)


@pytest.fixture(scope="session")
def table1() -> FormalContext:
    return parse_context(load_text("table1.cxt"))


@pytest.fixture(scope="session")
def table3(table1: FormalContext) -> CompoundContext:
    return appose_negation(table1)


@pytest.fixture(scope="session")
def table6() -> FormalContext:
    return parse_context(load_text("table6.cxt"))


@pytest.fixture(scope="session")
def table5(table1: FormalContext) -> CompoundContext:
    return make_cn_context(table1, parse_context(load_text("table5_b.cxt")))


@pytest.fixture(scope="session")
def table5_json() -> CompoundContext:
    return parse_compound(load_text("table5.json"))


@pytest.fixture(scope="session")
def scores() -> CompoundContext:
    return make_cn_context(
        parse_context(load_text("scores_a.cxt")),
        parse_context(load_text("scores_b.cxt")),
    )
