"""Seeded input generator shared by the four workloads.

Every table, compound and granule comes from ``random.Random`` seeded by
the workload seed, so one seed always gives the same inputs.  Tables are
kept as plain boolean rows; the benchmark turns them into ``cxt`` or JSON
text, and the program only ever sees that text (parsed in set-up) and
granules as sets of object indices.  Masks here are Python integers,
bit i standing for object i, and are used only by the benchmark's own
checks, never handed to the program.

Every table stays within 64 objects and 64 attributes, flattened
three-way tables included, so a compiled kernel could serve each call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MAX_WIDTH = 64


@dataclass(frozen=True)
class Table:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.objects)

    @property
    def full(self) -> int:
        return (1 << len(self.objects)) - 1

    def columns(self) -> list[int]:
        """Object mask of each attribute."""
        return [
            sum(1 << i for i, row in enumerate(self.rows) if row[j])
            for j in range(len(self.attributes))
        ]


def random_table(
    rng: random.Random,
    n_objects: int,
    n_attributes: int,
    density: float,
    prefix: str = "m",
) -> Table:
    """A table with exactly ``round(density * cells)`` incidences, placed
    uniformly at random.  The fixed count keeps a table's cost from
    swinging with its realised density (for ``enumerate_formal`` on 32x14
    at 0.5, the coefficient of variation of the time per table is 0.16,
    against 0.43 with independent cells), so the few hundred tables a run
    reaches stand for the seed's workload."""
    if n_objects > MAX_WIDTH or 2 * n_attributes > MAX_WIDTH:
        raise ValueError("tables must stay within 64 objects and 32 attributes")
    cells = n_objects * n_attributes
    on = set(rng.sample(range(cells), round(density * cells)))
    rows = tuple(
        tuple(i * n_attributes + j in on for j in range(n_attributes))
        for i in range(n_objects)
    )
    return Table(
        tuple(f"g{i + 1}" for i in range(n_objects)),
        tuple(f"{prefix}{j + 1}" for j in range(n_attributes)),
        rows,
    )


def complement(table: Table, prefix: str = "not_") -> Table:
    return Table(
        table.objects,
        tuple(prefix + a for a in table.attributes),
        tuple(tuple(not v for v in row) for row in table.rows),
    )


def cxt_text(table: Table) -> str:
    out = ["B", "", str(table.n), str(len(table.attributes)), ""]
    out.extend(table.objects)
    out.extend(table.attributes)
    out.extend("".join("X" if v else "." for v in row) for row in table.rows)
    return "\n".join(out) + "\n"


def compound_json(a: Table, b: Table, flavor: str) -> str:
    return json.dumps(
        {
            "objects": list(a.objects),
            "a_attributes": list(a.attributes),
            "b_attributes": list(b.attributes),
            "a_incidence": [[int(v) for v in row] for row in a.rows],
            "b_incidence": [[int(v) for v in row] for row in b.rows],
            "flavor": flavor,
        }
    )


# ---------------------------------------------------------------------------
# granules
# ---------------------------------------------------------------------------
#
# Half of every granule stream is definable by construction in the mode
# it is asked about (an extent of attributes or literals, a union of
# columns, or a conjunction and-ed with a disjunct); the other half are
# random subsets, most of them indefinable.


def conj_granule(rng: random.Random, cols: list[int], full: int, k_max: int = 3) -> int:
    """Extent of 1..k_max random columns; a concept extent of the table."""
    while True:
        x = full
        for j in rng.sample(range(len(cols)), rng.randint(1, k_max)):
            x &= cols[j]
        if x and x != full:
            return x


def disj_granule(rng: random.Random, cols: list[int], full: int, k_max: int = 2) -> int:
    """Union of 1..k_max random columns; disjunctively definable."""
    while True:
        x = 0
        for j in rng.sample(range(len(cols)), rng.randint(1, k_max)):
            x |= cols[j]
        if x and x != full:
            return x


def cn_granule(rng: random.Random, a_cols: list[int], b_cols: list[int], full: int) -> int:
    """Extent of 1-2 a-columns intersected with a union of 1-2 b-columns."""
    while True:
        g = full
        for j in rng.sample(range(len(a_cols)), rng.randint(1, 2)):
            g &= a_cols[j]
        u = 0
        for j in rng.sample(range(len(b_cols)), rng.randint(1, 2)):
            u |= b_cols[j]
        if g & u:
            return g & u


def random_granule(rng: random.Random, n: int, p: float) -> int:
    """Each object independently with probability p; never empty or full."""
    full = (1 << n) - 1
    while True:
        x = sum(1 << i for i in range(n) if rng.random() < p)
        if x and x != full:
            return x


def set_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def popcount(mask: int) -> int:
    return bin(mask).count("1")
