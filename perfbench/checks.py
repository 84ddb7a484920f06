"""Answer checks that do not reuse the program's own algorithms.

Descriptions are checked through their rendered text: the benchmark
parses ``render(d)`` itself and evaluates the atoms on column masks it
computed from the generated rows.  Closures are recomputed here on those
masks.  Each check returns ``None`` when the answer holds, else a
one-line reason.
"""

from __future__ import annotations

AND = " ∧ "
OR = " ∨ "
NOT = "¬"


def eval_text(text: str, cols: dict[str, int], full: int) -> int:
    """Objects satisfying a rendered description.

    ``cols`` maps every attribute name the description may use to its
    object mask; ``¬name`` is the complement of that column.
    """

    def atom(tok: str) -> int:
        if tok.startswith(NOT):
            return full & ~cols[tok[len(NOT):]]
        return cols[tok]

    def conj(part: str) -> int:
        m = full
        for tok in part.split(AND):
            m &= atom(tok)
        return m

    def disj(part: str) -> int:
        m = 0
        for tok in part.split(OR):
            m |= atom(tok)
        return m

    if text.endswith(")"):
        head, _, group = text[:-1].partition(AND + "(")
        return conj(head) & disj(group)
    if OR in text:
        return disj(text)
    return conj(text)


def intent_of(x: int, cols: list[int]) -> int:
    """Attribute mask of the columns containing x."""
    return sum(1 << j for j, c in enumerate(cols) if x & ~c == 0)


def extent_of(attrs: int, cols: list[int], full: int) -> int:
    m = full
    for j, c in enumerate(cols):
        if attrs >> j & 1:
            m &= c
    return m


def inside_of(x: int, cols: list[int]) -> int:
    """Attribute mask of the columns contained in x."""
    return sum(1 << j for j, c in enumerate(cols) if c & ~x == 0)


def union_of(attrs: int, cols: list[int]) -> int:
    m = 0
    for j, c in enumerate(cols):
        if attrs >> j & 1:
            m |= c
    return m


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def conj_status(x: int, cols: list[int], full: int) -> str:
    """Expected verdict of conjunctive definability (also three-way on
    the flattened columns)."""
    shared = intent_of(x, cols)
    if not shared:
        return "inapplicable"
    return "definable" if extent_of(shared, cols, full) == x else "indefinable"


def disj_status(x: int, cols: list[int]) -> str:
    inside = inside_of(x, cols)
    if not inside:
        return "inapplicable"
    return "definable" if union_of(inside, cols) == x else "indefinable"


def cn_status(x: int, a_cols: list[int], b_cols: list[int], full: int) -> str:
    """Expected two-part verdict.

    With g the extent of every a-column containing x, x is definable
    exactly when the b-columns that add nothing to g outside x cover x:
    a smaller a-part only widens g, and any admissible union is one of
    those columns' unions.
    """
    shared = intent_of(x, a_cols)
    if not shared:
        return "inapplicable"
    if x & ~union_of((1 << len(b_cols)) - 1, b_cols):
        return "inapplicable"
    return "definable" if cn_fixed_point(x, a_cols, b_cols, full) else "indefinable"


def cn_fixed_point(x: int, a_cols: list[int], b_cols: list[int], full: int) -> bool:
    g = extent_of(intent_of(x, a_cols), a_cols, full)
    outside = g & ~x
    y = 0
    for c in b_cols:
        if c and c & outside == 0:
            y |= c
    return x & ~y == 0
