"""Tightest definable bounds for granules that are not definable.

The closure modes' upper bounds and the disjunctive lower bound are
closures of the granule.  The conjunctive lower bounds (the maximal
definable proper subsets) and the disjunctive upper bounds (the minimal
unions of extents holding the granule) come from one cover search over
the columns XOR z, z being the closure of no attribute.  Each returned
granule comes with a description that evaluates back to it.  The modes,
their tables and closures come from the table of modes in
``definability``.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Iterable
from typing import TypeVar

from granudesc import _kernel
from granudesc._bits import bit_tuple, mask_of, set_of
from granudesc.context import (
    CompoundContext,
    FormalContext,
    ObjectSet,
    _Record,
)
from granudesc.definability import (
    Mode,
    Reason,
    _closure,
    _enter,
    _self_check,
)
from granudesc.errors import Inapplicable
from granudesc.formula import Description


class Direction(Enum):
    UPPER = "upper"
    LOWER = "lower"


class Approximation(_Record):
    direction: Direction
    mode: Mode
    granules: tuple[tuple[ObjectSet, Description | None], ...]
    exact: bool


class CoverProblem(_Record):
    """Candidate attribute extents and a target to cover by their union."""

    candidates: tuple[tuple[int, ObjectSet], ...]
    target: ObjectSet

    def __init__(
        self, candidates: tuple[tuple[int, ObjectSet], ...], target: ObjectSet
    ) -> None:
        ids = [i for i, _ in candidates]
        if len(ids) != len(set(ids)):
            raise ValueError("candidate attribute ids must be unique")
        for i, ext in candidates:
            if (low := min(ext, default=0)) < 0:
                raise ValueError(f"candidate {i} holds negative object index {low}")
        if (low := min(target, default=0)) < 0:
            raise ValueError(f"the target holds negative object index {low}")
        d = self.__dict__
        d["candidates"] = candidates
        d["target"] = target


def enumerate_minimal_covers(
    problem: CoverProblem, strict: bool = False
) -> list[tuple[frozenset[int], ObjectSet]]:
    """All inclusion-minimal achievable unions containing the target.

    For every minimal union the returned attribute set is the largest one
    producing it: every candidate with a non-empty extent inside the
    union.  The empty target is covered by the empty union.
    """
    cand = [(i, mask_of(ext)) for i, ext in problem.candidates]
    unions = _kernel.minimal_cover_unions([m for _, m in cand], mask_of(problem.target), strict)
    found = [(y, frozenset(i for i, m in cand if m and m & ~y == 0)) for y in unions]
    return [(ids, y) for y, ids in _sorted_granules(found)]


_P = TypeVar("_P")


def _sorted_granules(items: list[tuple[int, _P]]) -> tuple[tuple[ObjectSet, _P], ...]:
    """By size, then index tuple: one read of a granule's bits gives both key and set."""
    keyed = [(bit_tuple(g), d) for g, d in items]
    keyed.sort(key=lambda k: (len(k[0]), k[0]))
    return tuple((frozenset(t), d) for t, d in keyed)


# ---------------------------------------------------------------------------
# bounds read off the closure of the granule
# ---------------------------------------------------------------------------


def _upper(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> Approximation:
    """Least definable superset in a closure mode: the granule's closure."""
    rule, x, attrs, closure = _closure(mode, ctx, objects, op)
    d = _self_check(ctx, closure, rule.build(ctx, attrs))
    return Approximation(Direction.UPPER, mode, ((set_of(closure), d),), closure == x)


def upper_wedge(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Least conjunctively definable superset: the closure of the granule."""
    return _upper(Mode.WEDGE, ctx, objects, "upper_wedge")


def upper_three_way(cctx: CompoundContext, objects: Iterable[int]) -> Approximation:
    """Closure over the attribute-and-complement compound."""
    return _upper(Mode.THREE_WAY, cctx, objects, "upper_three_way")


def upper_cn(cctx: CompoundContext, objects: Iterable[int]) -> Approximation:
    """Least two-part definable superset: the two-part closure."""
    return _upper(Mode.CN, cctx, objects, "upper_cn")


def lower_vee(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Greatest disjunctively definable subset; unique, possibly empty."""
    try:
        rule, x, inside, granule = _closure(Mode.VEE, ctx, objects, "lower_vee")
    except Inapplicable:
        # no attribute extent fits inside: the bound is the empty granule
        return Approximation(Direction.LOWER, Mode.VEE, ((frozenset(), None),), False)
    d = _self_check(ctx, granule, rule.build(ctx, inside))
    return Approximation(Direction.LOWER, Mode.VEE, ((set_of(granule), d),), granule == x)


# ---------------------------------------------------------------------------
# bounds found by a cover search
# ---------------------------------------------------------------------------


def _cover_bounds(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> Approximation:
    """Bounds read off one cover search, with z the closure of no
    attribute: all objects in a conjunctive mode, none in the disjunctive.

    A granule g is definable exactly when z ^ g is a union of columns XOR
    z (the complement of an intersection of extents is the union of their
    complements), so the bounds are z ^ y for the minimal unions y of
    those columns holding z ^ x: properly for a conjunction, whose bounds
    lie below x.  When z ^ x is itself a union (x definable), the strict
    search compares only the one-step unions, so columns XOR z inside x
    (disjoint from the target) stay in the pool: they never join a minimal
    cover, but removing one from a definable granule can be the largest
    step down.  A bound's attributes are the candidates meeting the target
    when they generate its union, as a plain search's minimal unions
    always are, else every candidate inside it.
    """
    rule, t, x = _enter(mode, ctx, objects, op)
    z = rule.close(t, 0)
    target = z ^ x
    if not target:
        raise ValueError(
            f"{op} needs a proper subset of the objects" if z else f"{op} needs a non-empty granule"
        )
    cols = [z ^ col for col in t.column_masks]
    unions = _kernel.minimal_cover_unions(cols, target, strict=bool(z))
    if not (unions or z):
        raise Inapplicable(
            Reason.EMPTY_INTENT,
            "some object of the granule appears in no attribute extent",
        )
    meeting = [(1 << j, c) for j, c in enumerate(cols) if c & target]
    granules: list[tuple[int, Description | None]] = []
    for y in unions:
        ids = covered = 0
        for b, c in meeting:
            if c & ~y == 0:
                ids |= b
                covered |= c
        if covered != y:
            ids = mask_of(j for j, c in enumerate(cols) if c and c & ~y == 0)
        granule = z ^ y
        granules.append((granule, _self_check(ctx, granule, rule.build(ctx, ids))))
    exact = rule.close(t, rule.derive(t, x)) == x
    direction = Direction.LOWER if z else Direction.UPPER
    return Approximation(direction, mode, _sorted_granules(granules), exact)


def lower_wedge(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Maximal conjunctively definable proper subsets of the granule."""
    return _cover_bounds(Mode.WEDGE, ctx, objects, "lower_wedge")


def lower_three_way(cctx: CompoundContext, objects: Iterable[int]) -> Approximation:
    """Maximal three-way definable proper subsets of the granule."""
    return _cover_bounds(Mode.THREE_WAY, cctx, objects, "lower_three_way")


def upper_vee(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Minimal unions of attribute extents containing the granule."""
    return _cover_bounds(Mode.VEE, ctx, objects, "upper_vee")
