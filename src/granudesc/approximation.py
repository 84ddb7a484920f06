"""Tightest definable bounds for granules that are not definable.

Upper bounds are closures: the least definable superset in the chosen
mode.  Lower bounds are strict: the maximal definable proper subsets,
found by covering the granule's complement with unions of (complemented)
attribute extents and keeping the inclusion-minimal achievable unions.
Each returned granule comes with a description that evaluates back to it.
The modes, their tables and closures come from the table of modes in
``definability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from collections.abc import Iterable

from granudesc import _kernel
from granudesc._bits import bits, mask_of, set_of
from granudesc.context import (
    CompoundContext,
    FormalContext,
    ObjectSet,
)
from granudesc.derivation import _possibility
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


@dataclass(frozen=True)
class Approximation:
    direction: Direction
    mode: Mode
    granules: tuple[tuple[ObjectSet, Description | None], ...]
    exact: bool


@dataclass(frozen=True)
class CoverProblem:
    """Candidate attribute extents and a target to cover by their union."""

    candidates: tuple[tuple[int, ObjectSet], ...]
    target: ObjectSet

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.candidates]
        if len(ids) != len(set(ids)):
            raise ValueError("candidate attribute ids must be unique")


def enumerate_minimal_covers(
    problem: CoverProblem, strict: bool = False
) -> list[tuple[frozenset[int], ObjectSet]]:
    """All inclusion-minimal achievable unions containing the target.

    For every minimal union the returned attribute set is the largest one
    producing it: every candidate with a non-empty extent inside the
    union.  The empty target is covered by the empty union.
    """
    cand = [(i, mask_of(ext)) for i, ext in problem.candidates]
    target = mask_of(problem.target)
    unions = _kernel.minimal_cover_unions([m for _, m in cand], target, strict)
    results = []
    for y in unions:
        ids = frozenset(i for i, m in cand if m and m & ~y == 0)
        results.append((ids, set_of(y)))
    results.sort(key=lambda r: (len(r[1]), tuple(sorted(r[1]))))
    return results


def _sorted_granules(
    items: list[tuple[int, Description | None]]
) -> tuple[tuple[ObjectSet, Description | None], ...]:
    """By size, then index tuple: one read of a granule's bits gives both key and set."""
    keyed = [(tuple(bits(g)), d) for g, d in items]
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


def _lower(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> Approximation:
    """Maximal definable proper subsets in a conjunctive mode.

    The complement of each such subset is a minimal union of complement
    extents that properly contains the complement of the granule.  When
    the granule is not definable, the kernel's minimal covers of that
    complement are these unions.  When it is definable, its complement is
    itself a union, and each maximal proper subset is the granule minus
    one complement extent that meets it: the kernel compares these
    one-step unions only.  Complement extents inside the granule (disjoint
    from the search target) therefore stay in the pool; they never join a
    minimal cover, but removing one of them from a definable granule can
    be the largest step down.  The reported attribute set sticks to the
    meeting candidates whenever they generate the union.
    """
    rule, t, x = _enter(mode, ctx, objects, op)
    full = t.full_object_mask
    if x == full:
        raise ValueError(f"{op} needs a proper subset of the objects")
    attrs = rule.derive(t, x)
    exact = bool(attrs) and rule.close(t, attrs) == x
    target = full & ~x
    comp = [(j, full & ~col) for j, col in enumerate(t.column_masks)]
    pool = [(j, c) for j, c in comp if c]
    unions = _kernel.minimal_cover_unions([c for _, c in pool], target, strict=True)
    granules: list[tuple[int, Description | None]] = []
    for y in unions:
        inside = [(j, c) for j, c in pool if c & ~y == 0]
        meeting = [(j, c) for j, c in inside if c & target]
        covered = 0
        for _, c in meeting:
            covered |= c
        chosen = meeting if covered == y else inside
        granule = full & ~y
        d = rule.build(ctx, mask_of(j for j, _ in chosen))
        granules.append((granule, _self_check(ctx, granule, d)))
    return Approximation(Direction.LOWER, mode, _sorted_granules(granules), exact)


def lower_wedge(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Maximal conjunctively definable proper subsets of the granule."""
    return _lower(Mode.WEDGE, ctx, objects, "lower_wedge")


def lower_three_way(cctx: CompoundContext, objects: Iterable[int]) -> Approximation:
    """Maximal three-way definable proper subsets of the granule."""
    return _lower(Mode.THREE_WAY, cctx, objects, "lower_three_way")


def upper_vee(ctx: FormalContext, objects: Iterable[int]) -> Approximation:
    """Minimal unions of attribute extents containing the granule."""
    rule, _, x = _enter(Mode.VEE, ctx, objects, "upper_vee")
    if not x:
        raise ValueError("upper_vee needs a non-empty granule")
    if x & ~_possibility(ctx, ctx.full_attribute_mask):
        raise Inapplicable(
            Reason.EMPTY_INTENT,
            "some object of the granule appears in no attribute extent",
        )
    pool = [(j, col) for j, col in enumerate(ctx.column_masks) if col & x]
    unions = _kernel.minimal_cover_unions([c for _, c in pool], x, strict=False)
    granules: list[tuple[int, Description | None]] = []
    for y in unions:
        d = rule.build(ctx, mask_of(j for j, c in pool if c & ~y == 0))
        granules.append((y, _self_check(ctx, y, d)))
    exact = x in unions
    return Approximation(Direction.UPPER, Mode.VEE, _sorted_granules(granules), exact)
