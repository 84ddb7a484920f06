"""Definability verdicts for granules under the four description modes.

A granule is definable in a mode when some formula of that mode evaluates
to exactly the granule:

* conjunctive mode: a conjunction of attributes;
* three-way mode: a conjunction allowing negated attributes, decided on
  the attribute-and-complement compound;
* disjunctive mode: a disjunction of attributes;
* common-and-necessary mode: an a-block conjunction and-ed with a
  b-block disjunct, each part non-empty.

Each mode is one record in ``_RULES``: the context kind it needs, the
table it closes over, a Galois pair on integer masks (granule to
attributes and back) and a description builder.  Definability, the
bounds in ``approximation``, minimal descriptions and the command line
all read that table.

Verdicts separate "indefinable" (the closure differs) from
"inapplicable" (the mode's premise fails, e.g. no shared attribute).
Every returned description is evaluated back against its granule
before it leaves the package.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Callable, Iterable
from typing import Any

from granudesc import _kernel
from granudesc._bits import bits, mask_of, set_of
from granudesc.context import (
    CompoundContext,
    Flavor,
    FormalContext,
    ObjectSet,
    _Record,
)
from granudesc.derivation import (
    _cn_b_part,
    _cn_extent,
    _cn_premise,
    _extent,
    _intent,
    _necessity,
    _possibility,
    _require_flavor,
    object_mask,
)
from granudesc.errors import Inapplicable
from granudesc.formula import (
    Description,
    _satisfying,
    conj_disj,
    conj_of,
    disj_of,
    three_way_conj,
)


class Mode(Enum):
    WEDGE = "wedge"
    THREE_WAY = "three_way"
    VEE = "vee"
    CN = "cn"


class Status(Enum):
    DEFINABLE = "definable"
    INDEFINABLE = "indefinable"
    INAPPLICABLE = "inapplicable"


class Reason(Enum):
    EMPTY_INTENT = "empty_intent"
    NO_B_COVER = "no_b_cover"
    EMPTY_A_PART = "empty_a_part"


class Verdict(_Record):
    status: Status
    description: Description | None = None
    reason: Reason | None = None
    witness: ObjectSet | None = None


# ---------------------------------------------------------------------------
# the table of modes
# ---------------------------------------------------------------------------


class _Rule(_Record):
    """How one description mode reads a context.

    ``derive`` maps a granule mask to the attribute mask of ``table(ctx)``
    that describes it, ``close`` maps attributes back to objects; their
    composite is the mode's closure.  ``build`` turns an attribute mask
    into a description over the context itself.
    """

    flavor: Flavor | None  # the context kind; None for a plain table
    table: Callable[[Any], Any]
    derive: Callable[[Any, int], int]
    close: Callable[[Any, int], int]
    build: Callable[[Any, int], Description]
    family: str  # the concept family the mode's fixed points form
    needs_granule: bool = False  # the empty granule has no answer

    def minimal(self, t: Any, x: int) -> list[int]:
        """Inclusion-minimal attribute masks that close to the granule, by
        size, then lexicographically.  With z the closure of no attribute
        (all objects in a conjunction, none in a disjunction), a subset of
        ``derive(x)`` closes to x exactly when its columns XOR z cover z ^ x."""
        base = list(bits(self.derive(t, x)))
        z = self.close(t, 0)
        found = _kernel.minimal_transversals([z ^ t.column_masks[j] for j in base], z ^ x)
        return [mask_of(base[i] for i in bits(m)) for m in found]


class _CnRule(_Rule):
    """The two-part mode: attribute masks hold the a-part in the low bits
    and the b-part above them, as in a flattened compound."""

    def minimal(self, t: Any, x: int) -> list[int]:
        """(A, B) is minimal exactly when B is a minimal transversal of x
        over the b-columns and A a minimal hitting set, within the a-intent,
        of the objects B lets in outside x, each given by the attributes it
        lacks: one search for the B, one per B for its A (each single
        attribute when B lets nothing in)."""
        n = len(t.a_attributes)
        a_int = _intent(t.a_block, x)
        base = list(bits(a_int))
        lacks = [t.a_block.full_object_mask ^ t.a_block.column_masks[j] for j in base]
        hits = []
        for b in _kernel.minimal_transversals(t.b_block.column_masks, x):
            forb = _possibility(t.b_block, b) & ~x
            for a in _kernel.minimal_transversals(lacks, forb):
                hits.append(mask_of(base[i] for i in bits(a)) | b << n)
        return sorted(
            hits,
            key=lambda s: (s.bit_count(), tuple(bits(s & a_int)), tuple(bits(s >> n))),
        )


def _cn_derive(cctx: CompoundContext, x: int) -> int:
    """The canonical two-part intent (see ``cn_intent``) as one mask."""
    a_part, covered = _cn_premise(cctx, x)
    if not a_part:
        raise Inapplicable(
            Reason.EMPTY_A_PART, "no a-attribute extent contains the granule"
        )
    if not covered:
        raise Inapplicable(
            Reason.NO_B_COVER, "no union of b-extents covers the granule"
        )
    return a_part | _cn_b_part(cctx, x, a_part) << len(cctx.a_attributes)


def _cn_build(cctx: CompoundContext, attrs: int) -> Description:
    n = len(cctx.a_attributes)
    return conj_disj(cctx, bits(attrs & ((1 << n) - 1)), bits(attrs >> n))


_RULES: dict[Mode, _Rule] = {
    Mode.WEDGE: _Rule(
        None, lambda ctx: ctx, _intent, _extent,
        lambda ctx, a: conj_of(ctx, bits(a)), "formal",
    ),
    Mode.THREE_WAY: _Rule(
        Flavor.THREE_WAY, lambda cctx: cctx.flattened, _intent, _extent,
        lambda cctx, a: three_way_conj(cctx, bits(a)), "three_way",
    ),
    Mode.VEE: _Rule(
        None, lambda ctx: ctx, _necessity, _possibility,
        lambda ctx, a: disj_of(ctx, bits(a)), "object_oriented",
    ),
    Mode.CN: _CnRule(
        Flavor.COMMON_NECESSARY, lambda cctx: cctx, _cn_derive, _cn_extent,
        _cn_build, "cn", needs_granule=True,
    ),
}


def _enter(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> tuple[_Rule, Any, int]:
    """Check the context kind, the object indices and, where the mode
    needs one, a non-empty granule once, at entry."""
    rule = _RULES[mode]
    _require_flavor(ctx, rule.flavor, op)
    x = object_mask(ctx, objects)
    if rule.needs_granule and not x:
        raise ValueError(f"{op} needs a non-empty granule")
    return rule, rule.table(ctx), x


def _closure(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> tuple[_Rule, int, int, int]:
    """Granule mask, describing attribute mask and closure of the granule.

    Raises ``Inapplicable`` when the mode's premise fails.
    """
    rule, t, x = _enter(mode, ctx, objects, op)
    attrs = rule.derive(t, x)
    if not attrs:
        raise Inapplicable(Reason.EMPTY_INTENT, "the granule shares no attribute")
    return rule, x, attrs, rule.close(t, attrs)


def _self_check(
    ctx: FormalContext | CompoundContext, granule: int, d: Description
) -> Description:
    """The one self-check: a description must evaluate to its granule."""
    got = _satisfying(ctx, d)
    if got != granule:
        raise AssertionError(
            f"description {d!r} evaluates to {sorted(bits(got))}, "
            f"not {sorted(bits(granule))}"
        )
    return d


def _verdict(
    mode: Mode, ctx: FormalContext | CompoundContext, objects: Iterable[int], op: str
) -> Verdict:
    try:
        rule, x, attrs, closure = _closure(mode, ctx, objects, op)
    except Inapplicable as exc:
        return Verdict(Status.INAPPLICABLE, reason=exc.reason)
    if closure != x:
        return Verdict(Status.INDEFINABLE, witness=set_of(closure))
    d = _self_check(ctx, x, rule.build(ctx, attrs))
    return Verdict(Status.DEFINABLE, description=d)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def is_wedge_definable(ctx: FormalContext, objects: Iterable[int]) -> Verdict:
    """Conjunctive definability: the granule equals the extent of its intent."""
    return _verdict(Mode.WEDGE, ctx, objects, "is_wedge_definable")


def find_covering_elements(ctx: FormalContext, objects: Iterable[int]) -> ObjectSet:
    """Outside objects carrying every shared attribute of the granule.

    Their absence is equivalent to conjunctive definability.  Raises
    ``Inapplicable`` when the granule has no shared attribute.
    """
    _, x, _, closure = _closure(Mode.WEDGE, ctx, objects, "find_covering_elements")
    return set_of(closure & ~x)


def is_three_way_definable(cctx: CompoundContext, objects: Iterable[int]) -> Verdict:
    """Conjunctive definability over the attribute-and-complement compound."""
    return _verdict(Mode.THREE_WAY, cctx, objects, "is_three_way_definable")


def is_vee_definable(ctx: FormalContext, objects: Iterable[int]) -> Verdict:
    """Disjunctive definability: the granule is the union of the attribute
    extents it fully contains."""
    return _verdict(Mode.VEE, ctx, objects, "is_vee_definable")


def is_cn_definable(cctx: CompoundContext, objects: Iterable[int]) -> Verdict:
    """Two-part definability: a non-empty a-part conjunction intersected
    with a non-empty b-part disjunct must give back the granule."""
    return _verdict(Mode.CN, cctx, objects, "is_cn_definable")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _compose(
    mode: Mode,
    ctx: FormalContext | CompoundContext,
    granules: tuple[Iterable[int], Iterable[int]],
    merge: Callable[[int, int], int],
    op: str,
) -> Verdict:
    """Description of two definable granules merged: the union of their
    describing attributes, which always closes to the merged granule."""
    merged = 0
    masks = []
    for objects in granules:
        try:
            rule, x, attrs, closure = _closure(mode, ctx, objects, op)
        except Inapplicable:
            return Verdict(Status.INAPPLICABLE)
        if closure != x:
            return Verdict(Status.INAPPLICABLE)
        merged |= attrs
        masks.append(x)
    d = _self_check(ctx, merge(*masks), rule.build(ctx, merged))
    return Verdict(Status.DEFINABLE, description=d)


def intersect_descriptions(
    ctx: FormalContext | CompoundContext,
    first: Iterable[int],
    second: Iterable[int],
    mode: str = "wedge",
) -> Verdict:
    """Description of the intersection of two conjunctively definable
    granules: the union of their intents, which always closes back."""
    m = Mode(mode)
    if m not in (Mode.WEDGE, Mode.THREE_WAY):
        raise ValueError("mode must be 'wedge' or 'three_way'")
    return _compose(m, ctx, (first, second), int.__and__, "intersect_descriptions")


def union_vee_descriptions(
    ctx: FormalContext, first: Iterable[int], second: Iterable[int]
) -> Verdict:
    """Description of the union of two disjunctively definable granules."""
    return _compose(Mode.VEE, ctx, (first, second), int.__or__, "union_vee_descriptions")


# ---------------------------------------------------------------------------
# minimal descriptions (minimal transversals of the cover search)
# ---------------------------------------------------------------------------


def minimal_descriptions(
    ctx: FormalContext | CompoundContext,
    objects: Iterable[int],
    mode: str,
) -> list[Description]:
    """All inclusion-minimal descriptions of a granule; none when it is
    not definable.  The kernel's cover search lists them as minimal
    transversals; cn runs one search for the b-parts, then one per b-part
    for its a-parts."""
    rule, t, x = _enter(Mode(mode), ctx, objects, "minimal_descriptions")
    return [_self_check(ctx, x, rule.build(ctx, s)) for s in rule.minimal(t, x)]
