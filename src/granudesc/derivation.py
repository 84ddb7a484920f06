"""Derivation operators over contexts.

For a formal context: ``intent`` collects the attributes shared by every
object of a granule, ``extent`` the objects carrying every attribute of a
set.  ``possibility`` and ``necessity`` are their disjunctive duals: the
union of attribute extents, and the attributes whose whole extent lies
inside a granule.  Compound operators work on the flattened two-block
table; the common-and-necessary pair combines a conjunctive a-part with a
disjunctive b-part.

Each operator has a private twin on integer masks (see ``_bits``); the
public functions check indices, call the twin and return frozensets.
"""

from __future__ import annotations

from collections.abc import Iterable

from granudesc import _kernel
from granudesc._bits import bits, set_of
from granudesc.context import (
    AttributeSet,
    CompoundContext,
    Flavor,
    FormalContext,
    ObjectSet,
    _Record,
)
from granudesc.errors import FlavorMismatch


def _index_mask(indices: Iterable[int], bound: int, kind: str) -> int:
    m = 0
    for i in indices:
        if not 0 <= i < bound:
            raise ValueError(f"{kind} index {i} out of range 0..{bound - 1}")
        m |= 1 << i
    return m


def object_mask(ctx: FormalContext | CompoundContext, objects: Iterable[int]) -> int:
    return _index_mask(objects, ctx.n_objects, "object")


def _attr_mask(ctx: FormalContext, attrs: Iterable[int]) -> int:
    return _index_mask(attrs, ctx.n_attributes, "attribute")


def _require_flavor(
    ctx: FormalContext | CompoundContext, flavor: Flavor | None, op: str
) -> None:
    """The one context-kind guard: ``flavor`` None asks for a plain table."""
    if flavor is None:
        if not isinstance(ctx, FormalContext):
            raise FlavorMismatch(f"{op} needs a plain formal context")
        return
    if not isinstance(ctx, CompoundContext):
        raise FlavorMismatch(f"{op} needs a compound context")
    if ctx.flavor is not flavor:
        raise FlavorMismatch(
            f"{op} needs a {flavor.value} compound, got {ctx.flavor.value}"
        )


def _intent(ctx: FormalContext, x: int) -> int:
    result = ctx.full_attribute_mask
    rows = ctx.row_masks
    for i in bits(x):
        result &= rows[i]
    return result


def _extent(ctx: FormalContext, a: int) -> int:
    result = ctx.full_object_mask
    cols = ctx.column_masks
    for j in bits(a):
        result &= cols[j]
    return result


def _possibility(ctx: FormalContext, a: int) -> int:
    result = 0
    cols = ctx.column_masks
    for j in bits(a):
        result |= cols[j]
    return result


def _necessity(ctx: FormalContext, x: int) -> int:
    result = 0
    for j, col in enumerate(ctx.column_masks):
        if col & ~x == 0:
            result |= 1 << j
    return result


def intent(ctx: FormalContext, objects: Iterable[int]) -> AttributeSet:
    """Attributes common to every object of the granule; all of them for the empty granule."""
    _require_flavor(ctx, None, "intent")
    return set_of(_intent(ctx, object_mask(ctx, objects)))


def extent(ctx: FormalContext, attrs: Iterable[int]) -> ObjectSet:
    """Objects carrying every attribute of the set; all of them for the empty set."""
    _require_flavor(ctx, None, "extent")
    return set_of(_extent(ctx, _attr_mask(ctx, attrs)))


def possibility(ctx: FormalContext, attrs: Iterable[int]) -> ObjectSet:
    """Union of the attribute extents; empty for the empty set."""
    _require_flavor(ctx, None, "possibility")
    return set_of(_possibility(ctx, _attr_mask(ctx, attrs)))


def necessity(ctx: FormalContext, objects: Iterable[int]) -> AttributeSet:
    """Attributes whose whole extent lies inside the granule."""
    _require_flavor(ctx, None, "necessity")
    return set_of(_necessity(ctx, object_mask(ctx, objects)))


def compound_intent(cctx: CompoundContext, objects: Iterable[int]) -> AttributeSet:
    """Shared attributes over both blocks, as flattened indices."""
    _require_flavor(cctx, Flavor.THREE_WAY, "compound_intent")
    return intent(cctx.flattened, objects)


def compound_extent(cctx: CompoundContext, attrs: Iterable[int]) -> ObjectSet:
    """Objects carrying every flattened attribute of the set."""
    _require_flavor(cctx, Flavor.THREE_WAY, "compound_extent")
    return extent(cctx.flattened, attrs)


class CnIntent(_Record):
    """Two-part description seed: conjunctive a-part, disjunctive b-part.

    ``no_b_cover`` marks granules no union of b-extents contains; the
    b-part is empty in that case.
    """

    a_part: AttributeSet
    b_part: AttributeSet
    no_b_cover: bool = False


def _cn_extent(cctx: CompoundContext, attrs: int) -> int:
    """Two-part extent of a mask holding the a-part in its low bits and the
    b-part above them, as the flattened compound numbers its attributes."""
    n = len(cctx.a_attributes)
    a_part, b_part = attrs & ((1 << n) - 1), attrs >> n
    return _extent(cctx.a_block, a_part) & _possibility(cctx.b_block, b_part)


def cn_extent(cctx: CompoundContext, e: CnIntent) -> ObjectSet:
    """Objects in every a-part extent and in at least one b-part extent."""
    _require_flavor(cctx, Flavor.COMMON_NECESSARY, "cn_extent")
    a = _attr_mask(cctx.a_block, e.a_part)
    b = _attr_mask(cctx.b_block, e.b_part)
    return set_of(_cn_extent(cctx, a | b << len(cctx.a_attributes)))


def _cn_premise(cctx: CompoundContext, x: int) -> tuple[int, bool]:
    """The a-part of a granule and whether some union of b-extents covers it.

    The a-part is every a-attribute whose extent contains the granule; a
    two-part description exists only when it is non-empty and the
    granule is covered.
    """
    return _intent(cctx.a_block, x), x & ~cctx.b_block.column_union == 0


def _cn_b_choice(b_block: FormalContext, unions: Iterable[int]) -> int:
    """The canonical b-part from covers of a granule that add equally few
    objects inside its a-extent: the least union by size, then by its
    membership string, object 0 first, and every b-attribute whose
    non-empty extent lies inside it.

    Of two unions of one size, the lesser membership string lacks the
    lowest object where they differ, so the order is read on the masks.
    """
    best, size = 0, b_block.n_objects + 1
    for y in unions:
        k = y.bit_count()
        if k < size or k == size and not y & (d := best ^ y) & -d:
            best, size = y, k
    return _necessity(b_block, best) & ~b_block.empty_columns


def _cn_b_part(cctx: CompoundContext, x: int, a_part: int) -> int:
    """The b-part of the canonical two-part intent of a covered granule.

    Let g be the a-extent.  Every union y of b-extents covering x has
    g & y ⊇ x, and the canonical union minimises |g & y| first.  Suppose
    the b-extents whose trace on g lies inside x (``c & g & ~x == 0``)
    cover x.  Then the optimum has g & y == x, every cover reaching it
    uses only those extents, and so does every smaller union inside it:
    the minimal covers from that restricted pool are exactly the
    candidates left for the rest of the key.  When they do not cover x,
    the search runs on all b-extents.
    """
    g = _extent(cctx.a_block, a_part)
    b_block = cctx.b_block
    b_cols = b_block.column_masks
    outside = g & ~x
    pool = [c for c in b_cols if not c & outside]
    unions = _kernel.minimal_cover_unions(pool, x) or _kernel.minimal_cover_unions(b_cols, x)
    inside = min((g & y).bit_count() for y in unions)
    least = [y for y in unions if (g & y).bit_count() == inside]
    return _cn_b_choice(b_block, least)


def cn_intent(cctx: CompoundContext, objects: Iterable[int]) -> CnIntent:
    """Canonical two-part intent of a non-empty granule.

    The a-part is the unique maximum: every a-attribute whose extent
    contains the granule.  Among all inclusion-minimal unions of b-extents
    covering the granule, the b-part keeps the union that adds fewest
    objects inside the a-part extent (ties: smaller union, then
    lexicographically least membership), and then takes every b-attribute
    whose non-empty extent fits inside that union.
    """
    _require_flavor(cctx, Flavor.COMMON_NECESSARY, "cn_intent")
    x = object_mask(cctx, objects)
    if x == 0:
        raise ValueError("cn_intent needs a non-empty granule")
    a_part, covered = _cn_premise(cctx, x)
    if not covered:
        return CnIntent(set_of(a_part), frozenset(), no_b_cover=True)
    return CnIntent(set_of(a_part), set_of(_cn_b_part(cctx, x, a_part)))
