"""Concept enumeration and the order structure on concepts.

Four concept systems share one canonical presentation: a concept is an
(extent, intent) pair, listed by extent size descending and then
lexicographically.  Formal, object-oriented and three-way families are
complete lattices and come with cover edges; the common-and-necessary
family is a plain list of fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from collections.abc import Sequence

from granudesc import _kernel
from granudesc._bits import is_subset, mask_of, set_of
from granudesc.context import CompoundContext, Flavor, FormalContext
from granudesc.derivation import CnIntent, _require_flavor, cn_intent, intent, extent
from granudesc.errors import SizeGuardExceeded

MAX_ENUMERATION_ATTRIBUTES = 30
MAX_CN_OBJECTS = 20


class System(Enum):
    FORMAL = "formal"
    OBJECT_ORIENTED = "object_oriented"
    THREE_WAY = "three_way"
    COMMON_NECESSARY = "common_necessary"


@dataclass(frozen=True)
class Concept:
    """An (extent, intent) pair tied to the context it was computed over."""

    extent: frozenset[int]
    intent: frozenset[int] | CnIntent
    system: System
    context: FormalContext | CompoundContext

    def sort_key(self) -> tuple:
        return (-len(self.extent), tuple(sorted(self.extent)))


@dataclass(frozen=True)
class ConceptLattice:
    """Canonically ordered concepts plus the cover edges of their order."""

    concepts: tuple[Concept, ...]
    covers: tuple[tuple[int, int], ...]  # (upper index, lower index)
    system: System

    @property
    def top(self) -> Concept:
        return self.concepts[0]

    @property
    def bottom(self) -> Concept:
        return self.concepts[-1]


def _guard_attributes(count: int, force: bool) -> None:
    if count > MAX_ENUMERATION_ATTRIBUTES and not force:
        raise SizeGuardExceeded(
            f"enumeration over {count} attributes exceeds the guard of "
            f"{MAX_ENUMERATION_ATTRIBUTES}; pass force/--force to run anyway"
        )


def _canonical(concepts: list[Concept]) -> tuple[Concept, ...]:
    return tuple(sorted(concepts, key=Concept.sort_key))


def _cover_edges(concepts: Sequence[Concept]) -> tuple[tuple[int, int], ...]:
    masks = [mask_of(c.extent) for c in concepts]
    edges = []
    for child in range(len(concepts)):
        parents = [
            p
            for p in range(len(concepts))
            if masks[p] != masks[child] and is_subset(masks[child], masks[p])
        ]
        minimal = [
            p
            for p in parents
            if not any(
                q != p and is_subset(masks[q], masks[p]) for q in parents
            )
        ]
        edges.extend((p, child) for p in minimal)
    return tuple(sorted(edges))


def _lattice_from_pairs(
    pairs: list[tuple[int, int]],
    ctx: FormalContext | CompoundContext,
    system: System,
    map_extent=lambda m: m,
) -> ConceptLattice:
    concepts = [
        Concept(set_of(map_extent(ext)), set_of(att), system, ctx)
        for ext, att in pairs
    ]
    ordered = _canonical(concepts)
    return ConceptLattice(ordered, _cover_edges(ordered), system)


def enumerate_formal(ctx: FormalContext, force: bool = False) -> ConceptLattice:
    """All maximal object/attribute rectangles of the table."""
    _require_flavor(ctx, None, "enumerate_formal")
    _guard_attributes(ctx.n_attributes, force)
    pairs = _kernel.formal_concepts(ctx.column_masks, ctx.n_objects)
    return _lattice_from_pairs(pairs, ctx, System.FORMAL)


def enumerate_object_oriented(ctx: FormalContext, force: bool = False) -> ConceptLattice:
    """All pairs where the extent is the union of its intent's extents and
    the intent collects every attribute extent inside the granule."""
    _require_flavor(ctx, None, "enumerate_object_oriented")
    _guard_attributes(ctx.n_attributes, force)
    full = ctx.full_object_mask
    comp = [full & ~c for c in ctx.column_masks]
    pairs = _kernel.formal_concepts(comp, ctx.n_objects)
    return _lattice_from_pairs(
        pairs, ctx, System.OBJECT_ORIENTED, map_extent=lambda m: full & ~m
    )


def enumerate_three_way(cctx: CompoundContext, force: bool = False) -> ConceptLattice:
    """Formal concepts over the flattened attribute-and-complement table."""
    _require_flavor(cctx, Flavor.THREE_WAY, "enumerate_three_way")
    flat = cctx.flattened
    _guard_attributes(flat.n_attributes, force)
    pairs = _kernel.formal_concepts(flat.column_masks, flat.n_objects)
    return _lattice_from_pairs(pairs, cctx, System.THREE_WAY)


def enumerate_cn(cctx: CompoundContext, force: bool = False) -> list[Concept]:
    """All fixed points of the two-part derivation pair.

    Scans the non-empty granules; a granule qualifies when some union of
    b-extents covers it without touching the a-part closure outside it.
    No order structure is claimed for this family.
    """
    _require_flavor(cctx, Flavor.COMMON_NECESSARY, "enumerate_cn")
    n = cctx.n_objects
    if n > MAX_CN_OBJECTS and not force:
        raise SizeGuardExceeded(
            f"fixed-point scan over {n} objects exceeds the guard of "
            f"{MAX_CN_OBJECTS}; pass force/--force to run anyway"
        )
    a_cols = cctx.a_block.column_masks
    b_cols = [c for c in cctx.b_block.column_masks if c]
    full = cctx.a_block.full_object_mask
    found = []
    for x in range(1, full + 1):
        g = full
        for col in a_cols:
            if is_subset(x, col):
                g &= col
        outside = g & ~x
        y = 0
        for col in b_cols:
            if col & outside == 0:
                y |= col
        if is_subset(x, y):
            found.append(x)
    concepts = [
        Concept(set_of(x), cn_intent(cctx, set_of(x)), System.COMMON_NECESSARY, cctx)
        for x in found
    ]
    return list(_canonical(concepts))


# ---------------------------------------------------------------------------
# order operations (formal system only)
# ---------------------------------------------------------------------------


def _require_formal_pair(c1: Concept, c2: Concept, op: str) -> FormalContext:
    if c1.system is not System.FORMAL or c2.system is not System.FORMAL:
        raise ValueError(f"{op} is defined for formal concepts only")
    if c1.context != c2.context:
        raise ValueError(f"{op} needs concepts from the same context")
    return c1.context


def concept_leq(c1: Concept, c2: Concept) -> bool:
    """Sub-concept order: extent inclusion (equivalently intent containment)."""
    _require_formal_pair(c1, c2, "concept_leq")
    return c1.extent <= c2.extent


def concept_meet(c1: Concept, c2: Concept) -> Concept:
    """Largest concept below both: intersect extents, re-derive the intent."""
    ctx = _require_formal_pair(c1, c2, "concept_meet")
    ext = c1.extent & c2.extent
    return Concept(ext, intent(ctx, ext), System.FORMAL, ctx)


def concept_join(c1: Concept, c2: Concept) -> Concept:
    """Smallest concept above both: intersect intents, re-derive the extent."""
    ctx = _require_formal_pair(c1, c2, "concept_join")
    att = c1.intent & c2.intent
    return Concept(extent(ctx, att), att, System.FORMAL, ctx)


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------


def _object_names(concept: Concept) -> list[str]:
    names = concept.context.objects
    return [names[i] for i in sorted(concept.extent)]


def intent_names(concept: Concept) -> list[str]:
    """Attribute names of the intent; flat a-then-b for two-part intents."""
    ctx, idx = concept.context, concept.intent
    if isinstance(ctx, FormalContext):
        return [ctx.attributes[j] for j in sorted(idx)]
    if isinstance(idx, CnIntent):  # b-part indices follow the a-block when flattened
        n = len(ctx.a_attributes)
        idx = idx.a_part | {n + j for j in idx.b_part}
    flat = ctx.a_attributes + ctx.b_attributes
    return [flat[j] for j in sorted(idx)]


def _braced(names: list[str], ascii_ops: bool) -> str:
    if not names:
        return "{}" if ascii_ops else "∅"
    return "{" + ",".join(names) + "}"


def concept_label(concept: Concept, ascii_ops: bool = False) -> str:
    return (
        _braced(_object_names(concept), ascii_ops)
        + " | "
        + _braced(intent_names(concept), ascii_ops)
    )


def concepts_to_text(concepts: Sequence[Concept], ascii_ops: bool = False) -> str:
    lines = []
    for k, c in enumerate(concepts):
        ext = _braced(_object_names(c), ascii_ops)
        att = _braced(intent_names(c), ascii_ops)
        lines.append(f"C{k} = ({ext}, {att})")
    return "\n".join(lines) + "\n"


def concept_json_obj(concept: Concept) -> dict:
    return {
        "extent": [i + 1 for i in sorted(concept.extent)],
        "intent": intent_names(concept),
        "system": concept.system.value,
    }


def lattice_to_dot(lat: ConceptLattice, ascii_ops: bool = False) -> str:
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph concepts {", "  rankdir=TB;"]
    lines.append("  { rank=source; c0; }")
    for k, c in enumerate(lat.concepts):
        lines.append(f"  c{k} [label={quote(concept_label(c, ascii_ops))}];")
    for upper, lower in lat.covers:
        lines.append(f"  c{upper} -> c{lower};")
    lines.append("}")
    return "\n".join(lines) + "\n"
