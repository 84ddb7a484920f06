"""Concept enumeration and the order structure on concepts.

Four concept systems share one canonical presentation: a concept is an
(extent, intent) pair, listed as the kernel lists extents: by size
descending, then lexicographically.  The formal, three-way and
object-oriented families are complete lattices with cover edges, the
last being the formal concepts of the complemented columns flipped back;
the common-and-necessary family is a plain list of fixed points.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from collections.abc import Sequence

from granudesc import _kernel
from granudesc._bits import bit_tuple, concept_order
from granudesc.context import CompoundContext, Flavor, FormalContext, _Record, _once
from granudesc.definability import _RULES, Mode
from granudesc.derivation import (
    CnIntent,
    _cn_b_choice,
    _require_flavor,
    extent,
    intent,
)
from granudesc.errors import SizeGuardExceeded

MAX_ENUMERATION_ATTRIBUTES = 30
MAX_CN_OBJECTS = 20


class System(Enum):
    FORMAL = "formal"
    OBJECT_ORIENTED = "object_oriented"
    THREE_WAY = "three_way"
    COMMON_NECESSARY = "common_necessary"


class Concept(_Record):
    """An (extent, intent) pair tied to the context it was computed over.

    The sorted extent and intent and the object and intent names are
    computed once, on first use, and shared by the sort key and the three
    renderers.  A listed concept holds only its sorted extent and intent,
    read off the masks' bits, with its system and context; its ``extent``
    and ``intent`` sets are built from them on first read, as equality,
    hash, repr and clones (through the constructor) read them.
    """

    extent: frozenset[int]
    intent: frozenset[int] | CnIntent
    system: System
    context: FormalContext | CompoundContext

    def sort_key(self) -> tuple:
        return (-len(self._sorted_extent), self._sorted_extent)

    @_once
    def extent(self) -> frozenset[int]:
        return frozenset(self._sorted_extent)

    @_once
    def intent(self) -> frozenset[int] | CnIntent:
        flat = self._sorted_intent
        if self.system is not System.COMMON_NECESSARY:
            return frozenset(flat)
        n = len(self.context.a_attributes)  # the b-part follows the a-part
        k = bisect_left(flat, n)
        return CnIntent(frozenset(flat[:k]), frozenset([j - n for j in flat[k:]]))

    @_once
    def _sorted_extent(self) -> tuple[int, ...]:
        return tuple(sorted(self.extent))

    @_once
    def _object_names(self) -> list[str]:
        names = self.context.objects
        return [names[i] for i in self._sorted_extent]

    @_once
    def _sorted_intent(self) -> tuple[int, ...]:
        idx = self.intent
        if isinstance(idx, CnIntent):  # b-part indices follow the a-block when flattened
            idx = idx.a_part | {len(self.context.a_attributes) + j for j in idx.b_part}
        return tuple(sorted(idx))

    @_once
    def _intent_names(self) -> list[str]:
        ctx = self.context
        if isinstance(ctx, FormalContext):
            names = ctx.attributes
        else:
            names = ctx.a_attributes + ctx.b_attributes
        return [names[j] for j in self._sorted_intent]


class ConceptLattice(_Record):
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


def _concept(
    ext: int, att: int, system: System, ctx: FormalContext | CompoundContext
) -> Concept:
    """The listed concept of an extent mask and a flat intent mask, b-part
    bits after the a-block: one read of each mask's bits gives its sorted
    tuple, and the sets wait for their first reader."""
    c = Concept.__new__(Concept)
    d = c.__dict__
    d["_sorted_extent"], d["_sorted_intent"] = bit_tuple(ext), bit_tuple(att)
    d["system"], d["context"] = system, ctx
    return c


def _guard(what: str, count: int, unit: str, limit: int, force: bool) -> None:
    if count > limit and not force:
        raise SizeGuardExceeded(
            f"{what} over {count} {unit} exceeds the guard of "
            f"{limit}; pass force/--force to run anyway"
        )


def _lower_neighbours(
    pairs: Sequence[tuple[int, int]], cols: Sequence[int]
) -> list[tuple[int, int]]:
    """Cover edges (upper index, lower index) between kernel concepts.

    Lindig's neighbour step on the attribute side: below (A, B), ``mins``
    starts as the attributes outside B, and each attribute j of it, in
    ascending order, gives the concept ``low`` of A & cols[j].  When the
    intent of ``low`` holds another attribute of ``mins``, j leaves
    ``mins``: ``low`` is no lower neighbour, or one that a later attribute
    of its intent gives again.  Otherwise ``low`` is a lower neighbour, so
    each comes once, from the last attribute its intent adds.
    """
    index = {ext: k for k, (ext, _) in enumerate(pairs)}
    intents = [att for _, att in pairs]
    col_bits = [(col, 1 << j) for j, col in enumerate(cols)]
    edges = []
    for k, (ext, att) in enumerate(pairs):
        mins = ~att  # the attributes outside the intent
        for col, bit in col_bits:
            if mins & bit:
                low = index[ext & col]
                if (intents[low] & mins) == bit:
                    edges.append((k, low))
                else:
                    mins ^= bit
    return edges


def _lattice(
    mode: Mode, ctx: FormalContext | CompoundContext, force: bool, op: str
) -> ConceptLattice:
    """Canonical lattice of a mode's concept family: the formal concepts
    over the columns ``flip ^ c``, each extent ``e`` wrapped as ``flip ^ e``,
    ``flip`` being the objects outside the closure of no attribute (De
    Morgan: none in a conjunction, all in a disjunction).  Flipping reverses
    inclusion, and so the kernel's order and every cover edge.
    """
    rule = _RULES[mode]
    _require_flavor(ctx, rule.flavor, op)
    t = rule.table(ctx)
    flip = t.full_object_mask ^ rule.close(t, 0)
    cols = [flip ^ c for c in t.column_masks]
    _guard("enumeration", len(cols), "attributes", MAX_ENUMERATION_ATTRIBUTES, force)
    pairs = _kernel.formal_concepts(cols, t.n_objects)
    system = System(rule.family)
    concepts = [_concept(flip ^ e, a, system, ctx) for e, a in pairs]
    edges = _lower_neighbours(pairs, cols)
    if flip:
        last = len(pairs) - 1
        concepts.reverse()
        edges = [(last - low, last - up) for up, low in edges]
    return ConceptLattice(tuple(concepts), tuple(sorted(edges)), system)


def enumerate_formal(ctx: FormalContext, force: bool = False) -> ConceptLattice:
    """All maximal object/attribute rectangles of the table."""
    return _lattice(Mode.WEDGE, ctx, force, "enumerate_formal")


def enumerate_object_oriented(ctx: FormalContext, force: bool = False) -> ConceptLattice:
    """All pairs where the extent is the union of its intent's extents and
    the intent collects every attribute extent inside the granule."""
    return _lattice(Mode.VEE, ctx, force, "enumerate_object_oriented")


def enumerate_three_way(cctx: CompoundContext, force: bool = False) -> ConceptLattice:
    """Formal concepts over the flattened attribute-and-complement table."""
    return _lattice(Mode.THREE_WAY, cctx, force, "enumerate_three_way")


def enumerate_cn(cctx: CompoundContext, force: bool = False) -> list[Concept]:
    """All fixed points of the two-part derivation pair, with their
    canonical intents, from one sweep of b-unions per a-extent.

    A fixed point's a-part is the intent of an a-block concept extent g,
    and its b-part names a union y of b-extents, so its extent is the
    objects in both, ``x = y & g``.  For each g the sweep builds the set
    of unions of the b-columns that meet g and reads off every non-empty
    x.  Such an x is a union of traces of g, a fixed point whose
    a-closure lies inside g; it is listed from g only when its a-intent
    is g's, so each comes once, from its own closure.  The unions with
    ``y & g == x`` are the covers of x by the b-extents whose trace on g
    lies inside x (extents missing g only make a cover larger).  The
    smallest is inclusion-minimal, so the least by size and then
    membership string is the union the cover search of ``cn_intent``
    keeps, and the b-part is read from it without a search.  No order
    structure is claimed for this family.
    """
    _require_flavor(cctx, Flavor.COMMON_NECESSARY, "enumerate_cn")
    n = cctx.n_objects
    _guard("cn enumeration", n, "objects", MAX_CN_OBJECTS, force)
    a_block, b_block = cctx.a_block, cctx.b_block
    a_cols, b_cols = a_block.column_masks, b_block.column_masks
    found: dict[int, int] = {}  # extent -> flat intent, b-part after a-part
    for g, att in _kernel.formal_concepts(a_cols, n):
        unions = {0}
        for col in b_cols:
            if col & g:
                unions |= {u | col for u in unions}
        covers: dict[int, list[int]] = {}
        for y in unions:
            covers.setdefault(y & g, []).append(y)
        del covers[0]
        # x has g's a-intent when no a-column outside that intent holds it
        outside = [c for j, c in enumerate(a_cols) if not att >> j & 1]
        for x, ys in covers.items():
            for c in outside:
                if x & ~c == 0:
                    break
            else:
                found[x] = att | _cn_b_choice(b_block, ys) << len(a_cols)
    cn = System.COMMON_NECESSARY
    return [_concept(x, found[x], cn, cctx) for x in concept_order(found, n)]


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


def intent_names(concept: Concept) -> list[str]:
    """Attribute names of the intent; flat a-then-b for two-part intents."""
    return list(concept._intent_names)


def _braced(names: list[str], ascii_ops: bool) -> str:
    if not names:
        return "{}" if ascii_ops else "∅"
    return "{" + ",".join(names) + "}"


def concept_label(concept: Concept, ascii_ops: bool = False) -> str:
    return (
        _braced(concept._object_names, ascii_ops)
        + " | "
        + _braced(concept._intent_names, ascii_ops)
    )


def concepts_to_text(concepts: Sequence[Concept], ascii_ops: bool = False) -> str:
    lines = []
    for k, c in enumerate(concepts):
        ext = _braced(c._object_names, ascii_ops)
        att = _braced(c._intent_names, ascii_ops)
        lines.append(f"C{k} = ({ext}, {att})\n")
    return "".join(lines)


def concept_json_obj(concept: Concept) -> dict:
    return {
        "extent": [i + 1 for i in concept._sorted_extent],
        "intent": list(concept._intent_names),
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
