"""Brute-force reference computations backing the test suite.

Everything here is rebuilt by exhaustive enumeration straight from a raw
incidence matrix (tuples of bool rows) and deliberately avoids the
library's own closure and search code, so library results can be checked
against an independent witness.  Next to them sit the algorithms the
library replaced, kept as references for their replacements:
``formal_concepts_next_closure`` (lectic-successor closure enumeration),
``covering_unions_lists`` (the cover search on candidate lists),
``strict_covers_per_object`` (one plain cover search per object outside
the target), ``cn_b_part_full_pool`` (the canonical cn b-part searched
over every b-extent), ``vee_verdict_via_complement`` (disjunctive
definability decided on the complemented table),
``minimal_subsets_scan`` and ``cn_minimal_scan`` (minimal descriptions
found by trying every subset of the search base; ``minimal_descriptions_scan``
builds their descriptions), ``FRESH_BUILDERS``
(the description builders making new atoms on every call and passing
them through the validating constructors) and
``parse_description_scanner`` (the token scanner the one-pass
description reader replaced).  Sizes are desk scale;
nothing here is meant to be fast.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from itertools import combinations

from granudesc import (
    Atom,
    Block,
    CompoundContext,
    Conj,
    ConjDisj,
    Description,
    Disj,
    Flavor,
    FormalContext,
    GranuleDescError,
    Reason,
    Status,
    Verdict,
    conj_disj,
    conj_of,
    disj_of,
    evaluate,
    three_way_conj,
)
from granudesc._bits import bits, mask_of, member_vector


def column_extents(
    incidence: tuple[tuple[bool, ...], ...], width: int | None = None
) -> list[frozenset[int]]:
    """Extent of each attribute column, as object index sets.

    ``width`` is the column count; it defaults to the length of the first
    row, so a matrix without rows needs it passed in.
    """
    if width is None:
        width = len(incidence[0]) if incidence else 0
    return [
        frozenset(i for i, row in enumerate(incidence) if row[j])
        for j in range(width)
    ]


def doubled_columns(incidence: tuple[tuple[bool, ...], ...]) -> list[frozenset[int]]:
    """Original columns followed by their complements (negated attributes)."""
    universe = frozenset(range(len(incidence)))
    cols = column_extents(incidence)
    return cols + [universe - c for c in cols]


def conj_family(
    columns: list[frozenset[int]], n_objects: int
) -> set[frozenset[int]]:
    """All intersections of nonempty column subsets."""
    universe = frozenset(range(n_objects))
    out: set[frozenset[int]] = set()
    for r in range(1, len(columns) + 1):
        for chosen in combinations(columns, r):
            out.add(universe.intersection(*chosen))
    return out


def disj_family(columns: list[frozenset[int]]) -> set[frozenset[int]]:
    """All unions of nonempty column subsets."""
    out: set[frozenset[int]] = set()
    for r in range(1, len(columns) + 1):
        for chosen in combinations(columns, r):
            out.add(frozenset().union(*chosen))
    return out


def cn_family(
    a_columns: list[frozenset[int]],
    b_columns: list[frozenset[int]],
    n_objects: int,
) -> set[frozenset[int]]:
    """All sets extent(C) ∩ union(D) over nonempty C and nonempty D."""
    conjs = conj_family(a_columns, n_objects)
    disjs = disj_family(b_columns)
    return {c & d for c in conjs for d in disjs}


def cn_fixed_points(
    a_columns: list[frozenset[int]],
    b_columns: list[frozenset[int]],
    n_objects: int,
) -> set[frozenset[int]]:
    """Nonempty sets extent(C) ∩ union(D) where C may also be empty.

    This is the wider family behind the fixed-point enumeration; the
    definability check additionally demands a nonempty common part.
    """
    universe = frozenset(range(n_objects))
    conjs = conj_family(a_columns, n_objects) | {universe}
    disjs = disj_family(b_columns)
    return {c & d for c in conjs for d in disjs} - {frozenset()}


def cn_fixed_points_scan(
    a_columns: list[frozenset[int]],
    b_columns: list[frozenset[int]],
    n_objects: int,
) -> set[frozenset[int]]:
    """Nonempty granules that some b-extents cover without touching the
    rest of the granule's a-closure, found by scanning every granule.

    The a-closure is the intersection of the a-columns containing the
    granule (every object when none does).
    """
    universe = frozenset(range(n_objects))
    found = set()
    for r in range(1, n_objects + 1):
        for chosen in combinations(range(n_objects), r):
            x = frozenset(chosen)
            g = universe.intersection(*(c for c in a_columns if x <= c))
            outside = g - x
            reach = frozenset().union(*(c for c in b_columns if not c & outside))
            if x <= reach:
                found.add(x)
    return found


def formal_concepts_bruteforce(
    incidence: tuple[tuple[bool, ...], ...], width: int | None = None
) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All (extent, intent) pairs, deduplicated over every attribute subset.

    ``width`` is the column count, as for ``column_extents``.
    """
    n = len(incidence)
    universe = frozenset(range(n))
    cols = column_extents(incidence, width)
    width = len(cols)
    out = set()
    for r in range(width + 1):
        for chosen in combinations(range(width), r):
            ext = universe.intersection(*(cols[j] for j in chosen)) if chosen else universe
            intent = frozenset(j for j in range(width) if ext <= cols[j])
            # re-derive the extent from the intent so only closed pairs remain
            closed_ext = universe.intersection(*(cols[j] for j in intent)) if intent else universe
            if closed_ext == ext:
                out.add((ext, intent))
    return out


def formal_concepts_next_closure(
    cols: Sequence[int], n_objects: int
) -> list[tuple[int, int]]:
    """All (extent mask, intent mask) pairs by Ganter's NextClosure.

    Closed attribute sets are visited in lectic order, attribute 0 most
    significant, which reaches every closure exactly once.
    """
    n = len(cols)
    full_ext = (1 << n_objects) - 1
    if n == 0:
        return [(full_ext, 0)]
    full_int = (1 << n) - 1

    def extent_of(attrs: int) -> int:
        e = full_ext
        a = attrs
        while a:
            low = a & -a
            e &= cols[low.bit_length() - 1]
            a ^= low
        return e

    def intent_of(ext: int) -> int:
        m = 0
        for j in range(n):
            if ext & ~cols[j] == 0:
                m |= 1 << j
        return m

    out: list[tuple[int, int]] = []
    cur = intent_of(full_ext)
    out.append((full_ext, cur))
    while cur != full_int:
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if cur & bit:
                cur &= ~bit
            else:
                ext = extent_of(cur | bit)
                nxt = intent_of(ext)
                # lectic successor test: no attribute below i may be new
                if (nxt & ~cur) & (bit - 1) == 0:
                    out.append((ext, nxt))
                    cur = nxt
                    break
        else:  # pragma: no cover - the full attribute set is always closed
            raise RuntimeError("closure enumeration failed to advance")
    return out


def cover_edges_bruteforce(
    extents: list[frozenset[int]],
) -> tuple[tuple[int, int], ...]:
    """Hasse diagram of a list of extents under inclusion, pair by pair.

    Returns sorted (upper index, lower index) pairs where the lower extent
    lies strictly inside the upper one and no listed extent lies strictly
    between them.
    """
    edges = []
    for low, e in enumerate(extents):
        above = [up for up, f in enumerate(extents) if e < f]
        for up in above:
            if not any(e < extents[mid] < extents[up] for mid in above):
                edges.append((up, low))
    return tuple(sorted(edges))


def maximal_strict_subsets(
    family: set[frozenset[int]], within: frozenset[int]
) -> set[frozenset[int]]:
    """Inclusion-maximal family members strictly contained in ``within``."""
    inside = [m for m in family if m < within]
    return {m for m in inside if not any(m < other for other in inside)}


def minimal_supersets(
    family: set[frozenset[int]], containing: frozenset[int]
) -> set[frozenset[int]]:
    """Inclusion-minimal family members containing ``containing``."""
    outside = [m for m in family if m >= containing]
    return {m for m in outside if not any(other < m for other in outside)}


def minimal_cover_entries(
    candidates: list[tuple[int, frozenset[int]]],
    target: frozenset[int],
    strict: bool = False,
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Exhaustive minimal-cover search over all candidate subsets.

    Returns (id set, union) pairs where the union is inclusion-minimal
    among achievable unions covering the target (strictly containing it
    when ``strict``), and the id set is the largest one producing that
    union.  Mirrors the library's canonical ordering.
    """
    unions: set[frozenset[int]] = set()
    ids = [i for i, _ in candidates]
    for r in range(len(candidates) + 1):
        for chosen in combinations(candidates, r):
            u = frozenset().union(*(ext for _, ext in chosen)) if chosen else frozenset()
            if (u > target) if strict else (u >= target):
                unions.add(u)
    minimal = {u for u in unions if not any(v < u for v in unions)}
    entries = []
    for u in minimal:
        id_set = frozenset(i for i, ext in candidates if ext and ext <= u)
        entries.append((id_set, u))
    entries.sort(key=lambda e: (len(e[1]), tuple(sorted(e[1]))))
    return entries


def covering_unions_lists(pool: list[int], target: int) -> list[int]:
    """All candidate unions containing target that no branch can shrink.

    The list-based search the kernel's index-bitset search replaced.  It
    branches on the uncovered object with the fewest covers, and a branch
    sets aside only the covers of that object tried before it, so every
    inclusion-minimal cover is among the leaves (with non-minimal ones).
    """
    found: list[int] = []

    def rec(pu: int, avail: list[int]) -> None:
        rem = target & ~pu
        if rem == 0:
            found.append(pu)
            return
        u = min(bits(rem), key=lambda v: sum(c >> v & 1 for c in avail))
        covers = [c for c in avail if c >> u & 1]
        rest = [c for c in avail if not c >> u & 1]
        for pos, c in enumerate(covers):
            rec(pu | c, covers[pos + 1:] + rest)

    rec(0, pool)
    return found


def minimal_masks(masks: list[int]) -> list[int]:
    """Inclusion-minimal masks, duplicate-free, by (popcount, mask value)."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def strict_covers_per_object(cands: list[int], target: int) -> list[int]:
    """Minimal unions properly containing target, one search per outside object.

    For every object that some candidate holds outside the target, the
    list-based search covers the target plus that object; the antichain
    of all those unions is the strict answer.
    """
    pool = [c for c in cands if c]
    total = 0
    for c in pool:
        total |= c
    found: list[int] = []
    extra = total & ~target
    while extra:
        low = extra & -extra
        found.extend(covering_unions_lists(pool, target | low))
        extra ^= low
    return minimal_masks(found)


def cn_b_part_full_pool(cctx: CompoundContext, x: int, a_part: int) -> int:
    """The b-part of the canonical two-part intent of a covered granule.

    The rule the trace-restricted pool replaced: the search runs over
    every b-extent, and among the minimal covers of x it keeps the union
    y with the fewest objects in the a-extent g, then the smaller, then
    the least ``member_vector``; the b-part is every b-attribute whose
    non-empty extent lies inside y.  Masks in, mask out.
    """
    n = cctx.n_objects
    g = (1 << n) - 1
    for j in bits(a_part):
        g &= cctx.a_block.column_masks[j]
    b_cols = cctx.b_block.column_masks
    best = min(
        minimal_masks(covering_unions_lists([c for c in b_cols if c], x)),
        key=lambda y: ((g & y).bit_count(), y.bit_count(), member_vector(y, n)),
    )
    return sum(1 << j for j, c in enumerate(b_cols) if c and c & ~best == 0)


def minimal_subsets_scan(base: list[int], keeps: Callable[[int], bool]) -> list[int]:
    """Inclusion-minimal non-empty subsets of base satisfying the predicate,
    as masks, by size and then lexicographically.

    The scan the minimal-transversal search replaced in
    ``minimal_descriptions``: it tests up to 2^|base| subsets.
    """
    hits: list[int] = []
    for size in range(1, len(base) + 1):
        for combo in combinations(base, size):
            s = mask_of(combo)
            if any(h & ~s == 0 for h in hits):
                continue
            if keeps(s):
                hits.append(s)
    return hits


def _meet(cols: Sequence[int], full: int, s: int) -> int:
    for j in bits(s):
        full &= cols[j]
    return full


def _join(cols: Sequence[int], s: int) -> int:
    u = 0
    for j in bits(s):
        u |= cols[j]
    return u


def cn_minimal_scan(cctx: CompoundContext, x: int) -> list[int]:
    """Minimal two-part descriptions as flattened masks (a-part in the low
    bits), by size, then a-part, then b-part: the scan over the a-intent
    joined with the whole b-block that the per-a-part search replaced."""
    n = len(cctx.a_attributes)
    low = (1 << n) - 1
    a_cols, b_cols = cctx.a_block.column_masks, cctx.b_block.column_masks
    full = (1 << cctx.n_objects) - 1
    b_attrs = range(n, n + len(cctx.b_attributes))
    a_intent = [j for j, c in enumerate(a_cols) if x & ~c == 0]
    base = a_intent + list(b_attrs)
    hits = minimal_subsets_scan(
        base,
        lambda s: s & low
        and s >> n
        and _meet(a_cols, full, s & low) & _join(b_cols, s >> n) == x,
    )
    return sorted(
        hits,
        key=lambda s: (s.bit_count(), tuple(bits(s & low)), tuple(bits(s >> n))),
    )


def minimal_descriptions_scan(
    ctx: FormalContext | CompoundContext, x: int, mode: str
) -> list[Description]:
    """What ``minimal_descriptions`` returned when it scanned subsets."""
    if mode == "cn":
        n = len(ctx.a_attributes)
        return [
            conj_disj(ctx, bits(s & ((1 << n) - 1)), bits(s >> n))
            for s in cn_minimal_scan(ctx, x)
        ]
    t = ctx.flattened if mode == "three_way" else ctx
    cols = t.column_masks
    full = (1 << t.n_objects) - 1
    if mode == "vee":
        base = [j for j, c in enumerate(cols) if c & ~x == 0]
        keeps = lambda s: _join(cols, s) == x
        build = disj_of
    else:
        base = [j for j, c in enumerate(cols) if x & ~c == 0]
        keeps = lambda s: _meet(cols, full, s) == x
        build = three_way_conj if mode == "three_way" else conj_of
    return [build(ctx, bits(s)) for s in minimal_subsets_scan(base, keeps)]


def vee_verdict_via_complement(ctx: FormalContext, x: frozenset[int]) -> Verdict:
    """Disjunctive definability decided on the complemented table.

    The granule is a union of attribute extents exactly when its
    complement is conjunctively closed over the complemented rows and
    columns: the attributes missing from every outside object describe
    it when the objects lacking all of them are exactly the outside ones.
    Gives the verdict ``is_vee_definable`` gives, description included.
    """
    universe = frozenset(range(ctx.n_objects))
    rest = universe - x
    comp_cols = [universe - c for c in column_extents(ctx.incidence)]
    shared = [j for j, c in enumerate(comp_cols) if rest <= c]
    if not shared:
        return Verdict(Status.INAPPLICABLE, reason=Reason.EMPTY_INTENT)
    closure = universe.intersection(*(comp_cols[j] for j in shared))
    if closure != rest:
        return Verdict(Status.INDEFINABLE, witness=universe - closure)
    d = disj_of(ctx, shared)
    if evaluate(ctx, d) != x:
        raise AssertionError(f"{d!r} does not describe {sorted(x)}")
    return Verdict(Status.DEFINABLE, description=d)


def _fresh_atoms(
    names: tuple[str, ...], attrs, block: Block = Block.A
) -> tuple[Atom, ...]:
    idx = sorted(set(attrs))
    for j in idx:
        if not 0 <= j < len(names):
            raise ValueError(f"attribute index {j} out of range")
    return tuple(Atom(block, j, names[j]) for j in idx)


def _fresh_three_way_conj(cctx: CompoundContext, flat_attrs) -> Conj:
    n = len(cctx.a_attributes)
    atoms = []
    for j in sorted(set(flat_attrs)):
        if not 0 <= j < 2 * n:
            raise ValueError(f"flattened attribute index {j} out of range")
        atoms.append(Atom(Block.A, j % n, cctx.a_attributes[j % n], negated=j >= n))
    return Conj(tuple(atoms))


# the builders as they were before they took their atoms from the
# context's rows, by the name of the builder they are the reference for
FRESH_BUILDERS = {
    "conj_of": lambda ctx, attrs: Conj(_fresh_atoms(ctx.attributes, attrs)),
    "disj_of": lambda ctx, attrs: Disj(_fresh_atoms(ctx.attributes, attrs)),
    "three_way_conj": _fresh_three_way_conj,
    "conj_disj": lambda cctx, a_attrs, b_attrs: ConjDisj(
        _fresh_atoms(cctx.a_attributes, a_attrs),
        _fresh_atoms(cctx.b_attributes, b_attrs, Block.B),
    ),
}


# the description parser as it was before the one-pass reader, names
# resolved from the public context fields into fresh atoms

# every non-space character starts some token, so scanning with findall
# loses nothing but whitespace
_TOKEN = re.compile(r"\s*(\(|\)|∧|∨|¬|&|\||!|[^\s()&|!∧∨¬]+)")


def _resolve(ctx: FormalContext | CompoundContext, name: str, negated: bool) -> Atom:
    plain = isinstance(ctx, FormalContext)
    if negated and (plain or ctx.flavor is not Flavor.THREE_WAY):
        raise GranuleDescError("negation needs a three-way compound")
    if plain:
        blocks = ((Block.A, ctx.attributes),)
    else:
        blocks = ((Block.A, ctx.a_attributes), (Block.B, ctx.b_attributes))
    for block, names in blocks:
        if name not in names:
            continue
        if negated and block is Block.B:
            raise GranuleDescError(f"cannot negate complement attribute {name!r}")
        return Atom(block, names.index(name), name, negated)
    raise GranuleDescError(f"unknown attribute {name!r}")


def _negation(tokens: list[str], i: int) -> tuple[int, bool]:
    """Skip an optional negation sign at tokens[i]: the next index, and
    whether there was one.  A run of signs is refused rather than read as
    one negation; ``render`` never writes one."""
    if tokens[i] not in ("¬", "!"):
        return i, False
    i += 1
    if i >= len(tokens):
        raise GranuleDescError("dangling negation")
    if tokens[i] in ("¬", "!"):
        raise GranuleDescError(
            f"repeated negation {tokens[i - 1] + tokens[i]!r}: "
            "an atom takes at most one negation sign"
        )
    return i, True


def parse_description_scanner(text: str, ctx: FormalContext | CompoundContext) -> Description:
    """Parse one connective level: atoms joined by all-and or all-or, with
    an optional single parenthesized disjunct inside a conjunction.  The
    token scanner ``parse_description`` replaced; whitespace ends a name
    here, so two names with only whitespace between them are refused."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise GranuleDescError("empty description")

    # items: ("atom", Atom) or ("group", [Atom, ...]); ops: "and"/"or"
    items: list[tuple[str, object]] = []
    ops: list[str] = []
    expecting_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if expecting_term:
            i, negated = _negation(tokens, i)
            tok = tokens[i]
            if tok == "(":
                depth_names: list[tuple[str, bool]] = []
                if negated:
                    raise GranuleDescError("cannot negate a group")
                i += 1
                expect_name = True
                while i < len(tokens) and tokens[i] != ")":
                    inner = tokens[i]
                    if expect_name:
                        i, neg = _negation(tokens, i)
                        inner = tokens[i]
                        if inner in ("(", ")", "∧", "∨", "&", "|"):
                            raise GranuleDescError(f"expected a name, got {inner!r}")
                        depth_names.append((inner, neg))
                    else:
                        if inner not in ("∨", "|"):
                            raise GranuleDescError(
                                "a parenthesized group must be a disjunction"
                            )
                    expect_name = not expect_name
                    i += 1
                if i >= len(tokens):
                    raise GranuleDescError("unclosed parenthesis")
                if expect_name or not depth_names:
                    raise GranuleDescError("malformed parenthesized group")
                items.append(("group", depth_names))
            elif tok in (")", "∧", "∨", "&", "|"):
                raise GranuleDescError(f"expected a name, got {tok!r}")
            else:
                items.append(("atom", (tok, negated)))
            expecting_term = False
        else:
            if tok in ("∧", "&"):
                ops.append("and")
            elif tok in ("∨", "|"):
                ops.append("or")
            else:
                raise GranuleDescError(f"expected a connective, got {tok!r}")
            expecting_term = True
        i += 1
    if expecting_term:
        raise GranuleDescError("description ends with a connective")
    if ops and len(set(ops)) > 1:
        raise GranuleDescError("mixing ∧ and ∨ needs parentheses")

    groups = [it for it in items if it[0] == "group"]
    plain = [it[1] for it in items if it[0] == "atom"]
    if groups:
        if len(groups) > 1:
            raise GranuleDescError("at most one parenthesized group is allowed")
        if not plain or (ops and ops[0] != "and"):
            raise GranuleDescError("a parenthesized disjunct must sit in a conjunction")
        conj_atoms = tuple(_resolve(ctx, n, neg) for n, neg in plain)
        disj_atoms = tuple(_resolve(ctx, n, neg) for n, neg in groups[0][1])
        if not isinstance(ctx, CompoundContext) or ctx.flavor is not Flavor.COMMON_NECESSARY:
            raise GranuleDescError(
                "a conjunction with a disjunct needs a common_necessary compound"
            )
        return ConjDisj(conj_atoms, disj_atoms)
    atoms = tuple(_resolve(ctx, n, neg) for n, neg in plain)
    if ops and ops[0] == "or":
        return Disj(atoms)
    return Conj(atoms)
