"""Bitset kernels.

The two inner loops the package spends its time in: closure enumeration
and the search for minimal covers, as unions or as transversals.  Masks
are plain Python integers, so any context size works.
"""

from __future__ import annotations

from collections.abc import Sequence

from granudesc._bits import bits, concept_order


def backend_name() -> str:
    """The kernel in use; the package ships only the portable one."""
    return "pure"


def formal_concepts(cols: Sequence[int], n_objects: int) -> list[tuple[int, int]]:
    """All (extent mask, intent mask) pairs of the relation given by columns.

    ``cols[j]`` is the object mask of attribute j.  Every extent is the
    intersection of the columns of its intent (all objects for the empty
    intent), and every such intersection is an extent, so meeting each
    column in turn with the extents found so far yields exactly the
    extents, each once.  The same pass collects each extent's intent:
    meeting column j with extent e adds e's intent so far and j to the
    intent of ``f = e & cols[j]``.  An earlier column k holding f is in
    that intent too, as ``e & cols[k]`` was found before column j and
    meets it in f with k in its intent.  The pairs come in concept order
    (``_bits.concept_order``), so the top concept comes first and the
    bottom last.
    """
    found = {(1 << n_objects) - 1: 0}  # extent -> its intent so far
    get = found.get
    for j, c in enumerate(cols):
        bit = 1 << j
        for e, a in list(found.items()):
            f = e & c
            found[f] = get(f, 0) | a | bit
    return [(e, found[e]) for e in concept_order(found, n_objects)]


def minimal_cover_unions(cands: Sequence[int], target: int, strict: bool = False) -> list[int]:
    """Masks of all inclusion-minimal unions of candidates covering target.

    A union qualifies when it contains ``target``; with ``strict`` it must
    contain it properly.  Result is duplicate-free, sorted by (popcount,
    mask value).  Empty candidates never change a union and are ignored.

    The candidates inside ``target`` are ORed first into ``free``.  Each
    lies inside every union that holds the target, so every minimal union
    is ``target | u`` for a minimal union ``u`` of the candidates meeting
    ``rest = target & ~free`` that covers ``rest``: only those candidates
    enter the search, and a target they leave nothing of is its own cover
    (the search over an empty ``rest`` has the one leaf 0).

    With ``strict``, when ``free`` is ``target``, the target is itself a
    union, and every union properly above it holds some candidate ``c``
    reaching outside it and so contains the union ``target | c``: the
    one-step unions are the only ones the antichain has to compare, and
    no search runs.  Otherwise no union equals ``target``, so the minimal
    covers of the plain search already contain it properly.  Candidates
    disjoint from ``target`` never join a minimal cover, but they stay in
    the strict step: a step by one of them can be a minimal strict union.
    """
    pool = [c for c in cands if c]
    free = 0
    for c in pool:
        if c & ~target == 0:
            free |= c
    if strict and free == target:
        return _minimal_antichain([target | c for c in pool if c & ~target])
    rest = target & ~free
    leaves = _covering_unions([c for c in pool if c & rest], rest)
    return _minimal_antichain([u | target for u in leaves])


def minimal_transversals(pool: Sequence[int], target: int) -> list[int]:
    """Inclusion-minimal sets of pool indices whose members' union holds
    target, as index masks, by size and then lexicographically; for the
    empty target, every single index.

    Each is a leaf of the cover search, as its first cover of each branch
    object is a branch.  Every candidate carries its index bit above the
    target, so a leaf's union names its members.  The search covers one
    object per distinct set of covers.
    """
    if not target:
        return [1 << i for i in range(len(pool))]
    w = target.bit_length()
    blocks = [target]
    for c in pool:
        blocks = [p for b in blocks for p in (b & c, b & ~c) if p]
    tagged = [c & target | 1 << w + i for i, c in enumerate(pool)]
    found = [u >> w for u in _covering_unions(tagged, sum(b & -b for b in blocks))]
    return sorted(_minimal_antichain(found), key=lambda m: (m.bit_count(), tuple(bits(m))))


def _covering_unions(pool: list[int], target: int) -> set[int]:
    """All candidate unions containing target that no branch can shrink,
    each once (the one union 0 for the empty target).

    Sets of candidates are masks over pool indices: ``by_obj[o]`` holds
    the indices of the candidates covering target object ``o`` (keyed by
    the object's bit), and a node's ``avail`` the indices it may still
    add.  The search branches on the first uncovered object with at
    most one available cover, or else on the first with the fewest, and
    a branch sets aside only the covers of that object tried before it.
    An uncovered object whose covers all lay among those would have had
    fewer covers, so no object loses its last cover.  An object with
    none ends its node, or the chain of one-cover branches the node
    starts when the scan stops short of it, since no branch can cover
    it.  A branch's union is tested where it is made: one that covers
    the target is a leaf and goes into the set, and only a node that
    still branches becomes a ``(union, avail)`` frame on the stack.  The
    nodes are frames, not calls, so no depth limit caps the number of
    candidates.
    """
    if not target:
        return {0}
    by_obj: dict[int, int] = {}
    for i, c in enumerate(pool):
        m = c & target
        while m:
            low = m & -m
            by_obj[low] = by_obj.get(low, 0) | 1 << i
            m ^= low
    found: set[int] = set()
    stack = [(0, (1 << len(pool)) - 1)]
    while stack:
        pu, avail = stack.pop()
        rem = target & ~pu
        fewest = len(pool) + 1
        while rem:
            low = rem & -rem
            covers = by_obj.get(low, 0) & avail
            n = covers.bit_count()
            if n < fewest:
                fewest, best = n, covers
                if n < 2:
                    break
            rem ^= low
        rest = avail & ~best
        while best:
            low = best & -best
            # skipping earlier covers of the same object avoids revisits
            best ^= low
            u = pu | pool[low.bit_length() - 1]
            if target & ~u:
                stack.append((u, best | rest))
            else:
                found.add(u)
    return found


def _minimal_antichain(masks: list[int]) -> list[int]:
    """Inclusion-minimal masks, duplicate-free, by (popcount, mask value)."""
    order = sorted(set(masks))
    order.sort(key=int.bit_count)  # stable: equal popcounts stay by value
    kept: list[int] = []
    for m in order:
        for k in kept:
            if k & ~m == 0:
                break
        else:
            kept.append(m)
    return kept
