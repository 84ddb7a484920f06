"""Bitset kernels.

The two inner loops the package spends its time in: closure enumeration
and the search for minimal covers, as unions or as transversals.  Masks
are plain Python integers, so any context size works.
"""

from __future__ import annotations

from collections.abc import Sequence

from granudesc._bits import bits, member_vector


def backend_name() -> str:
    """The kernel in use; the package ships only the portable one."""
    return "pure"


def formal_concepts(cols: Sequence[int], n_objects: int) -> list[tuple[int, int]]:
    """All (extent mask, intent mask) pairs of the relation given by columns.

    ``cols[j]`` is the object mask of attribute j.  Every extent is the
    intersection of the columns of its intent (all objects for the empty
    intent), and every such intersection is an extent, so meeting each
    column in turn with the extents found so far yields exactly the
    extents, each once.  The pairs come in lectic order of their intents,
    attribute 0 most significant: sorted by ``member_vector(intent,
    len(cols))``.
    """
    exts = {(1 << n_objects) - 1}
    for c in cols:
        exts |= {e & c for e in exts}
    pairs = [(e, sum(1 << j for j, c in enumerate(cols) if e & c == e)) for e in exts]
    width = len(cols)
    return sorted(pairs, key=lambda p: member_vector(p[1], width))


def minimal_cover_unions(cands: Sequence[int], target: int, strict: bool = False) -> list[int]:
    """Masks of all inclusion-minimal unions of candidates covering target.

    A union qualifies when it contains ``target``; with ``strict`` it must
    contain it properly.  Result is duplicate-free, sorted by (popcount,
    mask value).  Empty candidates never change a union and are ignored.

    With ``strict``, the candidates inside ``target`` are ORed first.
    When they make up ``target``, it is itself a union, and every union
    properly above it holds some candidate ``c`` reaching outside it and
    so contains the union ``target | c``: the one-step unions are the only
    ones the antichain has to compare, and no search runs.  Otherwise no
    union equals ``target``, so the minimal covers of the plain search
    already contain it properly.  Candidates disjoint from ``target``
    never join a minimal cover, but they stay in the pool: a step by one
    of them can be a minimal strict union.
    """
    pool = [c for c in cands if c]
    if strict:
        inside = 0
        for c in pool:
            if c & ~target == 0:
                inside |= c
        if inside == target:
            return _minimal_antichain([target | c for c in pool if c & ~target])
    return _minimal_antichain(_covering_unions(pool, target))


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


def _covering_unions(pool: list[int], target: int) -> list[int]:
    """All candidate unions containing target that no branch can shrink.

    Sets of candidates are masks over pool indices: ``by_obj[o]`` holds
    the indices of the candidates covering target object ``o`` (keyed by
    the object's bit), and a node's ``avail`` the indices it may still
    add.  The search branches on the uncovered object with the fewest
    available covers, and a branch sets aside only the covers of that
    object tried before it.  An uncovered object whose covers all lay
    among those would have had fewer covers, so no object loses its last
    cover; an object with none ends its node at once.
    """
    by_obj: dict[int, int] = {}
    for i, c in enumerate(pool):
        m = c & target
        while m:
            low = m & -m
            by_obj[low] = by_obj.get(low, 0) | 1 << i
            m ^= low
    found: list[int] = []

    def rec(pu: int, avail: int) -> None:
        rem = target & ~pu
        if rem == 0:
            found.append(pu)
            return
        best = -1
        fewest = len(pool) + 1
        while rem:
            low = rem & -rem
            covers = by_obj.get(low, 0) & avail
            n = covers.bit_count()
            if n < fewest:
                if n == 0:
                    return
                fewest, best = n, covers
            rem ^= low
        rest = avail & ~best
        while best:
            low = best & -best
            # skipping earlier covers of the same object avoids revisits
            best ^= low
            rec(pu | pool[low.bit_length() - 1], best | rest)

    rec(0, (1 << len(pool)) - 1)
    del rec  # rec refers to itself through its closure cell
    return found


def _minimal_antichain(masks: list[int]) -> list[int]:
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        for k in kept:
            if k & ~m == 0:
                break
        else:
            kept.append(m)
    return kept
