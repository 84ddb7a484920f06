"""Bitset kernels.

The two inner loops the package spends its time in: closure enumeration
over a binary relation and inclusion-minimal union covers.  Masks are
plain Python integers, so any context size works.
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

    Both modes run one search.  When ``target`` is not itself a union the
    minimal covers already contain it properly.  When it is, every union
    properly above it holds some candidate ``c`` reaching outside it, and
    so contains the union ``target | c``: the one-step unions are the only
    ones the antichain has to compare.  Candidates disjoint from
    ``target`` never join a minimal cover, but they stay in the pool:
    a step by one of them can be a minimal strict union.
    """
    pool = [c for c in cands if c]
    found = _covering_unions(pool, target)
    if strict and target in found:
        found = [target | c for c in pool if c & ~target]
    return _minimal_antichain(found)


def _covering_unions(pool: list[int], target: int) -> list[int]:
    """All candidate unions containing target that no branch can shrink.

    The search branches on the uncovered object with the fewest covers,
    and a branch sets aside only the covers of that object tried before
    it.  An uncovered object whose covers all lay among those would have
    had fewer covers, so no object loses its last cover; an object with
    none leaves its node without a branch.
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
            # skipping earlier covers of the same object avoids revisits
            rec(pu | c, covers[pos + 1:] + rest)

    rec(0, pool)
    return found


def _minimal_antichain(masks: list[int]) -> list[int]:
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in uniq:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept
