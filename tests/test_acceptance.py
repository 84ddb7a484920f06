"""Consolidated release checks, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line before its
assertion, so a plain ``pytest -s`` run shows the whole contract at a
glance.  The individual behaviors are covered in more detail by the
per-module suites; this file pins the headline guarantees.
"""

from __future__ import annotations

import random
import time

from granudesc import (
    FormalContext,
    Inapplicable,
    Status,
    appose_negation,
    complement_context,
    evaluate,
    is_cn_definable,
    is_three_way_definable,
    is_vee_definable,
    is_wedge_definable,
    lower_three_way,
    make_cn_context,
    lower_vee,
    lower_wedge,
    minimal_descriptions,
    parse_compound,
    parse_context,
    render,
    serialize_compound,
    serialize_context,
    upper_cn,
    upper_three_way,
    upper_vee,
    upper_wedge,
)
from granudesc.definability import find_covering_elements
from granudesc.derivation import cn_extent, cn_intent, extent, intent
from granudesc.lattice import enumerate_formal

from . import oracles
from .conftest import load_text, objs, random_cn_context, random_context

DENSITIES = (0.2, 0.5, 0.8)

# Table 1 concept lattice, as (extent, intent) index pairs
ELEVEN_CONCEPTS = [
    ((0, 1, 2, 3, 4, 5, 6), ()),
    ((0, 1, 6), ("a2",)),
    ((0, 5, 6), ("a3",)),
    ((1, 2, 6), ("a1",)),
    ((3, 4, 5), ("a5",)),
    ((0, 6), ("a2", "a3")),
    ((1, 6), ("a1", "a2")),
    ((4, 5), ("a4", "a5")),
    ((5,), ("a3", "a4", "a5")),
    ((6,), ("a1", "a2", "a3")),
    ((), ("a1", "a2", "a3", "a4", "a5")),
]


def _report(n: int, label: str, errors: list[str]) -> None:
    state = "FAIL" if errors else "PASS"
    print(f"criterion {n}: {state} ({label})")
    assert not errors, errors[:5]


def _families(n_trials: int):
    """Deterministic stream of small compound contexts and their a-blocks."""
    for trial in range(n_trials):
        rng = random.Random(trial * 9973 + 1)
        cctx = random_cn_context(
            rng,
            rng.randint(1, 6),
            rng.randint(1, 6),
            rng.randint(1, 5),
            DENSITIES[trial % 3],
        )
        yield trial, rng, cctx


def _all_subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


# ---------------------------------------------------------------------------
# 1. the reference lattice
# ---------------------------------------------------------------------------


def test_criterion_1_reference_lattice_reproduced(table1: FormalContext) -> None:
    errors: list[str] = []
    started = time.perf_counter()
    lattice = enumerate_formal(table1)
    elapsed = time.perf_counter() - started

    got = {(c.extent, frozenset(c.intent)) for c in lattice.concepts}
    want = {
        (frozenset(e), frozenset(table1.attribute_index(a) for a in names))
        for e, names in ELEVEN_CONCEPTS
    }
    if got != want:
        errors.append(f"concept sets differ: {got ^ want}")
    if elapsed >= 1.0:
        errors.append(f"enumeration took {elapsed:.3f}s")
    _report(1, "11 reference concepts in under a second", errors)


# ---------------------------------------------------------------------------
# 2. worked examples, exact
# ---------------------------------------------------------------------------


def test_criterion_2_worked_examples_exact(table1, table3, table5, table6) -> None:
    errors: list[str] = []

    def check(label: str, got: object, want: object) -> None:
        if got != want:
            errors.append(f"{label}: got {got!r}, want {want!r}")

    # conjunctive description of {2,7} and both forms for {6}
    v = is_wedge_definable(table1, objs(table1, "2", "7"))
    check("wedge {2,7} status", v.status, Status.DEFINABLE)
    check("wedge {2,7}", render(v.description), "a1 ∧ a2")
    v6 = is_wedge_definable(table1, objs(table1, "6"))
    check("wedge {6}", render(v6.description), "a3 ∧ a4 ∧ a5")
    shortest = minimal_descriptions(table1, objs(table1, "6"), "wedge")
    check(
        "wedge {6} shortest forms",
        [render(d) for d in shortest],
        ["a3 ∧ a4", "a3 ∧ a5"],
    )
    for d in shortest:
        check("wedge {6} shortest form value", evaluate(table1, d), objs(table1, "6"))

    # three-way descriptions over the negation compound
    for names, want in [
        (("2", "7"), "a1 ∧ a2 ∧ ¬a4 ∧ ¬a5"),
        (("2", "3"), "a1 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"),
        (("2",), "a1 ∧ a2 ∧ ¬a3 ∧ ¬a4 ∧ ¬a5"),
    ]:
        v = is_three_way_definable(table3, objs(table1, *names))
        check(f"three-way {set(names)} status", v.status, Status.DEFINABLE)
        check(f"three-way {set(names)}", render(v.description), want)

    # byte-level conversions of the reference table
    check(
        "complement table bytes",
        serialize_context(complement_context(table1)),
        _TABLE4_CXT,
    )
    check(
        "apposed table bytes",
        serialize_context(appose_negation(table1).flattened),
        _TABLE3_CXT,
    )

    # disjunctive descriptions
    for names, want in [
        (("1", "4", "5", "6", "7"), "a3 ∨ a4 ∨ a5"),
        (("1", "2", "5", "6", "7"), "a2 ∨ a3 ∨ a4"),
        (("1", "2", "4", "5", "6", "7"), "a2 ∨ a3 ∨ a4 ∨ a5"),
    ]:
        v = is_vee_definable(table1, objs(table1, *names))
        check(f"vee {set(names)} status", v.status, Status.DEFINABLE)
        check(f"vee {set(names)}", render(v.description), want)

    # two-block intents and their extents on the compound fixture
    a_names = table5.a_attributes
    b_names = table5.b_attributes
    for names, want_a, want_b in [
        (("2", "3", "7"), {"a1"}, {"b2", "b4"}),
        (("2", "3"), {"a1"}, {"b3"}),
        (("1", "6", "7"), {"a3"}, {"b1", "b2"}),
    ]:
        x = objs(table5, *names)
        ci = cn_intent(table5, x)
        check(f"cn intent a {set(names)}", {a_names[j] for j in ci.a_part}, want_a)
        check(f"cn intent b {set(names)}", {b_names[j] for j in ci.b_part}, want_b)
        check(f"cn extent {set(names)}", cn_extent(table5, ci), x)

    # the two-table scores example
    scores_a = parse_context(load_text("scores_a.cxt"))
    scores_b = parse_context(load_text("scores_b.cxt"))
    scores = make_cn_context(scores_a, scores_b)
    v = is_cn_definable(scores, objs(scores, "Grace", "Jenny"))
    check("cn Grace+Jenny status", v.status, Status.DEFINABLE)
    check(
        "cn Grace+Jenny",
        render(v.description),
        "c1 ∧ c2 ∧ c3 ∧ c4 ∧ (ec1 ∨ ec2)",
    )

    # the published lower bound pair
    ap = lower_wedge(table6, objs(table6, "4", "5", "6"))
    got = [(g, render(d)) for g, d in ap.granules]
    check(
        "lower bound pair",
        got,
        [
            (objs(table6, "4", "5"), "a2 ∧ a3"),
            (objs(table6, "4", "6"), "a2 ∧ a5"),
        ],
    )
    check("lower bound exactness", ap.exact, False)

    _report(2, "worked examples reproduce exactly", errors)


_TABLE4_CXT = (
    "B\n\n7\n5\n\n"
    + "".join(f"{i}\n" for i in range(1, 8))
    + "".join(f"not_a{j}\n" for j in range(1, 6))
    + "X..XX\n..XXX\n.XXXX\nXXXX.\nXXX..\nXX...\n...XX\n"
)

_TABLE3_CXT = (
    "B\n\n7\n10\n\n"
    + "".join(f"{i}\n" for i in range(1, 8))
    + "".join(f"a{j}\n" for j in range(1, 6))
    + "".join(f"not_a{j}\n" for j in range(1, 6))
    + ".XX..X..XX\nXX.....XXX\nX.....XXXX\n....XXXXX.\n...XXXXX..\n..XXXXX...\nXXX.....XX\n"
)


# ---------------------------------------------------------------------------
# 3. derivation laws at scale
# ---------------------------------------------------------------------------


def test_criterion_3_derivation_laws_hold_broadly() -> None:
    errors: list[str] = []
    for trial in range(1000):
        rng = random.Random(trial)
        ctx = random_context(
            rng, rng.randint(1, 8), rng.randint(1, 8), DENSITIES[trial % 3]
        )
        n, m = ctx.n_objects, ctx.n_attributes

        def pick(k: int) -> frozenset[int]:
            return frozenset(i for i in range(k) if rng.random() < 0.5)

        for _ in range(6):
            x1, x2 = pick(n), pick(n)
            b1, b2 = pick(m), pick(m)
            small_x, big_x = x1 & x2, x1 | x2
            small_b, big_b = b1 & b2, b1 | b2
            ok = (
                intent(ctx, big_x) <= intent(ctx, small_x)
                and extent(ctx, big_b) <= extent(ctx, small_b)
                and x1 <= extent(ctx, intent(ctx, x1))
                and b1 <= intent(ctx, extent(ctx, b1))
                and intent(ctx, extent(ctx, intent(ctx, x1))) == intent(ctx, x1)
                and extent(ctx, intent(ctx, extent(ctx, b1))) == extent(ctx, b1)
                and (x1 <= extent(ctx, b1)) == (b1 <= intent(ctx, x1))
                and intent(ctx, x1 | x2) == intent(ctx, x1) & intent(ctx, x2)
                and extent(ctx, b1 | b2) == extent(ctx, b1) & extent(ctx, b2)
                and intent(ctx, x1 & x2) >= intent(ctx, x1) | intent(ctx, x2)
                and extent(ctx, b1 & b2) >= extent(ctx, b1) | extent(ctx, b2)
            )
            if not ok:
                errors.append(f"trial {trial}: law violated on {x1}, {x2}, {b1}, {b2}")
                break
    _report(3, "six adjunction laws on 1000 random tables", errors)


# ---------------------------------------------------------------------------
# 4. definability against exhaustive search
# ---------------------------------------------------------------------------


def test_criterion_4_definability_matches_exhaustive_search() -> None:
    errors: list[str] = []
    started = time.perf_counter()
    for trial, _rng, cctx in _families(200):
        ctx = cctx.a_block
        n = ctx.n_objects
        cols = oracles.column_extents(ctx.incidence)
        conjs = oracles.conj_family(cols, n)
        disjs = oracles.disj_family(cols)
        doubled = oracles.conj_family(oracles.doubled_columns(ctx.incidence), n)
        b_cols = oracles.column_extents(cctx.b_incidence)
        cns = oracles.cn_family(cols, b_cols, n)
        tw = appose_negation(ctx)
        for x in _all_subsets(n):
            checks = [
                ("wedge", is_wedge_definable(ctx, x), conjs),
                ("three-way", is_three_way_definable(tw, x), doubled),
                ("vee", is_vee_definable(ctx, x), disjs),
            ]
            if x:
                checks.append(("cn", is_cn_definable(cctx, x), cns))
            for mode, verdict, family in checks:
                if (verdict.status is Status.DEFINABLE) != (x in family):
                    errors.append(f"trial {trial}, {mode}, {sorted(x)}")
                elif verdict.status is Status.DEFINABLE:
                    ectx = tw if mode == "three-way" else cctx if mode == "cn" else ctx
                    if evaluate(ectx, verdict.description) != x:
                        errors.append(f"trial {trial}, {mode}, {sorted(x)}: bad formula")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        errors.append(f"sweep took {elapsed:.1f}s")
    _report(4, "four predicates vs exhaustive search, 200 tables", errors)


# ---------------------------------------------------------------------------
# 5. approximation optimality
# ---------------------------------------------------------------------------


def test_criterion_5_bounds_are_optimal() -> None:
    errors: list[str] = []

    def note(trial: int, what: str) -> None:
        errors.append(f"trial {trial}: {what}")

    for trial, _rng, cctx in _families(200):
        ctx = cctx.a_block
        n = ctx.n_objects
        universe = frozenset(range(n))
        cols = oracles.column_extents(ctx.incidence)
        conjs = oracles.conj_family(cols, n)
        disjs = oracles.disj_family(cols)
        doubled = oracles.conj_family(oracles.doubled_columns(ctx.incidence), n)
        b_cols = oracles.column_extents(cctx.b_incidence)
        cns = oracles.cn_family(cols, b_cols, n)
        tw = appose_negation(ctx)
        for x in _all_subsets(n):
            # conjunctive closures are least supersets
            for mode, op, ectx, family in [
                ("wedge", upper_wedge, ctx, conjs),
                ("three-way", upper_three_way, tw, doubled),
            ]:
                try:
                    ap = op(ectx, x)
                except Inapplicable:
                    if any(z >= x for z in family):
                        note(trial, f"upper {mode} refused coverable {sorted(x)}")
                    continue
                (granule, d), = ap.granules
                if granule not in family or not granule >= x:
                    note(trial, f"upper {mode} {sorted(x)} not a superset member")
                if any(z >= x and not z >= granule for z in family):
                    note(trial, f"upper {mode} {sorted(x)} not least")
                if evaluate(ectx, d) != granule or ap.exact != (granule == x):
                    note(trial, f"upper {mode} {sorted(x)} formula or flag")

            # the two-block closure is a minimal superset (the family is
            # not intersection-closed, so least is not guaranteed)
            if x:
                try:
                    ap = upper_cn(cctx, x)
                except Inapplicable:
                    if any(z >= x for z in cns):
                        note(trial, f"upper cn refused coverable {sorted(x)}")
                else:
                    (granule, d), = ap.granules
                    if granule not in cns or not granule >= x:
                        note(trial, f"upper cn {sorted(x)} not a superset member")
                    if any(z >= x and z < granule for z in cns):
                        note(trial, f"upper cn {sorted(x)} not minimal")
                    if evaluate(cctx, d) != granule:
                        note(trial, f"upper cn {sorted(x)} formula")

            # the disjunctive lower bound is the unique greatest fit
            ap = lower_vee(ctx, x)
            (granule, d), = ap.granules
            if granule and granule not in disjs:
                note(trial, f"lower vee {sorted(x)} not a member")
            if not granule <= x or any(not z <= granule for z in disjs if z <= x):
                note(trial, f"lower vee {sorted(x)} not greatest")
            if ap.exact != (granule == x and d is not None):
                note(trial, f"lower vee {sorted(x)} flag")

            # strict conjunctive lower bounds are the full maximal antichain
            for mode, op, ectx, family in [
                ("wedge", lower_wedge, ctx, conjs),
                ("three-way", lower_three_way, tw, doubled),
            ]:
                if x == universe:
                    continue
                ap = op(ectx, x)
                got = {g for g, _ in ap.granules}
                want = oracles.maximal_strict_subsets(family, x)
                if got != want:
                    note(trial, f"lower {mode} {sorted(x)}: {got} vs {want}")

            # disjunctive upper bounds are all minimal covering unions
            if x:
                want = oracles.minimal_supersets(disjs, x)
                try:
                    ap = upper_vee(ctx, x)
                except Inapplicable:
                    if want:
                        note(trial, f"upper vee refused coverable {sorted(x)}")
                else:
                    got = {g for g, _ in ap.granules}
                    if got != set(want):
                        note(trial, f"upper vee {sorted(x)}: {got} vs {want}")
    _report(5, "bounds are tightest on 200 random tables", errors)


# ---------------------------------------------------------------------------
# 6. agreement between equivalent characterizations
# ---------------------------------------------------------------------------


def test_criterion_6_dual_characterizations_agree() -> None:
    errors: list[str] = []
    for trial, _rng, cctx in _families(200):
        ctx = cctx.a_block
        n = ctx.n_objects
        for x in _all_subsets(n):
            direct = is_vee_definable(ctx, x)
            dual = oracles.vee_verdict_via_complement(ctx, x)
            if direct != dual:
                errors.append(f"trial {trial}, vee on {sorted(x)}")
            closed = extent(ctx, intent(ctx, x)) == x
            try:
                blocked = bool(find_covering_elements(ctx, x))
            except Inapplicable:
                if intent(ctx, x):
                    errors.append(f"trial {trial}, spurious refusal on {sorted(x)}")
                continue
            if (not blocked) != closed:
                errors.append(f"trial {trial}, wedge on {sorted(x)}")
    _report(6, "dual characterizations agree everywhere", errors)


# ---------------------------------------------------------------------------
# 7. formats
# ---------------------------------------------------------------------------


def test_criterion_7_formats_round_trip() -> None:
    errors: list[str] = []
    for trial in range(100):
        rng = random.Random(5000 + trial)
        ctx = random_context(
            rng, rng.randint(1, 8), rng.randint(1, 8), DENSITIES[trial % 3]
        )
        if parse_context(serialize_context(ctx)) != ctx:
            errors.append(f"trial {trial}: cxt round trip")
        if parse_context(serialize_context(ctx, "json")) != ctx:
            errors.append(f"trial {trial}: json round trip")
        if complement_context(complement_context(ctx)) != ctx:
            errors.append(f"trial {trial}: complement not an involution")
        cctx = random_cn_context(
            rng, rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 5), 0.5
        )
        if parse_compound(serialize_compound(cctx)) != cctx:
            errors.append(f"trial {trial}: compound json round trip")
    _report(7, "all formats round-trip byte for byte", errors)
