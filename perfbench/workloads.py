"""The four workloads: seeded inputs, the timed operations and their checks.

Each workload is a stream of operations drawn from one seed.  An
operation's ``run`` is the only timed part; ``check`` verifies the answer
with the benchmark's own code, ``text`` gives the canonical answer that
feeds the digest, and a few operations carry an ``oracle`` cross-check
against the brute force in ``tests/oracles.py``, run after the timing.

The lattice, bounds and cli streams hold at least twice as many
operations as a 20 s run reaches at this commit in the host's fast state,
so a faster program sees new inputs rather than repeats; the queries
stream of cheap calls repeats many times.  The lattice and bounds
sizes keep a run finishable on the pure kernel while the cubic order
step and the unguarded strict cover search stay their dominant costs.

The queries and bounds streams are kept as compact specs and each
operation is built just before its call, outside the timing, so that the
benchmark's own data stays small next to the program's in peak_rss_mb.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import granudesc
import granudesc.lattice
from granudesc.errors import Inapplicable, SizeGuardExceeded
from granudesc.formula import render

import checks
import inputs
import reference
from inputs import Table, set_of

D = granudesc            # public entry points, looked up at call time
L = granudesc.lattice    # renderers not re-exported by the package

# Answers, not failures: a refused premise or a size-guard refusal.
REFUSALS = (Inapplicable, SizeGuardExceeded)

RANDOM_P = 0.3           # membership probability of random granules
MINIMAL_BASE_CAP = 8     # see _minimal_granule


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    text: Callable[[object], str]
    oracle: Callable[[object], str | None] | None = None


@dataclass
class Workload:
    name: str
    ops: Sequence[Op]
    # latency_tail_ms percentile, fixed per workload so that runs stay
    # comparable when a faster program completes more operations; in a 20 s
    # run it leaves over ten (lattice, cli) to over a hundred (queries,
    # bounds) operations beyond it
    tail_pct: float
    digest_ops: int          # answers hashed into the digest
    # the reference probe that scales this workload's timings, its time at
    # the reference speed, and the timed seconds between two probes
    probe: Callable[[], float] = reference.probe
    ref_s: float = reference.REF_S
    probe_every_s: float = 0.05
    parse_s: float = 0.0
    masks_s: float = 0.0
    inputs: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    cli: "CliRunner | None" = None
    seed: int = 0

    def note(self, item: str) -> None:
        """Add one generated input to the inputs digest."""
        self.inputs.update(item.encode())
        self.inputs.update(b"\0")

    def inputs_digest(self) -> str:
        return self.inputs.hexdigest()[:16]


class LazyOps(Sequence):
    """Operations built on demand from compact specs (tuples of masks and
    indices); ``run_stream`` builds each one before its timer starts."""

    def __init__(self, make: Callable[..., Op]) -> None:
        self.make = make
        self.specs: list[tuple] = []

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, i: int) -> Op:
        return self.make(*self.specs[i])


class SetupClock:
    """Times parsing and the first touch of the cached mask properties."""

    def __init__(self, workload: Workload) -> None:
        self.w = workload

    def formal(self, text: str):
        self.w.note(text)
        t = time.perf_counter()
        ctx = D.parse_context(text)
        self.w.parse_s += time.perf_counter() - t
        t = time.perf_counter()
        ctx.row_masks, ctx.column_masks
        self.w.masks_s += time.perf_counter() - t
        return ctx

    def compound(self, text: str):
        self.w.note(text)
        t = time.perf_counter()
        cctx = D.parse_compound(text)
        self.w.parse_s += time.perf_counter() - t
        t = time.perf_counter()
        cctx.a_block.column_masks, cctx.b_block.column_masks
        if cctx.flavor is D.Flavor.THREE_WAY:
            cctx.flattened.column_masks
        self.w.masks_s += time.perf_counter() - t
        return cctx


# ---------------------------------------------------------------------------
# shared answer handling
# ---------------------------------------------------------------------------


def _call(name: str, *args) -> Callable[[], object]:
    def run():
        try:
            return getattr(D, name)(*args)
        except REFUSALS as exc:
            return exc
    return run


def _ones(mask: int) -> list[int]:
    return sorted(set_of(mask))


def canonical(ans: object) -> str:
    """Stable text of a library answer, built from public fields only."""
    if isinstance(ans, REFUSALS):
        reason = getattr(ans, "reason", None)
        return f"!{type(ans).__name__}:{getattr(reason, 'value', reason)}"
    if isinstance(ans, D.Verdict):
        d = render(ans.description) if ans.description is not None else ""
        w = sorted(ans.witness) if ans.witness is not None else None
        r = ans.reason.value if ans.reason is not None else None
        return f"{ans.status.value}|{d}|{r}|{w}"
    if isinstance(ans, D.Approximation):
        parts = [
            f"{sorted(g)}:{render(d) if d is not None else ''}" for g, d in ans.granules
        ]
        return f"{ans.direction.value}|{ans.mode.value}|{ans.exact}|" + ";".join(parts)
    if isinstance(ans, list) and all(isinstance(e, tuple) for e in ans):
        return ";".join(f"{sorted(ids)}:{sorted(u)}" for ids, u in ans)
    if isinstance(ans, list):
        return ";".join(render(d) for d in ans)
    raise TypeError(f"no canonical form for {type(ans).__name__}")


def _antichain(granules: list[int]) -> bool:
    return not any(
        a != b and a & ~b == 0 for a in granules for b in granules
    )


def _load_oracles():
    """The brute-force references of the test suite, loaded by path."""
    path = os.path.join(os.getcwd(), "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("granudesc_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _col_sets(table: Table) -> list[frozenset[int]]:
    return [set_of(c) for c in table.columns()]


# ---------------------------------------------------------------------------
# lattice: all four concept families, rendered three ways
# ---------------------------------------------------------------------------

LATTICE_TABLES = 192     # per family
LATTICE_SPEC = {
    "formal": (32, 14, 0.5),
    "object_oriented": (24, 12, 0.5),
    "three_way": (24, 8, 0.5),
    "cn": (14, 8, 0.5),  # 8 a-attributes and 8 b-attributes
}


def _lattice_op(family: str, enum: str, ctx, table: Table, b_table: Table | None,
                oracle: bool) -> Op:
    has_order = family != "cn"

    def run():
        lat = getattr(D, enum)(ctx)
        concepts = lat.concepts if has_order else lat
        text = L.concepts_to_text(concepts)
        js = [L.concept_json_obj(c) for c in concepts]
        dot = L.lattice_to_dot(lat) if has_order else ""
        return lat, text, js, dot

    full = table.full
    if family == "three_way":
        cols = table.columns() + inputs.complement(table).columns()
    else:
        cols = table.columns()
    b_cols = b_table.columns() if b_table is not None else []

    def check(ans) -> str | None:
        lat, text, js, dot = ans
        concepts = lat.concepts if has_order else lat
        exts = [checks.mask_of(c.extent) for c in concepts]
        if len(set(exts)) != len(exts):
            return "repeated extent"
        for c, e in zip(concepts, exts):
            if family == "cn":
                a_part = checks.mask_of(c.intent.a_part)
                if not e or not checks.cn_fixed_point(e, cols, b_cols, full):
                    return f"{_ones(e)} is not a fixed point"
                if a_part != checks.intent_of(e, cols):
                    return f"a-part of {_ones(e)}"
                continue
            i = checks.mask_of(c.intent)
            if family == "object_oriented":
                ok = checks.inside_of(e, cols) == i and checks.union_of(i, cols) == e
            else:
                ok = checks.intent_of(e, cols) == i and checks.extent_of(i, cols, full) == e
            if not ok:
                return f"({_ones(e)}, {_ones(i)}) is not a concept"
        if has_order:
            for up, low in lat.covers:
                if not (up < low and exts[low] & ~exts[up] == 0 and exts[low] != exts[up]):
                    return f"cover edge ({up}, {low}) is not ordered"
            if dot.count(" -> ") != len(lat.covers):
                return "dot edge count"
        if text.count("\n") != len(concepts) or len(js) != len(concepts):
            return "rendered concept count"
        if any(j["extent"] != [i + 1 for i in _ones(e)] for j, e in zip(js, exts)):
            return "json extent"
        return None

    def text_of(ans) -> str:
        _, text, js, dot = ans
        return text + json.dumps(js, ensure_ascii=False) + dot

    def brute(ans) -> str | None:
        lat = ans[0]
        oracles = _load_oracles()
        if family == "formal":
            want = oracles.formal_concepts_bruteforce(table.rows)
            got = {(c.extent, c.intent) for c in lat.concepts}
        else:
            want = oracles.cn_fixed_points(_col_sets(table), _col_sets(b_table), table.n)
            got = {c.extent for c in lat}
        return None if got == want else f"{family} family differs from brute force"

    return Op(enum, run, check, text_of, brute if oracle else None)


def build_lattice(seed: int) -> Workload:
    rng = random.Random(f"lattice:{seed}")
    w = Workload("lattice", [], tail_pct=90.0, digest_ops=8)
    clock = SetupClock(w)
    for k in range(LATTICE_TABLES):
        n, m, d = LATTICE_SPEC["formal"]
        t = inputs.random_table(rng, n, m, d)
        w.ops.append(_lattice_op("formal", "enumerate_formal",
                                 clock.formal(inputs.cxt_text(t)), t, None, k == 0))
        n, m, d = LATTICE_SPEC["object_oriented"]
        t = inputs.random_table(rng, n, m, d)
        w.ops.append(_lattice_op("object_oriented", "enumerate_object_oriented",
                                 clock.formal(inputs.cxt_text(t)), t, None, False))
        n, m, d = LATTICE_SPEC["three_way"]
        t = inputs.random_table(rng, n, m, d)
        text = inputs.compound_json(t, inputs.complement(t), "three_way")
        w.ops.append(_lattice_op("three_way", "enumerate_three_way",
                                 clock.compound(text), t, None, False))
        n, m, d = LATTICE_SPEC["cn"]
        a = inputs.random_table(rng, n, m, d, "m")
        b = inputs.random_table(rng, n, m, d, "n")
        text = inputs.compound_json(a, b, "common_necessary")
        w.ops.append(_lattice_op("cn", "enumerate_cn", clock.compound(text), a, b, k == 0))
    return w


# ---------------------------------------------------------------------------
# granule views shared by queries and bounds
# ---------------------------------------------------------------------------


@dataclass
class View:
    """A parsed context with the columns the checks evaluate on."""

    ctx: object
    n: int
    cols: list[int]                        # plain, or flattened for three-way
    b_cols: list[int] = field(default_factory=list)
    names: dict[str, int] = field(default_factory=dict)
    table: Table | None = None

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def _plain_view(clock: SetupClock, t: Table) -> View:
    cols = t.columns()
    return View(clock.formal(inputs.cxt_text(t)), t.n, cols,
                names=dict(zip(t.attributes, cols)), table=t)


def _three_way_view(clock: SetupClock, t: Table) -> View:
    comp = inputs.complement(t)
    cctx = clock.compound(inputs.compound_json(t, comp, "three_way"))
    cols = t.columns()
    return View(cctx, t.n, cols + comp.columns(),
                names=dict(zip(t.attributes, cols)), table=t)


def _cn_view(clock: SetupClock, a: Table, b: Table) -> View:
    cctx = clock.compound(inputs.compound_json(a, b, "common_necessary"))
    a_cols, b_cols = a.columns(), b.columns()
    names = dict(zip(a.attributes, a_cols))
    names.update(zip(b.attributes, b_cols))
    return View(cctx, a.n, a_cols, b_cols, names, a)


def _granule(rng: random.Random, view: View, mode: str) -> int:
    """Half definable in the mode by construction, half random subsets."""
    if rng.random() < 0.5:
        return inputs.random_granule(rng, view.n, RANDOM_P)
    if mode in ("wedge", "three_way"):
        return inputs.conj_granule(rng, view.cols, view.full)
    if mode == "vee":
        return inputs.disj_granule(rng, view.cols, view.full)
    return inputs.cn_granule(rng, view.cols, view.b_cols, view.full)


def _minimal_granule(rng: random.Random, view: View, mode: str) -> int:
    """A definable granule whose description search stays small.

    ``minimal_descriptions`` tries every subset of the granule's intent
    (or, for vee, of the columns inside it), so a one-object granule of a
    64-column three-way table would take 2^32 steps.  The queries
    workload measures cheap calls, so it asks only about granules whose
    search base has at most MINIMAL_BASE_CAP attributes.  The cn mode is
    left out for the same reason: its search always spans every subset of
    the b-block (2^12 here).
    """
    while True:
        if mode == "vee":
            x = inputs.disj_granule(rng, view.cols, view.full)
            base = checks.inside_of(x, view.cols)
        else:
            x = inputs.conj_granule(rng, view.cols, view.full)
            base = checks.intent_of(x, view.cols)
        if inputs.popcount(base) <= MINIMAL_BASE_CAP:
            return x


def _expected_status(view: View, mode: str, x: int) -> str:
    if mode in ("wedge", "three_way"):
        return checks.conj_status(x, view.cols, view.full)
    if mode == "vee":
        return checks.disj_status(x, view.cols)
    return checks.cn_status(x, view.cols, view.b_cols, view.full)


def _evaluates(view: View, d, granule: int) -> bool:
    return checks.eval_text(render(d), view.names, view.full) == granule


# ---------------------------------------------------------------------------
# queries: a long stream of cheap definability questions
# ---------------------------------------------------------------------------

QUERIES_STREAM = 18_000
QUERIES_PLAIN = ((40, 24),) * 8 + ((64, 32),) * 8
QUERIES_CN = ((40, 12),) * 8     # objects, attributes per block
QUERIES_DENSITY = 0.3
QUERY_KINDS = (
    ("is_wedge_definable", "wedge"),
    ("upper_wedge", "wedge"),
    ("is_vee_definable", "vee"),
    ("lower_vee", "vee"),
    ("is_three_way_definable", "three_way"),
    ("upper_three_way", "three_way"),
    ("is_cn_definable", "cn"),
    ("upper_cn", "cn"),
    ("minimal_descriptions", None),
)


def _check_verdict(view: View, mode: str, x: int, ans) -> str | None:
    want = _expected_status(view, mode, x)
    if ans.status.value != want:
        return f"{mode} verdict {ans.status.value}, expected {want}"
    if want == "definable" and not _evaluates(view, ans.description, x):
        return "description does not evaluate to the granule"
    if want == "indefinable":
        w = checks.mask_of(ans.witness)
        if mode == "vee":
            ok = w == checks.union_of(checks.inside_of(x, view.cols), view.cols)
        elif mode == "cn":
            ok = w != x and x & ~w == 0
        else:
            ok = w == checks.extent_of(checks.intent_of(x, view.cols), view.cols, view.full)
        if not ok:
            return "witness is not the closure"
    return None


def _check_upper(view: View, mode: str, x: int, ans) -> str | None:
    want = _expected_status(view, mode, x)
    if isinstance(ans, REFUSALS):
        return None if want == "inapplicable" else f"refused a {want} granule"
    if want == "inapplicable":
        return "answered an inapplicable granule"
    (g, d), = ans.granules
    g = checks.mask_of(g)
    if x & ~g:
        return "upper bound misses part of the granule"
    if not _evaluates(view, d, g):
        return "description does not evaluate to the bound"
    if ans.exact != (g == x) or (want == "definable") != (g == x):
        return "exact flag or closure"
    if mode != "cn" and g != checks.extent_of(
        checks.intent_of(x, view.cols), view.cols, view.full
    ):
        return "upper bound is not the closure"
    return None


def _check_lower_vee(view: View, x: int, ans) -> str | None:
    (g, d), = ans.granules
    g = checks.mask_of(g)
    if g != checks.union_of(checks.inside_of(x, view.cols), view.cols):
        return "lower vee is not the greatest union inside"
    if (d is None) != (g == 0) or (d is not None and not _evaluates(view, d, g)):
        return "lower vee description"
    if ans.exact != (g == x and d is not None):
        return "exact flag"
    return None


def _query_op(kind: str, mode: str, view: View, x: int) -> Op:
    xs = set_of(x)
    if kind == "minimal_descriptions":
        run = _call(kind, view.ctx, xs, mode)

        def check(ans):
            if not ans or any(not _evaluates(view, d, x) for d in ans):
                return "a minimal description does not evaluate to the granule"
            return None
    else:
        run = _call(kind, view.ctx, xs)
        if kind.startswith("is_"):
            check = lambda ans: _check_verdict(view, mode, x, ans)
        elif kind == "lower_vee":
            check = lambda ans: _check_lower_vee(view, x, ans)
        else:
            check = lambda ans: _check_upper(view, mode, x, ans)
    return Op(kind, run, check, canonical)


def build_queries(seed: int) -> Workload:
    rng = random.Random(f"queries:{seed}")
    w = Workload("queries", [], tail_pct=99.0, digest_ops=900)
    clock = SetupClock(w)
    plain = []
    three_way = []
    for n, m in QUERIES_PLAIN:
        t = inputs.random_table(rng, n, m, QUERIES_DENSITY)
        plain.append(_plain_view(clock, t))
        three_way.append(_three_way_view(clock, t))
    cn = []
    for n, m in QUERIES_CN:
        a = inputs.random_table(rng, n, m, QUERIES_DENSITY, "m")
        b = inputs.random_table(rng, n, m, QUERIES_DENSITY, "n")
        cn.append(_cn_view(clock, a, b))
    views = {"wedge": plain, "vee": plain, "three_way": three_way, "cn": cn}
    w.ops = LazyOps(lambda kind, mode, k, x: _query_op(kind, mode, views[mode][k], x))
    for i in range(QUERIES_STREAM):
        kind, mode = QUERY_KINDS[i % len(QUERY_KINDS)]
        if mode is None:
            mode = ("wedge", "three_way", "vee")[i // len(QUERY_KINDS) % 3]
            k = rng.randrange(len(views[mode]))
            x = _minimal_granule(rng, views[mode][k], mode)
        else:
            k = rng.randrange(len(views[mode]))
            x = _granule(rng, views[mode][k], mode)
        w.note(f"{kind}:{mode}:{x}")
        w.ops.specs.append((kind, mode, k, x))
    return w


# ---------------------------------------------------------------------------
# bounds: strict and non-strict cover searches
# ---------------------------------------------------------------------------

BOUNDS_STREAM = 16_000
BOUNDS_TABLES = 64       # per kind of table; fewer let the seed sway the mean cost
BOUNDS_PLAIN = (32, 16, 0.3)
BOUNDS_THREE_WAY = (24, 8, 0.4)


def _check_lower(view: View, x: int, ans) -> str | None:
    gs = [checks.mask_of(g) for g, _ in ans.granules]
    for g, (_, d) in zip(gs, ans.granules):
        if g == x or g & ~x:
            return "a lower bound is not a strict subset"
        if d is None or not _evaluates(view, d, g):
            return "description does not evaluate to the bound"
    if not _antichain(gs):
        return "lower bounds are not an antichain"
    if ans.exact != (checks.conj_status(x, view.cols, view.full) == "definable"):
        return "exact flag"
    return None


def _check_upper_vee(view: View, x: int, ans) -> str | None:
    coverable = x & ~checks.union_of((1 << len(view.cols)) - 1, view.cols) == 0
    if isinstance(ans, REFUSALS):
        return None if not coverable else "refused a coverable granule"
    gs = [checks.mask_of(g) for g, _ in ans.granules]
    for g, (_, d) in zip(gs, ans.granules):
        if x & ~g:
            return "an upper bound misses part of the granule"
        if not _evaluates(view, d, g):
            return "description does not evaluate to the bound"
    if not gs or not _antichain(gs):
        return "upper bounds are not a non-empty antichain"
    if ans.exact != (x in gs):
        return "exact flag"
    return None


def _check_covers(cols: list[int], target: int, strict: bool, ans) -> str | None:
    unions = [checks.mask_of(u) for _, u in ans]
    for (ids, _), u in zip(ans, unions):
        if target & ~u or (strict and u == target):
            return "a union does not cover the target"
        want = {j for j, c in enumerate(cols) if c and c & ~u == 0}
        if set(ids) != want or checks.union_of(checks.mask_of(ids), cols) != u:
            return "attribute set of a union"
    if not _antichain(unions):
        return "unions are not an antichain"
    return None


def build_bounds(seed: int) -> Workload:
    rng = random.Random(f"bounds:{seed}")
    w = Workload("bounds", [], tail_pct=99.0, digest_ops=80)
    clock = SetupClock(w)
    plain = [_plain_view(clock, inputs.random_table(rng, *BOUNDS_PLAIN))
             for _ in range(BOUNDS_TABLES)]
    three_way = [_three_way_view(clock, inputs.random_table(rng, *BOUNDS_THREE_WAY))
                 for _ in range(BOUNDS_TABLES)]
    w.ops = LazyOps(lambda kind, k, x, strict, oracle: _bounds_op(
        kind, (three_way if kind == "lower_three_way" else plain)[k], x, strict, oracle))
    oracle_done: set[str] = set()
    for i in range(BOUNDS_STREAM):
        kind = ("lower_wedge", "upper_vee", "enumerate_minimal_covers",
                "lower_three_way")[i % 4]
        views = three_way if kind == "lower_three_way" else plain
        k = rng.randrange(len(views))
        mode = {"lower_wedge": "wedge", "lower_three_way": "three_way"}.get(kind, "vee")
        x = _granule(rng, views[k], mode)
        w.note(f"{kind}:{x}")
        strict = i // 4 % 2 == 1  # cover problems alternate plain and strict
        w.ops.specs.append((kind, k, x, strict, kind not in oracle_done))
        oracle_done.add(kind)
    return w


def _bounds_op(kind: str, view: View, x: int, strict: bool, oracle: bool) -> Op:
    xs = set_of(x)
    brute = _bounds_oracle(kind, view, xs, strict) if oracle else None
    if kind == "enumerate_minimal_covers":
        problem = D.CoverProblem(
            tuple((j, set_of(c)) for j, c in enumerate(view.cols)), xs
        )
        return Op(kind, _call(kind, problem, strict),
                  lambda ans: _check_covers(view.cols, x, strict, ans), canonical, brute)
    if kind == "upper_vee":
        return Op(kind, _call(kind, view.ctx, xs),
                  lambda ans: _check_upper_vee(view, x, ans), canonical, brute)
    return Op(kind, _call(kind, view.ctx, xs),
              lambda ans: _check_lower(view, x, ans), canonical, brute)


def _bounds_oracle(kind: str, view: View, xs: frozenset[int], strict: bool):
    def brute(ans) -> str | None:
        oracles = _load_oracles()
        cols = [set_of(c) for c in view.cols]
        if kind == "enumerate_minimal_covers":
            want = oracles.minimal_cover_entries(list(enumerate(cols)), xs, strict)
            return None if ans == want else "minimal covers differ from brute force"
        if kind == "upper_vee":
            want = oracles.minimal_supersets(oracles.disj_family(cols), xs)
            got = set() if isinstance(ans, REFUSALS) else {g for g, _ in ans.granules}
            return None if got == want else "upper vee differs from brute force"
        family = oracles.conj_family(cols, view.n)
        want = oracles.maximal_strict_subsets(family, xs)
        got = {g for g, _ in ans.granules}
        return None if got == want else f"{kind} differs from brute force"
    return brute


# ---------------------------------------------------------------------------
# cli: one granudesc process per question
# ---------------------------------------------------------------------------

CLI_STREAM = 700
CLI_GENERATED = (40, 24, 0.3)
CLI_DATA = "tests/data"


class CliRunner:
    """Starts one CLI process per call; ``child`` switches to the traced launcher.

    The worker and the CLI processes it starts share one CPU, so that the
    interpreter starts the worker probes between calls run where the calls
    ran (the CPUs of a shared host can differ in speed).
    """

    def __init__(self, root: str, out_dir: str) -> None:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.root = root
        self.out_dir = out_dir
        self.child: str | None = None
        self.span_files: list[str] = []
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONIOENCODING="utf-8",
        )

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.child is None:
            cmd = [sys.executable, "-m", "granudesc.cli", *argv]
        else:
            spans = os.path.join(self.out_dir, f"child-{len(self.span_files)}.json")
            self.span_files.append(spans)
            cmd = [sys.executable, self.child, spans, *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True)
        return proc.returncode, proc.stdout.decode("utf-8")


def _description_json(d) -> dict | None:
    """The CLI's JSON shape of a description, from its public atoms."""
    if d is None:
        return None
    if isinstance(d, D.ConjDisj):
        return {
            "conj": [a.name for a in sorted(d.conj_atoms, key=lambda a: a.index)],
            "disj": [a.name for a in sorted(d.disj_atoms, key=lambda a: a.index)],
            "negated": [],
        }
    atoms = sorted(d.atoms, key=lambda a: (a.negated, a.index))
    if isinstance(d, D.Disj):
        return {"conj": [], "disj": [a.name for a in atoms], "negated": []}
    return {
        "conj": [a.name for a in atoms if not a.negated],
        "disj": [],
        "negated": [a.name for a in atoms if a.negated],
    }


def _json_text(desc: dict) -> str:
    """Rendered form of a CLI description, for the benchmark's evaluator."""
    conj = desc["conj"] + [checks.NOT + n for n in desc["negated"]]
    disj = desc["disj"]
    if conj and disj:
        return checks.AND.join(conj) + checks.AND + "(" + checks.OR.join(disj) + ")"
    return checks.AND.join(conj) if conj else checks.OR.join(disj)


def _cli_define(ctx, mode: str, x: frozenset[int], minimal: bool):
    """Exit code and JSON payload ``define`` should print, from the library."""
    fn = {"wedge": D.is_wedge_definable, "vee": D.is_vee_definable,
          "three_way": D.is_three_way_definable, "cn": D.is_cn_definable}[mode]
    v = fn(ctx, x)
    payload = {
        "status": v.status.value,
        "description": _description_json(v.description),
        "reason": v.reason.value if v.reason else None,
        "witness": [i + 1 for i in sorted(v.witness)] if v.witness is not None else None,
    }
    if minimal and v.status is D.Status.DEFINABLE:
        payload["minimal"] = [render(d) for d in D.minimal_descriptions(ctx, x, mode)]
    code = {"definable": 0, "indefinable": 1}.get(v.status.value, 4)
    return code, payload


def _cli_approx(ctx, mode: str, direction: str, x: frozenset[int]):
    """Exit code and JSON payload ``approx`` should print; an inapplicable
    bound exits 4 with nothing on stdout."""
    try:
        a = getattr(D, f"{direction}_{mode}")(ctx, x)
    except Inapplicable:
        return 4, None
    return 0, {
        "direction": a.direction.value,
        "mode": a.mode.value,
        "exact": a.exact,
        "results": [
            {"granule": [i + 1 for i in sorted(g)],
             "description": render(d) if d is not None else None}
            for g, d in a.granules
        ],
    }


def _cli_concepts(ctx, variant: str, fmt: str):
    lat = {
        "formal": lambda: D.enumerate_formal(ctx),
        "object-oriented": lambda: D.enumerate_object_oriented(ctx),
        "three-way": lambda: D.enumerate_three_way(D.appose_negation(ctx)),
        "cn": lambda: D.enumerate_cn(ctx),
    }[variant]()
    if fmt == "dot":
        return 0, L.lattice_to_dot(lat)
    return 0, [L.concept_json_obj(c) for c in (lat if variant == "cn" else lat.concepts)]


def _cli_convert(ctx, op: str, fmt: str):
    if op == "complement":
        return 0, D.serialize_context(D.complement_context(ctx), fmt)
    if fmt == "cxt":
        return 0, D.serialize_context(D.appose_negation(ctx).flattened, "cxt")
    return 0, D.serialize_compound(D.appose_negation(ctx))


def _cli_validate(view: View) -> tuple[int, str]:
    cells = sum(inputs.popcount(c) for c in view.cols + view.b_cols)
    if view.b_cols:
        shape = (f"common_necessary compound, {view.n} objects, "
                 f"{len(view.cols)}+{len(view.b_cols)} attributes")
    else:
        shape = f"{view.n} objects, {len(view.cols)} attributes"
    return 0, f"ok: {shape}, {cells} incidences\n"


def _cli_check(argv: list[str], expected: Callable[[], tuple[int, object]],
               view: View | None, x: int | None) -> Callable[[object], str | None]:
    """Compare a CLI answer with the library's.

    ``expected`` runs after the timed call, so computing the library's
    answer is not part of set-up.  Text answers must match byte for byte,
    JSON answers as values; printed descriptions are then evaluated by
    the benchmark on the generated table.
    """

    def check(ans) -> str | None:
        got_code, out = ans
        code, want = expected()
        if got_code != code:
            return f"exit code {got_code}, expected {code}: {' '.join(argv)}"
        if want is None or isinstance(want, str):
            return None if out == (want or "") else "stdout differs from the library's answer"
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if got != want:
            return "stdout differs from the library's answer"
        if view is not None:
            for g, text in _cli_described(got, x):
                if checks.eval_text(text, view.names, view.full) != g:
                    return "a printed description does not evaluate to its granule"
        return None

    return check


def _cli_described(payload: dict, x: int | None):
    """(granule mask, description text) pairs printed by define or approx."""
    if "status" in payload:
        if payload["status"] == "definable":
            yield x, _json_text(payload["description"])
            for text in payload.get("minimal", []):
                yield x, text
        return
    for r in payload["results"]:
        if r["description"] is not None:
            yield checks.mask_of(i - 1 for i in r["granule"]), r["description"]


def _granule_arg(x: int) -> str:
    return ",".join(str(i + 1) for i in _ones(x))


def build_cli(seed: int, root: str, out_dir: str) -> Workload:
    rng = random.Random(f"cli:{seed}")
    w = Workload("cli", [], tail_pct=90.0, digest_ops=28)
    clock = SetupClock(w)
    runner = CliRunner(root, out_dir)
    w.cli = runner
    w.probe = lambda: reference.start_probe(runner.env)
    w.ref_s = reference.START_REF_S
    w.probe_every_s = 0.05
    os.makedirs(out_dir, exist_ok=True)

    def write(name: str, text: str) -> str:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.relpath(os.path.join(out_dir, name), root)

    def add(argv, expected, view=None, x=None) -> None:
        w.ops.append(Op(argv[0], lambda: runner(argv), _cli_check(argv, expected, view, x),
                        lambda ans: f"{' '.join(argv)}|{ans[0]}|{ans[1]}"))

    n, m, d = CLI_GENERATED
    gen = []
    for k in range(2):
        t = inputs.random_table(rng, n, m, d)
        gen.append((write(f"gen{k + 1}.cxt", inputs.cxt_text(t)), _plain_view(clock, t)))
    three_way = [_three_way_view(clock, v.table) for _, v in gen]
    # gen1.cxt --compound gen1_b.cxt, and a compound file of half its columns
    a = gen[0][1].table
    b = inputs.random_table(rng, n, m // 2, d, "n")
    b_path = write("gen1_b.cxt", inputs.cxt_text(b))
    cn_split = _cn_view(clock, a, b)
    half = Table(a.objects, a.attributes[: m // 2], tuple(r[: m // 2] for r in a.rows))
    cn_path = write("gen_cn.json", inputs.compound_json(half, b, "common_necessary"))
    cn_file = _cn_view(clock, half, b)

    data = {}
    for name in ("table1.cxt", "table6.cxt", "scores_a.cxt", "table5.json"):
        path = os.path.join(CLI_DATA, name)
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            text = fh.read()
        ctx = clock.compound(text) if name.endswith(".json") else clock.formal(text)
        data[name] = (path, ctx)

    for i in range(CLI_STREAM):
        step, rnd = i % 14, i // 14
        path, view = gen[rnd % 2]
        if step < 4:
            mode = ("wedge", "vee", "three_way", "cn")[step]
            v = {"three_way": three_way[rnd % 2], "cn": cn_split}.get(mode, view)
            x = _granule(rng, v, mode)
            argv = ["define", gen[0][0] if mode == "cn" else path,
                    "--mode", mode.replace("_", "-"),
                    "--granule", _granule_arg(x), "--format", "json"]
            if mode == "cn":
                argv += ["--compound", b_path]
            add(argv, lambda v=v, mode=mode, x=x: _cli_define(v.ctx, mode, set_of(x), False),
                v, x)
        elif step == 4:
            mode = ("wedge", "three_way", "vee")[rnd % 3]
            v = three_way[rnd % 2] if mode == "three_way" else view
            x = _minimal_granule(rng, v, mode)
            argv = ["define", path, "--mode", mode.replace("_", "-"),
                    "--granule", _granule_arg(x), "--format", "json", "--minimal"]
            add(argv, lambda v=v, mode=mode, x=x: _cli_define(v.ctx, mode, set_of(x), True),
                v, x)
        elif step in (5, 6, 9):
            mode, direction, v = {5: ("wedge", "upper", view), 6: ("vee", "lower", view),
                                  9: ("cn", "upper", cn_file)}[step]
            x = _granule(rng, v, mode)
            argv = ["approx", cn_path if mode == "cn" else path, "--mode", mode,
                    "--direction", direction, "--granule", _granule_arg(x), "--format", "json"]
            add(argv, lambda v=v, mode=mode, dr=direction, x=x:
                _cli_approx(v.ctx, mode, dr, set_of(x)), v)
        elif step in (7, 8):
            # upper vee and the strict lower bounds run unguarded cover
            # searches, so they use the small tables of tests/data
            dpath, ctx = data[("table1.cxt", "table6.cxt")[rnd % 2]]
            mode, direction = ("vee", "upper") if step == 7 else (
                ("wedge", "three_way")[rnd // 2 % 2], "lower")
            x = inputs.random_granule(rng, ctx.n_objects, 0.5)
            argv = ["approx", dpath, "--mode", mode.replace("_", "-"), "--direction",
                    direction, "--granule", _granule_arg(x), "--format", "json"]
            target = D.appose_negation(ctx) if mode == "three_way" else ctx
            add(argv, lambda t=target, mode=mode, dr=direction, x=x:
                _cli_approx(t, mode, dr, set_of(x)))
        elif step in (10, 11):
            fmt = "json" if step == 10 else "dot"
            variants = ("formal", "object-oriented", "three-way") + (("cn",) if fmt == "json" else ())
            variant = variants[rnd % len(variants)]
            name = "table5.json" if variant == "cn" else (
                "table1.cxt", "table6.cxt", "scores_a.cxt")[rnd % 3]
            dpath, ctx = data[name]
            add(["concepts", dpath, "--variant", variant, "--format", fmt],
                lambda ctx=ctx, variant=variant, fmt=fmt: _cli_concepts(ctx, variant, fmt))
        elif step == 12:
            op = ("complement", "appose")[rnd % 2]
            fmt = ("cxt", "json")[rnd // 2 % 2]
            src, ctx = (path, view.ctx) if rnd % 3 else data["table1.cxt"]
            add(["convert", src, "--op", op, "--format", fmt],
                lambda ctx=ctx, op=op, fmt=fmt: _cli_convert(ctx, op, fmt))
        else:
            v = view if rnd % 2 else cn_file
            add(["validate", path if rnd % 2 else cn_path], lambda v=v: _cli_validate(v))
    return w


BY_NAME = {
    "lattice": build_lattice,
    "queries": build_queries,
    "bounds": build_bounds,
    "cli": build_cli,
}
