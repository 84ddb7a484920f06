"""One workload process: set-up, the closed-loop timed run, checks, metrics.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this from the repository root.  One client, no
threads: each operation starts only after the previous one returned.
The worker prints ``ready <inputs digest>`` once set-up is done, then
(without ``--setup-only``) one JSON line with its results.  The ready
line also gives the worker's peak RSS in MB at that point (inputs, parsed
tables and the stream's compact specs, before any timed call) and the
median time of the reference probes it ran at the start and the end of
its set-up, by which ``run.py`` scales ``setup_s``.

Every ``probe_every_s`` of timed work the loop runs the workload's
reference probe (``reference.py``); each operation's latency is scaled by
the probe's reference time over the mean of the probes before and after
it, which takes out the host's changing speed.  The latency metrics are
taken over the stream's operations, each with its mean scaled time (the
lattice, bounds and cli streams are longer than a run reaches, so each
operation is timed once; the queries stream repeats many times).  ``ops_per_s`` is the number of
timed calls over their scaled time.  Unscaled figures are reported too,
but not gated.

With ``--trace 1`` it first runs the stream untimed by any wrapper for
half the time, then installs the tracer and runs the same operations
again; the ratio of the two is ``trace.overhead_frac`` and the per-layer
figures come from the second pass, per operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from itertools import islice

import reference

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
INTERP_START_RUNS = 10
SETUP_PROBES = 3          # reference probes at the start and the end of set-up
WARM_UP_SCAN = 64         # every kind occurs among a stream's first operations


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import granudesc

    where = os.path.realpath(granudesc.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"granudesc imported from {where}, not from {src}")
    return granudesc


class Loop:
    """Timings and outcomes of the runs over one operation stream.

    Each stream operation keeps the sum and count of its timings, scaled
    to the reference speed and unscaled, in arrays of the stream's length,
    so the benchmark's own memory does not grow with the number of timed
    calls (and a faster program does not raise ``peak_rss_mb``).
    """

    def __init__(self, w) -> None:
        size = len(w.ops)
        self.probe, self.ref_s = w.probe, w.ref_s
        self.total = array("d", [0.0]) * size
        self.total_raw = array("d", [0.0]) * size
        self.count = array("q", [0]) * size
        self.chunk: list[tuple[int, float]] = []  # (stream index, seconds) since the last probe
        self.probes = array("d")
        self.ops = 0
        self.busy = 0.0
        self.scaled_busy = 0.0
        self.failed: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.oracle: list[tuple[object, object]] = []

    def close_chunk(self, before: float) -> float:
        """Probe again and add the timings since the last probe, scaled by
        the reference time over the mean of the two probes."""
        after = self.probe()
        self.probes.append(after)
        f = 2 * self.ref_s / (before + after)
        total, raw, count = self.total, self.total_raw, self.count
        for k, dt in self.chunk:
            total[k] += dt * f
            raw[k] += dt
            count[k] += 1
            self.scaled_busy += dt * f
        self.chunk.clear()
        return after

    def means(self, scaled: bool = True) -> array:
        """Mean time of each stream operation timed at least once."""
        total = self.total if scaled else self.total_raw
        return array("d", (t / c for t, c in zip(total, self.count) if c))


def run_stream(w, loop: Loop, seconds: float | None, limit: int | None = None,
               tracer=None, record: bool = True) -> int:
    """Closed loop over ``w.ops`` from its start until ``seconds`` of timed
    work (or ``limit`` operations) are done; returns the operations done.
    Only ``op.run`` is timed.  Every answer is checked; with ``record`` the
    first ones feed the digest and the oracle slice is kept."""
    ops = w.ops
    size = len(ops)
    clock = time.perf_counter
    busy = 0.0
    i = 0
    before = loop.probe()
    next_probe = w.probe_every_s
    while (i < limit) if limit is not None else (busy < seconds):
        k = i % size
        op = ops[k]
        if tracer is not None:
            tracer.on = True
        t0 = clock()
        try:
            ans = op.run()
            err = None
        except Exception as exc:  # counted as a failed operation, run goes on
            ans, err = None, exc
        dt = clock() - t0
        if tracer is not None:
            tracer.on = False
        busy += dt
        loop.chunk.append((k, dt))
        if err is not None:
            if not loop.failed:
                traceback.print_exception(err, file=sys.stderr)
            loop.failed.append(f"{op.kind}: {type(err).__name__}: {err}")
        else:
            try:
                problem = op.check(ans)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                loop.failed.append(f"{op.kind}: {problem}")
            if record and i < w.digest_ops:
                loop.digest.update(op.text(ans).encode())
                loop.digest.update(b"\n")
                loop.digested += 1
            if record and not problem and op.oracle is not None and i < size:
                loop.oracle.append((op, ans))
        i += 1
        if busy >= next_probe:
            before = loop.close_chunk(before)
            next_probe = busy + w.probe_every_s
    loop.close_chunk(before)
    loop.ops += i
    loop.busy += busy
    return i


def run_oracles(loop: Loop) -> None:
    for op, ans in loop.oracle:
        try:
            problem = op.oracle(ans)
        except Exception as exc:
            problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem:
            loop.failed.append(f"{op.kind}: {problem}")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def untraced(w, seconds: float) -> dict:
    loop = Loop(w)
    run_stream(w, loop, seconds)
    rss = peak_rss_mb(children=w.cli is not None)
    run_oracles(loop)
    lat, raw = loop.means(), loop.means(scaled=False)
    n = len(lat)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"latency-{w.name}-seed{w.seed}.f64"), "wb") as fh:
        lat.tofile(fh)  # mean scaled seconds of each operation timed, in stream order
        raw.tofile(fh)  # then the unscaled ones
    beyond = n - max(1, math.ceil(w.tail_pct / 100 * n))
    probes = loop.probes
    return {
        "attempted": loop.ops,
        "failed": len(loop.failed),
        "failures": loop.failed[:10],
        "timed_s": loop.busy,
        "stream": {"ops": n, "calls": loop.ops},
        "tail": {"pct": w.tail_pct, "samples": n, "beyond": beyond},
        "digest": {"sha256": loop.digest.hexdigest(), "ops": loop.digested},
        "host": {
            "probes": len(probes),
            "probe_p50_s": statistics.median(probes),
            "speed": w.ref_s / statistics.median(probes),
        },
        "unscaled": {
            "ops_per_s": loop.ops / loop.busy,
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, w.tail_pct) * 1e3,
        },
        "metrics": {
            "ops_per_s": (loop.ops / loop.scaled_busy, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, w.tail_pct) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "failed_frac": (len(loop.failed) / loop.ops, "frac"),
        },
    }


def traced(w, seconds: float, tracer) -> dict:
    ref = Loop(w)
    run_stream(w, ref, seconds / 2)
    tracer.install()
    if w.cli is not None:
        w.cli.child = os.path.join(HERE, "cli_child.py")
    loop = Loop(w)
    run_stream(w, loop, None, limit=ref.ops, tracer=tracer)
    tracer.uninstall()
    run_oracles(loop)
    n = loop.ops
    parse_s = w.parse_s
    cli = {"interp_start_s": 0.0, "import_s": 0.0, "main_s": 0.0}
    if w.cli is not None:
        parse_s, cli = _cli_children(w, tracer)
    t = tracer.totals()
    c = tracer.counts
    per_op = lambda v: v / n
    m = {
        "context.parse_s": (parse_s, "s"),
        "context.masks_s": (w.masks_s, "s"),
        "kernel.fallback_calls": (c.get("kernel.fallback_calls", 0), "count"),
    }
    for k in ("formal_concepts", "minimal_cover_unions"):
        g = t[f"kernel.{k}"]
        m[f"kernel.{k}.calls"] = (per_op(g["calls"]), "count/op")
        m[f"kernel.{k}.busy_s"] = (per_op(g["busy_s"]), "s/op")
    m["kernel.formal_concepts.closures"] = (
        per_op(c.get("kernel.formal_concepts.closures", 0)), "count/op")
    for k in ("candidates", "unions"):
        key = f"kernel.minimal_cover_unions.{k}"
        m[key] = (per_op(c.get(key, 0)), "count/op")
    for g in ("derivation", "formula.build", "formula.evaluate"):
        m[f"{g}.calls"] = (per_op(t[g]["calls"]), "count/op")
        m[f"{g}.busy_s"] = (per_op(t[g]["busy_s"]), "s/op")
    m["formula.render.busy_s"] = (per_op(t["formula.render"]["busy_s"]), "s/op")
    for g in ("definability", "approximation", "lattice"):
        m[f"{g}.self_s"] = (per_op(t[g]["self_s"]), "s/op")
    m["approximation.granules_out"] = (per_op(c.get("approximation.granules_out", 0)), "count/op")
    m["lattice.render_s"] = (per_op(t["lattice.render"]["busy_s"]), "s/op")
    m["lattice.concepts"] = (per_op(c.get("lattice.concepts", 0)), "count/op")
    m["lattice.cover_edges"] = (per_op(c.get("lattice.cover_edges", 0)), "count/op")
    for k, v in cli.items():
        m[f"cli.{k}"] = (v, "s")
    m["trace.overhead_frac"] = (loop.busy / ref.busy - 1, "frac")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{w.name}-seed{w.seed}.tsv.gz")
    tracer.write(spans)
    return {
        "attempted": n,
        "failed": len(loop.failed),
        "failures": loop.failed[:10],
        "timed_s": loop.busy,
        "untraced_s": ref.busy,
        "spans": {"file": os.path.relpath(spans, ROOT), "count": len(tracer.start)},
        "metrics": m,
    }


def _cli_children(w, tracer) -> tuple[float, dict]:
    """Merge the traced CLI children's spans; medians per call."""
    parse, imports, mains = [], [], []
    for path in w.cli.span_files:
        if not os.path.exists(path):  # the call failed and is counted as such
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        parse.append(sum(
            e - s for g, s, e in zip(data["group"], data["start"], data["end"])
            if g == "context.parse"
        ))
        imports.append(data["import_s"])
        mains.append(data["main_s"])
        tracer.merge(data)
    bare = [reference.start_probe(w.cli.env) for _ in range(INTERP_START_RUNS)]
    return statistics.median(parse), {
        "interp_start_s": statistics.median(bare),
        "import_s": statistics.median(imports),
        "main_s": statistics.median(mains),
    }


def main() -> int:
    probes = [reference.probe() for _ in range(SETUP_PROBES)]
    args = _args()
    granudesc = _import_program()
    import workloads

    if args.workload not in workloads.BY_NAME:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.workload == "cli":
        out = os.path.join(OUT_DIR, f"cli-seed{args.seed}")
        w = workloads.build_cli(args.seed, ROOT, out)
    else:
        w = workloads.BY_NAME[args.workload](args.seed)
    w.seed = args.seed
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    seen = set()
    for op in islice(w.ops, WARM_UP_SCAN):  # warm-up: one untimed call of each kind
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.run()
            except Exception:  # the timed run calls it again and counts it
                pass
    rss = peak_rss_mb(children=False)
    probes += [reference.probe() for _ in range(SETUP_PROBES)]
    print("ready", w.inputs_digest(), f"{rss:.3f}", repr(statistics.median(probes)), flush=True)
    if args.setup_only:
        return 0
    if tracer is None:
        result = untraced(w, args.seconds)
    else:
        result = traced(w, args.seconds, tracer)
    result["backend"] = granudesc.backend_name()
    result["python"] = sys.version.split()[0]
    result["metrics"] = {
        k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
