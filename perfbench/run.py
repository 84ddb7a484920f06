"""End-to-end and per-layer benchmark of granudesc.

    python3 perfbench/run.py --workload {lattice,queries,bounds,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is one closed-loop client in
its own worker process (see ``worker.py``): one process, no threads, each
call made only after the previous one returned.  Inputs come from the
seed alone; the program receives only the generated tables and granules.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s``,
``latency_p50_ms``, ``latency_tail_ms``, ``setup_s``, ``peak_rss_mb`` and
``failed_frac``.  ``setup_s`` is the median over several worker starts of
the time from process start to the first timed operation (import, input
generation and parsing, the first touch of the cached masks, warm-up).
The timings are scaled to a fixed speed of the host: each is multiplied
by ``reference.REF_S`` over the time a reference probe takes next to it
(see ``reference.py`` and ``worker.py``).  This keeps them steady on a
shared host whose speed changes from one moment to the next.
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; ``failed_frac`` is reported in the lines above it,
since the JSON carries ``failed`` and ``attempted`` themselves.

The run record (Python, backend, nproc, seed, git commit, Python lines of
``src/``) and a digest of each workload's canonical answers are printed
too; results and raw latencies are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice", "queries", "bounds", "cli")
SETUP_STARTS = 5          # worker starts whose set-up time is measured
REQUIRED = ("src/granudesc/__init__.py", "tests/oracles.py", "tests/data/table1.cxt")
DEADLINE_S = 170          # the whole command stays within 180 s
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")


class WorkerError(Exception):
    pass


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _start(cmd: list[str], deadline: float) -> tuple[float, str, list[str]]:
    """Run a worker; returns (seconds to its ready line, scaled to the
    reference speed by the probes the worker ran during its set-up; ready
    line; rest)."""
    t0 = time.perf_counter()
    # its own session, so that stopping it also stops a CLI call it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, encoding="utf-8",
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not ready.startswith("ready"):
        raise WorkerError(f"worker exited with code {proc.returncode}")
    setup *= reference.REF_S / float(ready.split()[3])
    return setup, ready.strip(), rest.splitlines()


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_lines(root: str) -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main() -> int:
    args = _args()
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_STARTS - 1):
                setups.append(_start(cmd + ["--setup-only"], deadline)[0])
        setup, ready, rest = _start(cmd, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    if not rest:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(rest[-1])
    metrics = result["metrics"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "python": result["python"],
        "backend": result["backend"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_py_lines": _src_lines(root),
        "inputs_digest": ready.split()[1],
        "peak_rss_ready_mb": float(ready.split()[2]),
        "clients": 1,
        "loop": "closed",
    }
    print("record: " + json.dumps(record))
    if args.trace:
        gated = dict(metrics)
        print(f"spans: {result['spans']['count']} written to {result['spans']['file']}")
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        tail = result["tail"]
        print(f"latency_tail_ms is p{tail['pct']:g} of {tail['samples']} samples, "
              f"{tail['beyond']} beyond it")
        if tail["beyond"] < 10:
            print("warning: fewer than 10 samples lie beyond the tail percentile")
        st = result["stream"]
        print(f"latencies are the mean scaled times of the {st['ops']} stream operations "
              f"timed; ops_per_s counts all {st['calls']} timed calls")
        print(f"peak RSS at the end of set-up: {record['peak_rss_ready_mb']:.1f} MB")
        h = result["host"]
        print(f"host speed {h['speed']:.3f} of the reference (median of {h['probes']} probes, "
              f"{h['probe_p50_s'] * 1e3:.3f} ms each); unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
        print(f"setup_s is the median of {len(setups)} worker starts, each scaled by "
              f"the probes the worker ran during its set-up")
        d = result["digest"]
        print(f"answers digest: sha256:{d['sha256']} over the first {d['ops']} operations")
        gated = {k: metrics[k] for k in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": gated,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
