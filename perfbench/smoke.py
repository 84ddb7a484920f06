"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload briefly, untraced and
traced, and asserts that every metric named in ``BENCHMARK.json`` is
printed with its unit, that no operation fails on this commit, and that
two seeds give different inputs.  Exits 1 on the first broken promise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "1"


def _run(cmd: list[str]) -> list[str]:
    proc = subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8", timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def _expect_metrics(lines: list[str], spec: list[dict], what: str) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != {want}"
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{what}: {name} not printed with {unit}"
    assert result["attempted"] >= 1, what
    assert result["failed"] == 0 and result["correct"], f"{what}: failures\n" + "\n".join(
        line for line in lines if line.startswith("failure:"))
    return result


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    run = [sys.executable, os.path.join(HERE, "run.py")]
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    for w in (x["name"] for x in bench["workloads"]):
        base = ["--workload", w, "--seconds", SECONDS]
        lines = _run(run + base + ["--seed", "1", "--trace", "0"])
        _expect_metrics(lines, bench["end_to_end"], f"{w} untraced")
        assert "metric failed_frac = 0 frac" in lines, f"{w}: failed_frac not 0"
        record = json.loads(next(x for x in lines if x.startswith("record: "))[8:])
        _expect_metrics(_run(run + base + ["--seed", "1", "--trace", "1"]),
                        bench["per_layer"], f"{w} traced")
        other = _run(worker + base + ["--seed", "2", "--setup-only"])[0].split()[1]
        assert other != record["inputs_digest"], f"{w}: seeds 1 and 2 give the same inputs"
        print(f"{w}: ok (backend {record['backend']}, inputs {record['inputs_digest']} / {other})")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke failed: {exc}", file=sys.stderr)
        sys.exit(1)
