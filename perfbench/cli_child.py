"""Traced stand-in for ``python -m granudesc.cli``, used by the traced cli run.

    python3 perfbench/cli_child.py SPANS_JSON ARG...

Times the import of ``granudesc.cli`` and its ``main``, records the
per-layer spans of that one call and writes them to SPANS_JSON; stdout
and the exit code are the CLI's own.
"""

import json
import sys
import time

t0 = time.perf_counter()
import granudesc.cli  # noqa: E402

t1 = time.perf_counter()

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    t2 = time.perf_counter()
    code = granudesc.cli.main(sys.argv[2:])
    t3 = time.perf_counter()
    tracer.on = False
    data = tracer.export()
    data["import_s"] = t1 - t0
    data["main_s"] = t3 - t2
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
