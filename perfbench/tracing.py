"""Per-layer tracing from the benchmark's side of each call.

``Tracer.install`` wraps the public functions of the program's modules
and patches every module that holds a reference to one (``evaluate``
lives in ``formula`` but is also imported by ``definability`` and
``approximation``), so calls between layers are seen too.  It is used
only in the traced run; the end-to-end run never imports this module.

Spans are kept in memory in flat arrays (group, start, end, parent) and
written out at the end.  A span's self time is its duration minus the
time of its direct child spans; a group's busy time is the time covered
by its outermost spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections.abc import Callable

# group of each wrapped public function; unlisted public functions of a
# module fall in the module's own group
MODULES = {
    "granudesc.context": "context",
    "granudesc.derivation": "derivation",
    "granudesc.formula": "formula",
    "granudesc.definability": "definability",
    "granudesc.approximation": "approximation",
    "granudesc.lattice": "lattice",
    "granudesc._kernel": "kernel",
}
SPECIAL = {
    ("context", "parse_context"): "context.parse",
    ("context", "parse_compound"): "context.parse",
    ("formula", "conj_of"): "formula.build",
    ("formula", "disj_of"): "formula.build",
    ("formula", "three_way_conj"): "formula.build",
    ("formula", "conj_disj"): "formula.build",
    ("formula", "evaluate"): "formula.evaluate",
    ("formula", "render"): "formula.render",
    ("lattice", "concepts_to_text"): "lattice.render",
    ("lattice", "concept_json_obj"): "lattice.render",
    ("lattice", "lattice_to_dot"): "lattice.render",
    ("lattice", "concept_label"): "lattice.render",
    ("lattice", "intent_names"): "lattice.render",
    ("kernel", "formal_concepts"): "kernel.formal_concepts",
    ("kernel", "minimal_cover_unions"): "kernel.minimal_cover_unions",
}
GROUPS = sorted(set(MODULES.values()) | set(SPECIAL.values()))
SKIP = {("kernel", "backend_name")}
WORD = 64


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span store plus the counters recorded at layer boundaries."""

    def __init__(self) -> None:
        self.on = False
        self.group = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, Callable]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for modname, layer in MODULES.items():
            mod = sys.modules[modname]
            for name, fn in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != modname
                    or (layer, name) in SKIP
                ):
                    continue
                group = SPECIAL.get((layer, name), layer)
                wrappers[id(fn)] = self._wrap(fn, GROUPS.index(group), self._hook(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "granudesc" and not modname.startswith("granudesc."):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, fn: Callable, gid: int, hook) -> Callable:
        group, start, end, parent, stack = (
            self.group, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(start)
            group.append(gid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @staticmethod
    def _hook(name: str):
        """Counter update for the functions whose arguments or results
        carry a count worth recording."""

        def bump(counts: dict[str, int], key: str, by: int) -> None:
            counts[key] = counts.get(key, 0) + by

        if name == "formal_concepts":
            def hook(counts, args, kwargs, result):
                cols = _arg(args, kwargs, 0, "cols")
                n = _arg(args, kwargs, 1, "n_objects")
                bump(counts, "kernel.formal_concepts.closures", len(result))
                bump(counts, "kernel.fallback_calls", int(n > WORD or len(cols) > WORD))
            return hook
        if name == "minimal_cover_unions":
            def hook(counts, args, kwargs, result):
                cands = list(_arg(args, kwargs, 0, "cands"))
                target = _arg(args, kwargs, 1, "target")
                width = max([target.bit_length()] + [c.bit_length() for c in cands])
                bump(counts, "kernel.minimal_cover_unions.candidates", len(cands))
                bump(counts, "kernel.minimal_cover_unions.unions", len(result))
                bump(counts, "kernel.fallback_calls", int(width > WORD or len(cands) > WORD))
            return hook
        if name.startswith(("upper_", "lower_")):
            def hook(counts, args, kwargs, result):
                bump(counts, "approximation.granules_out", len(result.granules))
            return hook
        if name == "enumerate_minimal_covers":
            def hook(counts, args, kwargs, result):
                bump(counts, "approximation.granules_out", len(result))
            return hook
        if name == "enumerate_cn":
            def hook(counts, args, kwargs, result):
                bump(counts, "lattice.concepts", len(result))
            return hook
        if name.startswith("enumerate_"):
            def hook(counts, args, kwargs, result):
                bump(counts, "lattice.concepts", len(result.concepts))
                bump(counts, "lattice.cover_edges", len(result.covers))
            return hook
        return None

    # -- spans from other processes ---------------------------------------

    def export(self) -> dict:
        return {
            "group": [GROUPS[g] for g in self.group],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": self.counts,
        }

    def merge(self, data: dict) -> None:
        """Append spans and counts exported by a traced child process."""
        base = len(self.start)
        for g, s, e, p in zip(data["group"], data["start"], data["end"], data["parent"]):
            self.group.append(GROUPS.index(g))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per group: calls, busy (outermost) seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        ancestors = [0] * n  # bit set of the groups above each span
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << self.group[p])
        out = {g: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for g in GROUPS}
        for i in range(n):
            g = self.group[i]
            row = out[GROUPS[g]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not ancestors[i] >> g & 1:
                row["busy_s"] += dur[i]
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated text: id, parent, group, start, duration (µs).

        Starts count from the first span; spans merged from CLI child
        processes keep their own process's clock."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tgroup\tstart_us\tdur_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{GROUPS[self.group[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - self.start[i]) * 1e6:.1f}\n"
                )
