"""In-memory spans around the public functions of each branchlab module.

Nothing in branchlab is edited: ``Tracer.install`` swaps each wrapped
function for a recording wrapper in every branchlab module namespace
(and in module-level dispatch tables such as the CLI's theorem table)
that refers to it, and ``uninstall`` puts the originals back.

The two model maps, called hundreds of thousands of times per round,
are counted only; a span each would cost more than the work it
measures.  The public functions of the other traced modules get a
span each: name, start, end, parent span and workload id.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict

# module -> functions that get a span each
SPANNED = {
    "config": ("load_model", "loads_model"),
    "pgf": ("build_survival_table", "conditional_transform",
            "censored_transform", "iterate_point", "terminal_gap",
            "harmonic_U", "w_transform", "w_weighted_mean"),
    "experiments": ("verify_foster", "verify_local", "verify_finalstage",
                    "verify_death", "verify_deathfin", "verify_laplace_W",
                    "verify_diff_lemmas"),
    "montecarlo": ("simulate_once", "estimate_pmf_T", "conditional_estimate"),
    "cli": ("run",),
}

# module -> functions that are only counted
COUNTED = {"model": ("survival_map", "pair_diff_map")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "workload", "attrs")

    def __init__(self, name, start, parent, workload):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.workload = workload
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attrs(name, args, kwargs, result) -> dict:
    """Facts about one call that the per-layer metrics need."""
    if name.startswith("montecarlo."):
        out = {"workers": kwargs.get("workers", 1)}
        if name == "montecarlo.conditional_estimate":
            out["replicates"] = result.replicates
            out["accepted"] = round(result.acceptance_rate * result.replicates)
        return out
    if name == "cli.run":
        path = args[0].output
        return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}
    return {}


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.workload = "body"
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[dict, str, object]] = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's first span hangs off the main thread's open span
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, time.perf_counter(), top, self.workload)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    # ------------------------------------------------------------ patching

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.workload, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        namespaces = [vars(mod) for key, mod in sorted(sys.modules.items())
                      if key == "branchlab" or key.startswith("branchlab.")]
        tables = [value for ns in namespaces for value in ns.values()
                  if isinstance(value, dict) and value
                  and all(callable(v) for v in value.values())]
        for make, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for module, names in table.items():
                mod = sys.modules[f"branchlab.{module}"]
                for fname in names:
                    original = getattr(mod, fname, None)
                    if original is None:
                        continue
                    wrapper = make(f"{module}.{fname}", original)
                    for ns in namespaces + tables:
                        for key, value in list(ns.items()):
                            if value is original:
                                self._patched.append((ns, key, original))
                                ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        """One JSON line per span; parents are referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "workload": s.workload, **s.attrs}) + "\n")


# ------------------------------------------------------------ analysis


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's own-layer time.

    A span's self time is its duration minus the part of it covered by
    its nearest descendants in another layer (same-layer descendants
    count as the span's own work).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def foreign(span, layer):
        for c in children[id(span)]:
            if c.layer != layer:
                yield (max(c.start, span.start), min(c.end, span.end))
            else:
                yield from foreign(c, layer)

    return {id(s): s.seconds - _union_length(foreign(s, s.layer)) for s in spans}
