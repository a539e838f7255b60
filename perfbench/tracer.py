"""In-memory spans around linext's public functions, for the traced run.

A span is recorded by replacing a public function with a wrapper at the place
its caller looks it up (for example ``linext.tpa.perfect_sample``, the name
``_single_run`` calls), so the library itself is not edited. Each span keeps
its name, start, end and parent; every operation has one root span,
``bench.op``. Spans stay in memory and are written out when the run ends.

Bit-source and single chain-step calls are not wrapped: there are millions of
them per operation and a wrapper would cost more than the call. Their share
is computed from microbenchmarks instead (see micro.py).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


def wrap_points(lx) -> list[tuple[object, str, str]]:
    """(module, attribute, layer) for every wrapped lookup site."""
    import linext.cftp
    import linext.exact
    import linext.poset
    import linext.tpa

    return [
        (lx, "perfect_sample", "cftp"),          # draw-free: called by the benchmark
        (lx, "two_phase", "tpa"),                # estimate-grid
        (lx, "load_poset", "poset"),             # every workload's input
        (lx, "count_exact", "exact"),            # count-wide
        (linext.tpa, "tpa_runs", "tpa"),         # two_phase -> one phase of runs
        (linext.tpa, "perfect_sample", "cftp"),  # one run -> one draw per contraction
        (linext.tpa, "lift", "embed"),
        (linext.tpa, "distance", "embed"),
        (linext.cftp, "generate", "cftp"),       # perfect_sample -> CFTP recursion
        (linext.exact, "count_exact", "exact"),  # support enumeration (first call per cap)
        (linext.exact, "enumerate_extensions", "exact"),
        (linext.poset, "parse_poset", "poset"),
        (linext.poset, "close_transitively", "poset"),
        (linext.poset, "canonicalize", "poset"),
    ]


class Tracer:
    """Collects spans as tuples (name, start_ns, end_ns, parent_index)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self, points) -> None:
        for module, attr, layer in points:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, f"{layer}.{attr}"))
            self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; also roots each operation."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid] = (name, t0, time.perf_counter_ns(), parent)
            self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans, first: int = 0) -> tuple[dict, dict]:
    """Per-layer self time and inclusive time in seconds over spans[first:].

    Self time is a span's duration minus its children's (children of one span
    never overlap: the run has one thread). Inclusive time counts only spans
    whose parent belongs to another layer, so nested calls within one layer
    are not counted twice.
    """
    child = [0] * len(spans)
    for sid in range(first, len(spans)):
        _, t0, t1, parent = spans[sid]
        if parent >= first:
            child[parent] += t1 - t0
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    for sid in range(first, len(spans)):
        name, t0, t1, parent = spans[sid]
        layer = layer_of(name)
        self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0) - child[sid]
        if parent < first or layer_of(spans[parent][0]) != layer:
            incl_ns[layer] = incl_ns.get(layer, 0) + (t1 - t0)
    return ({k: v * 1e-9 for k, v in self_ns.items()},
            {k: v * 1e-9 for k, v in incl_ns.items()})


def spans_named(spans, name: str, first: int = 0) -> list[float]:
    """Durations in seconds of the spans with this name, in start order."""
    return [(s[2] - s[1]) * 1e-9 for s in spans[first:] if s[0] == name]
