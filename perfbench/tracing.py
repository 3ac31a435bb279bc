"""In-memory span recorder for the benchmark's calls into the library.

A span is opened around each call the benchmark makes into a public
function of one package module (``layer.function``); the item being run
owns an outer ``bench.item`` span, so an item's self time is its span
minus its children.  Counters are added at the same call sites, from the
calls' return values.  With tracing off, ``span`` hands back one shared
no-op context and ``count`` returns at once, so the untraced run pays
only a method call per library call.

Spans stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

ITEM = "bench.item"
_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.start, time.perf_counter())
        return False


class Tracer:
    """Spans and counters of one worker process, grouped by batch."""

    def __init__(self):
        self.enabled = False
        self.batch = -1
        self.item_id = None
        self._item_index = None
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, key: str, value: float) -> None:
        if self.enabled:
            self.counters[self.batch][key] += value

    @contextlib.contextmanager
    def item(self, item_id: str):
        """Outer span of one workload item; library spans nest under it."""
        if not self.enabled:
            yield
            return
        self.item_id = item_id
        self._item_index = len(self.spans)
        self.spans.append({"name": ITEM, "batch": self.batch, "item": item_id,
                           "parent": None, "start": time.perf_counter(), "end": None})
        try:
            yield
        finally:
            self.spans[self._item_index]["end"] = time.perf_counter()
            self.item_id = None
            self._item_index = None

    def _close(self, name: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "batch": self.batch, "item": self.item_id,
                           "parent": self._item_index, "start": start, "end": end})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def batch_busy(spans: list[dict], batch: int) -> dict[str, float]:
    """Busy time per span name and per layer in one batch, plus self time.

    ``<layer>.<fn>.busy_s`` sums the spans of that name, ``<layer>.busy_s``
    every span of the layer, and ``bench.self_s`` the item spans minus the
    library spans inside them (the benchmark's own work: input handling and
    oracles).
    """
    out: dict[str, float] = defaultdict(float)
    items = children = 0.0
    for s in spans:
        if s["batch"] != batch:
            continue
        dur = s["end"] - s["start"]
        if s["name"] == ITEM:
            items += dur
            continue
        if s["parent"] is None:
            raise ValueError(f"span {s['name']} outside any item")
        children += dur
        out[s["name"] + ".busy_s"] += dur
        out[s["name"].split(".", 1)[0] + ".busy_s"] += dur
    out["bench.self_s"] = items - children
    return dict(out)


def median_batch(walls: dict[int, float]) -> int:
    """Batch whose wall time is the (lower) median of the given batches."""
    ordered = sorted(walls, key=lambda b: (walls[b], b))
    return ordered[(len(ordered) - 1) // 2]
