"""Spans around the benchmark's calls into each layer of ``airbyte_ray``.

The tracer wraps the layers' public entry points from the outside (no file
of the package changes) and keeps every span in memory: name, start, end,
parent span, run id (the benchmark iteration), wall seconds and the
machine-wide CPU seconds from ``/proc/stat`` over the span.  A span's
*self* time is its wall time minus that of its direct children; a layer's
self time sums its spans' self times.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from .procstat import cpu_times


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = 0
        self.enabled = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes per-call counts."""
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter()}
        cpu0 = cpu_times()[0]
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["wall_s"] = rec["end"] - rec["start"]
            rec["cpu_s"] = cpu_times()[0] - cpu0

    def _wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counts is not None and self.enabled:
                    rec.update(counts(out))
                return out
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap the layers' public functions for the duration of the block."""
        from airbyte_ray.pipelines.replay import LakeTable
        from airbyte_ray.sources import event_log
        from airbyte_ray.state.manifest import Manifest

        def apply_counts(st):
            return {"events": st["applied_events"], "partitions": st["partitions"]}

        targets = [
            (LakeTable, "init_snapshot", "replay.init_snapshot", None),
            (LakeTable, "apply_partitioned", "replay.apply_partitioned", apply_counts),
            (LakeTable, "apply_log", "replay.apply_log", apply_counts),
            (LakeTable, "compact", "replay.compact", lambda n: {"partitions": n}),
            (event_log, "read_event_log_with_schema", "event_log.plan", None),
            (event_log, "unified_event_schema", "event_log.plan", None),
            (event_log, "log_max_lsn", "event_log.plan", None),
            (Manifest, "commit", "manifest.commit", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        saved.append((Manifest, "load", Manifest.__dict__["load"]))
        try:
            for owner, attr, name, counts in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, counts))
            # a classmethod: wrap the underlying function, re-bind as classmethod
            Manifest.load = classmethod(self._wrap(Manifest.__dict__["load"].__func__,
                                                   "manifest.load"))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["wall_s"]
        return [s["wall_s"] - c for s, c in zip(self.spans, child)]

    def dump(self, path: str, context: dict) -> None:
        with open(path, "w") as f:
            json.dump({"context": context, "spans": self.spans}, f)
