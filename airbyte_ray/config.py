"""Catalog / configured-stream model — the engine's typed configuration.

Analog of the reference's ``ConfiguredAirbyteStream``
(``docs/understanding-airbyte/airbyte-protocol.md:357-420``): per-stream
``sync_mode`` (full_refresh | incremental), ``destination_sync_mode``
(append | overwrite | append_dedup), ``cursor_field`` and ``primary_key``.
The Jinja-interpolated declarative config of the reference collapses to
plain dataclasses — our pipelines are typed Python, not YAML.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum


def cluster_cpus() -> float:
    """The cluster's CPUs, busy or free (this host's before Ray is up) —
    what every task-sizing rule (``replay._one_task_rows``, the range cut,
    ``pack_sequences``' widening) divides work by."""
    import ray

    return ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else os.cpu_count()


#: Ray reuses worker PROCESSES across tasks, so module state built lazily
#: inside a task survives to the next task on that worker — the same
#: "setup once, use per batch" economics as an actor pool, without the
#: pool's actor startup per dataset execution or its standing CPU
#: reservation.  Stages whose state is an expensive load (a model, a big
#: index) still belong on actor pools — pass an explicit ``concurrency`` to
#: the operators that accept one; stages whose state is a cheap pure
#: function of parameters (seeded permutations, hyperplanes, stopword
#: tables) run as tasks with this per-process cache.
_WORKER_STATE: dict = {}
#: LRU bound: several cache keys embed per-execution ObjectRef hexes
#: (broadcast pair tables, bloom bits, query matrices), so a reused worker
#: process accumulates a fresh entry per pipeline EXECUTION — without a
#: bound, repeated runs would leak until the worker OOMs.
_WORKER_STATE_MAX = 8


def _worker_state(key: tuple, factory):
    ent = _WORKER_STATE.get(key)
    if ent is None:
        ent = _WORKER_STATE[key] = factory()
    else:  # refresh LRU position
        _WORKER_STATE[key] = _WORKER_STATE.pop(key)
    while len(_WORKER_STATE) > _WORKER_STATE_MAX:
        _WORKER_STATE.pop(next(iter(_WORKER_STATE)))
    return ent


class SyncMode(str, Enum):
    full_refresh = "full_refresh"
    incremental = "incremental"


class DestinationSyncMode(str, Enum):
    append = "append"
    overwrite = "overwrite"
    append_dedup = "append_dedup"


@dataclass
class StreamConfig:
    name: str
    sync_mode: SyncMode = SyncMode.full_refresh
    destination_sync_mode: DestinationSyncMode = DestinationSyncMode.append
    cursor_field: str | None = None  # required for incremental
    primary_key: list[str] = field(default_factory=list)  # required for append_dedup
    #: append_dedup: partitions of the destination LakeTable (fixed at first write)
    num_partitions: int = 64
    #: sink format for append/overwrite segments (the reference's
    #: Parquet/JSONL/CSV serialized buffers, base-java-s3 §2.2);
    #: append_dedup always writes a LakeTable (its own parquet segments).
    format: str = "parquet"  # parquet | json | csv
    #: DatetimeBasedCursor analog (declarative/incremental/
    #: datetime_based_cursor.py:88-137): split the incremental read into
    #: cursor windows of this many seconds/units (None = one slice) …
    slice_window_s: float | None = None
    #: … and re-read this far behind the committed cursor every sync
    #: (lookback_window — catches late-arriving rows; append_dedup makes the
    #: re-read idempotent, plain append will duplicate and must dedup
    #: downstream, as in the reference).
    lookback_s: float = 0.0

    def __post_init__(self):
        self.sync_mode = SyncMode(self.sync_mode)
        self.destination_sync_mode = DestinationSyncMode(self.destination_sync_mode)
        if self.sync_mode is SyncMode.incremental and not self.cursor_field:
            raise ValueError(f"stream {self.name}: incremental requires cursor_field")
        if self.destination_sync_mode is DestinationSyncMode.append_dedup and not self.primary_key:
            raise ValueError(f"stream {self.name}: append_dedup requires primary_key")


@dataclass
class Catalog:
    streams: list[StreamConfig]

    def stream(self, name: str) -> StreamConfig:
        for s in self.streams:
            if s.name == name:
                return s
        raise KeyError(name)
