"""Commit manifest: exactly-once visibility + resumable checkpoints.

Reference discipline (SURVEY §2.2/§2.11): a destination buffers records,
flushes segments, and only *then* emits the committed STATE message
(``BufferedStreamConsumer.java:158-229,247-290``; CDC offset round-trip
``AirbyteFileOffsetBackingStore.java:39-97``).  Our analog:

* data segments are written first (deterministic paths, overwrite-idempotent);
* then the manifest JSON is atomically replaced by :func:`.atomic.commit_json`
  (a per-writer tmp file, fsynced, renamed; then the directory fsynced).

A crash between the two leaves orphan segment files that are simply not
visible; a resumed run recomputes them at the same path (same inputs → same
bytes) and commits.  The manifest records, per hash partition, the current
segment plus lineage (rows, lsn_lo/lsn_hi applied, checksum) and a global
``watermark`` = highest committed LSN — the replay cursor
(``CdcTargetPosition`` / STATE-message analog).
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field, asdict

import pyarrow as pa

from .atomic import commit_json


@dataclass
class PartitionEntry:
    part: int
    #: base segment files (disjoint key sets — a bootstrap writes one per
    #: input block; a full merge collapses to exactly one)
    paths: list[str]
    #: ordered run-delta files layered on top of the base: overlapping keys +
    #: tombstone rows, resolved by LWW on ``_ab_lsn`` at read/compaction —
    #: bounds write amplification to O(delta) for hot partitions
    delta_paths: list[str]
    rows: int  # physical rows across ALL files (base + deltas)
    lsn_lo: int  # lowest lsn applied into this segment's lineage (this run chain)
    lsn_hi: int  # highest lsn applied
    n_events: int  # events applied across the partition's lifetime
    #: order-insensitive hash of the (doc_id, lsn) pairs the last write added:
    #: all base files after a full write (however the rows are split into
    #: files), the new delta file after a delta apply
    checksum: int

    @property
    def all_paths(self) -> list[str]:
        return list(self.paths) + list(self.delta_paths)


@dataclass
class Manifest:
    num_partitions: int
    watermark: int = -1  # highest committed LSN, exclusive filter `lsn > watermark`
    schema_b64: str | None = None  # serialized unified Arrow schema
    #: schema-evolution DDL log (AirbyteSchemaHistoryStorage analog,
    #: ``internals/AirbyteSchemaHistoryStorage.java``): one entry per schema
    #: CHANGE — {run, watermark, schema_b64, added, removed} — so any past
    #: run's schema is reconstructable, not just the latest
    schema_history: list[dict] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)
    partitions: dict[int, PartitionEntry] = field(default_factory=dict)
    #: the merge policy ([column, direction] chain) every apply, read and
    #: compaction ranks by; fixed at creation.  None: not recorded (a
    #: manifest written before policies were) — the opening config's
    #: policy applies and its next commit records it
    merge_policy: list | None = None

    # -- schema ------------------------------------------------------------
    @property
    def schema(self) -> pa.Schema | None:
        if self.schema_b64 is None:
            return None
        return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(self.schema_b64)))

    def set_schema(self, schema: pa.Schema) -> None:
        new_b64 = base64.b64encode(schema.serialize().to_pybytes()).decode()
        if new_b64 != self.schema_b64:  # record the evolution in the DDL log
            old = self.schema
            old_names = set(old.names) if old is not None else set()
            self.schema_history.append(
                {
                    "run": len(self.runs),
                    "watermark": self.watermark,
                    "schema_b64": new_b64,
                    "added": sorted(set(schema.names) - old_names),
                    "removed": sorted(old_names - set(schema.names)),
                }
            )
        self.schema_b64 = new_b64

    def schema_at(self, idx: int) -> pa.Schema:
        """Reconstruct the schema as of history entry ``idx``."""
        b = base64.b64decode(self.schema_history[idx]["schema_b64"])
        return pa.ipc.read_schema(pa.BufferReader(b))

    # -- persistence -------------------------------------------------------
    @staticmethod
    def path_for(lake_dir: str) -> str:
        return os.path.join(lake_dir, "_manifest", "manifest.json")

    @classmethod
    def load(cls, lake_dir: str) -> "Manifest | None":
        p = cls.path_for(lake_dir)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            d = json.load(f)
        m = cls(
            num_partitions=d["num_partitions"],
            watermark=d["watermark"],
            schema_b64=d.get("schema_b64"),
            schema_history=d.get("schema_history", []),
            runs=d.get("runs", []),
            merge_policy=d.get("merge_policy"),
        )
        parts = {}
        for k, v in d.get("partitions", {}).items():
            if "path" in v:  # legacy single-file entry
                v = dict(v)
                v["paths"] = [v.pop("path")]
                v.setdefault("delta_paths", [])
            parts[int(k)] = PartitionEntry(**v)
        m.partitions = parts
        return m

    def commit(self, lake_dir: str) -> None:
        """Atomic replace: the manifest becomes visible all-or-nothing."""
        d = asdict(self)
        d["partitions"] = {str(k): asdict(v) for k, v in self.partitions.items()}
        commit_json(self.path_for(lake_dir), d)

    # -- lineage invariants (asserted in tests; FIXTURES F6.4) -------------
    def lineage_rows(self) -> int:
        return sum(e.rows for e in self.partitions.values())
