"""Multi-stream CDC catalog engine — the connection/worker analog.

The reference platform runs one connector process per connection and
iterates configured streams sequentially (``abstract_source.py:103-134``;
SURVEY §4 flags stream-level parallelization as its gap).  Here a catalog of
CDC streams maps to independent :class:`LakeTable` lakes under one root;
streams replay sequentially by default (each stream's own pipeline already
saturates the cluster) or concurrently via threads when streams are small.

Per-stream state is fully independent (per-STREAM state semantics —
``airbyte-protocol.md:444-506``): one manifest per stream, so failures and
resumes are isolated per stream, and any subset can be re-synced.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import ray.data

from ..state.atomic import commit_json
from .replay import _META_COLS, LakeTable, ReplayConfig


@dataclass
class CdcStreamConfig:
    name: str
    log_paths: str | list[str]  # change-log parquet (file(s)/dir or part=* root)
    snapshot_path: str | None = None  # initial base table (first sync only)
    partitioned: bool = False  # log is key-partitioned part=NNNNN shards
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    #: declared payload columns (the ConfiguredCatalog json_schema analog).
    #: In a SHARED WAL the unified file schema is the union of every
    #: stream's columns; without a declaration each stream's lake would
    #: absorb every other stream's columns as all-null fields (review
    #: finding).  None → accept the unified payload (single-stream WALs).
    columns: list[str] | None = None


class CdcCatalogEngine:
    """Sync a catalog of CDC streams into per-stream lakes under ``root``."""

    def __init__(self, root: str, streams: list[CdcStreamConfig]):
        self.root = root
        self.streams = {s.name: s for s in streams}

    def lake(self, name: str) -> LakeTable:
        cfg = self.streams[name]
        return LakeTable(os.path.join(self.root, cfg.name), cfg.replay)

    def _sync_one(self, cfg: CdcStreamConfig) -> dict:
        lake = self.lake(cfg.name)
        out: dict = {"stream": cfg.name}
        if cfg.snapshot_path and lake.manifest.watermark < 0:
            out["snapshot"] = lake.init_snapshot(
                ray.data.read_parquet(cfg.snapshot_path, partitioning=None)
            )
        if cfg.partitioned:
            roots = [cfg.log_paths] if isinstance(cfg.log_paths, str) else list(cfg.log_paths)
            applies = [lake.apply_partitioned(r) for r in roots]  # every root
            out["apply"] = applies[0] if len(applies) == 1 else {"roots": applies}
        else:
            out["apply"] = lake.apply_log(cfg.log_paths)
        return out

    def sync_all(self, concurrent: bool = False) -> list[dict]:
        """Sequential by default (one stream's pipeline already uses the
        whole cluster); ``concurrent=True`` thread-fans small streams —
        safe because each stream owns disjoint lake state."""
        cfgs = list(self.streams.values())
        if not concurrent:
            return [self._sync_one(c) for c in cfgs]
        with ThreadPoolExecutor(min(len(cfgs), 4)) as ex:
            return list(ex.map(self._sync_one, cfgs))

    def read(self, name: str) -> ray.data.Dataset:
        return self.lake(name).read()

    # -- GLOBAL (shared-offset) state --------------------------------------
    def _global_state_path(self) -> str:
        return os.path.join(self.root, "_global_state.json")

    def load_global(self) -> dict:
        import json

        p = self._global_state_path()
        if not os.path.exists(p):
            return {"watermark": -1, "runs": []}
        with open(p) as f:
            return json.load(f)

    def _commit_global(self, state: dict) -> None:
        commit_json(self._global_state_path(), state)

    def sync_shared(self, log_paths: str | list[str], stream_col: str = "stream") -> dict:
        """GLOBAL state: many streams tail ONE shared WAL (the single
        Debezium offset shared across streams —
        ``connector_state_manager.py:96-146``, ``airbyte-protocol.md:
        444-506``).  The log carries a ``stream_col`` discriminator; every
        stream applies its own rows up to one shared target LSN, and the
        GLOBAL offset commits only after ALL streams landed.  A crash
        mid-catalog leaves the global offset unchanged; on rerun,
        already-applied streams no-op via their per-lake watermarks
        (exactly-once per stream), so the catalog converges and then the
        offset commits — the offset-store flush-after-sync discipline.

        One pass: a single footer scan of the WAL, then ONE apply through
        the same planner as :meth:`LakeTable.apply_log`, with one target
        per stream (its lake's kernel ctx; rows ``stream_col == name`` with
        ``lsn >`` its watermark) — a small window runs as one task, a large
        one as route tasks over ranges of the WAL's files and merge tasks
        over ranges of (stream, partition) keys.  Each stream's
        manifest then commits in name order (crash between commits ⇒
        committed streams no-op on rerun)."""
        import time as _time

        import pyarrow as pa

        from ..sources.event_log import log_max_lsn, scan_event_log
        from .replay import _apply_targets, _Target

        gs = self.load_global()
        top_ = log_max_lsn(log_paths)
        if top_ is None or top_ <= gs["watermark"]:
            return {"watermark": gs["watermark"], "streams": {}, "applied_events": 0}
        top = int(top_)

        names = sorted(self.streams)
        lakes = {}
        for name in names:
            cfg = self.streams[name]
            lake = self.lake(name)
            if cfg.snapshot_path and lake.manifest.watermark < 0:
                # same bootstrap as _sync_one — without it a shared-WAL sync
                # silently started from an empty lake (review finding)
                lake.init_snapshot(
                    ray.data.read_parquet(cfg.snapshot_path, partitioning=None)
                )
            lakes[name] = lake

        wms = {n: lakes[n].manifest.watermark for n in names}
        scan = scan_event_log(log_paths, min_lsn=min(wms.values()), max_lsn=top)
        out_schemas, targets = {}, []
        for n in names:
            # the stream's columns: never the stream column, and only the
            # event envelope and its DECLARED payload, so stream A's lake
            # never absorbs stream B's fields as all-null columns; undeclared
            # streams accept the union (single-stream-WAL behavior)
            cols = self.streams[n].columns
            ev_schema = pa.schema([f for f in scan.schema if f.name != stream_col and (
                cols is None or f.name in cols or f.name in _META_COLS)])
            # each stream's own write mode; a merge policy column the lake
            # lacks raises here, before the apply writes any segment
            out_schemas[n], ctx = lakes[n]._plan_ctx(ev_schema, lakes[n].config.delta_mode)
            targets.append(_Target(ctx, lakes[n].manifest.num_partitions, wms[n],
                                   (stream_col, n)))
        t0 = _time.perf_counter()
        lineage, plan, est = _apply_targets(scan, targets)
        elapsed = _time.perf_counter() - t0

        results: dict = {}
        total = 0
        for n, rows in zip(names, lineage):  # deterministic commit order
            st = lakes[n]._commit(rows, wms[n], out_schemas[n], elapsed, plan, est)
            results[n] = st
            total += st["applied_events"]
        gs["watermark"] = top
        gs["runs"].append({"watermark": top, "applied_events": total})
        self._commit_global(gs)
        return {"watermark": top, "streams": results, "applied_events": total}
