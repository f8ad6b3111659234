"""Incremental snapshot: chunked backfill interleaved with WAL tailing.

The initial-load problem at 100 TB: ``LakeTable.init_snapshot`` needs an
EMPTY lake (snapshot rows enter at lsn 0, below every change), so a stream
that started tailing mid-WAL — or a table added to the catalog later — has
no way to backfill history without stopping ingestion and rebuilding.  The
public answer is the DBLog watermark algorithm (Andreadis & Zarkadas,
"DBLog: A Watermark Based Change-Data-Capture Framework", 2019; Debezium
ships it as "incremental snapshots", reference:
``debezium-core/src/main/java/io/debezium/pipeline/source/snapshot/
incremental/AbstractIncrementalSnapshotChangeEventSource.java``): read the
source in key-range chunks WHILE the log keeps applying, and use the
change log itself to arbitrate conflicts inside each chunk window.

Per chunk:

1. record ``w_lo`` = the lake's committed watermark;
2. read the chunk from the LIVE source — the read happens after ``w_lo``
   is recorded, so it reflects every change with lsn ≤ ``w_lo`` (and
   possibly newer ones — the caller's ``read_chunk`` contract);
3. record ``w_hi`` = the WAL's current max lsn (footer stats, no scan);
4. drop chunk rows whose key is TOUCHED by any event in ``(w_lo, w_hi]``
   (one pruned read of the key+lsn columns) — for those keys the WAL
   version is authoritative and will apply in step 6;
5. upsert the survivors stamped at ``lsn = w_lo``: for an untouched key
   the chunk value IS the state at ``w_lo``, so a plain replace is exact,
   the commit cannot advance (or regress) the watermark, and a crashed
   chunk re-applies idempotently (same keys, same values, same stamp);
6. tail the WAL to ``w_hi`` through the normal exactly-once apply.

Deleted keys never resurrect: a key deleted at lsn ≤ ``w_lo`` is absent
from the live chunk read (contract), and one deleted inside the window is
excluded by step 4 and tombstoned by step 6.

Scale shape: each chunk is one bounded key range (the caller sizes it);
the touched-key window is bounded by ``w_hi − w_lo`` — tail often, keep
windows short (the DBLog contract).  Steps 5–6 reuse the lake's
partition-parallel merge; nothing here adds an exchange.

Resume: ``<lake>/_backfill.json`` records the chunk cursor after each
commit; a restarted run skips completed chunks (and re-running a
completed chunk is a byte-identical no-op anyway).
"""

from __future__ import annotations

import json
import os
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..sources.event_log import _expand, log_max_lsn
from ..state.atomic import commit_json
from .replay import LakeTable

_STATE_FILE = "_backfill.json"


def _touched_keys(wal_paths, w_lo: int, w_hi: int, key_col: str) -> pa.Array:
    """Distinct keys changed in ``(w_lo, w_hi]`` — a pruned two-column read
    (row-group lsn pushdown), distinct per batch, distinct once more on the
    bounded result."""
    if w_hi <= w_lo:
        return pa.array([], pa.string())
    flt = (pc.field("lsn") > pa.scalar(w_lo, pa.int64())) & (
        pc.field("lsn") <= pa.scalar(w_hi, pa.int64()))
    # NOTE: no partitioning=None here — ray 2.49's parquet datasource hits
    # an UnboundLocalError when columns= and partitioning=None combine
    ds = ray.data.read_parquet(
        _expand(wal_paths), columns=[key_col, "lsn"], filter=flt,
    ).map_batches(
        lambda t: pa.table({key_col: pc.unique(t[key_col])}),
        batch_format="pyarrow",
    )
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.array([], pa.string())
    return pc.unique(pa.concat_tables(parts)[key_col].combine_chunks())


def backfill_chunk(
    lake: LakeTable,
    wal_paths,
    chunk: pa.Table,
    key_col: str = "doc_id",
    w_hi: int | None = None,
    tail: bool = True,
) -> dict:
    """One DBLog chunk: dedup ``chunk`` against the ``(w_lo, w_hi]`` WAL
    window, upsert the survivors at ``lsn = w_lo``, then (by default) tail
    the WAL to ``w_hi``.  ``chunk`` must be a live read taken AFTER the
    lake's current watermark was committed (the caller's contract) with
    unique keys; rows carry payload columns only."""
    clash = [c for c in ("lsn", "op") if c in chunk.schema.names]
    if clash:
        # Arrow add_column happily creates DUPLICATE column names; a chunk
        # carrying envelope columns would corrupt the merge silently
        raise ValueError(
            f"chunk must be payload-only; envelope columns {clash} present")
    w_lo = lake.manifest.watermark
    if w_hi is None:
        top = log_max_lsn(wal_paths)
        w_hi = w_lo if top is None else max(int(top), w_lo)
    touched = _touched_keys(wal_paths, w_lo, w_hi, key_col)
    survivors = chunk
    if len(touched) and chunk.num_rows:
        survivors = chunk.filter(
            pc.invert(pc.is_in(chunk[key_col], value_set=touched)))
    applied = 0
    if survivors.num_rows:
        n = survivors.num_rows
        ev = survivors.add_column(
            0, "lsn", pa.array([w_lo] * n, pa.int64()))
        ev = ev.add_column(1, "op", pa.array(["update"] * n, pa.string()))
        stats = lake._apply_ds(
            ray.data.from_arrow(ev), already_filtered=True)
        applied = stats["applied_events"]
        assert lake.manifest.watermark == w_lo, (
            "backfill must not move the watermark")
    tail_stats = lake.apply_log(wal_paths, max_lsn=w_hi) if tail else None
    return {
        "w_lo": w_lo,
        "w_hi": w_hi,
        "chunk_rows": chunk.num_rows,
        "backfilled": applied,
        "dropped_in_window": int(chunk.num_rows - survivors.num_rows),
        "tail": tail_stats,
    }


def incremental_snapshot(
    lake: LakeTable,
    wal_paths,
    read_chunk: Callable[[object, object], pa.Table],
    chunk_bounds: list,
    key_col: str = "doc_id",
) -> list[dict]:
    """Backfill the whole table in key-range chunks while tailing: chunk
    ``i`` covers ``[chunk_bounds[i], chunk_bounds[i+1])`` (``None`` edges
    are open).  ``read_chunk(lo, hi)`` must return the LIVE rows of that
    range, read after it is called (never a stale cache) — the watermark
    bracket around each call is what makes the merge exact.

    Progress persists in ``<lake>/_backfill.json`` after every chunk; a
    restarted run with the same bounds resumes at the first incomplete
    chunk."""
    state_path = os.path.join(lake.lake_dir, _STATE_FILE)
    bounds_key = json.dumps([str(b) for b in chunk_bounds])
    start = 0
    if os.path.exists(state_path):
        with open(state_path) as fh:
            st = json.load(fh)
        if st.get("bounds") == bounds_key:
            start = int(st.get("next", 0))
    stats = []
    for i in range(start, len(chunk_bounds) - 1):
        lo, hi = chunk_bounds[i], chunk_bounds[i + 1]
        chunk = read_chunk(lo, hi)
        if chunk.num_rows:
            keys = chunk[key_col]
            ok = pa.array([True] * chunk.num_rows)
            if lo is not None:
                ok = pc.and_(ok, pc.greater_equal(keys, lo))
            if hi is not None:
                ok = pc.and_(ok, pc.less(keys, hi))
            if not pc.all(ok).as_py():
                raise ValueError(
                    f"read_chunk returned keys outside [{lo!r}, {hi!r})")
        stats.append(backfill_chunk(lake, wal_paths, chunk, key_col=key_col))
        commit_json(state_path, {"bounds": bounds_key, "next": i + 1})
    return stats
