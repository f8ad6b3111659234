"""Cursor-based incremental sync (the non-CDC Airbyte path).

Reference semantics re-expressed (SURVEY §2.1/§2.4/§2.5):

* incremental read = ``WHERE cursor > state [ORDER BY cursor]``
  (``AbstractJdbcSource.java:307-360``) → predicate-pushed parquet read;
  at-least-once tie handling (the reference re-reads ``>=`` on ties,
  ``AbstractJdbcSource.java:322-334``) is subsumed by append_dedup's
  latest-per-key merge being idempotent for identical rows;
* state watermark = running ``max(cursor)``
  (``StateDecoratingIterator.java:113-171``) → ``ds.max(cursor)`` once per
  sync, committed only after the destination write lands
  (``BufferedStreamConsumer.java:205-290`` committed-after-flush);
* destination modes (``airbyte-protocol.md:418-421``):
  ``overwrite`` → rewrite the stream directory,
  ``append`` → add a new segment directory per sync,
  ``append_dedup`` → hash-partitioned latest-per-primary-key merge ordered
  by ``(cursor desc, _airbyte_emitted_at desc)`` — the SCD2 active-row
  projection (``stream_processor.py:884-898, 1076-1115``).

Layout (resumable, per SURVEY §2.2 filename/partition layout)::

    <dest>/<stream>/seg-<sync_id>/part-*.parquet      # append / overwrite
    <dest>/<stream>/part=NNNNN/seg-<sync_id>.parquet  # append_dedup
    <state_dir>/<stream>.json                         # committed cursor state
"""

from __future__ import annotations

import json
import os
import shutil
import time
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..config import DestinationSyncMode, StreamConfig, SyncMode
from ..schemas import conform_table, unify_schemas
from ..state.atomic import commit_json, replace_atomically
from .replay import stable_hash

EMITTED_AT = "_airbyte_emitted_at"


# ---------------------------------------------------------------------------
# state (ConnectorStateManager analog — per-stream STREAM-type state)
# ---------------------------------------------------------------------------

class StreamState:
    def __init__(self, state_dir: str, stream: str):
        os.makedirs(state_dir, exist_ok=True)
        self.path = os.path.join(state_dir, f"{stream}.json")

    def load(self) -> dict:
        if not os.path.exists(self.path):
            return {"cursor": None, "sync_id": 0, "runs": []}
        with open(self.path) as f:
            return json.load(f)

    def commit(self, state: dict) -> None:
        commit_json(self.path, state)


def _cursor_scalar(value, typ: pa.DataType) -> pa.Scalar:
    if pa.types.is_timestamp(typ):
        import datetime as _dt

        return pa.scalar(_dt.datetime.fromisoformat(value), typ)
    return pa.scalar(value, typ)


def _cursor_lowered(value, typ: pa.DataType, lookback_s: float) -> pa.Scalar:
    """State cursor minus the lookback window (DatetimeBasedCursor's
    ``lookback_window`` re-read, ``datetime_based_cursor.py:88-137``)."""
    if not lookback_s:
        return _cursor_scalar(value, typ)
    if pa.types.is_timestamp(typ):
        import datetime as _dt

        v = _dt.datetime.fromisoformat(value) - _dt.timedelta(seconds=lookback_s)
        return pa.scalar(v, typ)
    return pa.scalar(type(value)(value - lookback_s), typ)


def _cursor_json(scalar) -> object:
    v = scalar.as_py() if isinstance(scalar, pa.Scalar) else scalar
    if hasattr(v, "isoformat"):
        s = v.isoformat()
        return s if "." in s else s + ".000000"
    return v


# ---------------------------------------------------------------------------
# append_dedup partition merge
# ---------------------------------------------------------------------------

def _dedup_latest(t: pa.Table, pk: list[str], cursor: str | None) -> pa.Table:
    """Latest row per primary key, ordered by (cursor desc, emitted_at desc).
    Vectorized: sort + first-occurrence mask (row_number()=1 analog)."""
    if t.num_rows == 0:
        return t
    keys = [(cursor, "descending")] if cursor else []
    if EMITTED_AT in t.schema.names:
        keys.append((EMITTED_AT, "descending"))
    if keys:
        t = t.take(pc.sort_indices(t, sort_keys=keys))
    if len(pk) == 1:
        ids = t[pk[0]].to_numpy(zero_copy_only=False)
    else:
        ids = pd.MultiIndex.from_arrays([t[c].to_numpy(zero_copy_only=False) for c in pk]).to_numpy()
    first = ~pd.Index(ids).duplicated(keep="first")
    return t.filter(pa.array(first))


def _merge_dedup_partition(group: pa.Table, ctx: dict) -> pa.Table:
    pk, cursor = ctx["pk"], ctx["cursor"]
    part = int(group["part"][0].as_py())
    t = _dedup_latest(group.drop_columns(["part"]), pk, cursor)
    schema = pa.ipc.read_schema(pa.BufferReader(ctx["schema"]))
    t = conform_table(t, schema)

    old_rel = ctx["old_segments"].get(part)
    if old_rel is not None:
        old = conform_table(pq.read_table(os.path.join(ctx["dest"], old_rel)), schema)
        merged = _dedup_latest(pa.concat_tables([t, old]), pk, cursor)
        # new rows sort first on ties (same cursor) because concat order is
        # stable for equal sort keys → incoming re-reads win, matching the
        # reference's last-delivery-wins on identical cursors
    else:
        merged = t
    merged = merged.take(pc.sort_indices(merged, sort_keys=[(pk[0], "ascending")]))

    rel = os.path.join(f"part={part:05d}", f"seg-{ctx['sync_id']:08d}.parquet")
    replace_atomically(os.path.join(ctx["dest"], rel), lambda tmp: pq.write_table(merged, tmp))
    out = {"part": [part], "path": [rel], "rows": [merged.num_rows]}
    if cursor and cursor in t.schema.names:
        # max cursor of the INCOMING slice only (not old segments) — folded
        # into lineage so the sync needs no second source pass for the state
        mx = pc.max(t[cursor])
        out["max_cursor"] = pa.array([mx.as_py()], type=t.schema.field(cursor).type)
    return pa.table(out)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class SyncEngine:
    """Run configured streams source→destination, Airbyte-style, on Ray Data."""

    def __init__(self, dest_dir: str, state_dir: str | None = None):
        self.dest_dir = dest_dir
        self.state_dir = state_dir or os.path.join(dest_dir, "_state")

    def _stream_dir(self, name: str) -> str:
        return os.path.join(self.dest_dir, name)

    def sync(self, cfg: StreamConfig, src_paths: str | list[str],
             transform=None) -> dict:
        """Run one sync.  ``transform`` (optional ``pa.Table → pa.Table``,
        e.g. a composed declarative component chain) applies between read
        and write; it must preserve the cursor column for incremental
        state to advance."""
        st = StreamState(self.state_dir, cfg.name)
        state = st.load()
        sync_id = state["sync_id"] + 1
        t0 = time.perf_counter()

        src_schema = pq.read_schema(_first_parquet(src_paths))
        flt = None
        if cfg.sync_mode is SyncMode.incremental and state["cursor"] is not None:
            cur_type = src_schema.field(cfg.cursor_field).type
            flt = pc.field(cfg.cursor_field) > _cursor_lowered(
                state["cursor"], cur_type, cfg.lookback_s
            )
        if cfg.sync_mode is SyncMode.incremental and cfg.slice_window_s:
            # window-sliced read (DatetimeBasedCursor stream_slices): one
            # pushdown-filtered read per cursor window, unioned — bounds a
            # task's cursor range (row-group pruning per window) and gives
            # the reference's per-slice request granularity
            windows = self.stream_slices(cfg, src_paths, state)
            if not windows:  # no new data / no footer stats: plain filtered
                ds = ray.data.read_parquet(src_paths, filter=flt)
            else:
                parts = [
                    ray.data.read_parquet(
                        src_paths,
                        filter=(pc.field(cfg.cursor_field) > lo)
                        & (pc.field(cfg.cursor_field) <= hi),
                    )
                    for lo, hi in windows
                ]
                ds = parts[0]
                for extra in parts[1:]:
                    ds = ds.union(extra)
        else:
            ds = ray.data.read_parquet(src_paths, filter=flt)
        if transform is not None:
            ds = ds.map_batches(transform, batch_format="pyarrow")

        sdir = self._stream_dir(cfg.name)
        stats: dict = {"stream": cfg.name, "sync_id": sync_id, "mode": cfg.sync_mode.value}

        seg = f"seg-{sync_id:08d}"

        def _write(dset, path):
            # crash-idempotency: Ray stamps output files with a fresh
            # per-execution UUID, so a retry after a mid-write crash would
            # add a SECOND full copy beside the partial first one (review
            # finding).  The target dir can only hold uncommitted leftovers
            # of this same sync_id (commit bumps sync_id; read() sees only
            # state-visible segments) — clear it first.
            if os.path.isdir(path):
                import shutil as _sh

                _sh.rmtree(path)
            if cfg.format == "json":
                dset.write_json(path)
            elif cfg.format == "csv":
                dset.write_csv(path)
            elif cfg.format == "avro":
                # Avro serialized buffer (AvroSerializedBuffer.java analog):
                # fastavro when available, else the in-repo pure-Python
                # object-container codec (formats.py, public Avro 1.x spec).
                _write_avro(dset, path)
            else:
                dset.write_parquet(path)

        stale_dirs: list[str] = []
        mx = None
        if cfg.destination_sync_mode is DestinationSyncMode.append_dedup:
            rows, mx = self._write_dedup(cfg, ds, sdir, sync_id, state)
        elif cfg.destination_sync_mode is DestinationSyncMode.overwrite:
            _write(ds, os.path.join(sdir, seg))
            stale_dirs = [s for s in state.get("segments", []) if s != seg]
            state["segments"] = [seg]  # visibility flips at state commit
            rows = None
        else:  # append
            _write(ds, os.path.join(sdir, seg))
            state["segments"] = state.get("segments", []) + [seg]
            rows = None

        # state committed only after the write landed.  Max-cursor comes from
        # the write itself (dedup lineage / parquet footer stats of the just-
        # written segment) — ONE source pass per sync; only the non-parquet
        # append formats (no footer stats) fall back to a source re-scan.
        if cfg.sync_mode is SyncMode.incremental and cfg.cursor_field:
            if cfg.destination_sync_mode is not DestinationSyncMode.append_dedup:
                if cfg.format == "parquet":
                    mx = _footer_max(os.path.join(sdir, seg), cfg.cursor_field)
                else:
                    mx = ray.data.read_parquet(src_paths, filter=flt).max(cfg.cursor_field)
            if mx is not None:
                state["cursor"] = _cursor_json(mx)
        state["sync_id"] = sync_id
        state["runs"].append({"sync_id": sync_id, "sec": round(time.perf_counter() - t0, 3)})
        st.commit(state)
        # stale overwrite segments are removed only AFTER the commit lands —
        # a crash anywhere above leaves the previously-committed state intact
        # and still pointing at files that exist (BufferedStreamConsumer's
        # committed-after-flush discipline; round-1 ADVICE fix).
        for e in stale_dirs:
            shutil.rmtree(os.path.join(sdir, e), ignore_errors=True)
        if cfg.destination_sync_mode is DestinationSyncMode.append_dedup:
            # GC superseded per-partition segments (each merge rewrites its
            # partition; without this every sync left a full table copy —
            # review finding).  Runs after the commit, same discipline.
            import glob as _g

            live = {
                os.path.normpath(os.path.join(sdir, e["path"]))
                for e in state.get("dedup_segments", {}).values()
            }
            for f in _g.glob(os.path.join(sdir, "part=*", "seg-*.parquet")):
                if os.path.normpath(f) not in live:
                    os.remove(f)
        stats["cursor"] = state["cursor"]
        if rows is not None:
            stats["rows"] = rows
        return stats

    def stream_slices(self, cfg: StreamConfig, src_paths, state: dict) -> list[tuple]:
        """Cursor windows for a sliced incremental read — the
        ``DatetimeBasedCursor.stream_slices`` analog: half-open (lo, hi]
        windows of ``cfg.slice_window_s`` from the (lookback-lowered) state
        cursor to the source's footer max.  Metadata-only."""
        import datetime as _dt

        from ..sources.event_log import stat_minmax

        files = _parquet_files(src_paths)
        typ = pq.read_schema(files[0]).field(cfg.cursor_field).type
        mn, mx = stat_minmax(files, cfg.cursor_field)
        if mx is None:
            return []
        is_ts = pa.types.is_timestamp(typ)
        step = (
            _dt.timedelta(seconds=cfg.slice_window_s) if is_ts else cfg.slice_window_s
        )
        if state.get("cursor") is not None:
            lo = _cursor_lowered(state["cursor"], typ, cfg.lookback_s).as_py()
        else:
            lo = mn - step  # first sync: everything (strict > lo)
        out = []
        while lo < mx:
            hi = min(lo + step, mx)
            out.append((pa.scalar(lo, typ), pa.scalar(hi, typ)))
            lo = hi
        return out

    def _write_dedup(self, cfg, ds, sdir, sync_id, state) -> tuple[int, object]:
        pk = cfg.primary_key
        P = cfg.num_partitions
        pinned = state.get("dedup_num_partitions")
        if pinned is not None and pinned != P:
            # same contract as LakeTable: existing segments are keyed by the
            # original hash partitioning, and re-hashing to a different P
            # would duplicate primary keys across partitions (review finding)
            raise ValueError(
                f"num_partitions is fixed at first append_dedup sync "
                f"(state has {pinned}, config asks {P})"
            )
        state["dedup_num_partitions"] = P
        stamped = ds.map_batches(
            partial(_stamp_and_part, pk=pk, num_partitions=P, cursor=cfg.cursor_field),
            batch_format="pyarrow",
        )
        schema = stamped.schema()
        if schema is None:
            return sum(e["rows"] for e in state.get("dedup_segments", {}).values()), None
        fields = [pa.field(n, t) for n, t in zip(schema.names, schema.types) if n != "part"]
        out_schema = pa.schema(fields)
        prev = state.get("dedup_schema")
        if prev:
            out_schema = unify_schemas(
                pa.ipc.read_schema(pa.BufferReader(bytes.fromhex(prev))), out_schema
            )
        ctx = {
            "pk": pk,
            "cursor": cfg.cursor_field,
            "dest": sdir,
            "schema": out_schema.serialize().to_pybytes(),
            "old_segments": {int(k): v["path"] for k, v in state.get("dedup_segments", {}).items()},
            "sync_id": sync_id,
        }
        lineage = stamped.groupby("part").map_groups(
            partial(_merge_dedup_partition, ctx=ctx), batch_format="pyarrow"
        ).take_all()
        segs = dict(state.get("dedup_segments", {}))
        mx = None
        for r in lineage:
            segs[str(int(r["part"]))] = {"path": r["path"], "rows": int(r["rows"])}
            v = r.get("max_cursor")
            if v is not None and (mx is None or v > mx):
                mx = v
        state["dedup_segments"] = segs
        state["dedup_schema"] = out_schema.serialize().to_pybytes().hex()
        return sum(e["rows"] for e in segs.values()), mx

    # -- read back ---------------------------------------------------------
    def read(self, stream: str, dedup: bool = False, format: str = "parquet") -> ray.data.Dataset:
        """Committed view of a stream (only state-visible segments)."""
        sdir = self._stream_dir(stream)
        st = StreamState(self.state_dir, stream).load()
        if dedup:
            # partitioning=None: segment dirs are named part=NNNNN — suppress
            # hive-partition column inference
            paths = [os.path.join(sdir, e["path"]) for e in st.get("dedup_segments", {}).values()]
            return ray.data.read_parquet(paths, partitioning=None)
        import glob as _g

        ext = {"parquet": "parquet", "json": "json", "csv": "csv", "avro": "avro"}[format]
        paths = []
        for s in st.get("segments", []):
            paths.extend(sorted(_g.glob(os.path.join(sdir, s, "**", f"*.{ext}"), recursive=True)))
        if format == "json":
            return ray.data.read_json(paths)
        if format == "csv":
            return ray.data.read_csv(paths)
        if format == "avro":
            return _read_avro(paths)
        return ray.data.read_parquet(paths, partitioning=None)


def _write_avro(dset: ray.data.Dataset, path: str) -> None:
    """Distributed Avro writer: one container file per block.  Uses fastavro
    when installed; otherwise the in-repo pure-Python object-container codec
    (``airbyte_ray.formats``, public Avro 1.x spec) — same file layout, so
    either library reads either output."""

    def to_avro(t: pa.Table) -> pa.Table:
        import uuid

        os.makedirs(path, exist_ok=True)
        # uuid, not id(t): CPython recycles object addresses, which silently
        # overwrote earlier blocks (review finding)
        fn = os.path.join(path, f"block-{os.getpid()}-{uuid.uuid4().hex[:12]}.avro")
        try:
            from fastavro import parse_schema, writer as avro_writer

            from ..formats import arrow_to_avro_schema

            sch = parse_schema(arrow_to_avro_schema(t.schema))
            with open(fn, "wb") as f:
                avro_writer(f, sch, t.to_pylist())
        except ImportError:
            from ..formats import write_avro_file

            write_avro_file(t, fn)
        return pa.table({"written": pa.array([t.num_rows], pa.int64())})

    dset.map_batches(to_avro, batch_format="pyarrow").sum("written")


def _read_avro(paths: list[str]) -> ray.data.Dataset:
    """Distributed Avro reader: one decode task per container file."""
    from ..formats import read_avro_file

    def decode(batch: pa.Table) -> pa.Table:
        tabs = [read_avro_file(p) for p in batch.column("path").to_pylist()]
        return pa.concat_tables(tabs, promote_options="default")

    return ray.data.from_items([{"path": p} for p in paths]).map_batches(
        decode, batch_format="pyarrow", batch_size=1
    )


def _parquet_files(src_paths) -> list[str]:
    """Expand files / dirs / globs to concrete parquet files (schema and
    footer reads need real files even though ray.data accepts dirs)."""
    import glob as _g

    out = []
    for p in [src_paths] if isinstance(src_paths, str) else list(src_paths):
        if os.path.isdir(p):
            out.extend(sorted(_g.glob(os.path.join(p, "**", "*.parquet"), recursive=True)))
        elif any(ch in p for ch in "*?["):
            out.extend(sorted(_g.glob(p)))
        else:
            out.append(p)
    return out


def _first_parquet(src_paths) -> str:
    files = _parquet_files(src_paths)
    if not files:
        raise FileNotFoundError(f"no parquet files under {src_paths}")
    return files[0]


def _footer_max(seg_dir: str, col: str):
    """Max of ``col`` over a segment directory from parquet footer row-group
    statistics — delegates to the shared (Ray-fanned-out past 256 files)
    helper in ``sources/event_log`` instead of a second hand-rolled
    leaf-index scan (review finding)."""
    from ..sources.event_log import stat_minmax

    if not os.path.isdir(seg_dir):
        return None  # empty sync: Ray writes no dir for a zero-row dataset
    return stat_minmax(seg_dir, col)[1]


def _stamp_and_part(t: pa.Table, pk: list[str], num_partitions: int, cursor: str | None) -> pa.Table:
    """Stamp emitted_at + partition id; per-batch pre-dedup combiner."""
    import datetime as _dt

    if EMITTED_AT not in t.schema.names:
        now = _dt.datetime.now(_dt.timezone.utc)
        t = t.append_column(EMITTED_AT, pa.array([now] * t.num_rows, pa.timestamp("us", tz="UTC")))
    t = _dedup_latest(t, pk, cursor)
    if len(pk) == 1:
        h = stable_hash(t[pk[0]].cast(pa.string()))
    else:
        h = np.zeros(t.num_rows, np.uint64)
        for c in pk:
            h = h * np.uint64(1099511628211) + stable_hash(t[c].cast(pa.string()))
    part = (h % np.uint64(num_partitions)).astype(np.int64)
    return t.append_column("part", pa.array(part))
