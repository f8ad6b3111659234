"""Cursor-based incremental sync (the non-CDC Airbyte path).

Reference semantics re-expressed (SURVEY §2.1/§2.4/§2.5):

* incremental read = ``WHERE cursor > state [ORDER BY cursor]``
  (``AbstractJdbcSource.java:307-360``) → predicate-pushed parquet read;
  at-least-once tie handling (the reference re-reads ``>=`` on ties,
  ``AbstractJdbcSource.java:322-334``) is subsumed by append_dedup's
  latest-per-key merge being idempotent for identical rows;
* state watermark = running ``max(cursor)``
  (``StateDecoratingIterator.java:113-171``) → the footer max of what the
  sync wrote, committed only after the destination write lands
  (``BufferedStreamConsumer.java:205-290`` committed-after-flush);
* destination modes (``airbyte-protocol.md:418-421``):
  ``overwrite`` → rewrite the stream directory,
  ``append`` → add a new segment directory per sync,
  ``append_dedup`` → a :class:`~.replay.LakeTable`: each sync's rows go in
  as upsert events (``lsn`` = the sync id, lake key = the primary key) and
  the lake keeps the latest row per key by ``(cursor desc,
  _airbyte_emitted_at desc)`` — the SCD2 active-row projection
  (``stream_processor.py:884-898, 1076-1115``).

Layout (resumable, per SURVEY §2.2 filename/partition layout)::

    <dest>/<stream>/seg-<sync_id>/part-*.parquet     # append / overwrite
    <dest>/<stream>/part=NNNNN/seg-<run id>.parquet  # append_dedup (LakeTable)
    <dest>/<stream>/_manifest/manifest.json          # append_dedup commit point
    <state_dir>/<stream>.json                        # committed cursor state
"""

from __future__ import annotations

import json
import os
import shutil
import time
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..config import DestinationSyncMode, StreamConfig, SyncMode
from ..sources.event_log import stat_minmax
from ..state.atomic import commit_json
from .replay import _META_COLS, DELETED_COL, LSN_COL, LakeTable, ReplayConfig

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
# append_dedup: a sync's rows as upsert events for the stream's LakeTable
# ---------------------------------------------------------------------------

#: columns a source cannot bring into an append_dedup destination: the lake's
#: event envelope (``_ab_cdc_*`` too, by prefix) and segment bookkeeping
_ENVELOPE = frozenset(_META_COLS) | {"tgt", LSN_COL, DELETED_COL}


def _check_envelope(names: list[str], pk: list[str]) -> None:
    """Refuse source columns named like the lake's envelope columns (and a
    ``doc_id`` that is not the whole primary key, which the lake key would
    replace): the lake would drop, overwrite or trip on them."""
    bad = [n for n in names if n in _ENVELOPE or n.startswith("_ab_cdc_")
           or (n == "doc_id" and pk != ["doc_id"])]
    if bad:
        raise ValueError(f"append_dedup source columns {bad} are lake envelope "
                         "columns; rename them before the sync")


def _dedup_policy(cursor: str | None) -> tuple:
    """Latest row per primary key by (cursor desc, emitted_at desc) — the
    SCD2 active-row projection (``stream_processor.py:884-898``)."""
    return tuple((c, "descending") for c in (cursor, EMITTED_AT) if c)


def _lake_key(t: pa.Table, pk: list[str]) -> pa.Array:
    """A collision-free string key of the primary-key columns: each value as
    ``<byte length>:<text>`` (``~:`` for null), joined by ``:``, so
    ``("a|b", "c")`` and ``("a", "b|c")`` stay apart."""
    parts = []
    for c in pk:
        s = pc.cast(t[c], pa.string())
        parts += [pc.fill_null(pc.cast(pc.binary_length(s), pa.string()), "~"),
                  pc.fill_null(s, "")]
    return pc.binary_join_element_wise(*parts, ":")


def _stamp(t: pa.Table, pk: list[str], sync_id: int) -> pa.Table:
    """One batch of a sync as upsert events: ``_airbyte_emitted_at`` (unless
    the rows carry one), ``lsn`` = the sync id (the lake's ``lsn >
    watermark`` guard makes a rerun of a committed sync a no-op), ``op`` and
    the lake key ``doc_id`` (the column itself when it is the primary key).
    Drops the schema metadata, whose pandas dict Ray Data warns about."""
    import datetime as _dt

    t = t.replace_schema_metadata(None)
    n = t.num_rows
    if EMITTED_AT not in t.schema.names:
        now = _dt.datetime.now(_dt.timezone.utc)
        t = t.append_column(EMITTED_AT, pa.repeat(pa.scalar(now, pa.timestamp("us", tz="UTC")), n))
    t = (t.append_column("lsn", pa.repeat(pa.scalar(sync_id, pa.int64()), n))
         .append_column("op", pa.repeat(pa.scalar("upsert"), n)))
    return t if pk == ["doc_id"] else t.append_column("doc_id", _lake_key(t, pk))


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

    def _lake(self, name: str, state: dict, cfg: StreamConfig | None = None) -> LakeTable:
        """The stream's append_dedup destination: a :class:`LakeTable` at
        ``<dest>/<stream>`` keyed by the primary key and ranked by
        :func:`_dedup_policy` (``cfg`` None: the lake's recorded policy).
        A stream state that lists ``dedup_segments`` comes from the layout
        before the lake, which has no manifest to read."""
        if "dedup_segments" in state:
            raise ValueError(f"stream {name}: its state lists dedup_segments, a destination "
                             "layout this engine no longer reads; re-sync into a fresh "
                             "destination")
        return LakeTable(self._stream_dir(name), None if cfg is None else ReplayConfig(
            cfg.num_partitions, merge_policy=_dedup_policy(cfg.cursor_field)))

    def sync(self, cfg: StreamConfig, src_paths: str | list[str],
             transform=None) -> dict:
        """Run one sync.  ``transform`` (optional ``pa.Table → pa.Table``,
        e.g. a composed declarative component chain) applies between read
        and write; it must preserve the cursor column for incremental
        state to advance."""
        st = StreamState(self.state_dir, cfg.name)
        state = st.load()
        if cfg.destination_sync_mode is DestinationSyncMode.append_dedup:
            lake = self._lake(cfg.name, state, cfg)
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
                shutil.rmtree(path)
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
        mx = rows = None
        if cfg.destination_sync_mode is DestinationSyncMode.append_dedup:
            # one lake commit (its manifest lists the files, schema and
            # partition count), then the state commit below; the lake
            # removes the files its commit superseded
            # the source file's schema (the read's schema() warns about its
            # pandas metadata) unless a transform reshapes it
            schema = src_schema if transform is None else getattr(ds.schema(), "base_schema", None)
            if schema is not None:
                _check_envelope(schema.names, cfg.primary_key)
                # the events' schema is the stamped source schema: probing
                # the mapped dataset would read and stamp a block twice
                stamp = partial(_stamp, pk=cfg.primary_key, sync_id=sync_id)
                lake._apply(stamp(schema.empty_table()).schema, lake.config.delta_mode,
                            ds.map_batches(stamp, batch_format="pyarrow"), lake.manifest.watermark)
            state["primary_key"] = cfg.primary_key
            rows = lake.manifest.lineage_rows()
        elif cfg.destination_sync_mode is DestinationSyncMode.overwrite:
            _write(ds, os.path.join(sdir, seg))
            stale_dirs = [s for s in state.get("segments", []) if s != seg]
            state["segments"] = [seg]  # visibility flips at state commit
        else:  # append
            _write(ds, os.path.join(sdir, seg))
            state["segments"] = state.get("segments", []) + [seg]

        # state committed only after the write landed.  Max-cursor comes from
        # footer stats of what the write left (the just-written segment, or
        # the lake's live files: a rerun the lake refused still commits the
        # cursor of the rows it holds) — ONE source pass per sync; only the
        # non-parquet append formats (no footer stats) re-scan the source.
        if cfg.sync_mode is SyncMode.incremental and cfg.cursor_field:
            if cfg.destination_sync_mode is DestinationSyncMode.append_dedup:
                mx = stat_minmax(lake.segment_paths(), cfg.cursor_field)[1]
            elif cfg.format == "parquet":
                seg_dir = os.path.join(sdir, seg)  # Ray writes none for zero rows
                mx = stat_minmax(seg_dir, cfg.cursor_field)[1] if os.path.isdir(seg_dir) else None
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

    # -- read back ---------------------------------------------------------
    def read(self, stream: str, dedup: bool = False, format: str = "parquet") -> ray.data.Dataset:
        """Committed view of a stream (only state-visible segments)."""
        sdir = self._stream_dir(stream)
        st = StreamState(self.state_dir, stream).load()
        if dedup:
            ds = self._lake(stream, st).read()
            pk = st.get("primary_key")
            return ds if pk in (None, ["doc_id"]) else ds.drop_columns(["doc_id"])
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
