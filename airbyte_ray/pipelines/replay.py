"""The flagship pipeline: CDC change-event replay → exactly-once lake upsert.

Re-expresses the reference's append-dedup merge (``base-normalization/.../
stream_processor.py:742-1011`` — SCD2 window: ``row_number() over (partition
by unique_key order by cursor desc) = 1``, active iff not deleted, replay
dedup of identical redeliveries) as an idiomatic Ray Data plan.  Every
entry point hands its window to ONE planner, ``_apply_targets``, as a list
of *targets* — one lake's kernel ctx each, plus its row filter (``lsn >``
the lake's watermark; ``stream == name`` in a shared WAL):

    scan_event_log(lsn window)      # ONE footer pass: schema, files, row bound
                                    # (a Dataset: its blocks and their rows)
    route: read row groups + lsn mask → conform → tag part, target → sort
    merge: _merge_partition per (target, part) slice
    both in one window task per window within _one_task_rows() (or per
      range of shards); else route tasks over ranges of files, each
      returning one slice per merge range of (target, part) keys, → merge
      tasks, one per merge range
    → lineage rows (≤ P small rows per target) → each lake's manifest.commit()
      → remove every file a new partition entry no longer lists

``apply_log`` is the one-target case; ``apply_partitioned`` runs one window
task per range of shards and raises before any write if a shard holds
another partition's key; ``CdcCatalogEngine.sync_shared`` passes one target
per stream.  The kernel (``_merge_partition``) writes both modes: the full
rewrite (copy-on-write) and a delta file resolved at read (merge-on-read);
in delta mode it folds a chain that already holds ``auto_compact_deltas``
files with the full rewrite, so auto-compaction is the apply's own commit.
Committed rows meet new ones in ONE place, ``_resolve_partition`` (full
rewrite, fold, ``compact()``, merge-on-read): window events ++ deltas
(newest first) ++ base, ranked under the merge policy the lake's manifest
records — ``_policy_order`` + ``_first_per_key``, ``lww_reduce``'s rule
too — so delta mode takes any policy.  ``read()``, ``compact()``, the
aligned window tasks and the exchange's route and merge tasks run one task
per range of contiguous partitions, shards, files or keys, cut by
``_cut``: about one per CPU, of about equal rows, none over
``_one_task_rows()`` unless one is larger.

Every segment is written by ``_write_segment`` and decoded by
``_read_segment``, and no other code knows its physical form: Parquet,
zstd without dictionary pages, each ``list<integer|floating>`` column
(``tokens``) packed as a ``large_binary`` column whose rows are the lists'
raw little-endian values (zero-copy both ways), so Parquet encodes and
decodes one BYTE_ARRAY instead of nested-list levels.  A column whose
lists hold a null element, and every column on a big-endian host, keeps
the list form; files in list form, from before or mixed into a partition,
read the same.

Why this shape at 100 TB:

* the only exchange hands each merge task one sorted slice per route task
  as a Ray object (no Ray Data shuffle, no combiner; BASELINE.md "One
  apply engine"), and a small window (most CDC commits) has none;
* exactly-once: segments have deterministic paths derived from the committed
  manifest (``LakeTable._run_id``), never a path it lists; a retried/crashed
  run rewrites identical bytes; visibility is the atomic manifest replace
  (BufferedStreamConsumer commit discipline, ``BufferedStreamConsumer.java:205-290``);
* monotonic-LSN guard: the read filters ``lsn > watermark``, so stale
  redeliveries from previous runs never re-enter (the reference's
  ``isRecordBehindOffset`` / row_number replay-dedup,
  ``DebeziumStateDecoratingIterator.java:162-167``).

Partition-count rule of thumb: keys/partition × row-bytes must fit a worker
task heap — at 10^9 keys × ~1 KiB rows choose P ≈ 8–16k so a partition is
~64–128 MiB; P is fixed per lake at init and reused by every run (one
partitioning key for the table's lifetime).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockAccessor

from ..config import cluster_cpus
from ..exchange import fan, returns, split
from ..schemas import CDC_DELETED_AT, CDC_UPDATED_AT, conform_table, unify_schemas
from ..sources.event_log import EventLogScan, scan_event_log
from ..state.atomic import replace_atomically
from ..state.manifest import Manifest, PartitionEntry

#: event-envelope columns that are not payload
_META_COLS = (
    "lsn", "op", CDC_UPDATED_AT, CDC_DELETED_AT, "part",
    "_ab_cdc_snapshot",  # explicit snapshot-event flag (envelope, not payload)
)
#: internal columns stored in lake segments alongside the payload
LSN_COL = "_ab_lsn"
#: tombstone marker column — present only in DELTA segment files (a delete
#: must survive as a row so merge-on-read can drop the base row it shadows)
DELETED_COL = "_ab_deleted"


def stable_hash(ids: pa.ChunkedArray | pa.Array | np.ndarray) -> np.ndarray:
    """Deterministic (cross-process) uint64 hash of a string key column.
    pandas' ``hash_array`` is keyed SipHash with a fixed default key, so the
    same doc_id maps to the same partition on every worker of every run."""
    if isinstance(ids, (pa.ChunkedArray, pa.Array)):
        ids = ids.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(ids, dtype=object), categorize=False)


#: default merge policy — max-lsn wins (the unique monotonic WAL cursor)
DEFAULT_POLICY: tuple = (("lsn", "descending"),)


def _full_policy(policy) -> tuple:
    """A ``((col, direction), …)`` comparator chain (None: max lsn) with a
    trailing lsn tiebreaker, so the ranking is total (redeliveries collapse)."""
    policy = tuple(map(tuple, policy or DEFAULT_POLICY))
    return policy if any(c == "lsn" for c, _ in policy) else policy + (("lsn", "descending"),)


def _policy_order(t: pa.Table, policy: tuple | None, lsn: str = "lsn") -> np.ndarray:
    """Row indices of ``t`` ranked best-first (stably) under ``policy``
    (see :func:`_full_policy`), its ``lsn`` read from column ``lsn``
    (``_ab_lsn`` in segment space)."""
    policy = _full_policy(policy)
    cols = [t[lsn if c == "lsn" else c] for c, _ in policy]
    if len(cols) == 1:
        order = pc.array_sort_indices(cols[0], order=policy[0][1])
    else:
        order = pc.sort_indices(pa.table({str(i): c for i, c in enumerate(cols)}),
                                sort_keys=[(str(i), d) for i, (_, d) in enumerate(policy)])
    return order.to_numpy().astype(np.int64)


def _first_per_key(ids: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The winner per key: its first row in ranked ``order``; the winner
    indices, in rank order."""
    return order[~pd.Index(ids[order]).duplicated(keep="first")]


def lww_reduce(t: pa.Table, policy: tuple | None = None) -> pa.Table:
    """Vectorized last-writer-wins: keep the winning row per doc_id under
    ``policy`` (see :func:`_policy_order`), the reference's ``row_number()
    over (order by cursor desc, _ab_cdc_updated_at desc, log_pos desc) = 1``
    window (stream_processor.py:750-805, 884-898).  Default: max lsn."""
    if t.num_rows == 0:
        return t
    # rank → first occurrence per key → ONE gather (no full sorted copy)
    order = _policy_order(t, policy)
    return t.take(pa.array(_first_per_key(t["doc_id"].to_numpy(zero_copy_only=False), order)))


def _part_of(ids: pa.ChunkedArray, num_partitions: int) -> pa.Array:
    """Each key's hash partition — the lake's one partitioning rule."""
    return pa.array((stable_hash(ids) % np.uint64(num_partitions)).astype(np.int64))


def _payload_schema(ev_schema: pa.Schema) -> pa.Schema:
    """doc_id + the payload columns of an event (or snapshot) schema."""
    return pa.schema([pa.field(n, t) for n, t in zip(ev_schema.names, ev_schema.types)
                      if n not in _META_COLS and n != "op"])


def _seg_schema_of(out_schema: pa.Schema) -> pa.Schema:
    return pa.schema(
        list(out_schema)
        + [pa.field(LSN_COL, pa.int64()), pa.field(CDC_UPDATED_AT, pa.timestamp("us", tz="UTC"))]
    )


def _resolve_partition(lake_dir: str, paths: list[str], deltas: list[str],
                       seg_schema: pa.Schema, policy: tuple, window: pa.Table | None = None
                       ) -> tuple[pa.Table, np.ndarray | None, np.ndarray | None]:
    """Where committed rows meet new ones: rank one partition's rows under
    the lake's merge ``policy`` — a write's ``window`` events in segment
    space (tombstones flagged ``_ab_deleted``), its deltas newest first,
    its base — so a tie goes to the newer write.  A key's first row wins
    unless it is a tombstone, which removes the rows written before it and
    is then gone, as in the full rewrite that applied it: the key's rows
    written after it rank again.  Each file is read on its own with
    :func:`_read_segment` and conformed to the lake's schema, whatever
    encoding or form wrote it.  Returns the rows, the live
    winners' indices for ONE ``take`` (None: base files alone, all live)
    and, for a write, each key's winner among the window's events."""
    base = [_read_segment(os.path.join(lake_dir, p), seg_schema) for p in paths]
    if window is None and not deltas:
        return (pa.concat_tables(base) if base else seg_schema.empty_table()), None, None
    dead_schema = pa.schema(list(seg_schema) + [pa.field(DELETED_COL, pa.bool_())])
    base = [b.append_column(DELETED_COL, pa.array(np.zeros(b.num_rows, bool))) for b in base]
    news = (([] if window is None else [conform_table(window, dead_schema)])
            + [_read_segment(os.path.join(lake_dir, p), dead_schema) for p in reversed(deltas)])
    # nested field names (list<item> vs list<element>) follow the oldest
    # input, so a rewrite keeps the names its partition's files had
    rows = pa.Table.from_arrays(pa.concat_tables(news + base).columns,
                                schema=(base or news[::-1])[0].schema)
    ids = rows["doc_id"].to_numpy(zero_copy_only=False)
    dead = pc.fill_null(rows[DELETED_COL], False).to_numpy(zero_copy_only=False)
    sizes = [n.num_rows for n in news]
    age = np.repeat(np.arange(len(news) + 1), sizes + [rows.num_rows - sum(sizes)])  # 0: newest
    ranked = _policy_order(rows, policy, lsn=LSN_COL)
    win = None if window is None else _first_per_key(ids, ranked[ranked < sizes[0]])
    live = [ranked[:0]]
    while ranked.size:
        first = _first_per_key(ids, ranked)
        live.append(first[~dead[first]])
        tomb = first[dead[first] & (age[first] > 0)]  # none newer than the window
        if not tomb.size:
            break
        # next round: the rows of each tombstoned key written after its tombstone
        ranked = ranked[age[ranked] < age[tomb].max()]
        at = pd.Index(ids[tomb]).get_indexer(ids[ranked])
        ranked = ranked[age[ranked] < np.append(age[tomb], -1)[at]]
    return rows.drop_columns([DELETED_COL]), np.concatenate(live), win


def _live_rows(lake_dir: str, paths: list[str], deltas: list[str], seg_schema: pa.Schema,
               policy: tuple, schema: pa.Schema) -> pa.Table:
    """One partition's live rows (merge-on-read) sorted by doc_id, whatever
    its files' history, conformed to ``schema``."""
    rows, idx, _ = _resolve_partition(lake_dir, paths, deltas, seg_schema, policy)
    return conform_table(_take_sorted(rows, idx), schema)


def _take_sorted(rows: pa.Table, idx: np.ndarray | None) -> pa.Table:
    """Rows ``idx`` of ``rows`` (all when None) sorted by doc_id — in the
    REAL key type ("10" < "9" as strings) — through one ``take`` (none when
    all rows are already in that order)."""
    keys = rows["doc_id"] if idx is None else rows["doc_id"].take(pa.array(idx))
    order = pc.array_sort_indices(keys).to_numpy()
    if idx is None and (order[1:] > order[:-1]).all():
        return rows
    return rows.take(pa.array(order if idx is None else idx[order]))


_LINEAGE_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("path", pa.string()),
        ("rows", pa.int64()),
        ("lsn_lo", pa.int64()),
        ("lsn_hi", pa.int64()),
        ("n_events", pa.int64()),
        ("checksum", pa.int64()),
        ("is_delta", pa.bool_()),
        ("folded", pa.bool_()),  # a full rewrite that folded a delta chain
    ]
)


#: field metadata of a packed segment column: the list type it holds, as a
#: serialized one-field schema
_PACKED_KEY = b"airbyte_ray.packed_list"


def _packable(typ: pa.DataType) -> bool:
    return ((pa.types.is_list(typ) or pa.types.is_large_list(typ))
            and (pa.types.is_integer(typ.value_type) or pa.types.is_floating(typ.value_type)))


def _validity(a: pa.Array) -> pa.Buffer | None:
    """``a``'s validity bitmap, starting at its first row (None: no nulls)."""
    if not a.null_count:
        return None
    return a.buffers()[0] if a.offset == 0 else pc.is_valid(a).buffers()[1]


def _write_segment(lake_dir: str, part: int, rel: str, seg: pa.Table,
                   lsn_lo: int = 0, lsn_hi: int = 0, n_events: int = 0,
                   is_delta: bool = False) -> dict:
    """Write one segment file atomically (:func:`replace_atomically`) and return
    its lineage row — the lake's only writer (bootstrap, delta, full
    rewrite, fold, ``compact()``).  Segments are zstd without dictionary
    pages: ``tokens`` holds ~50k distinct ids in a 2.6k-row partition, where
    a dictionary page cost write CPU and bytes and saved nothing (zstd
    without it: 44% less write CPU, 15% fewer bytes, reads ~10% slower;
    BASELINE.md "Segment I/O").

    Each ``list<integer|floating>`` column is stored *packed*: a
    ``large_binary`` column whose row holds that list's raw little-endian
    values (a null list stays null), its field metadata naming the list
    type, so Parquet encodes and decodes one BYTE_ARRAY instead of its
    nested-list levels (about half the CPU; BASELINE.md "Packed token
    lists").  The conversion is zero-copy, chunk by chunk: the offsets
    times the value width, the values buffer as is.  A column whose lists
    hold a null element keeps the list form, as does every column on a
    big-endian host.  :func:`_read_segment` is the one reader; it reads
    both forms, and the files written before, snappy with dictionary pages
    or zstd in list form, read the same.  Footer statistics are written
    for flat columns only (a sync reads its cursor's max from them): a
    packed row's min and max would cost up to 4 KB each in every page
    header, 3% more bytes in a 400-row delta file.

    The path is deterministic, so a retried task rewrites identical bytes;
    the checksum is an order-insensitive hash of the file's (doc_id,
    _ab_lsn) pairs: the exact sum of one uint64 per row, mod 2^63 − 1, so
    the checksums of the files a partition's rows are split into add up to
    the same value."""
    def pack(a: pa.Array) -> pa.Array:
        v = a.values  # the whole child: offsets index it from its own offset
        w = v.type.bit_width // 8
        offsets = (a.offsets.to_numpy().astype(np.int64) + v.offset) * w
        return pa.Array.from_buffers(pa.large_binary(), len(a), [
            _validity(a), pa.py_buffer(offsets), v.buffers()[1] or pa.py_buffer(b"")],
            a.null_count)

    def null_element(a: pa.Array) -> bool:
        lo, hi = a.offsets[0].as_py(), a.offsets[-1].as_py()
        return a.values.slice(lo, hi - lo).null_count > 0

    fields, cols, stats = list(seg.schema), seg.columns, []
    for i, f in enumerate(fields):
        if (sys.byteorder == "little" and _packable(f.type)
                and not any(null_element(c) for c in cols[i].chunks)):
            spec = pa.schema([pa.field(f.name, f.type)]).serialize().to_pybytes()
            fields[i] = pa.field(f.name, pa.large_binary(), f.nullable,
                                 {**(f.metadata or {}), _PACKED_KEY: spec})
            cols[i] = pa.chunked_array([pack(c) for c in cols[i].chunks], pa.large_binary())
        elif not pa.types.is_nested(f.type):
            stats.append(f.name)
    packed = pa.Table.from_arrays(cols, schema=pa.schema(fields, seg.schema.metadata))
    replace_atomically(os.path.join(lake_dir, rel), lambda tmp: pq.write_table(
        packed, tmp, compression="zstd", use_dictionary=False, write_statistics=stats))
    v = stable_hash(seg["doc_id"]) + seg[LSN_COL].to_numpy().astype(np.uint64)
    hi, lo = (v >> np.uint64(32)).sum(), (v & np.uint64(2**32 - 1)).sum()  # no wrap below 2^32 rows
    checksum = (int(hi) * 2**32 + int(lo)) % (2**63 - 1)
    return {"part": part, "path": rel, "rows": seg.num_rows, "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi, "n_events": n_events, "checksum": checksum,
            "is_delta": is_delta}


def _read_segment(path: str, seg_schema: pa.Schema) -> pa.Table:
    """Read one segment file and conform it to ``seg_schema`` — the one
    place segments are decoded.  A packed column (:func:`_write_segment`)
    gets back the list type its field metadata names, zero-copy: the
    offsets divided by the value width, the bytes buffer as the values.
    That is the manifest's own type unless the lake's schema widened since
    the file was written, which :func:`conform_table` then casts.  (A
    big-endian host byte-swaps the values, one copy.)  A file
    in list form reads as is, so lakes written before, and partitions whose
    files mix both forms, read the same.  ``ParquetFile.read``, not
    ``pq.read_table``, which sets up a one-file dataset per call."""
    def unpack(a: pa.Array, typ: pa.DataType) -> pa.Array:
        w = typ.value_type.bit_width // 8
        offsets = np.frombuffer(a.buffers()[1], np.int64, len(a) + 1, a.offset * 8)
        if (offsets % w).any():
            raise ValueError(f"{path}: a packed list row is not whole {typ.value_type} values")
        n, data = int(offsets[-1]) // w, a.buffers()[2] or pa.py_buffer(b"")
        if sys.byteorder != "little":  # the stored values are little-endian
            le = np.dtype(typ.value_type.to_pandas_dtype()).newbyteorder("<")
            data = pa.py_buffer(np.frombuffer(data, le, n).astype(le.newbyteorder("=")))
        values = pa.Array.from_buffers(typ.value_type, n, [None, data])
        width = np.int32 if pa.types.is_list(typ) else np.int64
        return pa.Array.from_buffers(typ, len(a), [
            _validity(a), pa.py_buffer((offsets // w).astype(width))], a.null_count,
            children=[values])

    with pq.ParquetFile(path) as f:
        t = f.read(use_threads=False)
    fields, cols = list(t.schema), t.columns
    for i, f in enumerate(fields):
        meta = dict(f.metadata or {})
        if spec := meta.pop(_PACKED_KEY, None):
            typ = pa.ipc.read_schema(pa.py_buffer(spec)).field(0).type
            fields[i] = pa.field(f.name, typ, f.nullable, meta or None)
            cols[i] = pa.chunked_array([unpack(c, typ) for c in cols[i].chunks], typ)
    return conform_table(pa.Table.from_arrays(cols, schema=pa.schema(fields)), seg_schema)


def _remove_files(lake_dir: str, rels: list[str]) -> None:
    """Remove superseded segment files.  Call only after the manifest commit
    that stopped listing them has landed; :meth:`LakeTable.vacuum` sweeps
    what a crash in between leaves."""
    for rel in rels:
        try:
            os.remove(os.path.join(lake_dir, rel))
        except FileNotFoundError:
            pass


def _merge_partition(t: pa.Table, part: int, ctx: dict) -> pa.Table:
    """The merge kernel: apply one hash partition's change events ``t`` and
    write its new segment — the full rewrite (copy-on-write: the live
    winners of :func:`_resolve_partition` over the events and the
    committed rows, sorted by doc_id, through ONE ``take``) or, in delta
    mode over an existing base, only the events' winners as a delta file
    resolved at read (merge-on-read; never reads the old partition).  A
    delta chain that already holds ``ctx["auto_compact_deltas"]`` files
    takes the full rewrite instead (lineage ``folded``).  Returns a one-row
    lineage table.  Runs on one (target, part) slice of a window's
    events."""
    policy = ctx.get("policy")
    delta_mode = bool(ctx.get("delta_mode"))
    out_schema = pa.ipc.read_schema(pa.BufferReader(ctx["schema"]))
    seg_schema = _seg_schema_of(out_schema)

    old_entry = ctx["old_segments"].get(part)
    k = ctx.get("auto_compact_deltas")
    fold = bool(delta_mode and old_entry and k and len(old_entry["deltas"]) >= k)
    delta_write = delta_mode and old_entry is not None and not fold
    # lift the events into segment space: metadata-only ops, no row gather
    ts_type = pa.timestamp("us", tz="UTC")
    ev = conform_table(t, out_schema).append_column(LSN_COL, t["lsn"])
    ev = ev.append_column(
        CDC_UPDATED_AT, t[CDC_UPDATED_AT].cast(ts_type) if CDC_UPDATED_AT in t.schema.names
        else pa.nulls(t.num_rows, ts_type))
    ev = conform_table(ev, seg_schema).append_column(DELETED_COL, pc.equal(t["op"], "delete"))

    if delta_write:
        # tombstones stay as flagged rows so merge-on-read can shadow the base
        win_idx = _first_per_key(ev["doc_id"].to_numpy(zero_copy_only=False),
                                 _policy_order(ev, policy, lsn=LSN_COL))
        new_seg = ev.take(pa.array(win_idx))
        rel = os.path.join(f"part={part:05d}", f"delta-{ctx['run_id']:014d}.parquet")
    else:
        old = old_entry or {"paths": [], "deltas": []}
        rows, idx, win_idx = _resolve_partition(ctx["lake_dir"], old["paths"], old["deltas"],
                                                seg_schema, policy, ev)
        new_seg = _take_sorted(rows, idx)
        rel = os.path.join(f"part={part:05d}", f"seg-{ctx['run_id']:014d}.parquet")

    # lineage: lsn_lo is the window's winners' min lsn; lsn_hi the max lsn
    # CONSUMED (incl. policy losers: under a custom policy the survivors'
    # max would stall the watermark); n_events counts the slice's events
    lsn = t["lsn"].to_numpy()
    row = _write_segment(ctx["lake_dir"], part, rel, new_seg, int(lsn[win_idx].min()),
                         int(lsn.max()), t.num_rows, delta_write)
    return pa.Table.from_pylist([dict(row, folded=fold)], schema=_LINEAGE_SCHEMA)


#: a bootstrap task's lineage rows also carry its batch's payload schema
_BOOTSTRAP_LINEAGE_SCHEMA = _LINEAGE_SCHEMA.append(pa.field("schema", pa.binary()))


def _bootstrap_batch(t: pa.Table, ctx: dict) -> pa.Table:
    """Zero-exchange bootstrap task: split one batch of the snapshot by key
    hash and write a file per touched partition, in the batch's own payload
    schema (:func:`_payload_schema`), which each lineage row carries
    serialized for :meth:`LakeTable.init_snapshot` to unify.  File names
    are content-derived (hash of the batch's doc_ids) so task retries
    rewrite identical bytes."""
    import hashlib as _hl

    if t.num_rows == 0:
        return _BOOTSTRAP_LINEAGE_SCHEMA.empty_table()
    out_schema = _payload_schema(t.schema)
    seg_schema = _seg_schema_of(out_schema)
    P = ctx["num_partitions"]
    part = _part_of(t["doc_id"], P).to_numpy()
    order = np.argsort(part, kind="stable")
    sorted_t = t.take(pa.array(order))
    sorted_part = part[order]
    bounds = np.searchsorted(sorted_part, np.arange(P + 1))
    batch_id = _hl.md5(
        (str(t.num_rows) + "|" + str(t["doc_id"][0].as_py()) + "|"
         + str(t["doc_id"][-1].as_py())).encode()
    ).hexdigest()[:10]
    rows = []
    for p in range(P):
        lo, hi = bounds[p], bounds[p + 1]
        if hi == lo:
            continue
        sub = conform_table(sorted_t.slice(lo, hi - lo), out_schema)
        sub = sub.append_column(LSN_COL, pa.array(np.zeros(sub.num_rows, np.int64)))
        sub = sub.append_column(
            CDC_UPDATED_AT, pa.nulls(sub.num_rows, pa.timestamp("us", tz="UTC"))
        )
        sub = conform_table(sub, seg_schema)
        rel = os.path.join(f"part={p:05d}", f"seg-{0:014d}-{batch_id}.parquet")
        # _ab_lsn is 0 here, so the checksum is the plain doc_id hash sum
        rows.append(_write_segment(ctx["lake_dir"], p, rel, sub, n_events=sub.num_rows))
    schema = out_schema.serialize().to_pybytes()
    return pa.Table.from_pylist([dict(r, schema=schema) for r in rows],
                                schema=_BOOTSTRAP_LINEAGE_SCHEMA)


def _one_task_rows() -> int:
    """The largest window (footer row bound, or a Dataset's block rows)
    the planner runs as one task, the most rows a bootstrap task takes from
    the snapshot, and the most rows a range of :func:`_cut` holds (manifest
    rows of partitions, row bounds of shards, files or blocks, rows of
    exchange keys) unless one item is larger on its own.

    Measured against the Ray Data exchange this planner no longer has
    (4-core VM, Ray 2.49.2; BASELINE.md has the grid): at 1 CPU one task
    won on every window up to 204k rows (2.15 vs 11.85 s), with more CPUs
    up to 12.3k rows (1.7–5.6×, delta mode, P=8).  Not re-measured against
    the route → merge tasks, nor for ranges or bootstrap tasks."""
    return 200_000 if cluster_cpus() <= 1 else 12_000


def _cut(items: list, rows: list[int]) -> list[list]:
    """``items`` (of ``rows`` rows each) in contiguous ranges of about equal
    rows, in order: about one range per CPU, none over
    :func:`_one_task_rows` rows unless one item is larger."""
    per = min(sum(rows) / cluster_cpus(), _one_task_rows())
    ranges, acc = [], 0
    for item, n in zip(items, rows):
        if not ranges or acc + n > per:
            ranges.append([])
            acc = 0
        ranges[-1].append(item)
        acc += n
    return ranges


@dataclass
class _Target:
    """One lake a window applies to: the merge kernel's ``ctx`` (from
    :meth:`LakeTable._plan_ctx`), the lake's partition count, and the row
    filter — ``lsn > min_lsn`` and, in a shared WAL, ``stream == (column,
    name)``.  ``min_lsn`` is None when the input holds no older rows: a
    footer scan from the lake's own watermark reads only ``lsn >`` it, and
    a backfill chunk is stamped at it on purpose."""

    ctx: dict
    num_partitions: int
    min_lsn: int | None
    stream: tuple[str, str] | None = None


@dataclass
class _Blocks:
    """Dataset input in the shape the planner reads an :class:`EventLogScan`
    in: a Dataset's blocks stand for files (``files`` are block indices,
    ``file_rows`` each block's rows from its metadata)."""

    refs: list
    file_rows: list[int]
    schema: pa.Schema | None

    @classmethod
    def of(cls, ds: ray.data.Dataset, schema: pa.Schema | None = None) -> _Blocks:
        """``ds``'s block refs and rows, in one pass over its bundles: a
        lazy Dataset runs once, streaming, and its blocks stay alive while
        the refs do; a materialized one hands over its blocks.  Without a
        ``schema``, the bundles' Arrow schemas, unified (None: no Arrow
        block).  (``materialize()`` first would re-plan the finished
        Dataset here, which at 1 CPU logged that no CPU was available.)"""
        bundles = list(ds.iter_internal_ref_bundles())
        if schema is None:
            schemas = [b.schema for b in bundles if isinstance(b.schema, pa.Schema)]
            schema = reduce(unify_schemas, schemas) if schemas else None
        blocks = [b for bundle in bundles for b in bundle.blocks]
        return cls([ref for ref, _ in blocks], [meta.num_rows for _, meta in blocks], schema)

    def __post_init__(self):
        self.files = list(range(len(self.refs)))
        self.rows = sum(self.file_rows)

    def table(self, blocks: list[int]) -> pa.Table:
        """Blocks ``blocks`` as one table, each converted to Arrow here (a
        pandas block too) and conformed to ``schema``."""
        parts = [conform_table(BlockAccessor.for_block(b).to_arrow(), self.schema)
                 for b in ray.get([self.refs[i] for i in blocks])]
        return pa.concat_tables(parts) if parts else self.schema.empty_table()


def _route(t: pa.Table, targets: list[_Target]) -> pa.Table:
    """Keep each target's rows of one batch of the window, tag them with
    their ``part`` and target index ``tgt``, and sort them by (tgt, part)
    (stably: a key's events keep the window's order; :func:`_by_key`)."""
    subs = []
    for i, tg in enumerate(targets):
        sub = t
        if tg.min_lsn is not None:
            sub = sub.filter(pc.greater(sub["lsn"], pa.scalar(tg.min_lsn, pa.int64())))
        if tg.stream is not None:
            col, name = tg.stream
            sub = sub.filter(pc.equal(sub[col], name)).drop_columns([col])
        sub = sub.append_column("part", _part_of(sub["doc_id"], tg.num_partitions))
        subs.append(sub.append_column("tgt", pa.array(np.full(sub.num_rows, i, np.int64))))
    return _by_key(pa.concat_tables(subs))


def _by_key(t: pa.Table) -> pa.Table:
    """Routed rows ``t`` stably sorted by (tgt, part), or ``t`` itself when
    they already come in that order (an aligned shard's rows do): no
    gather."""
    tgt, prt = t["tgt"].to_numpy(), t["part"].to_numpy()
    dt = np.diff(tgt)
    if ((dt > 0) | ((dt == 0) & (np.diff(prt) >= 0))).all():
        return t
    return t.sort_by([("tgt", "ascending"), ("part", "ascending")])


def _merge_routed(t: pa.Table, targets: list[_Target]) -> list[dict]:
    """The merge body: the merge kernel on each (tgt, part) slice of routed
    rows ``t``; returns the lineage rows, tagged ``tgt``."""
    tgt, prt = t["tgt"].to_numpy(), t["part"].to_numpy()
    starts = np.flatnonzero(np.diff(tgt, prepend=-1) | np.diff(prt, prepend=-1))
    return [dict(row, tgt=int(tgt[i]))
            for i, n in zip(starts, np.diff(starts, append=t.num_rows))
            for row in _merge_partition(t.slice(i, n), int(prt[i]),
                                        targets[tgt[i]].ctx).to_pylist()]


@ray.remote
def _apply_window(scan: EventLogScan | _Blocks, targets: list[_Target],
                  shards: list[tuple[int, list[str]]] | None = None) -> list[dict]:
    """The window task: route the window (:meth:`EventLogScan.table`: the
    row groups the footer pass found, masked to the lsn bounds; or a
    Dataset's blocks), then merge.  Over a range of shards of key-partitioned
    input (``shards``: each one's part and files) it routes every shard
    first and raises before any write if a row belongs to another partition.
    Returns the lineage rows, tagged ``tgt``; a retried task rewrites
    identical bytes (the kernel's paths and output are deterministic)."""
    routed = []
    for part, files in shards or [(None, scan.files)]:
        t = _route(scan.table(files), targets)
        bad = 0 if part is None else int(np.count_nonzero(t["part"].to_numpy() != part))
        if bad:
            raise ValueError(f"shard part={part}: {bad} rows hash to other partitions — "
                             "input is not aligned with the lake partitioning; use apply_log()")
        routed.append(t)
    return [r for t in routed for r in _merge_routed(t, targets)]


@ray.remote
def _route_range(scan: EventLogScan | _Blocks, targets: list[_Target], files: list,
                 cuts: list[int]) -> pa.Table | list[pa.Table]:
    """A route task of the keyed exchange: route one range of the window's
    files (or blocks); one slice (return object) per merge range ``j``, the
    rows whose (tgt, part) key number is in ``[cuts[j], cuts[j + 1])``."""
    t = _route(scan.table(files), targets)
    first = np.cumsum([0] + [tg.num_partitions for tg in targets])
    return returns(split(t, first[t["tgt"].to_numpy()] + t["part"].to_numpy(), cuts))


@ray.remote
def _merge_range(targets: list[_Target], *slices: pa.Table) -> list[dict]:
    """A merge task of the keyed exchange: one merge range's slices from
    every route task, in range order, through the merge body."""
    return _merge_routed(_by_key(pa.concat_tables(slices)), targets)


@ray.remote
def _compact_range(lake_dir: str, entries: list[PartitionEntry], seg_schema: pa.Schema,
                   policy: tuple, name: str) -> list[dict]:
    """:meth:`LakeTable.compact`'s task: resolve a range's partitions one at
    a time, each into one segment ``name`` sorted by doc_id; returns their
    lineage rows."""
    lineage = []
    for e in entries:
        rows, idx, _ = _resolve_partition(lake_dir, e.paths, e.delta_paths, seg_schema, policy)
        rel = os.path.join(f"part={e.part:05d}", name)
        lineage.append(_write_segment(lake_dir, e.part, rel, _take_sorted(rows, idx)))
    return lineage


def _apply_targets(source: EventLogScan | _Blocks, targets: list[_Target],
                   shards: dict[int, list[str]] | None = None
                   ) -> tuple[list[list[dict]], str, int | None]:
    """The one apply planner: apply one window of change events (a footer
    scan, or a Dataset's blocks) to every target.  Returns each target's
    lineage rows, the plan, and the row bound it was picked from:

    * ``aligned`` — key-partitioned input (``shards``: part → files): one
      window task per range of shards (:func:`_cut` over the footer row
      bounds);
    * ``one_task`` — a window whose row bound fits :func:`_one_task_rows`:
      one window task;
    * ``exchange`` — otherwise: one route task per range of files or blocks
      (:func:`_cut` over their row bounds), each returning one slice per
      merge range — a contiguous run of (tgt, part) keys cut as if rows
      spread evenly over keys — then one merge task per merge range."""
    est = None if shards is not None else source.rows
    args = ray.put(source), ray.put(targets)  # shipped once, not once per task
    if shards is not None:
        plan = "aligned"
        items = sorted(shards.items())
        ranges = _cut(items, [sum(source.file_rows[f] for f in fs) for _, fs in items])
        lineage = [r for rows in ray.get([_apply_window.remote(*args, rng)
                                          for rng in ranges]) for r in rows]
    elif est <= _one_task_rows():
        plan = "one_task"
        lineage = ray.get(_apply_window.remote(*args))
    else:
        plan = "exchange"
        keys = sum(tg.num_partitions for tg in targets)
        cuts = [rng[0] for rng in _cut(list(range(keys)), [est / keys] * keys)]
        slices = [fan(_route_range, len(cuts), *args, rng, cuts)
                  for rng in _cut(source.files, [source.file_rows[f] for f in source.files])]
        lineage = [r for rows in ray.get([_merge_range.remote(args[1], *col)
                                          for col in zip(*slices)]) for r in rows]
    by_target: list[list[dict]] = [[] for _ in targets]
    for r in lineage:
        by_target[r.pop("tgt")].append(r)
    return by_target, plan, est


@dataclass
class ReplayConfig:
    """Per-lake replay settings.  Every apply runs through one planner
    (:func:`_apply_targets`), sized to the window by :func:`_one_task_rows`:
    one task for a small window (or one per range of shards of
    key-partitioned input), else the keyed exchange — route tasks over
    ranges of the window's files, merge tasks over ranges of partitions."""

    num_partitions: int = 64
    #: write per-run delta files instead of rewriting touched partitions'
    #: full segments (O(delta) apply cost; resolve at read or via compact())
    delta_mode: bool = False
    #: pluggable merge comparator (SURVEY §2.12): ordered (column, direction)
    #: chain deciding the winning row per key — the reference's
    #: `cursor desc, _ab_cdc_updated_at desc, log_pos desc` ORDER BY
    #: (stream_processor.py:750-805).  None → max-lsn LWW; a trailing
    #: ("lsn","descending") tiebreaker is implied.  Fixed at lake creation.
    merge_policy: tuple | None = None
    #: auto-compaction: a delta-mode apply folds each partition it touches
    #: whose chain already holds this many delta files — the merge kernel
    #: writes base + deltas + the window's winners as one base segment in
    #: the apply's own commit, so no chain exceeds this many files.  Bounds
    #: merge-on-read cost (task count and resolve work per read) without
    #: operator intervention.  None disables.
    auto_compact_deltas: int | None = None


class LakeTable:
    """A partitioned Parquet lake table with exactly-once CDC upsert apply.

    Layout::

        <lake_dir>/part=00017/seg-<run id>.parquet      # one live segment/partition
        <lake_dir>/_manifest/manifest.json              # atomic commit point
    """

    def __init__(self, lake_dir: str, config: ReplayConfig | None = None):
        self.lake_dir = lake_dir
        m = Manifest.load(lake_dir)
        if m is None:
            cfg = config or ReplayConfig()
            m = Manifest(cfg.num_partitions, merge_policy=_full_policy(cfg.merge_policy))
        elif config is not None and config.num_partitions != m.num_partitions:
            raise ValueError("num_partitions is fixed at first write")
        elif (config is not None and m.merge_policy is not None
              and _full_policy(config.merge_policy) != _full_policy(m.merge_policy)):
            raise ValueError(f"merge_policy is fixed at lake creation: {m.merge_policy}")
        self.manifest = m
        self.config = config or ReplayConfig(m.num_partitions, merge_policy=m.merge_policy)

    @property
    def policy(self) -> tuple:
        """The merge policy the lake's manifest records.  A manifest written
        before policies were recorded takes the config's, which the next
        commit records; with neither, max lsn."""
        return _full_policy(self.manifest.merge_policy or self.config.merge_policy)

    # -- write path --------------------------------------------------------
    def init_snapshot(self, base: ray.data.Dataset) -> dict:
        """Bootstrap the lake from an initial snapshot.

        Empty lake → ZERO-exchange fast path: ``map_batches`` bundles the
        blocks of ``base`` as given into tasks of up to
        :func:`_one_task_rows` rows (one task at 1 CPU for a snapshot
        within it); each splits its batch by key hash and writes one file
        per touched partition (``part=N/seg-…-<batchhash>.parquet``), so a
        partition holds at most one base file per bootstrap task — one pass
        over the data, no size or schema probe, no repartition, no shuffle,
        no merge (there is nothing to merge with): each task writes its
        batch's own payload schema and the manifest schema unifies the ones
        the tasks return, so the snapshot's upstream runs once per block.
        Snapshot rows have unique keys by
        contract, so multi-file partitions hold disjoint key sets and reads
        stay plain concats.  File names derive from batch content → a
        retried task rewrites identical bytes (idempotent).

        An already-initialized lake raises: snapshot events carry lsn 0,
        which the ``lsn > watermark`` replay guard would silently drop in
        full — a no-op that LOOKS like a successful re-snapshot (review
        finding).  Re-snapshot into a fresh lake dir instead."""
        m = self.manifest
        if m.watermark >= 0 or m.partitions:
            raise ValueError(
                "lake is already initialized (watermark "
                f"{m.watermark}); snapshot rows at lsn 0 would be dropped by "
                "the replay guard — bootstrap into a fresh lake directory"
            )

        ctx = {"lake_dir": self.lake_dir, "num_partitions": m.num_partitions}
        t0 = time.perf_counter()
        # a bound of 0 keeps whole blocks; an infinite one takes one bundle
        lineage = base.map_batches(
            partial(_bootstrap_batch, ctx=ctx), batch_format="pyarrow",
            batch_size=int(min(_one_task_rows(), sys.maxsize)) or None).take_all()
        # the batches' payload schemas, unified in a content order (task
        # completion order must not reach the manifest); every read
        # conforms each file to it
        schemas = sorted({r.pop("schema") for r in lineage})
        out_schema = reduce(unify_schemas, [pa.ipc.read_schema(pa.py_buffer(b)) for b in schemas],
                            m.schema or pa.schema([]))
        return self._commit(lineage, wm=-1, out_schema=out_schema,
                            elapsed=time.perf_counter() - t0, plan="bootstrap")

    def apply_log(self, paths: str | list[str], max_lsn: int | None = None,
                  delta: bool | None = None) -> dict:
        """Apply a change log from parquet (only lsn > watermark is read).
        ``delta=True`` writes per-run delta files instead of rewriting each
        touched partition's full segment — apply cost O(changes), bounded
        write amplification for hot partitions; resolve happens at read or
        via :meth:`compact`.  The plan is sized to the window: one footer
        pass bounds its rows, and a window within :func:`_one_task_rows`
        runs as one task with no exchange."""
        # ONE footer pass yields the schema, the files and the row bound
        scan = scan_event_log(paths, min_lsn=self.manifest.watermark, max_lsn=max_lsn)
        return self._apply(scan.schema, self.config.delta_mode if delta is None else delta,
                           scan, None)

    def apply_chunked(self, paths: str | list[str], chunk_lsns: int,
                      delta: bool | None = None) -> list[dict]:
        """Checkpointed replay: apply in LSN windows of ``chunk_lsns``, one
        manifest commit per window (the CDC checkpoint-cadence analog,
        ``DebeziumStateDecoratingIterator.java:30-31``).  A killed run resumes
        from the last committed window."""
        from ..sources.event_log import _expand, log_max_lsn

        top_ = log_max_lsn(paths)  # footer stats — no data scan
        if top_ is None or top_ <= self.manifest.watermark:
            return []
        top = int(top_)
        # Windows (cur + w*chunk_lsns, cur + (w+1)*chunk_lsns] are anchored
        # at the starting watermark.  LSNs are monotonic with gaps (shared
        # WAL, quiet periods), so one pass over the lsn column finds the
        # windows that hold events and an empty window costs no apply.  Each
        # apply still reads `lsn > manifest.watermark`, so a resumed run
        # picks up after the last committed window.
        cur = self.manifest.watermark

        def window_ids(t: pa.Table) -> pa.Table:
            return pa.table({"w": np.unique((t["lsn"].to_numpy() - cur - 1) // chunk_lsns)})

        lsns = ray.data.read_parquet(
            _expand(paths), columns=["lsn"],
            filter=pc.field("lsn") > pa.scalar(cur, pa.int64()),
        )
        ids = lsns.map_batches(window_ids, batch_format="pyarrow").take_all()
        wins = sorted({r["w"] for r in ids})
        return [
            self.apply_log(paths, max_lsn=min(cur + (w + 1) * chunk_lsns, top), delta=delta)
            for w in wins
        ]

    def _apply_ds(self, events: ray.data.Dataset, already_filtered: bool = False,
                  delta: bool | None = None) -> dict:
        """Apply change events given as a Dataset: it runs once, its blocks
        stand for files, sized by the rows their metadata records
        (:class:`_Blocks`), and take the plan a log window of that many rows
        takes (:func:`_apply_targets`).  The route keeps ``lsn >
        watermark`` unless ``already_filtered``.  Like every apply, it
        writes in the lake's mode unless ``delta`` says."""
        wm = self.manifest.watermark
        blocks = _Blocks.of(events)
        if blocks.schema is None:
            if blocks.rows:  # pandas blocks name no Arrow types to merge under
                raise ValueError("Dataset input has no Arrow blocks to take its schema from")
            return {"applied_events": 0, "partitions": 0, "watermark": wm, "sec": 0.0}
        return self._apply(blocks.schema, self.config.delta_mode if delta is None else delta,
                           blocks, None if already_filtered else wm)

    def _out_schema(self, ev_schema: pa.Schema) -> pa.Schema:
        """The unified output schema: lake schema ∪ incoming payload."""
        m = self.manifest
        payload = _payload_schema(ev_schema)
        return payload if m.schema is None else unify_schemas(m.schema, payload)

    def _plan_ctx(self, ev_schema: pa.Schema, delta: bool) -> tuple[pa.Schema, dict]:
        """The output schema and the merge kernel's ctx for one window of
        change events, shared by every apply entry point.  A merge policy
        column other than ``lsn`` that the window's events or the lake's
        segments lack raises here, on the driver, before any write — a
        window without it would otherwise lose every comparison."""
        m = self.manifest
        out_schema = self._out_schema(ev_schema)
        known = {"lsn"} | (set(ev_schema.names) & set(_seg_schema_of(out_schema).names))
        if unknown := [c for c, _ in self.policy if c not in known]:
            raise ValueError(f"merge_policy columns {unknown} are missing from the window's "
                             f"events or the lake (both carry {sorted(known)})")
        return out_schema, {
            "lake_dir": self.lake_dir,
            "policy": self.policy,
            "schema": out_schema.serialize().to_pybytes(),
            "old_segments": {
                p: {"paths": e.paths, "deltas": e.delta_paths}
                for p, e in m.partitions.items()
            },
            "delta_mode": delta,
            "auto_compact_deltas": self.config.auto_compact_deltas,
            "run_id": self._run_id(),
        }

    def _run_id(self) -> int:
        """The id that names the next commit's files: one past both the
        watermark and the last run's id (a run record without ``run_id``,
        from an older manifest, counts as none).  A backfill commit keeps
        the watermark, so ``watermark + 1`` alone would name the next
        apply's files after the ones that commit listed, and that apply
        would rewrite them in place before its own commit.  It depends only
        on the committed manifest, so a rerun after a crash writes the same
        paths, and it is above the watermark, so :meth:`vacuum` skips an
        in-flight run's files."""
        m = self.manifest
        return max(m.watermark, m.runs[-1].get("run_id", -1) if m.runs else -1) + 1

    def _apply(self, ev_schema: pa.Schema, delta: bool,
               source: EventLogScan | _Blocks | ray.data.Dataset, min_lsn: int | None,
               shards: dict[int, list[str]] | None = None) -> dict:
        """Apply one window to this lake as the one-target case of
        :func:`_apply_targets` (rows with ``lsn > min_lsn``), then commit
        (auto-compaction is the kernel's fold, inside this one commit)."""
        m = self.manifest
        out_schema, ctx = self._plan_ctx(ev_schema, delta)
        t0 = time.perf_counter()
        if isinstance(source, ray.data.Dataset):
            source = _Blocks.of(source, ev_schema)
        (lineage,), plan, est = _apply_targets(
            source, [_Target(ctx, m.num_partitions, min_lsn)], shards)
        return self._commit(lineage, m.watermark, out_schema, time.perf_counter() - t0,
                            plan, est)

    def _commit(self, lineage: list[dict], wm: int, out_schema: pa.Schema, elapsed: float,
                plan: str, est_rows: int | None = None) -> dict:
        """Fold the lineage rows into the manifest and :meth:`_install` it.
        The run record and the stats name the ``plan``, its row bound and
        the folds (``auto_compacted``)."""
        m = self.manifest
        run = {"plan": plan, "est_rows": est_rows,
               "auto_compacted": sum(bool(r.get("folded")) for r in lineage)}
        if not lineage:
            return {"applied_events": 0, "partitions": 0, "watermark": wm, "sec": elapsed, **run}

        new_wm = max(r["lsn_hi"] for r in lineage)
        n_events = int(sum(r["n_events"] for r in lineage))
        # group lineage by partition: a bootstrap emits several base rows per
        # partition (one per task — disjoint keys, paths concatenate);
        # a delta row LAYERS onto the existing entry; a full-merge row
        # REPLACES it (the merge folded base+deltas into one file).  Base
        # paths are sorted: task completion order must not reach the manifest
        by_part: dict[int, list[dict]] = {}
        for r in lineage:
            by_part.setdefault(int(r["part"]), []).append(r)
        entries = {}
        for part, rows in by_part.items():
            prev = m.partitions.get(part)
            if rows[0].get("is_delta"):
                assert prev is not None and len(rows) == 1
                entries[part] = replace(
                    prev,
                    delta_paths=prev.delta_paths + [rows[0]["path"]],
                    rows=prev.rows + int(rows[0]["rows"]),
                    lsn_lo=int(rows[0]["lsn_lo"]),
                    lsn_hi=int(rows[0]["lsn_hi"]),
                    n_events=int(rows[0]["n_events"]) + prev.n_events,
                    checksum=int(rows[0]["checksum"]),
                )
            else:
                entries[part] = PartitionEntry(
                    part=part,
                    paths=sorted(r["path"] for r in rows),
                    delta_paths=[],
                    rows=int(sum(r["rows"] for r in rows)),
                    lsn_lo=int(min(r["lsn_lo"] for r in rows)),
                    lsn_hi=int(max(r["lsn_hi"] for r in rows)),
                    n_events=int(sum(r["n_events"] for r in rows))
                    + (prev.n_events if prev else 0),
                    checksum=int(sum(r["checksum"] for r in rows) % (2**63 - 1)),
                )
        m.runs.append(
            {
                "run_id": self._run_id(),  # the id that named this run's files
                "prev_watermark": wm,
                "watermark": int(new_wm),
                "applied_events": n_events,
                "partitions": len(by_part),
                "sec": round(elapsed, 3),
                **run,
            }
        )
        m.watermark = int(new_wm)
        m.set_schema(out_schema)
        self._install(entries)
        return {
            "applied_events": n_events,
            "partitions": len(by_part),
            "watermark": m.watermark,
            "sec": elapsed,
            **run,
        }

    def _install(self, entries: dict[int, PartitionEntry]) -> None:
        """Commit the manifest with ``entries`` replacing their partitions',
        then remove every file an old entry listed and its new one does not
        (only after the commit landed; :meth:`vacuum` sweeps a crash's).  A
        manifest without a merge policy records the config's here."""
        m = self.manifest
        gone = [rel for part, e in entries.items() if part in m.partitions
                for rel in m.partitions[part].all_paths if rel not in e.all_paths]
        m.partitions.update(entries)
        if m.merge_policy is None and self.config.merge_policy is not None:
            m.merge_policy = self.policy
        m.commit(self.lake_dir)
        _remove_files(self.lake_dir, gone)

    def apply_partitioned(self, root: str, delta: bool | None = None) -> dict:
        """Apply a key-partitioned change log laid out as
        ``<root>/part=NNNNN/*.parquet`` — the sharded-WAL / changelog-topic
        case (Debezium→Kafka topics are key-partitioned; a 10^10-event log
        arrives this way).  When the log's partitioning matches the lake's
        (same key hash, same P), the exchange vanishes: one window task per
        shard reads its files and merges its partition — each byte moves
        exactly once, embarrassingly parallel.  One window task takes a
        contiguous range of shards (:func:`_cut`: about one per CPU, cut by
        the footer pass's per-file row bounds).  A shard row whose key
        hashes to another partition raises before that task writes
        (misaligned input must not corrupt state); for unaligned logs use
        :meth:`apply_log` (one keyed exchange).
        """
        import glob as _g

        m = self.manifest
        delta = self.config.delta_mode if delta is None else delta
        part_dirs = sorted(_g.glob(os.path.join(root, "part=*")))
        if not part_dirs:
            raise FileNotFoundError(f"no part=* shard dirs under {root}")
        shards = {}
        for d in part_dirs:
            p = int(os.path.basename(d).split("=")[1])
            if p >= m.num_partitions:
                raise ValueError(
                    f"shard partition {p} >= lake num_partitions {m.num_partitions}"
                )
            files = sorted(_g.glob(os.path.join(d, "*.parquet")))
            if files:
                shards[p] = files
        if not shards:
            return {"applied_events": 0, "partitions": 0, "watermark": m.watermark, "sec": 0.0}
        # ONE footer pass over every shard file: the unified event schema
        scan = scan_event_log([f for fs in shards.values() for f in fs], min_lsn=m.watermark)
        return self._apply(scan.schema, delta, scan, None, shards)

    def vacuum(self) -> int:
        """Delete segment files the committed manifest does not list.  Every
        commit removes the files it superseded, so this sweeps only what a
        crash leaves: segments whose commit never landed and superseded
        files whose removal never ran.  Segments whose run-lsn suffix is
        NEWER than the committed watermark are skipped — they may belong to
        an apply whose commit is still in flight — so vacuum is safe to run
        any time.  Segment and manifest tmps over an hour old go too.
        Returns the number of files removed."""
        import glob as _g
        import re as _re

        # the live set MUST come from the freshly loaded committed manifest,
        # not this handle's possibly-stale in-memory copy: another process
        # may have committed newer segments (suffix ≤ new watermark) that a
        # stale live set would classify as removable — data loss
        committed = Manifest.load(self.lake_dir) or self.manifest
        live = {os.path.normpath(os.path.join(self.lake_dir, p))
                for e in committed.partitions.values() for p in e.all_paths}
        committed_wm = committed.watermark
        removed = 0
        for pat in ("seg-*.parquet", "delta-*.parquet"):
            for f in _g.glob(os.path.join(self.lake_dir, "part=*", pat)):
                if os.path.normpath(f) in live:
                    continue
                m = _re.search(r"(?:seg|delta)-(\d+)", os.path.basename(f))
                # segments are named (seg|delta)-<run id>[-batch|-compact];
                # an in-flight run's id is above the committed watermark
                # (_run_id) — anything beyond it may still await its commit
                if m and int(m.group(1)) > committed_wm:
                    continue
                os.remove(f)
                removed += 1
        # crashed writers leave their tmp files (segments, manifest commits)
        # next to the atomic-replace target; an AGE guard (1h) avoids racing
        # a writer that is mid-write right now
        cutoff = time.time() - 3600
        for f in (_g.glob(os.path.join(self.lake_dir, "part=*", "*.parquet.tmp-*"))
                  + _g.glob(Manifest.path_for(self.lake_dir) + ".tmp-*")):
            try:
                if os.path.getmtime(f) < cutoff:
                    os.remove(f)
                    removed += 1
            except FileNotFoundError:
                pass
        return removed

    def compact(self) -> int:
        """Fold each multi-file partition (bootstrap batches and/or run
        deltas) into a single base segment — write O(delta) per run, pay the
        full rewrite once per compaction cycle.  One task per range of
        :meth:`_ranges` that holds such partitions (:func:`_compact_range`);
        commits, then removes the superseded files (:meth:`_install`, as
        every apply does).  Returns the number of partitions compacted."""
        # as vacuum: work off the COMMITTED manifest — a stale handle would
        # clobber another process's newer entries and delete their files
        m = self.manifest = Manifest.load(self.lake_dir) or self.manifest
        todo = [[e for e in rng if len(e.all_paths) > 1] for rng in self._ranges()]
        todo = [rng for rng in todo if rng]
        if not todo:
            return 0
        seg_schema = _seg_schema_of(m.schema)
        name = f"seg-{self._run_id():014d}-compact.parquet"
        lineage = [r for rows in ray.get([
            _compact_range.remote(self.lake_dir, rng, seg_schema, self.policy, name)
            for rng in todo]) for r in rows]
        self._install({int(r["part"]): replace(
            m.partitions[int(r["part"])], paths=[r["path"]], delta_paths=[],
            rows=int(r["rows"]), checksum=int(r["checksum"])) for r in lineage})
        return len(lineage)

    def _ranges(self) -> list[list[PartitionEntry]]:
        """The manifest's partitions in contiguous ranges of about equal
        manifest ``rows``, in ascending order (:func:`_cut`)."""
        entries = [e for _, e in sorted(self.manifest.partitions.items())]
        return _cut(entries, [e.rows for e in entries])

    # -- read path ---------------------------------------------------------
    def segment_paths(self) -> list[str]:
        return [os.path.join(self.lake_dir, p)
                for e in self.manifest.partitions.values() for p in e.all_paths]

    def read(self, payload_only: bool = True) -> ray.data.Dataset:
        """The committed table as a Dataset (only manifest-visible segments).
        One task per range of :meth:`_ranges` reads the files the manifest
        lists for each of its partitions (no footer or discovery pass),
        resolves a partition's delta files with its base under the lake's
        merge policy when it has any (merge-on-read), and conforms the rows
        to the current schema, so segments written before a schema change
        read correctly.  One block per range, in ascending partition
        order, each partition's rows in doc_id order (:func:`_live_rows`),
        so the rows come in one order whatever the files' history."""
        m = self.manifest
        schema = m.schema
        if not m.partitions:
            return ray.data.from_arrow((schema or pa.schema([])).empty_table())
        lake_dir, seg_schema, policy = self.lake_dir, _seg_schema_of(schema), self.policy
        target = schema if payload_only else seg_schema

        def resolve(batch: pa.Table) -> pa.Table:
            (r,) = batch.to_pylist()
            return pa.concat_tables([
                _live_rows(lake_dir, paths.split("\n") if paths else [],
                           deltas.split("\n") if deltas else [], seg_schema, policy, target)
                for paths, deltas in zip(r["paths"], r["deltas"])])

        items = [{"paths": ["\n".join(e.paths) for e in rng],
                  "deltas": ["\n".join(e.delta_paths) for e in rng]} for rng in self._ranges()]
        ds = ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
            resolve, batch_format="pyarrow", batch_size=1)
        ds.context.execution_options.preserve_order = True
        return ds

    def to_table(self, payload_only: bool = True) -> pa.Table:
        """Small-result helper for tests: full table sorted by doc_id
        (driver-side read — do not use at scale)."""
        schema = self.manifest.schema
        if not self.manifest.partitions:
            return schema.empty_table() if schema else pa.table({})
        seg_schema = _seg_schema_of(schema)
        target = schema if payload_only else seg_schema
        tbls = [_live_rows(self.lake_dir, e.paths, e.delta_paths, seg_schema, self.policy, target)
                for _, e in sorted(self.manifest.partitions.items())]
        out = pa.concat_tables(tbls)
        return out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))
