"""Driver-facing query registry: one entry per operator family (SURVEY §2),
each runnable on the harness tables at any sf_dir, each paired (where
SQL-expressible) with a DuckDB oracle in ``__ray_entry__.oracle_sql``.

The harness ``events`` table is used as a CDC stream analog:
``event_id`` (unique, monotonic) plays the LSN, ``user_id`` the document
key, and ``event_type == 'error'`` is mapped to a delete tombstone — so the
flagship replay machinery can be oracle-checked against window-function SQL.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Count, Max, Sum

from .functions.ann import brute_force_topk, lsh_topk
from .functions.dedup import (
    embedding_near_dups,
    exact_dedup,
    minhash_dedup,
    segment_dedup,
    simhash_near_dups,
)
from .functions.text import LangId, fingerprint_md5, quality_score, rolling_fingerprint, token_count
from .functions.windows import session, sliding
from .joins import asof_join, broadcast_join, hash_join
from .pipelines.replay import LakeTable, ReplayConfig, _part_of, lww_reduce
from .stages.transforms import add_fields, flatten_json, hash_id, record_filter
from .schemas import CDC_UPDATED_AT


def _mod_eq0(col: pa.ChunkedArray, m: int) -> pa.ChunkedArray:
    """``col % m == 0`` for non-negative int64 via divide-multiply-subtract
    (this pyarrow build has no ``pc.modulo``; integer ``pc.divide``
    truncates, which equals floor for non-negative inputs)."""
    q = pc.divide(col, pa.scalar(m, pa.int64()))
    return pc.equal(col, pc.multiply(q, pa.scalar(m, pa.int64())))


def _events(sf_dir: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=columns)


def _docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _to_cdc(t: pa.Table) -> pa.Table:
    """events → change-event envelope: event_id→lsn, user_id→doc_id,
    event_type 'error'→delete tombstone (payload nulled)."""
    is_del = pc.equal(t["event_type"], "error")
    op = pc.if_else(is_del, pa.scalar("delete"), pa.scalar("update"))
    return pa.table(
        {
            "lsn": t["event_id"],
            "op": op,
            "doc_id": t["user_id"].cast(pa.string()),
            "ts": pc.if_else(is_del, pa.nulls(t.num_rows, t["ts"].type), t["ts"]),
            "event_type": pc.if_else(is_del, pa.nulls(t.num_rows, pa.string()), t["event_type"]),
            "value": pc.if_else(is_del, pa.nulls(t.num_rows, pa.float64()), t["value"]),
            CDC_UPDATED_AT: t["ts"].cast(pa.timestamp("us", tz="UTC")),
        }
    )


# ---------------------------------------------------------------------------
# CDC core
# ---------------------------------------------------------------------------

def q_cdc_replay_upsert(sf_dir: str) -> pa.Table:
    """Flagship: full replay of the events stream through the exactly-once
    lake (hash-partitioned LWW merge + manifest), final table returned."""
    events = _events(sf_dir)
    tmp = tempfile.mkdtemp(prefix="cdc_lake_", dir="/tmp")
    try:
        lake = LakeTable(os.path.join(tmp, "lake"), ReplayConfig(num_partitions=16))
        # the schema from _to_cdc itself: probing the mapped events reruns a block
        lake._apply(_to_cdc(events.schema().base_schema.empty_table()).schema, False,
                    events.map_batches(_to_cdc, batch_format="pyarrow"), None)
        return lake.to_table()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_cdc_backfill(sf_dir: str) -> pa.Table:
    """DBLog-style incremental snapshot: the lake starts tailing MID-stream
    (events above the median lsn only — no initial snapshot), then history
    is backfilled in three key-range chunks while tailing continues; the
    converged lake must equal the full-replay oracle byte for byte.  The
    simulated live source read is the vectorized LWW state at the lake's
    current watermark — recorded AFTER the watermark, per the DBLog
    contract."""
    from .pipelines.backfill import incremental_snapshot
    from .pipelines.replay import lww_reduce

    cdc = pa.concat_tables(
        [t for t in ray.get(
            _events(sf_dir).map_batches(_to_cdc, batch_format="pyarrow")
            .to_arrow_refs()) if t.num_rows]
    ).combine_chunks()
    tmp = tempfile.mkdtemp(prefix="cdc_backfill_", dir="/tmp")
    try:
        wal = os.path.join(tmp, "wal.parquet")
        pq.write_table(cdc, wal)
        median = int(pc.approximate_median(cdc["lsn"]).as_py())
        lake = LakeTable(os.path.join(tmp, "lake"), ReplayConfig(num_partitions=16))
        lake.apply_log(wal, max_lsn=median)  # started mid-stream

        def read_chunk(lo, hi):
            w = lake.manifest.watermark
            win = cdc.filter(pc.less_equal(cdc["lsn"], w))
            live = lww_reduce(win)
            live = live.filter(pc.invert(pc.equal(live["op"], "delete")))
            live = live.drop_columns(
                [c for c in ("lsn", "op", CDC_UPDATED_AT)
                 if c in live.schema.names])
            keys = live["doc_id"]
            ok = pa.array([True] * live.num_rows)
            if lo is not None:
                ok = pc.and_(ok, pc.greater_equal(keys, lo))
            if hi is not None:
                ok = pc.and_(ok, pc.less(keys, hi))
            return live.filter(ok)

        incremental_snapshot(lake, wal, read_chunk, [None, "3", "6", None])
        return lake.to_table()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_cdc_lww_latest(sf_dir: str) -> ray.data.Dataset:
    """LWW reduce only (no lake io): latest event per key incl tombstones."""
    cdc = _events(sf_dir).map_batches(_to_cdc, batch_format="pyarrow")
    tagged = cdc.map_batches(
        lambda t: t.append_column("part", _part_of(t["doc_id"], 16)), batch_format="pyarrow"
    )
    return tagged.groupby("part").map_groups(
        lambda g: lww_reduce(g).drop_columns(
            ["part", "ts", "event_type", "value", CDC_UPDATED_AT]
        ),
        batch_format="pyarrow",
    )


def q_declarative_paginated(sf_dir: str) -> ray.data.Dataset:
    """HTTP-source analog end-to-end: the events table is exported as a
    paginated JSON 'API' (one slice per event_type, cursor-chained pages of
    500 — the fixture IS the simulated server), then read back through the
    declarative requester → paginator → record-selector machinery.  Any
    dropped page, broken cursor chain or missed slice loses rows vs the
    plain-SQL oracle."""
    import json

    from .sources.paginated import read_paginated

    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "event_id", "user_id", "value"],
    )
    import hashlib as _hl

    # deterministic fixture dir: re-runs REUSE it instead of leaking a fresh
    # mkdtemp each time (review finding).  Keyed by the SOURCE file's
    # (path, mtime, size) — same pattern as ann_ivf_indexed — so a
    # regenerated events.parquet invalidates the cache instead of serving
    # stale pages against a fresh oracle (review finding).
    st = os.stat(os.path.join(sf_dir, "events.parquet"))
    tag = _hl.md5(
        f"{os.path.abspath(sf_dir)}:{st.st_mtime_ns}:{st.st_size}".encode()
    ).hexdigest()[:10]
    api = os.path.join("/tmp", f"pag_api_{tag}")
    done = os.path.join(api, ".done")
    etypes = sorted(set(t["event_type"].to_pylist()))
    page_size = 500
    spec = {
        "api_dir": api,
        "path_template": "{event_type}/page-{page}.json",
        "paginator": "cursor",
        "paginator_args": {"cursor_path": "next", "start": 0},
        "record_path": "data",
        "slices": [{"event_type": et} for et in etypes],
    }
    if os.path.exists(done):
        return read_paginated(spec)
    shutil.rmtree(api, ignore_errors=True)  # half-built leftovers
    for et in etypes:
        sub = t.filter(pc.equal(t["event_type"], et)).sort_by("event_id")
        recs = sub.select(["event_id", "user_id", "value"]).to_pylist()
        os.makedirs(os.path.join(api, et), exist_ok=True)
        n_pages = max(1, -(-len(recs) // page_size))
        for i in range(n_pages):
            body = {"data": recs[i * page_size : (i + 1) * page_size]}
            if i + 1 < n_pages:
                body["next"] = i + 1
            with open(os.path.join(api, et, f"page-{i}.json"), "w") as f:
                json.dump(body, f)
    with open(done, "w") as f:
        f.write("ok")
    return read_paginated(spec)


def q_scd_history(sf_dir: str) -> ray.data.Dataset:
    """SCD Type-2 history over the CDC stream analog: every event becomes a
    versioned row with _airbyte_start_at/_airbyte_end_at validity and an
    active flag (reference stream_processor.py:884-898,966-967); 'error'
    events are tombstones — present in history, never active."""
    from .pipelines.scd import ACTIVE_ROW, END_AT, START_AT, scd2_history

    ds = _events(sf_dir, columns=["user_id", "event_id", "event_type"])
    hist = scd2_history(
        ds, key="user_id", cursor="event_id",
        deleted_mask=lambda t: pc.equal(t["event_type"], "error"),
        num_partitions=16,
    )
    return hist.map_batches(
        lambda t: t.select(["user_id", "event_id", START_AT, END_AT, ACTIVE_ROW]),
        batch_format="pyarrow",
    )


def q_lww_policy(sf_dir: str) -> pa.Table:
    """Pluggable MergePolicy through the FULL lake path (SURVEY §2.12): the
    winner per key is chosen by (ts desc, lsn desc) — the reference's
    `cursor desc, …, log_pos desc` ORDER BY chain — applied in two epochs so
    a committed old row can beat a later-lsn/older-cursor change."""
    from .pipelines.replay import LakeTable, ReplayConfig

    def envelope(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lsn": t["event_id"],
                "op": pa.array(["update"] * t.num_rows),
                "doc_id": t["user_id"].cast(pa.string()),
                "ts": t["ts"],
                "value": t["value"],
            }
        )

    src = os.path.join(sf_dir, "events.parquet")
    mid = int(pq.read_metadata(src).num_rows // 2)
    tmp = tempfile.mkdtemp(prefix="lww_policy_", dir="/tmp")
    try:
        ev_dir = os.path.join(tmp, "events")
        _events(sf_dir).map_batches(envelope, batch_format="pyarrow").write_parquet(ev_dir)
        lake = LakeTable(
            os.path.join(tmp, "lake"),
            ReplayConfig(num_partitions=8,
                         merge_policy=(("ts", "descending"), ("lsn", "descending"))),
        )
        lake.apply_log(ev_dir, max_lsn=mid)
        lake.apply_log(ev_dir)
        return lake.to_table()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_sync_append_dedup(sf_dir: str) -> pa.Table:
    """Full Airbyte-style sync: incremental cursor read → append_dedup
    destination (hash-partitioned latest-per-PK merge) → committed view."""
    import pyarrow.compute as _pc

    from .config import StreamConfig
    from .pipelines.incremental import SyncEngine

    tmp = tempfile.mkdtemp(prefix="sync_dedup_", dir="/tmp")
    try:
        eng = SyncEngine(os.path.join(tmp, "dest"))
        cfg = StreamConfig(
            "events", "incremental", "append_dedup",
            cursor_field="ts", primary_key=["user_id"], num_partitions=8,
        )
        eng.sync(cfg, os.path.join(sf_dir, "events.parquet"))
        t = pa.concat_tables(
            eng.read("events", dedup=True).map_batches(
                lambda b: b.select(["user_id", "event_id", "ts"]), batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
        )
        return t.take(_pc.sort_indices(t, sort_keys=[("user_id", "ascending")]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def q_incremental_watermark(sf_dir: str) -> ray.data.Dataset:
    """Cursor watermark per stream key (StateDecoratingIterator max-cursor)."""
    return (
        _events(sf_dir, columns=["user_id", "ts"])
        .groupby("user_id")
        .aggregate(Max("ts", alias_name="max_ts"), Count(alias_name="n"))
    )


def q_snapshot_filter_project(sf_dir: str) -> ray.data.Dataset:
    return _events(sf_dir, columns=["event_id", "user_id", "event_type", "value"]).map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater(t["value"], 50.0), pc.not_equal(t["event_type"], "error"))
        ).drop_columns(["value"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# record transforms
# ---------------------------------------------------------------------------

def q_json_flatten(sf_dir: str) -> ray.data.Dataset:
    return _events(sf_dir, columns=["event_id", "props"]).map_batches(
        flatten_json("props"), batch_format="pyarrow"
    )


def q_hash_surrogate(sf_dir: str) -> ray.data.Dataset:
    return _events(sf_dir, columns=["event_id", "user_id"]).map_batches(
        hash_id(["event_id", "user_id"]), batch_format="pyarrow"
    )


def q_type_cast(sf_dir: str) -> ray.data.Dataset:
    def cast(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id32": t["event_id"].cast(pa.int32()),
                "user_str": t["user_id"].cast(pa.string()),
            }
        )

    return _events(sf_dir, columns=["event_id", "user_id"]).map_batches(cast, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def q_join_broadcast(sf_dir: str) -> ray.data.Dataset:
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_name"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    cust = cust.rename_columns(["o_custkey", "c_name"])
    return broadcast_join(orders, cust, on="o_custkey").select_columns(
        ["o_orderkey", "o_totalprice", "c_name"]
    )


def q_join_partitioned(sf_dir: str) -> ray.data.Dataset:
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderstatus"]), batch_format="pyarrow"
    )
    return hash_join(li, orders, on="l_orderkey", num_buckets=16)


def q_join_skew(sf_dir: str) -> ray.data.Dataset:
    """Join of zipf-hot event user_ids against the customer rows: the
    plain inner join, run by the partitioned hash join (a skew-aware join
    measured 2.3x slower for 1.32x lower peak memory; BASELINE.md)."""
    from .joins import hash_join

    ev = _events(sf_dir, columns=["user_id", "event_id", "value"])
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    ).map_batches(
        lambda t: t.rename_columns(["user_id", "c_name"]),
        batch_format="pyarrow")
    return hash_join(ev, cust, on="user_id", num_buckets=16)


def q_join_asof(sf_dir: str) -> ray.data.Dataset:
    """As-of join: each 'click' matched to the user's latest prior (or
    simultaneous) 'view' — the classic event-attribution shape."""
    ev = os.path.join(sf_dir, "events.parquet")
    clicks = ray.data.read_parquet(ev, columns=["user_id", "ts", "event_id"]).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    views = (
        ray.data.read_parquet(ev, columns=["user_id", "ts", "event_id", "event_type"])
        .map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "view"))
            .drop_columns(["event_type"])
            .rename_columns(["user_id", "ts", "view_event_id"]),
            batch_format="pyarrow",
        )
    )
    out = asof_join(clicks, views, by="user_id", on="ts", num_buckets=8)
    return out.map_batches(
        lambda t: t.select(["user_id", "event_id", "view_event_id"]), batch_format="pyarrow"
    )


def q_window_sliding(sf_dir: str) -> ray.data.Dataset:
    return sliding(
        _events(sf_dir, columns=["user_id", "ts"]), "user_id", "ts",
        width_s=3600, slide_s=1800,
    )


def q_window_session(sf_dir: str) -> ray.data.Dataset:
    """Session windows via the SCALE plan: (key, 6h bucket) partial sessions
    stitched per key — the oracle proves two-phase == single-pass."""
    out = session(
        _events(sf_dir, columns=["user_id", "ts"]), "user_id", "ts",
        gap_s=1800, bucket_s=6 * 3600,
    )
    return out.map_batches(
        lambda t: t.select(["user_id", "session_id", "s_start", "s_end", "n"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# aggregation / sort / set ops
# ---------------------------------------------------------------------------

def q_agg_partial(sf_dir: str) -> ray.data.Dataset:
    """Grouped sum with a per-batch combiner: each batch pre-aggregates to
    ≤|groups| rows before the (tiny) global groupby shuffle."""
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def combine(t: pa.Table) -> pa.Table:
        # Arrow-native combiner (round-1 cleanup: no pandas round-trip)
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_quantity", "count")]
        )
        # pick by NAME ('<col>_<agg>'), not positional rename — pyarrow has
        # moved group keys between first and last across versions
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "part_qty": g["l_quantity_sum"],
            "part_n": g["l_quantity_count"],
        })

    partial_ = li.map_batches(combine, batch_format="pyarrow")
    out = partial_.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("part_qty", alias_name="sum_qty_f"), Sum("part_n", alias_name="n")
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": t["sum_qty_f"].cast(pa.int64()),
                "n": t["n"],
            }
        ),
        batch_format="pyarrow",
    )


def q_sort_topk(sf_dir: str) -> ray.data.Dataset:
    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_totalprice"]
        )
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


def q_distinct(sf_dir: str) -> pa.Table:
    vals = sorted(_events(sf_dir, columns=["event_type"]).unique("event_type"))
    return pa.table({"event_type": pa.array(vals)})


def q_window_tumbling(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window count per key (streaming-window analog over an
    ordered log — SURVEY §2.11)."""
    ev = _events(sf_dir, columns=["user_id", "ts"])
    win = ev.map_batches(
        lambda t: t.append_column("w", pc.floor_temporal(t["ts"], unit="hour")),
        batch_format="pyarrow",
    )
    return win.groupby(["user_id", "w"]).aggregate(Count(alias_name="n"))


# ---------------------------------------------------------------------------
# text / dedup / ann
# ---------------------------------------------------------------------------

def q_unnest(sf_dir: str) -> ray.data.Dataset:
    """Array unnest (the _ab1 child-stream explosion,
    stream_processor.py:386-426): one row per (vec_id, pos, val)."""

    def explode(t: pa.Table) -> pa.Table:
        from .stages.nested import ragged_positions

        lists = t["embedding"].combine_chunks()
        lengths = pc.list_value_length(lists).to_numpy()
        ids = np.repeat(t["vec_id"].to_numpy(), lengths)
        pos = ragged_positions(lengths) + 1
        vals = np.asarray(lists.flatten(), np.float32)
        return pa.table(
            {"vec_id": pa.array(ids), "pos": pa.array(pos.astype(np.int64)),
             "val": pa.array(vals, pa.float32())}
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(explode, batch_format="pyarrow")


def q_nested_children(sf_dir: str) -> ray.data.Dataset:
    """Catalog-driven child-stream normalization (stream_processor.py:
    386-426): a list<struct> column — constructed deterministically from the
    embeddings table — explodes into a child stream keyed by the parent's
    hashid + _airbyte_index, exactly what the unnest-with-ordinality SQL
    oracle computes."""
    from .stages.nested import normalize_nested

    def pack(t: pa.Table) -> pa.Table:
        from .stages.nested import ragged_positions

        lists = t["embedding"].combine_chunks()
        flat = lists.flatten()
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = ragged_positions(lengths)
        st = pa.StructArray.from_arrays(
            [pa.array(pos.astype(np.int64)), flat], names=["pos", "val"]
        )
        items = pa.ListArray.from_arrays(lists.offsets, st)
        return pa.table({"vec_id": t["vec_id"], "items": items})

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(pack, batch_format="pyarrow")
    streams = normalize_nested(ds, "emb", key_cols=["vec_id"])
    return streams["emb_items"]


def q_token_count(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        token_count("text"), batch_format="pyarrow"
    ).map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")


def q_text_quality(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        quality_score("text"), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.select(["doc_id", "q_len", "q_n_words"]), batch_format="pyarrow"
    )


def q_fingerprint(sf_dir: str) -> ray.data.Dataset:
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fingerprint_md5("text"), batch_format="pyarrow"
    ).map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")


def q_rolling_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """Rolling-fingerprint with a planted groupwise-equality oracle: each
    doc fans out to three variants — the source, an exact COPY (expected:
    equal rfp — distributed determinism across blocks), and the UPPERCASED
    text (expected: different rfp — every alpha byte changes, so every
    window hash changes; verified collision-free on the deterministic
    fixture at sf0.001/0.01/0.1).  A raw pair-equality oracle is unsound
    here: rfp is the min rolling hash, and shared-vocabulary docs collide
    naturally (85 groups at sf0.01), so the oracle checks the planted
    equality classes instead (VERDICT r2 next-step 1c)."""

    def variants(t: pa.Table) -> pa.Table:
        s = t["text"].cast(pa.string())
        return pa.table({
            "doc_id": pa.concat_arrays([t["doc_id"].combine_chunks()] * 3),
            "variant": pa.array(
                ["src"] * t.num_rows + ["copy"] * t.num_rows + ["upper"] * t.num_rows
            ),
            "text": pa.concat_arrays(
                [s.combine_chunks(), s.combine_chunks(), pc.utf8_upper(s).combine_chunks()]
            ),
        })

    def judge(g: pa.Table) -> pa.Table:
        rfp = dict(zip(g["variant"].to_pylist(), g["rfp"].to_pylist()))
        return pa.table({
            "doc_id": g["doc_id"].slice(0, 1),
            "copy_equal": pa.array([rfp["copy"] == rfp["src"]]),
            "upper_equal": pa.array([rfp["upper"] == rfp["src"]]),
        })

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(variants, batch_format="pyarrow")
        .map_batches(rolling_fingerprint("text"), batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(judge, batch_format="pyarrow")
    )


#: planted language fixture: (label, 10 primary stopwords, 3 distractor
#: stopwords of ANOTHER language) — the distractors make the oracle verify
#: the argmax vote, not mere stopword presence.  zh is a pure-CJK sentence
#: exercising the codepoint-ratio branch.
_LANG_FIXTURE = [
    ("en", "the and of to a in is it that for", "der die das"),
    ("de", "der die das und ist ein eine nicht mit zu", "le la les"),
    ("fr", "le la les et est un une pas pour que", "el los y"),
    ("es", "el la los y es un una no por que", "the and of"),
    ("zh", "中文语言检测样本的测试文档内容句子字符", ""),
]


def q_lang_id(sf_dir: str) -> ray.data.Dataset:
    """Language-ID over PLANTED per-language text: the corpus text is
    synthetic English-ish regardless of its ``lang`` label, so the fixture
    plants stopword-dense sentences keyed by ``doc_id % 5`` — the expected
    label is then a pure function of doc_id and the oracle is a CASE
    expression (VERDICT r2 next-step 1a).  Non-tautological: LangId must
    out-vote the planted distractor stopwords and route CJK by codepoint
    ratio to win."""
    from .functions.text import langid_batch

    planted = pa.array([f"{p} {d}".strip() for _, p, d in _LANG_FIXTURE])

    def plant(t: pa.Table) -> pa.Table:
        idx = pa.array(t["doc_id"].to_numpy() % 5)
        return pa.table({"doc_id": t["doc_id"], "text": planted.take(idx)})

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(partial(langid_batch, col="text"), batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")
    )


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    return exact_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), ["text"], keep_by="doc_id"
    ).select_columns(["doc_id"])


def q_segment_dedup(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide exact duplicate-segment removal with reassembly (C4 /
    MassiveText line-dedup over 15-word spans, keep-first).  Output:
    (doc_id, text_dedup); documents whose every segment occurred earlier
    elsewhere vanish — matching the SQL keep-first window oracle."""
    return segment_dedup(_docs(sf_dir, columns=["doc_id", "text"]), seg_words=15)


def q_dedup_minhash(sf_dir: str) -> ray.data.Dataset:
    return minhash_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), "text", "doc_id",
        num_perm=64, bands=16, threshold=0.6,
    ).select_columns(["doc_id"])


def q_dedup_ngram(sf_dir: str) -> ray.data.Dataset:
    """EXACT 5-char-gram Jaccard pairs at threshold 0.5 (inside the
    fixture's documented bimodal gap: near-dups ≥ 0.93, background
    ≤ 0.31).  Candidates come from MinHash-LSH at recall-slack 0.3 —
    any true pair (est ≈ 0.93, σ ≈ 0.03 at 64 perms) survives with
    > 20σ margin, and every false candidate is cut by the exact metric,
    so the output equals the exhaustive-SQL pair set INCLUDING the exact
    jaccard value (both sides divide the same small integers in IEEE
    double)."""
    from .functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _docs(sf_dir, columns=["doc_id", "text"]), "text", "doc_id",
        threshold=0.5, num_perm=64, bands=16,
    )


def q_dedup_index(sf_dir: str) -> ray.data.Dataset:
    """Cross-run dedup against a PERSISTED LSH index: docs with
    ``doc_id % 3 != 0`` play the historical corpus (indexed once:
    sharded band table + sig table on disk), docs with ``doc_id % 3 ==
    0`` arrive as the new batch and are matched by reading ONLY the
    band/sig shards their signatures touch.  Output: (a=indexed id,
    b=new id) near-dup matches.  The fixture's similarity gap
    (background ≤ 0.31, planted near-dups ≥ 0.93 — verified at sf0.01)
    puts every true pair > 3σ above the 0.7 signature-estimate threshold
    and every non-pair > 6σ below it at 64 permutations, so the match
    set equals the exact cross-split Jaccard-≥0.5 pair set the oracle
    computes.  ``sim`` is excluded from the output: it is the MinHash
    ESTIMATE (estimator-specific), not the exact metric."""
    import shutil

    from .functions.dedup_index import build_minhash_index, dedup_against_index

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def _side(keep_new: bool):
        def fn(t: pa.Table) -> pa.Table:
            new = t["doc_id"].to_numpy() % 3 == 0
            return t.filter(pa.array(new if keep_new else ~new))
        return fn

    # deterministic per-sf cache dir, reused across runs (the old mkdtemp
    # leaked an sf-sized sigs+bands tree per invocation — advisory finding);
    # a _COMPLETE marker guards against a half-built index from a crash
    index_dir = f"/tmp/airbyte_ray_dedup_idx_{os.path.basename(sf_dir.rstrip('/'))}"
    marker = os.path.join(index_dir, "_COMPLETE")
    if not os.path.exists(marker):
        shutil.rmtree(index_dir, ignore_errors=True)
        build_minhash_index(
            docs.map_batches(_side(False), batch_format="pyarrow"), index_dir,
            num_perm=64, bands=16, n_shards=16,
        )
        with open(marker, "w") as f:
            f.write("ok")
    out = dedup_against_index(
        docs.map_batches(_side(True), batch_format="pyarrow"), index_dir,
        sim_threshold=0.7,
    )
    return out.map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow")


def q_dedup_simhash(sf_dir: str) -> ray.data.Dataset:
    """SimHash near-dup pairs with a planted oracle (VERDICT r2 next-step
    1b).  Every doc's text is salted with a doc_id-derived token repeated
    ~n_words/2 times: the salt dominates roughly half the bit votes, so the
    corpus's NATURAL near-dups (which share no salt) separate to hamming
    ≥12 (verified on the deterministic fixture at sf0.001/0.01/0.1 — zero
    natural pairs ≤3) while planted EXACT copies (doc_id % 10 == 0, id +
    1_000_000, identical salted text) stay at hamming 0.  The true pair set
    is therefore exactly the planted pairs — SQL-expressible — and the
    banding + in-bucket hamming verification is still genuinely exercised:
    16-bit bands over the salted corpus collide freely and must be
    REJECTED by the verifier."""

    def salt(t: pa.Table) -> pa.Table:
        s = t["text"].cast(pa.string())
        unit = pc.binary_join_element_wise(
            " q", t["doc_id"].cast(pa.string()), "x", ""
        )
        nwords = pc.count_substring_regex(s, r"\S+")
        reps = pc.max_element_wise(
            pc.divide(nwords, pa.scalar(2, pa.int32())), pa.scalar(1, pa.int32())
        )
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pc.binary_join_element_wise(s, pc.binary_repeat(unit, reps), ""),
        })

    def plant_copies(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sub = t.filter(pa.array(ids % 10 == 0))
        if sub.num_rows == 0:
            return t
        copy = pa.table({
            "doc_id": pc.add(sub["doc_id"], pa.scalar(1_000_000, pa.int64())),
            "text": sub["text"],
        })
        return pa.concat_tables([t, copy])

    corpus = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(salt, batch_format="pyarrow")
        .map_batches(plant_copies, batch_format="pyarrow")
    )
    return simhash_near_dups(corpus, "text", "doc_id").map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow"
    )


def _plant_colinear(t: pa.Table) -> pa.Table:
    """Planted near-dups: for vec_id % 10 == 0, append a copy at
    vec_id + 1_000_000 with the embedding scaled ×2 — colinear, so cosine
    with the source is exactly 1.0 and a sign-LSH bucket can never split the
    pair.  Deterministic and SQL-expressible (list_transform ×2)."""
    ids = t["vec_id"].to_numpy()
    sub = t.filter(pa.array(ids % 10 == 0))
    if sub.num_rows == 0:
        return t
    emb = sub["embedding"].combine_chunks()
    vals = pc.multiply(emb.flatten(), pa.scalar(2.0, pa.float32())).cast(pa.float32())
    planted = {"vec_id": pc.add(sub["vec_id"], pa.scalar(1_000_000, pa.int64()))}
    for name in sub.schema.names:
        if name == "vec_id":
            continue
        planted[name] = (
            pa.ListArray.from_arrays(emb.offsets, vals) if name == "embedding" else sub[name]
        )
    return pa.concat_tables([t, pa.table(planted).select(t.schema.names)])


def q_dedup_embedding(sf_dir: str) -> ray.data.Dataset:
    """Embedding-cosine near-dup pairs over a corpus with PLANTED colinear
    copies.  The natural max pairwise cosine in the fixture is ≈0.6 ≪ 0.99,
    so the true pair set is exactly the planted (src, src+1M) pairs — an
    exhaustive DuckDB list_cosine_similarity oracle verifies both recall
    (LSH bucketing must co-locate every planted pair) and precision."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    corpus = ds.map_batches(_plant_colinear, batch_format="pyarrow")
    out = embedding_near_dups(corpus, "embedding", "vec_id", threshold=0.99, nbits=4)
    return out.map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow")


def _queries_matrix(sf_dir: str, n: int = 3) -> np.ndarray:
    q = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    q = q.slice(0, n)
    return np.stack([np.asarray(v, np.float32) for v in q["embedding"].to_pylist()])


def q_ann_topk(sf_dir: str) -> ray.data.Dataset:
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = brute_force_topk(ds, _queries_matrix(sf_dir), k=5)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id"]), batch_format="pyarrow")


def q_ann_ivf(sf_dir: str) -> ray.data.Dataset:
    """IVF ANN with planted probes (corpus vectors scaled x3 — colinear, so
    a probe's top-1 is its source at cosine exactly 1.0 and probe + source
    always share the argmax centroid cell): verifies quantizer training,
    cell assignment and probe routing end-to-end against the exhaustive SQL
    top-1."""
    from .functions.ann import ivf_topk

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    probes = _queries_matrix(sf_dir, n=5) * np.float32(3.0)
    out = ivf_topk(ds, probes, k=1, n_cells=16, nprobe=4)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id"]), batch_format="pyarrow")


def q_ann_ivf_indexed(sf_dir: str) -> ray.data.Dataset:
    """Persisted-IVF-index ANN (VERDICT r2 next-step 5): builds (or reuses)
    the cell-partitioned index under /tmp, then answers planted ×3-scaled
    probes by reading ONLY the probed cells' partitions.  Oracle = the same
    exhaustive top-1 as ann_ivf — a probe routed to the wrong cell
    partition (or a mis-assigned corpus row) misses its colinear source."""
    import hashlib

    from .functions.ann import build_ivf_index, ivf_topk_indexed

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(emb_path)
    # fingerprint the SOURCE file (path + mtime + size) so a regenerated
    # fixture invalidates the cached index instead of answering stale
    tag = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{st.st_mtime_ns}:{st.st_size}".encode()
    ).hexdigest()[:10]
    index_dir = os.path.join(tempfile.gettempdir(), f"airbyte_ray_ivf_{tag}")
    if not os.path.exists(os.path.join(index_dir, "ivf_meta.json")):
        shutil.rmtree(index_dir, ignore_errors=True)  # half-built leftovers
        ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        build_ivf_index(ds, index_dir, n_cells=16)
    probes = _queries_matrix(sf_dir, n=5) * np.float32(3.0)
    out = ivf_topk_indexed(index_dir, probes, k=1, nprobe=4)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id"]), batch_format="pyarrow")


def q_ann_lsh(sf_dir: str) -> ray.data.Dataset:
    """LSH-filtered nearest neighbour with PLANTED probes: each probe is a
    corpus vector scaled ×3 (colinear), so its true top-1 is its source at
    cosine exactly 1.0 (natural max ≈0.6) — deterministic, and the oracle
    verifies the LSH bucket ROUTING end-to-end: a probe that lands in the
    wrong bucket would miss its source."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    probes = _queries_matrix(sf_dir, n=5) * np.float32(3.0)
    out = lsh_topk(ds, probes, k=1, nbits=6, nprobe=8)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id"]), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# tokenized-sequence lake ops: packing, mixing, shuffle, scrub, repetition
# ---------------------------------------------------------------------------

def _plant_tokens(t: pa.Table) -> pa.Table:
    """Deterministic per-doc token arrays — ``doc_id % 50 + 1`` tokens of
    value ``doc_id*1000 + j`` — so the packed stream is a pure function of
    the doc_id set and the oracle can rebuild it with generate_series."""
    d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lens = d % 50 + 1
    tot = int(lens.sum())
    docrep = np.repeat(d, lens)
    j = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    vals = (docrep * 1000 + j).astype(np.int32)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    toks = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(vals, pa.int32()))
    return pa.table({"doc_id": t["doc_id"], "tokens": toks})


def _explode_packed(t: pa.Table) -> pa.Table:
    la = t["tokens"].combine_chunks()
    lens = pc.list_value_length(la).to_numpy(zero_copy_only=False).astype(np.int64)
    seq = np.repeat(t["seq_id"].to_numpy(zero_copy_only=False), lens)
    pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    return pa.table({
        "seq_id": pa.array(seq), "pos": pa.array(pos),
        "token": la.flatten(),
    })


def q_pack_sequences(sf_dir: str) -> ray.data.Dataset:
    """Concat-and-chunk sequence packing over PLANTED per-doc token arrays
    (the harness documents table has no tokens column): docs sort by
    doc_id, an EOS (-1) follows each doc, and the stream chops into
    64-token sequences.  Output is exploded to (seq_id, pos, token) scalar
    rows so the driver's value-hash covers every token byte; the oracle
    rebuilds the identical stream with row_number over generate_series."""
    from .functions.pack import pack_sequences

    packed = pack_sequences(
        _docs(sf_dir, columns=["doc_id"]).map_batches(_plant_tokens, batch_format="pyarrow"),
        tokens_col="tokens", seq_len=64, eos=-1, order_col="doc_id",
    )
    return packed.map_batches(_explode_packed, batch_format="pyarrow")


def q_shuffle_rank(sf_dir: str) -> ray.data.Dataset:
    """Deterministic training-data shuffle: rank = position in the
    md5(seed:doc_id) order.  Returning the RANK (not just the rows) makes
    the permutation itself value-checked — the driver compare normalizes
    row order, so ordering must be reified into a column to be verified."""
    from .functions.pack import deterministic_shuffle

    return deterministic_shuffle(_docs(sf_dir, columns=["doc_id"]), "doc_id", seed=7)


def q_interleave_sources(sf_dir: str) -> ray.data.Dataset:
    """Deterministic curriculum interleave: within-source md5 rank +
    round-robin global position — the permutation itself is value-checked
    (both rank columns reified)."""
    from .functions.pack import interleave_sources

    return interleave_sources(
        _docs(sf_dir, columns=["doc_id", "source"]), seed=7)


def q_sample_stratified(sf_dir: str) -> ray.data.Dataset:
    """Deterministic source mixing: source srcN keeps rate (N%4+1)/8 —
    dyadic rates, so rate*2^32 is exact in both engines and the oracle's
    printf-threshold comparison is bit-identical to the operator's."""
    from .functions.sample import stratified_sample

    rates = {f"src{n}": ((n % 4) + 1) / 8 for n in range(1000)}
    return stratified_sample(
        _docs(sf_dir, columns=["doc_id", "source"]), rates,
        strat_col="source", key_col="doc_id",
    )


def q_scrub_pii(sf_dir: str) -> ray.data.Dataset:
    """Regex PII scrub over text with PLANTED emails/URLs (the corpus has
    none): doc_id%3 routes each doc to an appended email, an appended URL,
    or nothing, then the scrub must redact exactly those — plus prove the
    untouched text survives byte-identically (clean_text is compared in
    full)."""
    from .functions.text import scrub_regex

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["text"].cast(pa.string()).to_pylist()
        out = [
            txt + (f" contact user{i}@example.com now" if i % 3 == 0
                   else f" see https://site{i}.example.org/page ok" if i % 3 == 1
                   else "")
            for i, txt in zip(d, s)
        ]
        return pa.table({"doc_id": t["doc_id"], "text": pa.array(out)})

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(scrub_regex("text"), batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")
    )


def q_repetition(sf_dir: str) -> ray.data.Dataset:
    """Within-document repetition signals (Gopher-style filters) over the
    real corpus text — no planting needed, the stats are SQL-expressible."""
    from .functions.text import repetition_stats

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(repetition_stats("text"), batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")
    )


def q_dlq_coerce(sf_dir: str) -> ray.data.Dataset:
    """Typed-coercion dead-letter queue: PLANTED unparseable numerics
    (doc_id%7==0 gets 'N/A', doc_id%11==0 gets '12,5' — comma decimals
    don't cast) quarantine to a DLQ parquet dir with per-row reasons; the
    clean stream flows on with the cast applied.  Oracle: DuckDB TRY_CAST
    — the surviving rows and their values are exactly the castable ones.
    Quarantine happens in-task (zero exchange, content-hash filenames =
    retry-idempotent)."""
    import hashlib as _hl

    from .stages.normalize import coerce_with_dlq

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        raw = [
            "N/A" if i % 7 == 0 else ("12,5" if i % 11 == 0 else str(i * 3))
            for i in d
        ]
        return pa.table({"doc_id": t["doc_id"], "raw_value": pa.array(raw)})

    tag = _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    dlq_dir = os.path.join(tempfile.gettempdir(), f"airbyte_ray_dlq_{tag}")
    shutil.rmtree(dlq_dir, ignore_errors=True)
    schema = pa.schema([("doc_id", pa.int64()), ("raw_value", pa.int64())])
    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(coerce_with_dlq(schema, dlq_dir), batch_format="pyarrow")
    )


def q_heavy_hitters(sf_dir: str) -> ray.data.Dataset:
    """Sketch-guided exact heavy hitters: a count-min pass (one scan,
    bucketed parallel merge) prunes the corpus to candidate keys — CMS
    only overestimates, so no true hitter is lost — and the exact groupby
    runs over candidates only.  Output is EXACTLY ``GROUP BY … HAVING
    count(*) ≥ 80`` whatever the sketch's collisions, which is what makes
    a sketch operator SQL-oracle-checkable."""
    from .functions.sketch import heavy_hitters

    return heavy_hitters(_events(sf_dir, columns=["user_id"]), "user_id", min_count=80)


def q_bloom_antijoin(sf_dir: str) -> ray.data.Dataset:
    """Bloom-prefiltered EXACT anti-join (customers with no events): the
    broadcast bloom rules out ~90% of customers in-task with zero
    exchange; only bloom-positive keys (true members + FP band) take the
    exact hash-bucketed verification.  Output equals NOT IN regardless of
    the filter's false positives — the scale path for 'skip keys already
    in the lake' where the exact key set no longer broadcasts."""
    from .functions.bloom import bloom_anti_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_name"]
    )
    return bloom_anti_join(
        cust, _events(sf_dir, columns=["user_id"]),
        on="c_custkey", keys_col="user_id", est_keys=1 << 16, fp_rate=0.01,
    )


def q_sample_bottomk(sf_dir: str) -> ray.data.Dataset:
    """Exact-size deterministic uniform sample (bottom-k md5 priorities):
    per-block combiner + tiny final sort — the reproducible 'take exactly
    k docs' primitive a training run snapshots its eval set with."""
    from .functions.sample import bottom_k_sample

    return bottom_k_sample(_docs(sf_dir, columns=["doc_id", "source"]), k=100, seed=7)


def q_quality_gate(sf_dir: str) -> ray.data.Dataset:
    """Composition: one distributed result drives another — the exact
    25th-percentile token count becomes the broadcast cutoff for an
    in-task filter (the reproducible quality gate a corpus build uses)."""
    from .functions.sketch import percentile_filter

    return percentile_filter(q_token_count(sf_dir), "n_tokens", 0.25, keep="ge")


def q_sample_upsample(sf_dir: str) -> ray.data.Dataset:
    """Integer upsampling by stratum: srcN replicates N%3 times (0 drops,
    1 keeps, 2 doubles), copies tagged with copy_idx — vectorized take
    with a repeat index, zero exchange; oracle = LATERAL generate_series."""
    from .functions.sample import upsample

    factors = {f"src{n}": n % 3 for n in range(1000)}
    return upsample(
        _docs(sf_dir, columns=["doc_id", "source"]), factors, strat_col="source"
    )


def q_grouped_topn(sf_dir: str) -> ray.data.Dataset:
    """Per-key window rank: top-3 events per user by value (ties by
    event_id) — batch-local prune before the exchange, so the shuffle
    carries ≤3 rows per (key, batch)."""
    from .functions.agg import grouped_topn

    return grouped_topn(
        _events(sf_dir, columns=["user_id", "event_id", "value"]),
        key="user_id", order_col="value", n=3, tie_col="event_id",
    )


def q_pivot_counts(sf_dir: str) -> ray.data.Dataset:
    """Conditional aggregation: per-user event_type counts as columns."""
    from .functions.agg import pivot_counts

    return pivot_counts(
        _events(sf_dir, columns=["user_id", "event_type"]),
        key="user_id", pivot_col="event_type",
        values=["click", "error", "purchase", "signup", "view"],
    )


def q_quantiles(sf_dir: str) -> pa.Table:
    """Exact distributed quantiles of events.value — sort + prefix-scan
    rank + rank filter; only the picked rows reach the driver."""
    from .functions.sketch import exact_quantiles

    return exact_quantiles(
        _events(sf_dir, columns=["value"]), "value", [0.1, 0.25, 0.5, 0.75, 0.9]
    )


def _plant_clusters(t: pa.Table) -> pa.Table:
    """Overwrite embeddings with 8 planted, well-separated spherical
    clusters: row r belongs to cluster ``vec_id % 8`` (center = basis
    vector e_r, plus a small deterministic sinusoidal perturbation), so
    converged k-means co-membership is a pure function of vec_id."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    d = 64
    centers = np.zeros((8, d), np.float64)
    centers[np.arange(8), np.arange(8)] = 1.0
    noise = 0.05 * np.sin(np.outer(ids + 1, np.arange(1, d + 1)))
    emb = (centers[ids % 8] + noise).astype(np.float32)
    cols = {n: t[n] for n in t.schema.names}
    cols["embedding"] = pa.array(list(emb))
    return pa.table(cols).select(t.schema.names)


def q_embedding_cluster(sf_dir: str) -> ray.data.Dataset:
    """Distributed Lloyd k-means (per-batch partial-sum combiner, broadcast
    centroids) over planted clusters; output labels each vector with its
    cluster representative (min vec_id in the cluster), which the planted
    geometry pins to ``vec_id % 8``."""
    from ray.data.aggregate import Min

    from .functions.cluster import assign_clusters, kmeans_fit

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(_plant_clusters, batch_format="pyarrow")
    init_t = _plant_clusters(
        pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"]).slice(0, 8)
    )
    init = np.stack([np.asarray(v, np.float32) for v in init_t["embedding"].to_pylist()])
    cents = kmeans_fit(ds, init=init, iters=5)
    labeled = assign_clusters(ds, cents)
    reps = labeled.groupby("cluster").aggregate(Min("vec_id", alias_name="cluster_rep"))
    rep_map = {r["cluster"]: r["cluster_rep"] for r in reps.take_all()}

    def relabel(t: pa.Table) -> pa.Table:
        cl = t["cluster"].to_numpy(zero_copy_only=False)
        lut = np.full(int(cl.max(initial=0)) + 1, -1, np.int64)
        for c, rep in rep_map.items():
            if c < len(lut):
                lut[c] = rep
        return pa.table({"vec_id": t["vec_id"], "cluster_rep": pa.array(lut[cl])})

    return labeled.map_batches(relabel, batch_format="pyarrow")


_DECON_N = 8          # word n-gram width
_DECON_TEST_MOD = 97  # docs with doc_id % 97 == 0 form the benchmark set
_DECON_PLANT_MOD = 29  # docs with doc_id % 29 == 0 get a test snippet appended
_DECON_SNIP_WORDS = 12


def _decon_corpus(sf_dir: str) -> tuple[ray.data.Dataset, pa.Table]:
    """(planted corpus, benchmark table): benchmark = every %97 doc
    (original text); planting appends the first 12 words of benchmark doc
    ``97 * (doc_id % n_test)`` to every %29 doc that is not itself a
    benchmark doc — mirrored exactly by the SQL oracle."""
    test = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    _ids = test["doc_id"].to_numpy(zero_copy_only=False)
    test = test.filter(pa.array(_ids % _DECON_TEST_MOD == 0))
    n_test = test.num_rows
    snips = np.array(
        [" ".join(s.split(" ")[:_DECON_SNIP_WORDS]) for s in test["text"].to_pylist()],
        dtype=object,
    )

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = (ids % _DECON_PLANT_MOD == 0) & (ids % _DECON_TEST_MOD != 0)
        snip = pa.array(snips[ids % n_test], pa.string())
        joined = pc.binary_join_element_wise(t["text"], snip, " ")
        text = pc.if_else(pa.array(mask), joined, t["text"])
        return pa.table({"doc_id": t["doc_id"], "text": text})

    corpus = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return corpus, test


def q_decontaminate(sf_dir: str) -> ray.data.Dataset:
    """Benchmark decontamination: word-8-gram overlap against a broadcast
    test-set gram table flags every contaminated corpus doc (one streaming
    pass, Arrow kernels only)."""
    from .functions.decontam import decontaminate

    corpus, test = _decon_corpus(sf_dir)
    return decontaminate(corpus, test, n=_DECON_N, keep_clean=False)


def q_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped pricing summary: read-pruned columns, vectorized
    derived measures, per-batch Arrow combiner, tiny global groupby — the
    post-load ELT aggregate every warehouse sync feeds.

    Money math is EXACT int64 grid arithmetic (price → cents, discount/tax
    → basis points), not float sums: float summation is order-dependent in
    the last bits and the driver HASH-compares values, so a float total
    that differs from DuckDB's by 1 ulp — or rounds across a half-boundary
    under Arrow's half-even vs DuckDB's half-away — would flake."""
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    )
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"), pa.timestamp("us"))

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        # exact grids: qty integer-valued, price 2dp, disc/tax 2dp
        qty = pc.round(t["l_quantity"]).cast(pa.int64())
        price_c = pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64())
        disc_c = pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))).cast(pa.int64())
        tax_c = pc.round(pc.multiply(t["l_tax"], pa.scalar(100.0))).cast(pa.int64())
        disc_c4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        charge_c6 = pc.multiply(disc_c4, pc.add(pa.scalar(100, pa.int64()), tax_c))
        t = pa.table({
            "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
            "qty": qty, "base_c": price_c, "disc_c4": disc_c4,
            "charge_c6": charge_c6,
        })
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_c", "sum"), ("disc_c4", "sum"),
             ("charge_c6", "sum"), ("qty", "count")]
        )
        # pick by NAME ('<col>_<agg>'), not position — pyarrow has moved
        # group keys between first and last across versions (see agg.py)
        return pa.table({
            "l_returnflag": g["l_returnflag"], "l_linestatus": g["l_linestatus"],
            "p_qty": g["qty_sum"], "p_base": g["base_c_sum"],
            "p_disc": g["disc_c4_sum"], "p_charge": g["charge_c6_sum"],
            "p_n": g["qty_count"],
        })

    partials = li.map_batches(combine, batch_format="pyarrow")
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_base", alias_name="sum_base_price_c"),
        Sum("p_disc", alias_name="sum_disc_price_c4"),
        Sum("p_charge", alias_name="sum_charge_c6"),
        Sum("p_n", alias_name="count_order"),
    )
    return out.map_batches(
        lambda t: t.select(["l_returnflag", "l_linestatus", "sum_qty",
                            "sum_base_price_c", "sum_disc_price_c4",
                            "sum_charge_c6", "count_order"]),
        batch_format="pyarrow",
    )


def q_revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q5-shaped multi-join rollup: nation broadcast into customer,
    customer⋈orders and orders⋈lineitem as partitioned hash joins, then a
    combiner + tiny groupby for revenue per nation."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    cust = ray.data.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                                 columns=["c_custkey", "c_nationkey"])
    cust_n = broadcast_join(
        cust, nation.rename_columns(["c_nationkey", "n_name"]), on="c_nationkey"
    ).map_batches(lambda t: t.select(["c_custkey", "n_name"])
                  .rename_columns(["o_custkey", "n_name"]), batch_format="pyarrow")
    orders = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                                   columns=["o_orderkey", "o_custkey"])
    ord_n = hash_join(orders, cust_n, on="o_custkey", num_buckets=16).map_batches(
        lambda t: t.select(["o_orderkey", "n_name"]).rename_columns(["l_orderkey", "n_name"]),
        batch_format="pyarrow",
    )
    li = ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    joined = hash_join(li, ord_n, on="l_orderkey", num_buckets=16)

    def combine(t: pa.Table) -> pa.Table:
        # exact int64 grid (cents × basis points) — see q_pricing_summary
        price_c = pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64())
        disc_c = pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))).cast(pa.int64())
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        g = pa.TableGroupBy(pa.table({"n_name": t["n_name"], "rev": rev}),
                            ["n_name"]).aggregate([("rev", "sum")])
        # name-based pick — positional rename breaks if pyarrow reorders keys
        return pa.table({"n_name": g["n_name"], "p_rev": g["rev_sum"]})

    return (joined.map_batches(combine, batch_format="pyarrow")
            .groupby("n_name").aggregate(Sum("p_rev", alias_name="revenue_c4")))


def q_top_orders(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q3-shaped shipping-priority query: segment-filtered customer
    broadcast into orders (small side), orders⋈lineitem partitioned hash
    join with BOTH sides date-pruned at the read, exact cents×basis-points
    revenue combiner, tiny groupby, deterministic top-10 (revenue desc,
    orderdate, orderkey).  Composes broadcast_join + hash_join + combiner
    + sort-limit — the full relational pipeline in one query."""
    CUT = pa.scalar(np.datetime64("1998-06-01", "us"), pa.timestamp("us"))

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
        .select(["c_custkey"]).rename_columns(["o_custkey"]),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], CUT)), batch_format="pyarrow"
    )
    # customers of the segment are the SMALL side: collect once, broadcast
    # as a semi-join key set that prunes orders in-task
    from .joins import semi_join

    cust_tbl = pa.concat_tables(
        [t for t in ray.get(cust.to_arrow_refs()) if t.num_rows]
    )
    ord_seg = semi_join(orders, cust_tbl, on="o_custkey").map_batches(
        lambda t: t.select(["o_orderkey", "o_orderdate", "o_orderpriority"])
        .rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow",
    )
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(
        lambda t: t.filter(pc.greater(t["l_shipdate"], CUT))
        .select(["l_orderkey", "l_extendedprice", "l_discount"]),
        batch_format="pyarrow",
    )
    joined = hash_join(li, ord_seg, on="l_orderkey", num_buckets=16)

    def combine(t: pa.Table) -> pa.Table:
        price_c = pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64())
        disc_c = pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))).cast(pa.int64())
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        g = pa.TableGroupBy(pa.table({
            "l_orderkey": t["l_orderkey"],
            "o_orderdate": t["o_orderdate"],
            "o_orderpriority": t["o_orderpriority"],
            "rev": rev,
        }), ["l_orderkey", "o_orderdate", "o_orderpriority"]).aggregate([("rev", "sum")])
        return pa.table({
            "l_orderkey": g["l_orderkey"],
            "o_orderdate": g["o_orderdate"],
            "o_orderpriority": g["o_orderpriority"],
            "p_rev": g["rev_sum"],
        })

    agg = (joined.map_batches(combine, batch_format="pyarrow")
           .groupby(["l_orderkey", "o_orderdate", "o_orderpriority"])
           .aggregate(Sum("p_rev", alias_name="revenue_c4")))
    top = agg.sort(["revenue_c4", "o_orderdate", "l_orderkey"],
                   descending=[True, False, False]).limit(10)
    return top


def q_approx_distinct(sf_dir: str) -> ray.data.Dataset:
    """Exact per-group distinct via two-level groupby; the streaming HLL
    sketch over the same column is computed alongside and the query FAILS
    LOUDLY if the estimate strays >5% from truth — the sketch is
    validated, the emitted numbers stay exact."""
    from .functions.sketch import approx_distinct

    ev = _events(sf_dir, columns=["event_type", "user_id"])
    pairs = ev.groupby(["event_type", "user_id"]).aggregate(Count(alias_name="_c"))
    out = pairs.groupby("event_type").aggregate(Count(alias_name="n_users"))
    est = approx_distinct(_events(sf_dir, columns=["user_id"]), "user_id", p=12)
    truth = _events(sf_dir, columns=["user_id"]).groupby("user_id").aggregate(
        Count(alias_name="_c")).count()
    if abs(est - truth) / max(truth, 1) > 0.05:
        raise AssertionError(f"HLL estimate {est} vs exact {truth} diverged >5%")
    return out.map_batches(
        lambda t: t.select(["event_type", "n_users"]), batch_format="pyarrow"
    )


def q_dedup_semantic(sf_dir: str) -> ray.data.Dataset:
    """SemDeDup-shaped semantic near-dup pairs over the SAME planted
    colinear fixture as dedup_embedding: k-means partitions the corpus and
    each cluster runs one exact pairwise-cosine matmul.  Colinear copies
    always share the nearest centroid, so the exhaustive SQL oracle checks
    recall AND precision of the cluster-bounded plan."""
    from .functions.cluster import semantic_near_dups

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    corpus = ds.map_batches(_plant_colinear, batch_format="pyarrow")
    out = semantic_near_dups(corpus, "embedding", "vec_id",
                             threshold=0.99, n_clusters=8, iters=4)
    return out.map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow")


def q_quality_model_score(sf_dir: str) -> ray.data.Dataset:
    """Batched model inference: a linear quality classifier loaded once per
    worker from the object store scores every doc in one vectorized pass.
    The logit is computed with left-associated IEEE ops over INT features,
    so the SQL oracle reproduces it bit-for-bit (see functions/score.py's
    determinism contract)."""
    from .functions.score import score_batches

    feats = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        quality_score("text"), batch_format="pyarrow"
    )
    scored = score_batches(
        feats, weights=[-0.01, 0.15], bias=-2.0,
        features=["q_len", "q_n_words"],
    )
    return scored.map_batches(
        lambda t: t.select(["doc_id", "score", "keep"]), batch_format="pyarrow"
    )


def q_tokenize_vocab(sf_dir: str) -> ray.data.Dataset:
    """Frequency-vocab tokenization: distributed word counting (per-batch
    Arrow combiner) builds the top-50 vocab, a broadcast searchsorted
    encode pass emits token ids.  Output exploded to (doc_id, pos, token)
    scalar rows so the value hash covers every id."""
    from .functions.tokenize import tokenize_corpus

    _, enc = tokenize_corpus(
        _docs(sf_dir, columns=["doc_id", "text"]), vocab_size=50
    )

    def explode(t: pa.Table) -> pa.Table:
        from .stages.nested import ragged_positions

        toks = t["tokens"].combine_chunks()
        n = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), n)
        pos = ragged_positions(n)
        return pa.table({
            "doc_id": pa.array(doc, pa.int64()),
            "pos": pa.array(pos + 1),  # 1-based, matching generate_series
            "token": toks.flatten(),
        })

    return enc.map_batches(explode, batch_format="pyarrow")


def _plant_bpe(t: pa.Table) -> pa.Table:
    """Planted BPE corpus: every doc's text is the pool ``aaaa aab bab bb``
    repeated ``1 + doc_id % 3`` times — all four pool words get IDENTICAL
    total counts, so the merge order depends only on within-pool pair
    structure and is derivable by hand (see q_tokenize_bpe)."""
    d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    opts = pa.array([" ".join(["aaaa aab bab bb"] * r) for r in (1, 2, 3)])
    return pa.table({"doc_id": pa.array(d), "text": opts.take(pa.array(d % 3))})


def q_tokenize_bpe(sf_dir: str) -> ray.data.Dataset:
    """Real subword (BPE) tokenization over a planted corpus whose merge
    table is derived BY HAND from the published algorithm — the oracle's
    literal encodings are that derivation, not engine output.

    Derivation (equal count N per pool word; pairs counted at every
    adjacent position; ties → lexicographically smallest pair):

    * start: aaaa=[a,a,a,a] aab=[a,a,b] bab=[b,a,b] bb=[b,b]
      pair counts/N: (a,a)=4 (a,b)=2 (b,a)=1 (b,b)=1 → merge1 (a,a)→aa
    * now aaaa=[aa,aa] aab=[aa,b]; counts/N: all five pairs tie at 1 →
      lexicographic min (a,b) → merge2 (a,b)→ab  (bab=[b,ab])
    * remaining ties at 1 → min (aa,aa) → merge3 → aaaa=[aaaa]
    * stop at num_merges=3.  Final symbols {a,b,aa,ab,aaaa} sorted
      lexicographically, 1-based: a=1 aa=2 aaaa=3 ab=4 b=5.
    * greedy encode (lowest rank first): aaaa→[3], aab→[2,5],
      bab→[5,4], bb→[5,5] → one pool repetition = [3,2,5,5,4,5,5].

    The query asserts training reproduced exactly that merge table, then
    explodes the encode to (doc_id, pos, token) scalar rows."""
    from .functions.bpe import encode_bpe, train_bpe_corpus

    corpus = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _plant_bpe, batch_format="pyarrow"
    )
    vocab = train_bpe_corpus(corpus, col="text", num_merges=3)
    assert vocab.merges == [("a", "a"), ("a", "b"), ("aa", "aa")], vocab.merges
    assert vocab.sym2id == {"a": 1, "aa": 2, "aaaa": 3, "ab": 4, "b": 5}
    enc = encode_bpe(corpus, vocab, col="text", id_col="doc_id")

    def explode(t: pa.Table) -> pa.Table:
        from .stages.nested import ragged_positions

        toks = t["tokens"].combine_chunks()
        n = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), n)
        pos = ragged_positions(n)
        return pa.table({
            "doc_id": pa.array(doc, pa.int64()),
            "pos": pa.array(pos + 1),  # 1-based, matching generate_series
            "token": toks.flatten(),
        })

    return enc.map_batches(explode, batch_format="pyarrow")


def q_sample_per_group(sf_dir: str) -> ray.data.Dataset:
    """Grouped reservoir: exactly 7 docs per source, deterministic in
    md5(seed:doc_id) priorities; the reified rank checks the permutation."""
    from .functions.sample import grouped_bottom_k

    return grouped_bottom_k(
        _docs(sf_dir, columns=["doc_id", "source"]),
        k=7, group_col="source", key_col="doc_id", seed=11,
    )


# ---------------------------------------------------------------------------
# registry + oracles
# ---------------------------------------------------------------------------

def q_join_range(sf_dir: str) -> ray.data.Dataset:
    """Interval (range) join — the custom-operator family the reference
    lacks (SURVEY §2.6 note): 12 OVERLAPPING value bands ``[i*40, i*40+60)``
    over the events value domain (each value hits 1–2 bands), joined with
    the domain-bucketed plan (left rows routed once, intervals replicated
    to overlapped buckets, one groupby exchange).  Oracle: the equivalent
    DuckDB inequality join over ``generate_series``."""
    from .joins import range_join

    i = np.arange(12, dtype=np.int64)
    bands = pa.table({
        "band_id": i,
        "lo": (i * 40).astype(np.float64),
        "hi": (i * 40 + 60).astype(np.float64),
    })
    out = range_join(
        _events(sf_dir, columns=["event_id", "value"]),
        ray.data.from_arrow(bands),
        on="value", lo="lo", hi="hi",
        bounds=np.linspace(0.0, 500.0, 9)[1:-1],  # 8 domain buckets
    )
    return out.map_batches(
        lambda t: t.select(["event_id", "band_id"]), batch_format="pyarrow"
    )


def q_window_running(sf_dir: str) -> ray.data.Dataset:
    """Cumulative window aggregate: per user, running money total ordered
    by event_id, plus lag(event_id).  Money goes through the exact int64
    cents grid (``floor(value*100)`` — identical float64 expression on both
    sides) so the running sum is hash-exact, and lag is pure int.  NULLs
    are PLANTED deterministically (``event_id % 19 == 0``) on both sides so
    the driver hash genuinely exercises running_agg's SQL NULL semantics:
    SUM skips nulls; an all-null prefix is NULL, not 0."""
    from .functions.agg import running_agg

    def cents(t: pa.Table) -> pa.Table:
        # Arrow kernels keep NULL as NULL — np.floor(NaN).astype(int64)
        # would mint INT64_MIN as a valid value (review finding)
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        c = pc.if_else(_mod_eq0(t["event_id"], 19), pa.scalar(None, pa.int64()), c)
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "cents": c,
        })

    out = running_agg(
        _events(sf_dir, columns=["user_id", "event_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", order_col="event_id", val_col="cents",
        out="run_cents", lag_out="prev_event_id",
    )
    return out.map_batches(
        lambda t: t.drop_columns(["cents"]), batch_format="pyarrow"
    )


def q_window_nav(sf_dir: str) -> ray.data.Dataset:
    """Navigation-window family in one segmented pass: lag/lead/
    first_value/last_value of the money column (exact int64 cents grid —
    pure gathers, hash-exact) plus percent_rank (both sides divide the
    same small ints in IEEE double; event_id is unique per user so row
    position == SQL rank)."""
    from .functions.agg import window_nav

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "cents": c,
        })

    out = window_nav(
        _events(sf_dir, columns=["user_id", "event_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", order_col="event_id", val_col="cents",
    )
    return out.map_batches(
        lambda t: t.drop_columns(["cents"]), batch_format="pyarrow"
    )


def q_grouped_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-user money statistics with hash-exact floats: the parallel
    reduction folds EXACT int64 moments (n, Σcents, Σcents²) — order-
    independent — and mean/var/std derive in one fixed IEEE expression
    the oracle spells out identically.  The only way a float statistic
    survives the driver's hash comparison."""
    from .functions.agg import grouped_stats

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        return pa.table({"user_id": t["user_id"], "cents": c})

    return grouped_stats(
        _events(sf_dir, columns=["user_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", col="cents",
    )


def q_profile_table(sf_dir: str) -> ray.data.Dataset:
    """Data-quality profile of the events table (int + string columns):
    per-column row/null counts, EXACT distinct counts (one (column, key)
    exchange), and min/max folded in native types before stringifying —
    the scan a pipeline runs before trusting a new source."""
    from .functions.profile import profile_table

    return profile_table(
        _events(sf_dir, columns=["event_id", "user_id", "event_type"]),
        ["event_id", "user_id", "event_type"],
    )


def q_fuzzy_pairs(sf_dir: str) -> ray.data.Dataset:
    """Edit-distance-1 pair discovery WITHOUT all-pairs: each doc gets a
    planted short title ``prod-{doc_id//10}{letter}``; docs in the same
    decade differ by one substitution and decade boundaries contribute
    insert-1 pairs — the SymSpell delete-1 bucketing must find EVERY
    Levenshtein-≤1 pair (recall-complete by construction), exact DP
    verification makes precision exact, so the result equals the
    exhaustive-SQL levenshtein join."""
    from .functions.fuzzy import fuzzy_pairs

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "doc_id": t["doc_id"],
            "title": pa.array([f"prod-{d//10}{chr(97 + d % 10)}" for d in ids]),
        })

    return fuzzy_pairs(
        _docs(sf_dir, columns=["doc_id"]).map_batches(plant, batch_format="pyarrow"),
        col="title", id_col="doc_id", max_dist=1,
    )


def q_fuzzy_pairs_d2(sf_dir: str) -> ray.data.Dataset:
    """Edit-distance-2 pair discovery (delete-2 SymSpell, round-5).  Every
    10-doc group gets a high-entropy 40-bit-hex anchor title plus planted
    variants — substitution (d=1), double substitution (d=2), deletion
    (d=1), double insertion (d=2) — and 5 unique hex fillers, so buckets
    stay tiny (hex entropy) while every distance class ≤ 2 is exercised.
    The delete-≤2 bucketing must equal the exhaustive levenshtein join."""
    from .functions.fuzzy import fuzzy_pairs

    def plant(t: pa.Table) -> pa.Table:
        def title(d: int) -> str:
            g, r = d // 10, d % 10
            base = format((g * 2654435761 + 12345) % (1 << 40), "010x")
            if r == 0:
                return base
            if r == 1:
                return base[:3] + "z" + base[4:]
            if r == 2:
                return base[:2] + "z" + base[3:7] + "q" + base[8:]
            if r == 3:
                return base[:5] + base[6:]
            if r == 4:
                return base[:4] + "zz" + base[4:]
            return format((d * 2654435761 + 98765) % (1 << 40), "010x")

        ids = t["doc_id"].to_pylist()
        return pa.table({
            "doc_id": t["doc_id"],
            "title": pa.array([title(d) for d in ids]),
        })

    return fuzzy_pairs(
        _docs(sf_dir, columns=["doc_id"]).map_batches(plant, batch_format="pyarrow"),
        col="title", id_col="doc_id", max_dist=2,
    )


def q_corr_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-returnflag Pearson correlation of quantity vs discount-cents —
    exact int64 moment fold, r derived in the one fixed IEEE expression
    the oracle mirrors.  Small-magnitude columns (qty ≤ 50, cents ≤ 10)
    keep Σx²/Σxy far from int64 overflow at every scale factor."""
    from .functions.agg import grouped_corr

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "qty": t["l_quantity"].cast(pa.int64()),
            "disc_c": pc.floor(pc.multiply(t["l_discount"], 100.0)).cast(pa.int64()),
        })

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity", "l_discount"],
    ).map_batches(prep, batch_format="pyarrow")
    return grouped_corr(ds, "l_returnflag", "qty", "disc_c")


def q_histogram(sf_dir: str) -> ray.data.Dataset:
    """Fixed-bin histogram of events.value over [0, 500) in 20 bins —
    per-batch bincount partials, IEEE-identical bin edges on both
    sides."""
    from .functions.agg import histogram

    return histogram(
        _events(sf_dir, columns=["value"]), "value", lo=0.0, hi=500.0, nbins=20
    )


def q_media_decode(sf_dir: str) -> ray.data.Dataset:
    """Multimodal decode, oracle-checked end-to-end: each doc gets a REAL
    planted image whose dims and fill byte are pure functions of doc_id —
    doc_id%4 cycles binary PPM / 24-bit BMP / zlib PNG / baseline JPEG
    (all REAL in-repo codecs; PNG exercises inflate + scanline
    unfiltering, JPEG exercises huffman entropy decode + IDCT — a flat
    fill is DC-only so lossy JPEG still decodes it bit-exact, verified
    for every fill value 0..250 at q95).  The actor-pool ``MediaDecode``
    stage decodes payload bytes → ragged pixels; the checksum ``px_sum``
    (sum of every decoded RGB byte) is recomputed by the oracle as
    ``w*h*3*fill`` — so the oracle verifies decoded CONTENT for every
    format.  The plant/encode loop is fixture generation, not the
    operator; decode is inherently per-payload (documented)."""
    from .functions.jpeg import encode_jpeg
    from .functions.multimodal import MediaDecode, encode_bmp, encode_png, encode_ppm

    def plant(t: pa.Table) -> pa.Table:
        encs = [(encode_ppm, "image/x-portable-pixmap"),
                (encode_bmp, "image/bmp"),
                (encode_png, "image/png"),
                (lambda px: encode_jpeg(px, quality=95), "image/jpeg")]
        payloads, mimes = [], []
        for d in t["doc_id"].to_pylist():
            w, h, fill = 4 + d % 5, 3 + d % 4, d % 251
            px = np.full((h, w, 3), fill, np.uint8)
            enc, mime = encs[d % 4]
            payloads.append(enc(px))
            mimes.append(mime)
        return pa.table({
            "doc_id": t["doc_id"],
            "mime": pa.array(mimes),
            "payload": pa.array(payloads, pa.binary()),
        })

    def checksum(t: pa.Table) -> pa.Table:
        col = t["pixels"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        # lists are never empty (w,h ≥ 3) so reduceat offsets are strict
        sums = np.add.reduceat(flat, offs[:-1]) if len(flat) else np.array([], np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "img_w": t["img_w"],
            "img_h": t["img_h"],
            "px_sum": pa.array(sums.astype(np.int64)),
        })

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(MediaDecode, batch_format="pyarrow",
                     batch_size=128, concurrency=(1, 8))
        .map_batches(checksum, batch_format="pyarrow")
    )


def q_media_frames(sf_dir: str) -> ray.data.Dataset:
    """Video decode + frame sampling, oracle-checked end-to-end: each doc
    gets a REAL MJPEG AVI (RIFF container, in-repo baseline JPEG frames)
    with ``2 + d%3`` flat-filled frames whose fill is ``(d + 37*f) % 251``
    — flat frames are DC-only so lossy JPEG decodes them bit-exact.
    ``VideoFrameSample(every=2)`` keeps frames 0 and 2, inflating ONLY
    those (skipped frames are a chunk scan, never decoded); the per-frame
    checksum ``px_sum = w*h*3*fill`` is recomputed by the oracle from
    doc_id and frame_idx alone, so it verifies decoded frame CONTENT and
    the sampling pattern together."""
    from .functions.video import VideoFrameSample, encode_avi_mjpeg

    def plant(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w, h, nf = 8 + d % 5, 8 + d % 4, 2 + d % 3
            frames = np.stack([
                np.full((h, w, 3), (d + 37 * f) % 251, np.uint8)
                for f in range(nf)
            ])
            payloads.append(encode_avi_mjpeg(frames, quality=95))
        return pa.table({
            "media_id": t["doc_id"],
            "mime": pa.array(["video/x-msvideo"] * t.num_rows),
            "payload": pa.array(payloads, pa.binary()),
        })

    def checksum(t: pa.Table) -> pa.Table:
        col = t["pixels"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        sums = np.add.reduceat(flat, offs[:-1]) if len(flat) else np.array([], np.int64)
        return pa.table({
            "doc_id": t["media_id"],
            "frame_idx": t["frame_idx"].cast(pa.int64()),
            "px_sum": pa.array(sums.astype(np.int64)),
        })

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(VideoFrameSample, fn_constructor_kwargs={"every": 2},
                     batch_format="pyarrow", batch_size=64, concurrency=(1, 8))
        .map_batches(checksum, batch_format="pyarrow")
    )


def q_audio_spectrogram(sf_dir: str) -> ray.data.Dataset:
    """Audio frontend, oracle-checked end-to-end: each doc gets a REAL
    PCM WAV of a BIN-CENTERED pure tone — freq = k·rate/n_fft with
    k = 5 + d%90 (rate 8000, n_fft 256) — decoded by ``WavDecode`` and
    FFT'd by the vectorized ``Spectrogram`` stage.  A bin-centered sine's
    magnitude peaks at exactly bin k (Hann leakage is symmetric), so the
    oracle recomputes ``peak_bin`` and ``n_frames`` from doc_id alone —
    verifying the whole decode→frame→window→FFT chain, not just
    plumbing.  2000 samples, hop 128 ⇒ (2000−256)//128+1 = 14 frames."""
    from .functions.multimodal import Spectrogram, WavDecode, encode_wav

    RATE, N_FFT, N_SAMP = 8000, 256, 2000

    def plant(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            k = 5 + d % 90
            tt = np.arange(N_SAMP) / RATE
            sig = 12000 * np.sin(2 * np.pi * (k * RATE / N_FFT) * tt)
            payloads.append(encode_wav(sig.astype(np.int16), RATE))
        return pa.table({
            "doc_id": t["doc_id"],
            "payload": pa.array(payloads, pa.binary()),
        })

    return (
        _docs(sf_dir, columns=["doc_id"])
        .map_batches(plant, batch_format="pyarrow")
        .map_batches(WavDecode, batch_format="pyarrow",
                     batch_size=128, concurrency=(1, 8))
        .map_batches(Spectrogram, batch_format="pyarrow",
                     batch_size=128, concurrency=(1, 8))
        .map_batches(lambda t: pa.table({
            "doc_id": t["doc_id"],
            "n_frames": t["n_frames"].cast(pa.int64()),
            "peak_bin": t["peak_bin"].cast(pa.int64()),
        }), batch_format="pyarrow")
    )


def q_rollup_sets(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): every prefix grouping
    level in ONE pass — the per-batch combiner partial-aggregates all
    levels, so the exchange carries a handful of rows per batch.  Quantity
    goes through int64 (TPC-H quantities are integer-valued) so sums are
    hash-exact; ``gid`` follows SQL GROUPING() bit semantics."""
    from .functions.agg import rollup_agg

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": t["l_quantity"].cast(pa.int64()),
        })

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    ).map_batches(prep, batch_format="pyarrow")
    return rollup_agg(ds, ["l_returnflag", "l_linestatus"], "qty",
                      sum_out="sum_qty", count_out="n")


def q_cube_sets(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY CUBE(l_returnflag, l_linestatus): every SUBSET grouping
    level (4 sets at n=2 — ROLLUP's prefixes plus the (linestatus)-only
    marginal) in the same one-exchange partial-aggregate plan."""
    from .functions.agg import cube_agg

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": t["l_quantity"].cast(pa.int64()),
        })

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    ).map_batches(prep, batch_format="pyarrow")
    return cube_agg(ds, ["l_returnflag", "l_linestatus"], "qty",
                    sum_out="sum_qty", count_out="n")


def q_unpivot(sf_dir: str) -> ray.data.Dataset:
    """Melt the lineitem money columns into (variable, value) rows — the
    inverse reshape of pivot_counts, zero exchange."""
    from .stages.transforms import unpivot

    return ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_tax"],
    ).map_batches(
        unpivot(["l_orderkey", "l_linenumber"],
                ["l_extendedprice", "l_discount", "l_tax"],
                var_name="measure", value_name="amount"),
        batch_format="pyarrow",
    )


def q_join_outer(sf_dir: str) -> ray.data.Dataset:
    """FULL OUTER partitioned hash join — events ⟗ documents(doc_id ≥ 100)
    on user_id: low users are left-only (null doc cols), high doc_ids are
    right-only (null event cols); both unmatched sides must surface
    exactly once (bucket-local-correct because a key hashes to one
    bucket)."""
    def right(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["doc_id"], 100))
        return pa.table({"user_id": t["doc_id"], "n_chars": t["n_chars"]})

    ev = _events(sf_dir, columns=["event_id", "user_id"])
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        right, batch_format="pyarrow"
    )
    return hash_join(ev, docs, on="user_id", how="outer")


def q_window_rolling(sf_dir: str) -> ray.data.Dataset:
    """Moving-window sum (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) per
    user on the exact int64 cents grid — two reads of a segmented cumsum,
    O(rows) regardless of window width.  NULLs are PLANTED deterministically
    (``event_id % 19 == 0``) on both sides so the driver hash exercises
    rolling_agg's SQL NULL semantics (all-null window → NULL, not 0)."""
    from .functions.agg import rolling_agg

    def cents(t: pa.Table) -> pa.Table:
        # Arrow kernels keep NULL as NULL — np.floor(NaN).astype(int64)
        # would mint INT64_MIN as a valid value (review finding)
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        c = pc.if_else(_mod_eq0(t["event_id"], 19), pa.scalar(None, pa.int64()), c)
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "cents": c,
        })

    out = rolling_agg(
        _events(sf_dir, columns=["user_id", "event_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", order_col="event_id", val_col="cents",
        preceding=3, out="roll_cents",
    )
    return out.map_batches(
        lambda t: t.drop_columns(["cents"]), batch_format="pyarrow"
    )


def q_set_ops(sf_dir: str) -> ray.data.Dataset:
    """SQL INTERSECT and EXCEPT in one result: users who both clicked and
    errored (intersect) and users who clicked but never errored (except),
    via the shared one-exchange membership-flag plan."""
    from .functions.setops import set_compare

    def of_type(v):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], v)).select(["user_id"])

        return fn

    ev = _events(sf_dir, columns=["user_id", "event_type"])
    clicks = ev.map_batches(of_type("click"), batch_format="pyarrow")
    errors = ev.map_batches(of_type("error"), batch_format="pyarrow")
    cmp = set_compare(clicks, errors, ["user_id"])

    def emit(t: pa.Table) -> pa.Table:
        both = t.filter(pc.and_(t["in_left"], t["in_right"]))
        l_only = t.filter(pc.and_(t["in_left"], pc.invert(t["in_right"])))
        return pa.table({
            "user_id": pa.concat_arrays([
                both["user_id"].combine_chunks(),
                l_only["user_id"].combine_chunks(),
            ]),
            "op": pa.array(
                ["intersect"] * both.num_rows + ["except"] * l_only.num_rows,
                pa.string(),  # typed: an all-empty batch must not emit null type
            ),
        })

    return cmp.map_batches(emit, batch_format="pyarrow")


def q_grouped_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Per-user exact p50/p90 on the int64 cents grid — one exchange, all
    quantiles gathered per segment in one pass."""
    from .functions.agg import grouped_quantiles

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        return pa.table({"user_id": t["user_id"], "cents": c})

    return grouped_quantiles(
        _events(sf_dir, columns=["user_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", col="cents", qs=[0.5, 0.9],
    )


def q_grouped_quantiles_cont(sf_dir: str) -> ray.data.Dataset:
    """Per-user INTERPOLATED quartiles (quantile_cont semantics) on the
    cents grid with binary-fraction q (.25/.75): every lerp term is
    exactly representable, so the float output hash-matches DuckDB's
    regardless of its internal expression tree."""
    from .functions.agg import grouped_quantiles

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        return pa.table({"user_id": t["user_id"], "cents": c})

    return grouped_quantiles(
        _events(sf_dir, columns=["user_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", col="cents", qs=[0.25, 0.75], interpolation="linear",
    )


def q_window_ranks(sf_dir: str) -> ray.data.Dataset:
    """row_number / dense_rank / ntile(4) per user over the cents order —
    the full SQL ranking family from one segmented pass."""
    from .functions.agg import window_ranks

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.multiply(t["value"], 100.0)).cast(pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "cents": c,
        })

    out = window_ranks(
        _events(sf_dir, columns=["user_id", "event_id", "value"])
        .map_batches(cents, batch_format="pyarrow"),
        key="user_id", val_col="cents", tie_col="event_id", ntile=4,
    )
    return out.map_batches(
        lambda t: t.drop_columns(["cents"]), batch_format="pyarrow"
    )


def q_tfidf_terms(sf_dir: str) -> ray.data.Dataset:
    """Per-document top-3 TF-IDF terms (inverted-index shape: zero-exchange
    tf, one groupby(word) df exchange, partitioned hash join, grouped
    top-n).  ``idf_kind="rational"`` — tfidf = tf * ((N+1)/(df+1)), a
    pinned chain of correctly-rounded +,/,* ops, bit-exact vs the SQL
    oracle (transcendentals are not cross-engine reproducible; the
    standard ln idf path is pytest-verified instead)."""
    from .functions.relevance import tfidf_topk_terms

    return tfidf_topk_terms(
        _docs(sf_dir, columns=["doc_id", "text"]), n=3, idf_kind="rational")


def q_bm25_topk(sf_dir: str) -> ray.data.Dataset:
    """BM25 top-25 docs for a fixed 4-term query (k1=1.2, b=0.75): one
    column-pruned stats pass + one match pass emitting fixed per-term tf
    columns; per-doc score is a LEFT FOLD over terms in ascending word
    order so the rational-idf float chain matches the oracle's
    ``sum(contrib ORDER BY word)`` bit for bit."""
    from .functions.relevance import bm25_topk

    return bm25_topk(
        _docs(sf_dir, columns=["doc_id", "text"]),
        ["hash", "merge", "spark", "stream"], k=25, idf_kind="rational")


def _clustered_events_lake(sf_dir: str) -> str:
    """Per-sf cached value-clustered copy of events (+ event_id Bloom
    sidecars), keyed by the source's (path, mtime, size) so a regenerated
    events.parquet invalidates the cache."""
    import hashlib as _hl

    from .functions.layout import write_bloom_sidecars, write_clustered

    src = os.path.join(sf_dir, "events.parquet")
    st = os.stat(src)
    tag = _hl.md5(
        f"{os.path.abspath(sf_dir)}:{st.st_mtime_ns}:{st.st_size}".encode()
    ).hexdigest()[:10]
    lake = os.path.join("/tmp", f"clustered_events_{tag}")
    done = os.path.join(lake, ".done")
    if not os.path.exists(done):
        shutil.rmtree(lake, ignore_errors=True)  # half-built leftovers
        files = write_clustered(
            ray.data.read_parquet(src, columns=["event_id", "value"]),
            lake, "value", num_files=16)
        write_bloom_sidecars(files, "event_id")
        with open(done, "w"):
            pass
    return lake


def q_clustered_range(sf_dir: str) -> ray.data.Dataset:
    """Zone-map pruned range read over a clustered (value-sorted) copy of
    events: the sort makes each file's parquet footer min/max a tight zone
    map, so the [100, 150] range (~8% selectivity) opens only the files
    whose range overlaps — scan volume ∝ selectivity, proven by
    ``range_probed_files`` (bench counts the bytes).  Clustered copy is
    cached per-sf keyed by the source's (path, mtime, size)."""
    from .functions.layout import read_range

    return read_range(_clustered_events_lake(sf_dir), "value", 100.0, 150.0)


def q_point_lookup(sf_dir: str) -> ray.data.Dataset:
    """Bloom-sidecar pruned point lookup on event_id over the SAME
    value-clustered lake — the zone map can't help (event_ids scatter
    across value-sorted files), so per-file Bloom sidecars bound the scan
    to (hit files + fp band); the residual in-task is_in keeps the result
    exact."""
    from .functions.layout import read_points

    return read_points(_clustered_events_lake(sf_dir), "event_id",
                       [7, 97, 997, 4999, 9973])


def q_mix_temperature(sf_dir: str) -> ray.data.Dataset:
    """Temperature-based source mixing at T=0.5 over a char-count budget:
    one pruned groupby for per-source sizes, then the deterministic
    md5-threshold keep rule with rate = sqrt(min_sz/sz) — one division +
    one sqrt, both IEEE-correctly-rounded, so the kept subset is
    bit-identical to the SQL oracle's."""
    from .functions.sample import temperature_mix

    out = temperature_mix(
        _docs(sf_dir, columns=["doc_id", "source", "n_chars"]),
        temperature=0.5, size_col="n_chars")
    return out.select_columns(["doc_id", "source"])


def q_ngram_topk(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide top-25 word bigrams with 1-based rank — per-block
    distinct-gram partial counts (vectorized take over the flattened token
    array, no row-per-token materialization), one groupby(gram) sum
    exchange, local top-k prune, sort+limit, single-block rank stamp."""
    from .functions.relevance import ngram_topk

    return ngram_topk(_docs(sf_dir, columns=["text"]), n=2, k=25)


def q_dup_substrings(sf_dir: str) -> ray.data.Dataset:
    """Exact cross-document duplicated-substring spans (Lee et al.,
    arXiv:2107.06499 style) over 8-word windows: per doc the maximal
    merged spans of windows whose word sequence appears in >=2 distinct
    docs (the min-doc_id keeper keeps its copy).  Two exchanges: one
    groupby routed by window hash (dup detection + hit extraction in a
    single segmented kernel — no join back), one by doc_id for span
    assembly over the hit rows only."""
    from .functions.substring import dup_substring_spans

    return dup_substring_spans(
        _docs(sf_dir, columns=["doc_id", "text"]), k=8)


def _plant_dup_tokens(t: pa.Table) -> pa.Table:
    """Deterministic token arrays with PLANTED cross-doc duplicate runs:
    base token = (7*doc_id + i*i) % 99991 (quadratic in position, so no
    two docs can share a k-run accidentally — equal consecutive
    differences force equal positions, then equal docs), and docs with
    doc_id % 10 == 3 carry the shared run 900000..900019 at positions
    5..24 (truncated by short docs, which makes partial-prefix sharing
    part of the fixture)."""
    d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lens = d % 40 + 20
    tot = int(lens.sum())
    docrep = np.repeat(d, lens)
    i = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    vals = (7 * docrep + i * i) % 99991
    run = (docrep % 10 == 3) & (i >= 5) & (i <= 24)
    vals = np.where(run, 900000 + (i - 5), vals).astype(np.int32)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    toks = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(vals, pa.int32()))
    return pa.table({"doc_id": t["doc_id"], "tokens": toks})


def q_dup_token_spans(sf_dir: str) -> ray.data.Dataset:
    """Substring dedup over the PRE-TOKENIZED lake shape (doc_id,
    tokens:list<int32>): 16-token windows, planted cross-doc runs —
    the tokens-native kernel hashes int32 windows directly (splitmix64
    avalanche + polynomial combine), no string work at all."""
    from .functions.substring import dup_token_spans

    planted = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _plant_dup_tokens, batch_format="pyarrow")
    return dup_token_spans(planted, k=16)


def q_dup_substrings_all(sf_dir: str) -> ray.data.Dataset:
    """Paper-scope substring dedup (scope="all"): a window duplicated
    ANYWHERE (within-doc repeats count) is flagged everywhere except its
    single globally-first occurrence (min doc_id, then min pos)."""
    from .functions.substring import dup_substring_spans

    return dup_substring_spans(
        _docs(sf_dir, columns=["doc_id", "text"]), k=8, scope="all")


QUERIES = {
    # Round-5 ordering: the 31 queries never yet sampled into a driver
    # CORRECTNESS artifact lead (the driver takes the first 50), followed
    # by the flagship CDC/merge family, then the remainder.
    "embedding_cluster": q_embedding_cluster,
    "decontaminate": q_decontaminate,
    "pricing_summary": q_pricing_summary,
    "revenue_by_nation": q_revenue_by_nation,
    "approx_distinct": q_approx_distinct,
    "tokenize_vocab": q_tokenize_vocab,
    "tokenize_bpe": q_tokenize_bpe,
    "sample_per_group": q_sample_per_group,
    "dedup_semantic": q_dedup_semantic,
    "quality_model_score": q_quality_model_score,
    "join_range": q_join_range,
    "window_running": q_window_running,
    "media_decode": q_media_decode,
    "media_frames": q_media_frames,
    "audio_spectrogram": q_audio_spectrogram,
    "rollup_sets": q_rollup_sets,
    "cube_sets": q_cube_sets,
    "unpivot": q_unpivot,
    "join_outer": q_join_outer,
    "window_rolling": q_window_rolling,
    "set_ops": q_set_ops,
    "grouped_quantiles": q_grouped_quantiles,
    "window_ranks": q_window_ranks,
    "window_nav": q_window_nav,
    "grouped_stats": q_grouped_stats,
    "profile_table": q_profile_table,
    "corr_stats": q_corr_stats,
    "histogram": q_histogram,
    "fuzzy_pairs": q_fuzzy_pairs,
    "fuzzy_pairs_d2": q_fuzzy_pairs_d2,
    "top_orders": q_top_orders,
    "grouped_quantiles_cont": q_grouped_quantiles_cont,
    "cdc_replay_upsert": q_cdc_replay_upsert,
    "cdc_backfill": q_cdc_backfill,
    "cdc_lww_latest": q_cdc_lww_latest,
    "lww_policy": q_lww_policy,
    "sync_append_dedup": q_sync_append_dedup,
    "incremental_watermark": q_incremental_watermark,
    "scd_history": q_scd_history,
    "declarative_paginated": q_declarative_paginated,
    "join_skew": q_join_skew,
    "interleave_sources": q_interleave_sources,
    "segment_dedup": q_segment_dedup,
    "tfidf_terms": q_tfidf_terms,
    "bm25_topk": q_bm25_topk,
    "ngram_topk": q_ngram_topk,
    "mix_temperature": q_mix_temperature,
    "clustered_range": q_clustered_range,
    "point_lookup": q_point_lookup,
    "dedup_exact": q_dedup_exact,
    "json_flatten": q_json_flatten,
    "dedup_minhash": q_dedup_minhash,
    "dedup_index": q_dedup_index,
    "join_partitioned": q_join_partitioned,
    "sample_upsample": q_sample_upsample,
    "pack_sequences": q_pack_sequences,
    "join_asof": q_join_asof,
    "join_broadcast": q_join_broadcast,
    "window_sliding": q_window_sliding,
    "window_session": q_window_session,
    "agg_partial": q_agg_partial,
    "sort_topk": q_sort_topk,
    "distinct": q_distinct,
    "window_tumbling": q_window_tumbling,
    "unnest": q_unnest,
    "token_count": q_token_count,
    "text_quality": q_text_quality,
    "fingerprint": q_fingerprint,
    "rolling_fingerprint": q_rolling_fingerprint,
    "lang_id": q_lang_id,
    "dedup_ngram": q_dedup_ngram,
    "dedup_simhash": q_dedup_simhash,
    "dedup_embedding": q_dedup_embedding,
    "ann_topk": q_ann_topk,
    "ann_lsh": q_ann_lsh,
    "ann_ivf": q_ann_ivf,
    "ann_ivf_indexed": q_ann_ivf_indexed,
    "shuffle_rank": q_shuffle_rank,
    "sample_stratified": q_sample_stratified,
    "scrub_pii": q_scrub_pii,
    "repetition": q_repetition,
    "dlq_coerce": q_dlq_coerce,
    "heavy_hitters": q_heavy_hitters,
    "bloom_antijoin": q_bloom_antijoin,
    "quantiles": q_quantiles,
    "sample_bottomk": q_sample_bottomk,
    "grouped_topn": q_grouped_topn,
    "pivot_counts": q_pivot_counts,
    "quality_gate": q_quality_gate,
    "hash_surrogate": q_hash_surrogate,
    "type_cast": q_type_cast,
    "snapshot_filter_project": q_snapshot_filter_project,
    "nested_children": q_nested_children,
    "dup_substrings": q_dup_substrings,
    "dup_substrings_all": q_dup_substrings_all,
    "dup_token_spans": q_dup_token_spans,
}
_CANON = "md5(regexp_replace(lower(text), '\\s+', ' ', 'g'))"
_TOKEN_RE_SQL = "[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]"

ORACLE_SQL = {
    # dup_substrings: windows are exact 8-word grams grouped directly;
    # the Ray plan groups a 64-bit polynomial hash of the words instead
    # (collision odds ~1/2^64 — documented approximation).  The keeper
    # (min doc_id per gram) is never flagged; hit windows merge into
    # maximal spans when starts are within k-1 (gaps-and-islands).
    "dup_substrings": """
        WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
        win AS (SELECT doc_id, x AS pos,
                       list_reduce(ws[x:x+7], (a,b) -> a || ' ' || b) AS gram
                FROM toks, unnest(range(1, len(ws)-6)) AS t(x)),
        dup AS (SELECT gram, min(doc_id) AS keeper FROM win
                GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
        hits AS (SELECT w.doc_id, w.pos FROM win w JOIN dup d USING (gram)
                 WHERE w.doc_id != d.keeper),
        flag AS (SELECT doc_id, pos,
                        CASE WHEN pos - lag(pos, 1, pos - 8) OVER
                             (PARTITION BY doc_id ORDER BY pos) > 7
                             THEN 1 ELSE 0 END AS brk FROM hits),
        isl AS (SELECT doc_id, pos,
                       sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS grp
                FROM flag)
        SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
               CAST(max(pos) + 7 AS BIGINT) AS span_end,
               CAST(count(*) AS BIGINT) AS n_windows
        FROM isl GROUP BY doc_id, grp
    """,
    # dup_token_spans: the same gaps-and-islands plan over PLANTED
    # int32 token arrays (see _plant_dup_tokens for the collision-free
    # construction); grams are comma-joined token strings, k=16
    "dup_token_spans": """
        WITH toks AS (
          SELECT doc_id, i,
                 CASE WHEN doc_id % 10 = 3 AND i BETWEEN 5 AND 24
                      THEN 900000 + (i - 5)
                      ELSE (7 * doc_id + i * i) % 99991 END AS token
          FROM documents,
               LATERAL (SELECT unnest(generate_series(0, CAST(doc_id % 40 + 19 AS BIGINT))) AS i)),
        arr AS (SELECT doc_id, list(token ORDER BY i) AS ts
                FROM toks GROUP BY doc_id),
        win AS (SELECT doc_id, x AS pos,
                       list_reduce(list_transform(ts[x:x+15],
                                                  v -> CAST(v AS VARCHAR)),
                                   (a,b) -> a || ',' || b) AS gram
                FROM arr, unnest(range(1, len(ts)-14)) AS t(x)),
        dup AS (SELECT gram, min(doc_id) AS keeper FROM win
                GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
        hits AS (SELECT w.doc_id, w.pos FROM win w JOIN dup d USING (gram)
                 WHERE w.doc_id != d.keeper),
        flag AS (SELECT doc_id, pos,
                        CASE WHEN pos - lag(pos, 1, pos - 16) OVER
                             (PARTITION BY doc_id ORDER BY pos) > 15
                             THEN 1 ELSE 0 END AS brk FROM hits),
        isl AS (SELECT doc_id, pos,
                       sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS grp
                FROM flag)
        SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
               CAST(max(pos) + 15 AS BIGINT) AS span_end,
               CAST(count(*) AS BIGINT) AS n_windows
        FROM isl GROUP BY doc_id, grp
    """,
    # dup_substrings_all: the paper's rule — rank every occurrence of a
    # gram by (doc_id, pos); all but rank 1 of any gram occurring >= 2
    # times (same-doc repeats count) are hits, merged into spans
    "dup_substrings_all": """
        WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
        win AS (SELECT doc_id, x AS pos,
                       list_reduce(ws[x:x+7], (a,b) -> a || ' ' || b) AS gram
                FROM toks, unnest(range(1, len(ws)-6)) AS t(x)),
        r AS (SELECT doc_id, pos,
                     row_number() OVER (PARTITION BY gram ORDER BY doc_id, pos) AS rn,
                     count(*) OVER (PARTITION BY gram) AS cnt
              FROM win),
        hits AS (SELECT doc_id, pos FROM r WHERE cnt >= 2 AND rn > 1),
        flag AS (SELECT doc_id, pos,
                        CASE WHEN pos - lag(pos, 1, pos - 8) OVER
                             (PARTITION BY doc_id ORDER BY pos) > 7
                             THEN 1 ELSE 0 END AS brk FROM hits),
        isl AS (SELECT doc_id, pos,
                       sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS grp
                FROM flag)
        SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
               CAST(max(pos) + 7 AS BIGINT) AS span_end,
               CAST(count(*) AS BIGINT) AS n_windows
        FROM isl GROUP BY doc_id, grp
    """,
    "cdc_replay_upsert": """
        SELECT CAST(user_id AS VARCHAR) AS doc_id, ts, event_type, value
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
              FROM events)
        WHERE rn = 1 AND event_type <> 'error'
    """,
    # cdc_backfill: regardless of the mid-stream start + chunked backfill
    # interleave, the converged lake equals the full LWW replay
    "cdc_backfill": """
        SELECT CAST(user_id AS VARCHAR) AS doc_id, ts, event_type, value
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
              FROM events)
        WHERE rn = 1 AND event_type <> 'error'
    """,
    "cdc_lww_latest": """
        SELECT CAST(user_id AS VARCHAR) AS doc_id, event_id AS lsn,
               CASE WHEN event_type = 'error' THEN 'delete' ELSE 'update' END AS op
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) rn
              FROM events)
        WHERE rn = 1
    """,
    "declarative_paginated": "SELECT event_type, event_id, user_id, value FROM events",
    "nested_children": """
        SELECT md5(CAST(vec_id AS VARCHAR)) AS _airbyte_emb_hashid,
               i - 1 AS _airbyte_index,
               i - 1 AS pos,
               embedding[i] AS val
        FROM embeddings,
             LATERAL (SELECT unnest(generate_series(1, len(embedding))) AS i)
    """,
    "lww_policy": """
        SELECT CAST(user_id AS VARCHAR) AS doc_id, ts, value FROM (
          SELECT user_id, ts, value,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts DESC, event_id DESC) rn
          FROM events) WHERE rn = 1
    """,
    "scd_history": """
        SELECT user_id, event_id,
               event_id AS _airbyte_start_at,
               lead(event_id) OVER w AS _airbyte_end_at,
               CAST(CASE WHEN lead(event_id) OVER w IS NULL AND event_type <> 'error'
                         THEN 1 ELSE 0 END AS INTEGER) AS _airbyte_active_row
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
    """,
    "sync_append_dedup": """
        SELECT user_id, event_id, ts
        FROM (SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) rn
              FROM events)
        WHERE rn = 1
    """,
    "incremental_watermark": "SELECT user_id, max(ts) AS max_ts, count(*) AS n FROM events GROUP BY user_id",
    "snapshot_filter_project": """
        SELECT event_id, user_id, event_type FROM events
        WHERE value > 50 AND event_type <> 'error'
    """,
    "json_flatten": "SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) AS k FROM events",
    "hash_surrogate": """
        SELECT event_id, user_id,
               md5(concat_ws('|', CAST(event_id AS VARCHAR), CAST(user_id AS VARCHAR))) AS _airbyte_hashid
        FROM events
    """,
    "type_cast": "SELECT CAST(event_id AS INTEGER) AS event_id32, CAST(user_id AS VARCHAR) AS user_str FROM events",
    "join_broadcast": """
        SELECT o.o_orderkey, o.o_totalprice, c.c_name
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    """,
    "join_skew": """
        SELECT e.user_id, e.event_id, e.value, c.c_name
        FROM events e JOIN customer c ON e.user_id = c.c_custkey
    """,
    "join_partitioned": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_quantity, o.o_orderstatus
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    """,
    "join_range": """
        SELECT e.event_id, b.band_id
        FROM events e JOIN (
          SELECT CAST(i AS BIGINT) AS band_id, i*40.0 AS lo, i*40.0 + 60.0 AS hi
          FROM generate_series(0, 11) t(i)
        ) b ON e.value >= b.lo AND e.value < b.hi
    """,
    "window_running": """
        -- NULL-faithful (round-5): nulls planted on event_id % 19 == 0,
        -- SUM OVER skips them and yields SQL NULL for an all-null prefix —
        -- running_agg now mirrors this exactly (no COALESCE pin needed).
        SELECT user_id, event_id,
               CAST(SUM(CASE WHEN event_id % 19 = 0 THEN NULL
                             ELSE CAST(floor(value*100) AS BIGINT) END)
                 OVER (PARTITION BY user_id ORDER BY event_id) AS BIGINT) AS run_cents,
               lag(event_id) OVER (PARTITION BY user_id ORDER BY event_id) AS prev_event_id
        FROM events
    """,
    "media_decode": """
        SELECT doc_id,
               CAST(4 + doc_id % 5 AS INTEGER) AS img_w,
               CAST(3 + doc_id % 4 AS INTEGER) AS img_h,
               (4 + doc_id % 5) * (3 + doc_id % 4) * 3 * (doc_id % 251) AS px_sum
        FROM documents
    """,
    # audio_spectrogram oracle: the planted tone's peak bin and the frame
    # count are pure functions of doc_id (see q_audio_spectrogram).
    "audio_spectrogram": """
        SELECT doc_id,
               CAST((2000 - 256) // 128 + 1 AS BIGINT) AS n_frames,
               CAST(5 + doc_id % 90 AS BIGINT) AS peak_bin
        FROM documents
    """,
    # top_orders oracle: TPC-H Q3 shape on the exact cents×basis-points
    # grid; the ORDER BY tie-break (revenue, date, orderkey) makes the
    # LIMIT 10 row set deterministic on both sides
    "top_orders": """
        SELECT l_orderkey, o_orderdate, o_orderpriority,
               CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l_discount*100) AS BIGINT)))
                    AS BIGINT) AS revenue_c4
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-06-01'
          AND l_shipdate > TIMESTAMP '1998-06-01'
        GROUP BY l_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue_c4 DESC, o_orderdate, l_orderkey
        LIMIT 10
    """,
    # fuzzy_pairs oracle: exhaustive Levenshtein join over the planted
    # titles — the engine's bucketed plan must equal it exactly
    "fuzzy_pairs": """
        WITH t AS (
          SELECT doc_id,
                 'prod-' || CAST(doc_id // 10 AS VARCHAR)
                         || chr(CAST(97 + doc_id % 10 AS INTEGER)) AS title
          FROM documents
        )
        SELECT x.doc_id AS a, y.doc_id AS b,
               CAST(levenshtein(x.title, y.title) AS BIGINT) AS dist
        FROM t x JOIN t y ON x.doc_id < y.doc_id
        WHERE levenshtein(x.title, y.title) <= 1
    """,
    # fuzzy_pairs_d2 oracle: same exhaustive join at distance 2 over the
    # high-entropy planted titles (identical CASE construction to the
    # engine's plant(); parity verified char-for-char)
    "fuzzy_pairs_d2": """
        WITH t0 AS (
          SELECT doc_id, doc_id % 10 AS r,
                 printf('%010x', ((doc_id // 10) * 2654435761 + 12345)
                                 % 1099511627776) AS base,
                 printf('%010x', (doc_id * 2654435761 + 98765)
                                 % 1099511627776) AS filler
          FROM documents
        ), t AS (
          SELECT doc_id,
            CASE r WHEN 0 THEN base
                   WHEN 1 THEN substr(base,1,3) || 'z' || substr(base,5)
                   WHEN 2 THEN substr(base,1,2) || 'z' || substr(base,4,4)
                               || 'q' || substr(base,9)
                   WHEN 3 THEN substr(base,1,5) || substr(base,7)
                   WHEN 4 THEN substr(base,1,4) || 'zz' || substr(base,5)
                   ELSE filler END AS title
          FROM t0
        )
        SELECT x.doc_id AS a, y.doc_id AS b,
               CAST(levenshtein(x.title, y.title) AS BIGINT) AS dist
        FROM t x JOIN t y ON x.doc_id < y.doc_id
        WHERE levenshtein(x.title, y.title) <= 2
    """,
    # corr_stats oracle: exact integer moments, r from the IDENTICAL
    # double expression tree (see grouped_corr)
    "corr_stats": """
        WITH c AS (
          SELECT l_returnflag AS k, CAST(l_quantity AS BIGINT) AS x,
                 CAST(floor(l_discount*100) AS BIGINT) AS y
          FROM lineitem WHERE l_quantity IS NOT NULL AND l_discount IS NOT NULL
        ),
        m AS (
          SELECT k, COUNT(*) AS n,
                 CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
                 CAST(SUM(x*x) AS BIGINT) AS sxx, CAST(SUM(y*y) AS BIGINT) AS syy,
                 CAST(SUM(x*y) AS BIGINT) AS sxy
          FROM c GROUP BY k
        )
        SELECT k AS l_returnflag, n,
               -- the variance guards pin the engine's contract: a constant
               -- series (zero denominator) is NULL, not NaN/inf
               CASE WHEN n > 1 AND n*sxx - sx*sx > 0 AND n*syy - sy*sy > 0 THEN
                 (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                    - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                 / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                         - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                    * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                           - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
               END AS corr
        FROM m
    """,
    # histogram oracle: the same floor((v-lo)/width) bin rule, width an
    # exact double on both sides
    "histogram": """
        SELECT LEAST(CAST(floor((value - 0.0) / 25.0) AS BIGINT), 19) AS bin,
               COUNT(*) AS n
        FROM events
        WHERE value IS NOT NULL AND value >= 0.0 AND value < 500.0
        GROUP BY bin
    """,
    # profile_table oracle: one profiling SELECT per column
    "profile_table": """
        SELECT 'event_id' AS col_name, COUNT(*) AS n,
               CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
               COUNT(DISTINCT event_id) AS n_distinct,
               CAST(MIN(event_id) AS VARCHAR) AS min_s,
               CAST(MAX(event_id) AS VARCHAR) AS max_s
        FROM events
        UNION ALL
        SELECT 'user_id', COUNT(*),
               CAST(SUM(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT),
               COUNT(DISTINCT user_id),
               CAST(MIN(user_id) AS VARCHAR), CAST(MAX(user_id) AS VARCHAR)
        FROM events
        UNION ALL
        SELECT 'event_type', COUNT(*),
               CAST(SUM(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS BIGINT),
               COUNT(DISTINCT event_type),
               MIN(event_type), MAX(event_type)
        FROM events
    """,
    # grouped_stats oracle: exact integer moments, then the IDENTICAL
    # IEEE expression tree the engine uses — (ssq − s·s/n)/(n−1), all
    # double, GREATEST 0 — so even the float columns hash-match.
    "grouped_stats": """
        WITH c AS (
          SELECT user_id, CAST(floor(value*100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL
        ),
        m AS (
          SELECT user_id, COUNT(*) AS n,
                 CAST(SUM(cents) AS BIGINT) AS s,
                 CAST(SUM(cents*cents) AS BIGINT) AS ssq
          FROM c GROUP BY user_id
        )
        SELECT user_id, n, s, ssq,
               CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
               CASE WHEN n > 1 THEN GREATEST(
                 (CAST(ssq AS DOUBLE)
                    - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                 / (CAST(n AS DOUBLE) - 1), 0) END AS var_samp,
               CASE WHEN n > 1 THEN sqrt(GREATEST(
                 (CAST(ssq AS DOUBLE)
                    - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                 / (CAST(n AS DOUBLE) - 1), 0)) END AS std_samp
        FROM m
    """,
    # window_nav oracle: DuckDB's own navigation windows over the same
    # int64 cents grid; last_value needs the explicit full-partition frame
    # (its default frame stops at CURRENT ROW).
    "window_nav": """
        WITH c AS (
          SELECT user_id, event_id,
                 CAST(floor(value*100) AS BIGINT) AS cents
          FROM events
        )
        SELECT user_id, event_id,
               lag(cents) OVER w AS lag_val,
               lead(cents) OVER w AS lead_val,
               first_value(cents) OVER w AS first_val,
               last_value(cents) OVER (PARTITION BY user_id ORDER BY event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_val,
               percent_rank() OVER w AS pr
        FROM c
        WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
    """,
    # media_frames oracle: regenerate the planted frame grid from doc_id —
    # sampled frame ids (every 2nd of 2 + d%3 frames) and the exact
    # checksum of each flat JPEG frame the engine decoded.
    "media_frames": """
        SELECT d.doc_id,
               f.i AS frame_idx,
               (8 + d.doc_id % 5) * (8 + d.doc_id % 4) * 3
                 * ((d.doc_id + 37 * f.i) % 251) AS px_sum
        FROM documents d,
             LATERAL (SELECT unnest(generate_series(0, 1 + d.doc_id % 3)) AS i) f
        WHERE f.i % 2 = 0
    """,
    "rollup_sets": """
        SELECT l_returnflag, l_linestatus,
               CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS gid,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               COUNT(*) AS n
        FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
    """,
    "cube_sets": """
        SELECT l_returnflag, l_linestatus,
               CAST(GROUPING(l_returnflag, l_linestatus) AS BIGINT) AS gid,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               COUNT(*) AS n
        FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
    """,
    "unpivot": """
        SELECT l_orderkey, l_linenumber, 'l_extendedprice' AS measure, l_extendedprice AS amount FROM lineitem
        UNION ALL
        SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem
        UNION ALL
        SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem
    """,
    "join_outer": """
        SELECT COALESCE(e.user_id, d.doc_id) AS user_id, e.event_id, d.n_chars
        FROM events e FULL OUTER JOIN
             (SELECT doc_id, n_chars FROM documents WHERE doc_id >= 100) d
        ON e.user_id = d.doc_id
    """,
    "window_rolling": """
        -- NULL-faithful (round-5): nulls planted on event_id % 19 == 0,
        -- SUM OVER skips them and yields SQL NULL for an all-null window —
        -- rolling_agg now mirrors this exactly (no COALESCE pin needed).
        SELECT user_id, event_id,
               CAST(SUM(CASE WHEN event_id % 19 = 0 THEN NULL
                             ELSE CAST(floor(value*100) AS BIGINT) END)
                 OVER (PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll_cents
        FROM events
    """,
    "set_ops": """
        SELECT user_id, 'intersect' AS op FROM (
          SELECT user_id FROM events WHERE event_type = 'click'
          INTERSECT
          SELECT user_id FROM events WHERE event_type = 'error')
        UNION ALL
        SELECT user_id, 'except' FROM (
          SELECT user_id FROM events WHERE event_type = 'click'
          EXCEPT
          SELECT user_id FROM events WHERE event_type = 'error')
    """,
    "grouped_quantiles": """
        -- WHERE value IS NOT NULL pins the engine's documented contract
        -- (grouped_quantiles omits keys whose values are ALL null; SQL would
        -- emit a NULL-quantile row) so a null-bearing fixture stays green.
        SELECT user_id, CAST(0.5 AS DOUBLE) AS q,
               quantile_disc(CAST(floor(value*100) AS BIGINT), 0.5) AS value
        FROM events WHERE value IS NOT NULL GROUP BY user_id
        UNION ALL
        SELECT user_id, CAST(0.9 AS DOUBLE),
               quantile_disc(CAST(floor(value*100) AS BIGINT), 0.9)
        FROM events WHERE value IS NOT NULL GROUP BY user_id
    """,
    # grouped_quantiles_cont: quantile_cont at binary-fraction q over the
    # int cents grid — exact lerp terms ⇒ tree-independent doubles
    "grouped_quantiles_cont": """
        WITH c AS (
          SELECT user_id, CAST(floor(value*100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL
        )
        SELECT user_id, CAST(0.25 AS DOUBLE) AS q,
               quantile_cont(cents, 0.25) AS value
        FROM c GROUP BY user_id
        UNION ALL
        SELECT user_id, CAST(0.75 AS DOUBLE),
               quantile_cont(cents, 0.75)
        FROM c GROUP BY user_id
    """,
    "window_ranks": """
        SELECT user_id, event_id,
               row_number() OVER (PARTITION BY user_id
                 ORDER BY CAST(floor(value*100) AS BIGINT), event_id) AS rn,
               dense_rank() OVER (PARTITION BY user_id
                 ORDER BY CAST(floor(value*100) AS BIGINT)) AS dr,
               ntile(4) OVER (PARTITION BY user_id
                 ORDER BY CAST(floor(value*100) AS BIGINT), event_id) AS nt
        FROM events
    """,
    "join_asof": """
        SELECT e.user_id, e.event_id, v.event_id AS view_event_id
        FROM events e ASOF LEFT JOIN
             (SELECT user_id, ts, event_id FROM events WHERE event_type = 'view') v
        ON e.user_id = v.user_id AND v.ts <= e.ts
    """,
    "window_sliding": """
        SELECT user_id, w_start, count(*) AS n FROM (
          SELECT user_id, CAST(floor(epoch(ts)/1800) * 1800 AS BIGINT) AS w_start FROM events
          UNION ALL
          SELECT user_id, CAST((floor(epoch(ts)/1800) - 1) * 1800 AS BIGINT) FROM events
        ) GROUP BY user_id, w_start
    """,
    "window_session": """
        WITH d AS (
          SELECT user_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                       OR ts - lag(ts) OVER w > INTERVAL 1800 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ), s AS (
          SELECT user_id, ts,
                 CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                     ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
          FROM d
        )
        SELECT user_id, session_id, min(ts) AS s_start, max(ts) AS s_end, count(*) AS n
        FROM s GROUP BY user_id, session_id
    """,
    "agg_partial": """
        SELECT l_returnflag, l_linestatus, CAST(SUM(l_quantity) AS BIGINT) AS sum_qty, COUNT(*) AS n
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "sort_topk": """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """,
    "distinct": "SELECT DISTINCT event_type FROM events",
    "window_tumbling": """
        SELECT user_id, date_trunc('hour', ts) AS w, COUNT(*) AS n
        FROM events GROUP BY user_id, date_trunc('hour', ts)
    """,
    "unnest": """
        SELECT vec_id, CAST(pos AS BIGINT) AS pos, CAST(embedding[pos] AS FLOAT) AS val
        FROM (SELECT vec_id, embedding, UNNEST(range(1, len(embedding)+1)) AS pos
              FROM embeddings)
    """,
    "token_count": f"SELECT doc_id, len(regexp_extract_all(text, '{_TOKEN_RE_SQL}')) AS n_tokens FROM documents",
    "text_quality": """
        SELECT doc_id, length(text) AS q_len,
               len(regexp_extract_all(text, '[A-Za-z]+')) AS q_n_words
        FROM documents
    """,
    "fingerprint": f"SELECT doc_id, {_CANON} AS fp FROM documents",
    "dedup_exact": f"""
        SELECT doc_id FROM (
          SELECT doc_id, row_number() OVER (PARTITION BY {_CANON} ORDER BY doc_id) rn
          FROM documents) WHERE rn = 1
    """,
    "segment_dedup": """
        WITH words AS (
          SELECT doc_id,
                 unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) AS ord
          FROM documents
        ),
        segs AS (
          SELECT doc_id, (ord - 1) // 15 AS pos,
                 string_agg(word, ' ' ORDER BY ord) AS seg
          FROM words GROUP BY doc_id, (ord - 1) // 15
        ),
        win AS (
          SELECT doc_id, pos, seg,
                 row_number() OVER (PARTITION BY seg ORDER BY doc_id, pos) AS rn
          FROM segs
        )
        SELECT doc_id, string_agg(seg, ' ' ORDER BY pos) AS text_dedup
        FROM win WHERE rn = 1 GROUP BY doc_id
    """,
    "ann_topk": """
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 3)
        SELECT qid AS query_id, vec_id FROM (
          SELECT q.qid, e.vec_id,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) rn
          FROM q CROSS JOIN embeddings e) WHERE rn <= 5
    """,
    "ann_ivf": """
        WITH q AS (SELECT vec_id AS qid, list_transform(embedding, x -> x * 3) AS qe
                   FROM embeddings WHERE vec_id < 5)
        SELECT qid AS query_id, vec_id FROM (
          SELECT q.qid, e.vec_id,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) rn
          FROM q CROSS JOIN embeddings e) WHERE rn = 1
    """,
    "ann_ivf_indexed": """
        WITH q AS (SELECT vec_id AS qid, list_transform(embedding, x -> x * 3) AS qe
                   FROM embeddings WHERE vec_id < 5)
        SELECT qid AS query_id, vec_id FROM (
          SELECT q.qid, e.vec_id,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) rn
          FROM q CROSS JOIN embeddings e) WHERE rn = 1
    """,
    "ann_lsh": """
        WITH q AS (SELECT vec_id AS qid, list_transform(embedding, x -> x * 3) AS qe
                   FROM embeddings WHERE vec_id < 5)
        SELECT qid AS query_id, vec_id FROM (
          SELECT q.qid, e.vec_id,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) rn
          FROM q CROSS JOIN embeddings e) WHERE rn = 1
    """,
    "dedup_embedding": """
        WITH corpus AS (
          SELECT vec_id, embedding FROM embeddings
          UNION ALL
          SELECT vec_id + 1000000, list_transform(embedding, x -> x * 2)
          FROM embeddings WHERE vec_id % 10 = 0
        )
        SELECT x.vec_id AS a, y.vec_id AS b
        FROM corpus x JOIN corpus y ON x.vec_id < y.vec_id
        WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.99
    """,
    # dedup_minhash oracle: EXACT 5-char-shingle Jaccard + recursive-CTE
    # connected components.  Sound because the fixture's true-Jaccard
    # distribution is bimodal (near-dups ≥ 0.93, background ≤ 0.31): any
    # cutoff inside the gap — the SQL uses 0.5, the MinHash estimator 0.6 —
    # selects the same pair set, and at 64 permutations the estimator's
    # deviation over the gap is > 7σ, with LSH band-miss probability < 1e-9.
    "dedup_minhash": """
        WITH RECURSIVE
        d AS (SELECT doc_id, text FROM documents),
        sh AS (
          SELECT DISTINCT d.doc_id, substring(d.text, i, 5) AS s
          FROM d, LATERAL (SELECT unnest(generate_series(1, greatest(length(d.text)-4, 1))) AS i)
        ),
        cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
          FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        ),
        dup_pairs AS (
          SELECT a, b FROM inter
          JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b
          WHERE c * 1.0 / (ca.n + cb.n - c) >= 0.5
        ),
        edges AS (SELECT a AS u, b AS v FROM dup_pairs
                  UNION SELECT b, a FROM dup_pairs),
        reach(u, v) AS (
          SELECT u, v FROM edges
          UNION
          SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        )
        SELECT doc_id FROM d
        WHERE doc_id NOT IN (SELECT u FROM reach GROUP BY u HAVING min(v) < u)
    """,
    # dedup_index oracle: cross-split near-dup pairs by the exact-shingle
    # Jaccard CTE — the engine's index-probe match set equals it over the
    # fixture's bimodal gap (see q_dedup_index).  Orientation: a = indexed
    # side (doc_id % 3 != 0), b = new side (doc_id % 3 == 0).
    "dedup_index": """
        WITH d AS (SELECT doc_id, text FROM documents),
        sh AS (
          SELECT DISTINCT d.doc_id, substring(d.text, i, 5) AS s
          FROM d, LATERAL (SELECT unnest(generate_series(1, greatest(length(d.text)-4, 1))) AS i)
        ),
        cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
          FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        ),
        dup AS (
          SELECT a, b FROM inter
          JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b
          WHERE c * 1.0 / (ca.n + cb.n - c) >= 0.5
        )
        SELECT CASE WHEN a % 3 = 0 THEN b ELSE a END AS a,
               CASE WHEN a % 3 = 0 THEN a ELSE b END AS b
        FROM dup WHERE (a % 3 = 0) != (b % 3 = 0)
    """,
    # dedup_ngram oracle: the same exact-shingle CTE, emitting the PAIRS
    # with their exact jaccard — the engine computes the identical metric
    # (LSH candidates are recall-complete over the bimodal gap; exact
    # verification makes precision exact), so rows AND values match.
    "dedup_ngram": """
        WITH
        d AS (SELECT doc_id, text FROM documents),
        sh AS (
          SELECT DISTINCT d.doc_id, substring(d.text, i, 5) AS s
          FROM d, LATERAL (SELECT unnest(generate_series(1, greatest(length(d.text)-4, 1))) AS i)
        ),
        cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c
          FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        )
        SELECT a, b, c * 1.0 / (ca.n + cb.n - c) AS jaccard FROM inter
        JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b
        WHERE c * 1.0 / (ca.n + cb.n - c) >= 0.5
    """,
    # Planted-fixture oracles for the formerly rows-only heuristics: the
    # expected output is a pure function of doc_id by construction (see the
    # q_* docstrings for the soundness arguments).
    "lang_id": """
        SELECT doc_id, CASE CAST(doc_id % 5 AS INTEGER)
            WHEN 0 THEN 'en' WHEN 1 THEN 'de' WHEN 2 THEN 'fr'
            WHEN 3 THEN 'es' ELSE 'zh' END AS lang_pred
        FROM documents
    """,
    "dedup_simhash": """
        SELECT doc_id AS a, doc_id + 1000000 AS b
        FROM documents WHERE doc_id % 10 = 0
    """,
    "rolling_fingerprint": """
        SELECT doc_id, CAST(1 AS BOOLEAN) AS copy_equal,
               CAST(0 AS BOOLEAN) AS upper_equal
        FROM documents
    """,
    # Tokenized-sequence lake ops.  pack_sequences: rebuild the planted
    # token stream (doc_id%50+1 tokens of doc_id*1000+j, EOS -1 after each
    # doc), number it globally in (doc_id, tpos) order, chop into 64s and
    # keep only complete sequences — position-exact equality with the
    # engine's zero-exchange block plan.
    "pack_sequences": """
        WITH toks AS (
          SELECT doc_id, i AS tpos, CAST(doc_id * 1000 + i AS INTEGER) AS token
          FROM documents,
               LATERAL (SELECT unnest(generate_series(0, CAST(doc_id % 50 AS BIGINT))) AS i)
          UNION ALL
          SELECT doc_id, doc_id % 50 + 1 AS tpos, CAST(-1 AS INTEGER) AS token
          FROM documents
        ),
        pos AS (
          SELECT token, row_number() OVER (ORDER BY doc_id, tpos) - 1 AS p
          FROM toks
        )
        SELECT p // 64 AS seq_id, p % 64 AS pos, token
        FROM pos
        WHERE p // 64 < (SELECT count(*) // 64 FROM toks)
    """,
    "shuffle_rank": """
        SELECT doc_id,
               row_number() OVER (
                 ORDER BY md5('7:' || CAST(doc_id AS VARCHAR)), doc_id
               ) - 1 AS shuffle_rank
        FROM documents
    """,
    # interleave_sources: within-source md5 rank, then round-robin global
    # position by (rank, source, key)
    "interleave_sources": """
        WITH r AS (
          SELECT doc_id, source,
                 CAST(row_number() OVER (
                   PARTITION BY source
                   ORDER BY md5('7:' || CAST(doc_id AS VARCHAR)), doc_id
                 ) AS BIGINT) AS rnk
          FROM documents)
        SELECT doc_id, source, rnk,
               CAST(row_number() OVER (ORDER BY rnk, source, doc_id)
                    AS BIGINT) AS pos
        FROM r
    """,
    # stratified_sample: srcN keeps rate (N%4+1)/8; dyadic rate * 2^32 =
    # (N%4+1) * 2^29 exactly, so the printf threshold is the operator's
    # rate_threshold_hex verbatim and the md5-prefix comparison is the
    # identical per-row decision.
    "sample_stratified": """
        SELECT doc_id, source FROM documents
        WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
              < printf('%08x',
                       (CAST(substr(source, 4) AS BIGINT) % 4 + 1) * 536870912)
    """,
    "scrub_pii": """
        WITH planted AS (
          SELECT doc_id,
                 text || CASE CAST(doc_id % 3 AS INTEGER)
                   WHEN 0 THEN ' contact user' || doc_id || '@example.com now'
                   WHEN 1 THEN ' see https://site' || doc_id || '.example.org/page ok'
                   ELSE '' END AS text
          FROM documents
        )
        SELECT doc_id,
               regexp_replace(regexp_replace(text,
                 '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                 'https?://[^\\s]+', '<URL>', 'g') AS clean_text,
               len(regexp_extract_all(text,
                 '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}'))
               + len(regexp_extract_all(regexp_replace(text,
                 '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                 'https?://[^\\s]+')) AS n_redactions
        FROM planted
    """,
    "heavy_hitters": """
        SELECT user_id, count(*) AS n
        FROM events GROUP BY user_id HAVING count(*) >= 80
    """,
    "bloom_antijoin": """
        SELECT c_custkey, c_name FROM customer
        WHERE c_custkey NOT IN (SELECT user_id FROM events)
    """,
    "sample_bottomk": """
        SELECT doc_id, source FROM documents
        ORDER BY md5('7:' || CAST(doc_id AS VARCHAR)), doc_id
        LIMIT 100
    """,
    "quality_gate": f"""
        WITH counted AS (
          SELECT doc_id, len(regexp_extract_all(text,
                 '{_TOKEN_RE_SQL}')) AS n_tokens
          FROM documents
        )
        SELECT doc_id, n_tokens FROM counted
        WHERE n_tokens >= (SELECT quantile_disc(n_tokens, 0.25) FROM counted)
    """,
    "sample_upsample": """
        SELECT doc_id, source, CAST(i AS BIGINT) AS copy_idx
        FROM documents,
             LATERAL (SELECT unnest(generate_series(
                        0, CAST(substr(source, 4) AS BIGINT) % 3 - 1)) AS i) g
    """,
    "grouped_topn": """
        SELECT user_id, event_id, value, rnk FROM (
          SELECT user_id, event_id, value,
                 row_number() OVER (
                   PARTITION BY user_id ORDER BY value DESC, event_id
                 ) AS rnk
          FROM events
        ) WHERE rnk <= 3
    """,
    "pivot_counts": """
        SELECT user_id,
               CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS click,
               CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS error,
               CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS purchase,
               CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS signup,
               CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS view
        FROM events GROUP BY user_id
    """,
    "quantiles": """
        SELECT CAST(0.1 AS DOUBLE) AS q, quantile_disc(value, 0.1) AS value FROM events
        UNION ALL
        SELECT 0.25, quantile_disc(value, 0.25) FROM events
        UNION ALL
        SELECT 0.5, quantile_disc(value, 0.5) FROM events
        UNION ALL
        SELECT 0.75, quantile_disc(value, 0.75) FROM events
        UNION ALL
        SELECT 0.9, quantile_disc(value, 0.9) FROM events
    """,
    # dlq_coerce: TRY_CAST keeps exactly the castable planted values —
    # the quarantined complement is checked by pytest (DLQ dir contents).
    "dlq_coerce": """
        WITH planted AS (
          SELECT doc_id,
                 CASE WHEN doc_id % 7 = 0 THEN 'N/A'
                      WHEN doc_id % 11 = 0 THEN '12,5'
                      ELSE CAST(doc_id * 3 AS VARCHAR) END AS raw
          FROM documents
        )
        SELECT doc_id, TRY_CAST(raw AS BIGINT) AS raw_value
        FROM planted WHERE TRY_CAST(raw AS BIGINT) IS NOT NULL
    """,
    "repetition": """
        WITH w AS (
          -- list_filter drops the [''] artifact DuckDB's split yields for
          -- empty/whitespace-only text, matching the engine's empty-token
          -- mask (blank doc => 0 words on both sides)
          SELECT doc_id,
                 list_filter(string_split_regex(trim(text), '\\s+'),
                             x -> x <> '') AS ws
          FROM documents
        ), big AS (
          SELECT doc_id, ws[i] || ' ' || ws[i+1] AS bg
          FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws) - 1)) AS i) g
        ), bc AS (
          SELECT doc_id, bg, count(*) AS c FROM big GROUP BY 1, 2
        ), topb AS (
          SELECT doc_id, max(c) AS top_bigram_count,
                 CAST(sum(c) AS BIGINT) AS n_bigrams
          FROM bc GROUP BY 1
        )
        SELECT w.doc_id, len(ws) AS n_words,
               len(list_distinct(ws)) AS n_distinct_words,
               coalesce(n_bigrams, 0) AS n_bigrams,
               coalesce(top_bigram_count, 0) AS top_bigram_count
        FROM w LEFT JOIN topb USING (doc_id)
    """,
    # embedding_cluster: planted geometry (8 orthogonal centers, row r in
    # cluster r = vec_id % 8) makes converged k-means co-membership a pure
    # function of vec_id; the cluster representative (min member id) of
    # residue class r is r itself.
    "embedding_cluster": """
        SELECT vec_id, vec_id % 8 AS cluster_rep FROM embeddings
    """,
    # decontaminate: rebuild the SAME planted corpus in SQL (benchmark =
    # %97 docs verbatim; %29 non-benchmark docs get the first 12 words of
    # benchmark doc 97*(doc_id % n_test) appended), generate word 8-grams
    # for every doc, and join against the benchmark docs' gram set.
    "decontaminate": f"""
        WITH nt AS (SELECT count(*) AS c FROM documents WHERE doc_id % {_DECON_TEST_MOD} = 0),
        plant AS (
          SELECT d.doc_id,
                 CASE WHEN d.doc_id % {_DECON_PLANT_MOD} = 0
                       AND d.doc_id % {_DECON_TEST_MOD} <> 0
                      THEN d.text || ' ' ||
                           array_to_string((string_split(t.text, ' '))[1:{_DECON_SNIP_WORDS}], ' ')
                      ELSE d.text END AS text
          FROM documents d
          LEFT JOIN documents t
            ON t.doc_id = {_DECON_TEST_MOD} * (d.doc_id % (SELECT c FROM nt))
        ),
        grams AS (
          SELECT doc_id, array_to_string(ws[i:i+{_DECON_N - 1}], ' ') AS g
          FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM plant),
               LATERAL (SELECT unnest(generate_series(
                          1, greatest(len(ws) - {_DECON_N - 1}, 0))) AS i) s
        ),
        tg AS (SELECT DISTINCT g FROM grams WHERE doc_id % {_DECON_TEST_MOD} = 0)
        SELECT DISTINCT doc_id FROM grams JOIN tg USING (g)
    """,
    # pricing_summary / revenue_by_nation: money on EXACT int64 grids
    # (cents / basis points) so the aggregate is order-independent and the
    # driver's value hash can never flake on float summation order.
    # NOTE: every outer sum() is CAST back to BIGINT — DuckDB SUM(BIGINT)
    # returns HUGEINT, which fetchdf() renders as float64 and breaks the
    # driver's canonical-CSV value hash against the engine's int64.
    "pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
                   AS sum_base_price_c,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
                   AS sum_disc_price_c4,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
                   * (100 + CAST(round(l_tax * 100) AS BIGINT))) AS BIGINT)
                   AS sum_charge_c6,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "revenue_by_nation": """
        SELECT n.n_name,
               CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT)
                   AS revenue_c4
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
    """,
    "approx_distinct": """
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
    """,
    # tokenize_vocab: vocab id = 1-based rank under (freq desc, word asc)
    # over the top 50 words; OOV = 0; output one scalar row per token.
    "tokenize_vocab": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
        u AS (SELECT doc_id, i AS pos, ws[i] AS word
              FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws))) AS i) s),
        v AS (SELECT word, CAST(row_number() OVER (ORDER BY count(*) DESC, word)
                                AS INTEGER) AS id
              FROM u GROUP BY word ORDER BY count(*) DESC, word LIMIT 50)
        SELECT u.doc_id, u.pos, COALESCE(v.id, 0) AS token
        FROM u LEFT JOIN v USING (word)
    """,
    # tokenize_bpe: the literal per-repetition token row [3,2,5,5,4,5,5]
    # is the HAND derivation in q_tokenize_bpe's docstring (merge table
    # (a,a),(a,b),(aa,aa); ids = lexicographic rank of final symbols) —
    # independent of the engine, which must reproduce it.
    "tokenize_bpe": """
        WITH t AS (SELECT * FROM (VALUES (0, 3), (1, 2), (2, 5), (3, 5),
                                         (4, 4), (5, 5), (6, 5)) v(p, tok)),
        d AS (SELECT doc_id, 1 + doc_id % 3 AS r FROM documents),
        reps AS (SELECT doc_id, i AS rep FROM d,
                 LATERAL (SELECT unnest(generate_series(0, r - 1)) AS i) s)
        SELECT reps.doc_id, CAST(reps.rep * 7 + t.p + 1 AS BIGINT) AS pos,
               CAST(t.tok AS INTEGER) AS token
        FROM reps, t
    """,
    "sample_per_group": """
        SELECT doc_id, source, rnk FROM (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source
                   ORDER BY md5('11:' || CAST(doc_id AS VARCHAR)), doc_id) AS rnk
          FROM documents) WHERE rnk <= 7
    """,
    # quality_model_score: logit over int features with left-associated
    # IEEE double ops — bit-identical across engines (no transcendentals).
    "quality_model_score": """
        SELECT doc_id,
               -2.0 + (-0.01) * length(text)
                    + 0.15 * len(regexp_extract_all(text, '[A-Za-z]+')) AS score,
               (-2.0 + (-0.01) * length(text)
                     + 0.15 * len(regexp_extract_all(text, '[A-Za-z]+'))) > 0.0 AS keep
        FROM documents
    """,
    # dedup_semantic: identical exhaustive ground truth as dedup_embedding —
    # the cluster-bounded plan must recover exactly the planted pairs.
    "dedup_semantic": """
        WITH corpus AS (
          SELECT vec_id, embedding FROM embeddings
          UNION ALL
          SELECT vec_id + 1000000, list_transform(embedding, x -> x * 2)
          FROM embeddings WHERE vec_id % 10 = 0
        )
        SELECT x.vec_id AS a, y.vec_id AS b
        FROM corpus x JOIN corpus y ON x.vec_id < y.vec_id
        WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.99
    """,
    # tfidf_terms: rational idf (N+1)/(df+1) — parenthesization mirrors
    # the engine's pinned op order exactly (ratio first, then * tf), so
    # the double values hash-match bit for bit.
    "tfidf_terms": """
        WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
                      FROM documents),
        tf AS (SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
               FROM toks GROUP BY doc_id, word),
        df AS (SELECT word, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY word),
        nd AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
        s AS (SELECT tf.doc_id, tf.word, tf.tf, df.df,
                     CAST(tf.tf AS DOUBLE)
                       * (CAST(nd.n + 1 AS DOUBLE) / CAST(df.df + 1 AS DOUBLE))
                       AS tfidf
              FROM tf JOIN df USING (word) CROSS JOIN nd),
        r AS (SELECT *, CAST(row_number() OVER (PARTITION BY doc_id
                             ORDER BY tfidf DESC, word) AS BIGINT) AS rnk
              FROM s)
        SELECT doc_id, word, tf, df, tfidf, rnk FROM r WHERE rnk <= 3
    """,
    # bm25_topk: rational idf, per-doc fold pinned with
    # sum(contrib ORDER BY word) — DuckDB's ordered aggregate is a true
    # left fold, matching the engine's ascending-term accumulation
    # (absent terms add exactly +0.0 there, a bitwise no-op).
    "bm25_topk": """
        WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
                      FROM documents),
        dl AS (SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS dl
               FROM documents),
        st AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                      CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS avgdl
               FROM dl),
        tf AS (SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf FROM toks
               WHERE word IN ('hash', 'merge', 'spark', 'stream')
               GROUP BY doc_id, word),
        df AS (SELECT word, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY word),
        c AS (SELECT tf.doc_id, tf.word,
                ((CAST(st.n_docs - df.df AS DOUBLE) + 0.5)
                   / (CAST(df.df AS DOUBLE) + 0.5))
                * ((CAST(tf.tf AS DOUBLE) * (1.2 + 1.0))
                   / (CAST(tf.tf AS DOUBLE)
                      + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (CAST(dl.dl AS DOUBLE) / st.avgdl))))
                AS contrib
              FROM tf JOIN df USING (word) JOIN dl USING (doc_id) CROSS JOIN st)
        SELECT doc_id, sum(contrib ORDER BY word) AS score
        FROM c GROUP BY doc_id
        ORDER BY score DESC, doc_id LIMIT 25
    """,
    # ngram_topk: corpus-wide top-25 bigrams; rank ties broken by gram so
    # the LIMIT cut is deterministic on both sides
    "ngram_topk": """
        WITH toks AS (SELECT string_split(text, ' ') AS ws FROM documents),
        g AS (SELECT ws[x] || ' ' || ws[x+1] AS gram
              FROM toks, unnest(range(1, len(ws))) AS t(x)),
        c AS (SELECT gram, CAST(count(*) AS BIGINT) AS cnt FROM g GROUP BY gram)
        SELECT gram, cnt, CAST(row_number() OVER (ORDER BY cnt DESC, gram)
                               AS BIGINT) AS rnk
        FROM c ORDER BY cnt DESC, gram LIMIT 25
    """,
    # mix_temperature: T=0.5 → rate = sqrt(min_sz/sz), one correctly-
    # rounded division + sqrt (bit-exact cross-engine); threshold is the
    # sample-family convention floor(rate * 2^32) as 8 hex digits
    "mix_temperature": """
        WITH sz AS (SELECT source, CAST(sum(n_chars) AS BIGINT) AS sz
                    FROM documents GROUP BY source),
        mn AS (SELECT CAST(min(sz) AS DOUBLE) AS mn FROM sz),
        r AS (SELECT source, sqrt(mn.mn / CAST(sz AS DOUBLE)) AS rate
              FROM sz CROSS JOIN mn),
        t AS (SELECT source,
                CASE WHEN rate >= 1.0 THEN 'g'
                     ELSE printf('%08x',
                                 CAST(floor(rate * 4294967296) AS BIGINT))
                END AS thr
              FROM r)
        SELECT d.doc_id, d.source FROM documents d JOIN t USING (source)
        WHERE substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8) < t.thr
    """,
    # clustered_range: the pruned read returns exactly the source rows in
    # the inclusive range — layout is an optimization, not a semantic
    "clustered_range": """
        SELECT event_id, value FROM events
        WHERE value >= 100.0 AND value <= 150.0
    """,
    # point_lookup: Bloom sidecars only prune files; the result is the
    # plain IN-list
    "point_lookup": """
        SELECT event_id, value FROM events
        WHERE event_id IN (7, 97, 997, 4999, 9973)
    """,
}
