"""Joins & lookups, Ray-Data-first (SURVEY §2.6).

The reference has no general relational join — its only joins are the SCD
incremental semi-join (``stream_processor.py:928-938``) and parent→child
substream lookups.  At 100 TB the two shapes we provide cover both and more:

* :func:`broadcast_join` — small side (dimension table / key set) is put in
  the object store ONCE (``ray.put``) and joined into every batch with an
  Arrow-native ``pa.Table.join``.  No shuffle at all; this is the right plan
  whenever one side fits a worker heap (the reference's substream lookup
  and SCD key-set semi-join both reduce to this).
* :func:`hash_join` — both sides large: add ``bucket = hash(key) % B`` to
  each side, tag, union, ONE ``groupby(bucket)`` shuffle, and an Arrow
  join inside each bucket group.  B must be chosen so each bucket pair
  fits a task heap; skewed keys can be salted by raising B (buckets are
  uniform in the key hash, so only exact-key hot spots matter — those are
  broadcast-join territory instead).
* :func:`semi_join` / :func:`anti_join` — broadcast the key set and filter
  with a vectorized ``is_in`` mask.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .pipelines.replay import stable_hash
from .schemas import conform_table


def _key_hash(t: pa.Table, on: list[str]) -> np.ndarray:
    h = np.zeros(t.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for c in on:
            h = h * np.uint64(1099511628211) + stable_hash(t[c].cast(pa.string()))
    return h


def broadcast_join(
    big: ray.data.Dataset,
    small: pa.Table | pd.DataFrame,
    on: list[str] | str,
    how: str = "inner",
) -> ray.data.Dataset:
    """Join a large Dataset against a small in-memory table without any
    shuffle.  ``how`` ∈ {inner, left}.  Arrow-native per-batch join — a
    pandas merge degraded null-bearing int columns to float64 and produced
    batch-dependent schemas on left joins (review finding); non-key column
    collisions raise (same contract as hash_join) instead of silently
    suffixing."""
    on = [on] if isinstance(on, str) else list(on)
    if isinstance(small, pd.DataFrame):
        small = pa.Table.from_pandas(small, preserve_index=False)
    overlap = set(big.schema().names) & set(small.schema.names) - set(on)
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")
    join_type = {"inner": "inner", "left": "left outer"}[how]
    ref = ray.put(small.combine_chunks())

    def merge(t: pa.Table) -> pa.Table:
        sm = ray.get(ref)
        out = t.combine_chunks().join(sm, keys=on, join_type=join_type, use_threads=False)
        return out.select(list(t.schema.names) + [c for c in sm.schema.names if c not in on])

    return big.map_batches(merge, batch_format="pyarrow")


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str] | str,
    how: str = "inner",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Partitioned hash join: bucket by key hash, tag sides, union, single
    groupby(bucket) shuffle, per-bucket Arrow join.  ``how`` ∈ {inner,
    left, outer}: full-outer is bucket-local-correct because every key
    value hashes to exactly one bucket, so unmatched rows of either side
    surface exactly once (keys are assumed non-null — SQL null keys never
    match and should be pre-filtered)."""
    on = [on] if isinstance(on, str) else list(on)

    lcols = left.schema().names
    rcols = right.schema().names
    l_only = [c for c in lcols if c not in on]
    r_only = [c for c in rcols if c not in on]
    overlap = set(l_only) & set(r_only)
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            b = (_key_hash(t, on) % np.uint64(num_buckets)).astype(np.int64)
            t = t.append_column("__bucket", pa.array(b))
            return t.append_column("__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    l = left.map_batches(prep(0), batch_format="pyarrow")
    r = right.map_batches(prep(1), batch_format="pyarrow")

    # conform to the union schema (other side's columns null-filled)
    def widen(missing: list[str], other_schema):
        def fn(t: pa.Table) -> pa.Table:
            for name in missing:
                t = t.append_column(name, pa.nulls(t.num_rows, other_schema[name]))
            return t

        return fn

    r_types = {n: t for n, t in zip(right.schema().names, right.schema().types)}
    l_types = {n: t for n, t in zip(left.schema().names, left.schema().types)}
    l = l.map_batches(widen(r_only, r_types), batch_format="pyarrow")
    r = r.map_batches(widen(l_only, l_types), batch_format="pyarrow")
    col_order = on + l_only + r_only + ["__bucket", "__side"]
    l = l.select_columns(col_order)
    r = r.select_columns(col_order)

    # In-bucket join is Arrow-native (pa.Table.join) so integer columns stay
    # integers — a pandas merge would degrade any null-bearing int column to
    # float64 (the round-1 hash_match failure).
    join_type = {"inner": "inner", "left": "left outer", "outer": "full outer"}[how]
    out_cols = on + l_only + r_only

    def bucket_merge(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g["__side"], 0)
        lt = g.filter(is_left).select(on + l_only).combine_chunks()
        rt = g.filter(pc.invert(is_left)).select(on + r_only).combine_chunks()
        out = lt.join(rt, keys=on, join_type=join_type, use_threads=False)
        return out.select(out_cols)

    return l.union(r).groupby("__bucket").map_groups(bucket_merge, batch_format="pyarrow")


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    num_buckets: int = 32,
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join: for each left row, the latest right row with
    ``right.on <= left.on`` (direction="backward") within the same ``by``
    key.  Plan: bucket both sides by ``hash(by)``, one groupby(bucket)
    shuffle, then ``pd.merge_asof`` over the sorted bucket — the guide's
    documented pattern.  Partitioning assumption: a (by, on) group fits a
    task; buckets are uniform in the key hash."""
    lcols = left.schema().names
    rcols = right.schema().names
    r_only = [c for c in rcols if c not in (by, on)]
    overlap = set(lcols) & set(r_only)
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            b = (_key_hash(t, [by]) % np.uint64(num_buckets)).astype(np.int64)
            t = t.append_column("__bucket", pa.array(b))
            return t.append_column("__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    l = left.map_batches(prep(0), batch_format="pyarrow")
    r = right.map_batches(prep(1), batch_format="pyarrow")

    r_types = {n: t for n, t in zip(right.schema().names, right.schema().types)}
    l_types = {n: t for n, t in zip(left.schema().names, left.schema().types)}
    l_only = [c for c in lcols if c not in (by, on)]

    def widen(missing, types):
        def fn(t: pa.Table) -> pa.Table:
            for name in missing:
                t = t.append_column(name, pa.nulls(t.num_rows, types[name]))
            return t

        return fn

    col_order = [by, on] + l_only + r_only + ["__bucket", "__side"]
    l = l.map_batches(widen(r_only, r_types), batch_format="pyarrow").select_columns(col_order)
    r = r.map_batches(widen(l_only, l_types), batch_format="pyarrow").select_columns(col_order)

    # pd.merge_asof is the matching kernel, but ONLY (by, on, positional
    # index) go through pandas: the old whole-table to_pandas round-trip
    # degraded null-bearing int64 value columns to float64, silently
    # corrupting ids above 2^53 — the schema conform restored the dtype but
    # not the precision (review finding).  Values are gathered Arrow-side
    # by index; a null match index takes as a null row.
    out_schema = pa.schema(
        [(by, l_types[by]), (on, l_types[on])]
        + [(c, l_types[c]) for c in l_only]
        + [(on + "_right", r_types[on])]
        + [(c, r_types[c]) for c in r_only]
    )

    def bucket_asof(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g["__side"], 0)
        lt = g.filter(is_left).select([by, on] + l_only).combine_chunks()
        rt = g.filter(pc.invert(is_left)).select([by, on] + r_only).combine_chunks()
        if lt.num_rows == 0:
            return out_schema.empty_table()
        if rt.num_rows == 0:
            ridx = pa.array([None] * lt.num_rows, pa.int64())
            l_take, r_take = lt, rt
        else:
            ldf = pd.DataFrame({
                by: lt[by].to_numpy(zero_copy_only=False),
                on: lt[on].to_numpy(zero_copy_only=False),
                "__lidx": np.arange(lt.num_rows, dtype=np.int64),
            }).sort_values(on, kind="stable")
            rdf = pd.DataFrame({
                by: rt[by].to_numpy(zero_copy_only=False),
                "__ron": rt[on].to_numpy(zero_copy_only=False),
                "__ridx": np.arange(rt.num_rows, dtype=np.int64),
            }).sort_values("__ron", kind="stable")
            m = pd.merge_asof(ldf, rdf, left_on=on, right_on="__ron",
                              by=by, direction=direction)
            lidx = m["__lidx"].to_numpy(np.int64)
            rraw = m["__ridx"].to_numpy(np.float64)  # NaN = no match
            matched = ~np.isnan(rraw)
            l_take = lt.take(pa.array(lidx))
            ridx = pa.array(np.where(matched, rraw, 0).astype(np.int64),
                            mask=~matched)
            r_take = rt.take(ridx)
        cols = {by: l_take[by], on: l_take[on]}
        for c in l_only:
            cols[c] = l_take[c]
        if rt.num_rows == 0:
            cols[on + "_right"] = pa.nulls(lt.num_rows, r_types[on])
            for c in r_only:
                cols[c] = pa.nulls(lt.num_rows, r_types[c])
        else:
            cols[on + "_right"] = r_take[on]
            for c in r_only:
                cols[c] = r_take[c]
        return conform_table(pa.table(cols), out_schema)

    return l.union(r).groupby("__bucket").map_groups(bucket_asof, batch_format="pyarrow")


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    lo: str,
    hi: str,
    bounds: list | np.ndarray | None = None,
    num_buckets: int = 32,
    chunk: int = 4096,
) -> ray.data.Dataset:
    """Interval (range) join: inner-join each left row to every right row
    whose half-open interval ``[lo, hi)`` contains ``left.on``.

    The reference has no such operator (its joins are key-equality only);
    this is the classic distributed plan for the shape Ray Data lacks:

    * Partition the VALUE DOMAIN — not a key hash — into ``num_buckets``
      contiguous ranges (``bounds`` = the inner cut points; when omitted
      they are derived from a seeded 1 % sample of ``left.on`` quantiles,
      so skewed value distributions still ballast evenly).
    * Each left row routes to exactly ONE bucket (the range holding its
      value), so the output has no duplicates to reconcile.
    * Each right interval is REPLICATED to every bucket its span overlaps
      (intervals are assumed small-ish relative to the domain — a single
      interval spanning the whole domain degrades to a broadcast, which
      is then the right plan anyway).
    * ONE ``groupby(bucket)`` exchange; in-bucket matching is a chunked
      dense compare (``len(left) × chunk`` bools at a time), fully
      vectorized, memory bounded by ``chunk``.

    Partitioning assumption: each (bucket's left rows × bucket's
    intervals) pair fits a task heap — raise ``num_buckets`` to shrink
    buckets; hot VALUE ranges (not hot keys) are what skews this plan.
    """
    lcols = left.schema().names
    rcols = right.schema().names
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"column collision: {sorted(overlap)}")

    if bounds is None:
        smp = (
            left.select_columns([on])
            .random_sample(0.01, seed=7)
            .limit(100_000)
            .to_pandas()[on]
            .to_numpy()
        )
        qs = np.linspace(0, 1, num_buckets + 1)[1:-1]
        bounds = np.unique(np.quantile(smp, qs)) if len(smp) else np.array([0.0])
    cuts = np.asarray(bounds, np.float64)
    cuts_ref = ray.put(cuts)

    def route_left(t: pa.Table) -> pa.Table:
        v = t[on].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(ray.get(cuts_ref), v, side="right")
        t = t.append_column("__bucket", pa.array(b.astype(np.int64)))
        return t.append_column("__side", pa.array(np.full(t.num_rows, 0, np.int8)))

    def route_right(t: pa.Table) -> pa.Table:
        c = ray.get(cuts_ref)
        los = t[lo].to_numpy(zero_copy_only=False).astype(np.float64)
        his = t[hi].to_numpy(zero_copy_only=False).astype(np.float64)
        first = np.searchsorted(c, los, side="right")
        last = np.searchsorted(c, his, side="left")  # hi is EXCLUSIVE
        n_rep = np.maximum(last - first + 1, 0)
        n_rep[his <= los] = 0  # empty intervals match nothing
        idx = np.repeat(np.arange(t.num_rows), n_rep)
        starts = np.concatenate([[0], np.cumsum(n_rep)])[:-1]
        within = np.arange(int(n_rep.sum())) - np.repeat(starts, n_rep)
        b = np.repeat(first, n_rep) + within
        t = t.take(pa.array(idx)).append_column("__bucket", pa.array(b.astype(np.int64)))
        return t.append_column("__side", pa.array(np.full(len(idx), 1, np.int8)))

    l = left.map_batches(route_left, batch_format="pyarrow")
    r = right.map_batches(route_right, batch_format="pyarrow")

    # conform both sides to the union schema before the exchange
    l_types = {n: t for n, t in zip(lcols, left.schema().types)}
    r_types = {n: t for n, t in zip(rcols, right.schema().types)}

    def widen(missing, types):
        def fn(t: pa.Table) -> pa.Table:
            for name in missing:
                t = t.append_column(name, pa.nulls(t.num_rows, types[name]))
            return t

        return fn

    col_order = lcols + rcols + ["__bucket", "__side"]
    l = l.map_batches(widen(rcols, r_types), batch_format="pyarrow").select_columns(col_order)
    r = r.map_batches(widen(lcols, l_types), batch_format="pyarrow").select_columns(col_order)

    out_cols = lcols + rcols

    def bucket_match(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g["__side"], 0)
        lt = g.filter(is_left).select(lcols).combine_chunks()
        rt = g.filter(pc.invert(is_left)).select(rcols).combine_chunks()
        sch = pa.schema([(c, l_types[c]) for c in lcols] + [(c, r_types[c]) for c in rcols])
        if lt.num_rows == 0 or rt.num_rows == 0:
            return sch.empty_table()
        v = lt[on].to_numpy(zero_copy_only=False).astype(np.float64)
        los = rt[lo].to_numpy(zero_copy_only=False).astype(np.float64)
        his = rt[hi].to_numpy(zero_copy_only=False).astype(np.float64)
        li_all, ri_all = [], []
        for c0 in range(0, rt.num_rows, chunk):
            m = (los[None, c0 : c0 + chunk] <= v[:, None]) & (
                v[:, None] < his[None, c0 : c0 + chunk]
            )
            li, ri = np.nonzero(m)
            li_all.append(li)
            ri_all.append(ri + c0)
        li = pa.array(np.concatenate(li_all))
        ri = pa.array(np.concatenate(ri_all))
        l_take, r_take = lt.take(li), rt.take(ri)
        return pa.table(
            {**{c: l_take[c] for c in lcols}, **{c: r_take[c] for c in rcols}}
        ).select(out_cols)

    return l.union(r).groupby("__bucket").map_groups(bucket_match, batch_format="pyarrow")


def semi_join(
    big: ray.data.Dataset, keys: pa.Table | list, on: str, anti: bool = False
) -> ray.data.Dataset:
    """Filter ``big`` to rows whose ``on`` value is (not, for anti) in the
    broadcast key set."""
    if isinstance(keys, pa.Table):
        keys = keys[on].to_pylist()
    # drop nulls (is_in never matches null; sorting mixed None/str raised)
    ref = ray.put([k for k in set(keys) if k is not None])

    def fn(t: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.is_in(t[on], value_set=pa.array(ks, t[on].type))
        return t.filter(pc.invert(mask) if anti else mask)

    return big.map_batches(fn, batch_format="pyarrow")


def anti_join(big: ray.data.Dataset, keys, on: str) -> ray.data.Dataset:
    return semi_join(big, keys, on, anti=True)
