"""Persisted cross-run MinHash/LSH near-duplicate index.

At 100 TB you cannot re-signature (or re-shuffle) the historical corpus
every time a new ingest batch arrives.  This module persists the LSH
state ONCE and dedups each NEW batch against it by reading only the
shards the batch actually touches — the dedup analog of the persisted
IVF index (:func:`airbyte_ray.functions.ann.build_ivf_index`): probe
I/O ∝ touched shards, never the whole index.

Layout (all plain partitioned parquet — resumable, appendable)::

    index_dir/meta.json                   {num_perm, bands, shingle_k,
                                           seed, n_shards, id_col}
    index_dir/bands/shard=N/*.parquet     (band_key, <id_col>)
    index_dir/sigs/shard=N/*.parquet      (<id_col>, sig)

``bands`` is sharded by ``band_key`` (the probe key: a new doc's band
keys say exactly which shards can hold its collisions); ``sigs`` is
sharded by ``stable_hash(id)`` (fetched only for candidate ids, for the
signature-similarity verification).  Signatures are NOT duplicated into
the band rows — at ``bands=16`` that would store every signature 16×.

Flow shapes:

* :func:`build_minhash_index` — ONE pass over the corpus text (the
  vectorized ``reduceat`` signature stage) streaming into the sigs
  table, then a cheap second pass over the much smaller sigs parquet to
  explode band rows.  No driver-side materialization of anything.
* :func:`append_to_index` — log-structured: the new batch's band/sig
  files land NEXT TO the existing shard files (parquet dirs append).
* :func:`dedup_against_index` — one pass over the new batch's text, then
  ONE plan of plain tasks over contiguous shard ranges, aligned with this
  layout so each stage's input is already split the way the next stage
  reads it (route → probe → attach → verify; see its docstring).  The
  driver holds only refs and shard lists.  Hot buckets fail LOUDLY over
  ``bucket_cap``.

Verification is by signature estimate (index-only; the historical text
is never re-read).  At 64 permutations the estimator's σ is ≈0.06 at
j=0.5 — choose ``sim_threshold`` inside your corpus's similarity gap,
or chain ``ngram_jaccard_pairs`` over the candidate ids for the exact
metric when the text is still reachable.

Reference analog: none (the reference has no content operators) — this
is brief-driven (large-scale training-data dedup).
"""

from __future__ import annotations

import glob
import json
import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import cluster_cpus
from ..exchange import fan, returns, split
from ..state.atomic import commit_json
from .dedup import _band_rows, _minhash_batch

_DEFAULT_SEED = 97  # MinHasher's default — recorded in meta for the probe side


def _band_shard(keys: pa.ChunkedArray, n_shards: int) -> np.ndarray:
    """The band shard of each band key: ``band_key % n_shards`` (as uint64)."""
    return (keys.to_numpy().view(np.uint64) % np.uint64(n_shards)).astype(np.int64)


def _band_shard_col(t: pa.Table, n_shards: int) -> pa.Table:
    return t.append_column("shard", pa.array(_band_shard(t["band_key"], n_shards)))


def _id_shard(ids: pa.ChunkedArray, n_shards: int) -> np.ndarray:
    """The sig shard of each id: ``stable_hash(id) % n_shards``."""
    from ..pipelines.replay import stable_hash

    return (stable_hash(ids.cast(pa.string())) % np.uint64(n_shards)).astype(np.int64)


def build_minhash_index(
    ds: ray.data.Dataset,
    index_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    n_shards: int = 64,
) -> dict:
    """Persist the LSH index for ``ds``; returns the meta dict."""
    os.makedirs(index_dir, exist_ok=True)
    meta = {"num_perm": num_perm, "bands": bands, "shingle_k": shingle_k,
            "seed": _DEFAULT_SEED, "n_shards": n_shards, "id_col": id_col}
    sig_dir = os.path.join(index_dir, "sigs")
    band_dir = os.path.join(index_dir, "bands")
    # pass 1: text → signatures, streamed straight to parquet
    (
        ds.select_columns([id_col, text_col])
        .map_batches(partial(_minhash_batch, col=text_col,
                             num_perm=num_perm, shingle_k=shingle_k),
                     batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns([text_col]).append_column(
            "shard", pa.array(_id_shard(t[id_col], n_shards))), batch_format="pyarrow")
        .write_parquet(sig_dir, partition_cols=["shard"])
    )
    # pass 2: over the (small) sigs table → band rows
    (
        ray.data.read_parquet(sig_dir)
        .map_batches(lambda t: _band_shard_col(
            _band_rows(t.select([id_col, "sig"]), id_col, num_perm, bands)
            .drop_columns(["sig"]), n_shards), batch_format="pyarrow")
        .write_parquet(band_dir, partition_cols=["shard"])
    )
    commit_json(os.path.join(index_dir, "meta.json"), meta)
    return meta


def append_to_index(ds: ray.data.Dataset, index_dir: str,
                    text_col: str = "text") -> None:
    """Log-structured append: the new docs' sig/band files land beside
    the existing shard files (same meta/params)."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    id_col, num_perm = meta["id_col"], meta["num_perm"]
    sigged = (
        ds.select_columns([id_col, text_col])
        .map_batches(partial(_minhash_batch, col=text_col,
                             num_perm=num_perm, shingle_k=meta["shingle_k"]),
                     batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns([text_col]), batch_format="pyarrow")
        .materialize()  # small append batch by contract; read twice below
    )
    sigged.map_batches(
        lambda t: t.append_column("shard", pa.array(_id_shard(t[id_col], meta["n_shards"]))),
        batch_format="pyarrow",
    ).write_parquet(os.path.join(index_dir, "sigs"), partition_cols=["shard"])
    sigged.map_batches(
        lambda t: _band_shard_col(
            _band_rows(t, id_col, num_perm, meta["bands"]).drop_columns(["sig"]),
            meta["n_shards"]), batch_format="pyarrow"
    ).write_parquet(os.path.join(index_dir, "bands"), partition_cols=["shard"])


def dedup_against_index(
    new_ds: ray.data.Dataset,
    index_dir: str,
    text_col: str = "text",
    sim_threshold: float = 0.8,
    bucket_cap: int = 100_000,
) -> ray.data.Dataset:
    """Near-dup matches of a NEW batch against the persisted index:
    returns (a=indexed id, b=new id, sim=estimated Jaccard ≥ threshold).

    One Ray Data pass signs the new batch (the only pass over its text);
    then one plan of plain tasks over contiguous shard ranges, about one
    per CPU, each returning one slice per range of the next stage:

    1. route — one task per signature block: its band rows by band-shard
       range, its (id, sig) rows by id-shard range, and the band shards it
       touches (the driver turns those into each probe's file list);
    2. probe — one task per band-shard range: the touched shards' band
       rows whose key is one of its new band keys, paired old × new per
       key (a bucket over ``bucket_cap`` pairs raises);
    3. attach — one task per id-shard range of ``a``: the candidates'
       signatures from the sig shards that hold them (a missing one
       raises: band and sig tables out of sync);
    4. verify — one task per id-shard range of ``b``: the new signatures
       from the routed sigs, the estimate, the threshold.

    The driver holds only refs and shard lists, never an array of the
    batch or of its candidates."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    id_col, num_perm, n_shards = meta["id_col"], meta["num_perm"], meta["n_shards"]
    if meta["seed"] != _DEFAULT_SEED:
        raise ValueError("index built with a non-default hasher seed")

    signed = (
        new_ds.select_columns([id_col, text_col])
        .map_batches(partial(_minhash_batch, col=text_col,
                             num_perm=num_perm, shingle_k=meta["shingle_k"]),
                     batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns([text_col]), batch_format="pyarrow")
        .materialize()
    )
    if signed.schema() is None:  # an empty batch
        return ray.data.from_arrow(_no_matches(pa.int64()))
    schema, blocks = signed.schema().base_schema, signed.to_arrow_refs()
    k = min(n_shards, max(1, int(cluster_cpus())))
    cuts = [n_shards * j // k for j in range(k)]
    ends = cuts[1:] + [n_shards]
    routed = [fan(_route, 1 + 2 * k, b, schema, meta, cuts) for b in blocks]
    touched = sorted(set().union(*ray.get([r[0] for r in routed])))
    probed = [
        fan(_probe, k, meta, cuts, bucket_cap,
            _shard_files(index_dir, "bands", [s for s in touched if lo <= s < hi]),
            *[r[1 + j] for r in routed])
        for j, (lo, hi) in enumerate(zip(cuts, ends))
    ]
    attached = [fan(_attach, k, index_dir, meta, cuts, *[p[j] for p in probed])
                for j in range(k)]
    return ray.data.from_arrow_refs([
        _verify.remote(meta, sim_threshold, len(blocks),
                       *[r[1 + k + j] for r in routed], *[a[j] for a in attached])
        for j in range(k)
    ])


def _no_matches(id_type: pa.DataType) -> pa.Table:
    return pa.table({"a": pa.array([], id_type), "b": pa.array([], id_type),
                     "sim": pa.array([], pa.float64())})


def _shard_files(index_dir: str, table: str, shards) -> list[str]:
    """The parquet files of ``table``'s (``bands`` or ``sigs``) ``shards``."""
    return [f for s in shards for f in sorted(
        glob.glob(os.path.join(index_dir, table, f"shard={s}", "*.parquet")))]


def _read_filtered(files: list[str], cols: list[str], key: str, keep: pa.Array,
                   empty: pa.Table) -> pa.Table:
    """The rows of ``files`` whose ``key`` is in ``keep``, one file at a time.
    Membership is a search of ``keep`` sorted once: ``pc.is_in`` rebuilds its
    hash set on every call, which cost 10-20 ms a file against 160k keys."""
    keep = np.sort(keep.to_numpy(zero_copy_only=False))
    parts = []
    for f in files:
        t = pq.ParquetFile(f).read(columns=cols)
        v = t[key].to_numpy()
        parts.append(t.filter(pa.array(keep[np.searchsorted(keep, v).clip(max=len(keep) - 1)] == v)))
    return pa.concat_tables(parts) if parts else empty


def _gather(sigs: pa.Table, id_col: str, ids: pa.ChunkedArray) -> pa.ChunkedArray:
    """``sigs``' signature of each of ``ids``, by a sorted-index gather
    (Acero joins reject list payloads); raises if one is missing."""
    have = sigs[id_col].to_numpy(zero_copy_only=False)
    want = ids.to_numpy(zero_copy_only=False)
    order = np.argsort(have, kind="stable")
    pos = order[np.searchsorted(have[order], want).clip(max=len(have) - 1)] if len(have) else order
    if len(pos) != len(want) or not (have[pos] == want).all():
        raise RuntimeError(
            "candidate id missing from its sig shard — band and sig "
            "tables are out of sync (partial append?)")
    return sigs["sig"].take(pos)


def _sig_matrix(sig: pa.ChunkedArray, num_perm: int) -> np.ndarray:
    return np.asarray(sig.combine_chunks().flatten()).reshape(len(sig), num_perm)


@ray.remote
def _route(t: pa.Table, schema: pa.Schema, meta: dict, cuts: list[int]) -> list:
    """Route one signature block: the band shards it touches, then its band
    rows (band_key, id) by band-shard range, then its (id, sig) rows by
    id-shard range."""
    id_col, n = meta["id_col"], meta["n_shards"]
    t = t if t.num_rows else schema.empty_table()  # Ray's empty blocks may lack columns
    nb = _band_rows(t, id_col, meta["num_perm"], meta["bands"]).drop_columns(["sig"])
    shard = _band_shard(nb["band_key"], n)
    return [np.unique(shard).tolist(), *split(nb, shard, cuts),
            *split(t, _id_shard(t[id_col], n), cuts)]


@ray.remote
def _probe(meta: dict, cuts: list[int], bucket_cap: int, files: list[str],
           *slices: pa.Table) -> pa.Table | list[pa.Table]:
    """Probe one band-shard range: its new band rows meet the indexed band
    rows of ``files`` that share a key, paired old × new per key by a sorted
    run-length pairing; the distinct (a, b) pairs by id-shard range of a."""
    id_col = meta["id_col"]
    nb = pa.concat_tables(slices)
    old = _read_filtered(files, ["band_key", id_col], "band_key",
                         pc.unique(nb["band_key"]), nb.slice(0, 0))
    ok, nk = old["band_key"].to_numpy(), nb["band_key"].to_numpy()
    o_ord, n_ord = np.argsort(ok, kind="stable"), np.argsort(nk, kind="stable")
    common = np.intersect1d(ok, nk)
    o_lo = np.searchsorted(ok[o_ord], common)
    n_lo = np.searchsorted(nk[n_ord], common)
    n_cnt = np.searchsorted(nk[n_ord], common, side="right") - n_lo
    cnt = (np.searchsorted(ok[o_ord], common, side="right") - o_lo) * n_cnt
    if cnt.size and int(cnt.max()) > bucket_cap:
        raise ValueError(
            f"band bucket {int(common[cnt.argmax()])} with {int(cnt.max())} cross "
            f"pairs exceeds bucket_cap={bucket_cap}: near-identical content is "
            "flooding one bucket — dedup the new batch internally first, or "
            "raise bucket_cap explicitly")
    key = np.repeat(np.arange(len(common)), cnt)  # each pair's key, then its
    p = np.arange(len(key)) - np.repeat(np.cumsum(cnt) - cnt, cnt)  # rank in it
    pairs = pa.table({
        "a": old[id_col].take(o_ord[o_lo[key] + p // n_cnt[key]]),
        "b": nb[id_col].take(n_ord[n_lo[key] + p % n_cnt[key]]),
    }).group_by(["a", "b"]).aggregate([])  # a pair surfaces from several bands
    return returns(split(pairs, _id_shard(pairs["a"], meta["n_shards"]), cuts))


@ray.remote
def _attach(index_dir: str, meta: dict, cuts: list[int],
            *slices: pa.Table) -> pa.Table | list[pa.Table]:
    """Attach ``sig_a`` for one id-shard range of a: the candidates'
    signatures from the sig shards that hold them; (a, b, sig_a) by
    id-shard range of b."""
    id_col, n = meta["id_col"], meta["n_shards"]
    pairs = pa.concat_tables(slices).group_by(["a", "b"]).aggregate([])
    want = pc.unique(pairs["a"])
    sigs = _read_filtered(
        _shard_files(index_dir, "sigs", np.unique(_id_shard(want, n)).tolist()),
        [id_col, "sig"], id_col, want,
        pa.table({id_col: want.slice(0, 0), "sig": pa.array([], pa.list_(pa.int64()))}))
    return returns(split(pairs.append_column("sig_a", _gather(sigs, id_col, pairs["a"])),
                         _id_shard(pairs["b"], n), cuts))


@ray.remote
def _verify(meta: dict, sim_threshold: float, n_new: int, *slices: pa.Table) -> pa.Table:
    """Verify one id-shard range of b: ``slices`` are the routed new sigs
    (``n_new`` of them), then the attached pairs; each pair's signature
    estimate, kept at ``sim >= sim_threshold``."""
    id_col, num_perm = meta["id_col"], meta["num_perm"]
    new = pa.concat_tables(slices[:n_new])
    pairs = [s for s in slices[n_new:] if s.num_rows]  # an empty one's sig_a may be untyped
    if not pairs:
        return _no_matches(new.schema.field(id_col).type)
    pairs = pa.concat_tables(pairs)
    sim = (_sig_matrix(pairs["sig_a"], num_perm)
           == _sig_matrix(_gather(new, id_col, pairs["b"]), num_perm)).mean(axis=1)
    return pa.table({"a": pairs["a"], "b": pairs["b"], "sim": sim}).filter(
        pa.array(sim >= sim_threshold))
