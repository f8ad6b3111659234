"""Sequence packing: fold a tokenized-document table into fixed-length
training sequences (GPT-style "concat-and-chunk").

This is the step that turns the lake's ``(doc_id, tokens:list<int32>,
n_tok, source)`` table into the fixed-shape batches a trainer consumes:
every document's token array (plus an optional EOS separator) is
concatenated in a deterministic global order and the resulting token
stream is chopped into ``seq_len``-token rows.

Scale plan (the whole point — a naive implementation is a driver-side
concat of the corpus):

1. optional ``sort(order_col)`` pins the global order (skippable when the
   input's block order IS the contract, e.g. an already-ordered lake
   read);
2. a metadata pass cuts each block into row slices — one per block, or
   enough to give every cluster CPU one when there are fewer blocks than
   CPUs — and computes each slice's token contribution: one int per slice
   on the driver (O(slices), not O(tokens)); a prefix sum assigns every
   slice its global token offset;
3. each slice emits, in one task with zero exchange and no copy of its
   block (a zero-copy row slice of the block's ref), every chunk that
   falls ENTIRELY inside its token span, plus at most two boundary
   fragments (the partial chunks straddling its edges);
4. the O(slices) boundary fragments — each ≤ ``seq_len`` tokens — are
   stitched on the driver and unioned with the interior chunks.

Steps 2-4 are a prefix scan, which the Dataset API cannot express — this
is one of the documented "raw Ray tasks" exceptions; every emitted chunk
still lives in the object store and flows on as a normal Dataset.  The
same machinery backs :func:`global_index` (contiguous row numbering) and
:func:`deterministic_shuffle` (reproducible training-data order).

No reference analog (the reference moves opaque records); the operator
family exists for the tokenized-sequence lake the north star describes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import cluster_cpus


# ---------------------------------------------------------------------------
# prefix-scan primitive: per-block (or per-slice) counts → global offsets
# ---------------------------------------------------------------------------

@ray.remote
def _slice_token_counts(t: pa.Table, tokens_col: str, add_eos: bool,
                        k: int) -> list[tuple[int, int, int]]:
    """Cut one block into ``k`` row slices of about equal rows: ``(lo, hi,
    tokens)`` for each non-empty one."""
    if t.num_rows == 0 or tokens_col not in t.schema.names:  # empty sort block
        return []
    # null token lists count as empty docs (they still get an EOS) — the
    # count MUST agree with _flat_tokens or every later slice's offsets shift
    lens = pc.fill_null(pc.list_value_length(t[tokens_col]), 0).to_numpy().astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(lens + add_eos)])
    cuts = np.arange(k + 1) * t.num_rows // k
    return [(int(lo), int(hi), int(cum[hi] - cum[lo])) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


@ray.remote
def _block_row_count(t: pa.Table) -> int:
    return t.num_rows


def _block_refs(ds: ray.data.Dataset) -> list:
    """Materialize and return per-block Arrow refs in dataset order.  The
    count tasks below are locality-scheduled next to their block, so the
    driver sees O(blocks) ints, never the data."""
    return ds.materialize().to_arrow_refs()


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------

def _flat_tokens(t: pa.Table, tokens_col: str, eos: int | None) -> np.ndarray:
    """Block's token stream as one int32 array, EOS appended per doc.
    Vectorized: the EOS slots are a mask write, not a per-doc loop.
    Null token lists are empty docs (flatten drops them; fill_null keeps
    the lengths aligned with the count pass)."""
    la = t[tokens_col].combine_chunks()
    flat = la.flatten().to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
    if eos is None:
        return flat
    lens = pc.fill_null(pc.list_value_length(la), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    total = int(lens.sum()) + len(lens)
    out = np.full(total, np.int32(eos), np.int32)
    mask = np.ones(total, bool)
    mask[np.cumsum(lens + 1) - 1] = False  # each doc's trailing EOS slot
    out[mask] = flat
    return out


def _chunks_table(flat: np.ndarray, first_seq: int, n_chunks: int, seq_len: int) -> pa.Table:
    toks = pa.FixedSizeListArray.from_arrays(
        pa.array(flat[: n_chunks * seq_len], pa.int32()), seq_len
    ).cast(pa.list_(pa.int32()))
    return pa.table({
        "seq_id": pa.array(np.arange(first_seq, first_seq + n_chunks, dtype=np.int64)),
        "tokens": toks,
        "n_tok": pa.array(np.full(n_chunks, seq_len, np.int32)),
    })


@ray.remote(num_returns=2)
def _emit_chunks(
    t: pa.Table, lo: int, hi: int, tokens_col: str, eos: int | None, start: int, seq_len: int
):
    """Emit (interior-chunks table, boundary fragments) for rows [lo, hi) of
    one block, whose token span is [start, start+n).  Fragments: list of
    (seq_id, pos, int32 ndarray) — at most 2, each shorter than ``seq_len``."""
    flat = _flat_tokens(t.slice(lo, hi - lo), tokens_col, eos)
    n = len(flat)
    end = start + n
    empty = _chunks_table(np.empty(0, np.int32), 0, 0, seq_len)
    if n == 0:
        return empty, []
    frags: list[tuple[int, int, np.ndarray]] = []
    # head fragment: [start, first aligned boundary)
    lo = start
    if start % seq_len:
        head_end = min(end, (start // seq_len + 1) * seq_len)
        frags.append((start // seq_len, start, flat[: head_end - start]))
        lo = head_end
    hi = (end // seq_len) * seq_len  # last aligned boundary ≤ end
    if hi < lo:
        return empty, frags  # block lies inside a single chunk
    if end % seq_len and hi >= lo:
        frags.append((end // seq_len, hi, flat[hi - start:]))
    interior = _chunks_table(flat[lo - start: hi - start], lo // seq_len,
                             (hi - lo) // seq_len, seq_len)
    return interior, frags


def pack_sequences(
    ds: ray.data.Dataset,
    tokens_col: str = "tokens",
    seq_len: int = 2048,
    eos: int | None = None,
    order_col: str | None = None,
    drop_last: bool = True,
) -> ray.data.Dataset:
    """Pack token arrays into fixed-length sequences.

    Returns ``(seq_id:int64, tokens:list<int32> of len seq_len, n_tok:int32)``
    — ``seq_id`` is the contiguous global chunk index.  With ``drop_last``
    the trailing partial chunk is discarded (the usual trainer contract);
    otherwise it is emitted with ``n_tok < seq_len``.

    ``order_col`` sorts first (one range exchange) to pin a deterministic
    global order; ``None`` takes the input's existing block order as the
    contract.  Everything after the optional sort is zero-exchange and
    copies no block: interior chunks never leave their slice's task, and
    only O(slices) boundary fragments (< ``seq_len`` tokens each) touch the
    driver.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    if order_col is not None:
        ds = ds.sort(order_col)
    refs = _block_refs(ds)
    # A narrow input (e.g. a one-range lake read → ONE block) would
    # serialize the emit pass; widen it up to the cluster's CPUs with row
    # slices of the blocks it has (a ref plus a row window: no copy).
    k = -(-int(cluster_cpus()) // max(len(refs), 1))
    slices = [(r, *s) for r, ss in zip(refs, ray.get([
        _slice_token_counts.remote(r, tokens_col, eos is not None, k) for r in refs]))
        for s in ss]
    if not slices:
        return ray.data.from_arrow(_chunks_table(np.empty(0, np.int32), 0, 0, seq_len))
    counts = [c for *_, c in slices]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    total = int(starts[-1] + counts[-1])

    interior_refs, frag_refs = [], []
    for (r, lo, hi, _), s in zip(slices, starts):
        it, fr = _emit_chunks.remote(r, lo, hi, tokens_col, eos, int(s), seq_len)
        interior_refs.append(it)
        frag_refs.append(fr)

    # stitch O(slices) boundary fragments on the driver
    by_seq: dict[int, list[tuple[int, np.ndarray]]] = {}
    for frags in ray.get(frag_refs):
        for seq_id, pos, arr in frags:
            by_seq.setdefault(seq_id, []).append((pos, arr))
    stitched_ids, stitched_toks = [], []
    last_seq = total // seq_len  # id of the (partial) tail chunk, if any
    for seq_id in sorted(by_seq):
        parts = sorted(by_seq[seq_id])
        arr = np.concatenate([a for _, a in parts])
        if seq_id == last_seq and drop_last:
            continue  # global tail: incomplete by construction
        stitched_ids.append(seq_id)
        stitched_toks.append(arr)
    out = ray.data.from_arrow_refs(interior_refs)
    if stitched_ids:
        tail = pa.table({
            "seq_id": pa.array(stitched_ids, pa.int64()),
            "tokens": pa.array([a.tolist() for a in stitched_toks], pa.list_(pa.int32())),
            "n_tok": pa.array([len(a) for a in stitched_toks], pa.int32()),
        })
        out = out.union(ray.data.from_arrow(tail))
    return out


# ---------------------------------------------------------------------------
# global row index / deterministic shuffle
# ---------------------------------------------------------------------------

@ray.remote
def _index_block(t: pa.Table, start: int, out: str) -> pa.Table:
    return t.append_column(
        out, pa.array(np.arange(start, start + t.num_rows, dtype=np.int64))
    )


def global_index(ds: ray.data.Dataset, out: str = "row_idx") -> ray.data.Dataset:
    """Append a contiguous global row index (0..N-1) in dataset order — the
    prefix-scan the Dataset API lacks.  O(blocks) driver metadata; each
    block is re-emitted by a locality-scheduled task, no exchange."""
    refs = _block_refs(ds)
    if not refs:
        return ds
    counts = ray.get([_block_row_count.remote(r) for r in refs])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    return ray.data.from_arrow_refs(
        [_index_block.remote(r, int(s), out) for r, s in zip(refs, starts)]
    )


def shuffle_key_md5(key_arr: pa.Array, seed: int) -> pa.Array:
    """md5(seed || ':' || key) hex — the portable (DuckDB-reproducible)
    shuffle key.  hashlib loop: no Arrow md5 kernel exists (same documented
    trade-off as ``text.fingerprint_md5``)."""
    pre = f"{seed}:"
    return pa.array([
        hashlib.md5((pre + v).encode()).hexdigest() if v is not None else None
        for v in key_arr.cast(pa.string()).to_pylist()
    ])


def deterministic_shuffle(
    ds: ray.data.Dataset,
    key_col: str,
    seed: int = 0,
    out: str = "shuffle_rank",
    keep_key: bool = False,
) -> ray.data.Dataset:
    """Reproducible pseudo-random training-data order: rank every row by
    ``md5(seed:key)`` (ties broken by the key itself).  Unlike
    ``ds.random_shuffle()`` the permutation is a pure function of
    (seed, keys) — re-runs, resumes and other engines (the SQL oracle)
    agree on it exactly.  One sort exchange + the zero-exchange
    :func:`global_index` pass."""
    tagged = ds.map_batches(
        lambda t: t.append_column("_shuf_key", shuffle_key_md5(t[key_col], seed)),
        batch_format="pyarrow",
    ).sort(["_shuf_key", key_col])
    ranked = global_index(tagged, out=out)
    if keep_key:
        return ranked
    return ranked.map_batches(
        lambda t: t.drop_columns(["_shuf_key"]), batch_format="pyarrow"
    )


def interleave_sources(
    ds: ray.data.Dataset,
    strat_col: str = "source",
    key_col: str = "doc_id",
    seed: int = 0,
    rank_col: str = "rnk",
    pos_col: str = "pos",
) -> ray.data.Dataset:
    """Deterministic curriculum interleave: round-robin across sources in
    a reproducible pseudo-random within-source order.  Every row gets its
    1-based within-source rank (by ``md5(seed:key)``, ties by key) and a
    1-based global position ordered by ``(rank, source, key)`` — so the
    stream cycles source₁..sourceₙ row by row until smaller sources
    exhaust (the standard proportional-interleave used to keep a training
    stream from running a single source back to back).

    Pure function of (seed, keys): re-runs, resumes and the SQL oracle
    (two ``row_number`` windows) agree row for row.  Scale shape: one
    ``groupby(source)`` exchange for the within-source rank (map_groups
    sort — a source's rows must meet once), one range-partitioned sort for
    the global order, then the zero-exchange :func:`global_index` prefix
    scan.  Skewed source sizes are fine — the groupby shuffles each
    source's rows to one group task, so the largest source bounds the
    group-task memory; pre-prune columns before calling at scale."""

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_shuf_key", shuffle_key_md5(
            t[key_col].combine_chunks() if isinstance(t[key_col], pa.ChunkedArray)
            else t[key_col], seed))

    def rank_group(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("_shuf_key", "ascending"),
                                            (key_col, "ascending")])
        t = t.take(idx)
        return t.append_column(
            rank_col, pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)))

    ranked = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby(strat_col)
        .map_groups(rank_group, batch_format="pyarrow")
        .sort([rank_col, strat_col, key_col])
    )
    out = global_index(ranked, out=pos_col)

    def finish(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["_shuf_key"])
        # global_index is 0-based; the SQL mirror's row_number is 1-based
        return t.set_column(t.schema.get_field_index(pos_col), pos_col,
                            pc.add(t[pos_col], 1))

    return out.map_batches(finish, batch_format="pyarrow")
