"""Exact duplicated-substring spans over word windows (Lee et al. style).

"Deduplicating Training Data Makes Language Models Better"
(arXiv:2107.06499) removes every substring of >= k tokens that occurs
more than once in the corpus, keeping one copy.  This module implements
the cross-document variant over whitespace word windows:

* a *window* is k consecutive words of a document (1-based start
  position, same split convention as the other text operators:
  ``string_split(text, ' ')``);
* a window is *duplicated* when its word sequence appears in at least
  ``min_docs`` DISTINCT documents; the lexicographically smallest
  ``doc_id`` holding it is the *keeper* and keeps its copy;
* every other document's duplicated windows are merged into maximal
  overlapping spans ``[span_start, span_end]`` (two hit windows overlap
  when their starts differ by <= k-1).

Within-document repeats (same gram twice in ONE doc only) are NOT
flagged — the contract is cross-document, which keeps the DuckDB oracle
a plain ``GROUP BY gram HAVING count(DISTINCT doc_id) >= 2`` (see the
``dup_substrings`` oracle).

Scale shape: windows never carry the gram text — each batch emits
(doc_id, pos, h) where ``h`` is a polynomial combine of the k words'
SipHash values (vectorized over the flattened word array; two distinct
grams collide with probability ~1/2^64 — documented approximation, the
SQL oracle groups by the exact gram).  Dup detection + hit extraction is
ONE ``groupby(__part)`` exchange routed by ``h`` (all positions of a
gram land in one partition, so no join back), and span assembly is a
second, much smaller exchange routed by ``doc_id`` over the hit rows
only.  Both kernels are fully segmented numpy — no per-group Python.

Reference parity: the reference (Newton-School/airbyte) has no content
operators; this op belongs to the training-data family the brief asks
for beyond the reference surface.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .agg import _route_by, _seg_keys, _segments

__all__ = ["dup_substring_spans", "remove_dup_substrings",
           "dup_token_spans", "remove_dup_token_spans"]

#: FNV-1a 64-bit prime — the positional multiplier of the window combine.
_B = np.uint64(0x100000001B3)


def _window_table(t: pa.Table, k: int, col: str, id_col: str) -> pa.Table:
    """(doc_id, pos, h) for every k-word window of every doc in the batch.

    Word hashes come from ``stable_hash`` (keyed SipHash, cross-process
    deterministic); window hashes are the polynomial
    ``sum_j wh[p+j] * B^j`` computed over the batch's FLATTENED word
    array in k vector ops — windows straddling doc boundaries exist in
    the flat array but are never indexed."""
    from ..pipelines.replay import stable_hash

    words = pc.split_pattern(t[col].cast(pa.string()), " ").combine_chunks()
    offs = words.offsets.to_numpy().astype(np.int64)
    flat = words.values
    lens = np.diff(offs)
    nwin = np.maximum(lens - k + 1, 0)
    total = int(nwin.sum())
    empty = pa.table({
        id_col: pa.array([], t.schema.field(id_col).type),
        "pos": pa.array([], pa.int64()),
        "h": pa.array([], pa.int64()),
    })
    if total == 0:
        return empty
    wh = stable_hash(flat)
    n = len(wh)
    winh = np.zeros(n - k + 1, np.uint64)
    mult = np.uint64(1)
    with np.errstate(over="ignore"):  # wrapping uint64 IS the hash
        for j in range(k):
            winh += wh[j: n - k + 1 + j] * mult
            mult = mult * _B
    doc_idx = np.repeat(np.arange(len(lens)), nwin)
    cum = np.concatenate([[0], np.cumsum(nwin)])
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], nwin) + 1
    flat_idx = offs[:-1][doc_idx] + pos - 1
    return pa.table({
        id_col: t[id_col].take(pa.array(doc_idx)),
        "pos": pa.array(pos),
        "h": pa.array(winh[flat_idx].view(np.int64)),
    })


def _hits_kernel(id_col: str, min_docs: int, scope: str):
    """Per-partition kernel: all rows of a gram hash are co-located, so
    one (h, doc, pos) sort + segmented numpy yields the dup grams, their
    keepers, and the non-keeper hit rows — no second pass, no join.

    ``scope="cross_doc"``: dup when >= ``min_docs`` DISTINCT docs hold
    the gram; the whole min-doc_id document keeps every copy.
    ``scope="all"`` (the paper's semantics): dup when the gram occurs
    >= ``min_docs`` times ANYWHERE (same doc counts); only the single
    globally-first occurrence (min doc_id, then min pos) survives."""

    def kernel(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__part"])
        if g.num_rows == 0:
            return g.select([id_col, "pos"])
        idx = pc.sort_indices(g, sort_keys=[
            ("h", "ascending"), (id_col, "ascending"), ("pos", "ascending")])
        g = g.take(idx).combine_chunks()
        hs = g["h"].to_numpy()
        new_h, starts, runs = _segments(hs)
        if scope == "all":
            hit = np.repeat(runs >= min_docs, runs)
            hit[starts] = False  # global first occurrence survives
        else:
            dk = _seg_keys(g, id_col)
            new_doc = np.concatenate([[True], dk[1:] != dk[:-1]])
            # distinct docs per gram segment: doc boundaries inside it
            ndocs = np.add.reduceat((new_doc | new_h).astype(np.int64), starts)
            keeper = dk[np.repeat(starts, runs)]  # min doc_id (sorted)
            hit = np.repeat(ndocs >= min_docs, runs) & (dk != keeper)
        return g.select([id_col, "pos"]).filter(pa.array(hit))

    return kernel


def _spans_kernel(id_col: str, k: int):
    """Per-partition kernel over hit rows: merge each doc's hit windows
    into maximal overlapping spans (break when the gap exceeds k-1)."""

    def kernel(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__part"])
        out_schema = pa.schema([
            (id_col, g.schema.field(id_col).type),
            ("span_start", pa.int64()),
            ("span_end", pa.int64()),
            ("n_windows", pa.int64()),
        ])
        if g.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(g, sort_keys=[
            (id_col, "ascending"), ("pos", "ascending")])
        g = g.take(idx).combine_chunks()
        dk = _seg_keys(g, id_col)
        new_doc = np.concatenate([[True], dk[1:] != dk[:-1]])
        pos = g["pos"].to_numpy()
        prev = np.concatenate([[np.iinfo(np.int64).min // 2], pos[:-1]])
        brk = new_doc | (pos - prev > k - 1)
        starts = np.flatnonzero(brk)
        runs = np.diff(np.concatenate([starts, [len(pos)]]))
        return pa.table({
            id_col: g[id_col].take(pa.array(starts)),
            "span_start": pa.array(pos[starts]),
            "span_end": pa.array(pos[starts + runs - 1] + k - 1),
            "n_windows": pa.array(runs.astype(np.int64)),
        })

    return kernel


def dup_substring_spans(
    ds: ray.data.Dataset,
    k: int = 8,
    col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    num_partitions: int = 32,
    scope: str = "cross_doc",
) -> ray.data.Dataset:
    """Maximal duplicated-substring spans per document: (doc_id,
    span_start, span_end, n_windows), 1-based inclusive word positions.
    ``scope="cross_doc"`` (default) flags grams shared by >= ``min_docs``
    DISTINCT docs and never flags the min-doc_id keeper document;
    ``scope="all"`` is the paper's rule — any gram occurring
    >= ``min_docs`` times corpus-wide (within-doc repeats count) is
    flagged everywhere except its single globally-first occurrence
    (min doc_id, then min pos)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if min_docs < 2:
        raise ValueError(f"min_docs must be >= 2, got {min_docs}")
    if scope not in ("cross_doc", "all"):
        raise ValueError(f"scope must be cross_doc|all, got {scope!r}")
    windows = ds.map_batches(
        lambda t: _window_table(t, k, col, id_col), batch_format="pyarrow")
    hits = (
        windows.map_batches(_route_by("h", num_partitions),
                            batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_hits_kernel(id_col, min_docs, scope),
                    batch_format="pyarrow")
    )
    return (
        hits.map_batches(_route_by(id_col, num_partitions),
                         batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_spans_kernel(id_col, k), batch_format="pyarrow")
    )


def remove_dup_substrings(
    ds: ray.data.Dataset,
    k: int = 8,
    col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    num_partitions: int = 32,
    span_cap_rows: int = 5_000_000,
    scope: str = "cross_doc",
) -> ray.data.Dataset:
    """Rewrite ``col`` with every duplicated span's words removed (the
    keeper copy survives corpus-wide).  With ``scope="all"``, a tandem
    repeat INSIDE one document merges into a span that can overlap the
    kept first occurrence, trimming it — inherent to span removal (Lee
    et al. cut ranges the same way); the default cross-doc scope never
    flags the keeper document, so its copy always survives intact.  The span table is broadcast —
    spans are O(duplicated regions), orders of magnitude below the
    corpus; a span table above ``span_cap_rows`` raises loudly rather
    than silently materializing driver state (pre-shard the corpus or
    raise the cap explicitly).  The rewrite is vectorized (one flattened
    keep-mask per batch, see :func:`_cut_spans`; words rejoined with
    ``binary_join``)."""
    spans = dup_substring_spans(
        ds, k=k, col=col, id_col=id_col, min_docs=min_docs,
        num_partitions=num_partitions, scope=scope)

    def put(t: pa.Table, lst: pa.ListArray, n_kept: np.ndarray) -> pa.Table:
        return t.set_column(t.schema.get_field_index(col), col,
                            pc.binary_join(lst, " "))

    return _cut_spans(
        ds, spans, id_col, span_cap_rows,
        lambda t: pc.split_pattern(t[col].cast(pa.string()), " ").combine_chunks(),
        put)


def _cut_spans(ds: ray.data.Dataset, spans: ray.data.Dataset, id_col: str,
               span_cap_rows: int, split, put) -> ray.data.Dataset:
    """The rewrite behind both ``remove_*`` ops: cut every span
    ``[span_start, span_end]`` (1-based inclusive) out of its document's
    list.  The span table is broadcast once as Arrow arrays; a table above
    ``span_cap_rows`` raises.  Per batch, ``split(t)`` gives each row's
    list, ``pc.index_in`` maps each span to its row (one vectorized probe
    of the whole span table per batch), and a difference array + ``cumsum``
    builds the flat keep mask — no per-row Python.
    ``put(t, lst, n_kept)`` writes the cut lists and their lengths back."""
    spans = spans.materialize()  # blocks stay in the object store
    n_spans = spans.count()
    if n_spans > span_cap_rows:
        raise ValueError(
            f"{n_spans} duplicated spans exceed span_cap_rows="
            f"{span_cap_rows}; the broadcast-rewrite contract needs a "
            "small span table — raise the cap explicitly or shard the "
            "corpus")
    blocks = [b.select([id_col, "span_start", "span_end"])
              for b in ray.get(spans.to_arrow_refs()) if b.num_rows]
    sref = ray.put(pa.concat_tables(blocks) if blocks else None)

    def rewrite(t: pa.Table) -> pa.Table:
        from ..config import _worker_state

        sp = _worker_state(("dup_spans", sref.hex()), lambda: ray.get(sref))
        lst = split(t)
        # a sliced list array keeps absolute offsets into its whole child
        offs = lst.offsets.to_numpy().astype(np.int64)
        offs -= offs[0]
        flat = lst.flatten()
        diff = np.zeros(len(flat) + 1, np.int64)
        if sp is not None:
            row = pc.index_in(sp[id_col], value_set=t[id_col].combine_chunks())
            on = pc.is_valid(row)
            lo = offs[row.filter(on).to_numpy()]
            np.add.at(diff, lo + sp["span_start"].filter(on).to_numpy() - 1, 1)
            np.add.at(diff, lo + sp["span_end"].filter(on).to_numpy(), -1)
        keep = np.cumsum(diff[:-1]) == 0
        cs = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
        n_kept = cs[offs[1:]] - cs[offs[:-1]]
        new_offs = np.concatenate([[0], np.cumsum(n_kept)])
        return put(t, pa.ListArray.from_arrays(
            pa.array(new_offs.astype(np.int32)), flat.filter(pa.array(keep))), n_kept)

    return ds.map_batches(rewrite, batch_format="pyarrow")


# ---- tokens-native variant (the pre-tokenized lake table shape) -----------

def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — avalanches small int32 token ids so the
    polynomial window combine sees full-entropy 64-bit values (raw ids
    under a polynomial would collide for crafted low-entropy sequences)."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _token_window_table(t: pa.Table, k: int, col: str, id_col: str) -> pa.Table:
    """(doc_id, pos, h) over k-TOKEN windows of a ``list<int32>`` column —
    the pre-tokenized lake-table shape (doc_id, tokens, n_tok, source).
    Fully numeric: flat token values come out of Arrow zero-copy, get a
    splitmix64 avalanche, then the same polynomial combine as the word
    path.  No string split, no SipHash."""
    lst = t[col].combine_chunks()
    offs = lst.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offs)
    nwin = np.maximum(lens - k + 1, 0)
    total = int(nwin.sum())
    if total == 0:
        return pa.table({
            id_col: pa.array([], t.schema.field(id_col).type),
            "pos": pa.array([], pa.int64()),
            "h": pa.array([], pa.int64()),
        })
    wh = _mix64(lst.values.to_numpy().astype(np.uint64))
    n = len(wh)
    winh = np.zeros(n - k + 1, np.uint64)
    mult = np.uint64(1)
    with np.errstate(over="ignore"):  # wrapping uint64 IS the hash
        for j in range(k):
            winh += wh[j: n - k + 1 + j] * mult
            mult = mult * _B
    doc_idx = np.repeat(np.arange(len(lens)), nwin)
    cum = np.concatenate([[0], np.cumsum(nwin)])
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], nwin) + 1
    flat_idx = offs[:-1][doc_idx] + pos - 1
    return pa.table({
        id_col: t[id_col].take(pa.array(doc_idx)),
        "pos": pa.array(pos),
        "h": pa.array(winh[flat_idx].view(np.int64)),
    })


def dup_token_spans(
    ds: ray.data.Dataset,
    k: int = 50,
    col: str = "tokens",
    id_col: str = "doc_id",
    min_docs: int = 2,
    num_partitions: int = 32,
    scope: str = "cross_doc",
) -> ray.data.Dataset:
    """:func:`dup_substring_spans` over a pre-tokenized ``list<int32>``
    column: maximal duplicated k-TOKEN spans per doc (1-based inclusive
    token positions).  Default k=50 tokens, the dedup threshold of Lee
    et al. (arXiv:2107.06499).  Same two-exchange plan and kernels."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if min_docs < 2:
        raise ValueError(f"min_docs must be >= 2, got {min_docs}")
    if scope not in ("cross_doc", "all"):
        raise ValueError(f"scope must be cross_doc|all, got {scope!r}")
    windows = ds.map_batches(
        lambda t: _token_window_table(t, k, col, id_col),
        batch_format="pyarrow")
    hits = (
        windows.map_batches(_route_by("h", num_partitions),
                            batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_hits_kernel(id_col, min_docs, scope),
                    batch_format="pyarrow")
    )
    return (
        hits.map_batches(_route_by(id_col, num_partitions),
                         batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_spans_kernel(id_col, k), batch_format="pyarrow")
    )


def remove_dup_token_spans(
    ds: ray.data.Dataset,
    k: int = 50,
    col: str = "tokens",
    id_col: str = "doc_id",
    n_tok_col: str | None = "n_tok",
    min_docs: int = 2,
    num_partitions: int = 32,
    span_cap_rows: int = 5_000_000,
    scope: str = "cross_doc",
) -> ray.data.Dataset:
    """Rewrite the ``list<int32>`` token column with duplicated spans cut
    (and ``n_tok`` recomputed when present) — same broadcast-span plan,
    cap, and tandem-overlap caveat as :func:`remove_dup_substrings`."""
    spans = dup_token_spans(
        ds, k=k, col=col, id_col=id_col, min_docs=min_docs,
        num_partitions=num_partitions, scope=scope)

    def put(t: pa.Table, lst: pa.ListArray, n_kept: np.ndarray) -> pa.Table:
        t = t.set_column(t.schema.get_field_index(col), col, lst)
        if n_tok_col and n_tok_col in t.schema.names:
            t = t.set_column(t.schema.get_field_index(n_tok_col), n_tok_col,
                             pa.array(n_kept.astype(np.int32)))
        return t

    return _cut_spans(ds, spans, id_col, span_cap_rows,
                      lambda t: t[col].combine_chunks(), put)
