"""TF-IDF / BM25 text relevance and a persisted sharded inverted index.

No analog exists in the reference (its records are opaque JSON); these are
the retrieval-side operators a training-data pipeline needs next to the
dedup/ANN family: score documents against a term query, surface each
document's most characteristic terms, and persist a posting-list index so
repeated queries touch only the shards their terms hash to (same
log-structured layout as ``dedup_index``/``ann`` — reference provenance for
the *index lifecycle* shape: none; brief-driven).

Scale shape
-----------

* **doc_terms** — a document is ONE row, so per-(doc, word) term
  frequencies are complete within a batch: one Arrow ``split_pattern`` +
  per-batch ``TableGroupBy`` and NO exchange.  The corpus never leaves its
  blocks.
* **tfidf_topk_terms** — document frequencies are one ``groupby(word)``
  count over the distinct (doc, word) table (the unavoidable
  inverted-index exchange), joined back with the existing partitioned
  ``hash_join``; the per-doc top-N cut is ``grouped_topn`` (local prune →
  one exchange over survivors).
* **bm25_topk** — the query term set is TINY, so everything wide is a
  broadcast: one column-pruned stats pass (n_docs, Σdl), one match pass
  emitting a fixed int64 column per query term (docs with no match are
  dropped inside the batch), then driver-side idf over ≤|Q| df values and
  a vectorized, ORDER-PINNED per-doc fold.  The match table is
  ``materialize()``-ed — it is integers only and bounded by query
  selectivity (a stopword-ish term makes it corpus-sized; callers own
  that contract).
* **index** — postings (word, doc_id, tf, dl) shard by
  ``stable_hash(word) % n_shards``; a query reads ONLY the shards its
  terms hash to (``probed_files`` returns the exact scan set, mirroring
  ``ann.ivf_probed_files``), and df comes from the fetched postings
  themselves.  Appends are log-structured: new files land beside old in
  the same shards; corpus stats accumulate in ``meta.json``.

IEEE/orable parity
------------------

``idf_kind="lucene"`` (default) uses the standard ``ln``-based BM25 /
TF-IDF idf — transcendentals are NOT correctly rounded across engines, so
this path is pytest-verified against a pure-Python reference.
``idf_kind="rational"`` replaces the log with its rational argument
(BM25: ``(N - df + 0.5)/(df + 0.5)``; TF-IDF: ``(N + 1)/(df + 1)``) and
every float op is `+ - * /` in a documented association, with the per-doc
term fold in ascending word order — bit-identical to a DuckDB oracle that
folds with ``sum(contrib ORDER BY word)`` (the driver-hash path).
"""

from __future__ import annotations

import glob
import json
import math
import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..state.atomic import commit_json
from .agg import grouped_topn


def _split_words(col: pa.ChunkedArray) -> pa.ListArray:
    """Whitespace tokenization, parity-pinned to SQL ``string_split(text,
    ' ')`` (empty text yields the single empty-string token on both
    sides)."""
    return pc.split_pattern(col.cast(pa.string()).combine_chunks(), pattern=" ")


def _doc_terms_batch(t: pa.Table, col: str, id_col: str,
                     with_dl: bool) -> pa.Table:
    words = _split_words(t[col])
    n = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False), n)
    pairs = {id_col: pa.array(ids, t.schema.field(id_col).type),
             "word": words.flatten()}
    if with_dl:
        # doc length rides on every posting row (denormalized) so BM25 at
        # query time needs no doc-length side lookup; dl is constant per
        # doc, so min() through the same groupby recovers it vectorized
        pairs["dl"] = pa.array(np.repeat(n, n), pa.int64())
        g = pa.TableGroupBy(pa.table(pairs), [id_col, "word"]).aggregate(
            [([], "count_all"), ("dl", "min")])
        return pa.table({id_col: g[id_col], "word": g["word"],
                         "tf": g["count_all"].cast(pa.int64()),
                         "dl": g["dl_min"]})
    g = pa.TableGroupBy(pa.table(pairs), [id_col, "word"]).aggregate(
        [([], "count_all")])
    return pa.table({id_col: g[id_col], "word": g["word"],
                     "tf": g["count_all"].cast(pa.int64())})


def doc_terms(ds: ray.data.Dataset, col: str = "text",
              id_col: str = "doc_id", with_dl: bool = False) -> ray.data.Dataset:
    """(id_col, word, tf[, dl]) term frequencies — zero-exchange (one doc
    per row, so per-batch counts are final)."""
    return ds.select_columns([id_col, col]).map_batches(
        partial(_doc_terms_batch, col=col, id_col=id_col, with_dl=with_dl),
        batch_format="pyarrow")


def term_df(terms: ray.data.Dataset) -> ray.data.Dataset:
    """(word, df) document frequencies over a :func:`doc_terms` output —
    one ``groupby(word)`` exchange (rows are distinct (doc, word) pairs,
    so a plain count IS the doc count)."""
    from ray.data.aggregate import Count

    return terms.groupby("word").aggregate(Count(alias_name="df"))


def tfidf_topk_terms(
    ds: ray.data.Dataset,
    n: int = 3,
    col: str = "text",
    id_col: str = "doc_id",
    idf_kind: str = "lucene",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Each document's top-``n`` terms by TF-IDF: (id_col, word, tf, df,
    tfidf, rnk), rnk 1-based under (tfidf desc, word asc).

    ``idf_kind="lucene"``: ``tfidf = tf * ln((N + 1)/(df + 1))``.
    ``idf_kind="rational"``: ``tfidf = tf * ((N + 1)/(df + 1))`` — log-free
    so the value is a pinned chain of correctly-rounded ops, hash-exact
    against a SQL oracle (see module docstring).
    """
    from ..joins import hash_join

    if idf_kind not in ("lucene", "rational"):
        raise ValueError(f"unknown idf_kind {idf_kind!r}")
    n_docs = ds.count()
    tf = doc_terms(ds, col=col, id_col=id_col)
    df = term_df(tf)
    joined = hash_join(tf, df, on="word", num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        tfv = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # association pinned: ratio first, then the tf multiply
        r = np.float64(n_docs + 1) / (dfv + np.float64(1.0))
        if idf_kind == "lucene":
            r = np.log(r)
        return t.append_column("tfidf", pa.array(tfv * r, pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow")
    return grouped_topn(scored, key=id_col, order_col="tfidf", n=n,
                        descending=True, tie_col="word", rank_col="rnk")


def _bm25_idf(n_docs: int, df: int, kind: str) -> float:
    # pinned association: integer subtraction is exact, each +/÷ is one
    # correctly-rounded op — mirrors the SQL expression character for
    # character
    r = (float(n_docs - df) + 0.5) / (float(df) + 0.5)
    if kind == "lucene":
        return math.log(1.0 + r)
    if kind == "rational":
        return r
    raise ValueError(f"unknown idf_kind {kind!r}")


def _match_batch(t: pa.Table, col: str, id_col: str,
                 terms: tuple[str, ...]) -> pa.Table:
    """(id_col, dl, tf_0..tf_{m-1}) for docs containing ≥1 query term —
    one vectorized pass: flatten words, searchsorted against the sorted
    term array, bincount over (row, term) cells."""
    words = _split_words(t[col])
    flat = words.flatten()
    n = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    m = len(terms)
    rows = np.repeat(np.arange(len(t), dtype=np.int64), n)
    terms_arr = np.asarray(terms, dtype=object)
    fw = np.asarray(flat.to_pylist(), dtype=object)
    if len(fw):
        pos = np.searchsorted(terms_arr, fw)
        pos = np.clip(pos, 0, m - 1)
        hit = terms_arr[pos] == fw
        cells = rows[hit] * m + pos[hit]
        counts = np.bincount(cells, minlength=len(t) * m).reshape(len(t), m)
    else:
        counts = np.zeros((len(t), m), np.int64)
    keep = counts.sum(axis=1) > 0
    cols = {id_col: t[id_col].combine_chunks().take(pa.array(np.flatnonzero(keep))),
            "dl": pa.array(n[keep], pa.int64())}
    for i in range(m):
        cols[f"tf_{i}"] = pa.array(counts[keep, i], pa.int64())
    return pa.table(cols)


def corpus_stats(ds: ray.data.Dataset, col: str = "text") -> tuple[int, int]:
    """(n_docs, Σ doc length) — one column-pruned streaming pass."""
    def dl(t: pa.Table) -> pa.Table:
        return pa.table({"dl": pc.list_value_length(
            _split_words(t[col])).cast(pa.int64())})

    from ray.data.aggregate import Count, Sum

    row = ds.select_columns([col]).map_batches(
        dl, batch_format="pyarrow").aggregate(Count(), Sum("dl"))
    return int(row["count()"]), int(row["sum(dl)"])


def bm25_topk(
    ds: ray.data.Dataset,
    query_terms: list[str],
    k: int = 20,
    col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
    idf_kind: str = "lucene",
    stats: tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Top-``k`` documents by BM25 against ``query_terms``: (id_col,
    score), ordered (score desc, id asc) — the order the final
    sort+limit imposes.

    Per-doc score is a LEFT FOLD over terms in ascending word order
    (absent terms contribute exactly ``+0.0``, a bitwise no-op), so with
    ``idf_kind="rational"`` the float chain is reproducible by a SQL
    oracle folding ``sum(contrib ORDER BY word)``.  ``stats`` short-cuts
    the (n_docs, Σdl) pass when the caller already has them (e.g. from a
    persisted index's meta).
    """
    qs = tuple(sorted(set(query_terms)))
    if not qs:
        raise ValueError("query_terms must be non-empty")
    n_docs, sum_dl = stats if stats is not None else corpus_stats(ds, col)
    avgdl = float(sum_dl) / float(n_docs)
    matches = ds.select_columns([id_col, col]).map_batches(
        partial(_match_batch, col=col, id_col=id_col, terms=qs),
        batch_format="pyarrow",
    ).materialize()  # ints only, bounded by query selectivity (see module doc)

    from ray.data.aggregate import Sum

    dfs = [Sum(f"m_{i}", alias_name=f"df_{i}") for i in range(len(qs))]

    def indicators(t: pa.Table) -> pa.Table:
        for i in range(len(qs)):
            t = t.append_column(
                f"m_{i}", pc.greater(t[f"tf_{i}"], 0).cast(pa.int64()))
        return t

    row = matches.map_batches(indicators, batch_format="pyarrow").aggregate(*dfs)
    if row is None:  # zero matching docs anywhere
        return ray.data.from_arrow(pa.table(
            {id_col: pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}))
    idf = [_bm25_idf(n_docs, int(row[f"df_{i}"] or 0), idf_kind)
           for i in range(len(qs))]

    k1f, bf = float(k1), float(b)

    def score(t: pa.Table) -> pa.Table:
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        # pinned shared denominator piece: (1-b) + b*(dl/avgdl), then *k1
        norm = k1f * ((1.0 - bf) + bf * (dl / avgdl))
        s = np.zeros(len(t), np.float64)
        for i in range(len(qs)):  # ascending word order — the fold order
            tf = t[f"tf_{i}"].to_numpy(zero_copy_only=False).astype(np.float64)
            s = s + idf[i] * ((tf * (k1f + 1.0)) / (tf + norm))
        return pa.table({id_col: t[id_col], "score": pa.array(s, pa.float64())})

    return (matches.map_batches(score, batch_format="pyarrow")
            .sort(["score", id_col], descending=[True, False]).limit(k))


# ---------------------------------------------------------------------------
# persisted inverted index
# ---------------------------------------------------------------------------

def _word_shard_col(t: pa.Table, n_shards: int) -> pa.Table:
    from ..pipelines.replay import stable_hash

    h = stable_hash(t["word"]) % np.uint64(n_shards)
    return t.append_column("shard", pa.array(h.astype(np.int64)))


def build_text_index(
    ds: ray.data.Dataset,
    index_dir: str,
    col: str = "text",
    id_col: str = "doc_id",
    n_shards: int = 64,
) -> dict:
    """Persist the posting lists (word, id, tf, dl) sharded by
    ``stable_hash(word) % n_shards``; corpus stats land in ``meta.json``.
    Returns the meta dict."""
    os.makedirs(index_dir, exist_ok=True)
    n_docs, sum_dl = corpus_stats(ds, col)
    (
        doc_terms(ds, col=col, id_col=id_col, with_dl=True)
        .map_batches(partial(_word_shard_col, n_shards=n_shards),
                     batch_format="pyarrow")
        .write_parquet(os.path.join(index_dir, "postings"),
                       partition_cols=["shard"])
    )
    meta = {"n_shards": n_shards, "id_col": id_col,
            "n_docs": n_docs, "sum_dl": sum_dl}
    commit_json(os.path.join(index_dir, "meta.json"), meta)
    return meta


def append_to_text_index(ds: ray.data.Dataset, index_dir: str,
                         col: str = "text") -> dict:
    """Log-structured append: new posting files land beside the old ones
    in the same shards; (n_docs, Σdl) accumulate in meta.  Ids are the
    caller's responsibility to keep disjoint from the indexed corpus."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_docs, sum_dl = corpus_stats(ds, col)
    (
        doc_terms(ds, col=col, id_col=meta["id_col"], with_dl=True)
        .map_batches(partial(_word_shard_col, n_shards=meta["n_shards"]),
                     batch_format="pyarrow")
        .write_parquet(os.path.join(index_dir, "postings"),
                       partition_cols=["shard"])
    )
    meta["n_docs"] += n_docs
    meta["sum_dl"] += sum_dl
    commit_json(os.path.join(index_dir, "meta.json"), meta)
    return meta


def probed_files(index_dir: str, query_terms: list[str]) -> list[str]:
    """The exact posting files a :func:`bm25_search_index` for these terms
    scans — the shard-prune proof hook (mirrors ``ann.ivf_probed_files``)."""
    from ..pipelines.replay import stable_hash

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    qs = sorted(set(query_terms))
    h = stable_hash(pa.array(qs, pa.string())) % np.uint64(meta["n_shards"])
    out: list[str] = []
    for s in sorted(set(int(x) for x in h)):
        out.extend(sorted(glob.glob(
            os.path.join(index_dir, "postings", f"shard={s}", "*.parquet"))))
    return out


def bm25_search_index(
    index_dir: str,
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    idf_kind: str = "lucene",
) -> ray.data.Dataset:
    """BM25 top-``k`` against the persisted index, reading ONLY the shards
    the query terms hash to.  df comes from the fetched postings; the
    per-doc fold crosses shards, so this path sums contributions with one
    ``groupby(id)`` exchange over the PRUNED postings (small by
    selectivity) — it is float-sum-order agnostic and therefore verified
    against :func:`bm25_topk` approximately, not bit-exactly."""
    files = probed_files(index_dir, query_terms)
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    qs = sorted(set(query_terms))
    if not files:
        return ray.data.from_arrow(pa.table(
            {id_col: pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}))
    q_arr = pa.array(qs, pa.string())
    hits = (
        ray.data.read_parquet(files, columns=["word", id_col, "tf", "dl"])
        .map_batches(lambda t: t.filter(pc.is_in(t["word"], value_set=q_arr)),
                     batch_format="pyarrow")
        .materialize()  # pruned postings: |docs matching| × |terms| rows
    )
    from ray.data.aggregate import Count, Sum

    df_rows = hits.groupby("word").aggregate(Count(alias_name="df")).take_all()
    df_of = {r["word"]: int(r["df"]) for r in df_rows}
    idf_of = {w: _bm25_idf(meta["n_docs"], df_of.get(w, 0), idf_kind)
              for w in qs}
    avgdl = float(meta["sum_dl"]) / float(meta["n_docs"])
    k1f, bf = float(k1), float(b)
    idf_tbl = ray.put((np.asarray(qs, dtype=object),
                       np.asarray([idf_of[w] for w in qs], np.float64)))

    def contrib(t: pa.Table) -> pa.Table:
        from ..config import _worker_state

        ws, iv = _worker_state(("bm25_idf", idf_tbl.hex()),
                               lambda: ray.get(idf_tbl))
        fw = np.asarray(t["word"].to_pylist(), dtype=object)
        pos = np.clip(np.searchsorted(ws, fw), 0, len(ws) - 1)
        idf = iv[pos]
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        norm = k1f * ((1.0 - bf) + bf * (dl / avgdl))
        c = idf * ((tf * (k1f + 1.0)) / (tf + norm))
        return pa.table({id_col: t[id_col], "c": pa.array(c, pa.float64())})

    return (
        hits.map_batches(contrib, batch_format="pyarrow")
        .groupby(id_col).aggregate(Sum("c", alias_name="score"))
        .sort(["score", id_col], descending=[True, False]).limit(k)
    )


def _ngram_batch(t: pa.Table, col: str, n: int) -> pa.Table:
    """Per-batch n-gram partial counts with a local top-pruning OFF —
    partial counts must be complete per gram within the batch (they are:
    one doc per row), but a local top-k prune would be WRONG before the
    global sum (a gram can be locally rare yet globally frequent), so
    every distinct (gram, cnt) partial rides the exchange.  The exchange
    is bounded by distinct grams per block, not corpus tokens — the
    combiner the brief asks for."""
    words = _split_words(t[col])
    flat = words.flatten()
    offs = words.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offs)
    g_counts = np.maximum(lens - (n - 1), 0)
    total = int(g_counts.sum())
    if total == 0:
        return pa.table({"gram": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    # start index of each gram in the flattened token array: each doc i
    # contributes g_counts[i] grams at offs[i] + 0..g_counts[i]-1
    firsts = np.cumsum(g_counts) - g_counts
    within = np.arange(total, dtype=np.int64) - np.repeat(firsts, g_counts)
    starts = np.repeat(offs[:-1], g_counts) + within
    parts = [flat.take(pa.array(starts + j)) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ") if n > 1 else parts[0]
    g = pa.TableGroupBy(pa.table({"gram": grams}), "gram").aggregate(
        [([], "count_all")])
    return pa.table({"gram": g["gram"], "cnt": g["count_all"].cast(pa.int64())})


def ngram_topk(
    ds: ray.data.Dataset,
    n: int = 2,
    k: int = 25,
    col: str = "text",
) -> ray.data.Dataset:
    """Corpus-wide top-``k`` word ``n``-grams: (gram, cnt, rnk), rnk
    1-based under (cnt desc, gram asc) — the "most common phrases" corpus
    statistic next to :func:`tfidf_topk_terms`.

    Scale shape: grams never materialize row-per-token — each block emits
    its distinct (gram, partial cnt) pairs (vectorized ``take`` over the
    flattened token array + one per-batch ``TableGroupBy``), ONE
    ``groupby(gram)`` sum exchange, then a local per-block top-k prune so
    the final sort sees ≤ k rows per block, a ``limit(k)`` and a
    single-block rank stamp.  SQL mirror: ``ws[x] || ' ' || ws[x+1]`` over
    ``unnest(range(1, len(ws)))`` (see the ``ngram_topk`` oracle)."""
    from ray.data.aggregate import Sum

    def local_prune(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("cnt", "descending"),
                                            ("gram", "ascending")])
        return t.take(idx[: min(k, t.num_rows)])

    def stamp_rank(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("cnt", "descending"),
                                            ("gram", "ascending")])
        t = t.take(idx)
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)))

    return (
        ds.select_columns([col])
        .map_batches(partial(_ngram_batch, col=col, n=n),
                     batch_format="pyarrow")
        .groupby("gram").aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(local_prune, batch_format="pyarrow")
        .sort(["cnt", "gram"], descending=[True, False])
        .limit(k)
        .repartition(1)
        .map_batches(stamp_rank, batch_format="pyarrow")
    )
