"""End-to-end training-corpus build: the composition all the operator
families exist FOR.

``build_corpus`` chains the library's stages over a raw documents table
(``doc_id, text, source``):

1. PII/boilerplate scrub (``text.scrub_regex``)
2. quality + repetition filter (``text.repetition_stats`` — Gopher-style
   word-count and top-bigram-fraction gates)
3. exact dedup on the canonical text (``dedup.exact_dedup`` — one
   uniform-hash exchange)
4. deterministic source mixing (``sample.stratified_sample`` — md5-keyed,
   reproducible)
5. tokenize (stable 64-bit SipHash of each word → int32 id — a
   placeholder for a real BPE vocabulary, but deterministic and
   vectorized; swap via ``CorpusConfig.tokenizer``)
6. pack into fixed-length sequences (``pack.pack_sequences`` —
   zero-exchange concat-and-chunk)
7. resumable partitioned parquet write: deterministic file names +
   a ``_SUCCESS`` marker, so a re-run of a finished build is a no-op
   and a crashed one redoes only the final write (the intermediate
   stages are recomputed — at lake scale, persist stage outputs and use
   ``LakeTable`` instead; this sink is for corpus-snapshot builds).

Each stage boundary is materialized so the returned metrics are exact
per-stage row counts (count on a materialized dataset is metadata-only).
At 100 TB you would swap exact counts for the manifest's lineage counters;
the composition is identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.pack import pack_sequences
from ..functions.sample import stratified_sample
from ..functions.text import repetition_stats, scrub_regex
from ..functions.dedup import exact_dedup
from ..state.atomic import commit_json


def hash_tokenize(col: str = "clean_text", out: str = "tokens",
                  vocab: int = 65536) -> "callable":
    """Stable whitespace tokenizer: token id = SipHash64(word) % vocab,
    int32 — deterministic across processes/engines, fully vectorized."""
    import pandas as pd

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column(out, pa.array([], pa.list_(pa.int32())))
        s = pc.fill_null(t[col].cast(pa.string()), "")
        toks = pc.utf8_split_whitespace(s)
        la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        offs = la.offsets.to_numpy().astype(np.int64)
        offs = offs - offs[0]
        flat_arr = la.flatten()
        flat = flat_arr.to_numpy(zero_copy_only=False)
        keep = (
            pc.greater(pc.utf8_length(flat_arr), 0).to_numpy(zero_copy_only=False)
            if len(flat) else np.zeros(0, bool)
        )
        ids = (pd.util.hash_array(flat[keep]) % vocab).astype(np.int32)
        lens = np.bincount(
            np.repeat(np.arange(n), np.diff(offs))[keep], minlength=n
        ).astype(np.int64)
        new_offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        arr = pa.ListArray.from_arrays(pa.array(new_offs, pa.int32()),
                                       pa.array(ids, pa.int32()))
        return t.append_column(out, arr)

    return fn


@dataclass
class CorpusConfig:
    seq_len: int = 2048
    eos: int = 0
    vocab: int = 65536
    min_words: int = 5
    max_top_bigram_frac: float = 0.5
    rates: dict = field(default_factory=dict)   # source → keep rate; empty = keep all
    default_rate: float = 1.0
    scrub: bool = True
    dedup: bool = True
    seed: int = 0
    #: batch fn adding `tokens`, or the string "bpe" to train a real
    #: subword vocab (functions/bpe.py) on the post-mix corpus and encode
    #: with it (one extra distributed counting pass before the encode)
    tokenizer: "callable | str | None" = None
    bpe_merges: int = 1000                      # merges when tokenizer="bpe"
    #: False = fully streaming: stage boundaries are NOT materialized and
    #: the returned metrics contain only `sequences_out` — the shape for a
    #: 100 TB run, where per-stage exact counts would force materialization
    #: (use the lake's lineage counters instead).  True = exact per-stage
    #: metrics at the cost of per-stage materialization.
    collect_metrics: bool = True


def build_corpus(
    ds: ray.data.Dataset, out_dir: str, cfg: CorpusConfig | None = None,
    text_col: str = "text", id_col: str = "doc_id", source_col: str = "source",
) -> dict:
    """Run the full pipeline; returns per-stage metrics.  Re-running a
    finished build (``_SUCCESS`` present) is a no-op returning the saved
    metrics."""
    import json

    cfg = cfg or CorpusConfig()
    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)

    metrics: dict = {}
    want = cfg.collect_metrics

    def _mark(d: ray.data.Dataset, key: str) -> ray.data.Dataset:
        """Materialize + count a stage boundary only when metrics are on;
        in streaming mode the pipeline stays one fused lazy plan."""
        if not want:
            return d
        m = d.materialize()
        metrics[key] = m.count()
        return m

    mat = _mark(ds, "docs_in")

    # 1. scrub
    if cfg.scrub:
        mat = mat.map_batches(
            scrub_regex(text_col, out="clean_text"), batch_format="pyarrow"
        )
        if want:
            mat = mat.materialize()
            metrics["redactions"] = int(
                mat.aggregate(ray.data.aggregate.Sum("n_redactions"))["sum(n_redactions)"] or 0
            )
    else:
        mat = mat.map_batches(
            lambda t: t.append_column("clean_text", t[text_col]),
            batch_format="pyarrow",
        )

    # 2. quality / repetition gate
    min_w, cap = cfg.min_words, cfg.max_top_bigram_frac

    def gate(t: pa.Table) -> pa.Table:
        t = repetition_stats("clean_text")(t)
        nb = t["n_bigrams"].to_numpy(zero_copy_only=False).astype(np.float64)
        top = t["top_bigram_count"].to_numpy(zero_copy_only=False).astype(np.float64)
        frac = np.divide(top, np.maximum(nb, 1.0))
        ok = (t["n_words"].to_numpy(zero_copy_only=False) >= min_w) & (frac <= cap)
        return t.filter(pa.array(ok)).drop_columns(
            ["n_words", "n_distinct_words", "n_bigrams", "top_bigram_count"]
        )

    mat = _mark(mat.map_batches(gate, batch_format="pyarrow"), "docs_after_quality")

    # 3. exact dedup on canonical text
    if cfg.dedup:
        mat = _mark(exact_dedup(mat, ["clean_text"], keep_by=id_col), "docs_after_dedup")

    # 4. source mixing
    if cfg.rates or cfg.default_rate < 1.0:
        mat = _mark(
            stratified_sample(
                mat, cfg.rates, strat_col=source_col, key_col=id_col,
                default_rate=cfg.default_rate,
            ),
            "docs_after_mix",
        )

    # 5. tokenize
    if cfg.tokenizer == "bpe":
        from ..functions.bpe import bpe_tokenize_stage, train_bpe_corpus

        bpe_vocab = train_bpe_corpus(
            mat, col="clean_text", num_merges=cfg.bpe_merges
        )
        metrics["bpe_merges_learned"] = len(bpe_vocab.merges)
        tok = bpe_tokenize_stage(bpe_vocab, col="clean_text")
    else:
        tok = cfg.tokenizer or hash_tokenize("clean_text", vocab=cfg.vocab)
    toked = mat.map_batches(tok, batch_format="pyarrow")
    if want:
        toked = toked.materialize()
        metrics["tokens_total"] = int(
            toked.map_batches(
                lambda t: pa.table({"n": [int(pc.sum(pc.list_value_length(t["tokens"])).as_py() or 0)]}),
                batch_format="pyarrow",
            ).aggregate(ray.data.aggregate.Sum("n"))["sum(n)"] or 0
        )

    # 6. pack (deterministic global order by id; pack's prefix scan
    # materializes its own input internally either way)
    packed = pack_sequences(
        toked.select_columns([id_col, "tokens"]),
        tokens_col="tokens", seq_len=cfg.seq_len, eos=cfg.eos, order_col=id_col,
    ).materialize()
    metrics["sequences_out"] = packed.count()

    # 7. resumable write: deterministic names; _SUCCESS commits the build
    os.makedirs(out_dir, exist_ok=True)
    packed.write_parquet(
        out_dir,
        filename_provider=_SeqFilenames(),
        mode="overwrite",  # deterministic names: a retry REPLACES its own
        # files; Ray requires overwrite mode for write_uuid-free names
    )
    commit_json(marker, metrics)
    return metrics


try:  # Ray ≥2.9 filename-provider API
    from ray.data.datasource import FilenameProvider

    class _SeqFilenames(FilenameProvider):
        """Deterministic per-block names → a retried write overwrites its
        own files instead of duplicating them."""

        def get_filename_for_block(self, block, write_uuid, task_index, block_index):
            return f"seqs-{task_index:05d}-{block_index:05d}.parquet"

except ImportError:  # pragma: no cover
    _SeqFilenames = None  # type: ignore[assignment]
