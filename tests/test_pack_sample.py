"""Sequence packing, global indexing, deterministic shuffle, and
deterministic stratified sampling/upsampling — the tokenized-sequence-lake
operators (north-star input shape: doc_id, tokens:list<int32>, n_tok,
source)."""

import hashlib

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from airbyte_ray.functions.pack import (
    deterministic_shuffle,
    global_index,
    pack_sequences,
)
from airbyte_ray.functions.sample import (
    rate_sample,
    rate_threshold_hex,
    stratified_sample,
    upsample,
)
from airbyte_ray.functions.text import repetition_stats, scrub_regex


def _tok_table(lens: list[int], start: int = 0) -> pa.Table:
    """docs with tokens [100*d, 100*d+1, ...] of the given lengths."""
    toks = [[100 * (start + i) + j for j in range(ln)] for i, ln in enumerate(lens)]
    return pa.table({
        "doc_id": pa.array([f"doc-{start + i}" for i in range(len(lens))]),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    })


def _packed_stream(lens: list[int], eos: int | None) -> list[int]:
    out: list[int] = []
    for i, ln in enumerate(lens):
        out.extend(100 * i + j for j in range(ln))
        if eos is not None:
            out.append(eos)
    return out


@pytest.mark.parametrize("eos", [None, -1])
@pytest.mark.parametrize("nblocks", [1, 3, 7])
def test_pack_sequences_concat_and_chunk(eos, nblocks):
    lens = [5, 3, 9, 1, 0, 12, 4, 6, 2, 8]
    ds = ray.data.from_arrow(_tok_table(lens)).repartition(nblocks)
    packed = pack_sequences(ds, seq_len=7, eos=eos, order_col="doc_id")
    got = packed.to_pandas().sort_values("seq_id").reset_index(drop=True)
    stream = _packed_stream(lens, eos)
    n_full = len(stream) // 7
    assert list(got["seq_id"]) == list(range(n_full))
    assert all(n == 7 for n in got["n_tok"])
    flat = [t for row in got["tokens"] for t in row]
    assert flat == stream[: n_full * 7]


def test_pack_sequences_keep_last_partial():
    lens = [5, 4]  # 9 tokens, seq_len 4 -> chunks of 4,4,1
    ds = ray.data.from_arrow(_tok_table(lens)).repartition(2)
    got = (
        pack_sequences(ds, seq_len=4, order_col="doc_id", drop_last=False)
        .to_pandas().sort_values("seq_id").reset_index(drop=True)
    )
    assert list(got["n_tok"]) == [4, 4, 1]
    assert list(got["tokens"].iloc[2]) == _packed_stream(lens, None)[8:]


def test_pack_sequences_doc_longer_than_seq():
    lens = [23]
    ds = ray.data.from_arrow(_tok_table(lens))
    got = pack_sequences(ds, seq_len=5, order_col="doc_id").to_pandas()
    assert sorted(got["seq_id"]) == [0, 1, 2, 3]


def test_pack_sequences_empty():
    ds = ray.data.from_arrow(_tok_table([]))
    assert pack_sequences(ds, seq_len=8).count() == 0


def test_pack_block_layout_invariance():
    lens = [3, 8, 2, 5, 13, 1, 7, 4]
    base = _tok_table(lens)
    outs = []
    for nb in (1, 2, 5):
        ds = ray.data.from_arrow(base).repartition(nb)
        df = (
            pack_sequences(ds, seq_len=6, eos=-9, order_col="doc_id")
            .to_pandas().sort_values("seq_id").reset_index(drop=True)
        )
        outs.append([(int(r.seq_id), list(r.tokens)) for r in df.itertuples()])
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("drop_last", [True, False])
@pytest.mark.parametrize("eos", [None, -9])
def test_pack_slices_a_narrow_input(monkeypatch, eos, drop_last):
    """A one-block input is widened to the cluster's CPUs by zero-copy row
    slices of its block, never by a repartition copy: it packs into several
    output blocks, and into exactly the sequences of the 1-, 2- and 5-block
    layouts."""
    base = _tok_table([3, 8, 2, 5, 13, 1, 7, 4])

    def packed(ds):
        out = pack_sequences(ds, seq_len=6, eos=eos, order_col="doc_id",
                             drop_last=drop_last).materialize()
        df = out.to_pandas().sort_values("seq_id")
        return out.num_blocks(), [(int(r.seq_id), list(r.tokens), int(r.n_tok))
                                  for r in df.itertuples()]

    layouts = [packed(ray.data.from_arrow(base).repartition(nb))[1] for nb in (1, 2, 5)]

    def no_copy(*args, **kwargs):
        raise AssertionError("pack_sequences must not repartition its input")

    monkeypatch.setattr(ray.data.Dataset, "repartition", no_copy)
    one = ray.data.from_arrow(base)
    assert one.num_blocks() == 1
    blocks, got = packed(one)
    assert blocks >= ray.cluster_resources()["CPU"] > 1  # one interior block per slice
    assert layouts[0] == layouts[1] == layouts[2] == got


def test_global_index_contiguous_in_order():
    t = pa.table({"k": pa.array(list(range(100)))})
    ds = ray.data.from_arrow(t).repartition(6).sort("k")
    got = global_index(ds).to_pandas()
    # index must be contiguous AND aligned with the sorted order
    assert sorted(got["row_idx"]) == list(range(100))
    assert list(got.sort_values("row_idx")["k"]) == sorted(got["k"])


def test_deterministic_shuffle_matches_duckdb_rank():
    t = pa.table({"doc_id": pa.array([f"d{i}" for i in range(60)])})
    ds = ray.data.from_arrow(t).repartition(4)
    got = (
        deterministic_shuffle(ds, "doc_id", seed=7)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = duckdb.sql(
        """SELECT doc_id,
                  row_number() OVER (ORDER BY md5('7:' || doc_id), doc_id) - 1 AS r
           FROM (SELECT 'd' || i AS doc_id FROM generate_series(0, 59) t(i))
           ORDER BY doc_id"""
    ).df()
    assert list(got["shuffle_rank"]) == list(exp["r"])
    # same seed -> same permutation; different seed -> different
    again = deterministic_shuffle(ds, "doc_id", seed=7).to_pandas().sort_values("doc_id")
    assert list(again["shuffle_rank"]) == list(got["shuffle_rank"])
    other = deterministic_shuffle(ds, "doc_id", seed=8).to_pandas().sort_values("doc_id")
    assert list(other["shuffle_rank"]) != list(got["shuffle_rank"])


# -- sampling ---------------------------------------------------------------

def _mix_table(n=400):
    return pa.table({
        "doc_id": pa.array([str(i) for i in range(n)]),
        "source": pa.array([f"src{i % 4}" for i in range(n)]),
    })


def test_stratified_sample_matches_md5_rule_and_layout_invariant():
    rates = {"src0": 0.0, "src1": 0.25, "src2": 0.5, "src3": 1.0}
    outs = []
    for nb in (1, 5):
        ds = ray.data.from_arrow(_mix_table()).repartition(nb)
        got = stratified_sample(ds, rates, default_rate=0.0).to_pandas()
        outs.append(sorted(got["doc_id"]))
    assert outs[0] == outs[1]
    # exact per-row rule
    exp = [
        str(i) for i in range(400)
        if hashlib.md5(str(i).encode()).hexdigest()[:8]
        < rate_threshold_hex(rates[f"src{i % 4}"])
    ]
    assert outs[0] == sorted(exp)
    got = set(outs[0])
    assert not any(int(d) % 4 == 0 for d in got)          # rate 0 drops all
    assert sum(1 for d in got if int(d) % 4 == 3) == 100  # rate 1 keeps all


def test_rate_sample_fraction_near_rate():
    t = pa.table({"doc_id": pa.array([str(i) for i in range(4000)])})
    kept = rate_sample(ray.data.from_arrow(t), 0.25, "doc_id").count()
    assert abs(kept / 4000 - 0.25) < 0.05


def test_upsample_replicates_with_copy_idx():
    ds = ray.data.from_arrow(_mix_table(40)).repartition(3)
    got = upsample(ds, {"src0": 3, "src1": 0}).to_pandas()
    c = got.groupby("source")["doc_id"].count()
    assert c.get("src0", 0) == 30 and "src1" not in c.index
    assert c["src2"] == 10 and c["src3"] == 10
    s0 = got[got.source == "src0"].groupby("doc_id")["copy_idx"].apply(sorted)
    assert all(v == [0, 1, 2] for v in s0)


# -- text: scrub + repetition ----------------------------------------------

def test_scrub_regex_matches_duckdb():
    texts = [
        "write to alice.smith+x@ex-ample.org today",
        "see https://example.com/a?b=1 and http://t.co/x now",
        "both bob@corp.io and https://corp.io/docs here",
        "no pii at all",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts))), "text": pa.array(texts)})
    got = (
        ray.data.from_arrow(t)
        .map_batches(scrub_regex("text"), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        r"""SELECT doc_id,
               regexp_replace(regexp_replace(text,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                 'https?://[^\s]+', '<URL>', 'g') AS clean_text,
               len(regexp_extract_all(text,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}'))
               + len(regexp_extract_all(regexp_replace(text,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                 'https?://[^\s]+')) AS n_redactions
           FROM t ORDER BY doc_id"""
    ).df()
    assert list(got["clean_text"]) == list(exp["clean_text"])
    assert list(got["n_redactions"]) == list(exp["n_redactions"])


def test_repetition_stats_hand_checked():
    texts = [
        "a b a b a b",        # 6 words, 2 distinct, 5 bigrams, top 'a b' x3
        "x y z",              # no repetition
        "w",                  # single word, no bigrams
        "",                   # empty
        "q q q q",            # top bigram 'q q' x3
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts))), "text": pa.array(texts)})
    got = (
        ray.data.from_arrow(t).repartition(2)
        .map_batches(repetition_stats("text"), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(got["n_words"]) == [6, 3, 1, 0, 4]
    assert list(got["n_distinct_words"]) == [2, 3, 1, 0, 1]
    assert list(got["n_bigrams"]) == [5, 2, 0, 0, 3]
    assert list(got["top_bigram_count"]) == [3, 1, 0, 0, 3]


def test_repetition_stats_matches_duckdb_on_corpus():
    docs = "/root/testdata/sf0.001/documents.parquet"
    got = (
        ray.data.read_parquet(docs, columns=["doc_id", "text"])
        .map_batches(repetition_stats("text"), batch_format="pyarrow")
        .map_batches(lambda t: t.drop_columns(["text"]), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = duckdb.sql(
        rf"""WITH w AS (
               SELECT doc_id,
                      list_filter(string_split_regex(trim(text), '\s+'),
                                  x -> x <> '') AS ws
               FROM '{docs}'
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
             FROM w LEFT JOIN topb USING (doc_id) ORDER BY doc_id"""
    ).df()
    for c in ("n_words", "n_distinct_words", "n_bigrams", "top_bigram_count"):
        assert list(got[c]) == list(exp[c]), c


def test_repetition_oracle_sql_handles_blank_docs():
    """The driver oracle's list_filter form must agree with the engine on
    empty / whitespace-only documents (review finding: raw
    string_split_regex yields [''] => n_words=1 divergence)."""
    texts = ["", "   ", "\t", "a b a"]
    t = pa.table({"doc_id": pa.array(range(len(texts))), "text": pa.array(texts)})
    got = (
        ray.data.from_arrow(t)
        .map_batches(repetition_stats("text"), batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    from airbyte_ray.driver_queries import ORACLE_SQL
    exp = con.execute(ORACLE_SQL["repetition"]).df().sort_values("doc_id").reset_index(drop=True)
    for c in ("n_words", "n_distinct_words", "n_bigrams", "top_bigram_count"):
        assert list(got[c]) == list(exp[c]), c


def test_rate_threshold_keep_all_sentinel():
    assert rate_threshold_hex(1.0) == "g"
    assert rate_threshold_hex(2.0) == "g"
    assert rate_threshold_hex(0.5) == "80000000"
    assert rate_threshold_hex(0.0) == "00000000"
    # every hex digest sorts below "g"
    assert "ffffffff" < "g"


def test_bottom_k_sample_exact_and_deterministic():
    from airbyte_ray.functions.sample import bottom_k_sample

    t = _mix_table(300)
    outs = []
    for nb in (1, 6):
        ds = ray.data.from_arrow(t).repartition(nb)
        got = bottom_k_sample(ds, k=40, seed=3).to_pandas()
        outs.append(sorted(got["doc_id"]))
        assert len(got) == 40
    assert outs[0] == outs[1]  # layout-invariant
    exp = duckdb.sql(
        """SELECT doc_id FROM (SELECT CAST(i AS VARCHAR) AS doc_id
                               FROM generate_series(0, 299) t(i))
           ORDER BY md5('3:' || doc_id), doc_id LIMIT 40"""
    ).df()
    assert outs[0] == sorted(exp["doc_id"])
    # k > n returns everything
    assert bottom_k_sample(ray.data.from_arrow(_mix_table(10)), k=50).count() == 10


# ---- temperature-based source mixing -------------------------------------

def _mix_docs(sizes: dict[str, int]) -> pa.Table:
    """One row per doc; stratum s gets sizes[s] docs of n_chars=10 each,
    so row-count and char-budget sizing agree up to the factor 10."""
    rows_src, rows_id, rows_nc = [], [], []
    i = 0
    for s, n in sizes.items():
        for _ in range(n):
            rows_src.append(s)
            rows_id.append(i)
            rows_nc.append(10)
            i += 1
    return pa.table({"doc_id": pa.array(rows_id, pa.int64()),
                     "source": pa.array(rows_src),
                     "n_chars": pa.array(rows_nc, pa.int64())})


def test_temperature_rates_sqrt_shape():
    from airbyte_ray.functions.sample import temperature_rates

    t = _mix_docs({"big": 400, "mid": 100, "small": 25})
    rates = temperature_rates(ray.data.from_arrow(t).repartition(3))
    # smallest stratum keeps everything; ratios follow sqrt(min/size)
    assert rates["small"] == 1.0
    assert rates["mid"] == pytest.approx(0.5)
    assert rates["big"] == pytest.approx(0.25)
    # size_col sizing agrees (all docs same n_chars)
    rates_nc = temperature_rates(
        ray.data.from_arrow(t), size_col="n_chars")
    assert rates_nc == rates


def test_temperature_rates_extremes_and_validation():
    from airbyte_ray.functions.sample import temperature_rates

    t = _mix_docs({"a": 64, "b": 4})
    ds = ray.data.from_arrow(t)
    # T=1: natural mix — every stratum keeps everything
    assert set(temperature_rates(ds, temperature=1.0).values()) == {1.0}
    # T=0: rates equalize expected post-sample sizes exactly
    r0 = temperature_rates(ds, temperature=0.0)
    assert r0 == {"a": pytest.approx(4 / 64), "b": 1.0}
    with pytest.raises(ValueError):
        temperature_rates(ds, temperature=1.5)
    # a stratum whose size column sums to 0 would give an inf/NaN rate
    zero = t.set_column(2, "n_chars", pc.if_else(
        pc.equal(t["source"], "b"), 0, t["n_chars"]))
    with pytest.raises(ValueError, match="size <= 0"):
        temperature_rates(ray.data.from_arrow(zero), size_col="n_chars")


def test_temperature_mix_deterministic_and_matches_manual_rule():
    from airbyte_ray.functions.sample import (
        rate_threshold_hex, temperature_mix, temperature_rates)

    t = _mix_docs({"big": 360, "small": 40})
    ds = ray.data.from_arrow(t)
    out1 = temperature_mix(ds, key_col="doc_id").take_all()
    out2 = temperature_mix(ds.repartition(5), key_col="doc_id").take_all()
    k1 = sorted(r["doc_id"] for r in out1)
    assert k1 == sorted(r["doc_id"] for r in out2)  # layout-invariant
    # manual md5-threshold replay of the same rule
    rates = temperature_rates(ds)
    ids = t["doc_id"].to_pylist()
    srcs = t["source"].to_pylist()
    manual = sorted(
        d for d, s in zip(ids, srcs)
        if hashlib.md5(str(d).encode()).hexdigest()[:8]
        < rate_threshold_hex(rates[s]))
    assert k1 == manual
    # the small stratum survives in full
    kept_small = [r for r in out1 if r["source"] == "small"]
    assert len(kept_small) == 40


def test_interleave_sources_round_robin_and_deterministic():
    from airbyte_ray.functions.pack import interleave_sources

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(12)]),
        "source": pa.array(["a", "a", "a", "a", "a", "a",
                            "b", "b", "b", "b", "c", "c"]),
    })
    out1 = pa.concat_tables([x for x in ray.get(
        interleave_sources(ray.data.from_arrow(t), seed=3).to_arrow_refs())
        if x.num_rows]).sort_by("pos")
    out2 = pa.concat_tables([x for x in ray.get(
        interleave_sources(ray.data.from_arrow(t).repartition(4), seed=3)
        .to_arrow_refs()) if x.num_rows]).sort_by("pos")
    assert out1.equals(out2)  # layout-invariant
    # positions are 1..n contiguous
    assert out1["pos"].to_pylist() == list(range(1, 13))
    # round-robin prefix: while all 3 sources are live, the stream cycles
    # a,b,c; after c exhausts (2 rows) it cycles a,b; then a only
    srcs = out1["source"].to_pylist()
    assert srcs[:6] == ["a", "b", "c", "a", "b", "c"]
    assert srcs[6:10] == ["a", "b", "a", "b"]
    assert srcs[10:] == ["a", "a"]
    # within-source order is the md5 shuffle (rank strictly increasing
    # per source along the stream)
    for s in "abc":
        rs = [r for r, src in zip(out1["rnk"].to_pylist(), srcs) if src == s]
        assert rs == sorted(rs)
