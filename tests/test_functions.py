"""Training-data function library: text analysis, dedup, ANN."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from airbyte_ray.functions import (
    LangId,
    MinHasher,
    SimHasher,
    brute_force_topk,
    exact_dedup,
    fingerprint_md5,
    lsh_candidates,
    lsh_topk,
    minhash_dedup,
    quality_score,
    rolling_fingerprint,
    simhash_near_dups,
    token_count,
)
from airbyte_ray.functions.text import TOKEN_RE

DOCS = "/root/testdata/sf0.001/documents.parquet"
EMB = "/root/testdata/sf0.001/embeddings.parquet"


# -- text -------------------------------------------------------------------

def test_token_count_matches_duckdb():
    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    t = pa.Table.from_pylist(ds.map_batches(token_count("text"), batch_format="pyarrow").take_all())
    exp = duckdb.sql(
        f"SELECT doc_id, len(regexp_extract_all(text, '{TOKEN_RE}')) n FROM '{DOCS}' ORDER BY doc_id"
    ).df()
    got = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["n_tokens"]) == list(exp["n"])


def test_quality_and_fingerprints():
    ds = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    rows = ds.map_batches(quality_score("text"), batch_format="pyarrow").take(5)
    for r in rows:
        assert 0 <= r["q_punct_ratio"] <= 1 and 0 <= r["q_alpha_ratio"] <= 1
        assert r["q_len"] > 0

    t = pa.Table.from_pylist(
        ds.map_batches(fingerprint_md5("text"), batch_format="pyarrow")
        .map_batches(rolling_fingerprint("text"), batch_format="pyarrow").take_all()
    )
    exp = duckdb.sql(
        f"""SELECT doc_id, md5(regexp_replace(lower(text), '\\s+', ' ', 'g')) fp
            FROM '{DOCS}' ORDER BY doc_id"""
    ).df()
    got = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["fp"]) == list(exp["fp"])
    # rolling fingerprint: equal texts → equal fp, deterministic
    assert got["rfp"].notna().all()


def test_rolling_fingerprint_locality():
    t = pa.table({"text": ["abcdefghijklmnop" * 4, "abcdefghijklmnop" * 4 + "X"]})
    out = rolling_fingerprint("text", window=8)(t)
    # a suffix edit usually keeps the min rolling hash: robust fingerprint
    assert out["rfp"][0].as_py() == out["rfp"][1].as_py()


def test_lang_id():
    t = pa.table(
        {
            "text": [
                "the cat and the dog in the house for a while",
                "der Hund und die Katze ist nicht mit der Maus",
                "le chat est dans la maison pour le moment",
                "el perro y el gato es una historia que no termina",
                "一只猫和一只狗在房子里面住了很久很久了啊",
                "",
            ]
        }
    )
    out = LangId("text")(t)
    assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "es", "zh", "unk"]


# -- dedup ------------------------------------------------------------------

@pytest.fixture(scope="module")
def dup_docs(tmp_path_factory):
    """documents + exact dups + near dups (small seeded corpus)."""
    base = pq.read_table(DOCS).slice(0, 60)
    texts = base["text"].to_pylist()
    ids = base["doc_id"].to_pylist()
    add_t, add_i = [], []
    for j in range(10):  # exact dups of docs 0..9
        add_t.append(texts[j])
        add_i.append(10_000 + j)
    for j in range(10, 20):  # near dups: small suffix edit
        add_t.append(texts[j] + " extra tail words here")
        add_i.append(20_000 + j)
    t = pa.table({"doc_id": pa.array(ids + add_i, pa.int64()), "text": pa.array(texts + add_t)})
    p = tmp_path_factory.mktemp("dup") / "docs.parquet"
    pq.write_table(t, p)
    return str(p), t


def test_exact_dedup(dup_docs):
    path, t = dup_docs
    ds = ray.data.read_parquet(path)
    out = pa.Table.from_pylist(exact_dedup(ds, ["text"], keep_by="doc_id").take_all())
    assert out.num_rows == 70  # 60 originals + 10 near-dups (not exact)
    # representative = min doc_id → none of the 10_00x ids survive
    assert max(i for i in out["doc_id"].to_pylist() if i < 20000) < 10_000


def test_minhash_lsh_finds_near_dups(dup_docs):
    path, t = dup_docs
    ds = ray.data.read_parquet(path)
    pairs = pa.Table.from_pylist(
        lsh_candidates(ds, "text", "doc_id", num_perm=64, bands=16, threshold=0.5).take_all()
    )
    found = {(r["a"], r["b"]) for r in pairs.to_pylist()}
    # every exact dup pair must be found; near-dup tails mostly
    for j in range(10):
        assert (j, 10_000 + j) in found
    near_hits = sum((j, 20_000 + j) in found for j in range(10, 20))
    assert near_hits >= 7

    deduped = minhash_dedup(ds, "text", "doc_id", num_perm=64, bands=16, threshold=0.5)
    kept = {r["doc_id"] for r in deduped.take_all()}
    assert not any(10_000 + j in kept for j in range(10))  # exact dups dropped
    assert all(j in kept for j in range(10))  # representatives kept


def test_simhash_near_dups(dup_docs):
    path, t = dup_docs
    ds = ray.data.read_parquet(path)
    pairs = simhash_near_dups(ds, "text", "doc_id", max_hamming=3).take_all()
    found = {(r["a"], r["b"]) for r in pairs}
    assert all((j, 10_000 + j) in found for j in range(10))  # identical → hamming 0


def test_hot_bucket_no_silent_recall_loss(dup_docs):
    """Round-1 regression: buckets over the cap must NOT silently drop.
    With bucket_cap=8 every band bucket of this 3000-row corpus is 'hot';
    all mass is one duplicated text → identical signatures collapse to star
    edges and dedup still keeps exactly the min-id representative."""
    path, t = dup_docs
    base = pq.read_table(path).slice(0, 1)
    text = base["text"][0].as_py()
    n = 3000
    hot = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array([text] * n)}
    )
    ds = ray.data.from_arrow(hot)
    deduped = minhash_dedup(
        ds, "text", "doc_id", num_perm=16, bands=4, threshold=0.5, bucket_cap=8
    )
    kept = {r["doc_id"] for r in deduped.take_all()}
    assert kept == {0}  # one component of 3000 identical docs → min id only


def test_hot_bucket_mixed_clusters():
    """Two distinct duplicate clusters inside one hot bucket stay separate
    components (star collapse + representative recursion, not a blanket
    merge)."""
    from airbyte_ray.functions.dedup import minhash_dedup

    a = "the quick brown fox jumps over the lazy dog again and again " * 5
    b = "entirely different content about database replication logs " * 5
    n = 500
    t = pa.table(
        {
            "doc_id": pa.array(list(range(n)) + list(range(1000, 1000 + n)), pa.int64()),
            "text": pa.array([a] * n + [b] * n),
        }
    )
    deduped = minhash_dedup(
        ray.data.from_arrow(t), "text", "doc_id",
        num_perm=16, bands=4, threshold=0.5, bucket_cap=16,
    )
    kept = {r["doc_id"] for r in deduped.take_all()}
    assert kept == {0, 1000}


def test_connected_components_ds_matches_driver():
    """Distributed label propagation == driver union-find on a graph with a
    chain (diameter > 1), a star, and singleton-free pairs."""
    from airbyte_ray.functions.dedup import connected_components, connected_components_ds

    edges = [(1, 2), (2, 3), (3, 4), (10, 11), (10, 12), (10, 13), (20, 21)]
    pairs = pa.table(
        {"a": pa.array([e[0] for e in edges], pa.int64()),
         "b": pa.array([e[1] for e in edges], pa.int64())}
    )
    expected = connected_components(pairs)
    got = {r["node"]: r["lab"] for r in connected_components_ds(ray.data.from_arrow(pairs)).take_all()}
    assert got == {k: v for k, v in expected.items()}


def _pair_set(ds) -> set:
    return {(r["a"], r["b"]) for r in ds.take_all()}


def _planted_embeddings(n: int = 200, dups: int = 10) -> pa.Table:
    """``n`` random unit-ish vectors plus ``dups`` scaled (colinear) copies."""
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((n, 16)).astype(np.float32)
    vecs = np.vstack([vecs, vecs[:dups] * 2])
    return pa.table({
        "vec_id": pa.array(list(range(n)) + [1000 + j for j in range(dups)], pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    })


def test_near_dup_pairs_do_not_depend_on_the_range_count(dup_docs, monkeypatch):
    """The route → pair → pair-dedup tasks cut one range per CPU; each
    operator's pair set is the same with one range and with sixteen."""
    from airbyte_ray.functions import dedup

    path, _ = dup_docs
    docs = ray.data.read_parquet(path)
    emb = ray.data.from_arrow(_planted_embeddings())
    runs = {
        "lsh": lambda: lsh_candidates(docs, "text", "doc_id", num_perm=64, bands=16,
                                      threshold=0.5),
        "simhash": lambda: simhash_near_dups(docs, "text", "doc_id"),
        "embedding": lambda: dedup.embedding_near_dups(emb, "embedding", "vec_id",
                                                       threshold=0.99, nbits=4),
    }
    got = {}
    for cpus in (1, 16):
        monkeypatch.setattr(dedup, "cluster_cpus", lambda: cpus)
        got[cpus] = {name: _pair_set(run()) for name, run in runs.items()}
    assert got[1] == got[16]
    assert all((j, 10_000 + j) in got[1]["lsh"] for j in range(10))
    assert all((j, 10_000 + j) in got[1]["simhash"] for j in range(10))
    assert {(j, 1000 + j) for j in range(10)} <= got[1]["embedding"]


def test_near_dup_empty_input_keeps_the_output_schema():
    from airbyte_ray.functions.dedup import embedding_near_dups

    docs = ray.data.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                         "text": pa.array([], pa.string())}))
    emb = ray.data.from_arrow(_planted_embeddings().slice(0, 0))
    for ds, col, typ in [
        (lsh_candidates(docs, "text", "doc_id"), "est_jaccard", pa.float64()),
        (simhash_near_dups(docs, "text", "doc_id"), "hamming", pa.int64()),
        (embedding_near_dups(emb, "embedding", "vec_id"), "cosine", pa.float64()),
    ]:
        assert ds.count() == 0
        assert ds.schema().base_schema == pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), (col, typ)])


@pytest.mark.parametrize("op", ["minhash_dedup", "ngram_jaccard_dedup"])
def test_components_tail_label_propagation_matches_union_find(dup_docs, op):
    """``driver_cc_max_pairs=0`` sends the shared components tail down its
    distributed label-propagation branch: it keeps exactly the rows of
    the driver union-find branch."""
    from airbyte_ray.functions import dedup

    path, _ = dup_docs
    ds = ray.data.read_parquet(path)

    def kept(cap: int) -> list:
        out = getattr(dedup, op)(ds, "text", "doc_id", threshold=0.6, num_perm=64,
                                 bands=16, driver_cc_max_pairs=cap)
        return sorted(r["doc_id"] for r in out.take_all())

    driver = kept(2_000_000)
    assert kept(0) == driver
    assert not any(10_000 + j in driver for j in range(10))


# -- ann --------------------------------------------------------------------

def test_brute_force_topk_matches_duckdb():
    ds = ray.data.read_parquet(EMB)
    q = pq.read_table(EMB).slice(0, 3)
    queries = np.stack([np.asarray(v, np.float32) for v in q["embedding"].to_pylist()])
    out = pa.Table.from_pylist(brute_force_topk(ds, queries, k=5).take_all()).to_pandas()
    out = out.sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
    # self-similarity = 1.0 → each query's own vector ranks first
    firsts = out.groupby("query_id").first()
    assert list(firsts["vec_id"]) == [0, 1, 2]
    assert np.allclose(firsts["score"], 1.0, atol=1e-5)

    exp = duckdb.sql(
        f"""WITH q AS (SELECT vec_id qid, embedding qe FROM '{EMB}' WHERE vec_id < 3)
            SELECT qid, vec_id FROM (
              SELECT q.qid, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) s,
                     row_number() OVER (PARTITION BY q.qid ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) rn
              FROM q CROSS JOIN '{EMB}' e) WHERE rn <= 5 ORDER BY qid, rn"""
    ).df()
    got_ids = out.groupby("query_id")["vec_id"].apply(list)
    exp_ids = exp.groupby("qid")["vec_id"].apply(list)
    for qid in range(3):
        assert got_ids[qid] == exp_ids[qid]


def test_lsh_topk_recall():
    ds = ray.data.read_parquet(EMB)
    q = pq.read_table(EMB).slice(0, 5)
    queries = np.stack([np.asarray(v, np.float32) for v in q["embedding"].to_pylist()])
    exact = pa.Table.from_pylist(brute_force_topk(ds, queries, k=10).take_all()).to_pandas()
    approx = pa.Table.from_pylist(
        lsh_topk(ds, queries, k=10, nbits=6, nprobe=8).take_all()
    ).to_pandas()
    recalls = []
    for qid in range(5):
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5  # probing 8/64 buckets


def test_embedding_near_dups_finds_planted_pair(tmp_path):
    """Plant near-identical vectors; the LSH-bucketed pass must find them."""
    from airbyte_ray.functions.dedup import embedding_near_dups

    base = pq.read_table(EMB).slice(0, 100)
    vecs = [np.asarray(v, np.float32) for v in base["embedding"].to_pylist()]
    # dups: tiny perturbation of vectors 0..4
    for j in range(5):
        vecs.append(vecs[j] + 1e-4)
    t = pa.table({
        "vec_id": pa.array(list(range(100)) + [1000 + j for j in range(5)], pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    })
    p = tmp_path / "emb.parquet"
    pq.write_table(t, p)
    pairs = embedding_near_dups(
        ray.data.read_parquet(str(p)), "embedding", "vec_id", threshold=0.999, nbits=4
    ).take_all()
    found = {(r["a"], r["b"]) for r in pairs}
    hits = sum((j, 1000 + j) in found for j in range(5))
    assert hits >= 4  # LSH recall: near-identical vectors share buckets


def test_simhash_batch_matches_scalar_kernel():
    """The vectorized batch path must be bit-identical to the scalar kernel."""
    from airbyte_ray.functions.dedup import SimHasher

    texts = [
        "the quick brown fox", "", "one", "répété répété tokens",
        "The Quick BROWN fox", "a b c d e f g h i j k l m n o p",
        "multi   space\t\ttabs\nnewlines", "ünïcode wörds here",
    ]
    t = pa.table({"text": pa.array(texts)})
    out = SimHasher("text")(t)["simhash"].to_numpy().view(np.uint64)
    exp = np.array([SimHasher.simhash(x) for x in texts], np.uint64)
    assert (out == exp).all()


def test_session_bucketed_matches_single_pass():
    """Two-phase (bucketed + stitch) session windows == single-pass, incl.
    sessions spanning bucket boundaries."""
    from airbyte_ray.functions.windows import session

    rng = np.random.default_rng(7)
    rows = []
    base = 1_700_000_000_000_000  # us
    for u in range(30):
        t = base + int(rng.integers(0, 3600 * 48)) * 1_000_000
        for _ in range(rng.integers(5, 60)):
            # mixture of short gaps (same session) and long gaps (new one),
            # with bucket_s chosen so many sessions straddle buckets
            t += int(rng.choice([30, 300, 2400, 7200])) * 1_000_000
            rows.append({"user_id": u, "ts": t})
    t = pa.table(
        {"user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
         "ts": pa.array([r["ts"] for r in rows], pa.int64()).cast(pa.timestamp("us", tz="UTC"))}
    )

    def canon(ds):
        out = pa.Table.from_pylist(ds.take_all())
        out = out.select(["user_id", "session_id", "s_start", "s_end", "n"])
        idx = pc.sort_indices(out, sort_keys=[("user_id", "ascending"), ("session_id", "ascending")])
        return out.take(idx)

    single = canon(session(ray.data.from_arrow(t), "user_id", "ts", gap_s=1800))
    two = canon(session(ray.data.from_arrow(t), "user_id", "ts", gap_s=1800, bucket_s=3600))
    assert two.equals(single.cast(two.schema))


def test_ivf_topk_recall_and_persisted_layout(tmp_path):
    """IVF recall vs brute force on the real corpus, plus the persisted
    cell-partitioned layout: reading ONLY probed cells reproduces the
    filter-based answer."""
    from airbyte_ray.functions.ann import (
        assign_cells, brute_force_topk, ivf_topk, train_ivf_centroids,
    )

    ds = ray.data.read_parquet(EMB)
    q = np.stack([np.asarray(r["embedding"], np.float32) for r in ds.take(5)])
    cents = train_ivf_centroids(ds, n_cells=8)

    exact = brute_force_topk(ds, q, k=5).take_all()
    approx = ivf_topk(ds, q, k=5, centroids=cents, nprobe=4).take_all()
    exact_ids = {(r["query_id"], r["vec_id"]) for r in exact}
    approx_ids = {(r["query_id"], r["vec_id"]) for r in approx}
    # probes are corpus members: their own top-1 must always survive
    for qi in range(5):
        assert (qi, qi) in approx_ids
    recall = len(exact_ids & approx_ids) / len(exact_ids)
    assert recall >= 0.5  # 4/8 cells probed on random data

    # persisted index: write partitioned by cell, read only probed cells
    stamped = assign_cells(ds, cents)
    root = str(tmp_path / "ivf")
    stamped.write_parquet(root, partition_cols=["cell"])
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :4]
    cells = sorted(set(probe.ravel().tolist()))
    import glob
    import os

    files = [
        f for c in cells
        for f in glob.glob(os.path.join(root, f"cell={c}", "*.parquet"))
    ]
    pruned = ray.data.read_parquet(files, partitioning=None)
    from_disk = brute_force_topk(pruned, q, k=5).take_all()
    assert {(r["query_id"], r["vec_id"]) for r in from_disk} == approx_ids


def test_embedding_hot_bucket_star_pass():
    """A bucket of >cap COLINEAR vectors can never be split by extra
    hyperplanes — the depth-limit star pass must still connect every row to
    the min-id representative (review regression: was a silent drop)."""
    from airbyte_ray.functions.dedup import embedding_near_dups

    n, dim = 2500, 8  # > _BUCKET_CAP, all identical direction
    base_vec = np.arange(1, dim + 1, dtype=np.float32)
    emb = pa.FixedSizeListArray.from_arrays(
        pa.array(np.tile(base_vec, n)), dim
    ).cast(pa.list_(pa.float32()))
    t = pa.table({"vec_id": pa.array(np.arange(n), pa.int64()), "embedding": emb})
    pairs = embedding_near_dups(
        ray.data.from_arrow(t), "embedding", "vec_id", threshold=0.99, nbits=4
    ).take_all()
    found = {(r["a"], r["b"]) for r in pairs}
    # star cover: every row connects to vec_id 0
    assert all((0, i) in found for i in range(1, n))


def test_simhash_hot_bucket_identical_collapse():
    """>cap identical texts: identical simhashes collapse to star edges —
    all rows pair with the min id, nothing dropped."""
    from airbyte_ray.functions.dedup import simhash_near_dups

    n = 2500
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "text": pa.array(["same exact words here"] * n)})
    pairs = simhash_near_dups(ray.data.from_arrow(t), "text", "doc_id").take_all()
    found = {(r["a"], r["b"]) for r in pairs}
    assert all((0, i) in found for i in range(1, n))


def test_session_bucketed_ns_timestamp_matches_single_pass():
    """timestamp[ns] input: the bucketed plan's stitch must convert its
    epoch-us integers back via the us unit, not reinterpret them in ns
    (advice finding — raw int64→timestamp[ns] cast gave 1970 dates)."""
    from airbyte_ray.functions.windows import session

    rng = np.random.default_rng(17)
    rows = []
    base = 1_700_000_000_000_000  # us
    for u in range(12):
        t = base + int(rng.integers(0, 3600 * 24)) * 1_000_000
        for _ in range(rng.integers(5, 40)):
            t += int(rng.choice([30, 300, 2400, 7200])) * 1_000_000
            rows.append({"user_id": u, "ts": t})
    t = pa.table(
        {"user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
         "ts": pa.array([r["ts"] for r in rows], pa.int64())
             .cast(pa.timestamp("us", tz="UTC")).cast(pa.timestamp("ns", tz="UTC"))}
    )

    def canon(ds):
        out = pa.Table.from_pylist(ds.take_all())
        out = out.select(["user_id", "session_id", "s_start", "s_end", "n"])
        idx = pc.sort_indices(out, sort_keys=[("user_id", "ascending"), ("session_id", "ascending")])
        return out.take(idx)

    single = canon(session(ray.data.from_arrow(t), "user_id", "ts", gap_s=1800))
    two = canon(session(ray.data.from_arrow(t), "user_id", "ts", gap_s=1800, bucket_s=3600))
    assert two.equals(single.cast(two.schema))
    # sanity: the stitched timestamps are in the fixture's era, not 1970
    assert pc.min(two["s_start"]).as_py().year == 2023


def test_minhash_batch_matches_scalar_kernel():
    """The flatten+reduceat batched signature path is bit-identical to the
    scalar reference kernel, including empty docs, 1-char docs, duplicate
    shingles, and a doc pushed through the scalar fallback."""
    from airbyte_ray.functions.dedup import MinHasher

    mh = MinHasher("text", num_perm=64)
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "delta", "x", "yz", "the", "and"]
    texts = ["", "a", "ab", "abcd", " ".join(rng.choice(vocab, 50))]
    texts += [" ".join(rng.choice(vocab, int(rng.integers(1, 200)))) for _ in range(40)]
    t = pa.table({"text": pa.array(texts)})
    batch = np.asarray(mh(t)["sig"].combine_chunks().flatten()).reshape(len(texts), 64)
    for i, v in enumerate(texts):
        ref = mh.signature(v).astype(np.int64)
        assert (batch[i] == ref).all(), f"doc {i} diverged"

    # scalar-fallback path for an over-chunk doc
    small = MinHasher("text", num_perm=16)
    small._CHUNK = 64  # force the big-doc fallback + tiny groups
    big = " ".join(rng.choice(vocab, 300))
    t2 = pa.table({"text": pa.array([big, "tiny doc", ""])})
    b2 = np.asarray(small(t2)["sig"].combine_chunks().flatten()).reshape(3, 16)
    for i, v in enumerate([big, "tiny doc", ""]):
        assert (b2[i] == small.signature(v).astype(np.int64)).all()


def test_rolling_fingerprint_batch_matches_scalar():
    """Batched rolling fingerprint (global-cumsum offsets trick) is
    bit-identical to the per-doc scalar kernel across lengths 0..100,
    including docs shorter than the window."""
    from airbyte_ray.functions.text import (
        _rolling_min_hash,
        _rolling_min_hash_batch,
    )

    rng = np.random.default_rng(9)
    datas = [rng.integers(0, 256, n, dtype=np.uint8).astype(np.uint8)
             for n in [0, 1, 3, 7, 8, 9, 15, 40, 100] * 5]
    rng.shuffle(datas)
    got = _rolling_min_hash_batch(datas, 8)
    for i, d in enumerate(datas):
        assert got[i] == _rolling_min_hash(d, 8), f"doc {i} (len {len(d)})"


def test_build_ivf_index_and_indexed_query(tmp_path):
    """build_ivf_index → ivf_topk_indexed flow: the persisted index answers
    planted colinear probes exactly; only the probed cell partitions are
    read; and the seeded RANDOM training sample keeps cells balanced even
    on a corpus sorted to be maximally biased for a head-sample."""
    import glob
    import os

    from airbyte_ray.functions.ann import (
        build_ivf_index, ivf_topk_indexed, train_ivf_centroids, assign_cells,
    )

    ds = ray.data.read_parquet(EMB)
    root = str(tmp_path / "ivf_idx")
    cents = build_ivf_index(ds, root, n_cells=8)
    assert os.path.exists(os.path.join(root, "centroids.npy"))
    assert len(glob.glob(os.path.join(root, "cell=*"))) >= 4

    q = np.stack([np.asarray(r["embedding"], np.float32) for r in ds.take(5)])
    probes = q * np.float32(3.0)  # colinear → top-1 is the source
    out = ivf_topk_indexed(root, probes, k=1, nprobe=4).take_all()
    assert {(r["query_id"], r["vec_id"]) for r in out} == {(i, i) for i in range(5)}

    # sorted-corpus bias: order rows by their dominant direction so the
    # head is one cluster; a head-sample quantizer would starve the tail,
    # the seeded random sample must still cover it
    t = pq.read_table(EMB)
    m = np.asarray(t["embedding"].combine_chunks().flatten(), np.float32).reshape(t.num_rows, -1)
    order = np.argsort(m[:, 0])
    sorted_t = t.take(pa.array(order))
    sds = ray.data.from_arrow(sorted_t).repartition(8)
    c2 = train_ivf_centroids(sds, n_cells=8, sample=100)
    counts = np.bincount(
        np.asarray(assign_cells(sds, c2).to_pandas()["cell"]), minlength=8
    )
    assert (counts > 0).sum() >= 6  # no starved-half quantizer


def test_ngram_jaccard_exact_pairs(dup_docs):
    """Exact n-gram Jaccard: identical docs score 1.0, the verified pair
    value equals a brute-force set computation, and sub-threshold
    candidates are cut by the exact metric."""
    from airbyte_ray.functions.dedup import (
        _shingle_hashes,
        ngram_jaccard_dedup,
        ngram_jaccard_pairs,
    )

    path, t = dup_docs
    ds = ray.data.read_parquet(path)
    pairs = pa.Table.from_pylist(
        ngram_jaccard_pairs(
            ds, "text", "doc_id", threshold=0.6, num_perm=64, bands=16
        ).take_all()
    )
    by_pair = {(r["a"], r["b"]): r["jaccard"] for r in pairs.to_pylist()}
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    for j in range(10):  # exact dups: jaccard exactly 1.0
        assert by_pair[(j, 10_000 + j)] == 1.0
    # every reported value equals the brute-force exact jaccard
    import numpy as np

    for (a, b), v in by_pair.items():
        sa = _shingle_hashes(texts[a], 5)
        sb = _shingle_hashes(texts[b], 5)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        assert v == inter / (len(sa) + len(sb) - inter)
        assert v >= 0.6

    kept = {r["doc_id"] for r in
            ngram_jaccard_dedup(ds, "text", "doc_id", threshold=0.6,
                                num_perm=64, bands=16).take_all()}
    assert not any(10_000 + j in kept for j in range(10))
    assert all(j in kept for j in range(10))


def test_ngram_jaccard_pairs_hash_join_fallback(dup_docs):
    """Above ``broadcast_max_pairs`` the verification join runs as two
    ``hash_join``s; it returns the broadcast plan's (a, b, jaccard) rows."""
    from airbyte_ray.functions.dedup import ngram_jaccard_pairs

    path, _ = dup_docs
    ds = ray.data.read_parquet(path)

    def rows(cap: int) -> list:
        out = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.6, num_perm=64,
                                  bands=16, broadcast_max_pairs=cap)
        return sorted((r["a"], r["b"], r["jaccard"]) for r in out.take_all())

    broadcast = rows(5_000_000)
    assert broadcast and rows(0) == broadcast


def test_append_to_ivf_index_matches_full_build(tmp_path):
    """Log-structured IVF append: build on half the corpus, append the
    other half; full-probe (nprobe=all) queries must equal brute force
    over the WHOLE corpus — appended vectors are first-class citizens."""
    from airbyte_ray.functions.ann import (
        append_to_ivf_index,
        brute_force_topk,
        build_ivf_index,
        ivf_topk_indexed,
    )

    t = pq.read_table(EMB)
    half = t.num_rows // 2
    root = str(tmp_path / "ivf_app")
    build_ivf_index(ray.data.from_arrow(t.slice(0, half)), root, n_cells=8)
    append_to_ivf_index(ray.data.from_arrow(t.slice(half)), root)

    q = np.stack([np.asarray(v, np.float32)
                  for v in t["embedding"].to_pylist()[:4]])
    got = ivf_topk_indexed(root, q, k=5, nprobe=8).take_all()  # all cells
    exact = brute_force_topk(ray.data.from_arrow(t), q, k=5).take_all()
    assert ({(r["query_id"], r["vec_id"]) for r in got}
            == {(r["query_id"], r["vec_id"]) for r in exact})


def test_cli_dedup_and_ann_index_verbs(tmp_path, capsys):
    """The index lifecycle CLI verbs: build → probe / build → query."""
    import json

    from airbyte_ray.cli import main

    docs = str(tmp_path / "docs.parquet")
    words = [f"tok{i}" for i in range(300)]

    def doc(seed):
        r = np.random.default_rng(seed)
        return " ".join(r.choice(words, 40))

    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(50)),
        "text": pa.array([doc(i) for i in range(50)]),
    }), docs)
    probe = str(tmp_path / "probe.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([900, 901]),
        "text": pa.array([doc(7), doc(9999)]),  # one copy, one fresh
    }), probe)

    idx = str(tmp_path / "didx")
    assert main(["dedup-index", "build", "--index", idx,
                 "--docs", docs, "--shards", "8"]) == 0
    capsys.readouterr()
    assert main(["dedup-index", "probe", "--index", idx, "--docs", probe,
                 "--threshold", "0.9"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["matches"] == 1  # only the planted copy

    ivf = str(tmp_path / "aidx")
    assert main(["ann-index", "build", "--index", ivf,
                 "--vecs", EMB, "--cells", "8"]) == 0
    capsys.readouterr()
    assert main(["ann-index", "query", "--index", ivf, "--vecs", EMB,
                 "--k", "3", "--nprobe", "2"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] == out["queries"] * 3


def test_fuzzy_pairs_complete_and_capped():
    """Delete-1 bucketing finds EVERY distance-≤1 pair (substitution,
    insertion, deletion), none beyond; identical values flood a bucket
    and must raise, not silently drop."""
    import pytest as _pytest

    from airbyte_ray.functions.fuzzy import fuzzy_pairs, levenshtein

    vals = ["cat", "bat", "cats", "ca", "dog", "dig", "zebra"]
    t = pa.table({"id": pa.array(np.arange(len(vals))), "s": pa.array(vals)})
    got = (fuzzy_pairs(ray.data.from_arrow(t).repartition(3), "s", "id")
           .to_pandas())
    expect = {(i, j, levenshtein(vals[i], vals[j]))
              for i in range(len(vals)) for j in range(i + 1, len(vals))
              if levenshtein(vals[i], vals[j]) <= 1}
    assert set(map(tuple, got[["a", "b", "dist"]].values)) == expect
    assert ("cat", "bat") and len(expect) == 4  # cat~bat, cat~cats, cat~ca, dog~dig

    flood = pa.table({"id": pa.array(np.arange(300)),
                      "s": pa.array(["same"] * 300)})
    with _pytest.raises(Exception, match="bucket_cap"):
        fuzzy_pairs(ray.data.from_arrow(flood), "s", "id",
                    bucket_cap=100).materialize()


def test_fuzzy_pairs_d2_property_recall_complete():
    """Round-5: delete-2 bucketing is recall-COMPLETE for distance ≤ 2.
    Property-style: seeded random corpora (base words + planted 1- and
    2-edit mutations of every kind — sub/ins/del and their combinations)
    must yield EXACTLY the exhaustive all-pairs Levenshtein-≤2 set."""
    import random

    from airbyte_ray.functions.fuzzy import fuzzy_pairs, levenshtein

    for seed in (7, 41, 1999):
        rng = random.Random(seed)
        alpha = "abcdef"
        vals = []
        for _ in range(12):
            w = "".join(rng.choice(alpha) for _ in range(rng.randint(4, 9)))
            vals.append(w)
            for _ in range(2):  # two mutants per base, 1 or 2 random edits
                m = w
                for _e in range(rng.randint(1, 2)):
                    op = rng.choice("sid")
                    p = rng.randrange(max(len(m), 1))
                    if op == "s" and m:
                        m = m[:p] + rng.choice(alpha) + m[p + 1:]
                    elif op == "i":
                        m = m[:p] + rng.choice(alpha) + m[p:]
                    elif m:
                        m = m[:p] + m[p + 1:]
                vals.append(m)
        # drop exact duplicate values: two identical strings collide in
        # every bucket and the operator's contract is distinct-id pairs
        # over possibly-equal values (dist 0 rows are legitimate output)
        t = pa.table({"id": pa.array(np.arange(len(vals))),
                      "s": pa.array(vals)})
        got = (fuzzy_pairs(ray.data.from_arrow(t).repartition(4), "s", "id",
                           max_dist=2, bucket_cap=100_000)
               .to_pandas())
        expect = {(i, j, levenshtein(vals[i], vals[j]))
                  for i in range(len(vals)) for j in range(i + 1, len(vals))
                  if levenshtein(vals[i], vals[j]) <= 2}
        assert set(map(tuple, got[["a", "b", "dist"]].values)) == expect, seed
        assert any(d == 2 for _, _, d in expect), seed  # distance-2 present


def test_segment_dedup_planted(tmp_path):
    """C4-style segment dedup: a 3-word span duplicated across docs keeps
    only its first (doc_id, pos) occurrence; a doc made entirely of
    previously-seen segments vanishes; verified against the keep-first SQL
    window oracle on the same table."""
    import duckdb

    from airbyte_ray.functions.dedup import segment_dedup

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [
            "aa bb cc dd ee ff",          # segs: "aa bb cc", "dd ee ff"
            "xx yy zz aa bb cc",          # "xx yy zz" new, "aa bb cc" dup -> cut
            "dd ee ff",                   # all previously seen -> doc vanishes
            "aa bb cc qq",                # "aa bb cc" dup, "qq" survives
        ],
    })
    p = tmp_path / "docs.parquet"
    pq.write_table(docs, p)
    out = pa.Table.from_pylist(
        segment_dedup(ray.data.read_parquet(str(p)), seg_words=3).take_all()
    )
    got = {r["doc_id"]: r["text_dedup"] for r in out.to_pylist()}
    assert got == {1: "aa bb cc dd ee ff", 2: "xx yy zz", 4: "qq"}

    exp = duckdb.connect().execute(f"""
        WITH words AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) AS ord
          FROM read_parquet('{p}')),
        segs AS (
          SELECT doc_id, (ord-1)//3 AS pos, string_agg(word, ' ' ORDER BY ord) AS seg
          FROM words GROUP BY doc_id, (ord-1)//3),
        win AS (
          SELECT doc_id, pos, seg,
                 row_number() OVER (PARTITION BY seg ORDER BY doc_id, pos) rn
          FROM segs)
        SELECT doc_id, string_agg(seg, ' ' ORDER BY pos) AS text_dedup
        FROM win WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
    """).arrow()
    assert out.sort_by("doc_id").equals(exp.cast(out.schema))
