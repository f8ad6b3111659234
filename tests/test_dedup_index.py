"""Persisted cross-run LSH dedup index (functions/dedup_index.py)."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from airbyte_ray.functions.dedup_index import (
    append_to_index,
    build_minhash_index,
    dedup_against_index,
)

_WORDS = [f"w{i:03d}" for i in range(500)]


def _doc(seed, n=60):
    r = np.random.default_rng(seed)
    return " ".join(r.choice(_WORDS, n))


def _corpus(ids_and_seeds):
    return pa.table({
        "doc_id": pa.array([i for i, _ in ids_and_seeds]),
        "text": pa.array([_doc(s) for _, s in ids_and_seeds]),
    })


@pytest.fixture()
def index_dir(tmp_path):
    d = str(tmp_path / "idx")
    hist = _corpus([(i, i) for i in range(200)])
    build_minhash_index(rd.from_arrow(hist), d, n_shards=16)
    return d


def test_layout_and_meta(index_dir):
    import json

    meta = json.load(open(os.path.join(index_dir, "meta.json")))
    assert meta["num_perm"] == 64 and meta["n_shards"] == 16
    assert glob.glob(os.path.join(index_dir, "bands", "shard=*", "*.parquet"))
    assert glob.glob(os.path.join(index_dir, "sigs", "shard=*", "*.parquet"))


def test_probe_finds_exact_copies_only(index_dir):
    copies = [3, 17, 42, 99, 150]
    new = _corpus([(1000 + i, 5000 + i) for i in range(20)]
                  + [(2000 + c, c) for c in copies])
    out = dedup_against_index(rd.from_arrow(new), index_dir,
                              sim_threshold=0.9).to_pandas()
    assert set(map(tuple, out[["a", "b"]].values)) == {(c, 2000 + c) for c in copies}
    assert (out.sim == 1.0).all()


def test_append_then_match_new_docs(index_dir):
    new = _corpus([(1000 + i, 5000 + i) for i in range(10)])
    append_to_index(rd.from_arrow(new), index_dir)
    probe = _corpus([(9999, 5003)])  # copy of appended doc 1003
    out = dedup_against_index(rd.from_arrow(probe), index_dir,
                              sim_threshold=0.9).to_pandas()
    assert set(out.a) == {1003}


def test_no_matches_schema_stable(index_dir, monkeypatch):
    import airbyte_ray.functions.dedup_index as di

    monkeypatch.setattr(di, "cluster_cpus", lambda: 4)  # several empty verify tasks
    probe = _corpus([(7777, 123456)])  # fresh text: no matches
    out = dedup_against_index(rd.from_arrow(probe), index_dir,
                              sim_threshold=0.9)
    assert out.count() == 0
    # Dataset schema stays pinned even with zero rows (Ray's to_pandas
    # drops columns on empty datasets — assert on the schema, the thing
    # downstream unions/writes actually consume)
    assert out.schema().names == ["a", "b", "sim"]
    assert out.schema().types == [pa.int64(), pa.int64(), pa.float64()]


def test_hot_bucket_raises_loudly(tmp_path):
    d = str(tmp_path / "hot")
    same = _doc(1)  # 400 identical docs → one flooded bucket
    hist = pa.table({"doc_id": pa.array(np.arange(400)),
                     "text": pa.array([same] * 400)})
    build_minhash_index(rd.from_arrow(hist), d, n_shards=4)
    probe = pa.table({"doc_id": pa.array([9000]), "text": pa.array([same])})
    with pytest.raises(Exception, match="bucket_cap"):
        dedup_against_index(rd.from_arrow(probe), d, sim_threshold=0.9,
                            bucket_cap=100).to_pandas()


def test_probe_reads_only_touched_shards(index_dir, monkeypatch):
    """The scan-pruning contract: the band files handed to the probe tasks
    are a strict subset of the index's shards for a small probe."""
    import airbyte_ray.functions.dedup_index as di

    seen = []
    orig = di._shard_files

    def spy(d, table, shards):
        files = orig(d, table, shards)
        if table == "bands":
            seen.extend(files)
        return files

    monkeypatch.setattr(di, "_shard_files", spy)
    monkeypatch.setattr(di, "cluster_cpus", lambda: 4)  # several probe tasks
    probe = _corpus([(8888, 3)])
    out = dedup_against_index(rd.from_arrow(probe), index_dir,
                              sim_threshold=0.9).to_pandas()
    assert set(map(tuple, out[["a", "b"]].values)) == {(3, 8888)}
    all_band_files = glob.glob(os.path.join(index_dir, "bands", "shard=*", "*.parquet"))
    assert seen, "probe read no band shards"
    touched_shards = {os.path.basename(os.path.dirname(f)) for f in seen}
    all_shards = {os.path.basename(os.path.dirname(f)) for f in all_band_files}
    assert touched_shards < all_shards, (
        f"probe touched {len(touched_shards)}/{len(all_shards)} shards — no pruning")



def test_distributed_no_matches_schema_stable(index_dir, monkeypatch):
    """At the widest fan-out (one shard range per task) a several-block
    batch with no matches still yields the pinned, typed empty schema."""
    import airbyte_ray.functions.dedup_index as di

    monkeypatch.setattr(di, "cluster_cpus", lambda: 16)
    probe = _corpus([(7000 + i, 123456 + i) for i in range(6)])  # fresh texts
    out = dedup_against_index(rd.from_arrow([probe.slice(0, 2), probe.slice(2)]),
                              index_dir, sim_threshold=0.9)
    assert out.count() == 0
    assert out.schema().names == ["a", "b", "sim"]
    assert out.schema().types == [pa.int64(), pa.int64(), pa.float64()]


def test_distributed_hot_bucket_raises(tmp_path, monkeypatch):
    """A flooded bucket fails the whole probe loudly when the batch spans
    several blocks and the shards are cut into one range per task."""
    import airbyte_ray.functions.dedup_index as di

    d = str(tmp_path / "hotd")
    same = _doc(1)
    hist = pa.table({"doc_id": pa.array(np.arange(400)),
                     "text": pa.array([same] * 400)})
    build_minhash_index(rd.from_arrow(hist), d, n_shards=4)
    monkeypatch.setattr(di, "cluster_cpus", lambda: 16)
    probe = pa.table({"doc_id": pa.array([9000, 9001, 9002]),
                      "text": pa.array([_doc(5000), _doc(5001), same])})
    with pytest.raises(Exception, match="bucket_cap"):
        dedup_against_index(rd.from_arrow([probe.slice(0, 2), probe.slice(2)]), d,
                            sim_threshold=0.9, bucket_cap=100).to_pandas()


def test_distributed_probe_reads_only_touched_shards(index_dir, monkeypatch):
    """At one shard range per task, the band files handed out are a strict
    subset of the index's shards, and no shard goes to two probe tasks."""
    import airbyte_ray.functions.dedup_index as di

    calls = []
    orig = di._shard_files

    def spy(d, table, shards):
        files = orig(d, table, shards)
        if table == "bands":
            calls.append(files)
        return files

    monkeypatch.setattr(di, "_shard_files", spy)
    monkeypatch.setattr(di, "cluster_cpus", lambda: 16)
    probe = _corpus([(8888, 3), (8889, 42)])
    out = dedup_against_index(rd.from_arrow(probe), index_dir,
                              sim_threshold=0.9).to_pandas()
    assert set(map(tuple, out[["a", "b"]].values)) == {(3, 8888), (42, 8889)}
    assert len(calls) == 16  # one probe task per shard range
    per_task = [{os.path.basename(os.path.dirname(f)) for f in files}
                for files in calls]
    touched = set().union(*per_task)
    assert sum(map(len, per_task)) == len(touched), "a shard went to two tasks"
    all_band_files = glob.glob(os.path.join(index_dir, "bands", "shard=*", "*.parquet"))
    all_shards = {os.path.basename(os.path.dirname(f)) for f in all_band_files}
    assert touched and touched < all_shards

def _near(seed, changed):
    """``_doc(seed)`` with its last ``changed`` words replaced."""
    words = _doc(seed).split()
    r = np.random.default_rng(10_000 + seed)
    return " ".join(words[:len(words) - changed] + list(r.choice(_WORDS, changed)))


def _reference(hist, new, threshold):
    """Brute force in numpy: every (indexed, new) pair that shares at least
    one band key, with its signature estimate at or above ``threshold``."""
    from airbyte_ray.functions.dedup import MinHasher, _band_rows

    def signed(t):
        s = MinHasher("text", 64, 5)(t)
        return (s["doc_id"].to_numpy(),
                np.asarray(s["sig"].combine_chunks().flatten()).reshape(-1, 64),
                _band_rows(s.select(["doc_id", "sig"]), "doc_id", 64, 16))

    h_ids, h_sig, h_bands = signed(hist)
    n_ids, n_sig, n_bands = signed(new)
    hk, nk = h_bands["band_key"].to_numpy(), n_bands["band_key"].to_numpy()
    hi, ni = np.nonzero(hk[:, None] == nk[None, :])
    ha = h_bands["doc_id"].to_numpy()[hi]
    nb = n_bands["doc_id"].to_numpy()[ni]
    rows = set()
    for a, b in set(zip(ha.tolist(), nb.tolist())):
        sim = float((h_sig[np.flatnonzero(h_ids == a)[0]]
                     == n_sig[np.flatnonzero(n_ids == b)[0]]).mean())
        if sim >= threshold:
            rows.add((a, b, sim))
    return rows


@pytest.mark.parametrize("cpus", [1, 4, 16])
def test_probe_matches_brute_force_reference(tmp_path, monkeypatch, cpus):
    """The probe's (a, b, sim) rows equal the brute-force reference on a
    several-block batch of exact and near copies (estimates on both sides
    of the threshold; buckets with several indexed and several new rows),
    however the shards are cut into ranges (16 CPUs: one range per shard)."""
    import airbyte_ray.functions.dedup_index as di

    d = str(tmp_path / "ref")
    hist = _corpus([(i, i) for i in range(300)] + [(300 + i, i * 5) for i in range(10)])
    build_minhash_index(rd.from_arrow([hist.slice(0, 150), hist.slice(150)]), d,
                        n_shards=16)
    new = pa.table({
        "doc_id": pa.array(list(range(5000, 5060)) + list(range(5100, 5120))
                           + list(range(6000, 6020))),
        "text": pa.array([_near(i * 5, i % 30) for i in range(60)]
                         + [_near(i * 5, (i + 7) % 30) for i in range(20)]
                         + [_doc(7000 + i) for i in range(20)]),
    })
    want = _reference(hist, new, 0.5)
    assert len(want) > 20 and {s for *_, s in want} != {1.0}
    monkeypatch.setattr(di, "cluster_cpus", lambda: cpus)
    out = dedup_against_index(
        rd.from_arrow([new.slice(0, 25), new.slice(25, 40), new.slice(65)]), d,
        sim_threshold=0.5).to_pandas()
    assert set(zip(out.a.tolist(), out.b.tolist(), out.sim.tolist())) == want
    assert len(out) == len(want)


def test_distributed_integrity_error_on_missing_sigs(index_dir):
    """Band rows without their sig rows (partial append) must fail loudly
    in the probe's attach tasks, not silently drop candidates."""
    shutil.rmtree(os.path.join(index_dir, "sigs"))
    probe = _corpus([(8888, 3)])  # exact copy of indexed doc 3 → candidate
    with pytest.raises(Exception, match="out of sync"):
        dedup_against_index(rd.from_arrow(probe), index_dir,
                            sim_threshold=0.9).to_pandas()


def test_string_doc_ids_roundtrip(tmp_path):
    """String ids flow through bucketing, pair dedup, shard hashing and
    the sig gathers."""
    d = str(tmp_path / "sidx")
    hist = pa.table({
        "doc_id": pa.array([f"doc-{i:04d}" for i in range(120)]),
        "text": pa.array([_doc(i) for i in range(120)]),
    })
    build_minhash_index(rd.from_arrow(hist), d, n_shards=8)
    probe = pa.table({
        "doc_id": pa.array(["new-a", "new-b"]),
        "text": pa.array([_doc(42), _doc(5042)]),  # copy of doc-0042 + fresh
    })
    out = dedup_against_index(rd.from_arrow(probe), d,
                              sim_threshold=0.9).to_pandas()
    assert set(map(tuple, out[["a", "b"]].values)) == {("doc-0042", "new-a")}


def test_probe_has_one_path():
    """One probe: no Ray Data exchange, join or Bloom build, no knobs that
    pick between paths."""
    import airbyte_ray.functions.dedup_index as di

    src = open(di.__file__).read()
    for banned in ("groupby(", "hash_join", "build_bloom", "driver_cap", "mode="):
        assert banned not in src, banned
