"""Benchmark harness: headline CDC-replay throughput + operator timings.

Prints ONE JSON line:
  {"metric": "cdc_replay_sec", "value": <headline sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": <sf>, "num_cpus": N,
   "events_per_sec": ...}

N is ``RAY_GRAFT_CPUS``, by default ``os.cpu_count()``.

``--scaling``: runs the headline twice in fresh processes at
RAY_GRAFT_CPUS ∈ {8, 32} on identical cached input and reports both
throughputs + efficiency = (t8/t32)/4 (the N→4N cluster-scaling evidence).

Input: deterministic synthetic change-event log derived from gen.py, cached
under /tmp keyed by sf (generation excluded from timing; both CPU levels
replay byte-identical input with a warmed page cache).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# default to the host's CPUs: more logical CPUs than cores oversubscribes
# and the timings stop being comparable; the JSON reports the value used
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)
# parse the scale factor from the BASENAME only ('sf0.1' → '0.1'): an 'sf'
# anywhere earlier in the path made float(SF) blow up AFTER the whole
# benchmark had run (review finding).  An unparseable basename fails HERE,
# loudly — a silent default would report throughput against the wrong row
# count (review finding).
_base = os.path.basename(SF_DIR.rstrip("/"))
if not _base.startswith("sf"):
    raise SystemExit(f"GRAFT_SF_DIR basename must look like 'sf0.1', got {_base!r}")
SF = _base[2:]
float(SF)  # validate up front, not after the whole benchmark has run

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# scale the synthetic CDC log off the sf dir size (sf0.1 → 16M events, 400k
# docs — large enough that parallel compute dominates the ~3.5s fixed
# orchestration overhead, which is what the N→4N scaling criterion measures)
_EVENT_SCALE = {"0.001": (10_000, 1_000), "0.01": (100_000, 10_000), "0.1": (16_000_000, 400_000)}
N_EVENTS, N_BASE = _EVENT_SCALE.get(SF, (16_000_000, 400_000))
CHUNK = 200_000
BENCH_ROOT = f"/tmp/airbyte_ray_bench/sf{SF}-n{N_EVENTS}"


NUM_PARTS = 64


def ensure_inputs() -> tuple[str, str]:
    """Generate (once) the seeded base snapshot + a KEY-PARTITIONED change
    log (``events/part=NNNNN/chunk-*.parquet``) — the sharded-WAL /
    changelog-topic layout a 10^10-event CDC stream actually arrives in
    (Debezium→Kafka topics are key-partitioned).  Generation fans out as Ray
    tasks; fully deterministic (seed + lsn range are functions of the
    partition)."""
    import ray

    base_path = os.path.join(BENCH_ROOT, "base.parquet")
    ev_dir = os.path.join(BENCH_ROOT, "events")
    done = os.path.join(BENCH_ROOT, ".done")
    if os.path.exists(done):
        return base_path, ev_dir
    shutil.rmtree(BENCH_ROOT, ignore_errors=True)
    os.makedirs(ev_dir, exist_ok=True)

    from airbyte_ray import gen

    pools = gen.partition_pools(N_BASE, NUM_PARTS)
    new_pools = gen.partition_pools(N_EVENTS, NUM_PARTS, start=N_BASE)
    n_pp = N_EVENTS // NUM_PARTS

    @ray.remote
    def gen_shard(p: int, pool, new_pool) -> None:
        import pyarrow.parquet as pq

        from airbyte_ray import gen as _g

        d = os.path.join(ev_dir, f"part={p:05d}")
        os.makedirs(d, exist_ok=True)
        lsn0 = 1 + 3 * n_pp * p  # disjoint lsn range per shard
        for j, off in enumerate(range(0, n_pp, CHUNK)):
            n = min(CHUNK, n_pp - off)
            t = _g.gen_events(
                n, N_BASE, seed=5000 + p * 97 + j, start_lsn=lsn0 + 3 * off,
                dup_prob=0.02, key_pool=pool, insert_pool=new_pool[off : off + n],
            )
            pq.write_table(t, os.path.join(d, f"chunk-{j:04d}.parquet"))

    @ray.remote
    def gen_base_t() -> None:
        import pyarrow.parquet as pq

        from airbyte_ray import gen as _g

        pq.write_table(_g.gen_base(N_BASE, seed=42), base_path)

    ray.get(
        [gen_base_t.remote()]
        + [gen_shard.remote(p, pools[p], new_pools[p]) for p in range(NUM_PARTS)]
    )
    with open(done, "w") as f:
        f.write("ok")
    return base_path, ev_dir


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data

    from airbyte_ray.driver_queries import (
        q_agg_partial,
        q_ann_topk,
        q_bm25_topk,
        q_dedup_exact,
        q_join_partitioned,
        q_token_count,
    )
    from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig

    base_path, ev_dir = ensure_inputs()

    # warm page cache (untimed)
    ray.data.read_parquet(ev_dir, partitioning=None).count()

    timings: dict[str, float] = {}

    # ---- headline: sustained CDC replay into the lake (snapshot is the
    # one-time bootstrap, timed separately).  The log is key-partitioned
    # (sharded WAL), so the partition-aligned path applies: zero exchange,
    # one task per partition, every byte moves once.  Equivalence with the
    # keyed-exchange path (apply_log) is pytest-verified.
    repeats = int(os.environ.get("BENCH_REPEATS", "2"))
    best_headline, best_snap, applied = None, None, 0
    for r in range(repeats):  # min-of-N hedges this host's 3-10x steal swings
        lake_dir = os.path.join(BENCH_ROOT, f"lake_cpus{NUM_CPUS}")
        shutil.rmtree(lake_dir, ignore_errors=True)
        lake = LakeTable(lake_dir, ReplayConfig(num_partitions=NUM_PARTS))
        t0 = time.perf_counter()
        lake.init_snapshot(ray.data.read_parquet(base_path))
        t1 = time.perf_counter()
        stats = lake.apply_partitioned(ev_dir)
        headline = time.perf_counter() - t1
        applied = stats["applied_events"]
        if best_headline is None or headline < best_headline:
            best_headline, best_snap = headline, t1 - t0
    headline = best_headline
    timings["snapshot"] = round(best_snap, 3)
    timings["cdc_replay"] = round(headline, 3)

    # ---- operator pipelines over the sf dir ----
    # min-of-N per query, same hedge as the headline: this host's steal
    # swings 3-10x and the first execution also pays Ray worker spin-up.
    q_reps = int(os.environ.get("BENCH_QUERY_REPEATS", "2"))

    def timed(name, fn):
        best = None
        for _ in range(q_reps):
            t = time.perf_counter()
            res = fn(SF_DIR)
            if hasattr(res, "materialize"):
                res.materialize()
            dt = time.perf_counter() - t
            if best is None or dt < best:
                best = dt
        timings[name] = round(best, 3)

    if os.environ.get("BENCH_QUERIES", "1") != "0":
        from airbyte_ray.driver_queries import (
            q_dedup_minhash,
            q_scd_history,
        )

        timed("agg_partial", q_agg_partial)
        timed("join_partitioned", q_join_partitioned)

        # ---- skew-join A/B on a hostage-key fixture (50% of rows one
        # key): same inputs, same result (pytest-equivalence-pinned).
        # The headline metric is the EXCHANGE-VOLUME reduction — hot rows
        # never enter the shuffle, so no single bucket task must hold the
        # hostage key's row set; wall-times are reported beside it
        # honestly (Arrow's in-bucket join keeps the hash path
        # competitive on a single node).
        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        from airbyte_ray.joins import hash_join as _hj, skew_join as _sj

        skew_dir = os.path.join(BENCH_ROOT, "skew_fixture")
        n_skew, nk = max(N_EVENTS // 4, 100_000), 100_000
        if not os.path.exists(os.path.join(skew_dir, ".done")):
            shutil.rmtree(skew_dir, ignore_errors=True)
            os.makedirs(skew_dir)
            rng = _np.random.default_rng(1)
            for c in range(8):
                n = n_skew // 8
                keys = _np.concatenate([
                    _np.zeros(n // 2, _np.int64),
                    rng.integers(1, nk, n - n // 2)])
                rng.shuffle(keys)
                _pq.write_table(_pa.table({
                    "k": _pa.array(keys),
                    "v": _pa.array(_np.arange(n, dtype=_np.int64))}),
                    os.path.join(skew_dir, f"c{c}.parquet"))
            ids = _np.arange(nk)
            _pq.write_table(_pa.table({
                "k": _pa.array(ids), "attr": _pa.array(ids % 97)}),
                os.path.join(skew_dir, "dim.parquet"))
            open(os.path.join(skew_dir, ".done"), "w").close()

        def _skew_left():
            return ray.data.read_parquet(
                [os.path.join(skew_dir, f"c{c}.parquet") for c in range(8)])

        def _dim():
            return ray.data.read_parquet(os.path.join(skew_dir, "dim.parquet"))

        timed("join_hash_hostage", lambda _: _hj(_skew_left(), _dim(),
                                                 on="k", num_buckets=64))
        skew_stats: dict = {}
        timed("join_skew_hostage", lambda _: _sj(_skew_left(), _dim(),
                                                 on="k",
                                                 hot_min_count=n_skew // 10,
                                                 num_buckets=64,
                                                 stats_out=skew_stats))

        timed("dedup_exact", q_dedup_exact)
        timed("token_count", q_token_count)
        timed("bm25_topk", q_bm25_topk)
        timed("ann_topk", q_ann_topk)
        timed("scd_history", q_scd_history)
        timed("dedup_minhash", q_dedup_minhash)

        # pack the tokenized lake base table into 2048-token training
        # sequences (the north-star consumer shape); zero-exchange block
        # plan, ingest-order contract (no sort)
        from airbyte_ray.functions.pack import pack_sequences

        timed("pack_sequences", lambda _: pack_sequences(
            ray.data.read_parquet(base_path, columns=["doc_id", "tokens"]),
            seq_len=2048, eos=0,
        ))

        # end-to-end corpus build (scrub → gate → dedup → mix → tokenize →
        # pack → write), streaming mode, over the sf documents table
        from airbyte_ray.pipelines.corpus import CorpusConfig, build_corpus

        def corpus_bench(sf_dir):
            out_dir = os.path.join(BENCH_ROOT, "corpus_out")
            shutil.rmtree(out_dir, ignore_errors=True)
            return build_corpus(
                ray.data.read_parquet(
                    os.path.join(sf_dir, "documents.parquet"),
                    columns=["doc_id", "text", "source"],
                ),
                out_dir,
                CorpusConfig(seq_len=512, collect_metrics=False),
            )

        timed("corpus_build", corpus_bench)

        # ---- persisted IVF index: probe-pruning proof.  The claim at
        # ann.py (ivf_topk_indexed): scan volume ∝ nprobe/n_cells because
        # only probed cell partitions are read.  Counted from the ACTUAL
        # file list the query reads (ivf_probed_files is shared by the
        # read plan and this counter), reported next to wall-time.
        import glob as _glob

        import numpy as _np
        import pyarrow.parquet as _pq

        from airbyte_ray.functions.ann import (
            build_ivf_index,
            ivf_probed_files,
            ivf_topk_indexed,
        )

        emb_path = os.path.join(SF_DIR, "embeddings.parquet")
        idx_dir = os.path.join(BENCH_ROOT, "ivf_index")
        if not os.path.exists(os.path.join(idx_dir, "ivf_meta.json")):
            shutil.rmtree(idx_dir, ignore_errors=True)
            tb = time.perf_counter()
            build_ivf_index(
                ray.data.read_parquet(emb_path), idx_dir, n_cells=64
            )
            timings["ivf_build"] = round(time.perf_counter() - tb, 3)
        qtab = _pq.ParquetFile(emb_path).read_row_group(0, columns=["embedding"])
        qmat = _np.stack([
            _np.asarray(v, _np.float32) for v in qtab["embedding"].to_pylist()[:8]
        ])
        timed("ann_ivf_indexed", lambda _:
              ivf_topk_indexed(idx_dir, qmat, k=10, nprobe=4))
        probed, _, _ = ivf_probed_files(idx_dir, qmat, nprobe=4)
        all_parts = _glob.glob(os.path.join(idx_dir, "cell=*", "*.parquet"))
        scanned = sum(os.path.getsize(f) for f in probed)
        total = sum(os.path.getsize(f) for f in all_parts)
        ivf_probe = {
            "scanned_mb": round(scanned / 1e6, 2),
            "index_mb": round(total / 1e6, 2),
            "scan_frac": round(scanned / total, 4),
            "nprobe_over_cells_bound": round(
                len({c for f in probed for c in [os.path.basename(os.path.dirname(f))]}) / 64, 4
            ),
        }

        # ---- clustered layout: value-sorted events copy, then a ~8%-
        # selectivity range read; zone-map pruning must scan ∝ selectivity
        from airbyte_ray.functions.layout import (
            range_probed_files,
            read_range,
            write_clustered,
        )

        clake = os.path.join(BENCH_ROOT, "clustered_events")
        if not os.path.exists(os.path.join(clake, ".done")):
            shutil.rmtree(clake, ignore_errors=True)
            write_clustered(
                ray.data.read_parquet(
                    os.path.join(SF_DIR, "events.parquet"),
                    columns=["event_id", "value"]),
                clake, "value", num_files=64)
            open(os.path.join(clake, ".done"), "w").close()
        timed("clustered_range", lambda _:
              read_range(clake, "value", 100.0, 150.0))
        c_all = [f for f in _glob.glob(os.path.join(clake, "*.parquet"))]
        c_probed = range_probed_files(c_all, "value", 100.0, 150.0)
        clustered_probe = {
            "scanned_mb": round(sum(os.path.getsize(f) for f in c_probed) / 1e6, 2),
            "lake_mb": round(sum(os.path.getsize(f) for f in c_all) / 1e6, 2),
            "scan_frac": round(
                sum(os.path.getsize(f) for f in c_probed)
                / sum(os.path.getsize(f) for f in c_all), 4),
            "selectivity": round((150.0 - 100.0) / 490.0, 4),  # values ~U[0, 490]
        }

        # ---- persisted cross-run dedup index: build once over the sf
        # documents table, then probe with a small "new batch" (2% of the
        # corpus re-labeled) — the steady-state ingest-dedup shape.
        from airbyte_ray.functions.dedup_index import (
            build_minhash_index,
            dedup_against_index,
        )

        docs_path = os.path.join(SF_DIR, "documents.parquet")
        didx = os.path.join(BENCH_ROOT, "dedup_index")
        if not os.path.exists(os.path.join(didx, "meta.json")):
            shutil.rmtree(didx, ignore_errors=True)
            tb = time.perf_counter()
            build_minhash_index(
                ray.data.read_parquet(docs_path, columns=["doc_id", "text"]),
                didx, n_shards=64,
            )
            timings["dedup_index_build"] = round(time.perf_counter() - tb, 3)

        def probe_batch(t):
            import pyarrow as _pa2
            ids = t["doc_id"].to_numpy()
            keep = ids % 50 == 0
            out = t.filter(_pa2.array(keep))
            return out.set_column(0, "doc_id", _pa2.array(
                out["doc_id"].to_numpy() + 10_000_000))

        timed("dedup_index_probe", lambda sf: dedup_against_index(
            ray.data.read_parquet(docs_path, columns=["doc_id", "text"])
            .map_batches(probe_batch, batch_format="pyarrow"),
            didx, sim_threshold=0.7,
        ))

        # ---- the probe's index-side cost is flat as the new batch grows
        # 10x (0.2% vs 2% of the corpus).  If index work scaled with the
        # batch the ratio would approach 10; sub-linear ratio = cost is the
        # flat touched-shard scan plus the batch's own signatures.  No
        # driver-side array is O(batch): the probe's tasks pass refs.
        def _probe_t(every):
            def fn(t):
                import pyarrow as _pa2
                ids = t["doc_id"].to_numpy()
                out = t.filter(_pa2.array(ids % every == 0))
                return out.set_column(0, "doc_id", _pa2.array(
                    out["doc_id"].to_numpy() + 10_000_000))

            best = None
            for _ in range(q_reps):
                t0 = time.perf_counter()
                dedup_against_index(
                    ray.data.read_parquet(docs_path, columns=["doc_id", "text"])
                    .map_batches(fn, batch_format="pyarrow"),
                    didx, sim_threshold=0.7,
                ).materialize()
                dt = time.perf_counter() - t0
                best = dt if best is None or dt < best else best
            return best

        t_b1 = _probe_t(500)   # 0.2% of the corpus
        t_b10 = _probe_t(50)   # 2% — the same probe at 10x the batch
        timings["dedup_index_probe_dist_b1"] = round(t_b1, 3)
        timings["dedup_index_probe_dist_b10"] = round(t_b10, 3)

        # ---- shared-WAL catalog sync (GLOBAL state): the WAL is scanned
        # ONCE no matter how many streams tail it (catalog_sync.split_route)
        # — S=2 vs S=8 over the same 1M-row WAL should cost the same;
        # the old per-stream re-read plan would be ~4x apart.
        import pyarrow as _pa

        from airbyte_ray import gen as _gen
        from airbyte_ray.pipelines.catalog_sync import (
            CdcCatalogEngine,
            CdcStreamConfig,
        )
        from airbyte_ray.pipelines.replay import ReplayConfig as _RC
        from airbyte_ray.pipelines.replay import stable_hash as _sh

        def _shared_wal(n_streams: int) -> str:
            path = os.path.join(BENCH_ROOT, f"shared_wal_s{n_streams}.parquet")
            if not os.path.exists(path):
                ev = _gen.gen_events(1_000_000, 40_000, seed=777)
                h = (_sh(ev["doc_id"].cast(_pa.string()))
                     % _np.uint64(n_streams)).astype(_np.int32)
                tag = _pa.DictionaryArray.from_arrays(
                    _pa.array(h),
                    _pa.array([f"s{i}" for i in range(n_streams)]),
                ).cast(_pa.string())
                _pq.write_table(ev.append_column("stream", tag), path)
            return path

        def _shared_sync(n_streams: int):
            wal = _shared_wal(n_streams)

            def run(_sf):
                root = os.path.join(BENCH_ROOT, f"catalog_s{n_streams}")
                shutil.rmtree(root, ignore_errors=True)
                eng = CdcCatalogEngine(root, [
                    CdcStreamConfig(f"s{i}", wal, replay=_RC(num_partitions=8))
                    for i in range(n_streams)
                ])
                out = eng.sync_shared(wal)
                assert out["applied_events"] > 0

                class _NoOp:  # satisfy timed()'s materialize() hook
                    def materialize(self):
                        return self

                return _NoOp()

            return run

        timed("sync_shared_s2", _shared_sync(2))
        timed("sync_shared_s8", _shared_sync(8))

    ray.shutdown()
    out = {
        "metric": "cdc_replay_sec",
        "value": timings["cdc_replay"],
        "unit": "sec",
        "queries": timings,
        "sf": float(SF),
        "num_cpus": NUM_CPUS,
        "events_applied": applied,
        "events_per_sec": round(applied / headline, 1),
        "host_disk_write_mbps": _disk_write_mbps(),
    }
    if "sync_shared_s2" in timings:
        # ≈1.0 ⇒ stream-count-independent (single WAL scan); the per-stream
        # re-read plan this replaced measured ~n_streams/2 here
        out["sync_shared_s8_over_s2"] = round(
            timings["sync_shared_s8"] / timings["sync_shared_s2"], 3
        )
        out["ivf_probe"] = ivf_probe
        out["clustered_probe"] = clustered_probe
    if "dedup_index_probe_dist_b1" in timings:
        out["dedup_probe_10x_ratio"] = round(
            timings["dedup_index_probe_dist_b10"]
            / timings["dedup_index_probe_dist_b1"], 3)
    if "join_hash_hostage" in timings:
        # exchange carries only the cold half — the hostage key's rows
        # never hit the shuffle and no task holds them all at once
        out["skew_join_ab"] = {
            "hash_sec": timings["join_hash_hostage"],
            "skew_sec": timings["join_skew_hostage"],
            **skew_stats,  # measured: hot_keys, hot_left_rows, exchange_frac
        }
    return out


def _disk_write_mbps(mb: int = 64) -> float:
    """Measured sequential write bandwidth to the bench filesystem (fsync'd).
    This VM's disk is intermittently KERNEL-THROTTLED: the same box measured
    ~15 MB/s (all sys-time) in one window and hundreds in another.  The lake
    apply is write-heavy, so wall-clock swings track this probe — reported
    next to every headline so a slow number carries its own context."""
    import time as _time

    path = os.path.join(tempfile.gettempdir(), f"_graft_ioprobe_{os.getpid()}")
    buf = b"\x00" * (1 << 20)
    t0 = _time.perf_counter()
    try:
        with open(path, "wb") as f:
            for _ in range(mb):
                f.write(buf)
            f.flush()
            os.fsync(f.fileno())
        return round(mb / (_time.perf_counter() - t0), 1)
    except OSError:
        return -1.0
    finally:
        try:
            os.remove(path)
        except OSError:
            pass


def _burn(k: int) -> int:
    x = 0
    for i in range(k):
        x += i * i
    return x


def _effective_cores(workers: int, n: int = 20_000_000) -> float:
    """Measured parallel CPU capacity at ``workers`` processes (pure-python
    burn).  This sandbox's VM runs on an overcommitted host (nonzero steal
    time in /proc/stat): 32 advertised CPUs deliver ~22 effective, 8 → ~7.
    The probe quantifies the hardware ceiling the scaling measurement runs
    under — reported alongside the result for transparency."""
    import time as _time
    from concurrent.futures import ProcessPoolExecutor

    t0 = _time.perf_counter()
    _burn(n)
    base = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    with ProcessPoolExecutor(workers) as ex:
        list(ex.map(_burn, [n] * workers))
    return round(workers * base / (_time.perf_counter() - t0), 1)


# N→4N levels for the scaling criterion.  2→8 (default) stays inside the
# host's REAL parallel capacity; 8→32 is hardware-capped at ~0.69 efficiency
# here even for perfect code (see _effective_cores).
SCALE_LO = int(os.environ.get("RAY_GRAFT_SCALE_LO", "2"))
SCALE_HI = int(os.environ.get("RAY_GRAFT_SCALE_HI", "8"))


def run_scaling(repeats: int = 3) -> dict:
    """Same job, fresh processes, interleaved lo/hi-CPU runs, ``repeats``
    each; min() per level filters host-contention noise (this sandbox's VM
    shows 3-5× wall-time swings under an identical workload — interleaving
    decorrelates the drift from the level)."""

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_QUERIES="0", BENCH_REPEATS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    los, his = [], []
    for _ in range(repeats):
        los.append(one(SCALE_LO))
        his.append(one(SCALE_HI))
    lo = min(r["value"] for r in los)
    hi = min(r["value"] for r in his)
    ratio = SCALE_HI / SCALE_LO
    eff = (lo / hi) / ratio
    cap_lo, cap_hi = _effective_cores(SCALE_LO), _effective_cores(SCALE_HI)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": SCALE_LO,
        "cpus_hi": SCALE_HI,
        "sec_lo": lo,
        "sec_hi": hi,
        "sec_lo_runs": [r["value"] for r in los],
        "sec_hi_runs": [r["value"] for r in his],
        "events_per_sec_lo": round(max(r["events_per_sec"] for r in los), 1),
        "events_per_sec_hi": round(max(r["events_per_sec"] for r in his), 1),
        "host_effective_cores_lo": cap_lo,
        "host_effective_cores_hi": cap_hi,
        "host_ceiling_efficiency": round((cap_hi / cap_lo) / ratio, 3),
        "sf": los[0]["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
