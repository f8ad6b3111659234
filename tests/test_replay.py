"""Flagship pipeline correctness: CDC replay vs the sequential oracle.

Mirrors the reference acceptance suites: CdcSourceTest (snapshot/update/
delete), DestinationAcceptanceTest.testIncrementalDedupeSync (latest per PK),
and the normalization golden corpus — FIXTURES F6 invariants."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from airbyte_ray import gen
from airbyte_ray.oracle import replay_oracle
from airbyte_ray.pipelines import replay
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig, stable_hash
from airbyte_ray.state.manifest import Manifest

N_BASE = 300
N_EVENTS = 1500


@pytest.fixture()
def fixtures(tmp_path):
    base = gen.gen_base(N_BASE, seed=11)
    events = gen.gen_events(N_EVENTS, N_BASE, seed=12)
    ev_path = tmp_path / "events.parquet"
    pq.write_table(events, ev_path)
    return base, events, str(ev_path), str(tmp_path / "lake")


def _assert_matches_oracle(lake: LakeTable, base, event_tables):
    expected = replay_oracle(base, event_tables)
    actual = lake.to_table()
    assert actual.schema.equals(expected.schema), f"{actual.schema} != {expected.schema}"
    assert actual.num_rows == expected.num_rows
    # byte-exact token equality per doc_id (the BASELINE correctness gate)
    assert actual.equals(expected)


def _assert_read_matches_table(lake: LakeTable, payload_only: bool = True):
    """``read()`` returns ``to_table()``'s rows as one block per range of
    ``LakeTable._ranges``: the blocks hold disjoint, contiguous runs of
    partitions, in ascending order, that cover every partition."""
    ds = lake.read(payload_only).materialize()
    ranges = lake._ranges()
    assert [e.part for rng in ranges for e in rng] == sorted(lake.manifest.partitions)
    assert ds.num_blocks() == len(ranges)
    n = np.uint64(lake.manifest.num_partitions)
    via_ds = pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])
    part = (stable_hash(via_ds["doc_id"]) % n).astype(np.int64)
    assert (np.diff(part) >= 0).all()  # ascending and contiguous, across and within blocks
    expected = lake.to_table(payload_only)
    assert set(part) == set((stable_hash(expected["doc_id"]) % n).astype(np.int64))
    via_ds = via_ds.take(pc.sort_indices(via_ds, sort_keys=[("doc_id", "ascending")]))
    assert via_ds.equals(expected)


def test_snapshot_then_replay(fixtures):
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=8))
    lake.init_snapshot(ray.data.from_arrow(base))
    _assert_matches_oracle(lake, base, [])

    stats = lake.apply_log(ev_path)
    assert stats["applied_events"] > 0
    _assert_matches_oracle(lake, base, [events])

    # final table unique per doc_id (F6.1)
    t = lake.to_table()
    assert t["doc_id"].to_pandas().is_unique
    # n_tok consistency (F6.3)
    lens = pc.list_value_length(t["tokens"])
    assert pc.all(pc.equal(lens.cast(pa.int32()), t["n_tok"])).as_py()


def test_redelivery_noop(fixtures):
    """Re-applying the same log is a no-op (exactly-once from at-least-once,
    F6.5 — the monotonic watermark guard)."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path)
    before = lake.to_table()
    stats = lake.apply_log(ev_path)  # full redelivery
    assert stats["applied_events"] == 0
    assert lake.to_table().equals(before)


def test_chunked_replay_matches_single_shot(fixtures, tmp_path):
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    stats = lake.apply_chunked(ev_path, chunk_lsns=800)
    assert len(stats) >= 2  # genuinely multiple checkpointed windows
    _assert_matches_oracle(lake, base, [events])

    single = LakeTable(str(tmp_path / "lake2"), ReplayConfig(num_partitions=4))
    single.init_snapshot(ray.data.from_arrow(base))
    single.apply_log(ev_path)
    assert single.to_table().equals(lake.to_table())


def test_delta_mode_matches_full_merge(fixtures, tmp_path, monkeypatch):
    """Delta-segment applies (O(changes) writes) commit the SAME logical
    table as full-merge applies — tombstones shadow base rows at read; a
    compaction folds everything back to one file per partition with no
    logical change."""
    base, events, ev_path, lake_dir = fixtures
    # split the log into two epochs so deltas layer
    lsn = events["lsn"].to_numpy()
    cut = int(np.median(lsn))
    e1 = events.filter(pc.less_equal(events["lsn"], cut))
    e2 = events.filter(pc.greater(events["lsn"], cut))
    p1, p2 = tmp_path / "e1.parquet", tmp_path / "e2.parquet"
    pq.write_table(e1, p1)
    pq.write_table(e2, p2)

    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    # a three-block snapshot in three bootstrap tasks (a forced bound of 100
    # rows): one base file per (task, partition)
    with monkeypatch.context() as mp:
        mp.setattr(replay, "_one_task_rows", lambda: 100)
        lake.init_snapshot(ray.data.from_arrow([base.slice(i, 100) for i in range(0, N_BASE, 100)]))
    # freshly bootstrapped: multi-file base partitions, no deltas yet
    assert any(len(e.paths) > 1 for e in lake.manifest.partitions.values())
    _assert_read_matches_table(lake)
    # O(delta) guard: a delta apply never reads the base.  With every base
    # file replaced by garbage it still succeeds and writes only deltas.
    base_bytes = {}
    for e in lake.manifest.partitions.values():
        for rel in e.paths:
            f = os.path.join(lake_dir, rel)
            with open(f, "rb") as fh:
                base_bytes[f] = fh.read()
            with open(f, "wb") as fh:
                fh.write(b"not a parquet file")
    on_disk = set(glob.glob(os.path.join(lake_dir, "part=*", "*")))
    s1 = lake.apply_log(str(p1), delta=True)
    written = set(glob.glob(os.path.join(lake_dir, "part=*", "*"))) - on_disk
    assert written and all(os.path.basename(f).startswith("delta-") for f in written)
    for f, data in base_bytes.items():
        with open(f, "wb") as fh:
            fh.write(data)
    s2 = lake.apply_log(str(p2), delta=True)
    assert s1["applied_events"] > 0 and s2["applied_events"] > 0
    m = Manifest.load(lake_dir)
    assert any(e.delta_paths for e in m.partitions.values())  # deltas really layered
    _assert_matches_oracle(lake, base, [events])
    # Dataset read path resolves deltas too, with or without the lsn columns
    _assert_read_matches_table(lake)
    _assert_read_matches_table(lake, payload_only=False)

    # compaction: same logical table, single file per partition, files GC'd
    before = lake.to_table()
    n = lake.compact()
    assert n > 0
    lake2 = LakeTable(lake_dir)  # reload manifest
    assert lake2.to_table().equals(before)
    m2 = Manifest.load(lake_dir)
    assert all(len(e.all_paths) == 1 for e in m2.partitions.values())
    # apply after compaction still works and matches
    ev3 = gen.gen_events(300, N_BASE, seed=77, start_lsn=gen.next_lsn(events))
    p3 = tmp_path / "e3.parquet"
    pq.write_table(ev3, p3)
    lake2.apply_log(str(p3), delta=True)
    _assert_matches_oracle(lake2, base, [events, ev3])


def test_bootstrap_fast_path_used_and_correct(fixtures):
    """Empty-lake init_snapshot takes the zero-exchange path (multi-file
    base partitions) and matches the oracle byte-exactly."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    st = lake.init_snapshot(ray.data.from_arrow(base))
    assert st["applied_events"] == N_BASE
    m = Manifest.load(lake_dir)
    # fast path leaves content-hashed block files, listed in sorted order
    # (not in the order the blocks happened to finish)
    assert any("-" in e.paths[0].split("seg-")[1] for e in m.partitions.values())
    assert all(e.paths == sorted(e.paths) for e in m.partitions.values())
    _assert_matches_oracle(lake, base, [])
    # a normal apply over the bootstrap merges to single-file partitions
    lake.apply_log(ev_path)
    _assert_matches_oracle(lake, base, [events])


@pytest.mark.parametrize("blocks", [1, 3])
def test_bootstrap_writes_one_file_per_block_per_partition(fixtures, blocks):
    """The bootstrap writes one base file per partition per task, and a task
    takes one block or more: a ``blocks``-block snapshot leaves at most
    ``blocks`` base files in each partition, and a one-block snapshot
    exactly one."""
    base, _, _, lake_dir = fixtures
    step = -(-N_BASE // blocks)
    snap = ray.data.from_arrow([base.slice(i, step) for i in range(0, N_BASE, step)])
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(snap)
    counts = [len(e.paths) for e in Manifest.load(lake_dir).partitions.values()]
    assert len(counts) == 4 and max(counts) <= blocks
    if blocks == 1:
        assert counts == [1, 1, 1, 1]
    _assert_matches_oracle(lake, base, [])


def test_bootstrap_tasks_sized_by_bound(fixtures, tmp_path, monkeypatch):
    """``init_snapshot`` bundles the snapshot's blocks into tasks of up to
    ``_one_task_rows()`` rows: under the bound a five-block snapshot leaves
    exactly one base file per partition, under a small forced bound
    several.  Both hold the same table, and a rerun into a fresh dir
    writes the same file names and bytes."""
    base = fixtures[0]
    snap = [base.slice(i, 60) for i in range(0, N_BASE, 60)]

    def bootstrap(d):
        lake = LakeTable(str(d), ReplayConfig(num_partitions=4))
        lake.init_snapshot(ray.data.from_arrow(snap))
        files = {}
        for f in lake.segment_paths():
            with open(f, "rb") as fh:
                files[os.path.relpath(f, lake.lake_dir)] = fh.read()
        return lake, files

    tables = []
    for bound in (None, 100):
        with monkeypatch.context() as mp:
            if bound:
                mp.setattr(replay, "_one_task_rows", lambda: bound)
            lake, files = bootstrap(tmp_path / f"lake{bound}")
            assert bootstrap(tmp_path / f"rerun{bound}")[1] == files
        counts = [len(e.paths) for e in lake.manifest.partitions.values()]
        assert counts == [1, 1, 1, 1] if bound is None else min(counts) > 1
        _assert_matches_oracle(lake, base, [])
        tables.append(lake.to_table())
    assert tables[0].equals(tables[1])


def test_partition_checksum_is_layout_free(fixtures, tmp_path, monkeypatch):
    """A partition's manifest checksum depends on its rows, not on how they
    are split into files: one snapshot bootstrapped into several files per
    partition (bound 100) and into one (∞) records the same checksums, and
    ``compact()`` of the several-file lake keeps them."""
    base = fixtures[0]
    snap = [base.slice(i, 60) for i in range(0, N_BASE, 60)]
    lakes = {}
    for bound in (100, float("inf")):
        with monkeypatch.context() as mp:
            mp.setattr(replay, "_one_task_rows", lambda: bound)
            lakes[bound] = LakeTable(str(tmp_path / f"lake{bound}"), ReplayConfig(num_partitions=4))
            lakes[bound].init_snapshot(ray.data.from_arrow(snap))

    def layout(lake):
        return {p: (len(e.paths), e.checksum) for p, e in lake.manifest.partitions.items()}

    many, one = layout(lakes[100]), layout(lakes[float("inf")])
    assert min(n for n, _ in many.values()) > 1 and {n for n, _ in one.values()} == {1}
    assert {p: c for p, (_, c) in many.items()} == {p: c for p, (_, c) in one.items()}
    lakes[100].compact()
    assert layout(lakes[100]) == one


def test_bootstrap_runs_upstream_once_per_block(fixtures, tmp_path):
    """A snapshot that is a pipeline, not a table, runs its upstream step
    exactly once per block: the bootstrap neither sizes nor reshapes its
    input first, and takes the manifest schema from what its block tasks
    return instead of a ``Dataset.schema()`` probe (a ``limit(1)``
    execution that, with several CPUs, may start every block)."""
    base, _, _, lake_dir = fixtures
    calls = tmp_path / "calls"
    calls.mkdir()

    def upstream(t: pa.Table) -> pa.Table:
        import uuid

        (calls / uuid.uuid4().hex).touch()
        return t

    snap = ray.data.from_arrow([base.slice(i, 40) for i in range(0, N_BASE, 40)])
    blocks = snap.num_blocks()
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(snap.map_batches(upstream, batch_format="pyarrow"))
    assert blocks == 8 and len(list(calls.iterdir())) == blocks
    _assert_matches_oracle(lake, base, [])


def test_read_and_compact_cut_partition_ranges(fixtures, tmp_path, monkeypatch):
    """``read()`` and ``compact()`` run one task per range of contiguous
    partitions.  Under a small row bound the lake reads as several blocks,
    no range holds more manifest rows than the bound unless it is one
    partition, and a compact over several ranges leaves one file per
    partition with the bytes a one-range compact writes."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=8, delta_mode=True))
    lake.init_snapshot(ray.data.from_arrow([base.slice(0, 150), base.slice(150)]))
    lake.apply_log(ev_path, max_lsn=int(np.median(events["lsn"].to_numpy())))
    lake.apply_log(ev_path)
    copy = str(tmp_path / "copy")
    shutil.copytree(lake_dir, copy)

    bound = int(np.median([e.rows for e in lake.manifest.partitions.values()]))
    monkeypatch.setattr(replay, "_one_task_rows", lambda: bound)
    ranges = lake._ranges()
    assert len(ranges) > 1
    assert all(len(r) == 1 or sum(e.rows for e in r) <= bound for r in ranges)
    _assert_read_matches_table(lake)
    _assert_read_matches_table(lake, payload_only=False)
    before = lake.to_table()
    assert lake.compact() == 8
    assert all(len(e.all_paths) == 1 for e in Manifest.load(lake_dir).partitions.values())
    on_disk = glob.glob(os.path.join(lake_dir, "part=*", "*"))
    assert sorted(on_disk) == sorted(lake.segment_paths())
    assert lake.to_table().equals(before)

    monkeypatch.setattr(replay, "_one_task_rows", lambda: float("inf"))
    monkeypatch.setattr(replay, "cluster_cpus", lambda: 1)
    one = LakeTable(copy)
    assert len(one._ranges()) == 1
    assert one.compact() == 8

    def files(lk):
        out = {}
        for f in lk.segment_paths():
            with open(f, "rb") as fh:
                out[os.path.relpath(f, lk.lake_dir)] = fh.read()
        return out

    assert files(lake) == files(one)


def test_cdc_replay_upsert_runs_upstream_once_per_block(tmp_path, monkeypatch):
    """``q_cdc_replay_upsert`` takes the envelope schema from ``_to_cdc`` on
    an empty table, not from ``Dataset.schema()`` on the mapped events
    (which runs their first block once more), so each block of events is
    converted exactly once."""
    from airbyte_ray import driver_queries

    n = 1200
    rng = np.random.default_rng(5)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(1, n + 1), pa.int64()),
        "ts": pa.array(np.arange(n) * 1_000_000, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 200, n), pa.int64()),
        "event_type": pa.array(rng.choice(["view", "click", "error"], n)),
        "value": pa.array(rng.random(n)),
    }), tmp_path / "events.parquet", row_group_size=300)
    calls = tmp_path / "calls"
    calls.mkdir()
    to_cdc = driver_queries._to_cdc

    def counted(t: pa.Table) -> pa.Table:
        import uuid

        if t.num_rows:
            (calls / uuid.uuid4().hex).touch()
        return to_cdc(t)

    monkeypatch.setattr(driver_queries, "_to_cdc", counted)
    driver_queries._events(str(tmp_path)).map_batches(counted, batch_format="pyarrow").materialize()
    blocks = len(list(calls.iterdir()))
    for f in calls.iterdir():
        f.unlink()
    out = driver_queries.q_cdc_replay_upsert(str(tmp_path))
    assert blocks >= 1 and len(list(calls.iterdir())) == blocks
    assert out.num_rows > 0 and out["doc_id"].to_pandas().is_unique


def test_chunked_replay_survives_lsn_gap(fixtures, tmp_path):
    """A WAL gap wider than chunk_lsns (quiet period / shared log) must not
    hang the checkpointed loop: windows holding no events are skipped, not
    applied one empty window at a time."""
    base, events, ev_path, lake_dir = fixtures
    # shift the second half of the log past a gap of 50_000 LSNs
    lsn = events["lsn"].to_numpy()
    cut = int(np.median(lsn))
    shifted = pc.if_else(
        pc.greater(events["lsn"], cut),
        pc.add(events["lsn"], pa.scalar(50_000, pa.int64())),
        events["lsn"],
    )
    gapped = events.set_column(events.schema.get_field_index("lsn"), "lsn", shifted)
    gp = tmp_path / "gapped.parquet"
    pq.write_table(gapped, gp)

    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    stats = lake.apply_chunked(str(gp), chunk_lsns=800)  # gap >> chunk
    assert sum(s["applied_events"] for s in stats) > 0
    # the ~62 windows inside the gap cost no apply
    assert len(stats) < 50_000 // 800
    assert all(s["applied_events"] > 0 for s in stats)
    _assert_matches_oracle(lake, base, [gapped])


def test_lineage_invariants(fixtures):
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=8))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path)
    m = Manifest.load(lake_dir)
    # committed rows match the visible table
    assert m.lineage_rows() == lake.to_table().num_rows
    # runs cover contiguous, non-overlapping LSN ranges up to the watermark
    runs = m.runs
    assert runs[0]["prev_watermark"] == -1
    for a, b in zip(runs, runs[1:]):
        assert b["prev_watermark"] == a["watermark"]
    assert runs[-1]["watermark"] == m.watermark
    # every file referenced by the manifest exists; rows = physical rows
    for e in m.partitions.values():
        n = sum(pq.read_table(f"{lake_dir}/{p}").num_rows for p in e.all_paths)
        assert n == e.rows


def test_resume_after_crash_before_commit(fixtures, monkeypatch):
    """Kill/restart (F4): segments written but manifest not committed →
    resume re-applies from the committed watermark; identical final table.
    The crash is the manifest commit failing: a commit that never lands
    also never removes the files it would supersede."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    saved = Manifest.load(lake_dir)  # snapshot-only manifest

    def crash(self, lake_dir):
        raise RuntimeError("crash before commit")

    with monkeypatch.context() as mp:
        mp.setattr(Manifest, "commit", crash)
        with pytest.raises(RuntimeError, match="crash before commit"):
            lake.apply_log(ev_path)
    # the run's segments linger, invisible
    assert glob.glob(os.path.join(lake_dir, "part=*", f"seg-{saved.watermark + 1:014d}.parquet"))

    resumed = LakeTable(lake_dir)
    assert resumed.manifest.watermark == saved.watermark
    resumed.apply_log(ev_path)
    assert resumed.to_table().equals(replay_oracle(base, [events]))


def test_resume_after_crash_delta_mode(fixtures):
    """Crash-before-commit with DELTA applies: the orphaned delta file is
    invisible (manifest-only visibility), the resumed apply rewrites the
    same deterministic path, and the final table matches byte-exactly."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path)  # establish a base so deltas layer
    saved = Manifest.load(lake_dir)

    ev2 = gen.gen_events(400, N_BASE, seed=55, start_lsn=gen.next_lsn(events))
    import pyarrow.parquet as _pq

    p2 = f"{lake_dir}-ev2.parquet"
    _pq.write_table(ev2, p2)
    lake.apply_log(p2, delta=True)
    done = lake.to_table()

    saved.commit(lake_dir)  # crash: delta files on disk, commit rolled back
    resumed = LakeTable(lake_dir)
    assert resumed.to_table().equals(replay_oracle(base, [events]))  # delta invisible
    resumed.apply_log(p2, delta=True)
    assert resumed.to_table().equals(done)
    _assert_matches_oracle(resumed, base, [events, ev2])


def test_partition_aligned_apply(tmp_path, monkeypatch):
    """Key-partitioned (sharded-WAL) log → apply_partitioned matches the
    shuffled path and the oracle, in full and delta mode: both paths run
    the same merge kernel, so they write the same bytes and lineage.
    Misaligned input fails loudly, before its task writes: a task over a
    range of shards checks every shard in it first."""
    P = 4
    base = gen.gen_base(200, seed=31)
    pools = gen.partition_pools(200, P)
    new_pools = gen.partition_pools(4000, P, start=200)
    shards, all_events = [], []
    root = tmp_path / "walshards"
    for p in range(P):
        ev = gen.gen_events(
            400, 200, seed=40 + p, start_lsn=1 + 2000 * p,
            key_pool=pools[p], insert_pool=new_pools[p],
        )
        d = root / f"part={p:05d}"
        d.mkdir(parents=True)
        pq.write_table(ev, d / "chunk-0.parquet")
        all_events.append(ev)

    expected = replay_oracle(base, all_events)
    for delta in (False, True):
        a = LakeTable(str(tmp_path / f"lake_a{delta:d}"), ReplayConfig(num_partitions=P))
        a.init_snapshot(ray.data.from_arrow(base))
        stats = a.apply_partitioned(str(root), delta=delta)
        assert stats["applied_events"] > 0
        assert a.to_table().equals(expected)

        b = LakeTable(str(tmp_path / f"lake_b{delta:d}"), ReplayConfig(num_partitions=P))
        b.init_snapshot(ray.data.from_arrow(base))
        b.apply_log([str(root / f"part={p:05d}" / "chunk-0.parquet") for p in range(P)],
                    delta=delta)
        assert b.to_table().equals(a.to_table())

        # one merge kernel: both paths write byte-identical segment files
        # and commit equal partition lineage
        ma, mb = Manifest.load(a.lake_dir), Manifest.load(b.lake_dir)
        assert ma.watermark == mb.watermark
        assert set(ma.partitions) == set(mb.partitions)
        assert any(e.delta_paths for e in ma.partitions.values()) == delta
        for p, ea in ma.partitions.items():
            eb = mb.partitions[p]
            for f in ("paths", "delta_paths", "rows", "lsn_lo", "lsn_hi", "n_events",
                      "checksum"):
                assert getattr(ea, f) == getattr(eb, f), (p, f)
            for rel in ea.all_paths:
                with open(os.path.join(a.lake_dir, rel), "rb") as fa, \
                        open(os.path.join(b.lake_dir, rel), "rb") as fb:
                    assert fa.read() == fb.read(), f"segment bytes differ: {rel}"

    # misaligned: a shard containing wrong-partition keys must be rejected.
    # Shard 2 holds shard 3's events: their keys hash inside the same range
    # when all four shards are one task, so each shard is checked on its own
    for p in range(P):
        bad = tmp_path / "bad" / f"part={p:05d}"
        bad.mkdir(parents=True)
        pq.write_table(all_events[3 if p == 2 else p], bad / "chunk-0.parquet")
    for shape, bound, cpus in (("per_shard", 0, P), ("one_task", float("inf"), 1)):
        c = LakeTable(str(tmp_path / f"lake_c_{shape}"), ReplayConfig(num_partitions=P))
        with monkeypatch.context() as mp:
            mp.setattr(replay, "_one_task_rows", lambda: bound)
            mp.setattr(replay, "cluster_cpus", lambda: cpus)
            assert len(replay._cut(list(range(P)), [400] * P)) == (P if bound == 0 else 1)
            with pytest.raises(Exception, match="not aligned|other partitions"):
                c.apply_partitioned(str(tmp_path / "bad"))
        # ... before the bad shard's task wrote anything under the lake (one
        # task: nothing at all; one task per shard: the good shards' tasks
        # may have left uncommitted files, as a crash would)
        written = [f for _, _, fs in os.walk(c.lake_dir) for f in fs]
        assert Manifest.load(c.lake_dir) is None
        assert not (written if bound else [f for f in written if "part=00002" in f])


def test_fused_shard_apply_byte_equals_generic(tmp_path):
    """The default merge policy and an EXPLICIT (("lsn","descending"),)
    merge_policy must write byte-identical segment files.  Both go through
    the one resolve (``_resolve_partition`` ranks the events with the
    committed rows under the lake's policy); two applies cover old-absent
    and old-present merges, with dup deliveries + tombstones."""
    import os

    P = 4
    base = gen.gen_base(200, seed=61)
    pools = gen.partition_pools(200, P)
    new_pools = gen.partition_pools(4000, P, start=200)
    roots = []
    for run, lsn0 in ((0, 1), (1, 100_001)):
        root = tmp_path / f"wal{run}"
        for p in range(P):
            ev = gen.gen_events(
                400, 200, seed=70 + 10 * run + p, start_lsn=lsn0 + 2000 * p,
                dup_prob=0.05, key_pool=pools[p], insert_pool=new_pools[p],
            )
            d = root / f"part={p:05d}"
            d.mkdir(parents=True)
            pq.write_table(ev, d / "chunk-0.parquet")
        roots.append(str(root))

    fused = LakeTable(str(tmp_path / "lake_fused"), ReplayConfig(num_partitions=P))
    generic = LakeTable(
        str(tmp_path / "lake_generic"),
        ReplayConfig(num_partitions=P, merge_policy=(("lsn", "descending"),)),
    )
    for lake in (fused, generic):
        lake.init_snapshot(ray.data.from_arrow(base))
        for root in roots:
            lake.apply_partitioned(root)

    mf, mg = Manifest.load(fused.lake_dir), Manifest.load(generic.lake_dir)
    assert mf.watermark == mg.watermark
    assert set(mf.partitions) == set(mg.partitions)
    for p, ef in mf.partitions.items():
        eg = mg.partitions[p]
        assert ef.paths == eg.paths
        for rel in ef.paths:
            fa = os.path.join(fused.lake_dir, rel)
            fb = os.path.join(generic.lake_dir, rel)
            with open(fa, "rb") as a, open(fb, "rb") as b:
                assert a.read() == b.read(), f"segment bytes differ: {rel}"


def test_merge_policy_cursor_chain(tmp_path):
    """Pluggable MergePolicy (SURVEY §2.12): winner per key by
    (ts desc, lsn desc) — the reference's `cursor desc, _ab_cdc_updated_at
    desc, log_pos desc` ORDER BY chain — verified against a DuckDB
    row_number() oracle, across TWO applies so an old committed row can beat
    a later-lsn-but-older-cursor incoming change."""
    import duckdb

    rng = np.random.default_rng(9)
    n, keys = 2000, 300
    lsn = np.arange(1, n + 1, dtype=np.int64)
    doc = np.array([f"d{rng.integers(0, keys):04d}" for _ in range(n)], object)
    ts = rng.integers(0, 10_000, n).astype(np.int64)  # NOT aligned with lsn
    val = rng.integers(0, 1_000_000, n).astype(np.int64)
    t = pa.table({"lsn": lsn, "op": pa.array(["update"] * n),
                  "doc_id": pa.array(doc, pa.string()),
                  "ts": pa.array(ts), "val": pa.array(val)})
    cut = n // 2
    p1, p2 = tmp_path / "p1.parquet", tmp_path / "p2.parquet"
    pq.write_table(t.slice(0, cut), p1)
    pq.write_table(t.slice(cut), p2)

    lake = LakeTable(
        str(tmp_path / "lake"),
        ReplayConfig(num_partitions=4,
                     merge_policy=(("ts", "descending"), ("lsn", "descending"))),
    )
    lake.apply_log(str(p1))
    lake.apply_log(str(p2))
    got = lake.to_table()

    exp = duckdb.connect().execute(f"""
        SELECT doc_id, ts, val FROM (
          SELECT *, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY ts DESC, lsn DESC) rn
          FROM read_parquet(['{p1}', '{p2}'])) WHERE rn = 1
        ORDER BY doc_id
    """).arrow()
    assert got.select(["doc_id", "ts", "val"]).equals(
        exp.cast(got.select(["doc_id", "ts", "val"]).schema)
    )


#: merge policies: the explicit default, a payload column (tombstones carry
#: it null, so they rank last) and the reference's cursor chain
POLICIES = ((("lsn", "descending"),), (("n_tok", "descending"),),
            (("_ab_cdc_updated_at", "descending"), ("lsn", "descending")))


def test_delta_mode_under_merge_policy_matches_full(fixtures, tmp_path):
    """Delta mode takes any merge policy: merge-on-read ranks a partition's
    files under the lake's recorded policy, as the full rewrite does.  For
    each policy, over three windows with tombstones, a delta-mode lake's
    ``read()`` equals the full-mode lake's ``to_table()``, and its
    ``compact()`` gives the same rows."""
    base, events, ev_path, _ = fixtures
    windows = _epochs(events, tmp_path, 3)
    assert pc.sum(pc.equal(events["op"], "delete")).as_py() > 0
    oracle = replay_oracle(base, [events])
    for i, pol in enumerate(POLICIES):
        full = LakeTable(str(tmp_path / f"full{i}"),
                         ReplayConfig(num_partitions=4, merge_policy=pol))
        delta = LakeTable(str(tmp_path / f"delta{i}"),
                          ReplayConfig(num_partitions=4, delta_mode=True, merge_policy=pol))
        for lake in (full, delta):
            lake.init_snapshot(ray.data.from_arrow(base))
            for w in windows:
                lake.apply_log(w)
        assert all(len(e.delta_paths) == 3 for e in delta.manifest.partitions.values())
        want = full.to_table(payload_only=False)
        # the payload-column policy really picks other winners than max lsn
        assert full.to_table().equals(oracle) == (pol != (("n_tok", "descending"),))

        got = pa.concat_tables(ray.get(delta.read(payload_only=False).to_arrow_refs()))
        assert got.take(pc.sort_indices(got, sort_keys=[("doc_id", "ascending")])).equals(want)
        assert delta.compact() == 4
        assert LakeTable(delta.lake_dir).to_table(payload_only=False).equals(want)


def test_policy_winner_keeps_columns_the_window_lacks(tmp_path):
    """Under a custom merge policy a committed row that beats a later
    window's event survives whole — with the payload column and the
    ``_ab_cdc_updated_at`` the later window lacks (the kernel used to lift
    old rows into the window's event schema, and a winning old row came
    back with those columns null).  A third window lacks the policy column
    itself: it raises on the driver and writes nothing (its events would
    lose every comparison).  Full and delta mode."""
    ts_type = pa.timestamp("us", tz="UTC")
    t1 = pa.scalar(1_700_000_000_000_000, ts_type)
    w1 = pa.table({"lsn": pa.array([1, 2], pa.int64()), "op": ["insert", "insert"],
                   "doc_id": ["a", "b"], "ts": pa.array([10, 10], pa.int64()),
                   "extra": ["keep-a", "keep-b"],
                   "_ab_cdc_updated_at": pa.array([t1, t1], ts_type)})
    w2 = pa.table({"lsn": pa.array([3, 4], pa.int64()), "op": ["update", "update"],
                   "doc_id": ["a", "b"], "ts": pa.array([5, 20], pa.int64())})
    w3 = pa.table({"lsn": pa.array([5], pa.int64()), "op": ["update"], "doc_id": ["a"]})
    p1, p2, p3 = (tmp_path / f"w{i}.parquet" for i in (1, 2, 3))
    for w, p in ((w1, p1), (w2, p2), (w3, p3)):
        pq.write_table(w, p)
    for delta in (False, True):
        lake = LakeTable(str(tmp_path / f"lake{delta}"), ReplayConfig(
            num_partitions=2, delta_mode=delta, merge_policy=(("ts", "descending"),)))
        lake.apply_log(str(p1), delta=False)  # the base the window meets
        lake.apply_log(str(p2))
        before = Manifest.load(lake.lake_dir)
        files = sorted(glob.glob(os.path.join(lake.lake_dir, "part=*", "*")))
        with pytest.raises(ValueError, match="'ts'"):
            lake.apply_log(str(p3))
        assert Manifest.load(lake.lake_dir) == before
        assert sorted(glob.glob(os.path.join(lake.lake_dir, "part=*", "*"))) == files
        assert lake.manifest.watermark == 4
        got = lake.to_table(payload_only=False)
        assert got.select(["doc_id", "ts", "extra", "_ab_lsn"]).to_pylist() == [
            {"doc_id": "a", "ts": 10, "extra": "keep-a", "_ab_lsn": 1},  # old row won
            {"doc_id": "b", "ts": 20, "extra": None, "_ab_lsn": 4},
        ]
        assert got["_ab_cdc_updated_at"].to_pylist() == [t1.as_py(), None]
        _assert_read_matches_table(lake, payload_only=False)


def test_merge_policy_is_lake_state(tmp_path, capsys):
    """The lake records its merge policy at creation: a handle opened
    without a config (and so the CLI's ``apply``) ranks by it, a config
    naming another policy raises, and ``status`` prints it."""
    import json

    from airbyte_ray.cli import main as cli_main

    def window(path, lsn, ts):
        pq.write_table(pa.table({
            "lsn": pa.array([lsn, lsn + 1], pa.int64()), "op": ["update", "update"],
            "doc_id": ["a", "b"], "ts": pa.array([ts, ts], pa.int64())}), path)
        return str(path)

    lake_dir = str(tmp_path / "lake")
    pol = (("ts", "descending"),)
    LakeTable(lake_dir, ReplayConfig(num_partitions=2, merge_policy=pol)).apply_log(
        window(tmp_path / "w1.parquet", 1, 10))
    reopened = LakeTable(lake_dir)
    assert reopened.policy == (("ts", "descending"), ("lsn", "descending"))
    reopened.apply_log(window(tmp_path / "w2.parquet", 3, 5))  # both events lose
    assert reopened.to_table()["ts"].to_pylist() == [10, 10]
    assert cli_main(["apply", "--lake", lake_dir,
                     "--log", window(tmp_path / "w3.parquet", 5, 7)]) == 0
    capsys.readouterr()
    after = LakeTable(lake_dir)
    assert after.manifest.watermark == 6  # consumed, and still lost
    assert after.to_table()["ts"].to_pylist() == [10, 10]

    for other in ((("ts", "ascending"),), None):  # None: the default max-lsn
        with pytest.raises(ValueError, match="merge_policy is fixed"):
            LakeTable(lake_dir, ReplayConfig(num_partitions=2, merge_policy=other))
    # the same policy with its implied lsn tiebreaker spelled out opens
    LakeTable(lake_dir, ReplayConfig(num_partitions=2, merge_policy=pol + (("lsn", "descending"),)))

    assert cli_main(["status", "--lake", lake_dir]) == 0
    assert json.loads(capsys.readouterr().out)["merge_policy"] == [
        ["ts", "descending"], ["lsn", "descending"]]


def test_tombstone_under_policy_same_in_every_mode(tmp_path):
    """Under a policy not led by lsn a delete can outrank a later event of
    its key.  A tombstone removes what was written before it and is then
    gone, so a later, lower-ranked update lives again.  Full mode, delta
    mode (merge-on-read), delta mode then ``compact()`` and delta mode with
    auto-compaction all keep the same rows after every window."""
    def window(i, lsn, op, ts):
        p = str(tmp_path / f"w{i}.parquet")
        pq.write_table(pa.table({"lsn": pa.array([lsn], pa.int64()), "op": [op],
                                 "doc_id": ["k"], "ts": pa.array([ts], pa.int64())}), p)
        return p

    steps = [("insert", 10, [10]), ("delete", 100, []), ("update", 50, [50]),
             ("delete", 30, [50]), ("update", 40, [50]), ("delete", 200, []),
             ("update", 20, [20])]
    paths = [window(i, i + 1, op, ts) for i, (op, ts, _) in enumerate(steps)]
    pol = (("ts", "descending"),)
    for mode in ("full", "delta", "fold"):
        lake = LakeTable(str(tmp_path / mode), ReplayConfig(
            num_partitions=1, delta_mode=mode != "full", merge_policy=pol,
            auto_compact_deltas=2 if mode == "fold" else None))
        for p, (_, _, want) in zip(paths, steps):
            lake.apply_log(p)
            assert lake.to_table()["ts"].to_pylist() == want, (mode, p)
            _assert_read_matches_table(lake)
        (e,) = lake.manifest.partitions.values()
        folds = sum(r["auto_compacted"] for r in lake.manifest.runs)
        assert (len(e.delta_paths), folds) == {
            "full": (0, 0), "delta": (6, 0), "fold": (0, 2)}[mode]
        if mode == "delta":
            lake.compact()
            assert LakeTable(lake.lake_dir).to_table()["ts"].to_pylist() == [20]


def test_unrecorded_policy_takes_the_config_policy(tmp_path):
    """A manifest written before merge policies were recorded: reopened
    with the custom-policy config it was built with, it applies under that
    policy (the events that lose on it lose) and its next commit records
    the policy; reopened without a config, it ranks by max lsn."""
    import json

    def window(path, lsn, ts):
        pq.write_table(pa.table({
            "lsn": pa.array([lsn, lsn + 1], pa.int64()), "op": ["update", "update"],
            "doc_id": ["a", "b"], "ts": pa.array([ts, ts], pa.int64())}), path)
        return str(path)

    pol = (("ts", "descending"),)
    cfg = ReplayConfig(num_partitions=2, merge_policy=pol)
    for reopen in ("config", "none"):
        lake_dir = str(tmp_path / reopen)
        LakeTable(lake_dir, cfg).apply_log(window(tmp_path / "w1.parquet", 1, 10))
        mp = Manifest.path_for(lake_dir)
        with open(mp) as f:
            d = json.load(f)
        del d["merge_policy"]
        with open(mp, "w") as f:
            json.dump(d, f)
        assert Manifest.load(lake_dir).merge_policy is None

        lake = LakeTable(lake_dir, cfg if reopen == "config" else None)
        lake.apply_log(window(tmp_path / "w2.parquet", 3, 5))
        assert lake.manifest.watermark == 4
        if reopen == "config":
            assert lake.to_table()["ts"].to_pylist() == [10, 10]  # the events lost
            assert Manifest.load(lake_dir).merge_policy == [
                ["ts", "descending"], ["lsn", "descending"]]
            assert LakeTable(lake_dir).policy == (("ts", "descending"), ("lsn", "descending"))
        else:
            assert lake.to_table()["ts"].to_pylist() == [5, 5]  # max lsn won
            assert Manifest.load(lake_dir).merge_policy is None


def test_merge_policy_unknown_column_raises_before_write(tmp_path):
    """A policy column that is neither ``lsn`` nor a lake column raises on
    the driver, before any segment is written (it used to raise a KeyError
    inside a worker task)."""
    p = tmp_path / "e.parquet"
    pq.write_table(pa.table({"lsn": pa.array([1, 2], pa.int64()), "op": ["update", "update"],
                             "doc_id": ["a", "b"], "ts": pa.array([1, 2], pa.int64())}), p)
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=2, merge_policy=(("tss", "descending"),)))
    with pytest.raises(ValueError, match="tss") as err:
        lake.apply_log(str(p))
    assert not isinstance(err.value, ray.exceptions.RayTaskError)  # raised on the driver
    assert not os.path.exists(lake.lake_dir)


def test_vacuum_guards_inflight_removes_superseded(fixtures):
    """Vacuum removes superseded/orphaned segment files but SKIPS anything
    newer than the committed watermark — those may belong to an apply whose
    manifest commit hasn't landed (round-1 ADVICE fix)."""
    import os

    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path)  # supersedes the bootstrap block files

    wm = Manifest.load(lake_dir).watermark
    # simulate an in-flight run's segment (suffix = committed_wm + 1)
    inflight = os.path.join(lake_dir, "part=00000", f"seg-{wm + 1:014d}.parquet")
    pq.write_table(pa.table({"doc_id": ["x"], "_ab_lsn": pa.array([wm + 1], pa.int64())}), inflight)
    # and an old orphan from a crashed past run (suffix <= committed wm)
    orphan = os.path.join(lake_dir, "part=00000", f"seg-{max(wm - 5, 1):014d}.parquet")
    pq.write_table(pa.table({"doc_id": ["y"], "_ab_lsn": pa.array([1], pa.int64())}), orphan)

    before = lake.to_table()
    removed = lake.vacuum()
    # the apply's commit already removed the bootstrap files it superseded;
    # vacuum sweeps only the crash leftover
    assert removed == 1
    assert os.path.exists(inflight)  # in-flight segment survived
    assert not os.path.exists(orphan)
    assert lake.to_table().equals(before)  # committed view untouched
    os.remove(inflight)


def test_delta_then_full_apply_folds(fixtures, tmp_path):
    """A full-merge apply layered over existing deltas folds each touched
    partition back to one file and stays byte-exact."""
    base, events, ev_path, lake_dir = fixtures
    lsn = events["lsn"].to_numpy()
    cut = int(np.median(lsn))
    e1 = events.filter(pc.less_equal(events["lsn"], cut))
    e2 = events.filter(pc.greater(events["lsn"], cut))
    p1, p2 = tmp_path / "e1.parquet", tmp_path / "e2.parquet"
    pq.write_table(e1, p1)
    pq.write_table(e2, p2)

    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(str(p1), delta=True)
    lake.apply_log(str(p2), delta=False)  # full merge over layered deltas
    _assert_matches_oracle(lake, base, [events])
    m = Manifest.load(lake_dir)
    # every partition touched by the full apply folded to one base file
    for e in m.partitions.values():
        if not e.delta_paths:
            continue
        # untouched partitions may keep deltas; touched ones must not
        assert e.lsn_hi <= cut


def test_schema_evolution_under_delta_mode(fixtures, tmp_path):
    """v2 events (added columns, widened types) applied as DELTAS: resolve
    conforms every layered file to the unified schema — byte-exact vs the
    oracle."""
    base, events, ev_path, lake_dir = fixtures
    ev2 = gen.gen_events(400, N_BASE, seed=91, v2=True, start_lsn=gen.next_lsn(events))
    p2 = tmp_path / "v2.parquet"
    pq.write_table(ev2, p2)

    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path, delta=True)
    lake.apply_log(str(p2), delta=True)  # schema evolves inside the delta chain
    _assert_matches_oracle(lake, base, [events, ev2])
    # compaction of the evolved chain stays exact
    lake.compact()
    _assert_matches_oracle(LakeTable(lake_dir), base, [events, ev2])


def test_legacy_single_path_manifest_loads(fixtures):
    """Manifests written before multi-file PartitionEntry (a single 'path'
    string per partition) still load — the shim must pop 'path' BEFORE
    building the kwargs dict (advice finding: the old `{**v, ...v.pop()}`
    left 'path' in the dict and raised TypeError on every old lake)."""
    import json as _json
    import os as _os

    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(ev_path)  # merges every partition to one segment file
    before = lake.to_table()

    p = Manifest.path_for(lake_dir)
    with open(p) as f:
        d = _json.load(f)
    for v in d["partitions"].values():
        paths = v.pop("paths")
        assert len(paths) == 1
        v.pop("delta_paths")
        v["path"] = paths[0]  # the legacy single-file shape
    d["salt_factor"] = 2  # dropped field: old lakes stored it, load ignores it
    with open(p, "w") as f:
        _json.dump(d, f)

    m = Manifest.load(lake_dir)  # must not raise
    assert all(e.paths and not e.delta_paths for e in m.partitions.values())
    assert LakeTable(lake_dir).to_table().equals(before)


def test_compact_reloads_committed_manifest(fixtures, tmp_path):
    """A stale handle's compact() must observe the COMMITTED manifest (same
    discipline as vacuum): another process's newer commit would otherwise be
    clobbered and its segment files deleted (advice finding)."""
    base, events, ev_path, lake_dir = fixtures
    writer = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    writer.init_snapshot(ray.data.from_arrow(base))
    stale = LakeTable(lake_dir)  # snapshot-only view, now goes stale

    lsn = events["lsn"].to_numpy()
    cut = int(np.median(lsn))
    e1 = events.filter(pc.less_equal(events["lsn"], cut))
    e2 = events.filter(pc.greater(events["lsn"], cut))
    p1, p2 = tmp_path / "c1.parquet", tmp_path / "c2.parquet"
    pq.write_table(e1, p1)
    pq.write_table(e2, p2)
    writer.apply_log(str(p1), delta=True)
    writer.apply_log(str(p2), delta=True)  # newer commit w/ layered deltas

    n = stale.compact()  # stale handle — must reload before folding
    assert n > 0
    _assert_matches_oracle(LakeTable(lake_dir), base, [events])
    m = Manifest.load(lake_dir)
    assert m.watermark == int(lsn.max())  # newer commit's watermark survived
    assert all(len(e.all_paths) == 1 for e in m.partitions.values())


def test_cli_apply_chunk_delta(fixtures, tmp_path, capsys):
    """`apply --chunk N --delta` really writes delta files per window
    (advice finding: --delta was silently ignored on the chunked path)."""
    from airbyte_ray.cli import main as cli_main

    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    rc = cli_main(["apply", "--lake", lake_dir, "--log", ev_path,
                   "--chunk", "800", "--delta"])
    assert rc == 0
    m = Manifest.load(lake_dir)
    assert any(e.delta_paths for e in m.partitions.values())
    _assert_matches_oracle(LakeTable(lake_dir), base, [events])


def test_full_mode_leaves_only_listed_files(fixtures, tmp_path):
    """A full-mode apply removes the files it superseded once its commit
    lands: after several applies, with no ``vacuum()``, the lake dir holds
    exactly the files the manifest lists."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    for w in _epochs(events, tmp_path, 3):
        lake.apply_log(w)
        assert (set(glob.glob(os.path.join(lake_dir, "part=*", "*.parquet")))
                == set(lake.segment_paths()))
    _assert_matches_oracle(lake, base, [events])


def _epochs(events, tmp_path, n: int) -> list[str]:
    """``events`` cut into ``n`` consecutive lsn windows, one file each."""
    lsn = events["lsn"].to_numpy()
    cuts = np.quantile(lsn, np.linspace(0, 1, n + 1)).astype(np.int64)
    cuts[0] -= 1  # the first window holds the smallest lsn too
    paths = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        paths.append(str(tmp_path / f"ep{i}.parquet"))
        pq.write_table(events.filter(pc.and_(pc.greater(events["lsn"], int(lo)),
                                             pc.less_equal(events["lsn"], int(hi)))), paths[-1])
    return paths


def test_auto_compaction_bounds_delta_chain(fixtures, tmp_path):
    """With auto_compact_deltas=K, a long run of delta-mode applies never
    lets any partition's chain exceed K files: the apply that would grow a
    chain past K folds it instead.  A folded partition gets no delta file;
    its entry is one ``seg-<run>`` file with no deltas; the files it
    superseded are gone once the commit lands; the stats and the run record
    count the folds; the logical table stays oracle-exact."""
    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4,
                                            auto_compact_deltas=2))
    lake.init_snapshot(ray.data.from_arrow(base))

    folds = 0
    for p in _epochs(events, tmp_path, 6):  # 6 delta epochs, same key space
        before = Manifest.load(lake_dir)
        run = before.watermark + 1
        st = lake.apply_log(p, delta=True)
        m = Manifest.load(lake_dir)
        assert all(len(e.delta_paths) <= 2 for e in m.partitions.values())
        folded = [q for q, e in m.partitions.items()
                  if len(before.partitions[q].delta_paths) >= 2 and e != before.partitions[q]]
        assert st["auto_compacted"] == m.runs[-1]["auto_compacted"] == len(folded)
        for q in folded:
            e = m.partitions[q]
            assert (e.paths, e.delta_paths) == ([f"part={q:05d}/seg-{run:014d}.parquet"], [])
            assert not glob.glob(os.path.join(lake_dir, f"part={q:05d}", "delta-*"))
            assert not any(os.path.exists(os.path.join(lake_dir, f))
                           for f in before.partitions[q].all_paths)
        folds += len(folded)
    assert folds > 0
    assert len(m.runs) == 7  # the bootstrap + one commit per apply
    _assert_matches_oracle(lake, base, [events])


def test_auto_compaction_equals_delta_then_compact(fixtures, tmp_path):
    """The apply that folds writes what a delta apply followed by
    ``compact()`` writes: byte-identical segments and equal partition
    entries, all but the file name (``seg-<run>`` vs
    ``seg-<watermark+1>-compact``)."""
    import dataclasses
    import shutil

    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4, delta_mode=True,
                                            auto_compact_deltas=2))
    lake.init_snapshot(ray.data.from_arrow(base))
    *head, last = _epochs(events, tmp_path, 3)
    for p in head:
        assert lake.apply_log(p)["auto_compacted"] == 0
    copy = str(tmp_path / "copy")
    shutil.copytree(lake_dir, copy)

    # every partition holds 2 deltas and the window touches all of them
    assert lake.apply_log(last)["auto_compacted"] == 4
    plain = LakeTable(copy, ReplayConfig(num_partitions=4, delta_mode=True))
    plain.apply_log(last)
    assert plain.compact() == 4

    mf, mp = Manifest.load(lake_dir), Manifest.load(copy)
    assert (mf.watermark, mf.schema_b64) == (mp.watermark, mp.schema_b64)
    drop = ("sec", "auto_compacted")
    assert ({k: v for k, v in mf.runs[-1].items() if k not in drop}
            == {k: v for k, v in mp.runs[-1].items() if k not in drop})
    for q, ef in mf.partitions.items():
        ep = mp.partitions[q]
        assert dataclasses.replace(ef, paths=[]) == dataclasses.replace(ep, paths=[])
        assert ep.paths == [f"part={q:05d}/seg-{mp.watermark + 1:014d}-compact.parquet"]
        with open(os.path.join(lake_dir, ef.paths[0]), "rb") as f, \
                open(os.path.join(copy, ep.paths[0]), "rb") as g:
            assert f.read() == g.read(), q
    _assert_matches_oracle(lake, base, [events])


def test_auto_compaction_crash_before_removal(fixtures, tmp_path, monkeypatch):
    """A crash after the folding apply's commit, before it removed the
    files the fold superseded, loses nothing: ``read()`` matches the oracle
    and ``vacuum()`` sweeps exactly the leftovers."""
    from airbyte_ray.pipelines import replay

    base, events, ev_path, lake_dir = fixtures
    lake = LakeTable(lake_dir, ReplayConfig(num_partitions=4, delta_mode=True,
                                            auto_compact_deltas=1))
    lake.init_snapshot(ray.data.from_arrow(base))
    first, second = _epochs(events, tmp_path, 2)
    lake.apply_log(first)  # one delta per partition

    def crash(lake_dir, rels):
        raise RuntimeError("crash before removal")

    with monkeypatch.context() as mp:
        mp.setattr(replay, "_remove_files", crash)
        with pytest.raises(RuntimeError, match="crash before removal"):
            lake.apply_log(second)

    reopened = LakeTable(lake_dir)
    assert reopened.manifest.runs[-1]["auto_compacted"] > 0
    _assert_read_matches_table(reopened)
    _assert_matches_oracle(reopened, base, [events])
    listed = set(reopened.segment_paths())
    leftovers = set(glob.glob(os.path.join(lake_dir, "part=*", "*.parquet"))) - listed
    assert leftovers
    assert reopened.vacuum() == len(leftovers)
    assert set(glob.glob(os.path.join(lake_dir, "part=*", "*.parquet"))) == listed
    _assert_matches_oracle(reopened, base, [events])


def test_spill_with_custom_policy_and_redelivery(tmp_path):
    """A pluggable merge policy through the keyed exchange (the per-batch
    combiner and the partition merge both reduce under the SAME
    comparator) matches the DuckDB window oracle, and a full-log
    redelivery under that policy stays a no-op (exactly-once).  The name
    predates the removal of the spilling actor exchange."""
    import duckdb

    rng = np.random.default_rng(21)
    n, keys = 3000, 200
    lsn = np.arange(1, n + 1, dtype=np.int64)
    doc = np.array([f"d{rng.integers(0, keys):04d}" for _ in range(n)], object)
    ts = rng.integers(0, 10_000, n).astype(np.int64)
    val = rng.integers(0, 1_000_000, n).astype(np.int64)
    t = pa.table({"lsn": lsn, "op": pa.array(["update"] * n),
                  "doc_id": pa.array(doc, pa.string()),
                  "ts": pa.array(ts), "val": pa.array(val)})
    p = tmp_path / "pol.parquet"
    pq.write_table(t, p)

    lake = LakeTable(
        str(tmp_path / "lake_sp"),
        ReplayConfig(num_partitions=4,
                     merge_policy=(("ts", "descending"), ("lsn", "descending"))),
    )
    lake.apply_log(str(p))
    got = lake.to_table()
    exp = duckdb.connect().execute(f"""
        SELECT doc_id, ts, val FROM (
          SELECT *, row_number() OVER (PARTITION BY doc_id
                                       ORDER BY ts DESC, lsn DESC) rn
          FROM read_parquet('{p}')) WHERE rn = 1
        ORDER BY doc_id
    """).arrow()
    assert got.select(["doc_id", "ts", "val"]).equals(
        exp.cast(got.select(["doc_id", "ts", "val"]).schema))
    # redelivery: identical log again → zero applied events, table unchanged
    stats = lake.apply_log(str(p))
    assert stats["applied_events"] == 0
    assert lake.to_table().equals(got)


def test_read_order_does_not_depend_on_file_history(tmp_path):
    """Two lakes holding the same table through different file histories —
    a multi-file bootstrap plus a delta chain, and the same lake after
    ``compact()`` (one sorted file per partition) — ``read()`` in the same
    row order, so ``pack_sequences`` packs the same sequences from both."""
    from airbyte_ray.functions.pack import pack_sequences

    base = gen.gen_base(N_BASE, seed=31)
    ev = gen.gen_events(900, N_BASE, seed=32)
    blocks = [base.slice(i, 100) for i in range(0, N_BASE, 100)]
    lakes = [LakeTable(str(tmp_path / n), ReplayConfig(num_partitions=4, delta_mode=True))
             for n in ("chain", "compacted")]
    with pytest.MonkeyPatch.context() as mp:  # one bootstrap task (file) per block
        mp.setattr(replay, "_one_task_rows", lambda: 100)
        for lake in lakes:
            lake.init_snapshot(ray.data.from_arrow(blocks))
    for i, lo in enumerate(range(0, ev.num_rows, 300)):
        p = tmp_path / f"ev{i}.parquet"
        pq.write_table(ev.slice(lo, 300), p)
        for lake in lakes:
            lake.apply_log(str(p))
    assert lakes[1].compact() == 4
    chain, compacted = lakes
    assert any(len(e.paths) > 1 and e.delta_paths for e in chain.manifest.partitions.values())
    assert chain.to_table().equals(compacted.to_table())

    def rows(lake):
        return pa.concat_tables(lake.read().iter_batches(batch_format="pyarrow"))

    assert rows(chain).equals(rows(compacted))
    packs = [pa.concat_tables(pack_sequences(lake.read(), seq_len=64, eos=0)
                              .iter_batches(batch_format="pyarrow")) for lake in lakes]
    assert packs[0].num_rows > 0 and packs[0].equals(packs[1])
