"""Incremental snapshot (DBLog-style chunked backfill) — byte-exact
convergence against the sequential replay oracle under every interleaving
the algorithm must survive."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airbyte_ray import gen
from airbyte_ray.oracle import replay_oracle
from airbyte_ray.pipelines.backfill import backfill_chunk, incremental_snapshot
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
from airbyte_ray.state.manifest import Manifest

N_BASE = 300


def _filter_lsn(ev: pa.Table, lo: int, hi: int) -> pa.Table:
    return ev.filter(pc.and_(pc.greater(ev["lsn"], lo),
                             pc.less_equal(ev["lsn"], hi)))


def _state_at(base: pa.Table, ev: pa.Table, w: int) -> pa.Table:
    """Simulated LIVE source state at lsn ``w`` (payload, unique keys)."""
    return replay_oracle(base, [_filter_lsn(ev, -1, w)])


def _chunk_reader(base, ev, lake):
    """read_chunk closure honoring the DBLog contract: each call reads the
    CURRENT state (>= the watermark recorded just before the call)."""
    def read_chunk(lo, hi):
        t = _state_at(base, ev, max(lake.manifest.watermark, 0))
        keys = t["doc_id"]
        ok = pa.array([True] * t.num_rows)
        if lo is not None:
            ok = pc.and_(ok, pc.greater_equal(keys, lo))
        if hi is not None:
            ok = pc.and_(ok, pc.less(keys, hi))
        return t.filter(ok)
    return read_chunk


BOUNDS = [None, "doc-2", "doc-5", None]  # 3 lexicographic key chunks


def _setup(tmp_path, n_events=1500, seed=11):
    base = gen.gen_base(N_BASE, seed=seed)
    ev = gen.gen_events(n_events, N_BASE, seed=seed + 1)
    wal = str(tmp_path / "wal.parquet")
    pq.write_table(ev, wal)
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=4))
    return base, ev, wal, lake


def test_backfill_from_empty_lake_converges(tmp_path):
    base, ev, wal, lake = _setup(tmp_path)
    stats = incremental_snapshot(
        lake, wal, _chunk_reader(base, ev, lake), BOUNDS)
    assert len(stats) == 3
    assert lake.to_table().equals(replay_oracle(base, [ev]))
    # every chunk tailed to the same w_hi (static WAL), so later chunks
    # dropped nothing in-window
    assert stats[-1]["dropped_in_window"] == 0


def test_backfill_mid_stream_lake_converges(tmp_path):
    """The motivating case: the lake tailed the WAL first (no snapshot),
    then history is backfilled without stopping."""
    base, ev, wal, lake = _setup(tmp_path)
    half = int(pc.approximate_median(ev["lsn"]).as_py())
    lake.apply_log(wal, max_lsn=half)  # started mid-stream
    incremental_snapshot(lake, wal, _chunk_reader(base, ev, lake), BOUNDS)
    assert lake.to_table().equals(replay_oracle(base, [ev]))


def test_backfill_interleaved_with_growing_wal(tmp_path):
    """WAL grows between chunks — each chunk brackets its own window."""
    base = gen.gen_base(N_BASE, seed=5)
    ev = gen.gen_events(2000, N_BASE, seed=6)
    lsns = sorted(ev["lsn"].to_pylist())
    cuts = [lsns[len(lsns) // 3], lsns[2 * len(lsns) // 3], lsns[-1]]
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    pq.write_table(_filter_lsn(ev, -1, cuts[0]), str(wal_dir / "e0.parquet"))
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=4))
    reader = _chunk_reader(base, ev, lake)
    for i in range(3):
        backfill_chunk(lake, str(wal_dir),
                       reader(BOUNDS[i], BOUNDS[i + 1]))
        if i < 2:  # more WAL lands between chunks
            pq.write_table(_filter_lsn(ev, cuts[i], cuts[i + 1]),
                           str(wal_dir / f"e{i + 1}.parquet"))
    lake.apply_log(str(wal_dir))  # final tail
    assert lake.to_table().equals(replay_oracle(base, [ev]))


def test_deleted_key_never_resurrects(tmp_path):
    base = gen.gen_base(N_BASE, seed=11)
    ev = gen.gen_events(1500, N_BASE, seed=12)
    deleted = ev.filter(pc.equal(ev["op"], "delete"))["doc_id"].to_pylist()
    assert deleted  # fixture sanity
    wal = str(tmp_path / "wal.parquet")
    pq.write_table(ev, wal)
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=4))
    incremental_snapshot(lake, wal, _chunk_reader(base, ev, lake), BOUNDS)
    final = lake.to_table()
    oracle = replay_oracle(base, [ev])
    assert final.equals(oracle)
    gone = set(deleted) - set(oracle["doc_id"].to_pylist())
    assert gone  # at least one key ends deleted...
    assert not gone & set(final["doc_id"].to_pylist())  # ...and stays gone


def test_resume_skips_completed_chunks_and_rerun_is_noop(tmp_path):
    base, ev, wal, lake = _setup(tmp_path, seed=21)
    reader = _chunk_reader(base, ev, lake)
    # run only the first two chunks, as if the third crashed
    incremental_snapshot(lake, wal, reader, BOUNDS[:3])
    # cursor says 2 chunks done under these partial bounds; restart with the
    # FULL bounds list re-runs everything (bounds changed → no resume)...
    stats = incremental_snapshot(lake, wal, reader, BOUNDS)
    assert len(stats) == 3
    final = lake.to_table()
    assert final.equals(replay_oracle(base, [ev]))
    # ...and an identical re-run resumes past every chunk: zero work
    assert incremental_snapshot(lake, wal, reader, BOUNDS) == []
    # forcing a completed chunk to re-apply is byte-exact idempotent
    os.remove(os.path.join(lake.lake_dir, "_backfill.json"))
    incremental_snapshot(lake, wal, reader, BOUNDS)
    assert lake.to_table().equals(final)


def _backfill_row_wins_tie(tmp_path, delta_mode: bool) -> LakeTable:
    wal = str(tmp_path / "wal.parquet")
    pq.write_table(pa.table({"lsn": pa.array([1, 2], pa.int64()), "op": ["insert", "insert"],
                             "doc_id": ["a", "b"], "v": pa.array([1, 1], pa.int64())}), wal)
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=1, delta_mode=delta_mode))
    lake.apply_log(wal)  # b committed at _ab_lsn 2 == the watermark
    chunk = pa.table({"doc_id": ["b"], "v": pa.array([7], pa.int64())})
    assert backfill_chunk(lake, wal, chunk)["backfilled"] == 1
    assert lake.to_table(payload_only=False).select(["doc_id", "v", "_ab_lsn"]).to_pylist() == [
        {"doc_id": "a", "v": 1, "_ab_lsn": 1}, {"doc_id": "b", "v": 7, "_ab_lsn": 2}]
    return lake


def test_backfill_row_wins_tie_at_watermark(tmp_path):
    """A backfilled row is stamped at the watermark, so it ties under the
    merge policy with a row committed by the event at that lsn.  The newer
    write, the backfill, wins the tie."""
    _backfill_row_wins_tie(tmp_path, delta_mode=False)


def test_backfill_row_wins_tie_at_watermark_delta_mode(tmp_path):
    """The same tie on a delta-mode lake: the backfill is a delta file
    layered on the committed segment, and merge-on-read ranks it first."""
    lake = _backfill_row_wins_tie(tmp_path, delta_mode=True)
    (entry,) = lake.manifest.partitions.values()
    assert len(entry.delta_paths) == 1


def _listed_files(lake_dir: str) -> dict[str, bytes]:
    """The bytes of every file the committed manifest lists."""
    out = {}
    for e in Manifest.load(lake_dir).partitions.values():
        for rel in e.all_paths:
            with open(os.path.join(lake_dir, rel), "rb") as f:
                out[rel] = f.read()
    return out


def _assert_unchanged(lake_dir: str, listed: dict[str, bytes]) -> None:
    """No file in ``listed`` holds other bytes (a superseded one may be gone)."""
    for rel, data in listed.items():
        f = os.path.join(lake_dir, rel)
        if os.path.exists(f):
            with open(f, "rb") as fh:
                assert fh.read() == data, f"{rel} was rewritten in place"


@pytest.mark.parametrize("delta_mode", [False, True])
def test_commit_never_rewrites_a_listed_file(tmp_path, monkeypatch, delta_mode):
    """A backfill commit leaves the watermark where it was, yet the next
    commit still names new files: across backfill → backfill → compact() →
    tail no step changes the bytes of a file the commit before it listed,
    and a tail whose commit fails leaves the backfilled lake as it was."""
    base, ev, wal, _ = _setup(tmp_path)
    cfg = ReplayConfig(num_partitions=4, delta_mode=delta_mode)
    lake = LakeTable(str(tmp_path / "lake"), cfg)
    half = int(pc.approximate_median(ev["lsn"]).as_py())
    lake.apply_log(wal, max_lsn=half)
    reader = _chunk_reader(base, ev, lake)
    mid = sorted(base["doc_id"].to_pylist())[N_BASE // 2]
    for lo, hi in ((None, mid), (mid, None)):
        listed = _listed_files(lake.lake_dir)
        wm = lake.manifest.watermark  # an empty window: every chunk row applies
        assert backfill_chunk(lake, wal, reader(lo, hi), w_hi=wm, tail=False)["backfilled"]
        _assert_unchanged(lake.lake_dir, listed)
    listed = _listed_files(lake.lake_dir)
    assert (lake.compact() > 0) == delta_mode  # a full-mode lake is one file a partition
    _assert_unchanged(lake.lake_dir, listed)
    backfilled = lake.to_table(payload_only=False)

    def fail(*_):
        raise RuntimeError("crash before commit")

    listed = _listed_files(lake.lake_dir)
    with monkeypatch.context() as mp:
        mp.setattr(Manifest, "commit", fail)
        with pytest.raises(RuntimeError, match="crash"):
            lake.apply_log(wal)
    _assert_unchanged(lake.lake_dir, listed)
    lake = LakeTable(lake.lake_dir, cfg)  # the committed state
    assert lake.to_table(payload_only=False).equals(backfilled)
    lake.vacuum()  # the failed tail's files sit above the watermark
    lake.apply_log(wal)  # the rerun
    _assert_unchanged(lake.lake_dir, listed)
    assert lake.to_table().equals(replay_oracle(base, [ev]))


def test_backfill_follows_delta_mode(tmp_path):
    """A backfill chunk writes in the lake's mode: on a delta-mode lake its
    commit writes delta files (and folds a long chain, like any apply), and
    the lake converges to the same table as a full-mode lake."""
    keys = sorted(gen.gen_base(N_BASE, seed=11)["doc_id"].to_pylist())
    bounds = [None, keys[N_BASE // 3], keys[2 * N_BASE // 3], None]
    tables, chunk_files = [], {False: [], True: []}
    for delta_mode in (False, True):
        (tmp_path / str(delta_mode)).mkdir()
        base, ev, wal, _ = _setup(tmp_path / str(delta_mode))
        lake = LakeTable(str(tmp_path / str(delta_mode) / "lake"),
                         ReplayConfig(num_partitions=4, delta_mode=delta_mode,
                                      auto_compact_deltas=2 if delta_mode else None))
        lake.apply_log(wal, max_lsn=int(pc.approximate_median(ev["lsn"]).as_py()))
        apply_ds = lake._apply_ds

        def spy(*a, **kw):
            before = set(glob.glob(os.path.join(lake.lake_dir, "part=*", "*.parquet")))
            st = apply_ds(*a, **kw)
            after = set(glob.glob(os.path.join(lake.lake_dir, "part=*", "*.parquet")))
            chunk_files[delta_mode].append(sorted(os.path.basename(f) for f in after - before))
            return st

        lake._apply_ds = spy
        incremental_snapshot(lake, wal, _chunk_reader(base, ev, lake), bounds)
        tables.append(lake.to_table())
    assert tables[0].equals(tables[1])
    assert tables[1].equals(replay_oracle(base, [ev]))
    full, delta = chunk_files[False], chunk_files[True]
    assert len(full) == len(delta) == 3
    assert all(n.startswith("seg-") for fs in full for n in fs)
    # chunk 1 layers on one-file chains, the tail after it makes them two
    # long, so chunk 2 folds them
    assert delta[0] and all(n.startswith("delta-") for n in delta[0])
    assert delta[1] and all(n.startswith("seg-") for n in delta[1])


def test_out_of_range_chunk_raises(tmp_path):
    base, ev, wal, lake = _setup(tmp_path, seed=31)

    def bad_reader(lo, hi):
        return _state_at(base, ev, 0)  # whole table regardless of range

    with pytest.raises(ValueError, match="outside"):
        incremental_snapshot(lake, wal, bad_reader, [None, "doc-5", None])


def test_envelope_columns_in_chunk_raise(tmp_path):
    base, ev, wal, lake = _setup(tmp_path, seed=41)
    with pytest.raises(ValueError, match="payload-only"):
        backfill_chunk(lake, wal, ev.slice(0, 5))  # events carry lsn/op


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_backfill_property_any_chunking_any_interleave_converges(
    tmp_path_factory, data
):
    """Any chunk boundary set × any WAL-growth interleave converges to the
    sequential replay oracle byte for byte."""
    tmp_path = tmp_path_factory.mktemp("bf")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    base = gen.gen_base(120, seed=seed)
    ev = gen.gen_events(600, 120, seed=seed + 1)
    # random lexicographic chunk boundaries over the observed key space
    keys = sorted(set(base["doc_id"].to_pylist())
                  | set(ev["doc_id"].to_pylist()))
    n_cuts = data.draw(st.integers(0, 3), label="n_cuts")
    cuts = sorted(set(data.draw(
        st.lists(st.sampled_from(keys), min_size=n_cuts, max_size=n_cuts),
        label="cuts")))
    bounds = [None] + cuts + [None]
    # random WAL growth: split the log at random lsn points, one split
    # landing between each pair of chunks
    lsns = sorted(ev["lsn"].to_pylist())
    n_chunks = len(bounds) - 1
    grow = sorted(data.draw(
        st.lists(st.sampled_from(lsns), min_size=n_chunks, max_size=n_chunks),
        label="grow"))
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    pq.write_table(_filter_lsn(ev, -1, grow[0]), str(wal_dir / "e0.parquet"))
    lake = LakeTable(str(tmp_path / "lake"),
                     ReplayConfig(num_partitions=4))
    reader = _chunk_reader(base, ev, lake)
    for i in range(n_chunks):
        backfill_chunk(lake, str(wal_dir), reader(bounds[i], bounds[i + 1]))
        nxt = grow[i + 1] if i + 1 < n_chunks else lsns[-1]
        part = _filter_lsn(ev, grow[i], nxt)
        if part.num_rows:
            pq.write_table(part, str(wal_dir / f"e{i + 1}.parquet"))
    lake.apply_log(str(wal_dir))  # final tail
    assert lake.to_table().equals(replay_oracle(base, [ev]))
