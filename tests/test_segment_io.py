"""Segment I/O: the format every lake writer uses, lakes written in the
older format, and the window read of the change log.

* Every segment the lake lists — bootstrap, delta, full rewrite, fold,
  ``compact()`` — is zstd with no dictionary page.
* A lake whose files were written with ``pq.write_table``'s defaults
  (snappy + dictionary pages) keeps working: partitions that mix both
  encodings resolve to the rows, checksums and row counts of a lake
  written in the new format alone.
* The window task reads only the row groups the footer pass found meeting
  the lsn window and masks the bounds: it applies exactly the rows of a
  ``pq.read_table(f, filters=…)`` pushdown read, also when the window
  starts and ends inside row groups and a row group has no statistics."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from airbyte_ray import gen
from airbyte_ray.pipelines import replay
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
from airbyte_ray.schemas import conform_table
from airbyte_ray.sources.event_log import scan_event_log
from airbyte_ray.state.manifest import Manifest
from test_replay import _assert_matches_oracle, _epochs, fixtures  # noqa: F401

_DICT_ENCODINGS = {"PLAIN_DICTIONARY", "RLE_DICTIONARY"}


def _chunks(path: str):
    md = pq.ParquetFile(path).metadata
    return [md.row_group(g).column(c)
            for g in range(md.num_row_groups) for c in range(md.num_columns)]


def _assert_segment_format(lake: LakeTable) -> None:
    for path in lake.segment_paths():
        for col in _chunks(path):
            where = (os.path.relpath(path, lake.lake_dir), col.path_in_schema)
            assert col.compression == "ZSTD", where
            assert not col.has_dictionary_page, where
            assert not _DICT_ENCODINGS & set(col.encodings), where


def _plan(windows: list[str]) -> list[tuple[str, str | None]]:
    """A delta apply, a full rewrite, two more deltas, a fold (the lake's
    ``auto_compact_deltas`` is 2), a delta and ``compact()``."""
    kinds = ["delta", "full", "delta", "delta", "fold", "delta"]
    return list(zip(kinds, windows)) + [("compact", None)]


def _do(lake: LakeTable, kind: str, window: str | None) -> None:
    if kind == "compact":
        assert lake.compact() > 0
        return
    st = lake.apply_log(window, delta=kind != "full")
    assert (st["auto_compacted"] > 0) == (kind == "fold"), kind
    assert any(e.delta_paths for e in lake.manifest.partitions.values()) == (kind == "delta")


def _snapshot(base: pa.Table) -> ray.data.Dataset:
    """A three-block snapshot: partitions get several base files."""
    return ray.data.from_arrow([base.slice(0, 100), base.slice(100, 100), base.slice(200)])


def _lake(path: str) -> LakeTable:
    return LakeTable(path, ReplayConfig(num_partitions=4, delta_mode=True,
                                        auto_compact_deltas=2))


def test_every_segment_is_zstd_without_dictionary(fixtures, tmp_path):
    """Bootstrap, delta, full rewrite, fold and ``compact()`` all write
    zstd column chunks without a dictionary page, and the lake stays
    oracle-exact."""
    base, events, _, lake_dir = fixtures
    lake = _lake(lake_dir)
    lake.init_snapshot(_snapshot(base))
    _assert_segment_format(lake)
    for kind, window in _plan(_epochs(events, tmp_path, 6)):
        _do(lake, kind, window)
        _assert_segment_format(lake)
    _assert_matches_oracle(lake, base, [events])


def _write_old_format(lake: LakeTable, every: int = 1) -> int:
    """Rewrite every ``every``-th listed file (sorted by path) with
    ``pq.write_table``'s defaults — snappy with dictionary pages — keeping
    its rows.  Returns how many it rewrote."""
    paths = sorted(lake.segment_paths())[::every]
    for p in paths:
        pq.write_table(pq.ParquetFile(p).read(), p)
        assert {c.compression for c in _chunks(p)} == {"SNAPPY"}
        assert any(c.has_dictionary_page for c in _chunks(p))
    return len(paths)


def test_old_format_lake_keeps_working(fixtures, tmp_path, monkeypatch):
    """A bootstrapped lake whose files are rewritten in the older format
    (snappy + dictionary), and half of whose files are rewritten so again
    after every step, goes through a delta apply, a full rewrite, a fold
    and ``compact()``: after every step its rows equal those of the same
    steps on a lake written in the new format alone, as do every
    partition's ``rows`` and ``checksum``; at the end both equal the
    oracle."""
    base, events, _, _ = fixtures
    windows = _epochs(events, tmp_path, 6)
    new, old = _lake(str(tmp_path / "new")), _lake(str(tmp_path / "old"))
    with monkeypatch.context() as mp:  # one bootstrap task per block
        mp.setattr(replay, "_one_task_rows", lambda: 100)
        for lake in (new, old):
            lake.init_snapshot(_snapshot(base))
    assert _write_old_format(old) > 4  # several base files per partition

    def same(kind: str) -> None:
        assert old.to_table(payload_only=False).equals(new.to_table(payload_only=False)), kind
        mo, mn = Manifest.load(old.lake_dir), Manifest.load(new.lake_dir)
        assert {p: (e.rows, e.checksum) for p, e in mo.partitions.items()} == \
            {p: (e.rows, e.checksum) for p, e in mn.partitions.items()}, kind
        _write_old_format(old, every=2)  # the next step reads both encodings

    same("bootstrap")
    for kind, window in _plan(windows):
        for lake in (new, old):
            _do(lake, kind, window)
        same(kind)
    _assert_matches_oracle(old, base, [events])


def _split_wal(events: pa.Table, d) -> list[str]:
    """Write ``events`` (lsn ascending) as a change log of two files: the
    first ~60% in row groups of 150 rows with statistics, the rest as one
    row group written without statistics."""
    d.mkdir(parents=True, exist_ok=True)
    cut = events.num_rows * 3 // 5
    a, b = str(d / "wal-0.parquet"), str(d / "wal-1.parquet")
    pq.write_table(events.slice(0, cut), a, row_group_size=150)
    pq.write_table(events.slice(cut), b, write_statistics=False)
    assert pq.ParquetFile(a).metadata.num_row_groups > 2
    assert pq.ParquetFile(b).metadata.num_row_groups == 1 and not _has_lsn_stats(b, 0)
    return [a, b]


def _has_lsn_stats(f: str, group: int) -> bool:
    md = pq.ParquetFile(f).metadata
    leaf = [md.schema.column(i).path for i in range(md.num_columns)].index("lsn")
    return md.row_group(group).column(leaf).is_stats_set


def _windows(lsn: np.ndarray) -> list[tuple[int, int]]:
    """(min_lsn, max_lsn] windows whose bounds fall inside row groups:
    within the file with statistics, across both files, and within the
    row group without statistics."""
    at = lambda i: int(lsn[i])  # noqa: E731
    n = lsn.size
    return [(at(70), at(400)), (at(220), at(n - 90)), (at(n - 300), at(n - 40))]


def _applied_rows(monkeypatch, scan, targets, files=None, part=None) -> pa.Table:
    """The rows ``_apply_window`` hands to the router, run in-process; the
    routed table is emptied, so nothing is written."""
    seen = []
    real = replay._route

    def route(t, targets):
        seen.append(t)
        return real(t, targets).slice(0, 0)

    monkeypatch.setattr(replay, "_route", route)
    shards = None if part is None else [(part, files)]
    assert replay._apply_window._function(scan, targets, shards) == []
    (t,) = seen
    return t


def _pushdown(files: list[str], lo: int, hi: int, schema: pa.Schema) -> pa.Table:
    flt = [("lsn", ">", lo), ("lsn", "<=", hi)]
    return pa.concat_tables([conform_table(pq.read_table(f, filters=flt, partitioning=None),
                                           schema) for f in files])


def _row_bound(files: list[str], lo: int, hi: int) -> int:
    """Rows of the row groups whose lsn range meets (lo, hi] or that have
    no statistics — computed from the data, not the footers."""
    n = 0
    for f in files:
        pf = pq.ParquetFile(f)
        for g in range(pf.metadata.num_row_groups):
            lsn = pf.read_row_group(g, columns=["lsn"])["lsn"].to_numpy()
            meets = lsn.max() > lo and lsn.min() <= hi
            n += lsn.size if meets or not _has_lsn_stats(f, g) else 0
    return n


def test_window_read_matches_pushdown_read_apply_log(monkeypatch, tmp_path):
    """``apply_log``'s window task applies exactly the pushdown read's
    rows for windows that start and end inside row groups, one of them a
    row group without statistics; the footer pass's row groups bound the
    window; applying two such windows in turn matches the oracle."""
    base = gen.gen_base(200, seed=61)
    events = gen.gen_events(1200, 200, seed=62).sort_by("lsn")  # a WAL is lsn-ordered
    files = _split_wal(events, tmp_path / "wal")
    lsn = events["lsn"].to_numpy()
    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    for lo, hi in _windows(lsn):
        scan = scan_event_log(files, min_lsn=lo, max_lsn=hi)
        assert scan.rows == _row_bound(files, lo, hi)
        expected = _pushdown(files, lo, hi, scan.schema)
        assert 0 < expected.num_rows < scan.rows
        _, ctx = lake._plan_ctx(scan.schema, False)
        target = replay._Target(ctx, 4, None)
        assert _applied_rows(monkeypatch, scan, [target]).equals(expected)

    monkeypatch.undo()
    (lo1, hi1), (_, hi2) = _windows(lsn)[0], _windows(lsn)[2]
    lake.apply_log(files, max_lsn=lo1)
    lake.apply_log(files, max_lsn=hi1)  # starts at a watermark inside a row group
    assert lake.manifest.watermark == hi1
    lake.apply_log(files, max_lsn=hi2)  # ends inside the row group without statistics
    assert lake.manifest.watermark == hi2
    _assert_matches_oracle(lake, base, [events.filter(pc.less_equal(events["lsn"], hi2))])


def test_window_read_matches_pushdown_read_shard(monkeypatch, tmp_path):
    """The same for one shard of a key-partitioned log
    (``apply_partitioned``'s window task, given the shard's files and
    partition)."""
    P = 2
    base = gen.gen_base(200, seed=63)
    pools = gen.partition_pools(200, P)
    new_pools = gen.partition_pools(4000, P, start=200)
    events = gen.gen_events(1200, 200, seed=64, key_pool=pools[0],
                            insert_pool=new_pools[0]).sort_by("lsn")
    files = _split_wal(events, tmp_path / "wal" / "part=00000")
    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=P))
    lake.init_snapshot(ray.data.from_arrow(base))
    for lo, hi in _windows(events["lsn"].to_numpy()):
        scan = scan_event_log(files, min_lsn=lo, max_lsn=hi)
        expected = _pushdown(files, lo, hi, scan.schema)
        assert 0 < expected.num_rows < scan.rows
        _, ctx = lake._plan_ctx(scan.schema, False)
        target = replay._Target(ctx, P, None)
        assert _applied_rows(monkeypatch, scan, [target], files, 0).equals(expected)
