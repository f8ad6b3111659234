"""Segment I/O: the format every lake writer uses, lakes written in the
older format, and the window read of the change log.

* Every segment the lake lists — bootstrap, delta, full rewrite, fold,
  ``compact()`` — is zstd with no dictionary page, its ``tokens`` lists
  packed into one BYTE_ARRAY column; a rerun into a fresh directory writes
  the same bytes.
* ``_write_segment`` → ``_read_segment`` returns its input for null,
  empty, sliced and multi-chunk lists of every integer and float width;
  lists holding a null element stay in list form.
* A lake whose files were written with ``pq.write_table``'s defaults
  (snappy + dictionary pages, lists in list form) keeps working:
  partitions that mix both encodings and both forms resolve to the rows,
  checksums and row counts of a lake written in the new format alone.
* The window task reads only the row groups the footer pass found meeting
  the lsn window and masks the bounds: it applies exactly the rows of a
  ``pq.read_table(f, filters=…)`` pushdown read, also when the window
  starts and ends inside row groups and a row group has no statistics.
  The router's sort and the window's mask leave rows already in order, or
  all inside the window, as they are, and route the same rows as a sort
  and a filter would."""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
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


def _tokens_form(path: str) -> str:
    """``packed`` when the file stores ``tokens`` as one BYTE_ARRAY column,
    ``list`` when it stores its nested-list levels."""
    leaves = {c.path_in_schema: c.physical_type for c in _chunks(path)}
    if leaves.get("tokens") == "BYTE_ARRAY":
        return "packed"
    assert "tokens.list.element" in leaves or "tokens.list.item" in leaves, leaves
    return "list"


def _assert_segment_format(lake: LakeTable) -> None:
    for path in lake.segment_paths():
        for col in _chunks(path):
            where = (os.path.relpath(path, lake.lake_dir), col.path_in_schema)
            assert col.compression == "ZSTD", where
            assert not col.has_dictionary_page, where
            assert not _DICT_ENCODINGS & set(col.encodings), where
        assert _tokens_form(path) == "packed", path


def _listed_bytes(lake: LakeTable) -> dict[str, bytes]:
    out = {}
    for path in lake.segment_paths():
        with open(path, "rb") as f:
            out[os.path.relpath(path, lake.lake_dir)] = f.read()
    return out


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
    zstd column chunks without a dictionary page, ``tokens`` packed into
    one BYTE_ARRAY chunk; the same steps on a second lake in a fresh
    directory write the same files, byte for byte; the lake stays
    oracle-exact."""
    base, events, _, lake_dir = fixtures
    lake, rerun = _lake(lake_dir), _lake(str(tmp_path / "rerun"))
    for each in (lake, rerun):
        each.init_snapshot(_snapshot(base))
    _assert_segment_format(lake)
    assert _listed_bytes(lake) == _listed_bytes(rerun)
    for kind, window in _plan(_epochs(events, tmp_path, 6)):
        for each in (lake, rerun):
            _do(each, kind, window)
        _assert_segment_format(lake)
        assert _listed_bytes(lake) == _listed_bytes(rerun), kind
    _assert_matches_oracle(lake, base, [events])


_WIDTHS = [pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(), pa.uint16(),
           pa.uint32(), pa.uint64(), pa.float16(), pa.float32(), pa.float64()]


def _lists(value_type: pa.DataType) -> pa.ListArray:
    """``[[0, 1], null, [], [2, 3, 4], [5, 6]]`` of ``value_type``, whose
    values child starts one value into its buffer."""
    values = pa.array(np.arange(-1, 7).astype(value_type.to_pandas_dtype()), value_type)
    return pa.ListArray.from_arrays(pa.array([0, 2, 2, 2, 5, 7], pa.int32()), values.slice(1),
                                    mask=pa.array([False, True, False, False, False]))


def _round_trip(tmp_path, name: str, col) -> tuple[pa.Table, pa.Table]:
    """``col`` as the ``v`` column of a segment written by
    ``_write_segment`` and read back by ``_read_segment``: (written, read)."""
    n = len(col)
    seg = pa.table({"doc_id": pa.array([f"d{i}" for i in range(n)], pa.string()), "v": col,
                    replay.LSN_COL: pa.array(np.arange(n), pa.int64())})
    replay._write_segment(str(tmp_path), 0, name, seg)
    return seg, replay._read_segment(str(tmp_path / name), seg.schema)


@pytest.mark.parametrize("value_type", _WIDTHS, ids=str)
def test_packed_lists_round_trip(tmp_path, value_type):
    """Null lists, empty lists, a values child with an offset, sliced and
    multi-chunk input, and ``large_list``: each is stored packed and reads
    back equal to what was written."""
    lists = _lists(value_type)
    cases = {"whole": lists, "sliced": lists.slice(1, 3), "no rows": lists.slice(5),
             "chunks": pa.chunked_array([lists.slice(0, 2), lists.slice(2, 0), lists.slice(2)]),
             "large": lists.cast(pa.large_list(value_type)), "all null": pa.array(
                 [None, None], pa.list_(value_type))}
    for name, col in cases.items():
        seg, back = _round_trip(tmp_path, f"{name}.parquet", col)
        assert back.equals(seg), name
        assert back.schema.field("v").type == seg.schema.field("v").type, name
        assert {c.path_in_schema: c.physical_type
                for c in _chunks(str(tmp_path / f"{name}.parquet"))}["v"] == "BYTE_ARRAY", name


def test_list_with_null_element_keeps_list_form(tmp_path):
    """A column whose lists hold a null element is written in list form
    and reads back equal; a packed column reads back under a widened
    schema as the cast of its rows."""
    col = pa.array([[1, None], [2], None], pa.list_(pa.int32()))
    seg, back = _round_trip(tmp_path, "null.parquet", col)
    assert back.equals(seg)
    assert "v.list.element" in {c.path_in_schema for c in _chunks(str(tmp_path / "null.parquet"))}

    seg, _ = _round_trip(tmp_path, "packed.parquet", _lists(pa.int32()))
    wide = pa.schema([f if f.name != "v" else pa.field("v", pa.list_(pa.int64()))
                      for f in seg.schema])
    back = replay._read_segment(str(tmp_path / "packed.parquet"), wide)
    assert back.equals(conform_table(seg, wide))


def test_big_endian_host_writes_list_form(tmp_path, monkeypatch):
    """Under a big-endian ``sys.byteorder`` the writer keeps the list form,
    and the reader still returns a packed file's rows."""
    _round_trip(tmp_path, "packed.parquet", _lists(pa.int32()))
    monkeypatch.setattr(sys, "byteorder", "big")
    seg, back = _round_trip(tmp_path, "list.parquet", _lists(pa.int32()))
    assert back.equals(seg)
    assert "v.list.element" in {c.path_in_schema for c in _chunks(str(tmp_path / "list.parquet"))}
    assert replay._read_segment(str(tmp_path / "packed.parquet"), seg.schema).equals(seg)


def _write_old_format(lake: LakeTable, every: int = 1) -> int:
    """Rewrite every ``every``-th listed file (sorted by path) with
    ``pq.write_table``'s defaults — snappy with dictionary pages, ``tokens``
    in list form — keeping its rows (decoded by ``_read_segment``).
    Returns how many it rewrote."""
    seg_schema = replay._seg_schema_of(lake.manifest.schema)
    deltas = {os.path.join(lake.lake_dir, p)
              for e in lake.manifest.partitions.values() for p in e.delta_paths}
    paths = sorted(lake.segment_paths())[::every]
    for p in paths:
        schema = seg_schema.append(pa.field(replay.DELETED_COL, pa.bool_())) \
            if p in deltas else seg_schema
        pq.write_table(replay._read_segment(p, schema), p)
        assert {c.compression for c in _chunks(p)} == {"SNAPPY"}
        assert any(c.has_dictionary_page for c in _chunks(p))
        assert _tokens_form(p) == "list"
    return len(paths)


def _mixes_forms(lake: LakeTable) -> bool:
    """Whether some partition lists files in both forms."""
    return any(len({_tokens_form(os.path.join(lake.lake_dir, p)) for p in e.all_paths}) == 2
               for e in lake.manifest.partitions.values())


def test_old_format_lake_keeps_working(fixtures, tmp_path, monkeypatch):
    """A bootstrapped lake whose files are rewritten in the older format
    (snappy + dictionary, lists in list form), and half of whose files are
    rewritten so again after every step, goes through a delta apply, a full
    rewrite, a fold and ``compact()``: after every step its rows equal those
    of the same steps on a lake written in the new format alone, as do
    every partition's ``rows`` and ``checksum``; at the end both equal the
    oracle.  Some steps read a partition whose files mix both forms."""
    base, events, _, _ = fixtures
    windows = _epochs(events, tmp_path, 6)
    new, old = _lake(str(tmp_path / "new")), _lake(str(tmp_path / "old"))
    with monkeypatch.context() as mp:  # one bootstrap task per block
        mp.setattr(replay, "_one_task_rows", lambda: 100)
        for lake in (new, old):
            lake.init_snapshot(_snapshot(base))
    assert _write_old_format(old) > 4  # several base files per partition
    mixed = []

    def same(kind: str) -> None:
        assert old.to_table(payload_only=False).equals(new.to_table(payload_only=False)), kind
        mo, mn = Manifest.load(old.lake_dir), Manifest.load(new.lake_dir)
        assert {p: (e.rows, e.checksum) for p, e in mo.partitions.items()} == \
            {p: (e.rows, e.checksum) for p, e in mn.partitions.items()}, kind
        _write_old_format(old, every=2)  # the next step reads both encodings
        mixed.append(_mixes_forms(old))

    same("bootstrap")
    for kind, window in _plan(windows):
        for lake in (new, old):
            _do(lake, kind, window)
        same(kind)
    assert any(mixed)
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


def _route_by_sort(t: pa.Table, targets) -> pa.Table:
    """The router with an unconditional stable sort by (tgt, part)."""
    subs = []
    for i, tg in enumerate(targets):
        sub = t.filter(pc.greater(t["lsn"], tg.min_lsn)) if tg.min_lsn is not None else t
        sub = sub.append_column("part", replay._part_of(sub["doc_id"], tg.num_partitions))
        subs.append(sub.append_column("tgt", pa.array(np.full(sub.num_rows, i, np.int64))))
    return pa.concat_tables(subs).sort_by([("tgt", "ascending"), ("part", "ascending")])


def test_route_sorts_only_out_of_order_rows():
    """Routed rows equal those of an unconditional stable sort for input in
    (tgt, part) order, out of it, and for two targets whose lsn filters cut
    into the window; input already in order comes back without a gather."""
    ev = gen.gen_events(600, 120, seed=71)
    one, two = replay._Target({}, 4, None), replay._Target({}, 3, int(ev["lsn"][300].as_py()))
    part = replay._part_of(ev["doc_id"], 4).to_numpy()
    in_order = ev.take(pa.array(np.argsort(part, kind="stable")))
    for t, targets in [(in_order, [one]), (ev, [one]), (in_order, [one, two]), (ev, [two, one]),
                       (ev.slice(0, 0), [one])]:
        assert replay._route(t, targets).equals(_route_by_sort(t, targets))
    routed = replay._route(in_order, [one])
    assert replay._by_key(routed) is routed


def test_window_mask_filters_only_when_rows_fall_outside(tmp_path):
    """``EventLogScan.table`` returns the rows a filter by the lsn bounds
    keeps, for a window holding every row of the file (nothing to mask), a
    window whose bounds straddle row groups, and a file whose rows are not
    in lsn order."""
    events = gen.gen_events(900, 150, seed=72).sort_by("lsn")
    shuffled = events.take(pa.array(np.random.default_rng(72).permutation(events.num_rows)))
    for name, t in [("sorted", events), ("shuffled", shuffled)]:
        f = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, f, row_group_size=200)
        lsn = np.sort(t["lsn"].to_numpy())
        for lo, hi in [(-1, None), (int(lsn[0]) - 1, int(lsn[-1])),
                       (int(lsn[130]), int(lsn[700]))]:
            scan = scan_event_log([f], min_lsn=lo, max_lsn=hi)
            keep = pc.greater(t["lsn"], lo)
            if hi is not None:
                keep = pc.and_(keep, pc.less_equal(t["lsn"], hi))
            assert scan.table([f]).equals(conform_table(t.filter(keep), scan.schema)), \
                (name, lo, hi)
