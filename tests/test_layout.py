"""Clustered lake layout and zone-map pruned range reads."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from airbyte_ray.functions.layout import (
    range_probed_files,
    read_range,
    write_clustered,
    zone_map,
)


def _vals_table(n: int = 4000, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.permutation(n).astype(np.float64)),
    })


def _tbl(ds) -> pa.Table:
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts).combine_chunks() if parts else pa.table({})


def test_clustered_zone_map_is_disjoint(tmp_path):
    t = _vals_table()
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=8)
    assert len(files) >= 4
    # a directory that already holds parquet files is refused
    with pytest.raises(ValueError, match="already holds parquet"):
        write_clustered(ray.data.from_arrow(t), str(tmp_path), "v")
    zm = sorted(((mn, mx) for _, mn, mx in zone_map(files, "v")))
    for (mn, mx), (mn2, _) in zip(zm, zm[1:]):
        assert mn <= mx < mn2  # disjoint, ordered ranges


def test_pruned_read_matches_filter_and_scans_subset(tmp_path):
    t = _vals_table()
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=8)
    lo, hi = 100.0, 500.0  # ~10% of [0, 4000)
    probed = range_probed_files(files, "v", lo, hi)
    assert 0 < len(probed) < len(files)  # strict subset — pruning is real
    got = _tbl(read_range(files, "v", lo, hi)).sort_by("k")
    ref = t.filter(pc.and_(pc.greater_equal(t["v"], lo),
                           pc.less_equal(t["v"], hi))).sort_by("k")
    assert got.equals(ref)
    # scan fraction tracks selectivity (± one boundary file per edge)
    sel = ref.num_rows / t.num_rows
    assert len(probed) / len(files) <= sel + 2 / len(files) + 1e-9


def test_unsorted_layout_cannot_prune(tmp_path):
    t = _vals_table()
    # same data, UNSORTED: every file spans ~the full value range
    ray.data.from_arrow(t).repartition(8).write_parquet(str(tmp_path))
    import glob

    files = sorted(glob.glob(os.path.join(str(tmp_path), "*.parquet")))
    probed = range_probed_files(files, "v", 100.0, 500.0)
    assert len(probed) == len(files)  # zone maps are useless without order
    # ...but results are still exact (residual filter does the work)
    got = _tbl(read_range(files, "v", 100.0, 500.0)).sort_by("k")
    ref = t.filter(pc.and_(pc.greater_equal(t["v"], 100.0),
                           pc.less_equal(t["v"], 500.0))).sort_by("k")
    assert got.equals(ref)


def test_empty_probe_returns_empty_with_schema(tmp_path):
    t = _vals_table(100)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v")
    out = read_range(files, "v", 10_000.0, 20_000.0)
    tbl = _tbl(out)
    assert tbl.num_rows == 0
    assert set(out.schema().names) == {"k", "v"}


def test_range_bounds_inclusive(tmp_path):
    t = pa.table({"k": pa.array([0, 1, 2], pa.int64()),
                  "v": pa.array([1.0, 2.0, 3.0])})
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v")
    got = _tbl(read_range(files, "v", 1.0, 2.0)).sort_by("k")
    assert got["v"].to_pylist() == [1.0, 2.0]


def test_columns_must_include_range_col(tmp_path):
    t = _vals_table(100)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v")
    with pytest.raises(ValueError):
        read_range(files, "v", 0.0, 1.0, columns=["k"])


# ---- Bloom sidecar point-lookup pruning -----------------------------------

def test_bloom_sidecar_point_lookup_prunes_and_is_exact(tmp_path):
    from airbyte_ray.functions.layout import (
        point_probed_files,
        read_points,
        write_bloom_sidecars,
    )

    t = _vals_table(4000)
    # cluster by v — so point lookups on k CANNOT use the zone map
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=8)
    write_bloom_sidecars(files, "k")
    keys = [17, 1017, 3999]
    probed = point_probed_files(files, "k", keys)
    assert 0 < len(probed) < len(files)  # bloom prunes what zone maps can't
    got = _tbl(read_points(files, "k", keys)).sort_by("k")
    assert got["k"].to_pylist() == sorted(keys)
    # values round-trip exactly
    ref = t.filter(pc.is_in(t["k"], value_set=pa.array(keys))).sort_by("k")
    assert got.equals(ref)


def test_bloom_sidecar_string_keys(tmp_path):
    from airbyte_ray.functions.layout import (
        point_probed_files,
        read_points,
        write_bloom_sidecars,
    )

    t = pa.table({
        "name": pa.array([f"user-{i}" for i in range(2000)]),
        "v": pa.array(np.arange(2000, dtype=np.float64)),
    })
    ray.data.from_arrow(t).repartition(8).write_parquet(str(tmp_path))
    import glob as _g

    files = sorted(_g.glob(os.path.join(str(tmp_path), "*.parquet")))
    write_bloom_sidecars(files, "name")
    got = _tbl(read_points(files, "name", ["user-7", "user-1999"]))
    assert sorted(got["name"].to_pylist()) == ["user-1999", "user-7"]
    probed = point_probed_files(files, "name", ["user-7"])
    assert len(probed) < len(files)


def test_missing_sidecar_is_never_skipped(tmp_path):
    from airbyte_ray.functions.layout import (
        _load_sidecar,
        _sidecar_path,
        point_probed_files,
        write_bloom_sidecars,
    )

    t = _vals_table(1000)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=4)
    write_bloom_sidecars(files, "k")
    os.remove(files[0] + ".bloom-k")
    probed = point_probed_files(files, "k", [-12345])  # absent key
    assert files[0] in probed  # stat-less file must still be scanned
    # exact for every layout: each other file is scanned iff its own Bloom
    # filter reports the absent key maybe-present (a false positive)
    karr = pa.array([-12345]).to_numpy(zero_copy_only=False)
    assert probed == [files[0]] + [
        f for f in files[1:]
        if _load_sidecar(_sidecar_path(f, "k"), "k").contains(karr).any()
    ]


def test_sidecar_wrong_column_raises(tmp_path):
    from airbyte_ray.functions.layout import (
        point_probed_files,
        write_bloom_sidecars,
    )

    t = _vals_table(100)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=2)
    write_bloom_sidecars(files, "k")
    # sidecars are column-qualified: a v-probe finds NO v-sidecars and
    # must scan everything rather than misuse the k filters
    assert point_probed_files(files, "v", [1.0]) == files
    # a renamed/mislabeled sidecar still fails loudly via the header check
    os.rename(files[0] + ".bloom-k", files[0] + ".bloom-v")
    with pytest.raises(ValueError):
        point_probed_files(files, "v", [1.0])


def test_compact_clustered_preserves_order_and_rows(tmp_path):
    from airbyte_ray.functions.layout import compact_clustered

    t = _vals_table(4000)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=16)
    before = _tbl(read_range(files, "v", 0.0, 4000.0)).sort_by("k")
    out = compact_clustered(str(tmp_path), "v", target_rows=1000)
    assert len(out) < len(files)  # actually merged something
    # zone map still disjoint and ordered
    zm = sorted((mn, mx) for _, mn, mx in zone_map(out, "v"))
    for (mn, mx), (mn2, _) in zip(zm, zm[1:]):
        assert mn <= mx < mn2
    after = _tbl(read_range(out, "v", 0.0, 4000.0)).sort_by("k")
    assert after.equals(before)  # byte-identical data
    # pruning still works at the same selectivity
    probed = range_probed_files(out, "v", 100.0, 500.0)
    assert 0 < len(probed) < len(out)
    # a second compaction merges groups made of the first run's outputs:
    # no output may land on an input's name and be deleted with it
    again = compact_clustered(str(tmp_path), "v", target_rows=2500)
    assert len(again) < len(out)
    assert not set(again) & set(out)
    assert _tbl(read_range(again, "v", 0.0, 4000.0)).sort_by("k").equals(before)


def test_compact_clustered_drops_stale_sidecars(tmp_path):
    from airbyte_ray.functions.layout import (
        compact_clustered,
        write_bloom_sidecars,
    )

    t = _vals_table(1000)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=8)
    write_bloom_sidecars(files, "k")
    compact_clustered(str(tmp_path), "v", target_rows=600)
    import glob as _g

    # no sidecar may describe a dead file
    for side in _g.glob(os.path.join(str(tmp_path), "*.bloom-*")):
        assert os.path.exists(side[: side.rindex(".bloom-")])


def test_point_lookup_after_compaction(tmp_path):
    """OPTIMIZE lifecycle: compact, rebuild sidecars, point lookups prune
    and stay exact — the full maintenance loop a long-lived lake runs."""
    from airbyte_ray.functions.layout import (
        compact_clustered,
        point_probed_files,
        read_points,
        write_bloom_sidecars,
    )

    t = _vals_table(3000)
    files = write_clustered(ray.data.from_arrow(t), str(tmp_path), "v",
                            num_files=12)
    write_bloom_sidecars(files, "k")
    keys = [5, 250, 2999]
    want = _tbl(read_points(files, "k", keys)).sort_by("k")

    out = compact_clustered(str(tmp_path), "v", target_rows=800)
    write_bloom_sidecars(out, "k")
    probed = point_probed_files(out, "k", keys)
    assert 0 < len(probed) <= len(out)
    got = _tbl(read_points(out, "k", keys)).sort_by("k")
    assert got.equals(want)
