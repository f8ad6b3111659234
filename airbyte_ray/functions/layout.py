"""Clustered (sort-ordered) lake layout + zone-map pruned range reads.

At 100 TB the cheapest byte is the one never read: laying data out sorted
by the dominant filter column turns every parquet footer's min/max
statistics into a zone map, and a range query then opens ONLY the files
whose [min, max] overlaps the predicate — scan volume ∝ selectivity, not
corpus size.  This is the table-layout half of the pruning story the
engine already tells at the index level (``ann.ivf_probed_files``,
``dedup_index`` touched-shard probes, ``event_log.stat_minmax`` footer
watermarks — reference provenance for the *watermark* read:
airbyte-cdk/python state cursors; the layout operator itself is
brief-driven, no reference analog).

Scale shape
-----------

* **write_clustered** — ``Dataset.sort`` range-partitions blocks, so each
  written file covers a disjoint key range; no extra pass is needed to
  build the zone map — parquet row-group statistics ARE it.
* **zone_map / range_probed_files** — O(footers), no data scan; footer
  reads fan out as Ray tasks past ``FOOTER_FANOUT_THRESHOLD`` files
  (shared helper with the CDC watermark path).
* **read_range** — reads only the probed files (``ray.data.read_parquet``
  over the pruned list) and applies the residual inclusive-range filter
  in-task; ``range_probed_files`` returns the exact scan set so callers
  (and the bench) can count bytes.
"""

from __future__ import annotations

import glob
import os
import uuid
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..sources.event_log import _fanout_footers, _file_stat_minmax
from ..state.atomic import replace_atomically


def _files(path: str | list[str]) -> list[str]:
    if isinstance(path, list):
        return sorted(path)
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                                recursive=True))
    return [path]


def write_clustered(
    ds: ray.data.Dataset, out_dir: str, col: str,
    num_files: int | None = None,
) -> list[str]:
    """Write ``ds`` sorted by ``col`` — the sort range-partitions blocks,
    so each output file covers a disjoint ``col`` range and its parquet
    footer min/max is a tight zone-map entry.  ``num_files`` repartitions
    BEFORE the sort (the sort's range exchange re-balances; repartitioning
    after it would destroy the clustered order).  ``out_dir`` must hold no
    parquet files yet: stale ones would join the zone map unnoticed."""
    if os.path.isdir(out_dir) and _files(out_dir):
        raise ValueError(f"write_clustered: {out_dir} already holds parquet files")
    if num_files is not None:
        ds = ds.repartition(num_files)
    ds.sort(col).write_parquet(out_dir)
    return _files(out_dir)


def zone_map(path: str | list[str], col: str) -> list[tuple[str, object, object]]:
    """(file, min, max) of ``col`` per file from footer statistics —
    O(footers), fanned out as Ray tasks past the shared threshold.  Files
    with no statistics for ``col`` report (file, None, None) and must be
    treated as always-overlapping by pruning callers."""
    files = _files(path)
    stats = _fanout_footers(files, partial(_file_stat_minmax, col=col), list)
    return [(f, mn, mx) for f, (mn, mx) in zip(files, stats)]


def range_probed_files(
    path: str | list[str], col: str, lo, hi,
) -> list[str]:
    """The EXACT file scan set for the inclusive range ``[lo, hi]``: files
    whose zone-map entry overlaps, plus any file with missing statistics
    (never silently skip what can't be proven disjoint)."""
    return [
        f for f, mn, mx in zone_map(path, col)
        if mn is None or mx is None or (mn <= hi and mx >= lo)
    ]


def read_range(
    path: str | list[str], col: str, lo, hi,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Zone-map pruned inclusive range read: open ONLY
    :func:`range_probed_files`, then apply the residual
    ``lo <= col <= hi`` filter in-task (footer stats bound files, not
    rows).  An empty probe set returns an empty Dataset with the lake's
    real schema."""
    probed = range_probed_files(path, col, lo, hi)
    if columns is not None and col not in columns:
        raise ValueError(f"columns must include the range column {col!r}")
    if not probed:
        schema = pq.read_schema(_files(path)[0])
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        return ray.data.from_arrow(schema.empty_table())

    def residual(t: pa.Table) -> pa.Table:
        v = t[col]
        return t.filter(pc.and_(pc.greater_equal(v, lo),
                                pc.less_equal(v, hi)))

    return ray.data.read_parquet(probed, columns=columns).map_batches(
        residual, batch_format="pyarrow")


# ---- point-lookup pruning: per-file Bloom sidecars ------------------------
#
# Zone maps only prune on the SORT column; a point lookup on any other
# high-cardinality column (a key fetch, a targeted delete for compliance)
# would scan the whole lake.  A per-file Bloom sidecar at ~10 bits/key is
# a few KB per GB-scale file and bounds the scan to (true hit files + the
# fp_rate band) — the same definite-absent/maybe split as
# ``bloom.bloom_anti_join``, applied at FILE granularity.

def _sidecar_path(f: str, col: str) -> str:
    # column-qualified so sidecars for several lookup columns coexist on
    # one data file; the header still records the column as an integrity
    # check against renamed/corrupted sidecars
    return f"{f}.bloom-{col}"


def write_bloom_sidecars(
    path: str | list[str], col: str, fp_rate: float = 0.01,
) -> list[str]:
    """One Bloom sidecar per data file, built from that file's ``col``
    values (one Ray task per file — each task reads one column of one
    file).  Sidecar layout: one JSON header line ({n_bits, k, col}) then
    the raw filter bytes."""
    import json

    from .bloom import BloomFilter
    from .sketch import _key_np

    def build_one(f: str) -> str:
        t = pq.read_table(f, columns=[col])
        b = BloomFilter.sized(max(t.num_rows, 1), fp_rate)
        if t.num_rows:
            b.add(_key_np(t[col]))
        side = _sidecar_path(f, col)
        with open(side, "wb") as fh:
            fh.write(json.dumps(
                {"n_bits": b.n_bits, "k": b.k, "col": col}).encode() + b"\n")
            fh.write(b.bits.tobytes())
        return side

    files = _files(path)
    if len(files) <= 4 or not ray.is_initialized():
        return [build_one(f) for f in files]
    task = ray.remote(num_cpus=1)(build_one)
    return ray.get([task.remote(f) for f in files])


def _load_sidecar(side: str, col: str):
    import json

    from .bloom import BloomFilter

    with open(side, "rb") as fh:
        hdr = json.loads(fh.readline())
        if hdr["col"] != col:
            raise ValueError(
                f"sidecar {side} indexes column {hdr['col']!r}, not {col!r}")
        b = BloomFilter(hdr["n_bits"], hdr["k"])
        b.bits = np.frombuffer(fh.read(), np.uint8).copy()
        return b


def point_probed_files(
    path: str | list[str], col: str, keys: list,
) -> list[str]:
    """The file scan set for ``col IN keys``: files whose Bloom sidecar
    reports ANY key maybe-present, plus files with no sidecar (never
    silently skip what can't be proven absent).  Sidecars are KBs — this
    is a driver-side metadata pass, like the zone-map probe."""
    # same numpy representation as the build side's _key_np (strings must
    # hash as object dtype, not '<U'; pd.util.hash_array treats them
    # differently)
    karr = pa.array(keys).to_numpy(zero_copy_only=False)
    out = []
    for f in _files(path):
        side = _sidecar_path(f, col)
        if not os.path.exists(side):
            out.append(f)
            continue
        if _load_sidecar(side, col).contains(karr).any():
            out.append(f)
    return out


def read_points(
    path: str | list[str], col: str, keys: list,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Bloom-pruned point lookup: open only :func:`point_probed_files`,
    residual exact ``is_in`` filter in-task (the Bloom only prunes FILES;
    its false positives never reach the result)."""
    probed = point_probed_files(path, col, keys)
    if columns is not None and col not in columns:
        raise ValueError(f"columns must include the lookup column {col!r}")
    if not probed:
        schema = pq.read_schema(_files(path)[0])
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        return ray.data.from_arrow(schema.empty_table())
    kset = pa.array(keys)

    def residual(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[col], value_set=kset))

    return ray.data.read_parquet(probed, columns=columns).map_batches(
        residual, batch_format="pyarrow")


def compact_clustered(
    out_dir: str, col: str, target_rows: int = 2_000_000,
) -> list[str]:
    """OPTIMIZE for the clustered layout: merge ADJACENT small files (by
    zone-map order) into ~``target_rows`` files, preserving the sort so
    the zone map stays disjoint.  One Ray task per merge group; groups
    already at target are untouched (their bytes never move).  Bloom
    sidecars of merged files are deleted (they describe dead files) —
    re-run :func:`write_bloom_sidecars` afterwards if point-lookup
    pruning is needed."""
    if not os.path.isdir(out_dir):
        raise ValueError(f"compact_clustered needs a directory, got {out_dir}")
    zm = zone_map(out_dir, col)
    if any(mn is None for _, mn, _ in zm):
        raise ValueError(f"some files lack statistics for {col!r}")
    zm.sort(key=lambda e: e[1])
    rows = {f: pq.read_metadata(f).num_rows for f, _, _ in zm}

    groups: list[list[str]] = [[]]
    acc = 0
    for f, _, _ in zm:
        if groups[-1] and acc + rows[f] > target_rows:
            groups.append([])
            acc = 0
        groups[-1].append(f)
        acc += rows[f]

    # a per-run token keeps every output name distinct from every input,
    # earlier runs' outputs included: an output written over an input
    # would be deleted with it
    run = uuid.uuid4().hex[:12]

    def merge_one(fs: list[str], idx: int) -> str:
        t = pa.concat_tables([pq.read_table(f) for f in fs])
        t = t.take(pc.sort_indices(t[col]))
        out = os.path.join(out_dir, f"compact-{run}-{idx:05d}.parquet")
        replace_atomically(out, lambda tmp: pq.write_table(t, tmp))
        for f in fs:
            os.remove(f)
            for side in glob.glob(f + ".bloom-*"):
                os.remove(side)
        return out

    todo = [(g, i) for i, g in enumerate(groups) if len(g) > 1]
    if todo:
        if ray.is_initialized() and len(todo) > 2:
            task = ray.remote(num_cpus=1)(merge_one)
            ray.get([task.remote(g, i) for g, i in todo])
        else:
            for g, i in todo:
                merge_one(g, i)
    return _files(out_dir)
