"""Seeded benchmark inputs, generated with ``airbyte_ray.gen`` and cached on
disk by (workload, size, seed).

* ``bulk_aligned``: a base snapshot plus ``epochs`` key-partitioned change
  logs (``epoch-E/part=NNNNN/events.parquet``), each shard drawn from the
  engine's own partition pools so it lines up with the lake's partitions.
* ``unaligned_wal`` / ``cdc_tail``: a base snapshot plus ONE write-ahead
  log file in LSN order (local disorder within 32 rows) with bounded row
  groups, so an LSN window prunes the row groups outside it.

The same seed always yields byte-identical files; only the seed changes
between runs.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

#: per-workload input sizes; ``smoke`` keeps the benchmark's own tests fast
SIZES = {
    "full": {
        "bulk_aligned": {"base": 20_000, "epochs": 2, "events": 50_000, "parts": 16},
        "unaligned_wal": {"base": 20_000, "events": 30_000, "row_group": 7_500},
        "cdc_tail": {"base": 10_000, "windows": 4, "events": 3_000, "parts": 8},
    },
    "smoke": {
        "bulk_aligned": {"base": 500, "epochs": 2, "events": 1_600, "parts": 4},
        "unaligned_wal": {"base": 500, "events": 2_000, "row_group": 500},
        "cdc_tail": {"base": 500, "windows": 3, "events": 400, "parts": 4},
    },
}


@dataclass
class Inputs:
    base: str
    #: change-log inputs: epoch roots (bulk_aligned) or the single WAL file
    logs: list[str]
    #: tail window upper bounds (max lsn per window); empty for whole-log applies
    windows: list[int]
    #: LSN bound of the small warm-up apply on the WAL workloads
    warm_lsn: int | None
    #: bytes and rows of each entry of ``logs``
    log_bytes: list[int]
    log_rows: list[int]
    size: dict

    def all_files(self) -> list[str]:
        out = [self.base]
        for p in self.logs:
            if os.path.isdir(p):
                for d, _, fs in sorted(os.walk(p)):
                    out += [os.path.join(d, f) for f in sorted(fs)]
            else:
                out.append(p)
        return out


def _sub(seed: int, *keys: int) -> int:
    """Independent child seed for one generated piece."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


def _write_wal(path: str, n_events: int, n_base: int, seed: int, row_group: int) -> int:
    """One LSN-ordered WAL with local disorder; returns its row count."""
    import pyarrow.parquet as pq

    from airbyte_ray import gen

    t = gen.gen_events(n_events, n_base, seed=_sub(seed, 1), dup_prob=0.02)
    t = t.sort_by("lsn")
    rng = np.random.default_rng(_sub(seed, 2))
    t = t.take(np.argsort(np.arange(t.num_rows) + rng.integers(0, 32, t.num_rows),
                          kind="stable"))
    pq.write_table(t, path, row_group_size=row_group)
    return t.num_rows


def _window_bounds(path: str, rgs_per_window: int) -> list[int]:
    """Window upper bounds: the max lsn of every ``rgs_per_window``-th row
    group (from the footer), so each window covers whole row groups."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    col = [md.schema.column(i).path for i in range(md.num_columns)].index("lsn")
    hi = [md.row_group(r).column(col).statistics.max for r in range(md.num_row_groups)]
    run = np.maximum.accumulate(hi)
    return [int(run[r]) for r in range(rgs_per_window - 1, len(run), rgs_per_window)]


def _generate(workload: str, sz: dict, seed: int, out: str) -> dict:
    import pyarrow.parquet as pq

    from airbyte_ray import gen

    base = os.path.join(out, "base.parquet")
    pq.write_table(gen.gen_base(sz["base"], seed=_sub(seed, 0)), base)
    meta = {"windows": [], "warm_lsn": None}
    if workload == "bulk_aligned":
        P, E, n = sz["parts"], sz["epochs"], sz["events"]
        n_pp = n // P
        pools = gen.partition_pools(sz["base"], P)
        fresh = gen.partition_pools(E * n, P, start=sz["base"])  # insert keys
        span = 3 * n + 16  # gen_events advances lsn by 1..3 per event
        logs, rows = [], []
        for e in range(E):
            root = os.path.join(out, f"epoch-{e}")
            n_rows = 0
            for p in range(P):
                d = os.path.join(root, f"part={p:05d}")
                os.makedirs(d)
                t = gen.gen_events(
                    n_pp, sz["base"], seed=_sub(seed, 10, e, p),
                    start_lsn=1 + e * span + 3 * n_pp * p, dup_prob=0.02,
                    key_pool=pools[p], insert_pool=fresh[p][e * n_pp:(e + 1) * n_pp],
                )
                pq.write_table(t, os.path.join(d, "events.parquet"))
                n_rows += t.num_rows
            logs.append(root)
            rows.append(n_rows)
        meta.update(logs=logs, log_rows=rows)
    else:
        wal = os.path.join(out, "wal.parquet")
        if workload == "unaligned_wal":
            meta["log_rows"] = [_write_wal(wal, sz["events"], sz["base"], seed, sz["row_group"])]
            meta["warm_lsn"] = _window_bounds(wal, 1)[0]
        else:
            # two row groups per window: one window reads ~2 of 2*windows groups
            n = sz["windows"] * sz["events"]
            meta["log_rows"] = [_write_wal(wal, n, sz["base"], seed, sz["events"] // 2)]
            meta["windows"] = _window_bounds(wal, 2)[: sz["windows"]]
            meta["warm_lsn"] = meta["windows"][0]
        meta["logs"] = [wal]
    meta["log_bytes"] = [_dir_bytes(p) if os.path.isdir(p) else os.path.getsize(p)
                         for p in meta["logs"]]
    # names relative to the cache dir, so a moved checkout keeps its cache
    meta["logs"] = [os.path.relpath(p, out) for p in meta["logs"]]
    return meta


def ensure(workload: str, size: str, seed: int, cache_root: str) -> Inputs:
    """Load the cached inputs for (workload, size, seed), generating them on a miss."""
    sz = SIZES[size][workload]
    out = os.path.join(cache_root, f"{workload}-{size}-s{seed}")
    marker = os.path.join(out, "inputs.json")
    if not os.path.exists(marker):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        meta = _generate(workload, sz, seed, out)
        with open(marker + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(marker + ".tmp", marker)
    with open(marker) as f:
        meta = json.load(f)
    return Inputs(base=os.path.join(out, "base.parquet"),
                  logs=[os.path.join(out, p) for p in meta["logs"]], windows=meta["windows"],
                  warm_lsn=meta["warm_lsn"],
                  log_bytes=meta["log_bytes"], log_rows=meta["log_rows"], size=sz)
