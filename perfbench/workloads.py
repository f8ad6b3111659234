"""The benchmark's workloads, driven through the public API of ``airbyte_ray``.

One *iteration* builds a fresh lake and runs the workload's whole pipeline:

    init_snapshot(base) → apply(s) → compact() → read() → pack_sequences()

* ``bulk_aligned``: one ``apply_partitioned`` per sharded-WAL epoch; the
  zero-exchange fused apply, read and pack.
* ``unaligned_wal``: one ``apply_log`` over the whole WAL, default config;
  every event crosses the keyed exchange that ``bulk_aligned`` bypasses.
* ``cdc_tail``: one ``apply_log(max_lsn=…)`` per LSN window in delta mode
  with auto-compaction, each followed by a read-after-write; per-commit
  fixed cost, manifest, merge-on-read and compaction.

Every call is timed on its own (wall clock, machine-wide CPU and steal); the
iteration's pipeline time is the sum of its calls.  Bookkeeping between
calls (lake-dir listings, trace-only scans) stays outside those timers.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .procstat import cpu_times
from .tracing import Tracer

SEQ_LEN = 2048
EOS = 0


def _fingerprint_block(t: pa.Table) -> pa.Table:
    toks = pc.sum(pc.list_value_length(t["tokens"])).as_py() if t.num_rows else 0
    return pa.table({"rows": [t.num_rows], "tokens": [toks or 0]})


def _parquet_files(root: str) -> dict[str, tuple[int, int]]:
    out = {}
    for d, _, fs in os.walk(root):
        for f in fs:
            if f.endswith(".parquet"):
                st = os.stat(os.path.join(d, f))
                out[os.path.join(d, f)] = (st.st_size, st.st_mtime_ns)
    return out


def _rowgroups(files: list[str], lo: int, hi: int | None) -> tuple[int, int]:
    """(row groups whose lsn range meets (lo, hi], all row groups) from footers."""
    touched = total = 0
    for f in files:
        md = pq.read_metadata(f)
        col = [md.schema.column(i).path for i in range(md.num_columns)].index("lsn")
        for r in range(md.num_row_groups):
            st = md.row_group(r).column(col).statistics
            total += 1
            touched += st.max > lo and (hi is None or st.min <= hi)
    return touched, total


class OpFailed(Exception):
    """A timed call raised; the iteration is abandoned."""


@dataclass
class Iteration:
    """Samples of one measured iteration.  Times are wall seconds of the
    timed calls; CPU and steal are machine-wide seconds over the same calls."""
    pipeline_s: float
    traced: bool
    steal_s: float
    cpu_s: float
    commit_s: list[float]
    read_s: list[float]
    events: int
    apply_s: float
    #: bytes of lake files written ÷ change-log bytes applied
    write_amp: float
    bytes_written: int
    files_written: int
    lake_bytes: int


@dataclass
class Stats:
    """Samples over the measured iterations."""
    iterations: list[Iteration] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (watermark, rows, tokens) per read, for the oracle gate
    reads: list = field(default_factory=list)
    #: (watermark, packed tokens) per pack
    packs: list = field(default_factory=list)
    #: (rowgroups touched, total) over the trace-only scans
    rowgroups: list = field(default_factory=list)
    live_row_frac: float = 0.0
    manifest_bytes: int = 0
    last_lake: str | None = None
    last_watermark: int | None = None


class Workload:
    def __init__(self, name: str, inputs, tracer: Tracer) -> None:
        self.name = name
        self.inp = inputs
        self.tracer = tracer
        self.stats = Stats()

    def config(self):
        from airbyte_ray.pipelines.replay import ReplayConfig

        if self.name == "bulk_aligned":
            return ReplayConfig(num_partitions=self.inp.size["parts"])
        if self.name == "unaligned_wal":
            return ReplayConfig()
        return ReplayConfig(num_partitions=self.inp.size["parts"], delta_mode=True,
                            auto_compact_deltas=3)

    def _applies(self, warmup: bool) -> list[tuple]:
        """(call(lake), input files, max_lsn, input bytes or None) per apply;
        None bytes means the WAL share of the events the call applied."""
        inp = self.inp
        if self.name == "bulk_aligned":
            out = [((lambda lake, r=root: lake.apply_partitioned(r)),
                    sorted(os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs),
                    None, nbytes)
                   for root, nbytes in zip(inp.logs, inp.log_bytes)]
            return out[:1] if warmup else out
        wal = inp.logs[0]
        if warmup:
            return [(lambda lake: lake.apply_log(wal, max_lsn=inp.warm_lsn),
                     [wal], inp.warm_lsn, None)]
        if self.name == "unaligned_wal":
            return [(lambda lake: lake.apply_log(wal), [wal], None, inp.log_bytes[0])]
        return [((lambda lake, b=b: lake.apply_log(wal, max_lsn=b)), [wal], b, None)
                for b in inp.windows]

    # -- timed calls -------------------------------------------------------
    def _op(self, fn, record: bool):
        """(result, wall, machine-wide CPU and steal seconds) of one call."""
        t0, (c0, s0) = time.perf_counter(), cpu_times()
        if record:
            self.stats.attempted += 1
        try:
            out = fn()
        except Exception as e:
            if record:
                self.stats.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(str(e)) from e
        wall, (c1, s1) = time.perf_counter() - t0, cpu_times()
        return out, wall, c1 - c0, s1 - s0

    def _read(self, lake):
        with self.tracer.span("replay.read"):
            ds = lake.read().select_columns(["doc_id", "tokens"]).materialize()
            fp = ds.map_batches(_fingerprint_block, batch_format="pyarrow").take_all()
        return ds, (sum(r["rows"] for r in fp), sum(r["tokens"] for r in fp))

    def _pack(self, ds):
        from airbyte_ray.functions.pack import pack_sequences

        with self.tracer.span("pack.pack_sequences") as rec:
            packed = pack_sequences(ds, seq_len=SEQ_LEN, eos=EOS)
            n_tok = packed.sum("n_tok") or 0
            rec.update({"sequences": n_tok // SEQ_LEN, "tokens": n_tok})
        return n_tok

    def _scan(self, files, lo, hi) -> None:
        """Trace-only: a standalone scan of one apply's input window."""
        from airbyte_ray.sources.event_log import read_event_log

        with self.tracer.span("event_log.scan"):
            read_event_log(files, min_lsn=lo, max_lsn=hi).count()
        self.stats.rowgroups.append(_rowgroups(files, lo, hi))

    # -- one pass of the pipeline ------------------------------------------
    def iteration(self, lake_dir: str, warmup: bool = False) -> None:
        """Run the pipeline on a fresh lake; a measured (not warm-up)
        iteration appends its samples to ``self.stats``."""
        import ray.data
        from airbyte_ray.pipelines.replay import LakeTable

        rec = not warmup
        st = self.stats
        shutil.rmtree(lake_dir, ignore_errors=True)
        wall = cpu = steal = apply_s = 0.0
        events = written = files = 0
        input_bytes = 0.0
        commits, reads = [], []

        def timed(fn):
            nonlocal wall, cpu, steal
            out, dt, dc, ds = self._op(fn, rec)
            wall += dt
            cpu += dc
            steal += ds
            return out, dt

        def written_since(before):
            nonlocal written, files
            new = [s for p, s in _parquet_files(lake_dir).items() if before.get(p) != s]
            written += sum(s for s, _ in new)
            files += len(new)

        with self.tracer.span("bench.iteration"):
            def bootstrap():
                lake = LakeTable(lake_dir, self.config())
                lake.init_snapshot(ray.data.read_parquet(self.inp.base))
                return lake

            lake, _ = timed(bootstrap)
            for call, files_in, bound, nbytes in self._applies(warmup):
                before = _parquet_files(lake_dir)
                wm = lake.manifest.watermark
                out, dt = timed(lambda: call(lake))
                written_since(before)
                commits.append(dt)
                apply_s += dt
                events += out["applied_events"]
                input_bytes += nbytes if nbytes is not None else (
                    self.inp.log_bytes[0] * out["applied_events"] / self.inp.log_rows[0])
                if rec and self.tracer.enabled:
                    self._scan(files_in, wm, bound)
                if self.name == "cdc_tail":  # read-after-write
                    (_, fp), dt = timed(lambda: self._read(lake))
                    reads.append((dt, lake.manifest.watermark, fp))
            before = _parquet_files(lake_dir)
            timed(lake.compact)
            written_since(before)
            (ds, fp), dt = timed(lambda: self._read(lake))
            wm = lake.manifest.watermark
            reads.append((dt, wm, fp))
            n_tok, _ = timed(lambda: self._pack(ds))
        del ds
        if not rec:
            return
        st.iterations.append(Iteration(
            pipeline_s=wall, traced=self.tracer.enabled, steal_s=steal, cpu_s=cpu,
            commit_s=commits, read_s=[dt for dt, _, _ in reads], events=events,
            apply_s=apply_s, write_amp=written / input_bytes, bytes_written=written,
            files_written=files,
            lake_bytes=sum(os.path.getsize(p) for p in lake.segment_paths())))
        st.reads += [(w, *f) for _, w, f in reads]
        st.packs.append((wm, n_tok))
        st.live_row_frac = fp[0] / max(1, lake.manifest.lineage_rows())
        st.manifest_bytes = os.path.getsize(os.path.join(lake_dir, "_manifest",
                                                         "manifest.json"))
        st.last_lake, st.last_watermark = lake_dir, wm
