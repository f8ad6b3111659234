"""CDC-ingest benchmark for airbyte_ray.

    python3 perfbench/run.py --workload bulk_aligned --seed 1 --seconds 20 --trace 0

Runs one workload (see ``perfbench/workloads.py``) from the root of a
checkout: starts Ray and sets up the seeded inputs several times, measures whole
pipeline iterations for ``--seconds``, checks every read, every pack and
the final lake against a DuckDB oracle, and prints ONE JSON line on stdout:

    {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other iteration and reports the per-layer metrics instead.  Everything the
run writes stays under ``<checkout>/.bench_tmp``; host context (CPU counts,
steal, seed, tail percentile) goes to stderr and to
``.bench_tmp/results/``.  Exits non-zero if any call failed or any output
differed from the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk_aligned", "unaligned_wal", "cdc_tail")
SETUP_ROUNDS = 3
OBJECT_STORE_BYTES = 512 << 20
STEAL_FRAC = 0.1


def _nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency: the highest percentile with
    at least ten samples beyond it, or with a tenth of the samples beyond it
    while there are fewer than 110 (below that, "ten beyond" would fall under
    the median).  Nearest rank, so the value is always a measured sample."""
    s = sorted(samples)
    rank = len(s) - min(10, len(s) // 10)  # 1-based rank of the reported sample
    return s[rank - 1], 100.0 * rank / len(s)


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def undisturbed(iters: list) -> list:
    """The iterations during which the host stole less than a tenth of
    their wall time from this machine's CPUs; if fewer than half did, the
    half (rounded up) with the lowest steal rate.  A steal burst slows every
    process by more than the stolen share, so a disturbed iteration measures
    the host, not the program; steal comes from outside the program, so the
    choice favours no version of it."""
    calm = [i for i in iters if i.steal_s < STEAL_FRAC * i.pipeline_s]
    if 2 * len(calm) >= len(iters):
        return calm
    by_rate = sorted(iters, key=lambda i: i.steal_s / i.pipeline_s)
    return by_rate[: (len(iters) + 1) // 2]


def end_to_end(iters: list, setup_s: float, peak_rss_mb: float) -> dict:
    commits = [c for i in iters for c in i.commit_s]
    tail, _ = _tail(commits)
    return {
        "setup_s": _m(setup_s, "s"),
        "pipeline_s": _m(statistics.median(i.pipeline_s for i in iters), "s"),
        "events_per_s": _m(statistics.median(i.events / i.apply_s for i in iters), "events/s"),
        "cpu_s_per_Mevent": _m(statistics.median(i.cpu_s / i.events * 1e6 for i in iters), "s"),
        "commit_p50_s": _m(statistics.median(commits), "s"),
        "commit_tail_s": _m(tail, "s"),
        "read_p50_s": _m(statistics.median(r for i in iters for r in i.read_s), "s"),
        "peak_rss_mb": _m(peak_rss_mb, "MB"),
        "write_amp": _m(statistics.median(i.write_amp for i in iters), "ratio"),
        "lake_mb": _m(statistics.median(i.lake_bytes for i in iters) / 2**20, "MB"),
    }


def per_layer(tracer, st, ray_init_s: float) -> dict:
    """Per-layer figures from the traced iterations, per iteration."""
    spans = tracer.spans
    traced = [i for i in st.iterations if i.traced]
    untraced = undisturbed([i for i in st.iterations if not i.traced])
    n = max(1, len(traced))

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def total(names, key="wall_s"):
        return sum(s.get(key, 0) for s in pick(*names)) / n

    applies = ("replay.apply_partitioned", "replay.apply_log")
    self_by_layer: dict[str, float] = {}
    for s, t in zip(spans, tracer.self_times()):
        layer = s["name"].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t / n
    commits = [s["wall_s"] for s in pick("manifest.commit")]
    rg_touched = sum(t for t, _ in st.rowgroups)
    rg_total = sum(t for _, t in st.rowgroups)
    n_apply = len(pick(*applies))
    traced_p50 = statistics.median(i.pipeline_s for i in undisturbed(traced))
    out = {
        "ray.init_s": _m(ray_init_s, "s"),
        "event_log.plan_s": _m(total(["event_log.plan"]), "s"),
        "event_log.scan_s": _m(total(["event_log.scan"]), "s"),
        "event_log.rowgroups_touched_frac": _m(rg_touched / max(1, rg_total), "ratio"),
        "replay.init_snapshot_s": _m(total(["replay.init_snapshot"]), "s"),
        "replay.init_snapshot_cpu_s": _m(total(["replay.init_snapshot"], "cpu_s"), "s"),
        "replay.apply_s": _m(total(applies), "s"),
        "replay.apply_cpu_s": _m(total(applies, "cpu_s"), "s"),
        "replay.apply_events": _m(total(applies, "events"), "count"),
        "replay.apply_calls": _m(n_apply / n, "count"),
        "replay.partitions_touched": _m(
            sum(s["partitions"] for s in pick(*applies)) / max(1, n_apply), "count"),
        "replay.compact_s": _m(total(["replay.compact"]), "s"),
        "replay.compact_calls": _m(len(pick("replay.compact")) / n, "count"),
        "replay.compacted_partitions": _m(total(["replay.compact"], "partitions"), "count"),
        "replay.read_s": _m(total(["replay.read"]), "s"),
        "replay.bytes_written": _m(statistics.mean(i.bytes_written for i in traced), "bytes"),
        "replay.files_written": _m(statistics.mean(i.files_written for i in traced), "count"),
        "replay.live_row_frac": _m(st.live_row_frac, "ratio"),
        "manifest.commit_s": _m(sum(commits) / n, "s"),
        "manifest.commit_p50_s": _m(statistics.median(commits), "s"),
        "manifest.commits": _m(len(commits) / n, "count"),
        "manifest.load_s": _m(total(["manifest.load"]), "s"),
        "manifest.bytes": _m(st.manifest_bytes, "bytes"),
        "pack.pack_sequences_s": _m(total(["pack.pack_sequences"]), "s"),
        "pack.pack_sequences_cpu_s": _m(total(["pack.pack_sequences"], "cpu_s"), "s"),
        "pack.sequences": _m(total(["pack.pack_sequences"], "sequences"), "count"),
        "pack.tokens": _m(total(["pack.pack_sequences"], "tokens"), "count"),
        "trace.overhead_frac": _m(
            traced_p50 / statistics.median(i.pipeline_s for i in untraced) - 1.0, "ratio"),
    }
    for layer in ("replay", "event_log", "manifest", "pack", "bench"):
        out[f"{layer}.self_s"] = _m(self_by_layer.get(layer, 0.0), "s")
    return out


def gate(st, oracle, seq_len: int) -> int:
    """Check every read, every pack and the last lake against the oracle;
    returns the number of failed checks (details go to stderr)."""
    from airbyte_ray.pipelines.replay import LakeTable

    bad = 0
    fps: dict[int, tuple[int, int]] = {}
    sums: dict[int, tuple[int, int]] = {}
    for wm, rows, toks in st.reads:
        if wm not in fps:
            fps[wm] = oracle.fingerprint(wm)
        if (rows, toks) != fps[wm]:
            print(f"oracle: read at lsn {wm} gave {(rows, toks)}, want {fps[wm]}",
                  file=sys.stderr)
            bad += 1
    for wm, packed in st.packs:
        if wm not in sums:
            sums[wm] = oracle.n_tok_sum(wm)
        rows, n_tok = sums[wm]
        want = (n_tok + rows) // seq_len * seq_len  # every doc plus its EOS
        if packed != want:
            print(f"oracle: packed {packed} tokens at lsn {wm}, want {want}", file=sys.stderr)
            bad += 1
    if st.last_lake is not None:
        try:
            docs = oracle.mismatched_docs(LakeTable(st.last_lake).to_table(), st.last_watermark)
        except Exception as e:  # an unreadable lake fails the gate
            print(f"oracle: lake unreadable: {e!r}", file=sys.stderr)
            docs = 1
        if docs:
            print(f"oracle: {docs} doc_ids differ from the oracle", file=sys.stderr)
            bad += 1
    return bad


def _stop_children() -> None:
    from perfbench.procstat import stop_descendants

    killed = stop_descendants()
    if killed:
        print(f"killed processes left after ray.shutdown: {killed}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    # stdout carries only the result line: everything else, including what
    # Ray and native code print, goes to stderr
    out_fd = os.dup(1)
    os.dup2(2, 1)

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import airbyte_ray  # noqa: F401  (fails fast outside a full checkout)

    from perfbench import inputs as inputs_mod
    from perfbench.oracle import Oracle
    from perfbench.procstat import become_subreaper, cpu_times, rss_by_process
    from perfbench.tracing import Tracer
    from perfbench.workloads import SEQ_LEN, OpFailed, Workload

    # everything Ray starts stays a descendant of this process
    become_subreaper()

    work = os.path.join(ROOT, ".bench_tmp")
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    for d in (run_dir, os.path.join(work, "results"), os.path.join(work, "traces")):
        os.makedirs(d, exist_ok=True)
    ray_tmp = os.path.join(work, "ray")
    if len(ray_tmp) > 44:  # Ray's unix sockets live below it (107-byte limit)
        print(f"warning: {ray_tmp} too long for Ray sockets; using Ray's default",
              file=sys.stderr)
        ray_tmp = None

    import logging

    import ray

    from ray.data import DataContext

    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    nproc = _nproc()
    tracer = Tracer()
    try:
        rounds, inits = [], []
        for r in range(SETUP_ROUNDS):
            # every round starts Ray afresh: one ray.init alone varies by 2x
            # from start to start, so its share of set-up is the median of
            # whole rounds; the warm-up apply runs once, in the last session
            if r:
                ray.shutdown()
                _stop_children()
            t0 = time.perf_counter()
            ray.init(address="local", num_cpus=nproc, include_dashboard=False,
                     logging_level="ERROR", log_to_driver=False, _temp_dir=ray_tmp,
                     object_store_memory=OBJECT_STORE_BYTES)
            # ray.init installs a handler that aborts on SIGTERM; replace it
            # so a SIGTERM unwinds through the shutdown below
            signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
            inits.append(time.perf_counter() - t0)
            DataContext.get_current().enable_progress_bars = False
            inp = inputs_mod.ensure(args.workload, args.size, args.seed,
                                    os.path.join(work, "inputs"))
            for f in inp.all_files():  # page-cache warm-up
                with open(f, "rb") as fh:
                    while fh.read(1 << 22):
                        pass
            rounds.append(time.perf_counter() - t0)
        wl = Workload(args.workload, inp, tracer)
        t0 = time.perf_counter()
        wl.iteration(os.path.join(run_dir, "warmup"), warmup=True)
        warmup_s = time.perf_counter() - t0
        shutil.rmtree(os.path.join(run_dir, "warmup"), ignore_errors=True)
        setup_s = statistics.median(rounds) + warmup_s
        ray_init_s = statistics.median(inits)

        st = wl.stats
        busy0, steal0 = cpu_times()
        t_start = time.perf_counter()
        it = 0
        with tracer.patched():
            while True:
                # traced runs alternate traced/untraced iterations: the
                # untraced ones measure the tracing overhead
                tracer.enabled = bool(args.trace) and it % 2 == 0
                tracer.run_id = it
                lake_dir = os.path.join(run_dir, f"lake-{it}")
                gc.collect()  # outside the timers, so no collection lands inside one
                try:
                    wl.iteration(lake_dir)
                except OpFailed:
                    pass
                if st.last_lake != lake_dir:
                    shutil.rmtree(lake_dir, ignore_errors=True)
                elif it > 0:  # keep only the newest lake for the gate
                    shutil.rmtree(os.path.join(run_dir, f"lake-{it - 1}"), ignore_errors=True)
                it += 1
                elapsed = time.perf_counter() - t_start
                enough = it >= (2 if args.trace else 1)
                # start another iteration while at least half of one still
                # fits, so the measured time centres on --seconds
                if enough and elapsed + 0.5 * elapsed / it > args.seconds:
                    break
                if it >= 1000:
                    break
        tracer.enabled = False
        measured_s = time.perf_counter() - t_start
        busy1, steal1 = cpu_times()
        rss = rss_by_process()

        t_gate = time.perf_counter()
        log_files = [f for f in inp.all_files() if f != inp.base]
        oracle = Oracle(inp.base, log_files, os.path.join(work, "duckdb"))
        try:
            st.failed += gate(st, oracle, SEQ_LEN)
        finally:
            oracle.close()
        gate_s = time.perf_counter() - t_gate
    finally:
        t_down = time.perf_counter()
        ray.shutdown()
        _stop_children()
        shutdown_s = time.perf_counter() - t_down
        shutil.rmtree(run_dir, ignore_errors=True)

    iters = st.iterations
    ok = st.failed == 0 and bool(iters)
    metrics = {}
    if iters:
        metrics = (per_layer(tracer, st, ray_init_s) if args.trace
                   else end_to_end(undisturbed(iters), setup_s, max(rss.values())))
    commits = [c for i in undisturbed(iters) for c in i.commit_s] if iters else []
    tail, pct = _tail(commits) if commits else (0.0, 0.0)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "num_cpus": nproc, "nproc": nproc,
        "cpu_count": os.cpu_count(), "steal_s": steal1 - steal0,
        "busy_s": busy1 - busy0, "measured_s": measured_s, "iterations": it,
        "disturbed_iterations": len(iters) - len(undisturbed(iters)) if iters else 0,
        "setup_rounds_s": rounds, "warmup_s": warmup_s, "ray_init_s": inits, "gate_s": gate_s,
        "shutdown_s": shutdown_s, "rss_by_process_mb": rss,
        "commit_samples": len(commits), "commit_tail_percentile": pct,
        "commit_tail_s": tail,
        "pipeline_samples": [i.pipeline_s for i in iters],
        "steal_samples": [i.steal_s for i in iters],
        "events": [i.events for i in iters],
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(work, "results", f"{tag}.json"), "w") as f:
        json.dump({"context": context, "metrics": metrics}, f, indent=1)
    if args.trace:
        tracer.dump(os.path.join(work, "traces", f"{tag}.json"), context)
    print("context: " + json.dumps(context), file=sys.stderr)

    result = {"correct": ok, "attempted": max(1, st.attempted), "failed": st.failed,
              "metrics": metrics}
    os.write(out_fd, (json.dumps(result) + "\n").encode())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
