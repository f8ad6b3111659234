"""Small-size self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

Each workload runs at ``--size smoke`` and must emit every metric named in
BENCHMARK.json with its unit; a lake with a segment file removed must fail
the oracle gate; outside a full checkout the command must fail without a
result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _left_behind() -> list[str]:
    """Command lines of processes still running from a run's Ray session."""
    mark = os.path.join(ROOT, ".bench_tmp").encode()
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if mark in cmd:
            out.append(cmd.replace(b"\0", b" ").decode(errors="replace")[:200])
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_end_to_end_metric(workload):
    p = _run(workload, trace=0)
    assert p.returncode == 0, p.stderr[-3000:]
    assert _left_behind() == []
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, "stdout must carry only the result line"
    res = json.loads(lines[0])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    p = _run("cdc_tail", trace=1)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for name in ("event_log.plan_s", "replay.apply_s", "replay.compact_s", "replay.read_s",
                 "manifest.commit_s", "pack.pack_sequences_s", "replay.self_s"):
        assert m[name] > 0, name
    assert 0 < m["event_log.rowgroups_touched_frac"] < 1  # windows prune row groups
    trace = os.path.join(ROOT, ".bench_tmp", "traces", "cdc_tail-s3-t1.json")
    names = {s["name"].split(".")[0] for s in json.load(open(trace))["spans"]}
    assert {"replay", "event_log", "manifest", "pack", "bench"} <= names


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("bulk_aligned", trace=0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 << 20,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    yield
    ray.shutdown()


def test_oracle_gate_catches_a_missing_segment(ray_session, tmp_path):
    sys.path.insert(0, ROOT)
    from perfbench import inputs
    from perfbench.oracle import Oracle
    from perfbench.run import gate
    from perfbench.tracing import Tracer
    from perfbench.workloads import SEQ_LEN, Workload

    inp = inputs.ensure("unaligned_wal", "smoke", 5, str(tmp_path / "inputs"))
    wl = Workload("unaligned_wal", inp, Tracer())
    wl.iteration(str(tmp_path / "lake"))
    oracle = Oracle(inp.base, inp.logs, str(tmp_path / "duckdb"))
    try:
        assert gate(wl.stats, oracle, SEQ_LEN) == 0
        from airbyte_ray.pipelines.replay import LakeTable

        os.remove(LakeTable(wl.stats.last_lake).segment_paths()[0])
        assert gate(wl.stats, oracle, SEQ_LEN) == 1
    finally:
        oracle.close()
