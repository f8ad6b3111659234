"""The one atomic-commit helper (``state/atomic.py``): concurrent committers
of one manifest, a failed write, the IVF index marker, the lake's tmp sweep,
and a guard that keeps every rename and fsync in that module."""

import glob
import json
import os
import re
import sys
import threading
import time

import pytest
import ray.data

from airbyte_ray import gen
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
from airbyte_ray.state.atomic import commit_json, replace_atomically
from airbyte_ray.state.manifest import Manifest, PartitionEntry

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "airbyte_ray")


def test_two_committers_and_a_reader_never_tear_the_manifest(tmp_path):
    """Two threads commit one lake's manifest while a third loads it: no
    commit raises and every load parses.  With one shared ``.tmp`` name the
    writers renamed each other's tmp away (``FileNotFoundError``) and the
    reader loaded half-written JSON."""
    lake_dir = str(tmp_path / "lake")
    n_parts, n_commits = 64, 150

    def manifest(writer: int, i: int) -> Manifest:
        m = Manifest(n_parts, watermark=i, runs=[{"writer": writer, "i": i}] * 20)
        m.partitions = {p: PartitionEntry(p, [f"part={p:05d}/seg-{i:014d}.parquet"], [],
                                          100, 0, i, i, p * i) for p in range(n_parts)}
        return m

    manifest(0, 0).commit(lake_dir)
    errors, loads, done = [], [], threading.Event()

    def write(writer: int) -> None:
        for i in range(n_commits):
            try:
                manifest(writer, i).commit(lake_dir)
            except Exception as e:  # noqa: BLE001 — every failure is the finding
                errors.append(e)

    def read() -> None:
        while not done.is_set():
            try:
                loads.append(len(Manifest.load(lake_dir).partitions))
            except Exception as e:  # noqa: BLE001
                errors.append(e)

    writers = [threading.Thread(target=write, args=(w,)) for w in (1, 2)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=120)
        done.set()
        reader.join(timeout=30)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + [reader])
    assert errors == []
    assert loads and set(loads) == {n_parts}
    assert Manifest.load(lake_dir).runs[0]["i"] == n_commits - 1
    assert glob.glob(Manifest.path_for(lake_dir) + ".tmp*") == []


def test_failed_commit_leaves_previous_file_and_no_tmp(tmp_path):
    """A payload that fails to serialize midway: the committed file keeps
    its old bytes and the half-written tmp is removed."""
    path = str(tmp_path / "state.json")
    commit_json(path, {"cursor": 7, "runs": [1, 2, 3]})
    with open(path, "rb") as f:
        before = f.read()
    with pytest.raises(TypeError):
        commit_json(path, {"cursor": 8, "runs": [1, 2], "bad": object()})
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["state.json"]

    def half_then_fail(tmp: str) -> None:
        with open(tmp, "w") as f:
            f.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        replace_atomically(path, half_then_fail)
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["state.json"]


def test_build_ivf_index_writes_a_complete_meta(tmp_path, sf_dir):
    """``ivf_meta.json`` marks the index as built, so it must land whole,
    after the cells and centroids, with no tmp left behind."""
    from airbyte_ray.functions.ann import build_ivf_index

    root = str(tmp_path / "ivf")
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    c = build_ivf_index(ds, root, n_cells=4)
    with open(os.path.join(root, "ivf_meta.json")) as f:
        meta = json.load(f)
    assert meta == {"n_cells": 4, "dim": int(c.shape[1]), "col": "embedding", "id_col": "vec_id"}
    assert os.path.exists(os.path.join(root, "centroids.npy"))
    assert glob.glob(os.path.join(root, "*.tmp*")) == []


def test_vacuum_sweeps_stale_segment_and_manifest_tmps(tmp_path):
    """A crashed write leaves its tmp: ``vacuum()`` removes segment and
    manifest tmps older than an hour, counts them, and keeps fresh ones (a
    writer may be mid-write) and the committed lake."""
    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=2))
    lake.init_snapshot(ray.data.from_arrow(gen.gen_base(50, seed=3)))
    before = lake.to_table()
    seg_dir = os.path.join(lake.lake_dir, "part=00000")
    man = Manifest.path_for(lake.lake_dir)
    now = time.time()
    planted = {}
    for name, age in (("stale", 7200), ("fresh", 60)):
        for path in (os.path.join(seg_dir, f"seg-00000000000009.parquet.tmp-{age}-1"),
                     f"{man}.tmp-{age}-1"):
            with open(path, "wb") as f:
                f.write(b"partial")
            os.utime(path, (now - age, now - age))
            planted.setdefault(name, []).append(path)

    assert lake.vacuum() == 2
    assert not any(os.path.exists(p) for p in planted["stale"])
    assert all(os.path.exists(p) for p in planted["fresh"])
    assert lake.to_table().equals(before)


def test_rename_and_fsync_live_only_in_state_atomic():
    """Publishing a file is decided in one module: no other module in the
    package calls ``os.replace`` or ``os.fsync``."""
    call = re.compile(r"os\.(replace|fsync)\(")
    offenders = []
    for f in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True):
        if os.path.relpath(f, PKG) == os.path.join("state", "atomic.py"):
            continue
        with open(f) as fh:
            offenders += [f"{os.path.relpath(f, PKG)}:{n}" for n, line in enumerate(fh, 1)
                          if call.search(line)]
    assert offenders == []
    with open(os.path.join(PKG, "state", "atomic.py")) as fh:
        assert call.search(fh.read())  # the guard still sees the real calls
