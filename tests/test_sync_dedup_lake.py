"""The append_dedup destination of ``SyncEngine`` is a ``LakeTable`` at
``<dest>/<stream>``: a composite primary key, the exactly-once rerun after a
lost state commit, the envelope-name and old-state guards, the lake's own
``status``/``vacuum`` on it, and a guard that keeps the engine from growing
a second partitioned merge."""

import json
import logging
import os
import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from airbyte_ray.cli import main as cli_main
from airbyte_ray.config import StreamConfig
from airbyte_ray.pipelines.incremental import SyncEngine, StreamState
from airbyte_ray.pipelines.replay import LakeTable
from airbyte_ray.state.manifest import Manifest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "airbyte_ray")


def _cfg(pk=("pk",)) -> StreamConfig:
    return StreamConfig("s", "incremental", "append_dedup", cursor_field="cur",
                        primary_key=list(pk), num_partitions=4)


def _source(tmp_path, n: int, **extra) -> str:
    """Rows 0..n-1 with cursor ``cur`` = row number and key ``pk`` = row % 300."""
    t = pa.table({"pk": pa.array(np.arange(n) % 300, pa.int64()),
                  "cur": pa.array(np.arange(n, dtype=np.float64)), **extra})
    path = str(tmp_path / "s.parquet")
    pq.write_table(t, path)
    return path


def test_composite_key_matches_row_number_oracle(tmp_path):
    """A three-column key (two strings, one int) whose string parts collide
    under a plain separator join — ("a|b", "c") vs ("a", "b|c") — plus a
    null part, synced in two halves: the committed view is DuckDB's
    ``row_number() over (partition by a, b, k order by cur desc) = 1``."""
    rng = np.random.default_rng(7)
    pairs = [("a|b", "c"), ("a", "b|c"), ("a|b|c", ""), ("", "a|b|c"), ("a", None)]
    n = 600
    pick = rng.integers(0, len(pairs), n)
    src = pa.table({
        "a": pa.array([pairs[i][0] for i in pick], pa.string()),
        "b": pa.array([pairs[i][1] for i in pick], pa.string()),
        "k": pa.array(rng.integers(0, 3, n), pa.int64()),
        "cur": pa.array(rng.permutation(n).astype(np.float64)),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    path = str(tmp_path / "src.parquet")
    eng = SyncEngine(str(tmp_path / "dest"))
    cfg = _cfg(pk=["a", "b", "k"])
    pq.write_table(src.filter(pa.compute.less(src["cur"], n // 2)), path)
    eng.sync(cfg, path)
    pq.write_table(src, path)
    stats = eng.sync(cfg, path)

    cols = ["a", "b", "k", "cur", "v"]
    got = pa.Table.from_pylist(eng.read("s", dedup=True).take_all())
    assert "doc_id" not in got.schema.names  # the synthesized key stays internal
    got = got.select(cols).sort_by([(c, "ascending") for c in cols])
    exp = duckdb.connect().execute(f"""
        SELECT {", ".join(cols)} FROM (
          SELECT *, row_number() OVER (PARTITION BY a, b, k ORDER BY cur DESC) rn
          FROM read_parquet('{path}')) WHERE rn = 1
        ORDER BY {", ".join(cols)}""").arrow()
    assert exp.num_rows == len(pairs) * 3  # every key group is present
    assert got.equals(exp.cast(got.schema))
    assert stats["rows"] == exp.num_rows


def test_rerun_after_lost_state_commit_is_exactly_once(tmp_path, monkeypatch):
    """A sync whose lake commit landed but whose state commit was lost
    reruns with the same sync id, so the lake's ``lsn > watermark`` guard
    drops its rows: the watermark and the run count stay, and the cursor
    is the footer max of the lake's live files.  Each sync commits the
    manifest at most once, before the stream state."""
    eng = SyncEngine(str(tmp_path / "dest"))
    lake_dir = str(tmp_path / "dest" / "s")
    eng.sync(_cfg(), _source(tmp_path, 1000))
    state_path = StreamState(eng.state_dir, "s").path
    with open(state_path) as f:
        before = f.read()

    commits = []
    for cls in (Manifest, StreamState):
        def spy(self, *a, _orig=cls.commit, _name=cls.__name__):
            commits.append(_name)
            return _orig(self, *a)
        monkeypatch.setattr(cls, "commit", spy)
    src = _source(tmp_path, 2100)
    eng.sync(_cfg(), src)
    assert commits == ["Manifest", "StreamState"]
    m = Manifest.load(lake_dir)
    assert (m.watermark, len(m.runs)) == (2, 2)

    with open(state_path, "w") as f:  # the state commit of sync 2 is lost
        f.write(before)
    commits.clear()
    out = eng.sync(_cfg(), src)
    assert commits == ["StreamState"]  # the lake refused the rerun's rows
    m = Manifest.load(lake_dir)
    assert (m.watermark, len(m.runs)) == (2, 2)
    assert out["cursor"] == 2099.0 and out["rows"] == 300
    got = pa.Table.from_pylist(eng.read("s", dedup=True).take_all()).sort_by("pk")
    assert got["cur"].to_pylist() == [float(c) for c in range(1800, 2100)]


@pytest.mark.parametrize("col", ["lsn", "op", "part", "tgt",
                                 "_ab_cdc_updated_at", "_ab_cdc_lsn", "doc_id"])
def test_envelope_column_is_refused_before_any_write(tmp_path, col):
    """A source column named like a lake envelope column raises a
    ``ValueError`` naming it, before the destination holds a file."""
    path = _source(tmp_path, 50, **{col: pa.array(np.arange(50), pa.int64())})
    eng = SyncEngine(str(tmp_path / "dest"))
    with pytest.raises(ValueError, match=re.escape(repr(col))):
        eng.sync(_cfg(), path)
    assert not os.path.exists(tmp_path / "dest" / "s")


def test_doc_id_as_the_whole_primary_key_is_the_lake_key(tmp_path):
    """A ``doc_id`` column that is the whole primary key is the lake key
    itself: accepted, deduplicated and returned by the read."""
    t = pa.table({"doc_id": pa.array(["x", "y", "x"]), "cur": pa.array([1.0, 2.0, 3.0])})
    path = str(tmp_path / "s.parquet")
    pq.write_table(t, path)
    eng = SyncEngine(str(tmp_path / "dest"))
    eng.sync(_cfg(pk=["doc_id"]), path)
    got = pa.Table.from_pylist(eng.read("s", dedup=True).take_all()).sort_by("doc_id")
    assert got.select(["doc_id", "cur"]).to_pylist() == [
        {"doc_id": "x", "cur": 3.0}, {"doc_id": "y", "cur": 2.0}]


def test_state_from_the_old_dedup_layout_is_refused(tmp_path):
    """A stream state written by the per-partition dedup layout before the
    lake (it lists ``dedup_segments``) raises, on sync and on read, rather
    than reading as an empty lake."""
    eng = SyncEngine(str(tmp_path / "dest"))
    StreamState(eng.state_dir, "s").commit({
        "cursor": 10.0, "sync_id": 1, "runs": [], "dedup_num_partitions": 4,
        "dedup_segments": {"0": {"path": "part=00000/seg-00000001.parquet", "rows": 5}}})
    with pytest.raises(ValueError, match="fresh destination"):
        eng.sync(_cfg(), _source(tmp_path, 50))
    with pytest.raises(ValueError, match="fresh destination"):
        eng.read("s", dedup=True)


def test_status_and_vacuum_work_on_the_destination(tmp_path, capsys):
    """``status --lake <dest>/<stream>`` reads the destination's manifest and
    ``vacuum()`` finds nothing to sweep after two syncs."""
    eng = SyncEngine(str(tmp_path / "dest"))
    eng.sync(_cfg(), _source(tmp_path, 400))
    eng.sync(_cfg(), _source(tmp_path, 900))
    lake_dir = str(tmp_path / "dest" / "s")
    capsys.readouterr()
    assert cli_main(["status", "--lake", lake_dir]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs"] == 2 and out["last_run"]["watermark"] == 2
    assert out["rows"] == 300 and out["num_partitions"] == 4
    assert LakeTable(lake_dir).vacuum() == 0


def test_incremental_has_no_second_partitioned_merge():
    """The append_dedup destination writes through ``LakeTable``:
    ``pipelines/incremental.py`` shuffles nothing and writes no segment
    file itself, so ``replay._write_segment`` stays the only writer of
    keyed segments."""
    call = re.compile(r"groupby\(|pq\.write_table\(|replace_atomically\(")
    path = os.path.join(PKG, "pipelines", "incremental.py")
    with open(path) as fh:
        offenders = [n for n, line in enumerate(fh, 1) if call.search(line)]
    assert offenders == []
    with open(os.path.join(PKG, "pipelines", "replay.py")) as fh:
        assert call.search(fh.read())  # the guard still sees the real calls


def test_former_combiner_column_names_are_payload(tmp_path):
    """``n_src`` and ``lsn_seen`` named columns of the removed combiner, not
    envelope columns: a source column so named is payload like any other."""
    path = _source(tmp_path, 400, n_src=pa.array(np.arange(400), pa.int64()),
                   lsn_seen=pa.array(np.arange(400) * 2, pa.int64()))
    eng = SyncEngine(str(tmp_path / "dest"))
    eng.sync(_cfg(), path)
    got = pa.Table.from_pylist(eng.read("s", dedup=True).take_all()).sort_by("pk")
    latest = [k + 300 if k < 100 else k for k in range(300)]  # each key's last row
    assert got["n_src"].to_pylist() == latest
    assert got["lsn_seen"].to_pylist() == [2 * r for r in latest]


def test_pandas_metadata_source_syncs_without_schema_hash_warning(tmp_path, caplog):
    """Three syncs of a source written from pandas, whose file schemas carry
    pandas metadata, log no ``Failed to hash the schemas`` warning: Ray
    Data logs one each time it unifies schemas that carry such metadata."""
    eng = SyncEngine(str(tmp_path / "dest"))
    logger = logging.getLogger("ray.data")
    logger.addHandler(caplog.handler)
    try:
        for i in range(3):
            df = pd.DataFrame({"pk": np.arange(600) % 200,
                               "cur": np.arange(i * 600, (i + 1) * 600, dtype=np.float64)})
            src = tmp_path / f"src{i}"
            src.mkdir()
            for j in range(3):  # several files: several blocks to unify
                pq.write_table(pa.Table.from_pandas(df.iloc[j * 200:(j + 1) * 200]),
                               src / f"f{j}.parquet")
            assert pq.read_schema(src / "f0.parquet").pandas_metadata
            eng.sync(_cfg(), str(src))
    finally:
        logger.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if "Failed to hash the schemas" in r.getMessage()]
    got = pa.Table.from_pylist(eng.read("s", dedup=True).take_all())
    assert sorted(got["cur"].to_pylist()) == [float(c) for c in range(1600, 1800)]
