"""Both apply plans — one window task for a small window, the keyed exchange
(route tasks → merge tasks) for a large one — against the replay oracles,
for ``apply_log``, Dataset input and shared-WAL ``sync_shared`` (one
planner serves them all).

The fixtures of those tests are small, so under the real threshold every
window runs as one task.  This module collects the tests again with the
plan forced by monkeypatching the threshold: ``one_task`` (threshold ∞) and
``exchange`` (threshold 0).  It also pins what the run record says about the
plan."""

import json

import pyarrow.parquet as pq
import pytest
import ray.data

from airbyte_ray import gen
from airbyte_ray.pipelines import replay
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
from airbyte_ray.state.manifest import Manifest

# collected here a second time, once per forced plan (see forced_plan)
from test_catalog_sync import (  # noqa: F401
    test_sync_shared_declared_columns_no_cross_pollution,
    test_sync_shared_honors_delta_mode,
    test_sync_shared_matches_apply_log,
    test_sync_shared_single_pass_and_divergent_watermarks,
)
from test_nested_substream import test_shared_wal_global_state  # noqa: F401
from test_replay import (  # noqa: F401
    fixtures,
    test_auto_compaction_bounds_delta_chain,
    test_auto_compaction_crash_before_removal,
    test_auto_compaction_equals_delta_then_compact,
    test_chunked_replay_matches_single_shot,
    test_chunked_replay_survives_lsn_gap,
    test_delta_mode_matches_full_merge,
    test_delta_mode_under_merge_policy_matches_full,
    test_merge_policy_cursor_chain,
    test_partition_aligned_apply,
    test_policy_winner_keeps_columns_the_window_lacks,
    test_resume_after_crash_before_commit,
    test_resume_after_crash_delta_mode,
    test_tombstone_under_policy_same_in_every_mode,
)
from test_schema_evolution import (  # noqa: F401
    evolved,
    test_evolved_replay_matches_oracle,
    test_schema_history_ddl_log,
    test_single_run_mixed_epochs,
)
from test_segment_io import (  # noqa: F401
    test_every_segment_is_zstd_without_dictionary,
    test_old_format_lake_keeps_working,
)
from test_skew_retry import test_extreme_hot_key_all_paths  # noqa: F401

THRESHOLD = {"one_task": float("inf"), "exchange": 0}


@pytest.fixture(autouse=True, params=sorted(THRESHOLD))
def forced_plan(request, monkeypatch):
    monkeypatch.setattr(replay, "_one_task_rows", lambda: THRESHOLD[request.param])
    return request.param


def test_run_record_names_plan(forced_plan, tmp_path, capsys):
    """``apply_log``'s stats and the manifest's last run record name the
    plan and the footer row bound it was chosen from; ``status`` prints
    that record.  The bound never undercounts the window."""
    from airbyte_ray.cli import main as cli_main

    base = gen.gen_base(100, seed=3)
    ev = gen.gen_events(600, 100, seed=4)
    p = tmp_path / "ev.parquet"
    pq.write_table(ev, p, row_group_size=100)
    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=4))
    assert lake.init_snapshot(ray.data.from_arrow(base))["plan"] == "bootstrap"

    mid = int(ev["lsn"].to_numpy().max()) // 2
    st = lake.apply_log(str(p), max_lsn=mid)
    assert st["plan"] == forced_plan
    window = int((ev["lsn"].to_numpy() <= mid).sum())
    assert window <= st["est_rows"] < ev.num_rows  # row groups past mid pruned
    run = Manifest.load(lake.lake_dir).runs[-1]
    assert (run["plan"], run["est_rows"]) == (forced_plan, st["est_rows"])

    assert cli_main(["status", "--lake", lake.lake_dir]) == 0
    last = json.loads(capsys.readouterr().out)["last_run"]
    assert (last["plan"], last["est_rows"]) == (forced_plan, st["est_rows"])

    # a redelivered window commits nothing but still names its plan
    st = lake.apply_log(str(p), max_lsn=mid)
    assert (st["applied_events"], st["plan"]) == (0, forced_plan)
    # Dataset input is sized by its blocks' rows and takes the same plan choice
    st = lake._apply_ds(ray.data.from_arrow(ev), delta=True)
    assert (st["plan"], st["est_rows"]) == (forced_plan, ev.num_rows)
    run = Manifest.load(lake.lake_dir).runs[-1]
    assert (run["plan"], run["est_rows"]) == (forced_plan, ev.num_rows)


def test_dataset_input_matches_oracle(forced_plan, tmp_path):
    """Dataset input of several blocks, in full and in delta mode, under
    each plan (the exchange's route tasks take one block each), matches
    ``replay_oracle``."""
    from airbyte_ray.oracle import replay_oracle

    base = gen.gen_base(200, seed=8)
    ev1 = gen.gen_events(900, 200, seed=9)
    ev2 = gen.gen_events(600, 200, seed=10, start_lsn=gen.next_lsn(ev1))
    for delta in (False, True):
        lake = LakeTable(str(tmp_path / f"lake{delta}"),
                         ReplayConfig(num_partitions=4, delta_mode=delta))
        lake.init_snapshot(ray.data.from_arrow(base))
        for ev in (ev1, ev2):
            blocks = [ev.slice(i, 250) for i in range(0, ev.num_rows, 250)]
            st = lake._apply_ds(ray.data.from_arrow(blocks))
            assert (st["plan"], st["applied_events"]) == (forced_plan, ev.num_rows)
        assert lake.to_table().equals(replay_oracle(base, [ev1, ev2]))


def test_dataset_blocks_sized_by_their_rows(forced_plan, tmp_path):
    """Dataset input's blocks are sized by the rows their metadata records,
    however uneven, and a source of pandas blocks (converted in the task
    that reads them), applied under the events' Arrow schema as
    ``SyncEngine`` applies its source, gives the same rows as the same
    events in Arrow blocks; both match ``replay_oracle``.  (The events
    leave ``tokens`` out: Ray casts a pandas column of arrays with nulls to
    a tensor type.)  ``_apply_ds``, which takes the schema from the blocks,
    refuses pandas blocks."""
    from airbyte_ray.oracle import replay_oracle

    base = gen.gen_base(100, seed=13)
    ev = gen.gen_events(555, 100, seed=14).drop_columns(["tokens"])
    cuts = [(0, 5), (5, 50), (55, ev.num_rows - 55)]
    arrow = ray.data.from_arrow([ev.slice(lo, n) for lo, n in cuts])
    blocks = replay._Blocks.of(arrow, ev.schema)
    assert (blocks.file_rows, blocks.rows) == ([n for _, n in cuts], ev.num_rows)
    assert blocks.table(blocks.files).equals(ev)
    pandas = ray.data.from_pandas([ev.slice(lo, n).to_pandas() for lo, n in cuts])
    tables = []
    for name, ds in (("arrow", arrow), ("pandas", pandas)):
        lake = LakeTable(str(tmp_path / name), ReplayConfig(num_partitions=4))
        lake.init_snapshot(ray.data.from_arrow(base))
        st = lake._apply(ev.schema, False, ds, lake.manifest.watermark)
        assert (st["plan"], st["est_rows"], st["applied_events"]) == \
            (forced_plan, ev.num_rows, ev.num_rows)
        tables.append(lake.to_table())
    assert tables[0].equals(tables[1])
    assert tables[0].equals(replay_oracle(base, [ev]))
    with pytest.raises(ValueError, match="no Arrow blocks"):  # not an empty apply
        lake._apply_ds(pandas)


def test_sync_shared_run_record_names_plan(forced_plan, tmp_path):
    """``sync_shared`` takes the same plan choice as ``apply_log``: its
    stats and every stream's last run record name the plan and the row
    bound of the shared window."""
    import pyarrow as pa

    from airbyte_ray.pipelines.catalog_sync import CdcCatalogEngine, CdcStreamConfig

    ev = gen.gen_events(300, 60, seed=5)
    lp = tmp_path / "wal.parquet"
    pq.write_table(ev.append_column(
        "stream", pa.array([("a", "b")[i % 2] for i in range(ev.num_rows)])), lp)
    eng = CdcCatalogEngine(str(tmp_path / "root"), [
        CdcStreamConfig(n, str(lp), replay=ReplayConfig(num_partitions=4)) for n in "ab"])
    out = eng.sync_shared(str(lp))
    for n in "ab":
        st = out["streams"][n]
        assert st["applied_events"] > 0
        assert (st["plan"], st["est_rows"]) == (forced_plan, ev.num_rows)
        run = Manifest.load(eng.lake(n).lake_dir).runs[-1]
        assert (run["plan"], run["est_rows"]) == (forced_plan, ev.num_rows)


def test_run_record_counts_folds(forced_plan, tmp_path, capsys):
    """A delta-mode apply that folds reports how many partitions it folded
    (``auto_compacted``) in its stats and its run record, and ``status``
    prints it under ``last_run``; an apply that folds nothing reports 0."""
    from airbyte_ray.cli import main as cli_main

    base = gen.gen_base(100, seed=3)
    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=4, delta_mode=True,
                                                          auto_compact_deltas=1))
    lake.init_snapshot(ray.data.from_arrow(base))
    lsn = 1
    for want in (0, 4):  # a delta per partition, then every chain folds
        ev = gen.gen_events(400, 100, seed=4 + want, start_lsn=lsn)
        lsn = gen.next_lsn(ev)
        p = tmp_path / f"ev{want}.parquet"
        pq.write_table(ev, p)
        st = lake.apply_log(str(p))
        assert (st["plan"], st["auto_compacted"]) == (forced_plan, want)
        assert Manifest.load(lake.lake_dir).runs[-1]["auto_compacted"] == want
    assert all(not e.delta_paths for e in lake.manifest.partitions.values())
    assert cli_main(["status", "--lake", lake.lake_dir]) == 0
    assert json.loads(capsys.readouterr().out)["last_run"]["auto_compacted"] == 4
