"""Hot-key skew through every apply plan + retried-task idempotence."""

import pyarrow.parquet as pq
import ray.data

from airbyte_ray import gen
from airbyte_ray.oracle import replay_oracle
from airbyte_ray.pipelines.replay import (
    LakeTable,
    ReplayConfig,
    _merge_partition,
)


def test_extreme_hot_key_all_paths(tmp_path):
    """One key receives ~half of all updates (zipf α=2.2).  Every plan
    (``tests/test_apply_plans.py`` collects this under each) must agree
    with the oracle and count every event of the window as applied."""
    base = gen.gen_base(100, seed=61)
    ev = gen.gen_events(3000, 100, seed=62, zipf_alpha=2.2, update_ratio=0.8,
                        delete_ratio=0.02)
    p = tmp_path / "hot.parquet"
    pq.write_table(ev, p)
    expected = replay_oracle(base, [ev])

    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    st = lake.apply_log(str(p))
    assert lake.to_table().equals(expected)
    assert st["applied_events"] == ev.num_rows


def test_merge_task_idempotent_under_retry(tmp_path):
    """A retried merge task (same inputs, same ctx) must write identical
    segment bytes and identical lineage — the exactly-once guarantee under
    Ray task retries (deterministic segment paths, SURVEY hard-part #1)."""
    base = gen.gen_base(50, seed=71)
    ev = gen.gen_events(300, 50, seed=72)

    from airbyte_ray.schemas import BASE_SCHEMA

    ctx = {
        "lake_dir": str(tmp_path / "lake"),
        "schema": BASE_SCHEMA.serialize().to_pybytes(),
        "old_segments": {},
        "run_id": 1,
    }
    lin1 = _merge_partition(ev, 0, ctx).to_pylist()
    seg = tmp_path / "lake" / lin1[0]["path"]
    bytes1 = seg.read_bytes()
    lin2 = _merge_partition(ev, 0, ctx).to_pylist()  # the "retry"
    assert lin1 == lin2
    assert seg.read_bytes() == bytes1
