"""Schema-evolution replay (FIXTURES F3/F6.6): added column null-filled,
int32→int64 widened, dropped column nulled on updated rows only — the
reference's star_intersect + JsonToAvroSchemaConverter union-widening
semantics applied at the sink."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from airbyte_ray import gen
from airbyte_ray.oracle import replay_oracle
from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
from airbyte_ray.schemas import unify_schemas


@pytest.fixture()
def evolved(tmp_path):
    base = gen.gen_base(200, seed=21)
    ev1 = gen.gen_events(800, 200, seed=22)
    ev2 = gen.gen_events(400, 200, seed=23, start_lsn=gen.next_lsn(ev1), v2=True)
    pq.write_table(ev1, tmp_path / "ev1.parquet")
    pq.write_table(ev2, tmp_path / "ev2.parquet")
    return base, ev1, ev2, tmp_path


def test_unify_schemas_widening():
    a = pa.schema([("x", pa.int32()), ("y", pa.string())])
    b = pa.schema([("x", pa.int64()), ("z", pa.float32())])
    u = unify_schemas(a, b)
    assert u.field("x").type == pa.int64()
    assert u.names == ["x", "y", "z"]
    with pytest.raises(pa.ArrowTypeError):
        unify_schemas(pa.schema([("x", pa.string())]), pa.schema([("x", pa.int32())]))


def test_evolved_replay_matches_oracle(evolved):
    base, ev1, ev2, tmp = evolved
    lake = LakeTable(str(tmp / "lake"), ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(str(tmp / "ev1.parquet"))
    lake.apply_log([str(tmp / "ev1.parquet"), str(tmp / "ev2.parquet")])

    expected = replay_oracle(base, [ev1, ev2])
    actual = lake.to_table()
    assert actual.schema.field("n_tok").type == pa.int64()  # widened
    assert "lang" in actual.schema.names  # added
    assert "source" in actual.schema.names  # retained from v1
    assert actual.equals(expected)

    # rows untouched since evolution keep null lang; v2-updated rows null source
    df = actual.to_pandas()
    v2_keys = set(ev2.filter(pa.compute.not_equal(ev2["op"], "delete"))["doc_id"].to_pylist())
    touched = df[df.doc_id.isin(v2_keys)]
    untouched = df[~df.doc_id.isin(v2_keys)]
    assert touched["source"].isna().all()
    assert untouched["lang"].isna().all()


def test_single_run_mixed_epochs(evolved):
    """Both epochs in one apply run (unified at read) — same final table."""
    base, ev1, ev2, tmp = evolved
    lake = LakeTable(str(tmp / "lake_once"), ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log([str(tmp / "ev1.parquet"), str(tmp / "ev2.parquet")])
    assert lake.to_table().equals(replay_oracle(base, [ev1, ev2]))


def test_schema_history_ddl_log(tmp_path):
    """AirbyteSchemaHistoryStorage analog: every schema CHANGE appends a
    reconstructable entry — not just the latest schema (round-1 gap)."""
    import ray.data
    from airbyte_ray import gen
    from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig
    from airbyte_ray.state.manifest import Manifest

    base = gen.gen_base(100, seed=41)
    ev1 = gen.gen_events(300, 100, seed=42)
    ev2 = gen.gen_events(200, 100, seed=43, v2=True, start_lsn=gen.next_lsn(ev1))
    p1, p2 = tmp_path / "e1.parquet", tmp_path / "e2.parquet"
    pq.write_table(ev1, p1)
    pq.write_table(ev2, p2)

    lake = LakeTable(str(tmp_path / "lake"), ReplayConfig(num_partitions=4))
    lake.init_snapshot(ray.data.from_arrow(base))
    lake.apply_log(str(p1))  # same schema → no new entry
    lake.apply_log(str(p2))  # v2 adds columns → one new entry

    m = Manifest.load(str(tmp_path / "lake"))
    assert len(m.schema_history) == 2  # initial + v2 evolution
    first, second = m.schema_history
    assert second["added"]  # v2's new columns recorded
    assert not second["removed"]
    # any past schema reconstructs byte-exactly
    assert m.schema_at(0).equals(
        pa.ipc.read_schema(pa.BufferReader(__import__("base64").b64decode(first["schema_b64"])))
    )
    assert m.schema_at(1).equals(m.schema)
