"""Join operators vs duckdb oracles (SURVEY §2.6)."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from airbyte_ray.joins import anti_join, broadcast_join, hash_join, semi_join

SF = "/root/testdata/sf0.001"


def _sorted_df(x, cols):
    df = x.to_pandas() if not hasattr(x, "sort_values") else x
    return df.sort_values(cols, ignore_index=True)


def test_broadcast_join_inner():
    orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey", "c_name"])
    cust = cust.rename_columns(["o_custkey", "c_name"])
    got = _sorted_df(pa.Table.from_pylist(broadcast_join(orders, cust, on="o_custkey").take_all()),
                     ["o_orderkey"])
    exp = duckdb.sql(
        f"""SELECT o_orderkey, o_custkey, c_name FROM '{SF}/orders.parquet' o
            JOIN '{SF}/customer.parquet' c ON o.o_custkey = c.c_custkey ORDER BY o_orderkey"""
    ).df()
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
    assert got["c_name"].tolist() == exp["c_name"].tolist()


def test_broadcast_join_left_keeps_unmatched():
    big = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    small = pa.table({"k": [1], "w": [9]})
    out = _sorted_df(pa.Table.from_pylist(broadcast_join(big, small, on="k", how="left").take_all()), ["k"])
    assert out["w"].tolist()[0] == 9 and len(out) == 3


def test_hash_join_matches_duckdb():
    li = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"])
    orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_orderstatus"])
    orders = orders.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderstatus"]), batch_format="pyarrow"
    )
    got = _sorted_df(
        pa.Table.from_pylist(hash_join(li, orders, on="l_orderkey", num_buckets=8).take_all()),
        ["l_orderkey", "l_linenumber"],
    )
    exp = duckdb.sql(
        f"""SELECT l_orderkey, l_linenumber, o_orderstatus
            FROM '{SF}/lineitem.parquet' l JOIN '{SF}/orders.parquet' o
            ON l.l_orderkey = o.o_orderkey ORDER BY l_orderkey, l_linenumber"""
    ).df()
    assert len(got) == len(exp)
    assert got["o_orderstatus"].tolist() == exp["o_orderstatus"].tolist()


def test_semi_anti_join():
    ev = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_id", "user_id"])
    keys = [1, 2, 3]
    s = semi_join(ev, keys, on="user_id").take_all()
    a = anti_join(ev, keys, on="user_id").take_all()
    assert all(r["user_id"] in keys for r in s)
    assert all(r["user_id"] not in keys for r in a)
    assert len(s) + len(a) == ev.count()


def test_range_join_matches_duckdb():
    """Overlapping bands + explicit bounds — the driver query's shape at
    sf0.001, checked against the DuckDB inequality join."""
    import numpy as np

    from airbyte_ray.joins import range_join

    i = np.arange(12, dtype=np.int64)
    bands = pa.table({"band_id": i, "lo": (i * 40).astype(np.float64),
                      "hi": (i * 40 + 60).astype(np.float64)})
    ev = ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_id", "value"])
    got = _sorted_df(
        range_join(ev, ray.data.from_arrow(bands), on="value", lo="lo", hi="hi",
                   bounds=np.linspace(0.0, 500.0, 9)[1:-1]).to_pandas(),
        ["event_id", "band_id"],
    )
    exp = duckdb.sql(
        f"""SELECT e.event_id, e.value, b.band_id, b.lo, b.hi
            FROM '{SF}/events.parquet' e JOIN (
              SELECT CAST(i AS BIGINT) band_id, i*40.0 lo, i*40.0+60.0 hi
              FROM generate_series(0,11) t(i)) b
            ON e.value >= b.lo AND e.value < b.hi
            ORDER BY e.event_id, b.band_id"""
    ).df()
    assert got["event_id"].tolist() == exp["event_id"].tolist()
    assert got["band_id"].tolist() == exp["band_id"].tolist()


def test_range_join_sampled_bounds_and_edges():
    """bounds=None (sampled-quantile path), an EMPTY interval (matches
    nothing), and a domain-spanning interval (replicated to every bucket,
    matches everything exactly once)."""
    import numpy as np

    from airbyte_ray.joins import range_join

    left = ray.data.from_arrow(pa.table({
        "x": np.linspace(0.0, 99.0, 100), "row": np.arange(100, dtype=np.int64)
    }))
    right = ray.data.from_arrow(pa.table({
        "iid": [0, 1, 2],
        "lo": [50.0, 7.0, -1e9],
        "hi": [50.0, 9.0, 1e9],  # empty / small / whole-domain
    }))
    out = range_join(left, right, on="x", lo="lo", hi="hi", num_buckets=4).to_pandas()
    assert (out["iid"] == 0).sum() == 0                       # empty interval
    assert sorted(out[out["iid"] == 1]["x"]) == [7.0, 8.0]    # [7, 9)
    assert (out["iid"] == 2).sum() == 100                     # once per left row
    assert len(out) == 102


def test_hash_join_full_outer():
    """Unmatched rows of BOTH sides surface exactly once with null other
    side; matched keys coalesce."""
    l = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "lv": ["a", "b", "c"]}))
    r = ray.data.from_arrow(pa.table({"k": [2, 3, 4], "rv": [20, 30, 40]}))
    out = hash_join(l, r, on="k", how="outer").to_pandas().sort_values("k")
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["lv"].tolist() == ["a", "b", "c", None]
    assert out["rv"].fillna(-1).tolist() == [-1, 20, 30, 40]
