"""The plain-task exchange (``airbyte_ray/exchange.py``): ``split`` by key
range and ``fan``'s one-or-many return objects."""

import numpy as np
import pyarrow as pa
import ray

from airbyte_ray.exchange import fan, returns, split


def _data_buffer(t: pa.Table, col: str):
    return t[col].chunk(0).buffers()[1].address


def test_split_unsorted_key_orders_rows_stably():
    t = pa.table({"k": [3, 0, 2, 1, 0], "v": list("abcde")})
    out = split(t, t["k"].to_numpy(), [0, 2])
    assert [s.to_pydict() for s in out] == [
        {"k": [0, 0, 1], "v": ["b", "e", "d"]},
        {"k": [2, 3], "v": ["c", "a"]},
    ]


def test_split_sorted_key_slices_without_a_copy():
    t = pa.table({"k": pa.array([0, 1, 1, 4, 6], pa.int64()), "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    out = split(t, t["k"].to_numpy(), [0, 1, 5])
    assert [s["k"].to_pylist() for s in out] == [[0], [1, 1, 4], [6]]
    assert all(_data_buffer(s, "v") == _data_buffer(t, "v") for s in out)


def test_split_empty_table_and_one_range():
    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    out = split(t, np.array([], np.int64), [0, 3])
    assert [s.num_rows for s in out] == [0, 0]
    assert all(s.schema.equals(t.schema) for s in out)
    t = pa.table({"k": [2, 0, 1]})
    (only,) = split(t, t["k"].to_numpy(), [0])
    assert only["k"].to_pylist() == [0, 1, 2]


@ray.remote
def _ranges(n: int):
    return returns([pa.table({"j": [j]}) for j in range(n)])


def test_fan_one_and_many_return_objects():
    for n in (1, 3):
        refs = fan(_ranges, n, n)
        assert len(refs) == n
        assert [ray.get(r)["j"].to_pylist() for r in refs] == [[j] for j in range(n)]
