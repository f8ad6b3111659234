"""The plain-task exchange: route tasks split their rows by key range and
hand one slice per range to the next stage's tasks as Ray objects
(``num_returns``) — no Ray Data shuffle in between.

The replay apply's keyed exchange (``replay._route_range`` →
``_merge_range``), the persisted dedup index's probe
(``dedup_index.dedup_against_index``) and the near-duplicate family
(``dedup._near_dup_pairs``) run on it.  The range cut over rows
(``replay._cut``) stays in ``replay.py``, beside the task-size bound it
reads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def fan(task, n: int, *args) -> list:
    """Run ``task`` with ``n`` return objects (one per range); their refs."""
    refs = task.options(num_returns=n).remote(*args)
    return refs if n > 1 else [refs]


def returns(slices: list[pa.Table]) -> pa.Table | list[pa.Table]:
    """What a task run by :func:`fan` returns for ``slices``: Ray stores a
    task with one return object's value as is, so one slice goes bare."""
    return slices if len(slices) > 1 else slices[0]


def split(t: pa.Table, key: np.ndarray, cuts: list[int]) -> list[pa.Table]:
    """``t``'s rows ordered by ``key``, one slice per key range (``cuts``:
    each range's first key).  Rows whose key is already non-decreasing are
    sliced as they are: no sort, no copy."""
    if len(key) > 1 and (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        key, t = key[order], t.take(order)
    at = [0, *np.searchsorted(key, cuts[1:]), t.num_rows]
    return [t.slice(lo, hi - lo) for lo, hi in zip(at, at[1:])]
