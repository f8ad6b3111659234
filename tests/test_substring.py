"""Exact duplicated-substring spans / removal (Lee et al. style)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from airbyte_ray.functions.substring import (
    dup_substring_spans,
    remove_dup_substrings,
)

PHRASE = "the quick brown fox jumps over the lazy dog tonight"  # 10 words


def _docs() -> pa.Table:
    rng = np.random.default_rng(11)
    uniq = lambda n: " ".join(f"w{rng.integers(0, 10**9)}" for _ in range(n))
    return pa.table({
        "doc_id": pa.array([f"d{i:02d}" for i in range(6)]),
        "text": pa.array([
            f"{uniq(5)} {PHRASE} {uniq(4)}",   # d00 — keeper of PHRASE
            f"{uniq(3)} {PHRASE} {uniq(7)}",   # d01 — loses PHRASE
            f"{PHRASE} {uniq(12)}",            # d02 — loses PHRASE at pos 1
            uniq(20),                          # d03 — clean
            "short doc",                       # d04 — shorter than k
            f"{uniq(6)} {PHRASE}",             # d05 — loses PHRASE at tail
        ]),
    })


def _spans(t: pa.Table, k: int = 8, **kw) -> list[tuple]:
    out = dup_substring_spans(ray.data.from_arrow(t), k=k, **kw).take_all()
    return sorted((r["doc_id"], r["span_start"], r["span_end"],
                   r["n_windows"]) for r in out)


def _brute(t: pa.Table, k: int, min_docs: int = 2) -> list[tuple]:
    """Exhaustive reference: exact gram tuples, no hashing."""
    words = {d: s.split(" ") for d, s in
             zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    grams: dict = {}
    for d, ws in words.items():
        for p in range(len(ws) - k + 1):
            grams.setdefault(tuple(ws[p: p + k]), set()).add(d)
    hits: dict = {}
    for d, ws in words.items():
        for p in range(len(ws) - k + 1):
            docs = grams[tuple(ws[p: p + k])]
            if len(docs) >= min_docs and d != min(docs):
                hits.setdefault(d, []).append(p + 1)  # 1-based
    out = []
    for d, ps in hits.items():
        start = prev = ps[0]
        n = 1
        for p in ps[1:]:
            if p - prev > k - 1:
                out.append((d, start, prev + k - 1, n))
                start, n = p, 0
            prev = p
            n += 1
        out.append((d, start, prev + k - 1, n))
    return sorted(out)


def test_spans_match_exhaustive_reference():
    t = _docs()
    assert _spans(t, k=8) == _brute(t, k=8)


def test_keeper_is_never_flagged_and_positions_are_exact():
    t = _docs()
    got = _spans(t, k=8)
    flagged = {d for d, *_ in got}
    assert "d00" not in flagged            # min doc_id keeps its copy
    assert flagged == {"d01", "d02", "d05"}
    by_doc = {d: (s, e) for d, s, e, _ in got}
    assert by_doc["d02"][0] == 1           # phrase at the very front
    # d05: 6 unique words then the 10-word phrase → span [7, 16]
    assert by_doc["d05"] == (7, 16)


def test_within_doc_repeat_is_not_cross_doc_dup():
    t = pa.table({
        "doc_id": pa.array(["a", "b"]),
        "text": pa.array([f"{PHRASE} filler {PHRASE}", "totally unrelated "
                          "words here that never repeat anywhere at all ok"]),
    })
    assert _spans(t, k=8) == []            # repeats live in ONE doc only


def test_min_docs_threshold():
    t = _docs()
    assert _spans(t, k=8, min_docs=5) == []     # phrase is in only 4 docs
    got = _spans(t, k=8, min_docs=4)
    assert got and {d for d, *_ in got} == {"d01", "d02", "d05"}


def test_remove_keeps_one_copy_corpus_wide():
    t = _docs()
    out = {r["doc_id"]: r["text"] for r in
           remove_dup_substrings(ray.data.from_arrow(t), k=8).take_all()}
    assert PHRASE in out["d00"]            # keeper untouched
    assert out["d03"] == t["text"][3].as_py()   # clean doc byte-identical
    assert out["d04"] == "short doc"
    for d in ("d01", "d02", "d05"):
        assert PHRASE not in out[d]
    # removed word counts equal the span widths exactly
    spans = _spans(t, k=8)
    loss = {}
    for d, s, e, _ in spans:
        loss[d] = loss.get(d, 0) + (e - s + 1)
    for i, d in enumerate(t["doc_id"].to_pylist()):
        before = len(t["text"][i].as_py().split(" "))
        after = len(out[d].split(" ")) if out[d] else 0
        assert after == before - loss.get(d, 0)


def test_span_cap_raises_loudly():
    t = _docs()
    with pytest.raises(ValueError, match="span_cap_rows"):
        remove_dup_substrings(ray.data.from_arrow(t), k=8, span_cap_rows=1)


def test_k_and_min_docs_validation():
    t = _docs()
    with pytest.raises(ValueError, match="k must be"):
        dup_substring_spans(ray.data.from_arrow(t), k=1)
    with pytest.raises(ValueError, match="min_docs"):
        dup_substring_spans(ray.data.from_arrow(t), min_docs=1)


def test_scope_all_flags_within_doc_repeats():
    t = pa.table({
        "doc_id": pa.array(["a", "b"]),
        "text": pa.array([f"{PHRASE} filler {PHRASE}", "totally unrelated "
                          "words here that never repeat anywhere at all ok"]),
    })
    # cross_doc: nothing (one doc); all: the SECOND occurrence is flagged
    assert _spans(t, k=8) == []
    got = _spans(t, k=8, scope="all")
    assert got == [("a", 12, 21, 3)]  # phrase is 10 words at pos 12


def test_scope_all_keeps_exactly_one_global_copy():
    t = _docs()
    got = _spans(t, k=8, scope="all")
    # same cross-doc phrase: first occurrence (min doc d00) survives,
    # every other doc's copy flagged — identical to cross_doc here
    assert got == _spans(t, k=8)


def test_scope_validation():
    t = _docs()
    with pytest.raises(ValueError, match="scope"):
        dup_substring_spans(ray.data.from_arrow(t), scope="nope")


# ---- tokens-native variant (pre-tokenized lake-table shape) ---------------

def _tok_docs() -> pa.Table:
    rng = np.random.default_rng(23)
    shared = rng.integers(0, 50_000, 60, dtype=np.int32)  # 60-token run
    mk = lambda n: rng.integers(0, 50_000, n, dtype=np.int32)
    toks = [
        np.concatenate([mk(10), shared, mk(8)]),   # t0 — keeper
        np.concatenate([mk(25), shared]),          # t1 — loses the run
        mk(120),                                   # t2 — clean
        np.concatenate([shared, mk(3)]),           # t3 — loses at pos 1
        mk(30),                                    # t4 — shorter than k? no (30<50 windows? 30 toks < k=50 → none)
    ]
    return pa.table({
        "doc_id": pa.array([f"t{i}" for i in range(len(toks))]),
        "tokens": pa.array([t.tolist() for t in toks], pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": pa.array(["s"] * len(toks)),
    })


def _tok_brute(t: pa.Table, k: int) -> list[tuple]:
    docs = {d: tuple(ts) for d, ts in
            zip(t["doc_id"].to_pylist(), t["tokens"].to_pylist())}
    grams: dict = {}
    for d, ts in docs.items():
        for p in range(len(ts) - k + 1):
            grams.setdefault(ts[p: p + k], set()).add(d)
    out = []
    for d, ts in docs.items():
        ps = [p + 1 for p in range(len(ts) - k + 1)
              if len(grams[ts[p: p + k]]) >= 2 and d != min(grams[ts[p: p + k]])]
        if not ps:
            continue
        start = prev = ps[0]
        n = 1
        for p in ps[1:]:
            if p - prev > k - 1:
                out.append((d, start, prev + k - 1, n))
                start, n = p, 0
            prev = p
            n += 1
        out.append((d, start, prev + k - 1, n))
    return sorted(out)


def test_token_spans_match_exhaustive_reference():
    from airbyte_ray.functions.substring import dup_token_spans

    t = _tok_docs()
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_windows"])
        for r in dup_token_spans(ray.data.from_arrow(t), k=50).take_all())
    want = _tok_brute(t, k=50)
    assert got == want and got  # non-trivial fixture
    assert {d for d, *_ in got} == {"t1", "t3"}
    by = {d: (s, e) for d, s, e, _ in got}
    assert by["t3"][0] == 1                # run at the very front
    assert by["t1"] == (26, 85)            # 25 prefix toks then the 60-run


def test_remove_token_spans_rewrites_tokens_and_n_tok():
    from airbyte_ray.functions.substring import remove_dup_token_spans

    t = _tok_docs()
    out = {r["doc_id"]: (r["tokens"], r["n_tok"]) for r in
           remove_dup_token_spans(ray.data.from_arrow(t), k=50).take_all()}
    orig = {r["doc_id"]: r["tokens"] for i, r in
            enumerate(ray.data.from_arrow(t).take_all())}
    assert out["t0"][0] == orig["t0"]      # keeper byte-identical
    assert out["t2"][0] == orig["t2"]      # clean doc untouched
    assert out["t1"][1] == len(out["t1"][0]) == 25   # only the prefix left
    assert out["t3"][1] == 3
    # surviving tokens are the exact complement of the span
    assert out["t1"][0] == orig["t1"][:25]
    assert out["t3"][0] == orig["t3"][60:]
    # a zero-copy sliced block (list offsets not starting at 0) rewrites
    # exactly like the unsliced one
    pad = _tok_docs().slice(0, 2).set_column(
        0, "doc_id", pa.array(["pad0", "pad1"]))
    padded = pa.concat_tables([pad, t]).combine_chunks()
    # slice inside the task: the object store would rebase a sliced table
    sliced = ray.data.from_arrow(padded).map_batches(
        lambda b: b.slice(2), batch_format="pyarrow")
    got = {r["doc_id"]: (r["tokens"], r["n_tok"]) for r in
           remove_dup_token_spans(sliced, k=50).take_all()}
    assert got == out
