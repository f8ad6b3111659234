"""Deterministic source-mixing / sampling for training-data pipelines.

A 100 TB corpus is rarely trained on as-is: sources are re-weighted
("mix 30% web, 3x-upsample books…").  The down-sampling half of that is a
per-source Bernoulli keep-decision, which at scale must be a PURE FUNCTION
of the row key — never an RNG — so that re-runs, resumed runs and other
engines reproduce the same subset (the same property the exactly-once lake
relies on).

The decision is ``md5(key)[:8] < threshold(rate)``: the first 8 hex chars
of the key's md5 are a uniform 32-bit draw, and the comparison is plain
hex-string ordering — directly expressible in SQL
(``substr(md5(k),1,8) < '28f5c28f'``), which is how the driver oracle
verifies it.  No shuffle, no state: one ``map_batches`` filter.

Rates are per-stratum (e.g. per ``source``); rates ≥ 1.0 keep everything
(integer upsampling is :func:`upsample` — deterministic row replication).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def rate_threshold_hex(rate: float) -> str:
    """8-hex-digit keep threshold for ``rate`` ∈ [0, 1) — `int` truncation,
    the documented tie with SQL ``printf('%08x', CAST(floor(rate *
    4294967296) AS BIGINT))``.  Rates ≥ 1.0 return ``"g"`` — lexically
    above every hex digest, so the ``draw < threshold`` rule keeps EVERY
    row (clamping to ``ffffffff`` would drop the ~2^-32 of keys whose
    digest prefix is exactly ffffffff — at 10^10 docs, real rows lost).
    SQL side of a keep-all stratum: just TRUE."""
    if rate >= 1.0:
        return "g"
    return format(max(int(rate * 2**32), 0), "08x")


def _keep_mask(keys: pa.Array, thresholds: np.ndarray) -> np.ndarray:
    """hex(md5(key))[:8] < per-row threshold.  hashlib loop — no Arrow md5
    kernel (same trade-off as ``text.fingerprint_md5``).  Null keys are
    always dropped — SQL's ``md5(CAST(key AS VARCHAR)) < threshold`` is
    NULL for NULL keys, which WHERE filters out, and '~' sorts above every
    threshold including the keep-all 'g'."""
    draws = np.array(
        [hashlib.md5(v.encode()).hexdigest()[:8] if v is not None else "~"
         for v in keys.cast(pa.string()).to_pylist()]
    )
    return draws < thresholds


def stratified_sample(
    ds: ray.data.Dataset,
    rates: dict[str, float],
    strat_col: str = "source",
    key_col: str = "doc_id",
    default_rate: float = 1.0,
) -> ray.data.Dataset:
    """Keep each row with its stratum's probability, deterministically in
    the row key.  Strata absent from ``rates`` use ``default_rate``."""
    thr = {s: rate_threshold_hex(r) for s, r in rates.items()}
    dflt = rate_threshold_hex(default_rate)

    def fn(t: pa.Table) -> pa.Table:
        strat = t[strat_col].cast(pa.string()).to_pylist()
        per_row = np.array([thr.get(s, dflt) for s in strat])
        return t.filter(pa.array(_keep_mask(t[key_col], per_row)))

    return ds.map_batches(fn, batch_format="pyarrow")


def rate_sample(
    ds: ray.data.Dataset, rate: float, key_col: str = "doc_id"
) -> ray.data.Dataset:
    """Uniform deterministic sample — the single-stratum special case."""
    thr = rate_threshold_hex(rate)

    def fn(t: pa.Table) -> pa.Table:
        per_row = np.full(t.num_rows, thr)
        return t.filter(pa.array(_keep_mask(t[key_col], per_row)))

    return ds.map_batches(fn, batch_format="pyarrow")


def bottom_k_sample(
    ds: ray.data.Dataset, k: int, key_col: str = "doc_id", seed: int = 0,
) -> ray.data.Dataset:
    """EXACTLY ``k`` rows, uniformly at random yet fully deterministic:
    the k rows whose ``md5(seed:key)`` priorities are smallest (a bottom-k
    sketch — Cohen & Kaplan 2007).  Unlike :func:`rate_sample` the output
    size is exact, and unlike ``ds.random_sample`` the subset is a pure
    function of (seed, keys): re-runs, resumes, and the SQL oracle
    (``ORDER BY md5(...) LIMIT k``) agree row-for-row.

    Scale plan: each block keeps only its own bottom-k (a combiner —
    output ∝ blocks·k, not corpus), one tiny final sort+limit finishes.
    No global sort of the corpus."""
    from .pack import shuffle_key_md5

    def local_bottom(t: pa.Table) -> pa.Table:
        t = t.append_column("_prio", shuffle_key_md5(
            t[key_col].combine_chunks() if isinstance(t[key_col], pa.ChunkedArray)
            else t[key_col], seed))
        idx = pc.sort_indices(t, sort_keys=[("_prio", "ascending"),
                                            (key_col, "ascending")])
        return t.take(idx[: min(k, t.num_rows)])

    return (
        ds.map_batches(local_bottom, batch_format="pyarrow")
        .sort(["_prio", key_col])
        .limit(k)
        .map_batches(lambda t: t.drop_columns(["_prio"]), batch_format="pyarrow")
    )


def grouped_bottom_k(
    ds: ray.data.Dataset,
    k: int,
    group_col: str = "source",
    key_col: str = "doc_id",
    seed: int = 0,
    rank_col: str = "rnk",
) -> ray.data.Dataset:
    """EXACTLY ``k`` rows PER GROUP, uniformly at random yet deterministic
    (the grouped reservoir): each row's priority is ``md5(seed:key)`` and
    each group keeps its ``k`` smallest — the per-group analog of
    :func:`bottom_k_sample`, reusing the :func:`agg.grouped_topn`
    batch-local-prune combiner (shuffle carries ≤ k rows per group per
    batch).  ``rank_col`` reifies the within-group priority order so the
    SQL oracle (row_number over md5) checks the permutation, not just
    membership."""
    from .agg import grouped_topn
    from .pack import shuffle_key_md5

    def prio(t: pa.Table) -> pa.Table:
        key = t[key_col]
        key = key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key
        return t.append_column("_prio", shuffle_key_md5(key, seed))

    out = grouped_topn(
        ds.map_batches(prio, batch_format="pyarrow"),
        key=group_col, order_col="_prio", n=k,
        descending=False, tie_col=key_col, rank_col=rank_col,
    )
    return out.map_batches(lambda t: t.drop_columns(["_prio"]), batch_format="pyarrow")


def upsample(
    ds: ray.data.Dataset,
    factors: dict[str, int],
    strat_col: str = "source",
    copy_col: str = "copy_idx",
) -> ray.data.Dataset:
    """Integer upsampling: replicate each stratum's rows ``factor`` times,
    tagging copies with ``copy_idx`` (0..factor-1) so downstream stages —
    and the SQL oracle's LATERAL ``generate_series`` — see distinct rows.
    Vectorized ``take`` with a repeat index; no exchange."""

    def fn(t: pa.Table) -> pa.Table:
        strat = t[strat_col].cast(pa.string()).to_pylist()
        reps = np.array([max(int(factors.get(s, 1)), 0) for s in strat], np.int64)
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
        out = t.take(pa.array(idx))
        # within-row copy counter: position minus each row's first position
        firsts = np.repeat(np.cumsum(reps) - reps, reps)
        ci = np.arange(len(idx), dtype=np.int64) - firsts
        return out.append_column(copy_col, pa.array(ci))

    return ds.map_batches(fn, batch_format="pyarrow")


def temperature_rates(
    ds: ray.data.Dataset,
    temperature: float = 0.5,
    strat_col: str = "source",
    size_col: str | None = None,
) -> dict[str, float]:
    """Per-stratum keep rates that reshape the corpus toward the
    temperature distribution ``share_i ∝ size_i^T`` (the multilingual /
    multi-source re-balancing rule of mT5/XLM-R-style training mixes,
    T < 1 flattens toward uniform).  Since post-sample size is
    ``rate_i · size_i``, the rate is ``size_i^(T-1)`` normalized so the
    SMALLEST stratum keeps everything:

        rate_i = (size_min / size_i) ** (1 - T)

    ``size_col=None`` sizes strata by row count; a column (e.g.
    ``n_chars`` / token counts) gives a budget-weighted mix.  Sizes come
    from ONE distributed groupby; only the ≤|strata| totals reach the
    driver.

    IEEE parity: at the default ``temperature=0.5`` the rate is ONE
    division + ONE ``sqrt`` — both correctly rounded per IEEE 754, so the
    rates (and the md5 keep thresholds derived from them) are bit-exact
    against a SQL oracle computing ``sqrt(min_sz / sz)``.  Other
    temperatures go through ``pow``, which is not correctly rounded
    across libms — pytest-verified instead.  (Sizes are exact int64;
    beyond 2^53 total units the double cast rounds — at that point feed
    pre-bucketed sizes.)"""
    from ray.data.aggregate import Count, Sum

    if not 0.0 <= temperature <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {temperature}")
    agg = (Count(alias_name="sz") if size_col is None
           else Sum(size_col, alias_name="sz"))
    # prune to the grouping (+size) columns so the stats exchange never
    # carries document payloads
    cols = [strat_col] + ([size_col] if size_col is not None else [])
    rows = ds.select_columns(cols).groupby(strat_col).aggregate(agg).take_all()
    if not rows:
        return {}
    sizes = {r[strat_col]: int(r["sz"] or 0) for r in rows}
    empty = sorted(str(s) for s, v in sizes.items() if v <= 0)
    if empty:
        raise ValueError(f"strata with size <= 0 have no rate: {empty}")
    mn = np.float64(float(min(sizes.values())))
    if temperature == 0.5:
        return {s: float(np.sqrt(mn / np.float64(float(v))))
                for s, v in sizes.items()}
    return {s: float(np.power(mn / np.float64(float(v)),
                              np.float64(1.0 - temperature)))
            for s, v in sizes.items()}


def temperature_mix(
    ds: ray.data.Dataset,
    temperature: float = 0.5,
    strat_col: str = "source",
    key_col: str = "doc_id",
    size_col: str | None = None,
) -> ray.data.Dataset:
    """Deterministic temperature-based source mixing: one column-pruned
    stats pass for the per-stratum sizes, then the same pure-function
    md5-threshold keep rule as :func:`stratified_sample` — no RNG, no
    state, re-runs and the SQL oracle reproduce the identical subset."""
    rates = temperature_rates(ds, temperature=temperature,
                              strat_col=strat_col, size_col=size_col)
    return stratified_sample(ds, rates, strat_col=strat_col, key_col=key_col)
