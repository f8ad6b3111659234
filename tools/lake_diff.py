"""Build a fixed set of lakes, and byte-compare two builds of it.

    python tools/lake_diff.py build OUT [--src TREE] [--set full|smoke] [--cpus N]
    python tools/lake_diff.py diff A B

``build`` imports ``airbyte_ray`` from the source tree ``TREE`` (default:
the tree this script is in), starts its own Ray session with ``--cpus``
CPUs (default 1) and writes, under ``OUT``, one lake per entry of the set
for each forced plan bound — ``replay._one_task_rows`` patched to 0 and to
∞, and left at its real value — as ``OUT/<bound>/<lake>/``.  Beside each
lake's files the build stores its ``to_table(payload_only=False)`` as
``table.arrow`` and its ``read(payload_only=False)`` rows, in read order, as
``read.arrow``.  The inputs are generated with fixed seeds, so two builds
see the same events.

The full set: ``apply_log`` in full, delta and ``auto_compact_deltas=1``
modes under the merge policies ``lsn desc``, ``n_tok desc`` and
``_ab_cdc_updated_at desc, lsn desc``; ``apply_partitioned``;
``apply_chunked``; a two-stream ``sync_shared``; an ``incremental_snapshot``
backfill; and a ``SyncEngine`` append_dedup destination.  The smoke set is
its first lake.

``diff`` compares two builds lake by lake: the set of files each manifest
lists and their bytes, every manifest field except a run's ``sec``,
``plan`` and ``est_rows``, ``table.arrow`` and ``read.arrow`` (read order).
It prints one line per difference and exits 1 if there is any.  A
``partitions`` field whose entries differ in their ``checksum`` alone is
reported as such: a build from a tree whose segment checksum still wrapped
mod 2^64 (so it depended on how a partition's rows were split into files)
differs from a later one in every stored checksum, not in what was written.
A listed file whose bytes differ is decoded on both sides by the
``_read_segment`` of the tree this script is in, under its lake's manifest
schema, and reported "(same rows)" when the rows are equal: a build from a
tree that wrote ``tokens`` in list form differs from a later one, which
packs it, in the bytes of every file, not in its rows.

To compare a change with its parent, build each tree into its own ``OUT``
(e.g. ``git archive`` the parent into a scratch dir and pass it as
``--src``) and ``diff`` the two.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Callable

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("_manifest", "manifest.json")
#: run-record fields that name timing or the plan, not what was written
VOLATILE_RUN_FIELDS = ("sec", "plan", "est_rows")
BOUNDS = {"0": 0, "inf": float("inf"), "real": None}

N_BASE, P = 300, 4
POLICIES = {
    "lsn": (("lsn", "descending"),),
    "ntok": (("n_tok", "descending"),),
    "upd": (("_ab_cdc_updated_at", "descending"), ("lsn", "descending")),
}
MODES = {"full": {}, "delta": {"delta_mode": True},
         "auto1": {"delta_mode": True, "auto_compact_deltas": 1}}


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _inputs(d: str) -> dict:
    """The set's input files under ``d``, from fixed seeds."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from airbyte_ray import gen
    from airbyte_ray.pipelines.replay import stable_hash

    os.makedirs(d, exist_ok=True)
    base = gen.gen_base(N_BASE, seed=5)
    epochs, lsn = [], 1
    for i in range(3):
        ev = gen.gen_events(500, N_BASE, seed=6 + i, start_lsn=lsn)
        lsn = gen.next_lsn(ev)
        path = os.path.join(d, f"ev{i}.parquet")
        pq.write_table(ev, path, row_group_size=150)
        epochs.append(path)
    wal = pa.concat_tables([pq.read_table(p) for p in epochs])
    pq.write_table(wal, os.path.join(d, "wal.parquet"), row_group_size=200)
    shards = []
    for i, p in enumerate(epochs[:2]):  # key-partitioned: part=N holds N's keys
        ev = pq.read_table(p)
        part = (stable_hash(ev["doc_id"]) % np.uint64(P)).astype(np.int64)
        root = os.path.join(d, f"shards{i}")
        for k in range(P):
            os.makedirs(os.path.join(root, f"part={k:05d}"), exist_ok=True)
            pq.write_table(ev.filter(pa.array(part == k)),
                           os.path.join(root, f"part={k:05d}", "ev.parquet"))
        shards.append(root)
    shared = wal.append_column("stream", pa.array(np.where(
        stable_hash(wal["doc_id"]) % np.uint64(2) == 0, "a", "b")))
    pq.write_table(shared, os.path.join(d, "shared.parquet"), row_group_size=200)
    pq.write_table(base, os.path.join(d, "base.parquet"))
    srcs = []
    rng = np.random.default_rng(9)
    for i in range(3):  # three syncs; (pk, cur) unique, so no tie reaches the merge
        n = 400
        cur = np.arange(i * n, (i + 1) * n, dtype=np.float64)
        # rows that carry _airbyte_emitted_at keep it: no wall clock in the lake
        at = np.full(n, 1_700_000_000_000_000 + i, "datetime64[us]")
        t = pa.table({"pk": pa.array(rng.integers(0, 250, n), pa.int64()),
                      "cur": pa.array(cur), "v": pa.array(rng.random(n)),
                      "_airbyte_emitted_at": pa.array(at).cast(pa.timestamp("us", tz="UTC"))})
        path = os.path.join(d, f"src{i}.parquet")
        pq.write_table(t, path)
        srcs.append(path)
    return {"base": base, "epochs": epochs, "wal": os.path.join(d, "wal.parquet"),
            "shards": shards, "shared": os.path.join(d, "shared.parquet"),
            "base_path": os.path.join(d, "base.parquet"), "srcs": srcs}


def _log_lake(mode: str, policy: str) -> Callable[[str, dict], list[str]]:
    def build(d: str, inp: dict) -> list[str]:
        import ray.data

        from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig

        lake = LakeTable(d, ReplayConfig(num_partitions=P, merge_policy=POLICIES[policy],
                                         **MODES[mode]))
        lake.init_snapshot(ray.data.from_arrow(inp["base"]))
        for p in inp["epochs"] + inp["epochs"][:1]:  # the last is a redelivery
            lake.apply_log(p)
        return [d]
    return build


def _partitioned(d: str, inp: dict) -> list[str]:
    import ray.data

    from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig

    lake = LakeTable(d, ReplayConfig(num_partitions=P, delta_mode=True))
    lake.init_snapshot(ray.data.from_arrow(inp["base"]))
    for root in inp["shards"]:
        lake.apply_partitioned(root)
    return [d]


def _chunked(d: str, inp: dict) -> list[str]:
    import ray.data

    from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig

    lake = LakeTable(d, ReplayConfig(num_partitions=P))
    lake.init_snapshot(ray.data.from_arrow(inp["base"]))
    lake.apply_chunked(inp["wal"], chunk_lsns=400)
    return [d]


def _shared(d: str, inp: dict) -> list[str]:
    from airbyte_ray.pipelines.catalog_sync import CdcCatalogEngine, CdcStreamConfig
    from airbyte_ray.pipelines.replay import ReplayConfig

    eng = CdcCatalogEngine(d, [CdcStreamConfig(n, inp["shared"], snapshot_path=inp["base_path"],
                                               replay=ReplayConfig(num_partitions=P))
                               for n in "ab"])
    eng.sync_shared(inp["shared"])
    return [os.path.join(d, n) for n in "ab"]


def _backfill(d: str, inp: dict) -> list[str]:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_ray.oracle import replay_oracle
    from airbyte_ray.pipelines.backfill import incremental_snapshot
    from airbyte_ray.pipelines.replay import LakeTable, ReplayConfig

    wal = pq.read_table(inp["wal"])
    lake = LakeTable(d, ReplayConfig(num_partitions=P))
    lake.apply_log(inp["wal"], max_lsn=int(wal["lsn"][wal.num_rows // 2].as_py()))

    def read_chunk(lo, hi):
        w = max(lake.manifest.watermark, 0)
        t = replay_oracle(inp["base"], [wal.filter(pc.less_equal(wal["lsn"], w))])
        ok = pa.array([True] * t.num_rows)
        if lo is not None:
            ok = pc.and_(ok, pc.greater_equal(t["doc_id"], lo))
        if hi is not None:
            ok = pc.and_(ok, pc.less(t["doc_id"], hi))
        return t.filter(ok)

    incremental_snapshot(lake, inp["wal"], read_chunk, [None, "doc-2", "doc-5", None])
    return [d]


def _sync(d: str, inp: dict) -> list[str]:
    from airbyte_ray.config import StreamConfig
    from airbyte_ray.pipelines.incremental import SyncEngine

    eng = SyncEngine(d)
    cfg = StreamConfig("s", "incremental", "append_dedup", cursor_field="cur",
                       primary_key=["pk"], num_partitions=P)
    for src in inp["srcs"]:
        eng.sync(cfg, src)
    return [os.path.join(d, "s")]


def lake_set(name: str) -> dict[str, Callable[[str, dict], list[str]]]:
    """The lakes of set ``name`` (``full`` or ``smoke``), by lake name."""
    lakes = {f"log-{m}-{p}": _log_lake(m, p) for m in MODES for p in POLICIES}
    lakes.update(partitioned=_partitioned, chunked=_chunked, shared=_shared,
                 backfill=_backfill, sync=_sync)
    return dict(list(lakes.items())[:1]) if name == "smoke" else lakes


def _save_tables(lake_dir: str) -> None:
    """``table.arrow`` and ``read.arrow`` of the lake at ``lake_dir``."""
    import pyarrow as pa

    from airbyte_ray.pipelines.replay import LakeTable

    lake = LakeTable(lake_dir)
    rows = [lake.to_table(payload_only=False)]
    blocks = [t for t in lake.read(payload_only=False).iter_batches(batch_format="pyarrow")]
    rows.append(pa.concat_tables(blocks) if blocks else rows[0].slice(0, 0))
    for name, t in zip(("table", "read"), rows):
        with pa.OSFile(os.path.join(lake_dir, f"{name}.arrow"), "wb") as f, \
                pa.ipc.new_file(f, t.schema) as w:
            w.write_table(t)


def build(out: str, set_name: str = "full") -> list[str]:
    """Build set ``set_name`` under ``out`` with the ``airbyte_ray`` already
    imported, in the current Ray session; returns the lake dirs."""
    from airbyte_ray.pipelines import replay

    real = replay._one_task_rows
    inp = _inputs(os.path.join(out, "_inputs"))
    made = []
    try:
        for bound, value in BOUNDS.items():
            replay._one_task_rows = real if value is None else (lambda v=value: v)
            for name, make in lake_set(set_name).items():
                for lake_dir in make(os.path.join(out, bound, name), inp):
                    _save_tables(lake_dir)
                    made.append(lake_dir)
    finally:
        replay._one_task_rows = real
    return made


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _lakes(root: str) -> dict[str, str]:
    """Every lake dir under ``root`` (one holding a manifest), by relative path."""
    found = glob.glob(os.path.join(root, "**", MANIFEST), recursive=True)
    return {os.path.relpath(os.path.dirname(os.path.dirname(m)), root):
            os.path.dirname(os.path.dirname(m)) for m in found}


def _manifest(lake_dir: str) -> dict:
    with open(os.path.join(lake_dir, MANIFEST)) as f:
        m = json.load(f)
    m["runs"] = [{k: v for k, v in r.items() if k not in VOLATILE_RUN_FIELDS}
                 for r in m.get("runs", [])]
    return m


def _sans_checksum(m: dict) -> dict:
    return {p: {k: v for k, v in e.items() if k != "checksum"}
            for p, e in m["partitions"].items()}


def _listed(m: dict) -> list[str]:
    return sorted(p for e in m["partitions"].values()
                  for p in e.get("paths", []) + e.get("delta_paths", []))


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def _segment_rows(lake_dir: str, m: dict, rel: str):
    """Listed file ``rel`` of the lake at ``lake_dir`` (manifest ``m``)
    decoded by ``_read_segment`` under the manifest's schema, with the
    tombstone flag for a delta file; None when it cannot be decoded."""
    import base64

    import pyarrow as pa

    from airbyte_ray.pipelines import replay

    schema = replay._seg_schema_of(
        pa.ipc.read_schema(pa.py_buffer(base64.b64decode(m["schema_b64"]))))
    if any(rel in e.get("delta_paths", []) for e in m["partitions"].values()):
        schema = schema.append(pa.field(replay.DELETED_COL, pa.bool_()))
    try:
        return replay._read_segment(os.path.join(lake_dir, rel), schema)
    except (OSError, ValueError, pa.ArrowException):  # a damaged file
        return None


def diff(a: str, b: str) -> list[str]:
    """The differences between builds ``a`` and ``b``, one line each."""
    import pyarrow as pa

    la, lb = _lakes(a), _lakes(b)
    out = [f"{n}: lake only in {a}" for n in sorted(la.keys() - lb.keys())]
    out += [f"{n}: lake only in {b}" for n in sorted(lb.keys() - la.keys())]
    for name in sorted(la.keys() & lb.keys()):
        ma, mb = _manifest(la[name]), _manifest(lb[name])
        for key in sorted(ma.keys() | mb.keys()):
            if ma.get(key) != mb.get(key):
                only = " (checksum only)" if key == "partitions" and \
                    _sans_checksum(ma) == _sans_checksum(mb) else ""
                out.append(f"{name}: manifest field {key!r} differs{only}")
        fa, fb = _listed(ma), _listed(mb)
        if fa != fb:
            out.append(f"{name}: listed files differ "
                       f"({sorted(set(fa) ^ set(fb))[:4]} ...)")
        for rel in sorted(set(fa) & set(fb)):
            if _read(os.path.join(la[name], rel)) != _read(os.path.join(lb[name], rel)):
                ra, rb = _segment_rows(la[name], ma, rel), _segment_rows(lb[name], mb, rel)
                same = ra is not None and rb is not None and ra.equals(rb)
                out.append(f"{name}: bytes of {rel} differ" + (" (same rows)" if same else ""))
        for kind in ("table", "read"):
            ta, tb = (pa.ipc.open_file(os.path.join(d, f"{kind}.arrow")).read_all()
                      for d in (la[name], lb[name]))
            if not ta.equals(tb):
                out.append(f"{name}: {kind}() rows differ"
                           + (" (same rows, other order)" if kind == "read" and ta.sort_by(
                               "doc_id").equals(tb.sort_by("doc_id")) else ""))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("build", help="build the lake set under OUT")
    b.add_argument("out")
    b.add_argument("--src", default=HERE, help="source tree to import airbyte_ray from")
    b.add_argument("--set", default="full", choices=["full", "smoke"])
    b.add_argument("--cpus", type=int, default=1)
    d = sub.add_parser("diff", help="compare two builds")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "diff":
        sys.path.insert(0, HERE)  # decode files with this tree's _read_segment
        lines = diff(args.a, args.b)
        print("\n".join(lines) if lines else "identical")
        print(f"{len(_lakes(args.a))} lakes compared, {len(lines)} differences",
              file=sys.stderr)
        return 1 if lines else 0

    # the driver and the Ray workers import airbyte_ray from TREE: workers
    # put their cwd first on their path, and inherit PYTHONPATH
    src, out = os.path.abspath(args.src), os.path.abspath(args.out)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.chdir(src)
    import logging

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    try:
        made = build(out, args.set)
    finally:
        ray.shutdown()
    print(f"{len(made)} lakes built under {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
