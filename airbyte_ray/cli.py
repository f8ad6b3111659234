"""CLI entry point — the connector-invocation analog.

Reference: connectors run as ``<image> spec|check|discover|read`` and
destinations as ``write`` (``IntegrationRunner.java:98-144``,
``entrypoint.py:26-137``).  This engine is lake-native, so the verbs map to
lifecycle operations on the lake / sync engine:

    python -m airbyte_ray check    --src S.parquet
    python -m airbyte_ray discover --src S.parquet
    python -m airbyte_ray snapshot --lake DIR --base base.parquet
    python -m airbyte_ray apply    --lake DIR --log WAL_DIR [--chunk N|--delta]
    python -m airbyte_ray compact  --lake DIR
    python -m airbyte_ray status   --lake DIR
    python -m airbyte_ray vacuum   --lake DIR
    python -m airbyte_ray sync     --dest DIR --stream NAME --src S.parquet \
        --mode incremental --dest-mode append_dedup --cursor ts --pk id
    python -m airbyte_ray sync-shared --root DIR --log WAL --streams a b
    python -m airbyte_ray corpus   --docs DOCS.parquet --out DIR \
        [--seq-len N --rate SRC=R --streaming]

The CLI owns the Ray session (the library never calls ray.init)."""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff WE own the session (so only
    then may main() shut it down — killing a caller's session, e.g. the
    pytest fixture's, would break everything after us)."""
    import ray

    owned = False
    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
        owned = True
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return owned


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="airbyte_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("snapshot", help="bootstrap lake from a base table")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--base", required=True)
    sp.add_argument("--partitions", type=int, default=64)

    ap = sub.add_parser("apply", help="replay a change log into the lake")
    ap.add_argument("--lake", required=True)
    ap.add_argument("--log", required=True, nargs="+")
    ap.add_argument("--chunk", type=int, default=None, help="checkpoint every N lsns")
    ap.add_argument(
        "--partitioned", action="store_true",
        help="log is key-partitioned part=NNNNN shards aligned with the lake (zero-exchange apply)",
    )
    ap.add_argument(
        "--delta", action="store_true",
        help="write per-run delta files (O(changes) write amplification; fold with compact)",
    )

    cp = sub.add_parser("compact", help="fold multi-file partitions (deltas/bootstrap blocks) into one segment each")
    cp.add_argument("--lake", required=True)

    st = sub.add_parser("status", help="print manifest summary")
    st.add_argument("--lake", required=True)

    ck = sub.add_parser("check", help="connection check on a source")
    ck.add_argument("--src", required=True, nargs="+")
    ck.add_argument("--format", default="parquet", choices=["parquet", "json", "csv"])

    sv = sub.add_parser("spec", help="emit the connector config JSON-schema")

    vl = sub.add_parser("validate", help="validate a config JSON against the spec")
    vl.add_argument("--config", required=True, help="path to the config JSON file")
    vl.add_argument("--kind", default="stream", choices=["stream", "pipeline"])

    dc = sub.add_parser("discover", help="schema discovery → catalog JSON")
    dc.add_argument("--src", required=True, nargs="+")
    dc.add_argument("--format", default="parquet", choices=["parquet", "json", "csv"])
    dc.add_argument("--name", default=None, help="stream name (default: file stem)")

    vc = sub.add_parser("vacuum", help="remove unreferenced segment files")
    vc.add_argument("--lake", required=True)

    ss = sub.add_parser("sync-shared", help="multi-stream shared-WAL sync under one GLOBAL offset")
    ss.add_argument("--root", required=True, help="catalog root (per-stream lakes live under it)")
    ss.add_argument("--log", required=True, nargs="+", help="shared WAL parquet path(s)")
    ss.add_argument("--streams", required=True, nargs="+", help="stream names in the WAL's stream column")
    ss.add_argument("--stream-col", default="stream")
    ss.add_argument("--partitions", type=int, default=64)

    im = sub.add_parser(
        "import-state",
        help="migrate a LEGACY/GLOBAL/STREAM state blob into per-stream state files",
    )
    im.add_argument("--state", required=True, help="path to the state JSON blob")
    im.add_argument("--state-dir", required=True, help="engine state dir to seed")
    im.add_argument("--global-root", default=None,
                    help="catalog root for a GLOBAL shared offset (optional)")

    sy = sub.add_parser("sync", help="cursor-based stream sync (non-CDC)")
    sy.add_argument("--dest", required=True)
    sy.add_argument("--stream", required=True)
    sy.add_argument("--src", required=True, nargs="+")
    sy.add_argument("--mode", default="full_refresh", choices=["full_refresh", "incremental"])
    sy.add_argument(
        "--dest-mode", default="append", choices=["append", "overwrite", "append_dedup"]
    )
    sy.add_argument("--cursor", default=None)
    sy.add_argument("--pk", nargs="*", default=[])

    co = sub.add_parser(
        "corpus", help="build a packed training corpus from a documents table"
    )
    co.add_argument("--docs", required=True, nargs="+",
                    help="documents parquet file(s)/dir(s) (doc_id,text,source)")
    co.add_argument("--out", required=True)
    co.add_argument("--seq-len", type=int, default=2048)
    co.add_argument("--eos", type=int, default=0)
    co.add_argument("--vocab", type=int, default=65536)
    co.add_argument("--min-words", type=int, default=5)
    co.add_argument("--rate", action="append", default=[], metavar="SRC=R",
                    help="per-source keep rate, repeatable (e.g. --rate web=0.5)")
    co.add_argument("--no-dedup", action="store_true")
    co.add_argument("--streaming", action="store_true",
                    help="no per-stage metrics; one fused streaming plan")

    di = sub.add_parser(
        "dedup-index",
        help="persisted cross-run LSH near-dup index (build/append/probe)",
    )
    di.add_argument("action", choices=["build", "append", "probe"])
    di.add_argument("--index", required=True)
    di.add_argument("--docs", required=True, nargs="+",
                    help="documents parquet (doc_id,text); probe = the NEW batch")
    di.add_argument("--threshold", type=float, default=0.8)
    di.add_argument("--shards", type=int, default=64)
    di.add_argument("--out", default=None,
                    help="probe: also write the match table here as parquet")

    ai = sub.add_parser(
        "ann-index",
        help="persisted cell-partitioned IVF ANN index (build/append/query)",
    )
    ai.add_argument("action", choices=["build", "append", "query"])
    ai.add_argument("--index", required=True)
    ai.add_argument("--vecs", required=True, nargs="+",
                    help="embeddings parquet (vec_id,embedding); query = the query set")
    ai.add_argument("--cells", type=int, default=64)
    ai.add_argument("--k", type=int, default=10)
    ai.add_argument("--nprobe", type=int, default=4)
    ai.add_argument("--out", default=None,
                    help="query: also write the top-k table here as parquet")

    args = p.parse_args(argv)

    if args.cmd == "corpus":  # validate BEFORE paying for a Ray session
        rates = {}
        for spec in args.rate:
            src, sep, r = spec.partition("=")
            try:
                if not sep or not src:
                    raise ValueError
                rates[src] = float(r)
            except ValueError:
                p.error(f"--rate expects SRC=RATE (a float), got {spec!r}")
        args.rates_parsed = rates

    if args.cmd == "status":  # no Ray needed
        from .state.manifest import Manifest

        m = Manifest.load(args.lake)
        if m is None:
            print(json.dumps({"error": "no manifest", "lake": args.lake}))
            return 1
        print(
            json.dumps(
                {
                    "watermark": m.watermark,
                    "num_partitions": m.num_partitions,
                    "merge_policy": m.merge_policy,
                    "partitions_live": len(m.partitions),
                    "rows": m.lineage_rows(),
                    "runs": len(m.runs),
                    "last_run": m.runs[-1] if m.runs else None,
                    "schema": m.schema.names if m.schema else None,
                }
            )
        )
        return 0

    if args.cmd == "spec":  # no Ray needed
        from .spec import connector_spec

        print(json.dumps(connector_spec()))
        return 0

    if args.cmd == "import-state":  # no Ray needed
        from .state.migrate import import_state

        with open(args.state) as f:
            blob = json.load(f)
        print(json.dumps(import_state(args.state_dir, blob,
                                      global_root=args.global_root)))
        return 0

    if args.cmd == "validate":  # no Ray needed
        from .spec import validate_config

        with open(args.config) as f:
            cfg = json.load(f)
        errs = validate_config(cfg, kind=args.kind)
        print(json.dumps({"valid": not errs, "errors": errs}))
        return 0 if not errs else 1

    if args.cmd == "check":  # metadata-only — no Ray needed
        from .discover import check

        out = check(args.src if len(args.src) > 1 else args.src[0], fmt=args.format)
        print(json.dumps(out))
        return 0 if out["status"] == "SUCCEEDED" else 1

    if args.cmd == "discover":
        from .discover import discover

        print(json.dumps(discover(
            args.src if len(args.src) > 1 else args.src[0],
            fmt=args.format, stream_name=args.name,
        )))
        return 0

    if args.cmd == "vacuum":
        from .pipelines.replay import LakeTable

        lake = LakeTable(args.lake)
        print(json.dumps({"removed": lake.vacuum()}))
        return 0

    owned = _ray_session(args.num_cpus)
    import ray
    import ray.data

    try:
        if args.cmd == "snapshot":
            from .pipelines.replay import LakeTable, ReplayConfig

            lake = LakeTable(args.lake, ReplayConfig(args.partitions))
            out = lake.init_snapshot(ray.data.read_parquet(args.base))
        elif args.cmd == "apply":
            from .pipelines.replay import LakeTable

            lake = LakeTable(args.lake)
            if args.partitioned:
                # every --log root, not just the first (review finding:
                # silently dropping rootB+ looked like a complete apply)
                applies = [lake.apply_partitioned(r, delta=args.delta)
                           for r in args.log]
                out = applies[0] if len(applies) == 1 else {"roots": applies}
            elif args.chunk:
                out = {"runs": lake.apply_chunked(
                    args.log, chunk_lsns=args.chunk, delta=args.delta
                )}
            else:
                out = lake.apply_log(args.log, delta=args.delta)
        elif args.cmd == "compact":
            from .pipelines.replay import LakeTable

            lake = LakeTable(args.lake)
            out = {"compacted_partitions": lake.compact()}
        elif args.cmd == "sync-shared":
            from .pipelines.catalog_sync import CdcCatalogEngine, CdcStreamConfig
            from .pipelines.replay import ReplayConfig

            cfgs = [
                CdcStreamConfig(n, args.log, replay=ReplayConfig(args.partitions))
                for n in args.streams
            ]
            eng = CdcCatalogEngine(args.root, cfgs)
            out = eng.sync_shared(
                args.log if len(args.log) > 1 else args.log[0], stream_col=args.stream_col
            )
        elif args.cmd == "sync":
            from .config import StreamConfig
            from .pipelines.incremental import SyncEngine

            cfg = StreamConfig(
                args.stream, args.mode, args.dest_mode,
                cursor_field=args.cursor, primary_key=args.pk,
            )
            out = SyncEngine(args.dest).sync(cfg, args.src if len(args.src) > 1 else args.src[0])
        elif args.cmd == "dedup-index":
            from .functions.dedup_index import (
                append_to_index,
                build_minhash_index,
                dedup_against_index,
            )

            docs = ray.data.read_parquet(
                args.docs if len(args.docs) > 1 else args.docs[0]
            )
            if args.action == "build":
                out = build_minhash_index(docs, args.index, n_shards=args.shards)
            elif args.action == "append":
                append_to_index(docs, args.index)
                out = {"appended": docs.count()}
            else:
                res = dedup_against_index(
                    docs, args.index, sim_threshold=args.threshold
                ).materialize()
                out = {"matches": res.count()}
                if args.out:
                    res.write_parquet(args.out)
                    out["out"] = args.out
        elif args.cmd == "ann-index":
            import numpy as np

            from .functions.ann import (
                append_to_ivf_index,
                build_ivf_index,
                ivf_topk_indexed,
            )

            src = args.vecs if len(args.vecs) > 1 else args.vecs[0]
            if args.action == "build":
                c = build_ivf_index(
                    ray.data.read_parquet(src), args.index, n_cells=args.cells
                )
                out = {"built": args.index, "cells": int(len(c))}
            elif args.action == "append":
                vecs = ray.data.read_parquet(src)
                append_to_ivf_index(vecs, args.index)
                out = {"appended": vecs.count()}
            else:
                import json as _json
                import os as _os

                import pyarrow.parquet as _pq

                import pyarrow as _pa

                with open(_os.path.join(args.index, "ivf_meta.json")) as f:
                    meta = _json.load(f)
                # read ALL --vecs paths (build/append already do — advisory
                # finding) and convert via one flatten/reshape, not a
                # per-row to_pylist loop
                qt = _pa.concat_tables([
                    _pq.read_table(p, columns=[meta["col"]])
                    for p in args.vecs
                ])
                from .functions.ann import _matrix as _vec_matrix

                q = _vec_matrix(qt, meta["col"])
                res = ivf_topk_indexed(
                    args.index, q, k=args.k, nprobe=args.nprobe
                ).materialize()
                out = {"queries": int(len(q)), "rows": res.count()}
                if args.out:
                    res.write_parquet(args.out)
                    out["out"] = args.out
        elif args.cmd == "corpus":
            from .pipelines.corpus import CorpusConfig, build_corpus

            cfg = CorpusConfig(
                seq_len=args.seq_len, eos=args.eos, vocab=args.vocab,
                min_words=args.min_words, rates=args.rates_parsed,
                dedup=not args.no_dedup,
                collect_metrics=not args.streaming,
            )
            src = args.docs if len(args.docs) > 1 else args.docs[0]
            out = build_corpus(ray.data.read_parquet(src), args.out, cfg)
        print(json.dumps(out, default=str))
        return 0
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
