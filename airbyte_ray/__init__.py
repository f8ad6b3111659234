"""airbyte_ray — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch reimplementation of the query/data-processing capabilities of
the Airbyte reference (Newton-School/airbyte @ /root/reference) on idiomatic
Ray Data: ``ray.data.Dataset`` pipelines, ``map_batches`` over zero-copy
Arrow batches, actor pools for stateful stages, explicit hash partitioning
for the keyed merge.  See SURVEY.md for the operator inventory and the
mapping from reference semantics (file:line cites) to this engine.

Nothing here calls ``ray.init()`` — sessions are owned by the caller
(perfbench, pytest fixture, or the evaluation driver).
"""

__version__ = "0.1.0"

# This container has fsspec but not aiohttp, so `fsspec.implementations.http`
# can never import.  Ray Data probes it (`path_util._is_http_filesystem`) on
# every read_parquet and tolerates ModuleNotFoundError — but under concurrent
# planning threads the failed import intermittently surfaces as a partially-
# initialized module ("ImportError: cannot import name 'HTTPFileSystem'"),
# flaking whole pipelines.  Pre-seed a minimal stub so the probe is
# deterministic: the name resolves, no local filesystem isinstance-matches
# it, and any genuine http:// read still fails with a clear error.
try:  # pragma: no cover - depends on container contents
    import fsspec.implementations.http as _fsspec_http  # noqa: F401
except ModuleNotFoundError:
    import sys as _sys
    import types as _types

    try:
        import fsspec.implementations as _fsspec_impls

        _stub = _types.ModuleType("fsspec.implementations.http")

        class _NoAiohttpHTTPFileSystem:
            def __init__(self, *a, **k):
                raise ModuleNotFoundError(
                    "aiohttp is not installed — http:// paths are unavailable"
                )

        _stub.HTTPFileSystem = _NoAiohttpHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _stub
        _fsspec_impls.http = _stub
    except ModuleNotFoundError:
        pass  # no fsspec at all: nothing to stabilize
