"""State-flavor normalization and legacy migration.

The reference accepts four state shapes and normalizes them all into
(shared_state, per-stream blobs) before a sync starts
(airbyte-cdk/python/airbyte_cdk/sources/connector_state_manager.py:96-146):

  1. LEGACY   — a bare mapping ``{stream_name: blob}``
  2. migrated LEGACY — ``[{"type": "LEGACY", "data": {stream: blob}}]``
  3. GLOBAL   — ``[{"type": "GLOBAL", "global": {"shared_state": …,
                  "stream_states": [{stream_descriptor, stream_state}…]}}]``
  4. STREAM   — ``[{"type": "STREAM", "stream": {stream_descriptor,
                  stream_state}}…]``

This module does the same for the Ray engine's durable stores:
``normalize_state`` detects the flavor and returns the canonical pair;
``import_state`` seeds per-stream ``StreamState`` JSON files (and,
for GLOBAL, the catalog's shared-offset file) so an engine taking over
from a reference deployment resumes from the blob it left behind;
``export_legacy`` emits the bare legacy dict back out (the
``_get_legacy_state`` analog) for round-tripping into tooling that still
expects flavor 1.
"""
from __future__ import annotations

import json
import os
from typing import Any, Mapping

from .atomic import commit_json

Descriptor = tuple[str, str | None]  # (name, namespace)


def _descriptor(d: Mapping[str, Any]) -> Descriptor:
    return (d["name"], d.get("namespace"))


def state_flavor(state: Any) -> str:
    """'legacy' | 'migrated_legacy' | 'global' | 'stream' (raises otherwise)."""
    if isinstance(state, Mapping):
        return "legacy"
    if isinstance(state, list) and all(isinstance(m, Mapping) for m in state):
        if len(state) == 1 and str(state[0].get("type", "")).upper() == "LEGACY":
            return "migrated_legacy"
        if len(state) == 1 and str(state[0].get("type", "")).upper() == "GLOBAL":
            return "global"
        if all(str(m.get("type", "")).upper() == "STREAM" and "stream" in m
               for m in state):
            return "stream"
    raise ValueError(
        "state must be a legacy mapping or a list of state messages "
        "(connector_state_manager._extract_from_state_message contract)"
    )


def normalize_state(
    state: Any,
) -> tuple[dict | None, dict[Descriptor, dict]]:
    """(shared_state | None, {(stream, namespace): blob}) for any flavor."""
    flavor = state_flavor(state)
    if flavor == "legacy":
        return None, {(k, None): dict(v) for k, v in state.items()}
    if flavor == "migrated_legacy":
        return None, {(k, None): dict(v) for k, v in state[0]["data"].items()}
    if flavor == "global":
        g = state[0]["global"]
        shared = dict(g.get("shared_state") or {}) or None
        per = {
            _descriptor(s["stream_descriptor"]): dict(s.get("stream_state") or {})
            for s in g.get("stream_states", [])
        }
        return shared, per
    # stream
    per = {}
    for m in state:
        s = m["stream"]
        per[_descriptor(s["stream_descriptor"])] = dict(s.get("stream_state") or {})
    return None, per


def _stream_file(name: str, namespace: str | None) -> str:
    # The engine reads '{name}.json' (StreamState, incremental.py:57); the
    # namespace is preserved INSIDE the blob, not in the filename —
    # a namespaced filename would make the migrated cursor silently
    # unloadable (review finding).  Cross-namespace name collisions are
    # rejected loudly in import_state instead.
    return f"{name}.json"


def import_state(
    state_dir: str,
    state: Any,
    cursor_fields: Mapping[str, str] | None = None,
    global_root: str | None = None,
) -> dict:
    """Seed the engine's durable state from a reference-era blob.

    Per-stream blobs land as ``StreamState`` JSON files under ``state_dir``
    (cursor extracted via ``cursor_fields[stream]``, default ``"cursor"``;
    the raw blob is preserved under ``"migrated_blob"`` so nothing is
    lost).  With ``global_root`` set, a GLOBAL shared state carrying a
    CDC offset (``lsn``/``watermark``) also seeds the catalog engine's
    ``_global_state.json``.  Existing per-stream files are NOT overwritten
    — migration is a bootstrap, never a rollback of newer local state.
    Returns {"flavor", "imported", "skipped", "shared"}."""
    shared, per = normalize_state(state)
    cursor_fields = cursor_fields or {}
    os.makedirs(state_dir, exist_ok=True)
    names_seen: dict[str, str | None] = {}
    for (name, ns), _ in per.items():
        if name in names_seen and names_seen[name] != ns:
            raise ValueError(
                f"stream name {name!r} appears under namespaces "
                f"{names_seen[name]!r} and {ns!r}: one state_dir holds one "
                "namespace's streams — import each namespace into its own "
                "state_dir"
            )
        names_seen[name] = ns
    imported, skipped = [], []
    for (name, ns), blob in per.items():
        path = os.path.join(state_dir, _stream_file(name, ns))
        if os.path.exists(path):
            skipped.append(name)
            continue
        cfield = cursor_fields.get(name, "cursor")
        doc = {
            "cursor": blob.get(cfield),
            "sync_id": 0,
            "runs": [],
            "namespace": ns,
            "migrated_blob": blob,
        }
        commit_json(path, doc)
        imported.append(name)
    out = {"flavor": state_flavor(state), "imported": sorted(imported),
           "skipped": sorted(skipped), "shared": shared}
    if shared and global_root:
        wm = shared.get("lsn", shared.get("watermark"))
        gpath = os.path.join(global_root, "_global_state.json")
        if wm is not None and not os.path.exists(gpath):
            commit_json(gpath, {"watermark": int(wm), "runs": [],
                                "migrated_blob": shared})
            out["global_watermark"] = int(wm)
    return out


def export_legacy(state_dir: str) -> dict:
    """Bare legacy mapping {stream: blob} from the per-stream store —
    the ``_get_legacy_state`` analog (create_state_message's legacy
    ``data`` field).  Keys are BARE stream names, matching the reference:
    its legacy mapping is keyed by stream name only (namespace rides on
    the stream instance, not the key), and ``import_state`` reads legacy
    keys the same way — so export→import round-trips.  The legacy format
    is namespace-lossy by spec; one state_dir holds one namespace's
    streams (enforced at import), so no key can collide."""
    out: dict[str, dict] = {}
    if not os.path.isdir(state_dir):
        return out
    for fn in sorted(os.listdir(state_dir)):
        if not fn.endswith(".json"):
            continue
        with open(os.path.join(state_dir, fn)) as f:
            st = json.load(f)
        blob = dict(st.get("migrated_blob") or {})
        if st.get("cursor") is not None:
            blob.setdefault("cursor", st["cursor"])
        out[fn[: -len(".json")]] = blob
    return out
