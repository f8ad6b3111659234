"""``tools/lake_diff.py``: two builds of the smoke lake set on one tree are
identical, one flipped byte in one listed file is one difference, and a
listed file rewritten with the same rows in another encoding is one
difference noted "(same rows)"."""

import importlib.util
import json
import os

import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lake_diff", os.path.join(ROOT, "tools", "lake_diff.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_lake_diff_smoke(tmp_path):
    tool = _tool()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    made = tool.build(a, "smoke")
    tool.build(b, "smoke")
    assert len(made) == len(tool.BOUNDS)
    assert tool.diff(a, b) == []

    lake = made[0].replace(a, b, 1)
    with open(os.path.join(lake, tool.MANIFEST)) as f:
        m = json.load(f)
    rel, other = tool._listed(m)[:2]
    with open(os.path.join(lake, rel), "r+b") as f:
        f.seek(100)
        byte = f.read(1)
        f.seek(100)
        f.write(bytes([byte[0] ^ 0xFF]))
    (line,) = tool.diff(a, b)
    assert rel in line and "bytes" in line and "same rows" not in line

    # the same rows in list form, snappy with dictionary pages
    pq.write_table(tool._segment_rows(lake, m, other), os.path.join(lake, other))
    lines = tool.diff(a, b)
    assert len(lines) == 2 and line in lines
    (rewritten,) = [x for x in lines if x != line]
    assert rewritten == f"{os.path.relpath(lake, b)}: bytes of {other} differ (same rows)"
