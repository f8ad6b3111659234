"""``tools/lake_diff.py``: two builds of the smoke lake set on one tree are
identical, and one flipped byte in one listed file is one difference."""

import importlib.util
import json
import os

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
        rel = tool._listed(json.load(f))[0]
    with open(os.path.join(lake, rel), "r+b") as f:
        f.seek(100)
        byte = f.read(1)
        f.seek(100)
        f.write(bytes([byte[0] ^ 0xFF]))
    (line,) = tool.diff(a, b)
    assert rel in line and "bytes" in line
