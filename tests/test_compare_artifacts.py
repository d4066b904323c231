"""``tools/compare_artifacts.py`` on the smoke-size workloads: a tree compared
with itself, and a copy of its output with one byte changed."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_artifacts.py"


def load_tool():
    """tools/compare_artifacts.py as a module, loaded by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_a_tree_matches_itself_and_one_changed_byte_is_named(tmp_path, capsys):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT / "src"), "--seeds", "1",
                           "--smoke", "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # every case of the four workloads writes five artifacts
    assert proc.stdout == "35 artifacts identical\n"
    parent = tmp_path / "parent"
    names = sorted(p.relative_to(parent) for p in parent.rglob("*") if p.is_file())
    assert Path("1/many_fronts/datum/events.csv") in names

    tool = load_tool()
    changed = tmp_path / "changed"
    shutil.copytree(parent, changed)
    target = changed / "1" / "many_fronts" / "datum" / "events.csv"
    data = bytearray(target.read_bytes())
    data[-3] ^= 1
    target.write_bytes(bytes(data))
    assert tool.compare(parent, changed) == 1
    assert capsys.readouterr().out == "1/many_fronts/datum/events.csv: differs\n"
    target.unlink()
    assert tool.compare(parent, changed) == 1
    assert capsys.readouterr().out == "1/many_fronts/datum/events.csv: missing on the change side\n"
