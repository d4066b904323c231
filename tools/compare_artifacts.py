"""Byte-for-byte comparison of the artifacts two source trees write.

    python3 tools/compare_artifacts.py PARENT CHANGE --seeds 1,7 --out DIR

Runs every case of every benchmark workload, as ``perfbench/workloads.py``
builds it for each seed, once with the triwave of ``PARENT`` and once with
the triwave of ``CHANGE``, each tree in a fresh process.  A tree is a
checkout (its ``src`` holds ``triwave``) or a ``src`` directory itself.  The
configs are the ones the benchmark worker's ``make_configs`` builds for each
workload, so the two cannot drift apart.  Every case writes its artifacts
into ``DIR/parent`` or ``DIR/change`` under ``<seed>/<workload>/<case>``;
both are emptied first.

Prints the number of artifacts and exits 0 if the two sides hold the same
files with the same bytes; else names the first file, in sorted order, that
differs or is on one side only, and exits 1.  ``--smoke`` runs the workloads
at the benchmark's smoke size.  ``perfbench/worker.py``, with the modules it
imports, is loaded by path from the checkout this script sits in, and
nothing is written there.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

WORKER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
SIDES = ("parent", "change")


def load_worker():
    """perfbench/worker.py as a module, loaded by path without writing
    bytecode, for it and for the ``checks``, ``reference`` and
    ``workloads`` modules it imports."""
    spec = importlib.util.spec_from_file_location("worker", WORKER_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def src_dir(tree: Path) -> Path:
    """The directory that holds the ``triwave`` package of ``tree``."""
    for src in (tree / "src", tree):
        if (src / "triwave" / "__init__.py").is_file():
            return src.resolve()
    raise SystemExit(f"no triwave package in {tree} or {tree / 'src'}")


def write(src: Path, seeds: list[int], smoke: bool, out: Path) -> None:
    """Run every case with the triwave of ``src`` into ``out``; called in the
    fresh process of one tree."""
    sys.path.insert(0, str(src))
    import triwave.scenario as scenario

    if not Path(scenario.__file__).resolve().is_relative_to(src):
        raise ImportError(f"triwave imported from {scenario.__file__}, not from {src}")
    worker = load_worker()
    workloads = worker.workloads
    for seed in seeds:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, seed, smoke=smoke)
            for case, config in zip(wl.cases, worker.make_configs(scenario, wl)):
                scenario.run_scenario(config, out_dir=out / str(seed) / name / case.key)


def compare(parent: Path, change: Path) -> int:
    """Print the outcome of comparing the two output trees; 0 if every file
    is on both sides with the same bytes, else 1."""
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for side, root in zip(SIDES, (parent, change))}
    for rel in sorted(files["parent"] | files["change"]):
        missing = [side for side in SIDES if rel not in files[side]]
        if missing:
            print(f"{rel}: missing on the {missing[0]} side")
            return 1
        if (parent / rel).read_bytes() != (change / rel).read_bytes():
            print(f"{rel}: differs")
            return 1
    print(f"{len(files['parent'])} artifacts identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree under test")
    parser.add_argument("--seeds", default="1,7", help="comma-separated workload seeds")
    parser.add_argument("--out", type=Path, required=True, help="directory for both outputs")
    parser.add_argument("--smoke", action="store_true", help="the workloads' smoke size")
    parser.add_argument("--write", choices=SIDES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = dict(zip(SIDES, (args.parent, args.change)))
    if args.write:      # the fresh process of one side
        write(src_dir(trees[args.write]), seeds, args.smoke, args.out / args.write)
        return 0
    for side, tree in trees.items():
        shutil.rmtree(args.out / side, ignore_errors=True)
        argv = [str(args.parent), str(args.change), "--seeds", args.seeds, "--out", str(args.out),
                "--write", side] + (["--smoke"] if args.smoke else [])
        if subprocess.run([sys.executable, __file__, *argv]).returncode != 0:
            print(f"the {side} tree {tree} did not finish its runs")
            return 1
    return compare(args.out / "parent", args.out / "change")


if __name__ == "__main__":
    sys.exit(main())
