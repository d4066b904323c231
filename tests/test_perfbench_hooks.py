"""The benchmark's per-layer tracer names triwave functions by string.

A name that no longer resolves only shows up as a ``trace_missing`` entry of a
traced benchmark run, and its layer silently reads 0.  These tests resolve
every name the tracer hooks against the package, and run the benchmark's own
smoke run, which drives every workload through the hooks.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from triwave.flux import FluxTable, derivative_bounds, make_flux
from triwave.history import PairHistory
from triwave.wavefield import StepFunction, assign_initial_speeds, initial_enumeration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, loaded by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in tracing.TRACED])
def test_traced_name_resolves(module, attr):
    owner_name, _, method = attr.partition(".")
    owner = getattr(importlib.import_module(f"triwave.{module}"), owner_name)
    # the tracer rebinds a method in the class that defines it, not a base class
    target = vars(owner)[method] if method else owner
    assert callable(target)


def test_fronts_hook_resolves():
    module, attr = tracing.FRONTS_HOOK
    assert callable(getattr(importlib.import_module(f"triwave.{module}"), attr))


def test_on_event_probe_reads_the_pairs():
    # the probe reads the history's ``pairs`` mapping after each event; were
    # it gone, history.pairs_peak would read 0 and no name above would tell
    spec = make_flux("quadratic_coupled")
    history = PairHistory(spec=spec, eps=0.05, bounds=derivative_bounds(spec))
    # the rarefaction at x = 0 divides its two waves at t = 0
    state = initial_enumeration(StepFunction.from_jumps([(0.0, 2), (9.5, 0)]),
                                StepFunction((), (), 0), 0.05)
    history.initialize(state, assign_initial_speeds(state, FluxTable(spec, 0.05)))
    assert isinstance(history.pairs, dict) and history.pairs
    tracer = tracing.Tracer()
    tracer._on_event_probe(lambda history: None)(history)
    assert tracer.pairs_peak == len(history.pairs)


def test_the_benchmark_smoke_run_passes():
    # every workload at a tiny size, untraced and traced, with its metric
    # names and units checked against BENCHMARK.json: one line per run
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * len(workloads), proc.stdout
    assert all(line.endswith(" ok") for line in lines), proc.stdout
