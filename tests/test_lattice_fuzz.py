"""The exit status and counts line of ``tools/lattice_fuzz.py``, driven with a
stubbed ``run_scenario`` so that no datum is simulated; and the kept fronts
over the first lattice data the fuzz draws."""

import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from doubles import FrontIndexAgainstScan
from triwave import simulator

FUZZ = Path(__file__).resolve().parents[1] / "tools" / "lattice_fuzz.py"


def load_fuzz():
    """tools/lattice_fuzz.py as a module, loaded by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("lattice_fuzz", FUZZ)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


fuzz = load_fuzz()


def stub_outcomes(monkeypatch, outcomes):
    """Make ``run_scenario`` give the datum k outcome k: True passes, False
    fails a check, and an exception is raised."""
    calls = iter(outcomes)

    def run_scenario(config):
        outcome = next(calls)
        if isinstance(outcome, Exception):
            raise outcome
        return SimpleNamespace(passed=outcome)

    monkeypatch.setattr(fuzz, "run_scenario", run_scenario)


def test_a_failing_or_raising_datum_exits_1(monkeypatch, capsys):
    stub_outcomes(monkeypatch, [True, False, RuntimeError("no collision\nmore")])
    assert fuzz.main(["--n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "datum 2 raised RuntimeError: no collision"
    assert lines[-1] == "passed 1, failed 1, raised 1, skipped 0 of 3"


def test_a_failing_datum_alone_exits_1(monkeypatch, capsys):
    stub_outcomes(monkeypatch, [True, False])
    assert fuzz.main(["--n", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "passed 1, failed 1, raised 0, skipped 0 of 2"


def test_every_datum_passing_exits_0(monkeypatch, capsys):
    stub_outcomes(monkeypatch, [True, True])
    assert fuzz.main(["--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "passed 2, failed 0, raised 0, skipped 0 of 2"


def test_a_datum_with_no_wave_is_skipped_not_run(monkeypatch, capsys):
    # datum 38 is the first whose w0 is 0 everywhere: it is not run (the
    # stub has no outcome for it) and counts as skipped, not passed
    stub_outcomes(monkeypatch, [True] * 38)
    assert fuzz.main(["--n", "39"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "passed 38, failed 0, raised 0, skipped 1 of 39"


def test_front_index_matches_the_scan_on_lattice_data(monkeypatch):
    # after every event of the first 40 data the fuzz draws, run at level
    # fast (the level plays no part in the fronts), the bisection of the
    # kept last ids finds the front of every alive wave and none for a dead one
    check = FrontIndexAgainstScan(simulator.resolve)
    monkeypatch.setattr(simulator, "resolve", check)
    rng = random.Random(0)
    for _ in range(40):
        fuzz.run_scenario(replace(fuzz.draw_config(rng), check_level="fast"))
    assert check.seen["events"] > 700 and check.seen["dead"] > 1000, check.seen
