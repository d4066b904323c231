import ast
import concurrent.futures
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import golden.regen as regen
from doubles import compensated_sum, csv_events, csv_functionals, dumps_report, write_config
from golden.regen import GOLDEN, check_changes, column_changes, golden_cases
from test_acceptance import ensemble_config
from triwave import cli, scenario, simulator, verifier
from triwave import flux as flux_module
from triwave.flux import flux_constants, flux_table
from triwave.scenario import (
    ARTIFACTS,
    MAX_BOX_TICKS,
    ScenarioConfig,
    batch,
    build_initial_data,
    generate_initial_data,
    run_scenario,
)
from triwave.verifier import summarize
from triwave.wavefield import snapshot

EPS = 0.05
DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def assert_golden(out: Path, golden: Path) -> None:
    """Each golden file of ``golden`` is unchanged in ``out``: the CSV files
    in their bytes, ``report.json`` in its parsed check values."""
    for name in regen.NAMES:
        assert regen.same(name, (golden / name).read_bytes(), (out / name).read_bytes()), name


def workload_cases() -> dict[str, ScenarioConfig]:
    """The first case of each benchmark workload at seed 0, as the benchmark
    runs it, from ``perfbench/workloads.py`` loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    out = {}
    for name in module.WORKLOADS:
        wl = module.build(name, 0)
        case = wl.cases[0]
        out[name] = ScenarioConfig(
            flux=case.flux, eps=case.eps, w0={"jumps": [[x, v] for x, v in case.w0]},
            v0={"jumps": [[x, v] for x, v in case.v0]}, check_level=wl.check_level)
    return out


WRITER_CASES = {str(path.relative_to(GOLDEN.parent)): config
                for path, config in golden_cases().items()} | workload_cases()


@pytest.mark.parametrize("case", WRITER_CASES)
def test_artifacts_are_the_bytes_of_csv_writer_and_json_dumps(case, tmp_path):
    # the writers lay their rows and entries out by hand, with one text per
    # float per run; the oracles are csv.writer and one json.dumps
    res = run_scenario(WRITER_CASES[case], out_dir=tmp_path)
    oracles = {
        "events.csv": lambda fh: csv_events(fh, res.trajectory),
        "functionals.csv": lambda fh: csv_functionals(fh, res.trajectory),
        "report.json": lambda fh: dumps_report(res.checks, res.summary, fh),
    }
    for name, oracle in oracles.items():
        want = io.StringIO()
        oracle(want)
        assert (tmp_path / name).read_bytes() == want.getvalue().encode(), name


class TestGenerateInitialData:
    def test_one_jump_forces_return(self, rng):
        sf = generate_initial_data({"jumps": 1, "max_amplitude": 0.4}, rng, EPS, 0.8)
        assert len(sf.positions) == 2
        assert sf.values[-1] == 0

    def test_deterministic_per_seed(self):
        for seed in (0, 7, 99):
            a = generate_initial_data(
                {"jumps": 5, "max_amplitude": 0.4}, np.random.default_rng(seed), EPS, 0.8)
            b = generate_initial_data(
                {"jumps": 5, "max_amplitude": 0.4}, np.random.default_rng(seed), EPS, 0.8)
            assert a == b

    def test_validation_sweep(self):
        # box containment, grid values, compact support, constraints honored
        rng = np.random.default_rng(123)
        spec = {"jumps": 6, "max_amplitude": 0.4, "max_waves": 40, "max_fronts": 7}
        for _ in range(2000):
            sf = generate_initial_data(spec, rng, EPS, 0.8)
            assert sf.values[-1] == 0
            assert all(abs(v) * EPS <= 0.4 + 1e-12 for v in sf.values)
            assert all(0.0 <= x <= 10.0 for x in sf.positions)
            assert sf.tv_ticks() <= 40
            assert len(sf.positions) <= 7

    def test_rejects_bad_specs(self, rng):
        with pytest.raises(ValueError):
            generate_initial_data({"jumps": 0}, rng, EPS, 0.8)
        with pytest.raises(ValueError):
            generate_initial_data({"jumps": 2, "max_amplitude": 2.0}, rng, EPS, 0.8)
        with pytest.raises(ValueError):
            generate_initial_data({"jumps": 2, "max_amplitude": 0.01}, rng, EPS, 0.8)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig(seed=5, check_level="small_n", eps=0.1)
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        again = ScenarioConfig.from_json(path)
        assert again == cfg

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            ScenarioConfig(check_level="nope")

    @pytest.mark.parametrize("w0,message", [
        ({"jumps": [[1.0, True], [2.0, 0]]}, "w0 jumps must be a list of [x, tick] pairs"),
        ({"jumps": [["1.0", 2], [2.0, 0]]}, "w0 jumps must be a list of [x, tick] pairs"),
        ({"jumps": [[1.0, 2, 3]]}, "w0 jumps must be a list of [x, tick] pairs"),
        ({"random": {"jumps": 5.0}}, "w0 random spec: jumps must be an integer, got 5.0"),
        ({"random": {"jumps": 3, "max_fronts": False}},
         "w0 random spec: max_fronts must be an integer, got False"),
        ({"random": {"jumps": 3, "max_amplitude": "0.3"}},
         "w0 random spec: max_amplitude must be a number, got '0.3'"),
    ])
    def test_rejects_bad_datum_values(self, w0, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig(w0=w0)

    @pytest.mark.parametrize("key,value,name", [
        ("w0", {"jumps": [[np.float32(1.0), 3], [4.0, 0]]}, "float32"),
        ("v0", {"random": {"jumps": np.int64(3)}}, "int64"),
        ("flux", {"name": "quartic", "params": {"c": np.float32(0.1)}}, "float32"),
    ])
    def test_rejects_what_json_cannot_encode(self, key, value, name):
        # a numpy scalar passes as a number, but config.json could not hold it
        message = (f"{key} must hold only JSON values (objects, lists, strings, numbers, "
                   f"booleans, null): Object of type {name} is not JSON serializable")
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig(**{key: value})

    def test_explicit_jump_lists(self, spec):
        cfg = ScenarioConfig(w0={"jumps": [[1.0, 2], [3.0, 0]]},
                             v0={"jumps": [[5.0, 1], [6.0, 0]]})
        w0, v0 = build_initial_data(cfg, spec)
        assert w0.positions == (1.0, 3.0)
        assert v0.values == (1, 0)


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        cfg = ScenarioConfig(
            seed=2,
            check_level="full",
            write_snapshots=True,
            w0={"random": {"jumps": 4, "max_amplitude": 0.4, "max_waves": 20}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        res = run_scenario(cfg, out_dir=tmp_path)
        assert res.passed
        events = (tmp_path / "events.csv").read_text().splitlines()
        assert events[0] == "j,t,x,kind,n_waves,v_strength,cancellation"
        assert len(events) == len(res.trajectory.events) + 1
        functionals = (tmp_path / "functionals.csv").read_text().splitlines()
        assert len(functionals) == len(res.trajectory.snapshots) + 1
        # every JSON artifact is one line that parses to its document, floats exact
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {
            "passed": True,
            "summary": summarize(res.checks),
            "checks": [c.as_dict() for c in res.checks],
        }
        assert res.summary == report["summary"]   # the summary the run wrote
        snaps = json.loads((tmp_path / "snapshots.json").read_text())
        assert snaps == {
            "initial": snapshot(res.trajectory.initial_state),
            "final": snapshot(res.trajectory.final_state),
        }
        written = json.loads((tmp_path / "config.json").read_text())
        assert written == {**vars(cfg), "out_dir": None}
        for name in ("report.json", "snapshots.json", "config.json"):
            assert (tmp_path / name).read_text().count("\n") == 1, name

    def test_byte_identical_reruns(self, tmp_path):
        # the report too: check_log2_kernel draws its cases from default_rng(0)
        cfg = ScenarioConfig(
            seed=3,
            write_snapshots=True,
            w0={"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": 30}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3}},
        )
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        for name in ("events.csv", "functionals.csv", "report.json", "snapshots.json",
                     "config.json"):
            a, b = ((tmp_path / side / name).read_bytes() for side in "ab")
            assert a == b, name

    def test_a_run_without_snapshots_removes_stale_ones(self, tmp_path):
        doc = json.loads(DEMO.read_text())
        run_scenario(ScenarioConfig(**{**doc, "write_snapshots": True}), out_dir=tmp_path)
        assert (tmp_path / "snapshots.json").exists()
        run_scenario(ScenarioConfig(**{**doc, "seed": 7, "write_snapshots": False}),
                     out_dir=tmp_path)
        assert json.loads((tmp_path / "config.json").read_text())["seed"] == 7
        assert not (tmp_path / "snapshots.json").exists()

    def test_config_json_replays_the_run(self, tmp_path):
        cfg = ScenarioConfig(
            seed=5,
            out_dir=str(tmp_path / "run"),
            w0={"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": 30}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3}},
        )
        run_scenario(cfg)
        replayed = ScenarioConfig.from_json(tmp_path / "run" / "config.json")
        assert replayed.out_dir is None
        run_scenario(replayed, out_dir=tmp_path / "replay")
        for name in ("events.csv", "functionals.csv"):
            a, b = ((tmp_path / side / name).read_bytes() for side in ("run", "replay"))
            assert a == b, name

    def test_golden_artifacts_seed_42(self, tmp_path):
        # configs/demo.json as shipped (seed 42, level full); a change that
        # alters these artifacts on purpose regenerates tests/golden with
        # tests/golden/regen.py and says so
        res = run_scenario(golden_cases()[GOLDEN], out_dir=tmp_path)
        assert res.passed
        assert_golden(tmp_path, GOLDEN)

    def test_golden_artifacts_scalar_fast(self, tmp_path):
        # 58 single-tick jumps, no v: 48 events at level fast, where only the
        # final state is validated; a change that alters these bytes on
        # purpose regenerates tests/golden/scalar_fast with
        # tests/golden/regen.py and says so
        res = run_scenario(golden_cases()[GOLDEN / "scalar_fast"], out_dir=tmp_path)
        assert res.passed
        assert len(res.trajectory.events) == 48
        assert_golden(tmp_path, GOLDEN / "scalar_fast")

    def test_golden_artifacts_cubic_split(self, tmp_path):
        # the cubic custom_poly flux at level full: 39 events, among them a
        # crossing that splits a partition class and a cancellation that
        # cuts one, so these bytes pin the class-refinement path; a change
        # that alters them on purpose regenerates tests/golden/cubic_split
        # with tests/golden/regen.py and says so
        res = run_scenario(golden_cases()[GOLDEN / "cubic_split"], out_dir=tmp_path)
        assert res.passed
        assert len(res.trajectory.events) == 39
        assert_golden(tmp_path, GOLDEN / "cubic_split")

    def test_golden_artifacts_small_n_cubic(self, tmp_path):
        # the lemma suite's cubic datum at level small_n: 12 events, divided
        # pairs with a class of two waves that nest with equal classes, so
        # report.json pins the pair keys of the lemma checks' worst
        # candidates; a change that alters them on purpose regenerates
        # tests/golden/small_n_cubic with tests/golden/regen.py and says so
        res = run_scenario(golden_cases()[GOLDEN / "small_n_cubic"], out_dir=tmp_path)
        assert res.passed
        assert len(res.trajectory.events) == 12
        assert {c.name for c in res.checks} >= {
            "class_gap_lemma", "outer_pair_pi_agreement", "replay_pi_match"}
        assert_golden(tmp_path, GOLDEN / "small_n_cubic")

    @pytest.mark.parametrize("case", ["scalar_fast", "cubic_split", "small_n_cubic"])
    def test_golden_bytes_do_not_depend_on_how_sum_rounds(self, case, tmp_path, monkeypatch):
        # from Python 3.12 the builtin sum compensates float rounding; the
        # float sums of the artifacts add left to right, so the explicit-jump
        # goldens keep every byte with such a sum as the sum of the modules
        # that make them
        for module in (simulator, verifier):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        run_scenario(golden_cases()[GOLDEN / case], out_dir=tmp_path)
        for name in regen.NAMES:
            assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name

    def test_regen_reports_the_changed_columns(self):
        old = b"j,q_quadratic\r\n0,1.0\r\n1,2.0\r\n"
        new = b"j,q_quadratic\r\n0,1.0\r\n1,2.000000002\r\n"
        assert column_changes(old, old) == {}
        assert column_changes(old, new) == {"q_quadratic": pytest.approx(1e-9)}
        assert list(column_changes(old, old + b"2,3.0\r\n")) == ["*"]

    def test_regen_reports_the_changed_checks(self):
        def report(*checks):
            return json.dumps({"passed": True, "summary": {}, "checks": [
                {"name": name, "scope": f"event:{k}", "lhs": lhs, "rhs": 0.0,
                 "slack": -lhs, "passed": True, "context": context}
                for k, (name, lhs, context) in enumerate(checks)]}).encode()

        old = report(("replay_q_quadratic", 1e-16, {"actual": 0.25}),
                     ("replay_q_quadratic", 0.0, {"actual": 0.5}),
                     ("class_gap_lemma", 0.0, {"pair": [2, 4]}))
        new = report(("replay_q_quadratic", 0.0, {"actual": 0.2500000001}),
                     ("replay_q_quadratic", 0.0, {"actual": 0.5}),
                     ("class_gap_lemma", 0.0, {"pair": [2, 5]}))
        assert check_changes(old, new) == {
            "replay_q_quadratic": "1 of 2 entries; actual 4e-10 relative, lhs 1 relative, "
                                  "slack 1 relative",
            "class_gap_lemma": "1 of 1 entries; pair: non-numeric change",
        }
        assert list(check_changes(old, new.replace(b"event:2", b"event:3"))) == ["*"]
        assert list(check_changes(old, old.replace(b'"passed": true, "summary"',
                                                   b'"passed": false, "summary"'))) == ["*"]

    def test_regen_compares_a_report_by_its_parsed_values(self):
        report = b'{"passed": true, "summary": {"main_theorem": {"min_slack": 0.5}}}'
        assert regen.same("report.json", report, report.replace(b": ", b":"))
        assert not regen.same("report.json", report, report.replace(b"0.5", b"0.25"))
        assert not regen.same("report.json", b"", report)
        assert not regen.same("events.csv", b"j\r\n", b"j\n")

    def test_regen_check_finds_the_committed_goldens_unchanged(self):
        assert regen.main(["--check"]) == 0

    def test_regen_imports_triwave_from_its_checkout(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(GOLDEN / "regen.py"), "--help"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "--check" in proc.stdout

    def test_regen_check_writes_nothing_and_fails_on_a_change(self, tmp_path, monkeypatch,
                                                              capsys):
        case = golden_cases()[GOLDEN / "scalar_fast"]
        for name in regen.NAMES:
            (tmp_path / name).write_bytes((GOLDEN / "scalar_fast" / name).read_bytes())
        stale = (tmp_path / "events.csv").read_bytes() + b"stale\r\n"
        (tmp_path / "events.csv").write_bytes(stale)
        monkeypatch.setattr(regen, "golden_cases", lambda: {tmp_path: case})
        assert regen.main(["--check"]) == 1
        assert (tmp_path / "events.csv").read_bytes() == stale
        out = capsys.readouterr().out
        assert f"{tmp_path / 'events.csv'}: would change" in out
        assert f"{tmp_path / 'functionals.csv'}: unchanged" in out

    def test_non_hyperbolic_flux_fails_fast(self, tmp_path):
        cfg = ScenarioConfig(flux={"name": "custom_poly", "params": {"coeffs": [[2, 0, 2.0]]}})
        with pytest.raises(ValueError, match=r"d_w\(-0\.8, -0\.5\) = -3\.2 <= -1"):
            run_scenario(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_fan_speed_of_one_fails_before_the_run(self, tmp_path):
        # f = w^2 passes d_w > -1 on its box, but the datum's fan from 0 to
        # 0.7 would move at 1.05 from w = 0.5 on
        flux = {"name": "custom_poly", "params": {"coeffs": [[2, 0, 1.0]],
                                                  "box": [0.0, 0.8, -0.5, 0.5]}}
        cfg = ScenarioConfig(flux=flux, eps=EPS, w0={"jumps": [[1.0, 14], [2.0, 0]]},
                             v0={"jumps": []})
        message = ("flux custom_poly is not hyperbolic on the data: "
                   "chord of f(., v=0.0) from w=0.5 to w=0.55 is 1.05")
        with pytest.raises(ValueError, match=re.escape(message)):
            run_scenario(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        # up to w = 0.5 every chord is below 1, and the run goes through
        cfg.w0 = {"jumps": [[1.0, 10], [2.0, 0]]}
        assert run_scenario(cfg).passed

    @pytest.mark.parametrize("tick", [17, -17, 10**6])
    def test_w0_outside_the_flux_box_fails_fast(self, tmp_path, capsys, tick):
        # quadratic_coupled's box is |w| <= 0.8, ticks [-16, 16] at eps 0.05;
        # the check comes before the chords, which cost a flux call per tick
        doc = {**json.loads(DEMO.read_text()), "w0": {"jumps": [[0.0, tick], [1.0, 0]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert (f"error: w0 takes tick {tick} (w = {tick * 0.05:g}), outside the flux box: "
                f"w in [-0.8, 0.8] is ticks [-16, 16] at eps 0.05") in capsys.readouterr().err
        # the box's edge is inside it
        doc["w0"] = {"jumps": [[0.0, 16 if tick > 0 else -16], [1.0, 0]]}
        assert run_scenario(ScenarioConfig(**doc)).passed

    @pytest.mark.parametrize("tick", [20, -11])
    def test_v0_outside_the_flux_box_fails_fast(self, tmp_path, capsys, tick):
        # quadratic_coupled's box is |v| <= 0.5, ticks [-10, 10] at eps 0.05;
        # the check comes before the initial speeds, which would read the
        # flux at that v
        doc = {**json.loads(DEMO.read_text()), "v0": {"jumps": [[0.0, tick], [1.0, 0]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert (f"error: v0 takes tick {tick} (v = {tick * 0.05:g}), outside the flux box: "
                f"v in [-0.5, 0.5] is ticks [-10, 10] at eps 0.05") in capsys.readouterr().err
        # the box's edge is inside it
        doc["v0"] = {"jumps": [[0.0, 10 if tick > 0 else -10], [1.0, 0]]}
        assert run_scenario(ScenarioConfig(**doc)).passed

    # a w edge 4e-10 ticks short of the node at tick 16: within the 1e-9
    # ticks Box.w_ticks rounds away, so the node is in the box
    NEAR_EDGE = {"name": "quadratic_coupled", "params": {"box": [-0.8, 0.79999999998, -0.5, 0.5]}}

    def test_a_box_edge_just_short_of_a_node_runs_end_to_end(self, tmp_path):
        doc = {**json.loads(DEMO.read_text()), "flux": self.NEAR_EDGE,
               "w0": {"jumps": [[0.0, 16], [1.0, -16], [2.0, 0]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_a_tick_past_a_box_edge_just_short_of_a_node_fails_fast(self, tmp_path, capsys):
        doc = {**json.loads(DEMO.read_text()), "flux": self.NEAR_EDGE,
               "w0": {"jumps": [[0.0, 17], [1.0, 0]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert ("error: w0 takes tick 17 (w = 0.85), outside the flux box: "
                "w in [-0.8, 0.79999999998] is ticks [-16, 16] at eps 0.05"
                ) in capsys.readouterr().err

    def test_a_box_of_more_than_max_box_ticks_fails_fast(self, tmp_path, capsys):
        # the default box spans 1.6 in w: 160,000 ticks at eps 1e-5, one
        # tick of data or not; at eps 1.6e-5 it spans the cap and runs
        doc = {"check_level": "fast", "eps": 1e-5, "w0": {"jumps": [[1.0, 1], [2.0, 0]]},
               "v0": {"jumps": []}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: eps 1e-05 is too fine for the flux box: its w axis spans 160000 ticks, "
            f"more than MAX_BOX_TICKS = {MAX_BOX_TICKS}\n")
        assert MAX_BOX_TICKS == 100_000
        # at the least subnormal eps the box spans more ticks than any float
        cfg_path.write_text(json.dumps({**doc, "eps": 5e-324}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "its w axis spans inf ticks" in capsys.readouterr().err
        assert run_scenario(ScenarioConfig(**{**doc, "eps": 1.6e-5})).passed

    @pytest.mark.parametrize("data", [
        {}, {"w0": {"jumps": [[1.0, 1], [2.0, 0]]}, "v0": {"jumps": []}},
    ], ids=["random", "jumps"])
    def test_an_eps_of_1e_300_fails_fast(self, tmp_path, data):
        # without the cap the data builder or the interpolant of the box
        # allocates per tick; the child's address space is capped at 1 GB so
        # that such a run ends in a MemoryError, not on the host's memory
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"check_level": "fast", "eps": 1e-300, **data}))
        code = ("import resource, sys, time; "
                "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                "from triwave.cli import main; "
                "start = time.perf_counter(); code = main(sys.argv[1:]); "
                "print(time.perf_counter() - start); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg_path)],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: eps 1e-300 is too fine for the flux box: its w axis "
                               "spans 1.6e+300 ticks, more than MAX_BOX_TICKS = 100000\n")
        assert float(proc.stdout) < 1.0

    def test_empty_datum_trivial_report(self, tmp_path):
        cfg = ScenarioConfig(w0={"jumps": []}, v0={"jumps": []})
        res = run_scenario(cfg, out_dir=tmp_path)
        assert res.passed
        assert res.trajectory.events == []


class TestBatch:
    def test_three_seeds_aggregate(self, tmp_path):
        cfg = ScenarioConfig(
            check_level="fast",
            w0={"random": {"jumps": 4, "max_amplitude": 0.4, "max_waves": 20}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        summary = batch(cfg, seeds=[0, 1, 2], out_dir=tmp_path)
        assert summary["passed"] is True
        assert summary["per_seed"] == {"0": True, "1": True, "2": True}
        assert (tmp_path / "seed_1" / "report.json").exists()
        assert (tmp_path / "summary.json").exists()
        for name, agg in summary["checks"].items():
            assert agg["passed"], name

    def test_failing_seed_is_recorded_not_raised(self, tmp_path):
        # at level small_n the demo datum draws more waves than replay allows
        # for seeds 0-3 (16-20), and run_scenario raises; seed 40 draws 10
        doc = json.loads(DEMO.read_text())
        doc["check_level"] = "small_n"
        doc["w0"]["random"]["max_waves"] = 20
        cfg = ScenarioConfig(**doc)
        summary = batch(cfg, seeds=[0, 1, 2, 3, 40], out_dir=tmp_path, workers=2)
        assert summary["passed"] is False
        assert summary["per_seed"] == {"0": False, "1": False, "2": False, "3": False,
                                       "40": True}
        assert set(summary["errors"]) == {"0", "1", "2", "3"}
        assert "small_n" in summary["errors"]["0"]
        assert (tmp_path / "seed_40" / "report.json").exists()
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["errors"] == summary["errors"]

    def test_summary_is_written_atomically(self, tmp_path, monkeypatch):
        # a summary write that fails midway leaves no partial summary.json
        real_write = scenario._write_json

        def write_json(fh, doc):
            if "per_seed" in doc:
                fh.write('{"seeds": [')
                raise OSError("disk full")
            real_write(fh, doc)

        monkeypatch.setattr(scenario, "_write_json", write_json)
        cfg = ScenarioConfig(check_level="fast", w0={"jumps": [[1.0, 2], [3.0, 0]]},
                             v0={"jumps": []})
        with pytest.raises(OSError, match="disk full"):
            batch(cfg, seeds=[0], out_dir=tmp_path)
        assert (tmp_path / "seed_0" / "report.json").exists()
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == []

    def test_worst_points_at_the_minimum(self, tmp_path):
        cfg = ScenarioConfig(
            check_level="fast",
            w0={"random": {"jumps": 4, "max_amplitude": 0.4, "max_waves": 20}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        seeds = [0, 1, 2, 3]
        summary = batch(cfg, seeds=seeds, out_dir=tmp_path)
        checks = {
            seed: json.loads((tmp_path / f"seed_{seed}" / "report.json").read_text())["checks"]
            for seed in seeds
        }
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        for name, agg in summary["checks"].items():
            slack = {(seed, c["scope"]): c["slack"]
                     for seed in seeds for c in checks[seed] if c["name"] == name}
            assert agg["min_slack"] == min(slack.values()), name
            assert slack[agg["worst_seed"], agg["worst"]] == agg["min_slack"], name

    def test_repeated_seed_is_rejected(self, tmp_path):
        # it would count its checks twice, and two workers would write seed_1/
        with pytest.raises(ValueError, match="got seed 1 more than once"):
            batch(ScenarioConfig(), seeds=[0, 1, 2, 1], out_dir=tmp_path, workers=2)
        assert list(tmp_path.iterdir()) == []

    def test_empty_seed_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            batch(ScenarioConfig(), seeds=[])

    def test_workers_are_capped_at_the_seed_count(self, monkeypatch):
        # a stand-in pool runs the jobs in this process and records its size
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # batch imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = ScenarioConfig(check_level="fast", w0={"jumps": [[1.0, 2], [3.0, 0]]},
                             v0={"jumps": []})
        summary = batch(cfg, seeds=[0, 1, 2], workers=5000)
        assert sizes == [3]
        assert summary["per_seed"] == {"0": True, "1": True, "2": True}

    def test_zero_workers_is_rejected(self):
        with pytest.raises(ValueError, match="at least one worker, got 0"):
            batch(ScenarioConfig(), seeds=[0], workers=0)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = ScenarioConfig(
            check_level="fast",
            w0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_waves": 16}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        serial = batch(cfg, seeds=[0, 1], workers=1)
        parallel = batch(cfg, seeds=[0, 1], workers=2)
        assert serial["checks"] == parallel["checks"]


def run_alone(config: ScenarioConfig, out: Path) -> None:
    """Run ``config`` into ``out`` through the CLI, in a fresh process whose
    flux tables are empty."""
    cfg_path = out.with_suffix(".json")
    write_config(config, cfg_path)
    proc = subprocess.run(
        [sys.executable, "-m", "triwave.cli", "run", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


class TestKeptFluxTable:
    """The runs of a process share one ``FluxTable`` per flux and eps, and a
    run on a table that other runs filled writes the bytes it writes alone."""

    @pytest.mark.parametrize("flux", [
        {"name": "quadratic_coupled", "params": {}},
        {"name": "quartic", "params": {}},
        {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}},
    ], ids=lambda flux: flux["name"])
    def test_a_warm_table_writes_what_a_fresh_process_writes(self, tmp_path, monkeypatch, flux):
        config = ensemble_config(3, flux)
        run_alone(config, tmp_path / "alone")
        flux_table.cache_clear()
        for seed in (0, 1, 2):
            run_scenario(replace(config, seed=seed))
        run_scenario(config, out_dir=tmp_path / "after_others")
        assert_golden(tmp_path / "after_others", tmp_path / "alone")
        solved = []
        real = flux_module.solve_scalar
        monkeypatch.setattr(flux_module, "solve_scalar",
                            lambda *args: solved.append(args) or real(*args))
        run_scenario(config, out_dir=tmp_path / "again")
        assert_golden(tmp_path / "again", tmp_path / "alone")
        # the repeated run read every fan from the table the first one filled
        assert solved == []
        spec, _ = flux_constants(flux)
        assert flux_table(spec, config.eps).fans

    def test_a_seed_that_raises_leaves_the_next_its_bytes(self, tmp_path):
        # seed 0 of these quartic data runs 89 events, so it raises part-way
        # through, on a table it was the first to fill; seed 7 runs 46
        config = replace(ensemble_config(0, {"name": "quartic", "params": {}}), event_guard=60)
        flux_table.cache_clear()
        summary = batch(config, seeds=[0, 7], out_dir=tmp_path / "batch")
        assert summary["per_seed"] == {"0": False, "7": True}
        assert summary["errors"]["0"] == "EventGuardExceeded: more than 60 events"
        run_alone(replace(config, seed=7), tmp_path / "alone")
        assert_golden(tmp_path / "batch" / "seed_7", tmp_path / "alone")


class TestCli:
    def run_cli(self, *args):
        # the CLI imports triwave from this checkout's src, as the tests do
        return subprocess.run(
            [sys.executable, "-m", "triwave.cli", *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    def test_run_command(self, tmp_path):
        cfg = ScenarioConfig(
            seed=1,
            w0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_waves": 16}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout
        assert (tmp_path / "out" / "report.json").exists()

    def test_seed_override_and_levels(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(ScenarioConfig(
            w0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_waves": 12}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        ), cfg_path)
        proc = self.run_cli("run", "--config", str(cfg_path), "--seed", "9",
                            "--check-level", "small_n")
        assert proc.returncode == 0, proc.stderr
        assert "seed=9" in proc.stdout

    def test_a_negative_seed_override_is_a_clean_error(self):
        proc = self.run_cli("run", "--config", str(DEMO), "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"

    def test_small_n_guard_is_a_clean_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(ScenarioConfig(
            check_level="small_n",
            w0={"random": {"jumps": 6, "max_amplitude": 0.4, "max_waves": 40}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        ), cfg_path)
        proc = self.run_cli("run", "--config", str(cfg_path), "--seed", "3")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "small_n" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_batch_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(ScenarioConfig(
            check_level="fast",
            w0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_waves": 12}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        ), cfg_path)
        proc = self.run_cli("batch", "--config", str(cfg_path), "--seeds", "0..2",
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "seeds=3 PASS" in proc.stdout
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        agg = summary["checks"]["main_theorem"]
        assert (f"worst={agg['worst']} worst_seed={agg['worst_seed']} PASS"
                in proc.stdout)

    def test_a_failed_run_leaves_no_stale_artifacts(self, tmp_path):
        # the demo writes all five artifacts; the same directory then takes a
        # run that stops at its event guard
        out = tmp_path / "out"
        proc = self.run_cli("run", "--config", str(DEMO), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**json.loads(DEMO.read_text()), "event_guard": 3}))
        proc = self.run_cli("run", "--config", str(cfg_path), "--seed", "7", "--out", str(out))
        assert proc.returncode == 2
        assert "error: more than 3 events" in proc.stderr
        assert list(out.iterdir()) == []

    def test_a_failed_batch_seed_leaves_no_stale_artifacts(self, tmp_path):
        out = tmp_path / "out"
        proc = self.run_cli("batch", "--config", str(DEMO), "--seeds", "7", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (out / "seed_7").iterdir()) == sorted(ARTIFACTS)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**json.loads(DEMO.read_text()), "event_guard": 3}))
        proc = self.run_cli("batch", "--config", str(cfg_path), "--seeds", "7",
                            "--out", str(out))
        assert proc.returncode == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["errors"] == {"7": "EventGuardExceeded: more than 3 events"}
        assert list((out / "seed_7").iterdir()) == []

    def test_unknown_config_key_is_a_clean_error(self, tmp_path):
        doc = json.loads(DEMO.read_text())
        doc["bogus"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "bogus" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_hyperbolic_flux_is_a_clean_error(self, tmp_path):
        doc = json.loads(DEMO.read_text())
        doc["flux"] = {"name": "custom_poly", "params": {"coeffs": [[2, 0, 2.0]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "d_w(-0.8, -0.5) = -3.2 <= -1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key,value,message", [
        ("eps", "0.05", "eps must be a positive number, got '0.05'"),
        ("eps", True, "eps must be a positive number, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("event_guard", "10", "event_guard must be an integer, got '10'"),
        ("flux", {"name": "quartic", "params": {"k": 1}}, "flux quartic: unknown params k"),
        ("flux", {"name": "quadratic_coupled", "params": {"box": [-0.8, 0.8]}},
         "flux box must be 4 numbers [w_min, w_max, v_min, v_max], got [-0.8, 0.8]"),
        ("flux", {"name": "quadratic_coupled", "params": {"box": [-0.8, "0.8", -0.5, 0.5]}},
         "flux box must be 4 numbers [w_min, w_max, v_min, v_max], got [-0.8, '0.8', -0.5, 0.5]"),
        ("flux", {"name": "quadratic_coupled", "params": {"box": [0.8, -0.8, -0.5, 0.5]}},
         "flux box [0.8, -0.8, -0.5, 0.5] needs w_min < w_max and v_min < v_max"),
        ("flux", {"name": "quadratic_coupled", "params": {"box": [-0.8, 0.8, 0.5, 0.5]}},
         "flux box [-0.8, 0.8, 0.5, 0.5] needs w_min < w_max and v_min < v_max"),
        ("event_guard", 3, "more than 3 events"),
        ("w0", {"jump": [[1.0, 2], [2.0, 0]]},
         "w0 takes exactly one key, jumps or random, got {'jump': [[1.0, 2], [2.0, 0]]}"),
        ("w0", {"random": {"jumps": 5, "max_amplitude": 0.4, "max_wave": 20}},
         "w0 random spec: unknown keys max_wave"),
        ("v0", {"jumps": 5},
         "v0 jumps must be a list of [x, tick] pairs, x a number and tick an integer, got 5"),
        ("w0", {"jumps": [[1.0, 2.5], [2.0, 0]]},
         "w0 jumps must be a list of [x, tick] pairs, x a number and tick an integer, "
         "got [[1.0, 2.5], [2.0, 0]]"),
        ("w0", {"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": "20"}},
         "w0 random spec: max_waves must be an integer, got '20'"),
        ("flux", {}, "flux takes a name and optional params, got {}"),
        ("flux", {"name": "quadratic_coupled", "params": "x"},
         "flux params must be an object, got 'x'"),
        ("flux", {"name": "quadratic_coupled", "params": {"c": math.nan}},
         "flux quadratic_coupled: c must be finite, got nan"),
        ("flux", {"name": "quartic", "params": {"c": [0.1]}},
         "flux quartic: c must be a number, got [0.1]"),
        ("flux", {"name": "custom_poly", "params": {"coeffs": 5}},
         "flux custom_poly: coeffs must be a list of [i, j, a] triples, got 5"),
        ("flux", {"name": "custom_poly", "params": {"coeffs": [[2.5, 0, 1.0]]}},
         "flux custom_poly: exponents must be non-negative integers, got [2.5, 0, 1.0]"),
        ("eps", math.inf, "eps must be finite, got inf"),
        ("w0", {"jumps": [[math.nan, 2], [2.0, 0]]}, "w0 jump positions must be finite, got nan"),
        ("v0", {"jumps": [[1.0, 2], [math.inf, 0]]}, "v0 jump positions must be finite, got inf"),
        # a position given once as an int and once as a float is one position
        ("w0", {"jumps": [[1, 2], [1.0, 3], [2.0, 0]]}, "w0 jumps repeat x=1.0"),
        ("v0", {"jumps": [[1.0, 2], [2.5, 1], [2.5, 0]]}, "v0 jumps repeat x=2.5"),
        ("w0", {"random": {"jumps": 3, "max_amplitude": math.nan}},
         "w0 random spec: max_amplitude must be finite, got nan"),
        ("event_guard", 0, "event_guard must be at least 1, got 0"),
        ("event_guard", -1, "event_guard must be at least 1, got -1"),
        ("write_snapshots", "yes", "write_snapshots must be true or false, got 'yes'"),
        ("flux", {"name": "quadratic_coupled", "params": {"c": "0.2"}},
         "flux quadratic_coupled: c must be a number, got '0.2'"),
        ("flux", {"name": "quadratic_coupled", "params": {"c": True}},
         "flux quadratic_coupled: c must be a number, got True"),
        ("flux", {"name": "custom_poly", "params": {"coeffs": [[2, 0, "1.0"]]}},
         "flux custom_poly: coefficient must be a number, got '1.0'"),
        ("out_dir", 5, "out_dir must be a string or null, got 5"),
    ])
    def test_bad_value_is_a_clean_error(self, tmp_path, key, value, message):
        doc = json.loads(DEMO.read_text())
        doc[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert f"error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key,value,message", [
        ("eps", 10**400, "eps must be finite"),
        ("w0", {"jumps": [[10**400, 2], [2.0, 0]]}, "w0 jump positions must be finite"),
        ("w0", {"jumps": [[1.0, 10**400], [2.0, 0]]}, "w0 jump ticks must be finite"),
        ("v0", {"random": {"jumps": 2, "max_amplitude": 10**400}},
         "v0 random spec: max_amplitude must be finite"),
        ("flux", {"name": "quartic", "params": {"c": 10**400}}, "flux quartic: c must be finite"),
        ("flux", {"name": "quadratic_coupled", "params": {"box": [-0.8, 0.8, -10**400, 0.5]}},
         "flux box must be 4 numbers [w_min, w_max, v_min, v_max]"),
    ], ids=["eps", "jump_x", "jump_tick", "max_amplitude", "flux_param", "box"])
    def test_a_number_too_large_for_a_float_is_a_clean_error(self, tmp_path, key, value,
                                                             message):
        # JSON reads 10**400 as an int, which no float holds
        doc = json.loads(DEMO.read_text())
        doc[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {message}")
        assert str(10**400) in proc.stderr and "Traceback" not in proc.stderr

    def test_corrupt_final_state_is_a_clean_error(self, tmp_path):
        # a level-fast run whose final state breaks the enumeration: the CLI
        # runs with a collision search that corrupts the state after event 1
        cfg_path = tmp_path / "cfg.json"
        write_config(ScenarioConfig(
            check_level="fast",
            w0={"jumps": [[7.0, -6], [9.0, 2], [10.0, 0]]},
            v0={"jumps": [[3.5, 1], [4.0, 0]]},
        ), cfg_path)
        code = ("import sys, doubles, triwave.simulator as sim; "
                "sim.next_collision = doubles.CorruptAfterFirstEvent(sim.next_collision); "
                "from triwave.cli import main; sys.exit(main(sys.argv[1:]))")
        tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "--config", str(cfg_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: final enumeration invalid: positions out of order" in proc.stderr
        assert "PASS" not in proc.stdout

    def test_zero_workers_is_a_clean_error(self):
        proc = self.run_cli("batch", "--config", str(DEMO), "--seeds", "0..2", "--workers", "0")
        assert proc.returncode == 2
        assert "error: batch needs at least one worker, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_repeated_seed_is_a_clean_error(self):
        proc = self.run_cli("batch", "--config", str(DEMO), "--seeds", "1,1")
        assert proc.returncode == 2
        assert "error: batch runs each seed once, got seed 1 more than once" in proc.stderr
        assert "seeds=" not in proc.stdout

    def test_empty_seed_range_is_a_clean_error(self):
        proc = self.run_cli("batch", "--config", str(DEMO), "--seeds", "5..3")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "seed" in proc.stderr
        assert "PASS" not in proc.stdout

    @pytest.mark.parametrize("text", ["1,,2", "a..b", "1..2..3"])
    def test_malformed_seeds_name_the_argument(self, text, capsys):
        assert cli.main(["batch", "--config", str(DEMO), "--seeds", text]) == 2
        out, err = capsys.readouterr()
        assert err == (f"error: --seeds takes A..B or a comma list of integers such as "
                       f"1,4,7; got {text!r}\n")
        assert "seeds=" not in out

    def test_empty_seed_range_names_the_range(self, capsys):
        assert cli.main(["batch", "--config", str(DEMO), "--seeds", "3..1"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: --seeds '3..1' is an empty range: A..B needs A <= B\n"
        assert "seeds=" not in out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime must not pay for importing it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, triwave.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# run in a fresh process: three jumps-only scenarios, one per check level,
# and a CLI run of a jumps config, each followed by a report of whether
# numpy is loaded; then the random-data demo config, which must load it
NUMPY_GUARD = """
import json, sys
from pathlib import Path
import triwave
from triwave import cli
from triwave.scenario import ScenarioConfig, run_scenario

out, demo, golden = (Path(a) for a in sys.argv[1:4])
print("import", "numpy" in sys.modules)
for level in ("fast", "full", "small_n"):
    cfg = ScenarioConfig(w0={"jumps": [[1.0, 3], [2.0, -1], [3.0, 0]]},
                         v0={"jumps": [[1.5, 2], [2.5, 0]]}, check_level=level)
    assert run_scenario(cfg, out_dir=out / level).passed
    print(level, "numpy" in sys.modules)
cfg = out / "jumps.json"
cfg.write_text(json.dumps({"w0": {"jumps": [[1.0, 2], [2.0, 0]]}, "v0": {"jumps": []}}))
assert cli.main(["run", "--config", str(cfg), "--out", str(out / "cli")]) == 0
print("cli", "numpy" in sys.modules)
assert run_scenario(ScenarioConfig.from_json(demo), out_dir=out / "demo").passed
same = all((out / "demo" / n).read_bytes() == (golden / n).read_bytes()
           for n in ("events.csv", "functionals.csv"))
print("random", "numpy" in sys.modules, same)
"""


def test_numpy_is_loaded_only_for_random_data(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", NUMPY_GUARD, str(tmp_path), str(DEMO),
                           str(GOLDEN)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    # the CLI prints its own "seed=..." line
    assert [line for line in proc.stdout.splitlines() if not line.startswith("seed=")] == [
        "import False", "fast False", "full False", "small_n False", "cli False",
        "random True True"]


POOL_GUARD = """
import sys
import triwave
from triwave.scenario import ScenarioConfig, run_scenario

cfg = ScenarioConfig(w0={"jumps": [[1.0, 3], [2.0, -1], [3.0, 0]]},
                     v0={"jumps": [[1.5, 2], [2.5, 0]]}, check_level="full")
assert run_scenario(cfg).passed
print("concurrent.futures" in sys.modules)
"""


def test_the_process_pool_is_loaded_only_for_a_batch():
    # only batch starts worker processes; importing concurrent.futures costs
    # every run's start-up
    proc = subprocess.run([sys.executable, "-c", POOL_GUARD], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_no_json_dump_in_the_package():
    # json.dump(..., indent=1) runs the pure-Python encoder one token per
    # write; every artifact goes through one json.dumps and one write instead
    pkg = Path(__file__).resolve().parents[1] / "src" / "triwave"
    callers = {
        path.stem
        for path in pkg.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "dump")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "dump"))
    }
    assert callers == set()


def test_lower_layer_imports_no_simulator():
    # the modules form an acyclic graph in README's order: each imports,
    # at module top level and never deferred into a function, only modules
    # listed before it (the package namespace may import any of them)
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    listed = re.search(r"at the top of the file: (.*?)\.\s", readme, re.S).group(1)
    order = re.findall(r"`(\w+)`", listed)
    pkg = root / "src" / "triwave"
    assert sorted(order) == sorted(p.stem for p in pkg.glob("*.py") if p.stem != "__init__")
    rank = {name: k for k, name in enumerate(order)}
    wrong = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("triwave"):
                names = [node.module.removeprefix("triwave").lstrip(".")]
            elif isinstance(node, ast.Import):
                names = [a.name.removeprefix("triwave.") for a in node.names
                         if a.name.startswith("triwave.")]
            else:
                continue
            for name in names:
                below = path.stem == "__init__" or rank.get(name, len(order)) < rank[path.stem]
                if node not in top or not below:
                    wrong.append((path.stem, node.lineno, name))
    assert wrong == []
