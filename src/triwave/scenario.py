"""Scenario configuration, random initial data, batch execution, exports.

A scenario is a single JSON document: flux selection, grid step, initial data
(explicit jump lists or seeded random specs), check level and output options.
Running a scenario produces events.csv, functionals.csv, report.json and
config.json (and snapshots.json on demand); the exit status is nonzero iff any
check fails.  Every JSON artifact is one line of JSON.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import numbers
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .flux import FluxSpec, flux_constants, validate_chords
from .history import PairHistory
from .replay import MAX_REPLAY_WAVES
from .simulator import Trajectory, run
from .verifier import CHECK_LEVELS, CheckResult, run_verifier, summarize, write_report
from .wavefield import StepFunction, snapshot

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "generate_initial_data",
    "build_initial_data",
    "run_scenario",
    "batch",
    "ARTIFACTS",
]

log = logging.getLogger("triwave.scenario")

_RANDOM_KEYS = ("jumps", "max_amplitude", "max_waves", "max_fronts")


@dataclass
class ScenarioConfig:
    """One runnable scenario; serializes to/from a flat JSON document."""

    flux: dict = field(default_factory=lambda: {"name": "quadratic_coupled", "params": {}})
    eps: float = 0.05
    w0: dict = field(default_factory=lambda: {"random": {"jumps": 4, "max_amplitude": 0.4}})
    v0: dict = field(default_factory=lambda: {"random": {"jumps": 2, "max_amplitude": 0.3}})
    seed: int = 0
    check_level: str = "full"
    out_dir: str | None = None
    event_guard: int = 10**6
    write_snapshots: bool = False

    def __post_init__(self) -> None:
        if self.check_level not in CHECK_LEVELS:
            raise ValueError(f"check_level must be one of {CHECK_LEVELS}")
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float)) or not self.eps > 0:
            raise ValueError(f"eps must be a positive number, got {self.eps!r}")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps!r}")
        for name in ("seed", "event_guard"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.event_guard < 1:
            raise ValueError(f"event_guard must be at least 1, got {self.event_guard}")
        if type(self.write_snapshots) is not bool:
            raise ValueError(f"write_snapshots must be true or false, got {self.write_snapshots!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        _check_flux(self.flux)
        for name in ("w0", "v0"):
            _check_datum(name, getattr(self, name))
        # config.json records every field, and flux_constants keys on the
        # flux's JSON text: a value JSON cannot encode (a numpy scalar, say)
        # stops here, not after the run
        for f in fields(self):
            try:
                json.dumps(getattr(self, f.name), sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name} must hold only JSON values (objects, lists, "
                                 f"strings, numbers, booleans, null): {exc}") from None

    @staticmethod
    def from_json(path) -> "ScenarioConfig":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a scenario config is a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(ScenarioConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
        return ScenarioConfig(**doc)


def _check_flux(flux) -> None:
    """A flux selection is ``{"name": str, "params": {...}}``, params optional;
    ``make_flux`` checks the params themselves."""
    if not isinstance(flux, dict) or not isinstance(flux.get("name"), str) or \
            not set(flux) <= {"name", "params"}:
        raise ValueError(f"flux takes a name and optional params, got {flux!r}")
    params = flux.get("params")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"flux params must be an object, got {params!r}")


def _check_datum(name: str, part) -> None:
    """A datum spec is ``{"jumps": [[x, tick], ...]}`` or ``{"random": {...}}``."""
    if not isinstance(part, dict) or list(part) not in (["jumps"], ["random"]):
        raise ValueError(f"{name} takes exactly one key, jumps or random, got {part!r}")
    if "jumps" in part:
        jumps = part["jumps"]
        if not isinstance(jumps, (list, tuple)) or not all(
            isinstance(j, (list, tuple)) and len(j) == 2
            and _is_number(j[0]) and _is_int(j[1]) for j in jumps
        ):
            raise ValueError(f"{name} jumps must be a list of [x, tick] pairs, x a number "
                             f"and tick an integer, got {jumps!r}")
        seen = set()
        for x, _ in jumps:
            if not math.isfinite(x):
                raise ValueError(f"{name} jump positions must be finite, got {x!r}")
            if float(x) in seen:
                raise ValueError(f"{name} jumps repeat x={float(x)}")
            seen.add(float(x))
        return
    rand = part["random"]
    if not isinstance(rand, dict):
        raise ValueError(f"{name} random spec must be an object, got {rand!r}")
    unknown = sorted(set(rand) - set(_RANDOM_KEYS))
    if unknown:
        raise ValueError(f"{name} random spec: unknown keys {', '.join(unknown)} "
                         f"(allowed: {', '.join(_RANDOM_KEYS)})")
    for key, value in rand.items():
        if key == "max_amplitude" and not _is_number(value):
            raise ValueError(f"{name} random spec: {key} must be a number, got {value!r}")
        if key == "max_amplitude" and not math.isfinite(value):
            raise ValueError(f"{name} random spec: {key} must be finite, got {value!r}")
        if key != "max_amplitude" and not _is_int(value):
            raise ValueError(f"{name} random spec: {key} must be an integer, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ScenarioResult:
    trajectory: Trajectory
    checks: list[CheckResult]
    passed: bool
    summary: dict        # summarize(checks), as report.json holds it


def generate_initial_data(rand_spec: dict, rng, eps: float,
                          amp_limit: float) -> StepFunction:
    """Random compactly supported step function on [0, 10] with grid values.

    Draws ``jumps`` plateau values as a walk on the grid within the amplitude
    bound, forces the return to zero, and redraws (deterministically from the
    same stream) while the width/front-count constraints are violated.
    ``rng`` is a ``numpy.random.Generator``.
    """
    n_jumps = int(rand_spec.get("jumps", 3))
    if n_jumps < 1:
        raise ValueError("need at least 1 jump")
    amp = float(rand_spec.get("max_amplitude", amp_limit))
    if amp > amp_limit + 1e-12:
        raise ValueError(f"amplitude {amp} exceeds the flux box ({amp_limit})")
    amp_ticks = math.floor(amp / eps + 1e-9)
    if amp_ticks < 1:
        raise ValueError("amplitude below one grid step")
    max_waves = rand_spec.get("max_waves")
    max_fronts = rand_spec.get("max_fronts")

    for _ in range(1000):
        values, prev = [], 0
        for _ in range(n_jumps):
            choices = [v for v in range(-amp_ticks, amp_ticks + 1) if v != prev]
            prev = int(rng.choice(choices))
            values.append(prev)
        if values[-1] != 0:
            values.append(0)
        xs = sorted(rng.uniform(0.0, 10.0, size=len(values)).tolist())
        if len(set(xs)) != len(xs):
            continue
        step = StepFunction(tuple(xs), tuple(values), 0)
        if max_waves is not None and step.tv_ticks() > max_waves:
            continue
        if max_fronts is not None and len(step.positions) > max_fronts:
            continue
        return step
    raise ValueError("could not generate initial data within constraints")


def build_initial_data(config: ScenarioConfig, spec: FluxSpec) -> tuple[StepFunction, StepFunction]:
    """w0 and v0 of a config.  A ``random`` part draws from stream k (0 for
    w0, 1 for v0) of ``SeedSequence(config.seed).spawn(2)``; numpy is
    imported only then, so a run of explicit jumps never loads it."""
    def build(part: dict, stream: int, amp_limit: float) -> StepFunction:
        if "jumps" in part:
            return StepFunction.from_jumps([(float(x), int(t)) for x, t in part["jumps"]])
        if not part["random"]:
            return StepFunction((), (), 0)
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[stream])
        return generate_initial_data(part["random"], rng, config.eps, amp_limit)

    w_amp = min(abs(spec.box.w_min), abs(spec.box.w_max))
    v_amp = min(abs(spec.box.v_min), abs(spec.box.v_max))
    return build(config.w0, 0, w_amp), build(config.v0, 1, v_amp)


# every file a run writes into its target
ARTIFACTS = ("events.csv", "functionals.csv", "report.json", "config.json", "snapshots.json")


def run_scenario(config: ScenarioConfig, out_dir=None) -> ScenarioResult:
    """Run one scenario end to end and write its artifacts.

    A run that raises first removes the artifacts an earlier run left in its
    target, so the directory never reads as a finished run of another
    config; then it re-raises."""
    target = Path(out_dir) if out_dir is not None else (
        Path(config.out_dir) if config.out_dir else None
    )
    try:
        return _run_scenario(config, target)
    except BaseException:
        if target is not None:
            for name in ARTIFACTS:
                # a file that cannot go must not hide the error being raised
                with contextlib.suppress(OSError):
                    (target / name).unlink(missing_ok=True)
        raise


def _run_scenario(config: ScenarioConfig, target: Path | None) -> ScenarioResult:
    """The run of ``run_scenario``, writing its artifacts into ``target``
    unless it is None."""
    spec, bounds = flux_constants(config.flux)
    w0, v0 = build_initial_data(config, spec)
    box, eps = spec.box, config.eps
    for name, part, (lo, hi), (b_lo, b_hi) in (
            ("w0", w0, box.w_ticks(eps), (box.w_min, box.w_max)),
            ("v0", v0, box.v_ticks(eps), (box.v_min, box.v_max))):
        outside = [tick for tick in (part.base, *part.values) if not lo <= tick <= hi]
        if part.values and outside:
            var = name[0]
            raise ValueError(f"{name} takes tick {outside[0]} ({var} = {outside[0] * eps:g}), "
                             f"outside the flux box: {var} in [{b_lo}, {b_hi}] is "
                             f"ticks [{lo}, {hi}] at eps {eps}")
    w_ticks = (w0.base, *w0.values)
    problems = validate_chords(spec, eps, min(w_ticks), max(w_ticks), (v0.base, *v0.values))
    if problems:
        raise ValueError(f"flux {spec.name} is not hyperbolic on the data: {problems[0]}")
    if config.check_level == "small_n":
        if w0.tv_ticks() > MAX_REPLAY_WAVES:
            raise ValueError(
                f"check level small_n needs at most {MAX_REPLAY_WAVES} initial waves, "
                f"got {w0.tv_ticks()}; shrink the datum (e.g. max_waves in the w0 spec)"
            )
    history = PairHistory(spec=spec, eps=config.eps, bounds=bounds)
    traj = run(
        w0, v0, spec, config.eps,
        bounds=bounds,
        history=history,
        event_guard=config.event_guard,
        validate_each_event=config.check_level in ("full", "small_n"),
    )
    checks = run_verifier(traj, level=config.check_level, history=history)
    passed = all(c.passed for c in checks)
    summary = summarize(checks)

    if target is not None:
        target.mkdir(parents=True, exist_ok=True)
        _atomic_write(target / "events.csv", lambda fh: _write_events(fh, traj))
        _atomic_write(target / "functionals.csv", lambda fh: _write_functionals(fh, traj))
        _atomic_write(target / "report.json", lambda fh: write_report(checks, summary, fh))
        # out_dir null: a replay of config.json never writes over this run
        resolved = {**vars(config), "out_dir": None}
        _atomic_write(target / "config.json", lambda fh: _write_json(fh, resolved))
        if config.write_snapshots:
            payload = {
                "initial": snapshot(traj.initial_state),
                "final": snapshot(traj.final_state),
            }
            _atomic_write(target / "snapshots.json", lambda fh: _write_json(fh, payload))
        else:
            # an earlier run's snapshots would pass for this run's
            (target / "snapshots.json").unlink(missing_ok=True)
    if not passed:
        failed = [c for c in checks if not c.passed]
        log.error("scenario seed=%s failed %d checks; first: %s",
                  config.seed, len(failed), failed[0].as_dict())
    return ScenarioResult(trajectory=traj, checks=checks, passed=passed, summary=summary)


def _atomic_write(path: Path, writer) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(fh, doc: dict) -> None:
    fh.write(json.dumps(doc) + "\n")


def _write_events(fh, traj: Trajectory) -> None:
    writer = csv.writer(fh)
    writer.writerow(["j", "t", "x", "kind", "n_waves", "v_strength", "cancellation"])
    for ev in traj.events:
        writer.writerow([
            ev.index,
            repr(ev.time),
            repr(ev.x),
            ev.kind.value,
            len(ev.post_speeds),
            repr(ev.v_strength),
            repr(ev.cancellation),
        ])


def _write_functionals(fh, traj: Trajectory) -> None:
    writer = csv.writer(fh)
    writer.writerow(["j", "t", "tv_w", "q_trans", "q_quadratic", "sum_abs_dsigma"])
    for snap in traj.snapshots:
        writer.writerow([
            snap.index,
            repr(snap.time),
            repr(snap.tv_w),
            repr(snap.q_trans),
            repr(snap.q_quadratic),
            repr(snap.sum_abs_dsigma),
        ])


def _batch_child(args: tuple) -> tuple[int, bool, dict, str | None]:
    """One seed of a batch; an exception becomes a failed seed with its message."""
    config_dict, seed, out = args
    try:
        config = ScenarioConfig(**{**config_dict, "seed": seed, "out_dir": None})
        result = run_scenario(config, out_dir=out)
    except Exception as exc:
        log.exception("seed %s raised", seed)
        return seed, False, {}, f"{type(exc).__name__}: {exc}"
    return seed, result.passed, result.summary, None


def batch(config: ScenarioConfig, seeds: list[int], out_dir=None,
          workers: int = 1) -> dict:
    """Run one scenario across many seeds; aggregate min slack per check name,
    with the scope (``worst``) and seed (``worst_seed``) of the check that set it.

    A seed that raises counts as failed and its message is kept under
    ``errors``; the other seeds still run and ``summary.json`` is written.
    At most one worker process per seed is started.  A repeated seed is
    refused: it would count its checks twice and write one directory twice.
    """
    if not seeds:
        raise ValueError("batch needs at least one seed")
    if len(set(seeds)) != len(seeds):
        repeated = next(seed for k, seed in enumerate(seeds) if seed in seeds[:k])
        raise ValueError(f"batch runs each seed once, got seed {repeated} more than once")
    if workers < 1:
        raise ValueError(f"batch needs at least one worker, got {workers}")
    workers = min(workers, len(seeds))
    base = asdict(config)
    jobs = [
        (base, seed, str(Path(out_dir) / f"seed_{seed}") if out_dir else None)
        for seed in seeds
    ]
    if workers > 1:
        # imported here: concurrent.futures costs every run's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_child, jobs))
    else:
        rows = [_batch_child(job) for job in jobs]

    aggregate: dict[str, dict] = {}
    all_passed = True
    for seed, passed, summary, _ in rows:
        all_passed = all_passed and passed
        for name, agg in summary.items():
            slot = aggregate.setdefault(name, {"count": 0, "min_slack": None, "worst": None,
                                               "worst_seed": None, "passed": True})
            slot["count"] += agg["count"]
            slot["passed"] = slot["passed"] and agg["passed"]
            if agg["min_slack"] is not None and (
                    slot["min_slack"] is None or agg["min_slack"] < slot["min_slack"]):
                slot.update(min_slack=agg["min_slack"], worst=agg["worst"], worst_seed=seed)
    out = {
        "seeds": list(seeds),
        "passed": all_passed,
        "per_seed": {str(seed): passed for seed, passed, _, _ in rows},
        "errors": {str(seed): error for seed, _, _, error in rows if error is not None},
        "checks": aggregate,
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        _atomic_write(Path(out_dir) / "summary.json", lambda fh: _write_json(fh, out))
    return out
