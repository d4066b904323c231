"""One workload in one fresh, single-threaded process.

The process imports triwave from the checkout's ``src``, builds the round of
scenario configs from the seed and prints ``ready``.  Its caller takes the
time from the process's start to that line as one set-up sample.  Unless
``--setup-only`` is given, it then runs the round as a closed loop, one
``run_scenario`` after another, for at least ``--seconds`` and at least two
whole rounds.  It checks every output and prints one JSON line of raw
measurements for ``run.py`` to turn into metrics.

A timer takes a reference-loop sample every ``SAMPLE_PERIOD_S`` seconds, in
the middle of scenarios as well as between them, and the time it takes is
subtracted from whatever it interrupted.  Every sample and every scenario is
logged with its start and end, so that ``run.py`` can normalise each scenario
by the samples taken while it ran.  With ``--trace 1`` rounds alternate
between untraced and traced, in whole pairs, so that the tracing overhead is
measured on the same scenarios.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SAMPLE_PERIOD_S = 0.2
MIN_ROUNDS = 2
MAX_PROBLEMS = 5


def import_triwave():
    """Import triwave from ``<checkout>/src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import triwave
    import triwave.scenario

    if not Path(triwave.__file__).resolve().is_relative_to(src):
        raise ImportError(f"triwave imported from {triwave.__file__}, not from {src}")
    return triwave


def make_configs(scenario_mod, wl: workloads.Workload) -> list:
    return [
        scenario_mod.ScenarioConfig(
            flux=case.flux,
            eps=case.eps,
            w0={"jumps": [[x, v] for x, v in case.w0]},
            v0={"jumps": [[x, v] for x, v in case.v0]},
            seed=0,
            check_level=wl.check_level,
            write_snapshots=True,
        )
        for case in wl.cases
    ]


class Sampler:
    """Reference samples from a SIGALRM handler every ``period`` seconds.

    Python runs the handler in the main thread between two bytecodes, so a
    sample can fall inside a long scenario.  ``spent`` adds up the samples'
    time for the caller to subtract; with a tracer it is also taken out of
    every open span.  The timer is one-shot and re-armed after each sample, so
    samples never overlap.  ``start`` and ``stop`` take one sample each, so a
    run shorter than a period still has samples on both sides.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[tuple[float, float, float]] = []   # (start, end, loop time)
        self.spent = 0.0
        self.tracer = None

    def _take(self) -> None:
        start = time.perf_counter()
        dt = reference.sample()
        end = time.perf_counter()
        self.samples.append((start, end, dt))
        self.spent += end - start
        if self.tracer is not None:
            self.tracer.probe_s += end - start

    def _on_alarm(self, signum, frame) -> None:
        self._take()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._take()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()


class Loop:
    """The closed loop over a workload's round, with its measurements."""

    def __init__(self, triwave, wl: workloads.Workload, configs: list, out_root: Path,
                 sampler: Sampler) -> None:
        self.triwave = triwave
        self.wl = wl
        self.configs = configs
        self.out_root = out_root
        self.sampler = sampler
        self.scenarios: list[dict] = []   # one entry per attempted scenario
        self.first_events: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def run_round(self, traced: bool) -> None:
        """Run every case once."""
        for case, config in zip(self.wl.cases, self.configs):
            self.run_one(case, config, traced)

    def run_one(self, case, config, traced: bool) -> None:
        out_dir = self.out_root / case.key
        self.attempted += 1
        sampler = self.sampler
        start, spent0 = time.perf_counter(), sampler.spent
        entry = {"traced": traced, "start": start}
        try:
            # looked up per call, so that the tracer's wrapper is used when installed
            result = self.triwave.scenario.run_scenario(config, out_dir=out_dir)
        except Exception:  # a scenario that raises is a failed operation; the loop goes on
            self.failed += 1
            self._note(case, traceback.format_exc(limit=3))
        else:
            entry["run_s"] = time.perf_counter() - start - (sampler.spent - spent0)
            try:
                events_bytes = (out_dir / "events.csv").read_bytes()
                problems, counts = checks.check_outputs(case, result, out_dir, events_bytes)
                entry.update(counts)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"outputs could not be read: {exc!r}"]
            else:
                first = self.first_events.setdefault(case.key, events_bytes)
                if first != events_bytes:
                    problems.append("events.csv differs from an earlier run of the same case")
            if problems:
                self.failed += 1
                self.incorrect += 1
                for text in problems:
                    self._note(case, text)
        end = time.perf_counter()
        entry["end"] = end
        entry["total_s"] = end - start - (sampler.spent - spent0)
        self.scenarios.append(entry)

    def _note(self, case, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{self.wl.name}/{case.key}: {text.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for the scenarios' artifacts")
    args = parser.parse_args(argv)

    triwave = import_triwave()
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    configs = make_configs(triwave.scenario, wl)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    sampler = Sampler(SAMPLE_PERIOD_S)
    loop = Loop(triwave, wl, configs, Path(args.out), sampler)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = sampler.tracer = Tracer()
    rounds = 0
    start = time.perf_counter()
    sampler.start()
    try:
        while (rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds
               or (tracer is not None and rounds % 2)):
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install(triwave)
            try:
                loop.run_round(traced)
                rounds += 1
            finally:
                if traced:
                    tracer.uninstall()
    finally:
        sampler.stop()
        shutil.rmtree(args.out, ignore_errors=True)

    payload = {
        "workload": wl.name,
        "cases": len(wl.cases),
        "rounds": rounds,
        "ref_s": sampler.samples,
        "scenarios": loop.scenarios,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "incorrect": loop.incorrect,
        "problems": loop.problems,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        payload["trace"] = {
            "layers": tracer.summary(),
            "fronts_scanned": tracer.fronts_scanned,
            "pairs_peak": tracer.pairs_peak,
            "records_peak": tracer.records_peak,
            "missing": tracer.missing,
            "spans": tracer.spans,
        }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
