"""triwave benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout of the repository; triwave is imported
from the checkout's ``src``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``.  The line before it holds the raw seconds and the
reference time R behind them.  ``--smoke`` runs every workload at a tiny size,
both ways, and checks the printed metric names and units against
BENCHMARK.json.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from reference import R0  # noqa: E402
from worker import SAMPLE_PERIOD_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
BRACKET_SAMPLES = 3
# the children run single-threaded, with a fixed string hash
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# per-layer times: (metric, tracer label, "s" for inclusive or "self_s")
LAYER_TIMES = [
    ("flux.derivative_bounds.s", "flux.derivative_bounds", "s"),
    ("flux.build_effective_flux.s", "flux.build_effective_flux", "s"),
    ("envelopes.hull.s", "envelopes.hull", "s"),
    ("wavefield.speed_groups.s", "wavefield.speed_groups", "s"),
    ("wavefield.effective_flux.s", "wavefield.effective_flux", "s"),
    ("wavefield.validate_enumeration.s", "wavefield.validate_enumeration", "s"),
    ("simulator.next_collision.s", "simulator.next_collision", "s"),
    ("simulator.resolve.self_s", "simulator.resolve", "self_s"),
    ("simulator.run.self_s", "simulator.run", "self_s"),
    ("history.on_event.self_s", "history.on_event", "self_s"),
    ("history.snapshot.s", "history.snapshot", "s"),
    ("history.m_value.s", "history.m_value", "s"),
    ("history.initialize.s", "history.initialize", "s"),
    ("replay.run.s", "replay.run", "s"),
    ("verifier.run_verifier.self_s", "verifier.run_verifier", "self_s"),
    ("verifier.check_log2_kernel.s", "verifier.check_log2_kernel", "s"),
    ("verifier.check_small_n_lemmas.self_s", "verifier.check_small_n_lemmas", "self_s"),
    ("verifier.write_report.s", "verifier.write_report", "s"),
    ("scenario.run_scenario.self_s", "scenario.run_scenario", "self_s"),
]
LAYER_CALLS = [
    ("flux.derivative_bounds.calls", "flux.derivative_bounds"),
    ("flux.interpolate.calls", "flux.interpolate"),
    ("flux.build_effective_flux.calls", "flux.build_effective_flux"),
    ("envelopes.hull.calls", "envelopes.hull"),
    ("wavefield.speed_groups.calls", "wavefield.speed_groups"),
    ("wavefield.effective_flux.calls", "wavefield.effective_flux"),
    ("wavefield.validate_enumeration.calls", "wavefield.validate_enumeration"),
    ("simulator.next_collision.calls", "simulator.next_collision"),
    ("history.on_event.calls", "history.on_event"),
    ("history.m_value.calls", "history.m_value"),
]
# per-scenario counts read from the outputs
OUTPUT_COUNTS = [
    ("simulator.events", "events"),
    ("simulator.events.transversal", "transversal"),
    ("simulator.events.cancellation", "cancellation"),
    ("simulator.events.interaction", "interaction"),
    ("simulator.waves", "waves"),
    ("verifier.checks", "checks"),
    ("scenario.artifact_bytes", "artifact_bytes"),
]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def spawn_worker(args: list[str], seconds: float) -> tuple[float, dict | None]:
    """Start a fresh worker; return (seconds until it printed ``ready``, its
    result line or None with ``--setup-only``).  Waits for it to end, or
    kills it once it has run far longer than a ``seconds`` run should."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=3 * seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  The host's speed
    changes within seconds and differs between CPUs; a worker that moved
    between them would no longer be measured at the speed its reference
    samples saw."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def normalise(raw: dict) -> None:
    """Give each scenario its reference time ``r``, the median loop time of the
    samples taken while it ran or within one sampling period of either end,
    and its factor ``norm`` = R0 / r."""
    samples = raw["ref_s"]
    for sc in raw["scenarios"]:
        lo, hi = sc["start"] - SAMPLE_PERIOD_S, sc["end"] + SAMPLE_PERIOD_S
        near = [dt for start, end, dt in samples if lo <= start and end <= hi]
        if not near:  # the timer fired late, in a long call into C
            near = [min(samples, key=lambda smp: abs(smp[0] - sc["start"]))[2]]
        sc["r"] = statistics.median(near)
        sc["norm"] = R0 / sc["r"]


def bracket() -> float:
    """Median of a few reference samples taken here, between workers."""
    return statistics.median(reference.sample() for _ in range(BRACKET_SAMPLES))


def setup_samples(base: list[str], count: int, seconds: float) -> tuple[list[float], list[float], dict]:
    """Set-up times of ``count`` fresh workers, the last of which runs the
    workload; each is normalised by the samples taken right before and after."""
    raws, normed = [], []
    before = bracket()
    for k in range(count):
        setup_s, raw = spawn_worker(base + (["--setup-only"] if k < count - 1 else []), seconds)
        after = bracket()
        raws.append(setup_s)
        normed.append(setup_s * R0 / statistics.median((before, after)))
        before = after
    return raws, normed, raw


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run the workload in fresh processes; return the result object."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(HERE / "out" / f"{workload}-{os.getpid()}")]
    if smoke:
        base.append("--smoke")
    raw_setups, setups, raw = setup_samples(base, 1 if smoke else SETUP_SAMPLES, seconds)
    normalise(raw)

    untraced = [s for s in raw["scenarios"] if not s["traced"]]
    # scenarios whose run_scenario returned, whatever their checks found
    returned = [s for s in untraced if "run_s" in s]
    if not returned:
        raise BenchError("every scenario raised: " + "; ".join(raw["problems"]))
    timed_s = sum(s["total_s"] * s["norm"] for s in untraced)
    events = sum(s["events"] for s in returned if "events" in s)
    info = {
        "workload": workload, "seed": seed, "rounds": raw["rounds"], "cases": raw["cases"],
        "R0_s": R0, "R_median_s": statistics.median(s["r"] for s in raw["scenarios"]),
        "ref_samples": len(raw["ref_s"]),
        "raw_setup_s": raw_setups, "raw_timed_s": sum(s["total_s"] for s in untraced),
        "raw_run_p50_s": statistics.median(s["run_s"] for s in returned),
        "events": events, "problems": raw["problems"],
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "scenarios_per_s": (len(untraced) / timed_s, "1/s"),
            "events_per_s": (events / timed_s, "1/s"),
            "run_p50_s": (statistics.median(s["run_s"] * s["norm"] for s in returned), "s"),
            "peak_rss_mb": (raw["maxrss_kb"] / 1024.0, "MB"),
        }
    else:
        layer, overhead = layer_metrics(raw)
        info.update(overhead)
        write_trace_file(workload, seed, raw, layer, info)
        metrics = layer
    return {
        "info": info,
        "result": {
            "correct": raw["incorrect"] == 0,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def layer_metrics(raw: dict) -> tuple[dict, dict]:
    """Per-layer metrics, per traced scenario, times in reference seconds."""
    trace = raw["trace"]
    layers = trace["layers"]
    traced = [s for s in raw["scenarios"] if s["traced"]]
    n = len(traced)
    # span totals are per run; they take the traced scenarios' mean factor
    norm = statistics.fmean(s["norm"] for s in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name, label, kind in LAYER_TIMES:
        metrics[name] = (layers.get(label, {}).get(kind, 0.0) * norm / n, "s")
    for name, label in LAYER_CALLS:
        metrics[name] = (layers.get(label, {}).get("calls", 0) / n, "count")
    metrics["simulator.fronts_scanned"] = (trace["fronts_scanned"] / n, "count")
    for name, key in OUTPUT_COUNTS:
        metrics[name] = (sum(s.get(key, 0) for s in traced) / n, "bytes" if key == "artifact_bytes" else "count")
    metrics["history.pairs_peak"] = (trace["pairs_peak"], "count")
    metrics["history.records_peak"] = (trace["records_peak"], "count")

    plain = sum(s["total_s"] * s["norm"] for s in raw["scenarios"] if not s["traced"])
    with_trace = sum(s["total_s"] * s["norm"] for s in traced)
    overhead_s = (with_trace - plain) / n
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, {
        "trace_overhead_s_per_scenario": overhead_s,
        "trace_overhead_share": (with_trace - plain) / plain,
        "trace_missing": trace["missing"],
    }


def write_trace_file(workload: str, seed: int, raw: dict, metrics: dict, info: dict) -> None:
    out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    payload = {
        "info": info,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "layers_raw_s": raw["trace"]["layers"],
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in raw["trace"]["spans"]],
    }
    out.write_text(json.dumps(payload, indent=1) + "\n")


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; the printed names
    and units must be those of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    if sorted(names) != sorted(WORKLOADS):
        print(f"smoke: BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
        bad += 1
    for workload in WORKLOADS:
        for trace in (False, True):
            res = measure(workload, seed=0, seconds=0.0, trace=trace, smoke=True)["result"]
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            names_ok = got == want[trace]
            ok = names_ok and res["correct"] and res["failed"] == 0
            bad += not ok
            verdict = "ok" if ok else "FAILED" if names_ok else (
                "MISMATCH " + str(sorted(set(got.items()) ^ set(want[trace].items()))))
            print(f"smoke {workload:12s} trace={int(trace)} attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']} {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, names checked")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triwave" / "__init__.py").is_file():
        print(f"error: no triwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for text in out["info"]["problems"]:
        print(f"problem: {text}", file=sys.stderr)
    print("info " + json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
