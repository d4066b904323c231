"""Cost of the fine_eps base datum along the eps ladder.

    python3 perfbench/ladder.py

Runs the datum once per rung of ``EPS_LADDER`` at level ``fast`` in this
process, with the benchmark's reference sampler on, and prints the wave count,
the event count, the raw seconds (sampler time taken out), the median reference time R of the
samples taken during the run, and the time in reference seconds.  The
figures show how the cost grows with the number of waves N.
"""

from __future__ import annotations

import statistics
import sys
import time

from reference import R0
from run import pin_to_one_cpu
from worker import SAMPLE_PERIOD_S, Sampler, import_triwave
from workloads import fine_eps_datum

EPS_LADDER = (0.05, 0.02, 0.01)


def main() -> int:
    pin_to_one_cpu()
    triwave = import_triwave()
    print(f"{'eps':>6} {'waves':>6} {'events':>7} {'raw_s':>8} {'R_ms':>6} {'ref_s':>8}")
    for eps in EPS_LADDER:
        w0, v0 = fine_eps_datum(eps)
        config = triwave.scenario.ScenarioConfig(
            eps=eps, check_level="fast", seed=0,
            w0={"jumps": [[x, v] for x, v in w0]}, v0={"jumps": [[x, v] for x, v in v0]},
        )
        sampler = Sampler(SAMPLE_PERIOD_S)
        sampler.start()
        try:
            spent0, start = sampler.spent, time.perf_counter()
            result = triwave.scenario.run_scenario(config)
            raw_s = time.perf_counter() - start - (sampler.spent - spent0)
        finally:
            sampler.stop()
        r = statistics.median(dt for _, _, dt in sampler.samples)
        if not result.passed:
            print(f"eps {eps}: report fails", file=sys.stderr)
            return 1
        traj = result.trajectory
        print(f"{eps:6g} {len(traj.initial_state.waves):6d} {len(traj.events):7d} "
              f"{raw_s:8.3f} {r * 1e3:6.1f} {raw_s * R0 / r:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
