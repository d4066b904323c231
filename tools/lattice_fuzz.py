"""Seeded fuzz of lattice data at level ``full``.

    python3 tools/lattice_fuzz.py --n 300

Draws ``--n`` data from one ``random.Random(0)``, each in this order: the
flux (``quadratic_coupled`` or ``quartic``, c 0.1), then w0, then v0.  w0 has
2 to 6 jumps at distinct points of the 0.5-grid of [0, 10], with values in
[-8, 8] ticks and a last value of 0; v0 has 2 to 4 jumps drawn the same way,
with values in [-4, 4].  Every datum runs at eps 0.05 and level ``full``,
where the enumeration is validated after each group of simultaneous events.

A datum whose w0 is 0 everywhere has no second-family wave, so nothing in
it can interact, cancel or cross: it is skipped, not run.  Prints the first
line of every exception, with the datum that raised it, then the counts of
data that passed, failed a check, raised and were skipped.  Exits 0 if
every datum passed or was skipped and 1 if any failed or raised.  triwave
is imported from the ``src`` of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from triwave.scenario import ScenarioConfig, run_scenario  # noqa: E402

EPS = 0.05
FLUXES = ("quadratic_coupled", "quartic")
GRID = [0.5 * k for k in range(21)]


def draw_jumps(rng: random.Random, fewest: int, most: int, max_tick: int) -> list[list]:
    """``fewest`` to ``most`` jumps at distinct grid points; the last value is 0."""
    n = rng.randint(fewest, most)
    xs = sorted(rng.sample(GRID, n))
    values = [rng.randint(-max_tick, max_tick) for _ in range(n - 1)] + [0]
    return [[x, v] for x, v in zip(xs, values)]


def draw_config(rng: random.Random) -> ScenarioConfig:
    flux = rng.choice(FLUXES)
    w0 = draw_jumps(rng, 2, 6, 8)
    v0 = draw_jumps(rng, 2, 4, 4)
    return ScenarioConfig(flux={"name": flux, "params": {"c": 0.1}}, eps=EPS,
                          w0={"jumps": w0}, v0={"jumps": v0}, check_level="full")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=300, help="number of data to run")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    rng = random.Random(0)
    passed = failed = raised = skipped = 0
    for k in range(args.n):
        config = draw_config(rng)
        if not any(value for _, value in config.w0["jumps"]):
            skipped += 1
            continue
        try:
            result = run_scenario(config)
        except Exception as exc:   # a fuzz reports every raise and keeps going
            raised += 1
            first = (str(exc).splitlines() or [""])[0]
            print(f"datum {k} raised {type(exc).__name__}: {first}\n"
                  f"  flux {config.flux['name']}, w0 {config.w0['jumps']}, v0 {config.v0['jumps']}")
            continue
        if result.passed:
            passed += 1
        else:
            failed += 1
    print(f"passed {passed}, failed {failed}, raised {raised}, skipped {skipped} of {args.n}")
    return 0 if passed + skipped == args.n else 1


if __name__ == "__main__":
    sys.exit(main())
