"""Benchmark workloads: the inputs each one runs, generated from the seed.

triwave receives only explicit jump lists.  The ensemble, small-N and fine_eps
base data were drawn once by triwave's own generator and are recorded here;
the many_fronts datum and every jitter come from ``random.Random(...).random()``
alone, whose stream Python keeps fixed across versions.

Every workload is a round of fixed base data that the seed jitters: it moves
every breakpoint by less than a tenth of the smallest gap between
breakpoints.  Wave counts and the order of breakpoints stay, and so does the
cost, while no two seeds give the same inputs.  Data drawn afresh per seed
changed the cost by a third from seed to seed for one large datum, and by a
tenth for a round of 48 small ones, more than the bounds allow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("ensemble", "fine_eps", "many_fronts", "small_n")

QUADRATIC = {"name": "quadratic_coupled", "params": {"c": 0.1}}
QUARTIC = {"name": "quartic", "params": {"c": 0.1}}
# f = 0.5 w^2 + 0.1 v w^2 + 0.1 w^3: the generic polynomial evaluators with a cubic term
CUSTOM_POLY = {"name": "custom_poly", "params": {"coeffs": [[2, 0, 0.5], [2, 1, 0.1], [3, 0, 0.1]]}}

# The fine_eps base datum as (x, value in ticks of 0.02).  It is the datum
# triwave's own generator draws for seed 1 with 12 jumps in w (amplitude 0.4)
# and 12 in v (amplitude 0.3): 192 waves and 887 events at eps = 0.02.
FINE_EPS_TICK = 0.02
FINE_EPS_W = [
    (0.30456725524946715, -20), (1.0337226249506892, 8), (1.5099954693243067, 14),
    (2.232130447455225, -14), (3.2485589050678056, 14), (3.349507155311824, 5),
    (3.4133501451211834, 1), (4.7201373126557025, -8), (5.198329774196719, -4),
    (6.420522981029801, -17), (7.684640519000036, -3), (8.000984436526172, 13),
    (8.443562172326324, 0),
]
FINE_EPS_V = [
    (2.2607530078858984, 14), (2.887301347367371, -1), (3.3065538428233845, -11),
    (3.3751374098807974, 4), (3.3982827175951025, 14), (3.615906855765183, -8),
    (4.116329705734771, -15), (5.210417243455906, -8), (7.134928335291194, -5),
    (7.924806700942952, 4), (8.00401212481247, -4), (8.042084055578275, -9),
    (9.801114987405903, 0),
]

# The acceptance ensemble's data (``ensemble_config`` in
# tests/test_acceptance.py): what triwave's generator draws for seeds 0 to 23
# at eps 0.05, w0 6 jumps within 0.4 and at most 40 waves, v0 5 jumps within
# 0.3 and at most 6 fronts.  Each entry is (w0, v0) as (x rounded to four
# decimals, value in ticks of 0.05).  These 24 seeds have the same quartiles
# of TV(w) as the acceptance suite's 100 (28.5, 34, 38 waves).
ENSEMBLE_DATA = [
    ([(0.0701, 3), (1.1664, 6), (4.4356, -4), (4.6647, -7), (5.0875, -6), (6.6837, 7), (9.2129, 0)],
     [(4.2310, 2), (4.3470, 3), (5.5970, -2), (6.7813, -4), (7.7058, -6), (8.2349, 0)]),
    ([(0.6063, -4), (1.9111, -1), (3.0176, 3), (4.5415, 4), (6.2289, -1), (6.3313, -7), (7.2314, 0)],
     [(2.0681, 6), (2.2539, -1), (3.3751, -5), (3.6159, 2), (6.1286, 6), (9.8011, 0)]),
    ([(0.9062, 7), (2.4159, 5), (2.7612, -5), (5.6709, -8), (5.7363, 0), (5.8029, -3), (7.2300, 0)],
     [(0.5194, 5), (3.7953, 6), (6.9912, 5), (8.2596, -4), (9.0996, 1), (9.2836, 0)]),
    ([(2.3936, 3), (2.9764, 0), (3.8100, -6), (5.1444, -1), (6.1718, -4), (6.8835, 7), (8.6159, 0)],
     [(1.2287, 3), (2.8919, -5), (5.0978, -4), (7.8811, 2), (9.1379, 0)]),
    ([(0.0055, 7), (1.6218, -8), (6.8948, -7), (7.1245, -1), (7.9322, 0), (9.2754, -2), (9.2802, 0)],
     [(0.2735, 6), (2.4579, 5), (5.7373, 1), (5.8071, 6), (7.4037, -3), (8.5647, 0)]),
    ([(1.0251, 7), (1.1139, -2), (1.5528, -1), (4.2621, 6), (4.9340, 3), (7.8879, -3), (9.9376, 0)],
     [(2.7654, 1), (2.7707, -3), (3.8528, 5), (4.4438, -6), (5.6112, 3), (8.5575, 0)]),
    ([(0.6343, 7), (0.9188, -1), (1.7669, 0), (2.4801, 1), (5.1939, 6), (7.3499, 1), (9.9550, 0)],
     [(0.5218, -2), (2.2199, 3), (2.4403, 4), (3.0631, -2), (3.2655, 4), (3.7249, 0)]),
    ([(2.4246, -6), (5.7950, 1), (6.1247, -5), (6.1333, 6), (6.7720, 4), (7.0084, -1), (9.0347, 0)],
     [(0.9449, 3), (1.3354, -1), (3.5376, -2), (3.7874, -6), (8.7153, 0)]),
    ([(0.8686, 6), (4.0396, 0), (4.5458, 5), (5.0123, -4), (5.4924, 4), (6.2141, -1), (8.8539, 0)],
     [(1.0147, 4), (6.3203, -2), (6.4201, -5), (6.9198, -1), (9.5950, 5), (9.6514, 0)]),
    ([(0.4462, -3), (1.2638, -4), (2.0903, -6), (2.5828, 0), (4.2396, -7), (4.5826, 6), (5.9390, 0)],
     [(0.0495, 1), (2.8855, -3), (5.7245, 1), (7.1908, -3), (8.4484, -5), (8.4570, 0)]),
    ([(0.0893, 1), (0.5158, 8), (2.1994, 4), (3.6523, -3), (4.7881, 6), (7.0038, 3), (7.3733, 0)],
     [(0.0722, -3), (3.1865, -6), (3.7237, -1), (4.9245, -2), (5.6261, 1), (6.5324, 0)]),
    ([(0.5138, 4), (2.2963, 7), (3.0236, 3), (3.4398, 6), (7.0067, 1), (7.7717, 3), (9.4485, 0)],
     [(2.5645, 2), (3.6036, 4), (6.2836, 1), (6.8692, -1), (9.2742, 5), (9.5659, 0)]),
    ([(2.2080, -2), (4.5586, 4), (5.9386, 3), (6.2324, 0), (6.2833, -5), (6.5132, -1), (9.2589, 0)],
     [(0.4020, 5), (0.4651, -2), (2.8135, -5), (5.1134, -1), (5.5916, -5), (7.3795, 0)]),
    ([(1.2790, -5), (2.2938, 3), (3.1901, -5), (3.5657, -3), (6.5745, -6), (7.3590, -1), (8.2767, 0)],
     [(3.6226, 6), (4.3927, -6), (6.2866, -1), (6.3484, 3), (6.4867, -3), (8.7066, 0)]),
    ([(2.3406, 8), (2.4436, 3), (3.2475, -1), (3.3740, 6), (4.4925, -4), (7.7586, -3), (8.2339, 0)],
     [(1.4907, 4), (2.5530, 2), (6.4124, -5), (6.8001, 1), (8.8083, -1), (9.8108, 0)]),
    ([(2.4291, 6), (3.2031, -2), (4.5554, -3), (7.2522, 3), (8.4144, -4), (8.5992, 0)],
     [(4.3154, -3), (5.5995, -5), (5.9106, -4), (7.4009, 3), (8.1278, 4), (8.2279, 0)]),
    ([(1.5630, 8), (2.5738, 6), (3.0862, -3), (4.5496, -5), (5.0808, 6), (7.5071, 2), (7.6965, 0)],
     [(1.0044, -1), (1.5494, 6), (2.5711, 4), (2.9367, 3), (6.0872, -2), (7.6288, 0)]),
    ([(0.4234, 2), (1.2245, -8), (1.2651, -6), (3.5143, -3), (4.9258, -6), (8.4603, -7), (8.9799, 0)],
     [(2.3109, -1), (3.9568, -4), (4.8384, -1), (7.7283, -5), (7.7573, -1), (7.7633, 0)]),
    ([(3.0140, -4), (3.7362, -5), (4.3171, -4), (4.4943, 3), (7.0025, -5), (7.5692, -7), (8.5139, 0)],
     [(0.3615, -1), (0.9221, -3), (4.1697, -6), (6.0428, -2), (7.7617, 4), (8.9932, 0)]),
    ([(1.6894, 2), (1.9159, -3), (4.4811, 4), (4.9635, 3), (6.9451, 4), (8.6845, 0)],
     [(0.7534, -2), (2.6626, 2), (2.9626, 1), (3.5148, -4), (4.5024, 6), (9.2735, 0)]),
    ([(0.2604, -3), (0.7297, -4), (3.0152, -7), (5.0386, 5), (6.4634, -6), (9.2887, 2), (9.3951, 0)],
     [(2.8416, 3), (3.0323, 0), (5.0347, 3), (5.2767, 1), (5.8128, 5), (6.9075, 0)]),
    ([(1.4720, -2), (3.0334, -8), (4.7629, -7), (5.2437, 2), (6.8919, 5), (8.2566, 4), (9.9627, 0)],
     [(3.3582, -5), (4.5990, -3), (8.1839, 5), (8.2898, 6), (8.9243, -1), (9.8758, 0)]),
    ([(1.5506, -5), (3.7385, -8), (4.8205, 3), (5.6778, -8), (6.5658, -7), (8.7497, -1), (9.3006, 0)],
     [(2.1301, 3), (2.6458, -2), (5.8348, -5), (6.4260, 1), (8.6139, 4), (8.8022, 0)]),
    ([(2.6560, -4), (2.9835, -3), (3.0965, 3), (5.9258, 1), (7.7470, -7), (9.0470, -8), (9.8865, 0)],
     [(0.7889, 3), (1.1255, 0), (1.1338, 1), (5.0774, -2), (5.4641, -5), (7.0357, 0)]),
]

# The acceptance small-N data (``test_criterion_7_small_n_lemmas``): what
# triwave's generator draws for seeds 0 to 29, all of the suite's seeds, with
# w0 3 jumps within 0.3 and at most 12 waves, v0 3 jumps within 0.3 and at
# most 4 fronts; same format.
SMALL_N_DATA = [
    ([(1.1664, -3), (5.0875, -5), (6.6837, -4), (9.2129, 0)],
     [(4.2310, 2), (6.1176, 3), (7.7058, -2), (8.2349, 0)]),
    ([(0.6715, 3), (2.8122, 0), (5.6553, -1), (7.1553, 0)],
     [(2.0681, 6), (2.2539, -1), (2.4509, -5), (6.1286, 0)]),
    ([(6.7536, -5), (8.3449, -6), (8.3798, -5), (8.6971, 0)],
     [(5.5746, 5), (6.9912, 6), (8.2596, 5), (9.0996, 0)]),
    ([(5.1444, -2), (6.8835, -3), (8.6159, -2), (9.0757, 0)],
     [(5.0978, 3), (5.2888, -5), (7.8811, -4), (9.1379, 0)]),
    ([(5.2146, 3), (5.6568, 6), (7.6447, 3), (9.2802, 0)],
     [(0.2735, 6), (4.1723, 5), (5.7373, 1), (7.4037, 0)]),
    ([(0.7086, -1), (1.5215, -6), (4.9214, -2), (7.7987, 0)],
     [(4.4438, 1), (5.6112, -3), (8.1938, 5), (8.5575, 0)]),
    ([(0.9188, 4), (1.7669, 1), (7.3499, -2), (9.9550, 0)],
     [(2.2199, -2), (3.2655, 3), (3.7249, 4), (9.9844, 0)]),
    ([(0.2458, -2), (7.6118, -1), (8.6594, 1), (9.3273, 0)],
     [(0.9449, 3), (1.3354, -1), (2.2269, -2), (3.7874, 0)]),
    ([(4.0396, -3), (5.0123, -6), (8.8539, 0)],
     [(1.0147, 4), (4.5859, -2), (6.3203, -5), (9.5950, 0)]),
    ([(2.5828, -2), (4.2396, -3), (4.5826, -5), (8.7124, 0)],
     [(3.5818, 1), (5.7245, -3), (7.1908, 1), (8.4484, 0)]),
    ([(0.5158, 1), (2.1994, 6), (4.7881, 3), (7.0429, 0)],
     [(3.7237, -3), (4.0814, -6), (4.9245, -1), (6.5324, 0)]),
    ([(2.2963, 3), (3.0236, 5), (6.6681, 2), (7.0067, 0)],
     [(2.5645, 2), (3.6036, 4), (5.3290, 1), (6.8692, 0)]),
    ([(3.8546, -2), (4.5586, 3), (6.2324, 2), (9.2589, 0)],
     [(0.4651, 5), (5.1134, -2), (5.5916, -5), (7.6254, 0)]),
    ([(1.2790, -1), (4.3955, 3), (5.4158, 4), (7.3590, 0)],
     [(4.3927, 6), (6.4867, -6), (7.9989, -1), (8.7066, 0)]),
    ([(2.1771, 5), (5.9121, 4), (8.3084, 0)],
     [(1.4907, 4), (2.5530, 2), (6.8001, -5), (7.2790, 0)]),
    ([(2.8435, 3), (3.2095, 5), (4.5554, 2), (8.4144, 0)],
     [(5.5995, -3), (7.4009, -5), (8.2279, -4), (9.9355, 0)]),
    ([(2.8257, -1), (3.1071, 3), (3.4116, 2), (7.0227, 0)],
     [(0.4732, -1), (2.5711, 6), (6.0872, 4), (7.6288, 0)]),
    ([(0.2182, 1), (1.0997, -1), (1.7778, 4), (8.5258, 0)],
     [(0.8115, -1), (4.8384, -4), (7.7573, -1), (7.7633, 0)]),
    ([(0.8541, -3), (4.3171, -4), (4.4943, -3), (8.5139, 0)],
     [(0.3615, -1), (3.5012, -3), (4.1697, -6), (8.9932, 0)]),
    ([(1.6894, 3), (4.9635, 2), (6.9451, 3), (8.6845, 0)],
     [(2.6626, -2), (2.9626, 2), (3.5148, 1), (6.3136, 0)]),
    ([(0.3733, 2), (7.5586, -4), (8.8591, 0)],
     [(0.1164, 3), (2.8416, 0), (3.0323, 3), (6.9075, 0)]),
    ([(5.1036, -5), (5.5222, -3), (8.5254, -4), (9.0676, 0)],
     [(3.2950, -5), (4.5990, -3), (8.1839, 5), (8.9243, 0)]),
    ([(1.2529, 2), (4.2749, -4), (4.2940, -1), (7.8424, 0)],
     [(5.8348, 3), (6.0639, -2), (6.4260, -5), (8.8022, 0)]),
    ([(0.0445, -3), (3.0965, -2), (5.9258, 2), (7.7470, 0)],
     [(1.1338, 3), (5.4641, 0), (7.0357, 1), (8.2090, 0)]),
    ([(0.6176, 2), (0.7697, 3), (3.5532, 1), (9.0146, 0)],
     [(0.2077, 4), (5.0994, -4), (5.4841, -1), (8.0180, 0)]),
    ([(1.4603, 3), (2.0051, 2), (8.6106, 1), (8.9607, 0)],
     [(4.4941, -6), (7.4387, -3), (7.6301, 6), (7.6738, 0)]),
    ([(4.3520, -1), (5.4586, 1), (7.5384, 5), (8.3659, 0)],
     [(3.6274, 2), (6.9970, 0), (7.1393, 2), (8.9915, 0)]),
    ([(0.0525, 3), (5.5339, 1), (9.4140, 0)],
     [(0.4154, 5), (2.2635, 0), (6.6613, 2), (9.7388, 0)]),
    ([(3.5904, -4), (3.9548, -6), (7.1372, -2), (8.6662, 0)],
     [(1.2433, -1), (4.0468, -4), (5.9429, 1), (8.6599, 0)]),
    ([(0.5505, 5), (2.9793, 0), (4.2320, -1), (4.7375, 0)],
     [(2.1327, -4), (4.9633, 1), (8.5661, 2), (9.1372, 0)]),
]

# (x, value in ticks): a step function given by its plateaus, as in triwave's
# {"jumps": [[x, ticks], ...]}; it starts from 0 and must end at 0.
Plateaus = list


@dataclass(frozen=True)
class Case:
    """One scenario of a round: its key, flux, grid step and initial data."""

    key: str
    flux: dict
    eps: float
    w0: Plateaus
    v0: Plateaus


@dataclass(frozen=True)
class Workload:
    name: str
    check_level: str
    cases: list[Case]


class Draw:
    """Seeded uniform draws built on ``random.Random.random`` only."""

    def __init__(self, label: str) -> None:
        self._rng = random.Random(label)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def index(self, n: int) -> int:
        return min(int(self._rng.random() * n), n - 1)


def single_tick_plateaus(draw: Draw, jumps: int, amp_ticks: int, width: float) -> Plateaus:
    """``jumps`` jumps of one tick each (a walk of +-1 within the amplitude,
    then straight back to 0), spread uniformly over [0, width]."""
    values, prev = [], 0
    for _ in range(jumps):
        steps = [v for v in (prev - 1, prev + 1) if abs(v) <= amp_ticks]
        prev = steps[draw.index(len(steps))]
        values.append(prev)
    while prev != 0:
        prev += -1 if prev > 0 else 1
        values.append(prev)
    xs = sorted(draw.uniform(0.0, width) for _ in values)
    return list(zip(xs, values))


def jump_sizes(plateaus: Plateaus) -> list[tuple[float, int]]:
    """(x, |jump| in ticks) for every breakpoint."""
    out, prev = [], 0
    for x, value in plateaus:
        out.append((x, abs(value - prev)))
        prev = value
    return out


def tv_ticks(plateaus: Plateaus) -> int:
    return sum(size for _, size in jump_sizes(plateaus))


def rescale(plateaus: Plateaus, tick: float, eps: float) -> Plateaus:
    """The same values, given in ticks of ``tick``, on the grid of step ``eps``."""
    return [(x, int(round(value * tick / eps))) for x, value in plateaus]


def jitter(draw: Draw, w0: Plateaus, v0: Plateaus) -> tuple[Plateaus, Plateaus]:
    """Move every breakpoint by less than a tenth of the smallest gap between
    any two breakpoints of w0 and v0, so their order is kept."""
    xs = sorted({x for x, _ in w0} | {x for x, _ in v0})
    gap = min((b - a for a, b in zip(xs, xs[1:])), default=1.0)
    delta = min(0.1 * gap, 1e-3)
    return ([(x + draw.uniform(-delta, delta), v) for x, v in w0],
            [(x + draw.uniform(-delta, delta), v) for x, v in v0])


def fine_eps_datum(eps: float) -> tuple[Plateaus, Plateaus]:
    """The fine_eps base datum on the grid of step ``eps``."""
    return rescale(FINE_EPS_W, FINE_EPS_TICK, eps), rescale(FINE_EPS_V, FINE_EPS_TICK, eps)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The round of cases the workload runs for ``seed``.  ``smoke`` shrinks
    every workload to a size that runs in a second or two."""
    draw = Draw(f"{name}:{seed}")

    def case(key: str, flux: dict, eps: float, w0: Plateaus, v0: Plateaus) -> Case:
        return Case(key, flux, eps, *jitter(draw, w0, v0))

    if name == "ensemble":
        # the acceptance-ensemble data, cycling through the three built-in fluxes
        fluxes = (QUADRATIC, QUARTIC, CUSTOM_POLY)
        data = ENSEMBLE_DATA[:3] if smoke else ENSEMBLE_DATA
        return Workload(name, "full", [
            case(f"{k:02d}-{fluxes[k % 3]['name']}", fluxes[k % 3], 0.05, w0, v0)
            for k, (w0, v0) in enumerate(data)
        ])
    if name == "small_n":
        data = SMALL_N_DATA[:2] if smoke else SMALL_N_DATA
        return Workload(name, "small_n", [
            case(f"{k:02d}", QUADRATIC, 0.05, w0, v0) for k, (w0, v0) in enumerate(data)
        ])
    if name == "fine_eps":
        eps = 0.1 if smoke else 0.02
        return Workload(name, "fast", [case("datum", QUADRATIC, eps, *fine_eps_datum(eps))])
    if name == "many_fronts":
        # scalar only: nothing crosses transversally, so m_value never runs
        jumps, width = (40, 10.0) if smoke else (400, 100.0)
        w0 = single_tick_plateaus(Draw(f"{name}:base"), jumps, 8, width)
        return Workload(name, "fast", [case("datum", QUADRATIC, 0.05, w0, [])])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
