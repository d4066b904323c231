"""Independent checks of one scenario's outputs.

Each check recomputes what it needs from the benchmark's own inputs and
triwave's written artifacts (events.csv, functionals.csv, report.json,
snapshots.json).  None of them compares against a stored copy of earlier
outputs.  Any problem counts the scenario as failed.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from workloads import Case, jump_sizes, tv_ticks

REL_TOL = 1e-9
# the flux box triwave uses when a flux gives none
BOX = (-0.8, 0.8, -0.5, 0.5)
# DerivativeBounds documents a sampled sup norm inflated by 1%
BOUND_INFLATION = 1.01


def q_trans0(case: Case) -> float:
    """Q_trans at t = 0: every first-family front's strength times the
    strength of the waves to its left, which it has still to cross."""
    w_jumps = jump_sizes(case.w0)
    total = 0
    for xv, dv in jump_sizes(case.v0):
        total += dv * sum(dw for xw, dw in w_jumps if xw < xv)
    return total * case.eps * case.eps


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def _analytic_derivatives(flux: dict):
    """d2f/dw2, d2f/dwdv and d3f/dw2dv of a built-in flux, written out here
    independently of triwave.flux."""
    name, params = flux["name"], flux.get("params", {})
    if name in ("quadratic_coupled", "quartic"):
        c = params.get("c", 0.1)
        quartic = name == "quartic"
        return (
            lambda w, v: (3.0 * w * w - 1.0 if quartic else 1.0) + 2.0 * c * v,
            lambda w, v: 2.0 * c * w,
            lambda w, v: 2.0 * c,
        )
    if name == "custom_poly":
        terms = [(int(i), int(j), float(a)) for i, j, a in params["coeffs"]]

        def partial(di: int, dj: int):
            def fn(w: float, v: float) -> float:
                total = 0.0
                for i, j, a in terms:
                    if i >= di and j >= dj:
                        coef = a
                        for k in range(di):
                            coef *= i - k
                        for k in range(dj):
                            coef *= j - k
                        total += coef * w ** (i - di) * v ** (j - dj)
                return total
            return fn

        return partial(2, 0), partial(1, 1), partial(2, 1)
    raise ValueError(f"no analytic derivatives for flux {name!r}")


def analytic_sup_norms(flux: dict) -> tuple[float, float, float]:
    """Sup norms over the box of the three derivatives the bounds cover.

    For every flux the workloads use, each derivative is affine in v and, in
    w, either affine, or (quartic d2f/dw2) convex and even.  The sup of its
    absolute value is then attained at v = v_min or v_max and w = w_min, 0 or
    w_max.
    """
    w_min, w_max, v_min, v_max = BOX
    points = [(w, v) for w in (w_min, 0.0, w_max) for v in (v_min, v_max)]
    return tuple(max(abs(fn(w, v)) for w, v in points) for fn in _analytic_derivatives(flux))


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_outputs(case: Case, result, out_dir: Path, events_bytes: bytes) -> tuple[list[str], dict]:
    """Problems found in one scenario's outputs, and the counts read from them."""
    problems: list[str] = []
    events = _read_csv(events_bytes)
    functionals = _read_csv((out_dir / "functionals.csv").read_bytes())
    report = json.loads((out_dir / "report.json").read_text())
    final = json.loads((out_dir / "snapshots.json").read_text())["final"]
    eps = case.eps

    if not (result.passed and report["passed"]):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        problems.append(f"report fails: {sorted(set(failed))}")

    # Q_trans ends at 0 and its drops add up to Q_trans(0)
    q = [float(row["q_trans"]) for row in functionals]
    expected_q0 = q_trans0(case)
    drops = sum(max(0.0, a - b) for a, b in zip(q, q[1:]))
    rises = [b - a for a, b in zip(q, q[1:]) if b > a]
    if not _close(q[0], expected_q0, expected_q0):
        problems.append(f"Q_trans(0) = {q[0]!r}, expected {expected_q0!r}")
    if not _close(q[-1], 0.0, expected_q0):
        problems.append(f"Q_trans ends at {q[-1]!r}, not 0")
    if rises or not _close(drops, expected_q0, expected_q0):
        problems.append(f"Q_trans drops sum to {drops!r} (rises {rises[:3]}), expected {expected_q0!r}")

    # TV(w) starts at TV(w0) and never increases
    tv = [float(row["tv_w"]) for row in functionals]
    initial_waves = tv_ticks(case.w0)
    if not _close(tv[0], initial_waves * eps, initial_waves * eps):
        problems.append(f"TV(w)(0) = {tv[0]!r}, expected {initial_waves * eps!r}")
    if any(b > a for a, b in zip(tv, tv[1:])):
        problems.append("TV(w) increases")

    # alive waves at the end = initial waves - cancelled waves
    cancelled_raw = sum(float(row["cancellation"]) for row in events) / eps
    cancelled = round(cancelled_raw)
    alive = [w for w in final["waves"] if w["position"] is not None]
    if abs(cancelled_raw - cancelled) > 1e-6 or len(alive) != initial_waves - cancelled:
        problems.append(f"{len(alive)} waves alive at the end, expected "
                        f"{initial_waves} - {cancelled_raw:.6g} cancelled")

    # nothing still approaching: alive waves in id order are in position
    # order, and no left neighbour is faster than its right neighbour
    for a, b in zip(alive, alive[1:]):
        if a["position"] > b["position"] or a["speed"] > b["speed"]:
            problems.append(f"waves {a['id']} and {b['id']} still approaching at the end")
            break

    # the derivative bounds every estimate uses
    bounds = result.trajectory.bounds
    got = (bounds.norm_d2_ww, bounds.norm_d2_wv, bounds.norm_d3_wwv)
    for label, value, sup in zip(("d2_ww", "d2_wv", "d3_wwv"), got, analytic_sup_norms(case.flux)):
        if not sup <= value <= BOUND_INFLATION * sup * (1.0 + REL_TOL):
            problems.append(f"bound {label} = {value!r} not within [sup, 1.01 sup], sup = {sup!r}")

    kinds = [row["kind"] for row in events]
    counts = {
        "events": len(events),
        "transversal": kinds.count("transversal"),
        "cancellation": kinds.count("cancellation"),
        "interaction": sum(1 for k in kinds if k.startswith("interaction")),
        "waves": initial_waves,
        "checks": len(report["checks"]),
        "artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    }
    return problems, counts
