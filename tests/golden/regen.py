"""Regenerate the golden artifacts under ``tests/golden`` from the current tree.

    python3 tests/golden/regen.py [--check]

imports triwave from this checkout's ``src``, runs every golden case with
``run_scenario`` and rewrites its ``events.csv``, ``functionals.csv`` and
``report.json`` (the check values), each where it changed: a CSV file in its
bytes, a JSON file in its parsed values:

- ``configs/demo.json`` as shipped (seed 42, level ``full``), at the top;
- a 58-jump scalar datum at level ``fast``, under ``scalar_fast/``;
- a coupled datum on the cubic ``custom_poly`` flux at level ``full``, under
  ``cubic_split/``: the one case in which a crossing splits a partition
  class and a cancellation cuts one;
- the lemma suite's cubic datum (``test_verifier.CUBIC``) at level
  ``small_n``, under ``small_n_cubic/``: divided pairs that hold a class of
  two waves and nest with equal classes, so its ``report.json`` pins the
  pair keys of the lemma checks' worst candidates.

For each file it prints whether it changed and, per changed CSV column, the
worst relative change; per check name of a changed ``report.json``, how many
of its entries changed and, per changed field (``lhs``, ``rhs``, ``slack``,
each ``context`` entry), the worst relative change of its numbers.  Run it
only in a change that alters these bytes on purpose, and copy what it prints
into CHANGES.md (README, "Golden artifacts").  With ``--check`` it prints
the same report, writes nothing and exits 1 if any file would change.
``tests/test_scenario.py`` reads the same cases.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from triwave.scenario import ScenarioConfig, run_scenario  # noqa: E402

DEMO = ROOT / "configs" / "demo.json"
NAMES = ("events.csv", "functionals.csv", "report.json")
# (x, ticks): a walk of single-tick jumps within 6 ticks, then back to 0
SCALAR_FAST_JUMPS = [
    [0.042, -1], [0.075, 0], [0.53, 1], [0.942, 0], [1.199, -1], [1.449, 0], [1.694, 1],
    [1.792, 2], [2.245, 1], [2.474, 0], [2.487, 1], [2.495, 2], [2.677, 1], [3.621, 0],
    [3.682, 1], [4.121, 0], [4.791, 1], [4.975, 0], [5.214, 1], [5.613, 2], [5.859, 3],
    [6.017, 4], [6.211, 5], [6.228, 6], [6.307, 5], [6.498, 6], [6.521, 5], [6.62, 4],
    [6.721, 5], [6.836, 4], [6.922, 5], [7.202, 6], [7.341, 5], [7.348, 4], [7.802, 3],
    [7.88, 2], [8.002, 1], [8.08, 2], [8.509, 3], [8.743, 2], [8.774, 3], [9.02, 4],
    [9.032, 5], [9.259, 6], [9.731, 5], [9.868, 6], [10.1, 5], [10.689, 4], [11.633, 5],
    [11.663, 4], [12.112, 3], [12.27, 2], [12.316, 3], [12.827, 4], [13.043, 3],
    [13.658, 2], [14.215, 1], [14.53, 0],
]
CUBIC_FLUX = {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}}
CUBIC_W0_JUMPS = [[2.208, -2], [4.559, 4], [5.939, 3], [6.232, 0], [6.283, -5], [6.513, -1],
                  [9.259, 0]]
CUBIC_V0_JUMPS = [[0.402, 5], [0.465, -2], [2.814, -5], [5.113, -1], [5.592, -5], [7.379, 0]]
SMALL_N_CUBIC_W0_JUMPS = [[1.0, -1], [3.0, 3], [6.0, 0]]
SMALL_N_CUBIC_V0_JUMPS = [[4.0, 2], [8.0, 0]]


def golden_cases() -> dict[Path, ScenarioConfig]:
    """The directory of each golden case and the config that produces it."""
    return {
        GOLDEN: ScenarioConfig.from_json(DEMO),
        GOLDEN / "scalar_fast": ScenarioConfig(
            flux={"name": "quadratic_coupled", "params": {"c": 0.1}}, eps=0.05,
            w0={"jumps": SCALAR_FAST_JUMPS}, v0={"jumps": []}, check_level="fast",
        ),
        GOLDEN / "cubic_split": ScenarioConfig(
            flux=CUBIC_FLUX, eps=0.05, w0={"jumps": CUBIC_W0_JUMPS},
            v0={"jumps": CUBIC_V0_JUMPS}, check_level="full",
        ),
        GOLDEN / "small_n_cubic": ScenarioConfig(
            flux=CUBIC_FLUX, eps=0.05, w0={"jumps": SMALL_N_CUBIC_W0_JUMPS},
            v0={"jumps": SMALL_N_CUBIC_V0_JUMPS}, check_level="small_n",
        ),
    }


def same(name: str, old: bytes, new: bytes) -> bool:
    """Whether the golden file ``name`` is unchanged: a JSON file compares
    as parsed values, any other as bytes."""
    if name.endswith(".json"):
        return bool(old) and json.loads(old) == json.loads(new)
    return old == new


def relative(x: float, y: float) -> float:
    """The relative change from ``x`` to ``y``; 0 when they are equal."""
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def column_changes(old: bytes, new: bytes) -> dict[str, float | str]:
    """Per column that differs: the worst relative change of its values, or a
    note when the two files do not line up row for row."""
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    if len(rows_old) != len(rows_new) or rows_old[:1] != rows_new[:1]:
        return {"*": f"{len(rows_old)} rows -> {len(rows_new)} rows or a new header"}
    out: dict[str, float | str] = {}
    for a_row, b_row in zip(rows_old[1:], rows_new[1:]):
        for name, a, b in zip(rows_old[0], a_row, b_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                out[name] = "non-numeric change"
                continue
            if not isinstance(out.get(name), str):
                out[name] = max(out.get(name, 0.0), relative(x, y))
    return out


def values_of(check: dict) -> dict[str, object]:
    """The fields of a report entry that hold its values: ``passed``,
    ``lhs``, ``rhs``, ``slack`` and each ``context`` entry."""
    return {key: check[key] for key in ("passed", "lhs", "rhs", "slack")} | check["context"]


def check_changes(old: bytes, new: bytes) -> dict[str, str]:
    """Per check name whose entries differ: how many of them changed and,
    per changed field, the worst relative change of its numbers, or a note
    when the two reports do not line up entry for entry."""
    checks_old, checks_new = json.loads(old)["checks"], json.loads(new)["checks"]
    if [(c["name"], c["scope"]) for c in checks_old] != \
            [(c["name"], c["scope"]) for c in checks_new]:
        return {"*": f"{len(checks_old)} checks -> {len(checks_new)} checks, "
                     f"or another name or scope"}
    totals: dict[str, int] = {}
    changed: dict[str, int] = {}
    worst: dict[str, dict[str, float | str]] = {}
    for a, b in zip(checks_old, checks_new):
        name = a["name"]
        totals[name] = totals.get(name, 0) + 1
        if a == b:
            continue
        changed[name] = changed.get(name, 0) + 1
        fields = worst.setdefault(name, {})
        values_a, values_b = values_of(a), values_of(b)
        for key in values_a.keys() | values_b.keys():
            x, y = values_a.get(key), values_b.get(key)
            if x == y or isinstance(fields.get(key), str):
                continue
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                fields[key] = max(fields.get(key, 0.0), relative(x, y))
            else:
                fields[key] = "non-numeric change"
    if not changed:
        return {"*": "parsed values differ outside the checks"}
    return {name: f"{count} of {totals[name]} entries; " + ", ".join(
                f"{key} {val:.3g} relative" if isinstance(val, float) else f"{key}: {val}"
                for key, val in sorted(worst[name].items()))
            for name, count in changed.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden artifacts.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any golden file would change")
    check = parser.parse_args(argv).check
    changed = False
    for target, config in golden_cases().items():
        with tempfile.TemporaryDirectory() as tmp:
            result = run_scenario(config, out_dir=tmp)
            if not result.passed:
                print(f"error: {label_of(target)} fails its checks; nothing written",
                      file=sys.stderr)
                return 1
            if not check:
                target.mkdir(exist_ok=True)
            for name in NAMES:
                path = target / name
                old = path.read_bytes() if path.exists() else b""
                new = (Path(tmp) / name).read_bytes()
                if same(name, old, new):
                    print(f"{label_of(path)}: unchanged")
                    continue
                changed = True
                if not check:
                    path.write_bytes(new)
                if not old:
                    changes = {"*": "new file"}
                elif name.endswith(".json"):
                    changes = check_changes(old, new)
                else:
                    changes = column_changes(old, new)
                print(f"{label_of(path)}: {'would change' if check else 'rewritten'}; "
                      + ", ".join(
                          f"{col} {val:.3g} relative" if isinstance(val, float)
                          else f"{col}: {val}"
                          for col, val in changes.items()))
    return 1 if check and changed else 0


def label_of(path: Path) -> Path:
    return path.relative_to(ROOT) if path.is_relative_to(ROOT) else path


if __name__ == "__main__":
    sys.exit(main())
