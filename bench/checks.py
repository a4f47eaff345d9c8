"""Output checks for the powertrack benchmark workloads.

Every check returns a list of failure messages; each message names the
workload, the file and, where one applies, the column.  An invocation whose
list is not empty counts as failed.

* ``finite``: every numeric cell of every CSV parses to a finite float.  Only
  the ``u_*`` columns of ``control.csv`` may be empty (past the control
  horizon).
* ``reference`` (default seed only): ``mc-ps3`` and ``converge-fine`` must
  reproduce the sha256 of every CSV recorded at the seed commit, byte for
  byte; on a mismatch the stored CSV names the column that moved.
  ``tabulated-forecast`` is compared value by value against its stored CSVs
  within ``TAB_RTOL`` relative (plus ``TAB_ATOL`` absolute, for cells near
  zero): an exact closed form may replace the quadrature and move the last
  bits.
* ``z``: for each method in ``cost.csv``,
  ``z = (cumrmse_mc - lattice_cumrmse) / cumrmse_mc_se`` must satisfy
  ``|z| <= Z_BOUND``.  ``lattice_cumrmse`` is the trapezoid rule of the
  closed-form root conditional variance on the output lattice that the
  Monte-Carlo estimate is taken on.  The continuous-time ``cumrmse_analytic``
  column differs from it by a discretisation bias: for PS3 CM2 it is
  -0.0061, about -1.5 standard errors at 5000 paths (CM1 -5e-5, CM3 0), and
  it grows with the square root of the path count, so comparing against the
  continuous value would fail on correct code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7

# Delta-method z-scores are asymptotically N(0, 1).  With three methods per
# invocation the union bound gives a false-failure rate of at most
# 3 * P(|N(0,1)| > 5) = 1.7e-6 per seed.  Over 300 seeds at 200 paths the
# lattice-corrected z had sd 1.08-1.15 (heavier tails from the jumps); at
# sd 1.15 the rate is at most 3 * P(|N(0,1)| > 4.35) = 4e-5 per seed.
Z_BOUND = 5.0

TAB_RTOL = 1e-9
TAB_ATOL = 1e-12

ARTIFACTS = {
    "run": ("paths.csv", "control.csv", "bands.csv", "cost.csv"),
    "converge": ("convergence.csv",),
}


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_finite(workload: str, out_dir: Path, files) -> list[str]:
    failures = []
    for name in files:
        path = out_dir / name
        if not path.is_file():
            failures.append(f"{workload}: {name}: missing")
            continue
        header, rows = _read(path)
        if not rows:
            failures.append(f"{workload}: {name}: no data rows")
        for col, column in enumerate(header):
            if name == "cost.csv" and column == "method":
                continue
            may_be_empty = name == "control.csv" and column.startswith("u_")
            for row in rows:
                cell = row[col] if col < len(row) else ""
                if cell == "" and may_be_empty:
                    continue
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    failures.append(f"{workload}: {name}: column {column}: "
                                    f"non-finite or missing value {cell!r}")
                    break
    return failures


def _compare(workload: str, name: str, path: Path, ref_path: Path,
             rtol: float, atol: float) -> list[str]:
    """Name the first differing cell of each column, beyond the tolerance."""
    header, rows = _read(path)
    ref_header, ref_rows = _read(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{workload}: {name}: header or row count differs from the reference"]
    failures = []
    for col, column in enumerate(header):
        for row, ref in zip(rows, ref_rows):
            a, b = row[col], ref[col]
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
                ok = abs(x - y) <= rtol * max(abs(x), abs(y)) + atol
            except ValueError:
                ok = False
            if not ok:
                failures.append(f"{workload}: {name}: column {column}: {a!r} "
                                f"differs from reference {b!r} (rtol {rtol})")
                break
    return failures


def check_hashes(workload: str, out_dir: Path, expected: dict,
                 ref_dir: Path) -> list[str]:
    failures = []
    for name, digest in expected.items():
        path = out_dir / name
        if path.is_file() and sha256(path) != digest:
            failures += (_compare(workload, name, path, ref_dir / name, 0.0, 0.0)
                         or [f"{workload}: {name}: sha256 differs from the "
                             f"reference, though every cell parses equal"])
    return failures


def check_values(workload: str, out_dir: Path, ref_dir: Path, files) -> list[str]:
    return [msg for name in files if (out_dir / name).is_file()
            for msg in _compare(workload, name, out_dir / name, ref_dir / name,
                                TAB_RTOL, TAB_ATOL)]


def lattice_cumrmse(scenario) -> dict[str, float]:
    """Expected Monte-Carlo cumrmse of each method on the scenario's lattice."""
    from powertrack import conditional_variance
    from powertrack.experiments import scenario_grid, scenario_schedule

    grid = scenario_grid(scenario)
    out_t = grid.output_times()
    spans = {"CM1": out_t, "CM3": np.full_like(out_t, grid.delay)}
    schedule = scenario_schedule(scenario, grid)
    if schedule is not None:
        t_hat = np.array([schedule.last_update(t - grid.delay) for t in out_t])
        spans["CM2"] = out_t - t_hat
    return {m: float(np.trapezoid(np.sqrt(conditional_variance(scenario.params, s)),
                                  out_t))
            for m, s in spans.items()}


def check_z(workload: str, out_dir: Path, expected: dict[str, float]) -> list[str]:
    path = out_dir / "cost.csv"
    if not path.is_file():
        return []
    header, rows = _read(path)
    col = {c: i for i, c in enumerate(header)}
    failures = []
    methods = set()
    for row in rows:
        method = row[col["method"]]
        methods.add(method)
        if method not in expected:
            failures.append(f"{workload}: cost.csv: method: unexpected {method!r}")
            continue
        mc, se = float(row[col["cumrmse_mc"]]), float(row[col["cumrmse_mc_se"]])
        z = (mc - expected[method]) / se if se > 0 else math.inf
        if not abs(z) <= Z_BOUND:
            failures.append(f"{workload}: cost.csv: column cumrmse_mc: {method} "
                            f"z = {z:.2f} against the lattice closed form, "
                            f"outside +-{Z_BOUND}")
    for method in sorted(set(expected) - methods):
        failures.append(f"{workload}: cost.csv: method: missing {method}")
    return failures


class OutputChecker:
    """All checks of one workload at one seed."""

    def __init__(self, workload: str, command: str, seed: int, scenario,
                 reference_dir: Path):
        self.workload = workload
        self.files = ARTIFACTS[command]
        self.seed = seed
        hashes = json.loads((reference_dir / "sha256.json").read_text())
        self.hashes = hashes.get(workload)
        self.value_dir = reference_dir / workload
        self.expected_z = lattice_cumrmse(scenario) if command == "run" else None

    def __call__(self, out_dir: Path) -> list[str]:
        out_dir = Path(out_dir)
        failures = check_finite(self.workload, out_dir, self.files)
        if self.seed == DEFAULT_SEED:
            if self.hashes is not None:
                failures += check_hashes(self.workload, out_dir, self.hashes,
                                         self.value_dir)
            elif self.value_dir.is_dir():
                failures += check_values(self.workload, out_dir, self.value_dir,
                                         self.files)
            else:
                failures.append(f"{self.workload}: no reference outputs stored")
        if self.expected_z is not None:
            failures += check_z(self.workload, out_dir, self.expected_z)
        return failures
