"""Compare the CSVs that another revision and this working tree write.

    python3 diff_outputs.py REV [--expect-none]

Run from the root of a source checkout.  It extracts ``REV`` (any git
revision) with ``git archive`` into a temporary directory, and on that tree
and on this one runs the CLI on the four presets at seeds 1, 7 and 11, and
on every workload of ``bench/run.py`` at seed 7, with the argument lists of
that tree's ``workload_argv``.  Each tree runs from its own ``src/``.

It prints one row per CSV column whose cells moved: the file, the column,
the number of cells that moved, and the largest absolute and relative
change (relative to the larger magnitude of the two cells).  A file that
one tree writes and the other does not, a changed header and a changed row
count are reported above the table.  With ``--expect-none`` it exits 1 if
anything moved.  A run that fails in either tree stops it with exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent
PRESETS = ("PS1", "PS2", "PS3", "deterministic-fig5")
PRESET_SEEDS = (1, 7, 11)
WORKLOAD_SEED = 7

# Prints each workload's argument list, run inside a tree with its bench/ on
# the path, so that every tree runs the workloads it defines.
_WORKLOAD_ARGV = (
    "import json, sys; sys.path.insert(0, 'bench'); import run; "
    f"print(json.dumps({{w: run.workload_argv(w, {WORKLOAD_SEED}) "
    "for w in run.WORKLOADS}))")


class Moved(NamedTuple):
    """The cells of one CSV column that differ between the two trees."""

    file: str
    column: str
    cells: int
    max_abs: float
    max_rel: float


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    return header, rows


def _change(old: str, new: str) -> tuple[float, float]:
    """Absolute and relative change of a numeric cell; nan for text."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan, math.nan
    diff = abs(b - a)
    return diff, (diff / max(abs(a), abs(b)) if diff else 0.0)


def _nanmax(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return max(values) if values else math.nan


def compare_dirs(old: Path, new: Path) -> tuple[list[str], list[Moved]]:
    """The structural differences (missing files, headers, row counts) and
    the moved columns of every CSV under the directories ``old`` and
    ``new``, matched by their paths relative to each."""
    files = {side: {p.relative_to(root).as_posix() for p in root.rglob("*.csv")}
             for side, root in (("old", old), ("new", new))}
    notes = [f"{name}: missing in {side}"
             for side, other in (("old", "new"), ("new", "old"))
             for name in sorted(files[other] - files[side])]
    moved = []
    for name in sorted(files["old"] & files["new"]):
        (head_a, rows_a), (head_b, rows_b) = _read(old / name), _read(new / name)
        if head_a != head_b:
            notes.append(f"{name}: header {head_a} -> {head_b}")
            continue
        if len(rows_a) != len(rows_b):
            notes.append(f"{name}: {len(rows_a)} -> {len(rows_b)} rows")
        for j, column in enumerate(head_a):
            changes = [_change(a[j], b[j]) for a, b in zip(rows_a, rows_b) if a[j] != b[j]]
            if changes:
                moved.append(Moved(name, column, len(changes),
                                   _nanmax(c[0] for c in changes),
                                   _nanmax(c[1] for c in changes)))
    return notes, moved


def _runs(tree: Path, empty_config: Path) -> dict[str, list[str]]:
    """Output label -> CLI argument list, for the presets and workloads."""
    runs = {f"{name}-seed{seed}": ["run", str(empty_config), "--preset", name,
                                   "--seed", str(seed)]
            for name in PRESETS for seed in PRESET_SEEDS}
    proc = subprocess.run([sys.executable, "-c", _WORKLOAD_ARGV], cwd=tree,
                          env=_env(tree), capture_output=True, text=True, check=True)
    for workload, argv in json.loads(proc.stdout).items():
        runs[f"{workload}-seed{WORKLOAD_SEED}"] = argv
    return runs


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def write_outputs(tree: Path, out: Path, empty_config: Path) -> None:
    """Run every preset and workload in ``tree``, each into ``out/<label>``."""
    for label, argv in _runs(tree, empty_config).items():
        proc = subprocess.run(
            [sys.executable, "-m", "powertrack.cli", *argv, "--out-dir", str(out / label)],
            cwd=tree, env=_env(tree), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: {label} failed in {tree} with exit "
                             f"{proc.returncode}: {proc.stderr.strip()[-300:]}")


def _fmt(x: float) -> str:
    return "-" if math.isnan(x) else f"{x:.3g}"


def report(notes: list[str], moved: list[Moved]) -> str:
    lines = [f"- {note}" for note in notes]
    if moved:
        lines += ["| file | column | cells moved | max abs change | max rel change |",
                  "|---|---|---|---|---|"]
        lines += [f"| {m.file} | {m.column} | {m.cells} | {_fmt(m.max_abs)} | "
                  f"{_fmt(m.max_rel)} |" for m in moved]
    return "\n".join(lines or ["no cell moved"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this working tree with")
    parser.add_argument("--expect-none", action="store_true",
                        help="exit 1 if any file, header, row or cell moved")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "tree"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        empty_config = tmp / "empty.yaml"
        empty_config.write_text("{}\n")
        for tree, out in ((base, tmp / "old"), (ROOT, tmp / "new")):
            write_outputs(tree, out, empty_config)
        notes, moved = compare_dirs(tmp / "old", tmp / "new")
        files = len(list((tmp / "new").rglob("*.csv")))
    print(f"{args.rev} -> working tree, {files} CSVs:")
    print(report(notes, moved))
    return int(args.expect_none and bool(notes or moved))


if __name__ == "__main__":
    sys.exit(main())
