"""The comparison of ``diff_outputs.py`` at the repository root, on two
directories of CSVs; its git and CLI runs are not exercised here."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "diff_outputs", Path(__file__).resolve().parent.parent / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)

_COST = "method,cumrmse_mc\nCM1,0.5\nCM2,0.25\n"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_identical_directories_give_no_rows(tmp_path):
    files = {"PS1-seed1/cost.csv": _COST, "PS1-seed1/control.csv": "time,u\n0.0,1\n"}
    old, new = _tree(tmp_path / "old", files), _tree(tmp_path / "new", files)
    assert diff_outputs.compare_dirs(old, new) == ([], [])
    assert diff_outputs.report([], []) == "no cell moved"


def test_one_moved_cell_gives_one_row(tmp_path):
    old = _tree(tmp_path / "old", {"PS1-seed1/cost.csv": _COST})
    new = _tree(tmp_path / "new", {"PS1-seed1/cost.csv": _COST.replace("0.25", "0.2")})
    notes, moved = diff_outputs.compare_dirs(old, new)
    assert notes == []
    assert len(moved) == 1
    row = moved[0]
    assert (row.file, row.column, row.cells) == ("PS1-seed1/cost.csv", "cumrmse_mc", 1)
    assert row.max_abs == pytest.approx(0.05)
    assert row.max_rel == pytest.approx(0.05 / 0.25)


def test_missing_files_and_changed_headers_are_noted(tmp_path):
    old = _tree(tmp_path / "old", {"a/cost.csv": _COST, "a/paths.csv": "t\n0\n"})
    new = _tree(tmp_path / "new", {"a/cost.csv": _COST.replace("method", "level"),
                                   "b/bands.csv": "t\n0\n"})
    notes, moved = diff_outputs.compare_dirs(old, new)
    assert moved == []
    assert notes == ["b/bands.csv: missing in old", "a/paths.csv: missing in new",
                     "a/cost.csv: header ['method', 'cumrmse_mc'] -> "
                     "['level', 'cumrmse_mc']"]
