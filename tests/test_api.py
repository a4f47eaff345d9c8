"""The module surfaces: every exported name exists, and every function the
benchmark's tracer (``bench/tracer.py``) wraps still resolves, so deleting
a name cannot leave a stale export or break a traced benchmark run.  The
exported types that hold arrays compare and hash by identity."""

import copy
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import powertrack
from powertrack import (
    Cm2Policy,
    ControlSignal,
    CostReport,
    Grid,
    UpdateSchedule,
    sample_path,
    substream,
    upwind_solve,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_exports_and_traced_names_resolve(monkeypatch):
    missing = []
    for info in pkgutil.iter_modules(powertrack.__path__):
        module = importlib.import_module(f"powertrack.{info.name}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]

    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{target.module}.{target.name}")
    assert not missing


_SCHEDULE = UpdateSchedule.regular(0.25, 0.75)
_CONTROL = ControlSignal([0.0, 0.5], [1.0, 2.0])


@pytest.mark.parametrize("make", [
    lambda ps1: sample_path(ps1, [0.0, 0.5, 1.0], substream(0, 0)),
    lambda ps1: _CONTROL,
    lambda ps1: _SCHEDULE,
    lambda ps1: upwind_solve(Grid(4.0, 0.25, 1.0), np.zeros(5), _CONTROL),
    lambda ps1: CostReport(1.0, 1.0, np.array([0.25, 1.0]), np.array([1.0, 1.0])),
    lambda ps1: Cm2Policy(ps1, _SCHEDULE),
], ids=["DemandPath", "ControlSignal", "UpdateSchedule", "FieldState",
        "CostReport", "Cm2Policy"])
def test_array_holders_compare_and_hash_by_identity(ps1, make):
    x = make(ps1)
    assert x == x
    assert (x == copy.deepcopy(x)) is False
    assert hash(x) == hash(x)
