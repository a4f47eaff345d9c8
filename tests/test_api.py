"""The module surfaces: every exported name exists, and every function the
benchmark's tracer (``bench/tracer.py``) wraps still resolves, so deleting
a name cannot leave a stale export or break a traced benchmark run."""

import importlib
import pkgutil
from pathlib import Path

import powertrack

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
