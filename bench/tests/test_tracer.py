"""Tests of the benchmark's tracer.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import sys
import types

import pytest

import tracer as tr
from tracer import Target, Tracer, layer_metrics, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner.work, also bound as fakepkg.outer.work, called twice by
    fakepkg.outer.run; time advances only when the functions say so."""
    clock = FakeClock()
    monkeypatch.setattr(tr.time, "perf_counter", clock)
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def work(dt, fail=False):
        clock.advance(dt)
        if fail:
            raise RuntimeError("boom")
        return dt

    def run(fail=False):
        clock.advance(0.02)
        outer.work(0.03)
        outer.work(0.01, fail=fail)
        clock.advance(0.01)

    inner.work = work
    outer.work = work
    outer.run = run
    for mod in (inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    targets = (Target("fakepkg.inner", "work", "inner"),
               Target("fakepkg.outer", "run", "outer"))
    return inner, outer, targets


def test_self_time_of_nested_calls(fake_package):
    inner, outer, targets = fake_package
    with Tracer(targets, package="fakepkg") as tracer:
        outer.run()
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer.run", "inner.work", "inner.work"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    selfs = self_times(spans)
    assert selfs == pytest.approx([0.03, 0.03, 0.01], abs=1e-12)
    assert sum(selfs) == pytest.approx(spans[0].end - spans[0].start, abs=1e-12)
    for child in spans[1:]:
        parent = spans[child.parent]
        assert parent.start <= child.start <= child.end <= child.cover_end <= parent.end


def test_originals_restored_after_an_error(fake_package):
    inner, outer, targets = fake_package
    work, run = inner.work, outer.run
    with pytest.raises(RuntimeError):
        with Tracer(targets, package="fakepkg") as tracer:
            assert outer.work is not work and outer.work is inner.work
            outer.run(fail=True)
    assert inner.work is work and outer.work is work and outer.run is run
    assert [s.error for s in tracer.spans] == [True, False, True]


def _package_bindings():
    import powertrack.cli  # noqa: F401

    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "powertrack" or name.startswith("powertrack.")
            for attr, value in vars(mod).items() if callable(value)}


def _policy_methods():
    from powertrack import costopt

    return {cls: vars(getattr(costopt, cls))["control_for"]
            for cls in ("Cm1Policy", "Cm2Policy", "Cm3Policy")}


def _traced_run(argv, out_dir):
    import powertrack.cli

    with contextlib.redirect_stdout(io.StringIO()), Tracer() as tracer:
        assert powertrack.cli.main(argv + ["--out-dir", str(out_dir)]) == 0
    return layer_metrics(tracer.spans)


SMALL_RUNS = {
    "run": ["run", "unused", "--preset", "PS3", "--paths", "40", "--seed", "11"],
    "converge": ["converge", "unused", "--preset", "PS1", "--seed", "11",
                 "--dtup", "0.125,0.025"],
}
REPEATED = ("demand.paths", "demand.steps", "demand.jump_events",
            "costopt.policy_calls", "transport.cells")


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_counts_repeat_and_originals_return(command, tmp_path):
    config = tmp_path / "empty.yaml"
    config.write_text("")
    argv = [str(config) if a == "unused" else a for a in SMALL_RUNS[command]]
    before, methods = _package_bindings(), _policy_methods()

    first = _traced_run(argv, tmp_path / "a")
    second = _traced_run(argv, tmp_path / "b")

    assert {k: first[k] for k in REPEATED} == {k: second[k] for k in REPEATED}
    assert first["demand.paths"] > 0 and first["transport.cells"] > 0
    if command == "run":
        # paths.csv draws 5 paths, control.csv 1, bands and cost the same 40 each
        assert first["demand.paths"] == 5 + 1 + 40 + 40
        assert first["demand.distinct_path_ratio"] == 40 / 86
        assert first["costopt.policy_calls"] > 0
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _policy_methods() == methods


def test_every_binding_site_is_wrapped():
    import powertrack.cli  # noqa: F401

    originals = {t: getattr(sys.modules[t.module], t.name)
                 for t in tr.TARGETS if "." not in t.name}
    sites = [(key, value) for key, value in _package_bindings().items()
             if any(value is o for o in originals.values())]
    assert ("powertrack.experiments", "sample_paths") in dict(sites)
    assert ("powertrack.costopt", "cm3_control") in dict(sites)
    with Tracer():
        for (name, attr), value in sites:
            assert getattr(sys.modules[name], attr) is not value
