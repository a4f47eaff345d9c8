import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import strategies
from powertrack import (
    ConfigError,
    ConstantHeight,
    ConstantMean,
    JumpSpec,
    LognormalHeight,
    NormalHeight,
    Scenario,
    SinusoidMean,
    TabulatedMean,
    cm1_control,
    confidence_bands,
    conditional_variance,
    convergence_study,
    first_moment,
    preset,
    run_scenario,
    scenario_grid,
    sample_paths,
    upwind_solve,
)
import powertrack
from powertrack import cli, costopt, experiments
from powertrack.cli import main
from powertrack.experiments import (
    _KNOWN_KEYS,
    PRESET_NAMES,
    load_config,
    scenario_from_config,
    write_bands,
)

TWO_PI = 2.0 * np.pi
_PS1 = preset("PS1")


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _exits_2_naming(tmp_path, capsys, config, field, command=("run",)):
    """``command`` on ``config`` exits 2 with one JSON line on stderr naming
    ``field``, and creates no output directory."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    out = tmp_path / "x"
    assert main([command[0], str(cfg), *command[1:], "--paths", "20",
                 "--out-dir", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["field"] == field, lines
    assert not out.exists()


def _assert_runs_to_finite_csvs(tmp_path, config):
    """``run`` on ``config`` exits 0 and writes every artefact, all finite."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    out = tmp_path / "x"
    assert main(["run", str(cfg), "--paths", "20", "--out-dir", str(out)]) == 0
    for name in ("paths", "control", "bands", "cost"):
        _, rows = _read_csv(out / f"{name}.csv")
        cells = [float(c) for row in rows for c in row[1:] if c]
        assert cells and np.all(np.isfinite(cells))


class TestPresets:
    def test_ps1_parameter_table(self):
        sc = preset("PS1")
        p = sc.params
        assert (sc.speed, sc.horizon) == (4.0, 1.0)
        assert (p.kappa, p.sigma, p.y0) == (1.0, 2.0, 1.0)
        assert p.mean == SinusoidMean(2.0, 3.0, TWO_PI)
        assert p.jump == JumpSpec(5.0, ConstantHeight(0.0))
        assert sc.dx == 0.1

    def test_ps2_only_changes_mean_reversion(self):
        p1, p2 = preset("PS1").params, preset("PS2").params
        assert p2.kappa == 3.0
        assert (p2.sigma, p2.y0, p2.mean, p2.jump) == (p1.sigma, p1.y0, p1.mean, p1.jump)

    def test_ps3_is_ps2_with_unit_jumps(self):
        p2, p3 = preset("PS2").params, preset("PS3").params
        assert p3.jump == JumpSpec(5.0, ConstantHeight(1.0))
        assert (p3.kappa, p3.sigma, p3.y0, p3.mean) == (p2.kappa, p2.sigma, p2.y0, p2.mean)

    def test_deterministic_validation_preset(self):
        sc = preset("deterministic-fig5")
        assert sc.params is None
        assert sc.profile == SinusoidMean(2.0, 1.0, 0.5 * np.pi)
        assert (sc.speed, sc.horizon, sc.dx) == (2.0, 5.0, 0.5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError) as err:
            preset("PS9")
        assert err.value.field == "preset"


class TestRunScenario:
    def test_writes_requested_artifacts(self, tmp_path):
        sc = preset("PS1")
        sc = Scenario(**{**sc.__dict__, "mc_paths": 300})
        written = run_scenario(sc, tmp_path)
        assert set(written) == {"paths", "control", "bands", "cost"}
        header, rows = _read_csv(written["control"])
        grid = scenario_grid(sc)
        assert len(rows) == grid.nt + 1
        assert header[:4] == ["time", "demand_mean", "u_cm1", "y_cm1"]
        assert "u_cm2" in header and "u_cm3" in header

    def test_identical_runs_are_byte_identical(self, tmp_path):
        sc = preset("PS3")
        sc = Scenario(**{**sc.__dict__, "mc_paths": 200})
        a = run_scenario(sc, tmp_path / "a")
        b = run_scenario(sc, tmp_path / "b")
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes()

    def test_control_rows_reproducible_from_the_api(self, tmp_path):
        sc = preset("PS2")
        written = run_scenario(
            Scenario(**{**sc.__dict__, "mc_paths": 100, "outputs": ("control",)}),
            tmp_path)
        header, rows = _read_csv(written["control"])
        grid = scenario_grid(sc)
        u_col = header.index("u_cm1")
        logged = [float(r[u_col]) for r in rows if r[u_col] != ""]
        ct = grid.control_times()
        assert np.allclose(logged, cm1_control(sc.params, sc.speed, ct), atol=0)

    def test_deterministic_preset_tracks_exactly(self, tmp_path):
        written = run_scenario(preset("deterministic-fig5"), tmp_path)
        assert set(written) == {"control", "cost"}
        header, rows = _read_csv(written["cost"])
        assert header[0] == "sup_tracking_error"
        assert float(rows[0][0]) <= 1e-8


class TestWholeArtefactSet:
    """A run writes its whole artefact set or none of it: every CSV is
    written under a temporary name, and all are renamed once all are written."""

    _ARTEFACTS = ["bands.csv", "control.csv", "cost.csv", "paths.csv"]

    def test_a_failed_run_leaves_the_last_runs_files(self, tmp_path, capsys):
        # cost.csv, the last artefact, of the second run is not finite
        out = tmp_path / "x"
        good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
        good.write_text("preset: PS1\n")
        bad.write_text("preset: PS1\ny0: 1.0e+308\n")
        assert main(["run", str(good), "--paths", "50", "--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == self._ARTEFACTS
        assert main(["run", str(bad), "--paths", "50", "--out-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["artifact"] \
            == "cost.csv"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_target_that_is_a_directory_renames_nothing(self, tmp_path, capsys):
        # the first run is at another seed, so a rename over its files shows
        out, cfg = tmp_path / "x", tmp_path / "ps1.yaml"
        cfg.write_text("preset: PS1\n")
        assert main(["run", str(cfg), "--paths", "50", "--seed", "3",
                     "--out-dir", str(out)]) == 0
        (out / "cost.csv").unlink()
        (out / "cost.csv").mkdir()
        (out / "cost.csv" / "kept").write_text("a file inside the directory")

        def contents():
            return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                    for p in out.rglob("*")}

        before = contents()
        assert main(["run", str(cfg), "--paths", "50", "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["field"] is None and "cost.csv is a directory" in err["error"]
        # every file byte for byte, and no temporary file
        assert contents() == before

    @pytest.mark.parametrize("stage, out", [
        ("format", "."), ("write", "."), ("format", "a/b")],
        ids=["format", "write", "format-new-directory"])
    def test_a_failure_in_the_last_artefact_leaves_an_empty_directory_empty(
            self, tmp_path, monkeypatch, stage, out):
        sc = replace(_PS1, mc_paths=20)
        if stage == "format":
            sc = replace(sc, params=replace(sc.params, y0=1.0e308))
            expected = experiments.ArtifactError
        else:
            def failing_open(file, *args, **kwargs):
                if Path(file).name.startswith(".cost."):
                    raise OSError("no space left on device")
                return open(file, *args, **kwargs)

            monkeypatch.setattr(experiments, "open", failing_open, raising=False)
            expected = OSError
        with np.errstate(all="ignore"), pytest.raises(expected):
            run_scenario(sc, tmp_path / out)
        # nor does it leave a directory it created
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_not_left_empty_does_not_hide_the_failure(self, tmp_path):
        # something else writes into a directory the call creates: that
        # directory stays, and the failure is the one raised
        def tables():
            (tmp_path / "a" / "b" / "stray").write_text("")
            raise ConfigError("paths", "over the budget")
            yield

        with pytest.raises(ConfigError):
            experiments._write_artifacts(tmp_path / "a" / "b" / "c", tables())
        assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["stray"]

    def test_a_success_leaves_no_temporary_file(self, tmp_path):
        run_scenario(replace(_PS1, mc_paths=20), tmp_path)
        experiments.write_convergence(_PS1, [0.125], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            self._ARTEFACTS + ["convergence.csv"])


class TestScenario:
    # PS1 has speed 4, horizon 1, dx 0.1 (dt 0.025), jump intensity 5
    @pytest.mark.parametrize("base, changes, field", [
        ("PS1", {"speed": 0.0}, "speed"),
        ("PS1", {"speed": None}, "speed"),
        ("PS1", {"horizon": math.inf}, "horizon"),
        ("PS1", {"dx": -0.1}, "dx"),
        ("PS1", {"params": None}, "params"),
        ("PS1", {"params": replace(_PS1.params, mean=TabulatedMean(
            [0.0, 0.5], [1.0, 2.0]))}, "mean"),
        ("deterministic-fig5", {"profile": TabulatedMean([0.0, 1.0], [1.0, 2.0])},
         "profile"),
        # both demands: a run would read one and ignore the other
        ("PS1", {"profile": ConstantMean(1.0)}, "profile"),
        ("PS1", {"mc_paths": 0}, "paths"),
        # 2 paths x (2**23 + 1) x horizon 1 expected events, over the 2**24
        # budget: not even the smallest ensemble fits
        ("PS1", {"params": replace(_PS1.params, jump=JumpSpec(
            2.0 ** 23 + 1, ConstantHeight(0.0)))}, "jump.intensity"),
        ("PS1", {"n_display_paths": -1}, "n_display_paths"),
        ("PS1", {"seed": -1}, "seed"),
        ("PS1", {"levels": ()}, "levels"),
        ("PS1", {"levels": (1.5,)}, "levels"),
        ("PS1", {"outputs": ("plots",)}, "outputs"),
        ("PS1", {"outputs": ()}, "outputs"),
        # a repeated artefact would be written twice, a level give two columns
        ("PS1", {"outputs": ("cost", "cost")}, "outputs"),
        ("PS1", {"levels": (0.5, 0.5)}, "levels"),
        # a known demand writes only control and cost
        ("deterministic-fig5", {"outputs": ("paths", "bands")}, "outputs"),
        ("PS1", {"horizon": 0.2}, "horizon"),  # under the delay 1/speed
        ("PS1", {"dx": 0.3}, "dx"),  # does not divide the unit line
    ], ids=["speed", "speed-null", "horizon", "dx", "params", "mean", "profile",
            "both-demands", "paths", "jump-budget", "display", "seed", "levels-empty",
            "levels-range", "outputs", "outputs-empty", "outputs-repeated",
            "levels-repeated", "outputs-unwritten", "horizon-delay", "dx-lattice"])
    def test_invalid_field_rejected_on_construction(self, base, changes, field):
        with pytest.raises(ConfigError) as err:
            replace(preset(base), **changes)
        assert err.value.field == field

    def test_tabulated_forecasts_compare_by_their_knots(self):
        def ps1(times, values):
            mean = TabulatedMean(np.array(times), np.array(values))
            return replace(_PS1, params=replace(_PS1.params, mean=mean))

        a = ps1([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        b = ps1([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert a.params.mean.values is not b.params.mean.values
        assert a.params == b.params and a == b
        for other in (ps1([0.0, 0.5, 1.0], [1.0, 2.0, 3.5]),
                      ps1([0.0, 0.25, 1.0], [1.0, 2.0, 3.0])):
            assert a.params != other.params and a != other


class TestMemoryBudget:
    """A lattice or an ensemble over the memory budget is refused before
    anything of its size is allocated, naming dx or paths; so is an
    ensemble whose expected jump events are over theirs, naming
    jump.intensity."""

    _CELLS, _STEP = experiments.MAX_CELLS, experiments.STEP_CELLS
    # PS1 and PS3 have nt + 1 = 4 / dx + 1 lattice times; the smallest
    # whole nx = 1 / dx whose lattice cannot hold two paths beside its
    # per-time cost
    _NX_OVER = (_CELLS // (_STEP + 2) - 1) // 4 + 1
    # PS3 at dx 0.1 has 41 lattice times; the fewest paths whose run is
    # over the budget
    _PATHS_OVER = _CELLS // 41 - _STEP + 1

    @staticmethod
    def _peak_of(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _refused(self, tmp_path, capsys, config, argv, key):
        """``argv`` on ``config`` exits 2 naming ``key``, creates no output
        directory and traces a peak under 1 MiB: one lattice of a refused
        size would be 10 MiB, one ensemble 340."""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        code, peak = self._peak_of(lambda: main(
            [argv[0], str(cfg), *argv[1:], "--out-dir", str(tmp_path / "x")]))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["field"] == key
        assert peak < 2 ** 20
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, command", [
        ("dx", ["run"]), ("dx", ["converge", "--dtup", "0.125"]), ("dx", ["bands"]),
        ("paths", ["run"]), ("paths", ["bands"]), ("jump.intensity", ["run"]),
        ("jump.intensity", ["converge", "--dtup", "0.125"]), ("jump.intensity", ["bands"])],
        ids=["dx-run", "dx-converge", "dx-bands", "paths-run", "paths-bands",
             "jump-run", "jump-converge", "jump-bands"])
    def test_just_over_the_budget_exits_2_without_allocating(
            self, tmp_path, capsys, key, command):
        config, flags = {
            "dx": (f"preset: PS3\ndx: {1.0 / self._NX_OVER!r}\n", []),
            "paths": ("preset: PS3\n", ["--paths", str(self._PATHS_OVER)]),
            # 2 paths x (2**23 + 1) x horizon 1 expected events, just over the
            # 2**24 budget; a convergence study would sample one such path
            "jump.intensity": (f"preset: PS3\njump: {{intensity: {2 ** 23 + 1}}}\n", []),
        }[key]
        self._refused(tmp_path, capsys, config, [*command, *flags], key)

    def test_a_lattice_that_cannot_hold_two_paths_names_dx(self, tmp_path, capsys):
        # under STEP_CELLS cells per lattice time, but not two paths more:
        # only dx can bring this run under the budget
        nx = (self._CELLS // self._STEP - 1) // 4
        assert self._CELLS // (self._STEP + 2) < 4 * nx + 1 <= self._CELLS // self._STEP
        self._refused(tmp_path, capsys,
                      f"preset: PS1\nupdate_interval: null\nn_display_paths: 0\n"
                      f"dx: {1.0 / nx!r}\n", ["run", "--paths", "2"], "dx")

    def test_jump_events_over_the_budget_are_refused_where_the_ensemble_is_built(
            self, tmp_path, capsys):
        # 1e6 x horizon 1 x 20 paths expected events, over the 2**24 budget,
        # on 41 x 20 cells; the scenario itself is valid
        config = "preset: PS3\njump: {intensity: 1.0e+6}\n"
        scenario = scenario_from_config(yaml.safe_load(config), paths=20)
        with pytest.raises(ConfigError) as err:
            run_scenario(scenario, tmp_path / "x")
        assert err.value.field == "jump.intensity"
        assert "16777216" in str(err.value)
        self._refused(tmp_path, capsys, config, ["run", "--paths", "20"],
                      "jump.intensity")

    def test_just_under_the_budget_builds(self, monkeypatch, tmp_path):
        sc = replace(preset("PS3"), dx=1.0 / (self._NX_OVER - 1))
        assert scenario_grid(sc).nt == 4 * (self._NX_OVER - 1)

        class Sampled(Exception):
            pass

        def sample_paths(*args):
            raise Sampled

        # the run of one path fewer gets past the budget to its sampling
        monkeypatch.setattr(experiments, "sample_paths", sample_paths)
        with pytest.raises(Sampled):
            run_scenario(replace(preset("PS3"), mc_paths=self._PATHS_OVER - 1),
                         tmp_path)

    def test_runs_that_sample_no_ensemble_are_not_refused_by_their_paths(
            self, tmp_path):
        # a convergence study samples one path, and PS1's bands are exact
        many = replace(preset("PS1"), mc_paths=self._PATHS_OVER)
        assert experiments.write_convergence(many, [0.125], tmp_path).is_file()
        assert write_bands(many, tmp_path).is_file()
        # nor by the expected jump events of 2**23 paths, 5 x horizon 1 x
        # 2**23, over the 2**24 budget
        ps3 = replace(preset("PS3"), mc_paths=2 ** 23)
        assert experiments.write_convergence(ps3, [0.125], tmp_path).is_file()
        assert write_bands(replace(many, mc_paths=2 ** 23), tmp_path).is_file()

    @pytest.mark.parametrize("scenario, per_nx, nxs", [
        (preset("deterministic-fig5"), 10, (200, 400)),
        (replace(_PS1, outputs=("bands",)), 4, (250, 500))],
        ids=["deterministic-fig5", "PS1-bands"])
    def test_a_run_holds_little_per_lattice_time(self, tmp_path, scenario, per_nx,
                                                 nxs):
        # Measured: 104 bytes per lattice time on deterministic-fig5 and 88
        # on PS1's bands; writing each CSV whole took 297 and 344.  The
        # bound is about 1.5 times the larger.
        peaks = [self._peak_of(lambda: run_scenario(
                     replace(scenario, dx=1.0 / nx), tmp_path / str(nx)))[1]
                 for nx in nxs]
        assert (peaks[1] - peaks[0]) / (per_nx * (nxs[1] - nxs[0])) < 160


class TestConfidenceBands:
    def test_median_of_gaussian_demand_is_the_mean(self, ps1):
        times = np.linspace(0.0, 1.0, 9)
        bands = confidence_bands(ps1, times, [0.5], mc_paths=10, seed=1)
        assert np.allclose(bands[0], first_moment(ps1, times), atol=1e-12)

    def test_gaussian_quantile_uses_the_normal_constant(self, ps1):
        times = np.array([0.5, 1.0])
        bands = confidence_bands(ps1, times, [0.975], mc_paths=10, seed=1)
        mean = first_moment(ps1, times)
        sd = np.sqrt(conditional_variance(ps1, times))
        assert np.allclose(bands[0], mean + 1.959964 * sd, atol=1e-5)

    def test_jump_band_stabilises_with_budget(self, ps3):
        times = [0.0, 1.0]
        q_small = confidence_bands(ps3, times, [0.9], 10_000, seed=2)[0, -1]
        q_big = confidence_bands(ps3, times, [0.9], 100_000, seed=3)[0, -1]
        assert abs(q_small - q_big) / abs(q_big) < 0.02

    def test_jump_band_matches_direct_quantile(self, ps3):
        times = [0.0, 0.5]
        bands = confidence_bands(ps3, times, [0.25, 0.9], mc_paths=2_000, seed=4)
        values = np.stack([p.values for p in sample_paths(ps3, times, 2_000, seed=4)])
        assert np.allclose(bands, np.quantile(values, [0.25, 0.9], axis=0))

    @settings(max_examples=100)
    @given(data=st.data(), rows=st.integers(1, 60), cols=st.integers(1, 5),
           levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=4))
    def test_empirical_bands_equal_np_quantile_bitwise(self, ps3, data, rows,
                                                       cols, levels):
        """The bands sort the block before np.quantile; that must pick and
        interpolate the order statistics of the unsorted call, bit for bit,
        with ties and a constant start column as in a sampled ensemble.
        Only the sign of a zero may differ, where a column holds both -0.0
        and 0.0, which compare equal and so tie."""
        signed = data.draw(st.booleans())  # whether -0.0 may be drawn
        tied = st.sampled_from([-1.5, 0.0, 0.1, 0.3, 2.0, 1e15] + [-0.0] * signed)
        wide = st.floats(-1e3, 1e3).map(lambda x: x if signed else x + 0.0)
        values = data.draw(arrays(np.float64, (rows, cols), elements=tied | wide))
        values[:, 0] = ps3.y0
        times = np.arange(cols, dtype=float)
        ensemble = powertrack.PathEnsemble(times, values.copy(),
                                           np.zeros(rows + 1, dtype=np.int64),
                                           np.empty(0))
        bands = experiments._bands(ps3, times, levels, lambda: ensemble, rows)
        want = np.quantile(values, levels, axis=0)
        assert np.array_equal(bands, want)
        if not np.any(np.signbit(values) & (values == 0.0)):
            assert bands.tobytes() == want.tobytes()

    def test_invalid_level_rejected(self, ps1, ps3):
        with pytest.raises(ValueError):
            confidence_bands(ps1, [0.0, 1.0], [0.0], 10, seed=1)
        for params in (ps1, ps3):  # exact and empirical quantiles alike
            with pytest.raises(ValueError, match="at least one"):
                confidence_bands(params, [0.0, 1.0], [], 10, seed=1)

    def test_bands_artifact_for_deterministic_demand_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_bands(preset("deterministic-fig5"), tmp_path)


class TestConvergenceStudy:
    def test_gaps_shrink_and_vanish_at_one_step(self):
        sc = preset("PS3")
        rows = convergence_study(sc, [0.125, 0.075, 0.05, 0.025])
        gaps = [r["cumrmse_gap"] for r in rows]
        steps = [r["lattice_steps"] for r in rows]
        assert steps == [5, 3, 2, 1]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5

    def test_delayed_outflows_give_the_oracle_march_rows(self, monkeypatch):
        # at seed 8 on this grid, the march's updates would round in the CM3
        # reference and in some interval solves; every outflow is the
        # control delayed by nx steps all the same, and the gaps are those
        # that the oracle march gives
        sc = replace(_PS1, dx=0.005, seed=8)
        intervals = [0.125, 0.05, 0.025, 0.01, 0.005]
        rows = convergence_study(sc, intervals)
        solves = []  # (control, outflow) of each solve the study asks for

        def oracle(grid, u):
            return oracles.strided_upwind(grid, None, u)[1]

        def solve(grid, z0, u):
            solves.append((u, upwind_solve(grid, z0, u).outflow))
            return SimpleNamespace(outflow=oracle(grid, u))

        # the interval solves go through costopt.sequential_update_solve
        monkeypatch.setattr(experiments, "upwind_solve", solve)
        monkeypatch.setattr(costopt, "upwind_solve", solve)
        assert convergence_study(sc, intervals) == rows
        grid = scenario_grid(sc)
        rounds = []
        for u, outflow in solves:
            delayed = np.concatenate((np.zeros(grid.nx), u.at(grid.times())))
            assert outflow.tobytes() == delayed[:grid.nt + 1].tobytes()
            rounds.append(oracle(grid, u).tobytes() != outflow.tobytes())
        assert len(rounds) == 1 + len(intervals)
        assert rounds[0] and any(rounds[1:])

    def test_misaligned_interval_rejected(self):
        with pytest.raises(ConfigError) as err:
            convergence_study(preset("PS3"), [0.03])
        assert err.value.field == "dtup"

    def test_misaligned_interval_after_a_valid_one_rejected(self):
        # every interval is checked, not only the first
        with pytest.raises(ConfigError) as err:
            convergence_study(preset("PS3"), [0.125, 0.03])
        assert err.value.field == "dtup"


# Each law's config type and argument keys, as scenario_from_config lists them.
_LAW_KEYS = {
    ConstantMean: ("constant", ("level",)),
    SinusoidMean: ("sinusoid", ("offset", "amplitude", "angular_freq")),
    TabulatedMean: ("tabulated", ("times", "values")),
    ConstantHeight: ("constant", ("value",)),
    NormalHeight: ("normal", ("loc", "scale")),
    LognormalHeight: ("lognormal", ("log_mean", "log_std")),
}


def _tabulated_or_none(times, values):
    """The law, or None where it refuses its knots (a segment so narrow
    that its slope overflows; ``tabulated-narrow`` below covers that)."""
    try:
        return TabulatedMean(times, values)
    except ValueError:
        return None


# knots from 0 to 6 cover the horizons of PS3 (1) and deterministic-fig5 (5)
_TABULATED = st.lists(st.floats(0.0, 6.0, exclude_min=True, exclude_max=True),
                      max_size=3, unique=True).flatmap(
    lambda ts: st.builds(_tabulated_or_none, st.just([0.0, *sorted(ts), 6.0]),
                         st.lists(st.floats(-5.0, 5.0), min_size=len(ts) + 2,
                                  max_size=len(ts) + 2))).filter(
    lambda law: law is not None)
# (the field a law is read as, the law)
_FIELD_LAWS = st.one_of(
    st.tuples(st.sampled_from(["mean", "profile"]),
              st.one_of(strategies.MEANS, _TABULATED)),
    st.tuples(st.just("jump.height"), strategies.HEIGHT_LAWS))


def _law_config(field: str, law_cfg) -> dict:
    """A config that reads ``law_cfg`` as ``field``."""
    if field == "profile":
        return {"preset": "deterministic-fig5", "profile": law_cfg}
    if field == "mean":
        return {"preset": "PS3", "mean": law_cfg}
    return {"preset": "PS3", "jump": {"intensity": 1.0, "height": law_cfg}}


class TestConfig:
    def test_preset_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "preset": "PS1", "seed": 99, "paths": 50, "update_interval": 0.25,
        }))
        sc = scenario_from_config(load_config(cfg_path))
        assert (sc.params, sc.seed, sc.mc_paths, sc.update_interval) == \
            (preset("PS1").params, 99, 50, 0.25)

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"preset": "PS1", "seed": 99}))
        sc = scenario_from_config(load_config(cfg_path), seed=3, paths=12,
                                  preset_name="PS2")
        assert (sc.params, sc.seed, sc.mc_paths) == (preset("PS2").params, 3, 12)

    def test_full_custom_scenario(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "speed": 2.0, "horizon": 2.0, "dx": 0.25,
            "kappa": 1.5, "sigma": 0.5, "y0": 2.0,
            "mean": {"type": "constant", "level": 3.0},
            "jump": {"intensity": 1.0, "height": {"type": "normal",
                                                  "loc": 0.2, "scale": 0.1}},
            "paths": 20, "seed": 5,
        }))
        sc = scenario_from_config(load_config(cfg_path))
        assert sc.params.kappa == 1.5
        assert sc.params.jump.intensity == 1.0
        scenario_grid(sc)  # consistent lattice

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_config({"preset": "PS1", "speeed": 3.0})
        assert err.value.field == "speeed"

    def test_integral_float_counts_read(self):
        sc = scenario_from_config({"preset": "PS1", "paths": 1000.0,
                                   "seed": 3.0, "n_display_paths": 2.0})
        assert (sc.mc_paths, sc.seed, sc.n_display_paths) == (1000, 3, 2)
        assert all(type(v) is int
                   for v in (sc.mc_paths, sc.seed, sc.n_display_paths))

    def test_incomplete_custom_scenario_rejected(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_config({"kappa": 1.0})
        assert err.value.field == "params"

    @given(case=_FIELD_LAWS, data=st.data())
    def test_law_mapping_builds_the_law(self, case, data):
        """A law's mapping builds the law itself; without any one argument
        key it is refused, naming the field and the key."""
        field, law = case
        kind, keys = _LAW_KEYS[type(law)]
        law_cfg = {"type": kind,
                   **{key: np.asarray(getattr(law, key)).tolist() for key in keys}}
        sc = scenario_from_config(_law_config(field, law_cfg))
        built = (sc.profile if field == "profile" else sc.params.mean
                 if field == "mean" else sc.params.jump.height_law)
        assert type(built) is type(law)
        assert all(np.array_equal(getattr(built, key), getattr(law, key))
                   for key in keys)
        dropped = data.draw(st.sampled_from(keys))
        del law_cfg[dropped]
        with pytest.raises(ConfigError, match=f"missing key '{dropped}'") as err:
            scenario_from_config(_law_config(field, law_cfg))
        assert err.value.field == field

    # YAML reads true and on as booleans, which float() and int() take as 1
    @pytest.mark.parametrize("config, field", [
        ("speed: true\n", "speed"),
        ("dx: true\n", "dx"),
        ("paths: true\n", "paths"),
        ("seed: on\n", "seed"),
        ("kappa: true\n", "kappa"),
        ("y0: false\n", "y0"),
        ("mean: {type: constant, level: true}\n", "mean"),
        ("jump: {intensity: true}\n", "jump"),
    ], ids=["speed", "dx", "paths", "seed-on", "kappa", "y0", "mean-level",
            "jump-intensity"])
    def test_a_boolean_is_no_number(self, tmp_path, capsys, config, field):
        _exits_2_naming(tmp_path, capsys, "preset: PS3\n" + config, field)

    def test_outputs_that_write_nothing_are_refused(self, tmp_path, capsys):
        _exits_2_naming(tmp_path, capsys, "preset: PS1\noutputs: []\n", "outputs")
        _exits_2_naming(tmp_path, capsys, "preset: deterministic-fig5\n"
                                          "outputs: [paths, bands]\n", "outputs")

    def test_non_mapping_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(cfg_path)


class TestDemandFromKeys:
    """A ``profile`` makes the demand known, a coefficient makes it
    stochastic, and neither keeps the preset's; no key is ignored."""

    def test_a_profile_makes_a_stochastic_preset_known(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("preset: PS1\nprofile: {type: constant, level: 1.0}\n")
        out = tmp_path / "x"
        assert main(["run", str(cfg), "--paths", "20", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["control.csv", "cost.csv"]
        known = replace(_PS1, params=None, profile=ConstantMean(1.0), mc_paths=20)
        for name, path in run_scenario(known, tmp_path / "api").items():
            assert (out / f"{name}.csv").read_bytes() == path.read_bytes()

    def test_a_coefficient_makes_a_known_preset_stochastic(self, tmp_path, capsys):
        # deterministic-fig5 has no coefficients to complete kappa with
        _exits_2_naming(tmp_path, capsys, "preset: deterministic-fig5\nkappa: 2.0\n",
                        "params")
        sc = scenario_from_config({
            "preset": "deterministic-fig5", "kappa": 1.0, "sigma": 0.5, "y0": 2.0,
            "mean": {"type": "constant", "level": 2.0}, "jump": {"intensity": 0.0}})
        assert (sc.profile, sc.params.y0) == (None, 2.0)

    def test_a_profile_beside_a_coefficient_names_the_first(self, tmp_path, capsys):
        profile = "preset: PS1\nprofile: {type: constant, level: 1.0}\n"
        _exits_2_naming(tmp_path, capsys, profile + "kappa: 5.0\n", "kappa")
        # the first in reading order: kappa, sigma, y0, mean, jump
        _exits_2_naming(tmp_path, capsys, profile + "jump: {}\ny0: 1.0\n", "y0")

    @pytest.mark.parametrize("config, field", [
        ("demand_mode: stochastic\n", "demand_mode"), ("name: x\n", "name")],
        ids=["demand_mode", "name"])
    def test_the_deleted_keys_are_refused(self, tmp_path, capsys, config, field):
        _exits_2_naming(tmp_path, capsys, "preset: PS1\n" + config, field)

    @pytest.mark.parametrize("command", [["bands"], ["converge", "--dtup", "0.5"]],
                             ids=["bands", "converge"])
    def test_a_known_demand_has_no_bands_nor_convergence(self, tmp_path, capsys,
                                                          command):
        _exits_2_naming(tmp_path, capsys, "preset: deterministic-fig5\n", "profile",
                        command)


class TestCli:
    def _empty_cfg(self, tmp_path):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("{}\n")
        return str(cfg)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._empty_cfg(tmp_path)
        code = main(["run", cfg, "--preset", "PS1", "--seed", "1",
                     "--paths", "60", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        for name in ("paths", "control", "bands", "cost"):
            assert (tmp_path / "out" / f"{name}.csv").exists()

    def test_converge_subcommand(self, tmp_path):
        cfg = self._empty_cfg(tmp_path)
        code = main(["converge", cfg, "--preset", "PS3", "--seed", "7",
                     "--dtup", "0.125,0.025", "--out-dir", str(tmp_path / "c")])
        assert code == 0
        header, rows = _read_csv(tmp_path / "c" / "convergence.csv")
        assert header == ["update_interval", "lattice_steps", "cumrmse_gap"]
        assert len(rows) == 2

    def test_bands_subcommand(self, tmp_path):
        cfg = self._empty_cfg(tmp_path)
        code = main(["bands", cfg, "--preset", "PS1", "--seed", "2",
                     "--paths", "50", "--levels", "0.5,0.9",
                     "--out-dir", str(tmp_path / "b")])
        assert code == 0
        header, _ = _read_csv(tmp_path / "b" / "bands.csv")
        assert header == ["time", "mean", "q0.5", "q0.9"]

    def test_invalid_config_gives_json_error_and_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"preset": "PS1", "levels": [2.0]}))
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "levels"

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.yaml"),
                     "--out-dir", str(tmp_path / "x")])
        assert code != 0
        assert "error" in json.loads(capsys.readouterr().err.strip())

    # Each config with the field its error line names (None: exit 1), an
    # optimizer budget and a message fragment
    _BAD_INPUTS = [
        ("preset: PS1\nspeed: 0\n", "speed", None, None),
        ("preset: PS1\nkappa: [1\n", "config", None, None),
        # not UTF-8: C3 starts a two-byte sequence, and "(" cannot end it
        (b"preset: PS1\nseed: \xc3\x28\n", "config", None, "not valid YAML"),
        # the forecast ends at 0.5, before the horizon 1
        ("preset: PS3\nmean: {type: tabulated, times: [0.0, 0.5], "
         "values: [1.0, 2.0]}\n", "mean", None, None),
        # non-finite knots: nan passes a strictly-increasing test
        ("preset: PS3\nmean: {type: tabulated, times: [0, .nan, 1], "
         "values: [1, 2, 3]}\n", "mean", None, "finite"),
        ("preset: PS3\nmean: {type: tabulated, times: [0, 0.5, .inf], "
         "values: [1, 2, 3]}\n", "mean", None, "finite"),
        # a knot segment of 5e-324 overflows its slope
        ("preset: PS3\nmean: {type: tabulated, times: [0.0, 5.0e-324, 4.0, "
         "6.0], values: [1, 2, 3, 4]}\n", "mean", None, "too narrow"),
        ("preset: PS3\nmean: {type: constant, level: .nan}\n", "mean", None,
         "finite"),
        ("preset: PS3\nmean: {type: sinusoid, offset: .nan, amplitude: 1, "
         "angular_freq: 1}\n", "mean", None, "finite"),
        ("preset: PS3\nmean: {type: sinusoid, offset: 1, amplitude: 1, "
         "angular_freq: .inf}\n", "mean", None, "finite"),
        ("preset: deterministic-fig5\nprofile: {type: constant, level: .inf}\n",
         "profile", None, "finite"),
        # a one-iteration optimizer budget raises ConvergenceError
        ("preset: deterministic-fig5\n", None, 1, "gradient descent"),
        # the tracking objective would overflow, so the profile is refused
        ("preset: deterministic-fig5\n"
         "profile: {type: constant, level: 1.0e+200}\n", "profile", None,
         "not finite"),
        ("preset: PS1\nkappa: abc\n", "kappa", None, None),
        ("preset: PS1\nkappa: -1\n", "kappa", None, None),
        ("preset: PS1\nsigma: [1, 2]\n", "sigma", None, None),
        # sigma^2, the diffusion variance's factor, overflows
        ("preset: PS3\nsigma: 1.0e+200\n", "sigma", None, "finite square"),
        ("preset: PS3\nsigma: 1.0e+160\n", "sigma", None, "finite square"),
        ("preset: PS1\ny0: .inf\n", "y0", None, None),
        # a valid but extreme y0 overflows the Monte-Carlo squared error
        ("preset: PS3\ny0: 1.0e+308\n", None, None, "cost.csv: column cumrmse_mc"),
        ("preset: PS1\nupdate_interval: .inf\n", "update_interval", None, None),
        # 1e-12 rounds to 0 lattice steps of 0.025
        ("preset: PS1\nupdate_interval: 1.0e-12\n", "update_interval", None,
         "lattice step"),
        # 5 lattice steps of 0.025 to 1e-9, but the updates drift off the
        # lattice: 1e-10 at the first, and the one at 0.75 is dropped
        ("preset: PS3\nupdate_interval: 0.1250000001\n", "update_interval", None,
         "lattice step"),
        ("preset: PS1\njump: {intensity: 1, height: 3}\n", "jump.height",
         None, "expected a mapping"),
        # exp(2 log_mean + 2 log_std^2), the height's second moment, overflows
        ("preset: PS3\njump: {intensity: 1.0, height: {type: lognormal, "
         "log_mean: 400.0, log_std: 1.0}}\n", "jump.height", None, None),
        # value^2 and loc^2 + scale^2, the heights' second moments, overflow
        ("preset: PS3\njump: {intensity: 1.0, height: {type: constant, "
         "value: 1.0e+200}}\n", "jump.height", None, None),
        ("preset: PS3\njump: {intensity: 1.0, height: {type: normal, "
         "loc: 0, scale: 1.0e+200}}\n", "jump.height", None, None),
        # counts must be whole numbers; they are not rounded down
        ("preset: PS1\npaths: 2.7\n", "paths", None, None),
        ("preset: PS1\nseed: 1.5\n", "seed", None, None),
        ("preset: PS1\nn_display_paths: 1.9\n", "n_display_paths", None, None),
        ("preset: PS1\nlevels: []\n", "levels", None, None),
        ("preset: PS1\nlevels: [0.5, 0.5]\n", "levels", None, "more than once"),
        ("preset: PS1\noutputs: [cost, cost]\n", "outputs", None, "more than once"),
        # a string is no list: it was read as the artefacts 'p', 'a', ...
        ("preset: PS1\noutputs: paths\n", "outputs", None, "cannot read 'paths'"),
        ("preset: PS1\nlevels: 0.5\n", "levels", None, "cannot read 0.5"),
        # the transport delay 1/speed is 0.25
        ("preset: PS1\nhorizon: 0.2\n", "horizon", None, "transport delay"),
        # 40.4 time steps of 0.025
        ("preset: PS1\nhorizon: 1.01\n", "horizon", None, "horizon/dt = 40.4"),
        # 1/dx overflows
        ("preset: PS1\ndx: 5.0e-324\n", "dx", None, "1/dx = inf"),
        # 1e12 x horizon 1 x 20 paths expected events, over the 2**24 budget
        ("preset: PS3\njump: {intensity: 1.0e+12}\n", "jump.intensity", None,
         "16777216"),
    ]
    _BAD_INPUT_IDS = ["zero-speed", "malformed-yaml", "not-utf8", "short-forecast",
                      "tabulated-nan", "tabulated-inf", "tabulated-narrow",
                      "constant-nan", "sinusoid-nan", "sinusoid-inf",
                      "profile-inf", "convergence", "overflow", "kappa-text",
                      "kappa-negative", "sigma-list", "sigma-overflow",
                      "sigma-square-overflow", "y0-infinite", "y0-overflow",
                      "interval-infinite", "interval-below-step",
                      "interval-drifting",
                      "jump-height-scalar", "lognormal-overflow",
                      "constant-overflow", "normal-overflow", "paths-fraction",
                      "seed-fraction", "display-fraction", "levels-empty",
                      "levels-repeated", "outputs-repeated", "outputs-text",
                      "levels-scalar",
                      "horizon-short", "horizon-off-lattice", "dx-subnormal",
                      "jump-budget"]

    @pytest.mark.parametrize("config, field, budget, message", _BAD_INPUTS,
                             ids=_BAD_INPUT_IDS)
    def test_bad_input_gives_one_json_line(self, tmp_path, capsys, monkeypatch,
                                           config, field, budget, message):
        if budget is not None:
            monkeypatch.setattr(costopt, "_MAX_ITERS", budget)
        cfg = tmp_path / "bad.yaml"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config)
        code = main(["run", str(cfg), "--paths", "20",
                     "--out-dir", str(tmp_path / "x")])
        assert code == (2 if field is not None else 1)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["field"] == field
        if message is not None:
            assert message in err["error"]

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_libyaml_loader_reads_configs_as_the_python_loader(self):
        """``load_config`` parses with libyaml where PyYAML has it: on the
        benchmark inputs and every bad config above, both loaders give the
        same mapping (compared by repr, so that nan equals nan and -0.0
        differs from 0.0), or both raise ``yaml.YAMLError``."""
        inputs = Path(__file__).resolve().parent.parent / "bench" / "inputs"
        texts = [p.read_text() for p in sorted(inputs.glob("*.yaml"))]
        assert texts
        texts += [config for config, *_ in self._BAD_INPUTS]

        def parse(text, loader):
            try:
                return repr(yaml.load(text, Loader=loader))
            except yaml.YAMLError:
                return "YAMLError"

        for text in texts:
            assert (parse(text, yaml.CSafeLoader)
                    == parse(text, yaml.SafeLoader)), text

    def test_runs_without_libyaml(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cfg = tmp_path / "ps1.yaml"
        cfg.write_text("preset: PS1\nseed: 3\n")
        assert load_config(cfg) == {"preset": "PS1", "seed": 3}
        assert main(["run", str(cfg), "--paths", "20",
                     "--out-dir", str(tmp_path / "r")]) == 0
        cfg.write_text("preset: PS1\nkappa: [1\n")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "config"

    def test_empty_dtup_list_gives_one_json_line(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = main(["converge", self._empty_cfg(tmp_path), "--preset", "PS1",
                     "--dtup", ",", "--out-dir", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["field"] == "dtup"
        assert not (out / "convergence.csv").exists()

    def test_misaligned_dtup_gives_one_json_line(self, tmp_path, capsys):
        out = tmp_path / "c"
        # 0.03 is no multiple of the lattice step 0.025; 1e-12 rounds to 0
        # steps; 0.1250000001 is 5 steps to 1e-9, but its first update lies
        # 1e-10 off the lattice time 0.125
        for dtup in ("0.125,0.03", "0.125,1e-12", "0.1250000001"):
            code = main(["converge", self._empty_cfg(tmp_path), "--preset", "PS3",
                         "--dtup", dtup, "--out-dir", str(out)])
            assert code == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["field"] == "dtup"
            assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("run", ["--paths", "abc"], "invalid int value"),
        ("run", ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ("converge", [], "required: --dtup"),
        ("converge", ["--dtup", "0.1", "--solver", "direct"],
         "unrecognized arguments: --solver direct"),
    ], ids=["paths-text", "unknown-flag", "dtup-missing", "solver-flag"])
    def test_usage_error_gives_one_json_line(self, tmp_path, capsys, command,
                                             flags, message):
        code = main([command, self._empty_cfg(tmp_path), *flags])
        assert code == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        err = json.loads(lines[0])
        assert err["field"] is None and message in err["error"]

    def test_help_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bands", "--help"])
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert "--levels" in out and err == ""

    @pytest.mark.parametrize("name", ["PS1", "PS3"])
    def test_bands_command_writes_the_run_bands(self, tmp_path, name):
        """Exact quantiles for PS1, empirical ones for PS3."""
        args = [self._empty_cfg(tmp_path), "--preset", name, "--paths", "300",
                "--seed", "7", "--out-dir"]
        assert main(["bands", *args, str(tmp_path / "b")]) == 0
        assert main(["run", *args, str(tmp_path / "r")]) == 0
        assert ((tmp_path / "b" / "bands.csv").read_bytes()
                == (tmp_path / "r" / "bands.csv").read_bytes())

    @staticmethod
    def _modules_after_cli_import(test: str, argv: list[str] | None = None) -> str:
        """The modules ``m`` with ``test`` true after a fresh interpreter
        imports ``powertrack.cli`` and, given ``argv``, runs its ``main``."""
        probe = ("import sys, powertrack.cli; "
                 + (f"assert powertrack.cli.main({argv!r}) == 0; " if argv else "")
                 + f"print([m for m in sys.modules if {test}])")
        env = {**os.environ,
               "PYTHONPATH": str(Path(powertrack.__file__).parent.parent)}
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        return result.stdout.strip().splitlines()[-1]

    def test_import_loads_no_scipy(self, tmp_path):
        """Importing scipy.stats took over a second of every CLI call, and
        the normal quantile of scipy.special about 0.35 s of every run with
        exact Gaussian bands, as PS1's."""
        scipy = "m.split('.')[0] == 'scipy'"
        assert self._modules_after_cli_import(scipy) == "[]"
        argv = ["bands", self._empty_cfg(tmp_path), "--preset", "PS1",
                "--paths", "20", "--out-dir", str(tmp_path / "b")]
        assert self._modules_after_cli_import(scipy, argv) == "[]"
        assert (tmp_path / "b" / "bands.csv").exists()

    def test_success_loads_no_json(self, tmp_path):
        """Only a failure writes JSON, so only a failure imports ``json``:
        about 5 ms of every start-up otherwise."""
        is_json = "m.split('.')[0] == 'json'"
        assert self._modules_after_cli_import(is_json) == "[]"
        argv = ["run", self._empty_cfg(tmp_path), "--preset", "PS1",
                "--paths", "20", "--out-dir", str(tmp_path / "r")]
        assert self._modules_after_cli_import(is_json, argv) == "[]"
        assert (tmp_path / "r" / "cost.csv").exists()

    def test_import_leaves_the_ziggurat_tables_out(self, tmp_path):
        """Without written bytecode the tables and the stream emulation
        compile on every start; only a seeded ensemble reads them.  The
        convergence study's one path is drawn from its generator, and
        ``run``'s ensemble is walked."""
        walk = "m in ('powertrack._ziggurat', 'powertrack._streams')"
        assert self._modules_after_cli_import(walk) == "[]"
        converge = ["converge", self._empty_cfg(tmp_path), "--preset", "PS1",
                    "--dtup", "0.125", "--out-dir", str(tmp_path / "c")]
        assert self._modules_after_cli_import(walk, converge) == "[]"
        assert (tmp_path / "c" / "convergence.csv").exists()
        run = ["run", self._empty_cfg(tmp_path), "--preset", "PS1",
               "--paths", "20", "--out-dir", str(tmp_path / "r")]
        assert self._modules_after_cli_import(walk, run) == (
            "['powertrack._streams', 'powertrack._ziggurat']")

    def test_memory_error_gives_one_json_line(self, tmp_path, capsys,
                                              monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_scenario", out_of_memory)
        code = main(["run", self._empty_cfg(tmp_path), "--preset", "PS1",
                     "--out-dir", str(tmp_path / "x")])
        assert code != 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError", "field": None}

    def test_sharp_tabulated_forecast_runs(self, tmp_path):
        # kappa times the knot spacing is 5000: the integrand is a narrow
        # spike at the end of the knot segment
        _assert_runs_to_finite_csvs(
            tmp_path, "preset: PS3\nkappa: 5000\nmean: {type: tabulated, "
                      "times: [0.0, 1.0], values: [1.0, 2.0]}\n")

    # At kappa 1e-300, kappa^2 and (1 - e^{-kappa dt})^2 underflow to 0: the
    # gbar^2 term of the jump moments was 0/0, and the flat sinusoid's
    # amplitude * kappa / (kappa^2 + w^2) was x/0.
    @pytest.mark.parametrize("config", [
        "preset: PS1\nkappa: 1.0e-300\n",
        "preset: PS1\nkappa: 1.0e-300\nmean: {type: sinusoid, offset: 2, "
        "amplitude: 3, angular_freq: 0}\n",
        "preset: PS3\nkappa: 1.0e-300\n",
    ], ids=["zero-height-jumps", "flat-sinusoid", "ps3-jumps"])
    def test_tiny_kappa_runs(self, tmp_path, config):
        _assert_runs_to_finite_csvs(tmp_path, config)

    # At kappa 1e300, kappa^2 overflows in the sinusoid's amplitude * kappa /
    # (kappa^2 + w^2) and in the gbar^2 term of PS3's jump moments; the
    # demand snaps to its mean.
    def test_huge_kappa_runs(self, tmp_path):
        for name in ("PS1", "PS3"):
            (tmp_path / name).mkdir()
            _assert_runs_to_finite_csvs(tmp_path / name,
                                        f"preset: {name}\nkappa: 1.0e+300\n")

    # Normal jump heights at these scales give squared deviations near 1e200
    # and 1e300, whose standard errors square them again.
    @pytest.mark.parametrize("scale", ["1.0e+100", "1.0e+150"])
    def test_huge_jump_heights_run(self, tmp_path, scale):
        _assert_runs_to_finite_csvs(
            tmp_path, "preset: PS3\njump: {intensity: 1.0, height: {type: normal, "
                      f"loc: 0, scale: {scale}}}}}\n")

    def test_non_finite_artifact_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("y0: 1.0e+308\n")
        out = tmp_path / "x"
        code = main(["run", str(cfg), "--preset", "PS1", "--paths", "50",
                     "--out-dir", str(out)])
        assert code != 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["artifact"], err["column"]) == ("cost.csv", "cumrmse_mc")
        assert not (out / "cost.csv").exists()


# Values of the wrong kind for any key; none of them can size an array.
_NON_NUMBERS = st.one_of(
    st.none(), st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2))
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ODD = st.one_of(_NON_NUMBERS, st.booleans(), st.integers(-3, 3), _ANY_FLOAT)
_BAD_SIZES = st.one_of(st.sampled_from(
    [0.0, -1.0, 2.7, math.nan, math.inf, -math.inf, 0.3, 2.0]), _NON_NUMBERS)


def _mean_config(number):
    knots = st.lists(st.floats(0.0, 6.0, exclude_min=True, exclude_max=True),
                     min_size=2, max_size=4, unique=True)
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("constant"), "level": number}),
        st.fixed_dictionaries({"type": st.just("sinusoid"), "offset": number,
                               "amplitude": number, "angular_freq": number}),
        # knots from 0 to 6 cover every horizon drawn below
        knots.map(lambda ts: {"type": "tabulated", "times": sorted(ts + [0.0, 6.0]),
                              "values": [float(i % 3) for i in range(len(ts) + 2)]}))


def _jump_config(number, intensity):
    height = st.one_of(
        st.fixed_dictionaries({"type": st.just("constant"), "value": number}),
        st.fixed_dictionaries({"type": st.just("normal"), "loc": number,
                               "scale": number}),
        st.fixed_dictionaries({"type": st.just("lognormal"),
                               "log_mean": number, "log_std": number}))
    return st.fixed_dictionaries({}, optional={"intensity": intensity,
                                               "height": height})


_UNIT = st.floats(-3.0, 3.0)
# Valid values for every known key.  Speed, horizon and dx keep the lattice
# at most 400 x 20 cells, and ``paths`` (always set) keeps a run to at most
# 40 paths.  A preset is nearly always needed, so it is always set too.
_GOOD = {
    "preset": st.sampled_from(PRESET_NAMES),
    "speed": st.sampled_from([1.0, 2.0, 4.0]),
    "horizon": st.sampled_from([1.0, 2.0, 5.0]),
    "dx": st.sampled_from([0.05, 0.1, 0.25, 0.5]),
    "kappa": st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300])),
    "sigma": st.floats(0.0, 10.0),
    "y0": st.floats(-1e3, 1e3),
    "mean": _mean_config(_UNIT),
    "jump": _jump_config(_UNIT, st.floats(0.0, 50.0)),
    "update_interval": st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.5]),
    "paths": st.one_of(st.integers(1, 40), st.just(20.0)),
    "seed": st.one_of(st.integers(0, 2 ** 64), st.sampled_from([2 ** 70, 1.0e30])),
    "outputs": st.lists(st.sampled_from(["paths", "control", "bands", "cost"]),
                        unique=True, max_size=4),
    "levels": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True),
    "profile": _mean_config(_UNIT),
    "n_display_paths": st.one_of(st.integers(0, 8), st.just(3.0)),
}
# Invalid values: numbers (nan, inf, negatives, huge), text, lists,
# mappings and null; sizes stay bounded as above.
_BAD = {key: _ODD for key in _GOOD}
_BAD.update({
    "preset": st.one_of(st.just("PS9"), _ODD),
    "speed": _BAD_SIZES, "horizon": _BAD_SIZES, "dx": _BAD_SIZES,
    "paths": _BAD_SIZES, "n_display_paths": _BAD_SIZES,
    "mean": st.one_of(_mean_config(_ODD), _ODD),
    "profile": st.one_of(_mean_config(_ODD), _ODD),
    "jump": st.one_of(_jump_config(_ODD, st.one_of(
        st.sampled_from([-1.0, math.nan, math.inf]), _NON_NUMBERS)), _ODD),
    "outputs": st.one_of(st.just(["plots"]), _ODD),
    "levels": st.one_of(st.lists(_ANY_FLOAT, max_size=3), _ODD),
})


@st.composite
def _configs(draw):
    """A config over the known keys: ``paths``, ``preset`` and a few more,
    at most two of them invalid, and sometimes one unknown key."""
    keys = ["paths", "preset"] + draw(st.lists(
        st.sampled_from(sorted(_GOOD.keys() - {"paths", "preset"})),
        unique=True, max_size=6))
    bad = draw(st.lists(st.sampled_from(keys), unique=True, max_size=2))
    cfg = {key: draw((_BAD if key in bad else _GOOD)[key]) for key in keys}
    if draw(st.sampled_from([False, False, False, True])):
        cfg[draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in _GOOD))] = draw(_ODD)
    return cfg


def _check_finite_csvs(out_dir: Path) -> None:
    """Every cell is a finite number, except text columns and the control
    columns, which are empty past the control horizon."""
    for path in out_dir.glob("*.csv"):
        header, rows = _read_csv(path)
        for row in rows:
            assert len(row) == len(header), path.name
            for column, cell in zip(header, row):
                if column == "method" or (cell == "" and column.split("_")[0] == "u"):
                    continue
                assert math.isfinite(float(cell)), (path.name, column, cell)


class TestCliFuzz:
    def test_every_known_key_is_drawn(self):
        assert set(_GOOD) == set(_BAD) == _KNOWN_KEYS

    @settings(max_examples=60)
    @given(cfg=_configs())
    def test_runs_to_finite_csvs_or_fails_with_one_json_line(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", str(cfg_path), "--out-dir", str(Path(tmp) / "o")])
            if code == 0:
                assert err.getvalue() == ""
                _check_finite_csvs(Path(tmp) / "o")
            else:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert {"error", "field"} <= json.loads(lines[0]).keys()
