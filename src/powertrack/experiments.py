"""Scenario-driven experiment runners with CSV artifacts.

A :class:`Scenario` bundles everything one run needs: demand parameters,
transport speed and horizon, lattice resolution, an optional update
schedule, the Monte-Carlo budget and the master seed.  Runners emit plain
CSV files (one header line, repr-formatted floats), written row by row from
the computed arrays, so that plots can be produced by any external tool;
identical scenarios and seeds produce byte-identical files.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import chain, repeat, takewhile
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .control import UpdateSchedule
from .costopt import (
    Cm1Policy,
    Cm2Policy,
    Cm3Policy,
    cumrmse_analytic,
    deterministic_cost,
    mc_cost_estimate,
    minimize_control,
    minimize_control_direct,
    sequential_update_solve,
)
from .demand import (
    ConstantHeight,
    ConstantMean,
    DemandParams,
    JumpSpec,
    LognormalHeight,
    MeanFunction,
    NormalHeight,
    PathEnsemble,
    SinusoidMean,
    TabulatedMean,
    sample_path,
    sample_paths,
    substream,
)
from .moments import conditional_variance, first_moment
from .transport import ControlSignal, Grid, upwind_solve

__all__ = [
    "ConfigError",
    "ArtifactError",
    "Scenario",
    "PRESET_NAMES",
    "preset",
    "scenario_grid",
    "scenario_schedule",
    "run_scenario",
    "confidence_bands",
    "write_bands",
    "convergence_study",
    "write_convergence",
    "load_config",
    "scenario_from_config",
]

ARTIFACTS = ("paths", "control", "bands", "cost")
# Expected jump events an ensemble may hold, near 1 GiB: each adds at most 60
# bytes to the peak memory of sampling (slope of peak RSS of PS3 bands: 60
# bytes per event with 2 paths, 2**20 to 2**22 events; 48 with 65536 paths,
# intensity 1 to 64).
MAX_JUMP_EVENTS = 2 ** 24
# (path, lattice time) cells a run may hold, 1 GiB at 26 bytes each: PS3 runs
# of 8192 to 65536 paths held 25.06 bytes per cell at dx 0.1 and 21.4 at dx
# 0.025 (slope of peak RSS, events included), and shown paths under 1 more.
# A lattice time costs STEP_CELLS more beside any paths, 312 bytes, 29% over
# the most measured: from 1e5 to 2e5 lattice times, a PS3 run of 2 paths took
# 231 to 241 bytes per time, a PS1 run 208 to 212, PS3 bands of 2 paths 208,
# deterministic-fig5 105 and a convergence study 100.
MAX_CELLS = 2 ** 30 // 26
STEP_CELLS = 12


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ArtifactError(ValueError):
    """A computed artifact holds a non-finite value; names the file and column."""

    def __init__(self, artifact: str, column: str, value: float):
        super().__init__(f"{artifact}: column {column}: non-finite value "
                         f"{value!r}; the file was not written")
        self.artifact = artifact
        self.column = column


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment run, validated on
    construction: a field no run can use raises :class:`ConfigError`.  The
    demand is exactly one of ``params`` (stochastic) and ``profile`` (known)."""

    speed: float
    horizon: float
    dx: float
    params: DemandParams | None = None
    profile: MeanFunction | None = None  # set for deterministic demand
    update_interval: float | None = None
    mc_paths: int = 1000
    seed: int = 7
    n_display_paths: int = 5
    outputs: tuple[str, ...] = ARTIFACTS
    levels: tuple[float, ...] = (0.5, 0.9, 0.975)

    def __post_init__(self) -> None:
        grid = scenario_grid(self)  # update_interval is checked by the runs that read it
        if (self.params is None) == (self.profile is None):  # neither or both
            raise ConfigError("params" if self.params is None else "profile",
                              "need exactly one demand: parameters or a profile")
        _check_budget(grid, self.params, 2, "dx")  # every run can hold the fewest paths
        field, forecast = (("mean", self.params.mean) if self.profile is None
                           else ("profile", self.profile))
        try:
            forecast.at(np.array([0.0, self.horizon]))
        except ValueError as err:
            raise ConfigError(field, f"{err}: the forecast must cover "
                                     f"[0, {self.horizon!r}]") from None
        if self.mc_paths < 1:
            raise ConfigError("paths", "Monte-Carlo budget must be >= 1")
        if self.n_display_paths < 0:
            raise ConfigError("n_display_paths", "must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed", "seed must be >= 0")
        if not self.levels:
            raise ConfigError("levels", "need at least one confidence level")
        for level in self.levels:
            if not (0.0 < level < 1.0):
                raise ConfigError("levels", f"confidence level {level} outside (0, 1)")
        for artifact in self.outputs:
            if artifact not in ARTIFACTS:
                raise ConfigError("outputs", f"unknown artifact {artifact!r}")
        for key, entries in (("outputs", self.outputs), ("levels", self.levels)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(key, f"{repeated[0]!r} is given more than once")
        writable = ARTIFACTS if self.profile is None else ("control", "cost")
        if not set(self.outputs) & set(writable):
            raise ConfigError("outputs", f"none of {writable}, which this demand writes")
        if self.profile is not None:
            # the tracking objective sums squared profile values over the horizon
            peak = float(np.abs(self.profile.at(grid.times())).max())
            if not math.isfinite(peak * peak * self.horizon):
                raise ConfigError("profile", f"peak |profile| {peak!r} squared over "
                                             f"the horizon is not finite")


PRESET_NAMES = ("PS1", "PS2", "PS3", "deterministic-fig5")

_TWO_PI = 2.0 * np.pi


def preset(name: str) -> Scenario:
    """Built-in scenarios used throughout the test suite and demos."""
    base_mean = SinusoidMean(offset=2.0, amplitude=3.0, angular_freq=_TWO_PI)
    if name == "PS1":
        params = DemandParams(kappa=1.0, sigma=2.0, mean=base_mean, y0=1.0,
                              jump=JumpSpec(5.0, ConstantHeight(0.0)))
        return Scenario(speed=4.0, horizon=1.0, dx=0.1, params=params,
                        update_interval=0.125)
    if name == "PS2":
        ps1 = preset("PS1")
        return replace(ps1, params=replace(ps1.params, kappa=3.0))
    if name == "PS3":
        ps2 = preset("PS2")
        return replace(ps2, params=replace(ps2.params,
                                           jump=JumpSpec(5.0, ConstantHeight(1.0))))
    if name == "deterministic-fig5":
        return Scenario(speed=2.0, horizon=5.0, dx=0.5,
                        profile=SinusoidMean(2.0, 1.0, 0.5 * np.pi),
                        outputs=("control", "cost"))
    raise ConfigError("preset", f"unknown preset {name!r}; "
                                f"choose one of {', '.join(PRESET_NAMES)}")


def _check_budget(grid: Grid, params: DemandParams | None, n: int, key: str) -> None:
    """Refuse ``n`` paths on ``grid`` before anything of their size exists: over
    ``MAX_CELLS`` naming ``key``, over ``MAX_JUMP_EVENTS`` naming jump.intensity."""
    cells = (STEP_CELLS + n) * (grid.nt + 1)
    if cells > MAX_CELLS:
        raise ConfigError(key, f"{n} paths of {grid.nt + 1} lattice times hold "
                               f"{cells} cells, over {MAX_CELLS}")
    events = 0.0 if params is None else params.jump.intensity * grid.horizon * n
    if events > MAX_JUMP_EVENTS:
        raise ConfigError("jump.intensity", f"intensity x horizon x paths = {events:.3g}"
                          f" jump events, over {MAX_JUMP_EVENTS}")


def scenario_grid(scenario: Scenario) -> Grid:
    try:
        return Grid(scenario.speed, scenario.dx, scenario.horizon)
    except ValueError as err:
        # each message starts with the input at fault: speed, dx or horizon
        raise ConfigError(str(err).split()[0], str(err)) from None


def scenario_schedule(scenario: Scenario, grid: Grid) -> UpdateSchedule | None:
    if scenario.update_interval is None:
        return None
    try:
        return UpdateSchedule.regular(scenario.update_interval,
                                      grid.horizon - grid.delay, grid.dt)
    except ValueError as err:
        raise ConfigError("update_interval", str(err)) from None


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

Columns = Sequence[tuple[str, Iterable]]


def _fmt(x, column: str, artifact: str) -> str:
    """One CSV cell: text as is, None as empty, numbers as repr(float)."""
    if x is None or isinstance(x, str):
        return x or ""
    value = float(x)
    if not math.isfinite(value):
        raise ArtifactError(artifact, column, value)
    return repr(value)


def _write_artifacts(out_dir: str | Path,
                     tables: Iterable[tuple[str, Columns]]) -> dict[str, Path]:
    """Write ``<name>.csv`` for each (name, columns) table, all or none: each
    table is built in turn and written row by row to ``.<name>.csv.tmp``, and all
    are renamed once all are written; a failure removes them and any directory made."""
    out_dir = Path(out_dir)
    created = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for name, columns in tables:
            temps[name] = out_dir / f".{name}.csv.tmp"
            artifact, names = f"{name}.csv", [column for column, _ in columns]
            with open(temps[name], "w", newline="\n") as fh:
                fh.write(",".join(names) + "\n")
                for row in zip(*(cells for _, cells in columns), strict=True):
                    fh.write(",".join(map(_fmt, row, names, repeat(artifact))) + "\n")
        targets = {name: out_dir / f"{name}.csv" for name in temps}
        # a rename cannot be undone, so none starts while one is sure to fail
        for target in targets.values():
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory; nothing was renamed")
        return {name: temps[name].replace(target) for name, target in targets.items()}
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        with suppress(OSError):  # deepest first, up to one not left empty
            for directory in created:
                directory.rmdir()
        raise


# ---------------------------------------------------------------------------
# Confidence bands
# ---------------------------------------------------------------------------

def _bands(params: DemandParams, times: np.ndarray, levels: Sequence[float],
           ensemble: Callable[[], PathEnsemble], n_paths: int) -> np.ndarray:
    """The curves of :func:`confidence_bands`, sampled ones over the first
    ``n_paths`` rows of ``ensemble()``."""
    if not levels:
        raise ValueError("need at least one confidence level")
    for lv in levels:
        if not (0.0 < lv < 1.0):
            raise ValueError(f"confidence level {lv} outside (0, 1)")
    if not params.jump.active:
        # the standard normal quantile; statistics is imported on this branch
        # alone, since it loads fractions and decimal
        from statistics import NormalDist

        mean = np.atleast_1d(first_moment(params, times))
        var = np.atleast_1d(conditional_variance(params, times))
        sd = np.sqrt(var)
        return np.vstack([mean + NormalDist().inv_cdf(lv) * sd for lv in levels])
    # np.quantile partitions every column; sorted columns pick the same
    # order statistics and interpolate them the same way, for less work
    return np.quantile(np.sort(ensemble().values[:n_paths], axis=0), levels,
                       axis=0, overwrite_input=True)


def confidence_bands(params: DemandParams, times, levels, mc_paths: int,
                     seed: int) -> np.ndarray:
    """Demand quantile curves, one row per level.

    When jumps cannot move the path the marginal law is Gaussian and the
    quantiles are exact (mean + z sqrt(var)); otherwise they are empirical
    quantiles over a seeded Monte-Carlo ensemble.
    """
    times = np.asarray(times, dtype=float)
    levels = [float(lv) for lv in levels]
    return _bands(params, times, levels,
                  partial(sample_paths, params, times, mc_paths, seed), mc_paths)


def write_bands(scenario: Scenario, out_dir: str | Path) -> Path:
    """Write the ``bands`` artifact: demand mean and quantile curves."""
    if scenario.profile is not None:
        raise ConfigError("profile", "bands need a stochastic demand")
    # the bands read no update schedule, so none is built or checked
    return run_scenario(replace(scenario, outputs=("bands",), update_interval=None),
                        out_dir)["bands"]


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def _injection(suffix: str, u: ControlSignal, grid: Grid) -> Columns:
    """A control, None past its horizon, and its outflow down an empty line."""
    held = chain(u.values, repeat(None, grid.nt + 1 - u.values.size))
    return [(f"u{suffix}", held), (f"y{suffix}", upwind_solve(grid, None, u).outflow)]


def _stochastic_artifacts(scenario: Scenario, grid: Grid,
                          schedule: UpdateSchedule | None
                          ) -> dict[str, Callable[[], Columns]]:
    """The columns of each artifact of a stochastic run, built on call from
    one mean curve, one list of policies and one lazily sampled ensemble."""
    params = scenario.params
    n_paths = max(scenario.mc_paths, 2)
    shown = min(scenario.n_display_paths, scenario.mc_paths)
    times = grid.times()
    mean = first_moment(params, times)
    cm2 = [] if schedule is None else [("CM2", Cm2Policy(params, schedule))]
    policies = [("CM1", Cm1Policy(params)), *cm2, ("CM3", Cm3Policy(params))]

    @cache
    def ensemble() -> PathEnsemble:
        _check_budget(grid, params, n_paths, "paths")
        return sample_paths(params, times, n_paths, scenario.seed)

    def paths() -> Columns:
        values = ensemble().values[:shown]
        return [("time", times), ("mean", mean),
                *((f"path_{j}", values[j]) for j in range(shown))]

    def control() -> Columns:
        columns = [("time", times), ("demand_mean", mean),
                   *_injection("_cm1", minimize_control_direct(params, grid), grid)]
        if cm2:  # the path, then the CM2 and CM3 controls on it
            path = ensemble()[0]
            columns.append(("path", path.values))
            for name, policy in policies[1:]:
                columns += _injection(f"_{name.lower()}",
                                      policy.control_for(path, grid), grid)
        return columns

    def bands() -> Columns:
        rows = _bands(params, times, scenario.levels, ensemble, scenario.mc_paths)
        return [("time", times), ("mean", mean),
                *((f"q{lv}", row) for lv, row in zip(scenario.levels, rows))]

    def cost() -> Columns:
        names = [name for name, _ in policies]
        analytic = [cumrmse_analytic(params, grid.speed, name, grid.horizon,
                                     update_interval=scenario.update_interval)
                    for name in names]
        reports = [mc_cost_estimate(ensemble(), grid, policy)
                   for _, policy in policies]
        return [("method", names), ("cumrmse_analytic", analytic),
                ("cumrmse_mc", [r.cumrmse for r in reports]),
                ("cumrmse_mc_se", [r.cumrmse_se for r in reports]),
                ("expected_cost_mc", [r.expected_cost for r in reports]),
                ("expected_cost_mc_se", [r.expected_cost_se for r in reports])]

    return {"paths": paths, "control": control, "bands": bands, "cost": cost}


def _deterministic_artifacts(scenario: Scenario, grid: Grid
                             ) -> dict[str, Callable[[], Columns]]:
    """The control and cost columns of a perfectly known demand; paths and
    bands are meaningless without randomness, so a run skips them."""
    profile = scenario.profile
    times = grid.times()

    def control() -> Columns:
        return [("time", times), ("demand", profile.at(times)),
                *_injection("", minimize_control_direct(profile, grid), grid)]

    def cost() -> Columns:
        u = minimize_control(profile, grid)
        y = upwind_solve(grid, None, u).outflow
        sup_err = np.max(np.abs(y[grid.delay_steps:]
                                - profile.at(grid.output_times())))
        report = deterministic_cost(profile, grid, u)
        return [("sup_tracking_error", [sup_err]),
                ("expected_cost", [report.expected_cost]),
                ("cumrmse", [report.cumrmse])]

    return {"control": control, "cost": cost}


def run_scenario(scenario: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Run the requested pipeline and write one CSV per requested artifact,
    all or none (see :func:`_write_artifacts`): each artifact's columns are
    built when its turn comes and written row by row.

    A stochastic run samples one ensemble of ``max(mc_paths, 2)`` paths on
    first use, or refuses it naming paths or jump.intensity if it is over
    ``MAX_CELLS`` or ``MAX_JUMP_EVENTS``, and every artifact reads its rows
    from it: the Monte-Carlo cost all of them, the bands the first
    ``mc_paths``, the displayed paths the first ``n_display_paths``, and the
    control study row 0.  Row ``i`` is the path drawn from
    ``substream(seed, i)`` in every case.

    Deterministic given (scenario, seed): repeated runs produce byte-identical
    files.
    """
    grid = scenario_grid(scenario)
    schedule = scenario_schedule(scenario, grid)
    artifacts = (_deterministic_artifacts(scenario, grid)
                 if scenario.profile is not None
                 else _stochastic_artifacts(scenario, grid, schedule))
    return _write_artifacts(out_dir, ((name, artifacts[name]())
                                      for name in scenario.outputs if name in artifacts))


# ---------------------------------------------------------------------------
# Update-interval convergence study
# ---------------------------------------------------------------------------

def convergence_study(scenario: Scenario, update_intervals) -> list[dict]:
    """Gap between the re-optimised scheduled control and the continuously
    informed one, on a single seeded path, for each update interval.

    The gap is the time integral of |y_scheduled - y_continuous| over the
    scored window; it shrinks to the solver tolerance as the interval
    approaches one lattice step.  Every outflow is one :func:`upwind_solve`
    from an empty line: the CM3 reference's, and each interval control's
    through :func:`sequential_update_solve`.  At Courant 1 each is the
    control delayed by the transport time, with no march.
    """
    if scenario.profile is not None:
        raise ConfigError("profile", "convergence study needs a stochastic demand")
    intervals = [float(dtup) for dtup in update_intervals]
    if not intervals:
        raise ConfigError("dtup", "need at least one update interval")
    grid = scenario_grid(scenario)
    try:
        schedules = [UpdateSchedule.regular(dtup, grid.horizon - grid.delay, grid.dt)
                     for dtup in intervals]
    except ValueError as err:
        raise ConfigError("dtup", str(err)) from None
    params = scenario.params
    path = sample_path(params, grid.times(), substream(scenario.seed, 0))
    d0 = grid.delay_steps
    y3 = upwind_solve(grid, None, Cm3Policy(params).control_for(path, grid)).outflow[d0:]
    out_t = grid.output_times()

    def gap(schedule: UpdateSchedule) -> float:
        y = sequential_update_solve(params, grid, schedule, path)[1].outflow[d0:]
        return float(np.trapezoid(np.abs(y - y3), out_t))

    return [{"update_interval": dtup,
             "lattice_steps": int(round(dtup / grid.dt)),
             "cumrmse_gap": gap(s)}
            for dtup, s in zip(intervals, schedules)]


def write_convergence(scenario: Scenario, update_intervals,
                      out_dir: str | Path) -> Path:
    rows = convergence_study(scenario, update_intervals)
    return _write_artifacts(out_dir, [("convergence", [
        ("update_interval", [row["update_interval"] for row in rows]),
        ("lattice_steps", [str(row["lattice_steps"]) for row in rows]),
        ("cumrmse_gap", [row["cumrmse_gap"] for row in rows])])])["convergence"]


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def _real(value) -> float:
    """``float(value)``, refusing a boolean: YAML reads true as 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """``int(value)``, refusing a boolean and a float that is not a whole number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _items(value) -> list:
    """``value``, refusing anything but a list or a tuple: a string would
    be read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{value!r} is not a list")
    return value


def _law_from_config(cfg, field: str, laws: dict):
    """The law ``{type, <argument keys>}`` out of ``laws``, or ConfigError(field)."""
    try:  # TypeError: not a mapping, or an unhashable type
        law, keys, read = laws[cfg["type"]]
    except (KeyError, TypeError):
        raise ConfigError(field, f"expected a mapping with a 'type' out of "
                                 f"{', '.join(laws)}") from None
    try:
        return law(*(read(cfg[key]) for key in keys))
    except KeyError as err:
        raise ConfigError(field, f"missing key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(field, str(err)) from None


def _jump_from_config(cfg) -> JumpSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("jump", "expected a mapping")
    law = _law_from_config(cfg.get("height", {"type": "constant", "value": 0.0}),
                           "jump.height", _HEIGHTS)
    try:
        return JumpSpec(intensity=_real(cfg.get("intensity", 0.0)), height_law=law)
    except (TypeError, ValueError) as err:
        raise ConfigError("jump", str(err)) from None


# Each scalar config key, in reading order: the Scenario field it sets and
# the reader of its value.
_SCALARS: dict[str, tuple[str, Callable]] = {
    "speed": ("speed", _real),
    "horizon": ("horizon", _real),
    "dx": ("dx", _real),
    "update_interval": ("update_interval", lambda v: None if v is None else _real(v)),
    "paths": ("mc_paths", _integer),
    "seed": ("seed", _integer),
    "n_display_paths": ("n_display_paths", _integer),
    "outputs": ("outputs", lambda v: tuple(str(a) for a in _items(v))),
    "levels": ("levels", lambda v: tuple(map(_real, _items(v)))),
}
# Each law family by config type: the class, its argument keys in order and
# the reader of every argument.
_FORECASTS = {
    "constant": (ConstantMean, ("level",), _real),
    "sinusoid": (SinusoidMean, ("offset", "amplitude", "angular_freq"), _real),
    "tabulated": (TabulatedMean, ("times", "values"),
                  partial(np.asarray, dtype=float)),
}
_HEIGHTS = {
    "constant": (ConstantHeight, ("value",), _real),
    "normal": (NormalHeight, ("loc", "scale"), _real),
    "lognormal": (LognormalHeight, ("log_mean", "log_std"), _real),
}
# The DemandParams coefficients, in reading order, and their readers.
_COEFFICIENTS: dict[str, Callable] = {
    "kappa": _real, "sigma": _real, "y0": _real,
    "mean": partial(_law_from_config, field="mean", laws=_FORECASTS),
    "jump": _jump_from_config,
}
_KNOWN_KEYS = {*_SCALARS, *_COEFFICIENTS, "preset", "profile"}


def _read(cfg: dict, key: str, reader: Callable):
    """``reader(cfg[key])``; a value it cannot take is a ConfigError on key."""
    try:
        return reader(cfg[key])
    except ConfigError:  # a law reader names its own field
        raise
    except (TypeError, ValueError):
        raise ConfigError(key, f"cannot read {cfg[key]!r}") from None


def load_config(path: str | Path) -> dict:
    """Read a YAML scenario file into a mapping (see
    :func:`scenario_from_config` for the accepted keys)."""
    import yaml

    # libyaml's parser, where PyYAML was built with it, under yaml.safe_load's
    # constructor and resolver; read as bytes, whose encoding the parser detects
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, "rb") as fh:
        try:
            cfg = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as err:
            raise ConfigError("config", f"not valid YAML: {err}") from None
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level of the config must be a mapping")
    return cfg


def scenario_from_config(cfg: dict, *, preset_name: str | None = None,
                         seed: int | None = None, paths: int | None = None) -> Scenario:
    """Build a scenario from a config mapping plus CLI overrides.

    Config values override the preset's fields; the flags (preset, seed,
    paths) override the config once every config value is read.  The keys,
    read by ``_SCALARS`` and ``_COEFFICIENTS``, are these; others are refused:

    - ``preset``: PS1, PS2, PS3 or deterministic-fig5; without one, a custom
      scenario starts from speed 1, horizon 2 and dx 0.1.
    - Scalars: the numbers ``speed``, ``horizon``, ``dx`` and
      ``update_interval`` (null for none); the whole numbers ``paths``,
      ``seed`` and ``n_display_paths``; ``outputs``, a list out of paths,
      control, bands and cost, one at least that the demand writes;
      ``levels``, a list of confidence levels in (0, 1).  Neither list may
      repeat an entry.  No boolean is read as a number.
    - Stochastic demand, read in this order: the numbers ``kappa``,
      ``sigma`` and ``y0``, a ``mean`` forecast and ``jump: {intensity,
      height}``, where ``height`` is ``{type: constant, value}`` (value 0 by
      default), ``{type: normal, loc, scale}`` or ``{type: lognormal,
      log_mean, log_std}``.  Without a stochastic preset, all five are needed.
    - Known demand, which writes only control and cost: a ``profile`` forecast,
      beside no coefficient.  A forecast is ``{type: constant, level}``,
      ``{type: sinusoid, offset, amplitude, angular_freq}`` or ``{type:
      tabulated, times, values}`` with finite, strictly increasing knot times
      covering the horizon.  With neither, the demand is the preset's.
    """
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
    chosen = preset_name or cfg.get("preset")
    fields = (dict(vars(preset(chosen))) if chosen else
              {"speed": 1.0, "horizon": 2.0, "dx": 0.1})
    for key, (field, reader) in _SCALARS.items():
        if key in cfg:
            fields[field] = _read(cfg, key, reader)

    given = [key for key in _COEFFICIENTS if key in cfg]
    if "profile" in cfg:
        if given:
            raise ConfigError(given[0], "a profile (a known demand) takes no coefficient")
        fields.update(params=None,
                      profile=_law_from_config(cfg["profile"], "profile", _FORECASTS))
    elif given or fields.get("profile") is None:
        base = fields.get("params")
        coefficients = {}
        for key, reader in _COEFFICIENTS.items():
            if key in cfg:
                coefficients[key] = _read(cfg, key, reader)
            elif base is None:
                raise ConfigError(
                    "params", "a stochastic demand needs kappa, sigma, y0, mean "
                              "and jump, unless a stochastic preset gives them")
            else:
                coefficients[key] = getattr(base, key)
        try:
            fields.update(profile=None, params=DemandParams(**coefficients))
        except ValueError as err:
            # each message starts with the coefficient at fault
            raise ConfigError(str(err).split()[0], str(err)) from None

    for field, flag in (("seed", seed), ("mc_paths", paths)):
        if flag is not None:
            fields[field] = int(flag)
    return Scenario(**fields)
