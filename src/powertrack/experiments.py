"""Scenario-driven experiment runners with CSV artifacts.

A :class:`Scenario` bundles everything one run needs: demand parameters,
transport speed and horizon, lattice resolution, an optional update
schedule, the Monte-Carlo budget and the master seed.  Runners emit plain
CSV files (one header line, repr-formatted floats) so that plots can be
produced by any external tool; identical scenarios and seeds produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Sequence

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
    """Complete description of one experiment run."""

    name: str
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

    @property
    def demand_mode(self) -> str:
        return "deterministic" if self.profile is not None else "stochastic"


PRESET_NAMES = ("PS1", "PS2", "PS3", "deterministic-fig5")

_TWO_PI = 2.0 * np.pi


def preset(name: str) -> Scenario:
    """Built-in scenarios used throughout the test suite and demos."""
    base_mean = SinusoidMean(offset=2.0, amplitude=3.0, angular_freq=_TWO_PI)
    if name == "PS1":
        params = DemandParams(kappa=1.0, sigma=2.0, mean=base_mean, y0=1.0,
                              jump=JumpSpec(5.0, ConstantHeight(0.0)))
        return Scenario(name="PS1", speed=4.0, horizon=1.0, dx=0.1,
                        params=params, update_interval=0.125)
    if name == "PS2":
        ps1 = preset("PS1")
        return replace(ps1, name="PS2", params=replace(ps1.params, kappa=3.0))
    if name == "PS3":
        ps2 = preset("PS2")
        return replace(ps2, name="PS3",
                       params=replace(ps2.params,
                                      jump=JumpSpec(5.0, ConstantHeight(1.0))))
    if name == "deterministic-fig5":
        return Scenario(name="deterministic-fig5", speed=2.0, horizon=5.0,
                        dx=0.5, profile=SinusoidMean(2.0, 1.0, 0.5 * np.pi),
                        outputs=("control", "cost"))
    raise ConfigError("preset", f"unknown preset {name!r}; "
                                f"choose one of {', '.join(PRESET_NAMES)}")


def _check_lattice_fields(scenario: Scenario) -> None:
    for field in ("speed", "horizon", "dx"):
        value = getattr(scenario, field)
        if value is None or not (math.isfinite(value) and value > 0):
            raise ConfigError(field, f"must be finite and > 0, got {value!r}")


def scenario_grid(scenario: Scenario) -> Grid:
    _check_lattice_fields(scenario)
    if scenario.horizon <= 1.0 / scenario.speed:
        raise ConfigError("horizon", "must exceed the transport delay 1/speed")
    try:
        return Grid.make(scenario.speed, scenario.dx, scenario.horizon)
    except ValueError as err:
        raise ConfigError("dx", str(err)) from None


def scenario_schedule(scenario: Scenario, grid: Grid) -> UpdateSchedule | None:
    if scenario.update_interval is None:
        return None
    try:
        return UpdateSchedule.regular(scenario.update_interval,
                                      grid.horizon - grid.delay, grid.dt)
    except ValueError as err:
        raise ConfigError("update_interval", str(err)) from None


def _check_forecast(mean: MeanFunction, horizon: float, field: str) -> None:
    try:
        mean.at(np.array([0.0, horizon]))
    except ValueError as err:
        raise ConfigError(field, f"{err}: the forecast must cover [0, {horizon!r}]"
                          ) from None


def _validate_scenario(scenario: Scenario) -> None:
    _check_lattice_fields(scenario)
    if scenario.demand_mode == "stochastic":
        if scenario.params is None:
            raise ConfigError("params", "stochastic scenarios need demand parameters")
        _check_forecast(scenario.params.mean, scenario.horizon, "mean")
    else:
        _check_forecast(scenario.profile, scenario.horizon, "profile")
    if scenario.mc_paths < 1:
        raise ConfigError("paths", "Monte-Carlo budget must be >= 1")
    if scenario.n_display_paths < 0:
        raise ConfigError("n_display_paths", "must be >= 0")
    if scenario.seed < 0:
        raise ConfigError("seed", "seed must be >= 0")
    if not scenario.levels:
        raise ConfigError("levels", "need at least one confidence level")
    for level in scenario.levels:
        if not (0.0 < level < 1.0):
            raise ConfigError("levels", f"confidence level {level} outside (0, 1)")
    for artifact in scenario.outputs:
        if artifact not in ARTIFACTS:
            raise ConfigError("outputs", f"unknown artifact {artifact!r}")


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

Columns = Sequence[tuple[str, Sequence]]


def _fmt(x, artifact: str, column: str) -> str:
    """One CSV cell: text as is, None as empty, numbers as repr(float)."""
    if x is None or isinstance(x, str):
        return x or ""
    value = float(x)
    if not math.isfinite(value):
        raise ArtifactError(artifact, column, value)
    return repr(value)


def _write_csv(path: Path, columns: Columns) -> Path:
    """Write ``(name, column)`` pairs, names repeating as they come, as a
    header and one row per index; every cell is formatted, row by row, before
    the file is opened, so a non-finite number raises :class:`ArtifactError`."""
    names = [name for name, _ in columns]
    lines = [",".join(names)]
    for row in zip(*(column for _, column in columns), strict=True):
        lines.append(",".join(_fmt(x, path.name, name)
                              for name, x in zip(names, row)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Confidence bands
# ---------------------------------------------------------------------------

def _bands(params: DemandParams, times: np.ndarray, levels: Sequence[float],
           ensemble: Callable[[], PathEnsemble], n_paths: int) -> np.ndarray:
    """Quantile curves, one row per level: exact (mean + z sqrt(var)) when
    jumps cannot move the path and the marginal law is Gaussian, otherwise
    empirical over the first ``n_paths`` rows of ``ensemble()``."""
    if not levels:
        raise ValueError("need at least one confidence level")
    for lv in levels:
        if not (0.0 < lv < 1.0):
            raise ValueError(f"confidence level {lv} outside (0, 1)")
    if not params.jump.active:
        from scipy.special import ndtri  # the standard normal quantile

        mean = np.atleast_1d(first_moment(params, times))
        var = np.atleast_1d(conditional_variance(params, times))
        sd = np.sqrt(var)
        return np.vstack([mean + ndtri(lv) * sd for lv in levels])
    return np.quantile(ensemble().values[:n_paths], levels, axis=0)


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
    _validate_scenario(scenario)
    if scenario.demand_mode != "stochastic":
        raise ConfigError("demand_mode", "bands need a stochastic demand")
    # the bands read no update schedule, so none is built or checked
    return run_scenario(replace(scenario, outputs=("bands",), update_interval=None),
                        out_dir)["bands"]


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def _hold_series(u: ControlSignal, grid: Grid) -> list[float | None]:
    """Control values on the full lattice, None past the control horizon."""
    return u.values.tolist() + [None] * (grid.nt + 1 - u.values.size)


def _injection(suffix: str, u: ControlSignal, grid: Grid) -> Columns:
    """A control and the outflow it sends down an empty line."""
    return [(f"u{suffix}", _hold_series(u, grid)),
            (f"y{suffix}", upwind_solve(grid, None, u).outflow)]


def _stochastic_artifacts(scenario: Scenario, grid: Grid,
                          schedule: UpdateSchedule | None
                          ) -> dict[str, Callable[[], Columns]]:
    """The columns of each artifact of a stochastic run, built on call from
    one mean curve, one list of policies and one lazily sampled ensemble."""
    params = scenario.params
    times = grid.times()
    mean = first_moment(params, times)
    ensemble = cache(partial(sample_paths, params, times,
                             max(scenario.mc_paths, 2), scenario.seed))
    cm2 = [] if schedule is None else [("CM2", Cm2Policy(params, schedule))]
    policies = [("CM1", Cm1Policy(params)), *cm2, ("CM3", Cm3Policy(params))]

    def paths() -> Columns:
        n = min(scenario.n_display_paths, scenario.mc_paths)
        values = ensemble().values[:n]
        return [("time", times), ("mean", mean),
                *((f"path_{j}", values[j]) for j in range(n))]

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
    """Run the requested pipeline and write one CSV per requested artifact.

    A stochastic run samples one ensemble of ``max(mc_paths, 2)`` paths, on
    first use, and every artifact reads its rows from it: the Monte-Carlo
    cost all of them, the bands the first ``mc_paths``, the displayed paths
    the first ``n_display_paths``, and the control study row 0.  Row ``i``
    is the path drawn from ``substream(seed, i)`` in every case.

    Deterministic given (scenario, seed): repeated runs produce byte-identical
    files.
    """
    _validate_scenario(scenario)
    grid = scenario_grid(scenario)
    schedule = scenario_schedule(scenario, grid)
    artifacts = (_deterministic_artifacts(scenario, grid)
                 if scenario.demand_mode == "deterministic"
                 else _stochastic_artifacts(scenario, grid, schedule))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {name: _write_csv(out_dir / f"{name}.csv", artifacts[name]())
            for name in scenario.outputs if name in artifacts}


# ---------------------------------------------------------------------------
# Update-interval convergence study
# ---------------------------------------------------------------------------

def convergence_study(scenario: Scenario, update_intervals) -> list[dict]:
    """Gap between the re-optimised scheduled control and the continuously
    informed one, on a single seeded path, for each update interval.

    The gap is the time integral of |y_scheduled - y_continuous| over the
    scored window; it shrinks to the solver tolerance as the interval
    approaches one lattice step.
    """
    _validate_scenario(scenario)
    if scenario.demand_mode != "stochastic":
        raise ConfigError("demand_mode", "convergence study needs a stochastic demand")
    grid = scenario_grid(scenario)
    params = scenario.params
    path = sample_path(params, grid.times(), substream(scenario.seed, 0))
    u3 = Cm3Policy(params).control_for(path, grid)
    y3 = upwind_solve(grid, None, u3).outflow
    out_t = grid.output_times()
    d0 = grid.delay_steps
    rows = []
    for dtup in update_intervals:
        try:
            schedule = UpdateSchedule.regular(float(dtup),
                                              grid.horizon - grid.delay, grid.dt)
        except ValueError as err:
            raise ConfigError("dtup", str(err)) from None
        _, field = sequential_update_solve(params, grid, schedule, path)
        gap = float(np.trapezoid(np.abs(field.outflow[d0:] - y3[d0:]), out_t))
        rows.append({
            "update_interval": float(dtup),
            "lattice_steps": int(round(float(dtup) / grid.dt)),
            "cumrmse_gap": gap,
        })
    return rows


def write_convergence(scenario: Scenario, update_intervals,
                      out_dir: str | Path) -> Path:
    rows = convergence_study(scenario, update_intervals)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write_csv(out_dir / "convergence.csv", [
        ("update_interval", [row["update_interval"] for row in rows]),
        ("lattice_steps", [str(row["lattice_steps"]) for row in rows]),
        ("cumrmse_gap", [row["cumrmse_gap"] for row in rows])])


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_MEAN_TYPES = ("constant", "sinusoid", "tabulated")
_HEIGHT_TYPES = ("constant", "normal", "lognormal")


def _mean_from_config(cfg: dict, field: str) -> MeanFunction:
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(field, "expected a mapping with a 'type' key")
    kind = cfg["type"]
    try:
        if kind == "constant":
            return ConstantMean(level=float(cfg["level"]))
        if kind == "sinusoid":
            return SinusoidMean(offset=float(cfg["offset"]),
                                amplitude=float(cfg["amplitude"]),
                                angular_freq=float(cfg["angular_freq"]))
        if kind == "tabulated":
            return TabulatedMean(times=np.asarray(cfg["times"], dtype=float),
                                 values=np.asarray(cfg["values"], dtype=float))
    except KeyError as err:
        raise ConfigError(field, f"missing key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(field, str(err)) from None
    raise ConfigError(field, f"type must be one of {', '.join(_MEAN_TYPES)}")


def _jump_from_config(cfg: dict, field: str) -> JumpSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(field, "expected a mapping")
    height_cfg = cfg.get("height", {"type": "constant", "value": 0.0})
    if not isinstance(height_cfg, dict):
        raise ConfigError(f"{field}.height", "expected a mapping")
    kind = height_cfg.get("type")
    try:
        if kind == "constant":
            law = ConstantHeight(float(height_cfg["value"]))
        elif kind == "normal":
            law = NormalHeight(float(height_cfg["loc"]), float(height_cfg["scale"]))
        elif kind == "lognormal":
            law = LognormalHeight(float(height_cfg["log_mean"]),
                                  float(height_cfg["log_std"]))
        else:
            raise ConfigError(f"{field}.height",
                              f"type must be one of {', '.join(_HEIGHT_TYPES)}")
    except KeyError as err:
        raise ConfigError(f"{field}.height", f"missing key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{field}.height", str(err)) from None
    try:
        return JumpSpec(intensity=float(cfg.get("intensity", 0.0)), height_law=law)
    except (TypeError, ValueError) as err:
        raise ConfigError(field, str(err)) from None


_KNOWN_KEYS = {
    "name", "preset", "speed", "horizon", "dx", "kappa", "sigma", "y0",
    "mean", "jump", "update_interval", "paths", "seed", "outputs", "levels",
    "demand_mode", "profile", "n_display_paths",
}


def _integer(value) -> int:
    """``int(value)``, refusing a float that is not a whole number."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def load_config(path: str | Path) -> dict:
    """Read a YAML scenario file into a mapping (see
    :func:`scenario_from_config` for the accepted keys)."""
    import yaml

    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
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

    Flag values (preset, seed, paths) override the corresponding config
    entries; scalar config entries override preset fields.  Any other key
    is refused.  The keys are:

    - ``preset``: PS1, PS2, PS3 or deterministic-fig5, the starting point;
      ``name``: the scenario's name.
    - ``speed``, ``horizon``, ``dx``, ``update_interval``: numbers (the
      interval may be null); ``paths``, ``seed``, ``n_display_paths``:
      whole numbers; ``outputs``: artifact names out of paths, control,
      bands and cost; ``levels``: confidence levels in (0, 1).
    - ``demand_mode``: ``stochastic`` or ``deterministic``; the preset's
      mode by default.
    - Stochastic demand: ``kappa``, ``sigma``, ``y0`` numbers, a ``mean``
      forecast, and ``jump: {intensity, height}``, where ``height`` is
      ``{type: constant, value}``, ``{type: normal, loc, scale}`` or
      ``{type: lognormal, log_mean, log_std}`` (default constant 0).
    - Deterministic demand: a ``profile`` forecast.
    - A forecast (``mean`` or ``profile``) is ``{type: constant, level}``,
      ``{type: sinusoid, offset, amplitude, angular_freq}`` or
      ``{type: tabulated, times, values}`` with finite, strictly
      increasing knot times covering the horizon.
    """
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
    chosen = preset_name or cfg.get("preset")
    scenario = preset(chosen) if chosen else Scenario(
        name=str(cfg.get("name", "custom")), speed=1.0, horizon=2.0, dx=0.1)

    def convert(key: str, kind):
        try:
            return kind(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(key, f"cannot read {cfg[key]!r}") from None

    updates: dict = {}
    if "name" in cfg:
        updates["name"] = str(cfg["name"])
    for field in ("speed", "horizon", "dx", "update_interval"):
        if field in cfg:
            updates[field] = None if cfg[field] is None else convert(field, float)
    if "paths" in cfg:
        updates["mc_paths"] = convert("paths", _integer)
    if "seed" in cfg:
        updates["seed"] = convert("seed", _integer)
    if "n_display_paths" in cfg:
        updates["n_display_paths"] = convert("n_display_paths", _integer)
    if "outputs" in cfg:
        updates["outputs"] = convert("outputs", lambda v: tuple(str(a) for a in v))
    if "levels" in cfg:
        updates["levels"] = convert("levels", lambda v: tuple(float(lv) for lv in v))

    mode = cfg.get("demand_mode", scenario.demand_mode)
    if mode == "deterministic":
        profile = scenario.profile
        if "profile" in cfg:
            profile = _mean_from_config(cfg["profile"], "profile")
        if profile is None:
            raise ConfigError("profile", "deterministic demand needs a profile")
        updates["profile"] = profile
        updates["params"] = None
    elif mode == "stochastic":
        updates["profile"] = None
        base = scenario.params
        needs = [k for k in ("kappa", "sigma", "y0", "mean") if k in cfg]
        if base is None or needs or "jump" in cfg:
            try:
                kappa = convert("kappa", float) if "kappa" in cfg else base.kappa
                sigma = convert("sigma", float) if "sigma" in cfg else base.sigma
                y0 = convert("y0", float) if "y0" in cfg else base.y0
                mean = (_mean_from_config(cfg["mean"], "mean")
                        if "mean" in cfg else base.mean)
                jump = (_jump_from_config(cfg["jump"], "jump")
                        if "jump" in cfg else base.jump)
            except AttributeError:
                raise ConfigError(
                    "params", "custom scenarios must define kappa, sigma, y0, "
                              "mean and jump (or start from a preset)") from None
            try:
                updates["params"] = DemandParams(kappa=kappa, sigma=sigma,
                                                 mean=mean, y0=y0, jump=jump)
            except ValueError as err:
                # each message starts with the coefficient at fault
                raise ConfigError(str(err).split()[0], str(err)) from None
    else:
        raise ConfigError("demand_mode",
                          "must be 'stochastic' or 'deterministic'")

    scenario = replace(scenario, **updates)
    if seed is not None:
        scenario = replace(scenario, seed=int(seed))
    if paths is not None:
        scenario = replace(scenario, mc_paths=int(paths))
    return scenario
