"""powertrack: optimal electricity injection under uncertain demand.

Simulates mean-reverting demand with optional jumps, solves the transport of
injected power along a line, and computes (analytically and numerically) the
injection plans that minimise the expected squared tracking error for three
information levels: forecast only, periodic demand updates, and continuous
observation.
"""

from .control import (
    UpdateSchedule,
    cm1_control,
    cm2_control,
    cm3_control,
)
from .costopt import (
    Cm1Policy,
    Cm2Policy,
    Cm3Policy,
    ConvergenceError,
    CostReport,
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
    DemandPath,
    JumpSpec,
    LognormalHeight,
    NormalHeight,
    PathEnsemble,
    SinusoidMean,
    TabulatedMean,
    sample_ensemble,
    sample_path,
    sample_paths,
    substream,
)
from .experiments import (
    ArtifactError,
    ConfigError,
    Scenario,
    confidence_bands,
    convergence_study,
    preset,
    run_scenario,
    scenario_grid,
    scenario_schedule,
)
from .moments import (
    conditional_mean,
    conditional_variance,
    first_moment,
    jump_sum_moments,
    second_moment,
    weighted_mean_integral,
)
from .transport import (
    CFLError,
    ControlSignal,
    FieldState,
    Grid,
    upwind_solve,
    validate_cfl,
)

__version__ = "0.1.0"
