"""Online policy selection on a single trajectory.

Streaming gradient-based selection with an O(B)-memory sensitivity buffer,
a batched bandit selector for finite parameter sets, exact resimulation
oracles, regret metrics, empirical contraction estimation, and benchmark
environments.
"""

from . import envs
from .baps import BapsConfig, BapsResult, baps_update, run_baps
from .contraction import (
    ContractionEstimate,
    estimate_contraction,
    estimate_stability_radius,
    sample_slow_sequence,
)
from .core import GapsConfig, GapsState, default_buffer_length, gaps_step, run_gaps
from .errors import (
    ConfigError,
    DimensionMismatch,
    Divergence,
    EmptyGrid,
    GapsError,
    NoContraction,
    NonConvergence,
    NonFiniteGradient,
    NonPositiveRegret,
    PiecewiseConstantPolicy,
    SingularMatrix,
    StateBlowup,
    ZeroProbabilitySampled,
)
from .linalg import FiniteHorizonLq, RiccatiSolution, finite_horizon_lq, solve_dare
from .metrics import (
    DynamicRegretReport,
    RegretReport,
    dynamic_regret,
    local_regret,
    make_theta_grid,
    regret_slope,
    static_and_adaptive_regret,
    surrogate_table,
    variation_intensity,
)
from .oracles import (
    FiniteMemoryGradient,
    Surrogates,
    finite_memory_gradient,
    ideal_gradient,
    run_ideal_ogd,
    surrogate_cost,
    surrogates,
)
from .system import (
    Ball,
    Box,
    ControlSystem,
    JacobianReport,
    ParameterSet,
    StepJacobians,
    Trajectory,
    WholeSpace,
    check_jacobians,
    closed_loop,
    rollout,
)

__version__ = "0.1.0"
