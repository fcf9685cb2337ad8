"""Benchmark environments and baselines."""

from .confidence_mpc import ConfidenceMpcEnv, make_constant_noise_env, make_fig2_env
from .dac import DacEnv, make_dac_env
from .disturbances import IidGaussian, OrnsteinUhlenbeck, PiecewiseNoiseSchedule
from .ftl import ftl_confidence_baseline
from .horizon import (
    HorizonSelectionEnv,
    make_horizon_selection_env,
    run_baps_scalar_batch,
)
from .linear_feedback import LinearFeedbackEnv
from .pendulum import (
    PendulumEnv,
    PendulumParams,
    lqr_baseline,
    make_pendulum_env,
)

__all__ = [
    "ConfidenceMpcEnv",
    "DacEnv",
    "HorizonSelectionEnv",
    "IidGaussian",
    "LinearFeedbackEnv",
    "OrnsteinUhlenbeck",
    "PendulumEnv",
    "PendulumParams",
    "PiecewiseNoiseSchedule",
    "ftl_confidence_baseline",
    "lqr_baseline",
    "make_constant_noise_env",
    "make_dac_env",
    "make_fig2_env",
    "make_horizon_selection_env",
    "make_pendulum_env",
    "run_baps_scalar_batch",
]
