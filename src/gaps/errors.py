"""Exception types shared across the package, and the checks that an integer
or real setting is one."""

import math
import numbers


def require_integer(name: str, value):
    """Return value if it is an integer (a bool is not), else raise
    TypeError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def require_real(name: str, value):
    """Return value if it is a finite real number (a bool is not), else raise
    TypeError or ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class GapsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GapsError):
    """An argument's shape is inconsistent with the system dimensions."""


class NonConvergence(GapsError):
    """An iterative solver hit its iteration cap before converging."""


class SingularMatrix(GapsError):
    """A matrix that must be inverted is singular (pivot below threshold)."""


class StateBlowup(GapsError):
    """A rollout state norm exceeded the instability cap."""

    def __init__(self, t: int, norm: float, cap: float):
        super().__init__(f"state norm {norm:.3e} exceeded cap {cap:.3e} at step {t}")
        self.t = t
        self.norm = norm
        self.cap = cap


class NonFiniteGradient(GapsError):
    """A gradient contained NaN or Inf, signalling upstream blow-up."""


class ZeroProbabilitySampled(GapsError):
    """An arm with zero probability was reported as sampled (defensive)."""


class Divergence(GapsError):
    """A perturbation rollout grew instead of contracting."""


class NoContraction(GapsError):
    """The sampled decay curves show no contraction: the 99th-percentile
    windowed contraction ratio is at least 1."""


class PiecewiseConstantPolicy(GapsError, ValueError):
    """A policy that selects among discrete arms is piecewise constant in
    theta, so every surrogate gradient is zero."""


class EmptyGrid(GapsError):
    """A regret computation was given an empty parameter grid."""


class NonPositiveRegret(GapsError):
    """Slope fitting requires strictly positive regret values."""


class ConfigError(GapsError):
    """An experiment configuration is malformed or has unknown keys."""
