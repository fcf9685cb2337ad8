"""Disturbance and prediction-noise generators.

All randomness is drawn eagerly from a seeded generator so that an
environment is a deterministic function of time after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IidGaussian:
    sigma: float

    def draw(self, T: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        return self.sigma * rng.standard_normal((T, dim))


@dataclass
class OrnsteinUhlenbeck:
    """Mean-reverting random walk, Euler-Maruyama discretized.

    w_{t+1} = w_t (1 - mean_reversion * dt) + sigma * sqrt(dt) * xi_t.
    The stationary variance is finite iff 0 < mean_reversion * dt < 2; the
    lag-1 autocorrelation is 1 - mean_reversion * dt.
    """

    mean_reversion: float
    sigma: float
    dt: float

    def __post_init__(self):
        a = self.mean_reversion * self.dt
        if not 0.0 < a < 2.0:
            raise ValueError("need 0 < mean_reversion * dt < 2 for a stationary walk")

    def draw(self, T: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        decay = 1.0 - self.mean_reversion * self.dt
        scale = self.sigma * np.sqrt(self.dt)
        out = np.empty((T, dim))
        w = np.zeros(dim)
        for t in range(T):
            w = decay * w + scale * rng.standard_normal(dim)
            out[t] = w
        return out


@dataclass
class PiecewiseNoiseSchedule:
    """Prediction-noise sigma as a piecewise-constant function of time.

    segments is a list of (t_start, t_end, sigma) with t_end exclusive;
    times not covered by any segment get sigma 0.
    """

    segments: list[tuple[int, int, float]]

    def sigma_at(self, t: int) -> float:
        for t0, t1, sigma in self.segments:
            if t0 <= t < t1:
                return float(sigma)
        return 0.0

    def sigmas(self, T: int) -> np.ndarray:
        return np.array([self.sigma_at(t) for t in range(T)])

