"""Disturbance and prediction-noise generators.

All randomness is drawn eagerly from a seeded generator so that an
environment is a deterministic function of time after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def require_scale(name: str, value):
    """Return value if every entry is finite and >= 0, else raise ValueError."""
    v = np.asarray(value, dtype=float)
    if not (np.isfinite(v).all() and (v >= 0).all()):
        raise ValueError(f"{name} must be finite and >= 0")
    return value


@dataclass
class IidGaussian:
    sigma: float

    def __post_init__(self):
        require_scale("sigma", self.sigma)

    def draw(self, T: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        return self.sigma * rng.standard_normal((T, dim))


def predicted_disturbances(
    T: int, k: int, seed: int, sigma_w: float, pred_sigma
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar disturbances w (T + k, 1), i.i.d. Gaussian of scale sigma_w,
    and predictions (T, k, 1): entry [t, i] is w_{t+i} plus Gaussian noise
    scaled by pred_sigma, which broadcasts against (T, k, 1)."""
    rng = np.random.default_rng(seed)
    w = IidGaussian(sigma_w).draw(T + k, 1, rng)
    noise = rng.standard_normal((T, k, 1)) * require_scale("prediction noise scale", pred_sigma)
    windows = np.lib.stride_tricks.sliding_window_view(w[:, 0], k)[:T]
    return w, windows[:, :, None] + noise


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
        require_scale("sigma", self.sigma)

    def draw(self, T: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        decay = 1.0 - self.mean_reversion * self.dt
        scale = self.sigma * np.sqrt(self.dt)
        out = np.empty((T, dim))
        w = np.zeros(dim)
        for t in range(T):
            w = decay * w + scale * rng.standard_normal(dim)
            out[t] = w
        return out
