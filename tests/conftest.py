"""Shared test systems.

TanhSystem is a randomized smooth nonlinear system with exact Jacobians and
bounded dynamics (the saturation keeps every rollout finite), used wherever
a generic differentiable plant is needed.
"""

import numpy as np
import pytest

from gaps.envs.horizon import HorizonSelectionEnv
from gaps.linalg import solve_dare
from gaps.system import ControlSystem, StepJacobians, WholeSpace


class TanhSystem(ControlSystem):
    """x' = S tanh(A x + B u + b_t), u = C x + D theta + eps tanh(E x)."""

    def __init__(self, n=2, m=2, d=2, seed=0, contraction=0.5, drift=0.05):
        rng = np.random.default_rng(seed)
        self.n, self.m, self.d = n, m, d
        self.A = rng.uniform(-1, 1, (n, n))
        self.A *= contraction / max(np.linalg.norm(self.A, 2), 1e-6)
        self.B = rng.uniform(-1, 1, (n, m)) * 0.4
        self.C = rng.uniform(-1, 1, (m, n)) * 0.3
        self.D = rng.uniform(-1, 1, (m, d)) * 0.5
        self.E = rng.uniform(-1, 1, (m, n)) * 0.7
        self.eps = 0.3
        self.S = rng.uniform(0.7, 1.0, n)
        self.Q = np.diag(rng.uniform(0.5, 1.5, n))
        self.R = np.diag(rng.uniform(0.5, 1.5, m))
        self.drift = drift
        self.x0 = rng.uniform(-0.3, 0.3, n)
        self.theta_set = WholeSpace(d)
        self.T = 10_000

    def _offset(self, t):
        return self.drift * np.sin(0.1 * t + np.arange(self.n))

    def policy(self, t, x, theta):
        return self.C @ x + self.D @ theta + self.eps * np.tanh(self.E @ x)

    def dynamics(self, t, x, u):
        return self.S * np.tanh(self.A @ x + self.B @ u + self._offset(t))

    def cost(self, t, x, u):
        return float(x @ self.Q @ x + u @ self.R @ u)

    def jacobians(self, t, x, theta):
        u = self.policy(t, x, theta)
        z = self.A @ x + self.B @ u + self._offset(t)
        gate = self.S[:, None] * (1.0 - np.tanh(z) ** 2)[:, None]
        dpi_dx = self.C + self.eps * (1.0 - np.tanh(self.E @ x) ** 2)[:, None] * self.E
        return StepJacobians(
            dg_dx=gate * self.A,
            dg_du=gate * self.B,
            dpi_dx=dpi_dx,
            dpi_dtheta=self.D.copy(),
            df_dx=2.0 * self.Q @ x,
            df_du=2.0 * self.R @ u,
        )


def two_state_horizon_env() -> HorizonSelectionEnv:
    """A horizon env with two states and one input over T = 80 steps: its
    `hold` and regret table run the shared loop, not the scalar segment."""
    T = 80
    rng = np.random.default_rng(8)
    A = np.array([[1.1, 0.3], [0.0, 0.9]])
    B = np.array([[0.0], [1.0]])
    Q, R = np.eye(2), np.eye(1)
    w = 0.5 * rng.standard_normal((T + 2, 2))
    preds = np.lib.stride_tricks.sliding_window_view(w, 2, axis=0)[:T].transpose(0, 2, 1)
    return HorizonSelectionEnv(A, B, Q, R, solve_dare(A, B, Q, R).P, [1, 2], w,
                               preds + 0.1 * rng.standard_normal((T, 2, 2)), x0=[0.5, -0.2])


def random_tanh_system(rng: np.random.Generator) -> TanhSystem:
    return TanhSystem(
        n=int(rng.integers(1, 4)),
        m=int(rng.integers(1, 4)),
        d=int(rng.integers(1, 4)),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.fixture
def tanh_system():
    return TanhSystem(seed=42)
