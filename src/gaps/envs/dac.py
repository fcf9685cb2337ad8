"""Disturbance-action control: linear policy in past disturbances.

u = -K_stb x + sum_i M[i] w_{t-i} on top of a stabilizing state feedback.
The parameter is the stacked (M[1..h]) block, constrained to a Frobenius
ball, which keeps the Euclidean projection closed-form. (The spectral-norm
sum constraint this stands in for has no closed-form projection.)
"""

from __future__ import annotations

import numpy as np

from ..linalg import per_step, quadratic_cost, row_matmul, solve_dare
from ..system import Ball, ControlSystem, StepJacobians


class DacEnv(ControlSystem):
    def __init__(
        self,
        A,
        B,
        Q,
        R,
        K_stb,
        history: int,
        disturbances: np.ndarray,  # (T, n)
        radius: float,
        x0=None,
    ):
        self.w = np.atleast_2d(np.asarray(disturbances, dtype=float))
        self.T = self.w.shape[0]
        self.A = per_step(A, self.T)
        self.B = per_step(B, self.T)
        self.Q = per_step(Q, self.T)
        self.R = per_step(R, self.T)
        self.K_stb = per_step(K_stb, self.T)
        self.h = int(history)
        self.n = self.A.shape[1]
        self.m = self.B.shape[2]
        self.d = self.h * self.m * self.n
        self.theta_set = Ball(np.zeros(self.d), radius)
        self.x0 = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float)

    def _past_w(self, t: int) -> np.ndarray:
        """(h, n) stack of w_{t-1}, ..., w_{t-h}; disturbances before the
        start of time are zero."""
        return np.stack(
            [self.w[t - lag] if t - lag >= 0 else np.zeros(self.n) for lag in range(1, self.h + 1)]
        )

    def matrices(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return theta.reshape(theta.shape[:-1] + (self.h, self.m, self.n))

    # The step math below broadcasts over a leading lane axis of x, theta
    # and u, so the lane-axis entry points are the same methods; row_matmul
    # gives each lane the bits a single state gets.

    def policy(self, t, x, theta):
        past = np.einsum("...hmn,hn->...m", self.matrices(theta), self._past_w(t))
        return row_matmul(-x, self.K_stb[t]) + past

    def dynamics(self, t, x, u):
        return row_matmul(x, self.A[t]) + row_matmul(u, self.B[t]) + self.w[t]

    def cost(self, t, x, u):
        return quadratic_cost(x, self.Q[t], u, self.R[t])

    def jacobians(self, t, x, theta):
        u = self.policy(t, x, theta)
        blocks = [np.kron(np.eye(self.m), w[None, :]) for w in self._past_w(t)]
        return StepJacobians(
            dg_dx=self.A[t],
            dg_du=self.B[t],
            dpi_dx=-self.K_stb[t],
            dpi_dtheta=np.hstack(blocks),
            df_dx=2.0 * x @ self.Q[t].T,
            df_du=2.0 * u @ self.R[t].T,
        )

    policy_lanes = policy
    dynamics_lanes = dynamics
    cost_lanes = cost
    jacobians_lanes = jacobians


def make_dac_env(
    T: int,
    seed: int,
    n: int = 2,
    history: int = 3,
    radius: float = 2.0,
    w_bound: float = 1.0,
) -> DacEnv:
    """LTV system with bounded disturbances under a Riccati stabilizer.

    Disturbances are drawn uniformly from the ball of radius w_bound, so the
    stability-radius bound C * R_M * w_bound / (1 - rho) applies literally.
    The A_t sequence oscillates around a marginally unstable mean to keep
    the problem genuinely time-varying.
    """
    if n < 1:
        raise ValueError(f"state dimension n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    # Controllable companion form, slightly unstable, slowly oscillating.
    base = np.eye(n, k=1)
    base[-1] = np.linspace(0.3, 1.0, n)[::-1] * (-1.0) ** np.arange(n)
    base[-1, -1] = 1.05
    A = np.stack([base * (1.0 + 0.05 * np.sin(0.01 * t)) for t in range(T)])
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    B = np.broadcast_to(B, (T, n, 1)).copy()
    Q = np.eye(n)
    R = np.array([[1.0]])
    K = np.stack([solve_dare(A[t], B[t], Q, R).K for t in range(T)])

    direction = rng.standard_normal((T, n))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    w = direction * w_bound * rng.uniform(size=(T, 1)) ** (1.0 / n)
    return DacEnv(A, B, Q, R, K, history, w, radius)
