"""Disturbance-action control: linear policy in past disturbances.

u = -K_stb x + sum_i M[i] w_{t-i} on top of a stabilizing state feedback.
The parameter is the stacked (M[1..h]) block, constrained to a Frobenius
ball, which keeps the Euclidean projection closed-form. (The spectral-norm
sum constraint this stands in for has no closed-form projection.)
"""

from __future__ import annotations

import numpy as np

from ..errors import require_integer
from ..linalg import per_step, row_matmul, solve_dare
from ..system import Ball
from .disturbances import require_scale
from .linear_quadratic import LinearQuadraticEnv


class DacEnv(LinearQuadraticEnv):
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
        super().__init__(A, B, Q, R, disturbances, x0)
        self.T = self.w.shape[0]
        self.K_stb = per_step(K_stb, self.T)
        self.h = require_integer("history", history)
        self.d = self.h * self.m * self.n
        self.theta_set = Ball(np.zeros(self.d), radius)
        # h zero rows followed by w, with w a view into it, so that edits to
        # w reach the history too: rows t .. t + h - 1 are w_{t-h} .. w_{t-1}.
        self._w_padded = np.concatenate([np.zeros((self.h, self.n)), self.w])
        self.w = self._w_padded[self.h :]

    def _past_w(self, t: int) -> np.ndarray:
        """(h, n) stack of w_{t-1}, ..., w_{t-h}; disturbances before the
        start of time are zero. Contiguous, because einsum over the reversed
        view sums in another order and can differ in the last bit."""
        return np.ascontiguousarray(self._w_padded[t : t + self.h][::-1])

    def matrices(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return theta.reshape(theta.shape[:-1] + (self.h, self.m, self.n))

    # The step math below broadcasts over a leading lane axis of x, theta
    # and u, so the lane-axis entry points are the same methods.

    def policy(self, t, x, theta):
        past = np.einsum("...hmn,hn->...m", self.matrices(theta), self._past_w(t))
        return row_matmul(-x, self.K_stb[t]) + past

    def jacobians(self, t, x, theta):
        u = self.policy(t, x, theta)
        blocks = [np.kron(np.eye(self.m), w[None, :]) for w in self._past_w(t)]
        return self.step_jacobians(t, x, u, -self.K_stb[t], np.hstack(blocks))

    policy_lanes = policy
    closed_loop_jacobians_lanes = jacobians


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
    if require_integer("n", n) < 1:
        raise ValueError(f"state dimension n must be at least 1, got {n}")
    require_scale("w_bound", w_bound)
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
