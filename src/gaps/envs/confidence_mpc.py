"""Receding-horizon control with per-lead confidence weights on predictions.

The planner solves a k-step quadratic problem whose dynamics inject
lambda^[i] * w_pred(t, i) at lead i, and commits the first control. That
minimizer is affine in the state and in the confidence vector, so the policy
is evaluated from precomputed gains: one backward Riccati pass per step,
never a QP at run time.
"""

from __future__ import annotations

import numpy as np

from ..linalg import finite_horizon_lq, per_step, quadratic_cost, solve_dare
from ..system import Box, ControlSystem, StepJacobians
from .disturbances import IidGaussian, PiecewiseNoiseSchedule


class ConfidenceMpcEnv(ControlSystem):
    """LTV dynamics x' = A_t x + B_t u + w_t with quadratic stage costs.

    theta in [0, 1]^k weights how much of each predicted disturbance the
    k-step planner trusts: u = -K_t x - sum_i theta[i] * H_t[i] @ w_pred[t, i].
    """

    def __init__(
        self,
        A,
        B,
        Q,
        R,
        Qf,
        k: int,
        disturbances: np.ndarray,  # (T + k, n) true w_t
        predictions: np.ndarray,  # (T, k, n): w_pred[t, i] predicts w_{t+i}
        x0=None,
    ):
        self.w = np.atleast_2d(np.asarray(disturbances, dtype=float))
        self.w_pred = np.asarray(predictions, dtype=float)
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"planning horizon k must be at least 1, got {self.k}")
        self.T = self.w_pred.shape[0]
        horizon = self.T + self.k
        if self.w.shape[0] < horizon:
            raise ValueError("need disturbances up to T + k")
        self.A = per_step(A, horizon)
        self.B = per_step(B, horizon)
        self.Q = per_step(Q, horizon)
        self.R = per_step(R, horizon)
        self.Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
        self.n = self.A.shape[1]
        self.m = self.B.shape[2]
        self.d = self.k
        self.theta_set = Box(np.zeros(self.k), np.ones(self.k))
        self.x0 = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float)
        self._time_invariant = (
            np.asarray(A).ndim == 2
            and np.asarray(B).ndim == 2
            and np.asarray(Q).ndim == 2
            and np.asarray(R).ndim == 2
        )
        self._gain_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ff_cache: dict[int, np.ndarray] = {}

    def _plan(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """First-step gain K_t (m, n) and feedforward stack H_t (k, m, n)."""
        key = 0 if self._time_invariant else t
        cached = self._gain_cache.get(key)
        if cached is not None:
            return cached
        sol = finite_horizon_lq(
            [self.A[t + j] for j in range(self.k)],
            [self.B[t + j] for j in range(self.k)],
            [self.Q[t + j] for j in range(self.k)],
            [self.R[t + j] for j in range(self.k)],
            self.Qf,
            self.k,
        )
        plan = (sol.gains[0], np.stack(sol.feedforward))
        self._gain_cache[key] = plan
        return plan

    def feedforward_terms(self, t: int) -> np.ndarray:
        """(k, m) array whose row i is H_t[i] @ w_pred[t, i]."""
        cached = self._ff_cache.get(t)
        if cached is None:
            _, H = self._plan(t)
            cached = np.einsum("imn,in->im", H, self.w_pred[t])
            self._ff_cache[t] = cached
        return cached

    # The step math below broadcasts over a leading lane axis of x, theta
    # and u, so the lane-axis entry points are the same methods.

    def policy(self, t, x, theta):
        K, _ = self._plan(t)
        return -x @ K.T - np.asarray(theta, dtype=float) @ self.feedforward_terms(t)

    def dynamics(self, t, x, u):
        return x @ self.A[t].T + u @ self.B[t].T + self.w[t]

    def cost(self, t, x, u):
        return float(x @ self.Q[t] @ x + u @ self.R[t] @ u)

    def jacobians(self, t, x, theta):
        K, _ = self._plan(t)
        ff = self.feedforward_terms(t)
        u = -x @ K.T - np.asarray(theta, dtype=float) @ ff
        return StepJacobians(
            dg_dx=self.A[t],
            dg_du=self.B[t],
            dpi_dx=-K,
            dpi_dtheta=-ff.T,
            df_dx=2.0 * x @ self.Q[t].T,
            df_du=2.0 * u @ self.R[t].T,
        )

    def cost_lanes(self, t, X, U):
        return quadratic_cost(X, self.Q[t], U, self.R[t])

    policy_lanes = policy
    dynamics_lanes = dynamics
    jacobians_lanes = jacobians
    # Bound here, not only inherited, so that per-class hooks on this name
    # (the benchmark's tracer) find it in the class namespace.
    batch_surrogate_costs = ControlSystem.batch_surrogate_costs


def make_fig2_env(
    T: int,
    seed: int,
    k: int = 1,
    sigma_w: float = 0.5,
    sigma_pred_before: float = 1.0,
    sigma_pred_after: float = 0.01,
    switch_time: int = 100,
) -> ConfidenceMpcEnv:
    """Scalar benchmark: x' = 2x + u + w with cost x^2 + u^2.

    Disturbance predictions carry heavy noise up to switch_time and noise
    reduced by a factor of 100 afterwards, so the right confidence dips and
    then returns toward 1. Terminal planner cost is the stationary Riccati
    solution of the scalar system. Noise magnitudes are this package's
    defaults (the prediction noise keeps a 2:1 ratio to the disturbance and
    the factor-100 drop); they are sized so that learning rates around 1e-3
    sit in the linear-bias regime of the gradient recursion.
    """
    a = np.array([[2.0]])
    b = np.array([[1.0]])
    q = np.array([[1.0]])
    r = np.array([[1.0]])
    qf = solve_dare(a, b, q, r).P

    rng = np.random.default_rng(seed)
    w = IidGaussian(sigma_w).draw(T + k, 1, rng)
    schedule = PiecewiseNoiseSchedule(
        [(0, switch_time + 1, sigma_pred_before), (switch_time + 1, T, sigma_pred_after)]
    )
    sigmas = schedule.sigmas(T)
    noise = rng.standard_normal((T, k, 1)) * sigmas[:, None, None]
    windows = np.lib.stride_tricks.sliding_window_view(w[:, 0], k)[:T]
    predictions = windows[:, :, None] + noise
    return ConfidenceMpcEnv(a, b, q, r, qf, k, w, predictions)


def make_constant_noise_env(
    T: int,
    seed: int,
    k: int = 1,
    sigma_w: float = 1.0,
    sigma_pred: float = 1.0,
    a: float = 2.0,
    b: float = 1.0,
) -> ConfidenceMpcEnv:
    """Stationary variant of the scalar benchmark (no noise switch).

    The surrogate cost is a fixed convex quadratic in the confidence vector,
    which is the clean setting for regret-growth measurements.
    """
    A = np.array([[a]])
    B = np.array([[b]])
    q = np.array([[1.0]])
    r = np.array([[1.0]])
    qf = solve_dare(A, B, q, r).P
    rng = np.random.default_rng(seed)
    w = IidGaussian(sigma_w).draw(T + k, 1, rng)
    noise = sigma_pred * rng.standard_normal((T, k, 1))
    windows = np.lib.stride_tricks.sliding_window_view(w[:, 0], k)[:T]
    predictions = windows[:, :, None] + noise
    return ConfidenceMpcEnv(A, B, q, r, qf, k, w, predictions)
