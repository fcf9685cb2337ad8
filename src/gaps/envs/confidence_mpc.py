"""Receding-horizon control with per-lead confidence weights on predictions.

The planner solves a k-step quadratic problem whose dynamics inject
lambda^[i] * w_pred(t, i) at lead i, and commits the first control. That
minimizer is affine in the state and in the confidence vector, so the policy
is evaluated from precomputed gains: one backward Riccati pass per step,
never a QP at run time.
"""

from __future__ import annotations

import numpy as np

from ..errors import require_integer
from ..linalg import finite_horizon_lq, row_matmul, solve_dare
from ..system import Box
from .disturbances import predicted_disturbances, require_scale
from .linear_quadratic import LinearQuadraticEnv


class ConfidenceMpcEnv(LinearQuadraticEnv):
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
        self.w_pred = np.asarray(predictions, dtype=float)
        self.k = require_integer("k", k)
        if self.k < 1:
            raise ValueError(f"planning horizon k must be at least 1, got {self.k}")
        self.T = self.w_pred.shape[0]
        super().__init__(A, B, Q, R, disturbances, x0, horizon=self.T + self.k)
        self.Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
        self.d = self.k
        self.theta_set = Box(np.zeros(self.k), np.ones(self.k))
        self._time_invariant = all(np.ndim(M) == 2 for M in (A, B, Q, R))
        self._gain_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ff_cache: dict[int, np.ndarray] = {}

    def _plan(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """First-step gain K_t (m, n) and feedforward stack H_t (k, m, n)."""
        key = 0 if self._time_invariant else t
        cached = self._gain_cache.get(key)
        if cached is not None:
            return cached
        window = [list(M[t : t + self.k]) for M in (self.A, self.B, self.Q, self.R)]
        sol = finite_horizon_lq(*window, self.Qf, self.k)
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
        ff = self.feedforward_terms(t)
        return row_matmul(-x, K) - row_matmul(np.asarray(theta, dtype=float), ff.T)

    def jacobians(self, t, x, theta):
        K, _ = self._plan(t)
        u = self.policy(t, x, theta)
        return self.step_jacobians(t, x, u, -K, -self.feedforward_terms(t).T)

    policy_lanes = policy
    jacobians_lanes = jacobians
    # Bound here, not only inherited, so that per-class hooks on these names
    # (the benchmark's tracer) find them in the class namespace. Each lane
    # entry point is bound with its method, or ControlSystem.__init_subclass__
    # would give the class the per-lane loop.
    dynamics = dynamics_lanes = LinearQuadraticEnv.dynamics
    cost = cost_lanes = LinearQuadraticEnv.cost


def _scalar_env(T, seed, k, a, b, sigma_w, pred_sigmas) -> ConfidenceMpcEnv:
    """x' = a x + b u + w with cost x^2 + u^2 and the stationary Riccati
    solution as terminal planner cost. At step t, the prediction of each
    w_{t+i} carries Gaussian noise of scale pred_sigmas[t]."""
    A, B, q = np.array([[a]]), np.array([[b]]), np.array([[1.0]])
    w, predictions = predicted_disturbances(T, k, seed, sigma_w, pred_sigmas[:, None, None])
    qf = solve_dare(A, B, q, q).P
    return ConfidenceMpcEnv(A, B, q, q, qf, k, w, predictions)


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
    if require_integer("switch_time", switch_time) < 0:
        raise ValueError(f"switch_time must be >= 0, got {switch_time}")
    # Checked here as well: a run that ends by switch_time never draws it.
    require_scale("sigma_pred_after", sigma_pred_after)
    sigmas = np.where(np.arange(T) <= switch_time, sigma_pred_before, sigma_pred_after)
    return _scalar_env(T, seed, k, 2.0, 1.0, sigma_w, sigmas)


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
    return _scalar_env(T, seed, k, a, b, sigma_w, np.full(T, sigma_pred, dtype=float))
