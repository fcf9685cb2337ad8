"""Finite-arm family: one receding-horizon controller per planning horizon.

All arms share the dynamics, costs, terminal value, and the disturbance and
prediction realizations; an arm with horizon k uses the first k predicted
disturbances (full confidence). Prediction noise grows with lead time, so
longer horizons trade more information against more corruption. The arm
index is the (discrete) policy parameter: the policy switches on round(theta)
and is constant in theta elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from ..baps import _BapsSelector
from ..errors import require_integer
from ..linalg import dot, finite_horizon_lq, solve_dare
from ..system import DEFAULT_BLOWUP_CAP, Box, check_state
from .disturbances import predicted_disturbances
from .linear_quadratic import LinearQuadraticEnv


class HorizonSelectionEnv(LinearQuadraticEnv):
    """The base's model with one A, B, Q and R, as the planner and the scalar
    table assume a time-invariant system."""

    def __init__(
        self,
        A,
        B,
        Q,
        R,
        Qf,
        horizons: list[int],
        disturbances: np.ndarray,  # (T + max_k, n)
        predictions: np.ndarray,  # (T, max_k, n)
        x0=None,
    ):
        A, B, Q, R = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, Q, R))
        if max(M.ndim for M in (A, B, Q, R)) > 2:
            raise ValueError("HorizonSelectionEnv takes one A, B, Q and R, not one per step")
        super().__init__(A, B, Q, R, disturbances, x0)
        self.Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
        self.horizons = [require_integer("every entry of horizons", k) for k in horizons]
        self.w_pred = np.asarray(predictions, dtype=float)
        self.T = self.w_pred.shape[0]
        self.d = 1
        self.theta_set = Box([0.0], [float(len(self.horizons) - 1)])

        # Per-arm first-step gain and feedforward terms, precomputed.
        self._gains = []
        self._ff = np.zeros((self.T, len(self.horizons), self.m))
        for j, k in enumerate(self.horizons):
            sol = finite_horizon_lq([A] * k, [B] * k, [Q] * k, [R] * k, self.Qf, k)
            self._gains.append(sol.gains[0])
            H = np.stack(sol.feedforward)  # (k, m, n)
            self._ff[:, j, :] = np.einsum("imn,tin->tm", H, self.w_pred[:, :k, :])

    def arm_thetas(self) -> list[np.ndarray]:
        return [np.array([float(j)]) for j in range(len(self.horizons))]

    def _arm(self, theta) -> int:
        j = round(theta.tolist()[0])
        return min(max(j, 0), len(self.horizons) - 1)

    def policy(self, t, x, theta):
        # linalg.dot: ndarray.dot at about half the call overhead of `@`,
        # and `@` for the scalar system.
        j = self._arm(theta)
        return dot(-self._gains[j], x) - self._ff[t, j]

    def jacobians(self, t, x, theta):
        j = self._arm(theta)
        u = self.policy(t, x, theta)
        # Piecewise-constant in theta: zero derivative away from switches.
        return self.step_jacobians(t, x, u, -self._gains[j], np.zeros((self.m, 1)))

    # Bound here, not only inherited, so that per-class hooks on these names
    # (the benchmark's tracer) find them in the class namespace; each lane
    # entry point is bound with its method.
    dynamics = dynamics_lanes = LinearQuadraticEnv.dynamics
    cost = cost_lanes = LinearQuadraticEnv.cost

    def _scalar_step_math(self) -> bool:
        """A scalar system whose policy, dynamics and cost are this class's
        own: the case `_hold` and `_checked_costs` compute inline."""
        cls = type(self)
        return self.n == self.m == 1 and all(
            getattr(cls, name) is getattr(HorizonSelectionEnv, name)
            for name in ("policy", "dynamics", "cost")
        )

    def _hold(self, j: int, x: float, t0: int, steps: int):
        """Iterator over the states x_t0 .. x_{t0+steps}, as Python floats,
        of arm j held from state x at step t0 on a scalar system, in the
        per-state methods' order: u = -(K x) - ff_t, x' = (a x + b u) + w_t."""
        K, a, b = float(self._gains[j][0, 0]), float(self.A[0, 0, 0]), float(self.B[0, 0, 0])
        # Memoryviews yield Python floats without building lists.
        span = slice(t0, t0 + steps)
        fw = zip(memoryview(self._ff[span, j, 0]), memoryview(self.w[span, 0]))
        return itertools.accumulate(
            fw, lambda x, fw: (x * a + (-(K * x) - fw[0]) * b) + fw[1], initial=x
        )

    def _checked_costs(self, arms: list[int], X: np.ndarray, t0: int) -> np.ndarray:
        """Stage costs (q x) x + (r u) u of the (steps, L) states X, column i
        holding arms[i] from step t0. The first state past DEFAULT_BLOWUP_CAP,
        or not finite, raises check_state's StateBlowup at its step; the
        check spans all columns, so the earliest step over them raises."""
        if not (np.abs(X) <= DEFAULT_BLOWUP_CAP).all():
            t = int(np.argmin((np.abs(X) <= DEFAULT_BLOWUP_CAP).all(axis=1)))
            check_state(t0 + t, X[t, :, None])
        gains = np.array([self._gains[j][0, 0] for j in arms])
        U = -(gains * X) - self._ff[t0 : t0 + len(X), arms, 0]
        q, r = float(self.Q[0, 0, 0]), float(self.R[0, 0, 0])
        return (X * q) * X + (U * r) * U

    def batch_surrogate_costs(self, thetas: np.ndarray, T: int) -> np.ndarray:
        """(T, L) surrogate costs, as ControlSystem.batch_surrogate_costs.

        A scalar system with this class's own step math runs each lane as
        one `_hold` from x0 and costs and checks all lanes together, raising
        the StateBlowup the shared loop would raise. Every other case runs
        the shared loop.
        """
        if not self._scalar_step_math():
            return super().batch_surrogate_costs(thetas, T)
        arms = [self._arm(th) for th in np.atleast_2d(np.asarray(thetas, dtype=float))]
        x0 = float(self.x0[0])
        X = np.stack([np.fromiter(self._hold(j, x0, 0, T), float, T) for j in arms], axis=1)
        return self._checked_costs(arms, X, 0)


def make_horizon_selection_env(
    horizons: list[int],
    T: int,
    seed: int,
    a: float = 2.0,
    b: float = 1.0,
    sigma_w: float = 2.0,
    sigma_pred0: float = 0.3,
    pred_growth: float = 4.0,
    x0=None,
) -> HorizonSelectionEnv:
    """Scalar system with prediction noise growing geometrically in lead time.

    Lead-i predictions are corrupted with sigma_pred0 * pred_growth^i noise,
    so short horizons see nearly clean predictions and long horizons see
    mostly garbage; the cost-optimal horizon is interior and well separated.
    """
    max_k = max(horizons)
    A, B, q = np.array([[a]]), np.array([[b]]), np.array([[1.0]])
    Qf = solve_dare(A, B, q, q).P
    lead_sigmas = sigma_pred0 * pred_growth ** np.arange(max_k)
    w, predictions = predicted_disturbances(T, max_k, seed, sigma_w, lead_sigmas[:, None])
    return HorizonSelectionEnv(A, B, q, q, Qf, horizons, w, predictions, x0=x0)


def run_baps_scalar_batch(envs, config, seeds):
    """Batched-bandit runs on many scalar environments, one after another.

    Each run drives run_baps's selector over `_hold` segments, one per
    batch, so arm choices, batch costs and distributions match a run_baps
    call with the same seed bit for bit; a total sums the batch costs in
    order, which can differ from run_baps's total_cost by summation order
    only. A state past DEFAULT_BLOWUP_CAP, or not finite, raises StateBlowup
    at the step run_baps would; with several such environments, the
    first-listed one raises. Only scalar environments (n = m = 1) that run
    HorizonSelectionEnv's own step math are supported.

    Returns (total_costs, final_distributions) with shapes (S,) and (S, k).
    """
    if len(seeds) != len(envs):
        raise ValueError("need one sampling seed per environment")
    if not all(env._scalar_step_math() for env in envs):
        raise ValueError("batch runner needs scalar envs running HorizonSelectionEnv's step math")

    b = config.b
    num_batches = min(env.T for env in envs) // b
    totals, dists = [], []
    for env, seed in zip(envs, seeds):
        selector = _BapsSelector(env.arm_thetas(), replace(config, seed=seed), num_batches)
        x, total = float(env.x0[0]), 0.0
        for t in range(0, num_batches * b, b):
            selector.propose(t, x)
            X = np.fromiter(env._hold(selector.arm, x, t, b), float, b + 1)
            x = float(X[b])
            costs = env._checked_costs([selector.arm], X[:b, None], t)[:, 0]
            # Summed in step order, then in batch order, as run_baps sums.
            batch_cost = float(np.add.accumulate(costs)[-1])
            selector.end_batch(batch_cost)
            total += batch_cost
        totals.append(total)
        dists.append(selector.s)
    return np.array(totals), np.stack(dists)
