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

import numpy as np

from ..errors import require_integer
from ..linalg import dot, finite_horizon_lq
from ..system import DEFAULT_BLOWUP_CAP, Box, Trajectory, check_state
from .disturbances import predicted_disturbances, require_scale
from .linear_quadratic import LinearQuadraticEnv, scalar_model


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

    def _checked_costs(self, arms: list[int], X: np.ndarray, t0: int):
        """Actions -(K x) - ff_t and stage costs (q x) x + (r u) u, as a
        pair of (steps, L) arrays, of the (steps, L) states X, column i
        holding arms[i] from step t0. The first state past DEFAULT_BLOWUP_CAP,
        or not finite, raises check_state's StateBlowup at its step; the
        check spans all columns, so the earliest step over them raises."""
        if not (np.abs(X) <= DEFAULT_BLOWUP_CAP).all():
            t = int(np.argmin((np.abs(X) <= DEFAULT_BLOWUP_CAP).all(axis=1)))
            check_state(t0 + t, X[t, :, None])
        gains = np.array([self._gains[j][0, 0] for j in arms])
        U = -(gains * X) - self._ff[t0 : t0 + len(X), arms, 0]
        q, r = float(self.Q[0, 0, 0]), float(self.R[0, 0, 0])
        return U, (X * q) * X + (U * r) * U

    # The two fast paths below compute this class's step math inline; a
    # subclass that redefines policy, dynamics or cost gets ControlSystem's
    # `hold` and `batch_surrogate_costs` back (ControlSystem.__init_subclass__).

    def hold(self, t0, x, theta, steps):
        """ControlSystem.hold; a scalar system plays the segment as one
        `_hold` and checks and costs its states together, bit for bit as
        the shared loop, raising the StateBlowup it would raise."""
        if not self.n == self.m == 1:
            return super().hold(t0, x, theta, steps)
        j = self._arm(theta)
        X = np.fromiter(self._hold(j, float(x[0]), t0, steps), float, steps + 1)[:, None]
        U, costs = self._checked_costs([j], X[:steps], t0)
        return Trajectory(
            states=X[:steps], actions=U, thetas=np.full((steps, self.d), theta),
            costs=costs[:, 0], final_state=X[steps],
        )

    def batch_surrogate_costs(self, thetas: np.ndarray, T: int) -> np.ndarray:
        """(T, L) surrogate costs, as ControlSystem.batch_surrogate_costs.

        A scalar system runs each lane as one `_hold` from x0 and costs and
        checks all lanes together, raising the StateBlowup the shared loop
        would raise. A system with more states or inputs runs the shared
        loop.
        """
        if not self.n == self.m == 1:
            return super().batch_surrogate_costs(thetas, T)
        arms = [self._arm(th) for th in np.atleast_2d(np.asarray(thetas, dtype=float))]
        x0 = float(self.x0[0])
        X = np.stack([np.fromiter(self._hold(j, x0, 0, T), float, T) for j in arms], axis=1)
        return self._checked_costs(arms, X, 0)[1]


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
    if len(horizons) == 0:
        raise ValueError("horizons must list at least one planning horizon")
    max_k = max(horizons)
    A, B, q, Qf = scalar_model(a, b)
    require_scale("sigma_pred0", sigma_pred0)
    require_scale("pred_growth", pred_growth)
    # An overflow is refused below, by name.
    with np.errstate(over="ignore", invalid="ignore"):
        lead_sigmas = sigma_pred0 * pred_growth ** np.arange(max_k)
    if not np.isfinite(lead_sigmas).all():
        raise ValueError(
            f"sigma_pred0 * pred_growth ** (max(horizons) - 1) must be finite, got "
            f"sigma_pred0={sigma_pred0!r}, pred_growth={pred_growth!r}, "
            f"max(horizons)={max_k}"
        )
    w, predictions = predicted_disturbances(T, max_k, seed, sigma_w, lead_sigmas[:, None])
    return HorizonSelectionEnv(A, B, q, q, Qf, horizons, w, predictions, x0=x0)
