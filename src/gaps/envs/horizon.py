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
        own: the case the scalar table and run_baps_scalar_batch run inline."""
        cls = type(self)
        return self.n == self.m == 1 and all(
            getattr(cls, name) is getattr(HorizonSelectionEnv, name)
            for name in ("policy", "dynamics", "cost")
        )

    def batch_surrogate_costs(self, thetas: np.ndarray, T: int) -> np.ndarray:
        """(T, L) surrogate costs, as ControlSystem.batch_surrogate_costs.

        A scalar system with this class's own step math runs each lane's
        closed loop over Python floats, with the lane's arm looked up once,
        in the order of the per-state methods:
        u = -(K x) - ff_t, x' = (a x + b u) + w_t, cost (q x) x + (r u) u.
        The first state past DEFAULT_BLOWUP_CAP, or not finite, raises the
        StateBlowup the shared loop would raise at that step. Every other
        case runs the shared loop.
        """
        if not self._scalar_step_math():
            return super().batch_surrogate_costs(thetas, T)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        arms = [self._arm(th) for th in thetas]
        gains = [float(self._gains[j][0, 0]) for j in arms]
        a, b, q, r = (float(M[0, 0, 0]) for M in (self.A, self.B, self.Q, self.R))
        x0 = float(self.x0[0])
        # Memoryviews yield Python floats without building lists.
        w = memoryview(self.w[:T, 0])
        X = np.empty((T, len(arms)))
        for g, (j, K) in enumerate(zip(arms, gains)):
            steps = zip(memoryview(self._ff[:T, j, 0]), w)
            states = itertools.accumulate(
                steps, lambda x, fw: (x * a + (-(K * x) - fw[0]) * b) + fw[1], initial=x0
            )
            X[:, g] = np.fromiter(states, dtype=float, count=T)

        within = (np.abs(X) <= DEFAULT_BLOWUP_CAP).all(axis=1)
        if not within.all():
            t = int(np.argmin(within))
            check_state(t, X[t, :, None])

        U = -(np.array(gains) * X) - self._ff[:T, arms, 0]
        return (X * q) * X + (U * r) * U


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
    """Vectorized batched-bandit runs across many scalar environments.

    Replicates the per-environment run: same per-seed sampling stream and
    same per-batch arithmetic, so arm choices and distributions match a
    run_baps call bit-for-bit (reported totals can differ by float summation
    order only). All environments advance in lockstep with numpy, which
    makes hundreds of seeds affordable. Each step checks the lockstep state
    as closed_loop does, so a state past DEFAULT_BLOWUP_CAP, or not finite,
    raises StateBlowup at the step run_baps would. Only scalar environments
    (n = m = 1) that run HorizonSelectionEnv's own step math are supported.

    Returns (total_costs, final_distributions) with shapes (S,) and (S, k).
    """
    from ..baps import BapsState, baps_update

    S = len(envs)
    if len(seeds) != S:
        raise ValueError("need one sampling seed per environment")
    if not all(env._scalar_step_math() for env in envs):
        raise ValueError("batch runner needs scalar envs running HorizonSelectionEnv's step math")

    T = min(env.T for env in envs)
    num_batches = T // config.b
    a = np.array([env.A[0, 0, 0] for env in envs])
    b_dyn = np.array([env.B[0, 0, 0] for env in envs])
    q = np.array([env.Q[0, 0, 0] for env in envs])
    r = np.array([env.R[0, 0, 0] for env in envs])
    gains = np.stack([np.array([float(g[0, 0]) for g in env._gains]) for env in envs])
    ff = np.stack([env._ff[:T, :, 0] for env in envs])  # (S, T, J)
    w = np.stack([env.w[:T, 0] for env in envs])  # (S, T)

    rngs = [np.random.default_rng(s) for s in seeds]
    states = [BapsState.initial(config.k) for _ in range(S)]
    x = np.array([float(env.x0[0]) for env in envs])
    total = np.zeros(S)
    idx = np.arange(S)

    t = 0
    for _ in range(num_batches):
        arms = np.array([rngs[i].choice(config.k, p=states[i].s) for i in range(S)])
        K = gains[idx, arms]
        batch_cost = np.zeros(S)
        for _ in range(config.b):
            check_state(t, x[:, None])
            u = -K * x - ff[idx, t, arms]
            c = q * x * x + r * u * u
            batch_cost += c
            x = a * x + b_dyn * u + w[:, t]
            t += 1
        total += batch_cost
        for i in range(S):
            states[i] = BapsState(
                s=baps_update(states[i].s, int(arms[i]), float(batch_cost[i]), config.eta),
                m=states[i].m + 1,
            )
    return total, np.stack([st.s for st in states])
