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

from ..linalg import finite_horizon_lq, solve_dare
from ..system import DEFAULT_BLOWUP_CAP, Box, ControlSystem, StepJacobians, check_state


class HorizonSelectionEnv(ControlSystem):
    # The scalar table and arm_total_costs below run this class's step
    # math inline. A subclass that redefines policy, dynamics or cost in its
    # own body hands both over to the shared loop, which runs its step math:
    # the rule ControlSystem.__init_subclass__ applies to lane methods.
    _own_step_math = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if any(name in vars(cls) for name in ("policy", "dynamics", "cost")):
            cls._own_step_math = False

    def _scalar_step_math(self) -> bool:
        return self._own_step_math and self.n == 1 and self.m == 1

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
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(R, dtype=float))
        self.Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
        self.horizons = [int(k) for k in horizons]
        self.w = np.atleast_2d(np.asarray(disturbances, dtype=float))
        self.w_pred = np.asarray(predictions, dtype=float)
        self.T = self.w_pred.shape[0]
        self.n = self.A.shape[0]
        self.m = self.B.shape[1]
        self.d = 1
        self.theta_set = Box([0.0], [float(len(self.horizons) - 1)])
        self.x0 = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float)

        # Per-arm first-step gain and feedforward terms, precomputed.
        self._gains = []
        ff_all = np.zeros((self.T, len(self.horizons), self.m))
        for j, k in enumerate(self.horizons):
            sol = finite_horizon_lq(
                [self.A] * k, [self.B] * k, [self.Q] * k, [self.R] * k, self.Qf, k
            )
            self._gains.append(sol.gains[0])
            H = np.stack(sol.feedforward)  # (k, m, n)
            ff_all[:, j, :] = np.einsum("imn,tin->tm", H, self.w_pred[:, :k, :])
        self._ff = ff_all

    def arm_thetas(self) -> list[np.ndarray]:
        return [np.array([float(j)]) for j in range(len(self.horizons))]

    def _arm(self, theta) -> int:
        j = int(round(float(np.asarray(theta).reshape(-1)[0])))
        return min(max(j, 0), len(self.horizons) - 1)

    def policy(self, t, x, theta):
        j = self._arm(theta)
        return -self._gains[j] @ x - self._ff[t, j]

    def dynamics(self, t, x, u):
        return self.A @ x + self.B @ u + self.w[t]

    def cost(self, t, x, u):
        return float(x @ self.Q @ x + u @ self.R @ u)

    def jacobians(self, t, x, theta):
        j = self._arm(theta)
        u = self.policy(t, x, theta)
        return StepJacobians(
            dg_dx=self.A,
            dg_du=self.B,
            dpi_dx=-self._gains[j],
            # Piecewise-constant in theta: zero derivative away from switches.
            dpi_dtheta=np.zeros((self.m, 1)),
            df_dx=2.0 * self.Q @ x,
            df_du=2.0 * self.R @ u,
        )

    def batch_surrogate_costs(self, thetas: np.ndarray, T: int) -> np.ndarray:
        """(T, L) surrogate costs, as ControlSystem.batch_surrogate_costs.

        A scalar system (n = m = 1) with this class's own step math runs each
        lane's closed loop over Python floats, with the lane's arm looked up
        once, in the order of the per-state methods:
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
        a = float(self.A[0, 0])
        b = float(self.B[0, 0])
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
        return (X * float(self.Q[0, 0])) * X + (U * float(self.R[0, 0])) * U

    def arm_total_costs(self, T: int | None = None) -> np.ndarray:
        """Offline total cost of holding each arm for the whole horizon.

        A scalar system with this class's own step math runs each arm's
        closed loop as the first-order recursion x_{t+1} = drive_t + (a - bK)
        x_t over Python floats, which rounds differently from the step
        order of batch_surrogate_costs; every other case sums the columns
        of batch_surrogate_costs.
        """
        T = self.T if T is None else T
        if not self._scalar_step_math():
            return np.sum(self.batch_surrogate_costs(np.stack(self.arm_thetas()), T), axis=0)

        a = float(self.A[0, 0])
        b = float(self.B[0, 0])
        q = float(self.Q[0, 0])
        r = float(self.R[0, 0])
        totals = np.empty(len(self.horizons))
        for j in range(len(self.horizons)):
            K = float(self._gains[j][0, 0])
            c = a - b * K
            drive = (self.w[:T, 0] - b * self._ff[:T, j, 0]).tolist()
            states = itertools.accumulate(drive, lambda x, d: d + c * x, initial=float(self.x0[0]))
            x = np.fromiter(states, dtype=float, count=T)
            u = -K * x - self._ff[:T, j, 0]
            totals[j] = float(np.sum(q * x * x + r * u * u))
        return totals


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
    A = np.array([[a]])
    B = np.array([[b]])
    Q = np.array([[1.0]])
    R = np.array([[1.0]])
    Qf = solve_dare(A, B, Q, R).P
    rng = np.random.default_rng(seed)
    w = sigma_w * rng.standard_normal((T + max_k, 1))
    lead_sigmas = sigma_pred0 * pred_growth ** np.arange(max_k)
    noise = rng.standard_normal((T, max_k, 1)) * lead_sigmas[None, :, None]
    windows = np.lib.stride_tricks.sliding_window_view(w[:, 0], max_k)[:T]
    predictions = windows[:, :, None] + noise
    return HorizonSelectionEnv(A, B, Q, R, Qf, horizons, w, predictions, x0=x0)


def run_baps_scalar_batch(envs, config, seeds):
    """Vectorized batched-bandit runs across many scalar environments.

    Replicates the per-environment run: same per-seed sampling stream and
    same per-batch arithmetic, so arm choices and distributions match a
    run_baps call bit-for-bit (reported totals can differ by float summation
    order only). All environments advance in lockstep with numpy, which
    makes hundreds of seeds affordable. Each step checks the lockstep state
    as closed_loop does, so a state past DEFAULT_BLOWUP_CAP, or not finite,
    raises StateBlowup at the step run_baps would. Only scalar environments
    (n = m = 1) that run this class's own step math are supported.

    Returns (total_costs, final_distributions) with shapes (S,) and (S, k).
    """
    from ..baps import BapsState, baps_update

    S = len(envs)
    if len(seeds) != S:
        raise ValueError("need one sampling seed per environment")
    for env in envs:
        if not env._scalar_step_math():
            raise ValueError(
                "batch runner supports scalar environments with the "
                "HorizonSelectionEnv step math only"
            )

    T = min(env.T for env in envs)
    num_batches = T // config.b
    a = np.array([float(env.A[0, 0]) for env in envs])
    b_dyn = np.array([float(env.B[0, 0]) for env in envs])
    q = np.array([float(env.Q[0, 0]) for env in envs])
    r = np.array([float(env.R[0, 0]) for env in envs])
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
