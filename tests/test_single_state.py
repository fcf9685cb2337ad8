"""The single-state step math, pinned bit for bit to its plain numpy form.

The per-state methods read entries as Python floats and take products with
ndarray.dot. Each test below writes out the `@`/np.clip form and compares
bytes, so a signed zero or a last-bit difference fails.
"""

import math

import numpy as np
import pytest

from gaps.core import GapsConfig, GapsState, gaps_step, run_gaps
from gaps.envs import IidGaussian, OrnsteinUhlenbeck, make_dac_env, make_pendulum_env
from gaps.envs.horizon import make_horizon_selection_env
from gaps.envs.pendulum import DAMPING, DT, GRAVITY, LENGTH, PendulumEnv, PendulumParams
from gaps.errors import NonFiniteGradient, SingularMatrix
from gaps.linalg import PIVOT_TOL, quadratic_cost, row_matmul, solve_dare, solve_linear
from gaps.oracles import finite_memory_gradient
from gaps.system import Box, ControlSystem, StepJacobians

from conftest import TanhSystem


def same(a, b):
    """Equal bytes, shapes and dtypes: signed zeros and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_states(rng, n, count=400):
    """Gaussian states over several scales, plus signed zeros."""
    scales = np.repeat([1e-8, 1e-3, 0.1, 1.0, 30.0, 1e6], count // 6 + 1)[:count]
    X = rng.standard_normal((count, n)) * scales[:, None]
    X[: 2**n] = [[(-1.0 if (i >> k) & 1 else 1.0) * 0.0 for k in range(n)] for i in range(2**n)]
    X[2**n : 2**n + 8, 0] = np.copysign(0.0, rng.standard_normal(8))
    return X


# ---------------------------------------------------------------------------
# Plain forms, as the step math read before it took ndarray.dot and floats


def ref_pendulum_policy(env, t, x, theta):
    return np.array([-theta[0] * x[0] - theta[1] * x[1]])


def ref_pendulum_dynamics(env, t, x, u):
    ml2 = env.mass_at(t) * LENGTH**2
    accel = (
        (GRAVITY / LENGTH) * np.sin(x[0])
        - (DAMPING / ml2) * x[1]
        + u[0] / ml2
        + env.w[t]
    )
    return np.array([x[0] + DT * x[1], x[1] + DT * accel])


def ref_cost(env, t, x, u):
    return float(x @ env.Q @ x + u @ env.R @ u)


def ref_pendulum_jacobians(env, t, x, theta):
    ml2 = env.mass_at(t) * LENGTH**2
    u = ref_pendulum_policy(env, t, x, theta)
    return StepJacobians(
        dg_dx=np.array(
            [
                [1.0, DT],
                [DT * (GRAVITY / LENGTH) * np.cos(x[0]), 1.0 - DT * DAMPING / ml2],
            ]
        ),
        dg_du=np.array([[0.0], [DT / ml2]]),
        dpi_dx=np.array([[-theta[0], -theta[1]]]),
        dpi_dtheta=np.array([[-x[0], -x[1]]]),
        df_dx=2.0 * env.Q @ x,
        df_du=2.0 * env.R @ u,
    )


def ref_arm(env, theta):
    j = int(round(float(np.asarray(theta).reshape(-1)[0])))
    return min(max(j, 0), len(env.horizons) - 1)


def ref_horizon_policy(env, t, x, theta):
    j = ref_arm(env, theta)
    return -env._gains[j] @ x - env._ff[t, j]


def ref_horizon_dynamics(env, t, x, u):
    return env.A[t] @ x + env.B[t] @ u + env.w[t]


def ref_horizon_cost(env, t, x, u):
    return float(x @ env.Q[t] @ x + u @ env.R[t] @ u)


def ref_horizon_jacobians(env, t, x, theta):
    j = ref_arm(env, theta)
    u = ref_horizon_policy(env, t, x, theta)
    return StepJacobians(
        dg_dx=env.A[t],
        dg_du=env.B[t],
        dpi_dx=-env._gains[j],
        dpi_dtheta=np.zeros((env.m, 1)),
        df_dx=2.0 * env.Q[t] @ x,
        df_du=2.0 * env.R[t] @ u,
    )


def ref_gaps_step(state, jac, config):
    d = config.set.dim
    k = len(state.ring)
    grad = jac.df_du @ jac.dpi_dtheta
    if k:
        closed = jac.df_dx + jac.df_du @ jac.dpi_dx
        grad = grad + closed @ np.cumsum(state.ring, axis=0)[-1]
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("non-finite")
    n = jac.dg_du.shape[0]
    if config.B == 1:
        ring = np.empty((0, n, d))
    else:
        kept = state.ring[: config.B - 2]
        block = np.empty((n, (len(kept) + 1) * d))
        block[:, :d] = jac.dg_du @ jac.dpi_dtheta
        if len(kept):
            kept_block = kept.transpose(1, 0, 2).reshape(n, -1)
            np.matmul(jac.dg_dx + jac.dg_du @ jac.dpi_dx, kept_block, out=block[:, d:])
        ring = block.reshape(n, -1, d).transpose(1, 0, 2)
    theta = np.clip(state.theta - config.eta * grad, config.set.lo, config.set.hi)
    return grad, GapsState(t=state.t + 1, theta=theta, ring=ring)


def ref_solve_linear(M, rhs):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U = M.copy()
    for j in range(U.shape[0]):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if abs(U[p, j]) < PIVOT_TOL:
            raise SingularMatrix("pivot")
        if p != j:
            U[[j, p]] = U[[p, j]]
        U[j + 1 :, j:] -= np.outer(U[j + 1 :, j] / U[j, j], U[j, j:])
    return np.linalg.solve(M, rhs)


def ref_solve_dare(A, B, Q, R, tol=1e-12):
    def riccati_map(P):
        BtP = B.T @ P
        K = ref_solve_linear(R + BtP @ B, BtP @ A)
        return Q + A.T @ P @ (A - B @ K), K

    P = Q.copy()
    while True:
        P_next, K = riccati_map(P)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) < tol:
            return P_next, riccati_map(P_next)[1]
        P = P_next


def relative_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def assert_dare_matches_plain_iteration(A, B, Q, R):
    P, K = ref_solve_dare(A, B, Q, R)
    sol = solve_dare(A, B, Q, R)
    assert relative_error(sol.P, P) <= 1e-12 and relative_error(sol.K, K) <= 1e-12
    assert sol.residual <= 1e-13
    assert sol.iterations <= 12
    return sol


def assert_same_jacobians(a, b):
    for name in ("dg_dx", "dg_du", "dpi_dx", "dpi_dtheta", "df_dx", "df_du"):
        assert same(getattr(a, name), getattr(b, name)), name


CLOSED_LOOP_BLOCKS = ("A_cl", "B_theta", "c_x", "c_theta")


def assert_same_closed_loop(a, b):
    for name in CLOSED_LOOP_BLOCKS:
        assert same(getattr(a, name), getattr(b, name)), name


class DefaultClosedLoop(PendulumEnv):
    """Redefines jacobians, so it takes ControlSystem's closed-loop methods:
    the single-state one reads the products off jacobians, and the lane one
    stacks the single-state products lane by lane."""

    def jacobians(self, t, x, theta):
        return super().jacobians(t, x, theta)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pendulum_cases():
    """Pendulum envs with GAPS trajectories under iid and OU noise."""
    cases = []
    for spec, seed in ((IidGaussian(1.0), 0), (OrnsteinUhlenbeck(2.0, 3.0, 0.02), 1)):
        # A mass switch every 100 steps visits all three masses.
        env = make_pendulum_env(600, spec, seed=seed, params=PendulumParams(switch_period=2.0))
        cfg = GapsConfig(eta=5.0, B=32, theta0=env.lqr_gains(1.0), set=env.theta_set)
        cases.append((env, run_gaps(env, cfg, 600)))
    return cases


def pendulum_points(env, traj, rng):
    """Visited (x, theta) pairs, then random states at random box gains."""
    yield from zip(traj.states, traj.thetas)
    for x in random_states(rng, 2):
        yield x, env.theta_set.sample(rng)


class TestPendulum:
    def test_step_methods_match_plain_forms(self, pendulum_cases):
        rng = np.random.default_rng(0)
        for env, traj in pendulum_cases:
            for i, (x, theta) in enumerate(pendulum_points(env, traj, rng)):
                t = i % 600
                u = env.policy(t, x, theta)
                assert same(u, ref_pendulum_policy(env, t, x, theta))
                assert same(env.dynamics(t, x, u), ref_pendulum_dynamics(env, t, x, u))
                assert same(env.cost(t, x, u), ref_cost(env, t, x, u))
                assert_same_jacobians(
                    env.jacobians(t, x, theta), ref_pendulum_jacobians(env, t, x, theta)
                )

    def test_gaps_run_matches_plain_step_loop(self, pendulum_cases):
        for env, traj in pendulum_cases:
            cfg = GapsConfig(eta=5.0, B=32, theta0=env.lqr_gains(1.0), set=env.theta_set)
            state = GapsState.initial(cfg)
            x = env.x0.copy()
            for t in range(len(traj)):
                theta = state.theta
                u = ref_pendulum_policy(env, t, x, theta)
                assert same(traj.states[t], x)
                assert same(traj.thetas[t], theta)
                assert same(traj.costs[t], ref_cost(env, t, x, u))
                grad, state = ref_gaps_step(state, ref_pendulum_jacobians(env, t, x, theta), cfg)
                assert same(traj.grads[t], grad)
                x = ref_pendulum_dynamics(env, t, x, u)
            assert same(traj.final_state, x)



class TestPendulumClosedLoop:
    """PendulumEnv's closed-loop Jacobians against the products of its
    jacobians, and the default lane record against the single-state
    records, bit for bit."""

    def test_subclass_with_own_jacobians_gets_the_defaults(self):
        for name in ("closed_loop_jacobians", "closed_loop_jacobians_lanes"):
            assert getattr(DefaultClosedLoop, name) is getattr(ControlSystem, name)
        assert PendulumEnv.closed_loop_jacobians is not ControlSystem.closed_loop_jacobians

    @staticmethod
    def assert_lanes_match_single(env, t, X, thetas):
        """The default lane record, read whole and lane by lane, against each
        lane's closed_loop_jacobians."""
        lanes = env.closed_loop_jacobians_lanes(t, X, thetas)
        for i, (x, theta) in enumerate(zip(X, thetas)):
            single = env.closed_loop_jacobians(t, x, theta)
            assert_same_closed_loop(lanes.lane(i), single)
            for name in CLOSED_LOOP_BLOCKS:
                assert same(getattr(lanes, name)[i], getattr(single, name)), name

    def test_blocks_match_default(self, pendulum_cases):
        rng = np.random.default_rng(4)
        for env, traj in pendulum_cases:
            assert type(env).closed_loop_jacobians_lanes is ControlSystem.closed_loop_jacobians_lanes
            # States at several scales and every pattern of signed zeros,
            # against the box corners and random box gains, then visited
            # points.
            X = random_states(rng, 2, 300)
            lo, hi = env.theta_set.lo, env.theta_set.hi
            corners = [lo, hi, np.array([lo[0], hi[1]]), np.array([hi[0], lo[1]])]
            thetas = [corners[i % 4] if i % 5 else env.theta_set.sample(rng) for i in range(len(X))]
            X = np.concatenate([X, traj.states[:100]])
            thetas = np.concatenate([thetas, traj.thetas[:100]])
            # Mass switches every 100 steps: both sides of three switches.
            for t in (0, 99, 100, 199, 200, 299, 300, 537):
                for x, theta in zip(X, thetas):
                    assert_same_closed_loop(
                        env.closed_loop_jacobians(t, x, theta),
                        ControlSystem.closed_loop_jacobians(env, t, x, theta),
                    )
                self.assert_lanes_match_single(env, t, X, thetas)
        # Envs without closed-loop methods of their own: random and
        # signed-zero parameters on TanhSystem, and the horizon env's arm
        # boundaries, where rounding picks the arm.
        tanh = TanhSystem(n=3, m=2, d=2, seed=5)
        tanh_thetas = rng.standard_normal((300, 2))
        tanh_thetas[:4] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]]
        horizon = make_horizon_selection_env([1, 2, 3], T=200, seed=0)
        arm_values = (0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2.49, 2.5, -3.0, 7.0)
        horizon_thetas = np.array([[arm_values[i % 10]] for i in range(300)])
        for env, thetas in ((tanh, tanh_thetas), (horizon, horizon_thetas)):
            X = random_states(rng, env.n, 300)
            for t in (0, 1, 57, 199):
                self.assert_lanes_match_single(env, t, X, thetas)

    @pytest.mark.parametrize("t, B", [(40, 1), (150, 32), (230, 128), (599, 450)])
    def test_finite_memory_gradient_matches_default(self, pendulum_cases, t, B):
        for env, traj in pendulum_cases:
            twin = DefaultClosedLoop(env.T, env.w, env.p, env.theta_set, env.x0)
            for theta in (traj.thetas[t], env.theta_set.lo, env.theta_set.hi):
                fast = finite_memory_gradient(env, theta, t, B)
                assert same(fast.grad, finite_memory_gradient(twin, theta, t, B).grad)


class TestHorizon:
    def test_step_methods_match_plain_forms(self):
        rng = np.random.default_rng(1)
        for seed in range(3):
            env = make_horizon_selection_env([1, 2, 3], T=200, seed=seed)
            thetas = [np.array([v]) for v in (0.0, -0.0, 0.5, 1.0, 1.5, 2.49, 2.5, -3.0, 7.0)]
            for i, x in enumerate(random_states(rng, 1, 120)):
                t = i % 200
                for theta in thetas:
                    assert env._arm(theta) == ref_arm(env, theta)
                    u = env.policy(t, x, theta)
                    assert same(u, ref_horizon_policy(env, t, x, theta))
                    assert same(env.dynamics(t, x, u), ref_horizon_dynamics(env, t, x, u))
                    assert same(env.cost(t, x, u), ref_horizon_cost(env, t, x, u))
                    assert_same_jacobians(
                        env.jacobians(t, x, theta), ref_horizon_jacobians(env, t, x, theta)
                    )


class TestLinalg:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
    def test_single_state_helpers_match_plain_forms(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for x in random_states(rng, n, 300):
            M = rng.standard_normal((m, n))
            # Symmetric but indefinite: a zero state then gives a zero
            # product of either sign.
            Q = rng.standard_normal((n, n))
            Q = Q + Q.T
            R = np.diag(rng.standard_normal(m))
            u = rng.standard_normal(m) * rng.choice([0.0, -0.0, 1e-3, 1.0, 1e4])
            assert same(row_matmul(x, M), x @ M.T)
            assert same(quadratic_cost(x, Q, u, R), float(x @ Q @ x + u @ R @ u))

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3)])
    def test_closed_loop_blocks_match_plain_forms(self, n, m, d):
        rng = np.random.default_rng(n + 7 * m + 31 * d)
        for _ in range(300):
            jac = StepJacobians(
                dg_dx=rng.standard_normal((n, n)),
                dg_du=rng.standard_normal((n, m)),
                dpi_dx=rng.standard_normal((m, n)) * rng.choice([0.0, 1.0, 30.0]),
                dpi_dtheta=rng.standard_normal((m, d)),
                df_dx=rng.standard_normal(n),
                df_du=rng.standard_normal(m),
            )
            assert same(jac.A_cl, jac.dg_dx + jac.dg_du @ jac.dpi_dx)
            assert same(jac.c_x, jac.df_dx + jac.df_du @ jac.dpi_dx)

    def test_lane_closed_loop_broadcasts(self):
        rng = np.random.default_rng(3)
        dg_dx, dg_du = rng.standard_normal((2, 2)), rng.standard_normal((2, 1))
        dpi_dx = rng.standard_normal((5, 1, 2))
        jac = StepJacobians(dg_dx, dg_du, dpi_dx, np.zeros((5, 1, 2)), np.zeros(2), np.zeros(1))
        assert same(jac.A_cl, dg_dx + dg_du @ dpi_dx)

    # solve_dare doubles where the plain loop iterates the Riccati map once
    # per step, so the two agree to rounding, not bit for bit. At most 12
    # steps: a solver that fell back to linear convergence would take ~250
    # on the pendulum.

    @pytest.mark.parametrize("mass", [1.0, 0.8, 1.3])
    def test_pendulum_dare_matches_plain_iteration(self, mass):
        env = make_pendulum_env(10, np.zeros(10), seed=0)
        A, B = env.linearization(mass)
        assert_dare_matches_plain_iteration(A, B, env.Q, env.R)

    def test_scalar_dare_matches_plain_iteration(self):
        # The fig2 and horizon systems: x' = 2x + u with unit costs.
        A, B, Q, R = (np.array([[v]]) for v in (2.0, 1.0, 1.0, 1.0))
        sol = assert_dare_matches_plain_iteration(A, B, Q, R)
        env = make_horizon_selection_env([1, 2, 3], T=20, seed=0)
        assert same(env.Qf, sol.P)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dac_stabilizing_gains_match_plain_iteration(self, n):
        env = make_dac_env(T=30, seed=0, n=n)
        for t in range(env.T):
            _, K = ref_solve_dare(env.A[t], env.B[t], env.Q[t], env.R[t])
            assert relative_error(env.K_stb[t], K) <= 1e-12

    def test_solve_linear_pivot_check_matches_plain_elimination(self):
        rng = np.random.default_rng(5)
        cases = []
        for n in (1, 2, 3, 4):
            for _ in range(200):
                M = rng.standard_normal((n, n))
                kind = rng.integers(5)
                if kind == 1:  # a tiny or zero entry where a pivot may land
                    M[rng.integers(n), rng.integers(n)] = rng.choice([0.0, -0.0, 1e-13])
                elif kind == 2:  # rank deficient
                    M[-1] = M[0] * rng.choice([1.0, -2.0])
                elif kind == 3:  # NaN or inf in the matrix
                    M[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
                elif kind == 4:  # ties in magnitude
                    M[:, 0] = rng.choice([-1.0, 1.0], n)
                cases.append(M)
        # np.argmax picks the first NaN, even over a larger entry or a pivot
        # that would be refused.
        for column in ([1e-13, np.nan], [np.nan, 1e-13], [2.0, np.nan, 1e-13], [1e-13, 3.0, np.nan]):
            cases.append(np.column_stack([column, np.eye(len(column))[:, 1:]]))
        for M in cases:
            rhs = np.ones((M.shape[0], 1))
            with np.errstate(all="ignore"):
                try:
                    expected = ref_solve_linear(M, rhs)
                except (SingularMatrix, np.linalg.LinAlgError) as exc:
                    with pytest.raises(type(exc)):
                        solve_linear(M, rhs)
                    continue
                assert same(solve_linear(M, rhs), expected)


class TestGapsStep:
    def test_project_matches_clip(self):
        rng = np.random.default_rng(2)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300]
        for lo, hi in (([0.0, -1.0], [1.0, -0.0]), ([-0.0, 0.0], [0.0, 0.0]), ([17.0, 4.0], [40.0, 16.0])):
            box = Box(lo, hi)
            points = [rng.standard_normal(2) * 30 for _ in range(200)]
            points += [np.array([a, b]) for a in specials for b in specials]
            points += [np.array(lo), np.array(hi), -np.array(lo), -np.array(hi)]
            for theta in points:
                assert same(box.project(theta), np.clip(theta, box.lo, box.hi))

    @pytest.mark.parametrize("n, m, d", [(3, 2, 2), (1, 1, 1), (2, 1, 2)])
    @pytest.mark.parametrize("B", [1, 2, 5, 32])
    def test_step_matches_plain_step_on_random_blocks(self, B, n, m, d):
        rng = np.random.default_rng(B)
        box = Box([-1.0, -0.0, -1.0][:d], [1.0, 0.0, 1.0][:d])
        cfg = GapsConfig(eta=0.3, B=B, theta0=[0.1, -0.0, 0.0][:d], set=box)
        state = ref_state = GapsState.initial(cfg)
        for _ in range(60):
            jac = StepJacobians(
                dg_dx=rng.standard_normal((n, n)) * 0.4,
                dg_du=rng.standard_normal((n, m)),
                dpi_dx=rng.standard_normal((m, n)) * 0.3,
                dpi_dtheta=rng.standard_normal((m, d)),
                df_dx=rng.standard_normal(n),
                df_du=rng.standard_normal(m),
            )
            grad, state = gaps_step(state, jac, cfg)
            ref_grad, ref_state = ref_gaps_step(ref_state, jac, cfg)
            assert same(grad, ref_grad)
            assert same(state.theta, ref_state.theta)
            assert same(state.ring, ref_state.ring)

    @staticmethod
    def _step_with_gradient(df_du):
        cfg = GapsConfig(eta=1.0, B=4, theta0=[0.0, 0.0], set=Box([-1.0, -1.0], [1.0, 1.0]))
        jac = StepJacobians(
            dg_dx=np.eye(2),
            dg_du=np.ones((2, 1)),
            dpi_dx=np.zeros((1, 2)),
            dpi_dtheta=np.array([[1.0, 1.0]]),
            df_dx=np.zeros(2),
            df_du=np.array([df_du]),
        )
        return gaps_step(GapsState.initial(cfg), jac, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises(self, bad):
        with pytest.raises(NonFiniteGradient):
            self._step_with_gradient(bad)

    def test_huge_finite_gradient_does_not_raise(self):
        # Its squared norm overflows to inf; the entries are finite.
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.dot([1e200, 1e200], [1e200, 1e200]))
            grad, state = self._step_with_gradient(1e200)
        assert np.array_equal(grad, [1e200, 1e200])
        assert np.array_equal(state.theta, [-1.0, -1.0])
