import numpy as np
import pytest

from gaps.core import GapsConfig, run_gaps
from gaps.envs import make_fig2_env, make_pendulum_env
from gaps.envs.confidence_mpc import ConfidenceMpcEnv
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import StateBlowup
from gaps.linalg import solve_dare
from gaps.metrics import local_regret
from gaps.oracles import (
    finite_memory_gradient,
    ideal_gradient,
    run_ideal_ogd,
    surrogate_cost,
    surrogates,
)
from gaps.system import Box
from conftest import TanhSystem, random_tanh_system


def quiet_scalar_env(T, w=None, preds=None):
    qf = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]]).P
    w = np.zeros((T + 1, 1)) if w is None else w
    preds = np.zeros((T, 1, 1)) if preds is None else preds
    return ConfidenceMpcEnv([[2.0]], [[1.0]], [[1.0]], [[1.0]], qf, 1, w, preds)


class TestSurrogateCost:
    def test_zero_disturbances_zero_cost(self):
        env = quiet_scalar_env(30)
        for theta in [0.0, 0.5, 1.0]:
            for t in [0, 7, 29]:
                assert surrogate_cost(env, [theta], t) == 0.0

    def test_time_zero_ignores_dynamics(self, tanh_system):
        theta = np.array([0.4, -0.7])
        u = tanh_system.policy(0, tanh_system.x0, theta)
        expected = tanh_system.cost(0, tanh_system.x0, u)
        assert surrogate_cost(tanh_system, theta, 0) == expected

    def test_single_disturbance_hand_value(self):
        # One nonzero disturbance w_0 = 1, perfectly predicted, lambda = 1.
        # Hand simulation: u_0 = -H*1 (x_0 = 0), x_1 = u_0 + 1 = 1 - H,
        # u_1 = -Kbar x_1 (no further predicted disturbance), cost at t=1 is
        # x_1^2 + u_1^2.
        T = 4
        w = np.zeros((T + 1, 1))
        w[0] = 1.0
        preds = np.zeros((T, 1, 1))
        preds[0, 0, 0] = 1.0
        env = quiet_scalar_env(T, w=w, preds=preds)
        qf = 2.0 + np.sqrt(5.0)
        H = qf / (1.0 + qf)
        K = (1.0 + np.sqrt(5.0)) / 2.0
        x1 = 1.0 - H
        expected = x1**2 + (K * x1) ** 2
        assert surrogate_cost(env, [1.0], 1) == pytest.approx(expected, abs=1e-12)


class TestIdealGradient:
    def test_chain_matches_finite_diff_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            system = random_tanh_system(rng)
            theta = rng.uniform(-0.8, 0.8, system.d)
            t = int(rng.integers(0, 41))
            chain = ideal_gradient(system, theta, t, "chain")
            fd = ideal_gradient(system, theta, t, "finite_diff")
            assert np.linalg.norm(chain - fd) / (1.0 + np.linalg.norm(chain)) < 1e-5

    def test_gradient_linear_in_theta_for_quadratic_surrogate(self):
        # Affine policy + linear dynamics + quadratic cost: F_t is quadratic,
        # so its gradient is affine; three collinear evaluations verify it.
        env = make_fig2_env(T=50, seed=3)
        t = 30
        g0 = ideal_gradient(env, np.array([0.2]), t, "chain")
        g1 = ideal_gradient(env, np.array([0.5]), t, "chain")
        g2 = ideal_gradient(env, np.array([0.8]), t, "chain")
        assert np.allclose(g2 - g1, g1 - g0, atol=1e-9)

    def test_zero_at_unconstrained_minimizer(self):
        env = make_fig2_env(T=40, seed=12)
        t = 25
        # Quadratic in theta: solve for the stationary point from two slopes.
        g0 = ideal_gradient(env, np.array([0.0]), t, "chain")[0]
        g1 = ideal_gradient(env, np.array([1.0]), t, "chain")[0]
        theta_star = -g0 / (g1 - g0)
        assert np.linalg.norm(
            ideal_gradient(env, np.array([theta_star]), t, "chain")
        ) < 1e-8

    def test_unknown_mode_raises(self, tanh_system):
        with pytest.raises(ValueError):
            ideal_gradient(tanh_system, np.zeros(2), 3, "autodiff")

    def test_equals_untruncated_buffer_at_frozen_theta(self, tanh_system):
        # With theta frozen and the buffer covering the whole history, the
        # streaming gradient IS the exact surrogate gradient.
        T = 40
        theta = np.array([0.3, -0.4])
        cfg = GapsConfig(eta=0.0, B=T + 1, theta0=theta, set=tanh_system.theta_set)
        traj = run_gaps(tanh_system, cfg, T)
        for t in range(T):
            exact = ideal_gradient(tanh_system, theta, t, "chain")
            assert np.max(np.abs(exact - traj.grads[t])) < 1e-12


class TestRunIdealOgd:
    def test_zero_rate_matches_gaps(self):
        env = make_fig2_env(T=60, seed=1)
        cfg = GapsConfig(eta=0.0, B=8, theta0=[0.7], set=env.theta_set)
        a = run_ideal_ogd(env, cfg, 60)
        b = run_gaps(env, cfg, 60)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.thetas, b.thetas)

    def test_gaps_tracks_ogd_linearly_in_eta(self):
        # Parameter paths stay within c * eta * t of each other.
        T = 300
        for eta in [2e-3, 1e-3]:
            env = make_fig2_env(T=T, seed=4)
            cfg = GapsConfig(eta=eta, B=32, theta0=[1.0], set=env.theta_set)
            g = run_gaps(env, cfg, T)
            o = run_ideal_ogd(env, cfg, T)
            gap = np.linalg.norm(g.thetas - o.thetas, axis=1)
            t = np.arange(1, T + 1)
            c = np.max(gap / (eta * t))
            assert c < 50.0  # loose absolute sanity bound
        # The sup-normalized deviation should not explode as eta shrinks.

    def test_static_regret_bound_stationary_convex(self):
        # Against the best grid point: regret <= D^2/(2 eta) + eta W^2 T
        # with W the max observed gradient norm (bias-free OGD bound).
        from gaps.envs import make_constant_noise_env
        from gaps.metrics import make_theta_grid, static_and_adaptive_regret, surrogate_table

        T = 400
        env = make_constant_noise_env(T=T, seed=6, sigma_w=1.0, sigma_pred=1.0)
        eta = 0.004
        cfg = GapsConfig(eta=eta, B=1, theta0=[1.0], set=env.theta_set)
        traj = run_ideal_ogd(env, cfg, T)
        grid = make_theta_grid(env.theta_set, 101)
        table = surrogate_table(env, grid, T)
        rep = static_and_adaptive_regret(traj.costs, table, grid)
        # Surrogate regret (the quantity the bound controls): sum of
        # F_t(theta_t) - min over grid of sum F_t(theta).
        surr = np.array([surrogate_cost(env, traj.thetas[t], t) for t in range(T)])
        surr_regret = np.sum(surr) - np.min(np.sum(table, axis=0))
        W = np.max(np.linalg.norm(traj.grads, axis=1))
        D = 1.0
        assert surr_regret <= D**2 / (2 * eta) + eta * W**2 * T
        assert rep.static_regret >= -1e-6  # sanity: the run never beats the grid


class TestFiniteMemory:
    def test_matches_streaming_on_clean_linear_history(self):
        # Zero disturbances from the zero state: resimulated and actual
        # trajectories coincide, so the reset-based estimator equals the
        # streaming gradient when theta history is constant.
        env = quiet_scalar_env(40)
        theta = np.array([0.6])
        cfg = GapsConfig(eta=0.0, B=9, theta0=theta, set=env.theta_set)
        traj = run_gaps(env, cfg, 40)
        for t in [9, 20, 39]:
            fm = finite_memory_gradient(env, theta, t, 9)
            assert np.allclose(fm.grad, traj.grads[t], atol=1e-12)

    def test_policy_evaluation_count(self, tanh_system):
        fm = finite_memory_gradient(tanh_system, np.zeros(2), 12, 5)
        assert fm.policy_evals == 6  # B + 1, vs one per step for streaming

    def test_error_shrinks_with_memory(self):
        env = make_fig2_env(T=80, seed=5)
        theta = np.array([0.5])
        t = 60
        exact = ideal_gradient(env, theta, t, "chain")
        errs = [
            np.linalg.norm(finite_memory_gradient(env, theta, t, B).grad - exact)
            for B in [2, 6, 18]
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_requires_enough_history(self, tanh_system):
        with pytest.raises(ValueError):
            finite_memory_gradient(tanh_system, np.zeros(2), 3, 5)


def per_state_surrogate(system, theta, t):
    """Reference F_t(theta) and its gradient: one constant-theta resimulation
    from x0 through the single-state methods."""
    x = np.array(system.x0, dtype=float)
    S = np.zeros((system.n, system.d))
    for tau in range(t):
        jac = system.jacobians(tau, x, theta)
        u = system.policy(tau, x, theta)
        S = jac.closed_loop() @ S + jac.dg_du @ jac.dpi_dtheta
        x = system.dynamics(tau, x, u)
    jac = system.jacobians(t, x, theta)
    cost = system.cost(t, x, system.policy(t, x, theta))
    return cost, jac.df_du @ jac.dpi_dtheta + jac.dcost_dx_closed() @ S


class TestLockstep:
    def test_bitwise_equal_to_per_state_resimulation_on_fig2(self):
        # fig2 runs the broadcasting lane entry points of ConfidenceMpcEnv.
        T = 200
        env = make_fig2_env(T=T, seed=3)
        cfg = GapsConfig(eta=0.05, B=8, theta0=[1.0], set=env.theta_set)
        thetas = run_gaps(env, cfg, T).thetas
        lock = surrogates(env, thetas, with_grad=True)
        for t in range(T):
            cost, grad = per_state_surrogate(env, thetas[t], t)
            assert lock.costs[t] == cost
            assert np.array_equal(lock.grads[t], grad)
            assert surrogate_cost(env, thetas[t], t) == cost
            assert np.array_equal(ideal_gradient(env, thetas[t], t), grad)

    def test_default_lane_loop_matches_per_state_resimulation(self):
        # TanhSystem keeps the default per-lane entry points, and all six of
        # its Jacobian blocks except dpi_dtheta depend on the lane's state.
        T = 60
        system = TanhSystem(n=3, m=2, d=2, seed=5)
        thetas = np.random.default_rng(5).uniform(-0.8, 0.8, (T, system.d))
        lock = surrogates(system, thetas, with_grad=True)
        for t in range(T):
            cost, grad = per_state_surrogate(system, thetas[t], t)
            assert abs(lock.costs[t] - cost) <= 1e-12
            assert np.max(np.abs(lock.grads[t] - grad)) <= 1e-12

    def test_arbitrary_read_steps(self):
        system = TanhSystem(seed=8)
        thetas = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
        steps = [4, 4, 11]
        lock = surrogates(system, thetas, steps, with_grad=True)
        for i in range(3):
            cost, grad = per_state_surrogate(system, thetas[i], steps[i])
            assert abs(lock.costs[i] - cost) <= 1e-12
            assert np.max(np.abs(lock.grads[i] - grad)) <= 1e-12
        with pytest.raises(ValueError):
            surrogates(system, thetas, [4, 3, 11])

    def test_diverging_lanes_raise(self):
        # x' = 2x + 1 with the gain pinned at zero doubles the state each step.
        T = 100
        env = LinearFeedbackEnv(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.ones((T, 1)),
            theta_set=Box([0.0], [0.0]),
        )
        with pytest.raises(StateBlowup):
            surrogates(env, np.zeros((T, 1)), with_grad=True)

    def test_nan_state_raises(self):
        w = np.zeros(50)
        w[10] = np.nan
        env = make_pendulum_env(50, w, seed=0)
        with pytest.raises(StateBlowup) as info:
            surrogates(env, np.tile(env.lqr_gains(1.0), (50, 1)))
        assert info.value.t == 11

    def test_local_regret_sums_ideal_gradients_in_order(self):
        T = 120
        env = make_fig2_env(T=T, seed=2)
        thetas = np.random.default_rng(2).uniform(0.0, 1.0, (T, 1))
        expected = 0.0
        for t in range(T):
            g = ideal_gradient(env, thetas[t], t)
            expected += float(np.dot(g, g))
        assert local_regret(env, thetas, T) == expected
