import numpy as np
import pytest

from gaps.core import GapsConfig, GapsState, default_buffer_length, gaps_step, run_gaps
from gaps.envs import IidGaussian, make_constant_noise_env, make_fig2_env, make_pendulum_env
from gaps.errors import DimensionMismatch, NonFiniteGradient
from gaps.oracles import ideal_gradient
from gaps.system import rollout
from conftest import random_tanh_system


def brute_force_gradient(jacs, t, B):
    """Explicit chain-rule evaluation of the truncated gradient (oracle)."""
    total = jacs[t].df_du @ jacs[t].dpi_dtheta
    dc_dx = jacs[t].df_dx + jacs[t].df_du @ jacs[t].dpi_dx
    for b in range(1, min(B - 1, t) + 1):
        M = jacs[t - b].dg_du @ jacs[t - b].dpi_dtheta
        for j in range(t - b + 1, t):
            M = (jacs[j].dg_dx + jacs[j].dg_du @ jacs[j].dpi_dx) @ M
        total = total + dc_dx @ M
    return total


class TestGapsStep:
    def test_first_step_uses_policy_term_only(self, tanh_system):
        cfg = GapsConfig(eta=0.1, B=8, theta0=np.zeros(2), set=tanh_system.theta_set)
        state = GapsState.initial(cfg)
        jac = tanh_system.jacobians(0, tanh_system.x0, state.theta)
        grad, new_state = gaps_step(state, jac, cfg)
        assert np.allclose(grad, jac.df_du @ jac.dpi_dtheta, atol=0)
        assert new_state.t == 1
        assert len(new_state.buffer) == 1

    def test_buffer_length_one_never_populates(self, tanh_system):
        cfg = GapsConfig(eta=0.05, B=1, theta0=np.zeros(2), set=tanh_system.theta_set)
        state = GapsState.initial(cfg)
        x = tanh_system.x0.copy()
        for t in range(10):
            jac = tanh_system.jacobians(t, x, state.theta)
            grad, state = gaps_step(state, jac, cfg)
            assert np.allclose(grad, jac.df_du @ jac.dpi_dtheta, atol=0)
            assert state.buffer == []
            x = tanh_system.dynamics(t, x, tanh_system.policy(t, x, state.theta))

    @pytest.mark.parametrize("B", [1, 4])
    def test_state_from_t_and_theta_only(self, tanh_system, B):
        cfg = GapsConfig(eta=0.1, B=B, theta0=np.zeros(2), set=tanh_system.theta_set)
        state = GapsState(t=0, theta=np.zeros(2))
        assert state.ring.shape == (0, 0, 2)
        jac = tanh_system.jacobians(0, tanh_system.x0, state.theta)
        _, state = gaps_step(state, jac, cfg)
        assert state.ring.shape == (min(B - 1, 1), tanh_system.n, 2)

    def test_recursion_equals_brute_force_on_confidence_env(self):
        env = make_fig2_env(T=60, seed=4)
        cfg = GapsConfig(eta=1e-3, B=10, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, 50)
        jacs = [env.jacobians(t, traj.states[t], traj.thetas[t]) for t in range(50)]
        for t in range(50):
            expected = brute_force_gradient(jacs, t, 10)
            assert np.max(np.abs(expected - traj.grads[t])) < 1e-10

    def test_recursion_equals_brute_force_random_systems(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            system = random_tanh_system(rng)
            T = int(rng.integers(10, 60))
            B = int(rng.integers(1, T + 1))
            cfg = GapsConfig(
                eta=1e-3, B=B, theta0=np.zeros(system.d), set=system.theta_set
            )
            traj = run_gaps(system, cfg, T)
            jacs = [system.jacobians(t, traj.states[t], traj.thetas[t]) for t in range(T)]
            for t in range(T):
                expected = brute_force_gradient(jacs, t, B)
                assert np.max(np.abs(expected - traj.grads[t])) < 1e-10

    def test_nonfinite_gradient_raises(self, tanh_system):
        cfg = GapsConfig(eta=0.1, B=4, theta0=np.zeros(2), set=tanh_system.theta_set)
        state = GapsState.initial(cfg)
        jac = tanh_system.jacobians(0, tanh_system.x0, state.theta)
        jac.df_du = jac.df_du * np.nan
        with pytest.raises(NonFiniteGradient):
            gaps_step(state, jac, cfg)


def reference_run(system, cfg, T):
    """GAPS with the ring kept as a Python list of per-lag matrices.

    Yields (t, grad, theta, ring) per step, where ring is the list after
    the step: ring[b-1] = dx_{t+1}/dtheta_{t+1-b}. Lags are summed in order.
    """
    x = np.array(system.x0, dtype=float)
    theta = cfg.theta0.copy()
    ring = []
    for t in range(T):
        u = system.policy(t, x, theta)
        jac = system.jacobians(t, x, theta)
        grad = jac.df_du @ jac.dpi_dtheta
        if ring:
            grad = grad + jac.dcost_dx_closed() @ sum(ring)
        if cfg.B > 1:
            A_cl = jac.closed_loop()
            ring = [jac.dg_du @ jac.dpi_dtheta] + [A_cl @ M for M in ring[: cfg.B - 2]]
        yield t, grad, theta, ring
        theta = cfg.set.project(theta - cfg.eta * grad)
        x = system.dynamics(t, x, u)


class TestStackedRing:
    """The stacked (k, n, d) ring against the list recursion, bit for bit."""

    @staticmethod
    def _setup(name, T, B):
        if name == "pendulum":  # n = d = 2
            env = make_pendulum_env(T, IidGaussian(1.0), seed=3)
            return env, GapsConfig(eta=5.0, B=B, theta0=env.lqr_gains(1.0), set=env.theta_set)
        env = make_fig2_env(T=T, seed=0)  # n = d = 1
        return env, GapsConfig(eta=0.05, B=B, theta0=[1.0], set=env.theta_set)

    @pytest.mark.parametrize("name, B", [
        ("pendulum", 2), ("pendulum", 32), ("pendulum", 128), ("pendulum", 400),
        ("fig2", 2), ("fig2", 32),
    ])
    def test_run_gaps_equals_list_ring(self, name, B):
        T = 300
        env, cfg = self._setup(name, T, B)
        traj = run_gaps(env, cfg, T)
        ref = list(reference_run(env, cfg, T))
        assert np.array_equal(traj.grads, np.array([g for _, g, _, _ in ref]))
        assert np.array_equal(traj.thetas, np.array([th for _, _, th, _ in ref]))

    def test_buffer_rows_are_lags(self):
        T, B = 60, 16
        env, cfg = self._setup("pendulum", T, B)
        state = GapsState.initial(cfg)
        x = np.array(env.x0, dtype=float)
        for t, grad, theta, ring in reference_run(env, cfg, T):
            assert np.array_equal(state.theta, theta)
            jac = env.jacobians(t, x, state.theta)
            u = env.policy(t, x, state.theta)
            g, state = gaps_step(state, jac, cfg)
            assert np.array_equal(g, grad)
            assert state.ring.shape == (min(B - 1, t + 1), env.n, env.d)
            assert len(state.buffer) == len(ring)
            for b in range(1, len(ring) + 1):
                assert np.array_equal(state.buffer[b - 1], ring[b - 1])
            x = env.dynamics(t, x, u)

    def test_ring_length_mismatch_raises(self, tanh_system):
        cfg = GapsConfig(eta=0.1, B=4, theta0=np.zeros(2), set=tanh_system.theta_set)
        state = GapsState.initial(cfg)
        jac = tanh_system.jacobians(0, tanh_system.x0, state.theta)
        _, state = gaps_step(state, jac, cfg)
        state.t = 0
        with pytest.raises(DimensionMismatch):
            gaps_step(state, jac, cfg)


class TestRunGaps:
    def test_zero_rate_freezes_theta(self):
        env = make_fig2_env(T=80, seed=2)
        cfg = GapsConfig(eta=0.0, B=16, theta0=[0.6], set=env.theta_set)
        traj = run_gaps(env, cfg, 80)
        assert np.all(traj.thetas == 0.6)
        frozen = rollout(env, np.array([0.6]), T=80)
        assert np.array_equal(traj.costs, frozen.costs)
        assert np.array_equal(traj.states, frozen.states)

    def test_fig2_confidence_dips_then_recovers(self):
        env = make_fig2_env(T=200, seed=0)
        cfg = GapsConfig(eta=0.05, B=32, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, 200)
        assert traj.thetas[0, 0] == 1.0
        assert np.min(traj.thetas[:100, 0]) < 0.6  # dips in the noisy phase
        assert traj.thetas[-1, 0] > 0.75  # recovers once predictions improve

    def test_converges_to_stationary_surrogate_minimizer(self):
        # Deterministic convex case: constant disturbance, predictions a
        # fixed factor too large. The surrogate is a time-invariant quadratic
        # in the confidence, so theta converges to its minimizer and the
        # surrogate gradient vanishes.
        from gaps.envs.confidence_mpc import ConfidenceMpcEnv
        from gaps.linalg import solve_dare

        T = 400
        qf = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]]).P
        w = np.ones((T + 1, 1))
        preds = 2.0 * np.ones((T, 1, 1))
        env = ConfidenceMpcEnv([[2.0]], [[1.0]], [[1.0]], [[1.0]], qf, 1, w, preds)
        cfg = GapsConfig(eta=5e-3, B=48, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, T)
        final_grad = ideal_gradient(env, traj.thetas[-1], T - 1, "chain")
        assert np.linalg.norm(final_grad) < 1e-6
        # Cross-check against a grid argmin of the stationary surrogate.
        grid = np.linspace(0.0, 1.0, 2001)[:, None]
        vals = env.batch_surrogate_costs(grid, T)[T - 1]
        best = grid[int(np.argmin(vals)), 0]
        assert abs(traj.thetas[-1, 0] - best) < 1e-3

    def test_increment_bound(self):
        env = make_fig2_env(T=100, seed=6)
        cfg = GapsConfig(eta=0.02, B=8, theta0=[0.9], set=env.theta_set)
        traj = run_gaps(env, cfg, 100)
        steps = np.linalg.norm(np.diff(traj.thetas, axis=0), axis=1)
        bound = cfg.eta * np.linalg.norm(traj.grads[:-1], axis=1)
        assert np.all(steps <= bound + 1e-12)


class TestBias:
    def test_bias_shrinks_with_buffer_length(self):
        # Mean gradient error vs the exact surrogate gradient decreases in B.
        T = 150
        biases = []
        for B in [1, 4, 16]:
            env = make_fig2_env(T=T, seed=9, sigma_w=0.5, sigma_pred_before=1.0,
                                sigma_pred_after=0.01)
            cfg = GapsConfig(eta=1e-3, B=B, theta0=[1.0], set=env.theta_set)
            traj = run_gaps(env, cfg, T)
            err = np.mean(
                [
                    np.linalg.norm(
                        traj.grads[t] - ideal_gradient(env, traj.thetas[t], t, "chain")
                    )
                    for t in range(T)
                ]
            )
            biases.append(err)
        assert biases[0] > biases[1] > biases[2]

    def test_cost_bias_scales_with_eta(self):
        from gaps.oracles import surrogate_cost

        T = 300
        avgs = []
        for eta in [4e-3, 2e-3]:
            env = make_constant_noise_env(T=T, seed=8, sigma_w=1.0, sigma_pred=1.0)
            cfg = GapsConfig(eta=eta, B=32, theta0=[0.5], set=env.theta_set)
            traj = run_gaps(env, cfg, T)
            avgs.append(
                np.mean(
                    [abs(traj.costs[t] - surrogate_cost(env, traj.thetas[t], t)) for t in range(T)]
                )
            )
        # Halving eta at least halves the bias, up to factor-2.5 slack.
        assert avgs[0] / avgs[1] >= 1.5
        assert avgs[0] / avgs[1] <= 2.5


def test_default_buffer_length():
    assert default_buffer_length(1000) == 32
    assert default_buffer_length(1000, rho_hat=0.382) == 4
    assert default_buffer_length(16000, rho_hat=0.382) == 6
    with pytest.raises(ValueError):
        default_buffer_length(100, rho_hat=1.5)
