import numpy as np
import pytest

from gaps.envs import make_fig2_env, make_pendulum_env
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import DimensionMismatch, StateBlowup
from gaps.metrics import surrogate_table
from gaps.system import (
    Ball,
    Box,
    ControlSystem,
    WholeSpace,
    check_jacobians,
    rollout,
)
from conftest import TanhSystem


class TestProjection:
    def test_box_clamps(self):
        assert Box([0.0], [1.0]).project(np.array([1.5]))[0] == 1.0

    def test_whole_space_identity(self):
        theta = np.array([3.0, -7.0])
        assert np.array_equal(WholeSpace(2).project(theta), theta)

    def test_ball_radial_rescale(self):
        out = Ball([0.0, 0.0], 1.0).project(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Box([0.0], [1.0]).project(np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "pset",
        [WholeSpace(3), Box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0]), Ball([1.0, -1.0, 0.0], 2.0)],
    )
    def test_idempotent_member_and_nonexpansive(self, pset):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = rng.uniform(-5, 5, 3)
            b = rng.uniform(-5, 5, 3)
            pa, pb = pset.project(a), pset.project(b)
            assert np.allclose(pset.project(pa), pa, atol=1e-12)
            assert pset.contains(pa, tol=1e-9)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestRollout:
    def test_origin_fixed_point(self):
        env = make_fig2_env(T=50, seed=0, sigma_w=0.0, sigma_pred_before=0.0, sigma_pred_after=0.0)
        traj = rollout(env, np.array([0.7]), T=50)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.actions == 0.0)
        assert np.all(traj.costs == 0.0)

    def test_closed_loop_power_iteration(self):
        # u = -K x with the stationary gain: x_t = (a - b K)^t x_0.
        from gaps.envs.linear_feedback import LinearFeedbackEnv

        K = (1.0 + np.sqrt(5.0)) / 2.0
        env = LinearFeedbackEnv(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((30, 1)),
            theta_set=Box([K], [K]), x0=[1.0],
        )
        traj = rollout(env, np.array([K]), T=30)
        expected = (2.0 - K) ** np.arange(30)
        assert np.allclose(traj.states[:, 0], expected, atol=1e-12)

    def test_restart_consistency(self, tanh_system):
        # Restarting from any recorded state with the theta tail agrees exactly.
        rng = np.random.default_rng(3)
        thetas = rng.uniform(-1, 1, (40, tanh_system.d))
        full = rollout(tanh_system, thetas, T=40)
        for tau in [1, 7, 23]:
            # time indices must line up, so re-run manually from x_tau
            x = full.states[tau].copy()
            for t in range(tau, 40):
                u = tanh_system.policy(t, x, thetas[t])
                assert np.allclose(u, full.actions[t], atol=0)
                x = tanh_system.dynamics(t, x, u)
            assert np.array_equal(x, full.final_state)

    def test_constant_theta_matches_surrogate_states(self, tanh_system):
        from gaps.oracles import surrogate_cost

        theta = np.array([0.3, -0.2])
        traj = rollout(tanh_system, theta, T=25)
        for t in [0, 5, 24]:
            assert surrogate_cost(tanh_system, theta, t) == pytest.approx(
                traj.costs[t], abs=0
            )

    def test_nan_disturbance_raises_in_every_runner(self):
        # The guard is `not norm <= cap`, which a NaN state fails; with a
        # plain `norm > cap` the NaN would flow on into the costs.
        from gaps.baps import BapsConfig, run_baps
        from gaps.core import GapsConfig, run_gaps
        from gaps.oracles import finite_memory_gradient, run_ideal_ogd

        w = np.zeros(40)
        w[10] = np.nan
        env = make_pendulum_env(40, w, seed=0)
        gains = env.lqr_gains(1.0)
        cfg = GapsConfig(eta=1.0, B=8, theta0=gains, set=env.theta_set)
        runs = [
            lambda: rollout(env, gains, T=40),
            lambda: run_gaps(env, cfg, 40),
            lambda: run_ideal_ogd(env, cfg, 40),
            lambda: finite_memory_gradient(env, gains, 30, 25),
            lambda: run_baps(env, [gains, gains + 1.0], BapsConfig(k=2, b=5, eta=0.1), 40),
        ]
        for run in runs:
            with pytest.raises(StateBlowup) as info:
                run()
            assert info.value.t == 11

    def test_blowup_raises(self):
        from gaps.envs.linear_feedback import LinearFeedbackEnv

        env = LinearFeedbackEnv(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((200, 1)),
            theta_set=Box([0.0], [0.0]), x0=[1.0],
        )
        with pytest.raises(StateBlowup):
            rollout(env, np.array([0.0]), T=200)


class TestLaneEntryPoints:
    class ConstEnv(LinearFeedbackEnv):
        """Redefines policy and cost of a broadcasting env with scalar math."""

        def cost(self, t, x, u):
            return float({0: 0.1, 1: 1.0}[int(round(u[0]))])

        def policy(self, t, x, theta):
            return np.array([theta[0]])

    def test_subclass_override_resets_lane_alias(self):
        env_cls = self.ConstEnv
        for name in ("policy", "cost"):
            assert getattr(env_cls, f"{name}_lanes") is getattr(ControlSystem, f"{name}_lanes")
        for name in ("dynamics", "jacobians"):
            assert env_cls.__dict__.get(f"{name}_lanes") is None
            assert getattr(env_cls, f"{name}_lanes") is getattr(LinearFeedbackEnv, name)

    def test_surrogate_table_uses_subclass_step_math(self):
        T = 20
        env = self.ConstEnv(
            [[0.0]], [[0.0]], [[1.0]], [[1.0]], np.zeros((T, 1)),
            theta_set=Box([0.0], [1.0]),
        )
        arms = np.array([[0.0], [1.0]])
        totals = surrogate_table(env, arms, T).sum(axis=0)
        expected = [rollout(env, theta, T).total_cost for theta in arms]
        assert np.allclose(totals, expected, rtol=1e-12, atol=0.0)
        assert np.allclose(totals, [2.0, 20.0], rtol=1e-12, atol=0.0)


class TestCheckJacobians:
    def test_exactly_linear_system(self):
        env = make_fig2_env(T=20, seed=1)
        rep = check_jacobians(env, 3, np.array([0.4]), np.array([0.6]))
        assert rep.passed
        # Dynamics and policy are exactly linear: error is pure round-off.
        for block in ("dg_dx", "dg_du", "dpi_dx", "dpi_dtheta"):
            assert rep.errors[block] < 1e-10
        assert rep.max_error < 1e-9

    def test_pendulum_near_upright(self):
        env = make_pendulum_env(50, np.zeros(50), seed=0)
        rep = check_jacobians(
            env, 0, np.array([0.05, -0.1]), np.array([20.0, 6.0]), h=1e-5, rel_tol=1e-5
        )
        assert rep.passed

    def test_tiny_step_hits_cancellation_floor(self, tanh_system):
        # h = 1e-13 is dominated by round-off; documented finite-difference
        # behavior, not an analytic-derivative failure.
        x = np.array([0.2, -0.1])
        theta = np.array([0.1, 0.4])
        good = check_jacobians(tanh_system, 0, x, theta, h=1e-6)
        bad = check_jacobians(tanh_system, 0, x, theta, h=1e-13)
        assert good.passed
        assert bad.max_error > good.max_error * 10

    def test_random_points_all_envs(self, tanh_system):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, tanh_system.n)
            theta = rng.uniform(-1, 1, tanh_system.d)
            rep = check_jacobians(
                tanh_system, int(rng.integers(0, 100)), x, theta,
                h=1e-6 * (1 + np.linalg.norm(x)), rel_tol=1e-5,
            )
            assert rep.passed, rep.errors

    def test_sign_error_reports_failing_block(self, tanh_system):
        class Broken(TanhSystem):
            def jacobians(self, t, x, theta):
                jac = super().jacobians(t, x, theta)
                jac.dpi_dtheta = -jac.dpi_dtheta
                return jac

        broken = Broken(seed=42)
        rep = check_jacobians(broken, 0, np.array([0.2, -0.1]), np.array([0.1, 0.4]))
        assert not rep.passed
        assert "dpi_dtheta" in rep.failing_blocks()
