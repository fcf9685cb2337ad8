from functools import partial

import numpy as np
import pytest

from gaps.core import GapsConfig, run_gaps
from gaps.errors import StateBlowup
from gaps.envs import (
    IidGaussian,
    OrnsteinUhlenbeck,
    PiecewiseNoiseSchedule,
    ftl_confidence_baseline,
    lqr_baseline,
    make_dac_env,
    make_fig2_env,
    make_horizon_selection_env,
    make_pendulum_env,
)
from gaps.envs.horizon import HorizonSelectionEnv
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.linalg import quadratic_cost, solve_dare
from gaps.metrics import surrogate_table
from gaps.system import DEFAULT_BLOWUP_CAP, Box, check_jacobians, check_state, rollout
from gaps.validation import _qp_first_control


class TestDisturbances:
    def test_ou_lag1_autocorrelation(self):
        spec = OrnsteinUhlenbeck(mean_reversion=2.0, sigma=1.0, dt=0.02)
        rng = np.random.default_rng(0)
        w = spec.draw(100_000, 1, rng)[:, 0]
        r = np.corrcoef(w[:-1], w[1:])[0, 1]
        assert abs(r - (1.0 - 2.0 * 0.02)) < 0.05

    def test_ou_requires_stationary_regime(self):
        with pytest.raises(ValueError):
            OrnsteinUhlenbeck(mean_reversion=150.0, sigma=1.0, dt=0.02)

    def test_schedule_lookup(self):
        sched = PiecewiseNoiseSchedule([(0, 101, 2.0), (101, 200, 0.02)])
        assert sched.sigma_at(100) == 2.0
        assert sched.sigma_at(101) == 0.02
        assert sched.sigma_at(500) == 0.0


class TestConfidenceMpc:
    def test_policy_matches_qp_on_random_instances(self):
        rng = np.random.default_rng(1)
        from gaps.envs.confidence_mpc import ConfidenceMpcEnv

        for _ in range(50):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            k = int(rng.integers(1, 5))
            T = 4
            A = rng.uniform(-1, 1, (T + k, n, n))
            B = rng.uniform(-1, 1, (T + k, n, m))
            Q = np.stack([np.eye(n) * rng.uniform(0.5, 2) for _ in range(T + k)])
            R = np.stack([np.eye(m) * rng.uniform(0.5, 2) for _ in range(T + k)])
            Qf = np.eye(n) * rng.uniform(0.5, 2)
            w = rng.standard_normal((T + k, n))
            preds = rng.standard_normal((T, k, n))
            env = ConfidenceMpcEnv(A, B, Q, R, Qf, k, w, preds)
            theta = rng.uniform(0, 1, k)
            x = rng.standard_normal(n)
            t = int(rng.integers(0, T))
            u = env.policy(t, x, theta)
            u_qp = _qp_first_control(env, t, x, theta)
            assert np.linalg.norm(u - u_qp) / (1 + np.linalg.norm(u_qp)) < 1e-7

    def test_zero_confidence_is_state_feedback(self):
        env = make_fig2_env(T=50, seed=2)
        K = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]]).K[0, 0]
        x = np.array([0.7])
        u = env.policy(5, x, np.array([0.0]))
        assert u[0] == pytest.approx(-K * 0.7, abs=1e-12)

    def test_full_confidence_optimal_under_perfect_predictions(self):
        # Exact predictions make lambda = 1 the planner-optimal policy:
        # gradient descent on the exact surrogate gradients climbs to full
        # confidence and stays there, and no smaller confidence beats it in
        # realized total cost.
        from gaps.oracles import run_ideal_ogd

        T = 300
        env = make_fig2_env(T=T, seed=3, sigma_pred_before=0.0, sigma_pred_after=0.0)
        cfg = GapsConfig(eta=0.01, B=1, theta0=[0.5], set=env.theta_set)
        traj = run_ideal_ogd(env, cfg, T)
        # the objective is nearly flat close to 1, so the path hovers there
        assert np.mean(traj.thetas[50:, 0]) > 0.9
        table = env.batch_surrogate_costs(np.linspace(0, 1, 21)[:, None], T)
        assert np.argmin(table.sum(axis=0)) == 20  # lambda = 1 wins

    def test_fig2_gaps_dips_and_recovers(self):
        env = make_fig2_env(T=200, seed=0)
        traj = run_gaps(env, GapsConfig(eta=0.05, B=32, theta0=[1.0], set=env.theta_set), 200)
        assert np.min(traj.thetas[:101, 0]) < 0.6
        assert traj.thetas[-1, 0] > 0.75


class TestPendulum:
    def test_undisturbed_stabilization(self):
        env = make_pendulum_env(800, np.zeros(800), seed=0, x0=[0.3, 0.0])
        traj = rollout(env, env.lqr_gains(1.0), T=800)
        assert np.linalg.norm(traj.final_state) < 1e-6
        assert traj.costs[-1] < 1e-12

    def test_jacobians_at_random_points(self):
        env = make_pendulum_env(500, IidGaussian(0.5).draw(500, 1, np.random.default_rng(1))[:, 0], seed=1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, 2)
            theta = env.theta_set.sample(rng)
            rep = check_jacobians(env, int(rng.integers(0, 500)), x, theta,
                                  h=1e-6 * (1 + np.linalg.norm(x)), rel_tol=1e-5)
            assert rep.passed, rep.errors

    def test_gain_box_stabilizes_every_mass(self):
        env = make_pendulum_env(10, np.zeros(10), seed=0)
        lo, hi = env.theta_set.lo, env.theta_set.hi
        for kp in np.linspace(lo[0], hi[0], 12):
            for kd in np.linspace(lo[1], hi[1], 12):
                for mass in env.p.masses:
                    A, B = env.linearization(mass)
                    radius = max(abs(np.linalg.eigvals(A - B @ np.array([[kp, kd]]))))
                    assert radius < 1.0

    def test_lqr_gains_inside_gain_box(self):
        env = make_pendulum_env(10, np.zeros(10), seed=0)
        for mass in env.p.masses:
            assert env.theta_set.contains(env.lqr_gains(mass))

    def test_lqr_baseline_finite_cost_under_noise(self):
        env = make_pendulum_env(3000, IidGaussian(1.0), seed=4)
        traj = lqr_baseline(env, 3000)
        assert np.isfinite(traj.total_cost)
        assert np.max(np.abs(traj.states)) < 1.0

    def test_batch_surrogate_matches_rollout(self):
        env = make_pendulum_env(300, IidGaussian(0.5), seed=5)
        thetas = np.array([[20.0, 6.0], [30.0, 10.0]])
        table = env.batch_surrogate_costs(thetas, 300)
        for g in range(2):
            ref = rollout(env, thetas[g], T=300).costs
            assert np.allclose(table[:, g], ref, rtol=1e-12, atol=1e-12)


class TestDac:
    def test_policy_linear_in_both_arguments(self):
        env = make_dac_env(100, seed=0, n=2, history=3, radius=2.0)
        rng = np.random.default_rng(3)
        t = 50
        x1, x2 = rng.standard_normal((2, 2))
        th1, th2 = rng.standard_normal((2, env.d)), rng.standard_normal((2, env.d))[0]
        a, b = 0.3, 0.7
        u_mix = env.policy(t, a * x1 + b * x2, a * th1[0] + b * th2)
        u_parts = a * env.policy(t, x1, th1[0]) + b * env.policy(t, x2, th2)
        assert np.allclose(u_mix, u_parts, atol=1e-12)

    def test_surrogate_convex_in_theta(self):
        # Midpoint convexity on random triples (linear policy and dynamics,
        # convex quadratic cost imply convex surrogates).
        env = make_dac_env(60, seed=1, n=2, history=2, radius=2.0)
        rng = np.random.default_rng(4)
        from gaps.oracles import surrogate_cost

        for _ in range(60):
            th1 = env.theta_set.sample(rng)
            th2 = env.theta_set.sample(rng)
            t = int(rng.integers(0, 60))
            mid = 0.5 * (th1 + th2)
            lhs = surrogate_cost(env, mid, t)
            rhs = 0.5 * surrogate_cost(env, th1, t) + 0.5 * surrogate_cost(env, th2, t)
            assert lhs <= rhs + 1e-10

    def test_jacobians(self):
        env = make_dac_env(100, seed=2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(2)
            theta = env.theta_set.sample(rng)
            rep = check_jacobians(env, int(rng.integers(0, 100)), x, theta)
            assert rep.passed, rep.errors


class TestHorizonSelection:
    def test_perfect_predictions_favor_long_horizon(self):
        env = make_horizon_selection_env([1, 2, 4], 4000, seed=0, sigma_pred0=0.0)
        totals = env.arm_total_costs()
        assert np.argmin(totals) == 2
        assert totals[0] > totals[1] > totals[2]

    def test_corrupted_long_range_predictions_favor_short(self):
        env = make_horizon_selection_env([1, 2, 4], 4000, seed=0,
                                         sigma_pred0=2.0, pred_growth=6.0)
        totals = env.arm_total_costs()
        assert np.argmin(totals) == 0

    def test_default_noise_makes_middle_horizon_best(self):
        env = make_horizon_selection_env([1, 2, 3], 8000, seed=1)
        assert np.argmin(env.arm_total_costs()) == 1

    def test_fast_arm_costs_match_batch_rollout(self):
        env = make_horizon_selection_env([1, 2, 3], 1500, seed=2)
        fast = env.arm_total_costs()
        slow = np.sum(env.batch_surrogate_costs(np.stack(env.arm_thetas()), 1500), axis=0)
        assert np.allclose(fast, slow, rtol=1e-9)

    @staticmethod
    def arm_totals_from_states(env, T, arm_states):
        """Totals from each arm's state sequence, with arm_total_costs' sum."""
        q, r = env.Q[0, 0], env.R[0, 0]
        totals = []
        for j in range(len(env.horizons)):
            x = arm_states(j)
            u = -env._gains[j][0, 0] * x - env._ff[:T, j, 0]
            totals.append(float(np.sum(q * x * x + r * u * u)))
        return np.array(totals)

    @staticmethod
    def arm_closed_loop(env, j):
        """(a - bK, drive) of arm j: x_{t+1} = drive_t + (a - bK) x_t."""
        T = env._ff.shape[0]
        c = env.A[0, 0] - env.B[0, 0] * env._gains[j][0, 0]
        drive = env.w[:T, 0] - env.B[0, 0] * env._ff[:, j, 0]
        return c, drive

    @pytest.mark.parametrize("x0", [None, [0.7]])
    def test_arm_costs_bit_equal_to_step_loop(self, x0):
        T = 3000
        env = make_horizon_selection_env([1, 2, 3], T, seed=4, x0=x0)

        def step_loop(j):
            c, drive = self.arm_closed_loop(env, j)
            x = np.empty(T)
            x[0] = env.x0[0]
            for t in range(T - 1):
                x[t + 1] = drive[t] + c * x[t]
            return x

        expected = self.arm_totals_from_states(env, T, step_loop)
        assert np.array_equal(env.arm_total_costs(), expected)

    @pytest.mark.parametrize("x0", [None, [0.7]])
    def test_arm_costs_bit_equal_to_lfilter(self, x0):
        signal = pytest.importorskip("scipy.signal")
        T = 3000
        env = make_horizon_selection_env([1, 2, 3], T, seed=5, x0=x0)

        def filtered(j):
            c, drive = self.arm_closed_loop(env, j)
            x0 = env.x0[0]
            y, _ = signal.lfilter([1.0], [1.0, -c], drive[: T - 1], zi=[c * x0])
            return np.concatenate([[x0], y])

        expected = self.arm_totals_from_states(env, T, filtered)
        assert np.array_equal(env.arm_total_costs(), expected)

    @staticmethod
    def einsum_reference_table(env, thetas, T):
        """The lane-vectorised table loop the horizon env used to run."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        arms = np.array([env._arm(th) for th in thetas])
        gains = np.stack([env._gains[j] for j in arms])
        ff = env._ff[:T, arms]
        X = np.broadcast_to(env.x0, (arms.shape[0], env.n)).copy()
        out = np.empty((T, arms.shape[0]))
        for t in range(T):
            check_state(t, X)
            U = -np.einsum("gij,gj->gi", gains, X) - ff[t]
            out[t] = quadratic_cost(X, env.Q, U, env.R)
            X = X @ env.A.T + U @ env.B.T + env.w[t]
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("x0", [None, [0.7]])
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_table_bit_equal_to_einsum_loop(self, seed, x0, unit_weights):
        env = make_horizon_selection_env([1, 2, 3], 600, seed=seed, x0=x0)
        if not unit_weights:
            A, B, Q, R = [[1.7]], [[0.9]], [[1.3]], [[0.7]]
            Qf = solve_dare(np.array(A), np.array(B), np.array(Q), np.array(R)).P
            env = HorizonSelectionEnv(A, B, Q, R, Qf, env.horizons, env.w, env.w_pred, x0=x0)
        arms = np.stack(env.arm_thetas())
        # Thetas that round onto arms, and one arm held by several lanes.
        rounded = np.array([[0.4], [1.6], [1.6], [2.0], [-3.0], [0.0]])
        for thetas, T in ((arms, 600), (rounded, 450)):
            table = env.batch_surrogate_costs(thetas, T)
            assert table.flags.c_contiguous
            assert np.array_equal(table, self.einsum_reference_table(env, thetas, T))

    @pytest.mark.parametrize("w50", [np.nan, 1e9])
    def test_table_blowup_matches_einsum_loop(self, w50):
        env = make_horizon_selection_env([1, 2, 3], 120, seed=0)
        env.w[50, 0] = w50
        raised = []
        for table in (env.batch_surrogate_costs, partial(self.einsum_reference_table, env)):
            with pytest.raises(StateBlowup) as info:
                table(np.stack(env.arm_thetas()), 120)
            raised.append(info.value)
        new, ref = raised
        assert (new.t, new.cap) == (ref.t, ref.cap) == (51, DEFAULT_BLOWUP_CAP)
        assert np.float64(new.norm).tobytes() == np.float64(ref.norm).tobytes()

    def test_two_state_env_runs_shared_loop(self):
        T, horizons = 80, [1, 2]
        rng = np.random.default_rng(8)
        A = np.array([[1.1, 0.3], [0.0, 0.9]])
        B = np.array([[0.0], [1.0]])
        Q, R = np.eye(2), np.eye(1)
        w = 0.5 * rng.standard_normal((T + 2, 2))
        preds = np.lib.stride_tricks.sliding_window_view(w, 2, axis=0)[:T].transpose(0, 2, 1)
        env = HorizonSelectionEnv(A, B, Q, R, solve_dare(A, B, Q, R).P, horizons, w,
                                  preds + 0.1 * rng.standard_normal((T, 2, 2)), x0=[0.5, -0.2])
        arms = np.stack(env.arm_thetas())
        table = env.batch_surrogate_costs(arms, T)
        ref = np.stack([rollout(env, theta, T=T).costs for theta in arms], axis=1)
        assert np.allclose(table, ref, rtol=1e-12, atol=0.0)
        totals = [rollout(env, theta, T=T).total_cost for theta in arms]
        assert np.allclose(env.arm_total_costs(), totals, rtol=1e-12, atol=0.0)

    class DoubledCost(HorizonSelectionEnv):
        """Redefines the stage cost, so the scalar fast paths must not run."""

        def cost(self, t, x, u):
            return 2.0 * super().cost(t, x, u)

    def test_subclass_step_math_reaches_table_and_arm_totals(self):
        base = make_horizon_selection_env([1, 2], 50, seed=0)
        env = self.DoubledCost(base.A, base.B, base.Q, base.R, base.Qf, base.horizons,
                               base.w, base.w_pred)
        arms = np.stack(env.arm_thetas())
        totals = [rollout(env, theta, T=50).total_cost for theta in arms]
        assert np.allclose(totals, 2.0 * base.arm_total_costs(), rtol=1e-12, atol=0.0)
        table = surrogate_table(env, arms, 50)
        assert np.allclose(table.sum(axis=0), totals, rtol=1e-12, atol=0.0)
        assert np.allclose(env.arm_total_costs(50), totals, rtol=1e-12, atol=0.0)

    def test_jacobians_at_arm_centers(self):
        env = make_horizon_selection_env([1, 2, 3], 200, seed=3)
        rng = np.random.default_rng(6)
        for theta in env.arm_thetas():
            for _ in range(10):
                x = rng.standard_normal(1)
                rep = check_jacobians(env, int(rng.integers(0, 200)), x, theta)
                assert rep.passed, rep.errors


class TestFtl:
    def test_perfect_predictions_hold_full_confidence(self):
        env = make_fig2_env(T=150, seed=4, sigma_pred_before=0.0, sigma_pred_after=0.0)
        traj = ftl_confidence_baseline(env, 150)
        assert np.all(traj.thetas[10:, 0] > 0.999)

    def test_pure_noise_predictions_drive_confidence_to_zero(self):
        # Predictions uncorrelated with the disturbances: the cross term
        # vanishes in expectation, so the leader tends to zero confidence.
        finals = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            T = 150
            from gaps.envs.confidence_mpc import ConfidenceMpcEnv

            qf = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]]).P
            w = rng.standard_normal((T + 1, 1))
            preds = rng.standard_normal((T, 1, 1)) * 2.0  # independent of w
            env = ConfidenceMpcEnv([[2.0]], [[1.0]], [[1.0]], [[1.0]], qf, 1, w, preds)
            traj = ftl_confidence_baseline(env, T)
            finals.append(traj.thetas[-1, 0])
        assert np.mean(finals) < 0.1

    def test_nan_disturbance_raises_state_blowup(self):
        env = make_fig2_env(T=50, seed=0)
        env.w[5] = np.nan
        with pytest.raises(StateBlowup) as info:
            ftl_confidence_baseline(env, 50)
        assert info.value.t == 6

    def test_recovers_slower_than_gaps_after_the_switch(self):
        env = make_fig2_env(T=200, seed=0)
        ftl = ftl_confidence_baseline(env, 200)
        gaps_traj = run_gaps(
            env, GapsConfig(eta=0.05, B=32, theta0=[1.0], set=env.theta_set), 200
        )
        # The leader adapts down quickly during the noisy phase...
        assert ftl.thetas[20, 0] < 0.5
        # ...but its accumulated history anchors it after the switch, while
        # the gradient method climbs back toward full confidence.
        assert ftl.thetas[-1, 0] < gaps_traj.thetas[-1, 0]
        assert gaps_traj.thetas[-1, 0] > 0.75

    def test_equals_reference_loop(self):
        # The follow-the-leader rule as one explicit loop over steps.
        T = 200
        env = make_fig2_env(T=T, seed=0)
        lam, sum_quad, sum_lin = 1.0, 0.0, 0.0
        x = np.array(env.x0, dtype=float)
        steps = []
        for t in range(T):
            theta = np.array([lam])
            u = env.policy(t, x, theta)
            steps.append((x, u, theta, env.cost(t, x, u)))
            K, _ = env._plan(t)
            h = env.feedforward_terms(t)[0]
            u0 = -K @ x
            Bh = env.B[t] @ h
            x_next0 = env.A[t] @ x + env.B[t] @ u0 + env.w[t]
            sum_quad += float(h @ env.R[t] @ h + Bh @ env.Qf @ Bh)
            sum_lin += float(-2.0 * (h @ env.R[t] @ u0) - 2.0 * (Bh @ env.Qf @ x_next0))
            if sum_quad > 1e-12:
                lam = float(np.clip(-sum_lin / (2.0 * sum_quad), 0.0, 1.0))
            x = env.dynamics(t, x, u)
        traj = ftl_confidence_baseline(env, T)
        for got, col in zip((traj.states, traj.actions, traj.thetas, traj.costs), zip(*steps)):
            assert np.array_equal(got, np.array(col))
        assert np.array_equal(traj.final_state, x)
        assert traj.grads is None

    def test_requires_scalar_confidence(self):
        env = make_fig2_env(T=50, seed=0, k=2)
        with pytest.raises(ValueError):
            ftl_confidence_baseline(env, 50)


class TestLinearFeedback:
    def test_jacobians(self):
        env = LinearFeedbackEnv(
            [[0.9, 0.1], [0.0, 0.8]], [[0.0], [1.0]], np.eye(2), [[1.0]],
            np.random.default_rng(0).standard_normal((100, 2)) * 0.3,
            theta_set=Box([0.0, 0.0], [1.0, 1.0]),
        )
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(2)
            theta = env.theta_set.sample(rng)
            rep = check_jacobians(env, int(rng.integers(0, 100)), x, theta)
            assert rep.passed, rep.errors
