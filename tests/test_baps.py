import numpy as np
import pytest

from gaps.baps import BapsConfig, baps_update, min_batch_length, run_baps
from gaps.envs import make_horizon_selection_env
from gaps.envs.horizon import HorizonSelectionEnv
from gaps.errors import StateBlowup, ZeroProbabilitySampled
from gaps.system import Box, ControlSystem
from gaps.envs.linear_feedback import LinearFeedbackEnv
from conftest import two_state_horizon_env


class TestUpdate:
    def test_zero_cost_leaves_distribution(self):
        s = np.array([0.3, 0.7])
        assert np.allclose(baps_update(s, 1, 0.0, 0.1), s)

    def test_hand_computed_two_arms(self):
        # loss estimate 1 / 0.5 = 2; weight 0.5 e^{-0.2}, e^{-0.2} = 0.818731.
        s = baps_update(np.array([0.5, 0.5]), 0, 1.0, 0.1)
        z = 0.5 * np.exp(-0.2) + 0.5
        assert s[0] == pytest.approx(0.5 * np.exp(-0.2) / z, abs=1e-12)
        assert s[0] == pytest.approx(0.45017, abs=1e-5)
        assert s[1] == pytest.approx(0.54983, abs=1e-5)

    def test_zero_rate_no_change(self):
        s = np.array([0.2, 0.3, 0.5])
        assert np.allclose(baps_update(s, 2, 123.0, 0.0), s)

    def test_zero_probability_guard(self):
        with pytest.raises(ZeroProbabilitySampled):
            baps_update(np.array([1.0, 0.0]), 1, 1.0, 0.1)

    def test_log_space_guard_for_huge_losses(self):
        # eta * loss far beyond the exp guard must not produce NaN and the
        # sampled arm's weight collapses.
        s = baps_update(np.array([1e-6, 1.0 - 1e-6]), 0, 1e4, 0.1)
        assert np.all(np.isfinite(s))
        assert s[0] < 1e-12
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_distribution_stays_valid(self):
        rng = np.random.default_rng(0)
        s = np.full(5, 0.2)
        for _ in range(500):
            j = rng.choice(5, p=s)
            s = baps_update(s, int(j), float(rng.uniform(0, 10)), 0.05)
            assert np.all(s >= 0)
            assert abs(s.sum() - 1.0) < 1e-12

    def test_loss_estimator_unbiased(self):
        # Exhaustive expectation over the sampling distribution: for
        # deterministic batch costs, E[l_hat(j)] equals arm j's batch cost.
        for k in (2, 3):
            rng = np.random.default_rng(k)
            s = rng.dirichlet(np.ones(k))
            costs = rng.uniform(0.5, 2.0, k)
            for j in range(k):
                expected = sum(
                    s[i] * (costs[i] / s[i] if i == j else 0.0) for i in range(k)
                )
                assert expected == pytest.approx(costs[j], abs=1e-12)


class TestRunBaps:
    def constant_cost_env(self, T, costs):
        """Two-arm environment with known constant per-step costs.

        Zero dynamics and zero disturbances; the 'gain' theta only changes
        the control magnitude, hence the cost.
        """

        class ConstEnv(LinearFeedbackEnv):
            def cost(self, t, x, u):
                return float(costs[int(round(u[0]))])

            def policy(self, t, x, theta):
                return np.array([theta[0]])

            def arm_thetas(self):
                return [np.array([0.0]), np.array([1.0])]

        return ConstEnv(
            [[0.0]], [[0.0]], [[1.0]], [[1.0]], np.zeros((T, 1)),
            theta_set=Box([0.0], [1.0]),
        )

    def test_single_arm_reduces_to_rollout(self):
        env = make_horizon_selection_env([2], 120, seed=0)
        with pytest.raises(ValueError):
            BapsConfig(k=1, b=10, eta=0.1)
        # k = 1 is rejected by config; the equivalent check is a 2-arm run
        # where both arms are identical: with a learning rate small relative
        # to the importance-weighted losses, the distribution stays near
        # uniform (it is a low-variance martingale around 1/2).
        env2 = make_horizon_selection_env([2, 2], 120, seed=0)
        res = run_baps(env2, env2.arm_thetas(), BapsConfig(k=2, b=10, eta=1e-5, seed=1), 120)
        assert np.allclose(res.distribution_history[-1], 0.5, atol=0.05)

    def test_better_arm_dominates(self):
        T = 4000
        env = self.constant_cost_env(T, {0: 0.1, 1: 1.0})
        cfg = BapsConfig(k=2, b=20, eta=0.005, seed=0)
        res = run_baps(env, env.arm_thetas(), cfg, T)
        assert res.distribution_history[-1][0] > 0.9

    def test_beats_uniform_random_selection(self):
        # Mean cost over 200 seeds <= uniform-arm baseline on the two-arm env.
        T = 400
        env = self.constant_cost_env(T, {0: 0.1, 1: 1.0})
        cfg_b = 20
        baps_costs = []
        uniform_costs = []
        for seed in range(200):
            cfg = BapsConfig(k=2, b=cfg_b, eta=0.01, seed=seed)
            res = run_baps(env, env.arm_thetas(), cfg, T)
            baps_costs.append(res.trajectory.total_cost)
            rng = np.random.default_rng(10_000 + seed)
            arms = rng.integers(0, 2, T // cfg_b)
            uniform_costs.append(sum({0: 0.1, 1: 1.0}[int(a)] * cfg_b for a in arms))
        assert np.mean(baps_costs) <= np.mean(uniform_costs)

    def test_trailing_partial_batch_truncated_with_warning(self):
        env = make_horizon_selection_env([1, 2], 105, seed=0)
        cfg = BapsConfig(k=2, b=10, eta=0.01, seed=0)
        with pytest.warns(UserWarning, match="not divisible"):
            res = run_baps(env, env.arm_thetas(), cfg, 105)
        assert len(res.trajectory) == 100

    def test_schedule_formula(self):
        cfg = BapsConfig.schedule(k=4, T=80_000, C0=1.0, rho=0.382, D0=27.0)
        logk = np.log(4)
        b = (1.0 * 27.0 * 80_000 / (0.618**2 * 4 * logk)) ** (1 / 3)
        eta = (0.618 * logk**2 / (1.0 * 27.0**2 * 4 * 80_000**2)) ** (1 / 3)
        assert cfg.b == round(b)
        assert cfg.eta == pytest.approx(eta, rel=1e-12)

    def test_min_batch_length_warning_threshold(self):
        tau0 = min_batch_length(C=2.0, rho=0.5, R_S=1.0, R_C=10.0, x0_norm=0.0)
        # R0 = min(1/0.5, 10) = 2; tau0 = log(2*2/(2-1))/log 2 = 2.
        assert tau0 == pytest.approx(2.0, abs=1e-12)

    def test_schedule_warns_below_minimum_batch(self):
        # Tiny horizon forces b = 1, far below the stable batch length.
        with pytest.warns(UserWarning, match="minimum stable"):
            BapsConfig.schedule(
                k=4, T=8, C0=3.0, rho=0.9, D0=1.0, R_S=1.0, R_C=100.0
            )


def reference_baps(system, arms, cfg, T):
    """BAPS as one explicit loop over batches and their steps.

    Returns the per-step states, actions, thetas and costs, the arm,
    distribution and batch-cost histories, and the final state, for the
    T // b whole batches.
    """
    rng = np.random.default_rng(cfg.seed)
    s = np.full(cfg.k, 1.0 / cfg.k)
    x = np.array(system.x0, dtype=float)
    steps, arm_history, dists, batch_costs = [], [], [s], []
    t = 0
    for _ in range(T // cfg.b):
        j = int(rng.choice(cfg.k, p=s))
        arm_history.append(j)
        batch_cost = 0.0
        for _ in range(cfg.b):
            u = system.policy(t, x, arms[j])
            c = system.cost(t, x, u)
            steps.append((x, u, arms[j], c))
            batch_cost += c
            x = system.dynamics(t, x, u)
            t += 1
        batch_costs.append(batch_cost)
        s = baps_update(s, j, batch_cost, cfg.eta)
        dists.append(s)
    states, actions, thetas, costs = (np.array(col) for col in zip(*steps))
    histories = (np.array(arm_history), np.array(dists), np.array(batch_costs))
    return states, actions, thetas, costs, histories, x


class TestClosedLoopReference:
    def test_run_baps_equals_reference_loop(self):
        # T = 1005 with b = 50 leaves a partial trailing batch of 5 steps.
        T = 1005
        env = make_horizon_selection_env([1, 2, 3], T, seed=0)
        cfg = BapsConfig(k=3, b=50, eta=2e-3, seed=7)
        with pytest.warns(UserWarning, match="not divisible"):
            res = run_baps(env, env.arm_thetas(), cfg, T)
        states, actions, thetas, costs, (arms, dists, batch_costs), x = reference_baps(
            env, env.arm_thetas(), cfg, T
        )
        traj = res.trajectory
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.actions, actions)
        assert np.array_equal(traj.thetas, thetas)
        assert np.array_equal(traj.costs, costs)
        assert np.array_equal(res.arm_history, arms)
        assert np.array_equal(res.distribution_history, dists)
        assert np.array_equal(res.batch_costs, batch_costs)
        assert np.array_equal(traj.final_state, x)
        assert len(set(arms.tolist())) > 1
        assert traj.grads is None


def subclass_env(env, scale):
    """env's system as a HorizonSelectionEnv subclass whose own `cost`
    multiplies the stage cost by scale: its step math is not the base
    class's, so `hold` runs the shared loop. It shares env's disturbance
    arrays."""

    class OwnCost(HorizonSelectionEnv):
        def cost(self, t, x, u):
            return scale * super().cost(t, x, u)

    return OwnCost(
        env.A[0], env.B[0], env.Q[0], env.R[0], env.Qf, env.horizons, env.w, env.w_pred
    )


def assert_equals_reference(env, cfg, T):
    with pytest.warns(UserWarning, match="not divisible"):
        res = run_baps(env, env.arm_thetas(), cfg, T)
    states, actions, thetas, costs, (arms, dists, batch_costs), x = reference_baps(
        env, env.arm_thetas(), cfg, T
    )
    traj = res.trajectory
    assert len(traj) == T // cfg.b * cfg.b
    for got, want in [
        (traj.states, states), (traj.actions, actions), (traj.thetas, thetas),
        (traj.costs, costs), (res.arm_history, arms), (res.distribution_history, dists),
        (res.batch_costs, batch_costs), (traj.final_state, x),
    ]:
        assert np.array_equal(got, want)
    assert len(set(arms.tolist())) > 1
    return res


class TestBaseHold:
    """run_baps on systems whose `hold` is the shared loop."""

    def test_own_cost_subclass_equals_reference_loop(self):
        env = subclass_env(make_horizon_selection_env([1, 2, 3], 1005, seed=0), 2.0)
        assert type(env).hold is ControlSystem.hold
        assert_equals_reference(env, BapsConfig(k=3, b=50, eta=1e-3, seed=7), 1005)

    def test_two_state_env_equals_reference_loop(self):
        env = two_state_horizon_env()
        assert_equals_reference(env, BapsConfig(k=2, b=15, eta=0.05, seed=2), env.T)

    def test_const_env_equals_reference_loop(self):
        env = TestRunBaps().constant_cost_env(1005, {0: 0.1, 1: 1.0})
        assert_equals_reference(env, BapsConfig(k=2, b=50, eta=0.05, seed=3), 1005)

    def test_fast_and_base_paths_agree_bit_for_bit(self):
        env = make_horizon_selection_env([1, 2, 3], 1005, seed=4)
        cfg = BapsConfig(k=3, b=50, eta=2e-3, seed=5)
        fast = assert_equals_reference(env, cfg, 1005)
        base = assert_equals_reference(subclass_env(env, 1.0), cfg, 1005)
        assert np.array_equal(fast.trajectory.states, base.trajectory.states)
        assert np.array_equal(fast.batch_costs, base.batch_costs)

    @pytest.mark.parametrize("step", [50, 62, 74])  # batch 2's first, middle, last
    @pytest.mark.parametrize("w", [np.nan, 1e9])
    def test_both_paths_raise_at_the_same_step(self, step, w):
        env = make_horizon_selection_env([1, 2, 3], 200, seed=100)
        env.w[step, 0] = w
        cfg = BapsConfig(k=3, b=25, eta=1e-3, seed=1000)
        with pytest.raises(StateBlowup) as fast:
            run_baps(env, env.arm_thetas(), cfg, 200)
        with pytest.raises(StateBlowup) as base:
            run_baps(subclass_env(env, 1.0), env.arm_thetas(), cfg, 200)
        assert fast.value.t == base.value.t == step + 1


class TestSubclassRule:
    """ControlSystem.__init_subclass__: a subclass never inherits a fast path
    written for its parent's step math."""

    def test_own_cost_gets_the_shared_loop(self):
        class OwnCost(HorizonSelectionEnv):
            def cost(self, t, x, u):
                return 2.0 * super().cost(t, x, u)

        assert OwnCost.hold is ControlSystem.hold
        assert OwnCost.batch_surrogate_costs is ControlSystem.batch_surrogate_costs

    def test_own_jacobians_keep_the_parent_fast_paths(self):
        class OwnJacobians(HorizonSelectionEnv):
            def jacobians(self, t, x, theta):
                return super().jacobians(t, x, theta)

        assert OwnJacobians.hold is HorizonSelectionEnv.hold
        assert OwnJacobians.batch_surrogate_costs is HorizonSelectionEnv.batch_surrogate_costs
