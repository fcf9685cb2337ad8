import numpy as np
import pytest

from gaps.core import GapsConfig, run_gaps
from gaps.envs import (
    IidGaussian,
    make_constant_noise_env,
    make_dac_env,
    make_fig2_env,
    make_horizon_selection_env,
    make_pendulum_env,
)
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import EmptyGrid, NonPositiveRegret, PiecewiseConstantPolicy, StateBlowup
from gaps.metrics import (
    dynamic_regret,
    local_regret,
    make_theta_grid,
    regret_slope,
    static_and_adaptive_regret,
    surrogate_table,
    variation_intensity,
)
from gaps.oracles import ideal_gradient
from gaps.system import Box, rollout

from conftest import TanhSystem


def brute_force_adaptive(costs, table):
    """All-intervals enumeration (the oracle for the Kadane-style scan)."""
    T, G = table.shape
    best = -np.inf
    for t1 in range(T):
        for t2 in range(t1, T):
            seg = np.sum(costs[t1 : t2 + 1]) - np.min(
                np.sum(table[t1 : t2 + 1], axis=0)
            )
            best = max(best, seg)
    return best


class TestStaticAdaptive:
    def test_playing_best_theta_gives_zero_regret(self):
        T, G = 10, 3
        table = np.abs(np.random.default_rng(0).standard_normal((T, G))) + 0.5
        costs = table[:, 1].copy()  # play grid point 1 exactly
        table[:, 1] = np.minimum(table[:, 1], table.min(axis=1))  # make it best
        costs = table[:, 1].copy()
        rep = static_and_adaptive_regret(costs, table, np.arange(G)[:, None])
        assert rep.static_regret == pytest.approx(0.0, abs=1e-12)
        assert rep.adaptive_regret == pytest.approx(0.0, abs=1e-12)

    def test_hand_enumerated_three_steps(self):
        costs = np.array([2.0, 1.0, 3.0])
        table = np.array([[1.0, 2.5], [1.5, 0.5], [2.0, 2.0]])
        rep = static_and_adaptive_regret(costs, table, np.array([[0.0], [1.0]]))
        assert rep.static_regret == pytest.approx(6.0 - 4.5)
        assert rep.adaptive_regret == pytest.approx(brute_force_adaptive(costs, table))

    def test_adaptive_at_least_static(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            T = int(rng.integers(1, 30))
            G = int(rng.integers(1, 5))
            costs = rng.standard_normal(T)
            table = rng.standard_normal((T, G))
            rep = static_and_adaptive_regret(costs, table, np.arange(G)[:, None])
            assert rep.adaptive_regret >= rep.static_regret - 1e-12

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            T = int(rng.integers(1, 30))
            G = int(rng.integers(1, 6))
            costs = rng.standard_normal(T) * rng.uniform(0.5, 3)
            table = rng.standard_normal((T, G))
            rep = static_and_adaptive_regret(costs, table, np.arange(G)[:, None])
            expected = brute_force_adaptive(costs, table)
            assert rep.adaptive_regret == pytest.approx(expected, abs=1e-10)
            t1, t2 = rep.adaptive_interval
            seg = np.sum(costs[t1 : t2 + 1]) - np.min(np.sum(table[t1 : t2 + 1], axis=0))
            assert seg == pytest.approx(expected, abs=1e-10)

    def test_grid_refinement_monotonicity(self):
        rng = np.random.default_rng(5)
        T = 25
        costs = rng.standard_normal(T)
        table = rng.standard_normal((T, 6))
        small = static_and_adaptive_regret(costs, table[:, :3], np.arange(3)[:, None])
        full = static_and_adaptive_regret(costs, table, np.arange(6)[:, None])
        assert full.static_regret >= small.static_regret
        assert full.adaptive_regret >= small.adaptive_regret

    def test_empty_grid_raises(self):
        with pytest.raises(EmptyGrid):
            static_and_adaptive_regret(np.ones(3), np.ones((3, 0)), np.ones((0, 1)))


def vectorized_kadane_reference(costs, table, grid):
    """The lane-vectorised Kadane pass static_and_adaptive_regret used to run:
    (static regret, adaptive regret, interval, best fixed theta)."""
    T, G = table.shape
    diffs = costs[:, None] - table
    static = float(np.max(np.sum(diffs, axis=0)))
    best_g = int(np.argmin(np.sum(table, axis=0)))
    best_end = diffs[0].copy()
    start = np.zeros(G, dtype=int)
    best_total = diffs[0].copy()
    best_lo = np.zeros(G, dtype=int)
    best_hi = np.zeros(G, dtype=int)
    for t in range(1, T):
        restart = best_end < 0.0
        start[restart] = t
        best_end = np.where(restart, 0.0, best_end) + diffs[t]
        improved = best_end > best_total
        best_total[improved] = best_end[improved]
        best_lo[improved] = start[improved]
        best_hi[improved] = t
    g_star = int(np.argmax(best_total))
    interval = (int(best_lo[g_star]), int(best_hi[g_star]))
    return static, float(best_total[g_star]), interval, grid[best_g]


def kadane_cases():
    rng = np.random.default_rng(12)
    for _ in range(40):  # small integer values: many tied sums and intervals
        T, G = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        yield rng.integers(-2, 3, T).astype(float), rng.integers(-2, 3, (T, G)).astype(float)
    for T, G in ((1, 1), (1, 4), (60, 1)):
        yield rng.standard_normal(T), rng.standard_normal((T, G))
    # Every difference negative in every column.
    yield -np.abs(rng.standard_normal(30)) - 0.1, np.abs(rng.standard_normal((30, 4)))
    # Signed zeros: restarts from 0.0 + (-0.0) and runs that stay at -0.0.
    signed = rng.choice([0.0, -0.0, 1.0, -1.0], size=(50, 3))
    yield np.full(50, -0.0), signed
    yield np.zeros(50), signed
    nonpositive = rng.choice([0.0, 1.0], size=(50, 3))  # differences -0.0 and -1.0
    nonpositive[0] = 1.0
    yield np.full(50, -0.0), nonpositive
    env = make_fig2_env(T=200, seed=0)
    grid = make_theta_grid(env.theta_set, 101)
    traj = run_gaps(env, GapsConfig(eta=0.03, B=8, theta0=[1.0], set=env.theta_set), 200)
    yield traj.costs, surrogate_table(env, grid, 200)


class TestKadaneReference:
    def test_bit_equal_to_vectorized_kadane(self):
        as_bits = lambda v: np.float64(v).tobytes()
        for costs, table in kadane_cases():
            grid = np.arange(table.shape[1], dtype=float)[:, None]
            static, adaptive, interval, best = vectorized_kadane_reference(costs, table, grid)
            rep = static_and_adaptive_regret(costs, table, grid)
            assert as_bits(rep.static_regret) == as_bits(static)
            assert as_bits(rep.adaptive_regret) == as_bits(adaptive)
            assert rep.adaptive_interval == interval
            assert np.array_equal(rep.best_fixed_theta, best)


class NanOffsetTanh(TanhSystem):
    """TanhSystem whose drift offset is NaN at one step."""

    nan_step = None

    def _offset(self, t):
        return np.full(self.n, np.nan) if t == self.nan_step else super()._offset(t)


def table_env(name, T):
    """(system, grid) for every environment and the generic TanhSystem."""
    rng = np.random.default_rng(11)
    if name == "fig2":
        env = make_fig2_env(T=T, seed=3)
    elif name == "pendulum":
        env = make_pendulum_env(T, IidGaussian(0.5), seed=3)
    elif name == "dac":
        env = make_dac_env(T, seed=3)
    elif name == "linear_feedback":
        w = 0.5 * rng.standard_normal((T, 2))
        A = [[0.6, 0.2], [0.0, 0.7]]
        env = LinearFeedbackEnv(A, np.eye(2), np.eye(2), np.eye(2), w,
                                theta_set=Box([0.0] * 4, [0.5] * 4), x0=[0.5, -0.3])
    elif name == "horizon":
        env = make_horizon_selection_env([1, 2, 3], T, seed=3)
        return env, np.stack(env.arm_thetas())
    else:
        env = NanOffsetTanh(seed=3)
    return env, np.stack([env.theta_set.sample(rng) for _ in range(7)])


TABLE_ENVS = ["fig2", "pendulum", "dac", "linear_feedback", "horizon", "tanh"]


def confidence_mpc_reference_table(env, thetas, T):
    """The vectorised loop the confidence env carried as its own table."""
    G = thetas.shape[0]
    X = np.broadcast_to(env.x0, (G, env.n)).copy()
    out = np.empty((T, G))
    for t in range(T):
        K, _ = env._plan(t)
        ff = env.feedforward_terms(t)
        U = -X @ K.T - thetas @ ff
        out[t] = np.einsum("gi,ij,gj->g", X, env.Q[t], X) + np.einsum(
            "gi,ij,gj->g", U, env.R[t], U
        )
        X = X @ env.A[t].T + U @ env.B[t].T + env.w[t]
    return out


# Leading points of the unscrambled 6-d Sobol sequence; the first d columns
# are the d-dimensional sequence.
SOBOL_HEAD = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
    [0.75, 0.25, 0.25, 0.25, 0.75, 0.75],
    [0.25, 0.75, 0.75, 0.75, 0.25, 0.25],
    [0.375, 0.375, 0.625, 0.875, 0.375, 0.125],
    [0.875, 0.875, 0.125, 0.375, 0.875, 0.625],
    [0.625, 0.125, 0.875, 0.625, 0.625, 0.875],
    [0.125, 0.625, 0.375, 0.125, 0.125, 0.375],
])
# Later points, times 512: these depend on every Joe-Kuo recursion term.
SOBOL_LATER_X512 = {
    100: [212, 132, 396, 372, 452, 380],
    257: [259, 511, 91, 407, 143, 311],
    511: [1, 257, 209, 433, 181, 449],
}


class TestThetaGrid:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_sobol_leading_points(self, d):
        grid = make_theta_grid(Box(np.zeros(d), np.ones(d)))
        assert grid.shape == (512, d)
        assert np.array_equal(grid[: len(SOBOL_HEAD)], SOBOL_HEAD[:, :d])
        for i, row in SOBOL_LATER_X512.items():
            assert np.array_equal(grid[i] * 512, row[:d])
        assert len(np.unique(grid, axis=0)) == 512

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_sobol_bit_equal_to_scipy(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        lo = np.linspace(-1.0, -0.5, d)
        hi = np.linspace(0.5, 3.0, d)
        box = Box(lo, hi)
        unit = qmc.Sobol(d=d, scramble=False).random(512)
        expected = np.array([box.project(p) for p in lo + unit * (hi - lo)])
        assert np.array_equal(make_theta_grid(box), expected)


class TestSurrogateTable:
    @pytest.mark.parametrize("name", TABLE_ENVS)
    def test_matches_per_grid_point_rollouts(self, name):
        T = 120
        env, grid = table_env(name, T)
        table = surrogate_table(env, grid, T)
        ref = np.stack([rollout(env, theta, T=T).costs for theta in grid], axis=1)
        assert table.shape == (T, grid.shape[0])
        if name in ("fig2", "horizon", "tanh"):
            assert np.array_equal(table, ref)
        else:
            assert np.allclose(table, ref, rtol=1e-12, atol=0.0)

    def test_fig2_table_bit_equal_to_confidence_reference_loop(self):
        env = make_fig2_env(T=200, seed=0)
        grid = make_theta_grid(env.theta_set, 101)
        ref = confidence_mpc_reference_table(env, grid, 200)
        assert np.array_equal(surrogate_table(env, grid, 200), ref)

    @pytest.mark.parametrize("name", TABLE_ENVS)
    def test_nan_disturbance_raises(self, name):
        env, grid = table_env(name, 80)
        if name == "tanh":
            env.nan_step = 50
        else:
            env.w[50] = np.nan
        with pytest.raises(StateBlowup) as info:
            surrogate_table(env, grid, 80)
        assert info.value.t == 51

    def test_batch_path_matches_rollouts(self):
        env = make_fig2_env(T=60, seed=7)
        grid = make_theta_grid(env.theta_set, 11)
        table = surrogate_table(env, grid, 60)
        for g, theta in enumerate(grid):
            ref = rollout(env, theta, T=60).costs
            assert np.allclose(table[:, g], ref, rtol=1e-12, atol=1e-12)

    def test_grid_shapes(self):
        assert make_theta_grid(Box([0.0], [1.0]), 101).shape == (101, 1)
        assert make_theta_grid(Box([0.0, 0.0], [1.0, 1.0]), 11).shape == (121, 2)
        sobol = make_theta_grid(Box([0.0] * 3, [1.0] * 3))
        assert sobol.shape == (512, 3)
        with pytest.raises(ValueError):
            make_theta_grid(Box([0.0] * 7, [1.0] * 7))
        for d in (1, 2, 3):
            with pytest.raises(ValueError, match="points_per_dim"):
                make_theta_grid(Box([0.0] * d, [1.0] * d), 0)


class TestLocalRegret:
    def test_zero_at_stationary_points(self):
        # The surrogate is exactly quadratic in the confidence, so each
        # step's stationary point follows from two gradient evaluations;
        # playing that sequence drives the metric to round-off.
        env = make_fig2_env(T=30, seed=1)
        history = np.empty((30, 1))
        for t in range(30):
            g0 = ideal_gradient(env, np.array([0.0]), t, "chain")[0]
            g1 = ideal_gradient(env, np.array([1.0]), t, "chain")[0]
            history[t, 0] = 0.5 if g1 == g0 else -g0 / (g1 - g0)
        assert local_regret(env, history, 30) < 1e-12

    def test_single_step_hand_value(self, tanh_system):
        theta = np.array([0.3, -0.5])
        g = ideal_gradient(tanh_system, theta, 0, "chain")
        assert local_regret(tanh_system, theta[None, :], 1) == pytest.approx(
            float(g @ g), abs=1e-12
        )

    def test_refuses_an_env_with_arms(self, monkeypatch):
        # Piecewise constant in theta: every gradient is zero, so the pass
        # would return exactly 0.0. It is refused before it starts.
        import gaps.metrics

        def no_pass(*args, **kwargs):
            raise AssertionError("the lockstep pass ran")

        monkeypatch.setattr(gaps.metrics, "surrogates", no_pass)
        env = make_horizon_selection_env([1, 2, 3], T=300, seed=0)
        thetas = np.tile(env.arm_thetas()[1], (300, 1))
        with pytest.raises(PiecewiseConstantPolicy, match="piecewise constant in theta"):
            local_regret(env, thetas, 300)

    def test_desk_scale_runtime(self):
        # The O(T^2) evaluation stays within the documented budget
        # (60 s for T = 2000 on laptop-class hardware).
        import time

        T = 2000
        env = make_fig2_env(T=T, seed=0)
        history = np.full((T, 1), 0.7)
        start = time.time()
        value = local_regret(env, history, T)
        elapsed = time.time() - start
        assert np.isfinite(value) and value > 0
        assert elapsed < 60.0


class TestDynamicRegret:
    def test_own_history_gives_zero(self):
        env = make_fig2_env(T=50, seed=2)
        cfg = GapsConfig(eta=0.03, B=8, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, 50)
        rep = dynamic_regret(traj.costs, traj.thetas, env)
        assert rep.regret == pytest.approx(0.0, abs=1e-9)

    def test_constant_comparator_equals_static_regret_of_that_point(self):
        env = make_fig2_env(T=50, seed=2)
        cfg = GapsConfig(eta=0.03, B=8, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, 50)
        theta = np.array([0.4])
        rep = dynamic_regret(traj.costs, np.tile(theta, (50, 1)), env)
        ref = rollout(env, theta, T=50)
        assert rep.regret == pytest.approx(traj.total_cost - ref.total_cost, abs=1e-9)
        assert rep.comparator_path_length == 0.0

    def test_switching_comparator_hand_rollout(self):
        env = make_fig2_env(T=4, seed=9)
        comparator = np.array([[1.0], [1.0], [0.2], [0.2]])
        costs = np.full(4, 2.0)
        rep = dynamic_regret(costs, comparator, env)
        x = env.x0.copy()
        total = 0.0
        for t in range(4):
            u = env.policy(t, x, comparator[t])
            total += env.cost(t, x, u)
            x = env.dynamics(t, x, u)
        assert rep.regret == pytest.approx(8.0 - total, abs=1e-12)
        assert rep.comparator_path_length == pytest.approx(0.8)


class TestVariationIntensity:
    def test_time_invariant_system_zero(self):
        # Freeze the disturbance and prediction streams so the (dynamics,
        # policy, cost) triple is literally time-invariant.
        env = make_constant_noise_env(T=40, seed=0)
        env.w = np.broadcast_to(env.w[0], env.w.shape).copy()
        env.w_pred = np.broadcast_to(env.w_pred[0], env.w_pred.shape).copy()
        assert variation_intensity(env, T=20, sample_count=50, rng=0) == 0.0

    def test_mass_switches_concentrate_variation(self):
        from gaps.envs import IidGaussian, make_pendulum_env
        from gaps.envs.pendulum import PendulumParams

        params = PendulumParams(masses=(1.0, 1.3), switch_period=1.0)  # 50 steps
        env = make_pendulum_env(200, IidGaussian(0.0), seed=0, params=params)
        v_60 = variation_intensity(env, T=60, sample_count=100, rng=1)
        v_100 = variation_intensity(env, T=100, sample_count=100, rng=1)
        v_150 = variation_intensity(env, T=150, sample_count=100, rng=1)
        assert v_60 > 0.0
        # One switch inside [1, 60) and [1, 100); a second lands at t = 100.
        assert v_100 == pytest.approx(v_60, rel=1e-12)
        assert v_150 == pytest.approx(2.0 * v_100, rel=1e-9)

    @pytest.mark.parametrize("env_name", ["fig2", "pendulum"])
    def test_nan_state_in_radius_probe_raises(self, env_name):
        if env_name == "fig2":
            env = make_fig2_env(T=50, seed=0)
        else:
            env = make_pendulum_env(50, IidGaussian(1.0), seed=0)
        env.w[5] = np.nan
        with pytest.raises(StateBlowup) as info:
            variation_intensity(env, T=20, sample_count=10, rng=0)
        assert info.value.t == 6

    def test_linear_drift_within_ten_percent(self):
        # A_t changes by delta each step; sup over the ball of radius R is
        # delta * R for scalar dynamics.
        T = 20
        delta = 0.05
        A = np.array([[[0.5 + delta * t]] for t in range(T)])
        env = LinearFeedbackEnv(
            A, [[1.0]], [[1.0]], [[1.0]], np.zeros((T, 1)),
            theta_set=Box([0.2], [0.8]),
        )
        R = 2.0
        v = variation_intensity(
            env, T=T, sample_count=400, state_radius=R, action_radius=R, rng=0
        )
        expected = (T - 1) * delta * R
        assert v == pytest.approx(expected, rel=0.10)


class TestSlope:
    def test_exact_sqrt_growth(self):
        pts = [(t, 3.0 * np.sqrt(t)) for t in [100, 400, 1600, 6400]]
        assert regret_slope(pts) == pytest.approx(0.5, abs=1e-12)

    def test_exact_linear_growth(self):
        pts = [(t, 0.25 * t) for t in [10, 100, 1000]]
        assert regret_slope(pts) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveRegret):
            regret_slope([(10, 1.0), (100, -0.5), (1000, 2.0)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            regret_slope([(10, 1.0), (100, 2.0)])
