import math

import numpy as np
import pytest

from gaps.contraction import (
    DIVERGENCE_FACTOR,
    ContractionEstimate,
    _lockstep_states,
    _sample_ball,
    estimate_contraction,
    estimate_stability_radius,
    sample_slow_sequence,
)
from gaps.envs import (
    IidGaussian,
    make_dac_env,
    make_fig2_env,
    make_horizon_selection_env,
    make_pendulum_env,
)
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import Divergence
from gaps.system import Ball, Box

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Per-pair reference: the estimator rolling one pair, or one stability run,
# at a time through the single-state methods. The lockstep estimator must
# reproduce it bit for bit.


def reference_decay_curve(system, x, x_prime, theta_seq, t0, horizon):
    """Norms |dx_t| for t = 0..horizon of two rollouts sharing theta_seq."""
    a = np.array(x, dtype=float)
    b = np.array(x_prime, dtype=float)
    norms = np.empty(horizon + 1)
    norms[0] = np.linalg.norm(a - b)
    for i in range(horizon):
        t = t0 + i
        theta = theta_seq[i]
        a = system.dynamics(t, a, system.policy(t, a, theta))
        b = system.dynamics(t, b, system.policy(t, b, theta))
        norms[i + 1] = np.linalg.norm(a - b)
    return norms


def reference_state_sup(system, pset, eps, horizon, rng):
    theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
    x = np.array(system.x0, dtype=float)
    sup = np.linalg.norm(x)
    for t in range(horizon):
        x = system.dynamics(t, x, system.policy(t, x, theta_seq[t]))
        norm = float(np.linalg.norm(x))
        if not math.isfinite(norm):
            raise Divergence(f"closed-loop rollout reached norm {norm:.3e} at step {t}")
        sup = max(sup, norm)
    return sup


def reference_stability_radius(system, pset, eps, runs, horizon, rng):
    rng = np.random.default_rng(rng)  # a Generator passes through
    t0_max = max(0, system.T - horizon)
    radius = 0.0
    for _ in range(runs):
        t0 = int(rng.integers(0, t0_max + 1))
        theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
        x = np.zeros(system.n)
        for i in range(horizon):
            t = t0 + i
            x = system.dynamics(t, x, system.policy(t, x, theta_seq[i]))
            norm = float(np.linalg.norm(x))
            if not norm <= DIVERGENCE_FACTOR:
                raise Divergence(f"zero-state rollout reached norm {norm:.3e} at step {t}")
            radius = max(radius, norm)
    return radius


def reference_estimate(system, pset, eps, R_C_probe=None, pairs=100, horizon=30, rng=0):
    window = max(1, horizon // 4)
    rng = np.random.default_rng(rng)
    auto_probe = R_C_probe is None
    if auto_probe:
        R_C_probe = 2.0 * max(reference_state_sup(system, pset, eps, horizon, rng), 1e-6)
    t0_max = max(0, system.T - horizon)
    log_ratios = []
    curves = []
    for _ in range(pairs):
        x = _sample_ball(system.n, R_C_probe, rng)
        x_prime = _sample_ball(system.n, R_C_probe, rng)
        t0 = int(rng.integers(0, t0_max + 1))
        theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
        norms = reference_decay_curve(system, x, x_prime, theta_seq, t0, horizon)
        if norms[0] == 0.0:
            continue
        if not np.max(norms) <= DIVERGENCE_FACTOR * norms[0]:
            raise Divergence(
                f"pair separation grew by a factor of {np.max(norms) / norms[0]:.3e}; "
                "the contraction assumption fails on this parameter set"
            )
        floor = 1e-14 * norms[0]
        valid = horizon + 1
        for t in range(1, horizon + 1):
            if norms[t] <= floor:
                valid = t
                break
            curves.append((t, math.log(norms[t] / norms[0])))
        for t in range(window, valid):
            log_ratios.append(math.log(norms[t] / norms[t - window]) / window)
    if not log_ratios:
        raise ValueError("no usable decay samples; increase pairs or horizon")
    log_rho = min(float(np.percentile(log_ratios, 99.0)), -1e-12)
    log_C = max(r - t * log_rho for t, r in curves)
    R_S_hat = reference_stability_radius(
        system, pset, eps, runs=min(pairs, 50), horizon=horizon, rng=rng
    )
    return ContractionEstimate(
        C_hat=max(1.0, math.exp(log_C)),
        rho_hat=math.exp(log_rho),
        R_C_probe=float(R_C_probe),
        R_S_hat=R_S_hat,
        eps=float(eps),
        samples=pairs,
        auto_probe=auto_probe,
    )


def outcome(fn, *args, **kwargs):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (Divergence, ValueError) as exc:
        return type(exc), str(exc)


def spiked_env(T=200, spikes=((40, 1e7), (150, 1e9))):
    """Scalar system contracting by 0.5 per step except at the spike steps,
    where every pair whose window covers one separates past the cap."""
    A = np.full((T, 1, 1), 0.5)
    for t, factor in spikes:
        A[t] = factor
    return LinearFeedbackEnv(
        A, [[0.0]], [[1.0]], [[1.0]], np.zeros((T, 1)), theta_set=Box([0.0], [0.0])
    )


class TestSlowSequences:
    def test_zero_eps_constant(self):
        seq = sample_slow_sequence(Box([0.0, 0.0], [1.0, 1.0]), 0.0, 20, rng=0)
        assert np.all(seq == seq[0])

    def test_increments_bounded_and_inside_box(self):
        pset = Box([0.0, 0.0], [1.0, 1.0])
        seq = sample_slow_sequence(pset, 0.1, 200, rng=1)
        steps = np.linalg.norm(np.diff(seq, axis=0), axis=1)
        assert np.all(steps <= 0.1 + 1e-12)
        assert np.all(seq >= 0.0) and np.all(seq <= 1.0)

    def test_infinite_eps_is_iid_projection(self):
        pset = Ball([0.0, 0.0], 1.0)
        seq = sample_slow_sequence(pset, np.inf, 500, rng=2)
        norms = np.linalg.norm(seq, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        # draws should not look like a random walk: lag-1 correlation near 0
        r = np.corrcoef(seq[:-1, 0], seq[1:, 0])[0, 1]
        assert abs(r) < 0.15


def geometric_env(factor, T=60):
    """Autonomous linear system contracting exactly by `factor` per step."""
    return LinearFeedbackEnv(
        [[factor]], [[0.0]], [[1.0]], [[1.0]], np.zeros((T, 1)),
        theta_set=Box([0.0], [0.0]),
    )


class TestEstimateContraction:
    def test_exact_geometric_decay(self):
        env = geometric_env(0.5)
        est = estimate_contraction(
            env, env.theta_set, eps=0.0, R_C_probe=1.0, pairs=60, horizon=20, rng=0
        )
        assert est.rho_hat == pytest.approx(0.5, abs=1e-6)
        assert 1.0 <= est.C_hat <= 1.01

    def test_scalar_riccati_closed_loop(self):
        # Gain box tight around the stationary gain: the closed-loop factor
        # is 2 - golden ratio.
        K = GOLDEN
        env = LinearFeedbackEnv(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((80, 1)),
            theta_set=Box([K - 0.01], [K + 0.01]),
        )
        est = estimate_contraction(
            env, env.theta_set, eps=0.005, R_C_probe=1.0, pairs=100, horizon=30, rng=3
        )
        assert abs(est.rho_hat - (2.0 - GOLDEN)) < 0.05

    def test_pendulum_gain_box_contracts(self):
        env = make_pendulum_env(3000, IidGaussian(0.3), seed=0)
        est = estimate_contraction(
            env, env.theta_set, eps=0.05, R_C_probe=0.5,
            pairs=200, horizon=150, rng=0,
        )
        assert est.rho_hat < 1.0
        assert est.C_hat >= 1.0

    def test_divergence_on_unstable_gains(self):
        env = LinearFeedbackEnv(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((120, 1)),
            theta_set=Box([0.0], [0.3]),
        )
        with pytest.raises(Divergence):
            estimate_contraction(
                env, env.theta_set, eps=0.0, R_C_probe=1.0, pairs=20, horizon=60, rng=0
            )

    def test_envelope_dominates_every_sample(self):
        # Re-roll the same pair construction and assert the fitted envelope
        # bounds each decay curve.
        env = make_fig2_env(T=300, seed=11)
        est = estimate_contraction(
            env, env.theta_set, eps=0.1, R_C_probe=2.0, pairs=50, horizon=25, rng=7
        )
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = _sample_ball(env.n, est.R_C_probe, rng)
            x2 = _sample_ball(env.n, est.R_C_probe, rng)
            t0 = int(rng.integers(0, max(0, env.T - 25) + 1))
            seq = sample_slow_sequence(env.theta_set, 0.1, 25, rng)
            norms = reference_decay_curve(env, x, x2, seq, t0, 25)
            if norms[0] == 0:
                continue
            bound = est.C_hat * est.rho_hat ** np.arange(26) * norms[0]
            assert np.all(norms <= bound * (1 + 1e-9))

    def test_eps_monotonicity_bundled_envs(self):
        for env in [make_fig2_env(T=300, seed=5), make_pendulum_env(3000, IidGaussian(0.3), seed=5)]:
            kw = dict(pairs=80, horizon=120, rng=9, R_C_probe=0.5)
            frozen = estimate_contraction(env, env.theta_set, eps=0.0, **kw)
            moving = estimate_contraction(env, env.theta_set, eps=0.05, **kw)
            assert frozen.rho_hat <= moving.rho_hat + 0.02

    def test_seed_determinism(self):
        env = make_fig2_env(T=300, seed=0)
        a = estimate_contraction(env, env.theta_set, eps=0.1, R_C_probe=2.0, pairs=40, horizon=20, rng=13)
        b = estimate_contraction(env, env.theta_set, eps=0.1, R_C_probe=2.0, pairs=40, horizon=20, rng=13)
        assert a == b

    def test_auto_probe_flagged(self):
        env = make_fig2_env(T=300, seed=0)
        est = estimate_contraction(env, env.theta_set, eps=0.0, pairs=30, horizon=20, rng=0)
        assert est.auto_probe
        assert est.R_C_probe > 0


class TestStabilityRadius:
    def test_zero_for_undisturbed_stable_system(self):
        env = geometric_env(0.5)
        r = estimate_stability_radius(env, env.theta_set, eps=0.0, runs=10, horizon=30, rng=0)
        assert r == 0.0

    def test_dac_bound(self):
        # Disturbance-action policies from the zero state stay within
        # C * R_M * w_bar / (1 - rho) (up to 10% estimator slack).
        env = make_dac_env(400, seed=3, n=2, history=3, radius=1.5, w_bound=1.0)
        est = estimate_contraction(
            env, env.theta_set, eps=np.inf, R_C_probe=3.0, pairs=80, horizon=60, rng=4
        )
        bound = est.C_hat * 1.5 * 1.0 / (1.0 - est.rho_hat)
        assert est.R_S_hat <= bound * 1.1

    def test_scalar_env_finite_radius(self):
        env = make_fig2_env(T=600, seed=8)
        r = estimate_stability_radius(env, env.theta_set, eps=0.2, runs=20, horizon=500, rng=5)
        assert 0.0 < r < 50.0


class TestNonFiniteStates:
    """A NaN disturbance is a divergence, not a NaN estimate."""

    @staticmethod
    def poisoned_env(step):
        env = make_fig2_env(T=200, seed=0)
        env.w[step] = np.nan
        return env

    @pytest.mark.parametrize("step", [5, 50])
    @pytest.mark.parametrize("probe", [1.0, None])
    def test_estimate_contraction_raises(self, step, probe):
        env = self.poisoned_env(step)
        with pytest.raises(Divergence):
            estimate_contraction(env, env.theta_set, eps=0.0, R_C_probe=probe, rng=0)

    @pytest.mark.parametrize("step", [5, 50])
    def test_stability_radius_raises(self, step):
        env = self.poisoned_env(step)
        with pytest.raises(Divergence):
            estimate_stability_radius(env, env.theta_set, 0.0, runs=50, horizon=30, rng=0)


class TestHorizonLongerThanT:
    def test_estimate_contraction_refuses(self):
        env = make_fig2_env(T=20, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            estimate_contraction(env, env.theta_set, eps=0.0, horizon=30, rng=0)

    def test_stability_radius_refuses(self):
        env = make_fig2_env(T=20, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            estimate_stability_radius(env, env.theta_set, 0.0, runs=5, horizon=30, rng=0)

    def test_horizon_equal_to_T_allowed(self):
        env = make_fig2_env(T=30, seed=0)
        est = estimate_contraction(env, env.theta_set, eps=0.1, pairs=20, horizon=30, rng=0)
        assert 0.0 < est.rho_hat < 1.0


def _dac():
    return make_dac_env(400, seed=3, n=2, history=3, radius=1.5, w_bound=1.0)


# (env factory, estimate_contraction keywords)
LOCKSTEP_CASES = {
    "fig2-dense": (lambda: make_fig2_env(T=200, seed=1),
                   dict(eps=0.0, R_C_probe=2.0, pairs=300, horizon=30, rng=1)),
    "fig2-auto-probe": (lambda: make_fig2_env(T=200, seed=2),
                        dict(eps=0.1, pairs=60, horizon=30, rng=2)),
    "fig2-horizon-is-T": (lambda: make_fig2_env(T=30, seed=0),
                          dict(eps=0.1, R_C_probe=1.0, pairs=40, horizon=30, rng=3)),
    "fig2-no-pairs": (lambda: make_fig2_env(T=200, seed=0),
                      dict(eps=0.0, R_C_probe=1.0, pairs=0, horizon=30, rng=0)),
    "pendulum-sparse": (lambda: make_pendulum_env(3000, IidGaussian(0.3), seed=0),
                        dict(eps=0.05, R_C_probe=0.5, pairs=40, horizon=30, rng=4)),
    "horizon-per-lane": (lambda: make_horizon_selection_env([1, 2, 3], 400, seed=0),
                         dict(eps=0.0, pairs=40, horizon=30, rng=5)),
    "dac-iid": (_dac, dict(eps=np.inf, R_C_probe=3.0, pairs=40, horizon=60, rng=4)),
    "dac-frozen": (_dac, dict(eps=0.0, R_C_probe=3.0, pairs=40, horizon=60, rng=4)),
    "dac-slow": (_dac, dict(eps=0.05, R_C_probe=3.0, pairs=40, horizon=60, rng=4)),
    "spiked": (spiked_env, dict(eps=0.0, R_C_probe=1.0, pairs=20, horizon=30, rng=0)),
}


class TestLockstepMatchesPerPair:
    """The lockstep pass gives exactly what rolling each pair and each
    stability run alone gives, raised errors included."""

    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_estimate_bit_equal(self, case):
        make_env, kw = LOCKSTEP_CASES[case]
        env = make_env()
        expected = outcome(reference_estimate, env, env.theta_set, **kw)
        assert outcome(estimate_contraction, env, env.theta_set, **kw) == expected

    @pytest.mark.parametrize("case", ["fig2-dense", "pendulum-sparse", "horizon-per-lane",
                                      "dac-iid"])
    def test_states_equal_single_runs(self, case):
        env = LOCKSTEP_CASES[case][0]()
        rng = np.random.default_rng(0)
        runs, horizon = 40, 20
        X0 = rng.standard_normal((runs, env.n))
        # Repeated, overlapping and isolated windows, out of start order.
        starts = [int(s) for s in rng.integers(0, env.T - horizon + 1, runs)]
        starts[:4] = [7, 7, env.T - horizon, 0]
        seqs = np.array(
            [sample_slow_sequence(env.theta_set, 0.05, horizon, rng) for _ in range(runs)]
        )
        states = _lockstep_states(env, X0, starts, seqs)
        for r in range(runs):
            x = X0[r]
            assert np.array_equal(states[r, 0], x)
            for i in range(horizon):
                t = starts[r] + i
                x = env.dynamics(t, x, env.policy(t, x, seqs[r, i]))
                assert np.array_equal(states[r, i + 1], x)

    @pytest.mark.parametrize("case", ["fig2-dense", "pendulum-sparse", "horizon-per-lane",
                                      "dac-iid", "spiked"])
    def test_stability_radius_bit_equal(self, case):
        make_env, kw = LOCKSTEP_CASES[case]
        env = make_env()
        args = (env, env.theta_set, kw["eps"])
        kwargs = dict(runs=30, horizon=kw["horizon"], rng=kw["rng"])
        expected = outcome(reference_stability_radius, *args, **kwargs)
        assert outcome(estimate_stability_radius, *args, **kwargs) == expected

    def test_one_lane_call_per_step(self):
        # Both states of 300 pairs and 50 stability runs share one pass, so
        # no step of the T=200 system is visited twice.
        env = make_fig2_env(T=200, seed=0)
        steps = []
        lanes = env.policy_lanes

        def counted(t, X, thetas):
            steps.append(t)
            return lanes(t, X, thetas)

        env.policy_lanes = counted
        estimate_contraction(env, env.theta_set, eps=0.0, R_C_probe=1.0, pairs=300,
                             horizon=30, rng=0)
        assert len(steps) == len(set(steps)) <= env.T

    def test_first_diverging_pair_in_draw_order_names_the_error(self):
        # Several pairs cross a spike, with distinct separation factors; the
        # first of them in draw order starts after another one, so a check
        # in start-time order would report a different pair.
        env = spiked_env()
        rng = np.random.default_rng(0)
        failing = []
        for _ in range(20):
            x = _sample_ball(env.n, 1.0, rng)
            x2 = _sample_ball(env.n, 1.0, rng)
            t0 = int(rng.integers(0, env.T - 30 + 1))
            seq = sample_slow_sequence(env.theta_set, 0.0, 30, rng)
            norms = reference_decay_curve(env, x, x2, seq, t0, 30)
            factor = np.max(norms) / norms[0]
            if not factor <= DIVERGENCE_FACTOR:
                failing.append((t0, f"{factor:.3e}"))
        assert len({f for _, f in failing}) >= 2
        assert min(t0 for t0, _ in failing) < failing[0][0]
        with pytest.raises(Divergence) as info:
            estimate_contraction(env, env.theta_set, eps=0.0, R_C_probe=1.0, pairs=20,
                                 horizon=30, rng=0)
        assert f"by a factor of {failing[0][1]};" in str(info.value)
