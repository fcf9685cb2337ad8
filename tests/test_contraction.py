import numpy as np
import pytest

from gaps.contraction import (
    estimate_contraction,
    estimate_stability_radius,
    sample_slow_sequence,
)
from gaps.envs import make_dac_env, make_fig2_env, make_pendulum_env, IidGaussian
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import Divergence
from gaps.system import Ball, Box

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


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
        from gaps.contraction import _pair_decay_curve, _sample_ball

        for _ in range(50):
            x = _sample_ball(env.n, est.R_C_probe, rng)
            x2 = _sample_ball(env.n, est.R_C_probe, rng)
            t0 = int(rng.integers(0, max(0, env.T - 25) + 1))
            seq = sample_slow_sequence(env.theta_set, 0.1, 25, rng)
            norms = _pair_decay_curve(env, x, x2, seq, t0, 25)
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
