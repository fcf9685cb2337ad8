"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets: AC-1 under 10 s, AC-2/AC-3 under 60 s, AC-4 under 10 min.
"""

import math
import time
from dataclasses import replace

import numpy as np

from gaps.baps import BapsConfig, run_baps
from gaps.contraction import estimate_contraction
from gaps.core import GapsConfig, run_gaps
from gaps.envs import (
    IidGaussian,
    OrnsteinUhlenbeck,
    ftl_confidence_baseline,
    lqr_baseline,
    make_constant_noise_env,
    make_fig2_env,
    make_horizon_selection_env,
    make_pendulum_env,
)
from gaps.envs.linear_feedback import LinearFeedbackEnv
from gaps.errors import Divergence
from gaps.linalg import solve_dare
from gaps.metrics import (
    make_theta_grid,
    regret_slope,
    static_and_adaptive_regret,
    surrogate_table,
)
from gaps.oracles import ideal_gradient, surrogate_cost
from gaps.system import Box
from gaps.validation import chain_rule_gradients, validate_jacobians, validate_mpc_vs_qp
from conftest import random_tanh_system

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
RHO_SCALAR = 2.0 - GOLDEN  # closed-loop factor of the scalar benchmark


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name} failed: {detail}"


def test_ac1_buffer_equals_explicit_chain_rule():
    """50 random smooth systems, T = 60, B in {1, 5, 60}: 1e-10 agreement."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        system = random_tanh_system(rng)
        T = 60
        B = int(rng.choice([1, 5, 60]))
        cfg = GapsConfig(eta=1e-3, B=B, theta0=np.zeros(system.d), set=system.theta_set)
        traj = run_gaps(system, cfg, T)
        err = np.abs(chain_rule_gradients(system, traj, B) - traj.grads)
        worst = max(worst, float(np.max(err)))
    elapsed = time.time() - start
    report(
        "AC-1",
        worst < 1e-10 and elapsed < 10.0,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac2_gradient_bias_shrinks_with_buffer():
    """Scalar benchmark, eta = 1e-3: bias strictly decreasing in B; B=16
    bias at most 5% of B=1."""
    start = time.time()
    T = 200
    biases = []
    for B in [1, 2, 4, 8, 16]:
        env = make_fig2_env(T=T, seed=0)
        cfg = GapsConfig(eta=1e-3, B=B, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, T)
        total = 0.0
        for t in range(T):
            exact = ideal_gradient(env, traj.thetas[t], t, mode="chain")
            total += float(np.linalg.norm(traj.grads[t] - exact))
        biases.append(total / T)
    elapsed = time.time() - start
    decreasing = all(a > b for a, b in zip(biases, biases[1:]))
    ratio = biases[-1] / biases[0]
    report(
        "AC-2",
        decreasing and ratio <= 0.05 and elapsed < 60.0,
        f"biases {['%.3e' % b for b in biases]}, B16/B1 {ratio:.4f}, {elapsed:.1f}s",
    )


def test_ac3_cost_bias_scales_linearly_in_eta():
    """Stationary convex benchmark, B = 32: halving eta roughly halves the
    time-averaged |f_t - F_t| (consecutive ratios within [1.5, 2.5])."""
    start = time.time()
    T = 400
    avgs = []
    for eta in [4e-3, 2e-3, 1e-3]:
        env = make_constant_noise_env(T=T, seed=0, sigma_w=1.0, sigma_pred=1.0)
        cfg = GapsConfig(eta=eta, B=32, theta0=[0.5], set=env.theta_set)
        traj = run_gaps(env, cfg, T)
        avgs.append(
            float(
                np.mean(
                    [abs(traj.costs[t] - surrogate_cost(env, traj.thetas[t], t)) for t in range(T)]
                )
            )
        )
    ratios = [avgs[0] / avgs[1], avgs[1] / avgs[2]]
    elapsed = time.time() - start
    ok = all(1.5 <= r <= 2.5 for r in ratios) and elapsed < 60.0
    report("AC-3", ok, f"ratios {['%.3f' % r for r in ratios]}, {elapsed:.1f}s")


def test_ac4_adaptive_schedule_gives_sqrt_regret_growth():
    """Convex scalar benchmark with the theory-suggested schedule: fitted
    log-log slope of mean static regret within [0.35, 0.65]."""
    start = time.time()
    rho = RHO_SCALAR
    points = []
    for T in [1000, 4000, 16000]:
        eta = (1.0 - rho) ** 2.5 * T**-0.5
        B = max(1, math.ceil(0.5 * math.log(T) / math.log(1.0 / rho)))
        regrets = []
        for seed in range(10):
            env = make_constant_noise_env(T=T, seed=seed, sigma_w=1.0, sigma_pred=1.0)
            cfg = GapsConfig(eta=eta, B=B, theta0=[1.0], set=env.theta_set)
            traj = run_gaps(env, cfg, T)
            grid = make_theta_grid(env.theta_set, 101)
            table = surrogate_table(env, grid, T)
            regrets.append(static_and_adaptive_regret(traj.costs, table, grid).static_regret)
        points.append((T, float(np.mean(regrets))))
    slope = regret_slope(points)
    elapsed = time.time() - start
    report(
        "AC-4",
        0.35 <= slope <= 0.65 and elapsed < 600.0,
        f"slope {slope:.3f}, regrets {[round(r) for _, r in points]}, {elapsed:.0f}s",
    )


def test_ac5_adapts_faster_than_follow_the_leader():
    """Scalar benchmark schedule: the gradient selector beats the leader on
    late-window cost in >= 15/20 seeds and ends with high confidence."""
    wins = 0
    lambdas = []
    for seed in range(20):
        env = make_fig2_env(T=200, seed=seed)
        cfg = GapsConfig(eta=0.05, B=32, theta0=[1.0], set=env.theta_set)
        traj = run_gaps(env, cfg, 200)
        ftl = ftl_confidence_baseline(env, 200)
        if np.mean(traj.costs[150:200]) <= np.mean(ftl.costs[150:200]):
            wins += 1
        lambdas.append(traj.thetas[-1, 0])
    lam_ok = min(lambdas) >= 0.8
    report(
        "AC-5",
        wins >= 15 and lam_ok,
        f"window wins {wins}/20, final lambda min {min(lambdas):.3f} "
        f"mean {np.mean(lambdas):.3f}",
    )


def test_ac6_pendulum_matches_lqr_iid_beats_it_under_ou():
    """20 matched seeds: cumulative cost <= 1.10x the per-mass Riccati
    baseline under i.i.d. noise; strictly below it in >= 15/20 under the
    mean-reverting random walk."""
    T = 15000
    iid_ratios = []
    ou_wins = 0
    for seed in range(20):
        env = make_pendulum_env(T, IidGaussian(1.0), seed=seed)
        base = lqr_baseline(env, T)
        cfg = GapsConfig(
            eta=5.0, B=32, theta0=env.lqr_gains(env.mass_at(0)), set=env.theta_set
        )
        traj = run_gaps(env, cfg, T)
        iid_ratios.append(traj.total_cost / base.total_cost)

        env2 = make_pendulum_env(
            T, OrnsteinUhlenbeck(mean_reversion=2.0, sigma=3.0, dt=0.02), seed=seed
        )
        base2 = lqr_baseline(env2, T)
        cfg2 = GapsConfig(
            eta=5.0, B=32, theta0=env2.lqr_gains(env2.mass_at(0)), set=env2.theta_set
        )
        traj2 = run_gaps(env2, cfg2, T)
        if traj2.total_cost < base2.total_cost:
            ou_wins += 1
    iid_ok = float(np.mean(iid_ratios)) <= 1.10
    report(
        "AC-6",
        iid_ok and ou_wins >= 15,
        f"iid cost ratio mean {np.mean(iid_ratios):.3f} max {max(iid_ratios):.3f}, "
        f"ou wins {ou_wins}/20",
    )


def test_ac7_bandit_horizon_selection_regret_and_concentration():
    """Batched bandit over planning horizons with the schedule driven by the
    contraction constants: sublinear regret growth (slope <= 0.85 over
    T in {5e3, 2e4, 8e4}, 200 seeds) and >= 0.6 terminal mass on the
    offline-best arm at the longest horizon."""
    horizons = [1, 2, 3]
    k = len(horizons)
    pilot = make_horizon_selection_env(horizons, 4000, seed=999)
    D0 = float(np.percentile(pilot.batch_surrogate_costs(np.stack(pilot.arm_thetas()), 4000), 99.9))
    seeds = 200
    points = []
    best_mass = []
    for T in [5000, 20000, 80000]:
        cfg = BapsConfig.schedule(k=k, T=T, C0=1.0, rho=RHO_SCALAR, D0=D0, seed=0)
        regrets = []
        for s in range(seeds):
            env = make_horizon_selection_env(horizons, T, seed=10_000 + s)
            res = run_baps(
                env, env.arm_thetas(), replace(cfg, seed=20_000 + s), T // cfg.b * cfg.b
            )
            # The batch costs summed in batch order.
            total = np.add.accumulate(res.batch_costs)[-1]
            arm_costs = surrogate_table(env, np.stack(env.arm_thetas()), T).sum(axis=0)
            regrets.append(total - arm_costs.min())
            if T == 80_000:
                best_mass.append(res.distribution_history[-1, int(np.argmin(arm_costs))])
        points.append((T, float(np.mean(regrets))))
    slope = regret_slope(points)
    mass = float(np.mean(best_mass))
    report(
        "AC-7",
        slope <= 0.85 and mass >= 0.6,
        f"slope {slope:.3f}, mean terminal mass on best arm {mass:.3f}",
    )


def test_ac8_planner_and_riccati_correctness():
    """Affine planner equals dense QP on 50 random instances to 1e-7; the
    scalar Riccati fixed point is exact to 1e-9 with residual below 1e-10."""
    qp = validate_mpc_vs_qp(instances=50, seed=17, rel_tol=1e-7)
    sol = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    dare_ok = abs(sol.P[0, 0] - (2.0 + np.sqrt(5.0))) < 1e-9 and sol.residual < 1e-10
    report(
        "AC-8",
        qp.passed and dare_ok,
        f"{qp.detail}; |P - (2+sqrt5)| {abs(sol.P[0,0]-(2+np.sqrt(5))):.1e}, "
        f"residual {sol.residual:.1e}",
    )


def test_ac9_contraction_estimator():
    """rho_hat within 0.05 of the known scalar closed-loop factor, and
    Divergence raised on an unstable gain set."""
    K = GOLDEN
    env = LinearFeedbackEnv(
        [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((100, 1)),
        theta_set=Box([K - 0.01], [K + 0.01]),
    )
    est = estimate_contraction(
        env, env.theta_set, eps=0.005, R_C_probe=1.0, pairs=100, horizon=30, rng=0
    )
    rho_ok = abs(est.rho_hat - RHO_SCALAR) < 0.05

    unstable = LinearFeedbackEnv(
        [[2.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((120, 1)),
        theta_set=Box([0.0], [0.3]),
    )
    try:
        estimate_contraction(
            unstable, unstable.theta_set, eps=0.0, R_C_probe=1.0, pairs=20, horizon=60, rng=1
        )
        raised = False
    except Divergence:
        raised = True
    report(
        "AC-9",
        rho_ok and raised,
        f"rho_hat {est.rho_hat:.4f} vs {RHO_SCALAR:.4f}, divergence raised {raised}",
    )


def test_ac10_jacobian_validation_all_envs():
    """Every bundled environment passes the finite-difference check at 200
    visited points with rel_tol 1e-5."""
    from gaps.envs import make_dac_env

    envs = {
        "fig2": make_fig2_env(T=300, seed=7),
        "pendulum": make_pendulum_env(300, IidGaussian(0.5), seed=7),
        "dac": make_dac_env(300, seed=7),
        "horizon": make_horizon_selection_env([1, 2, 3], 300, seed=7),
    }
    details = []
    ok = True
    for name, env in envs.items():
        res = validate_jacobians(env, points=200, rel_tol=1e-5, seed=7, name=name)
        ok = ok and res.passed
        details.append(f"{name}: {res.detail}")
    report("AC-10", ok, "; ".join(details))


def test_ac11_byte_identical_reruns(tmp_path):
    """The CLI with a fixed seed reproduces trace.csv byte for byte."""
    from gaps.cli import main

    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--out", str(a), "--override", "T=120"]) == 0
    assert main(["run", "--out", str(b), "--override", "T=120"]) == 0
    same = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    report("AC-11", same, "trace.csv identical across reruns")
