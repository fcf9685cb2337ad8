"""Self-check suites behind the `validate` CLI command.

Each check returns a CheckResult; the CLI prints one PASS/FAIL line per
check and exits nonzero if any fail. Checks are deterministic (fixed seeds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import estimate_contraction
from .core import GapsConfig, run_gaps
from .envs import (
    IidGaussian,
    make_dac_env,
    make_fig2_env,
    make_horizon_selection_env,
    make_pendulum_env,
)
from .errors import Divergence
from .linalg import solve_dare
from .system import Box, ControlSystem, Trajectory, check_jacobians


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.suite}: {self.name}{detail}"


def _bundled_envs(T: int = 300, seed: int = 7):
    return {
        "fig2": make_fig2_env(T=T, seed=seed),
        "pendulum": make_pendulum_env(T, IidGaussian(0.5), seed=seed),
        "dac": make_dac_env(T, seed=seed),
        "horizon": make_horizon_selection_env([1, 2, 3], T, seed=seed),
    }


def validate_jacobians(
    env, points: int = 50, rel_tol: float = 1e-5, seed: int = 0, name: str = "env"
) -> CheckResult:
    """Check analytic Jacobians against finite differences along a trajectory.

    Points are visited states under parameters drawn from the set; for the
    discrete-arm environment the set sampler is replaced by arm centers so
    the checks stay away from switch boundaries.
    """
    rng = np.random.default_rng(seed)
    arms = env.arm_thetas()

    def draw_theta():
        if arms is not None:
            return arms[rng.integers(len(arms))]
        return env.theta_set.project(env.theta_set.sample(rng))

    worst = 0.0
    worst_block = ""
    x = np.array(env.x0, dtype=float)
    for i in range(points):
        t = int(rng.integers(0, env.T))
        theta = draw_theta()
        report = check_jacobians(env, t, x, theta, h=1e-6 * (1 + np.linalg.norm(x)), rel_tol=rel_tol)
        if report.max_error > worst:
            worst = report.max_error
            worst_block = max(report.errors, key=report.errors.get)
        # advance the probe state along the closed loop, resetting occasionally
        u = env.policy(t, x, theta)
        x = env.dynamics(t, x, u)
        if i % 20 == 19 or not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e3:
            x = np.array(env.x0, dtype=float)
    return CheckResult(
        suite="jacobians",
        name=name,
        passed=worst <= rel_tol,
        detail=f"max rel err {worst:.2e} in {worst_block or 'n/a'}",
    )


def chain_rule_gradients(system: ControlSystem, traj: Trajectory, B: int) -> np.ndarray:
    """(T, d) truncated gradients of a run from explicit chain-rule products
    over the visited Jacobians: the reference for the streaming ring. The
    closed-loop blocks are written out here rather than taken from the
    StepJacobians products the recursion uses, so a fault in those shows."""
    T = len(traj)
    jacs = [system.jacobians(t, traj.states[t], traj.thetas[t]) for t in range(T)]
    grads = np.empty((T, system.d))
    for t in range(T):
        total = jacs[t].df_du @ jacs[t].dpi_dtheta
        dc_dx = jacs[t].df_dx + jacs[t].df_du @ jacs[t].dpi_dx
        for b in range(1, min(B - 1, t) + 1):
            M = jacs[t - b].dg_du @ jacs[t - b].dpi_dtheta
            for j in range(t - b + 1, t):
                M = (jacs[j].dg_dx + jacs[j].dg_du @ jacs[j].dpi_dx) @ M
            total = total + dc_dx @ M
        grads[t] = total
    return grads


def validate_buffer_equivalence() -> CheckResult:
    """Streaming buffer gradient vs explicit chain-rule products."""
    T, B = 40, 12
    env = make_fig2_env(T=T, seed=0)
    cfg = GapsConfig(eta=1e-3, B=B, theta0=[0.8], set=env.theta_set)
    traj = run_gaps(env, cfg, T)
    worst = float(np.max(np.abs(chain_rule_gradients(env, traj, B) - traj.grads)))
    return CheckResult(
        suite="gradient-buffer",
        name="recursion equals explicit chain rule",
        passed=worst < 1e-10,
        detail=f"max abs err {worst:.2e}",
    )


def validate_dare() -> CheckResult:
    sol = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    expected = 2.0 + np.sqrt(5.0)
    ok = abs(sol.P[0, 0] - expected) < 1e-9 and sol.residual < 1e-10
    return CheckResult(
        suite="riccati",
        name="scalar fixed point and residual",
        passed=ok,
        detail=f"|P - (2+sqrt5)| = {abs(sol.P[0,0]-expected):.2e}, residual {sol.residual:.2e}",
    )


def validate_mpc_vs_qp(instances: int = 20, seed: int = 3, rel_tol: float = 1e-7) -> CheckResult:
    """Affine planner output vs dense quadratic minimization."""
    from .envs.confidence_mpc import ConfidenceMpcEnv

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        T = 3
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
        u_env = env.policy(t, x, theta)
        u_qp = _qp_first_control(env, t, x, theta)
        err = np.linalg.norm(u_env - u_qp) / (1.0 + np.linalg.norm(u_qp))
        worst = max(worst, float(err))
    return CheckResult(
        suite="planner",
        name="affine law equals dense QP minimizer",
        passed=worst < rel_tol,
        detail=f"max rel err {worst:.2e} over {instances} instances",
    )


def _qp_first_control(env, t: int, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Brute-force minimizer of the k-step planning objective over stacked u."""
    k, n, m = env.k, env.n, env.m
    v = [theta[j] * env.w_pred[t, j] for j in range(k)]  # injected disturbances

    # x_{j+1} = A x_j + B u_j + v_j; stack x as affine in U = (u_0..u_{k-1}).
    # Minimize sum_j x_j'Q x_j + u_j'R u_j + x_k'Qf x_k.
    # Build via explicit forward maps.
    F = [np.zeros((n, k * m)) for _ in range(k + 1)]  # dx_j/dU
    c = [np.zeros(n) for _ in range(k + 1)]  # x_j at U = 0
    c[0] = np.asarray(x, dtype=float)
    for j in range(k):
        A, B = env.A[t + j], env.B[t + j]
        F[j + 1] = A @ F[j]
        F[j + 1][:, j * m : (j + 1) * m] += B
        c[j + 1] = A @ c[j] + v[j]

    H = np.zeros((k * m, k * m))
    g = np.zeros(k * m)
    for j in range(k):
        Q = env.Q[t + j]
        H += F[j].T @ Q @ F[j]
        g += F[j].T @ Q @ c[j]
        R = env.R[t + j]
        H[j * m : (j + 1) * m, j * m : (j + 1) * m] += R
    H += F[k].T @ env.Qf @ F[k]
    g += F[k].T @ env.Qf @ c[k]
    U = np.linalg.solve(H, -g)
    return U[:m]


def validate_contraction_envelope() -> CheckResult:
    """Estimator raises on an unstable gain set and dominates samples otherwise."""
    env = make_fig2_env(T=200, seed=0)
    est = estimate_contraction(
        env, env.theta_set, eps=0.05, R_C_probe=2.0, pairs=60, horizon=25, rng=0
    )
    ok = 0.0 < est.rho_hat < 1.0 and est.C_hat >= 1.0

    # Unstable direction: scalar system with feedback too weak to stabilize.
    from .envs.linear_feedback import LinearFeedbackEnv

    bad = LinearFeedbackEnv(
        [[2.0]], [[1.0]], [[1.0]], [[1.0]],
        np.zeros((80, 1)),
        theta_set=Box([0.0], [0.5]),
    )
    try:
        estimate_contraction(bad, bad.theta_set, eps=0.0, R_C_probe=1.0, pairs=10, horizon=40, rng=1)
        caught = False
    except Divergence:
        caught = True
    return CheckResult(
        suite="contraction",
        name="envelope valid and divergence detected",
        passed=ok and caught,
        detail=f"rho_hat {est.rho_hat:.3f}, C_hat {est.C_hat:.3f}, divergence raised: {caught}",
    )


SUITES = ("jacobians", "gradient-buffer", "riccati", "planner", "contraction")


def run_validation(only: str | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    if only in (None, "jacobians"):
        for name, env in _bundled_envs().items():
            results.append(validate_jacobians(env, name=name))
    if only in (None, "gradient-buffer"):
        results.append(validate_buffer_equivalence())
    if only in (None, "riccati"):
        results.append(validate_dare())
    if only in (None, "planner"):
        results.append(validate_mpc_vs_qp())
    if only in (None, "contraction"):
        results.append(validate_contraction_envelope())
    return results
