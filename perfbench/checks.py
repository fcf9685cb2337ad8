"""Output checks built apart from the program.

Every function here takes plain arrays or parsed files and raises
`CheckFailed` when an output disagrees with a computation the benchmark does
itself: its own pendulum Euler step and closed-form Jacobians, its own
scalar planner gains, brute-force interval maxima from prefix sums, and
properties the method must have. Nothing here calls into `gaps`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, rtol: float, what: str) -> None:
    """Elementwise |actual - expected| <= rtol * (|expected| + 1e-6 * scale)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    err = np.abs(actual - expected)
    bound = rtol * (np.abs(expected) + 1e-6 * scale)
    bad = ~(err <= bound)
    if np.any(bad):
        i = np.flatnonzero(bad.reshape(-1))[0]
        raise CheckFailed(
            f"{what}: entry {i} is {actual.reshape(-1)[i]!r}, expected "
            f"{expected.reshape(-1)[i]!r} (rtol {rtol:g})"
        )


# ---------------------------------------------------------------------------
# Files


def read_trace(path: str) -> dict[str, np.ndarray]:
    """Columns of a trace.csv by header name."""
    with open(path) as f:
        lines = [line for line in f if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def read_summary(path: str) -> tuple[list[float], list[float]]:
    """(values, metric) columns of a sweep summary.csv."""
    with open(path) as f:
        rows = [line.strip().split(",") for line in f if not line.startswith("#")]
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def tree_bytes(root: str) -> dict[str, bytes]:
    """Relative path -> content for every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def identical_trees(a: dict[str, bytes], b: dict[str, bytes]) -> None:
    require(sorted(a) == sorted(b), f"output file sets differ: {sorted(set(a) ^ set(b))}")
    for name in sorted(a):
        require(a[name] == b[name], f"{name} differs between two passes of one run")


def report_total(report: dict, trace: dict) -> None:
    close(report["total_cost"], np.sum(trace["cost"]), 1e-12, "total_cost vs trace costs")


# ---------------------------------------------------------------------------
# Pendulum: explicit Euler, u = -theta.x, quadratic cost

PENDULUM = {
    "length": 1.0,
    "gravity": 9.81,
    "damping": 0.1,
    "dt": 0.02,
    "masses": (1.0, 0.8, 1.3),
    "q": (1.0, 0.1),
    "r": 0.01,
    "box": ((17.0, 4.0), (40.0, 16.0)),
}


def pendulum_ml2(t: np.ndarray, steps_per_mass: int) -> np.ndarray:
    masses = np.array(PENDULUM["masses"])
    return masses[(t // steps_per_mass) % len(masses)] * PENDULUM["length"] ** 2


def pendulum_replay(trace: dict, w: np.ndarray, steps_per_mass: int) -> None:
    """Every row: action, cost and next state from the benchmark's own step."""
    p = PENDULUM
    t = trace["t"].astype(int)
    x0, x1, u = trace["x0"], trace["x1"], trace["u0"]
    th0, th1 = trace["theta0"], trace["theta1"]
    require(np.array_equal(t, np.arange(len(t))), "trace steps are not 0..T-1")
    require(x0[0] == 0.0 and x1[0] == 0.0, "pendulum does not start at rest")
    close(u, -(th0 * x0 + th1 * x1), 1e-9, "u = -theta.x")
    close(trace["cost"], p["q"][0] * x0**2 + p["q"][1] * x1**2 + p["r"] * u**2, 1e-9,
          "quadratic stage cost")
    ml2 = pendulum_ml2(t, steps_per_mass)
    accel = (
        (p["gravity"] / p["length"]) * np.sin(x0)
        - (p["damping"] / ml2) * x1
        + u / ml2
        + w[: len(t)]
    )
    close(x0[1:], (x0 + p["dt"] * x1)[:-1], 1e-9, "Euler step of the angle")
    close(x1[1:], (x1 + p["dt"] * accel)[:-1], 1e-9, "Euler step of the velocity")


def pendulum_gradient(trace: dict, steps_per_mass: int, B: int, t: int) -> np.ndarray:
    """Truncated chain-rule sum at step t from closed-form Jacobians.

    G_t = df/du dpi/dtheta + dc/dx sum_{b=1}^{min(B-1,t)}
          A_cl(t-1) ... A_cl(t-b+1) dg/du(t-b) dpi/dtheta(t-b),
    accumulated right to left as a row vector.
    """
    p = PENDULUM
    dt = p["dt"]

    def point(j):
        x = np.array([trace["x0"][j], trace["x1"][j]])
        th = np.array([trace["theta0"][j], trace["theta1"][j]])
        u = -(th @ x)
        ml2 = float(pendulum_ml2(np.array([j]), steps_per_mass)[0])
        return x, th, u, ml2

    x, th, u, _ = point(t)
    q = np.array(p["q"])
    grad = 2.0 * p["r"] * u * (-x)
    row = 2.0 * q * x + 2.0 * p["r"] * u * (-th)
    for b in range(1, min(B - 1, t) + 1):
        xj, thj, _, ml2 = point(t - b)
        dg_du = np.array([0.0, dt / ml2])
        grad = grad + (row @ dg_du) * (-xj)
        dg_dx = np.array(
            [
                [1.0, dt],
                [dt * (p["gravity"] / p["length"]) * math.cos(xj[0]),
                 1.0 - dt * p["damping"] / ml2],
            ]
        )
        row = row @ (dg_dx + np.outer(dg_du, -thj))
    return grad


def pendulum_grad_norms(trace: dict, steps_per_mass: int, B: int, steps) -> None:
    for t in steps:
        expected = float(np.linalg.norm(pendulum_gradient(trace, steps_per_mass, B, t)))
        close(trace["grad_norm"][t], expected, 1e-8, f"grad_norm at t={t}, B={B}")


def sampled_steps(T: int, B: int, count: int = 16) -> list[int]:
    steps = {0, 1, 2, B - 1, B, B + 1, T - 1}
    steps.update(int(s) for s in np.linspace(0, T - 1, count))
    return sorted(s for s in steps if 0 <= s < T)


def pendulum_in_box(trace: dict) -> None:
    (lo0, lo1), (hi0, hi1) = PENDULUM["box"]
    th0, th1 = trace["theta0"], trace["theta1"]
    require(bool(np.all((lo0 <= th0) & (th0 <= hi0) & (lo1 <= th1) & (th1 <= hi1))),
            "theta left the gain box")


def pendulum_vs_lqr(kind: str, total: float, lqr_total: float) -> None:
    """AC-6: cost ratio to the per-mass Riccati baseline."""
    ratio = total / lqr_total
    if kind == "iid":
        require(ratio <= 1.10, f"iid GAPS/LQR cost ratio {ratio:.4f} > 1.10")
    else:
        require(ratio < 1.0, f"OU GAPS/LQR cost ratio {ratio:.4f} >= 1")


# ---------------------------------------------------------------------------
# Scalar confidence benchmark: x' = 2x + u + w, cost x^2 + u^2, k = 1 planner

FIG2_P = 2.0 + math.sqrt(5.0)  # stationary Riccati value of a=2, b=1, q=r=1
FIG2_K = 2.0 * FIG2_P / (1.0 + FIG2_P)  # a b P / (r + b^2 P)
FIG2_H = FIG2_P / (1.0 + FIG2_P)  # b P / (r + b^2 P)
RHO_SCALAR = 2.0 - (1.0 + math.sqrt(5.0)) / 2.0  # a - b K = 2 - golden ratio


def fig2_costs(thetas: np.ndarray, w: np.ndarray, w_pred: np.ndarray, T: int) -> np.ndarray:
    """(T, G) stage costs of constant-theta rollouts, one lane per theta."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    x = np.zeros_like(thetas)
    out = np.empty((T, thetas.size))
    for t in range(T):
        u = -FIG2_K * x - thetas * FIG2_H * w_pred[t]
        out[t] = x * x + u * u
        x = 2.0 * x + u + w[t]
    return out


def fig2_replay(trace: dict, w: np.ndarray, w_pred: np.ndarray) -> None:
    x, u, th = trace["x0"], trace["u0"], trace["theta0"]
    T = len(x)
    require(x[0] == 0.0, "scalar benchmark does not start at 0")
    close(u, -FIG2_K * x - th * FIG2_H * w_pred[:T], 1e-9, "k=1 planner action")
    close(trace["cost"], x * x + u * u, 1e-9, "stage cost x^2 + u^2")
    close(x[1:], (2.0 * x + u + w[:T])[:-1], 1e-9, "scalar dynamics")


def local_regret_from_table(table_plus: np.ndarray, table_minus: np.ndarray, h: float) -> float:
    """Sum over t of the squared central difference (F_t(th+h) - F_t(th-h)) / 2h."""
    g = (table_plus - table_minus) / (2.0 * h)
    return float(np.sum(g * g))


def brute_force_regret(costs: np.ndarray, table: np.ndarray) -> tuple[float, float]:
    """(static, adaptive) regret: the max over every interval [i, j] and every
    column of sum(costs - table[:, g]), from prefix sums."""
    diffs = costs[:, None] - table
    prefix = np.vstack([np.zeros((1, table.shape[1])), np.cumsum(diffs, axis=0)])
    static = float(np.max(prefix[-1]))
    T = costs.shape[0]
    upper = np.triu(np.ones((T + 1, T + 1), dtype=bool), k=1)  # i < j+1
    adaptive = -math.inf
    for g in range(table.shape[1]):
        p = prefix[:, g]
        sums = p[None, :] - p[:, None]  # [i, j] = P[j] - P[i]
        adaptive = max(adaptive, float(np.max(sums[upper])))
    return static, adaptive


def regret_report(report: dict, static: float, adaptive: float) -> None:
    close(report["static_regret"], static, 1e-9, "static_regret vs brute force")
    close(report["adaptive_regret"], adaptive, 1e-9, "adaptive_regret vs brute force")


def grad_bias_shrinks(biases: list[float]) -> None:
    for a, b in zip(biases, biases[1:]):
        require(b < a, f"mean_grad_bias not strictly decreasing in B: {biases}")
    ratio = biases[-1] / biases[0]
    require(ratio <= 0.05, f"mean_grad_bias B16/B1 = {ratio:.4f} > 0.05")


def cost_bias(trace: dict, w: np.ndarray, w_pred: np.ndarray) -> float:
    """mean_t |f_t - F_t(theta_t)|: one constant-theta lane per step."""
    T = len(trace["cost"])
    table = fig2_costs(trace["theta0"], w, w_pred, T)
    return float(np.mean(np.abs(trace["cost"] - table[np.arange(T), np.arange(T)])))


def rho_hat_closed_form(rho_hat: float) -> None:
    require(abs(rho_hat - RHO_SCALAR) <= 1e-3,
            f"rho_hat {rho_hat:.6f} is not within 1e-3 of 2 - phi = {RHO_SCALAR:.6f}")


# ---------------------------------------------------------------------------
# Bandit horizon selection: scalar x' = 2x + u + w, arms held for b steps


def horizon_replay(trace: dict, w: np.ndarray) -> None:
    x, u = trace["x0"], trace["u0"]
    require(x[0] == 0.0, "horizon env does not start at 0")
    close(trace["cost"], x * x + u * u, 1e-9, "stage cost x^2 + u^2")
    close(x[1:], (2.0 * x + u + w[: len(x)])[:-1], 1e-9, "scalar dynamics")


def arms_held_per_batch(trace: dict, report: dict, b: int, k: int) -> None:
    arms = trace["theta0"]
    require(arms.size % b == 0, f"trace length {arms.size} is not a multiple of b={b}")
    batches = arms.reshape(-1, b)
    require(bool(np.all(batches == batches[:, :1])), "arm changed inside a batch")
    first = batches[:, 0]
    require(bool(np.all(np.isin(first, np.arange(k)))), "arm index outside 0..k-1")
    require(first.astype(int).tolist() == report["arm_history"],
            "trace arms differ from arm_history")


def distribution_valid(report: dict) -> None:
    s = np.array(report["final_distribution"])
    require(bool(np.all(s > 0.0)), f"final_distribution has a non-positive entry: {s}")
    require(abs(float(np.sum(s)) - 1.0) <= 1e-12, f"final_distribution sums to {np.sum(s)!r}")


def static_regret_vs_arms(report: dict, arm_totals: list[float]) -> None:
    expected = report["total_cost"] - min(arm_totals)
    require(abs(report["static_regret"] - expected) <= 1e-9 * report["total_cost"],
            f"static_regret {report['static_regret']!r} != total_cost - best arm "
            f"{expected!r}")
