"""Regret computations against resimulated comparators.

The infimum over the parameter set is taken over a finite grid, so every
reported regret is a lower bound on the true regret (the grid infimum can
only overestimate the true infimum). Grid defaults: a product grid with 101
points per dimension for d <= 2, a 512-point Sobol design for d <= 6, and a
refusal beyond that.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, NonPositiveRegret, PiecewiseConstantPolicy
from .linalg import row_norms
from .oracles import surrogates
from .system import Ball, Box, ControlSystem, ParameterSet, WholeSpace, check_state, rollout

_SOBOL_BITS = 30

# Joe-Kuo (s, a, m_1..m_s) for Sobol dimensions 2..6: s is the degree of the
# primitive polynomial, a its inner coefficients as bits, m the initial
# direction integers.
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)), (4, 1, (1, 1, 3, 3)))


def _sobol(n: int, d: int) -> np.ndarray:
    """First n points of the unscrambled d-dimensional Sobol sequence (d <= 6)
    in [0, 1)^d, in Gray-code order, starting at the origin. Dimension 1 is
    van der Corput; V[k, j] is direction integer k of dimension j."""
    V = np.empty((_SOBOL_BITS, d), dtype=np.int64)
    V[:, 0] = [1 << (_SOBOL_BITS - 1 - k) for k in range(_SOBOL_BITS)]
    for j, (s, a, m) in enumerate(_JOE_KUO[: d - 1], start=1):
        v = [m[k] << (_SOBOL_BITS - 1 - k) for k in range(s)]
        for k in range(s, _SOBOL_BITS):
            x = v[k - s] ^ (v[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    x ^= v[k - i]
            v.append(x)
        V[:, j] = v
    i = np.arange(n, dtype=np.int64)
    gray = i ^ (i >> 1)
    X = np.zeros((n, d), dtype=np.int64)
    for k in range(_SOBOL_BITS):
        X ^= ((gray >> k) & 1)[:, None] * V[k]
    return X * 2.0**-_SOBOL_BITS


@dataclass
class RegretReport:
    """Interval-worst and whole-horizon regret against the best grid point.

    Grid semantics: the infimum is over the supplied grid, so the reported
    values are lower bounds on the true regrets.
    """

    static_regret: float
    adaptive_regret: float
    adaptive_interval: tuple[int, int]
    best_fixed_theta: np.ndarray
    grid: np.ndarray
    local_regret: float | None = None

    def to_dict(self) -> dict:
        out = {
            "static_regret": self.static_regret,
            "adaptive_regret": self.adaptive_regret,
            "adaptive_interval": list(self.adaptive_interval),
            "best_fixed_theta": self.best_fixed_theta.tolist(),
            "grid_size": int(self.grid.shape[0]),
        }
        if self.local_regret is not None:
            out["local_regret"] = self.local_regret
        return out


@dataclass
class DynamicRegretReport:
    """Regret against a caller-supplied comparator parameter sequence."""

    regret: float
    comparator_path_length: float
    comparator: np.ndarray

    def to_dict(self) -> dict:
        return {
            "dynamic_regret": self.regret,
            "comparator_path_length": self.comparator_path_length,
        }


def make_theta_grid(pset: ParameterSet, points_per_dim: int = 101) -> np.ndarray:
    """Finite grid over the set for infimum evaluation.

    For d <= 2 the grid is a product of points_per_dim points per axis; for
    d = 3..6 it is the first 512 points of the unscrambled Sobol
    sequence (`_sobol`: Joe-Kuo direction numbers, 30 bits, Gray-code
    order) scaled to the bounding box. Every point is projected onto the set.
    WholeSpace has no bounded grid; it is covered by the centered box
    [-10, 10]^d (documented lower-bound semantics apply doubly there).
    """
    d = pset.dim
    if points_per_dim < 1:
        raise ValueError(f"points_per_dim must be at least 1, got {points_per_dim}")
    if d > 6:
        raise ValueError("grids beyond d = 6 are refused; supply an explicit grid")
    if isinstance(pset, Box):
        lo, hi = pset.lo, pset.hi
    elif isinstance(pset, Ball):
        lo = pset.center - pset.radius
        hi = pset.center + pset.radius
    elif isinstance(pset, WholeSpace):
        lo = -10.0 * np.ones(d)
        hi = 10.0 * np.ones(d)
    else:
        raise TypeError(f"unsupported parameter set type {type(pset).__name__}")

    if d <= 2:
        axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(d)]
        pts = np.array(list(itertools.product(*axes)))
    else:
        pts = lo + _sobol(512, d) * (hi - lo)
    return np.array([pset.project(p) for p in pts])


def surrogate_table(system: ControlSystem, grid: np.ndarray, T: int) -> np.ndarray:
    """(T, |grid|) table of surrogate costs: entry [t, g] is the stage cost
    at t of the constant-theta rollout for grid point g.

    All grid points run as lanes of one system.batch_surrogate_costs pass,
    which raises StateBlowup when a lane's state blows up or is not finite.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise EmptyGrid("surrogate table needs at least one grid point")
    return system.batch_surrogate_costs(grid, T)


def _max_subarray(values: Sequence[float]) -> tuple[float, int, int]:
    """(sum, first, last) of the maximum-sum interval of a non-empty sequence.

    A run restarts at t when its sum so far is negative (from 0.0 + v_t),
    and only a strictly larger sum replaces the best interval, so ties keep
    the earliest interval.
    """
    run = best = values[0]
    start = lo = hi = 0
    for t, v in enumerate(values[1:], 1):
        if run < 0.0:
            start = t
            run = 0.0 + v
        else:
            run = run + v
        if run > best:
            best, lo, hi = run, start, t
    return best, lo, hi


def static_and_adaptive_regret(
    costs: np.ndarray, table: np.ndarray, grid: np.ndarray
) -> RegretReport:
    """Whole-horizon and worst-interval regret from a precomputed table.

    The worst interval for a fixed grid point is a maximum-subarray problem
    on the per-step differences, solved in O(T) per point; the result is
    exactly the max over all O(T^2) intervals.
    """
    costs = np.asarray(costs, dtype=float)
    table = np.atleast_2d(np.asarray(table, dtype=float))
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    T, G = table.shape
    if G == 0:
        raise EmptyGrid("regret computation needs a non-empty grid")
    if costs.shape[0] != T:
        raise ValueError(f"costs length {costs.shape[0]} != table rows {T}")

    diffs = costs[:, None] - table  # (T, G)

    totals = np.sum(diffs, axis=0)
    static = float(np.max(totals))
    best_g = int(np.argmin(np.sum(table, axis=0)))

    # Kadane per grid point over Python floats; a memoryview yields them
    # without building a list of the column.
    lanes = [_max_subarray(memoryview(diffs[:, g])) for g in range(G)]
    g_star = int(np.argmax([lane[0] for lane in lanes]))
    adaptive, lo, hi = lanes[g_star]

    return RegretReport(
        static_regret=static,
        adaptive_regret=adaptive,
        adaptive_interval=(lo, hi),
        best_fixed_theta=grid[best_g].copy(),
        grid=grid,
    )


def require_theta_gradients(system: ControlSystem) -> None:
    """Raise PiecewiseConstantPolicy when the system selects among discrete
    arms (`arm_thetas()` is not None): its policy is then piecewise constant
    in theta, every surrogate gradient is zero, and local regret is 0.0
    whatever the path."""
    if system.arm_thetas() is not None:
        raise PiecewiseConstantPolicy(
            "the env's arms make its policy piecewise constant in theta, "
            "so every surrogate gradient is zero"
        )


def local_regret(system: ControlSystem, theta_history: np.ndarray, T: int) -> float:
    """Cumulative squared surrogate-gradient norm along the parameter path,
    sum_t |grad F_t(theta_t)|^2 in t order, from one lockstep pass.

    Refuses a system with discrete arms (`require_theta_gradients`) before
    the pass starts.
    """
    require_theta_gradients(system)
    theta_history = np.atleast_2d(np.asarray(theta_history, dtype=float))
    if theta_history.shape[0] < T:
        raise ValueError("theta history shorter than T")
    total = 0.0
    for g in surrogates(system, theta_history[:T], with_grad=True).grads:
        total += float(np.dot(g, g))
    return total


def dynamic_regret(
    costs: np.ndarray, comparator_theta_seq: np.ndarray, system: ControlSystem
) -> DynamicRegretReport:
    """Regret against a comparator parameter sequence, with its path length.

    The comparator trajectory is resimulated under the same disturbance
    realization; solving for the optimal constrained comparator is out of
    scope, so the path length is reported rather than constrained.
    """
    costs = np.asarray(costs, dtype=float)
    comparator = np.atleast_2d(np.asarray(comparator_theta_seq, dtype=float))
    T = costs.shape[0]
    traj = rollout(system, comparator, T=T)
    path = float(np.sum(np.linalg.norm(np.diff(comparator[:T], axis=0), axis=1)))
    return DynamicRegretReport(
        regret=float(np.sum(costs) - traj.total_cost),
        comparator_path_length=path,
        comparator=comparator[:T],
    )


def variation_intensity(
    system: ControlSystem,
    T: int,
    sample_count: int = 100,
    state_radius: float | None = None,
    action_radius: float | None = None,
    rng=0,
) -> float:
    """Monte-Carlo estimate of the cumulative sup-norm drift of the triple.

    For each step the dynamics, policy, and cost are evaluated on a fixed
    sample of states/actions/parameters and compared against the previous
    step; the three sups are summed over the horizon. A time-invariant
    system yields exactly zero.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    if state_radius is None or action_radius is None:
        theta = system.theta_set.project(system.theta_set.sample(rng))
        probe = rollout(system, theta, T=min(T, 200))
        check_state(len(probe), probe.final_state)
        sup_x = float(np.max(row_norms(np.vstack([probe.states, probe.final_state]))))
        sup_u = float(np.max(row_norms(probe.actions), initial=0.0))
        if state_radius is None:
            state_radius = 2.0 * max(sup_x, 1e-6)
        if action_radius is None:
            action_radius = 2.0 * max(sup_u, 1e-6)

    def ball(count, dim, radius):
        v = rng.standard_normal((count, dim))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
        return v * radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)

    xs = ball(sample_count, system.n, state_radius)
    us = ball(sample_count, system.m, action_radius)
    thetas = np.array([system.theta_set.project(system.theta_set.sample(rng))
                       for _ in range(sample_count)])

    def evaluate(t):
        return (
            system.dynamics_lanes(t, xs, us),
            system.policy_lanes(t, xs, thetas),
            system.cost_lanes(t, xs, us),
        )

    total = 0.0
    prev = evaluate(0)
    for t in range(1, T):
        cur = evaluate(t)
        total += float(np.max(np.linalg.norm(cur[0] - prev[0], axis=1)))
        total += float(np.max(np.linalg.norm(cur[1] - prev[1], axis=1)))
        total += float(np.max(np.abs(cur[2] - prev[2])))
        prev = cur
    return total


def regret_slope(points) -> float:
    """Least-squares slope of log regret vs log horizon."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("slope fitting needs at least 3 points")
    Ts = np.array([p[0] for p in points], dtype=float)
    Rs = np.array([p[1] for p in points], dtype=float)
    if np.any(Rs <= 0.0):
        raise NonPositiveRegret("all regret values must be positive for a log fit")
    slope, _ = np.polyfit(np.log(Ts), np.log(Rs), 1)
    return float(slope)
