"""Exact surrogate costs and gradients by resimulation.

The surrogate cost of a parameter at time t is the stage cost the system
would have incurred at t had that parameter been used from step 0, under the
same frozen disturbance realization. These references are what the
streaming selector is validated against.

Every oracle here runs through one lockstep resimulation (`surrogates`):
lane i rolls out the constant parameter thetas[i] from x0 and is read at
step steps[i]. All lanes still waiting for their read advance together, one
lane-axis call of the system per step, so the surrogates F_t(theta_t) of a
whole T-step parameter path cost one T-step pass instead of T
resimulations. Gradients come from the forward sensitivity recursion
S <- A_cl S + B_theta over the system's closed-loop Jacobians, carried
along each lane (forward-mode RTRL, Williams & Zipser 1989, untruncated).
The reset-based finite-memory baseline, `finite_memory_gradient`, plays
its window as one `ControlSystem.hold` call and runs the same recursion
over its states, truncated to B terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import GapsConfig
from .system import ControlSystem, Trajectory, check_state, closed_loop


class Surrogates(NamedTuple):
    costs: np.ndarray  # (L,): costs[i] = F_{steps[i]}(thetas[i])
    grads: np.ndarray | None  # (L, d) gradients of the same, when asked for


def surrogates(
    system: ControlSystem,
    thetas: np.ndarray,
    steps=None,
    with_grad: bool = False,
) -> Surrogates:
    """Surrogate costs F_{steps[i]}(thetas[i]), and their gradients.

    thetas is (L, d); steps must be nondecreasing and defaults to 0..L-1,
    which reads F_t(theta_t) along a parameter path. Each step checks the
    state of every lane still active and raises StateBlowup when a norm
    exceeds DEFAULT_BLOWUP_CAP or is not finite.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    L = thetas.shape[0]
    steps = list(range(L)) if steps is None else [int(s) for s in steps]
    if len(steps) != L or (L and steps[0] < 0) or any(b < a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be nonnegative, nondecreasing and one per lane")

    # X and S hold the lanes lo..L-1 that have not been read yet; S is
    # dx/dtheta along each of them.
    X = np.tile(np.asarray(system.x0, dtype=float), (L, 1))
    S = np.zeros((L, system.n, system.d)) if with_grad else None
    costs = np.empty(L)
    grads = np.empty((L, system.d)) if with_grad else None
    lo = 0
    for t in range(steps[-1] + 1 if L else 0):
        check_state(t, X)
        th = thetas[lo:]
        U = system.policy_lanes(t, X, th)
        cl = system.closed_loop_jacobians_lanes(t, X, th) if with_grad else None
        k = 0  # lanes read at this step
        while lo + k < L and steps[lo + k] == t:
            costs[lo + k] = system.cost(t, X[k], U[k])
            if with_grad:
                j = cl.lane(k)
                grads[lo + k] = j.c_theta + j.c_x @ S[k]
            k += 1
        lo += k
        if lo < L:
            # The lanes just read advance with the rest and are then dropped.
            if with_grad:
                S = (cl.A_cl @ S + cl.B_theta)[k:]
            X = system.dynamics_lanes(t, X, U)[k:]
    return Surrogates(costs=costs, grads=grads)


def surrogate_cost(system: ControlSystem, theta: np.ndarray, t: int) -> float:
    """Stage cost at time t of the constant-theta trajectory from x0."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(surrogates(system, theta[None], [t]).costs[0])


def ideal_gradient(
    system: ControlSystem,
    theta: np.ndarray,
    t: int,
    mode: str = "chain",
) -> np.ndarray:
    """Exact gradient of the surrogate cost at time t.

    "chain" runs the full-length forward sensitivity recursion along the
    constant-theta rollout (the same recursion as the streaming buffer with
    B = t + 1 and theta frozen). "finite_diff" central-differences the
    surrogate cost with step 1e-6 * (1 + |theta|); it needs theta in the
    interior of the set.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if mode == "chain":
        return surrogates(system, theta[None], [t], with_grad=True).grads[0]
    if mode == "finite_diff":
        h = 1e-6 * (1.0 + np.linalg.norm(theta))
        grad = np.empty(system.d)
        for i in range(system.d):
            tp = theta.copy()
            tm = theta.copy()
            tp[i] += h
            tm[i] -= h
            grad[i] = (surrogate_cost(system, tp, t) - surrogate_cost(system, tm, t)) / (2 * h)
        return grad
    raise ValueError(f"unknown mode {mode!r}, expected 'chain' or 'finite_diff'")


class _IdealOgdSelector:
    """Plays the current theta; each observed step takes a projected step
    along the exact surrogate gradient at that theta."""

    def __init__(self, system: ControlSystem, config: GapsConfig):
        self.system = system
        self.config = config
        self.theta = config.theta0.copy()

    def propose(self, t, x):
        return self.theta

    def observe(self, t, x, u, cost):
        grad = ideal_gradient(self.system, self.theta, t, mode="chain")
        self.theta = self.config.set.project(self.theta - self.config.eta * grad)
        return grad


def run_ideal_ogd(system: ControlSystem, config: GapsConfig, T: int) -> Trajectory:
    """Projected gradient descent on the exact surrogate gradients.

    The same `closed_loop` as the streaming runner, but each update uses the
    O(t) resimulated gradient at the current parameter, so the total cost is
    O(T^2): a desk-scale reference, not a deployable algorithm.
    """
    return closed_loop(system, _IdealOgdSelector(system, config), T)


class FiniteMemoryGradient(NamedTuple):
    grad: np.ndarray
    policy_evals: int


def finite_memory_gradient(
    system: ControlSystem,
    theta: np.ndarray,
    t: int,
    B: int,
) -> FiniteMemoryGradient:
    """Truncated-memory estimator that resets the state B steps back.

    Plays theta from the zero state at step t - B as one `system.hold`
    window, then accumulates the cost partials with respect to the B most
    recent parameters along its states. Reports the policy-evaluation count
    (B + 1 per call) for the computational comparison against the streaming
    selector, which needs exactly one policy evaluation per step. A window
    state past DEFAULT_BLOWUP_CAP, or not finite, raises `hold`'s
    StateBlowup at its step.
    """
    if t < B:
        raise ValueError(f"finite-memory estimator needs t >= B, got t={t}, B={B}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    seg = system.hold(t - B, np.zeros(system.n), theta, B)
    S = np.zeros((system.n, system.d))
    for i, x in enumerate(seg.states):
        cl = system.closed_loop_jacobians(t - B + i, x, theta)
        # The parameter acting at the reset step itself lies outside the
        # B-term memory window, so its injection is skipped.
        S = cl.A_cl @ S
        if i > 0:
            S = S + cl.B_theta
    cl = system.closed_loop_jacobians(t, seg.final_state, theta)
    grad = cl.c_theta + cl.c_x @ S
    return FiniteMemoryGradient(grad=grad, policy_evals=B + 1)
