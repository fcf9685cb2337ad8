"""Streaming gradient-based policy selection with an O(B)-memory buffer.

The selector keeps the state sensitivities M_b = dx_t / dtheta_{t-b} for
b = 1..B-1 as one stacked (k, n, d) array in lag order, k = min(B-1, t).
One closed-loop Jacobian per step ages the whole ring in a single batched
product, so the per-step cost gradient truncated to the last B parameters
is assembled from a single policy evaluation and a fixed number of array
operations, with no loop over lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, require_integer, require_real
from .linalg import dot
from .system import (
    ClosedLoopJacobians,
    ControlSystem,
    ParameterSet,
    Trajectory,
    closed_loop,
)

DEFAULT_BUFFER_LENGTH = 32


def default_buffer_length(T: int, rho_hat: float | None = None) -> int:
    """Buffer length ceil(0.5 ln T / ln(1/rho_hat)), or 32 without an estimate."""
    if rho_hat is None:
        return DEFAULT_BUFFER_LENGTH
    if not 0.0 < rho_hat < 1.0:
        raise ValueError("rho_hat must lie in (0, 1)")
    return max(1, math.ceil(0.5 * math.log(T) / math.log(1.0 / rho_hat)))


@dataclass
class GapsConfig:
    """Learning rate, buffer length, initial parameter, and constraint set."""

    eta: float
    B: int
    theta0: np.ndarray
    set: ParameterSet

    def __post_init__(self):
        self.theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if not require_real("eta", self.eta) >= 0:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if require_integer("buffer length B", self.B) < 1:
            raise ValueError("buffer length B must be >= 1")
        if self.theta0.shape != (self.set.dim,):
            raise DimensionMismatch(
                f"theta0 has shape {self.theta0.shape}, set dimension is {self.set.dim}"
            )
        if not np.isfinite(self.theta0).all():
            raise ValueError(f"theta0 must be finite, got {self.theta0.tolist()}")


@dataclass
class GapsState:
    """Current parameter plus the ring of sensitivities dx_t/dtheta_{t-b}.

    ring[b-1] holds the (n, d) matrix for lag b; ring has shape (k, n, d)
    with k = min(B - 1, t). The state dimension n is known only after the
    first step, so the ring defaults to the empty (0, 0, d) array; at B = 1
    every step leaves it empty as (0, n, d).
    """

    t: int
    theta: np.ndarray
    ring: np.ndarray | None = None

    def __post_init__(self):
        if self.ring is None:
            self.ring = np.empty((0, 0, np.size(self.theta)))

    @classmethod
    def initial(cls, config: GapsConfig) -> "GapsState":
        return cls(t=0, theta=config.theta0.copy())


def gaps_step(
    state: GapsState, cl: ClosedLoopJacobians, config: GapsConfig
) -> tuple[np.ndarray, GapsState]:
    """One online update from the closed-loop Jacobians of the step just
    taken: a ClosedLoopJacobians record, or a StepJacobians, which reads as
    one.

    Returns (G_t, next_state): the truncated cost gradient with respect to
    the last min(B, t+1) parameters, and the advanced state whose theta is
    the projected gradient step. Projection is applied to the parameter
    only; the sensitivity ring is never corrected for it, since the stored
    partials treat past parameters as free variables along the visited
    sequence.
    """
    d = config.set.dim
    k = len(state.ring)
    if state.theta.shape != (d,):
        raise DimensionMismatch(f"theta has shape {state.theta.shape}, expected ({d},)")
    if k != min(config.B - 1, state.t):
        raise DimensionMismatch(
            f"buffer holds {k} entries at t={state.t}, "
            f"expected {min(config.B - 1, state.t)}"
        )

    # Gradient: the lag-0 term acts through the policy directly; every older
    # lag acts only through the current state. A running sum (np.cumsum's
    # ufunc, without its wrapper) adds the lags in lag order, as a
    # one-by-one sum would; a plain sum may reduce pairwise.
    grad = cl.c_theta
    if k:
        grad = grad + dot(cl.c_x, np.add.accumulate(state.ring)[-1])
    # A finite squared norm means finite entries; the entries are looked at
    # only when it is not, since it also overflows for large finite ones.
    if not math.isfinite(grad.dot(grad)) and not np.isfinite(grad).all():
        raise NonFiniteGradient(f"gradient at t={state.t} contains NaN/Inf")

    # Ring update: the injection B_theta becomes lag 1, every kept lag ages
    # by one closed-loop step, and lag B-1 drops. The ring is stored as the
    # block row [M_1 | M_2 | ... | M_k] of shape (n, k*d), so aging all lags
    # is the single product A_cl @ [M_1 | ... | M_{B-2}]; `ring` is a
    # (k, n, d) view of it. Each block is read once, and only where it is
    # used, since a StepJacobians forms it on every read.
    if config.B == 1:
        # Every step leaves the ring empty; n is read on the first.
        ring = state.ring if state.ring.shape[1] else np.empty((0, len(cl.B_theta), d))
    else:
        B_theta = cl.B_theta
        n = len(B_theta)
        kept = state.ring[: config.B - 2]
        block = np.empty((n, (len(kept) + 1) * d))
        block[:, :d] = B_theta
        if len(kept):
            # np.dot refuses the non-contiguous out slice; np.matmul takes it.
            kept_block = kept.transpose(1, 0, 2).reshape(n, -1)
            np.matmul(cl.A_cl, kept_block, out=block[:, d:])
        ring = block.reshape(n, -1, d).transpose(1, 0, 2)

    theta_next = config.set.project(state.theta - config.eta * grad)
    return grad, GapsState(t=state.t + 1, theta=theta_next, ring=ring)


class _GapsSelector:
    """Plays the current theta; each observed step feeds its visited-point
    closed-loop Jacobians to gaps_step and returns G_t."""

    def __init__(self, system: ControlSystem, config: GapsConfig):
        self.system = system
        self.config = config
        self.state = GapsState.initial(config)

    def propose(self, t, x):
        return self.state.theta

    def observe(self, t, x, u, cost):
        cl = self.system.closed_loop_jacobians(t, x, self.state.theta)
        grad, self.state = gaps_step(self.state, cl, self.config)
        return grad


def run_gaps(system: ControlSystem, config: GapsConfig, T: int) -> Trajectory:
    """Run the closed loop for T steps, adapting theta online.

    Each step of `closed_loop` acts with the current theta_t and feeds the
    visited-point closed-loop Jacobians to the ring update. The returned
    trajectory records theta_t and G_t per step.
    """
    return closed_loop(system, _GapsSelector(system, config), T)
