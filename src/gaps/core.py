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

from .errors import DimensionMismatch, NonFiniteGradient
from .system import (
    ControlSystem,
    ParameterSet,
    StepJacobians,
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
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.B < 1:
            raise ValueError("buffer length B must be >= 1")
        if self.theta0.shape != (self.set.dim,):
            raise DimensionMismatch(
                f"theta0 has shape {self.theta0.shape}, set dimension is {self.set.dim}"
            )


@dataclass
class GapsState:
    """Current parameter plus the ring of sensitivities dx_t/dtheta_{t-b}.

    ring[b-1] holds the (n, d) matrix for lag b; ring has shape (k, n, d)
    with k = min(B - 1, t). The state dimension n is known only after the
    first step, so the ring defaults to the empty (0, 0, d) array; at B = 1
    every step leaves it empty as (0, n, d). buffer is the same ring as a
    list of per-lag views.
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

    @property
    def buffer(self) -> list[np.ndarray]:
        return list(self.ring)


def gaps_step(
    state: GapsState, jac: StepJacobians, config: GapsConfig
) -> tuple[np.ndarray, GapsState]:
    """One online update from the Jacobians of the step just taken.

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
    # lag acts only through the current state. cumsum adds the lags in lag
    # order, as a one-by-one sum would; a plain sum may reduce pairwise.
    grad = jac.df_du @ jac.dpi_dtheta
    if k:
        grad = grad + jac.dcost_dx_closed() @ np.cumsum(state.ring, axis=0)[-1]
    if not np.isfinite(grad).all():
        raise NonFiniteGradient(f"gradient at t={state.t} contains NaN/Inf")

    # Ring update: dg_du @ dpi_dtheta becomes lag 1, every kept lag ages by
    # one closed-loop step, and lag B-1 drops. The ring is stored as the
    # block row [M_1 | M_2 | ... | M_k] of shape (n, k*d), so aging all lags
    # is the single product A_cl @ [M_1 | ... | M_{B-2}]; `ring` is a
    # (k, n, d) view of it.
    n = jac.dg_du.shape[0]
    if config.B == 1:
        ring = np.empty((0, n, d))
    else:
        kept = state.ring[: config.B - 2]
        block = np.empty((n, (len(kept) + 1) * d))
        block[:, :d] = jac.dg_du @ jac.dpi_dtheta
        if len(kept):
            kept_block = kept.transpose(1, 0, 2).reshape(n, -1)
            np.matmul(jac.closed_loop(), kept_block, out=block[:, d:])
        ring = block.reshape(n, -1, d).transpose(1, 0, 2)

    theta_next = config.set.project(state.theta - config.eta * grad)
    return grad, GapsState(t=state.t + 1, theta=theta_next, ring=ring)


class _GapsSelector:
    """Plays the current theta; each observed step feeds its visited-point
    Jacobians to gaps_step and returns G_t."""

    def __init__(self, system: ControlSystem, config: GapsConfig):
        self.system = system
        self.config = config
        self.state = GapsState.initial(config)

    def propose(self, t, x):
        return self.state.theta

    def observe(self, t, x, u, cost):
        jac = self.system.jacobians(t, x, self.state.theta)
        grad, self.state = gaps_step(self.state, jac, self.config)
        return grad


def run_gaps(system: ControlSystem, config: GapsConfig, T: int) -> Trajectory:
    """Run the closed loop for T steps, adapting theta online.

    Each step of `closed_loop` acts with the current theta_t and feeds the
    visited-point Jacobians to the ring update. The returned trajectory
    records theta_t and G_t per step.
    """
    return closed_loop(system, _GapsSelector(system, config), T)
