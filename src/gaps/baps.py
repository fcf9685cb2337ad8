"""Batched bandit selection over a finite set of policy parameters.

Each arm is held for a batch of b steps so the state forgets the previous
arm before the batch cost is charged; the distribution over arms then gets
an importance-weighted multiplicative update. The full batch cost is charged
with no burn-in exclusion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilitySampled
from .system import ControlSystem, Trajectory, DEFAULT_BLOWUP_CAP, check_state

# Above this exponent the multiplicative update switches to log-space.
_EXP_GUARD = 50.0


@dataclass
class BapsConfig:
    """Arm count, batch size, learning rate, and sampling seed."""

    k: int
    b: int
    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least 2 arms")
        if self.b < 1:
            raise ValueError("batch size must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")

    @classmethod
    def schedule(
        cls,
        k: int,
        T: int,
        C0: float,
        rho: float,
        D0: float,
        seed: int = 0,
        R_S: float | None = None,
        R_C: float | None = None,
        x0_norm: float = 0.0,
    ) -> "BapsConfig":
        """Batch size and learning rate from the contraction constants.

        b = (C0^2 D0 T / ((1-rho)^2 k log k))^(1/3) and
        eta = ((1-rho) (log k)^2 / (C0 D0^2 k T^2))^(1/3). When stability
        radii are supplied and the resulting batch is shorter than the
        minimum length for which the batched trajectory provably stays
        bounded, a warning is emitted (the run is not refused).
        """
        logk = math.log(k)
        b = (C0**2 * D0 * T / ((1.0 - rho) ** 2 * k * logk)) ** (1.0 / 3.0)
        eta = ((1.0 - rho) * logk**2 / (C0 * D0**2 * k * T**2)) ** (1.0 / 3.0)
        b = max(1, round(b))
        if R_S is not None and R_C is not None:
            tau0 = min_batch_length(C0, rho, R_S, R_C, x0_norm)
            if b < tau0:
                warnings.warn(
                    f"scheduled batch size {b} is below the minimum stable "
                    f"batch length {tau0:.1f}; the state may not forget the "
                    "previous arm within a batch",
                    stacklevel=2,
                )
        return cls(k=k, b=b, eta=eta, seed=seed)


@dataclass
class BapsState:
    """Probability vector over arms and the batch index."""

    s: np.ndarray
    m: int

    @classmethod
    def initial(cls, k: int) -> "BapsState":
        return cls(s=np.full(k, 1.0 / k), m=0)


def min_batch_length(C: float, rho: float, R_S: float, R_C: float, x0_norm: float) -> float:
    """Smallest batch size for which the batched trajectory provably stays
    bounded: log(C R0 / (R0 - R_S)) / log(1/rho) with
    R0 = min((C |x0| + R_S) / rho, R_C)."""
    R0 = min((C * x0_norm + R_S) / rho, R_C)
    if R0 <= R_S:
        return math.inf
    return math.log(C * R0 / (R0 - R_S)) / math.log(1.0 / rho)


def baps_update(
    s: np.ndarray, j_sampled: int, batch_cost: float, eta: float
) -> np.ndarray:
    """Importance-weighted exponential update of the arm distribution.

    Only the sampled arm gets a loss, batch_cost / s[j_sampled]; the weights
    are multiplied by exp(-eta * loss) and renormalized. Large exponents are
    handled in log-space to avoid underflowing the whole vector.
    """
    s = np.asarray(s, dtype=float)
    if s[j_sampled] <= 0.0:
        raise ZeroProbabilitySampled(
            f"arm {j_sampled} has probability {s[j_sampled]}, cannot have been sampled"
        )
    loss = batch_cost / s[j_sampled]
    exponent = eta * loss
    if exponent <= _EXP_GUARD:
        s_new = s.copy()
        s_new[j_sampled] *= math.exp(-exponent)
    else:
        log_w = np.log(s)
        log_w[j_sampled] -= exponent
        log_w -= np.max(log_w)
        s_new = np.exp(log_w)
    return s_new / np.sum(s_new)


@dataclass
class BapsResult:
    trajectory: Trajectory
    arm_history: np.ndarray  # (num_batches,) sampled arm per batch
    distribution_history: np.ndarray  # (num_batches + 1, k), row m is s_m
    batch_costs: np.ndarray  # (num_batches,)


def run_baps(
    system: ControlSystem,
    arms: list[np.ndarray],
    config: BapsConfig,
    T: int,
    blowup_cap: float = DEFAULT_BLOWUP_CAP,
) -> BapsResult:
    """Run batched bandit selection for T steps.

    At each batch start an arm is sampled from the current distribution and
    its parameter is held for b steps; the realized batch cost drives the
    update. A trailing partial batch (T not divisible by b) is truncated
    with a warning.
    """
    arms = [np.atleast_1d(np.asarray(a, dtype=float)) for a in arms]
    if len(arms) != config.k:
        raise ValueError(f"got {len(arms)} arms but config.k = {config.k}")

    num_batches = T // config.b
    if T % config.b != 0:
        warnings.warn(
            f"horizon {T} is not divisible by batch size {config.b}; "
            f"truncating to {num_batches * config.b} steps",
            stacklevel=2,
        )
    T_eff = num_batches * config.b

    rng = np.random.default_rng(config.seed)
    state = BapsState.initial(config.k)
    x = np.array(system.x0, dtype=float)

    states = np.empty((T_eff, system.n))
    actions = np.empty((T_eff, system.m))
    thetas = np.empty((T_eff, system.d))
    costs = np.empty(T_eff)
    arm_history = np.empty(num_batches, dtype=int)
    dist_history = np.empty((num_batches + 1, config.k))
    batch_costs = np.empty(num_batches)

    t = 0
    for m in range(num_batches):
        dist_history[m] = state.s
        j = int(rng.choice(config.k, p=state.s))
        arm_history[m] = j
        theta = arms[j]
        batch_cost = 0.0
        for _ in range(config.b):
            check_state(t, x, blowup_cap)
            u = system.policy(t, x, theta)
            c = system.cost(t, x, u)
            states[t] = x
            actions[t] = u
            thetas[t] = theta
            costs[t] = c
            batch_cost += c
            x = system.dynamics(t, x, u)
            t += 1
        batch_costs[m] = batch_cost
        state = BapsState(s=baps_update(state.s, j, batch_cost, config.eta), m=m + 1)
    dist_history[num_batches] = state.s

    traj = Trajectory(
        states=states,
        actions=actions,
        thetas=thetas,
        costs=costs,
        final_state=x,
    )
    return BapsResult(
        trajectory=traj,
        arm_history=arm_history,
        distribution_history=dist_history,
        batch_costs=batch_costs,
    )
