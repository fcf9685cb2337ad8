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

from .errors import ZeroProbabilitySampled, require_integer, require_real
from .system import ControlSystem, Trajectory

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
        if require_integer("k", self.k) < 2:
            raise ValueError("need at least 2 arms")
        if require_integer("b", self.b) < 1:
            raise ValueError("batch size must be >= 1")
        if not require_real("eta", self.eta) >= 0:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")

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
) -> BapsResult:
    """Run batched bandit selection for T steps.

    One loop over batches: at each batch start an arm is sampled from the
    current distribution, `system.hold` plays its parameter for b steps
    from the batch's step and state, and the batch cost, the segment's
    stage costs summed in step order, drives the update. A trailing partial
    batch (T not divisible by b) is truncated with a warning. A state past
    DEFAULT_BLOWUP_CAP, or not finite, raises StateBlowup at its step, as
    in `closed_loop`.
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

    rng = np.random.default_rng(config.seed)
    s = np.full(config.k, 1.0 / config.k)
    arm_history = np.empty(num_batches, dtype=int)
    dist_history = np.empty((num_batches + 1, config.k))
    batch_costs = np.empty(num_batches)
    b = config.b
    steps = num_batches * b
    states = np.empty((steps, system.n))
    actions = np.empty((steps, system.m))
    thetas = np.empty((steps, system.d))
    costs = np.empty(steps)
    x = np.array(system.x0, dtype=float)
    for m in range(num_batches):
        dist_history[m] = s
        j = arm_history[m] = int(rng.choice(config.k, p=s))
        t0 = m * b
        seg = system.hold(t0, x, arms[j], b)
        span = slice(t0, t0 + b)
        states[span], actions[span], thetas[span], costs[span] = (
            seg.states, seg.actions, seg.thetas, seg.costs
        )
        x = seg.final_state
        # Summed in step order, the bits of a running `batch_cost += cost`.
        batch_costs[m] = np.add.accumulate(seg.costs)[-1]
        s = baps_update(s, j, batch_costs[m], config.eta)
    dist_history[num_batches] = s
    return BapsResult(
        trajectory=Trajectory(
            states=states, actions=actions, thetas=thetas, costs=costs, final_state=x
        ),
        arm_history=arm_history,
        distribution_history=dist_history,
        batch_costs=batch_costs,
    )
