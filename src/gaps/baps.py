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

from .errors import ZeroProbabilitySampled, require_integer
from .system import ControlSystem, Trajectory, closed_loop

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


class _BapsSelector:
    """Samples an arm from the distribution s at the start of batch m and
    holds it for b steps; end_batch updates s with the summed batch cost."""

    def __init__(self, arms: list[np.ndarray], config: BapsConfig, num_batches: int):
        self.arms = arms
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.s = np.full(config.k, 1.0 / config.k)
        self.m = 0
        self.arm_history = np.empty(num_batches, dtype=int)
        self.dist_history = np.empty((num_batches + 1, config.k))
        self.batch_costs = np.empty(num_batches)

    def propose(self, t, x):
        if t % self.config.b == 0:
            self.dist_history[self.m] = self.s
            self.arm = int(self.rng.choice(self.config.k, p=self.s))
            self.arm_history[self.m] = self.arm
            self.batch_cost = 0.0
        return self.arms[self.arm]

    def observe(self, t, x, u, cost):
        self.batch_cost += cost
        if (t + 1) % self.config.b == 0:
            self.end_batch(self.batch_cost)
        return None

    def end_batch(self, batch_cost: float) -> None:
        """Record the cost of the batch just played and update s with it."""
        self.batch_costs[self.m] = batch_cost
        self.s = baps_update(self.s, self.arm, batch_cost, self.config.eta)
        self.m += 1


def run_baps(
    system: ControlSystem,
    arms: list[np.ndarray],
    config: BapsConfig,
    T: int,
) -> BapsResult:
    """Run batched bandit selection for T steps.

    At each batch start an arm is sampled from the current distribution and
    its parameter is held for b steps; the realized batch cost drives the
    update. A trailing partial batch (T not divisible by b) is truncated
    with a warning, and one `closed_loop` call runs the b * (T // b) steps
    that remain.
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

    selector = _BapsSelector(arms, config, num_batches)
    traj = closed_loop(system, selector, num_batches * config.b)
    selector.dist_history[num_batches] = selector.s
    return BapsResult(
        trajectory=traj,
        arm_history=selector.arm_history,
        distribution_history=selector.dist_history,
        batch_costs=selector.batch_costs,
    )
