"""Empirical estimation of closed-loop contraction and stability constants.

Paired rollouts from nearby initial states under a shared slowly-varying
parameter sequence yield decay curves |dx_t| / |dx_0|; the estimator fits
the minimal upper envelope C * rho^t that dominates every sampled curve.
An envelope (not a least-squares fit) is the faithful estimator because the
underlying properties are uniform bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergence
from .system import ControlSystem, ParameterSet

DIVERGENCE_FACTOR = 1e6
_CONVERGED_FLOOR = 1e-14


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass
class ContractionEstimate:
    """Envelope constants (C_hat, rho_hat) plus the probe and stability radii.

    By construction every sampled pair satisfies
    |dx_t| <= C_hat * rho_hat^t * |dx_0|. eps is the per-step parameter
    increment bound used while sampling.
    """

    C_hat: float
    rho_hat: float
    R_C_probe: float
    R_S_hat: float
    eps: float
    samples: int
    auto_probe: bool = False


def sample_slow_sequence(
    pset: ParameterSet, eps: float, length: int, rng
) -> np.ndarray:
    """Random walk in the set with per-step increment norm at most eps.

    eps = 0 gives a constant sequence; eps = inf gives i.i.d. draws from the
    set's sampler, projected.
    """
    rng = _as_rng(rng)
    seq = np.empty((length, pset.dim))
    theta = pset.project(pset.sample(rng))
    seq[0] = theta
    for i in range(1, length):
        if eps == 0.0:
            seq[i] = theta
            continue
        if math.isinf(eps):
            theta = pset.project(pset.sample(rng))
            seq[i] = theta
            continue
        direction = rng.standard_normal(pset.dim)
        norm = np.linalg.norm(direction)
        if norm > 0:
            direction /= norm
        step = direction * (eps * rng.uniform())
        theta = pset.project(theta + step)
        seq[i] = theta
    return seq


def _pair_decay_curve(system, x, x_prime, theta_seq, t0, horizon):
    """Norms |dx_t| for t = 0..horizon of two rollouts sharing theta_seq."""
    a = np.array(x, dtype=float)
    b = np.array(x_prime, dtype=float)
    norms = np.empty(horizon + 1)
    norms[0] = np.linalg.norm(a - b)
    for i in range(horizon):
        t = t0 + i
        theta = theta_seq[i]
        a = system.dynamics(t, a, system.policy(t, a, theta))
        b = system.dynamics(t, b, system.policy(t, b, theta))
        norms[i + 1] = np.linalg.norm(a - b)
    return norms


def _observed_state_sup(system, pset, eps, horizon, rng) -> float:
    theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
    x = np.array(system.x0, dtype=float)
    sup = np.linalg.norm(x)
    for t in range(horizon):
        x = system.dynamics(t, x, system.policy(t, x, theta_seq[t]))
        norm = float(np.linalg.norm(x))
        if not math.isfinite(norm):
            raise Divergence(f"closed-loop rollout reached norm {norm:.3e} at step {t}")
        sup = max(sup, norm)
    return sup


def estimate_stability_radius(
    system: ControlSystem,
    pset: ParameterSet,
    eps: float,
    runs: int,
    horizon: int,
    rng,
) -> float:
    """Max state norm reached from the zero state under slow sequences.

    Raises Divergence when a norm exceeds DIVERGENCE_FACTOR or is not finite.
    """
    rng = _as_rng(rng)
    t0_max = max(0, system.T - horizon)
    radius = 0.0
    for _ in range(runs):
        t0 = int(rng.integers(0, t0_max + 1))
        theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
        x = np.zeros(system.n)
        for i in range(horizon):
            t = t0 + i
            x = system.dynamics(t, x, system.policy(t, x, theta_seq[i]))
            norm = float(np.linalg.norm(x))
            if not norm <= DIVERGENCE_FACTOR:
                raise Divergence(
                    f"zero-state rollout reached norm {norm:.3e} at step {t}"
                )
            radius = max(radius, norm)
    return radius


def estimate_contraction(
    system: ControlSystem,
    pset: ParameterSet,
    eps: float,
    R_C_probe: float | None = None,
    pairs: int = 100,
    horizon: int = 30,
    rng=0,
) -> ContractionEstimate:
    """Fit the upper envelope C_hat * rho_hat^t over sampled decay curves.

    Each pair draws two states uniformly in the probe ball, one slow
    parameter sequence, and a random start time, and rolls both states under
    identical parameters and disturbances. rho_hat is the 99th percentile of
    the per-window geometric-mean contraction ratios (window
    max(1, horizon // 4); single-step ratios would report spurious growth
    for oscillatory closed loops whose error norm is not monotone). log C_hat
    is then the max over samples of log(|dx_t|/|dx_0|) - t log rho_hat, so
    the envelope dominates 100% of the sample regardless of the window.
    Refuses a horizon below 2, which leaves no window. Raises Divergence
    when any pair separates by more than 1e6x or a state is not finite.

    With R_C_probe unset, twice the observed closed-loop state sup is used
    and flagged in the returned estimate.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    window = max(1, horizon // 4)
    rng = _as_rng(rng)
    auto_probe = R_C_probe is None
    if auto_probe:
        R_C_probe = 2.0 * max(_observed_state_sup(system, pset, eps, horizon, rng), 1e-6)

    t0_max = max(0, system.T - horizon)
    log_ratios = []  # windowed log contraction factors, per step
    curves = []  # (t, log(|dx_t|/|dx_0|)) points

    for _ in range(pairs):
        x = _sample_ball(system.n, R_C_probe, rng)
        x_prime = _sample_ball(system.n, R_C_probe, rng)
        t0 = int(rng.integers(0, t0_max + 1))
        theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
        norms = _pair_decay_curve(system, x, x_prime, theta_seq, t0, horizon)
        if norms[0] == 0.0:
            continue
        if not np.max(norms) <= DIVERGENCE_FACTOR * norms[0]:
            raise Divergence(
                f"pair separation grew by a factor of {np.max(norms) / norms[0]:.3e}; "
                "the contraction assumption fails on this parameter set"
            )
        floor = _CONVERGED_FLOOR * norms[0]
        valid = horizon + 1
        for t in range(1, horizon + 1):
            if norms[t] <= floor:
                valid = t
                break
            curves.append((t, math.log(norms[t] / norms[0])))
        for t in range(window, valid):
            log_ratios.append(math.log(norms[t] / norms[t - window]) / window)

    if not log_ratios:
        raise ValueError("no usable decay samples; increase pairs or horizon")

    log_rho = float(np.percentile(log_ratios, 99.0))
    log_rho = min(log_rho, -1e-12)  # keep rho_hat strictly inside (0, 1)
    log_C = max(r - t * log_rho for t, r in curves)
    C_hat = max(1.0, math.exp(log_C))

    R_S_hat = estimate_stability_radius(
        system, pset, eps, runs=min(pairs, 50), horizon=horizon, rng=rng
    )
    return ContractionEstimate(
        C_hat=C_hat,
        rho_hat=math.exp(log_rho),
        R_C_probe=float(R_C_probe),
        R_S_hat=R_S_hat,
        eps=float(eps),
        samples=pairs,
        auto_probe=auto_probe,
    )


def _sample_ball(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    if norm > 0:
        direction /= norm
    return direction * (radius * rng.uniform() ** (1.0 / n))
