"""Empirical estimation of closed-loop contraction and stability constants.

Paired rollouts from nearby initial states under a shared slowly-varying
parameter sequence yield decay curves |dx_t| / |dx_0|; the estimator fits
the minimal upper envelope C * rho^t that dominates every sampled curve.
An envelope (not a least-squares fit) is the faithful estimator because the
underlying properties are uniform bounds.

All randomness is drawn first, in the order of a pair-by-pair loop. The
rollouts then run in lockstep (`_lockstep_states`): every run whose window
covers step t advances in one lane-axis call of the system, so the result
is bit-equal to rolling each run alone whenever the lane entry points match
the single-state methods bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import Divergence, NoContraction, require_integer
from .linalg import row_norms
from .system import Ball, ControlSystem, ParameterSet

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
    set's sampler, projected. A negative or NaN eps raises ValueError.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
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


def _lockstep_states(system, X0, starts, theta_seqs) -> np.ndarray:
    """(R, horizon + 1, n) states of R runs advanced together in absolute time.

    Run r starts from X0[r] at step starts[r] and plays theta_seqs[r], a
    (horizon, d) sequence; entry [r, i] is its state after i steps. Every
    run active at step t advances in one policy_lanes and one
    dynamics_lanes call. Every run lasts horizon steps, so in order of
    start time the active runs are a contiguous range lo..hi-1, which
    changes only where a run starts or ends; each stretch in between
    gathers its parameters and stores its states in one indexing pass.
    """
    R, horizon = theta_seqs.shape[:2]
    states = np.empty((R, horizon + 1, system.n))
    states[:, 0] = X0
    order = np.argsort(starts, kind="stable")
    st = [int(starts[r]) for r in order]
    # At step t, the k-th run in start order reads row state_row[k] + t of
    # flat_states and row theta_row[k] + t of flat_thetas.
    state_row = order * (horizon + 1) - st
    theta_row = order * horizon - st
    flat_states = states.reshape(R * (horizon + 1), system.n)
    flat_thetas = theta_seqs.reshape(R * horizon, theta_seqs.shape[2])
    lo = hi = 0
    t = 0
    while lo < R:
        if lo == hi:
            t = st[hi]  # skip the steps no run covers
        while hi < R and st[hi] == t:
            hi += 1
        end = st[lo] + horizon
        if hi < R:
            end = min(end, st[hi])
        span = np.arange(end - t)[:, None]
        thetas = flat_thetas[theta_row[lo:hi] + t + span]
        rows = state_row[lo:hi] + t
        X = flat_states[rows]
        path = []
        for i in range(end - t):
            X = system.dynamics_lanes(t + i, X, system.policy_lanes(t + i, X, thetas[i]))
            path.append(X)
        flat_states[rows + 1 + span] = path
        t = end
        while lo < hi and st[lo] + horizon == t:
            lo += 1
    return states


def _observed_state_sup(system, pset, eps, horizon, rng) -> float:
    theta_seq = sample_slow_sequence(pset, eps, horizon, rng)
    x0 = np.array(system.x0, dtype=float)
    norms = row_norms(_lockstep_states(system, x0[None], [0], theta_seq[None])[0])
    bad = np.flatnonzero(~np.isfinite(norms[1:]))
    if bad.size:
        t = int(bad[0])
        raise Divergence(f"closed-loop rollout reached norm {norms[t + 1]:.3e} at step {t}")
    return float(norms.max())


def _check_horizon(system: ControlSystem, horizon: int, least: int) -> None:
    if require_integer("horizon", horizon) < least:
        raise ValueError(f"horizon must be at least {least}")
    if horizon > system.T:
        raise ValueError(f"horizon {horizon} exceeds the system's T = {system.T}")


def _draw_zero_state_runs(system, pset, eps, horizon, rng, seqs) -> list[int]:
    """Draw the stability-radius runs: each one's start time, returned, and
    slow sequence, written to its row of seqs."""
    t0_max = max(0, system.T - horizon)
    starts = []
    for r in range(seqs.shape[0]):
        starts.append(int(rng.integers(0, t0_max + 1)))
        seqs[r] = sample_slow_sequence(pset, eps, horizon, rng)
    return starts


def _stability_radius(norms: np.ndarray, starts: list[int]) -> float:
    """Max of norms[r, i], the state norm of zero-state run r after i + 1
    steps from its start time starts[r].

    Raises Divergence at the first step of the first run whose norm exceeds
    DIVERGENCE_FACTOR or is not finite.
    """
    bad = np.flatnonzero(~(norms <= DIVERGENCE_FACTOR))
    if bad.size:
        r, i = divmod(int(bad[0]), norms.shape[1])
        raise Divergence(
            f"zero-state rollout reached norm {norms[r, i]:.3e} at step {starts[r] + i}"
        )
    return float(norms.max(initial=0.0))


def estimate_stability_radius(
    system: ControlSystem,
    pset: ParameterSet,
    eps: float,
    runs: int,
    horizon: int,
    rng,
) -> float:
    """Max state norm reached from the zero state under slow sequences.

    Refuses a horizon below 1 or above system.T. Raises Divergence when a
    norm exceeds DIVERGENCE_FACTOR or is not finite.
    """
    _check_horizon(system, horizon, 1)
    seqs = np.empty((runs, horizon, pset.dim))
    starts = _draw_zero_state_runs(system, pset, eps, horizon, _as_rng(rng), seqs)
    states = _lockstep_states(system, np.zeros((runs, system.n)), starts, seqs)
    return _stability_radius(row_norms(states[:, 1:]), starts)


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
    Refuses a horizon below 2, which leaves no window, or above system.T.
    Raises Divergence when any pair separates by more than 1e6x or a state
    is not finite, naming the first such pair in draw order, and
    NoContraction when the 99th-percentile ratio is at least 1.

    With R_C_probe unset, twice the observed closed-loop state sup is used
    and flagged in the returned estimate.
    """
    _check_horizon(system, horizon, 2)
    window = max(1, horizon // 4)
    rng = _as_rng(rng)
    auto_probe = R_C_probe is None
    if auto_probe:
        R_C_probe = 2.0 * max(_observed_state_sup(system, pset, eps, horizon, rng), 1e-6)

    t0_max = max(0, system.T - horizon)
    runs = min(require_integer("pairs", pairs), 50)
    # One lockstep pass: row p rolls x and row pairs + p rolls x_prime of
    # pair p, under one start time and sequence; the last `runs` rows are
    # the zero-state runs of the stability radius.
    X0 = np.zeros((2 * pairs + runs, system.n))
    seqs = np.empty((2 * pairs + runs, horizon, pset.dim))
    starts = []
    probe = Ball(np.zeros(system.n), R_C_probe)
    for p in range(pairs):
        X0[p] = probe.sample(rng)
        X0[pairs + p] = probe.sample(rng)
        starts.append(int(rng.integers(0, t0_max + 1)))
        seqs[p] = seqs[pairs + p] = sample_slow_sequence(pset, eps, horizon, rng)
    zero_starts = _draw_zero_state_runs(system, pset, eps, horizon, rng, seqs[2 * pairs :])
    states = _lockstep_states(system, X0, starts * 2 + zero_starts, seqs)
    decay = row_norms(states[:pairs] - states[pairs : 2 * pairs])
    zero_norms = row_norms(states[2 * pairs :, 1:])
    del states, seqs  # freed before the sample arrays below grow

    # Samples as packed doubles rather than lists of float objects:
    # windowed log contraction factors, per step, and the points
    # (t, log(|dx_t|/|dx_0|)) of every curve.
    log_ratios = array("d")
    curve_t = array("l")
    curve_log = array("d")
    for p in range(pairs):
        norms = decay[p]
        if norms[0] == 0.0:
            continue
        if not np.max(norms) <= DIVERGENCE_FACTOR * norms[0]:
            raise Divergence(
                f"pair separation grew by a factor of {np.max(norms) / norms[0]:.3e}; "
                "the contraction assumption fails on this parameter set"
            )
        norms = norms.tolist()
        floor = _CONVERGED_FLOOR * norms[0]
        valid = horizon + 1
        for t in range(1, horizon + 1):
            if norms[t] <= floor:
                valid = t
                break
            curve_t.append(t)
            curve_log.append(math.log(norms[t] / norms[0]))
        for t in range(window, valid):
            log_ratios.append(math.log(norms[t] / norms[t - window]) / window)

    if not log_ratios:
        raise ValueError("no usable decay samples; increase pairs or horizon")

    log_rho = float(np.percentile(log_ratios, 99.0))
    rho_hat = math.exp(log_rho)
    if not rho_hat < 1.0:
        raise NoContraction(
            f"the 99th-percentile contraction ratio over {window}-step windows is "
            f"{rho_hat:.6g} >= 1 at horizon {horizon}: no contraction was seen"
        )
    log_C = max(r - t * log_rho for t, r in zip(curve_t, curve_log))
    C_hat = max(1.0, math.exp(log_C))

    R_S_hat = _stability_radius(zero_norms, zero_starts)
    return ContractionEstimate(
        C_hat=C_hat,
        rho_hat=rho_hat,
        R_C_probe=float(R_C_probe),
        R_S_hat=R_S_hat,
        eps=float(eps),
        samples=pairs,
        auto_probe=auto_probe,
    )
