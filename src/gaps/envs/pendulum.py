"""Inverted pendulum with proportional-derivative gains and mass switches.

State is (angle, angular velocity) around the upright equilibrium. The mass
cycles through a schedule every switch_period seconds, which makes the
closed-loop behavior (and the best gains) time-varying. Explicit Euler keeps
the step map polynomial-plus-sine, so the Jacobians are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..linalg import quadratic_cost, solve_dare
from ..system import Box, ControlSystem, ParameterSet, StepJacobians, Trajectory
from .disturbances import IidGaussian, OrnsteinUhlenbeck

# Gain box verified to stabilize the Euler-discretized linearization at every
# mass in the default schedule (see tests); it also contains the per-mass
# Riccati-optimal gains. The mass spread is capped so both properties can
# hold at once: the optimal k_p at the lightest mass must still stabilize
# the heaviest.
DEFAULT_GAIN_BOX = ((17.0, 4.0), (40.0, 16.0))
DEFAULT_MASSES = (1.0, 0.8, 1.3)
LENGTH, GRAVITY, DAMPING = 1.0, 9.81, 0.1
DT = 0.02  # Euler step, seconds
Q_ANGLE, Q_VELOCITY, R_CONTROL = 1.0, 0.1, 0.01


@dataclass
class PendulumParams:
    masses: tuple = DEFAULT_MASSES
    switch_period: float = 100.0  # seconds between mass changes


class PendulumEnv(ControlSystem):
    def __init__(
        self,
        T: int,
        disturbances: np.ndarray,  # (T,) torque-level noise
        params: PendulumParams | None = None,
        theta_set: ParameterSet | None = None,
        x0=None,
    ):
        self.p = params or PendulumParams()
        self.w = np.asarray(disturbances, dtype=float).reshape(-1)
        if self.w.shape[0] < T:
            raise ValueError("disturbance sequence shorter than T")
        if len(self.p.masses) == 0:
            raise ValueError("the mass schedule needs at least one mass")
        if not all(math.isfinite(mass) and mass > 0 for mass in self.p.masses):
            raise ValueError(f"masses must be positive and finite, got {list(self.p.masses)}")
        period = self.p.switch_period
        if not (math.isfinite(period) and period > 0):
            raise ValueError(f"switch_period must be positive and finite, got {period}")
        self.T = int(T)
        self.n = 2
        self.m = 1
        self.d = 2
        self.theta_set = theta_set or Box(*DEFAULT_GAIN_BOX)
        self.x0 = np.zeros(2) if x0 is None else np.asarray(x0, dtype=float)
        self.Q = np.diag([Q_ANGLE, Q_VELOCITY])
        self.R = np.array([[R_CONTROL]])
        self._steps_per_mass = max(1, int(round(period / DT)))

    def mass_at(self, t: int) -> float:
        return self.p.masses[(t // self._steps_per_mass) % len(self.p.masses)]

    # The per-state methods read entries as Python floats and take products
    # with ndarray.dot: on 1- and 2-element operands numpy's call overhead,
    # not the arithmetic, is the cost, and `@` costs about twice `dot`.
    # Python float and numpy scalar arithmetic round alike, and math.sin and
    # math.cos return np.sin's and np.cos's bits, so the results are those
    # of the `@` forms. Quadratic forms stay numpy dot products, which round
    # differently from a Python sum of products.

    def policy(self, t, x, theta):
        t0, t1 = theta.tolist()
        x0, x1 = x.tolist()
        return np.array([-t0 * x0 - t1 * x1])

    def dynamics(self, t, x, u):
        x0, x1 = x.tolist()
        mass = self.mass_at(t)
        ml2 = mass * LENGTH**2
        accel = (
            (GRAVITY / LENGTH) * math.sin(x0)
            - (DAMPING / ml2) * x1
            + u.tolist()[0] / ml2
            + self.w[t]
        )
        return np.array([x0 + DT * x1, x1 + DT * accel])

    def cost(self, t, x, u):
        return quadratic_cost(x, self.Q, u, self.R)

    def jacobians(self, t, x, theta):
        ml2 = self.mass_at(t) * LENGTH**2
        t0, t1 = theta.tolist()
        x0, x1 = x.tolist()
        u0 = -t0 * x0 - t1 * x1  # the action policy(t, x, theta) plays
        dg_dx = np.array(
            [
                [1.0, DT],
                [DT * (GRAVITY / LENGTH) * math.cos(x0), 1.0 - DT * DAMPING / ml2],
            ]
        )
        dg_du = np.array([[0.0], [DT / ml2]])
        return StepJacobians(
            dg_dx=dg_dx,
            dg_du=dg_du,
            dpi_dx=np.array([[-t0, -t1]]),
            dpi_dtheta=np.array([[-x0, -x1]]),
            df_dx=(2.0 * self.Q).dot(x),
            # 2R @ u, which sums the one product onto +0.0.
            df_du=np.array([0.0 + 2.0 * self.R.item() * u0]),
        )

    def linearization(self, mass: float) -> tuple[np.ndarray, np.ndarray]:
        """Euler-discretized linearization at the upright equilibrium."""
        ml2 = mass * LENGTH**2
        A = np.array([[1.0, DT], [DT * GRAVITY / LENGTH, 1.0 - DT * DAMPING / ml2]])
        B = np.array([[0.0], [DT / ml2]])
        return A, B

    def lqr_gains(self, mass: float) -> np.ndarray:
        """Riccati-optimal (k_p, k_d) for the linearization at this mass."""
        A, B = self.linearization(mass)
        return solve_dare(A, B, self.Q, self.R).K.reshape(-1)

    # Lane-axis step math, the same model as the per-state methods above.
    # Those stay scalar: broadcasting them slows the streaming selector,
    # which calls them one state at a time.

    def policy_lanes(self, t, X, thetas):
        return -(thetas * X).sum(axis=1, keepdims=True)

    def dynamics_lanes(self, t, X, U):
        ml2 = self.mass_at(t) * LENGTH**2
        angle = X[:, 0]
        velocity = X[:, 1]
        accel = (
            (GRAVITY / LENGTH) * np.sin(angle)
            - (DAMPING / ml2) * velocity
            + U[:, 0] / ml2
            + self.w[t]
        )
        out = np.empty_like(X)
        out[:, 0] = angle + DT * velocity
        out[:, 1] = velocity + DT * accel
        return out

    # quadratic_cost broadcasts over lanes with the per-state bits.
    cost_lanes = cost


def make_pendulum_env(
    T: int,
    disturbance,
    seed: int,
    params: PendulumParams | None = None,
    x0=None,
) -> PendulumEnv:
    """Build the pendulum with a frozen disturbance realization.

    disturbance is an IidGaussian or OrnsteinUhlenbeck spec (or an explicit
    array); the realization enters at the acceleration level.
    """
    params = params or PendulumParams()
    if isinstance(disturbance, (IidGaussian, OrnsteinUhlenbeck)):
        rng = np.random.default_rng(seed)
        w = disturbance.draw(T, 1, rng)[:, 0]
    else:
        w = np.asarray(disturbance, dtype=float).reshape(-1)
    return PendulumEnv(T=T, disturbances=w, params=params, x0=x0)


def lqr_baseline(env: PendulumEnv, T: int) -> Trajectory:
    """Closed loop under the per-mass Riccati-optimal gains.

    A dynamic comparator: it switches to the optimal linearized-design gain
    the moment the mass changes.
    """
    from ..system import rollout

    gains = {mass: env.lqr_gains(mass) for mass in set(env.p.masses)}
    thetas = np.array([gains[env.mass_at(t)] for t in range(T)])
    return rollout(env, thetas, T=T)
