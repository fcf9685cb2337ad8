"""Inverted pendulum with proportional-derivative gains and mass switches.

State is (angle, angular velocity) around the upright equilibrium. The mass
cycles through a schedule every switch_period seconds, which makes the
closed-loop behavior (and the best gains) time-varying. Explicit Euler keeps
the step map polynomial-plus-sine, so the Jacobians are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import solve_dare
from ..system import Box, ControlSystem, ParameterSet, StepJacobians, Trajectory
from .disturbances import IidGaussian, OrnsteinUhlenbeck

# Gain box verified to stabilize the Euler-discretized linearization at every
# mass in the default schedule (see tests); it also contains the per-mass
# Riccati-optimal gains. The mass spread is capped so both properties can
# hold at once: the optimal k_p at the lightest mass must still stabilize
# the heaviest.
DEFAULT_GAIN_BOX = ((17.0, 4.0), (40.0, 16.0))
DEFAULT_MASSES = (1.0, 0.8, 1.3)


@dataclass
class PendulumParams:
    length: float = 1.0
    gravity: float = 9.81
    damping: float = 0.1
    dt: float = 0.02
    masses: tuple = DEFAULT_MASSES
    switch_period: float = 100.0  # seconds between mass changes
    q_angle: float = 1.0
    q_velocity: float = 0.1
    r_control: float = 0.01


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
        self.T = int(T)
        self.n = 2
        self.m = 1
        self.d = 2
        self.theta_set = theta_set or Box(*DEFAULT_GAIN_BOX)
        self.x0 = np.zeros(2) if x0 is None else np.asarray(x0, dtype=float)
        self.Q = np.diag([self.p.q_angle, self.p.q_velocity])
        self.R = np.array([[self.p.r_control]])
        self._steps_per_mass = max(1, int(round(self.p.switch_period / self.p.dt)))

    def mass_at(self, t: int) -> float:
        return self.p.masses[(t // self._steps_per_mass) % len(self.p.masses)]

    def policy(self, t, x, theta):
        return np.array([-theta[0] * x[0] - theta[1] * x[1]])

    def dynamics(self, t, x, u):
        p = self.p
        mass = self.mass_at(t)
        ml2 = mass * p.length**2
        accel = (
            (p.gravity / p.length) * np.sin(x[0])
            - (p.damping / ml2) * x[1]
            + u[0] / ml2
            + self.w[t]
        )
        return np.array([x[0] + p.dt * x[1], x[1] + p.dt * accel])

    def cost(self, t, x, u):
        return float(x @ self.Q @ x + u @ self.R @ u)

    def jacobians(self, t, x, theta):
        p = self.p
        ml2 = self.mass_at(t) * p.length**2
        u = self.policy(t, x, theta)
        dg_dx = np.array(
            [
                [1.0, p.dt],
                [p.dt * (p.gravity / p.length) * np.cos(x[0]), 1.0 - p.dt * p.damping / ml2],
            ]
        )
        dg_du = np.array([[0.0], [p.dt / ml2]])
        return StepJacobians(
            dg_dx=dg_dx,
            dg_du=dg_du,
            dpi_dx=np.array([[-theta[0], -theta[1]]]),
            dpi_dtheta=np.array([[-x[0], -x[1]]]),
            df_dx=2.0 * self.Q @ x,
            df_du=2.0 * self.R @ u,
        )

    def linearization(self, mass: float) -> tuple[np.ndarray, np.ndarray]:
        """Euler-discretized linearization at the upright equilibrium."""
        p = self.p
        ml2 = mass * p.length**2
        A = np.array(
            [[1.0, p.dt], [p.dt * p.gravity / p.length, 1.0 - p.dt * p.damping / ml2]]
        )
        B = np.array([[0.0], [p.dt / ml2]])
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
        p = self.p
        ml2 = self.mass_at(t) * p.length**2
        angle = X[:, 0]
        velocity = X[:, 1]
        accel = (
            (p.gravity / p.length) * np.sin(angle)
            - (p.damping / ml2) * velocity
            + U[:, 0] / ml2
            + self.w[t]
        )
        out = np.empty_like(X)
        out[:, 0] = angle + p.dt * velocity
        out[:, 1] = velocity + p.dt * accel
        return out

    def cost_lanes(self, t, X, U):
        p = self.p
        return p.q_angle * X[:, 0] ** 2 + p.q_velocity * X[:, 1] ** 2 + p.r_control * U[:, 0] ** 2

    # Bound here, not only inherited, so that per-class hooks on this name
    # (the benchmark's tracer) find it in the class namespace.
    batch_surrogate_costs = ControlSystem.batch_surrogate_costs


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
