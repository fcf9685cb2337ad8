"""Linear time-varying system under linear state feedback u = -K(theta) x.

The parameter is the flattened gain matrix, so the policy is linear in both
arguments and every Jacobian block is exact. Used as the workhorse for
contraction tests and as the linear sibling of the pendulum environment.
"""

from __future__ import annotations

import numpy as np

from ..linalg import per_step, quadratic_cost
from ..system import ControlSystem, ParameterSet, StepJacobians


class LinearFeedbackEnv(ControlSystem):
    def __init__(
        self,
        A,
        B,
        Q,
        R,
        disturbances: np.ndarray,
        theta_set: ParameterSet,
        x0=None,
    ):
        self.w = np.atleast_2d(np.asarray(disturbances, dtype=float))
        self.T = self.w.shape[0]
        self.A = per_step(A, self.T)
        self.B = per_step(B, self.T)
        self.Q = per_step(Q, self.T)
        self.R = per_step(R, self.T)
        self.n = self.A.shape[1]
        self.m = self.B.shape[2]
        if theta_set.dim != self.n * self.m:
            raise ValueError("theta dimension must be n * m (flattened gain)")
        self.d = theta_set.dim
        self.theta_set = theta_set
        self.x0 = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float)

    def gain(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return theta.reshape(theta.shape[:-1] + (self.m, self.n))

    # The step math below broadcasts over a leading lane axis of x, theta
    # and u, so the lane-axis entry points are the same methods.

    def policy(self, t, x, theta):
        return -np.einsum("...ij,...j->...i", self.gain(theta), x)

    def dynamics(self, t, x, u):
        return x @ self.A[t].T + u @ self.B[t].T + self.w[t]

    def cost(self, t, x, u):
        return quadratic_cost(x, self.Q[t], u, self.R[t])

    def jacobians(self, t, x, theta):
        u = self.policy(t, x, theta)
        # u_i = -sum_j theta[i*n + j] x_j, so the theta block is -I_m (x) x'.
        dpi_dtheta = -np.einsum("ij,...k->...ijk", np.eye(self.m), x)
        return StepJacobians(
            dg_dx=self.A[t],
            dg_du=self.B[t],
            dpi_dx=-self.gain(theta),
            dpi_dtheta=dpi_dtheta.reshape(x.shape[:-1] + (self.m, self.d)),
            df_dx=2.0 * x @ self.Q[t].T,
            df_du=2.0 * u @ self.R[t].T,
        )

    policy_lanes = policy
    dynamics_lanes = dynamics
    cost_lanes = cost
    jacobians_lanes = jacobians
