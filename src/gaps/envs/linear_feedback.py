"""Linear time-varying system under linear state feedback u = -K(theta) x.

The parameter is the flattened gain matrix, so the policy is linear in both
arguments and every Jacobian block is exact. Used as the workhorse for
contraction tests and as the linear sibling of the pendulum environment.
"""

from __future__ import annotations

import numpy as np

from ..linalg import row_matmul
from ..system import ParameterSet
from .linear_quadratic import LinearQuadraticEnv


class LinearFeedbackEnv(LinearQuadraticEnv):
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
        super().__init__(A, B, Q, R, disturbances, x0)
        self.T = self.w.shape[0]
        if theta_set.dim != self.n * self.m:
            raise ValueError("theta dimension must be n * m (flattened gain)")
        self.d = theta_set.dim
        self.theta_set = theta_set

    def gain(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return theta.reshape(theta.shape[:-1] + (self.m, self.n))

    # The step math below broadcasts over a leading lane axis of x, theta
    # and u, so the lane-axis entry points are the same methods.

    def policy(self, t, x, theta):
        return row_matmul(-x, self.gain(theta))

    def jacobians(self, t, x, theta):
        u = self.policy(t, x, theta)
        # u_i = -sum_j theta[i*n + j] x_j, so the theta block is -I_m (x) x'.
        dpi_dtheta = -np.einsum("ij,...k->...ijk", np.eye(self.m), x)
        return self.step_jacobians(
            t, x, u, -self.gain(theta), dpi_dtheta.reshape(x.shape[:-1] + (self.m, self.d))
        )

    policy_lanes = policy
    closed_loop_jacobians_lanes = jacobians
