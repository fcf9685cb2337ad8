"""Shared base of the linear-quadratic environments.

x' = A_t x + B_t u + w_t with stage cost x'Q_t x + u'R_t u. The base holds
the model, its step math and the four Jacobian blocks outside the policy; a
subclass supplies T, d, the parameter set, `policy` and `jacobians`. Products
of a state or an action go through `row_matmul` and `quadratic_cost`, so a
lane of the broadcasting entry points gets the bits a single state gets.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonConvergence, require_real
from ..linalg import per_step, quadratic_cost, row_matmul, solve_dare
from ..system import ControlSystem, StepJacobians


class LinearQuadraticEnv(ControlSystem):
    """A, B, Q and R are one matrix each or one per step, over `horizon`
    steps (default: the number of disturbance rows)."""

    def __init__(self, A, B, Q, R, disturbances: np.ndarray, x0=None, horizon: int | None = None):
        self.w = np.atleast_2d(np.asarray(disturbances, dtype=float))
        if horizon is None:
            horizon = self.w.shape[0]
        elif self.w.shape[0] < horizon:
            raise ValueError(f"need {horizon} disturbance rows, got {self.w.shape[0]}")
        self.A = per_step(A, horizon)
        self.B = per_step(B, horizon)
        self.Q = per_step(Q, horizon)
        self.R = per_step(R, horizon)
        self.n = self.A.shape[1]
        self.m = self.B.shape[2]
        self.x0 = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float)

    # dynamics and cost broadcast over a leading lane axis of x and u, so
    # the lane-axis entry points are the same methods.

    def dynamics(self, t, x, u):
        return row_matmul(x, self.A[t]) + row_matmul(u, self.B[t]) + self.w[t]

    def cost(self, t, x, u):
        return quadratic_cost(x, self.Q[t], u, self.R[t])

    def step_jacobians(self, t, x, u, dpi_dx, dpi_dtheta) -> StepJacobians:
        """The six blocks at (x, u), around the policy's own two."""
        return StepJacobians(
            dg_dx=self.A[t],
            dg_du=self.B[t],
            dpi_dx=dpi_dx,
            dpi_dtheta=dpi_dtheta,
            df_dx=row_matmul(2.0 * x, self.Q[t]),
            df_du=row_matmul(2.0 * u, self.R[t]),
        )

    dynamics_lanes = dynamics
    cost_lanes = cost


def scalar_model(a, b):
    """A = [[a]], B = [[b]], unit weights Q = R = [[1]], and the stationary
    Riccati solution as terminal cost Qf, for x' = a x + b u + w with cost
    x^2 + u^2. a and b must be finite reals and (a, b) stabilizable; else
    TypeError or ValueError naming them."""
    A = np.array([[require_real("a", a)]], dtype=float)
    B = np.array([[require_real("b", b)]], dtype=float)
    q = np.array([[1.0]])
    try:
        Qf = solve_dare(A, B, q, q).P
    except NonConvergence as exc:
        raise ValueError(f"a={a!r}, b={b!r}: {exc}") from None
    return A, B, q, Qf
