"""Follow-the-leader baseline for the scalar-confidence setting.

After each step the realized (state, prediction, disturbance) triple yields
the counterfactual one-step cost of any confidence value as an explicit
quadratic: action cost plus cost-to-go of the reached state under the
terminal value matrix. The baseline replays the minimizer of the
accumulated quadratics, clamped to [0, 1].
"""

from __future__ import annotations

import numpy as np

from ..system import Trajectory, closed_loop
from .confidence_mpc import ConfidenceMpcEnv


class _FtlSelector:
    """Plays the minimizer of the accumulated one-step quadratics in lambda,
    clamped to [0, 1]."""

    def __init__(self, env: ConfidenceMpcEnv, lambda0: float):
        self.env = env
        self.lam = float(lambda0)
        self.sum_quad = 0.0  # sum of quadratic coefficients alpha_t
        self.sum_lin = 0.0  # sum of linear coefficients beta_t

    def propose(self, t, x):
        return np.array([self.lam])

    def observe(self, t, x, u, cost):
        # One-step counterfactual cost in lambda: with u(l) = u0 - l * h and
        # x+(l) = x0+ - l * B h, the quadratic u'Ru + x+'Qf x+ has
        # coefficients alpha, beta below.
        env = self.env
        K, _ = env._plan(t)
        h = env.feedforward_terms(t)[0]  # (m,), lead-0 prediction response
        u0 = -K @ x
        Bh = env.B[t] @ h
        x_next0 = env.A[t] @ x + env.B[t] @ u0 + env.w[t]
        self.sum_quad += float(h @ env.R[t] @ h + Bh @ env.Qf @ Bh)
        self.sum_lin += float(-2.0 * (h @ env.R[t] @ u0) - 2.0 * (Bh @ env.Qf @ x_next0))
        if self.sum_quad > 1e-12:
            self.lam = float(np.clip(-self.sum_lin / (2.0 * self.sum_quad), 0.0, 1.0))
        return None


def ftl_confidence_baseline(
    env: ConfidenceMpcEnv, T: int, lambda0: float = 1.0
) -> Trajectory:
    """Run the closed loop with the follow-the-leader confidence rule.

    Only the scalar-confidence case (k = 1) is supported. Returns the
    trajectory; thetas[t] holds the lambda used at step t. Raises
    StateBlowup once the state norm exceeds DEFAULT_BLOWUP_CAP or is not
    finite.
    """
    if env.k != 1:
        raise ValueError("the follow-the-leader baseline needs k = 1")
    return closed_loop(env, _FtlSelector(env, lambda0), T)
