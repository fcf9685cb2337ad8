"""Follow-the-leader baseline for the scalar-confidence setting.

After each step the realized (state, prediction, disturbance) triple yields
the counterfactual one-step cost of any confidence value as an explicit
quadratic: action cost plus cost-to-go of the reached state under the
terminal value matrix. The baseline replays the minimizer of the
accumulated quadratics, clamped to [0, 1].
"""

from __future__ import annotations

import numpy as np

from ..system import DEFAULT_BLOWUP_CAP, Trajectory, check_state
from .confidence_mpc import ConfidenceMpcEnv


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

    lam = float(lambda0)
    sum_quad = 0.0  # sum of quadratic coefficients alpha_t
    sum_lin = 0.0  # sum of linear coefficients beta_t
    x = np.array(env.x0, dtype=float)

    states = np.empty((T, env.n))
    actions = np.empty((T, env.m))
    thetas = np.empty((T, 1))
    costs = np.empty(T)

    for t in range(T):
        check_state(t, x, DEFAULT_BLOWUP_CAP)
        theta = np.array([lam])
        u = env.policy(t, x, theta)
        states[t] = x
        actions[t] = u
        thetas[t] = theta
        costs[t] = env.cost(t, x, u)

        # One-step counterfactual cost in lambda: with u(l) = u0 - l * h and
        # x+(l) = x0+ - l * B h, the quadratic u'Ru + x+'Qf x+ has
        # coefficients alpha, beta below.
        K, _ = env._plan(t)
        h = env.feedforward_terms(t)[0]  # (m,), lead-0 prediction response
        u0 = -K @ x
        Bh = env.B[t] @ h
        x_next0 = env.A[t] @ x + env.B[t] @ u0 + env.w[t]
        alpha = float(h @ env.R[t] @ h + Bh @ env.Qf @ Bh)
        beta = float(-2.0 * (h @ env.R[t] @ u0) - 2.0 * (Bh @ env.Qf @ x_next0))
        sum_quad += alpha
        sum_lin += beta
        if sum_quad > 1e-12:
            lam = float(np.clip(-sum_lin / (2.0 * sum_quad), 0.0, 1.0))

        x = env.dynamics(t, x, u)

    return Trajectory(
        states=states,
        actions=actions,
        thetas=thetas,
        costs=costs,
        final_state=x,
    )
