"""Abstract control system interface, parameter sets, and the closed loop.

A ControlSystem bundles per-step dynamics, policy, and cost functions with
their analytic partial derivatives. Disturbance realizations are drawn once
at construction from a seeded generator, so an instance is a deterministic
function of (t, x, u) thereafter; the same instance can therefore be
resimulated from step 0 with a different parameter, which is what the
oracle module relies on.

The one per-step loop is `closed_loop(system, selector, T)`: it observes
x_t, asks the selector for theta_t, plays the policy, and hands the step
back to the selector. `rollout`, the streaming runners and the
follow-the-leader baseline are one call of it each; BAPS plays one
`ControlSystem.hold` per batch, and the finite-memory estimator one per
call, which by default is `closed_loop` started at the given step and
state.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, StateBlowup
from .linalg import dot

DEFAULT_BLOWUP_CAP = 1e8


# ---------------------------------------------------------------------------
# Parameter sets


class ParameterSet(abc.ABC):
    """Closed convex subset of R^d with a Euclidean projection."""

    dim: int

    @abc.abstractmethod
    def project(self, theta: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point of the set (uniform where that is well-defined)."""

    def contains(self, theta: np.ndarray, tol: float = 1e-9) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.linalg.norm(self.project(theta) - theta) <= tol)

    def _check_dim(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise DimensionMismatch(
                f"parameter has shape {theta.shape}, set dimension is {self.dim}"
            )
        return theta


class WholeSpace(ParameterSet):
    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, theta):
        return self._check_dim(theta).copy()

    def sample(self, rng):
        return rng.standard_normal(self.dim)

    def __repr__(self):
        return f"WholeSpace({self.dim})"


class Box(ParameterSet):
    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi elementwise")
        self.dim = self.lo.size

    def project(self, theta):
        # np.clip's bits, NaN and signed zeros included, without the
        # overhead of its Python wrapper.
        return np.minimum(np.maximum(self._check_dim(theta), self.lo), self.hi)

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class Ball(ParameterSet):
    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if not 0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")
        self.dim = self.center.size

    def project(self, theta):
        theta = self._check_dim(theta)
        delta = theta - self.center
        norm = np.linalg.norm(delta)
        if norm <= self.radius:
            return theta.copy()
        return self.center + delta * (self.radius / norm)

    def sample(self, rng):
        direction = rng.standard_normal(self.dim)
        direction /= max(np.linalg.norm(direction), 1e-300)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * direction

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


# ---------------------------------------------------------------------------
# Jacobians and trajectories


# Number of axes of each block of the two Jacobian records at a single
# state; a block with one more axis carries a leading lane axis.
_SINGLE_NDIM = {"dg_dx": 2, "dg_du": 2, "dpi_dx": 2, "dpi_dtheta": 2, "df_dx": 1, "df_du": 1,
                "A_cl": 2, "B_theta": 2, "c_x": 1, "c_theta": 1}


@dataclass
class ClosedLoopJacobians:
    """The four closed-loop products of the step blocks that the
    sensitivity recursions read, at a visited (x_t, theta_t).

    A_cl = dx_{t+1}/dx_t = dg_dx + dg_du @ dpi_dx, the parameter injection
    B_theta = dx_{t+1}/dtheta_t = dg_du @ dpi_dtheta, and the cost rows
    c_x = dc_t/dx_t = df_dx + df_du @ dpi_dx and
    c_theta = dc_t/dtheta_t = df_du @ dpi_dtheta. A StepJacobians reads as
    this record too.
    """

    A_cl: np.ndarray  # (n, n)
    B_theta: np.ndarray  # (n, d)
    c_x: np.ndarray  # (n,)
    c_theta: np.ndarray  # (d,)

    def lane(self, i: int):
        """The single-state record of lane i, of the record's own type; a
        block shared by every lane is returned whole."""
        blocks = {}
        for name, block in vars(self).items():
            blocks[name] = block if block.ndim == _SINGLE_NDIM[name] else block[i]
        return type(self)(**blocks)


@dataclass
class StepJacobians:
    """All six partial-derivative blocks at a visited (x_t, u_t, theta_t).

    Gradient rows of the scalar cost are stored as 1-D arrays: df_dx has
    shape (n,) and df_du shape (m,). Returned for a lane stack, a block
    either carries a leading lane axis or, when it is the same for every
    lane, keeps its single-state shape; the products broadcast over both.
    """

    dg_dx: np.ndarray  # (n, n)
    dg_du: np.ndarray  # (n, m)
    dpi_dx: np.ndarray  # (m, n)
    dpi_dtheta: np.ndarray  # (m, d)
    df_dx: np.ndarray  # (n,)
    df_du: np.ndarray  # (m,)

    lane = ClosedLoopJacobians.lane

    # The four closed-loop products under ClosedLoopJacobians' field names,
    # so that a StepJacobians reads as that record and forms each product
    # only when it is read: the GAPS step reads c_x only once it keeps a
    # lag, and the gradient oracles read the cost rows only of read lanes.

    @property
    def A_cl(self) -> np.ndarray:
        return self.dg_dx + _times(self.dg_du, self.dpi_dx)

    @property
    def B_theta(self) -> np.ndarray:
        return _times(self.dg_du, self.dpi_dtheta)

    @property
    def c_x(self) -> np.ndarray:
        return self.df_dx + _row_times(self.df_du, self.dpi_dx)

    @property
    def c_theta(self) -> np.ndarray:
        return _row_times(self.df_du, self.dpi_dtheta)

    def validate(self, n: int, m: int, d: int) -> None:
        expected = {
            "dg_dx": (n, n),
            "dg_du": (n, m),
            "dpi_dx": (m, n),
            "dpi_dtheta": (m, d),
            "df_dx": (n,),
            "df_du": (m,),
        }
        for name, shape in expected.items():
            block = getattr(self, name)
            if block.shape != shape:
                raise DimensionMismatch(f"{name} has shape {block.shape}, expected {shape}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite entries")


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over blocks that may carry a lane axis. Single-state blocks take
    linalg.dot, the bits of `@` at less call overhead."""
    if a.ndim == 2 and b.ndim == 2:
        return dot(a, b)
    return a @ b


def _row_times(row: np.ndarray, M: np.ndarray) -> np.ndarray:
    """row @ M for a cost row; with a lane axis on either, one row product
    per lane, which gives each lane the bits of its single-state row."""
    if row.ndim == 1 and M.ndim == 2:
        return dot(row, M)
    return (row[..., None, :] @ M)[..., 0, :]


@dataclass
class Trajectory:
    """Time-indexed record of a closed-loop run of length T.

    states[t], actions[t], thetas[t], costs[t] describe step t; final_state
    is x_T. grads is filled only when the selector returned gradients.
    """

    states: np.ndarray  # (T, n)
    actions: np.ndarray  # (T, m)
    thetas: np.ndarray  # (T, d)
    costs: np.ndarray  # (T,)
    final_state: np.ndarray  # (n,)
    grads: np.ndarray | None = None  # (T, d), recorded by the online runners

    def __len__(self) -> int:
        return self.costs.shape[0]

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.costs))


# ---------------------------------------------------------------------------
# Control system interface


class ControlSystem(abc.ABC):
    """The (dynamics, cost, policy) triple queried one step at a time.

    Implementations expose dims (n, m, d), the horizon T their disturbance
    realization covers, the initial state x0, the parameter set, per-step
    evaluations, and the six Jacobian blocks at any visited point. The
    sensitivity recursions read only their four closed-loop products,
    through `closed_loop_jacobians(_lanes)`, whose defaults form them from
    `jacobians`.
    Evaluating twice at identical (t, x, theta) must return identical
    results: all randomness is fixed at construction.
    """

    n: int
    m: int
    d: int
    T: int
    x0: np.ndarray
    theta_set: ParameterSet

    @abc.abstractmethod
    def policy(self, t: int, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def dynamics(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def cost(self, t: int, x: np.ndarray, u: np.ndarray) -> float:
        ...

    @abc.abstractmethod
    def jacobians(self, t: int, x: np.ndarray, theta: np.ndarray) -> StepJacobians:
        ...

    # Lane-axis entry points: row i of X, thetas and U is one state,
    # parameter and action. The defaults loop over the lanes with the
    # single-state methods; a system whose step math broadcasts over a
    # leading axis can point these at its single-state methods instead.
    # A subclass never inherits a fast path written for its parent's step
    # math (see __init_subclass__): one that redefines a single-state method
    # without its lane entry point gets the default loop back; one that
    # redefines policy, dynamics or cost without `hold` or
    # `batch_surrogate_costs` gets the defaults of those two back; and one
    # that redefines policy, dynamics, cost or jacobians without the
    # closed-loop Jacobian methods gets the defaults of those back.

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        for name in ("policy", "dynamics", "cost", "closed_loop_jacobians"):
            lanes = f"{name}_lanes"
            if name in own and lanes not in own:
                setattr(cls, lanes, vars(ControlSystem)[lanes])
        resets = []
        if any(name in own for name in ("policy", "dynamics", "cost")):
            resets += ["hold", "batch_surrogate_costs"]
        if any(name in own for name in ("policy", "dynamics", "cost", "jacobians")):
            resets += ["closed_loop_jacobians", "closed_loop_jacobians_lanes"]
        for name in resets:
            if name not in own:
                setattr(cls, name, vars(ControlSystem)[name])

    def policy_lanes(self, t: int, X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """(L, m) actions: row i is policy(t, X[i], thetas[i])."""
        return np.array([self.policy(t, x, theta) for x, theta in zip(X, thetas)])

    def dynamics_lanes(self, t: int, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """(L, n) next states: row i is dynamics(t, X[i], U[i])."""
        return np.array([self.dynamics(t, x, u) for x, u in zip(X, U)])

    def cost_lanes(self, t: int, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """(L,) stage costs: entry i is cost(t, X[i], U[i])."""
        return np.array([self.cost(t, x, u) for x, u in zip(X, U)])

    def closed_loop_jacobians(
        self, t: int, x: np.ndarray, theta: np.ndarray
    ) -> ClosedLoopJacobians:
        """The closed-loop products at (x, theta). The default returns
        `jacobians(t, x, theta)`, which forms each product when it is read."""
        return self.jacobians(t, x, theta)

    def closed_loop_jacobians_lanes(
        self, t: int, X: np.ndarray, thetas: np.ndarray
    ) -> ClosedLoopJacobians:
        """The closed-loop products of every lane, each with a leading lane
        axis: lane i is closed_loop_jacobians(t, X[i], thetas[i])."""
        singles = [self.closed_loop_jacobians(t, x, theta) for x, theta in zip(X, thetas)]
        return ClosedLoopJacobians(
            *(np.array([getattr(s, f.name) for s in singles]) for f in fields(ClosedLoopJacobians))
        )

    def batch_surrogate_costs(self, thetas: np.ndarray, T: int) -> np.ndarray:
        """(T, L) surrogate costs: entry [t, i] is the stage cost at t of the
        closed loop that holds thetas[i] from x0.

        All lanes advance together through the lane entry points. Raises
        StateBlowup once a lane's state norm exceeds DEFAULT_BLOWUP_CAP or is
        not finite.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        X = np.tile(np.asarray(self.x0, dtype=float), (thetas.shape[0], 1))
        out = np.empty((T, thetas.shape[0]))
        for t in range(T):
            check_state(t, X)
            U = self.policy_lanes(t, X, thetas)
            out[t] = self.cost_lanes(t, X, U)
            X = self.dynamics_lanes(t, X, U)
        return out

    def hold(self, t0: int, x: np.ndarray, theta: np.ndarray, steps: int) -> Trajectory:
        """The closed loop that holds theta for steps steps from state x at
        step t0: `closed_loop` started at (t0, x). Row i of the trajectory
        is step t0 + i; a state past DEFAULT_BLOWUP_CAP, or not finite,
        raises StateBlowup at its absolute step."""
        return closed_loop(
            self, _Replay(np.broadcast_to(theta, (t0 + steps, self.d))), steps, start=(t0, x)
        )

    def arm_thetas(self) -> list[np.ndarray] | None:
        """The finite arm set a bandit selector chooses from, or None when
        the system has none."""
        return None


# ---------------------------------------------------------------------------
# The closed loop and Jacobian validation


def check_state(t: int, x: np.ndarray) -> None:
    """Raise StateBlowup at step t unless |x| <= DEFAULT_BLOWUP_CAP.

    Written as `not norm <= cap` so that a NaN or infinite state fails too.
    x may carry a leading lane axis, and then every lane is checked: the
    norm over all lanes bounds each lane's, so lanes are measured one by
    one only past the cap.
    """
    # The value np.linalg.norm gives, without its call overhead: this runs
    # at every step of every loop.
    norm = math.sqrt(np.vdot(x, x))
    if not norm <= DEFAULT_BLOWUP_CAP and x.ndim == 2:
        # A lane past about 1e154 squares to inf: its norm is then inf,
        # which fails the check below, and numpy's overflow warning says
        # nothing more.
        with np.errstate(over="ignore"):
            norm = np.max(np.linalg.norm(x, axis=1))
    if not norm <= DEFAULT_BLOWUP_CAP:
        raise StateBlowup(t, float(norm), DEFAULT_BLOWUP_CAP)


def closed_loop(system: ControlSystem, selector, T: int, start=None) -> Trajectory:
    """Run T steps of online policy selection on one trajectory.

    A selector has two methods. `propose(t, x)` returns theta_t for the
    observed state; `observe(t, x, u, cost)` receives the step just played
    and returns its gradient, or None for a selector that keeps none. Each
    step checks x_t against DEFAULT_BLOWUP_CAP (raising StateBlowup when its
    norm exceeds the cap or is not finite), plays
    u_t = policy(t, x_t, theta_t), records the step, and advances the
    dynamics after the selector has observed it. The trajectory carries
    grads exactly when the selector returned them.

    The loop starts at step 0 from system.x0. `start=(t0, x)`, which only
    `ControlSystem.hold` passes, starts it at step t0 from state x instead:
    it runs steps t0 .. t0 + T - 1, and row i of the trajectory is step
    t0 + i.
    """
    t0, x = (0, system.x0) if start is None else start
    x = np.array(x, dtype=float)
    states = np.empty((T, system.n))
    actions = np.empty((T, system.m))
    thetas = np.empty((T, system.d))
    costs = np.empty(T)
    grads = None

    for i in range(T):
        t = t0 + i
        check_state(t, x)
        theta = selector.propose(t, x)
        u = system.policy(t, x, theta)
        cost = system.cost(t, x, u)
        states[i] = x
        actions[i] = u
        thetas[i] = theta
        costs[i] = cost
        grad = selector.observe(t, x, u, cost)
        if grad is not None:
            if grads is None:
                grads = np.empty((T, system.d))
            grads[i] = grad
        x = system.dynamics(t, x, u)

    return Trajectory(
        states=states, actions=actions, thetas=thetas, costs=costs, final_state=x, grads=grads
    )


class _Replay:
    """Selector that plays a fixed parameter sequence and learns nothing."""

    def __init__(self, theta_seq: np.ndarray):
        self.theta_seq = theta_seq

    def propose(self, t, x):
        return self.theta_seq[t]

    def observe(self, t, x, u, cost):
        return None


def rollout(system: ControlSystem, theta_seq, T: int | None = None) -> Trajectory:
    """Run the closed loop under a given parameter sequence.

    theta_seq may be a (T, d) array, a list of vectors, or a single (d,)
    vector held constant. Raises StateBlowup once the state norm exceeds
    DEFAULT_BLOWUP_CAP or is not finite, which is the loud instability
    signal.
    """
    theta_seq = np.asarray(theta_seq, dtype=float)
    if theta_seq.ndim == 1:
        if T is None:
            raise ValueError("T is required when a single theta is given")
        theta_seq = np.tile(theta_seq, (T, 1))
    if T is None:
        T = theta_seq.shape[0]
    if theta_seq.shape[0] < T or theta_seq.shape[1] != system.d:
        raise DimensionMismatch(
            f"theta sequence has shape {theta_seq.shape}, need at least ({T}, {system.d})"
        )
    return closed_loop(system, _Replay(theta_seq), T)


@dataclass
class JacobianReport:
    """Per-block relative errors of analytic vs central-difference Jacobians."""

    errors: dict[str, float]
    rel_tol: float

    @property
    def passed(self) -> bool:
        return all(e <= self.rel_tol for e in self.errors.values())

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    def failing_blocks(self) -> list[str]:
        return [k for k, v in self.errors.items() if v > self.rel_tol]


def check_jacobians(
    system: ControlSystem,
    t: int,
    x: np.ndarray,
    theta: np.ndarray,
    h: float = 1e-6,
    rel_tol: float = 1e-5,
) -> JacobianReport:
    """Validate the analytic Jacobian blocks by central finite differences.

    Relative error per block is |analytic - fd| / (1 + |analytic|). Very
    small h (around 1e-13) is dominated by cancellation and will report
    degraded precision; that is a property of finite differences, not of
    the analytic derivatives.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    jac = system.jacobians(t, x, theta)
    jac.validate(system.n, system.m, system.d)
    u = system.policy(t, x, theta)

    def central(f, z0, out_shape):
        cols = []
        for i in range(z0.size):
            zp = z0.copy()
            zm = z0.copy()
            zp[i] += h
            zm[i] -= h
            cols.append((np.asarray(f(zp), dtype=float) - np.asarray(f(zm), dtype=float)) / (2 * h))
        fd = np.stack(cols, axis=-1)
        return fd.reshape(out_shape)

    fd_blocks = {
        "dg_dx": central(lambda z: system.dynamics(t, z, u), x, (system.n, system.n)),
        "dg_du": central(lambda z: system.dynamics(t, x, z), u, (system.n, system.m)),
        "dpi_dx": central(lambda z: system.policy(t, z, theta), x, (system.m, system.n)),
        "dpi_dtheta": central(lambda z: system.policy(t, x, z), theta, (system.m, system.d)),
        "df_dx": central(lambda z: system.cost(t, z, u), x, (system.n,)),
        "df_du": central(lambda z: system.cost(t, x, z), u, (system.m,)),
    }

    errors = {}
    for name, fd in fd_blocks.items():
        analytic = getattr(jac, name)
        errors[name] = float(
            np.linalg.norm(analytic - fd) / (1.0 + np.linalg.norm(analytic))
        )
    return JacobianReport(errors=errors, rel_tol=rel_tol)
