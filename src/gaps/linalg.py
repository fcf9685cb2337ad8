"""Small dense Riccati solvers and step-math helpers used by the environments.

Matrices here are a few rows/columns at most, so everything is plain numpy
with deterministic fixed-point iteration rather than structured eigensolvers.
Linear solves go through `solve_linear`, which runs its own partial-pivot
elimination only to check the pivots (numpy's solver does not refuse a tiny
pivot) and then solves with `np.linalg.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularMatrix

# Pivot magnitude below which a matrix is treated as singular.
PIVOT_TOL = 1e-12


def solve_linear(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M @ x = rhs, raising SingularMatrix when a partial-pivot LU of M
    meets a pivot of magnitude below PIVOT_TOL."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U = M.copy()
    for j in range(U.shape[0]):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if abs(U[p, j]) < PIVOT_TOL:
            raise SingularMatrix(f"pivot below {PIVOT_TOL:g} while solving a {M.shape} system")
        if p != j:
            U[[j, p]] = U[[p, j]]
        U[j + 1 :, j:] -= np.outer(U[j + 1 :, j] / U[j, j], U[j, j:])
    return np.linalg.solve(M, rhs)


def per_step(M, T: int) -> np.ndarray:
    """Broadcast a constant matrix to (T, ...) or validate a sequence."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 2:
        return np.broadcast_to(M, (T,) + M.shape)
    if M.shape[0] < T:
        raise ValueError(f"matrix sequence of length {M.shape[0]} shorter than T={T}")
    return M


def row_matmul(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M.T for one vector x, or for each row of a lane stack x.

    Each row is multiplied as a single vector is, so lanes match the
    per-state math bit for bit; one (L, n) @ (n, m) product takes another
    BLAS kernel, whose result can differ in the last bit.
    """
    return (x[..., None, :] @ M.T)[..., 0, :]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of x.

    Each norm is the dot product np.linalg.norm takes of a single vector;
    np.linalg.norm with an axis sums squares instead, which can differ in
    the last bit.
    """
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def quadratic_cost(x: np.ndarray, Q: np.ndarray, u: np.ndarray, R: np.ndarray):
    """x'Qx + u'Ru, one value per lane when x and u carry a leading lane axis."""
    return np.einsum("...i,ij,...j->...", x, Q, x) + np.einsum("...i,ij,...j->...", u, R, u)


@dataclass
class RiccatiSolution:
    """Stabilizing fixed point of the discrete algebraic Riccati map.

    P is the symmetric PSD cost-to-go matrix, K the feedback gain for
    u = -K x, and residual the norm of P minus the Riccati map applied to P.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int


def _dare_map(A, B, Q, R, P):
    BtP = B.T @ P
    K = solve_linear(R + BtP @ B, BtP @ A)
    return Q + A.T @ P @ (A - B @ K), K


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> RiccatiSolution:
    """Solve P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA by fixed-point iteration.

    Starts from P = Q and iterates until the max-abs change drops below tol.
    P is re-symmetrized every iteration to suppress round-off drift. Requires
    Q PSD, R PD, and (A, B) stabilizable; a non-stabilizable pair surfaces as
    NonConvergence.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))

    P = Q.copy()
    for it in range(max_iter):
        P_next, K = _dare_map(A, B, Q, R, P)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) < tol:
            P = P_next
            mapped, K = _dare_map(A, B, Q, R, P)
            residual = float(np.linalg.norm(P - mapped))
            return RiccatiSolution(P=P, K=K, residual=residual, iterations=it + 1)
        P = P_next
    raise NonConvergence(f"DARE iteration did not converge in {max_iter} iterations")


@dataclass
class FiniteHorizonLq:
    """Backward-pass output for a k-step quadratic tracking problem.

    gains[j] is the state-feedback gain at offset j from the current step
    (only gains[0] is committed by a receding-horizon controller), and
    feedforward[j] maps the effective disturbance entering at offset j to
    the first control: u = -gains[0] @ x - sum_j feedforward[j] @ v_j.
    cost_to_go[j] is the quadratic value matrix at offset j (length k + 1).
    """

    gains: list[np.ndarray]
    feedforward: list[np.ndarray]
    cost_to_go: list[np.ndarray]


def finite_horizon_lq(
    A_seq: list[np.ndarray],
    B_seq: list[np.ndarray],
    Q_seq: list[np.ndarray],
    R_seq: list[np.ndarray],
    Qf: np.ndarray,
    k: int,
) -> FiniteHorizonLq:
    """Backward Riccati pass over a k-step horizon with terminal cost Qf.

    Minimizes sum_j x_j'Q_j x_j + u_j'R_j u_j + x_k'Qf x_k subject to
    x_{j+1} = A_j x_j + B_j u_j + v_j with known v_j. The first control of
    the exact minimizer is affine: u = -gains[0] x - sum_j feedforward[j] v_j.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    if not (len(A_seq) == len(B_seq) == len(Q_seq) == len(R_seq) == k):
        raise ValueError("sequence lengths must equal the horizon k")

    A_seq = [np.atleast_2d(np.asarray(M, dtype=float)) for M in A_seq]
    B_seq = [np.atleast_2d(np.asarray(M, dtype=float)) for M in B_seq]
    Q_seq = [np.atleast_2d(np.asarray(M, dtype=float)) for M in Q_seq]
    R_seq = [np.atleast_2d(np.asarray(M, dtype=float)) for M in R_seq]
    Qf = np.atleast_2d(np.asarray(Qf, dtype=float))

    cost_to_go = [None] * (k + 1)
    gains = [None] * k
    cost_to_go[k] = Qf
    for j in reversed(range(k)):
        A, B, Q, R = A_seq[j], B_seq[j], Q_seq[j], R_seq[j]
        P_next = cost_to_go[j + 1]
        BtP = B.T @ P_next
        K = solve_linear(R + BtP @ B, BtP @ A)
        P = Q + A.T @ P_next @ (A - B @ K)
        cost_to_go[j] = 0.5 * (P + P.T)
        gains[j] = K

    # Feedforward maps for the first control. The linear value term obeys
    # s_j = (A_j - B_j K_j)' (P_{j+1} v_j + s_{j+1}) with s_k = 0, and
    # u_0 = -K_0 x - (R_0 + B_0'P_1 B_0)^-1 B_0' (P_1 v_0 + s_1); unrolling
    # gives the per-disturbance coefficients below.
    A0, B0, R0 = A_seq[0], B_seq[0], R_seq[0]
    S0 = R0 + B0.T @ cost_to_go[1] @ B0
    feedforward = []
    trans = np.eye(A0.shape[0])  # product of closed-loop transposes, offsets 1..j
    for j in range(k):
        if j > 0:
            F = A_seq[j] - B_seq[j] @ gains[j]
            trans = trans @ F.T
        feedforward.append(solve_linear(S0, B0.T @ trans @ cost_to_go[j + 1]))
    return FiniteHorizonLq(gains=gains, feedforward=feedforward, cost_to_go=cost_to_go)
