"""Small dense Riccati solvers and step-math helpers used by the environments.

Matrices here are a few rows/columns at most, so everything is plain numpy.
The stationary Riccati equation is solved by structured doubling, which
reaches the fixed point of the Riccati map in a few quadratically
converging steps, with no eigensolver.
Linear solves go through `solve_linear`, which runs its own partial-pivot
elimination over Python floats only to check the pivots (numpy's solver does
not refuse a tiny pivot) and then solves with `np.linalg.solve`. Products
of a single state, or of the small matrices of one Riccati step, go through
`dot`, which gives the bits of `@` at about half its call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularMatrix

# Pivot magnitude below which a matrix is treated as singular.
PIVOT_TOL = 1e-12
# solve_dare's stopping tolerance (max-abs change of P) and step limit.
DARE_TOL = 1e-12
DARE_MAX_ITER = 10000


def solve_linear(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M @ x = rhs, raising SingularMatrix when a partial-pivot LU of M
    meets a pivot of magnitude below PIVOT_TOL."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U = M.tolist()
    for j in range(len(U)):
        # The pivot np.argmax would pick: the first NaN, else the first
        # entry of largest magnitude.
        p, big = j, abs(U[j][j])
        for i in range(j + 1, len(U)):
            if big != big:
                break
            a = abs(U[i][j])
            if a > big or a != a:
                p, big = i, a
        if big < PIVOT_TOL:
            raise SingularMatrix(f"pivot below {PIVOT_TOL:g} while solving a {M.shape} system")
        U[j], U[p] = U[p], U[j]
        pivot = U[j]
        for row in U[j + 1 :]:
            f = row[j] / pivot[j]
            row[j:] = [r - f * q for r, q in zip(row[j:], pivot[j:])]
    return np.linalg.solve(M, rhs)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for single-state operands, at about half the call overhead.

    ndarray.dot gives the bits of `@` on these shapes, with one exception:
    for two one-element operands it returns the bare product, whose zero
    keeps its sign, where `@` sums the product onto +0.0. That case takes
    `@`.
    """
    if a.size == 1 and b.size == 1:
        return a @ b
    return a.dot(b)


def per_step(M, T: int) -> np.ndarray:
    """Broadcast a constant matrix to (T, ...) or validate a sequence."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 2:
        return np.broadcast_to(M, (T,) + M.shape)
    if M.shape[0] < T:
        raise ValueError(f"matrix sequence of length {M.shape[0]} shorter than T={T}")
    return M


def row_matmul(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M.T for one vector x, or row by row for a lane stack x, with M one
    matrix or one per lane. Each row gets the bits a single vector gets; one
    (L, n) @ (n, m) product takes another BLAS kernel, which can differ in the
    last bit. One-column rows have no sum to reorder and take the plain
    product, which is faster.
    """
    if x.ndim == 1:
        return dot(x, M.T)
    if x.shape[-1] == 1 and M.ndim == 2:
        return x @ M.T
    return (x[..., None, :] @ np.swapaxes(M, -1, -2))[..., 0, :]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of x.

    Each norm is the dot product np.linalg.norm takes of a single vector;
    np.linalg.norm with an axis sums squares instead, which can differ in
    the last bit.
    """
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def quadratic_cost(x: np.ndarray, Q: np.ndarray, u: np.ndarray, R: np.ndarray):
    """x'Qx + u'Ru: a float for one state, one value per lane for a lane stack,
    each lane summed as a single state is."""
    if x.ndim == 1:
        # ndarray.dot, then + 0.0: `@` never returns -0.0 here, and a -0.0
        # from the bare product of one-element operands is the only bit in
        # which ndarray.dot differs from it (see `dot`).
        return float(x.dot(Q).dot(x) + u.dot(R).dot(u)) + 0.0
    x_row, u_row = x[..., None, :], u[..., None, :]
    return ((x_row @ Q) @ x[..., None] + (u_row @ R) @ u[..., None])[..., 0, 0]


@dataclass
class RiccatiSolution:
    """Stabilizing fixed point of the discrete algebraic Riccati map.

    P is the symmetric PSD cost-to-go matrix, K the feedback gain for
    u = -K x, residual the norm of P minus the Riccati map applied to P, and
    iterations the number of doubling steps taken.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int


def _dare_map(A, B, Q, R, P):
    BtP = dot(B.T, P)
    K = solve_linear(R + dot(BtP, B), dot(BtP, A))
    return Q + dot(dot(A.T, P), A - dot(B, K)), K


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
) -> RiccatiSolution:
    """Solve P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA by structured doubling.

    The structure-preserving doubling algorithm (Anderson 1978; Chu, Fan,
    Lin & Wang 2004) starts from A_0 = A, G_0 = B R^-1 B', H_0 = Q and sets,
    with W = I + G H and all right-hand sides taken from the old values,

        A <- A W^-1 A,   G <- G + A W^-1 G A',   H <- H + A' H W^-1 A.

    H_k is the Riccati map iterated 2^k - 1 times from P = Q, so it converges
    quadratically; A_k shrinks like the closed loop's 2^k-th power. Iteration
    stops once the max-abs change of H drops below DARE_TOL, within
    DARE_MAX_ITER steps; P is H, symmetrized, and K and the residual come
    from one Riccati map at P. Requires Q PSD, R PD, and (A, B)
    stabilizable: a non-stabilizable pair squares its unstable mode every
    step until W leaves the finite range, which raises NonConvergence.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))

    n = A.shape[0]
    eye = np.eye(n)
    Ak, G, H = A, dot(B, solve_linear(R, B.T)), Q
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(DARE_MAX_ITER):
            W = eye + dot(G, H)
            if not np.isfinite(W).all():
                raise NonConvergence(
                    f"DARE doubling step {it + 1} is not finite: an input is not"
                    " finite or (A, B) is not stabilizable"
                )
            # W^-1 A and W^-1 G from one solve.
            X = solve_linear(W, np.hstack([Ak, G]))
            WiA, WiG = X[:, :n], X[:, n:]
            H_next = H + dot(dot(Ak.T, H), WiA)
            G = G + dot(dot(Ak, WiG), Ak.T)
            Ak = dot(Ak, WiA)
            if np.max(np.abs(H_next - H)) < DARE_TOL:
                P = 0.5 * (H_next + H_next.T)
                mapped, K = _dare_map(A, B, Q, R, P)
                residual = float(np.linalg.norm(P - mapped))
                return RiccatiSolution(P=P, K=K, residual=residual, iterations=it + 1)
            H = H_next
    raise NonConvergence(f"DARE doubling did not converge in {DARE_MAX_ITER} steps")


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
        P, gains[j] = _dare_map(A_seq[j], B_seq[j], Q_seq[j], R_seq[j], cost_to_go[j + 1])
        cost_to_go[j] = 0.5 * (P + P.T)

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
