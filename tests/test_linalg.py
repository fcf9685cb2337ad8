import numpy as np
import pytest

from gaps import linalg
from gaps.errors import NonConvergence, SingularMatrix
from gaps.linalg import (
    finite_horizon_lq,
    quadratic_cost,
    row_matmul,
    row_norms,
    solve_dare,
    solve_linear,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar(v):
    return [[float(v)]]


class TestSolveDare:
    def test_unstable_scalar(self):
        # P solves P^2 - 4P - 1 = 0, worked by hand before building.
        sol = solve_dare(scalar(2), scalar(1), scalar(1), scalar(1))
        assert sol.P[0, 0] == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-9)
        assert sol.K[0, 0] == pytest.approx(GOLDEN, abs=1e-9)
        assert sol.residual < 1e-10

    def test_memoryless_dynamics(self):
        # a = 0 collapses the fixed point to P = Q immediately.
        sol = solve_dare(scalar(0), scalar(1), scalar(1), scalar(1))
        assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sol.K[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_stable_scalar(self):
        # P solves P^2 - 0.25 P - 1 = 0.
        sol = solve_dare(scalar(0.5), scalar(1), scalar(1), scalar(1))
        root = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(root, abs=1e-9)
        assert sol.K[0, 0] == pytest.approx(0.5 * root / (1.0 + root), abs=1e-9)

    def test_closed_loop_radius_is_two_minus_golden(self):
        sol = solve_dare(scalar(2), scalar(1), scalar(1), scalar(1))
        assert abs(2.0 - sol.K[0, 0]) == pytest.approx(2.0 - GOLDEN, abs=1e-9)
        assert abs(2.0 - sol.K[0, 0]) < 1.0

    def test_residual_below_tolerance_on_random_systems(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-1, 1, (n, n)) * 0.9
            B = rng.uniform(-1, 1, (n, m))
            Q = np.eye(n) * rng.uniform(0.5, 2.0)
            R = np.eye(m) * rng.uniform(0.5, 2.0)
            sol = solve_dare(A, B, Q, R)
            assert sol.residual <= 1e-10
            assert np.allclose(sol.P, sol.P.T, rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_nonconvergence_raises(self):
        # Uncontrollable unstable mode cannot converge; doubling squares it
        # until it leaves the finite range, with no numpy warning.
        A = np.array([[2.0, 0.0], [0.0, 2.0]])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(NonConvergence, match="not finite"):
            solve_dare(A, B, np.eye(2), np.eye(1))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_input_raises_within_a_few_steps(self, monkeypatch):
        calls = []

        def counted(M, rhs):
            calls.append(M)
            return solve_linear(M, rhs)

        monkeypatch.setattr(linalg, "solve_linear", counted)
        A = np.array([[1.0, np.nan], [0.0, 0.5]])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(NonConvergence, match="not finite"):
            solve_dare(A, B, np.eye(2), np.eye(1))
        assert len(calls) <= 4


class TestFiniteHorizonLq:
    def test_one_step_hand_solution(self):
        # minimize r u^2 + Qf (a x + b u + v)^2 by hand:
        # u = -(a b Qf)/(r + b^2 Qf) x - (b Qf)/(r + b^2 Qf) v.
        Qf = 2.0 + np.sqrt(5.0)
        sol = finite_horizon_lq(
            [scalar(2)], [scalar(1)], [scalar(1)], [scalar(1)], scalar(Qf), 1
        )
        assert sol.gains[0][0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert sol.feedforward[0][0, 0] == pytest.approx(Qf / (1.0 + Qf), abs=1e-12)
        assert sol.feedforward[0][0, 0] == pytest.approx(0.8090169943749, abs=1e-10)

    def test_zero_feedforward_input_reduces_to_state_gain(self):
        sol = finite_horizon_lq(
            [scalar(2)] * 3, [scalar(1)] * 3, [scalar(1)] * 3, [scalar(1)] * 3,
            scalar(1), 3,
        )
        x = 1.7
        u_with_zero_v = -sol.gains[0][0, 0] * x - sum(
            f[0, 0] * 0.0 for f in sol.feedforward
        )
        assert u_with_zero_v == -sol.gains[0][0, 0] * x

    def test_long_horizon_matches_stationary_gain(self):
        k = 50
        A, B, Q, R = np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1)
        stationary = solve_dare(A, B, Q, R)
        sol = finite_horizon_lq([A] * k, [B] * k, [Q] * k, [R] * k, Q, k)
        assert np.allclose(sol.gains[0], stationary.K, atol=1e-8)

    def test_affine_law_minimizes_stacked_objective(self):
        # Independent oracle: dense normal-equations solve over stacked u.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            A = [rng.uniform(-1, 1, (n, n)) for _ in range(k)]
            B = [rng.uniform(-1, 1, (n, m)) for _ in range(k)]
            Q = [np.eye(n) * rng.uniform(0.5, 2) for _ in range(k)]
            R = [np.eye(m) * rng.uniform(0.5, 2) for _ in range(k)]
            Qf = np.eye(n) * rng.uniform(0.5, 2)
            v = [rng.standard_normal(n) for _ in range(k)]
            x = rng.standard_normal(n)

            sol = finite_horizon_lq(A, B, Q, R, Qf, k)
            u_first = -sol.gains[0] @ x - sum(
                sol.feedforward[j] @ v[j] for j in range(k)
            )

            F = [np.zeros((n, k * m)) for _ in range(k + 1)]
            c = [np.zeros(n) for _ in range(k + 1)]
            c[0] = x
            for j in range(k):
                F[j + 1] = A[j] @ F[j]
                F[j + 1][:, j * m : (j + 1) * m] += B[j]
                c[j + 1] = A[j] @ c[j] + v[j]
            H = np.zeros((k * m, k * m))
            g = np.zeros(k * m)
            for j in range(k):
                H += F[j].T @ Q[j] @ F[j]
                g += F[j].T @ Q[j] @ c[j]
                H[j * m : (j + 1) * m, j * m : (j + 1) * m] += R[j]
            H += F[k].T @ Qf @ F[k]
            g += F[k].T @ Qf @ c[k]
            u_stacked = np.linalg.solve(H, -g)[:m]

            denom = 1.0 + np.linalg.norm(u_stacked)
            assert np.linalg.norm(u_first - u_stacked) / denom < 1e-8

    def test_singular_inner_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            finite_horizon_lq(
                [scalar(1)], [scalar(0)], [scalar(1)], [scalar(0)], scalar(1), 1
            )

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_backward_pass_matches_matmul_form(self, time_varying):
        # The backward step written with `@`, as before it called the
        # Riccati map of solve_dare: gains and cost-to-go match bit for bit.
        rng = np.random.default_rng(31 + time_varying)
        for _ in range(60):
            n, m, k = (int(v) for v in rng.integers(1, [4, 4, 5]))
            count = k if time_varying else 1
            A = [rng.uniform(-1.5, 1.5, (n, n)) for _ in range(count)] * (k // count)
            B = [rng.uniform(-1, 1, (n, m)) for _ in range(count)] * (k // count)
            Q = [np.diag(rng.uniform(0.1, 2, n)) for _ in range(count)] * (k // count)
            R = [np.diag(rng.uniform(0.1, 2, m)) for _ in range(count)] * (k // count)
            Qf = np.diag(rng.uniform(0.1, 2, n))

            P_ref, gains_ref = [None] * (k + 1), [None] * k
            P_ref[k] = Qf
            for j in reversed(range(k)):
                BtP = B[j].T @ P_ref[j + 1]
                K = solve_linear(R[j] + BtP @ B[j], BtP @ A[j])
                P = Q[j] + A[j].T @ P_ref[j + 1] @ (A[j] - B[j] @ K)
                P_ref[j], gains_ref[j] = 0.5 * (P + P.T), K

            sol = finite_horizon_lq(A, B, Q, R, Qf, k)
            for got, want in zip(sol.gains + sol.cost_to_go, gains_ref + P_ref):
                assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_solve_linear_rejects_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


class TestSolveLinear:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_equal_to_numpy_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            M = rng.standard_normal((n, n)) + n * np.eye(n)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                assert np.array_equal(solve_linear(M, rhs), np.linalg.solve(M, rhs))

    def test_zero_leading_entry_is_pivoted_away(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        rhs = np.array([2.0, 3.0])
        assert np.array_equal(solve_linear(M, rhs), [3.0, 2.0])

    @pytest.mark.parametrize(
        "M",
        [
            [[2.0, 4.0], [1.0, 2.0]],  # exactly singular
            [[1e-13]],  # 1x1 pivot below PIVOT_TOL
            # The diagonal is far from zero, but after partial pivoting the
            # second pivot is 1 - 0.5 * (2 + 1e-13), about -5e-14.
            [[1.0, 1.0], [2.0, 2.0 + 1e-13]],
        ],
        ids=["singular", "tiny-1x1", "tiny-after-swap"],
    )
    def test_tiny_pivot_raises(self, M):
        M = np.array(M)
        with pytest.raises(SingularMatrix):
            solve_linear(M, np.ones(M.shape[0]))


class TestRowwise:
    """Stacked rows get the bits a single vector gets."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_row_norms_match_single_vector_norm(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((500, n)) * rng.uniform(0.0, 1e3, (500, 1))
        expected = np.array([np.linalg.norm(x) for x in X])
        assert np.array_equal(row_norms(X), expected)
        assert np.array_equal(row_norms(X.reshape(50, 10, n)), expected.reshape(50, 10))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
    def test_row_matmul_matches_single_vector_product(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        X = rng.standard_normal((300, n))
        M = rng.standard_normal((m, n))
        expected = np.array([x @ M.T for x in X])
        assert np.array_equal(row_matmul(X, M), expected)
        assert np.array_equal(row_matmul(X[0], M), X[0] @ M.T)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2)])
    def test_row_matmul_with_one_matrix_per_lane(self, n, m):
        rng = np.random.default_rng(n + 7 * m)
        X = rng.standard_normal((200, n))
        M = rng.standard_normal((200, m, n))
        assert np.array_equal(row_matmul(X, M), np.array([x @ k.T for x, k in zip(X, M)]))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (3, 2), (4, 4)])
    def test_quadratic_cost_matches_single_state_form(self, n, m):
        rng = np.random.default_rng(5 * n + m)
        X = rng.standard_normal((300, n))
        U = rng.standard_normal((300, m))
        G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        Q, R = G @ G.T, H @ H.T
        expected = np.array([float(x @ Q @ x + u @ R @ u) for x, u in zip(X, U)])
        assert np.array_equal(quadratic_cost(X, Q, U, R), expected)
        single = quadratic_cost(X[0], Q, U[0], R)
        assert type(single) is float and single == expected[0]
