import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from igasolve.linalg import (
    DenseLU,
    RankDeficient,
    SingularMatrix,
    coo_to_csr,
    qr_factor,
    solve_normal_equations,
    solve_upper_triangular,
)

from oracles import (
    csr_fingerprint,
    forward_substitution_upper,
    scipy_coo_to_csr,
    thomas_tridiagonal,
)


class TestQR:
    def test_identity(self):
        fac = qr_factor(np.eye(3))
        assert np.allclose(fac.Q, np.eye(3))
        assert np.allclose(fac.R, np.eye(3))

    def test_single_column_normalization(self):
        fac = qr_factor(np.array([[3.0], [4.0]]))
        assert np.allclose(fac.R, [[5.0]])
        assert np.allclose(fac.Q.ravel(), [0.6, 0.8])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(42)
        M = rng.standard_normal((20, 5))
        fac = qr_factor(M)
        err = np.linalg.norm(fac.Q @ fac.R - M) / np.linalg.norm(M)
        assert err <= 1e-13

    def test_orthonormality_under_conditioning(self):
        # condition numbers up to ~1e8 keep Q^T Q near identity
        rng = np.random.default_rng(7)
        for kappa in (1e2, 1e5, 1e8):
            U, _ = np.linalg.qr(rng.standard_normal((30, 6)))
            V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            s = np.geomspace(1.0, 1.0 / kappa, 6)
            M = U @ np.diag(s) @ V.T
            fac = qr_factor(M)
            assert np.abs(fac.Q.T @ fac.Q - np.eye(6)).max() <= 1e-10
            assert np.all(np.diag(fac.R) > 0)

    def test_rank_deficient_column_reported(self):
        M = np.ones((4, 3))
        M[:, 1] = 2.0 * M[:, 0]
        with pytest.raises(RankDeficient) as ei:
            qr_factor(M)
        assert ei.value.column == 1

    def test_zero_first_column(self):
        with pytest.raises(RankDeficient) as ei:
            qr_factor(np.zeros((4, 2)))
        assert ei.value.column == 0

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_factor(np.ones((2, 4)))


class TestTriangular:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_upper_triangular(np.eye(3), b), b)

    def test_hand_oracle(self):
        R = np.array([[2.0, 1.0], [0.0, 4.0]])
        b = np.array([4.0, 8.0])
        x = solve_upper_triangular(R, b)
        assert np.allclose(x, [1.0, 2.0])
        assert np.allclose(x, forward_substitution_upper(R, b))

    def test_zero_pivot(self):
        with pytest.raises(RankDeficient) as ei:
            solve_upper_triangular(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        assert ei.value.column == 1

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        R = np.triu(rng.standard_normal((12, 12))) + 5.0 * np.eye(12)
        b = rng.standard_normal(12)
        x = solve_upper_triangular(R, b)
        assert np.linalg.norm(R @ x - b) <= 1e-13 * np.linalg.norm(b)


class TestNormalEquations:
    def test_identity(self):
        e = np.ones(4)
        assert np.allclose(solve_normal_equations(np.eye(4), e), e)

    def test_diagonal(self):
        d = solve_normal_equations(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        assert np.allclose(d, [1.0, 0.25])

    def test_two_by_two_inverse_oracle(self):
        R = np.array([[1.0, 1.0], [0.0, 1.0]])
        d = solve_normal_equations(R, np.array([1.0, 1.0]))
        # R^T R = [[1,1],[1,2]]; inverse applied to (1,1) gives (1,0)
        assert np.allclose(d, [1.0, 0.0], atol=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            R = np.triu(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
            rhs = rng.standard_normal(8)
            d = solve_normal_equations(R, rhs)
            d_ref = np.linalg.solve(R.T @ R, rhs)
            assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)


class TestDenseLU:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(DenseLU(np.eye(3)).solve(b), b)

    def test_diagonal(self):
        x = DenseLU(np.diag([2.0, 3.0])).solve(np.array([2.0, 6.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_poisson_vs_thomas_oracle(self):
        n = 7
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        b = np.ones(n)
        x = DenseLU(A).solve(b)
        ref = thomas_tridiagonal(-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1), b)
        assert np.allclose(x, ref, atol=1e-12)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            DenseLU(np.ones((3, 3))).solve(np.ones(3))

    def test_cached_factorization_reuse(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        lu = DenseLU(A)
        for _ in range(3):
            b = rng.standard_normal(10)
            assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


class TestSparse:
    def test_duplicates_summed(self):
        A = coo_to_csr([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
        assert A[0, 0] == 3.0 and A[1, 1] == 5.0
        assert A.nnz == 2

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(9)
        D = rng.standard_normal((50, 50))
        D[np.abs(D) < 1.0] = 0.0
        A = sp.csr_matrix(D)
        for _ in range(5):
            x = rng.standard_normal(50)
            assert np.linalg.norm(A @ x - D @ x) <= 1e-14 * max(np.linalg.norm(D @ x), 1.0)


@st.composite
def triplets(draw):
    """Unsorted triplets on a small matrix, so most entries repeat; values of
    mixed magnitude make every summation order round differently."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n_rows, n)
    cols = rng.integers(0, n_cols, n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return rows, cols, vals, (n_rows, n_cols)


class TestCooToCsrOracle:
    """The stable-sort finalisation against scipy's own, bit for bit."""

    @settings(deadline=None)
    @given(t=triplets())
    def test_bitwise_equal_to_scipy(self, t):
        rows, cols, vals, shape = t
        assert (csr_fingerprint(coo_to_csr(rows, cols, vals, shape))
                == csr_fingerprint(scipy_coo_to_csr(rows, cols, vals, shape)))

    def test_many_duplicates_of_mixed_magnitude(self):
        rng = np.random.default_rng(3)
        n = 20000
        rows, cols = rng.integers(0, 7, n), rng.integers(0, 5, n)
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        assert (csr_fingerprint(coo_to_csr(rows, cols, vals, (7, 5)))
                == csr_fingerprint(scipy_coo_to_csr(rows, cols, vals, (7, 5))))

    def test_empty(self):
        empty = np.zeros(0, dtype=np.intp)
        A = coo_to_csr(empty, empty, np.zeros(0), (4, 3))
        assert A.shape == (4, 3) and A.nnz == 0
        assert csr_fingerprint(A) == csr_fingerprint(
            scipy_coo_to_csr(empty, empty, np.zeros(0), (4, 3)))

    def test_explicit_zeros_kept(self):
        A = coo_to_csr([0, 0, 1], [1, 1, 0], [1.0, -1.0, 2.0], (2, 2))
        assert A.nnz == 2 and A[0, 1] == 0.0

    @pytest.mark.parametrize("rows,cols", [
        ([0, -1], [0, 0]), ([0, 3], [0, 0]), ([0, 0], [-2, 0]), ([0, 0], [0, 2]),
    ], ids=["row-negative", "row-too-large", "col-negative", "col-too-large"])
    def test_out_of_range_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            coo_to_csr(rows, cols, [1.0, 2.0], (3, 2))
        with pytest.raises(ValueError):
            scipy_coo_to_csr(rows, cols, [1.0, 2.0], (3, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coo_to_csr([0, 1], [0], [1.0, 2.0], (2, 2))
