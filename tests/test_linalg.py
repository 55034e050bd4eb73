import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from igasolve import linalg
from igasolve.iga import make_space
from igasolve.linalg import (
    DenseLU,
    RankDeficient,
    SingularMatrix,
    qr_factor,
    solve_normal_equations,
    solve_upper_triangular,
)
from igasolve.multigrid import build_hierarchy

from oracles import (
    coo_to_csr,
    csr_fingerprint,
    forward_substitution_upper,
    scipy_coo_to_csr,
    seed_qr_factor,
    thomas_tridiagonal,
)


class TestQR:
    def test_identity(self):
        Q, R = qr_factor(np.eye(3))
        assert np.allclose(Q, np.eye(3))
        assert np.allclose(R, np.eye(3))

    def test_single_column_normalization(self):
        Q, R = qr_factor(np.array([[3.0], [4.0]]))
        assert np.allclose(R, [[5.0]])
        assert np.allclose(Q.ravel(), [0.6, 0.8])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(42)
        M = rng.standard_normal((20, 5))
        Q, R = qr_factor(M)
        err = np.linalg.norm(Q @ R - M) / np.linalg.norm(M)
        assert err <= 1e-13

    def test_orthonormality_under_conditioning(self):
        # condition numbers up to ~1e8 keep Q^T Q near identity
        rng = np.random.default_rng(7)
        for kappa in (1e2, 1e5, 1e8):
            U, _ = np.linalg.qr(rng.standard_normal((30, 6)))
            V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            s = np.geomspace(1.0, 1.0 / kappa, 6)
            M = U @ np.diag(s) @ V.T
            Q, R = qr_factor(M)
            assert np.abs(Q.T @ Q - np.eye(6)).max() <= 1e-10
            assert np.all(np.diag(R) > 0)

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


@st.composite
def tall_matrices(draw):
    """Tall matrices whose columns span many scales, some of them nearly
    (or exactly) combinations of the columns before them."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 9, m)
    for j in range(1, m):
        eps = draw(st.sampled_from([None, 0.0, 1e-16, 1e-13, 1e-10, 1e-6]))
        if eps is not None:
            M[:, j] = M[:, :j] @ rng.standard_normal(j) + eps * rng.standard_normal(n)
    return M


def _qr_outcome(qr, M):
    """The bytes of (Q, R), or the column a RankDeficient names."""
    try:
        Q, R = qr(M)
    except RankDeficient as exc:
        return "rank-deficient", exc.column
    return Q.tobytes(), R.tobytes()


class TestQRSeedOracle:
    """``qr_factor`` against the seed's in-place accumulation, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(M=tall_matrices())
    def test_bitwise_equal_to_seed(self, M):
        def seed(M):
            fac = seed_qr_factor(M)
            return fac.Q, fac.R

        assert _qr_outcome(qr_factor, M) == _qr_outcome(seed, M)


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

    def test_non_finite_rhs_is_not_singular(self):
        # a blown-up right-hand side gives a non-finite solution of a sound
        # matrix; the caller's residual check, not the LU, reports it
        x = DenseLU(np.eye(3)).solve(np.array([np.inf, 0.0, 0.0]))
        assert not np.all(np.isfinite(x))

    def test_cached_factorization_reuse(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        lu = DenseLU(A)
        for _ in range(3):
            b = rng.standard_normal(10)
            assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


@st.composite
def lu_systems(draw):
    """A square matrix, random or graded over 16 orders by rows and columns
    (so partial pivoting reorders it), and right-hand sides with +0.0 and
    -0.0 entries, among them an all-zero column."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if draw(st.booleans()):
        A *= 10.0 ** rng.uniform(-8, 8, (n, 1)) * 10.0 ** rng.uniform(-8, 8, n)
    B = rng.standard_normal((n, 4))
    B[rng.random((n, 4)) < 0.3] = 0.0
    B[rng.random((n, 4)) < 0.3] = -0.0
    B[:, 3] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return A, B


class TestDenseLUBytes:
    """DenseLU calls LAPACK getrf/getrs itself; its factor, pivots and
    solutions must be scipy's lu_factor/lu_solve bytes."""

    @staticmethod
    def assert_scipy_bytes(A, B):
        lu = DenseLU(A)
        ref = scipy.linalg.lu_factor(A, check_finite=False)
        for mine, theirs in zip(lu._lu, ref):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        for b in B.T:
            x = lu.solve(b)
            assert x.tobytes() == scipy.linalg.lu_solve(ref, b, check_finite=False).tobytes()

    @settings(deadline=None)
    @given(system=lu_systems())
    def test_equals_scipy_lu_by_bytes(self, system):
        self.assert_scipy_bytes(*system)

    def test_coarsest_matrix_of_a_2d_p5_hierarchy(self):
        # the Galerkin matrix of N=32 under N=64: the largest coarsest grid
        # MAX_COARSE_DOF allows below a p=5 N=64 fine grid (N=64 has 4489 dof)
        A = build_hierarchy(make_space(5, 64, dims=2), 35).levels[0].A.toarray()
        assert A.shape == (1225, 1225)
        B = np.random.default_rng(4).standard_normal((1225, 3))
        B[::7, 1] = -0.0
        B[:, 2] = 0.0
        self.assert_scipy_bytes(A, B)

    def test_empty_and_one_by_one(self, capfd):
        lu = DenseLU(np.zeros((0, 0)))
        x = lu.solve(np.zeros(0))
        assert x.shape == (0,) and x.dtype == float
        with pytest.raises(ValueError):
            lu.solve(np.ones(2))
        self.assert_scipy_bytes(np.array([[3.0]]), np.array([[2.0, 0.0, -0.0]]))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("A", [np.zeros((1, 1)), np.ones((3, 3)), np.full((4, 4), np.nan),
                                   np.diag([1.0, np.inf])],
                             ids=["zero", "ones", "nan", "inf"])
    def test_singular_or_non_finite_matrix_rejected_quietly(self, A, capfd):
        with pytest.raises(SingularMatrix):
            DenseLU(A)
        assert capfd.readouterr() == ("", "")

    def test_factors_read_only(self):
        lu = DenseLU(np.array([[1.0, 2.0], [3.0, 4.0]]))
        for factor in lu._lu:
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 0


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
    """The oracles' stable-sort finalisation, which the seed's knot insertion
    uses, against scipy's own, bit for bit."""

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


class TestBlasThreads:
    # the two kernels whose bytes follow the BLAS thread count: the QR of an
    # iterate of about 17k values, and the coarsest-grid LU of a 2D N=64 cell
    SCRIPT = textwrap.dedent("""
        import hashlib
        import numpy as np
        from igasolve import bench
        from igasolve.linalg import qr_factor

        Q, R = qr_factor(np.random.default_rng(0).standard_normal((17161, 6)))
        print(hashlib.sha256(Q.tobytes() + R.tobytes()).hexdigest())
        cfg = bench.parse_config(bench.find_table_config(5))
        row, hist = bench.run_cell(cfg, (0.0, 2, 64, "rre(5)"))
        print(row.note or repr((hist.records, hist.converged)))
    """)

    def run(self, threads: str) -> str:
        src = str(Path(linalg.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        return proc.stdout

    def test_two_threads_give_the_one_thread_bytes(self):
        assert self.run("2") == self.run("1")

    def test_unpinnable_blas_named_on_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "_BLAS_SETTERS", ((np, "no_such_setter"),
                                                      (scipy, "no_such_setter")))
        linalg.pin_blas_to_one_thread()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("igasolve: cannot set numpy's BLAS (")
        assert lines[1].startswith("igasolve: cannot set scipy's BLAS (")
