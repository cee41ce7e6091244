import numpy as np
import pytest
import scipy.linalg

from kamforge.errors import (
    BasinExceeded,
    InsufficientSteps,
    NoConvergence,
    OrthogonalityCheckFailed,
    RankDeficient,
)
from kamforge import lie
from kamforge.lie import (
    ORBIT_CHECKS,
    IterationTrace,
    SubspaceBasis,
    adjoint_action,
    GroupAction,
    commutant_basis,
    convergence_order,
    lie_iterate_homogeneous,
    lie_iterate_parametric,
    matrix_exp,
    transversal_from_commutant,
    vector_action,
)

NIL = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_commutant_dimensions():
    assert commutant_basis(np.diag([1.0, 2.0])).dim == 2
    assert commutant_basis(NIL).dim == 2
    assert commutant_basis(np.eye(3)).dim == 9


def test_commutant_diag_is_diagonal():
    for B in commutant_basis(np.diag([1.0, 2.0])).mats:
        assert abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12


def test_commutant_nilpotent_span():
    # C(N) = span{I, N}: every basis element must solve [B, N] = 0
    basis = commutant_basis(NIL)
    for B in basis.mats:
        assert np.linalg.norm(B @ NIL - NIL @ B) < 1e-12
        # and lies in span{I, N}
        coeffs = np.linalg.lstsq(
            np.stack([np.eye(2).ravel(), NIL.ravel()], axis=1), B.ravel(), rcond=None
        )[0]
        recon = coeffs[0] * np.eye(2) + coeffs[1] * NIL
        assert np.linalg.norm(recon - B) < 1e-12


def test_transversal_examples(rng=None):
    tv = transversal_from_commutant(np.diag([1.0, 2.0]))
    for B in tv.mats:
        assert abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12
    tvn = transversal_from_commutant(NIL)
    target = np.stack([np.eye(2).ravel(), NIL.T.ravel()], axis=1)
    for B in tvn.mats:
        resid = B.ravel() - target @ np.linalg.lstsq(target, B.ravel(), rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-12
    # generic matrix with distinct eigenvalues: transversal dimension n
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [6.0, -11.0, 6.0]])  # eigs 1,2,3
    assert transversal_from_commutant(A).dim == 3


def test_orbit_checks_draw_one_block_from_the_stream():
    # one (k, n, n) draw takes the values of k successive (n, n) draws
    k, n = ORBIT_CHECKS, 3
    one_by_one = np.random.default_rng(11)
    block = np.random.default_rng(11).standard_normal((k, n, n))
    assert np.array_equal(block, np.stack([one_by_one.standard_normal((n, n)) for _ in range(k)]))


def test_orbit_check_names_first_failing_residual(monkeypatch):
    # the second basis matrix does not commute with A = diag(1, 2):
    # Tr([A, X] NIL) = X[1, 0] exactly, so its first X fails
    A = np.diag([1.0, 2.0])
    monkeypatch.setattr(lie, "commutant_basis", lambda a: SubspaceBasis(mats=(np.eye(2) / np.sqrt(2.0), NIL)))
    rng = np.random.default_rng(3)
    X = [rng.standard_normal((2, 2)) for _ in range(ORBIT_CHECKS + 1)][ORBIT_CHECKS]
    with pytest.raises(OrthogonalityCheckFailed) as err:
        transversal_from_commutant(A, seed=3)
    assert str(err.value) == f"orbit-orthogonality residual {abs(X[1, 0]):.3e}"


def test_orthogonality_identity():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    basis = commutant_basis(A)
    for B in basis.mats:
        for _ in range(100):
            X = rng.standard_normal((4, 4))
            # <[A,X], B^T> = Tr([A,X] B)
            val = abs(np.trace((A @ X - X @ A) @ B))
            assert val < 1e-10 * max(1.0, np.linalg.norm(A) * np.linalg.norm(X))


def test_commutant_orbit_dimension_split():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        c = commutant_basis(A).dim
        eye = np.eye(n)
        K = np.kron(A.T, eye) - np.kron(eye, A)
        orbit = np.linalg.matrix_rank(K, tol=1e-10 * np.linalg.norm(K, 2))
        assert c + orbit == n * n


def test_subspace_basis_rejects_dependent():
    with pytest.raises(ValueError):
        SubspaceBasis(mats=(np.eye(2), 2 * np.eye(2)))


def test_matrix_exp():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(matrix_exp(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2)]))
    assert np.array_equal(matrix_exp(NIL), np.eye(2) + NIL)
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.standard_normal((5, 5))
        ref = scipy.linalg.expm(X)
        assert np.linalg.norm(matrix_exp(X) - ref) < 1e-11 * np.linalg.norm(ref)


def _projection_j(a):
    return lambda v: np.outer(v, a) / float(a @ a)


def test_homogeneous_trivial_and_scalar():
    act = vector_action()
    a = np.array([1.0, 0.0])
    gens, trace = lie_iterate_homogeneous(act, a, np.zeros(2), _projection_j(a))
    assert gens == [] and trace.termination == "converged"
    a1 = np.array([1.0])
    gens, trace = lie_iterate_homogeneous(act, a1, np.array([0.1]), _projection_j(a1))
    prod = 1.0
    for xi in gens:
        prod *= float(np.exp(-xi[0, 0]))
    assert abs(prod - 1 / 1.1) < 1e-12


def test_homogeneous_quadratic_error_sequence():
    act = vector_action()
    a = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(8)
    for _ in range(5):
        b = rng.standard_normal(3)
        b *= 1e-2 / np.linalg.norm(b)
        gens, trace = lie_iterate_homogeneous(act, a, b, _projection_j(a))
        ns = trace.b_norms
        for i in range(len(ns) - 1):
            # quadratic contraction is observable above the roundoff floor
            if ns[i] > 1e-7:
                assert ns[i + 1] <= 5.0 * ns[i] ** 2
        # scalar model comparison: f(x) = e^-x (1+x) - 1 obeys |f| <= C x^2
        x = np.linspace(-0.05, 0.05, 101)
        fx = np.exp(-x) * (1 + x) - 1
        assert np.all(np.abs(fx) <= 1.1 * x**2 + 1e-16)


def test_homogeneous_right_inverse_check():
    act = vector_action()
    a = np.array([1.0, 0.0])
    bad_j = lambda v: np.zeros((2, 2))
    with pytest.raises(ValueError):
        lie_iterate_homogeneous(act, a, np.array([0.01, 0.0]), bad_j)


def test_homogeneous_right_inverse_check_rejects_nan():
    a = np.zeros(2)
    nan_j = lambda v: np.outer(v, a) / float(a @ a)  # 0/0
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        lie_iterate_homogeneous(vector_action(), a, np.array([0.01, 0.0]), nan_j)


def test_non_finite_error_is_no_convergence():
    a = np.array([1.0])
    broken = GroupAction(
        apply=lambda xi, x: np.full_like(x, np.nan),
        infinitesimal=vector_action().infinitesimal,
    )
    with pytest.raises(NoConvergence):
        lie_iterate_homogeneous(broken, a, np.array([0.1]), _projection_j(a))


def test_homogeneous_basin():
    act = vector_action()
    a = np.array([1.0])
    with pytest.raises(BasinExceeded):
        lie_iterate_homogeneous(act, a, np.array([10.0]), _projection_j(a))


def test_parametric_diagonal():
    a = np.diag([1.0, 2.0])
    rng = np.random.default_rng(9)
    b = rng.standard_normal((2, 2))
    b *= 0.02 / np.linalg.norm(b)
    tv = transversal_from_commutant(a)
    gens, alpha, trace = lie_iterate_parametric(a, b, tv)
    nf = a + alpha
    assert abs(nf[0, 1]) < 1e-14 and abs(nf[1, 0]) < 1e-14
    eig = np.sort(np.linalg.eigvals(a + b).real)
    assert np.max(np.abs(np.sort(np.diag(nf)) - eig)) < 1e-10
    assert trace.order is not None and trace.order >= 1.8


def test_parametric_nilpotent():
    a = NIL
    rng = np.random.default_rng(10)
    b = rng.standard_normal((2, 2))
    b *= 0.01 / np.linalg.norm(b)
    tv = transversal_from_commutant(a)
    gens, alpha, trace = lie_iterate_parametric(a, b, tv)
    nf = a + alpha
    lam1 = np.trace(a + b) / 2
    lam2 = np.trace(a + b) ** 2 / 4 - np.linalg.det(a + b)
    assert abs(nf[0, 0] - lam1) < 1e-8
    assert abs(nf[1, 1] - lam1) < 1e-8
    assert abs(nf[1, 0] - lam2) < 1e-8
    assert abs(nf[0, 1] - 1.0) < 1e-12


def test_parametric_trivial_and_reconstruction():
    a = np.diag([1.0, 2.0])
    tv = transversal_from_commutant(a)
    gens, alpha, trace = lie_iterate_parametric(a, np.zeros((2, 2)), tv)
    assert gens == [] and np.linalg.norm(alpha) == 0.0
    rng = np.random.default_rng(12)
    b = rng.standard_normal((2, 2))
    b *= 0.02 / np.linalg.norm(b)
    gens, alpha, trace = lie_iterate_parametric(a, b, tv, tol=1e-13)
    x = a + b
    for xi in gens:
        E = matrix_exp(-xi)
        Einv = matrix_exp(xi)
        x = E @ x @ Einv
    assert np.linalg.norm(x - (a + alpha)) <= 1e-12
    # conjugacy invariants preserved
    assert np.allclose(
        np.sort(np.linalg.eigvals(a + b)), np.sort(np.linalg.eigvals(a + alpha)), atol=1e-8
    )


def test_parametric_rank_deficient():
    # transversal too small: cannot span normal directions of a derogatory matrix
    a = np.zeros((2, 2))  # [xi, 0] = 0, orbit is {0}; need the full 4-dim transversal
    tv = SubspaceBasis(mats=(np.eye(2) / np.sqrt(2.0),))
    with pytest.raises(RankDeficient):
        lie_iterate_parametric(a, 0.01 * np.eye(2), tv)


def test_convergence_order():
    tr = IterationTrace(b_norms=[1e-1, 1e-2, 1e-4, 1e-8])
    assert abs(convergence_order(tr) - 2.0) < 1e-6
    tr = IterationTrace(b_norms=[0.1 * 0.5**i for i in range(8)])
    assert abs(convergence_order(tr) - 1.0) < 1e-6
    with pytest.raises(InsufficientSteps):
        convergence_order(IterationTrace(b_norms=[1e-1, 1e-20]))
