"""Finite-dimensional Lie iteration for matrix group actions.

Commutants and transversal slices for the adjoint action, a
scaling-and-squaring matrix exponential, and the two quadratically
convergent iterations: the homogeneous one (a single right inverse of
the infinitesimal action) and the parametric one (normal forms along a
transversal, with the right inverse recomputed at each step).

Everything here is float64 with explicit tolerances; exact arithmetic
is reserved for the series modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BasinExceeded,
    InsufficientSteps,
    InvalidInput,
    NoConvergence,
    OrthogonalityCheckFailed,
    RankDeficient,
)

__all__ = [
    "SubspaceBasis",
    "IterationTrace",
    "GroupAction",
    "vector_action",
    "adjoint_action",
    "commutant_basis",
    "transversal_from_commutant",
    "matrix_exp",
    "lie_iterate_homogeneous",
    "lie_iterate_parametric",
    "convergence_order",
]

_RANK_TOL = 1e-10
ORBIT_CHECKS = 100


def _vec(M: np.ndarray) -> np.ndarray:
    return M.flatten(order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of matrices (or vectors) spanning a linear subspace."""

    mats: tuple

    def __post_init__(self):
        if self.mats:
            V = np.stack([np.asarray(m, dtype=float).ravel() for m in self.mats])
            g = V @ V.T
            w = np.linalg.eigvalsh(g)
            if w.min() < _RANK_TOL:
                raise ValueError("basis matrices are not independent to tolerance 1e-10")

    @property
    def dim(self) -> int:
        return len(self.mats)


def commutant_basis(A: np.ndarray) -> SubspaceBasis:
    """Orthonormal basis of C(A) = {B : [B, A] = 0}.

    Nullspace of X -> XA - AX via SVD of the n^2 x n^2 Sylvester operator,
    with rank cutoff at sigma < 1e-10 * sigma_max.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(A.T, eye) - np.kron(eye, A)  # vec(XA - AX), column-major vec
    _, sv, Vh = np.linalg.svd(K)
    smax = sv[0] if len(sv) and sv[0] > 0 else 1.0
    null_rows = [Vh[i] for i in range(len(sv)) if sv[i] < _RANK_TOL * smax]
    null_rows += [Vh[i] for i in range(len(sv), n * n)]
    mats = tuple(_unvec(v, n) for v in null_rows)
    return SubspaceBasis(mats=mats)


def transversal_from_commutant(A: np.ndarray, seed: int = 0) -> SubspaceBasis:
    """Transpose of the commutant: the orthogonal space of the adjoint orbit.

    Verifies <[A, X], B^T> = 0 (trace inner product) for ``ORBIT_CHECKS``
    random X per B before returning; failure raises OrthogonalityCheckFailed.
    """
    A = np.asarray(A, dtype=float)
    base = commutant_basis(A)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(A)))
    for B in base.mats:
        for _ in range(ORBIT_CHECKS):
            X = rng.standard_normal(A.shape)
            resid = abs(np.trace((A @ X - X @ A) @ B))  # <[A,X], B^T> = Tr([A,X] B)
            if resid > 1e-10 * scale * np.linalg.norm(X) * np.linalg.norm(B):
                raise OrthogonalityCheckFailed(
                    f"orbit-orthogonality residual {resid:.3e}"
                )
    return SubspaceBasis(mats=tuple(B.T.copy() for B in base.mats))


def matrix_exp(X: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a truncated Taylor series (rel. accuracy ~1e-12)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    nrm = np.linalg.norm(X, 1)
    squarings = 0
    if nrm > 0.5:
        squarings = int(np.ceil(np.log2(nrm / 0.5)))
        X = X / (2.0**squarings)
    acc = np.eye(n)
    term = np.eye(n)
    for m in range(1, 40):
        term = term @ X / m
        acc = acc + term
        if np.linalg.norm(term, 1) <= 1e-16 * np.linalg.norm(acc, 1):
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


@dataclass(frozen=True)
class GroupAction:
    """A linear group action given by its flow and its infinitesimal action."""

    apply: Callable
    infinitesimal: Callable


def vector_action() -> GroupAction:
    """GL(V) acting naturally on vectors: xi acts as e^xi v, xi(v) = xi v."""
    return GroupAction(
        apply=lambda xi, x: matrix_exp(xi) @ x,
        infinitesimal=lambda xi, x: xi @ x,
    )


def adjoint_action() -> GroupAction:
    """GL(n) acting on matrices by conjugation: xi(A) = [xi, A]."""
    return GroupAction(
        apply=lambda xi, x: matrix_exp(xi) @ x @ matrix_exp(-xi),
        infinitesimal=lambda xi, x: xi @ x - x @ xi,
    )


@dataclass
class IterationTrace:
    """Per-step norms of a Lie iteration and the fitted convergence order.

    ``quad_constant`` is the empirical constant of the quadratic bound
    |b_{n+1}| <= C |b_n|^2, measured from the first step; no certified
    basin is claimed for it.
    """

    b_norms: list = field(default_factory=list)
    xi_norms: list = field(default_factory=list)
    alpha_norms: list = field(default_factory=list)
    termination: str = ""
    order: float | None = None
    quad_constant: float | None = None

    def to_json(self) -> dict:
        return {
            "b_norms": self.b_norms,
            "xi_norms": self.xi_norms,
            "alpha_norms": self.alpha_norms,
            "termination": self.termination,
            "norm": "frobenius",
            "order": self.order,
            "quad_constant": self.quad_constant,
        }


def default_basin_radius(a: np.ndarray) -> float:
    """0.1 x smallest spectral gap for matrices with distinct real spectrum,
    0.05 for other matrices, half the scale for plain vectors."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        ev = np.linalg.eigvals(a)
        if np.max(np.abs(ev.imag)) < 1e-12:
            ev = np.sort(ev.real)
            gaps = np.diff(ev)
            if len(gaps) and gaps.min() > 1e-8:
                return 0.1 * float(gaps.min())
        return 0.05
    return 0.5 * max(1.0, float(np.linalg.norm(a)))


def _iterate(a, b, step, max_iter, tol):
    """The Lie loop shared by both iterations.

    ``step(b_n, trace)`` returns (xi_n, b_{n+1}) and may record extra
    per-step norms in ``trace``.  The loop stops once |b| <= tol; it raises
    NoConvergence on a non-finite |b|, or when ``max_iter`` steps did not
    reduce it, and BasinExceeded when |b| exceeds ``default_basin_radius(a)``.
    """
    basin = default_basin_radius(a)
    if np.linalg.norm(b) > basin:
        raise BasinExceeded(f"|b| = {np.linalg.norm(b):.3e} exceeds basin {basin:.3e}")
    trace = IterationTrace()
    gens = []
    bn = b
    trace.b_norms.append(float(np.linalg.norm(bn)))
    for _ in range(max_iter):
        if trace.b_norms[-1] <= tol:
            trace.termination = "converged"
            break
        xi, bn = step(bn, trace)
        gens.append(xi)
        trace.xi_norms.append(float(np.linalg.norm(xi)))
        trace.b_norms.append(float(np.linalg.norm(bn)))
        if not np.isfinite(trace.b_norms[-1]):
            raise NoConvergence(f"|b| is not finite after {len(gens)} steps")
    else:
        if trace.b_norms[-1] >= trace.b_norms[0]:
            raise NoConvergence(f"no error reduction after {max_iter} steps")
        trace.termination = "max_iter"
    if len(trace.b_norms) >= 2 and trace.b_norms[0] > 0:
        trace.quad_constant = trace.b_norms[1] / trace.b_norms[0] ** 2
    try:
        trace.order = convergence_order(trace)
    except InsufficientSteps:
        pass  # too few steps to fit: the order stays None
    return gens, trace


def lie_iterate_homogeneous(
    action: GroupAction,
    a: np.ndarray,
    b: np.ndarray,
    j: Callable,
    max_iter: int = 40,
    tol: float = 1e-12,
):
    """Homogeneous Lie iteration: xi_n = j(b_n), b_{n+1} = e^{-xi_n}(a + b_n) - a.

    ``j`` must be a right inverse of the infinitesimal action at ``a``
    (checked once on random vectors); returns the generator list and the
    iteration trace once |b| <= tol.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rng = np.random.default_rng(0)
    for _ in range(8):
        v = rng.standard_normal(b.shape)
        err = np.linalg.norm(action.infinitesimal(j(v), a) - v)
        if not err <= 1e-10 * np.linalg.norm(v):  # a NaN error fails too
            raise InvalidInput("j is not a right inverse of the infinitesimal action")

    def step(bn, trace):
        xi = j(bn)
        return xi, action.apply(-xi, a + bn) - a

    return _iterate(a, b, step, max_iter, tol)


def lie_iterate_parametric(
    a: np.ndarray,
    b: np.ndarray,
    transversal: SubspaceBasis,
    max_iter: int = 40,
    tol: float = 1e-12,
):
    """Parametric Lie iteration for the adjoint action along a transversal.

    At each step the minimal-norm least-squares solution of
    xi(a_n) + alpha = b_n over (transversal, gl(n)) is used, then
    a_{n+1} = a_n + alpha_n and b_{n+1} = e^{-xi_n}(a_n + b_n)e^{xi_n} - a_{n+1}.
    Returns (generators, alpha_total, trace) with
    prod e^{-xi_i} (a + b) prod e^{xi_i} = a + alpha_total + O(tol).
    """
    action = adjoint_action()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    T_cols = np.stack([_vec(np.asarray(M, dtype=float)) for M in transversal.mats], axis=1)
    eye = np.eye(n)
    an = a.copy()

    def step(bn, trace):
        nonlocal an
        K = np.kron(an.T, eye) - np.kron(eye, an)  # vec([xi, an]) columns
        M = np.hstack([T_cols, K])
        x, _, rank, _ = np.linalg.lstsq(M, _vec(bn), rcond=_RANK_TOL)
        if rank < n * n:
            raise RankDeficient(
                "extended map (alpha, xi) -> xi(a) + alpha is not surjective"
            )
        alpha = sum(c * np.asarray(Mt, dtype=float) for c, Mt in zip(x[: transversal.dim], transversal.mats))
        xi = _unvec(x[transversal.dim :], n)
        trace.alpha_norms.append(float(np.linalg.norm(alpha)))
        an1 = an + alpha
        bn = action.apply(-xi, an + bn) - an1
        an = an1
        return xi, bn

    gens, trace = _iterate(a, b, step, max_iter, tol)
    return gens, an - a, trace


def convergence_order(trace: IterationTrace) -> float:
    """Least-squares slope of log |b_{n+1}| against log |b_n|.

    Uses only consecutive pairs whose norms both exceed 100 x machine
    epsilon; requires at least three qualifying steps.
    """
    eps = 100 * np.finfo(float).eps
    ns = trace.b_norms
    pairs = [
        (np.log(ns[i]), np.log(ns[i + 1]))
        for i in range(len(ns) - 1)
        if ns[i] > eps and ns[i + 1] > eps
    ]
    if len(pairs) < 2 or len([x for x in ns if x > eps]) < 3:
        raise InsufficientSteps("need >= 3 steps with errors above 100*eps")
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    return float(coef[0])
