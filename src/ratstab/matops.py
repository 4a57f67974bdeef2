"""Dense matrix kernel for small triangular-form control problems.

Everything here targets the low dimensions this toolkit works with
(n <= 16): companion-form construction, Lyapunov solving by Kronecker
vectorisation, symmetric eigenvalue bounds, a Hurwitz test on numpy's
eigenvalues and the diagonal gain-scaling matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NotHurwitzError, check_numbers

MAX_DIM = 16

# strict-stability threshold: eigenvalues must satisfy Re(lam) < -HURWITZ_MARGIN
HURWITZ_MARGIN = 1e-9

# relative residual |A'X + XA + I|_F / (2 |A|_F |X|_F + 1) accepted from a
# Lyapunov solve (the normwise backward error, Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 16)
RESIDUAL_TOL = 1e-10

_UNCERTIFIED = "input is not Hurwitz, or too ill-conditioned to certify in double precision"

_SYM_RTOL = 1e-9
_JACOBI_TOL = 1e-14


def _square(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation(f"matrix must be square, got shape {A.shape}")
    check_dimension(A.shape[0])
    return A


def check_dimension(n) -> None:
    """Raise ConfigError unless n is an integer in 1..MAX_DIM (True is not one)."""
    ok = isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n <= MAX_DIM
    check_numbers(("dimension", n, ok, f"an integer in 1..{MAX_DIM}"))


def build_companion(n: int):
    """Chain-of-integrators triple (A, B, C).

    A has ones on the superdiagonal and zeros elsewhere, B is the last
    standard basis vector and C the first basis covector.
    """
    check_dimension(n)
    A = np.diag(np.ones(n - 1), 1) if n > 1 else np.zeros((1, 1))
    B = np.zeros(n)
    B[-1] = 1.0
    C = np.zeros(n)
    C[0] = 1.0
    return A, B, C


def _require_symmetric(M: np.ndarray):
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.T) > _SYM_RTOL * scale:
        raise ContractViolation("matrix is not symmetric within 1e-9 relative")


def _jacobi_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi sweeps; off-diagonal mass driven below 1e-14 relative."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(60):
        off = math.sqrt(2.0 * float(np.sum(np.triu(A, 1) ** 2)))
        if off <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
    return np.sort(np.diag(A).copy())


def sym_eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Uses the closed-form quadratic for n <= 2 and cyclic Jacobi rotations
    for larger matrices.
    """
    A = _square(M)
    _require_symmetric(A)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]])
    if n == 2:
        mean = 0.5 * (A[0, 0] + A[1, 1])
        half_gap = math.hypot(0.5 * (A[0, 0] - A[1, 1]), A[0, 1])
        return np.array([mean - half_gap, mean + half_gap])
    return _jacobi_eigenvalues(A)


def spectral_norm_sym(M) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix."""
    eigs = sym_eigenvalues(M)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def characteristic_polynomial(A) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(lam) = lam^n + c1 lam^(n-1) + ... + cn.
    It stays as the tests' reference for sym_eigenvalues. No verdict uses
    it: on companion matrices from n = 11 its low-order coefficients lose
    the sign that decides stability (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965).
    """
    M = _square(A)
    n = M.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    B = np.eye(n)
    for k in range(1, n + 1):
        B = M @ B
        coeffs[k] = -np.trace(B) / k
        B = B + coeffs[k] * np.eye(n)
    return coeffs


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue satisfies Re(lam) < -1e-9.

    The eigenvalues come from numpy (LAPACK dgeev, with balancing);
    marginal and non-finite inputs come back False.
    """
    M = _square(A)
    if not np.all(np.isfinite(M)):
        return False
    return bool(np.max(np.linalg.eigvals(M).real) < -HURWITZ_MARGIN)


@dataclass(frozen=True)
class LyapunovCertificate:
    """Symmetric positive definite Lyapunov solution with its quality data.

    ``residual`` is the Frobenius norm of A'X + XA + I, ``spectral_norm``
    the largest eigenvalue of the solution and ``min_eig`` the smallest.
    """

    solution: np.ndarray
    residual: float
    spectral_norm: float
    min_eig: float


def solve_lyapunov(a_cl) -> LyapunovCertificate:
    """Solve A'X + XA = -I for symmetric positive definite X.

    The equation is vectorised into an n^2 x n^2 linear system through its
    Kronecker structure and solved by dense elimination with partial
    pivoting; the result is symmetrised as (X + X')/2. One test, run with
    numpy's warnings off, accepts X: 2|A|_F |X|_F is finite, the relative
    residual is at most RESIDUAL_TOL and then the smallest eigenvalue of X
    is positive. A singular or overflowing solve fails it. Otherwise
    NotHurwitzError states the measured numbers: the input is not Hurwitz,
    or too ill-conditioned to certify in double precision.
    """
    A = _square(a_cl)
    if not np.all(np.isfinite(A)):
        raise ContractViolation("matrix entries must be finite")
    n = A.shape[0]
    ident = np.eye(n)
    with np.errstate(all="ignore"):
        operator = np.kron(ident, A.T) + np.kron(A.T, ident)
        try:
            X = np.linalg.solve(operator, -ident.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError:  # exactly singular
            X = np.full((n, n), np.nan)
        X = 0.5 * (X + X.T)
        residual = float(np.linalg.norm(A.T @ X + X @ A + ident))
        scale = 2.0 * float(np.linalg.norm(A)) * float(np.linalg.norm(X))
        relative = residual / (scale + 1.0)
    eigs = sym_eigenvalues(X) if math.isfinite(scale) and relative <= RESIDUAL_TOL else [math.nan]
    min_eig = float(eigs[0])
    if not min_eig > 0.0:
        raise NotHurwitzError(
            f"Lyapunov solution not certified: 2|A||X| = {scale:.3e}, relative residual "
            f"{relative:.3e} (at most {RESIDUAL_TOL:.0e}), smallest eigenvalue {min_eig:.3e}; "
            f"{_UNCERTIFIED}"
        )
    return LyapunovCertificate(
        solution=X,
        residual=residual,
        spectral_norm=float(max(abs(eigs[0]), abs(eigs[-1]))),
        min_eig=min_eig,
    )


def delta_theta(theta: float, n: int) -> np.ndarray:
    """Diagonal scaling diag(1, 1/theta, ..., 1/theta^(n-1))."""
    check_numbers(("theta", theta, theta > 0.0, "positive and finite"))
    check_dimension(n)
    return np.diag(theta ** -np.arange(n, dtype=float))
