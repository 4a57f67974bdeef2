"""Dense matrix kernel for small triangular-form control problems.

Everything here targets the low dimensions this toolkit works with
(n <= 16): companion-form construction, Lyapunov solving by Kronecker
vectorisation, symmetric eigenvalue bounds, a Routh-Hurwitz stability
test and the diagonal gain-scaling matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, NotHurwitzError

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


def _square(M, what: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation(f"{what} must be square, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[0] > MAX_DIM:
        raise ConfigError(f"{what} dimension {A.shape[0]} outside 1..{MAX_DIM}")
    return A


def build_companion(n: int):
    """Chain-of-integrators triple (A, B, C).

    A has ones on the superdiagonal and zeros elsewhere, B is the last
    standard basis vector and C the first basis covector.
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_DIM:
        raise ConfigError(f"dimension must be an integer in 1..{MAX_DIM}, got {n!r}")
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


def _routh_first_column_positive(coeffs) -> bool:
    # coeffs = [1, c1, ..., cn]; stability needs every table pivot > 0,
    # and a zero pivot is counted as failure.
    c = [float(v) for v in coeffs]
    n = len(c) - 1
    if n == 0:
        return True
    if any(not math.isfinite(v) or v <= 0.0 for v in c):
        return False  # necessary condition for a monic Hurwitz polynomial
    width = (n + 2) // 2
    prev = c[0::2] + [0.0] * (width - len(c[0::2]))
    cur = c[1::2] + [0.0] * (width - len(c[1::2]))
    for _ in range(n - 1):
        pivot = cur[0]
        if not math.isfinite(pivot) or pivot <= 0.0:
            return False
        nxt = [prev[j + 1] - prev[0] * cur[j + 1] / pivot for j in range(width - 1)]
        nxt.append(0.0)
        prev, cur = cur, nxt
    return math.isfinite(cur[0]) and cur[0] > 0.0


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue satisfies Re(lam) < -1e-9.

    The strict threshold is enforced by shifting the matrix before the
    Routh-Hurwitz test; marginal and non-finite inputs come back False.
    """
    M = _square(A)
    if not np.all(np.isfinite(M)):
        return False
    shifted = M + HURWITZ_MARGIN * np.eye(M.shape[0])
    return _routh_first_column_positive(characteristic_polynomial(shifted))


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
    pivoting; the result is symmetrised as (X + X')/2. Raises
    NotHurwitzError when the operator is singular, the relative residual
    exceeds RESIDUAL_TOL or the solution fails positive definiteness: the
    input is then not Hurwitz, or too ill-conditioned for the solution to
    be certified in double precision.
    """
    A = _square(a_cl)
    if not np.all(np.isfinite(A)):
        raise ContractViolation("matrix entries must be finite")
    n = A.shape[0]
    ident = np.eye(n)
    operator = np.kron(ident, A.T) + np.kron(A.T, ident)
    try:
        vec = np.linalg.solve(operator, -ident.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NotHurwitzError(
            "Lyapunov operator is singular (eigenvalue pair summing to zero)"
        ) from exc
    X = vec.reshape(n, n)
    X = 0.5 * (X + X.T)
    residual = float(np.linalg.norm(A.T @ X + X @ A + ident))
    relative = residual / (2.0 * float(np.linalg.norm(A)) * float(np.linalg.norm(X)) + 1.0)
    if not math.isfinite(relative) or relative > RESIDUAL_TOL:
        raise NotHurwitzError(
            f"relative Lyapunov residual {relative:.3e} exceeds {RESIDUAL_TOL:.0e}; {_UNCERTIFIED}"
        )
    eigs = sym_eigenvalues(X)
    min_eig = float(eigs[0])
    if min_eig <= 0.0:
        raise NotHurwitzError(f"Lyapunov solution is not positive definite; {_UNCERTIFIED}")
    return LyapunovCertificate(
        solution=X,
        residual=residual,
        spectral_norm=float(max(abs(eigs[0]), abs(eigs[-1]))),
        min_eig=min_eig,
    )


def delta_theta(theta: float, n: int) -> np.ndarray:
    """Diagonal scaling diag(1, 1/theta, ..., 1/theta^(n-1))."""
    if not (theta > 0.0) or not math.isfinite(theta):
        raise ConfigError(f"theta must be positive and finite, got {theta!r}")
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_DIM:
        raise ConfigError(f"dimension must be an integer in 1..{MAX_DIM}, got {n!r}")
    return np.diag(theta ** -np.arange(n, dtype=float))
