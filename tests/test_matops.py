import math

import numpy as np
import pytest
import scipy.linalg

import ratstab as rs
from ratstab.errors import ConfigError, ContractViolation, NotHurwitzError
from ratstab.matops import characteristic_polynomial

from conftest import A_K, A_L, P_CLOSED, S_CLOSED, random_hurwitz, solve_lyapunov_2x2_by_hand


def test_companion_n2():
    A, B, C = rs.build_companion(2)
    assert A.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert B.tolist() == [0.0, 1.0]
    assert C.tolist() == [1.0, 0.0]


def test_companion_n1():
    A, B, C = rs.build_companion(1)
    assert A.tolist() == [[0.0]]
    assert B.tolist() == [1.0]
    assert C.tolist() == [1.0]


def test_companion_n3_pattern():
    A, _, _ = rs.build_companion(3)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 2] = 1.0
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("n", [0, -1, 17, 2.5, True])
def test_companion_rejects_bad_dimension(n):
    with pytest.raises(ConfigError):
        rs.build_companion(n)


def test_lyapunov_diagonal_case():
    cert = rs.solve_lyapunov(-np.eye(2))
    assert np.allclose(cert.solution, 0.5 * np.eye(2), atol=1e-14)


def test_lyapunov_closed_forms():
    s = rs.solve_lyapunov(A_K)
    assert np.max(np.abs(s.solution - S_CLOSED)) <= 1e-12
    p = rs.solve_lyapunov(A_L)
    assert np.max(np.abs(p.solution - P_CLOSED)) <= 1e-12
    # cross-check the frozen fractions against the by-hand elimination oracle
    assert np.max(np.abs(S_CLOSED - solve_lyapunov_2x2_by_hand(A_K))) <= 1e-14
    assert np.max(np.abs(P_CLOSED - solve_lyapunov_2x2_by_hand(A_L))) <= 1e-14


def test_lyapunov_certificate_quality():
    for A in (A_L, A_K):
        cert = rs.solve_lyapunov(A)
        assert cert.residual <= 1e-10
        assert cert.min_eig > 0.0
        assert np.array_equal(cert.solution, cert.solution.T)


def test_lyapunov_random_hurwitz_property():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        A = random_hurwitz(rng, n)
        cert = rs.solve_lyapunov(A)
        assert cert.residual <= 1e-10
        assert cert.min_eig > 0.0
        # independent route: Bartels-Stewart via scipy
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(n))
        assert np.max(np.abs(cert.solution - ref)) <= 1e-8 * max(1.0, cert.spectral_norm)


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(NotHurwitzError):
        rs.solve_lyapunov(rs.build_companion(2)[0])  # nilpotent
    with pytest.raises(NotHurwitzError):
        rs.solve_lyapunov(np.diag([1.0, -2.0]))  # solvable but indefinite
    with pytest.raises(NotHurwitzError):
        rs.solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # singular operator
    with pytest.raises(NotHurwitzError):
        rs.solve_lyapunov(np.array([[-1e-309]]))  # X = 1/(2e-309) overflows to inf


def test_lyapunov_rejection_names_no_unmeasured_cause():
    # both eigenvalues are -1, yet X overflows: no eigenvalue pair sums to zero
    with pytest.raises(NotHurwitzError) as err:
        rs.solve_lyapunov(np.array([[-1.0, 1e200], [0.0, -1.0]]))
    assert "summing to zero" not in str(err.value)
    assert str(err.value).endswith("too ill-conditioned to certify in double precision")


@pytest.mark.parametrize("poles, n", [("repeated", n) for n in range(8, 17)]
                         + [("distinct", n) for n in range(8, 13)])
def test_lyapunov_high_dimension_companion_gains(poles, n):
    # Hurwitz companion gains whose solutions reach norms far above 1, so an
    # absolute residual test rejects them; the relative residual must not
    roots = -np.ones(n) if poles == "repeated" else -np.arange(1, n + 1, dtype=float)
    c = np.poly(roots)[1:]
    gains = rs.GainSet(L=-c, K=-c[::-1], theta=1.0)
    for A in (gains.A_L, gains.A_K):
        cert = rs.solve_lyapunov(A)
        assert cert.min_eig > 0.0
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(n))
        assert np.linalg.norm(cert.solution - ref) <= 1e-6 * np.linalg.norm(ref)


def test_spectral_norm_identity():
    assert rs.spectral_norm_sym(np.eye(2)) == pytest.approx(1.0, abs=1e-15)


def test_spectral_norm_reference_values():
    printed_s = np.array([[0.5172, -0.5], [-0.5, 0.5167]])
    assert rs.spectral_norm_sym(printed_s) == pytest.approx(1.0169, abs=1e-4)
    derived_s = rs.solve_lyapunov(A_K).solution
    assert rs.spectral_norm_sym(derived_s) == pytest.approx(1.016944, abs=1e-5)


def test_spectral_norm_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        rs.spectral_norm_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eigenvalues_vs_numpy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n))
        M = 0.5 * (M + M.T)
        mine = rs.sym_eigenvalues(M)
        ref = np.linalg.eigvalsh(M)
        assert np.max(np.abs(mine - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_sym_eigenvalues_vs_charpoly_roots_n3():
    rng = np.random.default_rng(3)
    for _ in range(25):
        M = rng.normal(size=(3, 3))
        M = 0.5 * (M + M.T)
        mine = rs.sym_eigenvalues(M)
        roots = np.sort(np.roots(characteristic_polynomial(M)).real)
        assert np.max(np.abs(mine - roots)) <= 1e-10 * max(1.0, float(np.max(np.abs(roots))))


def _eig_real_parts_2x2(A):
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return (tr - root) / 2.0, (tr + root) / 2.0
    return tr / 2.0, tr / 2.0


def test_hurwitz_examples():
    assert rs.is_hurwitz(A_L)
    assert rs.is_hurwitz(A_K)
    assert not rs.is_hurwitz(rs.build_companion(2)[0])
    assert rs.is_hurwitz(np.array([[0.0, 1.0], [-2.0, -3.0]]))  # roots -1, -2


def test_hurwitz_exhaustive_2x2_integer():
    values = range(-5, 6)
    for a in values:
        for b in values:
            for c in values:
                for d in values:
                    A = np.array([[a, b], [c, d]], dtype=float)
                    expected = max(_eig_real_parts_2x2(A)) < -1e-9
                    assert rs.is_hurwitz(A) == expected, A


def test_hurwitz_random_vs_numpy():
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        if trial % 2 == 0:
            A = rng.normal(size=(n, n)) * rng.uniform(0.5, 3.0)
        else:
            A = random_hurwitz(rng, n)
        expected = bool(np.max(np.linalg.eigvals(A).real) < -1e-9)
        assert rs.is_hurwitz(A) == expected


def test_hurwitz_marginal_is_conservative():
    assert not rs.is_hurwitz(np.zeros((1, 1)))
    assert not rs.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # pure imaginary pair


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hurwitz_of_a_non_finite_matrix_is_false(bad):
    assert not rs.is_hurwitz(np.array([[-1.0, bad], [0.0, -1.0]]))


@pytest.mark.parametrize("fn", [rs.is_hurwitz, rs.solve_lyapunov, rs.sym_eigenvalues])
def test_matrix_must_be_square_within_the_dimension_range(fn):
    with pytest.raises(ContractViolation, match="matrix must be square, got shape \\(2, 3\\)"):
        fn(np.ones((2, 3)))
    with pytest.raises(ConfigError, match="dimension must be an integer in 1..16, got 17"):
        fn(-np.eye(17))


def _known_pole_families(n):
    # (name, poles, Hurwitz?) with every pole real or in a conjugate pair
    head = lambda k: -np.arange(1, k + 1, dtype=float)
    families = [
        ("distinct", head(n), True),
        ("repeated", -np.ones(n), True),
        ("near_zero", np.append(head(n - 1), -1e-6), True),
        ("zero", np.append(head(n - 1), 0.0), False),
        ("unstable", np.append(-np.ones(n - 1), 0.5), False),
        ("inside_margin", np.append(head(n - 1), -1e-12), False),  # Re > -1e-9
    ]
    if n >= 2:
        families += [
            ("damped_pair", np.append(head(n - 2), [-0.1 + 1j, -0.1 - 1j]), True),
            ("imaginary_pair", np.append(head(n - 2), [1j, -1j]), False),
        ]
    return families


@pytest.mark.parametrize("n", range(1, 17))
def test_hurwitz_known_poles_companion_gains(n):
    # companion gains read off np.poly of known poles, in both closed-loop
    # forms; the verdict is fixed by the poles, not by a numerical oracle
    A, B, C = rs.build_companion(n)
    for name, poles, expected in _known_pole_families(n):
        c = np.real(np.poly(poles))[1:]
        for label, M in (("A_L", A + np.outer(-c, C)), ("A_K", A + np.outer(B, -c[::-1]))):
            assert rs.is_hurwitz(M) == expected, (name, label)


def test_delta_theta_values():
    assert np.array_equal(rs.delta_theta(1.0, 4), np.eye(4))
    assert np.allclose(np.diag(rs.delta_theta(2.0, 3)), [1.0, 0.5, 0.25], atol=1e-15)
    with pytest.raises(ConfigError):
        rs.delta_theta(0.0, 2)
    with pytest.raises(ConfigError):
        rs.delta_theta(-1.0, 2)


def test_delta_theta_conjugation_identities():
    rng = np.random.default_rng(5)
    thetas = [0.5, 1.0, 2.0, 8.0] + list(rng.uniform(1.5, 10.0, 4))
    for theta in thetas:
        for n in range(1, 7):
            A, _, C = rs.build_companion(n)
            delta = rs.delta_theta(theta, n)
            delta_inv = np.diag(1.0 / np.diag(delta))
            left = delta @ A @ delta_inv
            assert np.max(np.abs(left - theta * A)) <= 1e-12 * max(1.0, theta)
            assert np.max(np.abs(C @ delta_inv - C)) <= 1e-12


@pytest.mark.parametrize("M", [
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]]), id="zero-pair"),
])
def test_jacobi_on_zero_entries(M):
    # the 3 x 3 case runs the Jacobi sweeps, which skip a pair that is already zero
    assert np.allclose(rs.sym_eigenvalues(M), np.linalg.eigvalsh(M), rtol=0.0, atol=1e-14)


def test_lyapunov_rejects_an_infinite_entry():
    with pytest.raises(ContractViolation, match="matrix entries must be finite"):
        rs.solve_lyapunov(np.array([[-1.0, math.inf], [0.0, -1.0]]))
