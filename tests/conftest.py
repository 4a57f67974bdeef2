import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratstab as rs

# benchmark two-state system used throughout the suite
BENCH_L = np.array([-14.0, -28.0])
BENCH_K = np.array([-30.0, -30.0])
BENCH_THETA = 8.0
BENCH_TAU = 1.0
BENCH_X0 = np.array([-20.0, -10.0])
BENCH_XHAT0 = np.array([10.0, 10.0])

A_L = np.array([[-14.0, 1.0], [-28.0, 0.0]])
A_K = np.array([[0.0, 1.0], [-30.0, -30.0]])

# hand-derived closed forms for A'X + XA = -I (2x2 symmetric elimination)
P_CLOSED = np.array([[29.0 / 28.0, -0.5], [-0.5, 225.0 / 784.0]])
S_CLOSED = np.array([[61.0 / 60.0, 1.0 / 60.0], [1.0 / 60.0, 31.0 / 1800.0]])


@pytest.fixture
def bench_gains():
    return rs.GainSet(L=BENCH_L, K=BENCH_K, theta=BENCH_THETA)


@pytest.fixture
def bench_system():
    return rs.SystemSpec(
        n=2,
        tau=BENCH_TAU,
        f=rs.make_nonlinearity("paper_example", 2),
        lipschitz_k=0.5,
        domain_box=((-30.0, 30.0), (-30.0, 30.0)),
    )


@pytest.fixture
def linear_system():
    return rs.SystemSpec(n=2, tau=BENCH_TAU, f=rs.make_nonlinearity("zero", 2), lipschitz_k=0.0)


def solve_lyapunov_2x2_by_hand(A: np.ndarray) -> np.ndarray:
    """Independent oracle: write out A'X + XA = -I entrywise for symmetric X
    and solve the 3x3 linear system for (x11, x12, x22)."""
    a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    # rows: equation (1,1), (1,2), (2,2)
    M = np.array(
        [
            [2 * a, 2 * c, 0.0],
            [b, a + d, c],
            [0.0, 2 * b, 2 * d],
        ]
    )
    rhs = np.array([-1.0, 0.0, -1.0])
    x11, x12, x22 = np.linalg.solve(M, rhs)
    return np.array([[x11, x12], [x12, x22]])


def random_hurwitz(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random matrix shifted to a strictly stable spectrum (test generator only)."""
    M = rng.normal(size=(n, n))
    shift = float(np.max(np.linalg.eigvals(M).real)) + rng.uniform(0.2, 2.0)
    return M - shift * np.eye(n)


def ulp_distance(a, b) -> np.ndarray:
    """Elementwise distance in units in the last place between two float arrays.

    Equal non-finite values (nan and nan, inf and inf) are 0 apart; a finite
    value and a non-finite one, or two different non-finite ones, are
    infinitely far. -0.0 and 0.0 are 0 apart.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.full(a.shape, np.inf)
    same = (np.isnan(a) & np.isnan(b)) | (np.isinf(a) & (a == b))
    out[same] = 0.0
    finite = np.isfinite(a) & np.isfinite(b)

    def ordered(x):
        bits = x.view(np.int64)
        magnitude = (bits & 0x7FFFFFFFFFFFFFFF).tolist()
        return [-m if v < 0 else m for v, m in zip(bits.tolist(), magnitude)]

    out[finite] = [abs(p - q) for p, q in zip(ordered(a[finite]), ordered(b[finite]))]
    return out


def run_in_ascii_locale(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` where the locale, stdio and file names are
    ASCII: the C locale, neither coerced to C.UTF-8 nor in UTF-8 mode."""
    src = str(Path(rs.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHONUTF8"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, *args], env=env, capture_output=True,
                          timeout=300)
