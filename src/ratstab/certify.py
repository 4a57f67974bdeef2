"""Delay-dependent stability margins, gain-parameter search and decay bounds.

The two scalar margins behind every test here are, for a matrix norm m
and Lipschitz constant k,

    a(theta) = theta/2 - m ln(theta)/(2 tau) - 3 k m
    b(theta) = sqrt(theta)/2 - k m

evaluated with the observer Lyapunov norm (margins a, b) and with the
feedback Lyapunov norm (margins c, d). Output feedback adds a margin of
the same a-form in the feedback norm. All margins strictly positive is
the certificate that the closed loop decays like exp(-ln(theta)/(2 tau) t)
in the Lyapunov-Krasovskii functional, which in turn yields an explicit
rational envelope for the state norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import (
    ConditionsNotSatisfiedError,
    ConfigError,
    ContractViolation,
    NoFeasibleThetaError,
)

ALPHA_MARGIN = 0.1  # relative distance of each composite weight from its bound


def _margin_pair(theta: float, tau: float, norm: float, k: float) -> tuple[float, float]:
    """Margins (a, b) for the observer Lyapunov norm |P|, or (c, d) for the
    feedback Lyapunov norm |S|: the same two formulas in either norm."""
    a = 0.5 * theta - norm * math.log(theta) / (2.0 * tau) - 3.0 * k * norm
    b = 0.5 * math.sqrt(theta) - k * norm
    return a, b


observer_conditions = feedback_conditions = _margin_pair


def output_feedback_condition(theta: float, tau: float, norm_s: float, k: float) -> float:
    """Output-feedback margin; identical to the first feedback margin but
    required jointly with it, so kept as a separate operation."""
    return _margin_pair(theta, tau, norm_s, k)[0]


@dataclass(frozen=True)
class ConditionReport:
    """All margins for one (theta, tau, norms, k) tuple with pass flags."""

    theta: float
    tau: float
    norm_p: float
    norm_s: float
    k: float
    a: float
    b: float
    c: float
    d: float

    @property
    def of_margin(self) -> float:
        """Output-feedback margin: the first feedback margin c, required jointly with it."""
        return self.c

    @property
    def pass_a(self) -> bool:
        return self.a > 0.0

    @property
    def pass_b(self) -> bool:
        return self.b > 0.0

    @property
    def pass_c(self) -> bool:
        return self.c > 0.0

    @property
    def pass_d(self) -> bool:
        return self.d > 0.0

    @property
    def all_pass(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c and self.pass_d

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "tau": self.tau,
            "norm_p": self.norm_p,
            "norm_s": self.norm_s,
            "k": self.k,
            "margins": {"a": self.a, "b": self.b, "c": self.c, "d": self.d,
                        "output_feedback": self.of_margin},
            "pass": {"a": self.pass_a, "b": self.pass_b, "c": self.pass_c,
                     "d": self.pass_d, "output_feedback": self.pass_c,
                     "all": self.all_pass},
        }


def build_report(theta: float, tau: float, norm_p: float, norm_s: float, k: float) -> ConditionReport:
    a, b = observer_conditions(theta, tau, norm_p, k)
    c, d = feedback_conditions(theta, tau, norm_s, k)
    return ConditionReport(theta=theta, tau=tau, norm_p=norm_p, norm_s=norm_s, k=k,
                           a=a, b=b, c=c, d=d)


def find_theta_min(tau: float, norm_p: float, norm_s: float, k: float,
                   theta_max: float, tol: float) -> float:
    """Smallest theta in [1, theta_max] with all four margins strictly positive.

    Plain bisection is exact here. For theta >= 1, k >= 0 and tau > 0 every
    margin falls as its norm grows, so a-d are all positive exactly when a
    and b are positive at m = max(norm_p, norm_s). If theta = 1 fails, then
    a(1) <= 0: b(1) <= 0 forces k m >= 1/2 and so a(1) <= -1. From there a
    is convex in theta and tends to infinity, and b is increasing, so the
    feasible set is the interval (theta*, infinity) within [1, theta_max].

    Returns exactly 1.0 when theta = 1 is feasible. Otherwise bisects until
    the bracket is at most ``tol`` wide (or cannot be split in floating
    point) and returns its feasible end. Raises NoFeasibleThetaError when
    theta_max fails, and ConfigError unless tau, k, both norms, theta_max
    and tol are finite with tau > 0, k >= 0, norms > 0, theta_max > 1 and
    tol > 0.
    """
    checks = (("tau", tau, tau > 0.0, "> 0"), ("k", k, k >= 0.0, ">= 0"),
              ("norm_p", norm_p, norm_p > 0.0, "> 0"), ("norm_s", norm_s, norm_s > 0.0, "> 0"),
              ("theta_max", theta_max, theta_max > 1.0, "> 1"), ("tol", tol, tol > 0.0, "> 0"))
    for name, value, ok, need in checks:
        if not (ok and math.isfinite(value)):
            raise ConfigError(f"{name} must be finite and {need}, got {value!r}")
    norm = max(norm_p, norm_s)

    def feasible(theta: float) -> bool:
        a, b = _margin_pair(theta, tau, norm, k)
        return a > 0.0 and b > 0.0

    if feasible(1.0):
        return 1.0
    if not feasible(theta_max):
        raise NoFeasibleThetaError(
            f"no theta in [1, {theta_max:g}] satisfies all margins for k={k:g}"
        )
    low, high = 1.0, theta_max
    while high - low > tol:
        mid = low + 0.5 * (high - low)
        if mid in (low, high):
            break
        low, high = (low, mid) if feasible(mid) else (mid, high)
    return high


def select_alpha_observer_based(theta: float, a: float, c: float, norm_s: float,
                                norm_k: float, margin: float = ALPHA_MARGIN):
    """Weight for the composite functional alpha*V + W in the observer-based loop.

    Returns (alpha, threshold) where threshold = 2 theta^2 |S|^2 |K|^2 / (a c)
    and alpha exceeds it by the requested relative margin.
    """
    if not margin > 0.0:
        raise ConfigError(f"margin must be positive, got {margin!r}")
    if a <= 0.0 or c <= 0.0:
        raise ConditionsNotSatisfiedError(f"margins must be positive, got a={a:g}, c={c:g}")
    threshold = 2.0 * theta * theta * norm_s * norm_s * norm_k * norm_k / (a * c)
    alpha = margin if threshold == 0.0 else (1.0 + margin) * threshold
    return alpha, threshold


def select_alpha_output_feedback(c: float, d: float, k: float, norm_p: float,
                                 margin: float = ALPHA_MARGIN) -> float:
    """Composite-functional weight for the output-feedback loop.

    The selection rule is alpha < min(c, d) / (k |P|); the returned value
    sits below that cap by the requested relative margin. k = 0 removes
    the constraint entirely and the unconstrained sentinel inf is returned.
    """
    if not 0.0 < margin < 1.0:
        raise ConfigError(f"margin must be in (0, 1), got {margin!r}")
    if k == 0.0:
        return math.inf
    if c <= 0.0 or d <= 0.0 or k < 0.0 or norm_p <= 0.0:
        raise ConditionsNotSatisfiedError(
            f"need c, d, norm_p > 0 and k >= 0, got c={c:g}, d={d:g}, k={k:g}, norm_p={norm_p:g}"
        )
    return min(c, d) / (k * norm_p) * (1.0 - margin)


@dataclass(frozen=True)
class Certification:
    """One gain set's certificate: margins, Lyapunov solutions, advisory, weights.

    Each weight is None unless its margins pass: a and c for the observer-based
    (alpha, threshold), c and d for the output-feedback alpha, which is inf at k = 0.
    """

    report: ConditionReport
    cert_p: matops.LyapunovCertificate
    cert_s: matops.LyapunovCertificate
    advisory: float
    alpha_observer_based: tuple[float, float] | None
    alpha_output_feedback: float | None

    def to_dict(self) -> dict:
        """The certificate.json payload; an unconstrained weight is written as null."""
        payload = self.report.to_dict()
        payload["lyapunov"] = {
            "P": self.cert_p.solution.tolist(), "P_residual": self.cert_p.residual,
            "S": self.cert_s.solution.tolist(), "S_residual": self.cert_s.residual,
        }
        if self.alpha_observer_based is not None:
            alpha, threshold = self.alpha_observer_based
            payload["alpha_observer_based"] = {"alpha": alpha, "threshold": threshold}
        if self.alpha_output_feedback is not None:
            alpha_of = self.alpha_output_feedback
            payload["alpha_output_feedback"] = None if math.isinf(alpha_of) else alpha_of
        return payload


def certify_gains(gains, tau: float, k: float, advisory: float) -> Certification:
    """Solve both Lyapunov equations of a GainSet and evaluate the certificate."""
    if gains.theta < 1.0:  # the certified decay rate ln(theta) / (2 tau) would be negative
        raise ConfigError(f"theta must be at least 1 to certify decay, got {gains.theta!r}")
    cert_p = matops.solve_lyapunov(gains.A_L)
    cert_s = matops.solve_lyapunov(gains.A_K)
    report = build_report(gains.theta, tau, cert_p.spectral_norm, cert_s.spectral_norm, k)
    alpha_ob = alpha_of = None
    if report.pass_a and report.pass_c:
        alpha_ob = select_alpha_observer_based(gains.theta, report.a, report.c,
                                               cert_s.spectral_norm, float(np.linalg.norm(gains.K)))
    if report.pass_c and report.pass_d:
        alpha_of = select_alpha_output_feedback(report.c, report.d, k, cert_p.spectral_norm)
    return Certification(report, cert_p, cert_s, advisory, alpha_ob, alpha_of)


@dataclass(frozen=True)
class StabilityParams:
    """Constants of a rational-decay certificate.

    lam1 |x|^r1 <= V <= lam2 |history|^r2 together with
    dV/dt <= -lam3 V^(1+k) yield the explicit envelope evaluated by
    :func:`rational_bound`. ``r3`` is only set when the certificate came
    from a |history|^r3 dissipation rate, in which case r2 < r3 must hold.
    Whether the derived initial-condition exponent ``e`` is <= 1 depends on
    the route that produced the constants and is not enforced here.
    """

    lam1: float
    lam2: float
    lam3: float
    r1: float
    r2: float
    k: float
    r3: float | None = None

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3", "r1", "r2", "k"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.r3 is not None and not self.r2 < self.r3:
            raise ConfigError(f"r2 < r3 required, got r2={self.r2!r}, r3={self.r3!r}")

    @property
    def M(self) -> float:
        """Overshoot constant of the envelope at t = 0."""
        return self.lam1 ** (-1.0 / self.r1) * self.lam2 ** (1.0 / self.r1)

    @property
    def e(self) -> float:
        """Initial-condition exponent of the envelope."""
        return self.r2 / self.r1


def rational_bound(params: StabilityParams, norm_phi: float, t: float) -> float:
    """Explicit rational decay envelope for the state norm.

    bound(t) = lam1^(-1/r1) * (lam2^(-k) norm_phi^(-r2 k) + lam3 k t)^(-1/(k r1))

    Decreasing in t; at t = 0 it reduces to M * norm_phi^(r2/r1). As
    t -> infinity, bound(t) ~ C t^(-1/(k r1)), so for c > 1 the ratio
    bound(t)/bound(c t) tends to c^(1/(k r1)) and stays below it at every
    finite t. The zero solution (norm_phi = 0) gets a zero bound.
    """
    if norm_phi < 0.0 or not math.isfinite(norm_phi):
        raise ContractViolation(f"norm_phi must be finite and >= 0, got {norm_phi!r}")
    if t < 0.0:
        raise ContractViolation(f"t must be >= 0, got {t!r}")
    if norm_phi == 0.0:
        return 0.0
    base = (
        params.lam2 ** (-params.k) * norm_phi ** (-params.r2 * params.k)
        + params.lam3 * params.k * t
    )
    return params.lam1 ** (-1.0 / params.r1) * base ** (-1.0 / (params.k * params.r1))


def corollary_k(r2: float, r3: float) -> float:
    """Rational-decay exponent (r3 - r2) / r2 from a power-rate certificate."""
    if not (0.0 < r2 < r3):
        raise ContractViolation(f"need 0 < r2 < r3, got r2={r2!r}, r3={r3!r}")
    return (r3 - r2) / r2


@dataclass(frozen=True)
class FunctionalSpec:
    """Which Lyapunov-Krasovskii functional to evaluate.

    ``matrix`` is the symmetric positive definite quadratic-form matrix of
    the scaled coordinate the history samples live in (eta, the scaled
    observer error, or chi, the scaled state). theta > 1 keeps ln(theta)
    positive in the decay-rate claim.
    """

    matrix: np.ndarray
    theta: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if not self.theta > 1.0:
            raise ConfigError(f"theta must exceed 1, got {self.theta!r}")
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau!r}")
        eigs = matops.sym_eigenvalues(self.matrix)
        if eigs[0] <= 0.0:
            raise ContractViolation("functional matrix must be positive definite")


def krasovskii_value(spec: FunctionalSpec, history, t: float) -> float:
    """Evaluate V = z' M z + (theta/2) * integral of theta^((s-t)/(2 tau)) |z(s)|^2 ds.

    ``history`` holds uniform samples of the transformed state on
    [t - tau, t], one row per node, ending at time t. The integral is a
    trapezoid rule on that grid; the weight is computed in the shifted
    exponent form so large t cannot overflow.
    """
    window = np.asarray(history, dtype=float)
    if window.ndim == 1:
        window = window[:, None]
    if window.ndim != 2 or window.shape[0] < 2:
        raise ContractViolation("history must hold at least two uniform samples on [t-tau, t]")
    if window.shape[1] != spec.matrix.shape[0]:
        raise ContractViolation(
            f"history width {window.shape[1]} does not match matrix dimension "
            f"{spec.matrix.shape[0]}"
        )
    segments = window.shape[0] - 1
    h = spec.tau / segments
    shifted = np.arange(-segments, 1, dtype=float) * h  # s - t over the window
    weights = spec.theta ** (shifted / (2.0 * spec.tau))
    integrand = weights * np.einsum("ij,ij->i", window, window)
    trapezoid = h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    tail = window[-1]
    return float(tail @ spec.matrix @ tail + 0.5 * spec.theta * trapezoid)
