"""Rational-stability toolkit for triangular nonlinear time-delay systems.

Certification of delay-dependent stability margins for high-gain observer
and state-feedback designs, method-of-steps simulation of the four
closed-loop configurations, and verification of decay envelopes and
Lyapunov-Krasovskii functional decrease along trajectories.
"""

from .analyze import DecayFit, DecayReport, bound_check, emit_csv, emit_plot, fit_envelope, verify_decay
from .certify import (
    Certification,
    ConditionReport,
    FunctionalSpec,
    StabilityParams,
    build_report,
    certify_gains,
    corollary_k,
    feedback_conditions,
    find_theta_min,
    krasovskii_value,
    observer_conditions,
    output_feedback_condition,
    rational_bound,
    select_alpha_observer_based,
    select_alpha_output_feedback,
)
from .ddesim import HistoryBuffer, Scenario, Trajectory, integrate, run_scenario
from .errors import (
    ConditionsNotSatisfiedError,
    ConfigError,
    ContractViolation,
    DivergedError,
    NoFeasibleThetaError,
    NotHurwitzError,
    OutputIOError,
    ToolkitError,
)
from .matops import (
    LyapunovCertificate,
    build_companion,
    delta_theta,
    is_hurwitz,
    solve_lyapunov,
    spectral_norm_sym,
    sym_eigenvalues,
)
from .sysmodel import GainSet, Nonlinearity, SystemSpec, estimate_lipschitz, make_nonlinearity, scale_gains

__version__ = "0.1.0"
