"""Command-line entry point.

Subcommands: certify | synthesize | simulate | fit | repro-paper.
Exit codes: 0 = pass/complete, 1 = condition failure or divergence,
2 = input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analyze, certify, exprlang
from .ddesim import Scenario, run_scenario
from .errors import ConfigError, DivergedError, NoFeasibleThetaError, OutputIOError, ToolkitError
from .matops import solve_lyapunov
from .sysmodel import GainSet, SystemSpec, estimate_lipschitz, make_nonlinearity

_SCENARIOS = {s.value: s for s in Scenario}


@dataclass
class RunConfig:
    """Parsed and validated configuration file."""

    n: int
    tau: float
    lipschitz_k: float
    f_source: object
    domain_box: list | None
    L: list
    K: list
    theta: float
    h: float | None = None
    horizon: float | None = None
    x0: list | None = None
    xhat0: list | None = None
    history: object = "constant"
    seed: int = 0
    mode: str | None = None
    out_dir: str = "out"
    emit_plots: bool = False


def _check_keys(section: str, data: dict, required: tuple, optional: tuple = ()):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a table of keys")
    for key in data:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing key '{key}' in section '{section}'")


def _finite(value, name: str) -> float:
    if isinstance(value, bool):  # JSON true/false, which float() would read as 1.0/0.0
        raise ConfigError(f"'{name}' must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{name}' must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"'{name}' must be finite, got {value!r}")
    return out


def _vector(value, name: str, length: int) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(f"'{name}' must be a list of {length} numbers")
    return [_finite(v, f"{name}[{i}]") for i, v in enumerate(value)]


def load_config(path: str) -> RunConfig:
    """Load and strictly validate a JSON config file."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    # ValueError: not UTF-8, or an int past the digit limit; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object with sections")
    for section in raw:
        if section not in ("system", "gains", "sim", "scenario", "output"):
            raise ConfigError(f"unknown section '{section}'")
    for section in ("system", "gains"):
        if section not in raw:
            raise ConfigError(f"missing section '{section}'")

    system = raw["system"]
    _check_keys("system", system, ("n", "tau", "lipschitz_k", "f"), ("domain_box",))
    n = system["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"'n' must be an integer, got {n!r}")
    tau = _finite(system["tau"], "tau")
    lipschitz_k = _finite(system["lipschitz_k"], "lipschitz_k")
    f_source = system["f"]
    if not isinstance(f_source, str):
        if not isinstance(f_source, list) or not all(isinstance(e, str) for e in f_source):
            raise ConfigError("'f' must be a registry name or a list of expression strings")
    box = system.get("domain_box")
    if box is not None:
        if not isinstance(box, list):
            raise ConfigError("'domain_box' must be a list of [lo, hi] pairs")
        box = [_vector(pair, f"domain_box[{i}]", 2) for i, pair in enumerate(box)]

    gains = raw["gains"]
    _check_keys("gains", gains, ("L", "K", "theta"))
    L = _vector(gains["L"], "L", n)
    K = _vector(gains["K"], "K", n)
    theta = _finite(gains["theta"], "theta")

    cfg = RunConfig(n=n, tau=tau, lipschitz_k=lipschitz_k, f_source=f_source,
                    domain_box=box, L=L, K=K, theta=theta)

    if "sim" in raw:
        sim = raw["sim"]
        _check_keys("sim", sim, ("h", "T", "x0"), ("xhat0", "history", "seed"))
        cfg.h = _finite(sim["h"], "h")
        cfg.horizon = _finite(sim["T"], "T")
        cfg.x0 = _vector(sim["x0"], "x0", n)
        if "xhat0" in sim:
            cfg.xhat0 = _vector(sim["xhat0"], "xhat0", n)
        if "history" in sim:
            cfg.history = _validated_history(sim["history"], n)
        if "seed" in sim:
            seed = sim["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigError(f"'seed' must be an integer, got {seed!r}")
            cfg.seed = seed

    if "scenario" in raw:
        scenario = raw["scenario"]
        _check_keys("scenario", scenario, ("mode",))
        mode = scenario["mode"]
        if not isinstance(mode, str) or mode not in _SCENARIOS:
            known = ", ".join(sorted(_SCENARIOS))
            raise ConfigError(f"unknown scenario mode {mode!r} (known: {known})")
        cfg.mode = mode

    if "output" in raw:
        output = raw["output"]
        _check_keys("output", output, (), ("directory", "emit_plots"))
        if "directory" in output:
            if not isinstance(output["directory"], str):
                raise ConfigError("'directory' must be a string")
            cfg.out_dir = output["directory"]
        if "emit_plots" in output:
            if not isinstance(output["emit_plots"], bool):
                raise ConfigError("'emit_plots' must be a boolean")
            cfg.emit_plots = output["emit_plots"]
    return cfg


def _validated_history(value, n: int):
    if value == "constant":
        return "constant"
    if isinstance(value, dict):
        _check_keys("sim.history", value, ("x",), ("xhat",))
        return {key: _history_exprs(value[key], n) for key in ("x", "xhat") if key in value}
    raise ConfigError("'history' must be \"constant\" or {\"x\": [...], \"xhat\": [...]}")


def _history_exprs(texts, n: int):
    """The history phi(s) given by n expression strings in t, parsed and compiled once."""
    if not isinstance(texts, list) or len(texts) != n or not all(isinstance(t, str) for t in texts):
        raise ConfigError(f"history needs {n} expression strings")
    compiled = []
    for text in texts:
        e = exprlang.parse(text)
        extra = exprlang.free_vars(e) - {"t"}
        if extra:
            raise ConfigError(
                f"history expression {text!r} may only reference 't', found {sorted(extra)[0]!r}"
            )
        compiled.append(exprlang.compile_expr(e))
    return lambda s: np.array([c({"t": float(s)}) for c in compiled])


def build_system(cfg: RunConfig) -> SystemSpec:
    f = make_nonlinearity(cfg.f_source, cfg.n)
    box = tuple((lo, hi) for lo, hi in cfg.domain_box) if cfg.domain_box else None
    return SystemSpec(n=cfg.n, tau=cfg.tau, f=f, lipschitz_k=cfg.lipschitz_k, domain_box=box)


def build_gains(cfg: RunConfig) -> GainSet:
    return GainSet(L=np.asarray(cfg.L), K=np.asarray(cfg.K), theta=cfg.theta)


def build_histories(cfg: RunConfig):
    if cfg.x0 is None:
        raise ConfigError("section 'sim' with 'x0' is required for simulation")
    phis = {} if cfg.history == "constant" else cfg.history
    xhat0 = None if cfg.xhat0 is None else np.asarray(cfg.xhat0, dtype=float)
    return phis.get("x", np.asarray(cfg.x0, dtype=float)), phis.get("xhat", xhat0)


def _ensure_out_dir(out_dir: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputIOError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def _matrix_text(M: np.ndarray) -> str:
    return "[" + ", ".join("[" + ", ".join(f"{v:.8f}" for v in row) + "]" for row in M) + "]"


def _render_certification(sys_spec: SystemSpec, result: certify.Certification, out_path: str):
    report, cert_p, cert_s = result.report, result.cert_p, result.cert_s
    print("certification")
    print(f"  theta = {report.theta:g}  tau = {report.tau:g}  k = {report.k:g}")
    print(f"  ||P|| = {cert_p.spectral_norm:.6f}  (observer solve residual {cert_p.residual:.2e})")
    print(f"  ||S|| = {cert_s.spectral_norm:.6f}  (feedback solve residual {cert_s.residual:.2e})")
    box_text = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in sys_spec.domain_box)
    print(f"  advisory Lipschitz lower bound over {box_text}: {result.advisory:.4f}")
    print("    (region-dependent; the margins below use the declared k)")
    payload = result.to_dict()
    for name, value in payload["margins"].items():
        print(f"  margin {name:>15} = {value: .6f}  {'PASS' if payload['pass'][name] else 'FAIL'}")
    if result.alpha_observer_based is not None:
        alpha, threshold = result.alpha_observer_based
        print(f"  composite weight (observer-based): alpha = {alpha:.6g} > threshold {threshold:.6g}")
    if result.alpha_output_feedback is not None:
        alpha_of = result.alpha_output_feedback
        print("  composite weight (output feedback): " + (
            f"unconstrained (k = {report.k:g})" if math.isinf(alpha_of) else f"alpha = {alpha_of:.6g}"))
    print(f"  overall: {'PASS' if report.all_pass else 'FAIL'}")
    try:
        with open(out_path, "w", newline="\n") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise OutputIOError(f"cannot write certificate {out_path}: {exc}") from exc
    print(f"  certificate written to {out_path}")


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    out_dir = _ensure_out_dir(cfg.out_dir)
    sys_spec = build_system(cfg)
    advisory = estimate_lipschitz(sys_spec.f, sys_spec.domain_box, seed=cfg.seed)
    result = certify.certify_gains(build_gains(cfg), sys_spec.tau, sys_spec.lipschitz_k, advisory)
    _render_certification(sys_spec, result, os.path.join(out_dir, "certificate.json"))
    return 0 if result.report.all_pass else 1


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    sys_spec = build_system(cfg)
    gains = build_gains(cfg)
    norm_p = solve_lyapunov(gains.A_L).spectral_norm
    norm_s = solve_lyapunov(gains.A_K).spectral_norm
    print(f"synthesis: tau = {sys_spec.tau:g}  k = {sys_spec.lipschitz_k:g}  "
          f"||P|| = {norm_p:.6f}  ||S|| = {norm_s:.6f}")
    theta_star = certify.find_theta_min(sys_spec.tau, norm_p, norm_s,
                                        sys_spec.lipschitz_k, args.theta_max, args.tol)
    report = certify.build_report(theta_star, sys_spec.tau, norm_p, norm_s, sys_spec.lipschitz_k)
    print(f"  smallest feasible theta = {theta_star:.6f}")
    print(f"  margins there: a = {report.a:.6f}  b = {report.b:.6f}  "
          f"c = {report.c:.6f}  d = {report.d:.6f}")
    return 0


def _simulate(cfg: RunConfig, sys_spec: SystemSpec, gains: GainSet, out_dir: str,
              csv_name: str = "trajectory.csv"):
    scenario = _SCENARIOS[cfg.mode]
    phi, phi_hat = build_histories(cfg)
    if scenario.has_observer and phi_hat is None:
        raise ConfigError(f"scenario '{cfg.mode}' needs 'xhat0' (or an xhat history)")
    traj = run_scenario(sys_spec, gains, scenario, phi, phi_hat, h=cfg.h, horizon=cfg.horizon)

    csv_path = os.path.join(out_dir, csv_name)
    analyze.emit_csv(traj, csv_path)
    artifacts = [csv_path]
    norms, err = traj.norm_x(), traj.norm_err()
    if cfg.emit_plots:
        svg_path = csv_path[:-4] + ".svg"
        curves = [("|x|", traj.t, norms)]
        if err is not None:
            curves.append(("|xhat-x|", traj.t, err))
        analyze.emit_plot(curves, svg_path, title=f"{cfg.mode} trajectory")
        artifacts.append(svg_path)

    steps = int(round(cfg.horizon / cfg.h))
    print(f"simulated {cfg.mode} for T = {cfg.horizon:g} at h = {cfg.h:g} ({steps} steps)")
    i0 = traj.index_of(0.0)
    print(f"  ||x(0)|| = {norms[i0]:.6f}   ||x(T)|| = {norms[-1]:.6e}")
    if err is not None:
        print(f"  ||xhat(0)-x(0)|| = {err[i0]:.6f}   ||xhat(T)-x(T)|| = {err[-1]:.6e}")
    fit, _ = analyze.fit_tail(traj.t, norms, traj.tau)  # skip the startup delay interval
    if fit is None:
        print("  decay fit: skipped (fewer than 10 positive samples)")
    else:
        print(f"  decay fit on ||x|| (t >= tau): exponential rate {fit.exp_rate:.4g} "
              f"(r2 = {fit.exp_r2:.4f}) | rational exponent {fit.rational_exponent:.4g} "
              f"(r2 = {fit.rational_r2:.4f}) -> {fit.preferred}")
    print("artifacts: " + " ".join(artifacts))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    out_dir = _ensure_out_dir(cfg.out_dir)
    if cfg.mode is None:
        raise ConfigError("section 'scenario' with 'mode' is required for simulation")
    if cfg.h is None or cfg.horizon is None:
        raise ConfigError("section 'sim' with 'h' and 'T' is required for simulation")
    _simulate(cfg, build_system(cfg), build_gains(cfg), out_dir)
    return 0


def cmd_fit(args) -> int:
    names, rows = analyze.read_csv(args.csv)
    for column in ("t", args.column):
        if column not in names:
            raise ConfigError(f"column {column!r} not in CSV (has: {', '.join(names)})")
    t = rows[:, names.index("t")]
    y = rows[:, names.index(args.column)]
    fit, count = analyze.fit_tail(t, y, args.skip)
    if fit is None:
        raise ConfigError("fewer than 10 positive samples after trimming")
    print(f"fit of {args.column} ({count} samples, t >= {args.skip:g}):")
    print(f"  exponential: rate = {fit.exp_rate:.6g}  r2 = {fit.exp_r2:.6f}")
    print(f"  rational:    exponent = {fit.rational_exponent:.6g}  r2 = {fit.rational_r2:.6f}")
    print(f"  preferred model: {fit.preferred}")
    return 0


# Built-in benchmark: two-state networked system with published reference data.
_REFERENCE_CONFIG = {
    "system": {"n": 2, "tau": 1.0, "lipschitz_k": 0.5, "f": "paper_example",
               "domain_box": [[-30.0, 30.0], [-30.0, 30.0]]},
    "gains": {"L": [-14.0, -28.0], "K": [-30.0, -30.0], "theta": 8.0},
    "sim": {"h": 0.001, "T": 10.0, "x0": [-20.0, -10.0], "xhat0": [10.0, 10.0], "seed": 0},
    "scenario": {"mode": "observer_based"},
    "output": {"directory": "out", "emit_plots": True},
}

_REFERENCE_P = np.array([[0.0377, 0.0278], [0.0278, 1.0675]])
_REFERENCE_S = np.array([[0.5172, -0.5000], [-0.5000, 0.5167]])
_REFERENCE_NORM_P = 1.0682
_REFERENCE_NORM_S = 1.0169


def cmd_repro_paper(args) -> int:
    cfg = parse_config(_REFERENCE_CONFIG)
    _apply_overrides(cfg, args)
    out_dir = _ensure_out_dir(cfg.out_dir)
    sys_spec, gains = build_system(cfg), build_gains(cfg)
    advisory = estimate_lipschitz(sys_spec.f, sys_spec.domain_box, seed=cfg.seed)
    result = certify.certify_gains(gains, sys_spec.tau, sys_spec.lipschitz_k, advisory)

    print("reference reproduction (built-in benchmark)")
    print(f"  gains: L = {cfg.L}  K = {cfg.K}  theta = {cfg.theta:g}  tau = {cfg.tau:g}")
    _render_certification(sys_spec, result, os.path.join(out_dir, "repro_certificate.json"))

    def residual(A, X):  # of A'X + XA + I; residual(A.T, X) is the transposed convention
        return float(np.linalg.norm(A.T @ X + X @ A + np.eye(2)))

    print("  comparison against the published reference values:")
    print(f"    computed P = {_matrix_text(result.cert_p.solution)}")
    print(f"    reference P = {_matrix_text(_REFERENCE_P)}")
    print(f"    computed S = {_matrix_text(result.cert_s.solution)}")
    print(f"    reference S = {_matrix_text(_REFERENCE_S)}")
    ns_match = abs(result.cert_s.spectral_norm - _REFERENCE_NORM_S) <= 1e-3
    print(f"    ||S|| computed {result.cert_s.spectral_norm:.6f} vs reference {_REFERENCE_NORM_S} "
          f"-> {'agree' if ns_match else 'DISAGREE'}")
    np_match = abs(result.cert_p.spectral_norm - _REFERENCE_NORM_P) <= 1e-3
    print(f"    ||P|| computed {result.cert_p.spectral_norm:.6f} vs reference {_REFERENCE_NORM_P} "
          f"-> {'agree' if np_match else 'DISCREPANCY (documented, see below)'}")
    print("  discrepancy detail:")
    print(f"    reference S residual in the equation as written  A'S + SA + I: "
          f"{residual(gains.A_K, _REFERENCE_S):.4f}")
    print(f"    reference S residual in the transposed convention A S + SA' + I: "
          f"{residual(gains.A_K.T, _REFERENCE_S):.4f}  <- fits the transposed equation")
    print(f"    reference P residual in the equation as written:  "
          f"{residual(gains.A_L, _REFERENCE_P):.4f}")
    print(f"    reference P residual in the transposed convention: "
          f"{residual(gains.A_L.T, _REFERENCE_P):.4f}  <- fits neither equation")
    print("    the reference norm ||P|| = 1.0682 matches the reference matrix as printed,")
    print("    not the solution of the equation as written; the computed value stands")

    _simulate(cfg, sys_spec, gains, out_dir, csv_name="repro_trajectory.csv")
    return 0


# config overrides: flag -> (RunConfig field, argparse keywords); each command adds
# only the flags whose field it reads
_OVERRIDES = {
    "out": ("out_dir", {"help": "output directory (overrides config)"}),
    "theta": ("theta", {"type": float, "help": "override the gain parameter theta"}),
    "step": ("h", {"type": float, "help": "override the integration step h"}),
    "horizon": ("horizon", {"type": float, "help": "override the simulation horizon T"}),
    "seed": ("seed", {"type": int, "help": "override the Lipschitz advisory's sampling seed"}),
}


def _add_overrides(sub, *flags):
    for flag in flags:
        sub.add_argument(f"--{flag}", **_OVERRIDES[flag][1])


def _apply_overrides(cfg: RunConfig, args):
    for flag, (field, _) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, field, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratstab",
        description="Rational-stability certification and simulation for "
                    "triangular nonlinear time-delay systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # exact option names only: an abbreviation would let `synthesize --theta 2` set --theta-max
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("certify", help="evaluate all stability margins for a config")
    p.add_argument("--config", required=True)
    _add_overrides(p, "out", "theta", "seed")
    p.set_defaults(handler=cmd_certify)

    p = command("synthesize", help="search the smallest feasible theta")
    p.add_argument("--config", required=True)
    p.add_argument("--theta-max", type=float, default=100.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(handler=cmd_synthesize)

    p = command("simulate", help="run the configured closed-loop scenario")
    p.add_argument("--config", required=True)
    _add_overrides(p, "out", "theta", "step", "horizon")
    p.set_defaults(handler=cmd_simulate)

    p = command("fit", help="fit decay envelopes to a trajectory CSV column")
    p.add_argument("csv")
    p.add_argument("--column", default="norm_x")
    p.add_argument("--skip", type=float, default=0.0, help="drop samples with t below this")
    p.set_defaults(handler=cmd_fit)

    p = command("repro-paper", help="re-run the built-in benchmark and compare "
                                     "against its published reference values")
    _add_overrides(p, "out", "theta", "step", "horizon", "seed")
    p.set_defaults(handler=cmd_repro_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DivergedError, NoFeasibleThetaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:  # every other error of the package is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
