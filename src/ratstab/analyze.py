"""Trajectory post-processing: decay verification, envelope fits, artifacts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import StabilityParams, rational_bound
from .ddesim import Trajectory
from .errors import ContractViolation, OutputIOError

CSV_DIGITS = 17  # significant digits; guarantees float round-trips


@dataclass(frozen=True)
class DecayReport:
    violation_fraction: float
    max_violation: float


def verify_decay(t, values, rate: float, tol: float) -> DecayReport:
    """Check V' <= -rate V along a sampled series.

    The grid form of the claim is V(t+h) <= exp(-rate h) V(t); indices
    where the forward difference exceeds that by more than the relative
    band tol*(1+V) are counted as violations. Exact exponential data at
    the stated rate therefore passes with zero margin.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.shape != t.shape or len(t) < 3:
        raise ContractViolation("need matching 1-D series with at least 3 samples")
    steps = np.diff(t)
    h = steps[0]
    if not h > 0.0 or np.max(np.abs(steps - h)) > 1e-9 * max(1.0, abs(h)):
        raise ContractViolation("time grid must be uniform and increasing")
    if rate < 0.0:
        raise ContractViolation(f"rate must be >= 0, got {rate!r}")
    decay = math.exp(-rate * h)
    margins = (v[1:] - decay * v[:-1]) / h
    flags = margins > tol * (1.0 + v[:-1])
    return DecayReport(
        violation_fraction=float(np.mean(flags)),
        max_violation=float(np.max(margins)),
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay models for a positive series.

    exp model: y ~ C exp(-exp_rate t); rational model: y ~ C (1+t)^(-rational_exponent).
    """

    exp_rate: float
    exp_r2: float
    rational_exponent: float
    rational_r2: float
    preferred: str


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_res = float(residual @ residual)
    ss_tot = float(total @ total)
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-12 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return float(slope), r2


def fit_envelope(t, y) -> DecayFit:
    """Fit both decay models to a positive series and pick the better one."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or y.shape != t.shape or len(t) < 10:
        raise ContractViolation("need matching 1-D series with at least 10 samples")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ContractViolation("series must be strictly positive and finite")
    if np.any(1.0 + t <= 0.0):
        raise ContractViolation("rational model needs 1 + t > 0 over the series")
    log_y = np.log(y)
    exp_slope, exp_r2 = _least_squares_line(t, log_y)
    rat_slope, rat_r2 = _least_squares_line(np.log1p(t), log_y)
    return DecayFit(
        exp_rate=-exp_slope,
        exp_r2=exp_r2,
        rational_exponent=-rat_slope,
        rational_r2=rat_r2,
        preferred="exponential" if exp_r2 >= rat_r2 else "rational",
    )


def fit_tail(t, y, t_min: float) -> tuple[DecayFit | None, int]:
    """Fit decay envelopes to the samples with t >= t_min and y > 0.

    Returns (fit, count) with count the number of kept samples; fit is None
    when fewer than 10 are kept.
    """
    keep = (t >= t_min) & (y > 0.0)
    count = int(np.count_nonzero(keep))
    return (fit_envelope(t[keep], y[keep]) if count >= 10 else None), count


def bound_check(traj: Trajectory, params: StabilityParams, tol: float) -> bool:
    """True iff |x(t)| stays under the rational envelope (with headroom tol).

    The envelope is seeded with the sup of |x| over the stored history
    segment, node t = 0 included, and checked at every node with t > 0.
    """
    norms = traj.norm_x()
    history = traj.t <= 0.0
    norm_phi = float(np.max(norms[history]))
    for time, value in zip(traj.t[~history], norms[~history]):
        if value > rational_bound(params, norm_phi, float(time)) * (1.0 + tol):
            return False
    return True


def _csv_columns(traj: Trajectory) -> list[tuple[str, np.ndarray]]:
    """(name, values) of every CSV column, in file order."""
    columns = [("t", traj.t)] + [(f"x{i + 1}", traj.x[:, i]) for i in range(traj.n)]
    if traj.xhat is not None:
        columns += [(f"xh{i + 1}", traj.xhat[:, i]) for i in range(traj.n)]
    columns += [("u", traj.u), ("norm_x", traj.norm_x())]
    if traj.xhat is not None:
        columns.append(("norm_err", traj.norm_err()))
    return columns


def csv_header(traj: Trajectory) -> list[str]:
    return [name for name, _ in _csv_columns(traj)]


def emit_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV: 17 significant digits, LF newlines."""
    names, columns = zip(*_csv_columns(traj))
    header = ",".join(names)
    row_format = ",".join([f"%.{CSV_DIGITS}g"] * len(columns)) + "\n"
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(header + "\n")
            for row in zip(*columns):
                handle.write(row_format % row)
    except OSError as exc:
        raise OutputIOError(f"cannot write CSV {path}: {exc}") from exc


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back an emitted CSV; returns (column names, rows array)."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise OutputIOError(f"cannot read CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc}") from None
    if not lines:
        raise ContractViolation(f"{path} is empty")
    if len(lines) < 2:
        raise ContractViolation(f"{path} line 2: no data rows after the header")
    names = lines[0].split(",")
    rows = np.empty((len(lines) - 1, len(names)))
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ContractViolation(
                f"{path} line {number}: {len(cells)} cells where the header has {len(names)}")
        try:
            rows[number - 2] = [float(cell) for cell in cells]
        except ValueError:
            raise ContractViolation(f"{path} line {number}: non-numeric cell in {line!r}") from None
    return names, rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_VIEW_W, _VIEW_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 45


def emit_plot(curves, path, log_y: bool = False, title: str = "") -> None:
    """Write a self-contained SVG polyline chart.

    ``curves`` is a sequence of (label, t, y) triples sharing one axis
    system; log_y switches the vertical axis to log10 and then requires
    strictly positive data. Output is byte-deterministic.
    """
    curves = [(str(label), np.asarray(t, float), np.asarray(y, float)) for label, t, y in curves]
    if not curves or any(len(t) == 0 or t.shape != y.shape for _, t, y in curves):
        raise ContractViolation("plot needs at least one non-empty series")
    if log_y:
        if any(np.any(y <= 0.0) for _, _, y in curves):
            raise ContractViolation("log-scale plot needs strictly positive data")
        curves = [(label, t, np.log10(y)) for label, t, y in curves]

    x_lo = min(float(np.min(t)) for _, t, _ in curves)
    x_hi = max(float(np.max(t)) for _, t, _ in curves)
    y_lo = min(float(np.min(y)) for _, _, y in curves)
    y_hi = max(float(np.max(y)) for _, _, y in curves)
    if x_hi - x_lo <= 0.0:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo <= 0.0:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B

    def to_px(tv, yv):
        # scalars or whole arrays alike, with the same operations per element
        px = _MARGIN_L + (tv - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_T + (y_hi - yv) / (y_hi - y_lo) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_VIEW_W // 2}" y="14" font-family="monospace" font-size="12" '
            f'text-anchor="middle">{title}</text>'
        )
    for i in range(6):
        frac = i / 5.0
        tv = x_lo + frac * (x_hi - x_lo)
        px, _ = to_px(tv, y_lo)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{tv:.4g}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        _, py = to_px(x_lo, yv)
        label = f"1e{yv:.2f}" if log_y else f"{yv:.4g}"
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{label}</text>'
        )
    for idx, (label, t, y) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join("%.2f,%.2f" % point for point in zip(*to_px(t, y)))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{_MARGIN_T + 16 + 14 * idx}" '
            f'font-family="monospace" font-size="11" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OutputIOError(f"cannot write SVG {path}: {exc}") from exc
