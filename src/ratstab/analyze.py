"""Trajectory post-processing: decay verification, envelope fits, artifacts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import StabilityParams, rational_bound
from .ddesim import Trajectory
from .errors import ContractViolation, OutputIOError, check_numbers

CSV_DIGITS = 17  # significant digits, which round-trip every double; _g17_text writes 17
# CSV rows formatted per kernel call and write; the kernel's temporaries grow with
# the rows: 1,024 rows took repro-paper's peak RSS about 0.6 MB over 256, at the same
# 170 ns a value, and 128 rows saved under 0.05 MB at 210 ns a value (2-vCPU x86-64
# VM, Python 3.11, numpy 2.4)
_CSV_CHUNK = 256


@dataclass(frozen=True)
class DecayReport:
    violation_fraction: float
    max_violation: float


def verify_decay(t, values, rate: float, tol: float) -> DecayReport:
    """Check V' <= -rate V along a sampled series; rate and tol must be finite and >= 0.

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
    check_numbers(("rate", rate, rate >= 0.0, "finite and >= 0"), ("tol", tol, tol >= 0.0, "finite and >= 0"),
                  error=ContractViolation)
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


def _least_squares_line(x: np.ndarray, y: np.ndarray, name: str) -> tuple[float, float]:
    # slope and r^2 of the least-squares line through (x, y), in centred closed form
    if not np.min(x) < np.max(x):
        raise ContractViolation(f"{name} takes one value, {float(x[0])!r}: no line to fit")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing spread is refused below
        dx = x - np.mean(x)
        sxx = float(dx @ dx)
    if not sxx < math.inf:
        raise ContractViolation(f"the squared deviations of {name} overflow: no line to fit")
    total = y - np.mean(y)
    slope = float(dx @ total) / sxx
    residual = total - slope * dx
    ss_res = float(residual @ residual)
    ss_tot = float(total @ total)
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-12 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return slope, r2


def fit_envelope(t, y) -> DecayFit:
    """Fit both decay models to a positive series over a finite t that spreads, and pick the better."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or y.shape != t.shape or len(t) < 10:
        raise ContractViolation("need matching 1-D series with at least 10 samples")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ContractViolation("series must be strictly positive and finite")
    if not np.all(np.isfinite(t)):
        raise ContractViolation("t must be finite")
    if np.any(1.0 + t <= 0.0):
        raise ContractViolation("rational model needs 1 + t > 0 over the series")
    log_y = np.log(y)
    exp_slope, exp_r2 = _least_squares_line(t, log_y, "t")
    rat_slope, rat_r2 = _least_squares_line(np.log1p(t), log_y, "log1p(t)")
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


# Exact decimal text without a per-value % call. CPython's %.17g takes 0.4-0.6 us
# a value, since 17 digits are past the fast path of its dtoa; these kernels write
# the same bytes for a whole chunk at once. Each value becomes a fixed record of
# little-endian uint64 words with NUL where it has no byte, and one translate drops
# the NULs. A value whose digits the arithmetic cannot certify is formatted by %
# itself. Every operand's dtype is spelled out: numpy 1.x promotes uint64 with
# int64 to float64. The tables are built, and the kernels compute, with as few
# kinds of numpy loop as they can: each kind the program had not run before maps
# about 64 KB more of numpy's code into the resident set.
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)


def _words(texts) -> np.ndarray:
    # byte strings of up to 8 bytes as little-endian uint64 words, NUL-filled
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), "<u8")


def _digit_table() -> np.ndarray:
    """The words of 0..9999: 4 ASCII digits, then in byte 4 16 + the place (1-4)
    of the last nonzero digit, or 0 for 0; filled digit by digit."""
    text = np.zeros((10, 10, 10, 10, 8), np.uint8)
    digit = np.frombuffer(b"0123456789", np.uint8)
    for k in range(4):
        text[..., k] = digit.reshape((10,) + (1,) * (3 - k))
        text[(slice(None),) * k + (slice(1, None), Ellipsis, 4)] = 17 + k
    return text.view("<u8").ravel()


_DIGITS4 = _digit_table()
_LOW4 = np.uint64(0xFFFF_FFFF)  # a table word's digits


def _digit_groups(numbers: np.ndarray) -> np.ndarray:
    # int64 numbers in [0, 1e16) as 4 rows of 4 decimal digits, highest first
    groups = np.empty((4, len(numbers)), np.int64)
    np.floor_divide(numbers, np.int64(10 ** 8), out=groups[1])
    np.subtract(numbers, groups[1] * np.int64(10 ** 8), out=groups[3])
    for k in (0, 2):
        np.floor_divide(groups[k + 1], np.int64(10_000), out=groups[k])
        groups[k + 1] -= groups[k] * np.int64(10_000)
    return groups


def _separator_words(separators: bytes) -> np.ndarray:
    # each separator byte as the last byte of a record's last word
    return _words(b"\0" * 7 + bytes([separator]) for separator in separators)


def _record_text(records: np.ndarray, fallback: np.ndarray, values: np.ndarray, fmt: bytes) -> bytes:
    """The records' bytes without NULs; a record flagged in fallback gives fmt % its
    value and then its last byte, the separator."""
    raw = records.tobytes()
    which = np.flatnonzero(fallback).tolist()
    if not which:
        return raw.translate(None, b"\0")
    width = records.shape[1] * 8
    pieces, start = [], 0
    for index, value in zip(which, values[which].tolist()):
        pieces += (raw[start:index * width], fmt % value, raw[(index + 1) * width - 1:(index + 1) * width])
        start = (index + 1) * width
    pieces.append(raw[start:])
    return b"".join(pieces).translate(None, b"\0")


# %.17g writes |x| = D 10**(E - 16) with D of 17 digits. The fast path takes a guess
# of E in [_E_LO, _E_HI], where neither 10**(16 - E) nor |x| splits past the largest
# double (times 2**27 + 1), even when the guess is one off.
_E_LO, _E_HI = -284, 298


def _pow10_table() -> np.ndarray:
    """Rows hi, hi_hi, hi_lo, lo over E = _E_LO.._E_HI, with 10**(16 - E) = hi + lo
    to about 2**-106, hi and lo correctly rounded from exact ints, and hi split
    into hi_hi + hi_lo of 26 bits each."""
    hi, lo = [], []
    power = 10 ** (16 - _E_LO)
    for _ in range(16 - _E_LO, -1, -1):  # 10**300 down to 10**0
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power //= 10
    power = 10
    for _ in range(_E_HI - 16):  # 10**-1 down to 10**-282
        hi.append(1 / power)
        num, den = hi[-1].as_integer_ratio()
        lo.append((den - num * power) / (den * power))
        power *= 10
    hi, lo = np.array(hi), np.array(lo)
    scaled = hi * _VELTKAMP
    hi_hi = scaled - (scaled - hi)
    return np.stack([hi, hi_hi, hi - hi_hi, lo])


def _g17_layout() -> dict[str, np.ndarray]:
    """How a %.17g record of four words places its text.

    Word 0 holds the sign in byte 0, a 0.000 prefix from byte 1 and the first
    digit in byte 7; words 1 and 2 the other 16 digits; word 3 the exponent from
    byte 2 and the separator in byte 7. With the point after digit i >= 1, the
    digits from byte 7 + i move up a byte and the point takes byte 7 + i; i = 0
    leaves the point to the prefix. Per E - _E_LO, E = _E_LO.._E_HI: word 0's
    prefix, word 3's exponent and i. Per i: the bytes of words 1 and 2 that stay
    and that move, and the point in words 1, 2 and 3. Per 18 i + k, for a value
    whose k-th digit is its last nonzero one (k = 0 for zero): the bytes of
    words 1, 2 and 3 that its text fills.
    """
    exps = range(_E_LO, _E_HI + 1)
    points = [exp + 1 if 0 <= exp < CSV_DIGITS else 0 if -4 <= exp < 0 else 1 for exp in exps]
    layout = {"prefix": _words(b"\0" + b"0." + b"0" * (-1 - exp) if -4 <= exp < 0 else b"" for exp in exps),
              "exponent": _words(b"" if -4 <= exp < CSV_DIGITS else b"\0\0e%+03d" % exp for exp in exps),
              "point": np.array(points, np.int64)}
    moves = [7 + point if point else 24 for point in range(18)]  # the first byte that moves
    for word in (1, 2):
        stays = [min(max(first - 8 * word, 0), 8) for first in moves]
        layout[f"stay{word}"] = _words(b"\xff" * stay for stay in stays)
        layout[f"move{word}"] = _words(b"\0" * stay + b"\xff" * (8 - stay) for stay in stays)
    dots = [(b"\0" * (first - 8) + b"." if point else b"").ljust(24, b"\0") for point, first in enumerate(moves)]
    ends = [7 + (point if kept <= point else kept + (point > 0)) for point in range(18) for kept in range(18)]
    for word in (1, 2, 3):
        layout[f"dot{word}"] = _words(dot[8 * word - 8:8 * word] for dot in dots)
        layout[f"fill{word}"] = _words(b"\xff" * min(max(end - 8 * word, 0), 8) for end in ends)
    layout["sign_lead"] = _words(sign + b"\0" * 6 + bytes([digit]) for sign in (b"", b"-") for digit in b"0123456789")
    return layout


_POW10 = _pow10_table()
_G17 = _g17_layout()


def _g17_text(block: np.ndarray, separators: np.ndarray) -> bytes:
    """b"%.17g" % v for each v of a 2-D float block, row by row, each followed by
    the separator word of its column."""
    x = block.ravel()
    digits, row, fallback = _g17_digits(x)
    records = _g17_records(x, digits, row)
    records.reshape(block.shape + (4,))[:, :, 3] |= separators
    return _record_text(records, fallback, x, b"%.17g")


def _g17_digits(x: np.ndarray):
    """The 17 digits D (0 for zero) and the row E - _E_LO of each x, and whether
    it falls back to %.

    With E = floor(log10|x|) and 10**(16 - E) held as hi + lo, |x| 10**(16 - E)
    = p + err to about 2**-104 by Dekker's two-product (Veltkamp split, no FMA). D is p + floor(err), one more when frac(err) > 1/2. It counts when it
    lies in [1e16, 1e17) and frac(err) is not within 1e-9 of 1/2, which takes in
    every exact tie; other values, nan and inf fall back.
    """
    mag = np.abs(x)
    fast = (mag > 0.0) & (mag < np.inf)
    mag = np.where(fast, mag, 1.0)
    exp = np.floor(np.log10(mag))
    fast &= (exp >= _E_LO) & (exp <= _E_HI)
    mag = np.where(fast, mag, 1.0)
    row = np.where(fast, exp, 0.0).astype(np.int64) - np.int64(_E_LO)
    p = mag * _POW10[0].take(row)
    mag_hi = mag * _VELTKAMP
    mag_hi -= mag_hi - mag
    mag_lo = mag - mag_hi
    err = mag_hi * _POW10[1].take(row)
    err -= p
    err += mag_hi * _POW10[2].take(row)
    err += mag_lo * _POW10[1].take(row)
    err += mag_lo * _POW10[2].take(row)
    err += mag * _POW10[3].take(row)
    whole = np.floor(err)
    err -= whole  # its fraction, exactly
    up = err > 0.5
    # D in [1e16, 1e17), where p - 1e16 and p - 1e17 are exact; D = 1e17, a guess of E
    # one too low, falls back
    fast &= (p - 1e16 >= -whole) & ((p - 1e17) + whole < np.where(up, -1.0, 0.0)) & (np.abs(err - 0.5) > 1e-9)
    digits = p.astype(np.int64) + whole.astype(np.int64)
    return np.where(fast, np.where(up, digits + np.int64(1), digits), np.int64(0)), row, ~(fast | (x == 0.0))


def _g17_records(x: np.ndarray, digits: np.ndarray, row: np.ndarray) -> np.ndarray:
    # the four words of each value's text, as _g17_layout lays them out
    lead = digits // np.int64(10 ** 16)
    groups = _digit_groups(digits - lead * np.int64(10 ** 16))
    words = [_DIGITS4.take(group) for group in groups]
    del groups
    first = words[0] & _LOW4 | words[1] << _U32
    second = words[2] & _LOW4 | words[3] << _U32
    kept = np.minimum(lead, np.int64(1))  # digits to the last nonzero one: 0 for zero
    for place, word in zip((1, 5, 9, 13), words):  # below 0 for a group of zeros
        kept = np.maximum(kept, (word >> _U32).view(np.int64) + np.int64(place - 16))
    del words
    records = np.empty((len(x), 4), "<u8")
    records[:, 0] = _G17["prefix"].take(row) | _G17["sign_lead"].take(
        lead + np.where(np.signbit(x), np.int64(10), np.int64(0)))
    point = _G17["point"].take(row)
    ends = point * np.int64(18) + kept
    moved1 = first & _G17["move1"].take(point)
    records[:, 1] = (first & _G17["stay1"].take(point) | moved1 << _U8 | _G17["dot1"].take(point)) & _G17[
        "fill1"].take(ends)
    moved2 = second & _G17["move2"].take(point)
    records[:, 2] = (second & _G17["stay2"].take(point) | moved2 << _U8 | moved1 >> _U56
                     | _G17["dot2"].take(point)) & _G17["fill2"].take(ends)
    records[:, 3] = (moved2 >> _U56 | _G17["dot3"].take(point)) & _G17["fill3"].take(ends) | _G17["exponent"].take(row)
    return records


# cents at which the integer part of a %.2f text gains its 2nd, 3rd, ... 13th digit
_CENTS_WITH_DIGITS = np.array([10 ** k for k in range(3, 15)], np.int64)
# the bytes of words 0 and 1 that a %.2f record keeps with 1 + i integer digits
_F2_FILL0, _F2_FILL1 = (_words((b"\xff" + b"\0" * (12 - i) + b"\xff" * (3 + i))[k:k + 8] for i in range(13))
                        for k in (0, 8))
_F2_MINUS = _words([b"", b"-"])  # word 0's sign


def _f2_text(block: np.ndarray, separators: np.ndarray) -> bytes:
    """b"%.2f" % v for each v of a 2-D float block, row by row, each followed by
    the separator word of its column."""
    x = block.ravel()
    cents, fast = _f2_cents(x)
    records = _f2_records(x, cents)
    records.reshape(block.shape + (3,))[:, :, 2] |= separators
    return _record_text(records, ~fast, x, b"%.2f")


def _f2_cents(x: np.ndarray):
    """round(100 |x|) and whether it is certified.

    100 |x| = p + err exactly (two-product; 100 has 5 significant bits), so the
    sign of (p - floor(p) - 1/2) + err rounds half to even, ties included. |x| >=
    1e13 (and 100 |x| rounding to 1e15), nan and inf fall back to %.
    """
    mag = np.abs(x)
    fast = mag < 1e13
    mag = np.where(fast, mag, 0.0)
    p = mag * 100.0
    mag_hi = mag * _VELTKAMP
    mag_hi -= mag_hi - mag
    err = mag_hi * 100.0 - p
    err += (mag - mag_hi) * 100.0
    floor = np.floor(p)
    above_half = ((p - floor) - 0.5) + err
    half = floor * 0.5
    odd = half - np.floor(half) > 0.25
    cents = np.where((above_half > 0.0) | ((above_half == 0.0) & odd), floor + 1.0, floor)
    fast &= cents < 1e15  # 9999999999999.995 and up print 14 integer digits
    return cents.astype(np.int64), fast


def _f2_records(x: np.ndarray, cents: np.ndarray) -> np.ndarray:
    # three words: the sign and 7 integer digits; 6 more, the point and a decimal;
    # the last decimal and the separator
    groups = _digit_groups(cents)  # 16 digits, the first always 0
    fill = np.searchsorted(_CENTS_WITH_DIGITS, cents, side="right")
    records = np.empty((len(x), 3), "<u8")
    records[:, 0] = (_DIGITS4.take(groups[0]) & np.uint64(0xFFFF_FF00) | _DIGITS4.take(groups[1]) << _U32
                     | _F2_MINUS.take(np.where(np.signbit(x), np.int64(1), np.int64(0)))) & _F2_FILL0.take(fill)
    last = _DIGITS4.take(groups[3])
    records[:, 1] = (_DIGITS4.take(groups[2]) & _LOW4 | (last & np.uint64(0xFFFF)) << _U32
                     | np.uint64(ord(".") << 48) | (last & np.uint64(0xFF0000)) << np.uint64(40)) & _F2_FILL1.take(fill)
    records[:, 2] = (last & np.uint64(0xFF00_0000)) >> np.uint64(24)
    return records


def emit_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV: 17 significant digits, LF newlines.

    The file is ASCII and written as bytes, _CSV_CHUNK rows at a time.
    """
    names, columns = zip(*_csv_columns(traj))
    separators = _separator_words(b"," * (len(columns) - 1) + b"\n")
    try:
        with open(path, "wb") as handle:
            handle.write((",".join(names) + "\n").encode())
            for lo in range(0, len(columns[0]), _CSV_CHUNK):
                handle.write(_g17_text(np.stack([column[lo:lo + _CSV_CHUNK] for column in columns], axis=1),
                                       separators))
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
# polyline points formatted per kernel call and write; 4,096 points took repro-paper's
# peak RSS about 0.7 MB over 1,024, at the same 90 ns a value, and 256 points cost
# 170 ns a value
_SVG_CHUNK = 1024
_SVG_SEPARATORS = _separator_words(b", ")  # px,py px,py ...
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # xml.sax.saxutils costs 6 MB RSS


def emit_plot(curves, path, log_y: bool = False, title: str = "") -> None:
    """Write a self-contained SVG polyline chart.

    ``curves`` is a sequence of (label, t, y) triples sharing one axis
    system; log_y switches the vertical axis to log10 and then requires
    strictly positive data. Output is byte-deterministic UTF-8 whatever the
    locale. Every input check, pixel and byte of text comes before the file
    is opened; the points are then written _SVG_CHUNK at a time.
    """
    curves = [(str(label), np.asarray(t, float), np.asarray(y, float)) for label, t, y in curves]
    if not curves or any(len(t) == 0 or t.shape != y.shape for _, t, y in curves):
        raise ContractViolation("plot needs at least one non-empty series")
    if not all(np.isfinite(t).all() and np.isfinite(y).all() for _, t, y in curves):
        raise ContractViolation("plot needs finite data")
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
            f'text-anchor="middle">{title.translate(_XML_TEXT)}</text>'
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
    # every pixel and byte is made before the file opens, so bad data leaves no file
    points = [to_px(t, y) for _, t, y in curves]
    tails = [f'" fill="none" stroke="{_PALETTE[idx % len(_PALETTE)]}" stroke-width="1.5"/>\n'
             f'<text x="{_MARGIN_L + plot_w - 8}" y="{_MARGIN_T + 16 + 14 * idx}" font-family="monospace" '
             f'font-size="11" text-anchor="end" fill="{_PALETTE[idx % len(_PALETTE)]}">'
             f'{label.translate(_XML_TEXT)}</text>\n' for idx, (label, _, _) in enumerate(curves)]
    try:
        head, *tails = [text.encode() for text in ["\n".join(parts) + "\n", *tails]]
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise ContractViolation(f"plot text is not UTF-8: {exc}") from None
    try:
        with open(path, "wb") as handle:
            handle.write(head)
            for (px, py), tail in zip(points, tails):
                handle.write(b'<polyline points="')
                for lo in range(0, len(px), _SVG_CHUNK):
                    text = _f2_text(np.stack((px[lo:lo + _SVG_CHUNK], py[lo:lo + _SVG_CHUNK]), axis=1),
                                    _SVG_SEPARATORS)
                    handle.write(text if lo + _SVG_CHUNK < len(px) else text[:-1])  # no space after the last
                handle.write(tail)
            handle.write(b"</svg>\n")
    except OSError as exc:
        raise OutputIOError(f"cannot write SVG {path}: {exc}") from exc
