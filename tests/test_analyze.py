import codecs
import math
import re
import tracemalloc
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

import ratstab as rs
from ratstab import analyze
from ratstab.ddesim import Trajectory
from ratstab.errors import ContractViolation, OutputIOError

from conftest import BENCH_X0, BENCH_XHAT0, run_in_ascii_locale


def test_verify_decay_exact_exponential():
    t = np.arange(0.0, 5.0, 0.01)
    report = rs.verify_decay(t, np.exp(-2.0 * t), rate=2.0, tol=1e-3)
    assert report.violation_fraction == 0.0
    assert report.max_violation <= 1e-12


def test_verify_decay_zero_series():
    t = np.arange(0.0, 1.0, 0.01)
    report = rs.verify_decay(t, np.zeros_like(t), rate=5.0, tol=1e-3)
    assert report.violation_fraction == 0.0


def test_verify_decay_too_slow():
    t = np.arange(0.0, 5.0, 0.01)
    report = rs.verify_decay(t, np.exp(-t), rate=2.0, tol=1e-3)
    assert report.violation_fraction >= 0.95
    assert report.max_violation > 0.0


def test_verify_decay_contract():
    with pytest.raises(ContractViolation):
        rs.verify_decay([0.0, 0.1], [1.0, 0.9], rate=1.0, tol=1e-3)
    with pytest.raises(ContractViolation):
        rs.verify_decay([0.0, 0.1, 0.3], [1.0, 0.9, 0.8], rate=1.0, tol=1e-3)
    with pytest.raises(ContractViolation):
        rs.verify_decay([0.0, 0.1, 0.2], [1.0, 0.9, 0.8], rate=-1.0, tol=1e-3)


def test_fit_envelope_exponential():
    t = np.linspace(0.0, 5.0, 200)
    fit = rs.fit_envelope(t, np.exp(-2.0 * t))
    assert fit.exp_rate == pytest.approx(2.0, rel=0.05)
    assert fit.exp_r2 > 0.999
    assert fit.preferred == "exponential"


def test_fit_envelope_rational():
    t = np.linspace(0.0, 50.0, 400)
    fit = rs.fit_envelope(t, (1.0 + t) ** -3.0)
    assert fit.rational_exponent == pytest.approx(3.0, rel=0.05)
    assert fit.rational_r2 > 0.999
    assert fit.preferred == "rational"


def test_fit_envelope_constant():
    t = np.linspace(0.0, 5.0, 50)
    fit = rs.fit_envelope(t, np.ones_like(t))
    assert abs(fit.exp_rate) <= 1e-12
    assert abs(fit.rational_exponent) <= 1e-12


def test_fit_envelope_with_noise():
    rng = np.random.default_rng(77)
    t = np.linspace(0.0, 5.0, 300)
    noisy = np.exp(-2.0 * t) * (1.0 + 0.01 * rng.normal(size=t.shape))
    assert rs.fit_envelope(t, noisy).exp_rate == pytest.approx(2.0, rel=0.15)
    t = np.linspace(0.0, 50.0, 300)
    noisy = (1.0 + t) ** -3.0 * (1.0 + 0.01 * rng.normal(size=t.shape))
    assert rs.fit_envelope(t, noisy).rational_exponent == pytest.approx(3.0, rel=0.15)


def test_fit_envelope_contract():
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ContractViolation):
        rs.fit_envelope(t, np.concatenate([np.ones(19), [0.0]]))
    with pytest.raises(ContractViolation):
        rs.fit_envelope(t[:5], np.ones(5))
    with pytest.raises(ContractViolation, match="1 \\+ t > 0"):
        rs.fit_envelope(t - 1.0, np.ones(20))


@pytest.mark.parametrize("t, message", [
    (np.full(20, 3.0), "t takes one value, 3.0: no line to fit"),
    (np.r_[np.linspace(0.0, 1.0, 19), np.inf], "t must be finite"),
    (np.r_[np.linspace(0.0, 1.0, 19), np.nan], "t must be finite"),
    (1e17 + 16.0 * (np.arange(20) % 2), "log1p\\(t\\) takes one value"),
    (np.linspace(1e307, 1.7e308, 20), "the squared deviations of t overflow"),
], ids=["one_repeated_t", "infinite_t", "nan_t", "log1p_t_rounds_to_one_value", "spread_overflows"])
def test_fit_envelope_needs_a_finite_t_with_a_spread(t, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match=message):
            rs.fit_envelope(t, np.exp(-np.arange(20.0)))


def test_fit_envelope_matches_a_polynomial_fit():
    # the closed-form line is the least-squares line that np.polyfit finds
    rng = np.random.default_rng(19)
    t = np.sort(rng.uniform(0.0, 30.0, 500))
    y = np.exp(-0.7 * t) * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 500))
    fit = rs.fit_envelope(t, y)
    for x, slope in ((t, -fit.exp_rate), (np.log1p(t), -fit.rational_exponent)):
        assert slope == pytest.approx(np.polyfit(x, np.log(y), 1)[0], rel=1e-12)


def _synthetic_trajectory(scale=1.0, rate=1.0, h=0.01, horizon=5.0, tau=1.0):
    m = int(round(tau / h))
    steps = int(round(horizon / h))
    t = np.arange(-m, steps + 1) * h
    x = np.empty((len(t), 1))
    x[:, 0] = scale * np.exp(-rate * np.maximum(t, 0.0))
    return Trajectory(t=t, x=x, xhat=None, u=np.zeros(len(t)), theta=2.0, tau=tau, h=h)


def test_bound_check_zero_trajectory():
    traj = _synthetic_trajectory(scale=0.0)
    params = rs.StabilityParams(lam1=1, lam2=1, lam3=1, r1=2, r2=2, k=1)
    assert rs.bound_check(traj, params, tol=0.0)


def test_bound_check_matched_envelope_and_scaled_violation():
    # e^{-t} <= (1 + 2t)^{-1/2} holds with equality slope at t = 0
    params = rs.StabilityParams(lam1=1.0, lam2=1.0, lam3=2.0, r1=2.0, r2=2.0, k=1.0)
    assert rs.bound_check(_synthetic_trajectory(scale=1.0), params, tol=1e-9)
    assert not rs.bound_check(_synthetic_trajectory(scale=10.0), params, tol=0.05)


def test_bound_check_certified_linear_instance(linear_system, bench_gains):
    # state feedback, f = 0, k = 0: envelope derived from the functional decay
    theta, tau = 8.0, 1.0
    traj = rs.run_scenario(linear_system, bench_gains, rs.Scenario.STATE_FEEDBACK,
                           np.array([1.0, 1.0]), h=0.001, horizon=6.0)
    cert = rs.solve_lyapunov(bench_gains.A_K)
    lam = math.log(theta) / (2.0 * tau)
    lam1 = cert.min_eig / theta ** 2  # |x| <= theta^(n-1) |chi|
    lam2 = cert.spectral_norm + 0.5 * theta * tau
    norm_phi = float(np.max(traj.norm_x()[traj.t <= 0.0]))
    lam3 = lam / (lam2 * norm_phi**2)
    params = rs.StabilityParams(lam1=lam1, lam2=lam2, lam3=lam3, r1=2.0, r2=2.0, k=1.0)
    assert rs.bound_check(traj, params, tol=0.05)


def test_history_and_solution_split_at_t_zero_on_a_tiny_grid(linear_system, bench_gains):
    # grid times are k h with node m at exactly 0.0; at h = 1e-13 every node lies
    # within 1e-12 of zero, so a tolerance there would misplace all of them
    spec = rs.SystemSpec(n=2, tau=2e-13, f=linear_system.f, lipschitz_k=0.0)
    traj = rs.run_scenario(spec, bench_gains, rs.Scenario.STATE_FEEDBACK, np.array([1.0, 1.0]),
                           h=1e-13, horizon=1e-12)
    assert traj.t[2] == 0.0
    assert np.array_equal(traj.u[:2], [0.0, 0.0])  # history rows carry no control
    assert traj.u[2] == -2160.0
    # an envelope a millionth of |x|: the nodes with t > 0 must be checked against it
    params = rs.StabilityParams(lam1=1e12, lam2=1.0, lam3=1.0, r1=2.0, r2=2.0, k=1.0)
    assert not rs.bound_check(traj, params, tol=0.05)


def _small_trajectory(with_observer: bool) -> Trajectory:
    t = np.array([-0.2, -0.1, 0.0, 0.1])
    x = np.array([[1.0, 2.0], [1.5, 2.5], [-1.0 / 3.0, 0.125], [0.7, -0.2]])
    xhat = x + 0.5 if with_observer else None
    u = np.array([0.0, 0.0, 1.0, -2.0])
    return Trajectory(t=t, x=x, xhat=xhat, u=u, theta=4.0, tau=0.2, h=0.1)


def test_csv_header_and_line_count(tmp_path):
    path = tmp_path / "traj.csv"
    traj = _small_trajectory(with_observer=False)
    analyze.emit_csv(traj, path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"t,x1,x2,u,norm_x"
    assert len(lines) == 6  # header + 4 rows + trailing newline split
    assert lines[-1] == b""
    traj = _small_trajectory(with_observer=True)
    analyze.emit_csv(traj, path)
    assert path.read_bytes().split(b"\n")[0] == b"t,x1,x2,xh1,xh2,u,norm_x,norm_err"


def test_csv_roundtrip_bit_exact(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    traj = _small_trajectory(with_observer=True)
    analyze.emit_csv(traj, first)
    names, rows = analyze.read_csv(first)
    assert rows.shape == (4, 8)
    # doubles survive the 17-significant-digit round trip exactly
    assert np.array_equal(rows[:, 1:3], traj.x)
    rebuilt = Trajectory(t=rows[:, 0], x=rows[:, 1:3], xhat=rows[:, 3:5],
                         u=rows[:, 5], theta=traj.theta, tau=traj.tau, h=traj.h)
    analyze.emit_csv(rebuilt, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_io_error():
    traj = _small_trajectory(with_observer=False)
    with pytest.raises(OutputIOError):
        analyze.emit_csv(traj, "/nonexistent-dir/traj.csv")


def _per_value_csv(traj: Trajectory) -> bytes:
    # the CSV written value by value, each with f"{v:.17g}"
    columns = [traj.t, *traj.x.T]
    if traj.xhat is not None:
        columns += [*traj.xhat.T]
    columns += [traj.u, traj.norm_x()]
    if traj.xhat is not None:
        columns.append(traj.norm_err())
    lines = [",".join(analyze.csv_header(traj))]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("with_observer", [False, True])
def test_csv_rows_match_per_value_formatting(tmp_path, with_observer):
    big = 1.7976931348623157e308
    t = np.array([-0.2, -0.1, -0.0, 0.1, big, 5e-324])
    x = np.array([[-0.0, 5e-324], [np.inf, 1.0 / 3.0], [-np.inf, -2.5e-300],
                  [1e-5, -0.0], [0.1, 7.0], [123456789.0, -1e22]])
    rng = np.random.default_rng(3)
    xhat = rng.normal(size=x.shape) if with_observer else None
    u = np.array([0.0, big, -big, np.nan, -0.0, 5e-324])
    special = Trajectory(t=t, x=x, xhat=xhat, u=u, theta=4.0, tau=0.2, h=0.1)
    # 3 * _CSV_CHUNK + 1 rows span several of emit_csv's writes, the last one short;
    # the special rows sit at the start of the first chunk, inside a middle one and
    # at the end of the last
    rows = 3 * analyze._CSV_CHUNK + 1
    t, u = rng.normal(size=(2, rows))
    x = rng.normal(size=(rows, 2))
    xhat = rng.normal(size=(rows, 2)) if with_observer else None
    for start in (0, analyze._CSV_CHUNK + 100, rows - 6):
        t[start:start + 6], x[start:start + 6], u[start:start + 6] = special.t, special.x, special.u
        if with_observer:
            xhat[start:start + 6] = special.xhat
    chunked = Trajectory(t=t, x=x, xhat=xhat, u=u, theta=4.0, tau=0.2, h=0.1)
    for traj in (special, chunked):
        path = tmp_path / "special.csv"
        analyze.emit_csv(traj, path)
        data = path.read_bytes()
        assert data == _per_value_csv(traj)
        for text in (b"-0,", b"4.9406564584124654e-324", b"1.7976931348623157e+308", b",inf,", b",-inf,",
                     b"nan"):
            assert text in data
    assert data.count(b"4.9406564584124654e-324") == 3 * 3  # in t, x and u of each placed block


def test_benchmark_csv_roundtrip(tmp_path, bench_system, bench_gains):
    traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                           BENCH_X0, BENCH_XHAT0, h=0.01, horizon=2.0)
    path = tmp_path / "bench.csv"
    analyze.emit_csv(traj, path)
    _, rows = analyze.read_csv(path)
    assert np.array_equal(rows[:, 0], traj.t)
    assert np.array_equal(rows[:, 1:3], traj.x)
    assert np.array_equal(rows[:, 3:5], traj.xhat)


def _kernel_text(monkeypatch, kernel, fmt: bytes, values, separators: bytes):
    """The kernel's text of values in rows of len(separators) columns, 4,096 rows a
    call, against % on the same rows; and the values it handed to %."""
    handed = []
    record_text = analyze._record_text

    def spy(records, fallback, x, fmt):
        handed.extend(x[fallback].tolist())
        return record_text(records, fallback, x, fmt)

    monkeypatch.setattr(analyze, "_record_text", spy)
    rows = np.asarray(values, float).reshape(-1, len(separators))
    words = analyze._separator_words(separators)
    row_format = b"".join(fmt + bytes([sep]) for sep in separators)
    for lo in range(0, len(rows), 4096):
        chunk = rows[lo:lo + 4096]
        assert kernel(chunk, words) == row_format * len(chunk) % tuple(chunk.ravel().tolist())
    monkeypatch.undo()
    return handed


def _seeded_doubles(seed: int, count: int, exponents: int = 2047) -> np.ndarray:
    # either sign, a uniform mantissa and each biased exponent below `exponents` alike
    # (0: subnormals, 2046: up to the largest double)
    rng = np.random.default_rng(seed)
    bits = (rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
            | rng.integers(0, exponents, count, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2 ** 52, count, dtype=np.uint64))
    return bits.view(np.float64)


def test_g17_kernel_matches_percent_on_a_million_doubles(monkeypatch):
    values = _seeded_doubles(17, 2 ** 20)
    handed = _kernel_text(monkeypatch, analyze._g17_text, b"%.17g", values, b",,,\n")
    # the fast path takes 10**-284 <= |x| < 10**299: about 92 % of the exponents
    assert 0.05 < len(handed) / len(values) < 0.11


def test_g17_kernel_matches_percent_on_edge_values(monkeypatch):
    big = np.finfo(float).max
    tie = 2.0 ** -25  # 2.98023223876953125e-08: the 17th digit ties, and rounds to even
    powers = [float(f"1e{k}") for k in range(-323, 309)] + [10.0 ** k for k in range(-30, 31)]
    values = ([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, big, -big, tie, -tie,
               1e16, 1e17, 9.9999999999999999e16, 1e-5, 0.1, -0.1, 1 / 3, 123456789.0, 0.5]
              + powers + [math.nextafter(p, 0.0) for p in powers] + [math.nextafter(p, math.inf) for p in powers])
    values += [0.0] * (-len(values) % 4)
    handed = _kernel_text(monkeypatch, analyze._g17_text, b"%.17g", values, b",,,\n")
    assert b"%.17g" % tie == b"2.9802322387695312e-08"
    assert {math.inf, -math.inf, 5e-324, big, tie} <= set(handed) and any(map(math.isnan, handed))
    assert 0.0 not in handed and 0.1 not in handed


@pytest.mark.parametrize("off", [-1.0, 1.0])
def test_g17_kernel_falls_back_when_the_exponent_guess_is_off_by_one(monkeypatch, off):
    # np.log10's SIMD loops differ by ulps; a guess of E off by one must not change the text
    values = np.concatenate([_seeded_doubles(23, 4092), [1.0, 0.1, 9.5, -123.0]])
    log10 = np.log10
    monkeypatch.setattr(analyze.np, "log10", lambda mag: log10(mag) + off)
    handed = _kernel_text(monkeypatch, analyze._g17_text, b"%.17g", values, b",,,\n")
    assert len(handed) == len(values)


def test_f2_kernel_matches_percent_on_a_million_doubles(monkeypatch):
    # every exponent, then a million below 2**45, where the fast path ends at 1e13
    values = np.concatenate([_seeded_doubles(5, 2 ** 15), _seeded_doubles(6, 2 ** 20, 1023 + 45)])
    handed = _kernel_text(monkeypatch, analyze._f2_text, b"%.2f", values, b", ")
    assert handed and min(map(abs, handed)) >= 1e13
    assert len(handed) > 0.4 * 2 ** 15


def test_f2_kernel_matches_percent_on_edge_values(monkeypatch):
    below = math.nextafter(1e13, 0.0)
    values = ([0.005, 0.015, 1.005, 2.675, -0.004, -0.005, -0.0, 0.0, 9999999999999.994, below, -below, 1e13,
               -1e13, 1.5e13, 1e15, 1e22, np.finfo(float).max, 5e-324, math.inf, -math.inf, math.nan, 0.125]
              + [k / 8 for k in range(-200, 201)] + [k / 200 for k in range(-4000, 4001)]
              + [(k + 0.5) / 100 for k in range(-1000, 1001)])
    values += [0.0] * (len(values) % 2)
    handed = _kernel_text(monkeypatch, analyze._f2_text, b"%.2f", values, b", ")
    assert b"%.2f,%.2f" % (0.125, 0.375) == b"0.12,0.38"  # ties to even; 2.675 is below its tie
    assert {1e13, -1e13, below, math.inf} <= set(handed) and any(map(math.isnan, handed))
    assert 9999999999999.994 not in handed


def test_csv_memory_does_not_grow_with_the_formatted_rows(tmp_path):
    # 100,001 rows with an observer: the file takes 16 MB, while emit_csv peaks at 5.6 MB
    # (tracemalloc), the two norm columns it adds (0.8 MB each) and their temporaries;
    # formatting every row in one call peaked at 57 MB
    rows = 100_001
    rng = np.random.default_rng(5)
    x, xhat = rng.normal(size=(2, rows, 2))
    traj = Trajectory(t=np.linspace(-1.0, 99.0, rows), x=x, xhat=xhat, u=rng.normal(size=rows),
                      theta=4.0, tau=1.0, h=1e-3)
    tracemalloc.start()
    try:
        analyze.emit_csv(traj, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * traj.u.nbytes
    assert (tmp_path / "long.csv").read_bytes().count(b"\n") == rows + 1


def test_plot_deterministic(tmp_path):
    t = np.linspace(0.0, 1.0, 50)
    curves = [("a", t, np.exp(-t)), ("b", t, np.exp(-2 * t))]
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    analyze.emit_plot(curves, p1)
    analyze.emit_plot(curves, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data.count(b"<polyline") == 2
    assert data.startswith(b"<svg")


def test_plot_escapes_markup_in_the_title_and_labels(tmp_path):
    t = np.linspace(0.0, 1.0, 50)
    path = tmp_path / "markup.svg"
    analyze.emit_plot([("a<b & c", t, np.exp(-t)), ('"d" > e', t, np.exp(-2 * t))], path,
                      title="x < y & z")
    texts = [node.text for node in ElementTree.parse(path).getroot()
             if node.tag.endswith("text")]
    assert texts[0] == "x < y & z"
    assert texts[-2:] == ["a<b & c", '"d" > e']


_ASCII_PLOT = """
import locale, sys
import numpy as np
from ratstab import analyze
print(locale.getpreferredencoding(False))
t = np.linspace(0.0, 1.0, 50)
analyze.emit_plot([("\\u03b8 & <", t, np.exp(-t))], sys.argv[1], title="\\u03b1")
"""


def test_plot_writes_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "greek.svg"
    done = run_in_ascii_locale(_ASCII_PLOT, str(path))
    assert (done.returncode, done.stderr) == (0, b""), done.stderr
    assert codecs.lookup(done.stdout.decode().strip()).name == "ascii"  # open()'s default encoding there
    texts = [node.text for node in ElementTree.parse(path).getroot() if node.tag.endswith("text")]
    assert texts[0] == "\u03b1" and texts[-1] == "\u03b8 & <"
    assert "\u03b1".encode() in path.read_bytes()


def test_plot_text_that_utf8_cannot_encode_leaves_no_file(tmp_path):
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ContractViolation, match="not UTF-8"):
        analyze.emit_plot([("\ud800", t, np.exp(-t))], tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


def test_plot_log_scale(tmp_path):
    t = np.linspace(0.0, 1.0, 50)
    analyze.emit_plot([("a", t, np.exp(-t))], tmp_path / "log.svg", log_y=True)
    with pytest.raises(ContractViolation):
        analyze.emit_plot([("a", t, np.zeros_like(t))], tmp_path / "bad.svg", log_y=True)


def _per_point_polylines(curves, log_y: bool) -> list[str]:
    # each polyline's points, mapped and formatted one point at a time
    curves = [(np.asarray(t, float), np.log10(y) if log_y else np.asarray(y, float))
              for _, t, y in curves]
    x_lo = min(float(np.min(t)) for t, _ in curves)
    x_hi = max(float(np.max(t)) for t, _ in curves)
    y_lo = min(float(np.min(y)) for _, y in curves)
    y_hi = max(float(np.max(y)) for _, y in curves)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def to_px(tv, yv):
        px = 70 + (tv - x_lo) / (x_hi - x_lo) * 710
        py = 20 + (y_hi - yv) / (y_hi - y_lo) * 435
        return px, py

    return [" ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(tv, yv) for tv, yv in zip(t, y)))
            for t, y in curves]


# 10,001 points span several of emit_plot's writes, the last one short
@pytest.mark.parametrize("log_y, count", [
    pytest.param(False, 500, id="linear"), pytest.param(True, 500, id="log"),
    pytest.param(False, 10_001, id="linear-10001"), pytest.param(True, 10_001, id="log-10001")])
def test_plot_points_match_per_point_formatting(tmp_path, log_y, count):
    assert count == 500 or count > analyze._SVG_CHUNK
    t = np.linspace(-1.0, 10.0, count)
    rng = np.random.default_rng(11)
    if log_y:
        curves = [("a", t, np.exp(-2.0 * t) * (1.5 + np.sin(5.0 * t))),
                  ("b", t, rng.uniform(1e-9, 1e3, count))]
    else:
        curves = [("a", t, 40.0 * np.sin(3.0 * t) * np.exp(-0.2 * t)),
                  ("b", t, rng.normal(size=count))]
    path = tmp_path / "plot.svg"
    analyze.emit_plot(curves, path, log_y=log_y)
    emitted = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert emitted == _per_point_polylines(curves, log_y)
    assert all(len(points.split(" ")) == count for points in emitted)


@pytest.mark.parametrize("curves, log_y", [
    pytest.param([], False, id="no-curve"),
    pytest.param([("a", np.arange(3.0), np.arange(4.0))], False, id="mismatched"),
    pytest.param([("a", np.arange(3.0), np.ones(3)), ("b", np.arange(3.0), np.zeros(3))], True,
                 id="log-of-zero"),
    # numpy must not warn on the way: the suite turns a RuntimeWarning into an error
    pytest.param([("a", np.arange(3.0), np.array([1.0, math.nan, 2.0]))], False, id="nan"),
    pytest.param([("a", np.arange(3.0), np.array([1.0, math.inf, 2.0]))], False, id="inf"),
    pytest.param([("a", np.array([0.0, 1.0, math.inf]), np.ones(3))], False, id="inf-time"),
    pytest.param([("a", np.arange(3.0), np.array([1.0, math.inf, 2.0]))], True, id="log-of-inf")])
def test_plot_input_errors_leave_no_file(tmp_path, curves, log_y):
    with pytest.raises(ContractViolation):
        analyze.emit_plot(curves, tmp_path / "bad.svg", log_y=log_y)
    assert not (tmp_path / "bad.svg").exists()


def test_plot_memory_does_not_grow_with_the_formatted_points(tmp_path):
    # two 100,001-point curves: their pixel arrays take 3.2 MB, while holding
    # every formatted point at once peaks at 11 MB (tracemalloc)
    t = np.linspace(0.0, 100.0, 100_001)
    curves = [("a", t, np.exp(-0.05 * t) * np.sin(t)), ("b", t, np.cos(3.0 * t))]
    tracemalloc.start()
    try:
        analyze.emit_plot(curves, tmp_path / "long.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert (tmp_path / "long.svg").read_text().count(",") == 2 * 100_001


def test_plot_empty_series_rejected(tmp_path):
    with pytest.raises(ContractViolation):
        analyze.emit_plot([], tmp_path / "no.svg")
    with pytest.raises(ContractViolation):
        analyze.emit_plot([("a", np.array([]), np.array([]))], tmp_path / "no.svg")


def test_fit_tail_keeps_late_positive_samples():
    t = np.arange(0.0, 5.0, 0.1)
    y = np.exp(-t)
    y[30:35] = 0.0
    fit, count = analyze.fit_tail(t, y, 1.0)
    keep = (t >= 1.0) & (y > 0.0)
    assert count == np.count_nonzero(keep) == 35
    assert fit == rs.fit_envelope(t[keep], y[keep])


def test_fit_tail_needs_ten_samples():
    t = np.arange(0.0, 2.0, 0.1)
    fit, count = analyze.fit_tail(t, np.exp(-t), 1.05)
    assert (fit, count) == (None, 9)
    fit, count = analyze.fit_tail(t, np.exp(-t), 1.0)
    assert fit is not None and count == 10


@pytest.mark.parametrize("rate, tol, message", [
    (math.nan, 1e-3, "rate must be finite and >= 0, got nan"),
    (1.0, math.nan, "tol must be finite and >= 0, got nan"),
    (1.0, math.inf, "tol must be finite and >= 0, got inf"),
    (1.0, -1e-3, "tol must be finite and >= 0, got -0.001"),
], ids=["rate_nan", "tol_nan", "tol_inf", "tol_negative"])
def test_verify_decay_rejects_non_finite_rate_and_tol(rate, tol, message):
    # a growing series: with tol = nan no step was flagged, so it read as decaying
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ContractViolation) as caught:
        rs.verify_decay(t, np.exp(t), rate=rate, tol=tol)
    assert str(caught.value) == message


@pytest.mark.parametrize("t, y, points", [
    pytest.param([2.0], [3.0], "425.00,237.50", id="single-point"),
    pytest.param([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], "70.00,237.50 425.00,237.50 780.00,237.50",
                 id="constant"),
])
def test_plot_widens_an_empty_axis_range(tmp_path, t, y, points):
    # a zero-width range becomes one unit wide around its value
    path = tmp_path / "flat.svg"
    analyze.emit_plot([("a", t, y)], path)
    assert re.findall(r'<polyline points="([^"]*)"', path.read_text()) == [points]


def test_plot_io_error(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(OutputIOError, match="cannot write SVG"):
        analyze.emit_plot([("a", t, t)], tmp_path / "missing" / "plot.svg")


def test_read_csv_of_a_directory_is_an_io_error(tmp_path):
    with pytest.raises(OutputIOError, match="cannot read CSV"):
        analyze.read_csv(tmp_path)
