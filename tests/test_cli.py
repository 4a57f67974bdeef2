import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ratstab as rs
from ratstab import analyze, cli

from conftest import run_in_ascii_locale


def base_config(out_dir, **tweaks):
    cfg = {
        "system": {"n": 2, "tau": 1.0, "lipschitz_k": 0.5, "f": "paper_example",
                   "domain_box": [[-30.0, 30.0], [-30.0, 30.0]]},
        "gains": {"L": [-14.0, -28.0], "K": [-30.0, -30.0], "theta": 8.0},
        "sim": {"h": 0.01, "T": 2.0, "x0": [-20.0, -10.0], "xhat0": [10.0, 10.0], "seed": 0},
        "scenario": {"mode": "observer_based"},
        "output": {"directory": str(out_dir), "emit_plots": False},
    }
    for dotted, value in tweaks.items():
        section, key = dotted.split(".")
        if value is None:
            cfg[section].pop(key, None)
        else:
            cfg[section][key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_certify_pass(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["certify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert (tmp_path / "out" / "certificate.json").exists()
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["pass"]["all"] is True
    assert payload["margins"]["a"] > 0


def test_certify_failing_margin(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"system.lipschitz_k": 2.0}))
    assert cli.main(["certify", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_certify_prints_short_margin_lines_at_a_huge_theta(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["certify", "--config", path, "--theta", "1e200"]) == 0
    margins = [line for line in capsys.readouterr().out.splitlines() if "margin" in line]
    assert len(margins) == 6  # the five margins and the note above them
    assert all(len(line) < 80 for line in margins)
    assert "  margin               a =  5.000000e+199  PASS" in margins


def test_certify_non_hurwitz_gains(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"gains.K": [0.0, 0.0]}))
    assert cli.main(["certify", "--config", path]) == 2
    assert "Hurwitz" in capsys.readouterr().err


def test_certify_theta_zero(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"gains.theta": 0.0}))
    assert cli.main(["certify", "--config", path]) == 2


def test_strict_schema_unknown_key(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["system"]["lipshitz_k"] = 0.5  # misspelled
    path = write_config(tmp_path, cfg)
    assert cli.main(["certify", "--config", path]) == 2
    assert "lipshitz_k" in capsys.readouterr().err


def test_strict_schema_unknown_section(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["simulation"] = {}
    path = write_config(tmp_path, cfg)
    assert cli.main(["certify", "--config", path]) == 2
    assert "simulation" in capsys.readouterr().err


def test_strict_schema_missing_key(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"gains.theta": None}))
    assert cli.main(["certify", "--config", path]) == 2
    assert "theta" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["certify", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_synthesize_k_zero(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"system.lipschitz_k": 0.0}))
    assert cli.main(["synthesize", "--config", path]) == 0
    assert "theta = 1.000000" in capsys.readouterr().out


def test_synthesize_benchmark(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["synthesize", "--config", path, "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    theta_line = [line for line in out.splitlines() if "smallest feasible theta" in line][0]
    theta_star = float(theta_line.split("=")[1])
    assert abs(theta_star - 6.2053) <= 0.01


def test_synthesize_infeasible(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"system.lipschitz_k": 5.0}))
    assert cli.main(["synthesize", "--config", path, "--theta-max", "100"]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **{"output.emit_plots": True})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 0
    stdout = capsys.readouterr().out
    assert "simulated observer_based" in stdout
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "trajectory.svg").exists()
    names, rows = analyze.read_csv(out_dir / "trajectory.csv")
    assert names == ["t", "x1", "x2", "xh1", "xh2", "u", "norm_x", "norm_err"]
    assert rows.shape[0] == 100 + 200 + 1  # history + steps + initial node


def test_simulate_zero_history_all_zero(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **{"sim.x0": [0.0, 0.0], "sim.xhat0": [0.0, 0.0]})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 0
    _, rows = analyze.read_csv(out_dir / "trajectory.csv")
    assert np.all(rows[:, 1:] == 0.0)


def test_simulate_step_must_divide_delay(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"sim.h": 0.3}))
    assert cli.main(["simulate", "--config", path]) == 2


def test_simulate_diverged_exit_code(tmp_path, capsys):
    # the benchmark closed loop is outside the RK4 stability region at h = 0.02
    cfg = base_config(tmp_path / "out", **{"sim.h": 0.02, "sim.T": 3.0})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 1
    assert "diverged" in capsys.readouterr().err


def test_simulate_expression_history(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **{
        "scenario.mode": "open_loop",
        "system.f": "zero",
        "sim.history": {"x": ["1+t", "0"]},
    })
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 0
    _, rows = analyze.read_csv(out_dir / "trajectory.csv")
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-12)  # phi(-tau) = 1 - 1
    i0 = int(round(1.0 / 0.01))
    assert rows[i0, 1] == pytest.approx(1.0, abs=1e-12)  # phi(0) = 1


def test_simulate_history_not_finite_between_nodes(tmp_path, capsys):
    # sqrt of a negative is nan only for |t + 0.995| < 0.001, inside the first segment
    # [-1, -0.99]: every node is finite, the segment's midpoint is not
    cfg = base_config(tmp_path / "out", **{"scenario.mode": "state_feedback",
                                           "sim.history": {"x": ["sqrt(abs(t + 0.995) - 0.001)", "0"]}})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err == "error: initial history contains non-finite values\n"


def test_simulate_observer_requires_xhat0(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", **{"sim.xhat0": None})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "xhat0" in capsys.readouterr().err


def test_simulate_expression_nonlinearity(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **{"system.f": ["x1*cos(x1)+xd1*cos(u)", "0"], "sim.T": 1.0})
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 0


def test_theta_override_flag(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["certify", "--config", path, "--theta", "1.0"]) == 1  # margins fail at theta=1
    out = capsys.readouterr().out
    assert "theta = 1" in out


def test_fit_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, base_config(out_dir, **{"sim.T": 4.0}))
    assert cli.main(["simulate", "--config", path]) == 0
    capsys.readouterr()
    csv_path = str(out_dir / "trajectory.csv")
    assert cli.main(["fit", csv_path, "--column", "norm_err", "--skip", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "exponential" in out and "rational" in out
    assert cli.main(["fit", csv_path, "--column", "nope"]) == 2


def test_repro_paper(tmp_path, capsys):
    assert cli.main(["repro-paper", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "DISCREPANCY" in out
    assert "1.285970" in out and "1.0682" in out  # computed vs reference norm
    assert "1.016945" in out and "1.0169" in out
    assert "transposed" in out
    assert (tmp_path / "out" / "repro_certificate.json").exists()
    assert (tmp_path / "out" / "repro_trajectory.csv").exists()
    assert (tmp_path / "out" / "repro_trajectory.svg").exists()


def test_repro_paper_exits_0_on_a_failing_certificate(tmp_path, capsys):
    # repro-paper reports the certificate; only certify turns FAIL into exit 1
    argv = ["repro-paper", "--out", str(tmp_path / "out"), "--theta", "1.5", "--horizon", "0.5"]
    assert cli.main(argv) == 0
    assert "  overall: FAIL\n" in capsys.readouterr().out


def test_synthesize_theta_max_must_be_finite(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["synthesize", "--config", path, "--theta-max", "inf"]) == 2
    assert "theta_max" in capsys.readouterr().err


def test_synthesize_huge_theta_max(tmp_path, capsys):
    # about a thousand bisection steps from 1e300, to the same printed theta*
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    found = []
    for theta_max in ("100", "1e300"):
        assert cli.main(["synthesize", "--config", path, "--theta-max", theta_max,
                         "--tol", "1e-9"]) == 0
        line = [s for s in capsys.readouterr().out.splitlines() if "smallest feasible" in s][0]
        found.append(line)
    assert found[0] == found[1] == "  smallest feasible theta = 6.205328"


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--step", "0.01"), ("certify", "--horizon", "2"),
    ("synthesize", "--out", "elsewhere"), ("synthesize", "--theta", "2"),
    ("synthesize", "--step", "0.01"), ("synthesize", "--horizon", "2"),
    ("synthesize", "--seed", "3"), ("simulate", "--seed", "3"),
])
def test_inert_option_is_a_usage_error(tmp_path, capsys, command, flag, value):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", path, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_accepted_options_per_command():
    parser = cli.build_parser()
    accepted = {
        "certify": {"--out": "d", "--theta": "2", "--seed": "3"},
        "simulate": {"--out": "d", "--theta": "2", "--step": "0.01", "--horizon": "2"},
        "repro-paper": {"--out": "d", "--theta": "2", "--step": "0.01", "--horizon": "2",
                        "--seed": "3"},
        "synthesize": {"--theta-max": "50", "--tol": "1e-6"},
    }
    for command, options in accepted.items():
        argv = [command] + (["--config", "c.json"] if command != "repro-paper" else [])
        for flag, value in options.items():
            args = parser.parse_args(argv + [flag, value])
            assert getattr(args, flag[2:].replace("-", "_")) is not None


def test_certify_flat_chain_is_an_input_error(tmp_path, capsys):
    chain = "0.0001*x1+" * 1199 + "0.0001*x1"
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"system.f": [chain, "0"]}))
    assert cli.main(["certify", "--config", path]) == 2
    assert "levels deep" in capsys.readouterr().err


def test_simulate_rejects_state_feedback_with_a_pole_at_zero(tmp_path, capsys):
    # K from poles -1..-10 and 0 makes A + BK singular, so K_1 = 0
    n = 11
    L = (-np.poly(-np.arange(1.0, n + 1))[1:]).tolist()
    K = (-np.poly(np.append(-np.arange(1.0, n), 0.0))[1:][::-1]).tolist()
    assert K[0] == 0.0
    cfg = {
        "system": {"n": n, "tau": 0.1, "lipschitz_k": 0.5, "f": "zero"},
        "gains": {"L": L, "K": K, "theta": 1.0},
        "sim": {"h": 0.01, "T": 0.1, "x0": [1.0] * n},
        "scenario": {"mode": "state_feedback"},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "not Hurwitz" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--horizon", "inf"), ("repro-paper", "--horizon", "inf"),
    ("simulate", "--horizon", "1e300"), ("simulate", "--step", "1e-300"),
])
def test_unrepresentable_grid_is_an_input_error(tmp_path, capsys, command, flag, value):
    argv = [command, "--out", str(tmp_path / "out"), flag, value]
    if command == "simulate":
        argv += ["--config", write_config(tmp_path, base_config(tmp_path / "out"))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text, where", [
    ("t,x1\n0,1\n1,2,3\n", "line 3"),
    ("t,x1\n0,1\n1,abc\n", "line 3"),
    ("t,x1\n", "no data rows"),
    ("", "is empty"),
], ids=["ragged_row", "non_numeric_cell", "header_only", "empty"])
def test_fit_malformed_csv_is_an_input_error(tmp_path, capsys, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert cli.main(["fit", str(path), "--column", "x1"]) == 2
    assert where in capsys.readouterr().err


def test_fit_needs_a_time_column(tmp_path, capsys):
    path = tmp_path / "no_t.csv"
    path.write_text("s,x1\n" + "".join(f"{i},{2.0 ** -i}\n" for i in range(20)))
    assert cli.main(["fit", str(path), "--column", "x1"]) == 2
    assert "'t'" in capsys.readouterr().err


def test_fit_needs_ten_positive_samples(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    path.write_text("t,x1\n" + "".join(f"{i},{2.0 ** -i}\n" for i in range(20)))
    assert cli.main(["fit", str(path), "--column", "x1", "--skip", "1e308"]) == 2
    assert capsys.readouterr().err == "error: fewer than 10 positive samples after trimming\n"


@pytest.mark.parametrize("command", ["certify", "simulate", "repro-paper"])
def test_each_command_builds_its_plant_once(tmp_path, monkeypatch, command):
    # the same module lookups that perfbench's tracer wraps
    calls = {"GainSet": 0, "make_nonlinearity": 0}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in list(calls):
        monkeypatch.setattr(cli, name, counted(name))
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "repro-paper":
        argv += ["--horizon", "0.5"]
    else:
        argv += ["--config", write_config(tmp_path, base_config(tmp_path / "out"))]
    assert cli.main(argv) == 0
    assert calls == {"GainSet": 1, "make_nonlinearity": 1}


@pytest.mark.parametrize("command, flags, tweaks, seed", [
    ("certify", ["--seed", "-1"], {}, -1),
    ("repro-paper", ["--seed", "-1"], {}, -1),
    ("certify", [], {"sim.seed": -3}, -3),
], ids=["certify_flag", "repro_paper_flag", "config_sim_seed"])
def test_negative_advisory_seed_is_an_input_error(tmp_path, capsys, command, flags, tweaks, seed):
    argv = [command, "--out", str(tmp_path / "out")] + flags
    if command != "repro-paper":
        argv += ["--config", write_config(tmp_path, base_config(tmp_path / "out", **tweaks))]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the advisory seed must be >= 0, got {seed}\n"


@pytest.mark.parametrize("content, reason", [
    (b'{"system": "\xff"}', "can't decode byte 0xff"),
    pytest.param(b'{"system": {"n": ' + b"1" * 5000 + b"}}", "4300 digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                          reason="no int digit limit before Python 3.10.7")),
    (b"[" * 100_000 + b"]" * 100_000, "recursion depth"),
], ids=["not_utf8", "int_digit_limit", "nested_too_deep"])
def test_unreadable_config_is_an_input_error(tmp_path, capsys, content, reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["certify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ")
    assert reason in err


def test_fit_non_utf8_csv_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"t,x1\n0,1\xff\n")
    assert cli.main(["fit", str(path), "--column", "x1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text: ")


@pytest.mark.parametrize("history", [
    {"x": ["1+t", 5]}, {"x": ["1+t", "0"], "xhat": ["1+t", 5]},
], ids=["x", "xhat"])
def test_history_expression_must_be_a_string(tmp_path, capsys, history):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"sim.history": history}))
    assert cli.main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err == "error: history needs 2 expression strings\n"


def test_scenario_mode_must_be_a_string(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{"scenario.mode": ["observer"]}))
    assert cli.main(["certify", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: unknown scenario mode ['observer'] (known: ")


@pytest.mark.parametrize("f", ["paper_example", ["x1*cos(x1) + xd1*cos(u)", "0"]],
                         ids=["registry", "expression"])
def test_domain_box_width_must_be_a_finite_double(tmp_path, capsys, f):
    box = [[-1e308, 1e308], [-30.0, 30.0]]
    path = write_config(tmp_path, base_config(tmp_path / "out",
                                              **{"system.f": f, "system.domain_box": box}))
    assert cli.main(["certify", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: domain box range 1 has a width that overflows: [-1e+308, 1e+308]\n")


def test_certify_prints_an_infinite_advisory_for_an_overflowing_f(tmp_path, capsys):
    tweaks = {"system.f": ["x1*x1", "0"], "system.domain_box": [[-8e307, 8e307], [-1.0, 1.0]]}
    path = write_config(tmp_path, base_config(tmp_path / "out", **tweaks))
    assert cli.main(["certify", "--config", path]) == 0  # the margins use the declared k
    assert ("  advisory Lipschitz lower bound over [-8e+307, 8e+307], [-1, 1]: inf\n"
            in capsys.readouterr().out)


@pytest.mark.parametrize("flags, tweaks", [
    (["--theta", "1e100"], {}), ([], {"sim.x0": [1e308, 1e308]}),
], ids=["theta_1e100", "x0_1e308"])
def test_overflowing_loop_is_reported_as_divergence(tmp_path, capsys, flags, tweaks):
    path = write_config(tmp_path, base_config(tmp_path / "out", **tweaks))
    assert cli.main(["simulate", "--config", path] + flags) == 1
    assert capsys.readouterr().err == "error: simulation diverged at t = 0.01\n"


def test_grid_beyond_memory_is_an_input_error(tmp_path, capsys):
    # 1e15 nodes of 4 doubles: 28 PiB, past any 48-bit address space, so it fails at once
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli.main(["simulate", "--config", path, "--horizon", "1e13"]) == 2
    assert capsys.readouterr().err == "error: a grid of 1e+15 nodes does not fit in memory\n"


@pytest.mark.parametrize("tweaks, code", [
    ({}, 0),
    ({"gains.theta": 1.5}, 1),
    ({"system.f": "zero", "system.lipschitz_k": 0.0}, 0),
], ids=["pass", "failing_margin", "k_zero"])
def test_certificate_file_is_the_library_result(tmp_path, tweaks, code):
    path = write_config(tmp_path, base_config(tmp_path / "out", **tweaks))
    exit_code = cli.main(["certify", "--config", path])
    assert exit_code == code
    written = json.loads((tmp_path / "out" / "certificate.json").read_text())

    cfg = cli.load_config(path)
    sys_spec = cli.build_system(cfg)
    advisory = rs.estimate_lipschitz(sys_spec.f, sys_spec.domain_box, seed=cfg.seed)
    result = rs.certify_gains(cli.build_gains(cfg), sys_spec.tau, sys_spec.lipschitz_k, advisory)
    assert result.to_dict() == written
    assert result.exit_code == exit_code
    if code == 1:
        assert "alpha_observer_based" not in written and "alpha_output_feedback" not in written
    if sys_spec.lipschitz_k == 0.0:
        assert result.alpha_output_feedback == math.inf
        assert written["alpha_output_feedback"] is None


@pytest.mark.parametrize("mode", ["observer_based", "state_feedback", "observer", "output_feedback"])
def test_overflowing_gains_are_reported_as_divergence(tmp_path, capsys, mode):
    # (l+1)^4 gains at theta = 1e100 scale to inf, so the closed-loop table holds
    # 0 * inf; numpy must not warn before the divergence guard reports
    tweaks = {"system.n": 4, "system.f": "zero", "system.domain_box": [[-30.0, 30.0]] * 4,
              "gains.L": [-4.0, -6.0, -4.0, -1.0], "gains.K": [-1.0, -4.0, -6.0, -4.0],
              "sim.x0": [1.0, 0.0, 0.0, 0.0], "sim.xhat0": [0.0] * 4, "scenario.mode": mode}
    path = write_config(tmp_path, base_config(tmp_path / "out", **tweaks))
    assert cli.main(["simulate", "--config", path, "--theta", "1e100"]) == 1
    assert capsys.readouterr().err == "error: simulation diverged at t = 0.01\n"


@pytest.mark.parametrize("command", ["certify", "repro-paper"])
def test_theta_below_one_is_an_input_error(tmp_path, capsys, command):
    # with f = zero and k = 0 every margin is positive at theta = 0.5, yet the
    # certified rate ln(theta) / (2 tau) is negative there
    path = write_config(tmp_path, base_config(tmp_path / "out", **{
        "system.f": "zero", "system.lipschitz_k": 0.0}))
    argv = ["certify", "--config", path] if command == "certify" else ["repro-paper"]
    assert cli.main(argv + ["--out", str(tmp_path / "out"), "--theta", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta must be at least 1 to certify decay, got 0.5\n"


def test_simulate_still_runs_below_theta_one(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{
        "system.f": "zero", "system.lipschitz_k": 0.0, "scenario.mode": "state_feedback"}))
    assert cli.main(["simulate", "--config", path, "--theta", "0.5"]) == 0


@pytest.mark.parametrize("key, value, message", [
    ("system.tau", True, "'tau' must be a number, got True"),
    ("gains.theta", True, "'theta' must be a number, got True"),
    ("sim.x0", [True, False], "'x0[0]' must be a number, got True"),
    ("system.domain_box", [[-30.0, 30.0], [False, 30.0]], "'domain_box[1][0]' must be a number, got False"),
], ids=["tau", "theta", "x0", "domain_box"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, key, value, message):
    path = write_config(tmp_path, base_config(tmp_path / "out", **{key: value}))
    assert cli.main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, tweaks, flags", [
    ("repro-paper", {}, ["--theta", "0.5"]),
    ("certify", {"gains.K": [0.0, 0.0]}, []),
    ("simulate", {}, []),
    ("repro-paper", {}, ["--step", "-1"]),
    ("repro-paper", {}, ["--step", "0.3"]),
], ids=["repro_theta_below_one", "certify_non_hurwitz", "simulate_without_mode",
        "repro_negative_step", "repro_step_off_the_delay"])
def test_input_error_leaves_no_output_directory(tmp_path, capsys, command, tweaks, flags):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + flags
    if command != "repro-paper":
        cfg = base_config(out, **tweaks)
        if command == "simulate":
            del cfg["scenario"]
        argv += ["--config", write_config(tmp_path, cfg)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("command", ["certify", "synthesize"])
def test_overflowing_lyapunov_solve_is_one_error_line(tmp_path, capsys, command, action):
    # A + B K is Hurwitz for K = [-1e200, -2], but its Lyapunov solve overflows
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, **{"gains.K": [-1e200, -2.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert cli.main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Lyapunov solution not certified: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_history_function_matches_component_expressions():
    texts = ["1.5 - 0.25*t", "cos(t)*2 + t^2", "sqrt(-t)/(1 + t)"]
    phi = cli._history_exprs(texts, 3)
    compiled = [rs.exprlang.compile_expr(rs.exprlang.parse(text)) for text in texts]
    for s in np.linspace(-1.0, 0.0, 41).tolist() + [-0.0]:
        got = phi(s)
        assert got.dtype == float and got.shape == (3,)
        assert got.tobytes() == np.array([c({"t": s}) for c in compiled]).tobytes()


def _without(section):
    def edit(cfg):
        del cfg[section]
        return cfg
    return edit


def _with(section, value):
    def edit(cfg):
        cfg[section] = value
        return cfg
    return edit


def _tweak(key, value):
    def edit(cfg):
        section, name = key.split(".")
        cfg[section][name] = value
        return cfg
    return edit


@pytest.mark.parametrize("command, edit, flags, code, message", [
    ("simulate", _without("sim"), [], 2, "section 'sim' with 'h' and 'T' is required for simulation"),
    ("simulate", _without("sim"), ["--step", "0.01", "--horizon", "2"], 2,
     "section 'sim' with 'x0' is required for simulation"),
    ("simulate", _tweak("sim.history", {"x": ["x1", "0"]}), [], 2,
     "history expression 'x1' may only reference 't', found 'x1'"),
    ("simulate", _tweak("sim.history", 5), [], 2,
     "'history' must be \"constant\" or {\"x\": [...], \"xhat\": [...]}"),
    ("simulate", _tweak("sim.history", "constant"), [], 0, None),
    ("certify", _tweak("system.f", 5), [], 2,
     "'f' must be a registry name or a list of expression strings"),
    ("certify", _tweak("system.n", 2.0), [], 2, "'n' must be an integer, got 2.0"),
    ("certify", _tweak("sim.seed", 1.5), [], 2, "'seed' must be an integer, got 1.5"),
    ("certify", _tweak("system.domain_box", 5), [], 2, "'domain_box' must be a list of [lo, hi] pairs"),
    ("certify", _tweak("system.domain_box", []), [], 2, "domain box must have 2 coordinate ranges, got 0"),
    ("certify", _tweak("system.domain_box", [[-30.0, 30.0], [-30.0]]), [], 2,
     "'domain_box[1]' must be a list of 2 numbers"),
    ("certify", _tweak("gains.L", [-14.0]), [], 2, "'L' must be a list of 2 numbers"),
    ("certify", _tweak("system.tau", "abc"), [], 2, "'tau' must be a number, got 'abc'"),
    ("certify", _tweak("system.tau", math.inf), [], 2, "'tau' must be finite, got inf"),
    ("certify", _tweak("system.tau", 10 ** 399), [], 2,
     "'tau' must be finite, got an integer outside the float range"),
    ("certify", _tweak("gains.L", [-14.0, -10 ** 399]), [], 2,
     "'L[1]' must be finite, got an integer outside the float range"),
    ("certify", _with("gains", []), [], 2, "section 'gains' must be a table of keys"),
    ("certify", lambda cfg: [], [], 2, "config root must be an object with sections"),
    ("certify", _without("gains"), [], 2, "missing section 'gains'"),
    ("certify", _tweak("output.directory", 5), [], 2, "'directory' must be a string"),
    ("certify", _tweak("output.directory", "out\ud800"), [], 2, "'directory' 'out\\ud800' is not UTF-8 text"),
    ("certify", _tweak("output.emit_plots", "yes"), [], 2, "'emit_plots' must be a boolean"),
], ids=["simulate_without_sim", "simulate_without_sim_with_step_and_horizon", "history_reads_x1",
        "history_is_a_number", "history_constant", "f_is_a_number", "n_is_a_float",
        "seed_is_a_float", "domain_box_is_a_number", "domain_box_is_empty", "domain_box_pair_is_short",
        "L_is_short", "tau_is_text",
        "tau_is_infinity", "tau_is_a_400_digit_integer", "L_entry_is_a_400_digit_integer",
        "gains_is_a_list", "root_is_a_list", "gains_missing",
        "directory_is_a_number", "directory_is_not_utf8", "emit_plots_is_text"])
def test_config_input_errors(tmp_path, capsys, monkeypatch, command, edit, flags, code, message):
    monkeypatch.chdir(tmp_path)  # a default relative output directory would land here
    out = tmp_path / "out"
    path = write_config(tmp_path, edit(base_config(out)))  # json writes math.inf as Infinity
    assert cli.main([command, "--config", path] + flags) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
        assert (out / "trajectory.csv").exists()
    else:
        assert err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("n", [-1, 0, 17])
def test_dimension_out_of_range_is_named(tmp_path, capsys, command, n):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, **{"system.n": n}))
    assert cli.main([command, "--config", path]) == 2
    assert capsys.readouterr().err == f"error: dimension must be an integer in 1..16, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, tweaks", [
    (["--seed", "1" + "0" * 399], {}), ([], {"sim.seed": 10 ** 399}),
], ids=["flag", "config"])
def test_a_400_digit_advisory_seed_certifies(tmp_path, capsys, flags, tweaks):
    path = write_config(tmp_path, base_config(tmp_path / "out", **tweaks))
    assert cli.main(["certify", "--config", path] + flags) == 0
    assert "  overall: PASS\n" in capsys.readouterr().out


@pytest.mark.parametrize("blocker, message", [
    ("out", "cannot create output directory"),
    ("out/certificate.json", "cannot write certificate"),
], ids=["out_is_a_file", "certificate_is_a_directory"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, blocker, message):
    out = tmp_path / "out"
    if blocker == "out":
        out.write_text("a file, not a directory\n")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    path = write_config(tmp_path, base_config(out))
    assert cli.main(["certify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} ") and err.count("\n") == 1


@pytest.mark.parametrize("t_cells, message", [
    (["3"] * 20, "error: t takes one value, 3.0: no line to fit\n"),
    ([str(i) for i in range(19)] + ["inf"], "error: t must be finite\n"),
], ids=["one_repeated_t", "infinite_t"])
def test_fit_on_a_degenerate_time_column_is_an_input_error(tmp_path, capsys, t_cells, message):
    path = tmp_path / "degenerate.csv"
    path.write_text("t,x1\n" + "".join(f"{t},{2.0 ** -i}\n" for i, t in enumerate(t_cells)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", str(path), "--column", "x1"]) == 2
    assert capsys.readouterr() == ("", message)


_ASCII_CERTIFY = """
import sys
from ratstab import cli
print(sys.getfilesystemencoding())
sys.exit(cli.main(["certify", "--config", sys.argv[1]]))
"""


def test_a_utf8_config_certifies_into_a_non_ascii_directory_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259) whatever the locale, and the directory names its UTF-8 bytes
    out = tmp_path / "r\u00e9sultats"
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(base_config(out), ensure_ascii=False).encode())
    assert b"r\xc3\xa9sultats" in path.read_bytes()
    done = run_in_ascii_locale(_ASCII_CERTIFY, str(path))
    assert (done.returncode, done.stderr) == (0, b""), done.stderr
    assert done.stdout.splitlines()[0] == b"ascii"
    assert b"certificate written to " + bytes(out / "certificate.json") in done.stdout
    assert json.loads((out / "certificate.json").read_text())["pass"]["all"] is True


_IMPORT_PROBE = """
import json, sys
import numpy
heavy = ("numpy.random", "secrets", "hashlib")
before = {name for name in heavy if name in sys.modules}
from ratstab import cli
out, config = sys.argv[1:]
codes = [cli.main(["repro-paper", "--out", out]), cli.main(["certify", "--config", config]),
         cli.main(["simulate", "--config", config]),
         cli.main(["fit", out + "/repro_trajectory.csv", "--skip", "1"])]
print(json.dumps([codes, sorted(name for name in heavy if name in sys.modules and name not in before)]))
"""


def test_certify_and_simulate_leave_numpy_random_unimported(tmp_path):
    # numpy.random imports secrets, hmac and hashlib, which loads OpenSSL: several MB of
    # peak RSS for a few thousand uniform draws, which the advisory takes from random instead.
    # Only what ratstab adds counts: numpy 1.x imports numpy.random itself
    src = str(Path(rs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    config = write_config(tmp_path, base_config(tmp_path / "out"))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "repro"), config],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]
