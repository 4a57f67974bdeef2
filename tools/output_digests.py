"""Print a sha256 digest of every output of a fixed set of CLI runs.

    python tools/output_digests.py [SEED ...]        (default: seed 1)

The runs go through ``ratstab.cli.main`` of the ``src/`` in the checkout
that holds this file:

- ``repro-paper``;
- ``certify``, ``simulate`` and ``synthesize`` on the config of each member
  of the benchmark's sweep round of every SEED
  (``perfbench.workloads.sweep_config``);
- ``repro-paper --theta 1e100``, which diverges;
- ``simulate`` on ``EVERY_FUNCTION``, a config built here whose f uses every
  function and operator of the expression language, and once more with
  ``--theta 1e100``, where non-finite operands reach sin, cos and tan;
- ``repro-paper --step -1``, an input error found before anything is
  printed or written;
- ``certify`` and ``synthesize`` on the built-in reference config with
  K = [-1e200, -2], whose Lyapunov solve overflows and is rejected;
- ``certify`` on the built-in reference config with ``tau`` written as a
  400-digit integer, which no double holds: an input error.

Run it with ``PYTHONWARNINGS=error::RuntimeWarning`` and a numpy warning
in any of these runs fails the tool.

Each run prints one line per stdout, stderr, exit code and written file.
The scratch directory's path is masked in all of them, so ``diff`` of the
output of two checkouts shows every run whose bytes differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import ratstab  # noqa: E402
from ratstab import cli  # noqa: E402

import workloads  # noqa: E402

if Path(ratstab.__file__).resolve().parent != (ROOT / "src" / "ratstab").resolve():
    sys.exit(f"imported ratstab from {ratstab.__file__}, not from this checkout")


# triangular, zero at the origin for every u; sin, cos, tan, tanh, exp, ln, sqrt, abs
# and + - * / ^ (and a negation), in both blocks of the observer-based loop
EVERY_FUNCTION = {
    "system": {"n": 2, "tau": 0.5, "lipschitz_k": 1.0,
               "f": ["0.5*sin(x1) - 0.2*xd1*cos(u) + 0.1*x1/(1 + abs(xd1))",
                     "-0.1*tanh(x2) + 0.05*ln(1 + xd2^2) + 0.02*(exp(x1) - 1) - 0.1*tan(0.5*xd1)"
                     " + 0.05*(sqrt(1 + x2*x2) - 1)"]},
    "gains": {"L": [-3.0, -2.0], "K": [-2.0, -3.0], "theta": 2.0},
    "sim": {"h": 0.005, "T": 5.0, "x0": [0.8, -0.5], "xhat0": [-0.4, 0.6]},
    "scenario": {"mode": "observer_based"},
    "output": {"emit_plots": True},
}


def _digest(data: bytes, work: Path) -> str:
    return hashlib.sha256(data.replace(str(work).encode(), b"<work>")).hexdigest()


def run(label: str, argv: list, work: Path, out: Path | None = None) -> list:
    """The digest lines of one ``cli.main(argv)`` call; ``out`` is the directory it writes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    lines = [f"{label} stdout {_digest(stdout.getvalue().encode(), work)}",
             f"{label} stderr {_digest(stderr.getvalue().encode(), work)}",
             f"{label} exit {code}"]
    if out is not None and out.is_dir():
        lines += [f"{label} file {path.name} {_digest(path.read_bytes(), work)}"
                  for path in sorted(out.iterdir())]
    return lines


def digests(seeds: list, work: Path) -> list:
    lines = run("repro-paper", ["repro-paper", "--out", str(work / "paper")], work, work / "paper")
    for seed in seeds:
        for index, member in enumerate(workloads.sweep_round(seed)):
            config = work / f"sweep{seed}-{index}.json"
            config.write_text(json.dumps(workloads.sweep_config(member)))
            name = f"sweep{seed}-{index}"
            for command in ("certify", "simulate"):
                out = work / f"{name}-{command}"
                lines += run(f"{name} {command}", [command, "--config", str(config), "--out", str(out)],
                             work, out)
            lines += run(f"{name} synthesize", ["synthesize", "--config", str(config)], work)
    diverged = work / "diverged"
    lines += run("repro-paper-theta-1e100", ["repro-paper", "--theta", "1e100", "--out", str(diverged)],
                 work, diverged)
    config = work / "every-function.json"
    config.write_text(json.dumps(EVERY_FUNCTION))
    for label, extra in (("every-function simulate", []), ("every-function-theta-1e100 simulate",
                                                           ["--theta", "1e100"])):
        out = work / label.split()[0]
        lines += run(label, ["simulate", "--config", str(config), "--out", str(out), *extra], work, out)
    bad_step = work / "bad-step"
    lines += run("repro-paper-step-minus-1", ["repro-paper", "--step", "-1", "--out", str(bad_step)],
                 work, bad_step)
    config = work / "huge-gain.json"
    config.write_text(json.dumps({**cli._REFERENCE_CONFIG,
                                  "gains": {**cli._REFERENCE_CONFIG["gains"], "K": [-1e200, -2.0]}}))
    out = work / "huge-gain"
    lines += run("huge-gain certify", ["certify", "--config", str(config), "--out", str(out)], work, out)
    lines += run("huge-gain synthesize", ["synthesize", "--config", str(config)], work)
    config = work / "huge-tau.json"
    config.write_text(json.dumps({**cli._REFERENCE_CONFIG,
                                  "system": {**cli._REFERENCE_CONFIG["system"], "tau": 10 ** 399}}))
    out = work / "huge-tau"
    lines += run("huge-tau certify", ["certify", "--config", str(config), "--out", str(out)], work, out)
    return lines


def main(argv: list) -> int:
    seeds = [int(arg) for arg in argv] or [1]
    with tempfile.TemporaryDirectory(prefix="ratstab-digests-") as tmp:
        print("\n".join(digests(seeds, Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
