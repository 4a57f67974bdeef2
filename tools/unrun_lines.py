"""Print every executable line of ``src/ratstab`` that no tier-1 test runs.

    python tools/unrun_lines.py

The tool runs the tier-1 suite of the checkout that holds this file in this
process, under ``sys.settrace`` and ``threading.settrace``, with pytest's
report on stderr. The three memory tests, of the CSV and SVG writers and of
``run_scenario``, are left out: the tracer's own allocations would distort
their tracemalloc peaks, and they take a third of the suite's time. Tests
that start a subprocess run it untraced. A line is executable when the
bytecode of its module, compiled here, holds an instruction on it. Stdout
gets one ``path:line: source`` line per executable line that never ran,
and nothing else; the exit status is pytest's.

Only the standard library and pytest are used. A code object stops being
traced once each of its lines has run, so the traced suite takes about
1.4 times as long as the untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import linecache
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ratstab"
UNTRACED = ["tests/test_analyze.py::test_csv_memory_does_not_grow_with_the_formatted_rows",
            "tests/test_analyze.py::test_plot_memory_does_not_grow_with_the_formatted_points",
            "tests/test_ddesim.py::test_run_scenario_memory_does_not_grow_with_the_delay"]


def executable_lines(path: Path) -> dict:
    """(file, first line, name) of every code object of a module -> the lines its own bytecode is on."""
    lines, todo = {}, [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        key = (str(path), code.co_firstlineno, code.co_name)
        lines.setdefault(key, set()).update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main() -> int:
    pending = {}
    for path in sorted(PACKAGE.glob("*.py")):
        pending.update(executable_lines(path))
    real = functools.lru_cache(maxsize=None)(os.path.realpath)

    def trace_call(frame, event, arg):
        code = frame.f_code
        lines = pending.get((real(code.co_filename), code.co_firstlineno, code.co_name))
        if not lines:
            return None
        lines.discard(frame.f_lineno)  # where a call, or a resumed generator, starts

        def trace_line(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
                if not lines:
                    return None  # every line of this code object has run
            return trace_line

        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests"),
                                  *(f"--deselect={test}" for test in UNTRACED)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    module = sys.modules.get("ratstab")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        sys.exit(f"the tests imported ratstab from {getattr(module, '__file__', None)}, not from {PACKAGE}")
    for path, line in sorted({(path, line) for (path, _, _), lines in pending.items() for line in lines}):
        print(f"{Path(path).relative_to(ROOT)}:{line}: {linecache.getline(path, line).strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
