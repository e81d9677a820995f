"""An opt-in line-coverage plugin for pytest, on the standard library only.

Run it from the repository root as::

    PYTHONPATH=src:tests python -m pytest -p linecov

At the end of the test run it lists, per ``agrodiag`` module, the lines
that no test executed. Tracing starts when pytest imports this plugin,
before any test imports ``agrodiag``, so module-level lines count. Only
this process is traced: what a test runs in a child process (an
``agrodiag`` command, another interpreter) counts for nothing.

It is not part of the tier-1 suite. The tracer slows the suite past its
time budget, and the tests that time or ``tracemalloc`` a run fail under
it.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import threading

# the package directory, found without importing it
PACKAGE = os.path.realpath(
    importlib.util.find_spec("agrodiag").submodule_search_locations[0])

# code file name -> the lines executed in it, or None outside the package
_executed: dict[str, set[int] | None] = {}


def _trace(frame, event, arg):
    """The global tracer: a frame of the package gets a line tracer."""
    filename = frame.f_code.co_filename
    if filename not in _executed:
        inside = os.path.dirname(os.path.realpath(filename)) == PACKAGE
        _executed[filename] = set() if inside else None
    lines = _executed[filename]
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines
    return trace_lines


sys.settrace(_trace)
threading.settrace(_trace)


def executable_lines(path: str) -> set[int]:
    """The lines of the module at PATH that hold an instruction."""
    with open(path, encoding="utf-8") as stream:
        code = compile(stream.read(), path, "exec")
    lines, codes = set(), [code]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines) -> str:
    """Sorted LINES as runs: ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    executed: dict[str, set[int]] = {}
    for filename, lines in _executed.items():
        if lines is not None:
            executed.setdefault(os.path.realpath(filename), set()).update(
                lines)
    write = terminalreporter.write_line
    write("lines no test executed, per agrodiag module:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        executable = executable_lines(path)
        missed = executable - executed.get(path, set())
        write(f"  {name}: {len(missed)} of {len(executable)}"
              + (f": {spans(missed)}" if missed else ""))
