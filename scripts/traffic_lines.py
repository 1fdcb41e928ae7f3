#!/usr/bin/env python3
"""List the code of ``src/grasspin`` that neither the benchmark workloads
nor the test suite runs.

    python3 scripts/traffic_lines.py

For each workload of ``bench/workloads.py`` it generates a few jobs from a
fixed seed through ``bench/inputs.py``, writes their configs into a
temporary directory, and runs ``run`` then ``check`` on each job, in this
process, under ``sys.settrace``.  The files under ``bench/`` are imported,
never written.  It then runs ``pytest`` on ``tests/`` in the same process,
under the same trace; test code that starts a child process is not traced
there.  It prints the functions of the package that neither entered, and
for every function that was entered the statement lines neither executed.
Module and class bodies run at import and are not listed.

The trace records line events only inside the package's own files, so a
traced job runs a few times slower than an untraced one; the traced test
suite took about a minute on a 2-core host.  The package is imported from
this checkout's ``src/``.
"""

import dis
import inspect
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grasspin"
JOBS = 6
SEED = 14


def traced(run):
    """Call ``run()`` under ``sys.settrace``.  Returns its result and, by code
    object of the package, the line numbers executed (the def line stands
    for a call)."""
    executed = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        executed[frame.f_code].add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(on_call)
    try:
        return run(), executed
    finally:
        sys.settrace(None)


def functions(code):
    """Every function code object nested in ``code``, itself included if it
    is one (class and module bodies are not)."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from functions(const)


def statement_lines(code) -> set[int]:
    """Lines that start a statement of ``code`` itself, without its def line."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    return lines - {code.co_firstlineno}


def ranges(lines) -> str:
    """Line numbers as "3, 7-9"."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_workloads() -> list[str]:
    """Run and check ``JOBS`` jobs of each workload; one summary line each."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import grasspin
    import inputs
    import workloads

    if Path(grasspin.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"grasspin imported from {grasspin.__file__}, not from {PACKAGE}")

    summary = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            jobs = workload.generate(np.random.default_rng(SEED), JOBS)
            inputs.write_and_validate(jobs, str(Path(tmp) / name))
            out_path = str(Path(tmp) / f"{name}.csv")
            failed = 0
            for job in jobs:
                result = workload.run(job, out_path)
                failed += not workload.check(job, result, out_path).ok
            summary.append(f"{name}: {len(jobs)} jobs, {failed} failed")
    return summary


def run_tests() -> str:
    """Run the test suite in this process; one summary line."""
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    return f"tests: pytest exit {int(code)}"


def main() -> int:
    summary, executed = traced(lambda: run_workloads() + [run_tests()])

    never, partial = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in functions(module):
            where = f"{path.name}:{code.co_firstlineno} {code.co_qualname}"
            seen = [c for c in executed if c.co_filename == str(path)
                    and c.co_firstlineno == code.co_firstlineno and c.co_name == code.co_name]
            if not seen:
                never.append(where)
                continue
            missed = statement_lines(code) - set().union(*(executed[c] for c in seen))
            if missed:
                partial.append(f"{where}: {ranges(missed)}")

    print("\n".join(summary))
    print(f"\nfunctions never entered ({len(never)}):")
    print("\n".join(f"  {line}" for line in never))
    print(f"\nlines never executed in entered functions ({len(partial)} functions):")
    print("\n".join(f"  {line}" for line in partial))
    return 0


if __name__ == "__main__":
    sys.exit(main())
