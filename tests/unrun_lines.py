"""Run the tier-1 tests under the standard library's trace and report the
lines of src/danteflow that they leave unrun:

    python tests/unrun_lines.py

For each module of the package (from this checkout's src/) it prints the
number of executable lines, as `trace --missing` counts them (docstrings
excluded), and each line that no test ran in-process.  The tests run in
this process, with --hypothesis-seed=0 (which also keeps hypothesis off
its example database), so two runs print the same report; pytest's own
output goes to stderr.

The floor is one line and one module: `sys.exit(main())` in cli.entry and
__main__.py run only in the CLI tests that launch `python -m danteflow` as
a subprocess, which trace does not follow.  The exit code is 1 if any other
line is unrun or any other module was never imported in-process, and
pytest's own code if a test fails.  Takes 80-100 s on 2 cores.
"""
import contextlib
import os
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "danteflow"
# The floor: (module, stripped source line) pairs left unrun, and modules
# never imported, by the subprocess-only entry points.
UNRUN_FLOOR = {("cli.py", "sys.exit(main())")}
UNIMPORTED_FLOOR = {"__main__.py"}


class _PackageOnly:
    """trace's ignore test, keyed by path.  trace's own keys its cache by
    base name, so once it ignores a standard-library __init__.py it ignores
    the package's too."""

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(f"{PACKAGE}{os.sep}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    with contextlib.redirect_stdout(sys.stderr):
        code = tracer.runfunc(pytest.main, [
            "-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
            "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"tier-1 tests failed (pytest exit code {code})")
        return code
    run = {}
    for filename, lineno in tracer.results().counts:
        run.setdefault(filename, set()).add(lineno)
    faults = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        if str(path) not in run:
            print(f"{name}: never imported in-process")
            faults += name not in UNIMPORTED_FLOOR
            continue
        # Line 0 starts each module's code and never gets a line event.
        executable = sorted(n for n in trace._find_executable_linenos(str(path)) if n > 0)
        unrun = [n for n in executable if n not in run[str(path)]]
        print(f"{name}: {len(executable)} executable, {len(unrun)} unrun")
        lines = path.read_text().splitlines()
        for n in unrun:
            print(f"  {n}: {lines[n - 1].strip()}")
            faults += (name, lines[n - 1].strip()) not in UNRUN_FLOOR
    print(f"{faults} past the floor")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
