"""List the lines of ``src/zdgames`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` tracer, and ``threading.settrace``
for any thread the tests start, and prints each line that some code object of the
package maps an instruction to, through ``co_lines()``, but that never ran.  Exits 1 when
there is such a line, else with pytest's status.  Without arguments it runs ``tests/``
but ``test_acceptance.py``, which reruns the public functions at scale; other arguments
go to pytest as given.  It is not part of tier-1: the traced suite takes about 70 s.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]
"""

import pathlib
import sys
import threading
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zdgames"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}"]


def executable_lines(path):
    """Every line that an instruction of ``path``'s code objects maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv):
    if "zdgames" in sys.modules:
        raise SystemExit("zdgames was imported before the tracer started")
    ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace_lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):  # only the package's frames get line events
        if frame.f_code.co_filename in ran:
            return trace_lines(frame, event, arg)
        return None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [f"{pathlib.Path(name).relative_to(ROOT)}:{line}" for name, lines in ran.items()
              for line in sorted(executable_lines(pathlib.Path(name)) - lines)]
    print("\n".join(missed + [f"{len(missed)} lines of src/zdgames never ran"]))
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
