"""The package's one dependency: ``src/zdgames`` imports numpy, the stdlib and itself.

pyproject declares numpy alone; scipy, sympy, mpmath and pytest-benchmark may be
installed next to it, and an import of one of them would pass every test here yet
fail where only numpy is.
"""

import ast
import pathlib
import sys

import zdgames

PACKAGE = pathlib.Path(zdgames.__file__).parent
ALLOWED = {"numpy", "zdgames"} | set(sys.stdlib_module_names)


def imported_roots(source):
    """The top-level module of each import in ``source``; a relative import is the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "zdgames" if node.level else node.module.partition(".")[0]


def test_src_imports_only_numpy_the_stdlib_and_itself():
    imports = {(path.name, root) for path in sorted(PACKAGE.glob("*.py"))
               for root in imported_roots(path.read_text(encoding="utf-8"))}
    assert ("chain.py", "numpy") in imports and ("zd.py", "zdgames") in imports
    assert sorted(entry for entry in imports if entry[1] not in ALLOWED) == []


def test_a_foreign_import_is_found():
    source = "import scipy.linalg\nfrom sympy import Rational\nfrom . import chain\nimport math\n"
    assert [root for root in imported_roots(source) if root not in ALLOWED] == ["scipy", "sympy"]
