"""The runtime imports only the standard library and padicforms itself.

sympy and hypothesis are test dependencies; a module under src/padicforms
that imports anything else fails here.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padicforms"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"padicforms"}
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bad = [(path.name, root) for path in modules
           for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
           if root not in allowed]
    assert bad == []
