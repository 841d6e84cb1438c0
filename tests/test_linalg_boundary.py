"""All linear algebra lives in padicforms.linalg.

No other module under src/padicforms imports a private (underscore) name
from linalg, or defines its own copy of the dense row helpers.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padicforms"
HELPERS = {"mat_vec", "mat_mul", "combine_columns", "identity_rows"}


def _other_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in modules]


def test_no_private_linalg_imports():
    bad = [(name, alias.name) for name, tree in _other_modules()
           for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and node.module in {"padicforms.linalg", "linalg"}
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_row_helpers_defined_only_in_linalg():
    bad = [(name, node.name) for name, tree in _other_modules()
           for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and node.name in HELPERS]
    assert bad == []
