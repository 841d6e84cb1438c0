"""No code in the runtime that only the unit tests reach.

Every top-level function and class in src/padicforms, and every method of
those classes other than dunders, must be named somewhere a real run or a
stated claim reaches it:

- as an identifier in src/padicforms outside its own definition;
- as an identifier or inside a string in bench/*.py (the tracer wraps
  functions by dotted name);
- as an identifier in tests/test_acceptance.py;
- or in KEEP below, with the reason it stays.

Names are matched as bare identifiers, so a dead method that shares its name
with a live one (``multiply``, ``dims``) passes.  This is a floor against
test-only code growing back, not a proof that every definition is reached.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padicforms"

# name -> why it stays although none of the places above names it
KEEP = {
    "factorial_valuation": "Legendre's formula, which gives the valuation "
                           "k - v_p(k!) of the p^k/k! in gamma^k(p - x)",
    "omega_face": "the reference for the face rows of the omega levels",
    "omega_degeneracy": "the reference for their degeneracy rows",
    "closure_generators": "the closure family of a level, which the frozen "
                          "closure loop reads",
    "from_shifted": "the cup product on the p-shifted lattice D(X), as a "
                    "DgaData",
    "multiplication_closed": "D(X) is closed under the cup product",
    "obstruction_fixture": "the worked essential m(a, b, a), with a cup-1, "
                           "that massey --fixture runs on",
    "fixture_to_json": "writes the format that massey --fixture reads",
}


def identifiers(tree):
    """How often each name or attribute name is used in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def definitions(tree):
    """(name, node) of each top-level function and class, and of each
    non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def named_outside_src():
    """Names used in bench/*.py (identifiers and words inside strings) and
    in tests/test_acceptance.py."""
    out = set(identifiers(parse(ROOT / "tests" / "test_acceptance.py")))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        out |= set(identifiers(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(re.findall(r"\w+", node.value))
    return out


def unreached():
    """"module:line name" -> name, for each definition that none of the
    rules but KEEP covers."""
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = sum((identifiers(tree) for tree in trees.values()), Counter())
    outside = named_outside_src()
    out = {}
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name not in outside and used[name] == identifiers(node)[name]:
                out[f"{module}:{node.lineno} {name}"] = name
    return out


def test_every_definition_is_reached_outside_the_unit_tests():
    assert [where for where, name in unreached().items()
            if name not in KEEP] == []


def test_every_keep_entry_is_needed():
    """A KEEP entry names a definition that no other rule covers."""
    assert sorted(KEEP) == sorted(unreached().values())
