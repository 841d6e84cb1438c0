import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padicforms.derham import build_omega
from padicforms.report import (
    SCHEMA_VERSION,
    dump_json,
    lattice_report,
    rat,
    validate_report,
    vec,
)


def test_rational_strings():
    assert rat(3) == "3"
    assert rat(Fraction(-9, 2)) == "-9/2"
    assert vec([0, -12, Fraction(1, 3), Fraction(6, 3)]) == ["0", "-12", "1/3", "2"]


def test_lattice_report_schema_and_content():
    level = build_omega(1, 3, 2)
    payload = lattice_report({"command": "lattice"}, level)
    assert validate_report(payload) == []
    deg0 = next(d for d in payload["degrees"] if d["degree"] == 0)
    exps = [m["exponents"] for m in deg0["monomials"]]
    assert [0] in exps and [3] in exps
    deg1 = next(d for d in payload["degrees"] if d["degree"] == 1)
    assert all(m["dx"] == [1] for m in deg1["monomials"])
    assert payload["closure_equals_naive_span"] is True
    # deterministic bytes
    assert dump_json(payload) == dump_json(json.loads(dump_json(payload)))


def test_validator_flags_problems():
    level = build_omega(1, 2, 2)
    payload = lattice_report({}, level)
    bad = dict(payload)
    bad.pop("weight")
    assert any("weight" in e for e in validate_report(bad))
    bad2 = dict(payload)
    bad2["extra"] = 1
    assert any("unexpected" in e for e in validate_report(bad2))


def test_validator_names_bad_nested_items():
    """Each bad item is named by its index path, at every depth."""
    payload = {"version": SCHEMA_VERSION, "kind": "massey", "manifest": {},
               "degree": 2, "representative": ["0", 1],
               "indeterminacy": [["0"], ["1", 2, True]],
               "defining_system": {}, "vanishes": False}
    assert validate_report(payload) == [
        "representative[1]: expected str",
        "indeterminacy[1][1]: expected str",
        "indeterminacy[1][2]: expected str",
    ]
    space = {"version": SCHEMA_VERSION, "kind": "space", "manifest": {},
             "name": "s", "cells": [1, True], "euler_characteristic": 1,
             "text": ""}
    assert validate_report(space) == ["cells[1]: expected an integer"]


_TEXT = st.text(st.sampled_from('aZ0 "\\/\n\t\x00\x1f\x7fé€😀\ud800'), max_size=5)
_LEAVES = (st.none() | st.booleans() | _TEXT
           | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.floats(allow_nan=True, allow_infinity=True))


# record values: the kinds the template path writes, and kinds that send the
# whole list back to the general path (mixed and nested lists, bools, floats,
# dicts)
_FLAT_VALUES = (st.none() | _TEXT | st.integers() | st.integers(-2 ** 200, 2 ** 200)
                | st.just([]) | st.lists(st.integers(), max_size=4)
                | st.lists(_TEXT, max_size=4))
_OTHER_VALUES = (st.lists(st.integers() | _TEXT, min_size=2, max_size=4)
                 | st.lists(st.lists(st.integers(), max_size=2), max_size=2)
                 | st.booleans() | st.floats(allow_nan=False)
                 | st.dictionaries(_TEXT, st.integers(), max_size=2))


@st.composite
def _records(draw):
    """A list of dicts that share one key set, or all but one do; a value
    may be shared by several entries, as the lists of a product table are."""
    keys = draw(st.lists(_TEXT | st.just("%s"), min_size=1, max_size=4, unique=True))
    kinds = _FLAT_VALUES if draw(st.booleans()) else _FLAT_VALUES | _OTHER_VALUES
    pool = draw(st.lists(kinds, min_size=1, max_size=4))
    values = st.sampled_from(pool) | kinds
    out = draw(st.lists(st.fixed_dictionaries({k: values for k in keys}),
                        min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        out.insert(draw(st.integers(0, len(out))),
                   draw(st.dictionaries(_TEXT, kinds, max_size=3)))
    return out


def _payloads(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.lists(_TEXT, max_size=4)
            | st.lists(st.integers(), max_size=4)
            | st.dictionaries(_TEXT, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3)
            | _records())


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(st.recursive(_LEAVES, _payloads, max_leaves=25))
def test_dump_json_matches_stdlib(obj):
    """Empty containers, escapes and non-ASCII in keys and values, big ints,
    bools and None take the direct path; floats, tuples and int keys take the
    standard library's, nested at any indent.  Lists of dicts that share a
    key set take the template path when every value is an int, a str, None
    or a flat list of ints or of strs, and the general path otherwise."""
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_records(), st.integers(0, 3))
def test_dump_json_records_match_stdlib(records, depth):
    """Record lists on their own, at the indents of nested report fields."""
    obj = records
    for _ in range(depth):
        obj = {"products": obj, "n": 1}
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


def test_dump_json_product_table_takes_the_template_path(monkeypatch):
    """A product table is written by the template path; a mixed list value
    sends its list back to the general path, with the same bytes."""
    import padicforms.report as report_module
    taken = []
    original = report_module._write_records
    monkeypatch.setattr(report_module, "_write_records",
                        lambda x, nl, out: taken.append(original(x, nl, out)) or taken[-1])
    side = [0, 1]
    table = [{"left": side, "right": [1, 0], "coordinates": ["0", "-3"]},
             {"left": side, "right": side, "coordinates": None},
             {"left": [2, 0], "right": side, "coordinates": []}]
    for obj, path in ((table, True), (table + [dict(table[0], coordinates=[1, "1"])], False)):
        taken.clear()
        assert dump_json({"products": obj}) == \
            json.dumps({"products": obj}, sort_keys=True, indent=1) + "\n"
        assert taken == [path]

