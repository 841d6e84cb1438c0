import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padicforms.derham import build_omega
from padicforms.report import (
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


_TEXT = st.text(st.sampled_from('aZ0 "\\/\n\t\x00\x1f\x7fé€😀\ud800'), max_size=5)
_LEAVES = (st.none() | st.booleans() | _TEXT
           | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.floats(allow_nan=True, allow_infinity=True))


def _payloads(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.lists(_TEXT, max_size=4)
            | st.lists(st.integers(), max_size=4)
            | st.dictionaries(_TEXT, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3))


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(st.recursive(_LEAVES, _payloads, max_leaves=25))
def test_dump_json_matches_stdlib(obj):
    """Empty containers, escapes and non-ASCII in keys and values, big ints,
    bools and None take the direct path; floats, tuples and int keys take the
    standard library's, nested at any indent."""
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"

