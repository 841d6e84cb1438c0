"""Byte-exact regression gate: CLI reports against the recorded corpus.

Each case of ``tests/golden/cases.json`` runs in-process through
``padicforms.cli.main``; its exit code and stdout bytes must equal the
recorded ones (``tests/golden/<name>.out``).  Re-record with
``tests/golden/record.py`` only when a report is meant to change.
"""

import copy
import json
import pathlib

import pytest

from padicforms.cli import main
from padicforms.derham import OmegaLevels, omega_levels

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
OMEGA_CASES = [c for c in CASES
               if {"omega", "v_tensor_omega"} & set(c["argv"])]


def _run_golden(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == case["exit"], case["name"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes(), case["name"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, capsys):
    _run_golden(case, capsys)


def test_golden_reports_in_one_process_forward_and_reversed(capsys):
    """All cases in one process, twice over in opposite orders: a cache that
    outlived the run that filled it would change a later report."""
    for case in CASES + CASES[::-1]:
        _run_golden(case, capsys)


def test_shared_level_families_give_golden_reports_in_two_orders(capsys):
    """The omega-side cases from an empty memo of level families, then again
    in reverse: every report is built first from fresh families, then from
    families that other reports filled."""
    assert len(OMEGA_CASES) >= 8
    omega_levels.cache_clear()
    for case in OMEGA_CASES + OMEGA_CASES[::-1]:
        _run_golden(case, capsys)


def _family_state(family):
    return copy.deepcopy((
        {n: (lv.basis, lv.index) for n, lv in family._levels.items()},
        family._maps, family._diffs))


def test_reports_do_not_mutate_shared_level_families(capsys):
    """An omega report with products and a v_tensor_omega report leave the
    shared families' bases and face, degeneracy and d matrices as a fresh
    family builds them."""
    names = {"rp2_omega_w3", "sphere2_v_tensor_omega_w2"}
    cases = [c for c in CASES if c["name"] in names]
    keys = [(3, 2), (2, 2), (1, 2)]
    for case in cases:
        _run_golden(case, capsys)
    snapshot = {key: _family_state(omega_levels(*key)) for key in keys}
    for case in cases:
        _run_golden(case, capsys)
    for key in keys:
        family = omega_levels(*key)
        assert _family_state(family) == snapshot[key], key
        assert family._maps and family._diffs, key
        fresh = OmegaLevels(*key)
        for (n, i, k, target), rows in family._maps.items():
            build = fresh.face_rows if target < n else fresh.degen_rows
            assert rows == build(n, i, k), (key, n, i, k, target)
        for (n, k), rows in family._diffs.items():
            assert rows == fresh.diff_columns(n, k), (key, n, k)
