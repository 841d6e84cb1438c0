"""Byte-exact regression gate: CLI reports against the recorded corpus.

Each case of ``tests/golden/cases.json`` runs in-process through
``padicforms.cli.main``; its exit code and stdout bytes must equal the
recorded ones (``tests/golden/<name>.out``).  Re-record with
``tests/golden/record.py`` only when a report is meant to change.
"""

import json
import pathlib

import pytest

from padicforms.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_golden_reports_in_one_process_forward_and_reversed(capsys):
    """All cases in one process, twice over in opposite orders: a cache that
    outlived the run that filled it would change a later report."""
    for case in CASES + CASES[::-1]:
        code = main(list(case["argv"]))
        out = capsys.readouterr().out.encode("utf-8")
        assert code == case["exit"], case["name"]
        assert out == (GOLDEN / f"{case['name']}.out").read_bytes(), case["name"]
