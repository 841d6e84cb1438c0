"""Re-record the golden CLI corpus: ``PYTHONPATH=src python tests/golden/record.py``.

Each case in ``cases.json`` runs in-process through ``padicforms.cli.main``;
its stdout goes to ``<name>.out`` and its exit code into ``cases.json``.
Only re-record when a report is meant to change.
"""

import contextlib
import io
import json
import pathlib

from padicforms.cli import main

HERE = pathlib.Path(__file__).resolve().parent


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


def record():
    cases_path = HERE / "cases.json"
    cases = json.loads(cases_path.read_text(encoding="utf-8"))
    for case in cases:
        case["exit"], stdout = run_case(case["argv"])
        (HERE / f"{case['name']}.out").write_bytes(stdout)
    lines = ",\n ".join(json.dumps(case) for case in cases)
    cases_path.write_text(f"[\n {lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
