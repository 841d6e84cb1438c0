"""The benchmark's own test: every workload at tiny size, traced and untraced.

Op outputs must be byte-identical between the two runs, every op must pass its
checks, the checks between ops must leave no trace, and every attribute the
tracer patched must be restored afterwards.
Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_OPS = {"omega-forms": 2, "massey-batch": 8, "cochain-ring": 4}


def _snapshot():
    """Every module attribute and class member of the padicforms package."""
    snap = {}
    for module in tracing._package_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = member
    return snap


def _run(workload, workdir, monkeypatch, tracer=None):
    wl, api, inputs, _ = run.prepare(workload, 0, 1, workdir,
                                     fresh_import=False)
    monkeypatch.chdir(workdir)
    records = []
    if tracer:
        tracer.install()
    try:
        run.execute(wl, api, inputs, 600, records.append,
                    run.load_expected(workload, 0), TINY_OPS[workload], tracer)
    finally:
        if tracer:
            tracer.uninstall()
    return records


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(workload, tmp_path, monkeypatch):
    plain = _run(workload, tmp_path / "plain", monkeypatch)
    before = _snapshot()
    tracer = tracing.Tracer()
    traced = _run(workload, tmp_path / "traced", monkeypatch, tracer)
    after = _snapshot()

    assert len(plain) == TINY_OPS[workload]
    assert [r["reason"] for r in plain + traced] == [None] * (2 * len(plain))
    assert [(r["label"], r["code"], r["sha256"]) for r in plain] == \
        [(r["label"], r["code"], r["sha256"]) for r in traced]
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []

    table = tracer.layer_table()
    assert table[tracing.OP_SPAN]["calls"] == len(traced)
    top = "massey.triple_massey" if workload == "massey-batch" else "cli.main"
    assert table[top]["calls"] >= 1
    assert sum(row["self_s"] for row in table.values()) > 0
    if top == "cli.main":
        # the CLI validates each report once; the checks' own calls are
        # outside the ops and are not recorded
        assert table["report.validate_report"]["calls"] == \
            table["cli.main"]["calls"]


def test_tracer_rebinds_imported_names():
    api = workloads.load_api()
    original = api.linalg.p_local_solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert api.derham.p_local_solve is api.linalg.p_local_solve
        assert api.derham.p_local_solve is not original
        assert api.cli.cohomology_ring is api.products.cohomology_ring
        assert api.cli.cohomology_ring.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert api.linalg.p_local_solve is original
    assert api.derham.p_local_solve is original


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
