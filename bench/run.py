"""Benchmark of padicforms: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout:

    python3 bench/run.py --workload omega-forms --seed 1 --seconds 30 --trace 0

Each run starts the workload in a child process of its own, single-threaded,
in a closed loop with one op at a time.  ``--trace 0`` runs it untraced and
prints the end-to-end metrics.  ``--trace 1`` runs the same op list twice, in
two fresh processes, untraced and then traced by bench/tracer.py; it prints
the per-layer metrics and the tracing overhead, and checks that both runs
gave byte-identical op outputs.  Each op is checked right after it, off the
clock and outside the trace.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A result file with the
per-op records, input sizes, seed, commit, Python version and core count
goes to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected"
EXPECTED_SEED = 0
DIGEST_HEX = 16                  # hex digits of SHA-256 kept per op
SETUPS_BEFORE = 3                # set-ups timed before the loop ...
SETUPS_AFTER = 4                 # ... and after it, to span the run's drift
TAIL_BEYOND = 10
RUN_LIMIT_S = 170

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
]

_SNF_STATS = ("calls", "self_s", "distinct_ratio", "max_rows", "max_cols",
              "max_coeff_bits")
_CS = ("calls", "self_s")
LAYERS = [
    ("linalg.p_local_snf", _SNF_STATS),
    ("linalg.p_local_solve", _CS),
    ("linalg.p_local_kernel", _CS),
    ("linalg.p_local_cohomology", _CS),
    ("linalg.solve_int", _CS),
    ("linalg.smith_normal_form", _SNF_STATS),
    ("linalg.cohomology.z", ("calls", "self_s", "distinct_ratio")),
    ("linalg.cohomology.gf", ("calls", "self_s", "distinct_ratio")),
    ("linalg.cohomology.zmod", ("calls", "self_s", "distinct_ratio")),
    ("linalg.hnf_rows", _CS),
    ("linalg.AbelianGroupReport.class_coordinates", _CS),
    ("derham.SectionComplex.__init__", _CS),
    ("derham.SectionComplex.express", _CS),
    ("derham.SectionComplex.diff_in_sections", _CS),
    ("derham.SectionComplex.cohomology", _CS),
    ("derham.SectionComplex.multiply_sections", _CS),
    ("derham.OmegaLevels.level", _CS),
    ("divided.OmegaElement.multiply", _CS),
    ("massey.DgaData.from_space", _CS),
    ("massey.eligible_pairs", _CS),
    ("massey.triple_massey", _CS),
    ("massey.indeterminacy_generators", _CS),
    ("massey.solve_over", _CS),
    ("massey.in_subgroup_mod", _CS),
    ("massey.DgaData.cohomology", ("calls", "self_s", "distinct_ratio")),
    ("products.cup", _CS),
    ("products.cohomology_ring", _CS),
    ("simplicial.SimplicialSet.load", _CS),
    ("simplicial.normalized_cochain_complex", _CS),
    ("decalage.build_D", _CS),
    ("decalage.ShiftedComplex.cohomology", _CS),
    ("report.validate_report", _CS),
    ("report.dump_json", _CS),
    ("cli.main", _CS),
]
_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "distinct_ratio": ("ratio", "higher"), "max_rows": ("count", "lower"),
          "max_cols": ("count", "lower"), "max_coeff_bits": ("bits", "lower")}
PER_LAYER = [(f"{layer}.{stat}",) + _UNITS[stat]
             for layer, stats in LAYERS for stat in stats] + [
    ("derham.ambient_dim_max", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one pass in this process and write its record; the
    # traced pass runs as many ops as the untraced one did
    parser.add_argument("--child", choices=("untraced", "traced"))
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--deadline-s", type=float)
    parser.add_argument("--record")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one pass, in a child process
# ---------------------------------------------------------------------------

def _purge_package():
    for name in [n for n in sys.modules
                 if n == "padicforms" or n.startswith("padicforms.")]:
        del sys.modules[name]


def prepare(workload, seed, seconds, workdir, setups=1, fresh_import=True):
    """Import padicforms and make the inputs, ``setups`` times, timing each;
    then write the space files of the last set-up to ``workdir``, if given.

    The file writes are not timed: on the VM the benchmark was tuned on,
    writing the same few hundred small files took from 0.06 s to 0.3 s from
    one batch to the next, with no change in the code.
    """
    import workloads
    wl = workloads.WORKLOADS[workload]
    times = []
    for _ in range(setups):
        if fresh_import:
            _purge_package()
        start = time.perf_counter()
        api = workloads.load_api()
        inputs, files = wl.setup(api, seed, seconds)
        times.append(time.perf_counter() - start)
    if workdir is not None:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for name, body in files.items():
            (workdir / name).write_text(body, encoding="utf-8")
    return wl, api, inputs, times


def execute(wl, api, inputs, seconds, keep, expected=(), max_ops=None,
            tracer=None):
    """The timed closed loop, one op at a time, until ``seconds`` of loop
    time have passed, ``max_ops`` ops have run or the op list is used up.

    Each op is checked right after it, off the clock and outside the trace.
    Only its small record is passed to ``keep``; the op, its output and its
    inputs are dropped, so memory does not grow with the number of ops run.
    Returns the number of ops, the loop time and whether the list ran out.
    """
    ops = wl.ops(api, inputs)
    count, timed, used_up = 0, 0.0, False
    cache = {}
    while timed < seconds and (max_ops is None or count < max_ops):
        start = time.perf_counter()
        op = next(ops, None)
        if op is None:
            used_up = True
            break
        if tracer:
            tracer.begin_op(op.index)
        t0 = time.perf_counter()
        try:
            op.code, op.output, op.payload = wl.run(api, op)
        except Exception as exc:  # an op that raises is a failed op
            op.error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer:
            tracer.end_op()
        op.seconds = end - t0
        timed += end - start
        keep(check_op(wl, api, op, expected, cache))
        count += 1
    return count, timed, used_up


def load_expected(workload, seed):
    path = EXPECTED / f"{workload}.txt"
    if seed != EXPECTED_SEED or not path.exists():
        return []
    return [line.split() for line in path.read_text().splitlines() if line]


def op_digest(op):
    return hashlib.sha256(op.label.encode() + b"\n" +
                          op.output).hexdigest()[:DIGEST_HEX]


def check_op(wl, api, op, expected, cache):
    """The op's record; it fails if it raised, or fails a check."""
    digest = op_digest(op) if op.error is None else None
    reason = op.error
    if reason is None:
        try:
            reason = wl.check(api, op)
        except Exception as exc:  # a check that breaks on the output fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is None and op.index < len(expected):
        if [str(op.code), digest] != expected[op.index]:
            reason = "exit code / digest differ from the stored ones"
    return {"index": op.index, "label": op.label, "kind": op.kind,
            "seconds": op.seconds, "latency": op.latency, "code": op.code,
            "sha256": digest, "failed": reason is not None, "reason": reason,
            "size": wl.describe(api, op, cache)}


def child_main(args):
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    record_path = Path(args.record).resolve()
    ops_path = record_path.with_suffix(".ops.jsonl")
    try:
        untraced = args.child == "untraced"
        wl, api, inputs, setup_times = prepare(
            args.workload, args.seed, args.seconds, workdir,
            SETUPS_BEFORE if untraced else 1)
        expected = load_expected(args.workload, args.seed)
        os.chdir(workdir)
        tracer = None
        if not untraced:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            with open(ops_path, "w", encoding="utf-8") as fh:
                _, timed, used_up = execute(
                    wl, api, inputs, args.deadline_s,
                    lambda rec: fh.write(json.dumps(rec) + "\n"),
                    expected, args.max_ops, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        os.chdir(ROOT)
        if untraced:
            inputs = None
            setup_times += prepare(args.workload, args.seed, args.seconds,
                                   None, SETUPS_AFTER)[3]
        record = {"setup_s": setup_times, "timed_s": timed,
                  "peak_rss_mb": rss_mb, "ops_file": str(ops_path),
                  "op_list_used_up": used_up}
        if tracer:
            spans = record_path.with_suffix(".spans.jsonl")
            tracer.write_spans(spans)
            record["layers"] = tracer.layer_table()
            record["ambient_dim_max"] = tracer.ambient_dim_max
            record["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# the parent: start the passes, compute and print the metrics
# ---------------------------------------------------------------------------

def run_pass(args, mode, deadline_s, deadline, max_ops=None):
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-{mode}.record.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--deadline-s", str(deadline_s),
           "--record", str(record)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} pass did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not record.exists():
        raise SystemExit(f"{mode} pass failed with exit code {code}")
    data = json.loads(record.read_text(encoding="utf-8"))
    record.unlink()
    ops_file = Path(data.pop("ops_file"))
    data["ops"] = [json.loads(line) for line in
                   ops_file.read_text(encoding="utf-8").splitlines()]
    ops_file.unlink()
    return data


def tail(times):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the minimum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(data):
    ops = data["ops"]
    times = [op["seconds"] for op in ops if op["latency"]]
    failed = sum(op["failed"] for op in ops)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(data["setup_s"]),
        "ops_per_s": len(ops) / data["timed_s"],
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "peak_rss_mb": data["peak_rss_mb"],
        "success_ratio": (len(ops) - failed) / len(ops),
    }
    notes = {"tail_percentile": tail_pct, "samples": len(times),
             "samples_beyond_tail": beyond, "failed": failed,
             "attempted": len(ops), "timed_s": data["timed_s"],
             "fail_ratio": failed / len(ops),
             "op_list_used_up": data["op_list_used_up"],
             "setup_times_s": data["setup_s"]}
    return metrics, notes


def per_layer(base, traced):
    table = traced["layers"]
    metrics = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        metrics[name] = table.get(layer, {}).get(stat, 0)
    metrics["derham.ambient_dim_max"] = traced["ambient_dim_max"]
    times = {op["index"]: op["seconds"] for op in base["ops"]}
    common = [op for op in traced["ops"] if op["index"] in times]
    bases = {"ops": len(common),
             "traced_s": sum(op["seconds"] for op in common),
             "untraced_s": sum(times[op["index"]] for op in common)}
    metrics["trace.overhead_ratio"] = bases["traced_s"] / bases["untraced_s"]
    return metrics, bases


def size_summary(ops):
    """Mean simplices per dimension, and the largest ambient dimension per
    form degree where the ops report one."""
    cells = [op["size"]["cells"] for op in ops]
    width = max(len(c) for c in cells)
    mean = [round(sum(c[d] for c in cells if d < len(c)) / len(cells), 2)
            for d in range(width)]
    out = {"ops": len(ops), "mean_cells_per_dim": mean}
    ambient = [op["size"]["ambient_dim"] for op in ops
               if "ambient_dim" in op["size"]]
    if ambient:
        out["max_ambient_dim_per_degree"] = [max(a[k] for a in ambient)
                                             for k in range(len(ambient[0]))]
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2
    if not (ROOT / "src" / "padicforms" / "__init__.py").exists():
        sys.stderr.write("no padicforms sources under src/ in this checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    base = run_pass(args, "untraced", args.seconds, deadline)
    ops = base["ops"]
    failed = sum(op["failed"] for op in ops)
    attempted = len(ops)
    e2e, notes = end_to_end(base)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": bool(args.trace), "seconds": args.seconds,
              "commit": git_commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "end_to_end": e2e, "notes": notes,
              "sizes": size_summary(ops), "untraced_ops": ops}
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"commit {result['commit'][:12]}, python {result['python']}, "
          f"nproc {result['nproc']}")
    print(f"sizes: {json.dumps(result['sizes'])}")
    if args.trace:
        traced = run_pass(args, "traced", 10 * args.seconds + 60, deadline,
                          max_ops=attempted)
        mismatched = [op["index"] for op, other in zip(ops, traced["ops"])
                      if (op["sha256"], op["code"]) !=
                      (other["sha256"], other["code"])]
        failed_traced = sum(op["failed"] for op in traced["ops"])
        correct = correct and not mismatched and failed_traced == 0 and \
            len(traced["ops"]) == attempted
        metrics, overhead_bases = per_layer(base, traced)
        result.update(per_layer=metrics, overhead_bases=overhead_bases,
                      traced_sizes=size_summary(traced["ops"]),
                      layers=traced["layers"],
                      traced_vs_untraced_mismatches=mismatched,
                      spans_file=traced["spans_file"])
        for name, _, _ in PER_LAYER:
            print(f"{name} = {metrics[name]:.6g} {UNITS[name]}")
    else:
        metrics = e2e
        for name, _, _ in END_TO_END:
            extra = ""
            if name == "op_s_tail":
                extra = (f"  (p{notes['tail_percentile']:.1f} of "
                         f"{notes['samples']} ops, "
                         f"{notes['samples_beyond_tail']} beyond)")
            if name == "success_ratio":
                extra = f"  (fail_ratio {notes['fail_ratio']:.6g})"
            print(f"{name} = {metrics[name]:.6g} {UNITS[name]}{extra}")
    print(f"ops: {attempted} attempted, {failed} failed")
    if notes["op_list_used_up"]:
        print(f"warning: the op list ran out after {notes['timed_s']:.2f} s "
              f"of {args.seconds:g} s; raise the inputs made per second in "
              f"bench/workloads.py so that runs stay the same length")
    for op in ops:
        if op["failed"]:
            print(f"  failed op {op['index']} {op['label']}: {op['reason']}")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": UNITS[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
