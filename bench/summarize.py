"""Turn the result files of one seed into the baseline JSON and tables.

For each workload, reads .bench_out/<workload>-seed<n>-trace0.json and
-trace1.json, writes bench/baseline/<workload>.json without the per-op
records, and prints Markdown tables in which every ratio shows its base.

    python3 bench/summarize.py --seed 0 > bench/baseline/README.md
"""

import argparse
import json

import run

KEEP = ("workload", "seed", "seconds", "commit", "python", "nproc",
        "end_to_end", "notes", "sizes", "per_layer", "overhead_bases",
        "traced_sizes", "layers")


def load(workload, seed):
    out = {}
    for trace in (0, 1):
        path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        out.update({k: v for k, v in data.items() if k in KEEP and
                    (trace == 0 or k not in ("end_to_end", "notes", "sizes"))})
    return out


def end_to_end_table(results):
    names = [name for name, _, _ in run.END_TO_END]
    lines = ["| metric | " + " | ".join(results) + " |",
             "|---" * (len(results) + 1) + "|"]
    for name in names:
        cells = []
        for data in results.values():
            value, notes = data["end_to_end"][name], data["notes"]
            cell = f"{value:.4g} {run.UNITS[name]}"
            if name == "op_s_tail":
                cell += (f" (p{notes['tail_percentile']:.1f} of "
                         f"{notes['samples']})")
            if name == "success_ratio":
                passed = notes["attempted"] - notes["failed"]
                cell += f" = {passed}/{notes['attempted']}"
            if name == "ops_per_s":
                cell += f" = {notes['attempted']} ops / {notes['timed_s']:.2f} s"
            cells.append(cell)
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def layer_table(data):
    lines = ["| function | calls | self_s | distinct / calls | max shape, bits | "
             "largest parent (self_s) |", "|---|---|---|---|---|---|"]
    rows = sorted(data["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        ratio = ""
        if "distinct" in row:
            ratio = (f"{row['distinct_ratio']:.3g} = "
                     f"{row['distinct']}/{row['calls']}")
        shape = ""
        if "max_rows" in row:
            shape = (f"{row['max_rows']}x{row['max_cols']}, "
                     f"{row['max_coeff_bits']}")
        parent, parent_s = next(iter(row["by_parent"].items()))
        lines.append(f"| `{name}` | {row['calls']} | {row['self_s']:.3f} | "
                     f"{ratio} | {shape} | `{parent}` ({parent_s:.3f}) |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=run.EXPECTED_SEED)
    args = parser.parse_args(argv)
    import workloads
    results = {}
    for workload in workloads.WORKLOADS:
        data = load(workload, args.seed)
        results[workload] = data
        path = run.BENCH / "baseline" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    first = next(iter(results.values()))
    print(f"# Baseline (seed {args.seed})\n")
    print(f"Commit {first['commit']}, Python {first['python']}, "
          f"{first['nproc']} cores, {first['seconds']:g} s per run.  Made "
          f"with `python3 bench/run.py --workload W --seed {args.seed} "
          f"--seconds {first['seconds']:g} --trace T` for T = 0 and 1, then "
          f"`python3 bench/summarize.py --seed {args.seed}`.\n")
    print("## End-to-end, untraced\n")
    print(end_to_end_table(results) + "\n")
    for workload, data in results.items():
        bases = data["overhead_bases"]
        print(f"## {workload}, traced\n")
        print(f"Sizes: `{json.dumps(data['traced_sizes'])}`.  "
              f"`trace.overhead_ratio` = {data['per_layer']['trace.overhead_ratio']:.3f}"
              f" = {bases['traced_s']:.2f} s traced / {bases['untraced_s']:.2f} s "
              f"untraced over the same {bases['ops']} ops.  "
              f"`derham.ambient_dim_max` = "
              f"{data['per_layer']['derham.ambient_dim_max']}.\n")
        print(layer_table(data) + "\n")


if __name__ == "__main__":
    main()
