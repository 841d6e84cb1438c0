"""Store the per-op exit codes and SHA-256 digests of the default seed.

Sets a workload up with the default seed for a run of BENCHMARK.json's
``run_seconds``, runs every op of the list untraced and writes one line
per op, ``<exit code> <first 16 hex digits of the SHA-256 of label and
output>``, to bench/expected/<workload>.txt.  A run of the benchmark with the
default seed then fails every op whose output differs.  It refuses to write
if any op fails its own checks.  Run from the root of the repository at the
commit whose outputs are the reference:

    python3 bench/record_expected.py --workload cochain-ring
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        wl, api, inputs, _ = run.prepare(
            args.workload, run.EXPECTED_SEED, spec["run_seconds"], Path(tmp))
        os.chdir(tmp)
        records = []
        try:
            run.execute(wl, api, inputs, float("inf"), records.append)
        finally:
            os.chdir(run.ROOT)
    failed = [r for r in records if r["failed"]]
    if failed:
        for r in failed:
            sys.stderr.write(f"op {r['index']} {r['label']}: {r['reason']}\n")
        return 1
    run.EXPECTED.mkdir(exist_ok=True)
    path = run.EXPECTED / f"{args.workload}.txt"
    path.write_text("".join(f"{r['code']} {r['sha256']}\n" for r in records),
                    encoding="utf-8")
    print(f"{len(records)} ops written to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
