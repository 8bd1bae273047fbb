"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scale --seeds 1 2 3 4 5 6 7 8 9 10

Each run lasts BENCHMARK.json's ``run_seconds``.  For every end-to-end
metric it prints the median of the runs and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, plus the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    rows = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in rows})
    print(f"{args.workload}: {len(rows)} runs, correct={all(r['correct'] for r in rows)}, failed/attempted {shares}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:32s} median {med:12.6g}  spread {spread:7.3f}  min {min(values):.6g}  max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
