"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload sim-chain --seeds 1-10

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric it prints the median of the runs' values, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=200, check=True)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds}s")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        middle = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0], None, values[0])
        spread = (q3 - q1) / middle if middle else 0.0
        print(f"{metric['name']:<28} {middle:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g} {spread:>8.3f} {metric['bound']:>6}")
    failed = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share(s): {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
