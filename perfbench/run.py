"""The benchmark's one command: run a workload, print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-sweep --seed 1 \\
        --seconds 20 --trace 0

Steps:

1. Byte-compile ``src/`` once (the build step), so every run imports from
   the same cached bytecode.
2. Time the package import in three fresh interpreters and take the
   median; it is part of ``setup_s``, since every user pays it.
3. Run the workload in one child process (``harness.py``), so its peak
   memory and set-up are its own, with a deadline: a child that overruns
   is killed and the command fails.
4. Check that no child process or non-daemon thread outlived the run,
   then print the child's JSON result as the last line of stdout.

Without ``src/repro`` next to this directory the command fails without a
result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

from harness import lingering

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The whole command must end within this many seconds.
DEADLINE_S = 175.0
IMPORT_PROBES = 3
PROBE = ("import time; t = time.perf_counter(); "
         "import repro.api, repro.api.server, repro.api.client, "
         "repro.avrora.network, repro.store, repro.toolchain.passes; "
         "print(time.perf_counter() - t)")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    return code


def run_child(command: list[str], env: dict, timeout: float,
              capture: bool) -> tuple[int, str]:
    """Run one child to completion; kill it if it overruns ``timeout``."""
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    return child.returncode, (out or b"").decode("utf-8", "replace")


def main(argv=None) -> int:
    started = monotonic()
    parser = argparse.ArgumentParser(description="perfbench")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [entry["name"] for entry in json.load(fh)["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return fail(f"no program to measure: {SRC}/repro is missing")

    if not compileall.compile_dir(SRC, quiet=1):
        return fail("byte-compiling src/ failed")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    try:
        probes = []
        for _ in range(IMPORT_PROBES):
            code, out = run_child([sys.executable, "-c", PROBE], env,
                                  timeout=60.0, capture=True)
            if code != 0:
                return fail(f"importing the package failed (exit {code})")
            probes.append(float(out.split()[-1]))
        remaining = DEADLINE_S - (monotonic() - started)
        code, out = run_child(
            [sys.executable, os.path.join(HERE, "harness.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--import-s", repr(statistics.median(probes))],
            env, timeout=remaining, capture=True)
    except subprocess.TimeoutExpired:
        return fail("the workload overran the deadline and was killed", 3)
    if code != 0:
        return fail(f"the workload exited with code {code}", 4)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("the workload printed no result", 4)
    left = lingering()
    if left:
        return fail(f"still alive after the run: {left}", 5)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
