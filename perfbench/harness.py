"""Run one workload in this process and print its result as JSON.

Started by ``run.py`` as a child process (so ``peak_rss_mb`` is this
workload's alone); prints progress to stderr and one JSON object as the
last line of stdout::

    python3 perfbench/harness.py --workload sim-solo --seed 1 \\
        --seconds 20 --trace 0

Rounds repeat for about ``--seconds`` (at least two).  With
``--trace 1`` odd rounds run with the :class:`tracer.Tracer` installed and
even rounds without it: the per-layer metrics come from the traced rounds,
the figures a user sees (statements per second, request latencies) from
the untraced ones, and ``trace.overhead_ratio`` compares the two.  The
spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
from time import perf_counter

from stats import median, percentile, ratio

MIN_ROUNDS = 2

#: Where the benchmark writes spans and temporary stores, relative to the
#: checkout root (the working directory).
OUT_DIR = ".perfbench"


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(workload, seconds: float, tracer=None):
    """Whole rounds for about ``seconds``; returns rounds, spans and walls.

    After the first ``MIN_ROUNDS`` a round starts only if a round of the
    mean length so far still ends within ``seconds``, so a run neither
    stops short nor overruns by most of a round.
    """
    rounds, spans, walls = [], [], []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or \
            perf_counter() - start + sum(walls) / len(walls) <= seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        workload.release()
        gc.collect()
        if traced:
            tracer.install()
        began = perf_counter()
        try:
            round_ = workload.round(len(rounds))
        finally:
            if traced:
                tracer.remove()
        walls.append(perf_counter() - began)
        rounds.append(round_)
        spans.append(tracer.take() if traced else None)
        log(f"round {len(rounds) - 1}{' (traced)' if traced else ''}: "
            f"set-up {round_.setup_s:.3f}s, {len(round_.ops)} ops in "
            f"{round_.timed_s:.3f}s")
    return rounds, spans, walls


def _latency_ms(values: list[float], q: float, cap_s: float) -> float:
    """Percentile in ms; a failure (infinite latency) reads as ``cap_s``."""
    return min(percentile(values, q), cap_s) * 1e3


def end_to_end(rounds, images, setup_s: float, peak_rss_mb: float,
               cap_s: float) -> dict[str, float]:
    latencies = [op.latency_s for r in rounds for op in r.ops]
    return {
        "setup_s": setup_s,
        # A median over rounds: one round stalled by an intermittent fault
        # of the program (README, "Faults the benchmark shows") does not
        # move it.
        "ops_per_s": median(ratio(sum(op.ok for op in r.ops), r.timed_s)
                            for r in rounds),
        "op_p50_ms": _latency_ms(latencies, 50, cap_s),
        "code_bytes": sum(record["code_bytes"] for record in images),
        "checks_surviving": sum(record["checks_surviving"]
                                for record in images),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rounds, spans, walls, images, cap_s: float) -> dict[str, float]:
    from tracer import layer_metrics

    traced = [i for i, taken in enumerate(spans) if taken is not None]
    plain = [i for i, taken in enumerate(spans) if taken is None]
    per_round = [layer_metrics(*spans[i]) for i in traced]
    metrics = {name: median(values[name] for values in per_round)
               for name in per_round[0]}
    inserted = sum(record["checks_inserted"] for record in images)
    metrics["ccured.checks_inserted"] = inserted
    metrics["toolchain.checks_removed"] = inserted - sum(
        record["checks_surviving"] for record in images)
    for name, counter in (("engine.lowerings", "lowerings"),
                          ("store.record_hits", "record_hits"),
                          ("store.record_misses", "record_misses")):
        metrics[name] = median(rounds[i].counters.get(counter, 0)
                               for i in traced)
    # What a user sees, from the rounds that ran without wrappers.
    metrics["sim_stmts_per_s"] = median(
        ratio(rounds[i].counters.get("statements", 0), rounds[i].timed_s)
        for i in plain)
    metrics["node_s_per_wall_s"] = median(
        ratio(rounds[i].counters.get("node_seconds", 0), rounds[i].timed_s)
        for i in plain)
    for kind, q, name in (("hit", 50, "hit_latency_p50_ms"),
                          ("hit", 99, "hit_latency_p99_ms"),
                          ("miss", 50, "miss_latency_p50_ms")):
        values = [op.latency_s for i in plain for op in rounds[i].ops
                  if op.kind == kind]
        metrics[name] = _latency_ms(values, q, cap_s)
    # The slowest operation: a one-off stall that the medians hide.
    metrics["op_max_ms"] = _latency_ms(
        [op.latency_s for i in plain for op in rounds[i].ops], 100, cap_s)
    metrics["trace.overhead_ratio"] = ratio(
        median(walls[i] for i in traced), median(walls[i] for i in plain))
    return metrics


def lingering() -> list[str]:
    """Non-daemon threads and child processes still alive."""
    left = [f"thread {thread.name}" for thread in threading.enumerate()
            if thread is not threading.main_thread() and not thread.daemon]
    task_dir = f"/proc/{os.getpid()}/task"
    for task in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, task, "children")) as fh:
                left += [f"process {pid}" for pid in fh.read().split()]
        except OSError:
            continue
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-s", type=float, default=0.0,
                        help="median import time measured by the caller")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec = load_spec(root)
    metric_list = spec["per_layer" if args.trace else "end_to_end"]

    from workloads import REQUEST_TIMEOUT_S, WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, log=log, root=OUT_DIR)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    try:
        prepare_s = workload.prepare()
        rounds, spans, walls = run_rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(rounds)
    finally:
        workload.close()
    images = workload.images()
    if args.trace:
        from tracer import write_spans
        write_spans(os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"),
            [taken[0] for taken in spans if taken is not None])
        metrics = per_layer(rounds, spans, walls, images, REQUEST_TIMEOUT_S)
    else:
        setup_s = args.import_s + prepare_s + median(
            r.setup_s for r in rounds)
        metrics = end_to_end(rounds, images, setup_s, peak_rss_mb,
                             REQUEST_TIMEOUT_S)
    gc.collect()
    left = lingering()
    if left:
        problems.append(f"still alive after the run: {', '.join(left)}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")

    missing = [m["name"] for m in metric_list if m["name"] not in metrics]
    if missing:
        log(f"metrics not computed: {missing}")
        return 2
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(1 for r in rounds for op in r.ops if not op.ok)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in metric_list},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
