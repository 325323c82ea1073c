"""Spans at the public layer boundaries, recorded from outside ``src/``.

A :class:`Tracer` wraps the public calls each layer is entered through
(``PassManager.run``, ``Node`` construction/boot/``run_until``,
``Network.run``, ``Workbench.build``/``build_result``/``simulate``,
``ArtifactStore.load_record``/``store_record``, ``JobService.submit``/
``result`` and ``RemoteClient.submit``/``result``) while it is installed,
and restores the originals when it is removed.  Untraced rounds never
install it, so they run the program's own code objects.

Each span is ``(id, name, start, end, parent, extra)``.  Parents follow the
calling thread: work handed to another thread (a job executor, an HTTP
handler, a node's execution thread) starts a new root there.  The layer of
a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import urllib.request
from time import perf_counter
from typing import Callable, Optional

from repro.api.client import RemoteClient
from repro.api.server import JobService
from repro.api.workbench import Workbench
from repro.avrora.network import Network
from repro.avrora.node import Node
from repro.store import ArtifactStore
from repro.toolchain.passes import PassManager

from stats import median, ratio

#: Pass names of the toolchain, in pipeline order (``pass_s.<name>``).
PASS_NAMES = ("nesc.flatten", "nesc.hwrefactor", "ccured.cure",
              "ccured.optimize", "inline", "cxprop", "gcc", "image")

LAYERS = ("client", "server", "workbench", "store", "toolchain", "kernel",
          "engine")


def _stmts_before(args) -> int:
    return args[0].interpreter.statements_executed


def _grant_extra(args, result, before) -> dict:
    return {"stmts": args[0].interpreter.statements_executed - before}


def _passes_extra(args, result, before) -> dict:
    return {"passes": [(report.name, report.wall_time_s)
                       for report in result.passes]}


def _network_extra(args, result, before) -> dict:
    network = args[0]
    blocks = network.superblock_stats()
    return {"busy_cycles": sum(node.busy_cycles for node in network.nodes),
            "fused": blocks["fused_statements"],
            "stmts": blocks["statements_total"]}


def _load_extra(args, result, before) -> dict:
    return {"hit": result is not None}


def _key_of_reply(args, result, before) -> dict:
    return {"key": result["key"]}


def _key_of_arg(args, result, before) -> dict:
    return {"key": args[1]}


#: (owner, attribute, span name, before hook, after hook).
_TARGETS: tuple = (
    (PassManager, "run", "toolchain.pass_manager_run", None, _passes_extra),
    (Node, "__init__", "engine.node_init", None, None),
    (Node, "boot", "engine.node_boot", None, None),
    (Node, "run_until", "engine.run_until", _stmts_before, _grant_extra),
    (Network, "run", "kernel.network_run", None, _network_extra),
    (Workbench, "build", "workbench.build", None, None),
    (Workbench, "build_result", "workbench.build_result", None, None),
    (Workbench, "simulate", "workbench.simulate", None, None),
    (ArtifactStore, "load_record", "store.load_record", None, _load_extra),
    (ArtifactStore, "store_record", "store.store_record", None, None),
    (JobService, "submit", "server.submit", None, _key_of_reply),
    (JobService, "result", "server.result", None, _key_of_arg),
    (RemoteClient, "submit", "client.submit", None, _key_of_reply),
    (RemoteClient, "result", "client.result", None, _key_of_arg),
)


class Tracer:
    """In-memory span recorder; wrappers exist only between install/remove."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.urlopen_calls = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, name: str,
              before: Optional[Callable], after: Optional[Callable]) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            state = before(args) if before is not None else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     {"error": True}))
                raise
            end = perf_counter()
            stack.pop()
            extra = after(args, result, state) if after is not None else None
            tracer.spans.append((span_id, name, start, end, parent, extra))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, before, after in _TARGETS:
            self._wrap(owner, attr, name, before, after)
        # Transport attempts, to count the client's retries: every attempt
        # of RemoteClient._request goes through this module attribute.
        original = urllib.request.urlopen
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.urlopen_calls += 1
            return original(*args, **kwargs)

        urllib.request.urlopen = counted
        self._patches.append((urllib.request, "urlopen", original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[tuple], int]:
        """Spans and transport attempts recorded since the last take."""
        spans, self.spans = self.spans, []
        with self._lock:
            calls, self.urlopen_calls = self.urlopen_calls, 0
        return spans, calls


def write_spans(path: str, rounds: list[list[tuple]]) -> None:
    """One JSON line per span: round, id, name, start, end, parent, extra."""
    with open(path, "w", encoding="utf-8") as out:
        for index, spans in enumerate(rounds):
            for span_id, name, start, end, parent, extra in spans:
                out.write(json.dumps([index, span_id, name, start, end,
                                      parent, extra]) + "\n")


def _self_times(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self time: span duration minus its direct children's."""
    children: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals = {layer: 0.0 for layer in LAYERS}
    for span_id, name, start, end, _, _ in spans:
        layer = name.split(".", 1)[0]
        totals[layer] += (end - start) - children.get(span_id, 0.0)
    return totals


def _http_overheads(spans: list[tuple]) -> list[float]:
    """Client round trip minus the server-side span it contains, per call."""
    server: dict[tuple, list[tuple]] = {}
    for _, name, start, end, _, extra in spans:
        if name.startswith("server.") and extra and "key" in extra:
            kind = name.split(".", 1)[1]
            server.setdefault((kind, extra["key"]), []).append((start, end))
    overheads = []
    for _, name, start, end, _, extra in spans:
        if not name.startswith("client.") or not extra or "key" not in extra:
            continue
        kind = name.split(".", 1)[1]
        for s_start, s_end in server.get((kind, extra["key"]), ()):
            if start <= s_start and s_end <= end:
                overheads.append((end - start) - (s_end - s_start))
                break
    return overheads


def layer_metrics(spans: list[tuple], urlopen_calls: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its spans alone."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def durations(name: str) -> list[float]:
        return [end - start for _, _, start, end, _, _ in by_name.get(name, ())]

    metrics: dict[str, float] = {}
    pass_time = {name: 0.0 for name in PASS_NAMES}
    passes_executed = 0
    for span in by_name.get("toolchain.pass_manager_run", ()):
        extra = span[5] or {}
        for name, wall in extra.get("passes", ()):
            pass_time[name] = pass_time.get(name, 0.0) + wall
            passes_executed += 1
    for name in PASS_NAMES:
        metrics[f"pass_s.{name}"] = pass_time[name]
    metrics["toolchain.passes_executed"] = passes_executed

    grants = by_name.get("engine.run_until", ())
    grant_time = sum(end - start for _, _, start, end, _, _ in grants)
    stmts = sum((extra or {}).get("stmts", 0)
                for *_, extra in grants)
    runs = by_name.get("kernel.network_run", ())
    network_time = sum(end - start for _, _, start, end, _, _ in runs)
    fused = sum((extra or {}).get("fused", 0) for *_, extra in runs)
    run_stmts = sum((extra or {}).get("stmts", 0) for *_, extra in runs)
    metrics["engine.stmts_per_s"] = ratio(stmts, grant_time)
    metrics["engine.fused_fraction"] = ratio(fused, run_stmts)
    metrics["engine.lower_s"] = sum(durations("engine.node_init")) + \
        sum(durations("engine.node_boot"))
    metrics["kernel.grants"] = len(grants)
    metrics["kernel.grants_per_kstmt"] = ratio(len(grants), stmts / 1000.0)
    metrics["kernel.zero_stmt_grants"] = sum(
        1 for *_, extra in grants if extra and extra.get("stmts") == 0)
    metrics["kernel.us_per_grant"] = ratio(grant_time, len(grants)) * 1e6
    metrics["kernel.sched_s"] = max(0.0, network_time - grant_time)
    metrics["busy_cycles"] = sum((extra or {}).get("busy_cycles", 0)
                                 for *_, extra in runs)

    metrics["store.load_record_us_p50"] = \
        median(durations("store.load_record")) * 1e6
    metrics["store.store_record_us_p50"] = \
        median(durations("store.store_record")) * 1e6
    metrics["workbench.simulate_ms_p50"] = \
        median(durations("workbench.simulate")) * 1e3
    # Only the build calls that ran passes: a memoized build_result inside
    # every simulate would otherwise pull the median to microseconds.
    building = {span[4] for span in by_name.get("toolchain.pass_manager_run",
                                                ())}
    metrics["workbench.build_ms"] = median(
        end - start for name in ("workbench.build", "workbench.build_result")
        for span_id, _, start, end, _, _ in by_name.get(name, ())
        if span_id in building) * 1e3
    metrics["server.submit_us_p50"] = median(durations("server.submit")) * 1e6
    metrics["server.result_us_p50"] = median(durations("server.result")) * 1e6
    metrics["server.http_us_p50"] = median(_http_overheads(spans)) * 1e6
    client_calls = len(by_name.get("client.submit", ())) + \
        len(by_name.get("client.result", ()))
    metrics["client.retries"] = max(0, urlopen_calls - client_calls)
    for layer, seconds in _self_times(spans).items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics
