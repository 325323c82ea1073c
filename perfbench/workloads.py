"""The four workloads: seeded inputs, timed rounds and output checks.

A workload runs in whole *rounds*.  Each round first sets up (untimed as
an operation, reported as ``setup_s``) and then performs the same list of
operations every time — builds, simulations or service requests — each
timed from outside around one public call.  The seed decides the inputs
(order, channel seed, request stream); the program only sees the
generated specs.  ``minimal=True`` shrinks every input for the self-test.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.api import (BuildRecord, BuildSpec, RemoteClient, SimSpec,
                       Workbench)
from repro.api.server import JobService, build_httpd
from repro.avrora.network import Channel, Network
from repro.avrora.node import Node
from repro.toolchain.contexts import duty_cycle_context
from repro.toolchain.variants import variant_by_name

import checks

#: Every registered application, in registry order.
APPLICATIONS = tuple(Workbench().applications())

#: Seconds one service request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One timed operation; a failed one has infinite latency."""

    kind: str
    latency_s: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.latency_s)


@dataclass
class Round:
    setup_s: float
    timed_s: float
    ops: list[Op]
    #: Record dictionaries the round produced, in spec order (None where
    #: the operation failed).
    records: list[Optional[dict]] = field(default_factory=list)
    #: Workload-specific counters (statements, node-seconds, store stats).
    counters: dict = field(default_factory=dict)
    #: Problems found while the round ran (e.g. a reply's content key).
    problems: list[str] = field(default_factory=list)


def _timed(kind: str, call, log) -> tuple[Op, object]:
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:  # counted as a failed operation, run goes on
        log(f"{kind} failed: {type(exc).__name__}: {exc}")
        return Op(kind, math.inf), None
    return Op(kind, perf_counter() - start), result


def fingerprint(program, app: str, engine: str, seconds: float, *,
                node_count: int = 1, topology: str = "broadcast",
                loss: float = 0.0, seed: int = 0) -> dict:
    """Simulate ``program`` as ``Workbench.simulate`` wires it, on one
    engine, and return per-node counters plus the delivery log."""
    network = Network(traffic=duty_cycle_context(app),
                      channel=Channel(topology=topology, loss=loss,
                                      seed=seed))
    first_id = 1 if topology == "broadcast" else 0
    for index in range(node_count):
        node = Node(program, node_id=first_id + index, engine=engine)
        node.boot()
        network.add_node(node)
    network.run(seconds)
    return {
        "nodes": [[node.interpreter.statements_executed, node.busy_cycles,
                   node.leds.state.changes, len(node.failures), node.halted]
                  for node in network.nodes],
        "deliveries": [[d.sender_id, d.receiver_id, d.sent_cycles,
                        d.received_cycles, d.accepted]
                       for d in network.deliveries],
    }


class Workload:
    """Base class: run-level preparation, rounds, checks, images."""

    name = ""

    def __init__(self, seed: int, minimal: bool = False, log=print,
                 root: str = ".perfbench"):
        self.seed = seed
        self.minimal = minimal
        self.log = log
        #: Directory for the workload's scratch files (temporary stores).
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> float:
        """Run-level set-up done once before the first round; seconds."""
        return 0.0

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def images(self) -> list[dict]:
        """Build records of every image the workload builds or runs."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what the last round kept for the checks (before a round)."""

    def close(self) -> None:
        """Release everything the run holds (after the checks)."""
        self.release()


def _repeatable(rounds: list[Round], what: str) -> list[str]:
    """Every round computed the same outcomes as the first one."""
    problems = []
    first = rounds[0].records
    for index, later in enumerate(rounds[1:], start=1):
        pairs = [(one, other) for one, other in zip(first, later.records)
                 if one is not None and other is not None]
        problems += checks.check_same_outcomes(
            [one for one, _ in pairs], [other for _, other in pairs],
            f"{what}, round 0 vs round {index}")
    return problems


class BuildSweep(Workload):
    """Cold builds of every app under variants that run every pass."""

    name = "build-sweep"
    VARIANTS = ("baseline", "safe-flid", "safe-flid-cxprop",
                "safe-optimized", "unsafe-optimized")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        apps = list(APPLICATIONS[:1] if self.minimal else APPLICATIONS)
        # Seeded app order, variants in a fixed order per app: the same
        # build always pays (or shares) the same prefix, whatever the seed.
        self.rng.shuffle(apps)
        self.specs = [BuildSpec(app=app, variant=variant)
                      for app in apps for variant in self.VARIANTS]
        self.safe = {name: variant_by_name(name).safe
                     for name in self.VARIANTS}

    def round(self, index: int) -> Round:
        start = perf_counter()
        bench = Workbench()
        specs = list(self.specs)
        setup_s = perf_counter() - start
        ops, records = [], []
        start = perf_counter()
        for spec in specs:
            op, record = _timed("build", lambda: bench.build(spec), self.log)
            ops.append(op)
            records.append(record.to_dict() if record is not None else None)
        timed_s = perf_counter() - start
        bench.shutdown()
        if index == 0:
            self._first = records
        return Round(setup_s, timed_s, ops, records)

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for round_ in rounds:
            for spec, record in zip(self.specs, round_.records):
                if record is not None:
                    problems += checks.check_reply_key(spec.content_key(),
                                                       record)
        problems += checks.check_build_records(self.images(), self.safe)
        # Each round is a fresh session: one spec built in two fresh
        # sessions must give equal records.
        problems += _repeatable(rounds, "build records")
        return problems

    def images(self) -> list[dict]:
        return [record for record in self._first if record is not None]


class _SimWorkload(Workload):
    """Simulations through ``Workbench.simulate``, builds in set-up."""

    def _specs(self) -> list[SimSpec]:
        raise NotImplementedError

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.specs = self._specs()
        self._bench: Optional[Workbench] = None
        self._images: list[dict] = []

    def round(self, index: int) -> Round:
        start = perf_counter()
        bench = Workbench()
        builds = {}
        for spec in self.specs:
            build = spec.build_spec()
            if build not in builds:
                builds[build] = bench.build(build).to_dict()
        setup_s = perf_counter() - start
        if not self._images:
            self._images = list(builds.values())
        ops, records = [], []
        statements = node_seconds = lowerings = 0
        start = perf_counter()
        for spec in self.specs:
            op, record = _timed("simulate", lambda: bench.simulate(spec),
                                self.log)
            ops.append(op)
            records.append(record.to_dict() if record is not None else None)
            if record is not None:
                statements += record.superblocks.get("statements_total", 0)
                node_seconds += record.node_count * record.seconds
                lowerings += record.code_cache.get("lowerings", 0)
        timed_s = perf_counter() - start
        # The last round's session stays open: the engine check reruns its
        # programs.
        self._bench = bench
        return Round(setup_s, timed_s, ops, records,
                     counters={"statements": statements,
                               "node_seconds": node_seconds,
                               "lowerings": lowerings})

    def images(self) -> list[dict]:
        return self._images

    def release(self) -> None:
        if self._bench is not None:
            self._bench.shutdown()
            self._bench = None

    def _common_checks(self, rounds: list[Round]) -> list[str]:
        problems = []
        for round_ in rounds:
            for spec, record in zip(self.specs, round_.records):
                if record is None:
                    continue
                problems += checks.check_reply_key(spec.content_key(), record)
                problems += checks.check_sim_record(record)
        problems += _repeatable(rounds, "simulation records")
        return problems

    def _engines_agree(self, spec: SimSpec, seconds: float) -> list[str]:
        program = self._bench.build_result(spec.build_spec()).program
        runs = {engine: fingerprint(program, spec.app, engine, seconds,
                                    node_count=spec.node_count,
                                    topology=spec.topology, loss=spec.loss,
                                    seed=spec.seed)
                for engine in ("compiled", "tree")}
        return checks.check_engines_agree(
            runs["compiled"], runs["tree"],
            f"{spec.app} x {spec.variant}, first {seconds}s")


class SimSolo(_SimWorkload):
    """Single-node simulation of every app under two variants."""

    name = "sim-solo"
    VARIANTS = ("baseline", "safe-optimized")
    PREFIX_S = 1.0

    def _specs(self) -> list[SimSpec]:
        apps = ("BlinkTask_Mica2", "RfmToLeds_Mica2") if self.minimal \
            else APPLICATIONS
        specs = [SimSpec(app=app, variant=variant)
                 for app in apps for variant in self.VARIANTS]
        self.rng.shuffle(specs)
        return specs

    def check(self, rounds: list[Round]) -> list[str]:
        problems = self._common_checks(rounds)
        for spec in self.specs:
            problems += self._engines_agree(spec, self.PREFIX_S)
        return problems


class SimChain(_SimWorkload):
    """Surge on a seeded lossy multi-hop chain, in-process kernel."""

    name = "sim-chain"
    APP = "Surge_Mica2"
    VARIANTS = ("baseline", "safe-optimized")
    LOSS = 0.1

    def _specs(self) -> list[SimSpec]:
        nodes, seconds = (3, 1.0) if self.minimal else (8, 3.0)
        # Surge's first packets leave at about 2.01 simulated seconds, so
        # the engine check's prefix covers the first deliveries.
        self.prefix_s = 0.5 if self.minimal else 2.1
        channel_seed = self.rng.randrange(1 << 30)
        specs = [SimSpec(app=self.APP, variant=variant, node_count=nodes,
                         seconds=seconds, topology="chain", loss=self.LOSS,
                         seed=channel_seed, workers=1)
                 for variant in self.VARIANTS]
        self.rng.shuffle(specs)
        return specs

    def check(self, rounds: list[Round]) -> list[str]:
        problems = self._common_checks(rounds)
        spec = self.specs[0]
        channel = Channel(topology=spec.topology)
        fanout = [len(channel.neighbors(index, spec.node_count))
                  for index in range(spec.node_count)]
        for round_ in rounds:
            for record in round_.records:
                if record is not None:
                    problems += checks.check_packet_budget(record, fanout)
        for spec in self.specs:
            problems += self._engines_agree(spec, self.prefix_s)
        return problems


class ServeMixed(Workload):
    """A closed-loop client stream against an in-process job service."""

    name = "serve-mixed"
    APPS = ("BlinkTask_Mica2", "RfmToLeds_Mica2", "Ident_Mica2",
            "SenseToRfm_Mica2")
    POOL_VARIANTS = ("baseline", "safe-optimized")
    #: Novel simulations use a variant no stored spec uses, so a miss's
    #: in-session build never answers a stored build spec from memory and
    #: the store's hit counter stays a pure function of the stream.
    NOVEL_VARIANT = "unsafe-optimized"
    SIM_SECONDS = 1.0
    #: Hits re-checked against a storeless recomputation, per run.
    SAMPLED_HITS = 8
    #: The store is filled this many times; set-up reports the median.
    FILLS = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.apps = self.APPS[:1] if self.minimal else self.APPS
        sims_per_image = 2 if self.minimal else 6
        pool: list = [BuildSpec(app=app, variant=variant)
                      for app in self.apps for variant in self.POOL_VARIANTS]
        seeds = self.rng.sample(range(1, 1_000_000),
                                len(pool) * sims_per_image)
        pool += [SimSpec(app=build.app, variant=build.variant,
                         seconds=self.SIM_SECONDS, seed=seeds.pop())
                 for build in list(pool) for _ in range(sims_per_image)]
        self.pool = pool
        # Each stored spec is requested once per session plus a seeded
        # share again (a job-table repeat), so most hits are store reads.
        self.repeats = len(pool) * 4 // 5
        self.sampled = random.Random(f"{self.name}:{self.seed}:check").sample(
            pool, min(self.SAMPLED_HITS, len(pool)))
        self.scratch = os.path.join(self.root, f"serve-{os.getpid()}")
        self.store_dir = os.path.join(self.scratch, "store")
        self._images: list[dict] = []
        self._replies: dict[str, dict] = {}
        self._novel: list[tuple[SimSpec, dict]] = []

    def prepare(self) -> float:
        """Fill the store; median of three fills into fresh directories."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        times = []
        for attempt in range(self.FILLS):
            store = os.path.join(self.scratch, f"fill-{attempt}")
            start = perf_counter()
            with Workbench(store=store) as filler:
                records = [filler.build(spec) if isinstance(spec, BuildSpec)
                           else filler.simulate(spec) for spec in self.pool]
                records += [filler.build(BuildSpec(app=app,
                                                   variant=self.NOVEL_VARIANT))
                            for app in self.apps]
            times.append(perf_counter() - start)
            if attempt == 0:
                os.replace(store, self.store_dir)
            else:
                shutil.rmtree(store)
        self._images = [record.to_dict() for record in records
                        if isinstance(record, BuildRecord)]
        return statistics.median(times)

    def stream(self, session: int) -> list[tuple[object, bool]]:
        """The session's requests: ``(spec, novel)`` in sending order."""
        rng = random.Random(f"{self.name}:{self.seed}:{session}")
        requests = [(spec, False) for spec in self.pool]
        requests += [(spec, False)
                     for spec in rng.choices(self.pool, k=self.repeats)]
        rng.shuffle(requests)
        # One novel simulation per application, so every session's misses
        # cost the same: each builds its image in the session, simulates
        # it and writes the record.
        for slot, app in enumerate(rng.sample(self.apps, len(self.apps))):
            spec = SimSpec(app=app, variant=self.NOVEL_VARIANT,
                           seconds=self.SIM_SECONDS,
                           seed=10_000_000 + session * len(self.apps) + slot)
            requests.insert(rng.randrange(len(requests) + 1), (spec, True))
        return requests

    def round(self, index: int) -> Round:
        requests = self.stream(index)
        start = perf_counter()
        service = JobService(self.store_dir)
        httpd = build_httpd(service, "127.0.0.1", 0)
        server = threading.Thread(target=httpd.serve_forever, args=(0.05,),
                                  name="perfbench-httpd")
        server.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        setup_s = perf_counter() - start
        ops: list[Op] = []
        replies: list[Optional[dict]] = []
        # One client thread in a closed loop: a second one sharing the
        # interpreter lock with it and the server doubled the latency and
        # made it follow the host's load rather than the service.
        client = RemoteClient(url, timeout=REQUEST_TIMEOUT_S)
        try:
            start = perf_counter()
            for spec, novel in requests:
                op, reply = _timed(
                    "miss" if novel else "hit",
                    lambda: client.run(spec, timeout=REQUEST_TIMEOUT_S),
                    self.log)
                ops.append(op)
                replies.append(reply)
            timed_s = perf_counter() - start
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.shutdown()
            server.join(timeout=30.0)
        stats = dict(service.workbench.store.stats())
        problems = []
        for (spec, is_novel), reply in zip(requests, replies):
            if reply is None:
                continue
            problems += checks.check_reply_key(spec.content_key(), reply)
            if is_novel:
                self._novel.append((spec, reply))
                continue
            first = self._replies.setdefault(spec.content_key(), reply)
            problems += checks.check_same_outcomes(
                [first], [reply], f"session {index}, repeated request")
        problems += checks.check_store_counters(
            stats, len(self.pool), len(self.apps), index)
        return Round(setup_s, timed_s, ops, [],
                     counters={"record_hits": stats["record_hits"],
                               "record_misses": stats["record_misses"]},
                     problems=problems)

    def check(self, rounds: list[Round]) -> list[str]:
        problems = [problem for round_ in rounds
                    for problem in round_.problems]
        with Workbench() as fresh:
            for spec, reply in self._novel:
                problems += checks.check_same_outcomes(
                    [reply], [fresh.simulate(spec).to_dict()],
                    "novel reply vs storeless recomputation")
            for spec in self.sampled:
                reply = self._replies.get(spec.content_key())
                if reply is None:
                    continue
                again = fresh.build(spec) if isinstance(spec, BuildSpec) \
                    else fresh.simulate(spec)
                problems += checks.check_same_outcomes(
                    [reply], [again.to_dict()],
                    "stored reply vs storeless recomputation")
        return problems

    def images(self) -> list[dict]:
        return self._images

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {cls.name: cls
             for cls in (BuildSweep, SimSolo, SimChain, ServeMixed)}
