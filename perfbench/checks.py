"""Correctness checks on the program's outputs: references and properties.

Every check takes plain record dictionaries (``to_dict()`` form) or
fingerprints and returns a list of problems, empty when the outputs pass.
None of them compares against a stored copy of earlier output: each one
checks a property the outputs must have, or compares two independent
computations of the same result (a second fresh session, the
tree-walking interpreter, a storeless recomputation).
``selftest.py`` feeds each check a deliberately wrong output to show that
it can fail.
"""

from __future__ import annotations

#: Fields that describe what a simulation computed.  The records' other
#: fields (superblocks, workers, shards, code_cache, recovery) are run
#: telemetry: a store-served record still carries the cold run's.
SIM_OUTCOME = ("app", "variant", "content_key", "node_count", "seconds",
               "topology", "duty_cycles", "packets_sent", "packets_received",
               "injected_radio", "injected_uart", "packets_delivered",
               "packets_lost", "failures", "halted", "led_changes")

#: Fields that describe what a build produced (``wall_time_s`` is timing).
BUILD_OUTCOME = ("app", "variant", "content_key", "code_bytes", "ram_bytes",
                 "checks_inserted", "checks_surviving", "passes")

UNSAFE_REFERENCE = "baseline"
UNSAFE_OPTIMIZED = "unsafe-optimized"
SAFE_OPTIMIZED = "safe-optimized"


def outcome(record: dict) -> dict:
    """The outcome fields of a build or simulation record dictionary."""
    fields = SIM_OUTCOME if record.get("kind") == "sim-record" \
        else BUILD_OUTCOME
    return {name: record.get(name) for name in fields}


def _by_app(records: list[dict]) -> dict[str, dict[str, dict]]:
    apps: dict[str, dict[str, dict]] = {}
    for record in records:
        apps.setdefault(record["app"], {})[record["variant"]] = record
    return apps


def check_build_records(records: list[dict],
                        safe: dict[str, bool]) -> list[str]:
    """Properties of one sweep: check counts and the unsafe size ordering.

    ``safe`` maps each variant name to whether CCured instruments it.
    """
    problems = []
    for record in records:
        label = f"{record['app']} x {record['variant']}"
        inserted = record["checks_inserted"]
        surviving = record["checks_surviving"]
        if not 0 <= surviving <= inserted:
            problems.append(f"{label}: {surviving} checks surviving of "
                            f"{inserted} inserted")
        if not safe[record["variant"]] and inserted != 0:
            problems.append(f"{label}: unsafe variant inserted {inserted} "
                            f"checks")
    for app, variants in _by_app(records).items():
        safe_records = {name: record for name, record in variants.items()
                        if safe[name]}
        inserted = {record["checks_inserted"]
                    for record in safe_records.values()}
        if len(inserted) > 1:
            problems.append(f"{app}: safe variants inserted different check "
                            f"counts {sorted(inserted)}")
        best = safe_records.get(SAFE_OPTIMIZED)
        if best is not None:
            for name, record in safe_records.items():
                if best["checks_surviving"] > record["checks_surviving"]:
                    problems.append(
                        f"{app}: {SAFE_OPTIMIZED} keeps "
                        f"{best['checks_surviving']} checks, {name} only "
                        f"{record['checks_surviving']}")
        base = variants.get(UNSAFE_REFERENCE)
        lean = variants.get(UNSAFE_OPTIMIZED)
        if base is not None and lean is not None and \
                not lean["code_bytes"] < base["code_bytes"]:
            problems.append(f"{app}: {UNSAFE_OPTIMIZED} is {lean['code_bytes']}"
                            f" bytes, not below {UNSAFE_REFERENCE}'s "
                            f"{base['code_bytes']}")
    return problems


def check_same_outcomes(first: list[dict], second: list[dict],
                        what: str) -> list[str]:
    """Two independent computations of the same specs agree on outcomes."""
    if len(first) != len(second):
        return [f"{what}: {len(first)} records against {len(second)}"]
    problems = []
    for one, other in zip(first, second):
        if outcome(one) != outcome(other):
            differing = sorted(name for name, value in outcome(one).items()
                               if outcome(other).get(name) != value)
            problems.append(f"{what}: {one.get('app')} x {one.get('variant')} "
                            f"differs in {differing}")
    return problems


def check_engines_agree(compiled: dict, tree: dict, label: str) -> list[str]:
    """The compiled engine and the tree-walking interpreter agree.

    A fingerprint holds per-node ``[statements, busy cycles, LED changes,
    failures, halted]`` rows and the delivery log.
    """
    problems = []
    if compiled["nodes"] != tree["nodes"]:
        problems.append(f"{label}: per-node [statements, busy cycles, LED "
                        f"changes, failures, halted] compiled "
                        f"{compiled['nodes']} vs tree {tree['nodes']}")
    if compiled["deliveries"] != tree["deliveries"]:
        problems.append(f"{label}: delivery logs differ "
                        f"({len(compiled['deliveries'])} vs "
                        f"{len(tree['deliveries'])} entries)")
    return problems


def check_sim_record(record: dict) -> list[str]:
    """No node failed or halted, and every duty cycle lies in (0, 1)."""
    label = f"{record['app']} x {record['variant']} " \
            f"({record['node_count']} node(s))"
    problems = []
    if record["failures"]:
        problems.append(f"{label}: {record['failures']} safety failures")
    if record["halted"]:
        problems.append(f"{label}: a node halted")
    if len(record["duty_cycles"]) != record["node_count"]:
        problems.append(f"{label}: {len(record['duty_cycles'])} duty cycles")
    for index, duty in enumerate(record["duty_cycles"]):
        if not 0.0 < duty < 1.0:
            problems.append(f"{label}: node {index} duty cycle {duty}")
    return problems


def check_packet_budget(record: dict, neighbours: list[int]) -> list[str]:
    """Delivered plus lost never exceeds sends times each sender's fan-out.

    ``neighbours[i]`` is the neighbour count of the node at position ``i``.
    """
    budget = sum(sent * fanout
                 for sent, fanout in zip(record["packets_sent"], neighbours))
    handled = record["packets_delivered"] + record["packets_lost"]
    if handled > budget:
        return [f"{record['app']} x {record['variant']}: {handled} packets "
                f"delivered or lost, but only {budget} could be"]
    return []


def check_reply_key(requested: str, reply: dict) -> list[str]:
    """A reply answers the spec that was requested."""
    if reply.get("content_key") != requested:
        return [f"reply for {requested} carries content key "
                f"{reply.get('content_key')!r}"]
    return []


def check_store_counters(stats: dict, first_touches: int,
                         novel: int, session: int) -> list[str]:
    """The store read each stored spec once per session and missed each
    novel one once."""
    problems = []
    if stats.get("record_hits") != first_touches:
        problems.append(f"session {session}: {stats.get('record_hits')} "
                        f"store hits, stream first-touched {first_touches}")
    if stats.get("record_misses") != novel:
        problems.append(f"session {session}: {stats.get('record_misses')} "
                        f"store misses, stream had {novel} novel specs")
    return problems
