"""Self-test of the benchmark: every check can fail, every workload runs.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/selftest.py

Part one feeds each check in ``checks.py`` one deliberately wrong output
(a record with more surviving checks than inserted, a tree-walker count
that diverges, a reply with the wrong content key, ...) and requires the
check to reject it, after requiring it to accept the right output.  Part
two runs each workload for two rounds at its minimal size (the checks
compare rounds) and requires its checks to pass with no failed operation.
Exits non-zero on the first surprise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

import checks

SAFE = {"baseline": False, "safe-flid": True, "safe-optimized": True,
        "unsafe-optimized": False}


def build(variant: str, inserted: int, surviving: int, code: int) -> dict:
    return {"kind": "build-record", "app": "App", "variant": variant,
            "content_key": f"key-{variant}", "code_bytes": code,
            "ram_bytes": 100, "checks_inserted": inserted,
            "checks_surviving": surviving, "passes": ["gcc", "image"],
            "wall_time_s": 0.1}


def sim(**changes) -> dict:
    record = {"kind": "sim-record", "app": "App", "variant": "baseline",
              "content_key": "key-sim", "node_count": 2, "seconds": 1.0,
              "topology": "chain", "duty_cycles": [0.01, 0.02],
              "packets_sent": [3, 1], "packets_received": [1, 3],
              "injected_radio": [0, 0], "injected_uart": [0, 0],
              "packets_delivered": 3, "packets_lost": 1, "failures": 0,
              "halted": False, "led_changes": 4,
              "superblocks": {"statements_total": 100}}
    record.update(changes)
    return record


def expect(name: str, problems: list[str], fail: bool) -> None:
    if bool(problems) != fail:
        raise SystemExit(f"selftest: {name}: expected "
                         f"{'a rejection' if fail else 'acceptance'}, got "
                         f"{problems or 'none'}")
    print(f"ok  {name}" + (f"  -> {problems[0]}" if problems else ""))


def test_checks() -> None:
    sweep = [build("baseline", 0, 0, 1000), build("safe-flid", 10, 8, 1400),
             build("safe-optimized", 10, 3, 1100),
             build("unsafe-optimized", 0, 0, 900)]
    expect("sweep properties hold", checks.check_build_records(sweep, SAFE),
           False)
    broken = copy.deepcopy(sweep)
    broken[1]["checks_surviving"] = 11
    expect("more checks surviving than inserted",
           checks.check_build_records(broken, SAFE), True)
    broken = copy.deepcopy(sweep)
    broken[0]["checks_inserted"] = broken[0]["checks_surviving"] = 2
    expect("unsafe baseline with checks",
           checks.check_build_records(broken, SAFE), True)
    broken = copy.deepcopy(sweep)
    broken[2]["checks_inserted"] = 12
    expect("safe variants inserting different counts",
           checks.check_build_records(broken, SAFE), True)
    broken = copy.deepcopy(sweep)
    broken[2]["checks_surviving"] = 9
    expect("safe-optimized keeping the most checks",
           checks.check_build_records(broken, SAFE), True)
    broken = copy.deepcopy(sweep)
    broken[3]["code_bytes"] = 1000
    expect("unsafe-optimized not smaller than baseline",
           checks.check_build_records(broken, SAFE), True)
    again = copy.deepcopy(sweep)
    again[0]["wall_time_s"] = 9.9
    expect("second session, different timing only",
           checks.check_same_outcomes(sweep, again, "sessions"), False)
    again[1]["code_bytes"] += 2
    expect("second session, different image",
           checks.check_same_outcomes(sweep, again, "sessions"), True)

    compiled = {"nodes": [[964, 10686, 0, 0, False]],
                "deliveries": [[0, 1, 10, 20, True]]}
    expect("engines agree", checks.check_engines_agree(
        compiled, copy.deepcopy(compiled), "App"), False)
    tree = copy.deepcopy(compiled)
    tree["nodes"][0][0] += 1
    expect("tree-walker statement count diverges",
           checks.check_engines_agree(compiled, tree, "App"), True)
    tree = copy.deepcopy(compiled)
    tree["deliveries"][0][3] += 1
    expect("delivery logs diverge",
           checks.check_engines_agree(compiled, tree, "App"), True)

    expect("healthy simulation", checks.check_sim_record(sim()), False)
    expect("node failure", checks.check_sim_record(sim(failures=1)), True)
    expect("halted node", checks.check_sim_record(sim(halted=True)), True)
    expect("duty cycle of 0", checks.check_sim_record(
        sim(duty_cycles=[0.0, 0.02])), True)
    expect("duty cycle of 1", checks.check_sim_record(
        sim(duty_cycles=[0.5, 1.0])), True)
    expect("packets within budget",
           checks.check_packet_budget(sim(), [1, 1]), False)
    expect("more packets handled than sent to neighbours",
           checks.check_packet_budget(sim(packets_delivered=4), [1, 1]), True)

    expect("reply answers its spec",
           checks.check_reply_key("key-sim", sim()), False)
    expect("reply with the wrong content key",
           checks.check_reply_key("key-other", sim()), True)
    telemetry_only = sim(superblocks={"statements_total": 7})
    expect("recomputation differs in telemetry only",
           checks.check_same_outcomes([sim()], [telemetry_only], "reply"),
           False)
    expect("recomputation differs in outcome",
           checks.check_same_outcomes([sim()], [sim(led_changes=5)], "reply"),
           True)
    expect("store counters match the stream", checks.check_store_counters(
        {"record_hits": 48, "record_misses": 2}, 48, 2, 0), False)
    expect("store served fewer hits than first touches",
           checks.check_store_counters(
               {"record_hits": 47, "record_misses": 2}, 48, 2, 0), True)
    expect("store missed more than the novel specs",
           checks.check_store_counters(
               {"record_hits": 48, "record_misses": 3}, 48, 2, 0), True)


def test_workloads() -> None:
    from workloads import WORKLOADS

    os.makedirs(".perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=".perfbench")
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(1, minimal=True, log=print, root=scratch)
            try:
                workload.prepare()
                rounds = [workload.round(0), workload.round(1)]
                problems = workload.check(rounds)
            finally:
                workload.close()
            failed = sum(1 for r in rounds for op in r.ops if not op.ok)
            ops = sum(len(r.ops) for r in rounds)
            if problems or failed or not ops or not workload.images():
                raise SystemExit(f"selftest: {name} at minimal size: "
                                 f"{failed} of {ops} failed, {problems}")
            print(f"ok  {name} at minimal size: {ops} operations")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    test_checks()
    test_workloads()
    print("selftest passed")
    sys.exit(0)
