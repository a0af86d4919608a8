"""One-off checks of the harness itself, per workload, at the default seed.

    python3 perfbench/check.py [--workload NAME]

- hash seed: passes under PYTHONHASHSEED 0 and 1 give the reference digest;
- cProfile: in one traced pass under cProfile, every wrapped function's
  call count equals cProfile's count of the original function;
- determinism: two traced passes give identical call counts, equal to the
  counts of the profiled pass.

Exits 1 if any check fails.
"""

import argparse
import json
import sys
import time

from run import HERE, WORKLOAD_NAMES, spawn
from workloads import DEFAULT_SEED


def check(name, ref):
    deadline = time.monotonic() + 1800
    problems = []
    digests = {h: spawn(name, DEFAULT_SEED, "pass", deadline, hash_seed=h)["digest"]
               for h in ("0", "1")}
    if set(digests.values()) != {ref["digest"]}:
        problems.append(f"digests by hash seed {digests} != reference {ref['digest']}")
    print(f"{name}: hash seeds 0 and 1 give digest {digests['0'][:16]}...")

    prof = spawn(name, DEFAULT_SEED, "profile", deadline)
    pc = prof["profile_check"]
    print(f"{name}: cProfile cross-check compared {pc['compared']} wrapped functions, "
          f"{sum(prof['calls'].values())} calls, {len(pc['mismatches'])} mismatches; "
          f"generator functions not compared: {', '.join(pc['generators_skipped'])}")
    problems += [f"cProfile count differs: {m}" for m in pc["mismatches"]]

    traced = [spawn(name, DEFAULT_SEED, "trace", deadline)["calls"] for _ in range(2)]
    same = traced[0] == traced[1] == prof["calls"]
    print(f"{name}: two traced passes and the profiled pass give "
          f"{'identical' if same else 'DIFFERENT'} call counts")
    if not same:
        problems.append("call counts differ between traced and profiled passes")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    args = ap.parse_args()
    reference = json.loads((HERE / "reference.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    problems = [p for name in names for p in check(name, reference[name])]
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
