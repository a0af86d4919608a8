"""Write reference.json: a SHA-256 of every record the benchmark can produce.

Run once from the repository root, at the commit whose records are the
reference (records must never change afterwards):

    python3 perfbench/make_reference.py

Each workload runs at its default seed in a fresh interpreter; its whole
digest is stored with one digest per record.  matching-n1 also runs every
pair of its pool in one process, so a record of any seed has a digest, and
the default-seed records computed alone must equal the pool's.
"""

import json
import sys
import time

from run import HERE, WORKLOAD_NAMES, _commit, _src_sha256, spawn
from workloads import DEFAULT_SEED


def _records(result, label):
    bad = [rid for rid, ok, _ in result["records"] if not ok] + result["raised"]
    if bad:
        sys.exit(f"{label}: failing records, no reference written: {bad}")
    return {rid: digest for rid, _, digest in result["records"]}


def main():
    deadline = time.monotonic() + 3600
    ref = {"_source": {"commit": _commit(), "src_sha256": _src_sha256()}}
    for name in WORKLOAD_NAMES:
        default = spawn(name, DEFAULT_SEED, "pass", deadline)
        records = _records(default, name)
        if name == "matching-n1":
            pool = _records(spawn(name, DEFAULT_SEED, "pass", deadline,
                                  extra=("--all-pairs",)), name + " pool")
            differ = [rid for rid, d in records.items() if pool.get(rid) != d]
            if differ:
                sys.exit(f"records depend on the other pairs in the pass: {differ}")
            records = pool
        ref[name] = {"default_seed": DEFAULT_SEED, "digest": default["digest"],
                     "records": records}
        print(f"{name}: {len(records)} records, {default['wall_s']:.2f} s")
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
