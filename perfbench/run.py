"""fflab benchmark: time to a verified suite, with every record checked.

Run from the repository root:

    python3 perfbench/run.py --workload thm212-m1 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

Each repetition is a fresh interpreter (rep.py) with PYTHONHASHSEED fixed,
so no module-level cache carries from one pass or workload into the next.
The run is a closed loop with one client: passes follow each other until
--seconds have passed, then set-up-only repetitions bring the set-up sample
count to SETUP_SAMPLES.  Every record of every pass is compared with the
SHA-256 digests in reference.json, taken by make_reference.py at the commit
that added the benchmark; a wrong, failed or missing record fails the run.

Times are scaled to a reference host speed: each untraced pass and each
set-up times a fixed mix of pure-Python work (probe.py), and a time is
multiplied by REF_PROBE_S over the median probe time measured with it.  The
shared host's speed drifts by a third within minutes, which raw wall times
carry and scaled times cancel; both are printed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: call counts and self times
from the traced pass, the kernel timings on fixed inputs, process CPU time
and the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WHY, pair_seeds  # noqa: E402

WORKLOAD_NAMES = tuple(WHY)
HASH_SEED = "0"
SETUP_SAMPLES = 15
REF_PROBE_S = 0.005  # a probe's time on the reference host
RUN_LIMIT_S = 175


class RunError(Exception):
    """A repetition crashed or overran: the run ends without a result."""


def spawn(workload, seed, mode, deadline, hash_seed=HASH_SEED, extra=()):
    """Run one repetition in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports cached byte code
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} {mode} repetition overran the run's time limit")
    if proc.returncode != 0:
        raise RunError(f"{workload} {mode} repetition exited {proc.returncode}:\n"
                       + proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def measure(workload, seed, seconds, trace, deadline):
    """Repetitions of one run: passes (and traced passes), set-ups, kernels."""
    spawn(workload, seed, "setup", deadline)  # warm the byte-code and file caches
    modes = ("pass", "trace") if trace else ("pass",)
    runs = {mode: [] for mode in modes}
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            runs[mode].append(spawn(workload, seed, mode, deadline))
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            break
    setups = [r for rs in runs.values() for r in rs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline))
    kernels = spawn(workload, seed, "kernels", deadline)["kernels"] if trace else None
    return runs, setups, kernels


def expected_ids(workload, seed, ref):
    ids = sorted(ref["records"])
    if workload != "matching-n1":
        return ids
    prefixes = tuple(f"n1/q{q}/s{ps:02d}/"
                     for q, seeds in pair_seeds(seed).items() for ps in seeds)
    return [i for i in ids if i.startswith(prefixes)]


def check_records(workload, seed, passes, ref):
    """Count attempted, failed and mismatched records against the reference."""
    want = expected_ids(workload, seed, ref)
    whole = ref["digest"] if seed == DEFAULT_SEED or workload != "matching-n1" else None
    tally = {"attempted": 0, "failed": 0, "not_ok": 0, "raised": 0, "mismatched": 0}
    problems = []
    for r in passes:
        problems += [f"module state not fresh: {s}" for s in r["stale"]]
        problems += [f"raised: {msg}" for msg in r["raised"]]
        tally["raised"] += len(r["raised"])
        tally["attempted"] += len(r["records"]) + len(r["raised"])
        tally["failed"] += len(r["raised"])
        for rid, ok, digest in r["records"]:
            wrong = ref["records"].get(rid) != digest
            tally["not_ok"] += not ok
            tally["mismatched"] += wrong
            tally["failed"] += (not ok) or wrong
            if not ok or wrong:
                problems.append(f"record {rid}: ok={ok} matches_reference={not wrong}")
        if not r["raised"]:
            if [rec[0] for rec in r["records"]] != want:
                problems.append("record ids differ from the expected set")
            elif whole and r["digest"] != whole:
                problems.append("workload digest differs from the reference")
    return tally, problems


def scaled(time_s, probe_s):
    """A time measured alongside a probe time, at the reference host speed."""
    return time_s * REF_PROBE_S / probe_s


def end_to_end(runs, setups, tally):
    passes = runs["pass"]
    return {
        "wall_s": (statistics.median([scaled(p["wall_s"], p["probe_s"])
                                      for p in passes]), "s"),
        "setup_s": (statistics.median([scaled(r["setup_s"], r["setup_probe_s"])
                                       for r in setups]), "s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
        "ok_frac": (1 - (tally["not_ok"] + tally["raised"]) / tally["attempted"], "ratio"),
        "match_frac": (1 - tally["mismatched"] / tally["attempted"], "ratio"),
    }


UNITS = {"calls": "count", "tries": "count", "self_s": "s", "prune_ratio": "ratio",
         "max": "count"}


def per_layer(runs, kernels, problems):
    traced, plain = runs["trace"], runs["pass"]
    layers = [t["layers"] for t in traced]
    out = {}
    for name in layers[0]:
        values = [l[name] for l in layers]
        if not name.endswith("self_s") and len(set(values)) > 1:
            problems.append(f"traced count {name} differs between passes: {values}")
        out[name] = (statistics.median(values), UNITS[name.rsplit(".", 1)[1]])
    for name, us in kernels.items():
        out[name] = (us, "us")
    plain_wall = statistics.median([p["wall_s"] for p in plain])
    traced_wall = statistics.median([t["wall_s"] for t in traced])
    out["process.cpu_s"] = (statistics.median([p["cpu_s"] for p in plain]), "s")
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    return out


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fflab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(workload, seed, load):
    meta = {"workload": workload, "seed": seed, "why": WHY[workload],
            "commit": _commit(), "src_sha256": _src_sha256(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": load, "pythonhashseed": HASH_SEED}
    if workload == "matching-n1":
        meta["pair_seeds"] = pair_seeds(seed)
    return meta


def run_workload(workload, seed, seconds, trace, ref):
    """One run; prints its report and returns (correct, tally, metrics)."""
    load = list(os.getloadavg())
    deadline = time.monotonic() + RUN_LIMIT_S
    runs, setups, kernels = measure(workload, seed, seconds, trace, deadline)
    passes = [r for rs in runs.values() for r in rs]
    tally, problems = check_records(workload, seed, passes, ref)
    e2e = end_to_end(runs, setups, tally)
    metrics = per_layer(runs, kernels, problems) if trace else e2e
    print("meta " + json.dumps(metadata(workload, seed, load), sort_keys=True))
    n = len(runs["pass"])
    print(f"{workload}: {n} passes, {len(setups)} set-ups, "
          f"{tally['attempted']} records attempted")
    raw_wall = statistics.median([p["wall_s"] for p in runs["pass"]])
    raw_setup = statistics.median([r["setup_s"] for r in setups])
    host = statistics.median([p["probe_s"] for p in runs["pass"]]) / REF_PROBE_S
    print(f"  wall_s        {e2e['wall_s'][0]:.4f} s (median of {n}, scaled; "
          f"raw {raw_wall:.4f} s, host {host:.3f}x slower than reference)")
    print(f"  setup_s       {e2e['setup_s'][0]:.4f} s (median of {len(setups)}, "
          f"scaled; raw {raw_setup:.4f} s)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb'][0]:.1f} MB (median of {n})")
    print(f"  fail_frac     {1 - e2e['ok_frac'][0]:.4f} ratio "
          f"({tally['not_ok']} not ok, {tally['raised']} raised)")
    print(f"  mismatch_frac {1 - e2e['match_frac'][0]:.4f} ratio "
          f"({tally['mismatched']} differ from the reference)")
    if trace:
        missing = passes[-1].get("trace_missing")
        if missing:
            print("  trace: functions not found, counted as 0: " + ", ".join(missing))
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:.6g} {unit}")
    for p in problems:
        print("  FAIL " + p)
    return not problems, tally, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ref_path = HERE / "reference.json"
    if not (ROOT / "src" / "fflab" / "__init__.py").is_file() or not ref_path.is_file():
        sys.exit(f"perfbench: no fflab sources under {ROOT / 'src'} or no {ref_path.name}")
    reference = json.loads(ref_path.read_text())

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, tally, wm = run_workload(name, args.seed, args.seconds,
                                         args.trace, reference[name])
            correct &= ok
            attempted += tally["attempted"]
            failed += tally["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in wm.items()})
    except RunError as exc:
        sys.exit(f"perfbench: {exc}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
