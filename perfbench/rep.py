"""One benchmark repetition, run by run.py in a fresh interpreter.

Sets up the workload, runs one pass of it and prints one JSON line: set-up
time, pass wall and CPU time, peak RSS and a SHA-256 of every record's
canonical JSON.  Modes: ``setup`` stops after set-up, ``pass`` runs the pass
untraced, ``trace`` runs it under the tracer, ``profile`` under the tracer
and cProfile (for the call-count cross-check), ``kernels`` times the kernels
on fixed inputs instead.  Untraced passes and every set-up also report the
host speed they ran at (see probe.py); pass times exclude the probes.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETUP_PROBES = 9


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh_state_error():
    """Module-level caches that must not carry over from another pass."""
    from fflab import factor, finitefield, pairs
    stale = []
    if finitefield.gf.cache_info().currsize:
        stale.append("finitefield.gf")
    if factor._monic_irreducibles.cache_info().currsize:
        stale.append("factor._monic_irreducibles")
    if pairs._NORMALIZATIONS:
        stale.append("pairs._NORMALIZATIONS")
    return stale


def _profile_counts(prof, tracer):
    """Wrapped call counts against cProfile's counts of the original functions.

    cProfile counts every resumption of a generator as a call, so generator
    functions are listed apart and not compared.
    """
    import inspect
    import pstats
    stats = pstats.Stats(prof).stats
    by_code = {(k[0], k[1], k[2]): v[1] for k, v in stats.items()}
    compared, mismatches, generators = 0, [], []
    for name, fn in tracer.originals.items():
        if inspect.isgeneratorfunction(fn):
            generators.append(name)
            continue
        code = fn.__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        compared += 1
        if profiled != tracer.calls[name]:
            mismatches.append([name, tracer.calls[name], profiled])
    return {"compared": compared, "mismatches": mismatches,
            "generators_skipped": sorted(generators)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "pass", "trace", "profile", "kernels"))
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--all-pairs", action="store_true",
                    help="matching-n1 over the whole pair pool (reference only)")
    args = ap.parse_args()

    import fflab
    src = (ROOT / "src").resolve()
    if src not in Path(fflab.__file__).resolve().parents:
        sys.exit(f"fflab imported from {fflab.__file__}, not from {src}")
    stale = _fresh_state_error()
    from workloads import MATCHING_QS, PAIR_POOL, WORKLOADS

    if args.mode == "kernels":
        from tracer import kernel_timings
        print(json.dumps({"kernels": kernel_timings()}))
        return

    setup, make_cells = WORKLOADS[args.workload]
    if args.all_pairs:
        state = setup(args.seed, seeds={q: list(range(PAIR_POOL)) for q in MATCHING_QS})
    else:
        state = setup(args.seed)
    setup_s = time.monotonic() - args.spawned
    from probe import Probes, chase_mb, probe
    out = {"setup_s": setup_s, "stale": stale,
           "setup_probe_s": statistics.median(probe() for _ in range(SETUP_PROBES))}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    tracer = prof = None
    if args.mode in ("trace", "profile"):
        from tracer import Tracer
        tracer = Tracer()
        out["trace_missing"] = tracer.install()
    if args.mode == "profile":
        import cProfile
        prof = cProfile.Profile()

    cells = make_cells(state)
    records, raised = [], []
    probes = Probes()
    cpu0, t0 = time.process_time(), time.perf_counter()
    if prof:
        prof.enable()
    with probes if args.mode == "pass" else contextlib.nullcontext():
        for cell_id, run_cell in cells:
            try:
                records.extend(run_cell())
            except Exception as exc:  # counted as a failure by the parent
                raised.append(f"{cell_id}: {type(exc).__name__}: {exc}")
    if prof:
        prof.disable()
    probed = sum(probes.samples)
    out["wall_s"] = time.perf_counter() - t0 - probed
    out["cpu_s"] = time.process_time() - cpu0 - probed
    if probes.samples:
        out["probe_s"] = statistics.median(probes.samples)
        out["probes"] = len(probes.samples)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                          - chase_mb())

    records.sort(key=lambda r: r["id"])
    out["records"] = [[r["id"], bool(r["ok"]), sha256(canonical(r))] for r in records]
    out["digest"] = sha256(canonical(records))
    out["raised"] = raised
    if tracer:
        out["layers"] = tracer.metrics()
        out["calls"] = dict(tracer.calls)
    if prof:
        out["profile_check"] = _profile_counts(prof, tracer)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
