"""Acceptance suite: one test per criterion, one pass/fail line each.

All equalities are exact (rational or Laurent-polynomial identity); there
are no tolerances anywhere.  The heavy criteria enumerate rank-4 lattice
sums; the reduction identity takes about 7 s.
"""

import json
import time

import pytest

from fflab.suites import SUITES, run_suite


def _check(name, records):
    bad = [r for r in records if not r["ok"]]
    line = f"[{'PASS' if not bad else 'FAIL'}] {name}: " \
           f"{len(records) - len(bad)}/{len(records)} identities"
    print(line, flush=True)
    assert not bad, f"{name}: failing records: {[r['id'] for r in bad]}"
    return records


def test_criterion_01_satake_closed_forms():
    t0 = time.time()
    records = run_suite("satake-closed")
    _check("criterion-1 satake closed forms", records)
    assert time.time() - t0 < 60, "criterion 1 must finish within a minute"


def test_criterion_02_satake_homomorphism():
    _check("criterion-2 satake homomorphism", run_suite("satake-hom"))


def test_criterion_03_partial_satake():
    _check("criterion-3 partial satake", run_suite("satake-partial"))


def test_criterion_04_symmetric_identities():
    _check("criterion-4 symmetric identities", run_suite("sym-identities"))


def test_criterion_05_transfer_law():
    records = run_suite("transfer-law")
    assert len([r for r in records if r["id"].startswith("omega-law")]) >= 10
    assert len([r for r in records if r["id"].startswith("twist")]) >= 10
    _check("criterion-5 transfer factor law and twist invariance", records)


def test_criterion_06_reduction_formula():
    t0 = time.time()
    records = run_suite("thm212")
    _check("criterion-6 reduction formula (both lines, both configurations)",
           records)
    assert time.time() - t0 < 1200


def test_criterion_07_degree_formulas():
    records = run_suite("degree-formulas")
    assert len({r["id"].split("/")[0] + r["id"].split("-")[1]
                for r in records}) >= 10 or len(records) >= 60
    _check("criterion-7 degree formulas", records)


def test_criterion_08_fiber_counts():
    _check("criterion-8 fiber counts", run_suite("fiber-counts"))


def test_criterion_09_fl_n1():
    t0 = time.time()
    records = run_suite("fl-n1", seeds=20)
    assert len(records) == 80  # 20 seeds x 4 Hecke functions
    _check("criterion-9 fundamental lemma at n=1", records)
    assert time.time() - t0 < 900, "criterion 9 must finish within 15 minutes"


def test_criterion_10_vanishing_and_sign():
    _check("criterion-10 vanishing and sign", run_suite("vanishing-sign"))


def _strip(records):
    return json.dumps(
        [{k: v for k, v in r.items() if k != "precision"} for r in records],
        sort_keys=True, default=str)


def test_criterion_11_determinism_and_precision():
    ok = True
    details = []
    for name in SUITES:
        kwargs = {"seeds": 6} if name == "fl-n1" else {}
        base = run_suite(name, precision=40, **kwargs)
        high = run_suite(name, precision=48, **kwargs)
        same = _strip(base) == _strip(high)
        details.append((name, same))
        ok = ok and same
    # thread-count variation on the suite that supports a worker pool
    from fflab.suites import suite_fl_n1
    single = suite_fl_n1(precision=40, seeds=6, workers=1)
    pooled = suite_fl_n1(precision=40, seeds=6, workers=3)
    threads_same = _strip(single) == _strip(pooled)
    ok = ok and threads_same
    line = f"[{'PASS' if ok else 'FAIL'}] criterion-11 determinism and precision stability"
    print(line, flush=True)
    assert all(s for _, s in details), f"precision drift in: {[n for n, s in details if not s]}"
    assert threads_same, "thread-count variation changed the report"
