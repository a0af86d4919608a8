"""Batch front-end: configuration, seeded scenario runs, verification suites.

Subcommands: invariant | orbital | satake | verify.  Every run is
deterministic given (config, seed).  verify reruns its suite at precision
N+8 and once more as a single job on a 2-worker thread pool, and reports
whether each rerun's payload is byte-identical to the first run's; the
thread-stability record thus compares two serial runs of the suite in
one process, on different threads.
Reports are JSON lines plus a CSV summary; exit codes: 0 pass, 1 assertion
failure, 2 configuration error.
"""

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError, FFLabError
from .etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic
from .hecke import f_of_m, pi_twist, s_k, satake_direct, t_m, unit
from .localfield import DEFAULT_PRECISION, LocalField
from .orbital import orbital_alpha, orbital_beta, value_at_zero
from .pairs import match_alpha, random_pair
from .suites import SUITES, run_suite

_KINDS = {"split": SPLIT, "unramified": UNRAMIFIED, "ramified": RAMIFIED}


def _load_config(path, overrides, command):
    cfg = {
        "q": 3,
        "precision": DEFAULT_PRECISION,
        "n": 1,
        "e1": "unramified",
        "e2": "unramified",
        "hecke": "unit",
        "window": 8,
        "seed": 0,
        "suite": None,
    }
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        cfg.update(data)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("q", "n", "precision", "window", "seed"):
        if type(cfg[key]) is not int:
            raise ConfigError(f"{key} must be an integer")
    for key in ("e1", "e2", "hecke"):
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a string")
    if cfg["suite"] is not None and not isinstance(cfg["suite"], str):
        raise ConfigError("suite must be a string")
    if cfg["q"] not in (2, 3, 4, 5, 7, 8, 9):
        raise ConfigError("q must be a prime power <= 9")
    if not (1 <= cfg["n"] <= 3):
        raise ConfigError("n must be between 1 and 3")
    if cfg["precision"] < 1:
        raise ConfigError("precision must be positive")
    for key in ("e1", "e2"):
        if cfg[key] not in _KINDS:
            raise ConfigError(f"{key} must be one of {sorted(_KINDS)}")
    # the support table: (whether the combination is unsupported, the
    # commands that cannot run it or None for all, the config error)
    q_even, e1, e2 = cfg["q"] % 2 == 0, cfg["e1"], cfg["e2"]
    for unsupported, commands, message in (
            (e2 == "split" and e1 != "split", None,
             "e2 may be split only when e1 is split"),
            (e1 == e2 == "ramified", None, "e1 and e2 may not both be ramified"),
            # alpha(0) = beta is the matching identity for a non-split first
            # algebra only; a split one gives alpha(0) = 0 on every pair tried
            (e1 == "split", ("orbital",),
             "orbital needs a non-split e1 (unramified or ramified)"),
            # build_quadratic has a ramified model for odd q only
            (q_even and "ramified" in (e1, e2), ("invariant", "orbital"),
             "a ramified algebra needs odd q"),
            # this invariant takes a square root over an unramified
            # extension, which characteristic 2 lacks
            (q_even and (e1, e2) == ("split", "unramified"), ("invariant",),
             "the invariant of a split and an unramified algebra needs odd q")):
        if unsupported and (commands is None or command in commands):
            raise ConfigError(message)
    return cfg


def _parse_hecke(spec, rank, field):
    """Parse 'unit' | 'S_k' | 'T_m' | 'f(m1,m2,...)' | 'pi^k*...'."""
    spec = spec.strip()

    def integer(text):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"cannot parse Hecke function spec {spec!r}") from None

    if "*" in spec and spec.startswith("pi^"):
        head, rest = spec.split("*", 1)
        return pi_twist(_parse_hecke(rest, rank, field), integer(head[3:]))
    if spec == "unit":
        return unit(rank)
    if spec.startswith("S_"):
        k = integer(spec[2:])
        if abs(k) > rank:
            raise ConfigError(f"S_k needs |k| <= {rank}, got {spec!r}")
        return s_k(rank, k)
    if spec.startswith("T_"):
        return t_m(rank, integer(spec[2:]))
    if spec.startswith("f(") and spec.endswith(")"):
        m = tuple(integer(x) for x in spec[2:-1].split(",") if x.strip())
        return f_of_m(rank, m, field)
    raise ConfigError(f"cannot parse Hecke function spec {spec!r}")


def _emit(records, out_path):
    lines = [json.dumps(r, sort_keys=True, default=str) for r in records]
    payload = "\n".join(lines) + "\n"
    summary = io.StringIO()
    w = csv.writer(summary)
    w.writerow(["id", "ok"])
    for r in records:
        w.writerow([r.get("id", "?"), r.get("ok", "")])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
        with open(out_path + ".csv", "w") as fh:
            fh.write(summary.getvalue())
    else:
        sys.stdout.write(payload)
        sys.stdout.write(summary.getvalue())


def cmd_invariant(cfg):
    field = LocalField(cfg["q"], cfg["precision"])
    e1 = build_quadratic(_KINDS[cfg["e1"]], field)
    e2 = build_quadratic(_KINDS[cfg["e2"]], field)
    pair, inv, tries = random_pair(e1, e2, cfg["n"], seed=cfg["seed"])
    rec = {
        "id": f"invariant/seed{cfg['seed']}",
        "ok": True,
        "delta": inv.delta.to_json(),
        "regular_semisimple": inv.rs_flag,
        "target_kind": inv.target.kind,
        "retries": tries,
        "precision": cfg["precision"],
    }
    return [rec]


def cmd_orbital(cfg):
    field = LocalField(cfg["q"], cfg["precision"])
    e1 = build_quadratic(_KINDS[cfg["e1"]], field)
    e2 = build_quadratic(_KINDS[cfg["e2"]], field)
    n = cfg["n"]
    f = _parse_hecke(cfg["hecke"], 2 * n, field)
    pair, inv, _ = random_pair(e1, e2, n, seed=cfg["seed"])
    slack = max(1, cfg["window"] // 4)
    ob, wb = orbital_beta(pair, f, slack=slack)
    e0 = build_quadratic(SPLIT, field)
    alpha, _ = match_alpha(inv.delta, e0, inv.target)
    oa, wa = orbital_alpha(alpha, f, slack=slack)
    alpha_at_zero = value_at_zero(oa)
    rec = {
        "id": f"orbital/seed{cfg['seed']}/{cfg['hecke']}",
        "ok": alpha_at_zero == ob,
        "beta": str(ob),
        "alpha": oa.to_json(),
        "alpha_at_zero": str(alpha_at_zero),
        "windows": [wb, wa],
        "precision": cfg["precision"],
    }
    return [rec]


def cmd_satake(cfg):
    field = LocalField(cfg["q"], cfg["precision"])
    n = cfg["n"]
    f = _parse_hecke(cfg["hecke"], n, field)
    image = satake_direct(f, (1,) * n, field)
    rec = {
        "id": f"satake/{cfg['hecke']}/n{n}",
        "ok": True,
        "image": image.to_json(),
        "precision": cfg["precision"],
    }
    return [rec]


def _run_suite_records(name, precision):
    return sorted(run_suite(name, precision=precision), key=lambda r: r["id"])


def _strip_precision(records):
    return [{k: v for k, v in r.items() if k != "precision"} for r in records]


def cmd_verify(cfg):
    name = cfg["suite"]
    if name is None:
        raise ConfigError("verify requires --suite")
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    precision = cfg["precision"]
    records = _run_suite_records(name, precision)
    # precision-stability rerun
    again = _run_suite_records(name, precision + 8)
    stable = _strip_precision(records) == _strip_precision(again)
    with ThreadPoolExecutor(max_workers=2) as pool:
        alt = pool.submit(_run_suite_records, name, precision).result()
    thread_stable = _strip_precision(records) == _strip_precision(alt)
    records.append({
        "id": f"{name}/precision-stability",
        "ok": bool(stable),
        "precisions": [precision, precision + 8],
    })
    records.append({
        "id": f"{name}/thread-stability",
        "ok": bool(thread_stable),
    })
    return records


_COMMANDS = {"invariant": cmd_invariant, "orbital": cmd_orbital,
             "satake": cmd_satake, "verify": cmd_verify}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fflab",
        description="Exact lattice-counting workbench over F_q((pi))")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--suite", default=None)
    parser.add_argument("--hecke", default=None)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--e1", default=None)
    parser.add_argument("--e2", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k) for k in
                 ("seed", "precision", "window", "suite", "hecke",
                  "q", "n", "e1", "e2")}
    try:
        cfg = _load_config(args.config, overrides, args.command)
        records = _COMMANDS[args.command](cfg)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except FFLabError as e:
        sys.stderr.write(f"run failed: {type(e).__name__}: {e}\n")
        return 1
    _emit(records, args.out)
    return 0 if all(r.get("ok", False) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
