"""The benchmark's workloads, built on fflab's public API.

A workload has a ``setup(seed)`` that builds what its pass needs (fields,
residue tables, quadratic algebras) and a ``cells(state)`` that lists the
pass as independent calls.  Each cell returns JSON-ready records with an
``ok`` flag, in the format of ``fflab.suites``.

Functions are looked up on their module at call time (``suites.suite_thm212``,
not a name bound at import), so the traced run sees the wrapped versions.
"""

import random

PRECISION = 40

# matching-n1: residue field sizes and the pair-seed pool per q.  The pool
# holds the pair seeds 0..11, measured at 0.2-0.9 s per cell with no outlier,
# and the reference holds a digest for every record of it.  Per q the pool is
# split into six couples of pair seeds whose cells cost about the same (cost
# order measured at the commit that added the benchmark); the benchmark seed
# picks one seed of each couple, so it changes the pairs but hardly the amount
# of work (seed-to-seed spread of a pass about 2 % instead of 5 %).
MATCHING_QS = (2, 3, 5, 9)
PAIR_POOL = 12
PAIR_COUPLES = {
    2: ((5, 7), (8, 2), (6, 0), (9, 1), (10, 3), (4, 11)),
    3: ((11, 3), (0, 9), (7, 6), (8, 4), (2, 5), (1, 10)),
    5: ((2, 7), (5, 1), (6, 11), (3, 4), (8, 9), (0, 10)),
    9: ((11, 2), (5, 6), (7, 4), (1, 8), (10, 9), (3, 0)),
}

ALGEBRA_SUITES = ("satake-closed", "satake-hom", "satake-partial",
                  "sym-identities", "degree-formulas", "fiber-counts")

WHY = {
    "thm212-m1": (
        "Levi-reduction identity on the rank-4 direct sum, m=(1,), both configs "
        "and both sides; the profiled hotspot (smith_exponents_rectangular 72%); "
        "pairs fixed: seeded rank-4 cells ranged 2.3-149 s"),
    "matching-n1": (
        "alpha(0)=beta on seeded n=1 pairs at q in {2,3,5,9}, four Hecke "
        "functions; many small traversals where pair, centralizer and "
        "OrbitalProblem rebuilds take a real share"),
    "algebra": (
        "the six suites that never call orbital: elimination through "
        "row_echelon, linear_solve, smith_exponents and snf_full, plus "
        "brute-force satake_direct; traversal changes should not move it"),
}


def _fields(qs):
    from fflab import SPLIT, UNRAMIFIED, LocalField, build_quadratic
    out = {}
    for q in qs:
        field = LocalField(q, PRECISION)
        out[q] = (field, build_quadratic(SPLIT, field),
                  build_quadratic(UNRAMIFIED, field))
    return out


# -- thm212-m1 ------------------------------------------------------------------


def _thm212_setup(seed):
    from fflab import RAMIFIED, build_quadratic
    field = _fields((3,))[3][0]
    build_quadratic(RAMIFIED, field)
    return None


def _thm212_cells(state):
    from fflab import suites
    return [("thm212", lambda: suites.suite_thm212(precision=PRECISION,
                                                   ms=((1,),)))]


# -- matching-n1 ----------------------------------------------------------------


def pair_seeds(seed):
    """Pair seeds per q chosen by the benchmark seed, in ascending order."""
    rng = random.Random(seed)
    return {q: sorted(rng.choice(couple) for couple in PAIR_COUPLES[q])
            for q in MATCHING_QS}


def _matching_setup(seed, seeds=None):
    return {"fields": _fields(MATCHING_QS),
            "seeds": seeds if seeds is not None else pair_seeds(seed)}


def _matching_cell(field, E0, E1, fs, q, ps):
    import fflab
    pair, inv, tries = fflab.random_pair(E1, E1, 1, seed=ps)
    alpha, _ = fflab.match_alpha(inv.delta, E0, inv.target)
    out = []
    for name, f in fs:
        ob, wb = fflab.orbital_beta(pair, f)
        oa, wa = fflab.orbital_alpha(alpha, f)
        out.append({"id": f"n1/q{q}/s{ps:02d}/{name}",
                    "ok": fflab.value_at_zero(oa) == ob,
                    "beta": str(ob), "alpha": oa.to_json(),
                    "windows": [wb, wa], "tries": tries})
    return out


def _matching_cells(state):
    import fflab
    fs = {}

    def hecke_functions(q, field):
        fs[q] = [("unit", fflab.unit(2)), ("T1", fflab.t_m(2, 1)),
                 ("T2", fflab.t_m(2, 2)),
                 ("T1*T1", fflab.f_of_m(2, (1, 1), field))]
        return []

    cells = []
    for q, ps_list in state["seeds"].items():
        field, E0, E1 = state["fields"][q]
        cells.append((f"hecke/q{q}", lambda q=q, field=field:
                      hecke_functions(q, field)))
        cells += [(f"n1/q{q}/s{ps:02d}",
                   lambda q=q, ps=ps, field=field, E0=E0, E1=E1:
                   _matching_cell(field, E0, E1, fs[q], q, ps))
                  for ps in ps_list]
    return cells


# -- algebra --------------------------------------------------------------------


def _algebra_setup(seed):
    from fflab import RAMIFIED, build_quadratic
    fields = _fields((2, 3))
    build_quadratic(RAMIFIED, fields[3][0])
    order = list(ALGEBRA_SUITES)
    random.Random(seed).shuffle(order)
    return order


def _algebra_cells(order):
    from fflab import suites
    return [(name, lambda fn="suite_" + name.replace("-", "_"):
             getattr(suites, fn)(precision=PRECISION))
            for name in order]


WORKLOADS = {
    "thm212-m1": (_thm212_setup, _thm212_cells),
    "matching-n1": (_matching_setup, _matching_cells),
    "algebra": (_algebra_setup, _algebra_cells),
}

# the seed whose whole-workload digest is stored in the reference
DEFAULT_SEED = 0
