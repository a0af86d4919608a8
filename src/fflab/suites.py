"""Verification suites: each returns a list of JSON-ready records.

One record per verified identity, with an ``ok`` flag; suites are pure
functions of (config, seed) and rerun at a higher precision must produce
identical payloads.  The acceptance tests and the CLI both drive these.
"""

import random
from fractions import Fraction

from .errors import PrecisionExhausted
from .etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic, compute_e3
from .hecke import (ULaurent, convolve, dimension_census, f_of_m,
                    partial_satake_closed, pi_twist, s_k, satake_direct, sym_b,
                    sym_e, t_m, unit, verify_69)
from .lattices import canonicalize, order_span, standard_lattice
from .linalg import Matrix, Poly, mat_det
from .localfield import LocalField
from .orbital import (TransferContext, functional_equation_probe,
                      orbital_alpha, orbital_beta, order_lower_bound_report,
                      transfer_factor, value_at_zero)
from .pairs import match_alpha, random_pair
from .reduction import (HomSystem, PhiMap, SplitScenario,
                        closed_composite_exponent, closed_pair_exponent,
                        closed_phi_exponent, fiber_count_exponent,
                        inclusion_degree, random_chain, verify_reduction)


def _record(rid, ok, **payload):
    rec = {"id": rid, "ok": bool(ok)}
    rec.update(payload)
    return rec


def suite_satake_closed(precision=40):
    """Closed forms of the transform on both generator families."""
    out = []
    for q in (2, 3):
        field = LocalField(q, precision)
        for n in (1, 2, 3):
            for k in range(n + 1):
                got = satake_direct(s_k(n, k), (1,) * n, field)
                want = sym_e(n, q, k).scale(
                    ULaurent.q_half_power(q, Fraction(k * (n - k), 2)))
                out.append(_record(f"satake-S/q{q}/n{n}/k{k}", got == want,
                                   lhs=got.to_json(), rhs=want.to_json()))
            for m in range(4):
                got = satake_direct(t_m(n, m), (1,) * n, field)
                want = sym_b(n, q, m).scale(
                    ULaurent.q_half_power(q, Fraction(m * (n - 1), 2)))
                out.append(_record(f"satake-T/q{q}/n{n}/m{m}", got == want,
                                   lhs=got.to_json(), rhs=want.to_json()))
    return out


def suite_satake_hom(precision=40):
    """The transform is an algebra map on the generator families."""
    out = []
    for q in (2, 3):
        field = LocalField(q, precision)
        for n in (1, 2):
            gens = [s_k(n, k) for k in range(n + 1)]
            gens += [t_m(n, m) for m in (1, 2)]
            torus = (1,) * n
            images = [satake_direct(a, torus, field) for a in gens]
            for i, a in enumerate(gens):
                for j, b in enumerate(gens):
                    lhs = satake_direct(convolve(a, b, field), torus, field)
                    rhs = images[i] * images[j]
                    out.append(_record(f"satake-hom/q{q}/n{n}/{i}x{j}", lhs == rhs))
    return out


def suite_satake_partial(precision=40):
    """Brute-force partial transform against the closed tensor expansion."""
    out = []
    field = LocalField(3, precision)
    for split in ((1, 1), (1, 2)):
        rank = sum(split)
        for m in range(4):
            direct = satake_direct(f_of_m(rank, (m,), field), split, field,
                                   as_tensor=True)
            closed = partial_satake_closed(field, 0, (m,), split)
            out.append(_record(f"partial/{split}/m{m}", direct == closed))
    # even split of rank 4 with tuple supports
    for m in [(1,), (2,), (1, 1)]:
        direct = satake_direct(f_of_m(4, m, field), (2, 2), field, as_tensor=True)
        closed = partial_satake_closed(field, 0, m, (2, 2))
        out.append(_record(f"partial/(2,2)/m{m}", direct == closed))
    return out


def suite_sym_identities(precision=40):
    """Symmetric-function identity and the coset/monomial dimension census."""
    out = []
    for n in (1, 2, 3, 4):
        for k in range(1, 5):
            out.append(_record(f"alt-identity/n{n}/k{k}", verify_69(n, 3, k)))
    for n in (1, 2, 3):
        for k in range(6):
            a, b = dimension_census(n, k)
            out.append(_record(f"census/n{n}/k{k}", a == b, cosets=a, monomials=b))
    return out


def _matched_pair(field, kind_b, n, seed):
    E1 = build_quadratic(UNRAMIFIED, field)
    E2 = build_quadratic(kind_b, field)
    E0 = build_quadratic(SPLIT, field)
    pair, inv, tries = random_pair(E1, E2, n, seed=seed)
    alpha, ainv = match_alpha(inv.delta, E0, inv.target)
    return pair, alpha, inv, tries


_LAW_CASES = 10  # records of each of the two kinds in suite_transfer_law


def suite_transfer_law(precision=40):
    """Transformation law of the transfer factor and twist invariance."""
    out = []
    field = LocalField(3, precision)
    rng = random.Random(0)
    for base_idx in range(_LAW_CASES):
        _, alpha, _, _ = _matched_pair(field, UNRAMIFIED, 1, seed=base_idx)
        ctx = TransferContext(alpha)
        size = 2 * alpha.n
        l0 = standard_lattice(field, size)
        l3 = order_span(alpha.B, l0)
        # h0: block scalars through the idempotent decomposition
        a_exp, b_exp = rng.randrange(-2, 3), rng.randrange(-2, 3)
        h0 = ctx.p_plus.scale(field.pi(a_exp)) + ctx.p_minus.scale(field.pi(b_exp))
        # h3: an integral polynomial in the second generator with unit det
        while True:
            c0, c1 = rng.randrange(3), rng.randrange(1, 3)
            h3 = Matrix.identity(field, size).scale(field.from_fq(c0)) \
                + alpha.B.scale(field.from_fq(c1))
            try:
                if mat_det(h3).coeffs:
                    break
            except PrecisionExhausted:
                continue
        lhs = transfer_factor(ctx, canonicalize(field, h0 * l0.basis),
                              canonicalize(field, h3 * l3.basis))
        # |h0|^s eta(h3) Omega
        va = mat_det(ctx.p_plus * h0 + ctx.p_minus).valuation()
        vb = mat_det(ctx.p_minus * h0 + ctx.p_plus).valuation()
        eta_sign = -1 if mat_det(h3).valuation() % 2 else 1
        base = transfer_factor(ctx, l0, l3)
        rhs = base.shift(-2 * (va - vb)) * eta_sign
        out.append(_record(f"omega-law/{base_idx}", lhs == rhs,
                           lhs=lhs.to_json(), rhs=rhs.to_json()))
    # twist invariance of both integrals
    for idx in range(_LAW_CASES):
        pair, alpha, _, _ = _matched_pair(field, UNRAMIFIED, 1, seed=100 + idx)
        f = t_m(2, 2 - idx % 2)
        k = (idx + 1) % 3 - 1
        ob0, _ = orbital_beta(pair, f)
        ob1, _ = orbital_beta(pair, pi_twist(f, k))
        oa0, _ = orbital_alpha(alpha, f)
        oa1, _ = orbital_alpha(alpha, pi_twist(f, k))
        out.append(_record(f"twist/{idx}", ob0 == ob1 and oa0 == oa1,
                           k=k))
    return out


def _scenario_for(field, kind_b, m0, m1, seeds):
    E1 = build_quadratic(UNRAMIFIED, field)
    E2 = build_quadratic(kind_b, field)
    p0, i0, _ = random_pair(E1, E2, 1, seed=seeds[0])
    p1, i1, _ = random_pair(E1, E2, 1, seed=seeds[1])
    ch0 = random_chain(p0, m0, seed=seeds[2])
    ch1 = random_chain(p1, m1, seed=seeds[3])
    return SplitScenario(p0, p1, ch0, ch1), i0, i1


_DEGREE_PANEL = [
    (UNRAMIFIED, (0,), (0,), (1, 2, 3, 4)),
    (UNRAMIFIED, (2,), (0,), (1, 2, 3, 4)),
    (UNRAMIFIED, (2,), (2,), (13, 14, 15, 16)),
    (UNRAMIFIED, (1, 1), (0, 0), (9, 10, 11, 12)),
    (UNRAMIFIED, (1, 1), (1, 1), (5, 6, 7, 8)),
    (UNRAMIFIED, (2, 2), (0, 2), (3, 9, 27, 81)),
    (RAMIFIED, (1,), (1,), (5, 6, 7, 8)),
    (RAMIFIED, (2,), (1,), (17, 18, 19, 20)),
    (RAMIFIED, (1, 2), (1, 0), (21, 22, 23, 24)),
    (RAMIFIED, (1, 1), (2, 1), (2, 4, 6, 8)),
    (RAMIFIED, (0,), (2,), (10, 20, 30, 40)),
    (RAMIFIED, (2, 1), (0, 1), (11, 21, 31, 41)),
]


def suite_degree_formulas(precision=40):
    """Quasi-isogeny degrees against the closed Disc/Res/q expressions."""
    out = []
    field = LocalField(3, precision)
    for idx, (kind_b, m0, m1, seeds) in enumerate(_DEGREE_PANEL):
        sc, i0, i1 = _scenario_for(field, kind_b, m0, m1, seeds)
        sys = HomSystem(sc)
        d2 = sys.deg_q_pair(2)
        d1 = sys.deg_q_pair(1)
        comp = sys.deg_composite_lambda1_plus()
        incl = sys.deg_lambda2_to_lambda1()
        phi = PhiMap(sys)
        dphi = phi.degree()
        tag = f"deg/{idx}-{kind_b}-{m0}-{m1}"
        out.append(_record(tag + "/incl", incl == inclusion_degree(sc),
                           got=incl, want=inclusion_degree(sc)))
        out.append(_record(tag + "/pair", d2 == closed_pair_exponent(sc, i0, i1),
                           got=d2, want=str(closed_pair_exponent(sc, i0, i1))))
        t1 = (d1, sys.deg_restricted(2, "-", (1, "+"), (2, "-")),
              sys.deg_restricted(2, "+", (1, "-"), (2, "+")))
        t2 = (d2, sys.deg_restricted(1, "-", (2, "+"), (1, "-")),
              sys.deg_restricted(1, "+", (2, "-"), (1, "+")))
        out.append(_record(tag + "/triples", len(set(t1)) == 1 and len(set(t2)) == 1,
                           first=t1, second=t2))
        out.append(_record(tag + "/composite",
                           comp == closed_composite_exponent(sc, i0, i1),
                           got=comp))
        out.append(_record(tag + "/chain", 2 * d2 == incl + comp))
        out.append(_record(tag + "/phi", dphi == closed_phi_exponent(sc, i0, i1),
                           got=dphi, want=str(closed_phi_exponent(sc, i0, i1))))
        out.append(_record(tag + "/lmaps",
                           phi.deg_l_maps() == 2 * sc.n0 * sum(sc.m1)))
        surj = all(sys.q_image_equals_sublattice(i, s)
                   for i in (1, 2) for s in ("+", "-"))
        out.append(_record(tag + "/surjective", surj))
    return out


def suite_fiber_counts(precision=40):
    """Truncated solution counts = q^(deg Phi) = closed count."""
    out = []
    field = LocalField(3, precision)
    for idx, (kind_b, m0, m1, seeds) in enumerate(_DEGREE_PANEL):
        sc, i0, i1 = _scenario_for(field, kind_b, m0, m1, seeds)
        phi = PhiMap(HomSystem(sc))
        dphi = phi.degree()
        cnt = fiber_count_exponent(phi)
        closed = closed_phi_exponent(sc, i0, i1)
        out.append(_record(f"fiber/{idx}-{kind_b}-{m0}-{m1}",
                           cnt == dphi and Fraction(cnt) == closed,
                           count_exp=cnt, deg=dphi, closed=str(closed)))
    return out


def suite_thm212(precision=40, ms=((0,), (1,), (2,), (1, 1))):
    """Both lines of the Levi reduction identity, n = 2 split as 1 + 1."""
    out = []
    field = LocalField(3, precision)
    E0 = build_quadratic(SPLIT, field)
    for kind_b, seeds in ((UNRAMIFIED, (1, 3)), (RAMIFIED, (0, 1))):
        E1 = build_quadratic(UNRAMIFIED, field)
        E2 = build_quadratic(kind_b, field)
        p0, i0, _ = random_pair(E1, E2, 1, seed=seeds[0])
        p1, i1, _ = random_pair(E1, E2, 1, seed=seeds[1])
        a0, _ = match_alpha(i0.delta, E0, i0.target)
        a1, _ = match_alpha(i1.delta, E0, i1.target)
        reps_b = verify_reduction(p0, p1, ms, alpha_side=False)
        reps_a = verify_reduction(a0, a1, ms, alpha_side=True)
        for m, rep_b, rep_a in zip(ms, reps_b, reps_a):
            out.append(_record(f"thm212-beta/{kind_b}/m{m}", rep_b["equal"],
                               **{k: v for k, v in rep_b.items() if k != "equal"}))
            out.append(_record(f"thm212-alpha/{kind_b}/m{m}", rep_a["equal"],
                               **{k: v for k, v in rep_a.items() if k != "equal"}))
    return out


def _fl_n1_one_seed(precision, seed):
    field = LocalField(3, precision)
    fs = [("unit", unit(2)), ("T1", t_m(2, 1)), ("T2", t_m(2, 2)),
          ("T1*T1", f_of_m(2, (1, 1), field))]
    out = []
    pair, alpha, inv, tries = _matched_pair(field, UNRAMIFIED, 1, seed=seed)
    for name, f in fs:
        ob, wb = orbital_beta(pair, f)
        oa, wa = orbital_alpha(alpha, f)
        v0 = value_at_zero(oa)
        out.append(_record(f"fl-n1/{seed:02d}/{name}", v0 == ob,
                           beta=str(ob), alpha=oa.to_json(),
                           windows=[wb, wa], retries=tries))
    return out


def suite_fl_n1(precision=40, seeds=20, workers=1):
    """The matching identity at n = 1 over the tested Hecke functions.

    Seeds may be processed by a worker pool; the report is ordered by id
    and byte-identical for any worker count.
    """
    if workers <= 1:
        batches = [_fl_n1_one_seed(precision, s) for s in range(seeds)]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda s: _fl_n1_one_seed(precision, s),
                                    range(seeds)))
    out = [rec for batch in batches for rec in batch]
    return sorted(out, key=lambda r: r["id"])


def _alpha_from_root(field, x):
    """Matched pair on (split, split E3) for the degree-one invariant T - (x, 1-x)."""
    E0 = build_quadratic(SPLIT, field)
    E1 = build_quadratic(UNRAMIFIED, field)
    E3 = compute_e3(E1, E1)
    mu = E3.from_components(x, field.one - x)
    delta = Poly(E3, [-mu, E3.one])
    alpha, _ = match_alpha(delta, E0, E3)
    return alpha


def suite_vanishing_sign(precision=40):
    """Central vanishing and functional-equation signs for degree-one invariants.

    The invariant T - (x, 1-x) has order one exactly when v(x(1-x)) is odd
    (the norm criterion for the unramified extension); those integrals must
    vanish at the center with sign -1, the others carry sign +1.  A direct
    sum of two order-one components must vanish to order at least two.
    """
    out = []
    field = LocalField(3, precision)
    pi = field.pi()
    one = field.one
    odd_panel = [pi, field.pi(3), field.element(1, (2,)), one + pi]
    even_panel = [field.from_int(2), one + field.pi(2), field.pi(2)]
    f = unit(2)
    minus_alphas = []
    for i, x in enumerate(odd_panel):
        parity = (x * (one - x)).valuation() % 2
        alpha = _alpha_from_root(field, x)
        val, w = orbital_alpha(alpha, f)
        probe = functional_equation_probe(val)
        sign = probe[0] if probe else None
        v0 = value_at_zero(val)
        expect_minus = parity == 1
        ok = (sign == -1 and v0 == 0) if expect_minus else (sign == 1)
        out.append(_record(f"vanish/odd/{i}", ok and expect_minus,
                           sign=sign, value=str(v0), orbital=val.to_json()))
        if sign == -1:
            minus_alphas.append(alpha)
    for i, x in enumerate(even_panel):
        parity = (x * (one - x)).valuation() % 2
        alpha = _alpha_from_root(field, x)
        val, w = orbital_alpha(alpha, f)
        probe = functional_equation_probe(val)
        sign = probe[0] if probe else None
        out.append(_record(f"vanish/even/{i}", parity == 0 and sign == 1,
                           sign=sign, value=str(value_at_zero(val))))
    # order bound for a direct sum of two order-one components
    if len(minus_alphas) >= 2:
        rep = order_lower_bound_report(minus_alphas[:2], unit(4))
        out.append(_record("vanish/order-n2",
                           rep["ok"] and rep["estimate"] == 2,
                           order=rep["order"], estimate=rep["estimate"],
                           orbital=rep["orbital"].to_json(),
                           window=rep["window"]))
    else:
        out.append(_record("vanish/order-n2", False, reason="panel too small"))
    return out


SUITES = {
    "satake-closed": suite_satake_closed,
    "satake-hom": suite_satake_hom,
    "satake-partial": suite_satake_partial,
    "sym-identities": suite_sym_identities,
    "transfer-law": suite_transfer_law,
    "degree-formulas": suite_degree_formulas,
    "fiber-counts": suite_fiber_counts,
    "thm212": suite_thm212,
    "fl-n1": suite_fl_n1,
    "vanishing-sign": suite_vanishing_sign,
}


def run_suite(name, precision=40, **kwargs):
    fn = SUITES[name]
    return fn(precision=precision, **kwargs)
