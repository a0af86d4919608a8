import pytest
from hypothesis import example, given, settings, strategies as st

from fflab.errors import FactorFail, NotASquare, PrecisionExhausted
from fflab.factor import (_artin_schreier_root, hensel_factor, hensel_split,
                          newton_slopes, poly_gcd, poly_residue, sqrt_in_F)
from fflab.linalg import Poly
from fflab.localfield import LocalField

F = LocalField(3)
one, pi = F.one, F.pi()


def _remultiplies(factors, poly):
    prod = Poly(poly.ring, [poly.ring.one])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    return all(a.same(b) for a, b in zip(prod.coeffs, poly.coeffs))


def test_irreducible_nonsquare_unit():
    c = F.from_fq(F.gf.nonsquare())
    fs = hensel_factor(Poly(F, [-c, F.zero, one]))
    assert len(fs) == 1 and fs[0][0].degree == 2


def test_split_quadratic():
    fs = hensel_factor(Poly(F, [-one, F.zero, one]))
    assert sorted(f.degree for f, _ in fs) == [1, 1]
    assert _remultiplies(fs, Poly(F, [-one, F.zero, one]))


def test_eisenstein_newton_polygon():
    p = Poly(F, [-pi, F.zero, one])
    assert newton_slopes(p) == [(1, 2, 2)]
    fs = hensel_factor(p)
    assert len(fs) == 1 and fs[0][0].degree == 2


def test_mixed_slopes_cubic():
    p = Poly(F, [-one, one]) * Poly(F, [-pi, one]) * Poly(F, [-F.pi(2), one])
    fs = hensel_factor(p)
    assert sorted(f.degree for f, _ in fs) == [1, 1, 1]
    assert _remultiplies(fs, p)


def test_degrees_sum():
    p = Poly(F, [-pi, F.zero, one]) * Poly(F, [-one, one])
    fs = hensel_factor(p)
    assert sum(f.degree * m for f, m in fs) == p.degree
    assert _remultiplies(fs, p)


@pytest.mark.parametrize("q", [3, 5])
def test_integral_substitution_peels_the_smallest_root_valuation(q):
    # (T^2 - pi^3)(T - pi): root valuations 3/2 and 1; T = pi S peels the 1
    Fq = LocalField(q)
    p = Poly(Fq, [-Fq.pi(3), Fq.zero, Fq.one]) * Poly(Fq, [-Fq.pi(), Fq.one])
    fs = hensel_factor(p)
    assert sorted(f.degree for f, _ in fs) == [1, 2]
    assert fs[0][0] * fs[1][0] == p


@pytest.mark.parametrize("q", [3, 5])
def test_non_integral_smallest_root_valuation_is_unsupported(q):
    # (T - pi^3)(T^2 - pi): the smallest root valuation is 1/2
    Fq = LocalField(q)
    p = Poly(Fq, [-Fq.pi(3), Fq.one]) * Poly(Fq, [-Fq.pi(), Fq.zero, Fq.one])
    with pytest.raises(FactorFail, match="unsupported"):
        hensel_factor(p)


def test_non_integral_polynomial_is_rescaled_and_substituted_back():
    # T^2 - pi^-2 becomes T^2 - 1 under T -> pi^-1 T
    p = Poly(F, [-F.pi(-2), F.zero, one])
    fs = hensel_factor(p)
    assert sorted(f.coeffs[0].key() for f, _ in fs) == \
        sorted([F.pi(-1).key(), (-F.pi(-1)).key()])
    assert all(f.degree == 1 and f.is_monic() and m == 1 for f, m in fs)
    assert fs[0][0] * fs[1][0] == p


def test_char2_artin_schreier():
    F2 = LocalField(2)
    o = F2.one
    fs = hensel_factor(Poly(F2, [o, o, o]))  # T^2+T+1 irreducible over F_2
    assert len(fs) == 1 and fs[0][0].degree == 2
    split = Poly(F2, [o, o]) * Poly(F2, [F2.pi(1) + o, o])
    fs2 = hensel_factor(split)
    assert sorted(f.degree for f, _ in fs2) == [1, 1]


def test_sqrt():
    x = (one + pi) * (one + pi)
    r = sqrt_in_F(x)
    assert r is not None and (r * r).same(x)
    assert sqrt_in_F(pi) is None
    assert sqrt_in_F(F.from_fq(F.gf.nonsquare())) is None
    assert sqrt_in_F(F.zero) == F.zero


def test_sqrt_char2():
    F2 = LocalField(2)
    x = F2.element(0, [1, 0, 1])  # 1 + pi^2 = (1 + pi)^2
    r = sqrt_in_F(x)
    assert r is not None and (r * r).same(x)
    assert sqrt_in_F(F2.pi(1)) is None


def test_poly_gcd():
    a = Poly(F, [-one, one])
    p = a * Poly(F, [one, one])
    g = poly_gcd(p, a)
    assert g.degree == 1 and g.coeffs[0].same(-one)


@pytest.mark.parametrize("q, known_to", [(2, None), (3, None), (3, 12)])
def test_hensel_split_lifts_to_the_target(q, known_to):
    # (T^2 + T + 1)(T + 1) + pi (T^2 + 2 T + 1) + pi^3 at q = 2, and
    # (T^2 + 1)(T + 1) + pi (T^2 + 2 T + 1) + pi^3 at q = 3: residue factors
    # T^2 + T + 1 (or T^2 + 1) and T + 1 are coprime and the lift is not
    # the residue's.  A and B are monic lifts of them, and poly - A B has
    # no digit below pi^target, target the field's precision for exact
    # coefficients, else the least known_to
    field = LocalField(q)
    o, p1 = field.one, field.pi()
    res_a = (1, 1, 1) if q == 2 else (1, 0, 1)
    res_b = (1, 1)
    poly = (Poly(field, [field.from_fq(c) for c in res_a])
            * Poly(field, [field.from_fq(c) for c in res_b])
            + Poly(field, [p1 + field.pi(3), p1 * field.from_int(2), p1]))
    target = field.precision
    if known_to is not None:
        poly = Poly(field, [c.truncate(known_to) for c in poly.coeffs])
        target = known_to
    A, B = hensel_split(poly, res_a)
    assert A.coeffs[-1].same(o) and B.coeffs[-1].same(o)
    assert (poly_residue(A), poly_residue(B)) == (res_a, res_b)
    assert any(c.coeff(k) for c in A.coeffs for k in range(1, target))
    err = poly - A * B
    assert all(c.coeff(k) == 0 for c in err.coeffs for k in range(target))
    # the product is not exact, so A and B certify no digit past pi^target
    assert all(c.is_zeroish for c in err.coeffs)
    assert all(c.known_to == target for f in (A, B) for c in f.coeffs[:-1])


@pytest.mark.parametrize("q", [3, 9])
def test_hensel_split_of_an_exact_product_is_exact(q, monkeypatch):
    # T^2 - 1 = (T - 1)(T + 1) already at the residue lift: the split takes
    # one product, and its factors are exact and remultiply to T^2 - 1
    field = LocalField(q)
    o = field.one
    poly = Poly(field, [-o, field.zero, o])
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    A, B = hensel_split(poly, poly_residue(Poly(field, [-o, o])))
    monkeypatch.undo()
    assert len(products) == 1
    assert all(c.is_exact for f in (A, B) for c in f.coeffs)
    assert all(c.is_exact_zero for c in (poly - A * B).coeffs)


# -- precision honesty: a run at N claims no digit that a run at 2N denies -----

_QS = (2, 3, 4, 5, 7, 8, 9)
_N = 8


def _agrees(x, y):
    """Every digit x certifies equals y's digit, and an exact x is y exactly
    (x and y may live in fields of different precision)."""
    if x.is_exact:
        return y.is_exact and x.coeffs == y.coeffs and (not x.coeffs or x.val == y.val)
    if y.known_to < x.known_to:
        return False
    lo = min([e.val for e in (x, y) if e.coeffs], default=x.known_to)
    return all(x.coeff(k) == y.coeff(k) for k in range(lo, x.known_to))


def _perturbed(q, prec, roots, terms):
    """prod (T - r) over the residue roots plus sum c pi^k T^j, at precision prec."""
    field = LocalField(q, prec)
    poly = Poly(field, [field.one])
    for r in roots:
        poly = poly * Poly(field, [-field.from_fq(r), field.one])
    extra = [field.zero] * len(roots)
    for k, j, c in terms:
        extra[j] = extra[j] + field.element(k, (c,))
    return poly + Poly(field, extra)


@st.composite
def _split_residue_polys(draw):
    q = draw(st.sampled_from(_QS))
    d = draw(st.integers(2, 3))
    # few residue roots, so that repeated ones (the Newton-polygon and
    # Artin-Schreier paths) are common; perturbations mostly in the low
    # digits, some at or past the working precision
    roots = draw(st.lists(st.integers(0, min(q - 1, 2)), min_size=d, max_size=d))
    exps = st.integers(1, 4) | st.integers(1, 2 * _N)
    terms = draw(st.lists(st.tuples(exps, st.integers(0, d - 1), st.integers(1, q - 1)),
                          max_size=4))
    return q, roots, terms


def _assert_factors_honest(q, roots, terms):
    try:
        low = hensel_factor(_perturbed(q, _N, roots, terms))
    except (FactorFail, PrecisionExhausted):
        return  # nothing claimed
    high = hensel_factor(_perturbed(q, 2 * _N, roots, terms))
    assert [(f.degree, m) for f, m in low] == [(f.degree, m) for f, m in high]
    for (f, _), (h, _) in zip(low, high):
        assert all(_agrees(x, y) for x, y in zip(f.coeffs, h.coeffs))


@settings(max_examples=150, deadline=None)
@given(_split_residue_polys())
# T (T + 1)^2 + pi^8 T^2 at q = 2, N = 8: the factor lifting (T + 1)^2 has
# an inexact-zero T coefficient, which is no evidence of a square
@example(case=(2, [0, 1, 1], [(8, 2, 1)]))
def test_hensel_factor_claims_only_digits_a_finer_run_confirms(case):
    _assert_factors_honest(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 4, 8)), st.integers(0, 1),
       st.lists(st.tuples(st.integers(1, 2 * _N), st.integers(0, 1), st.integers(1, 7)),
                min_size=2, max_size=5))
# T^2 + (pi + pi^3) T + pi^14 at q = 2, N = 8: S^2 + S + a with a known past
# the N + 8 digits solved is still solvable
@example(q=2, r=0, terms=[(1, 1, 1), (3, 1, 1), (14, 0, 1)])
def test_char2_double_root_quadratics_claim_only_digits_a_finer_run_confirms(q, r, terms):
    # residue (T - r)^2 in characteristic 2: the roots come from an
    # Artin-Schreier equation whenever the T-coefficient does not vanish
    _assert_factors_honest(q, [r, r], [(k, j, c % (q - 1) + 1) for k, j, c in terms])


def test_artin_schreier_roots_claim_only_certified_digits():
    # T^2 + (pi + pi^3) T + pi^3 at q = 2: the roots come from S^2 + S + a
    # with a = pi^3 / (pi + pi^3)^2 inexact, so they are certified, not exact
    def roots(prec):
        field = LocalField(2, prec)
        poly = Poly(field, [field.pi(3), field.pi() + field.pi(3), field.one])
        return [f.coeffs[0] for f, _ in hensel_factor(poly)]
    low, high = roots(40), roots(80)
    assert all(not r.is_exact for r in low)
    assert all(_agrees(x, y) for x, y in zip(low, high))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_artin_schreier_residue_digit_is_solved_iff_its_trace_vanishes(q):
    # S^2 + S + a with a = c0 + pi + (q - 1) pi^2: s0^2 + s0 = c0 has a root
    # in F_q exactly when the absolute trace of c0 is 0
    def root(prec, c0):
        field = LocalField(q, prec)
        a = field.element(0, (c0, 1, q - 1))
        return a, _artin_schreier_root(field, a)
    g = LocalField(q).gf
    for c0 in range(1, q):
        a, low = root(_N, c0)
        if g.trace_to_prime(c0):
            assert low is None
            continue
        s0 = low.coeff(0)
        assert g.add(g.mul(s0, s0), s0) == c0
        assert (low * low + low + a).is_zeroish
        assert _agrees(low, root(2 * _N, c0)[1])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_QS), st.integers(-2, 2),
       st.lists(st.integers(0, 8), min_size=1, max_size=2 * _N + 4),
       st.none() | st.integers(1, 3 * _N))
def test_sqrt_claims_only_digits_a_finer_run_confirms(q, val, digits, known_to):
    digits = [c % q for c in digits]
    know = float("inf") if known_to is None else val + known_to
    try:
        low = sqrt_in_F(LocalField(q, _N).element(val, digits, know))
    except PrecisionExhausted:
        return  # nothing claimed
    high = sqrt_in_F(LocalField(q, 2 * _N).element(val, digits, know))
    assert (low is None) == (high is None)
    if low is not None:
        assert _agrees(low, high)
