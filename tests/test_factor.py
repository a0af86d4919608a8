import pytest

from fflab.errors import NotASquare
from fflab.factor import (hensel_factor, hensel_split, newton_slopes, poly_gcd,
                          poly_residue, sqrt_in_F)
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
