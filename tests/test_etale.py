import random

import pytest

from fflab.errors import BothRamified, NotASquare, UnsupportedRamified
from fflab.etale import (RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic,
                         cd_constants, compute_e3, eta, is_regular_semisimple,
                         poly_components, poly_sqrt, resultant, sigma_poly,
                         symmetry_check)
from fflab.linalg import Matrix, Poly, det_berkowitz
from fflab.localfield import LocalField

F = LocalField(3)


def algebras():
    return (build_quadratic(SPLIT, F), build_quadratic(UNRAMIFIED, F),
            build_quadratic(RAMIFIED, F))


def test_build_quadratic_models():
    E0, E1, E2 = algebras()
    assert E0.split_roots is not None
    assert E1.disc_valuation == 0
    assert E2.disc_valuation == 1
    assert E2.nm.same(-F.pi())  # T^2 - pi
    with pytest.raises(UnsupportedRamified):
        build_quadratic(RAMIFIED, LocalField(2))


def test_involution_norm_trace():
    rng = random.Random(0)
    for alg in algebras():
        for _ in range(5):
            x = alg.element(F.random_element(rng, 0, 2),
                            F.random_element(rng, 0, 2))
            assert x.sigma().sigma().same(x)
            assert (x * x.sigma()).a.same(x.norm())
            assert (x * x.sigma()).b.is_zeroish
            assert (x + x.sigma()).a.same(x.trace())


def test_trace_and_norm_of_generator():
    E1 = build_quadratic(UNRAMIFIED, F)
    assert E1.gen.trace().is_exact_zero  # model T^2 - c
    E2 = build_quadratic(RAMIFIED, F)
    assert E2.gen.norm().same(-F.pi())


def test_compute_e3_cases():
    E1 = build_quadratic(UNRAMIFIED, F)
    E2 = build_quadratic(RAMIFIED, F)
    both_unram = compute_e3(E1, E1)
    assert both_unram.split_roots is not None
    mixed = compute_e3(E1, E2)
    assert mixed.kind == RAMIFIED
    with pytest.raises(BothRamified):
        compute_e3(E2, E2)
    with pytest.raises(ValueError):
        compute_e3(build_quadratic(SPLIT, F), E1)
    # the generator is fixed by the double involution by construction:
    # its trace and norm are symmetric expressions of the inputs
    assert both_unram.tr.same(E1.tr * E1.tr)


def test_e3_even_q():
    F2 = LocalField(2)
    E1 = build_quadratic(UNRAMIFIED, F2)
    E3 = compute_e3(E1, E1)
    assert E3.split_roots is not None


def test_discriminant_abs():
    E0, E1, E2 = algebras()
    assert E0.disc_valuation == 0       # |Disc| = 1
    assert E1.disc_valuation == 0
    assert E2.disc_valuation == 1       # |Disc| = q^-1
    # |z - z^s| = |Disc|^(1/2), derived: (z - z^s)^2 = 4 pi for T^2 - pi
    gap = E2.gen - E2.gen.sigma()
    assert (gap * gap).a.same(F.from_int(4) * F.pi())
    assert gap.norm().valuation() == E2.disc_valuation


def test_cd_constants():
    E1 = build_quadratic(UNRAMIFIED, F)
    E2 = build_quadratic(RAMIFIED, F)
    for pair in ((E1, E1), (E1, E2)):
        target = compute_e3(*pair)
        c, d = cd_constants(pair[0], pair[1], target)
        assert d.sigma().same(-d)
        dsq = d * d
        assert dsq.b.is_zeroish
        assert dsq.a.same(pair[0].disc * pair[1].disc)
        assert d.norm().valuation() == (pair[0].disc_valuation
                                        + pair[1].disc_valuation)


def test_resultant_convention():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    a = E3.from_field(F.from_int(2))
    b = E3.from_field(F.pi())
    ta = Poly(E3, [-a, E3.one])
    tb = Poly(E3, [-b, E3.one])
    assert resultant(ta, tb).same(a - b)
    c = E3.from_field(F.from_int(2))
    assert resultant(Poly(E3, [-c, E3.zero, E3.one]),
                     Poly(E3, [E3.zero, E3.one])).same(-c)
    # a repeated root forces a vanishing resultant with the derivative
    sq = ta * ta
    der = sq.derivative()
    lead_inv = der.coeffs[-1].inv()
    der_monic = Poly(E3, [x * lead_inv for x in der.coeffs])
    r = resultant(sq, der_monic)
    assert r.a.is_zeroish and r.b.is_zeroish


def test_resultant_multiplicative():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    rng = random.Random(1)

    def rand_monic(deg):
        cs = [E3.element(F.random_element(rng, 0, 1), F.random_element(rng, 0, 1))
              for _ in range(deg)]
        return Poly(E3, cs + [E3.one])

    for _ in range(4):
        p, q, r = rand_monic(1), rand_monic(2), rand_monic(1)
        lhs = resultant(p * q, r)
        rhs = resultant(p, r) * resultant(q, r)
        assert lhs.same(rhs)


def test_symmetry_check():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    x = F.pi()
    delta = Poly(E3, [-E3.from_components(x, F.one - x), E3.one])
    assert symmetry_check(delta)
    assert not symmetry_check(Poly(E3, [E3.zero, E3.one]))  # plain T fails


def test_regular_semisimple():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    x = F.pi()
    good = Poly(E3, [-E3.from_components(x, F.one - x), E3.one])
    assert is_regular_semisimple(good)
    zero_root = Poly(E3, [-E3.from_components(F.zero, F.one), E3.one])
    assert not is_regular_semisimple(zero_root)
    a = E3.from_field(F.from_int(2))
    ta = Poly(E3, [-a, E3.one])
    assert not is_regular_semisimple(ta * ta)


def test_poly_sqrt():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    rng = random.Random(2)
    for _ in range(5):
        q = Poly(E3, [E3.element(F.random_element(rng, 0, 1),
                                 F.random_element(rng, 0, 1)),
                      E3.element(F.random_element(rng, 0, 1),
                                 F.random_element(rng, 0, 1)),
                      E3.one])
        s = poly_sqrt(q * q)
        assert all(x.same(y) for x, y in zip(s.coeffs, q.coeffs))
    with pytest.raises(NotASquare):
        poly_sqrt(Poly(E3, [E3.from_field(F.pi()), E3.zero, E3.one]))


def test_eta():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    assert eta(E3.from_components(F.pi(), F.one)) == -1
    assert eta(E3.from_field(F.pi())) == 1
    assert eta(E3.from_components(F.one, F.one + F.pi())) == 1
    rng = random.Random(3)
    for _ in range(8):
        x = E3.from_components(F.random_element(rng, 0, 2),
                               F.random_element(rng, 0, 2))
        y = E3.from_components(F.random_element(rng, 0, 2),
                               F.random_element(rng, 0, 2))
        assert eta(x * y) == eta(x) * eta(y)


def test_eta_gl():
    E3 = compute_e3(build_quadratic(UNRAMIFIED, F), build_quadratic(UNRAMIFIED, F))
    h = Matrix.diagonal(E3, [E3.from_components(F.pi(), F.one), E3.one])
    assert eta(det_berkowitz(h)) == -1
