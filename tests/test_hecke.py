import itertools
import random
from fractions import Fraction

import pytest

from fflab import hecke
from fflab.hecke import (HeckeFunction, ULaurent, _type_candidates,
                         _unipotent_orbits, convolve, dimension_census, f_of_m,
                         partial_satake_closed, pi_power, pi_twist, s_k,
                         satake_direct, sym_b, sym_e, t_m, unit, verify_69)
from fflab.families import _compositions, count_chains, lattices_at_position
from fflab.lattices import standard_lattice
from fflab.localfield import LocalField
from oracles import unipotent_sum

F = LocalField(3)


def test_generators():
    assert t_m(2, 0) == s_k(2, 0) == unit(2)
    assert t_m(2, 1) == s_k(2, 1)
    assert sorted(t_m(2, 2).c) == [(1, 1), (2, 0)]
    assert pi_power(2, 3).c == {(3, 3): Fraction(1)}
    assert s_k(2, -1).c == {(0, -1): Fraction(1)}


def _two_branch_t_m(rank, m):
    # t_m with mirrored branches for positive and negative m
    if m == 0:
        return unit(rank)
    if m > 0:
        keys = {tuple(sorted(c, reverse=True)) for c in _compositions(m, rank)}
    else:
        keys = {tuple(sorted((-x for x in c), reverse=True))
                for c in _compositions(-m, rank)}
    return HeckeFunction(rank, {k: 1 for k in keys})


def test_signed_t_m_matches_the_two_branches():
    for rank in (1, 2, 3):
        for m in range(-3, 4):
            assert t_m(rank, m) == _two_branch_t_m(rank, m)


def _product_and_filter_candidates(f, levi):
    # every tuple of support entries per block, kept when decreasing, then
    # the block combinations whose total is a support total
    entries = [x for key in f.c for x in key]
    lo, hi = min(entries), max(entries)
    totals = {sum(key) for key in f.c}
    blocks = [[t for t in itertools.product(range(hi, lo - 1, -1), repeat=nb)
               if list(t) == sorted(t, reverse=True)] for nb in levi]
    return {combo for combo in itertools.product(*blocks)
            if sum(sum(b) for b in combo) in totals}


@pytest.mark.parametrize("levi", [(3,), (1, 2), (1, 1, 1), (2, 2)])
def test_type_candidates_match_product_and_filter(levi):
    # seeded supports, each with a negative entry
    rank = sum(levi)
    rng = random.Random(len(levi) * 10 + rank)
    for _ in range(8):
        keys = {(0,) * (rank - 1) + (-1,)}
        keys |= {tuple(sorted((rng.randrange(-2, 3) for _ in range(rank)),
                              reverse=True)) for _ in range(rng.randrange(3))}
        f = HeckeFunction(rank, dict.fromkeys(keys, 1))
        got = _type_candidates(f, levi)
        assert len(set(got)) == len(got)
        assert set(got) == _product_and_filter_candidates(f, levi)


def test_convolution_unit_and_count():
    f = t_m(2, 2)
    assert convolve(unit(2), f, F) == f
    c = convolve(t_m(2, 1), t_m(2, 1), F)
    assert c.c == {(1, 1): Fraction(4), (2, 0): Fraction(1)}


def test_convolution_commutative_associative():
    fs = [t_m(2, 1), t_m(2, 2), s_k(2, 2)]
    for a in fs:
        for b in fs:
            assert convolve(a, b, F) == convolve(b, a, F)
    a, b, c = fs
    assert convolve(convolve(a, b, F), c, F) == convolve(a, convolve(b, c, F), F)


def test_f_of_m_matches_chain_counts():
    std = standard_lattice(F, 2)
    for m in [(1,), (2,), (1, 1), (2, 1)]:
        f = f_of_m(2, m, F)
        for mu, coeff in f.c.items():
            lat = next(iter(lattices_at_position(std, mu)))
            assert count_chains(lat, std, m) == coeff


def test_pi_twist():
    f = t_m(2, 1)
    g = pi_twist(f, 2)
    assert g.c == {(3, 2): Fraction(1)}
    assert pi_twist(g, -2) == f


def test_satake_closed_forms():
    for q in (2, 3):
        field = LocalField(q)
        for n in (1, 2, 3):
            for k in range(n + 1):
                got = satake_direct(s_k(n, k), (1,) * n, field)
                want = sym_e(n, q, k).scale(
                    ULaurent.q_half_power(q, Fraction(k * (n - k), 2)))
                assert got == want
            for m in range(3):
                got = satake_direct(t_m(n, m), (1,) * n, field)
                want = sym_b(n, q, m).scale(
                    ULaurent.q_half_power(q, Fraction(m * (n - 1), 2)))
                assert got == want


def test_satake_rank1_identity():
    f = f_of_m(1, (2, 1), F)
    img = satake_direct(f, (1,), F)
    assert img.c == {(3,): ULaurent.from_rational(3, f.c[(3,)])}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_satake_of_negative_t_m_negates_exponents(n):
    # T_-m is T_m composed with g -> g^-1, which inverts every x_i
    neg = satake_direct(t_m(n, -1), (1,) * n, F)
    pos = satake_direct(t_m(n, 1), (1,) * n, F)
    assert neg.c == {tuple(-x for x in k): v for k, v in pos.c.items()}


def test_satake_homomorphism():
    gens = [s_k(2, k) for k in range(3)] + [t_m(2, 1), t_m(2, 2)]
    for a in gens:
        for b in gens:
            lhs = satake_direct(convolve(a, b, F), (1, 1), F)
            rhs = satake_direct(a, (1, 1), F) * satake_direct(b, (1, 1), F)
            assert lhs == rhs


def test_satake_weyl_invariance_and_grading():
    img = satake_direct(t_m(3, 2), (1, 1, 1), F)
    for key in img.c:
        assert sum(key) == 2
        assert img.c[tuple(sorted(key, reverse=True))] == img.c[key]


def _levis(rank):
    return [c for k in range(1, rank + 1) for c in _compositions(rank, k)
            if all(c)]


_ORBIT_CASES = ([(q, levi) for q in (2, 3, 4, 5, 9)
                 for rank in (2, 3) for levi in _levis(rank)]
                + [(q, levi) for q in (2, 3)
                   for levi in ((2, 2), (1, 1, 2), (1, 3))])


def _small_support(rank, q):
    # a distinct coefficient per type, so a coset counted under the wrong
    # type shows; at q <= 3 one more type widens the windows: one below zero
    # widens every window by one up to rank 3, and (2, 0, 0, 0) the first
    # row's at rank 4
    keys = [(0,) * rank, (1,) + (0,) * (rank - 1), (1, 1) + (0,) * (rank - 2)]
    if q <= 3:
        keys.append((0,) * (rank - 1) + (-1,) if rank <= 3
                    else (2,) + (0,) * (rank - 1))
    return HeckeFunction(rank, {k: 2 * i + 1 for i, k in enumerate(keys)})


@pytest.mark.parametrize("q,levi", _ORBIT_CASES,
                         ids=[f"q{q}-{levi}" for q, levi in _ORBIT_CASES])
def test_orbit_sums_match_the_exhaustive_loop(q, levi, monkeypatch):
    field = LocalField(q)
    f = _small_support(sum(levi), q)
    v_min = min(x for key in f.c for x in key)
    offsets = [sum(levi[:b]) for b in range(len(levi))]
    for combo in _type_candidates(f, levi):
        mu = tuple(x for block in combo for x in block)
        # one window pi^-w O / O per entry above the block diagonal
        widths = sum(max(0, mu[i] - v_min) * (sum(levi) - offsets[b] - nb)
                     for b, nb in enumerate(levi)
                     for i in range(offsets[b], offsets[b] + nb))
        weights = [w for w, _ in _unipotent_orbits(mu, levi, offsets, v_min, field)]
        assert sum(weights) == q ** widths
    got = satake_direct(f, levi, field, as_tensor=True)
    monkeypatch.setattr(hecke, "_unipotent_sum", unipotent_sum)
    assert got == satake_direct(f, levi, field, as_tensor=True)


def test_partial_satake_against_closed():
    for split in ((1, 1), (1, 2)):
        rank = sum(split)
        for m in range(3):
            direct = satake_direct(f_of_m(rank, (m,), F), split, F,
                                   as_tensor=True)
            closed = partial_satake_closed(F, 0, (m,), split)
            assert direct == closed


def test_partial_satake_rank4_integral_exponents():
    closed = partial_satake_closed(F, 0, (1,), (2, 2))
    for coeff in closed.values():
        assert coeff.b == 0  # integral powers of q for even splits


def test_generation_by_s_family():
    # every f(m) with small support is a polynomial in the S_k images
    from itertools import product
    field = F
    for rank in (2, 3):
        target = satake_direct(f_of_m(rank, (2,), field), (1,) * rank, field)
        # solve in the symmetric algebra: T_2's image is a combination of
        # e_2, e_1^2 with u-coefficients; verify by reconstructing
        e1 = satake_direct(s_k(rank, 1), (1,) * rank, field)
        e2 = satake_direct(s_k(rank, 2), (1,) * rank, field)
        combos = [e1 * e1, e2]
        # target = a*(e1^2) + b*e2 for some rational a, b times u-powers:
        # verify membership by brute force over small exponent grids
        found = False
        for num_a in range(-9, 10):
            for num_b in range(-9, 10):
                for shift in (-2, -1, 0, 1, 2):
                    ua = ULaurent.q_half_power(3, Fraction(shift, 2), num_a)
                    ub = ULaurent.q_half_power(3, Fraction(shift, 2), num_b)
                    cand = combos[0].scale(ua) + combos[1].scale(ub)
                    if cand == target:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        assert found


def test_symmetric_identities():
    for n in (1, 2, 3, 4):
        for k in range(1, 5):
            assert verify_69(n, 3, k)
    assert sym_b(2, 3, 1) == sym_e(2, 3, 1)
    # n=2: b_2 = e_1^2 - e_2
    assert sym_b(2, 3, 2) == sym_e(2, 3, 1) * sym_e(2, 3, 1) - sym_e(2, 3, 2)


def test_dimension_census():
    assert dimension_census(2, 2) == (2, 2)
    assert dimension_census(3, 3) == (3, 3)
    assert dimension_census(3, 0) == (1, 1)
    for n in (1, 2, 3):
        for k in range(6):
            a, b = dimension_census(n, k)
            assert a == b
