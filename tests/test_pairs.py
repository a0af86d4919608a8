import random

import pytest

from fflab.errors import (NormalizationFail, NotFound, PrecisionExhausted,
                          WrongDimension)
from fflab.etale import (RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic,
                         compute_e3, is_regular_semisimple, resultant,
                         symmetry_check)
from fflab.linalg import Matrix, Poly, kernel_basis, mat_det, mat_rank
from fflab.localfield import LocalField
from fflab.pairs import (EmbeddingPair, _companion,
                         _factor_uniformizer, centralizer, direct_sum,
                         invariant, match_alpha, random_pair,
                         random_unimodular, standard_embedding, w_element)
from oracles import commutator_rows

F = LocalField(3)
E0 = build_quadratic(SPLIT, F)
E1 = build_quadratic(UNRAMIFIED, F)
E2R = build_quadratic(RAMIFIED, F)
E3 = compute_e3(E1, E1)


def test_minimal_polynomial_enforced():
    std = standard_embedding(E1, 1)
    EmbeddingPair(E1, E1, std, std)  # valid
    with pytest.raises(ValueError):
        EmbeddingPair(E1, E1, std, Matrix.identity(F, 2))


def test_degenerate_equal_embeddings():
    std = standard_embedding(E1, 1)
    inv = invariant(EmbeddingPair(E1, E1, std, std))
    assert symmetry_check(inv.delta)
    assert not inv.rs_flag


def test_symmetry_always_holds():
    for eb, seeds in ((E1, range(4)), (E2R, range(3))):
        for s in seeds:
            pair, inv, _ = random_pair(E1, eb, 1, seed=s)
            assert symmetry_check(inv.delta)


def test_invariant_raises_on_an_asymmetric_square_root(monkeypatch):
    # (-1)^n delta(-T) is symmetric only when delta(T - 1) = delta(T + 1),
    # never in odd characteristic; invariant does not transform it back
    from fflab import pairs

    def negated(delta):
        n = delta.degree
        return Poly(delta.ring, [-c if (n - i) % 2 else c
                                 for i, c in enumerate(delta.coeffs)])

    images = []
    sqrt = pairs.poly_sqrt

    def negated_sqrt(chi):
        images.append(negated(sqrt(chi)))
        return images[-1]

    monkeypatch.setattr(pairs, "poly_sqrt", negated_sqrt)
    with pytest.raises(NormalizationFail):
        random_pair(E1, E1, 1, seed=0)
    assert len(images) == 1 and not symmetry_check(images[0])


def test_w_element_centralizes():
    for s in range(5):
        pair, inv, _ = random_pair(E1, E1, 1, seed=s)
        w = w_element(pair)
        z = Matrix.zero(F, 2)
        assert (w * pair.A - pair.A * w).same(z)
        assert (w * pair.B - pair.B * w).same(z)


def test_conjugation_invariance():
    pair, inv, _ = random_pair(E1, E1, 1, seed=7)
    rng = random.Random(3)
    for _ in range(5):
        g, gi = random_unimodular(F, 2, rng)
        invc = invariant(pair.conjugate(g, gi))
        assert all(x.same(y) for x, y in zip(invc.delta.coeffs, inv.delta.coeffs))


def test_block_multiplicativity():
    p0, i0, _ = random_pair(E1, E1, 1, seed=7)
    p1, i1, _ = random_pair(E1, E1, 1, seed=11)
    ds_inv = invariant(direct_sum(p0, p1))
    prod = i0.delta * i1.delta
    assert all(x.same(y) for x, y in zip(ds_inv.delta.coeffs, prod.coeffs))


def test_rs_of_direct_sum_needs_nonzero_resultant():
    p0, i0, _ = random_pair(E1, E1, 1, seed=1)
    ds_inv = invariant(direct_sum(p0, p0))  # equal invariants: Res = 0
    assert not ds_inv.rs_flag
    p1, i1, _ = random_pair(E1, E1, 1, seed=3)
    ds2 = invariant(direct_sum(p0, p1))
    assert ds2.rs_flag == (is_regular_semisimple(i0.delta)
                           and is_regular_semisimple(i1.delta)
                           and resultant(i0.delta, i1.delta).is_invertible())


def test_centralizer_dimension_and_gamma():
    pair, inv, _ = random_pair(E1, E1, 1, seed=7)
    cent = centralizer(pair)
    assert [f.degree for f in cent.factors] == [1]
    gg = cent.gamma_group()
    assert [g.shift for g in gg.gens] == [2]
    # centralizer elements commute with w
    w = w_element(pair)
    for b in cent.basis:
        assert (b * w - w * b).same(Matrix.zero(F, 2))


def _commutant_pair(q, kind_b):
    """An n = 1 pair over F_q((pi)), or for kind_b None the rank-4 direct sum
    of two n = 1 pairs at q = 3."""
    if kind_b is None:
        return direct_sum(*(random_pair(E1, E1, 1, seed=s)[0] for s in (1, 3)))
    field = LocalField(q)
    e1 = build_quadratic(UNRAMIFIED, field)
    return random_pair(e1, build_quadratic(kind_b, field), 1, seed=q)[0]


@pytest.mark.parametrize("q, kind_b", [(2, UNRAMIFIED), (3, UNRAMIFIED), (3, RAMIFIED),
                                       (9, UNRAMIFIED), (9, RAMIFIED), (3, None)])
def test_commutant_matches_the_index_oracle(q, kind_b):
    # the joint kernel of the commutator forms, placed entry by entry, has
    # dimension n and is spanned by 1, w, ..., w^(n-1), and by the basis
    # that centralizer reads off w
    pair = _commutant_pair(q, kind_b)
    field, size, n = pair.field, 2 * pair.n, pair.n
    ker = kernel_basis(commutator_rows(field, [pair.A, pair.B], size), zeroish_ok=True)
    assert len(ker) == n
    w = w_element(pair)
    powers = [Matrix.identity(field, size)]
    for _ in range(n - 1):
        powers.append(powers[-1] * w)
    for mats in (powers, centralizer(pair).basis):
        vecs = [[x for r in m.rows for x in r] for m in mats]
        assert mat_rank(Matrix(field, vecs), zeroish_ok=True) == n
        assert mat_rank(Matrix(field, [list(v) for v in ker] + vecs),
                        zeroish_ok=True) == n


def test_centralizer_wrong_dimension_on_degenerate():
    std = standard_embedding(E1, 1)
    with pytest.raises(WrongDimension):
        centralizer(EmbeddingPair(E1, E1, std, std))


def test_centralizer_of_a_doubled_pair_has_the_wrong_dimension():
    # direct_sum(p, p) has an invertible AB - BA, but w = diag(w0, w0) has
    # a minimal polynomial of degree 1 < 2: the commutant is M_2(F), of
    # dimension 4, and F[w] is F
    p, _, _ = random_pair(E1, E1, 1, seed=1)
    pp = direct_sum(p, p)
    assert not mat_det(pp.A * pp.B - pp.B * pp.A).is_exact_zero
    with pytest.raises(WrongDimension):
        centralizer(pp)


def test_centralizer_n2():
    p0, _, _ = random_pair(E1, E1, 1, seed=1)
    p1, _, _ = random_pair(E1, E1, 1, seed=3)
    cent = centralizer(direct_sum(p0, p1))
    assert sorted(f.degree for f in cent.factors) == [1, 1]
    gg = cent.gamma_group()
    assert sorted(g.shift for g in gg.gens) == [2, 2]


def test_centralizer_with_a_degree_two_factor():
    # an n = 2 pair that is no direct sum: its centralizer is one ramified
    # field of degree 2, so the uniformizer is not the scalar pi
    pair, _, _ = random_pair(E1, E1, 2, seed=0)
    cent = centralizer(pair)
    assert [f.degree for f in cent.factors] == [2]
    gamma = cent.factors[0].gamma
    assert not gamma.same(Matrix.identity(F, 4).scale(F.pi()))
    z = Matrix.zero(F, 4)
    assert (gamma * pair.A - pair.A * gamma).same(z)
    assert (gamma * pair.B - pair.B * gamma).same(z)
    assert [g.shift for g in cent.gamma_group().gens] == [2]


def test_centralizer_factored_through_the_reciprocal_polynomial():
    # the n = 3 pair at q = 3, seed 4, and its matched partner: the minimal
    # polynomial of w's rescaling has a non-integral smallest root
    # valuation and an integral largest one, so hensel_factor factors the
    # reciprocal polynomial
    pair, inv, _ = random_pair(E1, E1, 3, seed=4)
    alpha, _ = match_alpha(inv.delta, E0, inv.target)
    for p in (pair, alpha):
        assert sorted((f.degree, mat_det(f.gamma).valuation())
                      for f in centralizer(p).factors) == [(1, 2), (2, 2)]


def test_factor_uniformizer_combines_valuations_by_bezout():
    # x^2 = pi^3 on the whole space: x has det valuation 3, pi has 2, and
    # x pi^-1 is a uniformizer of F[x] = F(pi^(3/2))
    x = Matrix(F, [[F.zero, F.pi(3)], [F.one, F.zero]])
    ident = Matrix.identity(F, 2)
    mj = Poly(F, [-F.pi(3), F.zero, F.one])
    gamma = _factor_uniformizer(F, x, ident, mj, ident)
    assert (gamma * x - x * gamma).same(Matrix.zero(F, 2))
    assert mat_det(gamma).valuation() == 1
    assert gamma == Matrix(F, [[F.zero, F.pi(2)], [F.pi(-1), F.zero]])


def test_factor_uniformizer_falls_back_to_pi_on_an_unramified_factor():
    # T^2 + T + 2 is irreducible over F_3, so x - a is a unit for every
    # residue a: no shift has positive determinant valuation, and the
    # factor's uniformizer is pi
    mj = Poly(F, [F.from_int(2), F.one, F.one])
    x = _companion(mj)
    ident = Matrix.identity(F, 2)
    for a in range(F.q):
        assert mat_det(x - ident.scale(F.from_fq(a))).valuation() == 0
    gamma = _factor_uniformizer(F, x, ident, mj, ident)
    assert gamma == ident.scale(F.pi())
    assert (gamma * x - x * gamma).same(Matrix.zero(F, 2))
    assert mat_det(gamma).valuation() == 2


def test_factor_uniformizer_peels_a_power_of_pi():
    # x = pi (1 + y) with y^2 = pi: x has det valuation 2, as pi does, but
    # F[x] = F(pi^(1/2)) is ramified; x pi^-1 - 1 = y is its uniformizer
    y = Matrix(F, [[F.zero, F.pi()], [F.one, F.zero]])
    ident = Matrix.identity(F, 2)
    x = (ident + y).scale(F.pi())
    mj = Poly(F, [F.pi(2) - F.pi(3), -(F.from_int(2) * F.pi()), F.one])
    assert mj(x).same(Matrix.zero(F, 2))
    gamma = _factor_uniformizer(F, x, ident, mj, ident)
    assert gamma == y
    assert mat_det(gamma).valuation() == 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_matched_centralizers_have_uniformizers_of_equal_valuation(q):
    # a rank-4 pair and its match_alpha partner have isomorphic
    # centralizers, so their Gamma generators have the same determinant
    # valuation factor by factor; a ramified factor whose primitive
    # element is pi times a unit once got pi, of twice the valuation
    field = LocalField(q)
    e0 = build_quadratic(SPLIT, field)
    for e1, e2 in ((RAMIFIED, UNRAMIFIED), (UNRAMIFIED, RAMIFIED),
                   (UNRAMIFIED, UNRAMIFIED)):
        for seed in range(4):
            pair, inv, _ = random_pair(build_quadratic(e1, field),
                                       build_quadratic(e2, field), 2, seed)
            alpha, _ = match_alpha(inv.delta, e0, inv.target)
            vals = [sorted((f.degree, mat_det(f.gamma).valuation())
                           for f in centralizer(p).factors) for p in (pair, alpha)]
            assert vals[0] == vals[1], (e1, e2, seed)


def test_factor_uniformizer_raises_on_an_undetermined_determinant():
    # x^2 = pi^3 with the corner known only modulo pi^3: det(x) = -O(pi^3)
    # has no certified digit, so the residue shift a = 0 cannot be ranked,
    # and the search raises instead of passing it over and falling back to
    # pi, which is not a uniformizer of F(pi^(3/2))
    x = Matrix(F, [[F.zero, F.o_term(3)], [F.one, F.zero]])
    ident = Matrix.identity(F, 2)
    mj = Poly(F, [-F.pi(3), F.zero, F.one])
    with pytest.raises(PrecisionExhausted):
        _factor_uniformizer(F, x, ident, mj, ident)


def test_match_alpha_roundtrip_split_target():
    for s in range(4):
        pair, inv, _ = random_pair(E1, E1, 1, seed=s)
        alpha, ainv = match_alpha(inv.delta, E0, E3)
        assert all(x.same(y) for x, y in zip(ainv.delta.coeffs, inv.delta.coeffs))
        # idempotent relations of the first embedding
        P = alpha.A
        assert (P * P).same(P)
        ident = Matrix.identity(F, 2)
        assert (P + (ident - P)).same(ident)


def test_match_alpha_roundtrip_field_target():
    for s in range(3):
        pair, inv, _ = random_pair(E1, E2R, 1, seed=s)
        alpha, ainv = match_alpha(inv.delta, E0, inv.target)
        assert all(x.same(y) for x, y in zip(ainv.delta.coeffs, inv.delta.coeffs))


def test_match_alpha_n2():
    p0, i0, _ = random_pair(E1, E1, 1, seed=1)
    p1, i1, _ = random_pair(E1, E1, 1, seed=3)
    ds_inv = invariant(direct_sum(p0, p1))
    alpha, ainv = match_alpha(ds_inv.delta, E0, E3)
    assert all(x.same(y) for x, y in zip(ainv.delta.coeffs, ds_inv.delta.coeffs))


def test_match_alpha_family_relation():
    # every family member satisfies the quadratic relation of the target
    pair, inv, _ = random_pair(E1, E1, 1, seed=2)
    alpha, _ = match_alpha(inv.delta, E0, E3)
    C = alpha.B
    ident = Matrix.identity(F, 2)
    rel = C * C - C.scale(E3.tr) + ident.scale(E3.nm)
    assert rel.same(Matrix.zero(F, 2))


# -- precision honesty of the set-up ----------------------------------------------

_KINDS = (SPLIT, UNRAMIFIED, RAMIFIED)


def _invariant_configs():
    """(q, e1, e2) for every configuration the invariant command accepts:
    e2 split only when e1 is, not both ramified, and in characteristic 2
    neither ramified nor (split, unramified)."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for e1 in _KINDS:
            for e2 in _KINDS:
                if ((e2 == SPLIT and e1 != SPLIT) or e1 == e2 == RAMIFIED
                        or (q % 2 == 0 and (RAMIFIED in (e1, e2)
                                            or (e1, e2) == (SPLIT, UNRAMIFIED)))):
                    continue
                yield q, e1, e2


def test_random_unimodular_inverse_is_exact():
    # the unitriangular factors are inverted by elimination on their exact
    # unit pivots, so g_inv is exact and g * g_inv is exactly the identity
    rng = random.Random(0)
    for q in (2, 3, 9):
        field = LocalField(q)
        for size in (2, 4, 6):
            g, g_inv = random_unimodular(field, size, rng)
            prod = g * g_inv
            assert all(x.is_exact for row in g_inv.rows for x in row)
            assert all(x.is_exact for row in prod.rows for x in row)
            assert prod.same(Matrix.identity(field, size))


@pytest.mark.parametrize("q, e1, e2", list(_invariant_configs()))
def test_invariant_claims_only_digits_a_finer_run_confirms(q, e1, e2):
    # the same seeded pair at N = 8 and at 2N: every digit the N-run
    # certifies in the invariant (Berkowitz, then poly_sqrt) and, on a
    # split first algebra, in the eigenprojectors is the 2N-run's digit.
    # With each entry of the N-run's pair known to only k digits above its
    # valuation, the invariant certifies only 2N-run digits or raises
    # PrecisionExhausted.
    from test_factor import _N, _agrees

    def digits(delta):
        return [x for c in delta.coeffs for x in (c.a, c.b)]

    def build(prec, n, seed):
        field = LocalField(q, prec)
        pair, inv, tries = random_pair(build_quadratic(e1, field),
                                       build_quadratic(e2, field), n, seed)
        claims = digits(inv.delta)
        if e1 == SPLIT:
            claims += [x for proj in pair.Ea.eigen_projectors(pair.A)
                       for row in proj.rows for x in row]
        return pair, tries, claims

    def blurred(pair, k):
        def blur(x):
            return x if x.is_exact_zero else x.truncate(x.valuation() + k)
        return EmbeddingPair(pair.Ea, pair.Eb, pair.A.map(blur),
                             pair.B.map(blur), check=False)

    for n, seeds in ((1, range(3)), (2, range(1))):
        for seed in seeds:
            low, high = build(_N, n, seed), build(2 * _N, n, seed)
            assert low[1] == high[1]
            assert all(_agrees(x, y) for x, y in zip(low[2], high[2], strict=True))
            for k in (2, 3, 5, 7):
                try:
                    blur = digits(invariant(blurred(low[0], k)).delta)
                except PrecisionExhausted:
                    continue
                # the invariant's digits lead the 2N-run's claims
                assert all(_agrees(x, y) for x, y in zip(blur, high[2]))
