import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fflab import lattices
from fflab.errors import PrecisionExhausted, SingularBasis, UnstableBase
from fflab.etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic
from fflab.lattices import (GammaGenerator, GammaGroup, SplitStableFamily,
                            StableFamily, canonicalize, chains, column_space_basis,
                            count_chains, from_generators, in_lattice, index,
                            lattice_leq, lattices_at_position,
                            relative_position, smith_exponents, span_index,
                            stable_family, stable_lattices, standard_lattice,
                            sublattices_of_index, superlattices_of_index)
from fflab.linalg import Matrix, mat_det, mat_inverse, row_echelon
from fflab.localfield import LocalField
from fflab.orbital import _stable_families
from fflab.pairs import direct_sum, match_alpha, random_pair, standard_embedding
import oracles
from oracles import (in_fundamental_box, reduce_stack, smith_form,
                     split_neighbor_stacks, triangular_inverse)

F = LocalField(3)
one, pi = F.one, F.pi()
std2 = standard_lattice(F, 2)


def test_canonicalize_identity_and_idempotence():
    assert standard_lattice(F, 2).diag == (0, 0)
    L = canonicalize(F, Matrix(F, [[pi, F.zero], [one, one]]))
    assert L.diag == (1, 0)
    assert canonicalize(F, L.basis) == L


def test_canonicalize_unimodular_invariance():
    rng = random.Random(1)
    for _ in range(8):
        g = Matrix(F, [[F.random_element(rng, -1, 2) for _ in range(2)]
                       for _ in range(2)])
        try:
            lg = canonicalize(F, g)
        except SingularBasis:
            continue
        u = Matrix(F, [[one, F.random_element(rng, 0, 2)], [F.zero, one]])
        assert canonicalize(F, g * u) == lg


def test_singular_rejected():
    with pytest.raises(SingularBasis):
        canonicalize(F, Matrix(F, [[one, one], [one, one]]))


def test_index_examples():
    piL = canonicalize(F, Matrix.diagonal(F, [pi, pi]))
    assert index(std2, piL) == 2
    mixed = canonicalize(F, Matrix.diagonal(F, [pi, F.pi(-1)]))
    assert index(std2, mixed) == 0
    assert index(std2, std2) == 0


def test_index_additive_in_towers():
    rng = random.Random(2)
    subs = list(sublattices_of_index(std2, 1))
    for a in subs[:3]:
        for b in sublattices_of_index(a, 2):
            assert index(std2, b) == index(std2, a) + index(a, b)


def test_relative_position():
    piL = canonicalize(F, Matrix.diagonal(F, [pi, pi]))
    assert relative_position(std2, piL) == (1, 1)
    d = canonicalize(F, Matrix.diagonal(F, [pi, one]))
    assert relative_position(std2, d) == (1, 0)
    # sum of entries equals the index
    for sub in sublattices_of_index(std2, 3):
        assert sum(relative_position(std2, sub)) == 3


def test_relative_position_invariance():
    rng = random.Random(3)
    subs = list(sublattices_of_index(std2, 2))
    for _ in range(5):
        while True:
            g = Matrix(F, [[F.random_element(rng, 0, 1) for _ in range(2)]
                           for _ in range(2)])
            if mat_det(g).coeffs:
                break
        l1, l2 = subs[0], subs[5]
        gl1 = canonicalize(F, g * l1.basis)
        gl2 = canonicalize(F, g * l2.basis)
        assert relative_position(gl1, gl2) == relative_position(l1, l2)


def test_sublattice_counts_brute_force():
    # rank 2: sum_{j<=k} q^j lattices of index k
    for k in (0, 1, 2, 3):
        subs = list(sublattices_of_index(std2, k))
        assert len(subs) == len(set(subs))
        assert len(subs) == sum(3 ** j for j in range(k + 1))


def test_superlattices_dual_route():
    piL = canonicalize(F, Matrix.diagonal(F, [pi, pi]))
    sups = list(superlattices_of_index(piL, 1))
    assert len(sups) == 4
    assert all(lattice_leq(piL, s) and index(s, piL) == 1 for s in sups)


def test_lattices_at_position():
    assert len(list(lattices_at_position(std2, (1, 0)))) == 4
    assert len(list(lattices_at_position(std2, (0, -1)))) == 4
    assert list(lattices_at_position(std2, (0, 0))) == [std2]


def test_count_chains():
    piL = canonicalize(F, Matrix.diagonal(F, [pi, pi]))
    assert count_chains(piL, std2, (1, 1)) == 4
    assert count_chains(piL, std2, (2,)) == 1
    assert count_chains(piL, std2, (1,)) == 0
    assert count_chains(std2, std2, ()) == 1
    std3 = standard_lattice(F, 3)
    low = canonicalize(F, Matrix.diagonal(F, [pi, pi, F.pi(2)]))
    cases = [(piL, std2, m) for m in ((1, 1), (2,), (1,), (0, 2), (2, 0))]
    cases += [(std2, std2, ()), (std2, std2, (0,)), (std2, piL, (2,))]
    cases += [(low, std3, m) for m in ((1, 1, 2), (2, 2), (1, 3), (0, 4))]
    for l0, lr, m in cases:
        found = chains(l0, lr, m)
        assert count_chains(l0, lr, m) == len(found)
        assert len({tuple(x.key() for x in ch) for ch in found}) == len(found)
        for ch in found:
            assert ch[0] == l0 and ch[-1] == lr and len(ch) == len(m) + 1
            for a, b, step in zip(ch, ch[1:], m):
                assert lattice_leq(a, b) and index(b, a) == step
    assert len(chains(low, std3, (1, 1, 2))) > 0


def _greedy_column_basis(field, mat):
    """Oracle: keep each column that stays independent of those kept, one
    fresh elimination per trial."""
    kept = []
    for c in mat.columns():
        trial = kept + [c]
        if len(row_echelon(Matrix.from_columns(field, trial), zeroish_ok=True).pivots) \
                == len(trial):
            kept.append(c)
    return kept


def _column_entry(field, rng):
    roll = rng.random()
    if roll < 0.25:
        return field.zero
    if roll < 0.35:
        return field.o_term(rng.randint(0, 3))
    x = field.random_element(rng, 0, 2, terms=rng.randint(1, 3))
    return x.truncate(x.val + rng.randint(1, 3)) if roll < 0.45 else x


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 9]), nrows=st.integers(1, 5),
       ncols=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
def test_column_space_basis_matches_greedy(q, nrows, ncols, seed):
    field = LocalField(q)
    rng = random.Random(seed)
    cols = [[_column_entry(field, rng) for _ in range(nrows)] for _ in range(ncols)]
    for j in range(1, ncols):
        if rng.random() < 0.3:
            cols[j] = list(cols[rng.randrange(j)])
    mat = Matrix.from_columns(field, cols)
    got = column_space_basis(mat)
    want = _greedy_column_basis(field, Matrix.from_columns(field, cols))
    assert [[x.key() for x in c] for c in got] == [[x.key() for x in c] for c in want]


def test_stable_lattices_unramified_rank2():
    E = build_quadratic(UNRAMIFIED, F)
    J = Matrix(F, [[F.zero, -E.nm], [one, E.tr]])
    ball = stable_lattices(F, J, E, 2, std2)
    assert sorted(l.det_valuation for l in ball) == [-4, -2, 0, 2, 4]
    assert all(all(in_lattice(l, J.apply(l.basis.column(j))) for j in range(2))
               for l in ball)


def test_stable_lattices_rank4_count():
    E = build_quadratic(UNRAMIFIED, F)
    J2 = Matrix(F, [[F.zero, -E.nm], [one, E.tr]])
    J = Matrix.block_diag(F, [J2, J2])
    ball = stable_lattices(F, J, E, 1, standard_lattice(F, 4))
    # neighbors are the q^2+1 residue lines and as many hyperplanes
    assert len(ball) == 1 + 2 * (3 ** 2 + 1)
    assert len(set(ball)) == len(ball)


def test_stable_lattices_split():
    E0 = build_quadratic(SPLIT, F)
    J = Matrix(F, [[one, F.zero], [F.zero, F.zero]])
    ball = stable_lattices(F, J, E0, 1, std2)
    assert len(ball) == 9  # 3 x 3 component moves
    # rank 4 at q = 2: each rank-2 component has 1 + 2(q+1) lattices within
    # one move, and the ball is their product
    F2 = LocalField(2)
    J4 = Matrix.diagonal(F2, [F2.one, F2.one, F2.zero, F2.zero])
    ball = stable_lattices(F2, J4, build_quadratic(SPLIT, F2), 1,
                           standard_lattice(F2, 4))
    assert len(set(ball)) == len(ball) == (1 + 2 * 3) ** 2


@pytest.mark.parametrize("q, top", [(2, 2), (3, 1)])
def test_split_family_moves_match_brute_force(q, top):
    # the rank-4 direct sum of two matched pairs, as in suite_thm212's
    # unramified configuration; both of its stable families are split
    Fq = LocalField(q)
    E0 = build_quadratic(SPLIT, Fq)
    E1 = build_quadratic(UNRAMIFIED, Fq)
    alphas = []
    for seed in (1, 3):
        _, inv, _ = random_pair(E1, E1, 1, seed=seed)
        alphas.append(match_alpha(inv.delta, E0, inv.target)[0])
    for fam in _stable_families(direct_sum(*alphas)):
        assert isinstance(fam, SplitStableFamily)
        L = fam.base
        moves = [canonicalize(Fq, s) for s in split_neighbor_stacks(fam, L)]
        brute = {M for M in itertools.chain(sublattices_of_index(L, 1),
                                            superlattices_of_index(L, 1))
                 if fam.is_stable(M)}
        assert len(set(moves)) == len(moves) == 2 * 2 * (q + 1)
        assert set(moves) == brute
        ups = [canonicalize(Fq, fam._stack(*pair))
               for pair in fam.stable_superlattices(L, top)]
        assert len(set(ups)) == len(ups)
        assert set(ups) == {M for M in superlattices_of_index(L, top)
                            if fam.is_stable(M)}


@pytest.mark.parametrize("q, kind, n, top", [
    (2, UNRAMIFIED, 1, 3), (3, UNRAMIFIED, 1, 3), (3, RAMIFIED, 1, 3),
    (3, UNRAMIFIED, 2, 2), (3, RAMIFIED, 2, 2)])
def test_stable_superlattices_match_brute_force(q, kind, n, top):
    # a field family walks extra_index / residue_f up-moves, and none when
    # residue_f does not divide it; the oracle filters every superlattice
    Fq = LocalField(q)
    E = build_quadratic(kind, Fq)
    fam = stable_family(Fq, standard_embedding(E, n), E, standard_lattice(Fq, 2 * n))
    assert not isinstance(fam, SplitStableFamily)
    L = fam.base
    for k in range(top + 1):
        ups = fam.stable_superlattices(L, k)
        assert len(set(ups)) == len(ups)
        assert set(ups) == {M for M in superlattices_of_index(L, k)
                            if fam.is_stable(M)}


def _smith_stable_subspaces(field, H, Jmat, dims):
    """oracles._stable_subspaces through the Smith form R H C of the
    quotient: its torsion coordinates are the exponent-1 rows of R, the
    residue action is that of R Jmat R^-1 there, and a subspace lifts
    through R^-1."""
    g = field.gf
    m = H.rank
    R, D, _ = smith_form(H.basis)
    if len(D) < m or any(e not in (0, 1) for e in D):
        raise UnstableBase("quotient by pi_E is not elementary")
    torsion = [i for i in range(m) if D[i] == 1]
    Rinv = mat_inverse(R)
    act = R * Jmat * Rinv
    A = [[act.rows[i][j].coeff(0) for j in torsion] for i in torsion]
    out = []
    for dim in dims:
        subs = []
        for W in lattices._subspaces_of_dim(g, len(torsion), dim):
            if lattices._fq_subspace_stable(g, A, W):
                subs.append([Rinv.apply([field.from_fq(w[torsion.index(i)])
                                         if i in torsion else field.zero
                                         for i in range(m)]) for w in W])
        out.append(subs)
    return out


@pytest.mark.parametrize("q, kind, radius", [
    (2, UNRAMIFIED, 1), (3, UNRAMIFIED, 1), (3, RAMIFIED, 2), (5, RAMIFIED, 2),
    (9, RAMIFIED, 1)])
def test_stable_moves_match_the_smith_route(q, kind, radius, monkeypatch):
    # the moves read off the residue matrix of L^-1 J L are, on every
    # lattice of a rank-2 ball and a rank-4 ball of the given radius, those
    # of the elimination route with its residue subspaces taken through
    # the Smith form; the order differs where the two routes take
    # different residue coordinates (most lattices of a rank-4 ramified
    # family)
    Fq = LocalField(q)
    E = build_quadratic(kind, Fq)
    fams = [stable_family(Fq, standard_embedding(E, n), E, standard_lattice(Fq, 2 * n))
            for n in (1, 2)]
    balls = [fams[0].ball(2), fams[1].ball(radius)]
    monkeypatch.setattr(oracles, "_stable_subspaces", _smith_stable_subspaces)
    for fam, ball in zip(fams, balls):
        assert len(ball) > 1
        for L in ball:
            got = [canonicalize(Fq, s) for s in fam.neighbor_stacks(L)]
            want = [canonicalize(Fq, s)
                    for s in oracles.residue_neighbor_stacks(fam, L)]
            assert len(got) == len(want) == len(set(got))
            assert set(got) == set(want)


@pytest.mark.parametrize("q, n, radius", [
    (2, 1, 2), (3, 1, 2), (9, 1, 2), (2, 2, 2), (3, 2, 2), (9, 2, 1)])
def test_unramified_pi_e_hermite_form_is_a_constant(q, n, radius):
    # L^-1 pi_E L = pi I on every lattice of an unramified family, so its
    # residue spans are the stable subspaces of all of F_q^m and it takes
    # no Hermite form per lattice (the rank-4 ball at q = 9 has 20,093
    # lattices at radius 2)
    Fq = LocalField(q)
    E = build_quadratic(UNRAMIFIED, Fq)
    fam = stable_family(Fq, standard_embedding(E, n), E, standard_lattice(Fq, 2 * n))
    ball = fam.ball(radius)
    assert len(ball) > 1
    for L in ball:
        H = canonicalize(Fq, L.inverse() * (fam.pi_e_mat * L.basis))
        assert H.key() == canonicalize(Fq, fam.pi_e_mat).key()


# the field families of the residue-move test: unramified at every q and
# ramified at odd q, ranks 2 and 4
_FIELD_FAMILIES = [(q, kind, n) for q in (2, 3, 4, 5, 7, 8, 9)
                   for kind in (UNRAMIFIED, RAMIFIED) if kind == UNRAMIFIED or q % 2
                   for n in (1, 2)]


@functools.lru_cache(maxsize=None)
def _field_ball(q, kind, n):
    """A field family on the standard lattice and its ball: radius 2, or
    radius 1 for the rank-4 unramified families at q >= 4, whose radius-2
    balls hold 853 to about 20,000 lattices."""
    Fq = LocalField(q)
    E = build_quadratic(kind, Fq)
    fam = stable_family(Fq, standard_embedding(E, n), E, standard_lattice(Fq, 2 * n))
    return fam, fam.ball(1 if n == 2 and kind == UNRAMIFIED and q >= 4 else 2)


def _oracle_superlattices(fam, lat, extra_index):
    """stable_superlattices by breadth-first search over the up-moves of
    the elimination route, the moves that lower the determinant valuation."""
    moves, rest = divmod(extra_index, fam.residue_f)
    if rest:
        return []
    layer, seen = [lat], {lat.key()}
    for _ in range(moves):
        new = []
        for l in layer:
            for s in oracles.residue_neighbor_stacks(fam, l):
                M = canonicalize(fam.field, s)
                if index(l, M) < 0 and M.key() not in seen:
                    seen.add(M.key())
                    new.append(M)
        layer = new
    return layer


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELD_FAMILIES), st.integers(min_value=0, max_value=2 ** 32))
def test_residue_moves_match_the_elimination_route(family, pick):
    # on a lattice of the family's ball, the moves built as lat Y from
    # their residue spans are those of the elimination route, in order, and
    # each is square and upper triangular with an exact monomial diagonal,
    # so canonicalize takes the final reduction alone
    fam, ball = _field_ball(*family)
    L = ball[pick % len(ball)]
    stacks = fam.neighbor_stacks(L)
    for s in stacks:
        rows = s.rows
        assert s.nrows == s.ncols == L.rank
        assert all(rows[i][i].coeffs == (1,) and rows[i][i].is_exact
                   and all(x.is_exact_zero for x in rows[i][:i])
                   for i in range(L.rank))
    assert ([canonicalize(fam.field, s).key() for s in stacks]
            == [canonicalize(fam.field, s).key()
                for s in oracles.residue_neighbor_stacks(fam, L)])
    for k in (1, 2):
        assert ([M.key() for M in fam.stable_superlattices(L, k)]
                == [M.key() for M in _oracle_superlattices(fam, L, k)])


@pytest.mark.parametrize("rows, pivots", [([[1, 0], [0, "pi2"]], (0, 2)),
                                          ([["pi", 1], [0, "pi"]], (1, 1))])
def test_non_elementary_quotient_is_unstable(rows, pivots):
    # Smith exponents (0, 2); in the second case the Hermite pivots are
    # (1, 1), with a unit above the second pivot.  As a ramified pi_E, the
    # quotient O^2 / Cmat O^2 has length 2 but a residue image of rank 1
    entry = {0: F.zero, 1: one, "pi": pi, "pi2": F.pi(2)}
    Cmat = Matrix(F, [[entry[x] for x in row] for row in rows])
    assert smith_exponents(Cmat) == (2, 0)
    assert canonicalize(F, Cmat).diag == pivots
    fam = StableFamily(F, Cmat, build_quadratic(RAMIFIED, F), std2)
    with pytest.raises(UnstableBase):
        fam.neighbor_stacks(std2)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_ramified_residue_matrix_squares_to_zero(q):
    # J^2 = pi u, so the residue matrix of L^-1 J L squares to zero, and
    # L / J L is elementary of length m / 2, so its rank is m / 2 (the
    # number of Smith exponents 0): every lattice of the ramified rank-2
    # and rank-4 balls satisfies what _residue_spans raises on otherwise
    for n in (1, 2):
        fam, ball = _field_ball(q, RAMIFIED, n)
        assert len(ball) > 1
        for L in ball:
            j = L.inverse() * (fam.J * L.basis)
            assert all(x.coeff(0) == 0 for row in (j * j).rows for x in row)
            assert smith_exponents(j).count(0) == n


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fq_subspace_stability_matches_brute_force(q):
    # on every subspace _subspaces_of_dim yields, W is stable under A exactly
    # when each A w is among the q^dim F_q-combinations of W's rows; half the
    # matrices are diagonal, so both answers occur, and q = 4 has a residue
    # field that is not prime
    g = LocalField(q).gf
    rng = random.Random(q)

    def combine(coeffs, vecs, t):
        out = [0] * t
        for c, v in zip(coeffs, vecs):
            out = [g.add(a, g.mul(c, b)) for a, b in zip(out, v)]
        return out

    seen = set()
    for t in (1, 2, 3):
        for trial in range(6):
            A = [[rng.randrange(q) if trial % 2 or i == j else 0 for j in range(t)]
                 for i in range(t)]
            columns = list(zip(*A))
            for dim in range(t + 1):
                for W in lattices._subspaces_of_dim(g, t, dim):
                    span = {tuple(combine(c, W, t))
                            for c in itertools.product(range(q), repeat=dim)}
                    want = all(tuple(combine(w, columns, t)) in span for w in W)
                    assert lattices._fq_subspace_stable(g, A, W) == want
                    seen.add(want)
    assert seen == {True, False}


def test_unstable_base_rejected():
    E = build_quadratic(RAMIFIED, F)
    J = Matrix(F, [[F.zero, -E.nm], [one, E.tr]])
    bad = canonicalize(F, Matrix.diagonal(F, [F.pi(2), one]))
    with pytest.raises(UnstableBase):
        stable_family(F, J, E, bad)


def test_stable_closed_under_centralizer_spot():
    # multiplication by the generator preserves the stable family
    E = build_quadratic(UNRAMIFIED, F)
    J = Matrix(F, [[F.zero, -E.nm], [one, E.tr]])
    fam = stable_family(F, J, E, std2)
    ball = fam.ball(1)
    for l in ball[:4]:
        moved = canonicalize(F, J * l.basis)
        assert fam.is_stable(moved)


def test_gamma_reduction():
    gen = GammaGenerator(Matrix.identity(F, 2).scale(pi),
                         Matrix.identity(F, 2))
    gg = GammaGroup(F, [gen])
    assert gen.shift == 2
    l = canonicalize(F, Matrix.diagonal(F, [F.pi(3), F.pi(2)]))
    r1 = reduce_stack(gg, l.basis)
    l2 = canonicalize(F, Matrix.diagonal(F, [pi, one]))
    r1b = reduce_stack(gg, l2.basis)
    assert r1 == r1b  # same orbit, same representative
    assert in_fundamental_box(gg, r1)
    assert gg.reduce(l) == gg.reduce(l2) == r1
    assert gg.reduce(r1) is r1  # a lattice in the box is its own rep


def test_scalar_generators_reduce_without_a_canonical_form(monkeypatch):
    # a generator c*I moves a canonical lattice to a scaled canonical one,
    # so reduce takes no canonical form, and gives reduce_stack's rep; a
    # generator that is not scalar is flagged None and still canonicalizes
    ident = Matrix.identity(F, 2)
    unit_pi = F.from_int(2) * pi
    cases = [(GammaGenerator(ident.scale(pi), ident), 1),
             (GammaGenerator(ident.scale(unit_pi * unit_pi), ident), 2),
             (GammaGenerator(Matrix.diagonal(F, [pi, F.pi(2)]), ident), None),
             (GammaGenerator(Matrix(F, [[pi, pi], [F.zero, pi]]), ident), None)]
    lats = [L.scale(s) for L in sublattices_of_index(std2, 2) for s in (-3, 0, 4)]
    real, calls = lattices.canonicalize, []

    def counting(field, basis):
        calls.append(basis)
        return real(field, basis)

    for gen, k in cases:
        assert gen.scalar == k
        gg = GammaGroup(F, [gen])
        want = [reduce_stack(gg, L.basis) for L in lats]
        monkeypatch.setattr(lattices, "canonicalize", counting)
        got = [gg.reduce(L) for L in lats]
        monkeypatch.setattr(lattices, "canonicalize", real)
        assert [r.key() for r in got] == [r.key() for r in want]
        assert bool(calls) == (k is None)
        calls.clear()


# -- the floor-stopped Smith sweep ----------------------------------------------


def _laurent_matrix(field, rng, m):
    """A seeded m x m matrix of exact entries of valuation -3..2, a quarter
    of them exact zeros."""
    return Matrix(field, [[field.zero if rng.random() < 0.25
                           else field.random_element(rng, -3, 2)
                           for _ in range(m)] for _ in range(m)])


def _membership(test, lat, vector):
    try:
        return test(lat, vector)
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("q", [2, 3, 9])
def test_in_lattice_and_inverse_match_the_triangular_oracles(q):
    # lattice vectors, vectors off the lattice by a pi^-1 coordinate, and
    # both blurred by O(pi^k) entries
    field = LocalField(q)
    rng = random.Random(q)
    seen = set()
    for trial in range(80):
        m = 1 + trial % 4
        try:
            lat = canonicalize(field, _laurent_matrix(field, rng, m))
        except (SingularBasis, PrecisionExhausted):
            continue
        assert [[x.key() for x in r] for r in lat.inverse().rows] == \
            [[x.key() for x in r] for r in triangular_inverse(lat).rows]
        for _ in range(6):
            coords = [field.random_element(rng, -1 if rng.random() < 0.3 else 0, 2)
                      for _ in range(m)]
            v = lat.basis.apply(coords)
            if rng.random() < 0.5:
                v = [x + field.o_term(rng.randint(-2, 4)) if rng.random() < 0.5 else x
                     for x in v]
            got = _membership(in_lattice, lat, v)
            assert got == _membership(oracles.in_lattice, lat, v)
            seen.add(got)
    assert seen == {True, False, PrecisionExhausted}


@pytest.mark.parametrize("q", [2, 3])
def test_span_index_of_invertible_matrices(q):
    # minus the sum of the negative Smith exponents
    field = LocalField(q)
    rng = random.Random(q)
    seen = set()
    for trial in range(60):
        mat = _laurent_matrix(field, rng, 1 + trial % 4)
        try:
            exps = smith_exponents(mat)
        except (SingularBasis, PrecisionExhausted):
            continue  # singular, or its zero remainder is not certified
        want = -sum(min(0, d) for d in exps)
        assert span_index(mat) == want
        seen.add(want)
    assert len(seen) > 3


@pytest.mark.parametrize("q", [2, 3])
def test_span_index_of_singular_matrices(q):
    # [O^m + M O^m : O^m] read off the canonical form of [I | M]
    field = LocalField(q)
    rng = random.Random(10 + q)
    seen = set()
    for trial in range(30):
        m = 2 + trial % 3
        d = [field.pi(rng.randint(-2, 2)) for _ in range(m - 1)] + [field.zero]
        mat = (_laurent_matrix(field, rng, m) * Matrix.diagonal(field, d)
               * _laurent_matrix(field, rng, m))
        want = index(canonicalize(field, Matrix.identity(field, m).hstack(mat)),
                     standard_lattice(field, m))
        assert span_index(mat) == want
        seen.add(want)
    assert len(seen) > 3


def test_span_index_raises_rather_than_stop_short():
    o, z = F.one, F.zero
    # an integral undetermined entry beside the pivot is no obstacle
    assert span_index(Matrix(F, [[F.pi(-1), F.o_term(0)], [z, o]])) == 1
    # after the pivot pi^-2, O(pi^-1) may hide a further negative exponent
    with pytest.raises(PrecisionExhausted):
        span_index(Matrix(F, [[F.pi(-2), z], [z, F.o_term(-1)]]))
    # O(pi^-2) may hide a pivot below pi^-1
    with pytest.raises(PrecisionExhausted):
        span_index(Matrix(F, [[F.pi(-1), F.o_term(-2)], [z, o]]))
