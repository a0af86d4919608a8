from fractions import Fraction

import pytest

from fflab.errors import NoSolution
from fflab.etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic
from fflab.lattices import canonicalize, from_generators, index, standard_lattice
from fflab.linalg import Matrix
from fflab.localfield import LocalField
from fflab.pairs import direct_sum, invariant, random_pair
from fflab.reduction import (HomSystem, LatticeChain, PhiMap, SplitScenario,
                             closed_composite_exponent, closed_pair_exponent,
                             closed_phi_exponent, fiber_count_exponent, hom_lattice,
                             inclusion_degree, lattice_in_subspace, random_chain,
                             verify_reduction)
from fflab.suites import _DEGREE_PANEL, _scenario_for
from oracles import linear_solve, post_op, pre_op, smith_form
from oracles import hom_lattice as elementary_hom_lattice

F = LocalField(3)
E1 = build_quadratic(UNRAMIFIED, F)
E2R = build_quadratic(RAMIFIED, F)


def _scenario(kind_b, m0, m1, seeds):
    eb = build_quadratic(kind_b, F)
    p0, i0, _ = random_pair(E1, eb, 1, seed=seeds[0])
    p1, i1, _ = random_pair(E1, eb, 1, seed=seeds[1])
    ch0 = random_chain(p0, m0, seed=seeds[2])
    ch1 = random_chain(p1, m1, seed=seeds[3])
    return SplitScenario(p0, p1, ch0, ch1), i0, i1


def test_chain_validation():
    std = standard_lattice(F, 2)
    pi_lat = canonicalize(F, Matrix.diagonal(F, [F.pi(), F.pi()]))
    chain = LatticeChain([pi_lat, std])
    assert chain.steps == [2]
    with pytest.raises(ValueError):
        LatticeChain([std, pi_lat])


def test_degree_formulas_unramified():
    sc, i0, i1 = _scenario(UNRAMIFIED, (2,), (0,), (1, 2, 3, 4))
    sys = HomSystem(sc)
    assert sys.Lambda[1].rank == 4
    assert sys.Lambda_pm[(1, "+")].rank == 2
    assert sys.deg_lambda2_to_lambda1() == inclusion_degree(sc)
    d2 = sys.deg_q_pair(2)
    assert Fraction(d2) == closed_pair_exponent(sc, i0, i1)
    comp = sys.deg_composite_lambda1_plus()
    assert Fraction(comp) == closed_composite_exponent(sc, i0, i1)
    assert 2 * d2 == sys.deg_lambda2_to_lambda1() + comp
    # Surjectivity of the four restricted projections
    for i in (1, 2):
        for s in ("+", "-"):
            assert sys.q_image_equals_sublattice(i, s)


def test_degree_triples_agree():
    sc, i0, i1 = _scenario(RAMIFIED, (2,), (1,), (17, 18, 19, 20))
    sys = HomSystem(sc)
    d1 = sys.deg_q_pair(1)
    t1 = (d1, sys.deg_restricted(2, "-", (1, "+"), (2, "-")),
          sys.deg_restricted(2, "+", (1, "-"), (2, "+")))
    assert len(set(t1)) == 1
    d2 = sys.deg_q_pair(2)
    t2 = (d2, sys.deg_restricted(1, "-", (2, "+"), (1, "-")),
          sys.deg_restricted(1, "+", (2, "-"), (1, "+")))
    assert len(set(t2)) == 1


def test_phi_degree_and_fiber_count():
    for kind_b, m0, m1, seeds in [
        (UNRAMIFIED, (1, 1), (0, 0), (9, 10, 11, 12)),
        (RAMIFIED, (1,), (1,), (5, 6, 7, 8)),
    ]:
        sc, i0, i1 = _scenario(kind_b, m0, m1, seeds)
        phi = PhiMap(HomSystem(sc))
        dphi = phi.degree()
        assert Fraction(dphi) == closed_phi_exponent(sc, i0, i1)
        assert phi.deg_l_maps() == 2 * sc.n0 * sum(sc.m1)
        assert fiber_count_exponent(phi) == dphi


def test_fiber_count_multiplicative_block_scenarios():
    # zero chain indices on both factors: the count collapses to the m=0 formula
    sc, i0, i1 = _scenario(UNRAMIFIED, (0,), (0,), (1, 2, 3, 4))
    phi = PhiMap(HomSystem(sc))
    assert Fraction(phi.degree()) == closed_phi_exponent(sc, i0, i1)


def test_verify_reduction_beta_small():
    p0, i0, _ = random_pair(E1, E1, 1, seed=1)
    p1, i1, _ = random_pair(E1, E1, 1, seed=3)
    rep0, rep1 = verify_reduction(p0, p1, [(0,), (1,)], alpha_side=False)
    assert rep0["m"] == [0] and rep0["equal"]
    assert rep1["m"] == [1] and rep1["equal"]


def test_verify_reduction_builds_one_direct_sum(monkeypatch):
    # one call over several ms reports what one call per m on freshly built
    # component pairs reports, with a single direct sum
    from fflab import reduction
    sums = []

    def counting_direct_sum(a, b):
        sums.append((a, b))
        return direct_sum(a, b)

    monkeypatch.setattr(reduction, "direct_sum", counting_direct_sum)
    ms = [(0,), (1,), (1, 1)]
    p0, _, _ = random_pair(E1, E1, 1, seed=1)
    p1, _, _ = random_pair(E1, E1, 1, seed=3)
    together = verify_reduction(p0, p1, ms)
    assert len(sums) == 1
    assert [rep["m"] for rep in together] == [list(m) for m in ms]
    assert all(rep["equal"] for rep in together)
    for m, rep in zip(ms, together):
        q0, _, _ = random_pair(E1, E1, 1, seed=1)
        q1, _, _ = random_pair(E1, E1, 1, seed=3)
        assert verify_reduction(q0, q1, [m]) == [rep]
    assert len(sums) == 1 + len(ms)


def _components(lat, d0=2):
    """X meet V0 and the projection of X to V1, V0 the first d0 coordinates:
    the two diagonal blocks of the canonical basis."""
    rows = lat.basis.rows
    blocks = (range(d0), range(d0, len(rows)))
    return tuple(from_generators(F, [[rows[i][j] for i in block] for j in block])
                 for block in blocks)


def test_fibrate_chain_and_omega_multiplicativity():
    # the transfer factor of a fibered chain factors through the components
    from fflab.etale import SPLIT, compute_e3
    from fflab.orbital import TransferContext, transfer_factor
    from fflab.pairs import direct_sum, match_alpha
    E0 = build_quadratic(SPLIT, F)
    E3 = compute_e3(E1, E1)
    p0, i0, _ = random_pair(E1, E1, 1, seed=1)
    p1, i1, _ = random_pair(E1, E1, 1, seed=3)
    a0, _ = match_alpha(i0.delta, E0, E3)
    a1, _ = match_alpha(i1.delta, E0, E3)
    full = direct_sum(a0, a1)
    ctx_full = TransferContext(full)
    ctx0 = TransferContext(a0)
    ctx1 = TransferContext(a1)
    found = 0
    for seed in range(40):
        try:
            chain = random_chain(full, (2,), seed=seed, window=1)
        except Exception:
            continue
        (top0, top1), (bot0, bot1) = _components(chain.top), _components(chain.bottom)
        assert index(top0, bot0) + index(top1, bot1) == sum(chain.steps)
        lhs = transfer_factor(ctx_full, chain.top, chain.bottom)
        rhs = (transfer_factor(ctx0, top0, bot0)
               * transfer_factor(ctx1, top1, bot1))
        assert lhs == rhs
        found += 1
        if found >= 3:
            break
    assert found >= 1


def test_theta_constant_disc_chain():
    # |Disc_E1 * Disc_E2| agrees with |Disc_E3| when the first factor is
    # unramified, so the two constant normalizations coincide
    from fflab.etale import compute_e3
    for eb in (E1, E2R):
        e3 = compute_e3(E1, eb)
        assert E1.disc_valuation + eb.disc_valuation == e3.disc_valuation


def test_random_chain_panel_is_pinned():
    # the degree-formula and fiber-count records hold on whatever chain
    # random_chain picks, so its choice is pinned here by a SHA-256 of the
    # lattice keys of the 24 _DEGREE_PANEL chains
    import hashlib
    keys = []
    for kind_b, m0, m1, seeds in _DEGREE_PANEL:
        sc, _, _ = _scenario_for(F, kind_b, m0, m1, seeds)
        keys += [[lat.key() for lat in ch.lattices]
                 for ch in (sc.chain0, sc.chain1)]
    assert len(keys) == 24
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "ff79abaacda1952eb3f476cb484b7ca56bbf74fc08c8d0c0095d4d08267f663b")


def _smith_subspace_lattice(lat, W):
    """{y : W y in lat} through the Smith form of lat^-1 W: with
    R (lat^-1 W) C = diag(pi^D), y lies in it iff C^-1 y lies in the
    product of the pi^-D_k O."""
    _, D, C = smith_form(lat.inverse() * W)
    dim = W.ncols
    assert len(D) == dim
    cols = [[C.rows[i][k].shift(-D[k]) for i in range(dim)] for k in range(dim)]
    return from_generators(F, cols)


def _solved_coords(coords_lat, W, vec):
    """Coordinates through an elimination of W."""
    return coords_lat.inverse().apply(linear_solve(W, vec, zeroish_ok=True))


def test_subspace_lattices_match_the_elimination_oracle(monkeypatch):
    # the dual-on-the-ladder lattices and the coordinates read off the
    # kernel basis agree with a Smith form and an elimination of W on
    # unramified and ramified panel scenarios
    from fflab import reduction
    seen = []
    read_off = reduction.SubspaceLattice.coords

    def recording(self, vec):
        seen.append((self, vec))
        return read_off(self, vec)

    monkeypatch.setattr(reduction.SubspaceLattice, "coords", recording)
    oracle = {}
    for idx in (1, 4, 7, 9):
        kind_b, m0, m1, seeds = _DEGREE_PANEL[idx]
        sc, _, _ = _scenario_for(F, kind_b, m0, m1, seeds)
        sys = HomSystem(sc)
        phi = PhiMap(sys)
        built = [(sys.Lambda[i], W[i], sys.Lambda_pm[(i, s)])
                 for i in (1, 2) for s, W in (("+", sys.P_plus), ("-", sys.P_minus))]
        built += [(phi.sources[0], sys.P_minus[2], phi.t_minus_b),
                  (phi.sources[phi.r], sys.P_minus[1], phi.t_minus_a)]
        for lat, W, sub in built:
            want = _smith_subspace_lattice(lat, W)
            assert sub.coords_lat.key() == want.key()
            oracle[sub] = want
        sys.deg_q_pair(1)
        sys.deg_q_pair(2)
        sys.deg_composite_lambda1_plus()
        sys.deg_restricted(2, "-", (1, "+"), (2, "-"))
        sys.deg_restricted(1, "+", (2, "-"), (1, "+"))
        assert all(sys.q_image_equals_sublattice(i, s) for i in (1, 2) for s in "+-")
        # a certified unit on a row off the identity block leaves the subspace
        sub = sys.Lambda_pm[(1, "+")]
        off = next(r for r in range(sub.W.nrows) if r not in sub.free)
        vec = [x + (F.one if r == off else F.zero)
               for r, x in enumerate(sub.basis_cols()[0])]
        with pytest.raises(NoSolution):
            read_off(sub, vec)
        with pytest.raises(NoSolution):
            _solved_coords(oracle[sub], sub.W, vec)
    assert len(seen) > 100
    for sub, vec in seen:
        got = read_off(sub, vec)
        want = _solved_coords(oracle[sub], sub.W, vec)
        assert len(got) == len(want) and all(a.same(b) for a, b in zip(got, want))


def test_subspace_basis_without_identity_block_is_refused():
    W = Matrix(F, [[F.pi()], [F.from_int(2)]])
    with pytest.raises(ValueError):
        lattice_in_subspace(F, standard_lattice(F, 2), W)


def _keys(mat):
    return [[x.key() for x in r] for r in mat.rows]


@pytest.mark.parametrize("idx", [4, 9])
def test_hom_lattices_match_the_elementary_matrix_oracle(idx):
    # an unramified and a ramified panel scenario, each chain of length 2:
    # Hom between every two lattices of the chains.  The unramified chain
    # bases are diagonal; the ramified ones are not, so a transposed factor
    # shows there
    kind_b, m0, m1, seeds = _DEGREE_PANEL[idx]
    sc, _, _ = _scenario_for(F, kind_b, m0, m1, seeds)
    assert sc.chain0.r == sc.chain1.r == 2
    lats = sc.chain0.lattices + sc.chain1.lattices
    for top in lats:
        for bot in lats:
            got = hom_lattice(F, top, bot)
            assert got.key() == elementary_hom_lattice(F, top, bot).key()


def test_hom_operators_match_the_index_oracle():
    # every entry of q_i^- and q_i^+, on every panel scenario
    ops = 0
    for kind_b, m0, m1, seeds in _DEGREE_PANEL:
        sc, _, _ = _scenario_for(F, kind_b, m0, m1, seeds)
        sys = HomSystem(sc)
        ident0 = Matrix.identity(F, sys.d0)
        for i, x0, x1, tr in ((1, sys.A0, sys.A1, sc.p0.Ea.tr),
                              (2, sys.B0, sys.B1, sc.p0.Eb.tr)):
            for op, left in ((sys.q_minus[i], x0), (sys.q_plus[i], ident0.scale(tr) - x0)):
                want = pre_op(F, x1, sys.d0) - post_op(F, left, sys.d1)
                assert _keys(op) == _keys(want)
                ops += 1
    assert ops == 4 * len(_DEGREE_PANEL)


def _seeded_lattice(field, rng, m):
    """canonicalize(U D) for a seeded integral U with unit determinant and
    a diagonal D of pi^0..pi^2: a lattice whose canonical basis is not
    diagonal in general."""
    from fflab.linalg import mat_det
    while True:
        u = Matrix(field, [[field.zero if rng.random() < 0.25
                            else field.random_element(rng, 0, 1)
                            for _ in range(m)] for _ in range(m)])
        if mat_det(u).valuation() == 0:
            break
    d = Matrix.diagonal(field, [field.pi(rng.randint(0, 2)) for _ in range(m)])
    return canonicalize(field, u * d)


@pytest.mark.parametrize("q", [2, 3])
def test_hom_lattices_of_non_diagonal_bases_match_the_oracle(q):
    # every panel lattice of an unramified scenario has a diagonal basis,
    # where a transposed factor in hom_lattice does not show; these do not
    import random
    field = LocalField(q)
    rng = random.Random(q)
    lats = [_seeded_lattice(field, rng, m) for m in (2, 2, 3, 3)]
    assert any(not x.is_exact_zero for lat in lats for i, row in enumerate(lat.basis.rows)
               for j, x in enumerate(row) if i != j)
    for top in lats:
        for bot in lats:
            got = hom_lattice(field, top, bot)
            assert got.key() == elementary_hom_lattice(field, top, bot).key()


@pytest.mark.parametrize("idx", range(len(_DEGREE_PANEL)))
def test_phi_map_reads_its_lattices_off_the_hom_system(idx):
    # PhiMap takes Lambda_2, Lambda_1 and their minus parts from the
    # HomSystem; a PhiMap whose lattices are built directly from the chains
    # has the same matrix, entry by entry
    import copy
    kind_b, m0, m1, seeds = _DEGREE_PANEL[idx]
    sc, _, _ = _scenario_for(F, kind_b, m0, m1, seeds)
    sys = HomSystem(sc)
    phi = PhiMap(sys)
    direct = copy.copy(phi)
    direct.sources = [hom_lattice(F, x0, x1)
                      for x0, x1 in zip(sc.chain0.lattices, sc.chain1.lattices)]
    direct.t_minus_b = lattice_in_subspace(F, direct.sources[0], sys.P_minus[2])
    direct.t_minus_a = lattice_in_subspace(F, direct.sources[phi.r], sys.P_minus[1])
    assert [s.key() for s in phi.sources] == [s.key() for s in direct.sources]
    for got, want in ((phi.t_minus_b, direct.t_minus_b), (phi.t_minus_a, direct.t_minus_a)):
        assert got.coords_lat.key() == want.coords_lat.key()
    built = Matrix.from_columns(F, direct._matrix_cols())
    assert _keys(phi.matrix) == _keys(built)
