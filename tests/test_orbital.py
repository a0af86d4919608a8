import random
from fractions import Fraction

import mpmath
import pytest

from fflab.etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic, compute_e3
from fflab.hecke import f_of_m, pi_twist, t_m, unit
from fflab.lattices import (canonicalize, relative_position,
                            smith_exponents_rectangular, standard_lattice)
from fflab.linalg import Matrix, mat_det
from fflab.localfield import LocalField
from fflab.orbital import (OrbitalValue, TransferContext, derivative_at_zero,
                           functional_equation_probe, orbital_alpha, orbital_beta,
                           transfer_factor, value_at_zero, vanishing_order_at_one)
from fflab.pairs import invariant, match_alpha, random_pair
from fflab.quotients import family_quotient
from oracles import (eigenpart_span, eigenpart_transfer_factor, linear_solve,
                     reduce_stack, split_neighbor_stacks, superlattice_positions)

F = LocalField(3)
E0 = build_quadratic(SPLIT, F)
E1 = build_quadratic(UNRAMIFIED, F)
E3 = compute_e3(E1, E1)


def _matched(seed, eb=E1):
    pair, inv, _ = random_pair(E1, eb, 1, seed=seed)
    alpha, _ = match_alpha(inv.delta, E0, inv.target)
    return pair, alpha


def test_value_and_derivative():
    v = OrbitalValue({2: 1, -2: -1})
    assert value_at_zero(v) == 0
    assert derivative_at_zero(v) == 2
    assert derivative_at_zero(OrbitalValue({0: 5})) == 0


def test_derivative_against_mpmath():
    rng = random.Random(0)
    mpmath.mp.dps = 50
    q = 3
    for _ in range(10):
        v = OrbitalValue({rng.randint(-4, 4): rng.randint(-5, 5)
                          for _ in range(4)})

        def func(s):
            return sum(c * mpmath.mpf(q) ** (mpmath.mpf(k) * s / 2)
                       for k, c in v.c.items())

        numeric = mpmath.diff(func, 0) / mpmath.log(q)
        exact = derivative_at_zero(v)
        assert abs(numeric - mpmath.mpf(exact.numerator) / exact.denominator) < mpmath.mpf("1e-30")


def test_functional_equation_probe():
    assert functional_equation_probe(OrbitalValue({1: 1, -1: -1})) == (-1, 0)
    assert functional_equation_probe(OrbitalValue({2: 1, 0: 1})) == (1, 1)
    assert functional_equation_probe(OrbitalValue({2: 1, 0: 3, -1: 5})) is None


def test_vanishing_order():
    assert vanishing_order_at_one(OrbitalValue({0: 1})) == 0
    v = OrbitalValue({2: 1, 0: -2, -2: 1})  # (Q - 1/Q)^2
    assert vanishing_order_at_one(v) == 2
    assert vanishing_order_at_one(OrbitalValue({})) is None


def test_transfer_factor_trivial_and_law():
    pair, alpha = _matched(0)
    ctx = TransferContext(alpha)
    l0 = standard_lattice(F, 2)
    span = eigenpart_span(alpha.B, l0, ctx.p_plus)
    # at the span itself the plus index vanishes
    omega = transfer_factor(ctx, l0, span)
    assert list(omega.c.values())[0] in (1, -1)
    base3 = canonicalize(F, l0.basis.hstack(alpha.B * l0.basis))
    rng = random.Random(4)
    base = transfer_factor(ctx, l0, base3)
    for _ in range(6):
        a_exp, b_exp = rng.randrange(-2, 3), rng.randrange(-2, 3)
        h0 = ctx.p_plus.scale(F.pi(a_exp)) + ctx.p_minus.scale(F.pi(b_exp))
        from fflab.errors import PrecisionExhausted
        c0, c1 = rng.randrange(3), rng.randrange(1, 3)
        h3 = Matrix.identity(F, 2).scale(F.from_fq(c0)) + alpha.B.scale(F.from_fq(c1))
        try:
            if not mat_det(h3).coeffs:
                continue
        except PrecisionExhausted:
            continue
        lhs = transfer_factor(ctx, canonicalize(F, h0 * l0.basis),
                              canonicalize(F, h3 * base3.basis))
        eta_sign = -1 if mat_det(h3).valuation() % 2 else 1
        rhs = base.shift(-2 * (a_exp - b_exp)) * eta_sign
        assert lhs == rhs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_factor_matches_the_eigenpart_oracle(seed):
    # the determinant formula against the indices in the eigenpart spans,
    # on every lattice of the radius-2 ball of the first family and, as l3,
    # the transfer law's O_E3-span of the standard lattice (which its h3
    # images leave fixed) and the radius-1 ball of the second family;
    # v+ != v- at seeds 1 and 2
    from fflab.orbital import _stable_families
    _, alpha = _matched(seed)
    ctx = TransferContext(alpha)
    l0 = standard_lattice(F, 2)
    l3s = [canonicalize(F, l0.basis.hstack(alpha.B * l0.basis))]
    l3s += _stable_families(alpha)[1].ball(1)
    ball = ctx.fam.ball(2)
    assert len(ball) == 25 and len({l3.det_valuation for l3 in l3s}) > 1
    assert (ctx.v_plus != ctx.v_minus) == (seed != 0)
    for la in ball:
        for l3 in l3s:
            assert transfer_factor(ctx, la, l3) == eigenpart_transfer_factor(alpha, la, l3)


def test_fl_n1_unramified():
    for seed in range(4):
        pair, alpha = _matched(seed)
        for f in [unit(2), t_m(2, 1), t_m(2, 2)]:
            ob, _ = orbital_beta(pair, f)
            oa, _ = orbital_alpha(alpha, f)
            assert value_at_zero(oa) == ob


def test_fl_n1_ramified():
    e2r = build_quadratic(RAMIFIED, F)
    for seed in range(3):
        pair, alpha = _matched(seed, eb=e2r)
        for f in [unit(2), t_m(2, 1)]:
            ob, _ = orbital_beta(pair, f)
            oa, _ = orbital_alpha(alpha, f)
            assert value_at_zero(oa) == ob


def test_twist_invariance():
    pair, alpha = _matched(2)
    f = t_m(2, 1)
    ob0, _ = orbital_beta(pair, f)
    ob1, _ = orbital_beta(pair, pi_twist(f, 1))
    oa0, _ = orbital_alpha(alpha, f)
    oa1, _ = orbital_alpha(alpha, pi_twist(f, 1))
    oam, _ = orbital_alpha(alpha, pi_twist(f, -1))
    assert ob0 == ob1
    assert oa0 == oa1 == oam


def test_slack_growth_stability():
    from fflab.orbital import OrbitalProblem
    pair, alpha = _matched(1)
    f = t_m(2, 2)
    p1 = OrbitalProblem(alpha, f, twisted=True)
    v1, _ = p1.evaluate(slack=1)
    p2 = OrbitalProblem(alpha, f, twisted=True)
    v2, _ = p2.evaluate(slack=3)
    assert v1 == v2


def test_base_choice_independence():
    # conjugating the pair by an integral unimodular leaves the integral fixed
    from fflab.pairs import random_unimodular
    pair, alpha = _matched(3)
    f = t_m(2, 1)
    val, _ = orbital_alpha(alpha, f)
    rng = random.Random(9)
    g, gi = random_unimodular(F, 2, rng)
    val2, _ = orbital_alpha(alpha.conjugate(g, gi), f)
    assert val == val2


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("seed", [0, 1])
def test_descent_walks_down_to_a_zero_gap_start(q, seed):
    # every pair the workbench builds has integral A and B, so the base has
    # gap 0 and the descent never steps; conjugating by B itself (exact
    # inverse (tr - B) / nm) moves the base to gap 1 when B's algebra is
    # ramified, and the descent must walk to gap 0 without changing a value
    from fflab.orbital import OrbitalProblem
    field = LocalField(q)
    e1, e2 = build_quadratic(UNRAMIFIED, field), build_quadratic(RAMIFIED, field)
    pair, _, _ = random_pair(e1, e2, 1, seed)
    B = pair.B
    B_inv = (Matrix.identity(field, 2).scale(e2.tr) - B).scale(e2.nm.inv())
    moved = pair.conjugate(B, B_inv)
    prob = OrbitalProblem(moved, unit(2), False)
    quotient = prob.state.quotient
    assert quotient.gap(quotient.reduce(quotient.start())) == 1
    assert prob._descend_start()[1] == 0
    for f in (unit(2), t_m(2, 1), t_m(2, 2)):
        assert orbital_beta(moved, f) == orbital_beta(pair, f)


# -- per-pair state shared across Hecke functions -----------------------------------

_REUSE_SEEDS = {2: 5, 3: 3, 9: 11}


def _reuse_case(q):
    field = LocalField(q)
    e0 = build_quadratic(SPLIT, field)
    e1 = build_quadratic(UNRAMIFIED, field)
    pair, inv, _ = random_pair(e1, e1, 1, seed=_REUSE_SEEDS[q])
    alpha, _ = match_alpha(inv.delta, e0, inv.target)
    # [pi] = pi_twist(unit, 1) skips the superlattices of position (2, 0)
    # that T2 and f(1,1) count
    fs = [unit(2), t_m(2, 1), t_m(2, 2), f_of_m(2, (1, 1), field),
          pi_twist(t_m(2, 1), -1), pi_twist(unit(2), 1)]
    return pair, alpha, fs


def _fresh(pair):
    from fflab.pairs import EmbeddingPair
    return EmbeddingPair(pair.Ea, pair.Eb, pair.A, pair.B, check=False)


@pytest.mark.parametrize("q", [2, 3, 9])
@pytest.mark.parametrize("twisted", [False, True])
def test_reuse_matches_fresh_pairs(q, twisted, monkeypatch):
    pair, alpha, fs = _reuse_case(q)
    target = alpha if twisted else pair
    integral = orbital_alpha if twisted else orbital_beta
    calls = []
    omega = TransferContext.omega

    def recording(ctx, components, l3):
        # the traversal asks for a factor on la's components; la is rebuilt
        la = canonicalize(ctx.fam.field, ctx.fam._stack(*components))
        calls.append((la, l3))
        return omega(ctx, components, l3)

    monkeypatch.setattr(TransferContext, "omega", recording)

    def run(on, f):
        calls.clear()
        value = integral(on, f)
        # a transfer factor is asked for only at a position in f's support,
        # after the central twist that makes the support nonnegative
        low = min(min(mu) for mu in f.support())
        supp = {tuple(mu) for mu in pi_twist(f, -min(low, 0)).support()}
        assert all(relative_position(la, lb) in supp for la, lb in calls)
        return value, {(la.key(), lb.key()) for la, lb in calls}

    fresh = [run(_fresh(target), f) for f in fs]
    # on a fresh pair every twisted integral asks for its factors
    assert all(asked for _, asked in fresh) == twisted
    forward = list(range(len(fs)))
    for order in (forward, forward[::-1]):
        shared = _fresh(target)
        got = {i: run(shared, fs[i]) for i in order}
        for i, (value, asked) in enumerate(fresh):
            assert got[i][0] == value
            assert got[i][1] <= asked


def test_reuse_keeps_one_state_per_pair():
    # every integral on a pair, the negative-support one (fs[4]) included,
    # runs on the one state the first integral built
    pair, alpha, fs = _reuse_case(3)
    for target, integral in ((pair, orbital_beta), (alpha, orbital_alpha)):
        shared = _fresh(target)
        assert shared._orbital is None
        states = []
        for f in fs:
            assert integral(shared, f) == integral(_fresh(target), f)
            states.append(shared._orbital)
        assert states[0] is not None
        assert all(st is states[0] for st in states)


# -- one route per lattice invariant ------------------------------------------------


def span_gap(mat, stack):
    """The raw-stack oracle for a quotient's gap: [L + mat L : L] for the
    lattice L spanned by the columns of a generator stack, from the Smith
    exponents of the stack and of the stack beside mat times it; no
    canonical form is taken."""
    d_lat = sum(smith_exponents_rectangular(stack, rank=stack.nrows))
    span = stack.hstack(mat * stack)
    return d_lat - sum(smith_exponents_rectangular(span, rank=span.nrows))


@pytest.mark.parametrize("q", [2, 3, 9])
@pytest.mark.parametrize("twisted", [False, True])
def test_invariants_agree_on_expanded_stacks(q, twisted, monkeypatch):
    # the traversal reduces every raw move and takes the span gap of its
    # rep, which contribution gets as the rep's gap: that is sound because
    # the gap and the factor functionals of a raw move are its rep's; a
    # split family's moves are component pairs, checked here on their stacks
    from fflab.families import ComponentPair
    from fflab.lattices import index, order_span
    from fflab.orbital import OrbitalProblem
    pair, alpha, _ = _reuse_case(q)
    prob = OrbitalProblem(_fresh(alpha if twisted else pair), t_m(2, 2), twisted)
    fam, gamma, quotient = prob.fam_b, prob.gamma, prob.state.quotient
    stacks = []

    def recording(vertex):
        out = type(quotient).moves(quotient, vertex)
        stacks.extend(fam._stack(*m) if isinstance(m, ComponentPair) else m
                      for m in out)
        return out

    monkeypatch.setattr(quotient, "moves", recording)
    prob.evaluate()
    assert stacks
    for stack in stacks:
        lat = canonicalize(prob.field, stack)
        gap = span_gap(prob.pair.A, stack)
        assert gap == index(order_span(prob.pair.A, lat), lat)
        assert gap == span_gap(prob.pair.A, reduce_stack(gamma, stack).basis)
        for g in gamma.gens:
            assert gamma.functional(g, stack) == gamma.functional(g, lat.basis)


@pytest.mark.parametrize("case", [UNRAMIFIED, RAMIFIED, 2, 3, 9])
@pytest.mark.parametrize("twisted", [False, True])
def test_span_gap_moves_by_at_most_the_move_index(case, twisted):
    # for L' in L of index d, (L + A L) / (L' + A L') is a quotient of
    # L/L' + A L / A L', of length 2d, and gap(L') = gap(L) + d - that
    # length, so |gap(L') - gap(L)| <= d
    if case in (UNRAMIFIED, RAMIFIED):
        pair, fs = _thm212_sum(case, twisted)
        cases = [(pair, fs[0])]
    else:
        field = LocalField(case)
        e0 = build_quadratic(SPLIT, field)
        e1 = build_quadratic(UNRAMIFIED, field)
        cases = []
        for seed in range(3):
            pair, inv, _ = random_pair(e1, e1, 1, seed=seed)
            if twisted:
                pair, _ = match_alpha(inv.delta, e0, inv.target)
            cases.append((pair, t_m(2, 2)))
    from fflab.quotients import StackQuotient
    from fflab.orbital import OrbitalProblem
    for pair, f in cases:
        prob = OrbitalProblem(pair, f, twisted)
        prob.evaluate()
        st = prob.state
        # an O_E-move of a stable family has O_F-index residue_f; a
        # component move of a split family has index one
        index = (prob.fam_b.residue_f if isinstance(st.quotient, StackQuotient)
                 else 1)
        steps = [gap - st.quotient.gap(st.reps[key])
                 for key, moves in st.moves.items() for gap, _ in moves]
        assert steps
        assert all(abs(step) <= index for step in steps)


# -- split families walked as component pairs ---------------------------------------


def _thm212_sum(kind_b, twisted=True):
    """The rank-4 direct sum of one suite_thm212 configuration, on the alpha
    side, or on the beta side when not twisted."""
    from fflab.pairs import direct_sum
    e2 = build_quadratic(kind_b, F)
    targets = []
    for seed in ((1, 3) if kind_b == UNRAMIFIED else (0, 1)):
        pair, inv, _ = random_pair(E1, e2, 1, seed=seed)
        targets.append(match_alpha(inv.delta, E0, inv.target)[0] if twisted
                       else pair)
    return direct_sum(*targets), [f_of_m(4, (1,), F)]


def _congruent_eigenspaces():
    """A split family whose eigenspaces (1, 0) and (1, pi) meet modulo pi,
    with Gamma generated by pi: c_g = 1 there, where the traversal cases
    all have c_g = 0."""
    from fflab.families import SplitStableFamily
    from fflab.quotients import GammaGenerator, GammaGroup
    J = Matrix(F, [[F.one, -F.pi(-1)], [F.zero, F.zero]])
    base = canonicalize(F, Matrix.diagonal(F, [F.one, F.pi()]))
    fam = SplitStableFamily(F, J, E0, base)
    ident = Matrix.identity(F, 2)
    return fam, GammaGroup(F, [GammaGenerator(ident.scale(F.pi()), ident)])


@pytest.mark.parametrize("case", [2, 3, 9, UNRAMIFIED, RAMIFIED])
def test_split_traversal_matches_the_stack_route(case):
    # the 4 x 4 route (StackQuotient on the same family, on raw stacks of
    # the same moves) is the oracle: same value and radius per f, and per
    # move of every expanded vertex the same rep lattice as reduce_stack and
    # the same gap as the raw stack's
    from fflab.quotients import PairQuotient, StackQuotient
    from fflab.orbital import OrbitalProblem

    class SplitStackQuotient(StackQuotient):
        def moves(self, lat):
            return split_neighbor_stacks(self.fam, lat)

    if case in (2, 3, 9):
        _, target, fs = _reuse_case(case)
    else:
        target, fs = _thm212_sum(case)
    shared, oracle = _fresh(target), _fresh(target)
    for f in fs:
        prob = OrbitalProblem(shared, f, twisted=True)
        slow = OrbitalProblem(oracle, f, twisted=True)
        stacks = StackQuotient if case == RAMIFIED else SplitStackQuotient
        slow.state.quotient = stacks(slow.fam_b, slow.gamma, slow.pair.A)
        assert prob.evaluate() == slow.evaluate()
    st, fam, gamma = prob.state, prob.fam_b, prob.gamma
    q = st.quotient
    assert isinstance(q, PairQuotient) == (case != RAMIFIED)
    if case == RAMIFIED:
        return  # E3 is ramified there, so fam_b is not split
    vertices = {v.key(): v for v in (st.start[0], *st.reps.values())}
    assert len(st.moves) > 1
    for key, moves in st.moves.items():
        raws = q.moves(vertices[key])
        assert len(raws) == len(moves)
        for (gap, rep_key), raw in zip(moves, raws):
            stack = fam._stack(*raw)
            rep = q.reduce(raw)
            assert q.lattice(rep) == reduce_stack(gamma, stack)
            raw_gap = span_gap(prob.pair.A, stack)
            assert q.gap(raw) == raw_gap
            assert (gap, rep_key) == (raw_gap, rep.key())


@pytest.mark.parametrize("case", ["beta", "alpha", 2, 3, 9])
def test_stack_traversal_moves_match_the_raw_stack(case):
    # a non-split family's moves are reduced first and the gap is taken on
    # the rep's canonical lattice: per move of every expanded vertex, the
    # stored gap is the raw stack's and the rep is reduce_stack's; the
    # start's moves are checked first, before a wrong gap can widen the
    # traversal
    from fflab.quotients import StackQuotient
    from fflab.orbital import OrbitalProblem
    if case in (2, 3, 9):
        target, _, fs = _reuse_case(case)
        twisted = False
    else:
        twisted = case == "alpha"
        target, fs = _thm212_sum(RAMIFIED, twisted)
    target = _fresh(target)
    prob = OrbitalProblem(target, fs[0], twisted)
    st = prob.state
    q = st.quotient
    assert isinstance(q, StackQuotient)

    def check(vertex, moves):
        raws = q.moves(vertex)
        assert len(raws) == len(moves)
        for move, raw in zip(moves, raws):
            assert move == (span_gap(target.A, raw), reduce_stack(st.gamma, raw).key())

    start, _ = prob._descend_start()
    check(start, st.moves_of(start))
    for f in fs:
        OrbitalProblem(target, f, twisted).evaluate()
    vertices = {v.key(): v for v in (start, *st.reps.values())}
    for key, moves in st.moves.items():
        check(vertices[key], moves)


@pytest.mark.parametrize("cell", [UNRAMIFIED, RAMIFIED, 2, 3, 9])
@pytest.mark.parametrize("twisted", [False, True])
def test_memoized_reps_match_the_raw_stack_oracle(cell, twisted):
    # the four rank-4 thm212 cells and the n = 1 cells: after every f, the
    # rep memoized for each raw move of every expanded vertex (and for the
    # start) is the oracle's on the move's raw stack, every memo entry is
    # one of them, and another raw stack of a lattice already reduced gets
    # the memoized object back
    from fflab.families import ComponentPair
    from fflab.quotients import PairQuotient
    from fflab.orbital import OrbitalProblem
    if cell in (2, 3, 9):
        pair, alpha, fs = _reuse_case(cell)
        target = alpha if twisted else pair
    else:
        target, fs = _thm212_sum(cell, twisted)
    target = _fresh(target)
    for f in fs:
        prob = OrbitalProblem(target, f, twisted)
        prob.evaluate()
    st, fam, gamma = prob.state, prob.fam_b, prob.gamma
    q = st.quotient
    split = isinstance(q, PairQuotient)
    vertices = {v.key(): v for v in (st.start[0], *st.reps.values())}
    raws = [q.start()] + [raw for key in st.moves for raw in q.moves(vertices[key])]
    assert st.moves and len(raws) > 1
    keys = set()
    for raw in raws:
        rep = q.reduce(raw)
        if split:
            stack, again = fam._stack(*raw), ComponentPair(
                canonicalize(fam.field, c.basis.hstack(c.basis)) for c in raw)
            keys.add(raw.key())
        else:
            stack, again = raw, Matrix.from_columns(fam.field, raw.columns()[::-1])
            keys.add(canonicalize(fam.field, raw).key())
        assert q.lattice(rep).key() == reduce_stack(gamma, stack).key()
        assert q.reduce(again) is rep
    assert keys == set(q.reduced)


def _one_sided_generator():
    """A split family on F^2 (J = diag(1, 0)) with Gamma generated by
    diag(pi, 1): g+ = pi and g- = 1 differ, and the components are rank-one
    lattices, so a plus and a minus component often share a key."""
    from fflab.families import SplitStableFamily
    from fflab.quotients import GammaGenerator, GammaGroup
    fam = SplitStableFamily(F, Matrix.diagonal(F, [F.one, F.zero]), E0,
                            standard_lattice(F, 2))
    gen = GammaGenerator(Matrix.diagonal(F, [F.pi(), F.one]),
                         Matrix.diagonal(F, [F.one, F.zero]))
    return fam, GammaGroup(F, [gen])


@pytest.mark.parametrize("case", ["congruent", "one-sided", 2, 3, 9])
def test_split_functional_is_additive(case):
    # c_g + phi+(L+) + phi-(L-) is GammaGroup.functional on the split ball,
    # and the componentwise reduction is reduce_stack's; with g+ != g-, a
    # component power is memoized per side
    from fflab.orbital import OrbitalProblem
    if case in ("congruent", "one-sided"):
        fam, gamma = (_congruent_eigenspaces() if case == "congruent"
                      else _one_sided_generator())
        A = Matrix.identity(F, 2)
    else:
        _, alpha, _ = _reuse_case(case)
        prob = OrbitalProblem(_fresh(alpha), unit(2), twisted=True)
        fam, gamma, A = prob.fam_b, prob.gamma, prob.pair.A
    q = family_quotient(fam, gamma, A)
    if case == "congruent":
        assert q.consts == [1]
    ball = fam.ball(2)
    assert len(ball) == 25
    for lat in ball:
        pair = fam.split(lat)
        for i, g in enumerate(gamma.gens):
            assert (q.consts[i] + q._term(i, 0, pair[0]) + q._term(i, 1, pair[1])
                    == q.functional(i, pair) == gamma.functional(g, lat.basis))
        assert q.lattice(q.reduce(pair)) == reduce_stack(gamma, lat.basis)
    if case == "one-sided":
        plus, minus = ({(i, e, k) for i, s, e, k in q.powers if s == side}
                       for side in (0, 1))
        assert plus & minus


@pytest.mark.parametrize("rows", [[[1, 1], [0, 0]], [[0, 1], ["pi", 1]]])
def test_split_gap_on_congruent_eigenspaces(rows):
    # W = [W+ | W-] is not integral there (the eigenspaces meet modulo pi),
    # so A' = W^-1 A W is not integral either: the component-coordinate gap
    # of every lattice of the ball is the raw stack's, for a singular and
    # an invertible integral A that do not commute with J
    fam, gamma = _congruent_eigenspaces()
    A = Matrix(F, [[F.pi() if x == "pi" else F.from_int(x) for x in row]
                   for row in rows])
    assert not (A * fam.J).same(fam.J * A)
    q = family_quotient(fam, gamma, A)
    gaps = set()
    for lat in fam.ball(2):
        pair = fam.split(lat)
        gap = span_gap(A, fam._stack(*pair))
        assert q.gap(pair) == gap
        gaps.add(gap)
    assert gaps == {0, 1, 2, 3, 4}


def _solved_split(fam, algebra, lat):
    """The components of a stable lattice through linear_solve: each
    column's projections solved in W_plus and W_minus."""
    from fflab.lattices import from_generators
    return tuple(
        from_generators(F, [linear_solve(W, proj.apply(v), zeroish_ok=True)
                            for v in lat.basis.columns()])
        for W, proj in zip((fam.W_plus, fam.W_minus), algebra.eigen_projectors(fam.J)))


@pytest.mark.parametrize("case", ["congruent", 2, 3, 9, UNRAMIFIED])
def test_split_coordinates_match_the_linear_solve_route(case):
    # the eigenspace coordinates read off W^-1 give the components, and the
    # generator blocks, that solving in W_plus and W_minus gives; W is not
    # integral on the congruent eigenspaces
    from fflab.orbital import OrbitalProblem
    if case == "congruent":
        fam, gamma = _congruent_eigenspaces()
        algebra, A, radius = E0, Matrix.identity(F, 2), 2
    else:
        if case == UNRAMIFIED:
            target, fs = _thm212_sum(case)
            radius = 1
        else:
            _, target, fs = _reuse_case(case)
            radius = 2
        prob = OrbitalProblem(_fresh(target), fs[0], twisted=True)
        fam, gamma, A = prob.fam_b, prob.gamma, prob.pair.A
        algebra = prob.pair.Eb
    field = fam.field
    ball = fam.ball(radius)
    assert len(ball) > 20
    for lat in ball:
        assert fam.split(lat).key() == tuple(c.key() for c in _solved_split(fam, algebra, lat))
    q = family_quotient(fam, gamma, A)
    projs = algebra.eigen_projectors(fam.J)
    for g, parts in zip(gamma.gens, q.parts):
        for W, proj, ((gc, _), _, _) in zip((fam.W_plus, fam.W_minus), projs, parts):
            solved = Matrix.from_columns(field, [linear_solve(W, proj.apply(v), zeroish_ok=True)
                                                 for v in (g.matrix * W).columns()])
            assert gc.same(solved)


def test_generator_off_the_eigenspaces_is_refused():
    # g does not commute with J, so W^-1 g W is not block-diagonal
    from fflab.errors import PrecisionExhausted
    from fflab.families import SplitStableFamily
    from fflab.quotients import GammaGenerator, GammaGroup
    J = Matrix.diagonal(F, [F.one, F.zero])
    fam = SplitStableFamily(F, J, E0, standard_lattice(F, 2))
    g = Matrix(F, [[F.pi(), F.one], [F.zero, F.pi()]])
    assert not (g * J).same(J * g)
    gamma = GammaGroup(F, [GammaGenerator(g, Matrix.identity(F, 2))])
    with pytest.raises(PrecisionExhausted, match="generator not certified block-diagonal"):
        family_quotient(fam, gamma, Matrix.identity(F, 2))


@pytest.mark.parametrize("case", [2, 3, 9, UNRAMIFIED, RAMIFIED])
def test_superlattice_positions_match_the_full_rank_oracle(case):
    # every position a twisted traversal filled, per (lb, extra index), and
    # the start's positions two indices up: the same mu and the same
    # superlattice, in order, as the full-rank route
    # (each superlattice canonicalized from its stack, mu from la^-1 lb),
    # and the determinant formula's Omega(la, lb) is the eigenpart spans'
    from fflab.lattices import order_span
    from fflab.orbital import OrbitalProblem
    if case in (2, 3, 9):
        _, target, fs = _reuse_case(case)
    else:
        target, fs = _thm212_sum(case)
    target = _fresh(target)
    for f in fs:
        prob = OrbitalProblem(target, f, twisted=True)
        prob.evaluate()
    st, fam = prob.state, prob.fam_a
    q = st.quotient
    lbs = {lb.key(): lb for lb in map(q.lattice, (st.start[0], *st.reps.values()))}
    assert st.positions
    filled = 0
    for (key, extra), found in st.positions.items():
        lb = lbs[key]
        want = superlattice_positions(fam, order_span(target.A, lb), lb, extra)
        assert len(found) == len(want)
        for (mu, pair, omega), (mu0, la) in zip(found, want):
            assert mu == mu0
            assert canonicalize(fam.field, fam._stack(*pair)).key() == la.key()
            expect = eigenpart_transfer_factor(target, la, lb)
            assert st.ctx.omega(pair, lb) == expect
            assert omega in (None, expect)
            filled += omega is not None
    assert filled
    # two extra steps, so that on rank 4 both components move within one
    # split of the index
    lb = q.lattice(st.start[0])
    span = order_span(target.A, lb)
    got = [(mu, canonicalize(fam.field, fam._stack(*pair)).key())
           for mu, pair in fam.superlattice_positions(span, lb, 2)]
    assert got == [(mu, la.key()) for mu, la in superlattice_positions(fam, span, lb, 2)]
