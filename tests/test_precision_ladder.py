"""The lattice kernels' working-precision ladder against untruncated elimination.

canonicalize, smith_exponents and smith_exponents_rectangular truncate
their entries a few digits above the least valuation and escalate on
PrecisionExhausted.  A truncated rung must give exactly the untruncated
answer or raise; a lower field precision must give the N = 40 answer or
raise; and a pivot that an undetermined entry could undercut must never be
accepted.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fflab.errors import PrecisionExhausted, SingularBasis
from fflab.lattices import (_FIRST_RUNG, _hermite, _on_ladder, _smith,
                            canonicalize, smith_exponents,
                            smith_exponents_rectangular)
from fflab.linalg import Matrix, mat_det, mat_inverse
from fflab.localfield import INF, LocalField
from oracles import smith_form

QS = st.sampled_from([2, 3, 9])
SEEDS = st.integers(min_value=0, max_value=2 ** 32)


def _entry(field, rng):
    if rng.random() < 0.2:
        return field.zero
    return field.random_element(rng, 0, 2, terms=rng.randint(1, 4))


def _matrix(field, rng, nrows, ncols):
    return Matrix(field, [[_entry(field, rng) for _ in range(ncols)]
                          for _ in range(nrows)])


def _unimodular(field, rng):
    """A product of random triangular matrices with unit diagonals; its
    inverse has series entries known to about N digits."""
    lower = [[field.zero] * 4 for _ in range(4)]
    upper = [[field.zero] * 4 for _ in range(4)]
    for i in range(4):
        lower[i][i] = field.random_element(rng, terms=3, unit=True)
        upper[i][i] = field.random_element(rng, terms=3, unit=True)
        for j in range(i):
            lower[i][j] = _entry(field, rng)
            upper[j][i] = _entry(field, rng)
    return Matrix(field, lower) * Matrix(field, upper)


def _stack(field, seed, series):
    """A 4 x 8 integral stack; with `series`, moved by the inverse of a
    unimodular matrix so that its entries are long series."""
    rng = random.Random(seed)
    stack = _matrix(field, rng, 4, 8)
    if series:
        stack = mat_inverse(_unimodular(field, rng)) * stack
    return stack


def _idempotent(field, rng, rank):
    """P diag(1, .., 1, 0, ..) P^-1 for a random unimodular P."""
    p = _unimodular(field, rng)
    d = Matrix.diagonal(field, [field.one] * rank + [field.zero] * (4 - rank))
    return p * d * mat_inverse(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionExhausted, SingularBasis) as e:
        return type(e)


def _key(outcome):
    return outcome if isinstance(outcome, type) else outcome.key()


def _untruncated_smith(mat, rank=None):
    return _outcome(_smith, [list(r) for r in mat.rows], rank)


def _untruncated_hermite(field, mat):
    cols = [list(mat.column(j)) for j in range(mat.ncols)]
    return _outcome(_hermite, field, mat.nrows, cols)


@settings(max_examples=30, deadline=None)
@given(QS, SEEDS, st.booleans())
def test_ladder_equals_untruncated_on_stacks(q, seed, series):
    field = LocalField(q)
    stack = _stack(field, seed, series)
    got = _outcome(canonicalize, field, stack)
    assert got == _untruncated_hermite(field, stack)
    exps = _outcome(smith_exponents_rectangular, stack)
    assert exps == _untruncated_smith(stack)
    if isinstance(got, type) or isinstance(exps, type):
        return
    # the Smith exponents are those of the Hermite basis (square kernel)
    assert tuple(sorted(exps, reverse=True)) == smith_exponents(got.basis)
    assert sum(exps) == got.det_valuation


@settings(max_examples=30, deadline=None)
@given(QS, SEEDS, st.booleans())
def test_ladder_equals_untruncated_on_spans(q, seed, series):
    field = LocalField(q)
    stack = _stack(field, seed, series)
    action = _matrix(field, random.Random(seed + 1), 4, 4)
    span = stack.hstack(action * stack)
    assert (_outcome(smith_exponents_rectangular, span, span.nrows)
            == _untruncated_smith(span, span.nrows))
    assert _outcome(canonicalize, field, span) == _untruncated_hermite(field, span)


@settings(max_examples=30, deadline=None)
@given(QS, SEEDS, st.integers(min_value=1, max_value=3))
def test_ladder_equals_untruncated_on_idempotent_products(q, seed, rank):
    field = LocalField(q)
    rng = random.Random(seed)
    proj = _idempotent(field, rng, rank) * _stack(field, seed, False)
    got = _outcome(smith_exponents_rectangular, proj, rank)
    assert got == _untruncated_smith(proj, rank)
    if not isinstance(got, type):
        assert len(got) == rank


def _triangular(field, rng, rank, inexact):
    """An exact upper triangular basis with diagonal pi^a, -2 <= a <= 3,
    and Laurent polynomials of valuation >= -3 above it; with inexact, one
    entry above the diagonal is known only modulo a random power of pi
    (an O(pi^k) when that power is at most its valuation)."""
    rows = [[field.zero] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = field.pi(rng.randint(-2, 3))
        for j in range(i + 1, rank):
            if rng.random() < 0.8:
                rows[i][j] = field.random_element(rng, -3, 3, terms=rng.randint(1, 5))
    if inexact and rank > 1:
        j = rng.randrange(1, rank)
        x = field.random_element(rng, -3, 3, terms=5)
        rows[rng.randrange(j)][j] = x.truncate(rng.randint(-3, 6))
    return Matrix(field, rows)


def _ladder_hermite(field, mat):
    cols = [list(mat.column(j)) for j in range(mat.ncols)]
    return _outcome(_on_ladder, lambda c: _hermite(field, mat.nrows, c), field, cols)


@settings(max_examples=80, deadline=None)
@given(QS, SEEDS, st.integers(min_value=1, max_value=5), st.booleans())
def test_triangular_bases_skip_the_ladder(q, seed, rank, inexact):
    # canonicalize takes the final reduction alone on an upper triangular
    # basis with an exact monomial diagonal; the ladder's elimination gives
    # the same lattice, or both raise
    field = LocalField(q)
    basis = _triangular(field, random.Random(seed), rank, inexact)
    assert (_key(_outcome(canonicalize, field, basis))
            == _key(_ladder_hermite(field, basis)))


@pytest.mark.parametrize("entry, certified", [
    (lambda F: F.one + F.o_term(3), True), (lambda F: F.o_term(1), False),
    (lambda F: F.pi(-1) + F.o_term(1), False)])
def test_triangular_basis_with_an_inexact_entry(entry, certified):
    # the entry above the pivot pi^2 must be known modulo pi^2
    F = LocalField(3)
    basis = Matrix(F, [[F.pi(2), entry(F)], [F.zero, F.one]])
    got = _outcome(canonicalize, F, basis)
    assert _key(got) == _key(_ladder_hermite(F, basis))
    assert (got is PrecisionExhausted) is not certified
    if certified:
        assert got.basis.rows[0][1] == F.one


@pytest.mark.parametrize("rows", [
    lambda F: [[F.pi(2).truncate(5), F.one], [F.zero, F.one]],
    lambda F: [[F.from_int(2) * F.pi(2), F.one],
               [F.zero, F.one]],
    lambda F: [[F.pi(), F.one], [F.o_term(5), F.one]],
    lambda F: [[F.pi(), F.one, F.zero], [F.zero, F.one, F.one]]])
def test_near_triangular_bases_take_the_ladder(rows):
    # an inexact or non-monic diagonal entry, an undetermined entry below
    # the diagonal or a non-square basis: the elimination still runs
    F = LocalField(3)
    basis = Matrix(F, rows(F))
    got = canonicalize(F, basis)
    assert got.key() == _key(_ladder_hermite(F, basis))
    assert all(x.is_exact for row in got.basis.rows for x in row)


def _square(field, seed, series):
    """A 4 x 4 integral matrix, full rank unless a random one is singular."""
    rng = random.Random(seed)
    square = _matrix(field, rng, 4, 4)
    if series:
        square = mat_inverse(_unimodular(field, rng)) * square
    return square


@settings(max_examples=30, deadline=None)
@given(QS, SEEDS, st.booleans())
def test_square_smith_equals_untruncated(q, seed, series):
    square = _square(LocalField(q), seed, series)
    got = _outcome(smith_exponents, square)
    ref = _untruncated_smith(square)
    if isinstance(ref, type):
        assert got is ref
    elif len(ref) < 4:
        assert got is SingularBasis
    else:
        assert got == tuple(sorted(ref, reverse=True))
    for n in (8, 12, 40):
        low = _outcome(smith_exponents, _square(LocalField(q, n), seed, series))
        if low is not PrecisionExhausted:
            assert low == got


@settings(max_examples=25, deadline=None)
@given(QS, SEEDS, st.booleans())
def test_lower_precision_agrees_or_raises(q, seed, series):
    ref_field = LocalField(q, 40)
    ref_stack = _stack(ref_field, seed, series)
    ref = _outcome(canonicalize, ref_field, ref_stack)
    ref_exps = _outcome(smith_exponents_rectangular, ref_stack)
    for n in (8, 12, 40):
        field = LocalField(q, n)
        stack = _stack(field, seed, series)
        got = _outcome(canonicalize, field, stack)
        if got is not PrecisionExhausted:
            assert _key(got) == _key(ref)
        exps = _outcome(smith_exponents_rectangular, stack)
        if exps is not PrecisionExhausted:
            assert exps == ref_exps


# -- the Smith-form oracle with transforms (full precision) ------------------------


@settings(max_examples=30, deadline=None)
@given(QS, SEEDS, st.booleans(), st.booleans())
def test_smith_form_transforms(q, seed, series, square):
    field = LocalField(q)
    mat = (_square if square else _stack)(field, seed, series)
    got = _outcome(smith_form, mat)
    # the exponents are those of the untruncated row sweeps, pivot for pivot
    if isinstance(got, type):
        assert got is _untruncated_smith(mat)
        return
    R, D, C = got
    assert D == _untruncated_smith(mat)
    assert sorted(D) == sorted(smith_exponents_rectangular(mat))
    diag = [[field.zero] * mat.ncols for _ in range(mat.nrows)]
    for k, d in enumerate(D):
        diag[k][k] = field.pi(d)
    assert (R * mat * C).same(Matrix(field, diag))
    assert mat_det(R).valuation() == 0 and mat_det(C).valuation() == 0


# -- pivots hidden behind undetermined entries -------------------------------------

F = LocalField(3)
one, pi = F.one, F.pi()


def _hidden_cases():
    """(matrix, rank) whose least valuation may sit under an O(pi^k), k <= the
    visible pivot's valuation."""
    return [
        (Matrix(F, [[F.o_term(1), F.pi(2)]]), None),
        (Matrix(F, [[F.o_term(2), F.pi(2) + F.pi(3)]]), None),
        (Matrix(F, [[F.pi(2), F.zero], [F.o_term(1), F.pi(2)]]), None),
        (Matrix(F, [[pi, one, F.zero],
                    [F.o_term(2), F.pi(3), F.pi(4) + pi.shift(5)]]), 2),
        # hidden only once the undetermined entry is swept with the pivot
        (Matrix(F, [[F.pi(3), one, F.pi(5)], [F.o_term(1), one, F.zero]]), None),
        (Matrix(F, [[one, one], [F.o_term(1), F.pi(5)]]), 2),
    ]


@pytest.mark.parametrize("mat,rank", _hidden_cases())
def test_hidden_pivot_raises_in_both_kernels(mat, rank):
    lo = min(x.val for r in mat.rows for x in r if x.coeffs)
    cut = lo + _FIRST_RUNG
    rows = [[x if x.is_exact_zero else x.truncate(cut) for x in r] for r in mat.rows]
    with pytest.raises(PrecisionExhausted):
        _smith([list(r) for r in rows], rank)
    with pytest.raises(PrecisionExhausted):
        _hermite(F, mat.nrows, [list(c) for c in zip(*rows)])
    with pytest.raises(PrecisionExhausted):
        smith_exponents_rectangular(mat, rank)
    with pytest.raises(PrecisionExhausted):
        canonicalize(F, mat)
    with pytest.raises(PrecisionExhausted):
        smith_form(mat)


def test_square_smith_refuses_a_hidden_pivot():
    mat = Matrix(F, [[F.o_term(1), F.pi(2)], [F.pi(2), F.pi(5)]])
    with pytest.raises(PrecisionExhausted):
        smith_exponents(mat)
    with pytest.raises(PrecisionExhausted):
        smith_form(mat)


def test_pivot_below_every_undetermined_entry_is_accepted():
    mat = Matrix(F, [[F.o_term(3), F.pi(2)]])
    assert smith_exponents_rectangular(mat) == [2]
    assert canonicalize(F, mat).diag == (2,)


def test_undetermined_remainder_needs_the_rank():
    # rank one: the second row is pi times the first, up to O(pi^6)
    row = [one + pi, pi, F.pi(2)]
    mat = Matrix(F, [row, [(x * pi).truncate(6) for x in row]])
    assert smith_exponents_rectangular(mat, rank=1) == [0]
    with pytest.raises(PrecisionExhausted):
        smith_exponents_rectangular(mat)


def test_inverse_claims_only_computed_digits():
    field = LocalField(3, 8)
    x = field.element(0, [1, 1], known_to=30)
    xi = x.inv()
    assert xi.known_to == 16  # N + 8 digits computed, not 30
    assert (x * xi).same(field.one)
    m = field.element(1, [2], known_to=3)
    assert m.inv().known_to == 1  # pi^-1 (1 + O(pi^2)) / 2
    assert field.element(1, [2]).inv().known_to == INF


# -- the split traversal at low precision ------------------------------------------


def _split_alpha_values(q, n, fs):
    """orbital_alpha of each f (an outcome, as _outcome gives it) on alpha
    pairs whose second family is split, built at precision n: the matched
    pair of seed 5 at q = 2 or 9; at q = 3 those of seeds 1 and 3 and their
    rank-4 direct sum (thm212's unramified configuration)."""
    from fflab.etale import SPLIT, UNRAMIFIED, build_quadratic
    from fflab.quotients import PairQuotient
    from fflab.orbital import OrbitalProblem
    from fflab.pairs import direct_sum, match_alpha, random_pair
    field = LocalField(q, n)
    e0, e1 = build_quadratic(SPLIT, field), build_quadratic(UNRAMIFIED, field)
    alphas = []
    for seed in ((1, 3) if q == 3 else (5,)):
        _, inv, _ = random_pair(e1, e1, 1, seed=seed)
        alphas.append(match_alpha(inv.delta, e0, inv.target)[0])
    out = []
    for target in alphas + ([direct_sum(*alphas)] if q == 3 else []):
        for f in fs(field, 2 * target.n):
            prob = OrbitalProblem(target, f, twisted=True)
            assert isinstance(prob.state.quotient, PairQuotient)
            out.append(_outcome(lambda: prob.evaluate()[0]))
    return out


@pytest.mark.parametrize("q", [2, 3, 9])
def test_split_traversal_at_lower_precision_agrees_or_raises(q):
    from fflab.hecke import f_of_m, t_m, unit

    def fs(field, rank):
        return [unit(rank), t_m(rank, 1), f_of_m(rank, (1,), field)]
    ref = _split_alpha_values(q, 40, fs)
    assert PrecisionExhausted not in ref
    for n in (6, 10, 16):
        for got, want in zip(_split_alpha_values(q, n, fs), ref):
            assert got is PrecisionExhausted or got == want


# -- the stack traversal at low precision ------------------------------------------


def _stack_values(q, n, fs):
    """orbital_beta or orbital_alpha of each f (an outcome, as _outcome gives
    it) on targets whose second family is not split, built at precision n:
    at q = 3 the rank-4 direct sums of thm212's ramified configuration
    (seeds 0 and 1), beta side and alpha side; at q = 2 or 9 the pair of
    seed 5 on (E1, E1), beta side."""
    from fflab.etale import RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic
    from fflab.quotients import StackQuotient
    from fflab.orbital import OrbitalProblem
    from fflab.pairs import direct_sum, match_alpha, random_pair
    field = LocalField(q, n)
    e0, e1 = build_quadratic(SPLIT, field), build_quadratic(UNRAMIFIED, field)
    if q == 3:
        e2 = build_quadratic(RAMIFIED, field)
        pairs = [random_pair(e1, e2, 1, seed=seed) for seed in (0, 1)]
        alphas = [match_alpha(inv.delta, e0, inv.target)[0] for _, inv, _ in pairs]
        targets = [(direct_sum(*[p for p, _, _ in pairs]), False),
                   (direct_sum(*alphas), True)]
    else:
        targets = [(random_pair(e1, e1, 1, seed=5)[0], False)]
    out = []
    for target, twisted in targets:
        for f in fs(field, 2 * target.n):
            prob = OrbitalProblem(target, f, twisted=twisted)
            assert isinstance(prob.state.quotient, StackQuotient)
            out.append(_outcome(lambda: prob.evaluate()[0]))
    return out


@pytest.mark.parametrize("q", [2, 3, 9])
def test_stack_traversal_at_lower_precision_agrees_or_raises(q):
    from fflab.hecke import f_of_m, t_m, unit

    def fs(field, rank):
        return [unit(rank), t_m(rank, 1), f_of_m(rank, (1,), field)]
    ref = _stack_values(q, 40, fs)
    assert PrecisionExhausted not in ref
    for n in (6, 10, 16):
        for got, want in zip(_stack_values(q, n, fs), ref):
            assert got is PrecisionExhausted or got == want
