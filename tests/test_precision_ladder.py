"""The lattice kernels' working-precision ladder against untruncated elimination.

canonicalize and smith_exponents_rectangular truncate their entries a few
digits above the least valuation and escalate on PrecisionExhausted.  A
truncated rung must give exactly the untruncated answer or raise; a lower
field precision must give the N = 40 answer or raise; and a pivot that an
undetermined entry could undercut must never be accepted.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fflab.errors import PrecisionExhausted, SingularBasis
from fflab.lattices import (_FIRST_RUNG, _hermite, _smith, canonicalize,
                            smith_exponents, smith_exponents_rectangular)
from fflab.linalg import Matrix, mat_inverse
from fflab.localfield import INF, LocalField

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
