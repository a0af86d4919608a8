import random

import pytest
from hypothesis import given, settings, strategies as st

from fflab.errors import NoSolution, PrecisionExhausted, SingularBasis
from fflab.etale import SPLIT, UNRAMIFIED, build_quadratic
from fflab.linalg import (Matrix, Poly, _dot, _nonzero, berkowitz_charpoly, kernel_basis,
                          mat_det, mat_inverse, mat_rank, row_echelon, sylvester_map)
from fflab.localfield import LocalField
from oracles import linear_solve

F = LocalField(3)
one, pi = F.one, F.pi()


def test_det_triangular():
    m = Matrix(F, [[pi, one], [F.zero, pi]])
    assert mat_det(m) == F.pi(2)


def test_elimination_sweeps_undetermined_entries():
    # the O(pi^3) entry is not skipped: det = pi + O(pi^3), not an exact pi
    m = Matrix(F, [[pi, one], [F.o_term(3), one]])
    d = mat_det(m)
    assert d.same(pi) and d.known_to == 3
    low = mat_inverse(m).rows[1]
    assert low[0].is_zeroish and not low[0].is_exact_zero and low[0].known_to == 2
    assert low[1].same(one) and low[1].known_to == 2


def test_charpoly_diagonal():
    a, b = F.from_int(2), pi
    cp = berkowitz_charpoly(Matrix.diagonal(F, [a, b]))
    expect = Poly(F, [a * b, -(a + b), one])
    assert cp == expect


def test_charpoly_matches_det_and_trace():
    rng = random.Random(5)
    for _ in range(5):
        m = Matrix(F, [[F.random_element(rng, 0, 2) for _ in range(3)]
                       for _ in range(3)])
        cp = berkowitz_charpoly(m)
        assert cp.degree == 3 and cp.is_monic()
        d = mat_det(m)
        # constant coefficient is (-1)^n det
        assert cp.coeffs[0].same(-d)
        assert cp.coeffs[2].same(-m.trace())


def test_kernel_of_companion_eigen():
    # companion matrix of (T - a)(T - b); kernel of M - a must be rank one
    a, b = F.from_int(1), F.from_int(2)
    poly = Poly(F, [a * b, -(a + b), one])
    m = Matrix(F, [[F.zero, -poly.coeffs[0]], [one, -poly.coeffs[1]]])
    ident = Matrix.identity(F, 2)
    ker = kernel_basis(m - ident.scale(a))
    assert len(ker) == 1
    v = ker[0]
    mv = m.apply(v)
    # oracle: the kernel vector is an exact eigenvector
    assert all(x.same(y * a) for x, y in zip(mv, v))


def test_solve_and_no_solution():
    m = Matrix(F, [[one, pi], [F.zero, F.zero]])
    x = linear_solve(m, [one + pi, F.zero])
    got = m.apply(x)
    assert got[0].same(one + pi) and got[1].same(F.zero)
    with pytest.raises(NoSolution):
        linear_solve(m, [F.zero, one])


def test_inverse_and_singular():
    m = Matrix(F, [[one, pi], [pi, one]])
    assert (m * mat_inverse(m)).same(Matrix.identity(F, 2))
    with pytest.raises(SingularBasis):
        mat_inverse(Matrix(F, [[one, one], [one, one]]))


def test_rank():
    assert mat_rank(Matrix(F, [[one, one], [one, one]])) == 1
    assert mat_rank(Matrix.identity(F, 3)) == 3


def test_kron_layout_zeros_and_undetermined_entries():
    two = F.from_int(2)
    a = Matrix(F, [[one, F.zero, pi], [F.o_term(2), two, F.pi(-1)]])    # 2 x 3
    b = Matrix(F, [[pi, F.zero], [F.o_term(1), one], [two, pi + one]])  # 3 x 2
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (6, 6)
    for i in range(2):
        for j in range(3):
            for p in range(3):
                for r in range(2):
                    x, y = a[i, j], b[p, r]
                    got = k[i * 3 + p, j * 2 + r]
                    if x.is_exact_zero or y.is_exact_zero:
                        assert got.is_exact_zero
                    else:
                        assert got.key() == (x * y).key()
    # O(pi^2) * pi is O(pi^3); O(pi^2) * O(pi^1) is O(pi^3); a zero factor wins
    assert k[3, 0].key() == F.o_term(3).key()
    assert k[4, 0].key() == F.o_term(3).key()
    assert k[3, 1].is_exact_zero and k[1, 2].is_exact_zero


def test_kron_is_the_row_major_vec_identity():
    # vec(A X B) = (A kron B^T) vec(X), and sylvester_map(a, b) is X -> X b - a X
    rng = random.Random(5)

    def mat(n, m):
        return Matrix(F, [[F.random_element(rng, vmin=-1) for _ in range(m)]
                          for _ in range(n)])

    def vec(m):
        return [x.key() for r in m.rows for x in r]

    A, X, B = mat(2, 3), mat(3, 4), mat(4, 2)
    flat = [x for r in X.rows for x in r]
    assert [x.key() for x in A.kron(B.transpose()).apply(flat)] == vec(A * X * B)
    a, b, Y = mat(2, 2), mat(3, 3), mat(2, 3)
    got = sylvester_map(a, b).apply([x for r in Y.rows for x in r])
    assert [x.key() for x in got] == vec(Y * b - a * Y)


# -- the elimination record against fresh objects and the augmented loop ------

def _reference_echelon(mat, aug, zeroish_ok):
    """The augmented elimination without a record: the matrix's rows and
    the augment's rows swept together, raising at the first column that
    has no certified pivot but an undetermined entry."""
    rows = [list(r) for r in mat.rows]
    aug = [list(r) for r in aug]
    pivots = []
    r = 0
    for c in range(mat.ncols):
        best, undet = None, False
        for i in range(r, mat.nrows):
            x = rows[i][c]
            if x.coeffs:
                if best is None or x.val < rows[best][c].val:
                    best = i
            elif not x.is_exact_zero:
                undet = True
        if best is None:
            if undet and not zeroish_ok:
                raise PrecisionExhausted("pivot valuations cannot be certified")
            continue
        rows[r], rows[best] = rows[best], rows[r]
        aug[r], aug[best] = aug[best], aug[r]
        piv_inv = rows[r][c].inv()
        for i in range(mat.nrows):
            if i != r and not rows[i][c].is_exact_zero:
                factor = rows[i][c] * piv_inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == mat.nrows:
            break
    return rows, aug, pivots


def _reference_solve(mat, rhs, zeroish_ok):
    rows, aug, pivots = _reference_echelon(mat, [[x] for x in rhs], zeroish_ok)
    for i in range(len(pivots), mat.nrows):
        if aug[i][0].coeffs:
            raise NoSolution("inconsistent linear system")
        if not aug[i][0].is_exact_zero and not zeroish_ok:
            raise PrecisionExhausted("consistency of linear system not certified")
    x = [mat.ring.zero] * mat.ncols
    for r, c in pivots:
        x[c] = aug[r][0] * rows[r][c].inv()
    return x


def _reference_inverse(mat):
    n = mat.nrows
    rows, aug, pivots = _reference_echelon(mat, Matrix.identity(mat.ring, n).rows, False)
    if len(pivots) < n:
        raise SingularBasis("matrix is singular over F")
    return Matrix(mat.ring, [[aug[r][j] * rows[r][c].inv() for j in range(n)]
                             for r, c in sorted(pivots, key=lambda p: p[1])])


def _keys(fn, *args):
    """The result's element keys (known_to included), or the error type."""
    try:
        out = fn(*args)
    except (NoSolution, PrecisionExhausted, SingularBasis) as e:
        return type(e).__name__
    if isinstance(out, int):
        return out
    rows = out.rows if isinstance(out, Matrix) else out
    return tuple(tuple(e.key() for e in row) if isinstance(row, (list, tuple))
                 else row.key() for row in rows)


def _elim_entry(field, rng, kind):
    roll = rng.random()
    if roll < 0.2:
        return field.zero
    if roll < 0.3:
        return field.o_term(rng.randint(0, 3))
    x = field.random_element(rng, 0, 2, terms=rng.randint(1, 3))
    if kind == "series":
        x = field.random_element(rng, unit=True).inv().shift(rng.randint(0, 2)) + x
    return x


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3, 9]), shape=st.sampled_from([(2, 1), (4, 2), (4, 4)]),
       kind=st.sampled_from(["poly", "series"]), seed=st.integers(0, 2 ** 32))
def test_record_replays_like_a_fresh_elimination(q, shape, kind, seed):
    field = LocalField(q)
    rng = random.Random(seed)
    nrows, ncols = shape
    rows = [[_elim_entry(field, rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-1 if nrows == 1 else 1])]
    m = Matrix(field, rows)
    h = hash(m)

    def fresh():
        return Matrix(field, m.rows)

    for _ in range(6):
        zeroish_ok = rng.random() < 0.5
        if rng.random() < 0.5:
            x = [_elim_entry(field, rng, kind) for _ in range(ncols)]
            rhs = fresh().apply(x)
        else:
            rhs = [_elim_entry(field, rng, kind) for _ in range(nrows)]
        got = _keys(linear_solve, m, rhs, zeroish_ok)
        assert got == _keys(linear_solve, fresh(), rhs, zeroish_ok)
        assert got == _keys(_reference_solve, fresh(), rhs, zeroish_ok)
        assert _keys(kernel_basis, m, zeroish_ok) == _keys(kernel_basis, fresh(), zeroish_ok)
        assert _keys(mat_rank, m, zeroish_ok) == _keys(mat_rank, fresh(), zeroish_ok)
        if nrows == ncols:
            inv = _keys(mat_inverse, m)
            assert inv == _keys(mat_inverse, fresh()) == _keys(_reference_inverse, fresh())
    # the record takes no part in equality or hashing
    assert m == fresh() and hash(m) == hash(fresh()) == h


def _dense_dot(row, vec, zero):
    """Every term, exact zeros included, added in index order."""
    acc = zero
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def _check_products_match_dense(ring, entry, rng, shape):
    """Matrix.__mul__, apply and _dot against the dense sum by element keys,
    on entries from entry() with exact zeros added as triangular bases and
    block-diagonal eigen-coordinates have them: a lower triangle, or a whole
    row and column."""
    n, k, m = shape
    zero = ring.zero
    a_rows = [[entry() for _ in range(k)] for _ in range(n)]
    b_rows = [[entry() for _ in range(m)] for _ in range(k)]
    roll = rng.random()
    if roll < 0.25:
        b_rows = [[zero if i > j else x for j, x in enumerate(r)] for i, r in enumerate(b_rows)]
    elif roll < 0.5:
        a_rows[rng.randrange(n)] = [zero] * k
        j = rng.randrange(m)
        for r in b_rows:
            r[j] = zero
    a, b = Matrix(ring, a_rows), Matrix(ring, b_rows)
    vec = [entry() for _ in range(k)]
    dense = [[_dense_dot(r, b.column(j), zero).key() for j in range(m)] for r in a.rows]
    assert [[x.key() for x in r] for r in (a * b).rows] == dense
    want = [_dense_dot(r, vec, zero).key() for r in a.rows]
    assert [x.key() for x in a.apply(vec)] == want
    assert [_dot(r, _nonzero(vec), zero).key() for r in a.rows] == want
    for x in vec:
        assert (x + zero).key() == (zero + x).key() == (x - zero).key() == x.key()
        assert (zero - x).key() == (-x).key()


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3, 9]),
       shape=st.sampled_from([(1, 1, 1), (2, 3, 2), (4, 4, 4), (4, 8, 3)]),
       kind=st.sampled_from(["poly", "series"]), seed=st.integers(0, 2 ** 32))
def test_products_skip_exact_zeros_like_the_dense_sum(q, shape, kind, seed):
    field = LocalField(q)
    rng = random.Random(seed)
    _check_products_match_dense(field, lambda: _elim_entry(field, rng, kind), rng, shape)


@pytest.mark.parametrize("kind", [SPLIT, UNRAMIFIED])
def test_etale_products_skip_exact_zeros_like_the_dense_sum(kind):
    alg = build_quadratic(kind, F)
    rng = random.Random(7)

    def entry():
        if rng.random() < 0.3:
            return alg.zero
        return alg.element(_elim_entry(F, rng, "series"), _elim_entry(F, rng, "poly"))

    for shape in [(2, 2, 2), (3, 4, 2), (4, 4, 4)] * 5:
        _check_products_match_dense(alg, entry, rng, shape)


def test_failed_elimination_is_not_served_as_a_success():
    # no certified pivot in the column, only undetermined entries
    m = Matrix(F, [[F.o_term(2)], [F.o_term(1)]])
    rhs = [F.o_term(3), F.zero]
    with pytest.raises(PrecisionExhausted):
        linear_solve(m, rhs)
    assert linear_solve(m, rhs, zeroish_ok=True) == [F.zero]
    with pytest.raises(PrecisionExhausted):
        linear_solve(m, rhs)
    with pytest.raises(PrecisionExhausted):
        mat_rank(m)
    assert mat_rank(m, zeroish_ok=True) == 0


def _check_kernel_identity_block(mat, zeroish_ok):
    """Each basis vector is an exact one at its free column and an exact
    zero at the other free columns."""
    basis = kernel_basis(mat, zeroish_ok)
    pivot_cols = {c for _, c in row_echelon(mat, zeroish_ok).pivots}
    free = [c for c in range(mat.ncols) if c not in pivot_cols]
    assert len(basis) == len(free)
    for v, fc in zip(basis, free):
        for c in free:
            if c == fc:
                assert v[c] == mat.ring.one
            else:
                assert v[c].is_exact_zero


def test_kernel_basis_has_an_identity_block_on_its_free_rows():
    rng = random.Random(11)
    for q in (2, 3, 9):
        field = LocalField(q)
        for shape in [(1, 3), (2, 4), (3, 5), (4, 8)] * 5:
            nrows, ncols = shape
            m = Matrix(field, [[_elim_entry(field, rng, "series") for _ in range(ncols)]
                               for _ in range(nrows)])
            _check_kernel_identity_block(m, zeroish_ok=True)
            if row_echelon(m, zeroish_ok=True).certified:
                _check_kernel_identity_block(m, zeroish_ok=False)


def test_kernel_basis_identity_block_without_certified_pivots():
    # column 0 holds only an O(pi^3) and an exact zero, so the zeroish_ok
    # elimination skips it uncertified and it becomes a free column too
    m = Matrix(F, [[F.o_term(3), one, pi, F.zero], [F.zero, F.zero, one, pi]])
    assert not row_echelon(m, zeroish_ok=True).certified
    with pytest.raises(PrecisionExhausted):
        kernel_basis(m)
    _check_kernel_identity_block(m, zeroish_ok=True)
    assert len(kernel_basis(m, zeroish_ok=True)) == 2
