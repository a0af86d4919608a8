import random

import pytest

from fflab.errors import NoSolution, SingularBasis
from fflab.linalg import (Matrix, Poly, berkowitz_charpoly, kernel_basis,
                          linear_solve, mat_det, mat_inverse, mat_rank)
from fflab.localfield import LocalField

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
