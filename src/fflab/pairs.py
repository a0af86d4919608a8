"""Pairs of embeddings of two quadratic etale algebras into M_2n(F).

The invariant of a pair is the monic square root of the characteristic
polynomial of the normalized element s = d^-1 (c - w), taken over the
fixed coefficient algebra of the pair; w is the cross product of the two
generator images, and c, d are the structure constants of the affine
eigenvalue relation.  The normalization is calibrated once per algebra
configuration so that the reflection symmetry of invariants holds, and is
asserted on every computation thereafter.
"""

import random
from math import gcd

from .errors import (FactorFail, NormalizationFail, NotFound, SearchTimeout,
                     WrongDimension)
from .etale import (cd_constants, is_regular_semisimple,
                    pair_target_algebra, poly_components, poly_sqrt,
                    sigma_poly, symmetry_check)
from .factor import hensel_factor, poly_bezout
from .linalg import (Matrix, Poly, berkowitz_charpoly, kernel_basis, mat_det,
                     mat_inverse, mat_rank, sylvester_map)
from .lattices import GammaGenerator, GammaGroup


class EmbeddingPair:
    """Images A, B of the two algebra generators inside M_2n(F)."""

    __slots__ = ("Ea", "Eb", "A", "B", "n", "field", "_orbital")

    def __init__(self, Ea, Eb, A, B, check=True):
        self.Ea = Ea
        self.Eb = Eb
        self.A = A
        self.B = B
        self.field = Ea.field
        if A.nrows % 2:
            raise ValueError("ambient rank must be even")
        self.n = A.nrows // 2
        # the f-independent state of this pair's orbital integrals (an
        # orbital._PairState), built on first use and freed with the pair
        self._orbital = None
        if check:
            self._validate()

    def _validate(self):
        for alg, M in ((self.Ea, self.A), (self.Eb, self.B)):
            ident = Matrix.identity(self.field, 2 * self.n)
            rel = M * M - M.scale(alg.tr) + ident.scale(alg.nm)
            if not rel.same(Matrix.zero(self.field, 2 * self.n)):
                raise ValueError("generator image violates its minimal polynomial")
            if alg.split_roots is not None:
                proj, _ = alg.eigen_projectors(M)
                if mat_rank(proj, zeroish_ok=True) != self.n:
                    raise ValueError("split embedding is not balanced")

    def conjugate(self, g, g_inv=None):
        gi = g_inv if g_inv is not None else mat_inverse(g)
        return EmbeddingPair(self.Ea, self.Eb, g * self.A * gi, g * self.B * gi,
                             check=False)

    def __repr__(self):
        return f"EmbeddingPair({self.Ea.name},{self.Eb.name}; 2n={2*self.n})"


class InvariantData:
    __slots__ = ("delta", "rs_flag", "target")

    def __init__(self, delta, rs_flag, target):
        self.delta = delta
        self.rs_flag = rs_flag
        self.target = target

    def __repr__(self):
        return f"InvariantData(deg={self.delta.degree}, rs={self.rs_flag})"


def w_element(pair):
    """w = B A + A^sigma B^sigma; centralizes both images on rs pairs."""
    A, B = pair.A, pair.B
    tr_a, tr_b = pair.Ea.tr, pair.Eb.tr
    ident = Matrix.identity(pair.field, 2 * pair.n)
    As = ident.scale(tr_a) - A
    Bs = ident.scale(tr_b) - B
    return B * A + As * Bs


_NORMALIZATIONS = {}  # (q, kind_a, kind_b) -> transform id


def _apply_normalization(delta, which):
    n = delta.degree
    if which == "identity":
        return delta
    if which == "sigma":
        return sigma_poly(delta)
    if which == "negate":
        out = delta.reverse_variable()
        return out if n % 2 == 0 else -out
    if which == "sigma-negate":
        out = sigma_poly(delta).reverse_variable()
        return out if n % 2 == 0 else -out
    raise NormalizationFail(f"unknown normalization {which}")


def invariant(pair):
    """Invariant polynomial, regular-semisimplicity flag and target algebra."""
    target = pair_target_algebra(pair.Ea, pair.Eb)
    c, d = cd_constants(pair.Ea, pair.Eb, target)
    w = w_element(pair)
    dinv = d.inv()
    n2 = 2 * pair.n
    rows = []
    for i in range(n2):
        row = []
        for j in range(n2):
            x = target.from_field(-w.rows[i][j])
            if i == j:
                x = x + c
            row.append(x * dinv)
        rows.append(row)
    s = Matrix(target, rows)
    chi = berkowitz_charpoly(s)
    delta0 = poly_sqrt(chi)
    key = (pair.field.q, pair.Ea.kind, pair.Eb.kind)
    which = _NORMALIZATIONS.get(key)
    if which is None:
        for cand in ("identity", "sigma", "negate", "sigma-negate"):
            if symmetry_check(_apply_normalization(delta0, cand)):
                _NORMALIZATIONS[key] = which = cand
                break
        if which is None:
            raise NormalizationFail("no affine normalization restores the symmetry")
    delta = _apply_normalization(delta0, which)
    if not symmetry_check(delta):
        raise NormalizationFail("calibrated normalization failed the symmetry check")
    return InvariantData(delta, is_regular_semisimple(delta), target)


def direct_sum(p0, p1):
    if p0.Ea is not p1.Ea or p0.Eb is not p1.Eb:
        if p0.Ea != p1.Ea or p0.Eb != p1.Eb:
            raise ValueError("components must share their algebra pair")
    A = Matrix.block_diag(p0.field, [p0.A, p1.A])
    B = Matrix.block_diag(p0.field, [p0.B, p1.B])
    return EmbeddingPair(p0.Ea, p0.Eb, A, B, check=False)


# -- centralizers -------------------------------------------------------------------


def _commutant_basis(field, mats, size):
    """Basis of {X : XM = MX for all M}, as matrices.

    Row-major, vec(A X B) = (A kron B^T) vec(X), so vec(XM - MX) is
    (I kron M^T - M kron I) vec(X): the commutant is the kernel of those
    blocks stacked, one per M.
    """
    rows = [r for M in mats for r in sylvester_map(M, M).rows]
    ker = kernel_basis(Matrix(field, rows), zeroish_ok=True)
    out = []
    zero = Matrix.zero(field, size)
    for v in ker:
        m = Matrix(field, [v[k:k + size] for k in range(0, len(v), size)])
        for M in mats:
            if not (m * M - M * m).same(zero):
                raise WrongDimension("commutant candidate fails to commute")
        out.append(m)
    return out


def _integral_scale(mat):
    """pi-power rescaling of a matrix into M(O_F)."""
    worst = 0
    for r in mat.rows:
        for e in r:
            if e.coeffs:
                worst = min(worst, e.valuation())
    return mat.map(lambda e: e.shift(-worst)) if worst < 0 else mat


def _minimal_polynomial(field, mat):
    """Monic minimal polynomial of a matrix over F by linear algebra."""
    size = mat.nrows
    powers = [Matrix.identity(field, size)]
    while True:
        powers.append(powers[-1] * mat)
        k = len(powers) - 1
        cols = [[p.rows[i][j] for i in range(size) for j in range(size)]
                for p in powers]
        m = Matrix.from_columns(field, cols)
        kb = kernel_basis(m, zeroish_ok=True)
        if kb:
            v = kb[0]
            lead = v[k]
            if lead.coeffs:
                return Poly(field, list(v)).force_monic()
        if k > size:
            raise WrongDimension("minimal polynomial search exceeded the dimension")


class CentralizerFactor:
    __slots__ = ("idempotent", "gamma", "degree", "minpoly")

    def __init__(self, idempotent, gamma, degree, minpoly):
        self.idempotent = idempotent
        self.gamma = gamma
        self.degree = degree
        self.minpoly = minpoly


class Centralizer:
    """Joint commutant of a pair: basis, factor idempotents and uniformizers."""

    def __init__(self, field, basis, factors):
        self.field = field
        self.basis = basis
        self.factors = factors

    def gamma_group(self):
        gens = [GammaGenerator(f.gamma, f.idempotent)
                for f in self.factors]
        return GammaGroup(self.field, gens)


def centralizer(pair):
    """Centralizer of both images; raises WrongDimension unless it has rank n."""
    field = pair.field
    size = 2 * pair.n
    basis = _commutant_basis(field, [pair.A, pair.B], size)
    if len(basis) != pair.n:
        raise WrongDimension(
            f"centralizer has dimension {len(basis)}, expected {pair.n}")
    factors = decompose_commutative_algebra(field, basis, size)
    return Centralizer(field, basis, factors)


def decompose_commutative_algebra(field, basis, size):
    """Idempotents and uniformizer matrices of a commutative etale matrix algebra."""
    rng = random.Random(0)
    n = len(basis)
    ident = Matrix.identity(field, size)
    scaled = [_integral_scale(b) for b in basis]
    for attempt in range(32):
        x = Matrix.zero(field, size)
        for b in scaled:
            x = x + b.scale(field.from_int(rng.randrange(1, field.q * 3)))
        x = _integral_scale(x)
        try:
            mp = _minimal_polynomial(field, x)
        except WrongDimension:
            continue
        if mp.degree == n:
            break
    else:
        raise WrongDimension("no primitive element found for the centralizer")
    fac = hensel_factor(mp)
    if any(m != 1 for _, m in fac):
        raise WrongDimension("centralizer algebra is not etale (repeated factor)")
    factors = []
    for mj, _ in fac:
        rest = Poly(field, [field.one])
        for other, _ in fac:
            if other is not mj:
                rest = rest * other
        u, _v, g = poly_bezout(rest, mj)
        if g.degree:
            raise FactorFail("polynomials are not coprime")
        ej = (u * rest)(x)
        if not (ej * ej).same(ej):
            raise FactorFail("idempotent reconstruction lost precision")
        gamma = _factor_uniformizer(field, x, ej, mj, ident)
        factors.append(CentralizerFactor(ej, gamma, mj.degree, mj))
    total = Matrix.zero(field, size)
    for f in factors:
        total = total + f.idempotent
    if not total.same(ident):
        raise FactorFail("idempotents do not sum to the identity")
    return factors


def _det_val_on_factor(mat, ej, ident):
    """Valuation of det of (mat on im ej) + (identity elsewhere); raises
    PrecisionExhausted when no digit of the determinant is certified."""
    return mat_det(mat * ej + (ident - ej)).valuation()


def _factor_uniformizer(field, x, ej, mj, ident):
    """Matrix acting as a uniformizer of the factor and identity elsewhere."""
    pi_cand = ej.scale(field.pi()) + (ident - ej)
    if mj.degree == 1:
        return pi_cand
    v_pi = _det_val_on_factor(ident.scale(field.pi()), ej, ident)
    # best residue shift of the primitive element
    best = None
    for a in range(field.q):
        shifted = x - ident.scale(field.from_fq(a))
        v = _det_val_on_factor(shifted, ej, ident)
        if v > 0 and (best is None or v > best[0]):
            best = (v, shifted)
    if best is None:
        # no residue shift of the integral x has positive determinant
        # valuation on the factor, so x has no residue in F_q: a factor of
        # degree <= 2 then has residue degree 2, and pi is its uniformizer
        return pi_cand
    v_xi, xi = best
    g = gcd(v_xi, v_pi)
    if g == v_pi:
        return pi_cand
    if g == v_xi:
        return xi * ej + (ident - ej)
    # Bezout: i*v_xi + k*v_pi = g with small i >= 0
    i = next(i for i in range(1, v_pi + 1) if (g - i * v_xi) % v_pi == 0)
    k = (g - i * v_xi) // v_pi
    m = Matrix.identity(field, ident.nrows)
    for _ in range(i):
        m = m * xi
    m = m.map(lambda e: e.shift(k))
    return m * ej + (ident - ej)


# -- pair generation -------------------------------------------------------------------


def standard_embedding(alg, n):
    """Block companion embedding of the algebra into M_2n(F)."""
    return Matrix.block_diag(alg.field, [_companion(alg.gen_minpoly())] * n)


# lower-upper unitriangular factor pairs in a random unimodular matrix
_UNIMODULAR_DEPTH = 2
# conjugation attempts before random_pair gives up
_PAIR_TRIES = 64


def random_unimodular(field, size, rng):
    """Random element of GL_size(O_F) with an exact inverse.

    Returns (g, g_inv); both are exact Laurent-polynomial matrices.
    """
    g = Matrix.identity(field, size)
    g_inv = Matrix.identity(field, size)
    for _ in range(_UNIMODULAR_DEPTH):
        for shape in ("lower", "upper"):
            rows = [[field.one if i == j else
                     (field.random_element(rng, 0, 2)
                      if ((i > j) if shape == "lower" else (i < j))
                      and rng.random() < 0.8 else field.zero)
                     for j in range(size)] for i in range(size)]
            m = Matrix(field, rows)
            g = g * m
            g_inv = mat_inverse(m) * g_inv
    return g, g_inv


def random_pair(Ea, Eb, n, seed):
    """Regular semisimple pair from conjugated standard block embeddings."""
    field = Ea.field
    rng = random.Random(seed)
    stdA = standard_embedding(Ea, n)
    stdB = standard_embedding(Eb, n)
    for attempt in range(_PAIR_TRIES):
        g1, g1i = random_unimodular(field, 2 * n, rng)
        g2, g2i = random_unimodular(field, 2 * n, rng)
        A = g1 * stdA * g1i
        B = g2 * stdB * g2i
        pair = EmbeddingPair(Ea, Eb, A, B, check=False)
        inv = invariant(pair)
        if inv.rs_flag:
            return pair, inv, attempt + 1
    raise SearchTimeout(f"no regular semisimple pair after {_PAIR_TRIES} tries")


# -- matching ---------------------------------------------------------------------------


def _companion(poly):
    F = poly.ring
    n = poly.degree
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = F.one
    for i in range(n):
        rows[i][n - 1] = -poly.coeffs[i]
    return Matrix(F, rows)


def match_alpha(delta, E0, E3):
    """A pair on (E0, E3) with the prescribed invariant, by closed-form solve.

    E0 must be split; the first generator image is the block idempotent
    diag(I_n, 0) and the second lies in the two-parameter block family
    [[a, I], [tr a - nm - a^2, tr - a]] with a solved from delta.
    """
    if E0.split_roots is None:
        raise ValueError("first algebra must be split")
    if not symmetry_check(delta):
        raise NotFound("target invariant violates the reflection symmetry")
    F = E0.field
    n = delta.degree
    c, d = cd_constants(E0, E3)
    if E3.split_roots is not None:
        d1, d2 = poly_components(Poly(E3, [d]))
        c1, c2 = poly_components(Poly(E3, [c]))
        delta1, delta2 = poly_components(delta)
        X1 = _companion(delta1)
        a = Matrix.identity(F, n).scale(c1.coeffs[0]) - X1.scale(d1.coeffs[0])
    else:
        if F.gf.p == 2:
            raise NotFound("field-target matching requires odd q")
        half = F.from_int(2).inv()
        # chi(S) = d^-n * delta(d*S + 1/2) has coefficients in F
        S_sub = Poly(E3, [E3.from_field(half), d])
        comp = delta.compose(S_sub)
        dinv_pow = E3.one
        d_inv = d.inv()
        coeffs_f = []
        for k in range(n):
            dinv_pow = dinv_pow * d_inv
        for co in comp.coeffs:
            x = co * dinv_pow
            if not x.b.is_zeroish:
                raise NotFound("descent of the target polynomial to F failed")
            coeffs_f.append(x.a)
        # an exactly monic chi keeps every key: x * one is x
        chi = Poly(F, coeffs_f).force_monic()
        Z = _companion(chi)
        tau = E3.tr  # tr_0 * tr_3 with tr_0 = 1
        dsq = (d * d).a  # d^2 lies in F
        a = Matrix.identity(F, n).scale(-(tau * half)) - Z.scale(dsq)
    ident = Matrix.identity(F, n)
    lower = a.scale(E3.tr) - ident.scale(E3.nm) - a * a
    C = Matrix(F, [list(a.rows[i]) + list(ident.rows[i]) for i in range(n)] +
               [list(lower.rows[i]) + list((ident.scale(E3.tr) - a).rows[i])
                for i in range(n)])
    A = Matrix.block_diag(F, [ident, Matrix.zero(F, n)])
    pair = EmbeddingPair(E0, E3, A, C)
    inv = invariant(pair)
    if not all(x.same(y) for x, y in zip(inv.delta.coeffs, delta.coeffs)):
        raise NotFound("constructed pair does not reproduce the invariant")
    return pair, inv
