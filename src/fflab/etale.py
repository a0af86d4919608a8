"""Quadratic etale F-algebras, their involutions, and the fixed algebra.

An algebra is presented by a generator z with monic minimal polynomial
T^2 - tr*T + nm over F; the nontrivial involution sends z to tr - z.
Elements are coordinate pairs (a, b) = a + b*z, and arithmetic takes two
elements of one algebra (from_field embeds F); poly_sqrt takes polynomials
over an algebra.  Split algebras also carry the two component maps
z -> r1, r2.  The fixed algebra of two quadratic field extensions inside
their tensor product is produced by compute_e3 with the generator
t = z1(x)z2 + z1^s(x)z2^s.
"""

from .errors import BothRamified, NotASquare, UnsupportedRamified
from .factor import hensel_factor, poly_gcd, sqrt_in_F
from .linalg import Matrix, Poly, det_berkowitz

SPLIT = "split"
UNRAMIFIED = "unramified"
RAMIFIED = "ramified"


class QuadraticEtale:
    """Quadratic etale algebra F[z]/(z^2 - tr z + nm) with involution z -> tr - z."""

    def __init__(self, field, kind, tr, nm, name=""):
        self.field = field
        self.kind = kind
        self.tr = tr
        self.nm = nm
        self.name = name or kind
        disc = tr * tr - field.from_int(4) * nm
        self.disc = disc
        v = disc.valuation()
        if v not in (0, 1):
            raise ValueError("generator does not span the maximal order")
        self.disc_valuation = v
        self.zero = EtaleElement(self, field.zero, field.zero)
        self.one = EtaleElement(self, field.one, field.zero)
        self.gen = EtaleElement(self, field.zero, field.one)
        self.split_roots = None
        if kind == SPLIT:
            roots = sorted(
                (f.coeffs[0] for f, _ in hensel_factor(self.gen_minpoly())),
                key=lambda c: (c.val, c.coeffs),
            )
            if len(roots) != 2:
                raise ValueError("split algebra must have a split minimal polynomial")
            self.split_roots = (-roots[0], -roots[1])

    # -- constructors ---------------------------------------------------------

    def element(self, a, b):
        return EtaleElement(self, a, b)

    def from_field(self, a):
        return EtaleElement(self, a, self.field.zero)

    def from_components(self, x, y):
        """Element with component values (x, y) under z -> (r1, r2); split only."""
        r1, r2 = self.split_roots
        d = r1 - r2
        b = (x - y) * d.inv()
        a = x - b * r1
        return EtaleElement(self, a, b)

    def eigen_projectors(self, M):
        """(P+, P-) for a matrix image M of the generator; split only.

        P+ = (M - r2) / (r1 - r2) projects onto the r1-eigenspace of M and
        P- = 1 - P+ onto the r2-eigenspace.
        """
        r1, r2 = self.split_roots
        ident = Matrix.identity(self.field, M.nrows)
        plus = (M - ident.scale(r2)).scale((r1 - r2).inv())
        return plus, ident - plus

    def gen_minpoly(self):
        F = self.field
        return Poly(F, [self.nm, -self.tr, F.one])

    def __eq__(self, other):
        return (isinstance(other, QuadraticEtale) and self.kind == other.kind
                and self.tr == other.tr and self.nm == other.nm
                and self.field == other.field)

    def __hash__(self):
        return hash((self.kind, self.tr, self.nm, self.field.q))

    def __repr__(self):
        return f"QuadraticEtale({self.name}, q={self.field.q})"


class EtaleElement:
    """Element a + b*z of a quadratic etale algebra."""

    __slots__ = ("algebra", "a", "b")

    def __init__(self, algebra, a, b):
        self.algebra = algebra
        self.a = a
        self.b = b

    @property
    def is_exact_zero(self):
        return self.a.is_exact_zero and self.b.is_exact_zero

    def __add__(self, other):
        return EtaleElement(self.algebra, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return EtaleElement(self.algebra, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return EtaleElement(self.algebra, -self.a, -self.b)

    def __mul__(self, other):
        alg = self.algebra
        # (a1 + b1 z)(a2 + b2 z), z^2 = tr*z - nm
        bb = self.b * other.b
        a = self.a * other.a - bb * alg.nm
        b = self.a * other.b + self.b * other.a + bb * alg.tr
        return EtaleElement(alg, a, b)

    def sigma(self):
        alg = self.algebra
        return EtaleElement(alg, self.a + self.b * alg.tr, -self.b)

    def norm(self):
        """Nm(x) = x * sigma(x), as a field element."""
        alg = self.algebra
        # (a + bz)(a + b(tr - z)) = a^2 + ab tr + b^2 nm
        return self.a * self.a + self.a * self.b * alg.tr + self.b * self.b * alg.nm

    def trace(self):
        return self.a + self.a + self.b * self.algebra.tr

    def is_invertible(self):
        """Invertibility in the algebra (nonzero norm), certified."""
        n = self.norm()
        if n.coeffs:
            return True
        if n.is_exact_zero:
            return False
        n.valuation()  # raises PrecisionExhausted
        return False

    def inv(self):
        n = self.norm()
        ninv = n.inv()
        s = self.sigma()
        return EtaleElement(self.algebra, s.a * ninv, s.b * ninv)

    def components(self):
        """(x, y) with z -> (r1, r2); split algebras only."""
        r1, r2 = self.algebra.split_roots
        return (self.a + self.b * r1, self.a + self.b * r2)

    def key(self):
        return (self.a.key(), self.b.key())

    def __eq__(self, other):
        if not isinstance(other, EtaleElement):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(self.key())

    def same(self, other):
        return self.a.same(other.a) and self.b.same(other.b)

    def __repr__(self):
        return f"({self.a}) + ({self.b})*z"

    def to_json(self):
        return [self.a.to_json(), self.b.to_json()]


# -- builders -------------------------------------------------------------------


def build_quadratic(kind, field):
    """Canonical quadratic etale algebra of the requested kind.

    split: z = (1, 0), minpoly T^2 - T;
    unramified: T^2 - c (odd q, c a fixed non-square unit) or the
        Artin-Schreier model T^2 - T - c at even q (absolute trace 1);
    ramified: T^2 - pi (odd q only).
    """
    F = field
    if kind == SPLIT:
        return QuadraticEtale(F, SPLIT, F.one, F.zero, "F x F")
    if kind == UNRAMIFIED:
        g = F.gf
        if g.p != 2:
            c = F.from_fq(g.nonsquare())
            return QuadraticEtale(F, UNRAMIFIED, F.zero, -c, "unramified")
        c = next(x for x in range(1, g.q) if g.trace_to_prime(x) == 1)
        return QuadraticEtale(F, UNRAMIFIED, F.one, -F.from_fq(c), "unramified")
    if kind == RAMIFIED:
        if F.gf.p == 2:
            raise UnsupportedRamified("ramified quadratic model requires odd q")
        return QuadraticEtale(F, RAMIFIED, F.zero, -F.pi(), "ramified")
    raise ValueError(f"unknown kind {kind!r}")


def compute_e3(e1, e2):
    """The fixed algebra of the double involution inside E1 (x) E2.

    Generator t = z1(x)z2 + z1^s(x)z2^s; its conjugate under the induced
    involution is t' = tr1*tr2 - t.  At least one input must be unramified.
    """
    if e1.kind == SPLIT or e2.kind == SPLIT:
        raise ValueError("inputs must be field extensions, not the split algebra")
    if e1.kind == RAMIFIED and e2.kind == RAMIFIED:
        raise BothRamified("at least one extension must be unramified")
    F = e1.field
    tr1, nm1, tr2, nm2 = e1.tr, e1.nm, e2.tr, e2.nm
    # trace and norm of t over F
    t_tr = tr1 * tr2
    t_nm = (nm1 * tr2 * tr2 + nm2 * tr1 * tr1
            - F.from_int(4) * nm1 * nm2)
    minpoly = Poly(F, [t_nm, -t_tr, F.one])
    factors = hensel_factor(minpoly)
    if len(factors) == 2 or (factors and factors[0][1] == 2):
        kind = SPLIT
    else:
        kind = RAMIFIED if (t_tr * t_tr - F.from_int(4) * t_nm).valuation() % 2 else UNRAMIFIED
    alg = QuadraticEtale(F, kind, t_tr, t_nm, name=f"E3({e1.name},{e2.name})")
    return alg


def pair_target_algebra(ea, eb):
    """Invariant coefficient algebra for a pair of embeddings of (ea, eb).

    For two field extensions this is the fixed algebra of the tensor
    product.  When the first algebra is split, the fixed algebra is
    canonically the second algebra itself, with t corresponding to its
    generator.
    """
    if ea.kind == SPLIT:
        return eb
    return compute_e3(ea, eb)


def cd_constants(ea, eb, target=None):
    """The two structure constants of the affine eigenvalue relation.

    c = t - tr_a*tr_b and d = 2t - tr_a*tr_b in the target algebra, where t
    is the target generator; d has sigma(d) = -d and d^2 = Disc_a * Disc_b.
    """
    alg = target or pair_target_algebra(ea, eb)
    F = ea.field
    tau = ea.tr * eb.tr
    c = EtaleElement(alg, -tau, F.one)
    d = EtaleElement(alg, -tau, F.from_int(2))
    return c, d


# -- polynomial algebra over the etale coefficients ------------------------------


def sigma_poly(p):
    """Coefficient-wise involution of a polynomial over an etale algebra."""
    return Poly(p.ring, [c.sigma() for c in p.coeffs])


def poly_components(p):
    """Component polynomials over F of a polynomial over a split algebra."""
    F = p.ring.field
    cs = [c.components() for c in p.coeffs]
    return Poly(F, [c[0] for c in cs]), Poly(F, [c[1] for c in cs])


def resultant(p, q):
    """Res(P, Q) = prod (p_i - q_j) over the roots, both P and Q monic.

    Computed as the Sylvester determinant (division-free), with the sign
    fixed so that Res(T - a, T - b) = a - b.
    """
    if not (p.is_monic() and q.is_monic()):
        raise ValueError("monic polynomials required")
    ring = p.ring
    n, m = p.degree, q.degree
    if n == 0 or m == 0:
        return ring.one
    z = ring.zero
    size = n + m
    rows = []
    pc = list(reversed(p.coeffs))  # high first
    qc = list(reversed(q.coeffs))
    for i in range(m):
        rows.append([z] * i + pc + [z] * (size - n - 1 - i))
    for i in range(n):
        rows.append([z] * i + qc + [z] * (size - m - 1 - i))
    # the Sylvester determinant equals prod(p_i - q_j) for monic inputs
    return det_berkowitz(Matrix(ring, rows))


def symmetry_check(delta):
    """Whether (-1)^n * delta(1 - T) equals sigma(delta)(T) coefficient-wise."""
    ring = delta.ring
    n = delta.degree
    one_minus_t = Poly(ring, [ring.one, -ring.one])
    lhs = delta.compose(one_minus_t)
    if n % 2:
        lhs = -lhs
    rhs = sigma_poly(delta)
    if lhs.degree != rhs.degree:
        return False
    return all(a.same(b) for a, b in zip(lhs.coeffs, rhs.coeffs))


def is_regular_semisimple(delta):
    """Distinct nonzero roots in every component: Res(delta, delta') and
    delta(0) invertible in the algebra."""
    if delta.degree < 1:
        return False
    if not delta.coeffs[0].is_invertible():
        return False
    der = delta.derivative()
    if ((der.degree < delta.degree - 1 or not der.coeffs[-1].is_invertible())
            and delta.ring.split_roots is not None):
        # the derivative degenerates in small characteristic; decide each
        # component by gcd
        return all(not p.derivative().is_zero()
                   and poly_gcd(p, p.derivative()).degree == 0
                   for p in poly_components(delta))
    if der.is_zero():
        return False
    return resultant(delta, der.force_monic()).is_invertible()


def poly_sqrt(p):
    """The unique monic square root of a monic even-degree polynomial over
    a quadratic etale algebra.

    Top-down coefficient recursion (odd characteristic) or the Frobenius
    rule (characteristic 2); the result is verified exactly and NotASquare
    is raised on any residual.
    """
    alg = p.ring
    if not p.is_monic() or p.degree % 2:
        raise NotASquare("monic even-degree polynomial required")
    n = p.degree // 2
    F = alg.field
    if F.gf.p == 2:
        coeffs = []
        for i in range(n + 1):
            coeffs.append(_sqrt_coeff(p.coeffs[2 * i]))
        for i, c in enumerate(p.coeffs):
            if i % 2 and not c.is_exact_zero:
                raise NotASquare("odd coefficient present in characteristic 2")
        q = Poly(alg, coeffs)
    else:
        two_inv = alg.from_field(F.from_int(2).inv())
        coeffs = [alg.zero] * (n + 1)
        coeffs[n] = alg.one
        for k in range(1, n + 1):
            # coefficient of T^(2n-k) in q^2: 2*q_{n-k} + sum over known pairs
            acc = p.coeffs[2 * n - k]
            for i in range(n - k + 1, n):
                j = 2 * n - k - i
                if n - k < j <= n:
                    acc = acc - coeffs[i] * coeffs[j]
            coeffs[n - k] = acc * two_inv
        q = Poly(alg, coeffs)
    residual = q * q - p
    if not all(c.a.is_zeroish and c.b.is_zeroish for c in residual.coeffs):
        raise NotASquare("polynomial is not an exact square")
    return q


def _sqrt_coeff(c):
    """Square root of an algebra element in characteristic 2, by components."""
    alg = c.algebra
    if alg.split_roots is None:
        # quadratic field in char 2 does not occur for the configurations
        # supported here (ramified needs odd q)
        raise NotASquare("square root over a char-2 field extension unsupported")
    x, y = c.components()
    sx, sy = sqrt_in_F(x), sqrt_in_F(y)
    if sx is None or sy is None:
        raise NotASquare("component is not a square")
    return alg.from_components(sx, sy)


# -- the quadratic character ------------------------------------------------------


def eta(x):
    """Sign (-1)^index for the lattice index of x*O inside O in the algebra.

    The index equals the valuation of Nm(x); x must be invertible.
    """
    if not x.is_invertible():
        raise ValueError("eta of a non-invertible element")
    return -1 if x.norm().valuation() % 2 else 1
