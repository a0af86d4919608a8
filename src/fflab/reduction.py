"""Split scenarios, Hom-lattice systems and reduction-formula verification.

A split scenario carries two complementary pairs on V = V0 (+) V1 together
with lattice chains whose endpoints are stable under the respective
algebra actions.  The machinery realizes the Hom-space P = Hom(V1, V0) as
row-major flattened matrices, where every linear map X -> A X B is the
Kronecker product A kron B^T: the operators q_i^-, q_i^+ are Sylvester
maps and each Hom lattice is spanned by one Kronecker product.  It builds
the (conj-)linearity sublattices, the block map Phi whose kernel encodes
compatible connecting maps, and checks the quasi-isogeny degree formulas
and fiber counts against their closed forms.  The top-level verifier
compares full orbital integrals with the Levi-factorized right-hand sides.
"""

import itertools
import random
from fractions import Fraction

from .errors import NoSolution, SingularBasis, SingularMap
from .etale import resultant
from .hecke import f_of_m
from .lattices import (_is_stable, canonicalize, chains, from_generators, index,
                       lattice_leq, smith_exponents)
from .linalg import Matrix, kernel_basis, mat_det, sylvester_map
from .orbital import OrbitalValue, _stable_families, orbital_alpha, orbital_beta
from .pairs import direct_sum, invariant


# -- scenarios ----------------------------------------------------------------------


class LatticeChain:
    """X_0 <= X_1 <= ... <= X_r with step indices."""

    def __init__(self, lattices):
        self.lattices = list(lattices)
        self.steps = []
        for a, b in zip(self.lattices, self.lattices[1:]):
            if not lattice_leq(a, b):
                raise ValueError("chain inclusions fail")
            self.steps.append(index(b, a))

    @property
    def bottom(self):
        return self.lattices[0]

    @property
    def top(self):
        return self.lattices[-1]

    @property
    def r(self):
        return len(self.lattices) - 1


class SplitScenario:
    """Two complementary pairs with chains; endpoints stable appropriately."""

    def __init__(self, p0, p1, chain0, chain1):
        self.p0 = p0
        self.p1 = p1
        self.chain0 = chain0
        self.chain1 = chain1
        self.field = p0.field
        self.n0 = p0.n
        self.n1 = p1.n
        for pj, chain in ((p0, chain0), (p1, chain1)):
            if not _is_stable(pj.A, chain.top):
                raise ValueError("chain top is not stable under the first action")
            if not _is_stable(pj.B, chain.bottom):
                raise ValueError("chain bottom is not stable under the second action")

    @property
    def m0(self):
        return tuple(self.chain0.steps)

    @property
    def m1(self):
        return tuple(self.chain1.steps)


def random_chain(pair, m, seed, window=2):
    """A chain in the pair's lattice set with the given step indices.

    The bottom is stable under the second algebra action, the top under the
    first; intermediates are unconstrained superlattice steps.
    """
    rng = random.Random(seed)
    fam_a, fam_b = _stable_families(pair)
    total = sum(m)
    tops = fam_a.ball(window)
    rng.shuffle(tops)
    ball_b = fam_b.ball(window)
    for top in tops:
        bottoms = [lb for lb in ball_b
                   if index(top, lb) == total and lattice_leq(lb, top)]
        rng.shuffle(bottoms)
        for bottom in bottoms:
            found = chains(bottom, top, m)
            if found:
                return LatticeChain(found[rng.randrange(len(found))])
    raise SingularMap("no chain with the requested indices in the window")


# -- Hom-space machinery ---------------------------------------------------------------


def hom_lattice(field, m_top, m_bot):
    """Hom_O(m_bot, m_top) as a lattice in the row-major flattened Hom space.

    Maps f with f(m_bot) <= m_top: f = g_top X g_bot^(-1) with X integral.
    Row-major, vec(A X B) = (A kron B^T) vec(X), so the lattice is spanned
    by the columns of g_top kron (g_bot^(-1))^T.
    """
    return canonicalize(field, m_top.basis.kron(m_bot.inverse().transpose()))


class SubspaceLattice:
    """A full lattice inside a coordinate subspace of the Hom space.

    W's free rows (_free_rows) form an identity block, so a vector's
    subspace coordinates are its entries there.
    """

    __slots__ = ("field", "W", "coords_lat", "free")

    def __init__(self, field, W, coords_lat):
        self.field = field
        self.W = W                  # ambient x dim basis of the subspace
        self.coords_lat = coords_lat  # Lattice in subspace coordinates
        self.free = _free_rows(W)

    @property
    def rank(self):
        return self.coords_lat.rank

    def basis_cols(self):
        out = []
        for j in range(self.coords_lat.rank):
            out.append(self.W.apply(self.coords_lat.basis.column(j)))
        return out

    def coords(self, vec):
        """vec's coordinates in the basis of coords_lat.

        Raises NoSolution when vec - W y, y the entries of vec on the free
        rows, has a certified nonzero digit: vec is off the subspace.
        """
        y = [vec[r] for r in self.free]
        if any((x - wy).coeffs for x, wy in zip(vec, self.W.apply(y))):
            raise NoSolution("vector is not in the subspace")
        return self.coords_lat.inverse().apply(y)


def _free_rows(W):
    """Per column k of W, the index of the first row that is exactly e_k.

    kernel_basis puts an exact one at each basis vector's free column and
    exact zeros at the other free columns, so its output has such rows.
    """
    try:
        return [W.rows.index(e) for e in Matrix.identity(W.ring, W.ncols).rows]
    except ValueError:
        raise ValueError("subspace basis has no identity block") from None


def lattice_in_subspace(field, lat, W):
    """The lattice {y : W y in lat} in subspace coordinates, as SubspaceLattice.

    With M = lat^-1 W, W y lies in lat iff M y is integral, that is iff y
    pairs integrally with every row of M: the lattice is the dual of the
    one the rows of M span.
    """
    try:
        row_span = canonicalize(field, (lat.inverse() * W).transpose())
    except SingularBasis:
        raise SingularMap(
            "subspace basis is not full rank against the lattice") from None
    return SubspaceLattice(field, W, row_span.dual())


class HomSystem:
    """All Hom-lattices and projection operators of a split scenario."""

    def __init__(self, sc):
        self.sc = sc
        field = sc.field
        self.field = field
        p0, p1 = sc.p0, sc.p1
        self.d0, self.d1 = 2 * sc.n0, 2 * sc.n1
        self.dim = self.d0 * self.d1
        # generator actions on the two summands
        self.A0, self.A1 = p0.A, p1.A    # first algebra
        self.B0, self.B1 = p0.B, p1.B    # second algebra
        tr_a, tr_b = p0.Ea.tr, p0.Eb.tr
        ident0 = Matrix.identity(field, self.d0)
        # q_i^-: f -> f X_1 - X_0 f and q_i^+: f -> f X_1 - (tr - X_0) f
        self.q_minus = {
            1: sylvester_map(self.A0, self.A1),
            2: sylvester_map(self.B0, self.B1),
        }
        self.q_plus = {
            1: sylvester_map(ident0.scale(tr_a) - self.A0, self.A1),
            2: sylvester_map(ident0.scale(tr_b) - self.B0, self.B1),
        }
        # subspace bases: P_i^+ = ker q_i^-, P_i^- = ker q_i^+
        self.P_plus = {i: Matrix.from_columns(field, kernel_basis(self.q_minus[i],
                                                                  zeroish_ok=True))
                       for i in (1, 2)}
        self.P_minus = {i: Matrix.from_columns(field, kernel_basis(self.q_plus[i],
                                                                   zeroish_ok=True))
                        for i in (1, 2)}
        # endpoint lattices: index 1 = chain tops, 2 = chain bottoms
        self.M = {
            (1, 0): sc.chain0.top, (2, 0): sc.chain0.bottom,
            (1, 1): sc.chain1.top, (2, 1): sc.chain1.bottom,
        }
        self.Lambda = {
            i: hom_lattice(field, self.M[(i, 0)], self.M[(i, 1)]) for i in (1, 2)
        }
        self.Lambda_pm = {}
        for i in (1, 2):
            self.Lambda_pm[(i, "+")] = lattice_in_subspace(field, self.Lambda[i],
                                                           self.P_plus[i])
            self.Lambda_pm[(i, "-")] = lattice_in_subspace(field, self.Lambda[i],
                                                           self.P_minus[i])

    def q_op(self, i, sign):
        """q_i^-, or q_i^+ when sign is "+"."""
        return self.q_minus[i] if sign == "-" else self.q_plus[i]

    def q_image_equals_sublattice(self, i, sign):
        """Surjectivity of the projection onto the (conj-)linear sublattice."""
        lam = self.Lambda[i]
        cols = _image_coords(self.q_op(i, sign).apply, lam.basis.columns(),
                             self.Lambda_pm[(i, sign)])
        return from_generators(self.field, cols).det_valuation == 0

    def deg_lambda2_to_lambda1(self):
        """Degree of the inclusion-induced quasi-isogeny Lambda_2 -> Lambda_1."""
        return index(self.Lambda[1], self.Lambda[2])

    def deg_q_pair(self, source_i):
        """deg((q_1^-, q_2^-) : Lambda_source -> Lambda_1^- x Lambda_2^-)."""
        vecs = self.Lambda[source_i].basis.columns()
        c1 = _image_coords(self.q_minus[1].apply, vecs, self.Lambda_pm[(1, "-")])
        c2 = _image_coords(self.q_minus[2].apply, vecs, self.Lambda_pm[(2, "-")])
        return _det_valuation(Matrix.from_columns(
            self.field, [a + b for a, b in zip(c1, c2)]))

    def deg_restricted(self, i_op, sign_op, source_key, target_key):
        """deg(q_{i_op}^{sign} restricted: Lambda_source^{s} -> Lambda_target^{t})."""
        cols = _image_coords(self.q_op(i_op, sign_op).apply,
                             self.Lambda_pm[source_key].basis_cols(),
                             self.Lambda_pm[target_key])
        return _det_valuation(Matrix.from_columns(self.field, cols))

    def deg_composite_lambda1_plus(self):
        """deg(q_1^+ q_2^- restricted to Lambda_1^+, an endomorphism)."""
        src = self.Lambda_pm[(1, "+")]
        cols = _image_coords(lambda v: self.q_plus[1].apply(self.q_minus[2].apply(v)),
                             src.basis_cols(), src)
        return _det_valuation(Matrix.from_columns(self.field, cols))


def _image_coords(fn, vectors, target):
    """target's coordinates of fn(v), for each v in vectors."""
    return [target.coords(fn(v)) for v in vectors]


def _det_valuation(mat):
    d = mat_det(mat)
    if not d.coeffs:
        raise SingularMap("map is not a quasi-isogeny")
    return d.valuation()


# -- the block map Phi -------------------------------------------------------------


class PhiMap:
    """Block matrix whose kernel encodes compatible connecting-map tuples."""

    def __init__(self, sys):
        self.sys = sys
        sc = sys.sc
        field = sys.field
        r = sc.chain0.r
        if sc.chain1.r != r:
            raise ValueError("chains must have equal length")
        self.r = r
        # source lattices: Hom(X_i^1, X_i^0), the chain bottoms' Lambda_2 and
        # the tops' Lambda_1 as the system holds them; targets: C_i and the
        # minus parts Lambda_2^-, Lambda_1^-
        x0, x1 = sc.chain0.lattices, sc.chain1.lattices
        self.sources = [sys.Lambda[1] if i == r else sys.Lambda[2] if i == 0
                        else hom_lattice(field, x0[i], x1[i])
                        for i in range(r + 1)]
        self.c_lattices = [hom_lattice(field, x0[i], x1[i - 1])
                           for i in range(1, r + 1)]
        self.t_minus_b = sys.Lambda_pm[(2, "-")]
        self.t_minus_a = sys.Lambda_pm[(1, "-")]
        self.matrix = Matrix.from_columns(field, self._matrix_cols())

    def degree(self):
        """Quasi-isogeny degree of Phi between its source and target lattices."""
        return _det_valuation(self.matrix)

    def _matrix_cols(self):
        sys = self.sys
        field = sys.field
        r = self.r
        dim = sys.dim
        half = dim // 2
        cols = []
        for i, src in enumerate(self.sources):
            for j in range(src.rank):
                v = src.basis.column(j)
                col = []
                # block row 0: q_2^- of gamma_0
                col += list(self.t_minus_b.coords(sys.q_minus[2].apply(v))) \
                    if i == 0 else [field.zero] * half
                # block rows 1..r: L_i gamma_i - R_i gamma_{i-1}
                for k in range(1, r + 1):
                    if i == k:
                        col += self.c_lattices[k - 1].inverse().apply(v)
                    elif i == k - 1:
                        col += [-x for x in self.c_lattices[k - 1].inverse().apply(v)]
                    else:
                        col += [field.zero] * dim
                # last block row: q_1^- of gamma_r
                col += list(self.t_minus_a.coords(sys.q_minus[1].apply(v))) \
                    if i == r else [field.zero] * half
                cols.append(col)
        return cols

    def elementary_divisors(self):
        return smith_exponents(self.matrix)

    def deg_l_maps(self):
        """Sum of the degrees of the restriction maps L_i."""
        total = 0
        for i in range(1, self.r + 1):
            total += index(self.c_lattices[i - 1], self.sources[i])
        return total


def fiber_count_exponent(phi):
    """log_q of the number of solutions of the connecting-map system.

    Modulo pi^M the Phi matrix has q^(sum of min(d, M)) kernel vectors over
    its elementary divisors d.  From M = max(d) on that no longer depends on
    M, so the count is the sum of the elementary divisors; no truncation is
    involved.
    """
    return sum(phi.elementary_divisors())


# -- closed formulas -----------------------------------------------------------------


def reduction_constants(pair_a_alg, pair_b_alg, delta0, delta1, n0, n1):
    """Exponent of q in |Disc_a Disc_b|^(-n0 n1 / 2) |Res(d0, d1)|^(-1).

    Returned as a Fraction; the resultant is taken in the shared target
    algebra and |x| = |Nm x|^(1/2).
    """
    res = resultant(delta0, delta1)
    if not res.is_invertible():
        raise SingularMap("component invariants share a root")
    v_res = res.norm().valuation()
    v_disc = pair_a_alg.disc_valuation + pair_b_alg.disc_valuation
    return Fraction(n0 * n1 * v_disc, 2) + Fraction(v_res, 2)


def closed_phi_exponent(sc, inv0, inv1):
    """Exponent of q in the degree formula for Phi."""
    const = reduction_constants(sc.p0.Ea, sc.p0.Eb, inv0.delta, inv1.delta,
                                sc.n0, sc.n1)
    return const + sc.n1 * sum(sc.m0) + sc.n0 * sum(sc.m1)


def closed_pair_exponent(sc, inv0, inv1):
    """Exponent for deg((q_1^-, q_2^-): Lambda_2 -> Lambda_1^- x Lambda_2^-)."""
    const = reduction_constants(sc.p0.Ea, sc.p0.Eb, inv0.delta, inv1.delta,
                                sc.n0, sc.n1)
    return const + sc.n1 * sum(sc.m0) - sc.n0 * sum(sc.m1)


def closed_composite_exponent(sc, inv0, inv1):
    """Exponent for deg(q_1^+ q_2^- on Lambda_1^+)."""
    return 2 * reduction_constants(sc.p0.Ea, sc.p0.Eb, inv0.delta, inv1.delta,
                                   sc.n0, sc.n1)


def inclusion_degree(sc):
    """2 n1 |m0| - 2 n0 |m1|."""
    return 2 * sc.n1 * sum(sc.m0) - 2 * sc.n0 * sum(sc.m1)


# -- theorem-level verification --------------------------------------------------------


def _q_power_fraction(q, exponent):
    e = Fraction(exponent)
    if e.denominator != 1:
        raise SingularMap("constant is not an integral power of q")
    return Fraction(q) ** e.numerator


def verify_reduction(p0, p1, ms, alpha_side=False):
    """Both sides of the Levi reduction identity for f(m), for each m in ms.

    With alpha_side, the matched pairs on (split, E3) are compared as
    Laurent polynomials in Q; otherwise the plain rational integrals are
    compared.  Returns one report dict with exact equality per m, in the
    order of ms.  The direct sum is built once, so every m after the first
    reuses its traversal state.
    """
    field = p0.field
    q = field.q
    inv0 = invariant(p0)
    inv1 = invariant(p1)
    n0, n1 = p0.n, p1.n
    const_exp = reduction_constants(p0.Ea, p0.Eb, inv0.delta, inv1.delta, n0, n1)
    const = _q_power_fraction(q, const_exp)
    full = direct_sum(p0, p1)
    orbital = orbital_alpha if alpha_side else orbital_beta
    reports = []
    for m in ms:
        lhs, w_lhs = orbital(full, f_of_m(2 * (n0 + n1), m, field))
        rhs = OrbitalValue() if alpha_side else Fraction(0)
        windows = [w_lhs]
        for m0 in itertools.product(*[range(mi + 1) for mi in m]):
            m1 = tuple(mi - x for mi, x in zip(m, m0))
            o0, w0 = orbital(p0, f_of_m(2 * n0, m0, field))
            o1, w1 = orbital(p1, f_of_m(2 * n1, m1, field))
            weight = Fraction(q) ** (n1 * sum(m0) + n0 * sum(m1))
            rhs = rhs + (o0 * o1) * (weight * const)
            windows += [w0, w1]
        reports.append({
            "m": list(m),
            "alpha_side": alpha_side,
            "constant_exponent": str(const_exp),
            "lhs": lhs.to_json() if alpha_side else str(lhs),
            "rhs": rhs.to_json() if alpha_side else str(rhs),
            "equal": lhs == rhs,
            "windows": windows,
        })
    return reports

