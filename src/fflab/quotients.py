"""Reduction modulo Gamma, the free commuting group of the centralizer's
per-factor uniformizer matrices, and the stable families modulo Gamma that
the orbital traversal walks (family_quotient picks one for a family).

A quotient is built with the pair's A, which commutes with Gamma.  It gives
the base as a raw move (start), a vertex's raw moves in the family's move
order (moves), a raw move's reduced vertex, its rep (reduce), a rep's span
gap [L + A L : L] (gap), memoized per rep key, and a vertex's canonical
lattice (lattice).  The gap is Gamma-invariant, so the traversal reduces
every move first and takes the gap of its rep.  Each quotient reduces a
lattice once: a raw move is canonicalized (or, split, is its canonical
components) and its rep is memoized per that key, and Gamma acts on the
canonical lattice, never on a raw stack.  The memos live on the quotient,
so they are freed with the pair's orbital state.
"""

from .errors import NonFreeAction, PrecisionExhausted
from .families import ComponentPair, SplitStableFamily
from .lattices import canonicalize, smith_exponents_rectangular, span_index
from .linalg import Matrix, mat_inverse, mat_rank


class GammaGenerator:
    """One centralizer-factor generator: matrix, factor idempotent, and the
    index functional used for canonical orbit representatives.

    scalar is k when the matrix is c*I for one c of valuation k (exact
    zeros off the diagonal), else None: its e-th power maps a lattice L to
    pi^(k e) L, so L.scale(k e) is that lattice's canonical form.
    """

    __slots__ = ("matrix", "inverse", "idempotent", "rank", "shift", "scalar")

    def __init__(self, matrix, idempotent):
        self.matrix = matrix
        self.inverse = mat_inverse(matrix)
        self.idempotent = idempotent
        # dimension of the factor's eigenspace
        self.rank = mat_rank(idempotent, zeroish_ok=True)
        self.shift = None  # filled by GammaGroup
        c = matrix.rows[0][0]
        self.scalar = c.val if c.coeffs and all(
            x.key() == c.key() if i == j else x.is_exact_zero
            for i, row in enumerate(matrix.rows) for j, x in enumerate(row)) else None


def _power_times(matrix, inverse, e, stack):
    """matrix^e * stack."""
    step = matrix if e > 0 else inverse
    for _ in range(abs(e)):
        stack = step * stack
    return stack


class GammaGroup:
    """Free commuting group generated by per-factor uniformizer matrices."""

    def __init__(self, field, generators):
        self.field = field
        self.gens = generators
        for g in self.gens:
            probe = Matrix.identity(field, g.matrix.nrows)
            g.shift = self.functional(g, g.matrix) - self.functional(g, probe)
            if g.shift <= 0:
                raise NonFreeAction("generator does not shift its factor index")

    def functional(self, gen, stack):
        """Valuation functional on the factor eigenspace (additive under gen)
        of the lattice spanned by the columns of a generator stack.

        Computed as the sum of the finite elementary divisors of the
        projected stack, which depends only on the lattice; the projection
        has constant corank, so the sum shifts exactly by v(det gen | V_j)
        under the generator.
        """
        return sum(smith_exponents_rectangular(gen.idempotent * stack,
                                               rank=gen.rank))

    def reduce(self, lat):
        """Canonical box representative of a canonical lattice.

        Each functional is read off a square basis of the lattice moved so
        far; a generator is applied only with a nonzero exponent, and a
        lattice already in the box is returned itself.  While only scalar
        generators have moved it, the lattice stays canonical (scale), so
        no canonical form is taken.
        """
        basis = lat.basis
        for g in self.gens:
            e = -(self.functional(g, basis) // g.shift)
            if not e:
                continue
            if g.scalar is not None and basis is lat.basis:
                lat = lat.scale(g.scalar * e)
                basis = lat.basis
            else:
                basis = _power_times(g.matrix, g.inverse, e, basis)
        return lat if basis is lat.basis else canonicalize(self.field, basis)


class StackQuotient:
    """A StableFamily modulo Gamma, on neighbor stacks and reduced Lattices.

    reduce canonicalizes a raw stack once and memoizes its rep per
    canonical key (reduced), so a lattice reached from several vertices is
    reduced once; GammaGroup.reduce reads each functional off the square
    canonical basis and returns a lattice already in the box itself.
    A rep L is canonical, so its triangular inverse is exact and cached,
    and [L + A L : L] = [O^m + L^-1 A L O^m : O^m] = span_index(L^-1 A L).
    """

    def __init__(self, fam, gamma, A):
        self.fam, self.gamma, self.A = fam, gamma, A
        self.reduced, self.gaps = {}, {}

    def start(self):
        return self.fam.base.basis

    def moves(self, lat):
        return self.fam.neighbor_stacks(lat)

    def reduce(self, stack):
        lat = canonicalize(self.fam.field, stack)
        k = lat.key()
        if k not in self.reduced:
            self.reduced[k] = self.gamma.reduce(lat)
        return self.reduced[k]

    def gap(self, rep):
        k = rep.key()
        if k not in self.gaps:
            self.gaps[k] = span_index(rep.inverse() * self.A * rep.basis)
        return self.gaps[k]

    def lattice(self, lat):
        return lat


class PairQuotient:
    """A SplitStableFamily modulo Gamma, on ComponentPairs.

    A generator g commutes with J, so g W+- = W+- g+-, with g+- the
    diagonal blocks of W^-1 g W for W = [W+ | W-] (certified here).  For e =
    g.idempotent, e L = e W+ L+ (+) e W- L-, so the content of e L's top
    exterior power splits: functional(g, L) = c_g + phi+(L+) + phi-(L-),
    phi+- the sum of the elementary divisors of e W+- L+-, c_g (from the
    wedge of bases of e W+ and e W-) read off the base.  So reduction moves
    and canonicalizes only the components; it is memoized per raw pair,
    and each component power g+-^e L+- per (generator, side, exponent,
    component key) (powers), so a component that stays fixed while the
    other one moves is powered and canonicalized once.  The span gap of a
    rep, like its lattice, is taken once per rep key.

    The span gap is taken in component coordinates, with no generator
    stack.  L = W D O^m for W = [W+ | W-] and D = diag(L+, L-), and an
    index does not change when the F-linear map W D is applied to both
    lattices, so [L + A L : L] = [O^m + M O^m : O^m] = span_index(M), where
    M = D^-1 A' D and A' = W^-1 A W is taken once here.  Row block s of M
    is L_s^-1 A'_s D, with L_s^-1 A'_s (L_s^-1 the component's cached
    inverse) memoized per side and component key.
    """

    def __init__(self, fam, gamma, A):
        self.fam, self.gamma = fam, gamma
        self.terms, self.reduced, self.gaps, self.lattices = {}, {}, {}, {}
        self.component_moves, self.halves, self.powers = {}, {}, {}
        W = fam.W_plus.hstack(fam.W_minus)
        cut = fam.W_plus.ncols
        self.parts = []
        for g in gamma.gens:
            # g+- the diagonal blocks of W^-1 g W, each certified to give
            # g W+- = W+- g+-; per side ((g+-, g+-^-1), e W+-, its rank)
            gp, gm = fam.coordinates(g.matrix * W)
            blocks = (Matrix(fam.field, [r[:cut] for r in gp.rows]),
                      Matrix(fam.field, [r[cut:] for r in gm.rows]))
            parts = []
            for Ws, gs in zip((fam.W_plus, fam.W_minus), blocks):
                if not (Ws * gs).same(g.matrix * Ws):
                    raise PrecisionExhausted("generator not certified block-diagonal")
                eW = g.idempotent * Ws
                parts.append(((gs, mat_inverse(gs)), eW, mat_rank(eW, zeroish_ok=True)))
            self.parts.append(parts)
        lp, lm = self.start()
        self.consts = [gamma.functional(g, fam.base.basis)
                       - self._term(i, 0, lp) - self._term(i, 1, lm)
                       for i, g in enumerate(gamma.gens)]
        self.blocks = fam.coordinates(A * W)

    def _term(self, i, side, comp):
        """phi of generator i on one component (side 0 plus, 1 minus)."""
        at = (i, side, comp.key())
        if at not in self.terms:
            _, eW, rank = self.parts[i][side]
            self.terms[at] = sum(
                smith_exponents_rectangular(eW * comp.basis, rank=rank))
        return self.terms[at]

    def functional(self, i, pair):
        """GammaGroup.functional of generator i on the pair's lattice."""
        return (self.consts[i] + self._term(i, 0, pair[0])
                + self._term(i, 1, pair[1]))

    def start(self):
        return self.fam.split(self.fam.base)

    def moves(self, pair):
        """The single-component moves: those of the plus component, then
        those of the minus component, each component's built once."""
        lp, lm = pair
        return ([ComponentPair((sp, lm)) for sp in self._component_moves(lp)]
                + [ComponentPair((lp, sm)) for sm in self._component_moves(lm)])

    def _component_moves(self, comp):
        if comp.key() not in self.component_moves:
            self.component_moves[comp.key()] = list(self.fam._moves(comp))
        return self.component_moves[comp.key()]

    def reduce(self, pair):
        """As GammaGroup.reduce: one generator after another, reading the
        functional after each power."""
        k = pair.key()
        if k not in self.reduced:
            for i, g in enumerate(self.gamma.gens):
                e = -(self.functional(i, pair) // g.shift)
                if e:
                    pair = ComponentPair(self._power(i, side, e, comp)
                                         for side, comp in enumerate(pair))
            self.reduced[k] = pair
        return self.reduced[k]

    def _power(self, i, side, e, comp):
        """g+-^e times one component (side 0 plus, 1 minus), canonical."""
        at = (i, side, e, comp.key())
        if at not in self.powers:
            scalar = self.gamma.gens[i].scalar
            if scalar is not None:
                # g = c*I, so g+- = c*I as well
                self.powers[at] = comp.scale(scalar * e)
            else:
                mats, _, _ = self.parts[i][side]
                self.powers[at] = canonicalize(self.fam.field,
                                               _power_times(*mats, e, comp.basis))
        return self.powers[at]

    def gap(self, rep):
        k = rep.key()
        if k not in self.gaps:
            field = self.fam.field
            halves = [self._half(side, comp) for side, comp in enumerate(rep)]
            m = Matrix(field, [row for h in halves for row in h.rows])
            self.gaps[k] = span_index(
                m * Matrix.block_diag(field, [comp.basis for comp in rep]))
        return self.gaps[k]

    def _half(self, side, comp):
        """L_s^-1 A'_s for one component (side 0 plus, 1 minus)."""
        at = (side, comp.key())
        if at not in self.halves:
            self.halves[at] = comp.inverse() * self.blocks[side]
        return self.halves[at]

    def lattice(self, pair):
        k = pair.key()
        if k not in self.lattices:
            self.lattices[k] = canonicalize(self.fam.field, self.fam._stack(*pair))
        return self.lattices[k]


def family_quotient(fam, gamma, A):
    """The stable family fam modulo gamma, with A for the span gap."""
    split = isinstance(fam, SplitStableFamily)
    return (PairQuotient if split else StackQuotient)(fam, gamma, A)
