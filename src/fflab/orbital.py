"""Orbital integrals as exact lattice sums.

Values are Laurent polynomials in Q = q^(s/2) with rational coefficients.
The plain integral weights each counted pair of stable lattices by the
Hecke function at their relative position; the twisted integral adds the
transfer factor, a signed power of Q built from two lattice indices.
Enumerations run over a fundamental box for the centralizer's discrete
subgroup: one traversal per integral, expanding the support of the Hecke
function and bridging at most `slack` steps beyond it; the value is that
of this single traversal.  What the traversal learns without reference to
f (the centralizer, the stable families, neighbour gaps, reduced
representatives, superlattice positions, transfer factors) is kept on the
pair as one state and reused by every later integral of the same pair
until the pair is freed.
"""

from fractions import Fraction

from .errors import NotStable, WindowOverflow
from .hecke import pi_twist, unit
from .lattices import (_is_stable, from_generators, order_span, stable_family,
                       standard_lattice)
from .pairs import centralizer, direct_sum


class OrbitalValue:
    """Laurent polynomial in Q = q^(s/2): dict exponent -> Fraction."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        cc = {}
        if c:
            for k, v in c.items():
                v = Fraction(v)
                if v:
                    cc[int(k)] = v
        self.c = cc

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
        return OrbitalValue(out)

    def __mul__(self, other):
        if isinstance(other, OrbitalValue):
            out = {}
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    k = k1 + k2
                    out[k] = out.get(k, Fraction(0)) + v1 * v2
            return OrbitalValue(out)
        return OrbitalValue({k: v * Fraction(other) for k, v in self.c.items()})

    def shift(self, k):
        """Multiply by Q^k."""
        return OrbitalValue({e + k: v for e, v in self.c.items()})

    def __eq__(self, other):
        if not isinstance(other, OrbitalValue):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*Q^{k}" for k, v in sorted(self.c.items()))

    def to_json(self):
        return {str(k): str(v) for k, v in sorted(self.c.items())}


def value_at_zero(v):
    """Value at s = 0 (Q = 1): the coefficient sum."""
    return sum(v.c.values(), Fraction(0))


def derivative_at_zero(v):
    """Normalized first derivative (1/log q) d/ds at s = 0: sum of k/2 * c_k."""
    return sum(Fraction(k, 2) * c for k, c in v.c.items())


def vanishing_order_at_one(v):
    """Order of vanishing of the Laurent polynomial at Q = 1."""
    if not v.c:
        return None  # identically zero
    lo = min(v.c)
    hi = max(v.c)
    coeffs = [v.c.get(k, Fraction(0)) for k in range(lo, hi + 1)]
    order = 0
    while True:
        if sum(coeffs) != 0:
            return order
        # synthetic division by (Q - 1)
        out = []
        acc = Fraction(0)
        for c in coeffs[:-1]:
            acc += c
            out.append(acc)
        coeffs = out
        order += 1
        if not coeffs:
            return order


def functional_equation_probe(v):
    """The unique (sign, r) with v(Q) = sign * Q^(2r) * v(1/Q), if any.

    r is returned as a Fraction (half-integers occur); None when no
    symmetry exists or v = 0.
    """
    if not v.c:
        return None
    lo, hi = min(v.c), max(v.c)
    two_r = lo + hi
    c_hi = v.c[hi]
    c_lo = v.c[lo]
    if c_hi == c_lo:
        sign = 1
    elif c_hi == -c_lo:
        sign = -1
    else:
        return None
    for k, val in v.c.items():
        if v.c.get(two_r - k, Fraction(0)) * sign != val:
            return None
    return (sign, Fraction(two_r, 2))


# -- transfer factors ---------------------------------------------------------------


class TransferContext:
    """The transfer factor's data for a pair on (split, E3).

    fam is the split stable family of the first action, whose eigenspace
    coordinates (W+-, W^-1) the factor is read in; the orbital state passes
    its own, so the two share them, and one is built from the pair
    otherwise.  For a lattice la with components (sp, sm), p+ la = W+ sp,
    so the O_E3-span of p+ la is [W+ | C W+] diag(sp, sp) O^2n (C the
    second action) and [l3 : O_E3 p+ la] = v+ + 2 v(det sp) - v(det l3),
    v+ = v(det [W+ | C W+]) taken once here; the minus side is the same.
    """

    def __init__(self, pair, fam=None):
        if pair.Ea.split_roots is None:
            raise ValueError("first algebra of the pair must be split")
        # projectors onto the eigenspaces of the first action
        self.p_plus, self.p_minus = pair.Ea.eigen_projectors(pair.A)
        self.fam = fam if fam is not None else _stable_family(pair, pair.A, pair.Ea)
        # regular semisimplicity: the O_E3-span of each eigenspace is full
        # (from_generators raises SingularBasis otherwise)
        self.v_plus, self.v_minus = (
            from_generators(pair.field, W.columns() + (pair.B * W).columns()).det_valuation
            for W in (self.fam.W_plus, self.fam.W_minus))

    def is_zero_stable(self, lat):
        """Stability under both idempotent images."""
        return all(_is_stable(proj, lat) for proj in (self.p_plus, self.p_minus))

    def omega(self, pair, l3):
        """Omega(la, l3, s) = (-1)^a Q^(b-a) for the stable lattice la with
        components pair = (sp, sm): a and b are [l3 : O_E3 p+- la], read
        off the determinant valuations."""
        sp, sm = pair
        a = self.v_plus + 2 * sp.det_valuation - l3.det_valuation
        b = self.v_minus + 2 * sm.det_valuation - l3.det_valuation
        return OrbitalValue({b - a: -1 if a % 2 else 1})


def transfer_factor(ctx, l0, l3):
    """Omega(l0, l3, s) = (-1)^a Q^(b-a) from the two eigenpart indices
    (TransferContext.omega on l0's components); NotStable unless l0 is
    stable under both idempotents."""
    if not ctx.is_zero_stable(l0):
        raise NotStable("first lattice is not stable under the idempotents")
    return ctx.omega(ctx.fam.split(l0), l3)


# -- enumeration core ----------------------------------------------------------------


def _stable_family(pair, J, algebra):
    """The stable family of one of the pair's actions, based at the order
    span of the standard lattice."""
    std = standard_lattice(pair.field, J.nrows)
    return stable_family(pair.field, J, algebra, order_span(J, std))


def _stable_families(pair):
    """The stable families of the pair's two actions."""
    return (_stable_family(pair, pair.A, pair.Ea),
            _stable_family(pair, pair.B, pair.Eb))


class _PairState:
    """The part of a pair's orbital integrals that does not depend on f.

    One instance per pair, stored in the pair's `_orbital` slot on first
    use and freed with the pair.  Besides the centralizer's
    Gamma-group, the two stable families and (on the twisted side) the
    transfer context, it holds the second family modulo Gamma and records
    what traversals have learned about the quotient, so that a later Hecke
    function repeats none of it:

    - quotient: fam_b modulo Gamma, built with the pair's A for the span
      gap, whose vertices are reduced Lattices, or reduced ComponentPairs
      (L+, L-) when fam_b is split; the quotient keeps its own memos: the
      rep per canonical key of a raw move (lattices.StackQuotient) or per
      raw pair, with each Gamma-power of a component
      (lattices.PairQuotient);
    - start: the descent start (vertex, span gap); the vertex is a reduced
      rep, so it lies in the fundamental box and is counted like any other;
    - moves: per expanded vertex key, one (gap, rep key) per raw move in
      the quotient's moves order, filled once by moves_of: each raw move
      is reduced first and the gap is its rep's, memoized per rep key;
    - reps: the reduced vertex of every rep key in moves, and of the
      base;
    - positions: per (rep lattice key, extra index), one [mu, la, omega]
      per stable superlattice la of the rep's span, in
      stable_superlattices order (fam_a.superlattice_positions).  When
      fam_a is split (every twisted integral), la is a ComponentPair
      (sp, sm) and mu is read in component coordinates, so no lattice of
      the full rank is built; fam_a keeps the components of each span it
      splits and each component's superlattices.  omega, the transfer
      factor Omega(la, rep), is computed only once a Hecke function has mu
      in its support, from determinant valuations (TransferContext.omega).

    Every entry is a function of its key alone, so two threads filling the
    state of one pair at worst repeat work.
    """

    __slots__ = ("gamma", "fam_a", "fam_b", "quotient", "ctx", "start",
                 "moves", "reps", "positions")

    def __init__(self, pair):
        self.gamma = centralizer(pair).gamma_group()
        self.fam_a, self.fam_b = _stable_families(pair)
        self.quotient = self.fam_b.quotient(self.gamma, pair.A)
        self.ctx = None
        self.start = None
        self.moves = {}
        self.reps = {}
        self.positions = {}

    def moves_of(self, vertex):
        """(gap, rep key) per raw move of vertex, in the quotient's moves
        order; the vertex's raw moves are built once."""
        moves = self.moves.get(vertex.key())
        if moves is None:
            q, moves = self.quotient, []
            for raw in q.moves(vertex):
                rep = q.reduce(raw)
                # one vertex and one key object per rep
                rep = self.reps.setdefault(rep.key(), rep)
                moves.append((q.gap(rep), rep.key()))
            self.moves[vertex.key()] = moves
        return moves


# most vertices one traversal may visit before it raises WindowOverflow
_VISIT_BUDGET = 200000
# how far beyond the Hecke reach a bridging vertex's span gap may lie.  A
# move changes the span gap by at most its index, which is at most 2 (the
# gap lemma), so at slack 1, where only the start may be expanded off the
# support, this bound prunes only the children of an off-support start
_BRIDGE_GAP = 2
# most steps of the greedy descent to the traversal's start
_DESCENT_STEPS = 24


class OrbitalProblem:
    """One orbital integral: a pair, a Hecke function f and a side.

    The bottom lattice of each pair is enumerated over the centralizer
    quotient of its stable family: every discovered lattice is reduced to
    its fundamental-box representative before deduplication.  A vertex is
    expanded only while its span gap (the index of the other order's span
    over it) stays within the Hecke support's reach; vertices just outside
    it are bridged for at most `slack` steps.  The traversal ends when the
    frontier empties; its value is that of this one traversal, taken at
    the given slack.

    What does not depend on f lives in the pair's one _PairState, shared
    by every problem on the same pair; the problem itself holds only f's
    support data, and evaluate its own seen set, frontier, budget and
    radius.
    """

    def __init__(self, pair, f, twisted):
        self.pair = pair
        self.f = f
        self.twisted = twisted
        self.field = pair.field
        st = pair._orbital
        if st is None:
            st = pair._orbital = _PairState(pair)
        if twisted and st.ctx is None:
            st.ctx = TransferContext(pair, st.fam_a)
        self.state = st
        self.gamma = st.gamma
        self.fam_a = st.fam_a
        self.fam_b = st.fam_b
        self.ctx = st.ctx if twisted else None
        supp = f.support()
        self.totals = sorted({sum(mu) for mu in supp})
        self.supp = {tuple(mu): f.c[tuple(mu)] for mu in supp}
        self.nonneg = all(x >= 0 for mu in supp for x in mu)

    def contribution(self, lb, gap):
        """The Hecke-weighted count over the stable superlattices of lb's
        order span; gap is lb's span gap [lb + A lb : lb], as the quotient's
        gap gives it."""
        total = OrbitalValue() if self.twisted else Fraction(0)
        positions = self.state.positions
        span = None
        for t in self.totals:
            extra = t - gap
            if extra < 0:
                continue
            at = (lb.key(), extra)
            found = positions.get(at)
            if found is None:
                if span is None:
                    span = order_span(self.pair.A, lb)
                found = positions[at] = [
                    [mu, la, None]
                    for mu, la in self.fam_a.superlattice_positions(span, lb, extra)]
            for pos in found:
                coeff = self.supp.get(pos[0])
                if not coeff:
                    continue
                if self.twisted:
                    if pos[2] is None:
                        pos[2] = self.ctx.omega(pos[1], lb)
                    total = total + pos[2] * coeff
                else:
                    total = total + coeff
        return total

    def _descend_start(self):
        """Greedy walk from the base toward smaller span gap (remembered).

        Each step moves to the first neighbour of least gap when that gap
        is smaller.
        """
        st = self.state
        if st.start is not None:
            return st.start
        q = st.quotient
        cur = q.reduce(q.start())
        cur = st.reps.setdefault(cur.key(), cur)
        g = q.gap(cur)
        for _ in range(_DESCENT_STEPS):
            if g == 0:
                break
            best = min(st.moves_of(cur), key=lambda move: move[0], default=None)
            if best is None or best[0] >= g:
                break
            g, cur = best[0], st.reps[best[1]]
        st.start = (cur, g)
        return st.start

    def evaluate(self, slack=1):
        """Support traversal in the centralizer quotient.

        Support vertices (span gap within the Hecke reach) are expanded;
        vertices just outside bridge for at most `slack` steps while their
        gap stays within _BRIDGE_GAP of the reach; at slack 1 that bound
        can reject only children of an off-support start, since a
        support vertex's children lie within it.  Off-support neighbors
        are rejected by the quotient's invariant gap test: every raw move
        is reduced first, and the gap is taken once per rep key as one
        Smith sweep of a square matrix (L^-1 A L on the rep's canonical
        lattice, or in component coordinates for a split family).  Gaps,
        reps and superlattice positions already in the pair's state are
        reused; the traversal itself is the same for every f.
        """
        if not self.supp:
            return (OrbitalValue() if self.twisted else Fraction(0)), 0
        if not self.nonneg:
            # reduce to a nonnegative support through a central twist
            shift = min(x for mu in self.supp for x in mu)
            prob = OrbitalProblem(self.pair, pi_twist(self.f, -shift),
                                  self.twisted)
            return prob.evaluate(slack=slack)
        st = self.state
        q = st.quotient
        max_total = max(self.totals)
        start, g0 = self._descend_start()
        total = OrbitalValue() if self.twisted else Fraction(0)
        seen = {start.key()}
        if g0 <= max_total:
            total = total + self.contribution(q.lattice(start), g0)
        frontier = [(start, g0, 0)]
        visited = 1
        radius = 0
        while frontier:
            radius += 1
            new = []
            for lb, g, depth in frontier:
                if g <= max_total:
                    next_depth = 1
                elif depth < slack:
                    next_depth = depth + 1
                else:
                    continue
                for gg, k in st.moves_of(lb):
                    is_support = gg <= max_total
                    if not is_support and (next_depth > slack
                                           or gg > max_total + _BRIDGE_GAP):
                        continue
                    if k in seen:
                        continue
                    seen.add(k)
                    visited += 1
                    if visited > _VISIT_BUDGET:
                        raise WindowOverflow(
                            "orbital enumeration budget exceeded")
                    rep = st.reps[k]
                    if is_support:
                        total = total + self.contribution(q.lattice(rep), gg)
                        new.append((rep, gg, 0))
                    else:
                        new.append((rep, gg, next_depth))
            frontier = new
        return total, radius


def orbital_beta(pair, f, slack=1):
    """Plain orbital integral: an f-weighted count of stable lattice pairs.

    The pair's two lattices run over the stable families of its two
    embeddings modulo the centralizer's uniformizer subgroup; the
    stabilizer volume is one for the groups constructed here.
    """
    return OrbitalProblem(pair, f, twisted=False).evaluate(slack=slack)


def orbital_alpha(pair, f, slack=1):
    """Twisted orbital integral as an exact Laurent polynomial in Q."""
    return OrbitalProblem(pair, f, twisted=True).evaluate(slack=slack)


def order_estimate(pair):
    """Analytic order estimate of an invariant factor: 1 when the functional
    equation sign of its twisted integral with the unit function is -1,
    else 0."""
    val, _ = orbital_alpha(pair, unit(2 * pair.n))
    probe = functional_equation_probe(val)
    if probe is None:
        return None
    return 1 if probe[0] == -1 else 0


def order_lower_bound_report(components, f):
    """Vanishing order of the direct sum's integral vs the per-factor estimate.

    components is a list of pairs on the same algebras; their direct sum is
    evaluated at f, and each component contributes its own sign-derived
    order estimate with the unit function.
    """
    total = components[0]
    for c in components[1:]:
        total = direct_sum(total, c)
    val, w = orbital_alpha(total, f)
    estimates = [order_estimate(c) for c in components]
    if any(e is None for e in estimates):
        raise WindowOverflow("component functional equation probe failed")
    ord_val = vanishing_order_at_one(val)
    return {
        "orbital": val,
        "order": ord_val,
        "estimate": sum(estimates),
        "ok": ord_val is None or ord_val >= sum(estimates),
        "window": w,
    }
