"""Orbital integrals as exact lattice sums.

Values are Laurent polynomials in Q = q^(s/2) with rational coefficients.
The plain integral weights each counted pair of stable lattices by the
Hecke function at their relative position; the twisted integral adds the
transfer factor, a signed power of Q built from two lattice indices.
Enumerations run over a fundamental box for the centralizer's discrete
subgroup and grow their window until the value stabilizes twice.
"""

from fractions import Fraction

from .errors import NotStable, WindowOverflow
from .lattices import (canonicalize, from_generators, in_lattice, index,
                       lattice_leq, lattices_at_position, relative_position,
                       stable_family, standard_lattice)
from .linalg import Matrix
from .pairs import centralizer


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

    @staticmethod
    def constant(x):
        return OrbitalValue({0: x})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
        return OrbitalValue(out)

    def __sub__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) - v
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

    def is_zero(self):
        return not self.c

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
    """Precomputed idempotent and module data for a pair on (split, E3)."""

    def __init__(self, pair):
        if pair.Ea.split_roots is None:
            raise ValueError("first algebra of the pair must be split")
        self.pair = pair
        self.field = pair.field
        self.n = pair.n
        ident = Matrix.identity(self.field, 2 * pair.n)
        r1, r2 = pair.Ea.split_roots
        # projector onto the (1,0)-eigenspace of the first action
        self.p_plus = (pair.A - ident.scale(r2)).scale((r1 - r2).inv())
        self.p_minus = ident - self.p_plus
        self.C = pair.B
        self.E3 = pair.Eb
        # regular semisimplicity: O_E3-span of each eigenpart is full
        for proj in (self.p_plus, self.p_minus):
            span = self._e3_span_cols(proj)
            from_generators(self.field, span)  # raises if rank deficient

    def _e3_span_cols(self, proj):
        cols = []
        size = 2 * self.n
        for j in range(size):
            v = proj.column(j)
            cols.append(v)
            cols.append(self.C.apply(v))
        return cols

    def eigenpart_span(self, lat, proj):
        """O_E3 * (proj lat) as a full lattice."""
        cols = []
        for j in range(lat.rank):
            v = proj.apply(lat.basis.column(j))
            cols.append(v)
            cols.append(self.C.apply(v))
        return from_generators(self.field, cols)

    def is_zero_stable(self, lat):
        """Stability under both idempotent images."""
        for proj in (self.p_plus, self.p_minus):
            for j in range(lat.rank):
                if not in_lattice(lat, proj.apply(lat.basis.column(j))):
                    return False
        return True


def transfer_factor(ctx, l0, l3):
    """Omega(l0, l3, s) = (-1)^a Q^(b-a) from the two eigenpart indices."""
    if not ctx.is_zero_stable(l0):
        raise NotStable("first lattice is not stable under the idempotents")
    span_p = ctx.eigenpart_span(l0, ctx.p_plus)
    span_m = ctx.eigenpart_span(l0, ctx.p_minus)
    a = index(l3, span_p)
    b = index(l3, span_m)
    sign = -1 if a % 2 else 1
    return OrbitalValue({b - a: sign})


def abs_character(field, block_a, block_b):
    """|det a / det b| as the exponent of q (a Fraction)."""
    from .linalg import mat_det
    va = mat_det(block_a).valuation()
    vb = mat_det(block_b).valuation()
    return Fraction(vb - va)


# -- enumeration core ----------------------------------------------------------------


def _stable_base(field, mat, size):
    """The order span of the standard lattice: Lambda + mat*Lambda."""
    std = Matrix.identity(field, size)
    cols = [std.column(j) for j in range(size)]
    cols += [mat.column(j) for j in range(size)]
    return from_generators(field, cols)


class OrbitalProblem:
    """Shared state for one orbital integral evaluation.

    The bottom lattice of each pair is enumerated over the centralizer
    quotient of its stable family: every discovered lattice is reduced to
    its fundamental-box representative before deduplication.  A vertex is
    expanded only while its span gap (the index of the other order's span
    over it) stays within the Hecke support's reach plus a slack window;
    the traversal terminates when the frontier empties, and growing the
    slack must leave the value unchanged.
    """

    def __init__(self, pair, f, twisted, seed=0):
        self.pair = pair
        self.f = f
        self.twisted = twisted
        self.field = pair.field
        self.cent = centralizer(pair, seed=seed)
        self.gamma = self.cent.gamma_group()
        size = 2 * pair.n
        self.base_a = _stable_base(self.field, pair.A, size)
        self.base_b = _stable_base(self.field, pair.B, size)
        self.fam_a = stable_family(self.field, pair.A, pair.Ea, self.base_a)
        self.fam_b = stable_family(self.field, pair.B, pair.Eb, self.base_b)
        self.ctx = TransferContext(pair) if twisted else None
        supp = f.support()
        self.totals = sorted({sum(mu) for mu in supp})
        self.supp = {tuple(mu): f.c[tuple(mu)] for mu in supp}
        self.nonneg = all(x >= 0 for mu in supp for x in mu)

    def gap_only(self, lb):
        """Index of the first order's span over the lattice (cheap)."""
        from .lattices import smith_exponents_rectangular
        stack = lb.basis.hstack(self.pair.A * lb.basis)
        span_det = sum(smith_exponents_rectangular(stack, rank=stack.nrows))
        return lb.det_valuation - span_det

    def gap(self, lb):
        """Index of the first order's span over the lattice, with the span."""
        span = _order_span_of(self.field, self.pair.A, lb)
        return index(span, lb), span

    def reduce_rep(self, lb):
        e = self.gamma.reduce_exponents(lb)
        if any(e):
            return self.gamma.apply(e, lb)
        return lb

    def contribution(self, lb, span, gap):
        total = OrbitalValue() if self.twisted else Fraction(0)
        for t in self.totals:
            extra = t - gap
            if extra < 0:
                continue
            for la in self.fam_a.stable_superlattices(span, extra):
                mu = relative_position(la, lb)
                coeff = self.supp.get(mu)
                if not coeff:
                    continue
                if self.twisted:
                    omega = transfer_factor(self.ctx, la, lb)
                    total = total + omega * coeff
                else:
                    total = total + coeff
        return total

    def _descend_start(self, budget=24):
        """Greedy walk from the base toward smaller span gap."""
        cur = self.reduce_rep(self.fam_b.base)
        g = self.gap_only(cur)
        for _ in range(budget):
            if g == 0:
                break
            best = None
            for nb in self._neighbors(cur):
                rep = self.reduce_rep(nb)
                gg = self.gap_only(rep)
                if best is None or gg < best[0]:
                    best = (gg, rep)
            if best is None or best[0] >= g:
                break
            g, cur = best[0], best[1]
        return cur, g

    def _neighbors(self, lb):
        return self.fam_b.neighbors_down(lb) + self.fam_b.neighbors_up(lb)

    def gap_of_stack(self, stack):
        """Gamma-invariant span gap computed on a raw generator stack."""
        from .lattices import smith_exponents_rectangular
        d_lat = sum(smith_exponents_rectangular(stack, rank=stack.nrows))
        span = stack.hstack(self.pair.A * stack)
        d_span = sum(smith_exponents_rectangular(span, rank=span.nrows))
        return d_lat - d_span

    def evaluate(self, slack=1, budget=200000, bridge_gap=2):
        """Support traversal in the centralizer quotient.

        Support vertices (span gap within the Hecke reach) are expanded;
        vertices just outside bridge for at most `slack` steps while their
        gap stays within bridge_gap of the reach.  Off-support neighbors
        are rejected by a cheap invariant gap test on the raw generator
        stack, without ever being reduced or canonicalized.
        """
        if not self.supp:
            return (OrbitalValue() if self.twisted else Fraction(0)), 0
        if not self.nonneg:
            # reduce to a nonnegative support through a central twist
            shift = min(x for mu in self.supp for x in mu)
            from .hecke import pi_twist
            prob = OrbitalProblem(self.pair, pi_twist(self.f, -shift),
                                  self.twisted)
            return prob.evaluate(slack=slack, budget=budget,
                                 bridge_gap=bridge_gap)
        max_total = max(self.totals)
        start, g0 = self._descend_start()
        total = OrbitalValue() if self.twisted else Fraction(0)
        seen = {start.key()}
        if g0 <= max_total and self.gamma.in_fundamental_box(start):
            gg, span = self.gap(start)
            total = total + self.contribution(start, span, gg)
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
                for stack in self.fam_b.neighbor_stacks(lb):
                    gg = self.gap_of_stack(stack)
                    is_support = gg <= max_total
                    if not is_support and (next_depth > slack
                                           or gg > max_total + bridge_gap):
                        continue
                    rep = self.gamma.reduce_stack(stack)
                    k = rep.key()
                    if k in seen:
                        continue
                    seen.add(k)
                    visited += 1
                    if visited > budget:
                        raise WindowOverflow(
                            "orbital enumeration budget exceeded")
                    if is_support:
                        g2, span = self.gap(rep)
                        total = total + self.contribution(rep, span, g2)
                        new.append((rep, gg, 0))
                    else:
                        new.append((rep, gg, next_depth))
            frontier = new
        return total, radius


def _order_span_of(field, mat, lat):
    """lat + mat*lat: the smallest lattice over the order containing lat."""
    cols = [lat.basis.column(j) for j in range(lat.rank)]
    cols += [mat.apply(lat.basis.column(j)) for j in range(lat.rank)]
    return from_generators(field, cols)


def orbital_beta(pair, f, slack=1, seed=0):
    """Plain orbital integral: an f-weighted count of stable lattice pairs.

    The pair's two lattices run over the stable families of its two
    embeddings modulo the centralizer's uniformizer subgroup; the
    stabilizer volume is one for the groups constructed here.
    """
    prob = OrbitalProblem(pair, f, twisted=False, seed=seed)
    val, w = prob.evaluate(slack=slack)
    return val, w


def orbital_alpha(pair, f, slack=1, seed=0):
    """Twisted orbital integral as an exact Laurent polynomial in Q."""
    prob = OrbitalProblem(pair, f, twisted=True, seed=seed)
    val, w = prob.evaluate(slack=slack)
    return val, w


def order_estimate(pair, f=None, slack=1):
    """Analytic order estimate of an invariant factor: 1 when the functional
    equation sign of the twisted integral is -1, else 0."""
    from .hecke import unit
    f = f or unit(2 * pair.n)
    val, _ = orbital_alpha(pair, f, slack=slack)
    probe = functional_equation_probe(val)
    if probe is None:
        return None
    return 1 if probe[0] == -1 else 0


def order_lower_bound_report(components, f, slack=1):
    """Vanishing order of the direct sum's integral vs the per-factor estimate.

    components is a list of pairs on the same algebras; their direct sum is
    evaluated at f, and each component contributes its own sign-derived
    order estimate with the unit function.
    """
    from .pairs import direct_sum
    total = components[0]
    for c in components[1:]:
        total = direct_sum(total, c)
    val, w = orbital_alpha(total, f, slack=slack)
    estimates = [order_estimate(c, slack=slack) for c in components]
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
