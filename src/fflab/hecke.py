"""Spherical Hecke algebra of GL_m(F) and Satake transforms.

Hecke functions are finite rational-coefficient functions on Cartan types
(decreasing integer vectors).  The coefficient ring of all Satake images is
Laurent polynomials in u = q^(1/2) over the rationals, so half-integral
modular-character exponents stay exact; a SymLaurent takes its
coefficients as given, and every builder makes them symmetric.  The full
transform is computed in closed form nowhere: satake_direct sums f over
the unipotent cosets, which is what the acceptance identities are tested
against.  It takes one coset per orbit of two subgroups of GL(O) that keep
the Smith exponents, last-block row translations and torus scalings, with
the orbit's size as its weight, so the sum stays exact.
"""

import itertools
from fractions import Fraction

from .errors import WindowOverflow
from .lattices import (_compositions, canonicalize, lattices_at_position,
                       relative_position, residues, smith_exponents,
                       standard_lattice)
from .linalg import Matrix

UNIPOTENT_WINDOW_CAP = 12


class ULaurent:
    """Element a + b*u of Q(u), u = q^(1/2): the coefficient ring of all
    Satake images.  The relation u^2 = q is applied on construction."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a=0, b=0):
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def from_powers(q, c):
        """From a dict {u-exponent: coefficient}, reducing u^2 = q."""
        a = b = Fraction(0)
        for k, v in c.items():
            v = Fraction(v)
            if k % 2 == 0:
                a += v * Fraction(q) ** (k // 2)
            else:
                b += v * Fraction(q) ** ((k - 1) // 2)
        return ULaurent(q, a, b)

    @staticmethod
    def from_rational(q, x):
        return ULaurent(q, x, 0)

    @staticmethod
    def q_half_power(q, k, coeff=1):
        """coeff * q^k with k a half integer (Fraction allowed)."""
        kk = Fraction(k)
        e = kk * 2
        if e.denominator != 1:
            raise ValueError("exponent must be a half integer")
        return ULaurent.from_powers(q, {int(e): coeff})

    def __add__(self, other):
        return ULaurent(self.q, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        if isinstance(other, ULaurent):
            return ULaurent(self.q,
                            self.a * other.a + self.q * self.b * other.b,
                            self.a * other.b + self.b * other.a)
        return ULaurent(self.q, self.a * Fraction(other), self.b * Fraction(other))

    def is_zero(self):
        return not self.a and not self.b

    def __eq__(self, other):
        if not isinstance(other, ULaurent):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        if not self.b:
            return str(self.a)
        return f"{self.a} + {self.b}*u"

    def to_json(self):
        return {"0": str(self.a), "1": str(self.b)}


class HeckeFunction:
    """Finite map from decreasing integer vectors to rationals."""

    __slots__ = ("rank", "c")

    def __init__(self, rank, c=None):
        self.rank = rank
        cc = {}
        if c:
            for k, v in c.items():
                v = Fraction(v)
                if v:
                    k = tuple(k)
                    if list(k) != sorted(k, reverse=True):
                        raise ValueError("support keys must be decreasing vectors")
                    cc[k] = v
        self.c = cc

    def value(self, mu):
        return self.c.get(tuple(mu), Fraction(0))

    def support(self):
        return list(self.c)

    def __eq__(self, other):
        if not isinstance(other, HeckeFunction):
            return NotImplemented
        return self.rank == other.rank and self.c == other.c

    def __repr__(self):
        return f"HeckeFunction({self.rank}, {dict(self.c)})"


def unit(rank):
    return HeckeFunction(rank, {(0,) * rank: 1})


def s_k(rank, k):
    """Characteristic function of types (1^k, 0^(rank-k)); negative k by inversion."""
    if k == 0:
        return unit(rank)
    if abs(k) > rank:
        raise ValueError("|k| exceeds the rank")
    if k > 0:
        return HeckeFunction(rank, {(1,) * k + (0,) * (rank - k): 1})
    k = -k
    return HeckeFunction(rank, {(0,) * (rank - k) + (-1,) * k: 1})


def t_m(rank, m):
    """Sum of all integral types of determinant valuation m (coefficient one)."""
    s = -1 if m < 0 else 1
    keys = {tuple(sorted((s * x for x in c), reverse=True))
            for c in _compositions(abs(m), rank)}
    return HeckeFunction(rank, dict.fromkeys(keys, 1))


def pi_power(rank, k):
    return HeckeFunction(rank, {(k,) * rank: 1})


def convolve(f, g, field):
    """(f*g)(mu) = sum over L\' of f(std rel L\') g(L\' rel L_mu), where L_mu is
    a fixed representative of type mu; computed by lattice enumeration."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    rank = f.rank
    std = standard_lattice(field, rank)
    if not f.c or not g.c:
        return HeckeFunction(rank, {})
    lo = min(min(k) for k in f.c) + min(min(k) for k in g.c)
    hi = max(max(k) for k in f.c) + max(max(k) for k in g.c)
    totals = {sum(kf) + sum(kg) for kf in f.c for kg in g.c}
    intermediates = []
    for lam, cf in f.c.items():
        for inter in lattices_at_position(std, lam):
            intermediates.append((cf, inter))
    out = {}
    for mu in _decreasing_vectors(rank, lo, hi):
        if sum(mu) not in totals:
            continue
        target = canonicalize(
            field, Matrix.diagonal(field, [field.pi(x) if x else field.one
                                           for x in mu]))
        acc = Fraction(0)
        for cf, inter in intermediates:
            acc += cf * g.value(relative_position(inter, target))
        if acc:
            out[mu] = acc
    return HeckeFunction(rank, out)


def _decreasing_vectors(rank, lo, hi):
    for combo in itertools.combinations_with_replacement(range(lo, hi + 1), rank):
        yield tuple(sorted(combo, reverse=True))


def f_of_m(rank, m, field):
    """Iterated convolution of the determinant-valuation generators."""
    out = t_m(rank, m[0]) if m else unit(rank)
    for mi in m[1:]:
        out = convolve(out, t_m(rank, mi), field)
    return out


def pi_twist(f, k):
    """[pi]^k * f: shifts every support vector by k."""
    return HeckeFunction(f.rank, {tuple(x + k for x in key): v
                                  for key, v in f.c.items()})


# -- symmetric functions -----------------------------------------------------------


class SymLaurent:
    """Weyl-invariant Laurent polynomial in x_1..x_rank over Q(u), u^2 = q;
    c, exponent vectors to coefficients, is symmetric by construction."""

    __slots__ = ("rank", "q", "c")

    def __init__(self, rank, q, c):
        self.rank = rank
        self.q = q
        cc = {}
        for k, v in c.items():
            if isinstance(v, ULaurent):
                vv = v
            else:
                vv = ULaurent.from_rational(q, v)
            if not vv.is_zero():
                cc[tuple(k)] = vv
        self.c = cc

    @staticmethod
    def from_sorted(rank, q, sorted_coeffs):
        """Build from coefficients on decreasing keys by symmetrizing."""
        out = {}
        for k, v in sorted_coeffs.items():
            for p in set(itertools.permutations(k)):
                out[p] = v
        return SymLaurent(rank, q, out)

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return SymLaurent(self.rank, self.q, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, x):
        if isinstance(x, ULaurent):
            return SymLaurent(self.rank, self.q,
                              {k: v * x for k, v in self.c.items()})
        return SymLaurent(self.rank, self.q,
                          {k: v * Fraction(x) for k, v in self.c.items()})

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                p = v1 * v2
                if k in out:
                    out[k] = out[k] + p
                else:
                    out[k] = p
        return SymLaurent(self.rank, self.q, out)

    def is_zero(self):
        return all(v.is_zero() for v in self.c.values())

    def __eq__(self, other):
        if not isinstance(other, SymLaurent):
            return NotImplemented
        ks = set(self.c) | set(other.c)
        zero = ULaurent(self.q)
        return self.rank == other.rank and self.q == other.q and all(
            self.c.get(k, zero) == other.c.get(k, zero) for k in ks)

    def __repr__(self):
        return f"SymLaurent({self.rank}, {self.c})"

    def to_json(self):
        return {",".join(map(str, k)): v.to_json() for k, v in sorted(self.c.items())}


def sym_e(rank, q, k):
    """Elementary symmetric polynomial e_k."""
    out = {}
    for idx in itertools.combinations(range(rank), k):
        key = tuple(1 if i in idx else 0 for i in range(rank))
        out[key] = 1
    return SymLaurent(rank, q, out)


def sym_b(rank, q, m):
    """Complete homogeneous symmetric polynomial of degree m."""
    out = {}
    for comp in _compositions(m, rank):
        out[comp] = 1
    return SymLaurent(rank, q, out)


def verify_69(rank, q, k):
    """The alternating convolution identity between the two families."""
    acc = SymLaurent(rank, q, {})
    for i in range(k + 1):
        term = sym_b(rank, q, i) * sym_e(rank, q, k - i)
        acc = acc + term.scale((-1) ** i)
    return acc.is_zero()


def dimension_census(rank, k):
    """(number of integral double cosets of determinant valuation k,
    dimension of degree-k symmetric polynomials); they must agree."""
    cosets = sum(1 for c in _compositions(k, rank)
                 if list(c) == sorted(c, reverse=True))
    monomials = len({tuple(sorted(c, reverse=True)) for c in _compositions(k, rank)})
    if cosets != monomials:
        raise AssertionError("double coset census disagrees with the monomial count")
    return cosets, monomials


# -- Satake transforms ---------------------------------------------------------------


def _type_candidates(f, levi):
    """Per-block decreasing type tuples compatible with the (nonempty)
    support of f."""
    entries = [x for key in f.c for x in key]
    lo, hi = min(entries), max(entries)
    totals = {sum(key) for key in f.c}
    blocks = [list(_decreasing_vectors(nb, lo, hi)) for nb in levi]
    return [combo for combo in itertools.product(*blocks)
            if sum(map(sum, combo)) in totals]


def satake_direct(f, levi, field, as_tensor=False):
    """Partial Satake transform by unipotent summation.

    The coefficient of each block type mu is the sum of f over the
    block-unipotent cosets n N(O) against diag(pi^mu), times the modular
    character: one Smith form per orbit representative, weighted by the
    orbit's size (see _unipotent_orbits), and no closed form.

    levi is a tuple of block sizes summing to the rank.  For the full torus
    (all blocks of size one) the result is a SymLaurent; otherwise, and
    always under as_tensor, it is a dict mapping tuples of per-block types
    to ULaurent coefficients.
    """
    rank = f.rank
    if sum(levi) != rank:
        raise ValueError("levi must partition the rank")
    torus = all(b == 1 for b in levi) and not as_tensor
    if not f.c:
        return SymLaurent(rank, field.q, {}) if torus else {}
    entries = [x for key in f.c for x in key]
    v_min = min(entries)
    result = {}
    offsets = [sum(levi[:b]) for b in range(len(levi))]
    for combo in _type_candidates(f, levi):
        mu = tuple(x for block in combo for x in block)
        total = _unipotent_sum(f, mu, levi, offsets, v_min, field)
        if total == 0:
            continue
        # modular character exponent of the block-diagonal representative
        e = 0
        for b, block in enumerate(combo):
            before = sum(levi[:b])
            after = sum(levi[b + 1:])
            e += -sum(block) * (after - before)
        val = ULaurent.q_half_power(field.q, Fraction(e, 2), total)
        result[combo] = val
    if torus:
        return SymLaurent.from_sorted(
            rank, field.q, {tuple(x[0] for x in k): v for k, v in result.items()})
    return result


def _unipotent_sum(f, mu, levi, offsets, v_min, field):
    """Sum of f over block-unipotent cosets against diag(pi^mu)."""
    return sum(weight * f.value(smith_exponents(mat))
               for weight, mat in _unipotent_orbits(mu, levi, offsets, v_min, field))


def _unipotent_orbits(mu, levi, offsets, v_min, field):
    """(orbit size, representative diag(pi^mu) n) over the block-unipotent
    cosets n N(O) whose entries lie in the windows pi^-w O / O, one per
    orbit of two subgroups of GL(O) acting by left multiplication or
    conjugation, so every coset of an orbit has the representative's Smith
    exponents.  The orbit sizes add up to q^(sum of the widths).

    Translations: when column j lies in the last block, row j of n is e_j,
    and the row operation x_ij(c), c in O, moves u_ij by c pi^(mu_j - mu_i);
    so only u_ij mod pi^-d O counts, d = min(w, max(0, mu_i - mu_j)), and
    each class holds q^d cosets.  Torus scalings: conjugation by diag(t),
    t in (F_q^x)^rank, scales u_ij by t_i / t_j.  Reading the entries in
    order with a union-find over the indices, a nonzero entry that joins
    two classes can be scaled to leading digit one, and exactly one element
    of each orbit has that digit one at every join; the orbit has
    (q - 1)^joins elements.
    """
    rank = len(mu)
    q = field.q
    last = offsets[-1]
    positions = []
    reps = []
    translated = 1
    for bi, b in enumerate(levi):
        for bj in range(bi + 1, len(levi)):
            for i in range(offsets[bi], offsets[bi] + b):
                for j in range(offsets[bj], offsets[bj] + levi[bj]):
                    w = max(0, mu[i] - v_min)
                    if w > UNIPOTENT_WINDOW_CAP:
                        raise WindowOverflow(
                            f"unipotent window {w} exceeds the cap")
                    d = min(w, max(0, mu[i] - mu[j])) if j >= last else 0
                    positions.append((i, j))
                    # representatives of pi^-w O / pi^-d O
                    reps.append(residues(field, -w, w - d))
                    translated *= q ** d
    diag = [field.pi(x) if x else field.one for x in mu]
    for combo in itertools.product(*reps):
        parent = list(range(rank))
        joins = 0
        for (i, j), val in zip(positions, combo):
            if val.coeffs:
                ri, rj = _root(parent, i), _root(parent, j)
                if ri != rj:
                    if val.coeffs[0] != 1:
                        break
                    parent[ri] = rj
                    joins += 1
        else:
            rows = [[field.zero] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = diag[i]
            for (i, j), val in zip(positions, combo):
                if val.coeffs:
                    rows[i][j] = val.shift(mu[i])
            yield translated * (q - 1) ** joins, Matrix(field, rows)


def _root(parent, i):
    while parent[i] != i:
        i = parent[i]
    return i


def partial_satake_closed(field, k_twist, m, split):
    """Closed form of the partial transform of [pi]^k * f(m) for a two-block Levi.

    split = (n1, n2); the coefficient of f(m0) (x) f(m1) is
    q^((n2|m0| + n1|m1|)/2), an exact power of u.  For even-rank splits
    (2n0', 2n1') the exponent specializes to the integral q^(n1'|m0| + n0'|m1|),
    so no separate code path is needed.
    """
    n1, n2 = split
    out = {}
    for m0 in itertools.product(*[range(mi + 1) for mi in m]):
        m1 = tuple(mi - x for mi, x in zip(m, m0))
        f0 = pi_twist(f_of_m(n1, m0, field), k_twist)
        f1 = pi_twist(f_of_m(n2, m1, field), k_twist)
        coeff = ULaurent.q_half_power(field.q,
                                      Fraction(n2 * sum(m0) + n1 * sum(m1), 2))
        for t0, c0 in f0.c.items():
            for t1, c1 in f1.c.items():
                key = (t0, t1)
                add = coeff * (c0 * c1)
                out[key] = out.get(key, ULaurent(field.q)) + add
    return {k: v for k, v in out.items() if not v.is_zero()}
