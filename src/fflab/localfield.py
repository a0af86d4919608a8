"""Truncated Laurent series over F_q: the local field F = F_q((pi)).

Every scalar in the workbench is a FieldElement: a certified valuation, a
coefficient vector for the unit part, and an absolute precision bound
``known_to`` (the element is known modulo pi^known_to).  Exact elements
carry known_to = +infinity; an "inexact zero" O(pi^K) has an empty
coefficient vector and known_to = K.  Arithmetic never silently increases
the claimed precision, and predicates that would need undetermined digits
raise PrecisionExhausted instead of guessing.
"""

import math

from .errors import DivisionByZero, PrecisionExhausted
from .finitefield import gf

INF = math.inf

DEFAULT_PRECISION = 40


class LocalField:
    """F_q((pi)) at a global default absolute precision N."""

    def __init__(self, q, precision=DEFAULT_PRECISION):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.q = q
        self.precision = precision
        self.gf = gf(q)
        self.zero = FieldElement(self, INF, (), INF)
        self.one = FieldElement(self, 0, (1,), INF)

    # -- constructors ------------------------------------------------------

    def element(self, val, coeffs, known_to=INF):
        """Element sum_i coeffs[i] * pi^(val+i), known modulo pi^known_to."""
        return FieldElement(self, val, tuple(coeffs), known_to)

    def pi(self, k=1):
        return FieldElement(self, k, (1,), INF)

    def from_int(self, n):
        c = self.gf.from_int(n)
        if c == 0:
            return self.zero
        return FieldElement(self, 0, (c,), INF)

    def from_fq(self, c):
        if c == 0:
            return self.zero
        return FieldElement(self, 0, (c,), INF)

    def o_term(self, k):
        """The inexact zero O(pi^k)."""
        return FieldElement(self, k, (), k)

    def random_element(self, rng, vmin=0, vmax=2, terms=3, unit=False):
        """Seeded random exact Laurent polynomial (test/scenario generation)."""
        v = 0 if unit else rng.randint(vmin, vmax)
        coeffs = [rng.randrange(1, self.q)]
        for _ in range(terms - 1):
            coeffs.append(rng.randrange(self.q))
        return self.element(v, coeffs)

    def __eq__(self, other):
        return isinstance(other, LocalField) and self.q == other.q and self.precision == other.precision

    def __hash__(self):
        return hash(("LocalField", self.q, self.precision))

    def __repr__(self):
        return f"LocalField(q={self.q}, N={self.precision})"


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class FieldElement:
    """Immutable truncated Laurent series.

    Invariants: if coeffs is nonempty then coeffs[0] != 0, val is the exact
    valuation and known_to > val; if coeffs is empty the element is
    O(pi^known_to) and val == known_to (exact zero when known_to is inf).
    """

    __slots__ = ("field", "val", "coeffs", "known_to", "_hash")

    def __init__(self, field, val, coeffs, known_to):
        coeffs = tuple(coeffs)
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead:
            coeffs = coeffs[lead:]
            val += lead
        coeffs = _strip(coeffs)
        if known_to != INF and coeffs:
            # drop coefficients at or beyond the precision bound
            if val + len(coeffs) > known_to:
                coeffs = _strip(coeffs[: max(0, known_to - val)])
        if not coeffs:
            val = known_to
        self.field = field
        self.val = val
        self.coeffs = coeffs
        self.known_to = known_to
        self._hash = None

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact(self):
        return self.known_to == INF

    @property
    def is_exact_zero(self):
        return not self.coeffs and self.known_to == INF

    @property
    def is_zeroish(self):
        """True when no nonzero digit is certified."""
        return not self.coeffs

    def valuation(self):
        """Certified valuation; +inf for the exact zero."""
        if self.coeffs:
            return self.val
        if self.is_exact_zero:
            return INF
        raise PrecisionExhausted(
            f"valuation undetermined: element is O(pi^{self.known_to})")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        # an exact zero term leaves the other operand's key unchanged
        if not b.coeffs and b.known_to == INF:
            return a
        if not a.coeffs and a.known_to == INF:
            return b
        know = min(a.known_to, b.known_to)
        if not a.coeffs and not b.coeffs:
            return FieldElement(a.field, know, (), know)
        if not a.coeffs:
            return FieldElement(a.field, b.val, b.coeffs, know)
        if not b.coeffs:
            return FieldElement(a.field, a.val, a.coeffs, know)
        g = a.field.gf
        lo = min(a.val, b.val)
        hi = max(a.val + len(a.coeffs), b.val + len(b.coeffs))
        if know != INF:
            hi = min(hi, know)
        out = [0] * (hi - lo)
        for i, c in enumerate(a.coeffs):
            k = a.val + i - lo
            if 0 <= k < len(out):
                out[k] = c
        add = g.add_table
        for i, c in enumerate(b.coeffs):
            k = b.val + i - lo
            if 0 <= k < len(out):
                out[k] = add[out[k]][c]
        i = 0
        while i < len(out) and out[i] == 0:
            i += 1
        if i == len(out):
            return FieldElement(a.field, know, (), know)
        return FieldElement(a.field, lo + i, out[i:], know)

    def __neg__(self):
        if not self.coeffs:
            return self
        neg = self.field.gf.neg_table
        return FieldElement(self.field, self.val,
                            tuple(neg[c] for c in self.coeffs), self.known_to)

    def __sub__(self, other):
        if not other.coeffs and other.known_to == INF:
            return self
        return self + (-other)

    def __mul__(self, other):
        a, b = self, other
        f = a.field
        if a.is_exact_zero or b.is_exact_zero:
            return f.zero
        # lower bound for the valuation of the product
        if a.coeffs and b.coeffs:
            if len(a.coeffs) == 1 and len(b.coeffs) == 1 \
                    and a.known_to == INF and b.known_to == INF:
                out = FieldElement.__new__(FieldElement)
                out.field = f
                out.val = a.val + b.val
                out.coeffs = (f.gf.mul_table[a.coeffs[0]][b.coeffs[0]],)
                out.known_to = INF
                out._hash = None
                return out
            know = min(a.val + b.known_to, b.val + a.known_to)
            va = a.val + b.val
            g = f.gf
            n = len(a.coeffs) + len(b.coeffs) - 1
            if know != INF:
                n = min(n, know - va)
            out = [0] * n
            add, mul = g.add_table, g.mul_table
            for i, ca in enumerate(a.coeffs):
                if ca and i < n:
                    row = mul[ca]
                    for j, cb in enumerate(b.coeffs):
                        if cb and i + j < n:
                            out[i + j] = add[out[i + j]][row[cb]]
            return FieldElement(f, va, out, know)
        know = min(a.val + b.known_to, b.val + a.known_to)
        return FieldElement(f, know, (), know)

    def scale(self, c):
        """Multiply by the residue-field constant c."""
        if c == 0:
            return self.field.zero
        if not self.coeffs:
            return self
        mul = self.field.gf.mul_table[c]
        return FieldElement(self.field, self.val,
                            tuple(mul[x] for x in self.coeffs), self.known_to)

    def shift(self, k):
        """Multiply by pi^k."""
        if not self.coeffs:
            kt = self.known_to if self.known_to == INF else self.known_to + k
            return FieldElement(self.field, kt, (), kt)
        kt = self.known_to if self.known_to == INF else self.known_to + k
        return FieldElement(self.field, self.val + k, self.coeffs, kt)

    def inv(self):
        if self.is_exact_zero:
            raise DivisionByZero("inverse of exact zero")
        if not self.coeffs:
            raise PrecisionExhausted(
                f"inverse of O(pi^{self.known_to}): nonzero not detectable")
        f, g = self.field, self.field.gf
        v = self.val
        if len(self.coeffs) == 1 and self.known_to == INF:
            return FieldElement(f, -v, (g.inv(self.coeffs[0]),), INF)
        # relative precision available for the unit part
        rel = self.known_to - v if self.known_to != INF else f.precision
        rel = int(min(rel, f.precision + 8))
        u = list(self.coeffs[:rel]) + [0] * max(0, rel - len(self.coeffs))
        inv0 = g.inv(u[0])
        out = [inv0] + [0] * (rel - 1)
        add, mul = g.add_table, g.mul_table
        for k in range(1, rel):
            # coefficient k of u * out must vanish
            s = 0
            for i in range(1, k + 1):
                if i < len(u) and u[i]:
                    s = add[s][mul[u[i]][out[k - i]]]
            out[k] = mul[g.neg(s)][inv0]
        return FieldElement(f, -v, out, rel - v)

    def __truediv__(self, other):
        return self * other.inv()

    # -- precision management -------------------------------------------------

    def reduce_mod(self, k):
        """The canonical representative with exponents < k, as an exact element.

        Requires known_to >= k so the representative is certified.
        """
        if self.known_to < k:
            raise PrecisionExhausted(
                f"reduction mod pi^{k} needs precision {k}, have {self.known_to}")
        if not self.coeffs or self.val >= k:
            return self.field.zero
        return FieldElement(self.field, self.val, self.coeffs[: k - self.val], INF)

    def high_part(self, k):
        """The complementary exact part with exponents >= k (input must be exact enough)."""
        return self + (-self.reduce_mod(k))

    def truncate(self, k):
        """Forget digits at pi^k and beyond (lowers known_to to k)."""
        if self.known_to <= k:
            return self
        return FieldElement(self.field, self.val, self.coeffs, k)

    def same(self, other):
        """Value equality: no certified digit of the difference is nonzero."""
        return (self - other).is_zeroish

    # -- structure ------------------------------------------------------------

    def coeff(self, k):
        """Coefficient of pi^k; raises if not certified."""
        if self.known_to <= k:
            raise PrecisionExhausted(f"coefficient of pi^{k} not certified")
        if not self.coeffs or k < self.val or k >= self.val + len(self.coeffs):
            return 0
        return self.coeffs[k - self.val]

    def key(self):
        v = None if not self.coeffs else self.val
        k = None if self.known_to == INF else self.known_to
        return (v, self.coeffs, k)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.key() == other.key() and self.field.q == other.field.q

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    # -- output ----------------------------------------------------------------

    def __str__(self):
        if self.is_exact_zero:
            return "0"
        if not self.coeffs:
            return f"O(pi^{self.known_to})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*pi^{self.val + i}")
        s = " + ".join(parts)
        if self.known_to != INF:
            s += f" + O(pi^{self.known_to})"
        return s

    __repr__ = __str__

    def to_json(self):
        """Serialization: coefficients as generator exponents (or 0)."""
        g = self.field.gf
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append([self.val + i, g.log(c) if c != 1 else 0])
        known = None if self.known_to == INF else self.known_to
        return {"terms": terms, "known_to": known}
