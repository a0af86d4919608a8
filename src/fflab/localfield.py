"""Truncated Laurent series over F_q: the local field F = F_q((pi)).

Every scalar in the workbench is a FieldElement: a certified valuation, a
coefficient vector for the unit part, and an absolute precision bound
``known_to`` (the element is known modulo pi^known_to).  Exact elements
carry known_to = +infinity; an "inexact zero" O(pi^K) has an empty
coefficient vector and known_to = K.  Arithmetic never silently increases
the claimed precision, and predicates that would need undetermined digits
raise PrecisionExhausted instead of guessing.  A quotient is a product
with ``inv()``; there is no division operator.

A product of two series of more than one digit each is one integer
product (Kronecker substitution): both digit vectors are packed into
Python ints, one slot group per digit, multiplied once and unpacked with
``bytes.translate``.  Slots cannot overflow: each is wide enough for the
largest value it can hold, (p - 1)^2 * e * min(len a, len b) at q = p^e,
and the slot width is chosen from that bound on every product (see
_Kronecker).  A series times a single digit is a table scale.
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
        self._kronecker = _Kronecker(self.gf)
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


def _gather(raw, size, mult):
    """Byte size - 1 of each group of size bytes of raw * mult.

    With mult = sum_t m_t 256^(size-1-t), that byte is the weighted sum
    sum_t m_t raw[i + t] over its group; the caller keeps every byte of
    the product below 256, so no byte carries into the next.
    """
    prod = int.from_bytes(raw, "little") * mult
    return prod.to_bytes(len(raw) + size - 1, "little")[size - 1::size]


class _Kronecker:
    """Series products over F_q, q = p^e, as one integer product each.

    Digit c of F_q stands for the F_p-polynomial sum_j c_j x^j, where
    c = sum_j c_j p^j.  Digit i of a series goes to group i of 2e - 1 slots
    of w bytes in a little-endian integer, its coefficient c_j to slot j of
    the group.  Slot j of group k of the product of two packed series then
    holds the coefficient of x^j pi^k in their product as series over
    F_p[x]: a sum of at most e * min(len a, len b) products of two values
    below p, which w bytes hold by the choice of w.  Every j is at most
    2e - 2, so no slot reaches into the next group, and as no slot
    overflows, no carry crosses a slot.  Each slot is then reduced mod p,
    and each group, a value below p^(2e - 1) <= 32 in base p, is mapped to
    its residue mod the irreducible of F_q by one table.
    """

    # Gathering a slot's w bytes, each reduced mod p, with weights
    # 256^k mod p stays carry-free while w (p - 1)^2 < 256, so w <= 7 at
    # p <= 7; a slot wider than 7 bytes would need a series of more than
    # 2^50 digits.
    _MAX_WIDTH = 7

    def __init__(self, g):
        p, e, q = g.p, g.e, g.q
        self.group = 2 * e - 1
        self.pair_bound = (p - 1) ** 2 * e
        self.planes = [bytes(c // p ** j % p if c < q else 0 for c in range(256))
                       for j in range(e)]
        self.mod = bytes(c % p for c in range(256))
        # slot_mult[w] gathers the w bytes of a slot into its value mod p
        self.slot_mult = [None] + [
            sum(pow(256, k, p) << 8 * (w - 1 - k) for k in range(w))
            for w in range(1, self._MAX_WIDTH + 1)]
        # group_mult gathers a group of p-digits r_j into sum_j r_j p^j, and
        # fold maps that to sum_j r_j x^j in F_q, where x is the digit p
        self.group_mult = sum(p ** j << 8 * (self.group - 1 - j)
                              for j in range(self.group))
        self.fold = None
        if e > 1:
            add, mul = g.add_table, g.mul_table
            xpow = [1]
            for _ in range(self.group - 1):
                xpow.append(mul[xpow[-1]][p])
            fold = []
            for d in range(p ** self.group):
                acc = 0
                for xj in xpow:
                    acc = add[acc][mul[d % p][xj]]
                    d //= p
                fold.append(acc)
            # bytes.translate takes a table of all 256 byte values
            self.fold = bytes(fold).ljust(256, b"\0")

    def _pack(self, digits, w):
        raw = bytes(digits)
        stride = self.group * w
        if stride == 1:
            return int.from_bytes(raw, "little")
        buf = bytearray(len(raw) * stride)
        for j, plane in enumerate(self.planes):
            buf[j * w::stride] = raw.translate(plane)
        return int.from_bytes(buf, "little")

    def product(self, x, y, n):
        """The first n digits of the product of the digit tuples x and y."""
        w = ((self.pair_bound * min(len(x), len(y))).bit_length() + 7) // 8
        stride = self.group * w
        prod = self._pack(x, w) * self._pack(y, w)
        raw = prod.to_bytes((len(x) + len(y) - 1) * stride, "little")
        raw = raw[: n * stride].translate(self.mod)
        if w > 1:
            raw = _gather(raw, w, self.slot_mult[w]).translate(self.mod)
        if self.fold is not None:
            raw = _gather(raw, self.group, self.group_mult).translate(self.fold)
        return raw


class FieldElement:
    """Immutable truncated Laurent series.

    Invariants: if coeffs is nonempty then coeffs[0] != 0, val is the exact
    valuation and known_to > val; if coeffs is empty the element is
    O(pi^known_to) and val == known_to (exact zero when known_to is inf).
    """

    __slots__ = ("field", "val", "coeffs", "known_to")

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
            x, y = a.coeffs, b.coeffs
            if len(x) == 1 and len(y) == 1 \
                    and a.known_to == INF and b.known_to == INF:
                out = FieldElement.__new__(FieldElement)
                out.field = f
                out.val = a.val + b.val
                out.coeffs = (f.gf.mul_table[x[0]][y[0]],)
                out.known_to = INF
                return out
            know = min(a.val + b.known_to, b.val + a.known_to)
            va = a.val + b.val
            n = len(x) + len(y) - 1
            if know != INF:
                n = min(n, know - va)
            if len(y) == 1:
                x, y = y, x
            if len(x) == 1:
                row = f.gf.mul_table[x[0]]
                out = [row[c] for c in y[:n]]
            else:
                out = f._kronecker.product(x[:n], y[:n], n)
            return FieldElement(f, va, out, know)
        know = min(a.val + b.known_to, b.val + a.known_to)
        return FieldElement(f, know, (), know)

    def shift(self, k):
        """Multiply by pi^k."""
        kt = self.known_to if self.known_to == INF else self.known_to + k
        if not self.coeffs:
            return FieldElement(self.field, kt, (), kt)
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
        u = self.coeffs[:rel]
        inv0 = g.inv(u[0])
        out = [inv0] + [0] * (rel - 1)
        add, mul = g.add_table, g.mul_table
        neg, row0 = g.neg_table, mul[inv0]
        # the unit's nonzero digits past the first: no term of the sum
        # below reaches past the unit's length
        terms = [(i, mul[c]) for i, c in enumerate(u) if i and c]
        for k in range(1, rel):
            # coefficient k of u * out must vanish
            s = 0
            for i, row in terms:
                if i > k:
                    break
                s = add[s][row[out[k - i]]]
            out[k] = row0[neg[s]]
        return FieldElement(f, -v, out, rel - v)

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
        return hash(self.key())

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
