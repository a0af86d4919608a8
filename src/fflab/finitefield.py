"""Arithmetic in the residue field F_q for small prime powers q <= 9.

Elements are integers 0..q-1.  For prime q they are residues mod p; for
q = p^e they encode polynomial coefficient vectors over F_p in base p
(lowest coefficient first).  Addition and multiplication go through
precomputed tables; multiplicative structure is realized by log/antilog
tables with respect to a fixed generator of F_q^x.
"""

from functools import lru_cache

_IRREDUCIBLE = {
    # q: dense coefficient list of a monic irreducible over F_p, low first.
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
}

_SMALL_PRIMES = (2, 3, 5, 7)


def _factor_prime_power(q):
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m == 1:
                return p, e
    raise ValueError(f"q = {q} is not a prime power <= 9")


class GF:
    """The field with q elements, q a prime power <= 9."""

    def __init__(self, q):
        if not (2 <= q <= 9):
            raise ValueError("residue cardinality must satisfy 2 <= q <= 9")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self._build_tables()

    # -- representation helpers -------------------------------------------

    def _to_vec(self, a):
        p, e = self.p, self.e
        return tuple((a // p**i) % p for i in range(e))

    def _from_vec(self, v):
        p = self.p
        return sum(c % p * p**i for i, c in enumerate(v))

    def _poly_mul(self, a, b):
        p, e = self.p, self.e
        va, vb = self._to_vec(a), self._to_vec(b)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(va):
            if ca:
                for j, cb in enumerate(vb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the irreducible, top down (nothing to do at e = 1)
        mod = _IRREDUCIBLE.get(self.q)
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, mc in enumerate(mod[:-1]):
                    prod[k - e + i] = (prod[k - e + i] - c * mc) % p
        return self._from_vec(prod[:e])

    def _build_tables(self):
        q, p = self.q, self.p
        add = [
            [self._from_vec(tuple((x + y) % p for x, y in zip(self._to_vec(a), self._to_vec(b))))
             for b in range(q)]
            for a in range(q)
        ]
        mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        neg = [self._from_vec(tuple((-x) % p for x in self._to_vec(a))) for a in range(q)]
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        # generator of the unit group, found by brute force
        gen = None
        for g in range(1, q):
            x, seen = g, set()
            while x not in seen:
                seen.add(x)
                x = mul[x][g]
            if len(seen) == q - 1:
                gen = g
                break
        assert gen is not None
        self.generator = gen
        exp = [1]
        x = 1
        for _ in range(q - 2):
            x = mul[x][gen]
            exp.append(x)
        self.exp_table = exp                      # exp_table[k] = gen^k
        self.log_table = {v: k for k, v in enumerate(exp)}
        self.inv_table = [0] * q
        for a in range(1, q):
            self.inv_table[a] = exp[(q - 1 - self.log_table[a]) % (q - 1)]

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.inv_table[a]

    def pow(self, a, k):
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0 if k else 1
        idx = (self.log_table[a] * k) % (self.q - 1)
        return self.exp_table[idx]

    def from_int(self, n):
        """Image of the rational integer n in F_q (through F_p)."""
        return n % self.p

    def log(self, a):
        """Discrete log with respect to the fixed generator; a must be nonzero."""
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return self.log_table[a]

    def sqrt(self, a):
        """A square root of a, or None if a is not a square."""
        if a == 0:
            return 0
        if self.p == 2:
            # Frobenius is bijective: sqrt(a) = a^(q/2)
            return self.pow(a, self.q // 2)
        k = self.log_table[a]
        if k % 2:
            return None
        return self.exp_table[k // 2]

    def nonsquare(self):
        """A fixed non-square unit (odd q only)."""
        if self.p == 2:
            raise ValueError("every element of F_q is a square at even q")
        return self.exp_table[1]  # the generator itself

    def trace_to_prime(self, a):
        """Absolute trace F_q -> F_p."""
        t, x = 0, a
        for _ in range(self.e):
            t = self.add(t, x)
            x = self.pow(x, self.p)
        return t

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def gf(q):
    return GF(q)
