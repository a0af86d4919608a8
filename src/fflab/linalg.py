"""Generic dense matrices and polynomials over the workbench's coefficient rings.

A "ring" here is any object whose elements support +, -, * and that exposes
``zero``/``one`` attributes (LocalField, QuadraticEtale).  Matrices and
polynomials multiply only by their own kind (Matrix.scale takes a scalar),
and a Poly is evaluated only at a Matrix.  Division-free algorithms
(Berkowitz) are used wherever the ring may fail to be a field; Gaussian
elimination with valuation pivoting is used over F itself, where pivots
can be certified.

Each call eliminates afresh; nothing is kept on a Matrix.  Right-hand
sides ride along as augment columns that never hold a pivot, so
mat_inverse eliminates [M | I] in one pass.
"""

from .errors import PrecisionExhausted, SingularBasis


class Matrix:
    """Immutable dense matrix over a coefficient ring."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(ring, n, m=None):
        m = n if m is None else m
        z = ring.zero
        return Matrix(ring, [[z] * m for _ in range(n)])

    @staticmethod
    def diagonal(ring, entries):
        z = ring.zero
        n = len(entries)
        return Matrix(ring, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(ring, cols):
        n = len(cols[0])
        return Matrix(ring, [[c[i] for c in cols] for i in range(n)])

    @staticmethod
    def block_diag(ring, blocks):
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        z = ring.zero
        rows = [[z] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[i0 + i][j0 + j] = b.rows[i][j]
            i0 += b.nrows
            j0 += b.ncols
        return Matrix(ring, rows)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.ring, [[self.rows[i][j] for i in range(self.nrows)]
                                  for j in range(self.ncols)])

    def hstack(self, other):
        return Matrix(self.ring, [list(a) + list(b) for a, b in zip(self.rows, other.rows)])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return Matrix(self.ring, [[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix(self.ring, [[a - b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        zero = self.ring.zero
        cols = [_nonzero(other.column(j)) for j in range(other.ncols)]
        return Matrix(self.ring, [[_dot(r, c, zero) for c in cols]
                                  for r in self.rows])

    def apply(self, vec):
        nz = _nonzero(vec)
        zero = self.ring.zero
        return [_dot(r, nz, zero) for r in self.rows]

    def kron(self, other):
        """Kronecker product: entry (i p + k, j r + l) is self[i][j] *
        other[k][l], p x r other's shape.  An exact-zero factor gives an
        exact zero without a multiply.  On row-major flattened matrices,
        vec(A X B) = (A kron B^T) vec(X)."""
        z = self.ring.zero
        return Matrix(self.ring, [[z if a.is_exact_zero or b.is_exact_zero else a * b
                                   for a in ra for b in rb]
                                  for ra in self.rows for rb in other.rows])

    def scale(self, s):
        return Matrix(self.ring, [[a * s for a in r] for r in self.rows])

    def map(self, fn):
        return Matrix(self.ring, [[fn(a) for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def same(self, other):
        """Entrywise value equality (certified digits agree)."""
        return all(a.same(b) for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def trace(self):
        acc = self.ring.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return f"[{body}]"


def sylvester_map(a, b):
    """The map X -> X b - a X on row-major flattened matrices, as the
    matrix I kron b^T - a kron I."""
    ring = a.ring
    return (Matrix.identity(ring, a.nrows).kron(b.transpose())
            - a.kron(Matrix.identity(ring, b.nrows)))


class Poly:
    """Dense polynomial over a coefficient ring, low degree first."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_exact_zero:
            coeffs.pop()
        if not coeffs:
            coeffs = [ring.zero]
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @staticmethod
    def constant(ring, c):
        return Poly(ring, [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_exact_zero

    def is_monic(self):
        return self.coeffs[-1] == self.ring.one

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.ring.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.ring, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        z = self.ring.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_exact_zero:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate at the square Matrix x by Horner."""
        acc = Matrix.zero(x.ring, x.nrows, x.ncols)
        ident = Matrix.identity(x.ring, x.nrows)
        for c in reversed(self.coeffs):
            acc = acc * x + ident.scale(c)
        return acc

    def compose(self, other):
        """self(other(T)) for a polynomial argument."""
        acc = Poly.constant(self.ring, self.ring.zero)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.constant(self.ring, c)
        return acc

    def derivative(self):
        ring = self.ring
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            acc = ring.zero
            for _ in range(i):
                acc = acc + c
            out.append(acc)
        return Poly(ring, out or [ring.zero])

    def shift_variable(self, a):
        """self(T + a)."""
        t = Poly(self.ring, [a, self.ring.one])
        return self.compose(t)

    def force_monic(self):
        """Scale to monic; the scaled lead must be one to its precision."""
        lead = self.coeffs[-1]
        li = lead.inv()
        out = [c * li for c in self.coeffs[:-1]]
        scaled_lead = self.coeffs[-1] * li
        if not scaled_lead.same(self.ring.one):
            raise ValueError("leading coefficient did not normalize to one")
        out.append(self.ring.one)
        return Poly(self.ring, out)

    def monic_divmod(self, divisor):
        """Division with remainder by a monic divisor."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        ring = self.ring
        rem = list(self.coeffs)
        d = divisor.degree
        if len(rem) - 1 < d:
            return Poly(ring, [ring.zero]), Poly(ring, rem)
        quot = [ring.zero] * (len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            quot[k - d] = c
            if not c.is_exact_zero:
                for i, dc in enumerate(divisor.coeffs):
                    rem[k - d + i] = rem[k - d + i] - c * dc
        return Poly(ring, quot), Poly(ring, rem[:d] or [ring.zero])

    def __repr__(self):
        terms = [f"({c})*T^{i}" for i, c in enumerate(self.coeffs)]
        return " + ".join(terms)

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


# -- division-free determinant/charpoly ---------------------------------------

def berkowitz_charpoly(mat):
    """Characteristic polynomial det(T*I - M) over any commutative ring.

    Division-free (Berkowitz); valid over split etale algebras where Gaussian
    pivoting is unavailable.
    """
    ring = mat.ring
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("square matrix required")
    one, zero = ring.one, ring.zero
    if n == 0:
        return Poly(ring, [one])
    # vectors of charpoly coefficients, highest degree first
    poly = [one, -mat.rows[0][0]]
    for k in range(2, n + 1):
        a = mat.rows[k - 1][k - 1]
        row = mat.rows[k - 1][: k - 1]
        col = [mat.rows[i][k - 1] for i in range(k - 1)]
        sub = [r[: k - 1] for r in mat.rows[: k - 1]]
        # items[j] = coefficient column: 1, -a, -(R C), -(R A C), -(R A^2 C),...
        items = [one, -a]
        v = col
        for _ in range(k - 1):
            nz = _nonzero(v)
            items.append(-_dot(row, nz, zero))
            v = [_dot(sub_i, nz, zero) for sub_i in sub]
        new = [zero] * (len(poly) + 1)
        for i, p in enumerate(poly):
            if not p.is_exact_zero:
                for j, it in enumerate(items):
                    if i + j < len(new):
                        new[i + j] = new[i + j] + p * it
        poly = new
    return Poly(ring, list(reversed(poly)))


def _nonzero(vec):
    """The (index, entry) pairs of vec's entries that are not exact zeros."""
    return [(k, y) for k, y in enumerate(vec) if not y.is_exact_zero]


def _dot(row, nz, zero):
    """sum(row[k] * y) over nz = _nonzero(vec), in index order.  A term
    with an exact-zero factor is an exact zero, and adding one leaves the
    sum's key unchanged, so skipping them gives the dense sum bit for bit."""
    s = zero
    for k, y in nz:
        x = row[k]
        if not x.is_exact_zero:
            s = s + x * y
    return s


def det_berkowitz(mat):
    cp = berkowitz_charpoly(mat)
    d = cp.coeffs[0]
    return -d if mat.nrows % 2 else d


# -- Gaussian elimination over F (valuation pivoting) --------------------------

def _pivot_scan(rows, r, c):
    """(best, undet) for column c among rows r, r+1, ...: best is the first
    row of least certified valuation (None if there is none) and undet
    whether some entry there is undetermined but not an exact zero."""
    best = None
    undet = False
    for i in range(r, len(rows)):
        x = rows[i][c]
        if x.coeffs:
            if best is None or x.val < rows[best][c].val:
                best = i
        elif not x.is_exact_zero:
            undet = True
    return best, undet


class Echelon:
    """The result of row_echelon: rows are the final echelon rows, the
    augment's columns included, and pivots the (row, col) pairs.
    certified is false when some column had no certified pivot but an
    undetermined entry; such a column is skipped, which only zeroish_ok
    callers accept.
    """

    __slots__ = ("rows", "pivots", "certified")

    def __init__(self, rows, pivots, certified):
        self.rows = rows
        self.pivots = pivots
        self.certified = certified


def row_echelon(mat, zeroish_ok=False, augment=None):
    """Row echelon form of mat over F, as an Echelon.

    Valuation pivoting without column swaps, so pivot columns may be
    scattered.  Every entry that is not an exact zero is swept, an
    undetermined one with an O(pi^k) multiplier, so the precision lost is
    carried along.  A column with no certified pivot but an undetermined
    entry raises PrecisionExhausted; with zeroish_ok it is skipped instead
    and callers must verify the result.  augment, one line per row of mat,
    is swept along as extra columns that never hold a pivot, so the
    returned rows carry mat's row operations applied to it.
    """
    rows = [list(r) for r in mat.rows]
    if augment is not None:
        for row, line in zip(rows, augment):
            row.extend(line)
    nrows = mat.nrows
    pivots = []
    certified = True
    r = 0
    for c in range(mat.ncols):
        best, undet = _pivot_scan(rows, r, c)
        if best is None:
            if undet:
                if not zeroish_ok:
                    raise PrecisionExhausted("pivot valuations cannot be certified")
                certified = False
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv_inv = rows[r][c].inv()
        for i in range(nrows):
            if i != r:
                x = rows[i][c]
                if not x.is_exact_zero:
                    factor = x * piv_inv
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return Echelon(tuple(tuple(row) for row in rows), tuple(pivots), certified)


def mat_det(mat):
    """Determinant over F via elimination with valuation pivoting; every
    entry below a pivot that is not an exact zero is swept."""
    # Its own forward sweep rather than the product of row_echelon's
    # pivots: row_echelon also sweeps the rows above each pivot, which took
    # 1.6x the field multiplies on random 2x2 matrices and 2x on 8x8 (most
    # calls here are 2x2).  The two agree bit for bit wherever both return
    # (3,653 of 6,000 random 2x2-5x5 matrices over q in {2, 3, 9}, with zero
    # and O(pi^k) entries; both raised on 2,342), except that a column of
    # exact zeros ahead of an undetermined one is an exact 0 here, while
    # row_echelon, which skips that column, raises (5 matrices).
    if mat.nrows != mat.ncols:
        raise ValueError("square matrix required")
    ring = mat.ring
    rows = [list(r) for r in mat.rows]
    n = mat.nrows
    det = ring.one
    sign = 1
    for k in range(n):
        best, undet = _pivot_scan(rows, k, k)
        if best is None:
            if undet:
                raise PrecisionExhausted("pivot valuations cannot be certified")
            return ring.zero
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            sign = -sign
        piv = rows[k][k]
        det = det * piv
        piv_inv = piv.inv()
        for i in range(k + 1, n):
            x = rows[i][k]
            if not x.is_exact_zero:
                factor = x * piv_inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det if sign == 1 else -det


def kernel_basis(mat, zeroish_ok=False):
    """Basis of the right kernel of mat over F (list of vectors).

    One vector per free column: a column with no pivot in row_echelon,
    which with zeroish_ok includes a column skipped for lack of a
    certified pivot.  Each vector is an exact one at its own free column
    and an exact zero at every other free column, so the free rows of the
    basis, taken as columns of a matrix, form an identity block and a
    vector of the span has its coordinates there.
    """
    ring = mat.ring
    rec = row_echelon(mat, zeroish_ok)
    pivot_cols = {c: (rec.rows[r], rec.rows[r][c].inv()) for r, c in rec.pivots}
    free_cols = [c for c in range(mat.ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [ring.zero] * mat.ncols
        v[fc] = ring.one
        for c, (row, piv_inv) in pivot_cols.items():
            v[c] = -(row[fc] * piv_inv)
        basis.append(v)
    return basis


def column_space_basis(mat):
    """An F-basis of the column span of mat: its row echelon pivot columns."""
    return [mat.column(c) for _, c in row_echelon(mat, zeroish_ok=True).pivots]


def mat_inverse(mat):
    """Inverse over F (raises SingularBasis when singular)."""
    ring = mat.ring
    n = mat.nrows
    rec = row_echelon(mat, augment=Matrix.identity(ring, n).rows)
    if len(rec.pivots) < n:
        raise SingularBasis("matrix is singular over F")
    out = [None] * n
    for r, c in rec.pivots:
        row = rec.rows[r]
        piv_inv = row[c].inv()
        out[c] = [x * piv_inv for x in row[n:]]
    return Matrix(ring, out)


def mat_rank(mat, zeroish_ok=False):
    return len(row_echelon(mat, zeroish_ok).pivots)
