"""Generic dense matrices and polynomials over the workbench's coefficient rings.

A "ring" here is any object whose elements support +, -, * and that exposes
``zero``/``one`` attributes (LocalField, QuadraticEtale).  Division-free
algorithms (Berkowitz) are used wherever the ring may fail to be a field;
Gaussian elimination with valuation pivoting is used over F itself, where
pivots can be certified.
"""

from .errors import NoSolution, PrecisionExhausted, SingularBasis


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

    def submatrix(self, rows, cols):
        return Matrix(self.ring, [[self.rows[i][j] for j in cols] for i in rows])

    def transpose(self):
        return Matrix(self.ring, [[self.rows[i][j] for i in range(self.nrows)]
                                  for j in range(self.ncols)])

    def hstack(self, other):
        return Matrix(self.ring, [list(a) + list(b) for a, b in zip(self.rows, other.rows)])

    def vstack(self, other):
        return Matrix(self.ring, list(self.rows) + list(other.rows))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return Matrix(self.ring, [[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix(self.ring, [[a - b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            bt = other.transpose().rows
            out = []
            for r in self.rows:
                row = []
                for c in bt:
                    acc = self.ring.zero
                    for a, b in zip(r, c):
                        acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(self.ring, out)
        return Matrix(self.ring, [[a * other for a in r] for r in self.rows])

    def apply(self, vec):
        out = []
        for r in self.rows:
            acc = self.ring.zero
            for a, b in zip(r, vec):
                acc = acc + a * b
            out.append(acc)
        return out

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

    def is_zero(self):
        return all(a.is_exact_zero for r in self.rows for a in r)

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

    @staticmethod
    def variable(ring):
        return Poly(ring, [ring.zero, ring.one])

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
        if isinstance(other, Poly):
            z = self.ring.zero
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a.is_exact_zero:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] = out[i + j] + a * b
            return Poly(self.ring, out)
        return Poly(self.ring, [c * other for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner; x may be a ring element or a Matrix."""
        if isinstance(x, Matrix):
            acc = Matrix.zero(x.ring, x.nrows, x.ncols)
            ident = Matrix.identity(x.ring, x.nrows)
            for c in reversed(self.coeffs):
                acc = acc * x + ident.scale(c)
            return acc
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        """self(other(T)) for a polynomial argument."""
        acc = Poly.constant(self.ring, self.ring.zero)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.constant(self.ring, c)
        return acc

    def map_coeffs(self, fn, ring=None):
        return Poly(ring or self.ring, [fn(c) for c in self.coeffs])

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

    def reverse_variable(self):
        """self(-T)."""
        out = []
        for i, c in enumerate(self.coeffs):
            out.append(-c if i % 2 else c)
        return Poly(self.ring, out)

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
            s = zero
            for x, y in zip(row, v):
                s = s + x * y
            items.append(-s)
            v = [_dot(sub_i, v, zero) for sub_i in sub]
        new = [zero] * (len(poly) + 1)
        for i, p in enumerate(poly):
            if not _is_zeroish(p):
                for j, it in enumerate(items):
                    if i + j < len(new):
                        new[i + j] = new[i + j] + p * it
        poly = new
    return Poly(ring, list(reversed(poly)))


def _dot(row, vec, zero):
    s = zero
    for x, y in zip(row, vec):
        s = s + x * y
    return s


def _is_zeroish(x):
    return getattr(x, "is_exact_zero", False)


def det_berkowitz(mat):
    cp = berkowitz_charpoly(mat)
    d = cp.coeffs[0]
    return -d if mat.nrows % 2 else d


# -- Gaussian elimination over F (valuation pivoting) --------------------------

def row_echelon(mat, augment=None, zeroish_ok=False):
    """Row echelon form over F with full pivoting bookkeeping.

    Returns (rows, aug_rows, pivots) where pivots is a list of (row, col).
    Column swaps are not performed; pivot columns may be scattered.  With
    zeroish_ok, entries that are zero to their certified precision are
    treated as zero instead of raising; callers must verify the result.
    """
    rows = [list(r) for r in mat.rows]
    aug = [list(r) for r in augment.rows] if augment is not None else None
    nrows, ncols = mat.nrows, mat.ncols
    pivots = []
    r = 0
    used_cols = []
    for c in range(ncols):
        # find pivot in column c among rows >= r with certified valuation
        best = None
        undet = False
        for i in range(r, nrows):
            x = rows[i][c]
            if x.coeffs:
                if best is None or x.val < rows[best][c].val:
                    best = i
            elif not x.is_exact_zero:
                undet = True
        if best is None:
            if undet and not zeroish_ok:
                raise PrecisionExhausted("pivot valuations cannot be certified")
            continue
        rows[r], rows[best] = rows[best], rows[r]
        if aug is not None:
            aug[r], aug[best] = aug[best], aug[r]
        piv = rows[r][c]
        piv_inv = piv.inv()
        for i in range(nrows):
            if i != r:
                x = rows[i][c]
                if x.coeffs:
                    factor = x * piv_inv
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                    if aug is not None:
                        aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        used_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, aug, pivots


def mat_det(mat):
    """Determinant over F via elimination with valuation pivoting."""
    if mat.nrows != mat.ncols:
        raise ValueError("square matrix required")
    ring = mat.ring
    rows = [list(r) for r in mat.rows]
    n = mat.nrows
    det = ring.one
    sign = 1
    for k in range(n):
        best = None
        undet = False
        for i in range(k, n):
            x = rows[i][k]
            if x.coeffs:
                if best is None or x.val < rows[best][k].val:
                    best = i
            elif not x.is_exact_zero:
                undet = True
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
            if x.coeffs:
                factor = x * piv_inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det if sign == 1 else -det


def det_valuation(mat):
    """Valuation of det over F; SingularBasis when det is exactly zero."""
    d = mat_det(mat)
    if d.is_exact_zero:
        raise SingularBasis("matrix is singular over F")
    return d.valuation()


def linear_solve(mat, rhs, zeroish_ok=False):
    """One solution of mat * x = rhs over F, or NoSolution.

    rhs is a vector; returns a vector.
    """
    ring = mat.ring
    aug = Matrix(ring, [[x] for x in rhs])
    rows, augr, pivots = row_echelon(mat, aug, zeroish_ok=zeroish_ok)
    n = mat.ncols
    x = [ring.zero] * n
    pivot_rows = {r for r, _ in pivots}
    for i in range(mat.nrows):
        if i not in pivot_rows:
            if augr[i][0].coeffs:
                raise NoSolution("inconsistent linear system")
            if not augr[i][0].is_exact_zero and not zeroish_ok:
                raise PrecisionExhausted("consistency of linear system not certified")
    for r, c in pivots:
        x[c] = augr[r][0] * rows[r][c].inv()
    return x


def kernel_basis(mat, zeroish_ok=False):
    """Basis of the right kernel of mat over F (list of vectors)."""
    ring = mat.ring
    rows, _, pivots = row_echelon(mat, zeroish_ok=zeroish_ok)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(mat.ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [ring.zero] * mat.ncols
        v[fc] = ring.one
        for c, r in pivot_cols.items():
            v[c] = -(rows[r][fc] * rows[r][c].inv())
        basis.append(v)
    return basis


def mat_inverse(mat):
    """Inverse over F (raises SingularBasis when singular)."""
    ring = mat.ring
    n = mat.nrows
    rows, aug, pivots = row_echelon(mat, Matrix.identity(ring, n))
    if len(pivots) < n:
        raise SingularBasis("matrix is singular over F")
    out = [[ring.zero] * n for _ in range(n)]
    for r, c in pivots:
        piv_inv = rows[r][c].inv()
        for j in range(n):
            out[c][j] = aug[r][j] * piv_inv
    return Matrix(ring, out)


def mat_charpoly(mat):
    """Characteristic polynomial det(T*I - M); division-free."""
    return berkowitz_charpoly(mat)


def mat_rank(mat, zeroish_ok=False):
    _, _, pivots = row_echelon(mat, zeroish_ok=zeroish_ok)
    return len(pivots)
