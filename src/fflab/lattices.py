"""Full-rank O_F-lattices in F^m: canonical forms, the certified elimination
kernels and the lattice invariants.

The canonical representative of a lattice is the column Hermite form of a
generating matrix: upper triangular, pivot (i, i) an exact power pi^(a_i),
entry (i, j) for j > i an exact Laurent polynomial reduced modulo pi^(a_i),
zeros below the diagonal.  Two Lattice values are equal iff they are equal
as O_F-modules.

The field's precision N is a ceiling for the four elimination kernels
canonicalize, smith_exponents, smith_exponents_rectangular and span_index:
they run at a certified working precision below it (entries truncated a
few digits above their least valuation) and escalate on
PrecisionExhausted, so each returns what the untruncated entries give or
raises.  All four certify each pivot against the undetermined entries it
could hide behind.  canonicalize skips the ladder on a basis that is
already triangular with exact pi^a pivots, such as a product of two
canonical bases: the final reduction alone gives its form.  No lattice
kernel runs at full N: stable-family moves take no elimination (see
families.StableFamily), and lattices cut out of a subspace are duals taken
by canonicalize (see reduction.lattice_in_subspace).
"""

from .errors import PrecisionExhausted, SingularBasis
from .linalg import Matrix
from .localfield import INF


class Lattice:
    """Canonical Hermite-form lattice; construct through canonicalize()."""

    __slots__ = ("field", "rank", "basis", "diag", "_key", "_inverse")

    def __init__(self, field, basis, diag, key):
        self.field = field
        self.rank = len(diag)
        self.basis = basis
        self.diag = diag
        self._key = key
        self._inverse = None

    @property
    def det_valuation(self):
        return sum(self.diag)

    def key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Lattice(diag=pi^{list(self.diag)})"

    def scale(self, k):
        """pi^k times the lattice."""
        b = self.basis.map(lambda e: e.shift(k))
        return Lattice(self.field, b, tuple(a + k for a in self.diag),
                       _basis_key(b))

    def solve(self, rhs):
        """The x with basis * x = rhs, by exact back substitution on the
        canonical (upper triangular, monomial pivot) basis."""
        rows, m = self.basis.rows, self.rank
        x = [None] * m
        for i in range(m - 1, -1, -1):
            acc = rhs[i]
            for k in range(i + 1, m):
                acc = acc - rows[i][k] * x[k]
            x[i] = acc.shift(-self.diag[i])
        return x

    def inverse(self):
        """Inverse of the canonical basis, one solve per unit vector.
        Computed once per Lattice object and built in full before it is
        stored."""
        if self._inverse is None:
            field, m = self.field, self.rank
            cols = [self.solve([field.one if i == j else field.zero
                                for i in range(m)]) for j in range(m)]
            self._inverse = Matrix.from_columns(field, cols)
        return self._inverse

    def dual(self):
        """Dual lattice (inverse-transpose basis); exact for canonical bases."""
        return canonicalize(self.field, self.inverse().transpose())


def _basis_key(basis):
    return tuple(tuple(e.key() for e in row) for row in basis.rows)


# -- certified elimination on a working-precision ladder -----------------------

# digits above the least valuation kept by the first rung of the ladder
_FIRST_RUNG = 8


def _on_ladder(kernel, field, lines):
    """kernel(lines) at the least working precision that certifies it.

    A rung of w digits truncates every entry at pi^(lo+w), lo the least
    certified valuation among the entries; exact zeros stay exact.  w starts
    at _FIRST_RUNG and doubles on PrecisionExhausted while it is below the
    field's precision N; the top rung passes the entries untouched.  The
    kernel certifies each pivot from the digits it is given, so a truncated
    rung returns the untruncated answer or raises.
    """
    vals = [x.val for line in lines for x in line if x.coeffs]
    w = _FIRST_RUNG
    while vals and w < field.precision:
        cut = min(vals) + w
        try:
            return kernel([[x if x.is_exact_zero else x.truncate(cut)
                            for x in line] for line in lines])
        except PrecisionExhausted:
            w *= 2
    return kernel([list(line) for line in lines])


def _pivot(lines, start, floor=None):
    """Certified least-valuation entry of the block line[start:], line in lines.

    Returns ((line, pos), hidden): the first entry of least valuation, or
    None when no entry has a certified digit, and the least k of an
    undetermined O(pi^k) in the block (inf if there is none).  Raises
    PrecisionExhausted when such an O(pi^k) with k <= the pivot's valuation
    could hide a smaller pivot.  Given a floor, returns (None, inf), as for
    an empty block, once every entry is certified to have valuation at
    least floor.
    """
    best = None
    bval = hidden = INF
    for li, line in enumerate(lines):
        for pos in range(start, len(line)):
            x = line[pos]
            if x.coeffs:
                if x.val < bval:
                    best, bval = (li, pos), x.val
            elif x.known_to < hidden:
                hidden = x.known_to
    if floor is not None and bval >= floor and hidden >= floor:
        return None, INF
    if best is not None and hidden <= bval:
        raise PrecisionExhausted("pivot hidden behind an undetermined entry")
    return best, hidden


def canonicalize(field, basis):
    """Unique Hermite representative of the lattice spanned by the columns.

    Accepts an m x s generating matrix with s >= m; raises SingularBasis
    when the columns do not span a full-rank lattice.  A square basis with
    exact zeros below the diagonal and an exact pi^a (digit 1) at each
    diagonal entry is already in echelon form with normalized pivots, so
    it takes only the final reduction (_triangular_hermite), which is what
    the ladder's top rung would give; any other basis runs _hermite on the
    working-precision ladder.  Raises PrecisionExhausted when even the
    untruncated entries do not certify the form.
    """
    m, rows = basis.nrows, basis.rows
    if basis.ncols == m and all(
            rows[i][i].coeffs == (1,) and rows[i][i].known_to == INF
            and all(x.is_exact_zero for x in rows[i][:i]) for i in range(m)):
        return _triangular_hermite(field, basis.columns())
    cols = [basis.column(j) for j in range(basis.ncols)]
    return _on_ladder(lambda c: _hermite(field, m, c), field, cols)


def _hermite(field, m, cols):
    """The Lattice of the columns cols of an m-row basis: valuation-pivoted
    column elimination to triangular form with exact pi^a pivots, then
    _triangular_hermite's reduction."""
    # Its own loop rather than row_echelon or _smith: row_echelon's
    # row operations over F and _smith's row-and-column operations keep the
    # rank and the elementary divisors but not the lattice, which only
    # column operations with O_F multipliers preserve.  Taking the pivot of
    # least valuation in each row makes every multiplier integral.
    placed = [None] * m
    inverses = [None] * m
    live = list(range(len(cols)))
    # Triangularize from the bottom row up.  Every live column whose entry
    # is not an exact zero is swept, an undetermined one with an O(pi^k)
    # multiplier; rows at and below the pivot are never read again.
    for i in range(m - 1, -1, -1):
        best, hidden = _pivot([[cols[k][i] for k in live]], 0)
        if best is None:
            if hidden < INF:
                raise PrecisionExhausted("lattice pivot not certified")
            raise SingularBasis("generators do not span a full-rank lattice")
        pcol = cols[live.pop(best[1])]
        piv_inv = pcol[i].inv()
        for k in live:
            c = cols[k]
            if not c[i].is_exact_zero:
                f = c[i] * piv_inv
                for r in range(i):
                    c[r] = c[r] - f * pcol[r]
        placed[i] = pcol
        inverses[i] = piv_inv
    # normalize pivots to exact powers of pi and clear sub-pivot noise
    zero = field.zero
    for i in range(m):
        col = placed[i]
        a = col[i].valuation()
        # the inverse of the unit part, the pivot's inverse shifted back
        unit_inv = inverses[i].shift(a)
        newcol = [x * unit_inv for x in col[:i]]
        newcol.append(field.pi(a) if a else field.one)
        newcol.extend([zero] * (m - i - 1))
        placed[i] = newcol
    return _triangular_hermite(field, placed)


def _triangular_hermite(field, cols):
    """The Lattice of an upper triangular basis, given as columns, whose
    pivot (i, i) is an exact pi^(a_i): each entry above a pivot reduced
    modulo its row's pivot; high_part and reduce_mod raise unless the
    entry is certified modulo pi^(a_i)."""
    m = len(cols)
    diag = tuple(cols[i][i].val for i in range(m))
    for j in range(m):
        col = cols[j]
        for i in range(j - 1, -1, -1):
            ai = diag[i]
            high = col[i].high_part(ai)
            if not high.is_exact_zero:
                f = high.shift(-ai)
                col = [x - f * y for x, y in zip(col, cols[i])]
            col[i] = col[i].reduce_mod(ai)
        cols[j] = col
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    b = Matrix(field, rows)
    return Lattice(field, b, diag, _basis_key(b))


def standard_lattice(field, m):
    return canonicalize(field, Matrix.identity(field, m))


def from_generators(field, columns):
    """Lattice spanned by an arbitrary list of vectors (must be full rank)."""
    return canonicalize(field, Matrix.from_columns(field, columns))


def order_span(mat, lat):
    """lat + mat*lat: the smallest lattice over O_F[mat] containing lat."""
    return canonicalize(lat.field, lat.basis.hstack(mat * lat.basis))


def in_lattice(lat, vector):
    """Membership test: the coordinates of vector in lat's basis, read
    from the last one up, are integral."""
    for c in reversed(lat.solve(vector)):
        if c.coeffs and c.val < 0:
            return False
        if not c.coeffs and not c.is_exact_zero and c.known_to <= 0:
            raise PrecisionExhausted("membership not certified")
    return True


def lattice_leq(l1, l2):
    """Whether l1 is contained in l2."""
    return all(in_lattice(l2, l1.basis.column(j)) for j in range(l1.rank))


def _is_stable(J, lat):
    """Whether J maps lat into itself."""
    return all(in_lattice(lat, J.apply(lat.basis.column(j)))
               for j in range(lat.rank))


def index(l1, l2):
    """[l1 : l2] = log_q |l1 / l2|, extended to non-nested pairs by the
    determinant-valuation rule; equals sum(diag_2) - sum(diag_1)."""
    if l1.rank != l2.rank:
        raise ValueError("ambient ranks differ")
    return l2.det_valuation - l1.det_valuation


def relative_position(l1, l2):
    """Decreasing elementary-divisor exponents of l2 relative to l1: those
    of l1^-1 l2, the coordinates of l2's basis in l1's (exact)."""
    return smith_exponents(l1.inverse() * l2.basis)


def smith_exponents(mat):
    """Valuations of the elementary divisors over O_F, decreasing.

    Raises SingularBasis when fewer than min(n, m) are finite.  Runs on the
    working-precision ladder.
    """
    out = _on_ladder(lambda rows: _smith(rows, None), mat.ring, mat.rows)
    if len(out) < min(mat.nrows, mat.ncols):
        raise SingularBasis("matrix not invertible over F")
    return tuple(sorted(out, reverse=True))


def smith_exponents_rectangular(mat, rank=None):
    """Elementary divisor exponents of a (possibly non-square, non-full-rank)
    integral matrix over O_F; returns the finite exponents only.

    An undetermined remainder O(pi^k) counts as zero only once `rank`
    pivots are placed; without a rank it raises PrecisionExhausted unless
    the matrix has full rank.  Runs on the working-precision ladder.
    """
    return _on_ladder(lambda rows: _smith(rows, rank), mat.ring, mat.rows)


def _smith(rows, rank, floor=None):
    # Row sweeps alone give the exponents: once every entry below the pivot
    # that is not an exact zero is cleared (undetermined ones with an
    # O(pi^k) multiplier), the pivot's row is cleared by column operations
    # that change no other row, so the rest is the lower right block.  The
    # pivots come in nondecreasing valuation, so with a floor the sweep
    # stops before the first exponent >= floor and returns only those
    # below it.
    n, m = len(rows), len(rows[0])
    out = []
    for top in range(min(n, m)):
        best, hidden = _pivot(rows[top:], top, floor)
        if best is None:
            if hidden == INF or (rank is not None and top >= rank):
                break
            raise PrecisionExhausted("elementary divisor not certified")
        bi, bj = best[0] + top, best[1]
        rows[top], rows[bi] = rows[bi], rows[top]
        for r in rows:
            r[top], r[bj] = r[bj], r[top]
        prow = rows[top]
        piv = prow[top]
        out.append(piv.val)
        piv_inv = piv.inv()
        for i in range(top + 1, n):
            r = rows[i]
            x = r[top]
            if not x.is_exact_zero:
                f = x * piv_inv
                for j in range(top + 1, m):
                    r[j] = r[j] - f * prow[j]
    return out


def span_index(mat):
    """[O^m + mat O^m : O^m] for a square matrix over F, singular or not:
    minus the sum of its negative elementary divisor exponents.

    The Smith sweep stops once every entry left is certified integral, so
    no rank is needed; an undetermined entry that could still be
    non-integral raises PrecisionExhausted.  Runs on the working-precision
    ladder.
    """
    return -sum(_on_ladder(lambda rows: _smith(rows, None, floor=0),
                           mat.ring, mat.rows))
