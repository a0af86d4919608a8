"""Full-rank O_F-lattices in F^m and their enumeration.

The canonical representative of a lattice is the column Hermite form of a
generating matrix: upper triangular, pivot (i, i) an exact power pi^(a_i),
entry (i, j) for j > i an exact Laurent polynomial reduced modulo pi^(a_i),
zeros below the diagonal.  Two Lattice values are equal iff they are equal
as O_F-modules.  Enumeration covers sublattices and superlattices of given
index, chains with prescribed step indices, and module-stable lattices for
a matrix satisfying an integral quadratic minimal polynomial.

The field's precision N is a ceiling for the four elimination kernels
canonicalize, smith_exponents, smith_exponents_rectangular and span_index:
they run at a certified working precision below it (entries truncated a
few digits above their least valuation) and escalate on
PrecisionExhausted, so each returns what the untruncated entries give or
raises.  All four certify each pivot against the undetermined entries it
could hide behind.  canonicalize skips the ladder on a basis that is
already triangular with exact pi^a pivots, such as a product of two
canonical bases: the final reduction alone gives its form.  No lattice
kernel runs at full N: a stable family reads its residue spans over F_q off
the residue matrix of lat^-1 J lat and builds each move from its residue
span with no elimination, and lattices cut out of a subspace are duals
taken by canonicalize (see reduction.lattice_in_subspace).
"""

import itertools

from .errors import NonFreeAction, PrecisionExhausted, SingularBasis, UnstableBase
from .linalg import Matrix, mat_det, mat_inverse, row_echelon
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


# -- enumeration ---------------------------------------------------------------


def _compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def residues(field, val, width):
    """The q^width exact sums of d_i pi^(val+i), 0 <= i < width, d_i in
    F_q: representatives of pi^val O / pi^(val+width) O, the zero first
    and the lowest digit varying fastest."""
    return [field.element(val, digits[::-1]) if any(digits) else field.zero
            for digits in itertools.product(range(field.q), repeat=width)]


def hermite_forms_of_index(field, rank, k):
    """All canonical Hermite matrices of index k over the standard lattice."""
    for diag in _compositions(k, rank):
        # entry (i, j), i < j, runs over residues mod pi^diag[i]
        free = [(i, j) for j in range(rank) for i in range(j)]
        ranges = [residues(field, 0, diag[i]) for i, _ in free]
        for combo in itertools.product(*ranges):
            rows = [[field.zero] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = field.pi(diag[i]) if diag[i] else field.one
            for (i, j), x in zip(free, combo):
                rows[i][j] = x
            yield Matrix(field, rows)


def sublattices_of_index(lat, k):
    """Each sublattice of index k exactly once."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k == 0:
        yield lat
        return
    for h in hermite_forms_of_index(lat.field, lat.rank, k):
        yield canonicalize(lat.field, lat.basis * h)


def superlattices_of_index(lat, k):
    """Each superlattice of index k exactly once (through the dual)."""
    if k == 0:
        yield lat
        return
    d = lat.dual()
    for sub in sublattices_of_index(d, k):
        yield sub.dual()


def lattices_at_position(base, mu):
    """All lattices whose relative position with respect to base is mu."""
    mu = tuple(mu)
    shift = min(mu)
    nu = tuple(a - shift for a in mu)
    total = sum(nu)
    top = base.scale(shift)
    for sub in sublattices_of_index(top, total):
        if relative_position(top, sub) == nu:
            yield sub


def chains(l0, lr, m):
    """Every chain l0 = X_0 <= X_1 <= ... <= X_r = lr with
    [X_i : X_{i-1}] = m_i, as lists of lattices."""
    m = tuple(m)
    if index(lr, l0) != sum(m) or not lattice_leq(l0, lr):
        return []

    def up(x, steps):
        # x has index sum(steps) in lr, so the last step is x <= lr itself
        if len(steps) <= 1:
            return [[x, lr]] if steps else [[x]]
        return [[x] + rest
                for nxt in superlattices_of_index(x, steps[0])
                if lattice_leq(nxt, lr)
                for rest in up(nxt, steps[1:])]
    return up(l0, m)


def count_chains(l0, lr, m):
    """Number of chains l0 = X_0 <= ... <= X_r = lr with [X_i : X_{i-1}] = m_i."""
    return len(chains(l0, lr, m))


# -- module-stable lattices -------------------------------------------------------


def column_space_basis(mat):
    """An F-basis of the column span of a (possibly singular) matrix: the
    columns of its row echelon form's pivots."""
    return [mat.column(c) for _, c in row_echelon(mat, zeroish_ok=True).pivots]


def _is_stable(J, lat):
    """Whether J maps lat into itself."""
    return all(in_lattice(lat, J.apply(lat.basis.column(j)))
               for j in range(lat.rank))


class StableFamily:
    """O_E-stable lattices for a field E = F[J], J of integral quadratic
    minimal polynomial (a split E has SplitStableFamily).

    The family provides stability tests, neighbor moves in the module
    "building" (index-one O_E-sub- and superlattices), and radius-limited
    enumeration around a stable base lattice.  neighbor_stacks is the one
    move generator: ball and stable_superlattices canonicalize its
    matrices, and the orbital traversal Gamma-reduces them (StackQuotient).
    A move needs only jbar, the residue matrix of lat^-1 J lat over F_q,
    and is built with no elimination: each lattice M between pi lat and
    lat is lat Y, Y the Hermite basis read off M's residue span in
    lat / pi lat (_residue_basis), so every move matrix is upper
    triangular with a monomial diagonal and canonicalize only reduces it.
    residue_f is E's residue degree: 2 unramified, 1 ramified.
    """

    def __init__(self, field, J, algebra, base):
        self.field = field
        self.J = J
        self.base = base
        self.rank = J.nrows
        if not self.is_stable(base):
            raise UnstableBase("base lattice is not stable under the action")
        if algebra.kind == "unramified":
            self.pi_e_mat = Matrix.identity(field, self.rank).scale(field.pi())
            self.residue_f = 2
        else:
            self.pi_e_mat = J  # the generator is a uniformizer
            self.residue_f = 1
        # F_q-dimension of lat / pi_E lat (independent of the lattice)
        self.pi_e_index = mat_det(self.pi_e_mat).valuation()

    def is_stable(self, lat):
        return _is_stable(self.J, lat)

    def _residue_spans(self, lat, dims):
        """(spans, jbar): per F_q-dimension d in dims, one list of F_q
        vectors per stable M with pi_E lat <= M <= lat and
        dim M / pi_E lat = d, spanning M / pi lat in lat's coordinates;
        and jbar, the residue matrix of lat^-1 J lat.

        Unramified, pi_E = pi and the spans are the jbar-stable subspaces
        of F_q^m.  Ramified, pi_E = J with J^2 = pi u, u a unit of O_E, so
        every M between J lat and lat is J-stable: J M <= J lat <= M.  Its
        span is W's bottom-up echelon basis, W = jbar F_q^m the residues
        of J lat, plus the unit-vector lift of a subspace of the
        coordinates that are not W's pivots.  lat / J lat, of length
        pi_e_index, is elementary exactly when dim W = m - pi_e_index;
        UnstableBase otherwise."""
        g, m = self.field.gf, lat.rank
        j_in_lat = lat.inverse() * (self.J * lat.basis)
        jbar = [[x.coeff(0) for x in row] for row in j_in_lat.rows]
        if self.residue_f == 2:
            return [[W for W in _subspaces_of_dim(g, m, d)
                     if _fq_subspace_stable(g, jbar, W)] for d in dims], jbar
        image = _fq_echelon(g, zip(*jbar))
        if len(image) != m - self.pi_e_index:
            raise UnstableBase("quotient by pi_E is not elementary")
        # the coordinates that are not W's pivots, each with its place in w
        free = {i: k for k, i in enumerate(i for i in range(m) if i not in image)}

        def lift(w):
            return [w[free[i]] if i in free else 0 for i in range(m)]
        return [[list(image.values()) + [lift(w) for w in W]
                 for W in _subspaces_of_dim(g, len(free), d)] for d in dims], jbar

    def _up_stacks(self, lat, lines, jbar):
        """Generator matrices of the up-moves pi_E^-1 M, M = lat Y over the
        residue spans lines.  pi_E^-1 M is pi^-1 lat Y when pi_E = pi.  A
        ramified J has J^2 = pi u, u a unit of O_E, and M is O_E-stable, so
        J^-1 M = pi^-1 J M; and pi lat <= J M <= lat, so J M = lat Z, where
        Z's residue span is the image of M's under jbar."""
        if self.residue_f == 1:
            lines = [[_fq_apply(self.field.gf, jbar, v) for v in span]
                     for span in lines]
        return [(lat.basis * _residue_basis(self.field, lat.rank, span)).map(
                    lambda e: e.shift(-1)) for span in lines]

    def neighbor_stacks(self, lat):
        """Generator matrices of all index-one moves, each square and upper
        triangular with a monomial diagonal: the stable sublattices lat Y
        (residue hyperplane preimages), then the stable superlattices
        pi_E^-1 times the residue line preimages (_up_stacks)."""
        (down, lines), jbar = self._residue_spans(
            lat, (self.pi_e_index - self.residue_f, self.residue_f))
        return ([lat.basis * _residue_basis(self.field, lat.rank, span)
                 for span in down]
                + self._up_stacks(lat, lines, jbar))

    def ball(self, radius):
        """All stable lattices within `radius` neighbor moves of the base,
        in breadth-first order."""
        def moves(lat):
            return (canonicalize(self.field, s) for s in self.neighbor_stacks(lat))
        return [lat for layer in _layers(self.base, moves, radius) for lat in layer]

    def quotient(self, gamma, A):
        return StackQuotient(self, gamma, A)

    def superlattice_positions(self, lat, lb, extra_index):
        """(relative_position(la, lb), la) per stable superlattice la of
        lat with the given additional index, in stable_superlattices
        order."""
        return [(relative_position(la, lb), la)
                for la in self.stable_superlattices(lat, extra_index)]

    def stable_superlattices(self, lat, extra_index):
        """Stable superlattices with the given additional index over lat.
        Every up-move pi_E^-1 M adds index [pi_E^-1 M : L] = [M : pi_E L]
        = residue_f, so they lie extra_index / residue_f moves up."""
        moves, rest = divmod(extra_index, self.residue_f)
        if rest:
            return []

        def up(l):
            # the superlattice half of neighbor_stacks
            (lines,), jbar = self._residue_spans(l, (self.residue_f,))
            return (canonicalize(self.field, s)
                    for s in self._up_stacks(l, lines, jbar))
        return _layers(lat, up, moves)[moves]


def _residue_basis(field, m, span):
    """Hermite basis Y of {x in O^m : x mod pi in the span of the F_q
    vectors span}.

    Column p of Y is the bottom-up echelon vector of pivot p (_fq_echelon)
    and every other column j is pi e_j, so Y is upper triangular with
    diagonal entries 1 and pi, and each entry above a pivot is already
    reduced modulo it.
    """
    echelon = _fq_echelon(field.gf, span)
    pi, zero = field.pi(), field.zero
    cols = [[field.from_fq(x) for x in echelon[j]] if j in echelon
            else [pi if i == j else zero for i in range(m)] for j in range(m)]
    return Matrix.from_columns(field, cols)


def _fq_echelon(g, vectors):
    """The span of the F_q vectors, echelonized from the bottom, as
    {pivot: vector}: each vector's last nonzero entry, its pivot p, is 1
    and every vector is zero at the other pivots."""
    echelon = {}
    for v in vectors:
        for p, b in echelon.items():
            if v[p]:
                c = v[p]
                v = [g.sub(x, g.mul(c, y)) for x, y in zip(v, b)]
        p = max((i for i, x in enumerate(v) if x), default=None)
        if p is None:
            continue
        s = g.inv(v[p])
        v = [g.mul(s, x) for x in v]
        for k, b in echelon.items():
            if b[p]:
                c = b[p]
                echelon[k] = [g.sub(x, g.mul(c, y)) for x, y in zip(b, v)]
        echelon[p] = v
    return echelon


def _fq_apply(g, A, v):
    """A v over F_q, A a list of rows."""
    out = [0] * len(A)
    for j, vj in enumerate(v):
        if vj:
            for i, row in enumerate(A):
                out[i] = g.add(out[i], g.mul(row[j], vj))
    return out


def _layers(center, moves, radius):
    """Breadth-first layers around center: layer r lists the lattices first
    reached after r applications of moves (a lattice -> its neighbours), in
    order of discovery."""
    seen = {center.key()}
    layers = [[center]]
    for _ in range(radius):
        new = []
        for lat in layers[-1]:
            for nb in moves(lat):
                if nb.key() not in seen:
                    seen.add(nb.key())
                    new.append(nb)
        layers.append(new)
    return layers


def _subspaces_of_dim(g, t, dim):
    """All F_q-subspaces of F_q^t of the given dimension, as reduced row bases."""
    if dim < 0 or dim > t:
        return
    if dim == 0:
        yield []
        return
    q = g.q
    # enumerate reduced row echelon bases by pivot columns
    for pivots in itertools.combinations(range(t), dim):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, t):
                if c not in pivots:
                    free_positions.append((r, c))
        for combo in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * t for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), val in zip(free_positions, combo):
                rows[r][c] = val
            yield [tuple(r) for r in rows]


def _fq_subspace_stable(g, A, W):
    """Whether the row space of W is stable under the residue matrix A.

    W is a reduced row-echelon basis, as _subspaces_of_dim yields: each
    row's first nonzero entry, its pivot, is 1 and every other row is zero
    in the pivot's column.  So an image lies in the row space exactly when
    subtracting its entry at each pivot times that pivot's row leaves zero.
    """
    pivots = [next(i for i, x in enumerate(w) if x) for w in W]
    for w in W:
        img = _fq_apply(g, A, w)
        for p, r in zip(pivots, W):
            c = img[p]
            if c:
                img = [g.sub(a, g.mul(c, b)) for a, b in zip(img, r)]
        if any(img):
            return False
    return True


# -- split-family stable lattices ---------------------------------------------------


class ComponentPair(tuple):
    """A split-family lattice as its canonical components (L+, L-), keyed
    by the pair of their keys."""

    __slots__ = ()

    def key(self):
        return (self[0].key(), self[1].key())


class SplitStableFamily:
    """Stable lattices for a split quadratic action.

    J acts by r1 on the plus eigenspace and by r2 on the minus one, so a
    lattice is J-stable exactly when it is the direct sum of its two
    projections; the family identifies it with the ComponentPair (L+, L-)
    of its components in the eigenspace coordinates W_plus, W_minus.  A
    vector v is proj+ v + proj- v with proj+- v in the span of W+-, so its
    coordinates (x+, x-), W+- x+- = proj+- v, are W^-1 v for
    W = W_plus | W_minus; W_inv is taken once.  A neighbor move changes one
    component by an arbitrary index-one sub- or superlattice (_moves, the
    one component-move generator, which the orbital traversal walks on
    component pairs), so ball is the product of the two component balls;
    _stack builds the generator matrix W_plus L+ | W_minus L- that ball
    canonicalizes.  A stable superlattice is likewise a pair of component
    superlattices, so stable_superlattices gives ComponentPairs and never
    builds a lattice of the full rank; each component's superlattices of
    each index are kept on the family (_supers), as its splits are.
    """

    def __init__(self, field, J, algebra, base):
        self.field = field
        self.J = J
        self.W_plus, self.W_minus = (
            Matrix.from_columns(field, column_space_basis(proj))
            for proj in algebra.eigen_projectors(J))
        self.W_inv = mat_inverse(self.W_plus.hstack(self.W_minus))
        self.base = base
        if not self.is_stable(base):
            raise UnstableBase("base lattice is not stable under the action")
        self._splits, self._supers = {}, {}

    def is_stable(self, lat):
        return _is_stable(self.J, lat)

    def quotient(self, gamma, A):
        return PairQuotient(self, gamma, A)

    def split(self, lat):
        """The ComponentPair of a stable lattice, computed once per
        lattice key and kept on the family."""
        pair = self._splits.get(lat.key())
        if pair is None:
            pair = self._splits[lat.key()] = ComponentPair(
                canonicalize(self.field, half)
                for half in self.coordinates(lat.basis))
        return pair

    def coordinates(self, mat):
        """The row blocks (plus, minus) of W^-1 mat: the eigenspace
        coordinates of mat's columns."""
        rows = (self.W_inv * mat).rows
        cut = self.W_plus.ncols
        return Matrix(self.field, rows[:cut]), Matrix(self.field, rows[cut:])

    def _stack(self, lp, lm):
        """Generator matrix of the stable lattice with components lp, lm."""
        return (self.W_plus * lp.basis).hstack(self.W_minus * lm.basis)

    @staticmethod
    def _moves(comp):
        """The index-one sublattices, then superlattices, of a component."""
        yield from sublattices_of_index(comp, 1)
        yield from superlattices_of_index(comp, 1)

    def ball(self, radius):
        """The stable lattices whose two components each lie within
        `radius` moves of the base's, ordered by the larger of the two move
        counts; at count r, (new plus, older minus) pairs come first, then
        (older plus, new minus), then (new plus, new minus)."""
        cp, cm = self.split(self.base)
        plus = _layers(cp, self._moves, radius)
        minus = _layers(cm, self._moves, radius)
        pairs = [(cp, cm)]
        for r in range(1, radius + 1):
            old_p = [lp for layer in plus[:r] for lp in layer]
            old_m = [lm for layer in minus[:r] for lm in layer]
            pairs += itertools.product(plus[r], old_m)
            pairs += itertools.product(old_p, minus[r])
            pairs += itertools.product(plus[r], minus[r])
        return [canonicalize(self.field, self._stack(lp, lm)) for lp, lm in pairs]

    def stable_superlattices(self, lat, extra_index):
        """Stable superlattices with the given additional index over lat, as
        ComponentPairs: plus index 0, 1, ..., extra_index, and within one
        split the plus superlattice varying slowest."""
        lp, lm = self.split(lat)
        return [ComponentPair((sp, sm))
                for kp in range(extra_index + 1)
                for sp in self._superlattices(lp, kp)
                for sm in self._superlattices(lm, extra_index - kp)]

    def _superlattices(self, comp, k):
        """superlattices_of_index(comp, k) as a list, kept per (component
        key, k)."""
        at = (comp.key(), k)
        sups = self._supers.get(at)
        if sups is None:
            sups = self._supers[at] = list(superlattices_of_index(comp, k))
        return sups

    def superlattice_positions(self, lat, lb, extra_index):
        """(relative_position(la, lb), la) per stable superlattice la of
        lat with the given additional index, in stable_superlattices order,
        la as a ComponentPair (sp, sm).

        la = W D O^m for W = [W+ | W-] and D = diag(sp, sm), so
        (W D)^-1 lb = D^-1 W^-1 lb, whose row blocks are sp^-1 X+ and
        sm^-1 X- for (X+, X-) = coordinates(lb.basis), taken once here; its
        elementary divisors are those of la^-1 lb, since two bases of la
        differ by a unimodular matrix.
        """
        xp, xm = self.coordinates(lb.basis)
        out = []
        for pair in self.stable_superlattices(lat, extra_index):
            sp, sm = pair
            rows = (sp.inverse() * xp).rows + (sm.inverse() * xm).rows
            out.append((smith_exponents(Matrix(self.field, rows)), pair))
        return out


def stable_lattices(field, J, algebra, window, base):
    """All lattices stable under J within `window` module moves of base.

    Every output satisfies J*Lambda <= Lambda; the base must be stable.
    """
    return stable_family(field, J, algebra, base).ball(window)


def stable_family(field, J, algebra, base):
    if algebra.split_roots is not None:
        return SplitStableFamily(field, J, algebra, base)
    return StableFamily(field, J, algebra, base)


# -- discrete group reduction ---------------------------------------------------------


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
        self.rank = len(column_space_basis(idempotent))
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


# -- a stable family modulo Gamma, as the orbital traversal walks it -------------
# A quotient is built with the pair's A, which commutes with Gamma.  It gives
# the base as a raw move (start), a vertex's raw moves in the family's move
# order (moves), a raw move's reduced vertex, its rep (reduce), a rep's span
# gap [L + A L : L] (gap), memoized per rep key, and a vertex's canonical
# lattice (lattice).  The gap is Gamma-invariant, so the traversal reduces
# every move first and takes the gap of its rep.  Each quotient reduces a
# lattice once: a raw move is canonicalized (or, split, is its canonical
# components) and its rep is memoized per that key, and Gamma acts on the
# canonical lattice, never on a raw stack.  The memos live on the quotient,
# so they are freed with the pair's orbital state.


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
            # the diagonal blocks of W^-1 g W
            gp, gm = fam.coordinates(g.matrix * W)
            self.parts.append([
                _eigenpart(g, fam.W_plus, Matrix(fam.field, [r[:cut] for r in gp.rows])),
                _eigenpart(g, fam.W_minus, Matrix(fam.field, [r[cut:] for r in gm.rows]))])
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


def _eigenpart(g, W, gc):
    """((g+-, g+-^-1), e W+-, rank of e W+-) of generator g on the
    eigenspace with basis W, given g+- = gc, the block of W^-1 g W on it;
    raises unless g W = W gc, that is unless g is block-diagonal."""
    gW = g.matrix * W
    if not (W * gc).same(gW):
        raise PrecisionExhausted("generator not certified block-diagonal")
    eW = g.idempotent * W
    return (gc, mat_inverse(gc)), eW, len(column_space_basis(eW))
