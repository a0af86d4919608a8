"""Full-rank O_F-lattices in F^m and their enumeration.

The canonical representative of a lattice is the column Hermite form of a
generating matrix: upper triangular, pivot (i, i) an exact power pi^(a_i),
entry (i, j) for j > i an exact Laurent polynomial reduced modulo pi^(a_i),
zeros below the diagonal.  Two Lattice values are equal iff they are equal
as O_F-modules.  Enumeration covers sublattices and superlattices of given
index, chains with prescribed step indices, and module-stable lattices for
a matrix satisfying an integral quadratic minimal polynomial.

The field's precision N is a ceiling for the two elimination kernels,
canonicalize and smith_exponents_rectangular: they run at a certified
working precision below it (entries truncated a few digits above their
least valuation) and escalate on PrecisionExhausted, so each returns what
the untruncated entries give or raises.
"""

import itertools

from .errors import NonFreeAction, PrecisionExhausted, SingularBasis, UnstableBase
from .linalg import Matrix, mat_det, row_echelon
from .localfield import INF


class Lattice:
    """Canonical Hermite-form lattice; construct through canonicalize()."""

    __slots__ = ("field", "rank", "basis", "diag", "_key")

    def __init__(self, field, basis, diag, key):
        self.field = field
        self.rank = len(diag)
        self.basis = basis
        self.diag = diag
        self._key = key

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

    def dual(self):
        """Dual lattice (inverse-transpose basis); exact for canonical bases."""
        inv = triangular_inverse(self.basis, self.diag)
        return canonicalize(self.field, inv.transpose())

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.basis.rows]


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


def _pivot(lines, start):
    """Certified least-valuation entry of the block line[start:], line in lines.

    Returns ((line, pos), hidden): the first entry of least valuation, or
    None when no entry has a certified digit, and the least k of an
    undetermined O(pi^k) in the block (inf if there is none).  Raises
    PrecisionExhausted when such an O(pi^k) with k <= the pivot's valuation
    could hide a smaller pivot.
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
    if best is not None and hidden <= bval:
        raise PrecisionExhausted("pivot hidden behind an undetermined entry")
    return best, hidden


def canonicalize(field, basis):
    """Unique Hermite representative of the lattice spanned by the columns.

    Accepts an m x s generating matrix with s >= m; raises SingularBasis
    when the columns do not span a full-rank lattice.  Runs on the
    working-precision ladder; raises PrecisionExhausted when even the
    untruncated entries do not certify the form.
    """
    cols = [basis.column(j) for j in range(basis.ncols)]
    return _on_ladder(lambda c: _hermite(field, basis.nrows, c), field, cols)


def _hermite(field, m, cols):
    placed = [None] * m
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
    # normalize pivots to exact powers of pi and clear sub-pivot noise
    zero = field.zero
    for i in range(m):
        col = placed[i]
        piv = col[i]
        a = piv.valuation()
        unit_inv = piv.shift(-a).inv()
        newcol = [x * unit_inv for x in col[:i]]
        newcol.append(field.pi(a) if a else field.one)
        newcol.extend([zero] * (m - i - 1))
        placed[i] = newcol
    diag = tuple(placed[i][i].val for i in range(m))
    # reduce entries above each pivot modulo the row pivot; high_part and
    # reduce_mod raise unless the entry is certified modulo pi^(a_i)
    for j in range(m):
        col = placed[j]
        for i in range(j - 1, -1, -1):
            ai = diag[i]
            high = col[i].high_part(ai)
            if not high.is_exact_zero:
                f = high.shift(-ai)
                col = [x - f * y for x, y in zip(col, placed[i])]
            col[i] = col[i].reduce_mod(ai)
        placed[j] = col
    rows = [[placed[j][i] for j in range(m)] for i in range(m)]
    b = Matrix(field, rows)
    return Lattice(field, b, diag, _basis_key(b))


def standard_lattice(field, m):
    return canonicalize(field, Matrix.identity(field, m))


def from_generators(field, columns):
    """Lattice spanned by an arbitrary list of vectors (must be full rank)."""
    m = len(columns[0])
    return canonicalize(field, Matrix.from_columns(field, columns))


def lattice_sum(l1, l2):
    return canonicalize(l1.field, l1.basis.hstack(l2.basis))


def triangular_inverse(basis, diag):
    """Inverse of a canonical (upper triangular, monomial pivot) basis; exact."""
    field = basis.ring
    m = basis.nrows
    cols = []
    for j in range(m):
        # solve basis * x = e_j by back substitution
        x = [field.zero] * m
        rhs = [field.one if i == j else field.zero for i in range(m)]
        for i in range(m - 1, -1, -1):
            acc = rhs[i]
            for k in range(i + 1, m):
                acc = acc - basis.rows[i][k] * x[k]
            x[i] = acc.shift(-diag[i])
        cols.append(x)
    return Matrix.from_columns(field, cols)


def in_lattice(lat, vector):
    """Membership test by exact back substitution."""
    m = lat.rank
    x = list(vector)
    for i in range(m - 1, -1, -1):
        c = x[i].shift(-lat.diag[i])
        if c.coeffs and c.val < 0:
            return False
        if not c.coeffs and not c.is_exact_zero and c.known_to <= 0:
            raise PrecisionExhausted("membership not certified")
        for k in range(i):
            x[k] = x[k] - c * lat.basis.rows[k][i]
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


def coords_in(lat, vectors):
    """Columns of the coordinate matrix of the vectors in lat's basis (exact)."""
    inv = triangular_inverse(lat.basis, lat.diag)
    return [inv.apply(v) for v in vectors]


def relative_position(l1, l2):
    """Decreasing elementary-divisor exponents of l2 relative to l1."""
    field = l1.field
    cols = coords_in(l1, [l2.basis.column(j) for j in range(l2.rank)])
    mat = Matrix.from_columns(field, cols)
    return smith_exponents(mat)


def smith_exponents(mat):
    """Valuations of the elementary divisors over O_F, decreasing."""
    rows = [list(r) for r in mat.rows]
    n, m = len(rows), len(rows[0])
    out = []
    top = 0
    while top < min(n, m):
        best = None
        undet = False
        for i in range(top, n):
            for j in range(top, m):
                x = rows[i][j]
                if x.coeffs:
                    if best is None or x.val < rows[best[0]][best[1]].val:
                        best = (i, j)
                elif not x.is_exact_zero:
                    undet = True
        if best is None:
            if undet:
                raise PrecisionExhausted("elementary divisor not certified")
            raise SingularBasis("matrix not invertible over F")
        bi, bj = best
        rows[top], rows[bi] = rows[bi], rows[top]
        for r in rows:
            r[top], r[bj] = r[bj], r[top]
        piv = rows[top][top]
        out.append(piv.val)
        piv_inv = piv.inv()
        for i in range(top + 1, n):
            x = rows[i][top]
            if x.coeffs:
                f = x * piv_inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        for j in range(top + 1, m):
            x = rows[top][j]
            if x.coeffs:
                f = x * piv_inv
                for i in range(top, n):
                    rows[i][j] = rows[i][j] - f * rows[i][top]
        top += 1
    return tuple(sorted(out, reverse=True))


def smith_exponents_rectangular(mat, rank=None):
    """Elementary divisor exponents of a (possibly non-square, non-full-rank)
    integral matrix over O_F; returns the finite exponents only.

    An undetermined remainder O(pi^k) counts as zero only once `rank`
    pivots are placed; without a rank it raises PrecisionExhausted unless
    the matrix has full rank.  Runs on the working-precision ladder.
    """
    return _on_ladder(lambda rows: _smith(rows, rank), mat.ring, mat.rows)


def _smith(rows, rank):
    # Row sweeps alone give the exponents: once every entry below the pivot
    # that is not an exact zero is cleared (undetermined ones with an
    # O(pi^k) multiplier), the pivot's row is cleared by column operations
    # that change no other row, so the rest is the lower right block.
    n, m = len(rows), len(rows[0])
    out = []
    for top in range(min(n, m)):
        best, hidden = _pivot(rows[top:], top)
        if best is None:
            if hidden == INF or (rank is not None and top >= rank):
                break
            raise PrecisionExhausted("elementary divisor not certified")
        bi, bj = best[0] + top, best[1]
        rows[top], rows[bi] = rows[bi], rows[top]
        for r in rows:
            r[top], r[bj] = r[bj], r[top]
        prow = rows[top]
        out.append(prow[top].val)
        piv_inv = prow[top].inv()
        for r in rows[top + 1:]:
            x = r[top]
            if not x.is_exact_zero:
                f = x * piv_inv
                for j in range(top + 1, m):
                    r[j] = r[j] - f * prow[j]
    return out


# -- enumeration ---------------------------------------------------------------


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def hermite_forms_of_index(field, rank, k):
    """All canonical Hermite matrices of index k over the standard lattice."""
    q = field.q
    for diag in _compositions(k, rank):
        # entry (i, j), i < j, runs over residues mod pi^diag[i]
        free = [(i, j) for j in range(rank) for i in range(j)]
        ranges = [range(q ** diag[i]) for i, _ in free]
        for combo in itertools.product(*ranges):
            rows = [[field.zero] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = field.pi(diag[i]) if diag[i] else field.one
            ok = True
            for (i, j), code in zip(free, combo):
                if diag[i] == 0:
                    if code:
                        ok = False
                        break
                    continue
                digits = []
                c = code
                for _ in range(diag[i]):
                    digits.append(c % q)
                    c //= q
                rows[i][j] = field.element(0, digits) if any(digits) else field.zero
            if ok:
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


def count_chains(l0, lr, m):
    """Number of chains l0 = X_0 <= X_1 <= ... <= X_r = lr with
    [X_i : X_{i-1}] = m_i."""
    m = tuple(m)
    total = index(lr, l0)
    if total != sum(m) or total < 0:
        return 0
    if not lattice_leq(l0, lr):
        return 0
    if len(m) == 0:
        return 1  # empty chain: the lattices already agree
    if len(m) == 1:
        return 1  # index matches and inclusion holds
    count = 0
    for x1 in superlattices_of_index(l0, m[0]):
        if lattice_leq(x1, lr):
            count += count_chains(x1, lr, m[1:])
    return count


# -- module-stable lattices -------------------------------------------------------


def column_space_basis(field, mat):
    """A lattice basis of the column span of a (possibly singular) matrix,
    as a list of independent columns (over F)."""
    cols = [mat.column(j) for j in range(mat.ncols)]
    kept = []
    for c in cols:
        trial = kept + [c]
        m = Matrix.from_columns(field, trial)
        _, _, pivots = row_echelon(m, zeroish_ok=True)
        if len(pivots) == len(trial):
            kept.append(c)
    return kept


class StableFamily:
    """O_E-stable lattices for E = F[J], J of integral quadratic minimal polynomial.

    The family provides stability tests, neighbor moves in the module
    "building" (index-one O_E-sub- and superlattices), and radius-limited
    enumeration around a stable base lattice.
    """

    def __init__(self, field, J, algebra, base):
        self.field = field
        self.J = J
        self.algebra = algebra
        self.base = base
        self.rank = J.nrows
        if not self.is_stable(base):
            raise UnstableBase("base lattice is not stable under the action")
        if algebra.split_roots is not None:
            r1, r2 = algebra.split_roots
            # eigen-projectors (J - r2)/(r1 - r2) and (J - r1)/(r2 - r1)
            d = (r1 - r2).inv()
            ident = Matrix.identity(field, self.rank)
            self.proj_plus = (J - ident.scale(r2)).scale(d)
            self.proj_minus = (ident - self.proj_plus)
            self.pi_e_mat = Matrix.identity(field, self.rank).scale(field.pi())
            self.residue_f = 1
        else:
            self.proj_plus = self.proj_minus = None
            if algebra.kind == "unramified":
                self.pi_e_mat = Matrix.identity(field, self.rank).scale(field.pi())
                self.residue_f = 2
            else:
                self.pi_e_mat = J  # the generator is a uniformizer
                self.residue_f = 1
        self._inv_pi_e = None

    def is_stable(self, lat):
        return all(in_lattice(lat, self.J.apply(lat.basis.column(j)))
                   for j in range(lat.rank))

    def scale_pi_e(self, lat, power=1):
        b = lat.basis
        if power >= 0:
            for _ in range(power):
                b = self.pi_e_mat * b
            return canonicalize(self.field, b)
        inv_pi_e = None
        for _ in range(-power):
            if inv_pi_e is None:
                from .linalg import mat_inverse
                inv_pi_e = mat_inverse(self.pi_e_mat)
            b = inv_pi_e * b
        return canonicalize(self.field, b)

    def _residue_sublattices(self, lat, dim):
        """Stable lattices M with pi_E*lat <= M <= lat whose residue image has
        the given F_q-dimension."""
        field = self.field
        scaled = self.scale_pi_e(lat)
        c_cols = coords_in(lat, [scaled.basis.column(j) for j in range(self.rank)])
        jc_cols = coords_in(lat, [self.J.apply(lat.basis.column(j)) for j in range(self.rank)])
        Cmat = Matrix.from_columns(field, c_cols)
        Jmat = Matrix.from_columns(field, jc_cols)
        out = []
        for sub_basis in _stable_subspaces(field, Cmat, Jmat, dim):
            cols = [scaled.basis.column(j) for j in range(self.rank)]
            for v in sub_basis:
                cols.append(lat.basis.apply(v))
            out.append(canonicalize(field, Matrix.from_columns(field, cols)))
        return out

    def neighbors_down(self, lat):
        """Stable sublattices of module-index one (residue hyperplane preimages)."""
        t = self.pi_e_index()
        return self._residue_sublattices(lat, t - self.residue_f)

    def neighbors_up(self, lat):
        """Stable superlattices of module-index one (scaled residue lines)."""
        lines = self._residue_sublattices(lat, self.residue_f)
        return [self.scale_pi_e(m, -1) for m in lines]

    def _residue_stacks(self, lat, dim):
        """Raw generator stacks of the residue sublattices (no canonical form)."""
        field = self.field
        scaled = self.scale_pi_e(lat)
        c_cols = coords_in(lat, [scaled.basis.column(j) for j in range(self.rank)])
        jc_cols = coords_in(lat, [self.J.apply(lat.basis.column(j)) for j in range(self.rank)])
        Cmat = Matrix.from_columns(field, c_cols)
        Jmat = Matrix.from_columns(field, jc_cols)
        out = []
        for sub_basis in _stable_subspaces(field, Cmat, Jmat, dim):
            cols = [scaled.basis.column(j) for j in range(self.rank)]
            for v in sub_basis:
                cols.append(lat.basis.apply(v))
            out.append(Matrix.from_columns(field, cols))
        return out

    def neighbor_stacks(self, lat):
        """Raw generator matrices of all index-one moves (down then up)."""
        t = self.pi_e_index()
        stacks = self._residue_stacks(lat, t - self.residue_f)
        if self._inv_pi_e is None:
            from .linalg import mat_inverse
            self._inv_pi_e = mat_inverse(self.pi_e_mat)
        ups = [self._inv_pi_e * s
               for s in self._residue_stacks(lat, self.residue_f)]
        return stacks + ups

    def pi_e_index(self):
        """F_q-dimension of lat / pi_E lat (independent of the lattice)."""
        return mat_det(self.pi_e_mat).valuation()

    def ball(self, radius, center=None):
        """All stable lattices within `radius` neighbor moves of the center."""
        state = self.init_state(center)
        for _ in range(radius):
            self.grow(state)
        return list(state["seen"].values())

    def init_state(self, center=None):
        center = center or self.base
        return {"seen": {center.key(): center}, "frontier": [center]}

    def grow(self, state):
        """One BFS step; returns the newly discovered lattices."""
        seen = state["seen"]
        new = []
        for lat in state["frontier"]:
            for nb in self.neighbors_down(lat) + self.neighbors_up(lat):
                if nb.key() not in seen:
                    seen[nb.key()] = nb
                    new.append(nb)
        state["frontier"] = new
        return new

    def stable_superlattices(self, lat, extra_index):
        """Stable superlattices with the given additional index over lat."""
        out = {}
        layer = {lat.key(): lat}
        total = 0
        while True:
            if total == extra_index:
                return list(layer.values())
            nxt = {}
            for l in layer.values():
                for nb in self.neighbors_up(l):
                    nxt[nb.key()] = nb
            if not nxt:
                return []
            sample = next(iter(nxt.values()))
            step = (next(iter(layer.values())).det_valuation
                    - sample.det_valuation)
            total += step
            if total > extra_index:
                return []
            layer = nxt


def _stable_subspaces(field, Cmat, Jmat, dim):
    """Residue subspaces of the given F_q-dimension in O^m / C O^m stable
    under Jmat; yields bases (lists of O^m coordinate vectors) of lifts.
    """
    g = field.gf
    m = Cmat.nrows
    U, D, _ = _snf_transform(Cmat)
    if any(e not in (0, 1) for e in D):
        raise UnstableBase("quotient by pi_E is not elementary")
    torsion = [i for i in range(m) if D[i] == 1]
    t = len(torsion)
    from .linalg import mat_inverse
    Uinv = mat_inverse(U)
    act = Uinv * Jmat * U
    # residue action on the torsion coordinates
    A = [[act.rows[i][j].coeff(0) for j in torsion] for i in torsion]
    for W in _subspaces_of_dim(g, t, dim):
        if not _fq_subspace_stable(g, A, W):
            continue
        cols = []
        for w in W:
            vec = [field.zero] * m
            for pos, i in enumerate(torsion):
                if w[pos]:
                    vec[i] = field.from_fq(w[pos])
            cols.append(U.apply(vec))
        yield cols


def _snf_transform(mat):
    """U, D, V with mat = U * diag(pi^D) * V, U and V unimodular over O."""
    field = mat.ring
    n = mat.nrows
    rows = [list(r) for r in mat.rows]
    U = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    top = 0
    D = [0] * n
    while top < n:
        best = None
        for i in range(top, n):
            for j in range(top, n):
                x = rows[i][j]
                if x.coeffs and (best is None or x.val < rows[best[0]][best[1]].val):
                    best = (i, j)
        if best is None:
            raise SingularBasis("singular matrix in SNF")
        bi, bj = best
        rows[top], rows[bi] = rows[bi], rows[top]
        U[top], U[bi] = U[bi], U[top]
        for r in rows:
            r[top], r[bj] = r[bj], r[top]
        piv = rows[top][top]
        D[top] = piv.val
        piv_inv = piv.inv()
        # clear the column below (row ops tracked in U: row_i -= f row_top)
        for i in range(top + 1, n):
            x = rows[i][top]
            if x.coeffs:
                fct = x * piv_inv
                rows[i] = [a - fct * b for a, b in zip(rows[i], rows[top])]
                U[i] = [a - fct * b for a, b in zip(U[i], U[top])]
        for j in range(top + 1, n):
            x = rows[top][j]
            if x.coeffs:
                fct = x * piv_inv
                for i in range(top, n):
                    rows[i][j] = rows[i][j] - fct * rows[i][top]
        top += 1
    # mat = P_row^-1 * (cleared) ...: we only need U with mat O^m = U diag O^m
    # after the sweep rows ~ diag(pi^D) up to column ops; U tracks row ops:
    # U * mat * V' = D  =>  mat O^m = U^{-1} D O^m.  Return U^{-1} as "U".
    from .linalg import mat_inverse
    Umat = mat_inverse(Matrix(field, U))
    return Umat, D, None


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
    """Whether the row space of W is stable under the residue matrix A."""
    if not W:
        return True
    t = len(A)
    rows = [list(w) for w in W]
    # echelonize rows (they are already reduced by construction)
    def reduce_vec(v):
        v = list(v)
        for r in rows:
            p = next((i for i, x in enumerate(r) if x), None)
            if p is not None and v[p]:
                f = g.mul(v[p], g.inv(r[p]))
                v = [g.sub(a, g.mul(f, b)) for a, b in zip(v, r)]
        return v
    for w in W:
        img = [0] * t
        for j, wj in enumerate(w):
            if wj:
                for i in range(t):
                    img[i] = g.add(img[i], g.mul(A[i][j], wj))
        if any(reduce_vec(img)):
            return False
    return True


# -- split-family stable lattices ---------------------------------------------------


class SplitStableFamily:
    """Stable lattices for a split quadratic action: pairs of component lattices."""

    def __init__(self, field, J, algebra, base):
        self.field = field
        self.J = J
        self.algebra = algebra
        self.rank = J.nrows
        r1, r2 = algebra.split_roots
        d = (r1 - r2).inv()
        ident = Matrix.identity(field, self.rank)
        self.proj_plus = (J - ident.scale(r2)).scale(d)
        self.proj_minus = ident - self.proj_plus
        self.basis_plus = column_space_basis(field, self.proj_plus)
        self.basis_minus = column_space_basis(field, self.proj_minus)
        self.W_plus = Matrix.from_columns(field, self.basis_plus)
        self.W_minus = Matrix.from_columns(field, self.basis_minus)
        self.base = base
        if not self.is_stable(base):
            raise UnstableBase("base lattice is not stable under the action")
        self.base_plus, self.base_minus = self.split(base)

    def is_stable(self, lat):
        return all(in_lattice(lat, self.J.apply(lat.basis.column(j)))
                   for j in range(lat.rank))

    def split(self, lat):
        """Component lattices in the eigenspace coordinates."""
        plus_cols = _solve_coords(self.field, self.W_plus,
                                  [self.proj_plus.apply(lat.basis.column(j))
                                   for j in range(lat.rank)])
        minus_cols = _solve_coords(self.field, self.W_minus,
                                   [self.proj_minus.apply(lat.basis.column(j))
                                    for j in range(lat.rank)])
        lp = from_generators(self.field, plus_cols)
        lm = from_generators(self.field, minus_cols)
        return lp, lm

    def combine(self, lp, lm):
        cols = [self.W_plus.apply(lp.basis.column(j)) for j in range(lp.rank)]
        cols += [self.W_minus.apply(lm.basis.column(j)) for j in range(lm.rank)]
        return from_generators(self.field, cols)

    def ball(self, radius, center=None):
        state = self.init_state(center)
        for _ in range(radius):
            self.grow(state)
        return [self.combine(lp, lm) for lp, lm in state["pairs"]]

    def init_state(self, center=None):
        center = center or self.base
        cp, cm = self.split(center)
        return {
            "p": {"seen": {cp.key(): cp}, "frontier": [cp]},
            "m": {"seen": {cm.key(): cm}, "frontier": [cm]},
            "pairs": [(cp, cm)],
        }

    @staticmethod
    def _grow_component(state):
        seen = state["seen"]
        new = []
        for lat in state["frontier"]:
            moves = list(sublattices_of_index(lat, 1))
            moves += list(superlattices_of_index(lat, 1))
            for nb in moves:
                if nb.key() not in seen:
                    seen[nb.key()] = nb
                    new.append(nb)
        state["frontier"] = new
        return new

    def grow(self, state):
        """One radius step on both components; returns new combined lattices."""
        old_p = list(state["p"]["seen"].values())
        old_m = list(state["m"]["seen"].values())
        new_p = self._grow_component(state["p"])
        new_m = self._grow_component(state["m"])
        fresh = [(lp, lm) for lp in new_p for lm in old_m]
        fresh += [(lp, lm) for lp in old_p for lm in new_m]
        fresh += [(lp, lm) for lp in new_p for lm in new_m]
        state["pairs"].extend(fresh)
        return [self.combine(lp, lm) for lp, lm in fresh]

    def stable_superlattices(self, lat, extra_index):
        """Stable superlattices with the given additional index over lat."""
        lp, lm = self.split(lat)
        out = []
        for kp in range(extra_index + 1):
            km = extra_index - kp
            for sp in superlattices_of_index(lp, kp):
                for sm in superlattices_of_index(lm, km):
                    out.append(self.combine(sp, sm))
        return out

    def neighbor_stacks(self, lat):
        """Raw generator matrices of all single-component index-one moves."""
        lp, lm = self.split(lat)
        out = []
        for sp in list(sublattices_of_index(lp, 1)) + list(superlattices_of_index(lp, 1)):
            cols = [self.W_plus.apply(sp.basis.column(j)) for j in range(sp.rank)]
            cols += [self.W_minus.apply(lm.basis.column(j)) for j in range(lm.rank)]
            out.append(Matrix.from_columns(self.field, cols))
        for sm in list(sublattices_of_index(lm, 1)) + list(superlattices_of_index(lm, 1)):
            cols = [self.W_plus.apply(lp.basis.column(j)) for j in range(lp.rank)]
            cols += [self.W_minus.apply(sm.basis.column(j)) for j in range(sm.rank)]
            out.append(Matrix.from_columns(self.field, cols))
        return out


def _solve_coords(field, W, vectors):
    """Coordinates of vectors lying in the column space of W (full column rank)."""
    from .linalg import linear_solve
    return [linear_solve(W, v, zeroish_ok=True) for v in vectors]


def stable_lattices(field, J, algebra, window, base):
    """All lattices stable under J within `window` module moves of base.

    Every output satisfies J*Lambda <= Lambda; the base must be stable.
    """
    if algebra.split_roots is not None:
        fam = SplitStableFamily(field, J, algebra, base)
    else:
        fam = StableFamily(field, J, algebra, base)
    return fam.ball(window)


def stable_family(field, J, algebra, base):
    if algebra.split_roots is not None:
        return SplitStableFamily(field, J, algebra, base)
    return StableFamily(field, J, algebra, base)


# -- discrete group reduction ---------------------------------------------------------


class GammaGenerator:
    """One centralizer-factor generator: matrix, factor idempotent, and the
    index functional used for canonical orbit representatives."""

    __slots__ = ("matrix", "inverse", "idempotent", "Wj", "shift")

    def __init__(self, field, matrix, idempotent):
        from .linalg import mat_inverse
        self.matrix = matrix
        self.inverse = mat_inverse(matrix)
        self.idempotent = idempotent
        cols = column_space_basis(field, idempotent)
        self.Wj = Matrix.from_columns(field, cols)
        self.shift = None  # filled by GammaGroup


class GammaGroup:
    """Free commuting group generated by per-factor uniformizer matrices."""

    def __init__(self, field, generators):
        self.field = field
        self.gens = generators
        for g in self.gens:
            probe = standard_lattice(field, g.matrix.nrows)
            before = self.functional(g, probe)
            moved = canonicalize(field, g.matrix * probe.basis)
            after = self.functional(g, moved)
            g.shift = after - before
            if g.shift <= 0:
                raise NonFreeAction("generator does not shift its factor index")

    def functional(self, gen, lat):
        """Valuation functional on the factor eigenspace (additive under gen).

        Computed as the sum of the finite elementary divisors of the
        projected basis; the projection has constant corank, so the sum
        shifts exactly by v(det gen | V_j) under the generator.
        """
        proj = gen.idempotent * lat.basis
        return sum(smith_exponents_rectangular(proj, rank=gen.Wj.ncols))

    def reduce_exponents(self, lat):
        """Exponent vector e placing the lattice in the fundamental box."""
        out = []
        for g in self.gens:
            v = self.functional(g, lat)
            out.append(-(v // g.shift))
        return tuple(out)

    def raw_functional(self, gen, stack):
        """The factor functional evaluated on a raw generator stack."""
        return sum(smith_exponents_rectangular(gen.idempotent * stack,
                                               rank=gen.Wj.ncols))

    def reduce_stack(self, stack):
        """Canonical box representative of the lattice spanned by a raw stack."""
        work = stack
        for g in self.gens:
            v = self.raw_functional(g, work)
            e = -(v // g.shift)
            if e > 0:
                for _ in range(e):
                    work = g.matrix * work
            elif e < 0:
                for _ in range(-e):
                    work = g.inverse * work
        return canonicalize(self.field, work)

    def in_fundamental_box(self, lat):
        return all(0 <= self.functional(g, lat) < g.shift for g in self.gens)

    def apply(self, exponents, lat):
        b = lat.basis
        for g, e in zip(self.gens, exponents):
            if e > 0:
                for _ in range(e):
                    b = g.matrix * b
            elif e < 0:
                for _ in range(-e):
                    b = g.inverse * b
        return canonicalize(self.field, b)

    def reduce_pair(self, l1, l2):
        """Canonical orbit representative of a pair under the diagonal action.

        Exponents are normalized on the first lattice; returns
        ((l1', l2'), exponents, stabilizer_volume_exponent).
        """
        e = self.reduce_exponents(l1)
        if any(e):
            l1 = self.apply(e, l1)
            l2 = self.apply(e, l2)
        return (l1, l2), e, 0
