"""Lattice enumeration: sublattices and superlattices of given index,
lattices at a relative position, chains with prescribed step indices, and
the lattices stable under a matrix J of integral quadratic minimal
polynomial (stable families), with their index-one moves.
"""

import itertools

from .errors import UnstableBase
from .lattices import (_is_stable, canonicalize, index, lattice_leq,
                       relative_position, smith_exponents)
from .linalg import Matrix, column_space_basis, mat_det, mat_inverse


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


def sublattices_of_index(lat, k):
    """Each sublattice of index k once: lat h per Hermite form h of index k."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k == 0:
        yield lat
        return
    field, rank = lat.field, lat.rank
    free = [(i, j) for j in range(rank) for i in range(j)]
    for diag in _compositions(k, rank):
        # entry (i, j), i < j, runs over residues mod pi^diag[i]
        ranges = [residues(field, 0, diag[i]) for i, _ in free]
        for combo in itertools.product(*ranges):
            rows = [[field.zero] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = field.pi(diag[i]) if diag[i] else field.one
            for (i, j), x in zip(free, combo):
                rows[i][j] = x
            yield canonicalize(field, lat.basis * Matrix(field, rows))


def superlattices_of_index(lat, k):
    """Each superlattice of index k exactly once (through the dual)."""
    if k == 0:
        yield lat
        return
    for sub in sublattices_of_index(lat.dual(), k):
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


class StableFamily:
    """O_E-stable lattices for a field E = F[J], J of integral quadratic
    minimal polynomial (a split E has SplitStableFamily).

    The family provides stability tests, neighbor moves in the module
    "building" (index-one O_E-sub- and superlattices), and radius-limited
    enumeration around a stable base lattice.  neighbor_stacks is the one
    move generator: ball and stable_superlattices canonicalize its
    matrices, and the orbital traversal Gamma-reduces them
    (quotients.StackQuotient).
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
        if not self.is_stable(base):
            raise UnstableBase("base lattice is not stable under the action")
        if algebra.kind == "unramified":
            self.pi_e_mat = Matrix.identity(field, J.nrows).scale(field.pi())
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
