"""Slow, independent routes that the tests hold the package's routes to.

- linear_solve: one solution of mat * x = rhs, read off the augment
  column that row_echelon sweeps along with mat; the oracle for the
  eigenspace coordinates that lattices.SplitStableFamily reads off one
  inverse W^-1;
- smith_form: the Smith form with its unimodular transforms, at full
  precision; the oracle for the residue subspaces that _stable_subspaces
  below reads off a Hermite form;
- split_neighbor_stacks: a split family's index-one moves as raw generator
  stacks, plus moves first, then minus moves, the order of
  lattices.PairQuotient.moves; the move generator of the stack-route
  oracle for split families;
- residue_neighbor_stacks: a field family's index-one moves as raw
  generator stacks [lat H | lat lifts], H the Hermite form of
  lat^-1 pi_E lat and the lifts those _stable_subspaces reads off H, with
  the up-moves multiplied by pi_E^-1; the oracle for
  lattices.StableFamily.neighbor_stacks, which reads its residue spans off
  the residue matrix of lat^-1 J lat and builds each move as lat Y with no
  elimination;
- reduce_stack: the canonical box representative of the lattice a raw
  generator stack spans, with every functional read off the stack moved so
  far and one canonical form at the end; the oracle for the reps that
  lattices.StackQuotient and lattices.PairQuotient memoize, which
  GammaGroup.reduce takes on a canonical lattice;
- in_lattice: membership by the column sweep, which clears each
  coordinate, from the last one up, out of the vector before reading the
  next; the oracle for lattices.in_lattice, which reads the coordinates
  off one Lattice.solve;
- triangular_inverse: the inverse of a canonical basis, column j by back
  substitution against e_j; the oracle for Lattice.inverse;
- in_fundamental_box: whether a lattice lies in Gamma's fundamental box,
  every functional in [0, shift); the box that reduce_stack and
  GammaGroup.reduce map into;
- hom_lattice: Hom_O(m_bot, m_top) spanned by the flattened
  g_top E_ab g_bot^-1, one matrix product pair per elementary matrix E_ab;
  the oracle for reduction.hom_lattice, which spans it by the columns of
  one Kronecker product;
- pre_op, post_op: f -> f B1 and f -> B0 f on flattened Hom(V1, V0),
  placed entry by entry; the oracle for the Kronecker-product operators
  q_i^- and q_i^+ of reduction.HomSystem;
- commutator_rows: the linear forms (XM - MX)_ij in vec(X), placed entry
  by entry; the oracle for the rows pairs._commutant_basis stacks;
- stable_superlattices, superlattice_positions: a split family's stable
  superlattices as canonical lattices of the full rank, one canonical form
  of W_plus sp | W_minus sm per component pair, and their relative
  positions over lb from the full-rank lattices; the oracle for the
  ComponentPairs and component-coordinate positions of
  lattices.SplitStableFamily.superlattice_positions;
- eigenpart_span, eigenpart_transfer_factor: the transfer factor from the indices of
  l3 in the canonical O_E3-spans of the two eigenparts of l0; the oracle
  for the determinant formula of orbital.TransferContext.omega;
- unipotent_sum: f summed over every block-unipotent coset in the windows
  pi^-w O / O against diag(pi^mu), one Smith form each; the oracle for
  hecke._unipotent_sum, which sums one coset per orbit with its weight.
"""

import itertools
from fractions import Fraction

from fflab.errors import NoSolution, NotStable, PrecisionExhausted, UnstableBase
from fflab.lattices import (_fq_subspace_stable, _is_stable, _pivot, _power_times,
                            _subspaces_of_dim, canonicalize, from_generators,
                            index, relative_position, residues,
                            smith_exponents, superlattices_of_index)
from fflab.linalg import Matrix, mat_inverse, row_echelon
from fflab.localfield import INF
from fflab.orbital import OrbitalValue


def linear_solve(mat, rhs, zeroish_ok=False):
    """One solution of mat * x = rhs over F, or NoSolution.

    rhs is a vector; returns a vector.
    """
    rec = row_echelon(mat, zeroish_ok, augment=[[y] for y in rhs])
    n = mat.ncols
    for row in rec.rows[len(rec.pivots):]:
        if row[n].coeffs:
            raise NoSolution("inconsistent linear system")
        if not row[n].is_exact_zero and not zeroish_ok:
            raise PrecisionExhausted("consistency of linear system not certified")
    x = [mat.ring.zero] * n
    for r, c in rec.pivots:
        x[c] = rec.rows[r][n] * rec.rows[r][c].inv()
    return x


def smith_form(mat):
    """(R, D, C) with R * mat * C = diag(pi^D) zero-padded to mat's shape.

    R and C are unimodular over O_F and D lists the finite exponents in
    pivot order.  The pivots and row sweeps are those of lattices._smith
    on the untruncated entries; the row operations are recorded in R and
    the column operations (swaps, the sweep of the pivot's row, the
    pivot's unit) in C.  Raises PrecisionExhausted when a pivot or a
    nonzero remainder is not certified.
    """
    field = mat.ring
    rows = [list(r) for r in mat.rows]
    R = [list(r) for r in Matrix.identity(field, mat.nrows).rows]
    C = [list(r) for r in Matrix.identity(field, mat.ncols).rows]
    n, m = mat.nrows, mat.ncols
    D = []
    for top in range(min(n, m)):
        best, hidden = _pivot(rows[top:], top)
        if best is None:
            if hidden == INF:
                break
            raise PrecisionExhausted("elementary divisor not certified")
        bi, bj = best[0] + top, best[1]
        rows[top], rows[bi] = rows[bi], rows[top]
        R[top], R[bi] = R[bi], R[top]
        for r in rows + C:
            r[top], r[bj] = r[bj], r[top]
        prow = rows[top]
        piv = prow[top]
        D.append(piv.val)
        piv_inv = piv.inv()
        for i in range(top + 1, n):
            r = rows[i]
            x = r[top]
            if not x.is_exact_zero:
                f = x * piv_inv
                for j in range(top + 1, m):
                    r[j] = r[j] - f * prow[j]
                R[i] = [a - f * b for a, b in zip(R[i], R[top])]
        for j in range(top + 1, m):
            if not prow[j].is_exact_zero:
                f = prow[j] * piv_inv
                for c in C:
                    c[j] = c[j] - f * c[top]
        unit_inv = piv_inv.shift(piv.val)
        for c in C:
            c[top] = c[top] * unit_inv
    return Matrix(field, R), D, Matrix(field, C)


def split_neighbor_stacks(fam, lat):
    """Raw generator matrices of a split family's single-component
    index-one moves: those of the plus component, then those of the minus
    component."""
    lp, lm = fam.split(lat)
    return ([fam._stack(sp, lm) for sp in fam._moves(lp)]
            + [fam._stack(lp, sm) for sm in fam._moves(lm)])


def residue_neighbor_stacks(fam, lat):
    """Raw generator stacks of a StableFamily's index-one moves, in
    neighbor_stacks order: [lat H | lat lifts] per stable sublattice M
    with pi_E lat <= M <= lat of index residue_f, then pi_E^-1 times that
    stack per M of index residue_f over pi_E lat.  H is canonicalize of
    lat^-1 pi_E lat, the lifts are those _stable_subspaces reads off H, and
    each stack is non-square, so canonicalize eliminates it on the
    ladder."""
    field, L = fam.field, lat.basis
    H = canonicalize(field, lat.inverse() * (fam.pi_e_mat * L))
    scaled = (L * H.basis).columns()
    down, lines = ([Matrix.from_columns(field, scaled + [L.apply(v) for v in lifts])
                    for lifts in subs]
                   for subs in _stable_subspaces(
                       field, H, lat.inverse() * (fam.J * L),
                       (fam.pi_e_index - fam.residue_f, fam.residue_f)))
    inv_pi_e = mat_inverse(fam.pi_e_mat)
    return down + [inv_pi_e * s for s in lines]


def _stable_subspaces(field, H, Jmat, dims):
    """Per F_q-dimension in dims, the residue subspaces of that dimension in
    O^m / H O^m stable under Jmat, each as a basis (a list of O^m
    coordinate vectors) of lifts; H is a canonical Lattice.

    The quotient is elementary (pi O^m <= H O^m), so H has pivots 1 and pi,
    and a column j of pivot pi is pi e_j.  The rows of pivot pi are the
    torsion coordinates and the lifts combine their unit vectors; a column
    j of pivot 1 gives e_j = -sum_i h_ij e_i modulo H O^m, which folds row j
    of Jmat's residues into the torsion rows.
    """
    g = field.gf
    m = H.rank
    h = H.basis.rows
    torsion = [i for i in range(m) if H.diag[i] == 1]
    if (any(d not in (0, 1) for d in H.diag)
            or any(not h[i][j].is_exact_zero for j in torsion for i in torsion if i < j)):
        raise UnstableBase("quotient by pi_E is not elementary")
    res = [[Jmat.rows[i][j].coeff(0) for j in torsion] for i in range(m)]
    for j in range(m):
        if H.diag[j] == 0:
            for i in torsion:
                c = h[i][j].coeff(0)
                if c:
                    res[i] = [g.sub(a, g.mul(c, b)) for a, b in zip(res[i], res[j])]
    # residue action on the torsion coordinates
    A = [res[i] for i in torsion]
    out = []
    for dim in dims:
        subs = []
        for W in _subspaces_of_dim(g, len(torsion), dim):
            if not _fq_subspace_stable(g, A, W):
                continue
            cols = []
            for w in W:
                vec = [field.zero] * m
                for pos, i in enumerate(torsion):
                    if w[pos]:
                        vec[i] = field.from_fq(w[pos])
                cols.append(vec)
            subs.append(cols)
        out.append(subs)
    return out


def reduce_stack(gamma, stack):
    """Canonical box representative of the lattice spanned by a raw stack."""
    for g in gamma.gens:
        e = -(gamma.functional(g, stack) // g.shift)
        stack = _power_times(g.matrix, g.inverse, e, stack)
    return canonicalize(gamma.field, stack)


def in_lattice(lat, vector):
    """Whether vector lies in lat, by the column sweep."""
    x = list(vector)
    for i in range(lat.rank - 1, -1, -1):
        c = x[i].shift(-lat.diag[i])
        if c.coeffs and c.val < 0:
            return False
        if not c.coeffs and not c.is_exact_zero and c.known_to <= 0:
            raise PrecisionExhausted("membership not certified")
        for k in range(i):
            x[k] = x[k] - c * lat.basis.rows[k][i]
    return True


def triangular_inverse(lat):
    """Inverse of lat's canonical basis: column j solves basis * x = e_j."""
    field, m, rows = lat.field, lat.rank, lat.basis.rows
    cols = []
    for j in range(m):
        x = [field.zero] * m
        rhs = [field.one if i == j else field.zero for i in range(m)]
        for i in range(m - 1, -1, -1):
            acc = rhs[i]
            for k in range(i + 1, m):
                acc = acc - rows[i][k] * x[k]
            x[i] = acc.shift(-lat.diag[i])
        cols.append(x)
    return Matrix.from_columns(field, cols)


def in_fundamental_box(gamma, lat):
    """Whether every Gamma-functional of lat lies in [0, shift)."""
    return all(0 <= gamma.functional(g, lat.basis) < g.shift
               for g in gamma.gens)


def hom_lattice(field, m_top, m_bot):
    """Maps f with f(m_bot) <= m_top, spanned by g_top E_ab g_bot^(-1)."""
    g_top = m_top.basis
    g_bot_inv = m_bot.inverse()
    d0, d1 = m_top.rank, m_bot.rank
    cols = []
    for a in range(d0):
        for b in range(d1):
            e = Matrix(field, [[field.one if (i, j) == (a, b) else field.zero
                                for j in range(d1)] for i in range(d0)])
            f = g_top * e * g_bot_inv
            cols.append([x for row in f.rows for x in row])
    return from_generators(field, cols)


def post_op(field, B0, dim1):
    """Operator f -> B0 * f on flattened Hom(V1, V0)."""
    d0 = B0.nrows
    size = d0 * dim1
    rows = [[field.zero] * size for _ in range(size)]
    for a in range(d0):
        for b in range(dim1):
            for c in range(d0):
                rows[a * dim1 + b][c * dim1 + b] = B0.rows[a][c]
    return Matrix(field, rows)


def pre_op(field, B1, dim0):
    """Operator f -> f * B1 on flattened Hom(V1, V0)."""
    d1 = B1.nrows
    size = dim0 * d1
    rows = [[field.zero] * size for _ in range(size)]
    for a in range(dim0):
        for b in range(d1):
            for c in range(d1):
                rows[a * d1 + b][a * d1 + c] = B1.rows[c][b]
    return Matrix(field, rows)


def commutator_rows(field, mats, size):
    """One row per M in mats and (i, j): (XM - MX)_ij as a form in vec(X)."""
    cols = size * size
    rows = []
    zero = field.zero
    for M in mats:
        for i in range(size):
            for j in range(size):
                row = [zero] * cols
                # (XM - MX)_{ij} = sum_l X_il M_lj - sum_k M_ik X_kj
                for l in range(size):
                    row[i * size + l] = row[i * size + l] + M.rows[l][j]
                for k in range(size):
                    row[k * size + j] = row[k * size + j] - M.rows[i][k]
                rows.append(row)
    return Matrix(field, rows)


def stable_superlattices(fam, lat, extra_index):
    """A split family's stable superlattices of the given additional index
    over lat, each canonicalized from its generator stack, in the order of
    SplitStableFamily.stable_superlattices."""
    lp, lm = fam.split(lat)
    return [canonicalize(fam.field, fam._stack(sp, sm))
            for kp in range(extra_index + 1)
            for sp in superlattices_of_index(lp, kp)
            for sm in superlattices_of_index(lm, extra_index - kp)]


def superlattice_positions(fam, lat, lb, extra_index):
    """(relative_position(la, lb), la) per stable superlattice la above."""
    return [(relative_position(la, lb), la)
            for la in stable_superlattices(fam, lat, extra_index)]


def eigenpart_span(C, lat, proj):
    """O_E3 * (proj lat) as a full lattice: spanned by proj v and C proj v
    for the basis vectors v of lat."""
    cols = []
    for v in lat.basis.columns():
        w = proj.apply(v)
        cols += [w, C.apply(w)]
    return from_generators(lat.field, cols)


def eigenpart_transfer_factor(pair, l0, l3):
    """Omega(l0, l3, s) = (-1)^a Q^(b-a), a and b the indices of l3 in the
    eigenpart spans of l0 for the projectors of pair.A."""
    projs = pair.Ea.eigen_projectors(pair.A)
    if not all(_is_stable(proj, l0) for proj in projs):
        raise NotStable("first lattice is not stable under the idempotents")
    a, b = (index(l3, eigenpart_span(pair.B, l0, proj)) for proj in projs)
    return OrbitalValue({b - a: -1 if a % 2 else 1})


def unipotent_sum(f, mu, levi, offsets, v_min, field):
    """Sum of f over block-unipotent cosets against diag(pi^mu), every
    entry u_ij of the unipotent running over pi^-w O / O."""
    rank = f.rank
    positions = []
    widths = []
    for bi, b in enumerate(levi):
        for bj in range(bi + 1, len(levi)):
            for i in range(offsets[bi], offsets[bi] + b):
                for j in range(offsets[bj], offsets[bj] + levi[bj]):
                    positions.append((i, j))
                    widths.append(max(0, mu[i] - v_min))
    total = Fraction(0)
    reps = [residues(field, -w, w) for w in widths]
    for combo in itertools.product(*reps):
        rows = [[field.zero] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = field.pi(mu[i]) if mu[i] else field.one
        for (i, j), val in zip(positions, combo):
            if val.coeffs:
                rows[i][j] = val.shift(mu[i])
        total += f.value(smith_exponents(Matrix(field, rows)))
    return total
