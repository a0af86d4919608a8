"""Polynomial factorization over F = F_q((pi)) and square roots in F.

The driver handles monic squarefree polynomials with integral coefficients.
Residue factorization over F_q is by trial division against the (small)
list of monic irreducibles; factors with coprime residues are separated by
linear Hensel lifting (hensel_split), which corrects only the digits where
the product is off and stops as soon as it is exact.  A pure-power residue
is resolved by root shifting plus Newton-polygon segmentation, peeling
the smallest root valuation, or the largest through the reciprocal
polynomial when only that one is integral; quadratics
are decided by a discriminant square test.  Degrees beyond what desk-scale
invariants produce raise FactorFail rather than guessing.

A factor or root is exact only when it reproduces its input exactly;
otherwise its coefficients carry the precision they were lifted to.
"""

from functools import lru_cache

from .errors import FactorFail
from .finitefield import gf
from .linalg import Poly

# -- polynomials over F_q (dense int tuples, low first) ------------------------


def _fq_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fq_add(g, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(g.add(x, y))
    return _fq_strip(out)


def _fq_mul(g, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = g.add(out[i + j], g.mul(x, y))
    return _fq_strip(out)


def _fq_divmod(g, a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = g.inv(b[-1])
    if len(a) - 1 < db:
        return (), _fq_strip(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = g.mul(a[k], inv_lead)
        q[k - db] = c
        if c:
            for i, bc in enumerate(b):
                a[k - db + i] = g.sub(a[k - db + i], g.mul(c, bc))
    return _fq_strip(q), _fq_strip(a[:db])


@lru_cache(maxsize=None)
def _monic_irreducibles(q, max_deg):
    """All monic irreducibles over F_q of degree <= max_deg, by brute search."""
    g = gf(q)
    irr = {1: [(c, 1) for c in range(q)]}
    for d in range(2, max_deg + 1):
        found = []
        for code in range(q**d):
            coeffs = tuple((code // q**i) % q for i in range(d)) + (1,)
            reducible = False
            for dd in range(1, d // 2 + 1):
                for p in irr[dd]:
                    if not _fq_divmod(g, coeffs, p)[1]:
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                found.append(coeffs)
        irr[d] = found
    out = []
    for d in range(1, max_deg + 1):
        out.extend(irr[d])
    return tuple(out)


def fq_factor(g, poly):
    """Factor a monic F_q[T]-polynomial into (irreducible, multiplicity) pairs."""
    q = g.q
    poly = _fq_strip(poly)
    if len(poly) <= 1:
        raise ValueError("constant polynomial")
    inv = g.inv(poly[-1])
    poly = tuple(g.mul(c, inv) for c in poly)
    factors = []
    for p in _monic_irreducibles(q, len(poly) - 1):
        if len(p) > len(poly):
            break
        mult = 0
        while len(poly) >= len(p):
            quot, rem = _fq_divmod(g, poly, p)
            if rem:
                break
            poly = quot
            mult += 1
        if mult:
            factors.append((p, mult))
        if len(poly) == 1:
            break
    assert len(poly) == 1
    return factors


# -- reductions between F[T] and F_q[T] ----------------------------------------


def poly_residue(poly):
    """Reduce an integral F[T]-polynomial modulo pi, as an F_q tuple."""
    out = []
    for c in poly.coeffs:
        if c.coeffs and c.val < 0:
            raise ValueError("polynomial is not integral")
        out.append(c.coeff(0))
    return _fq_strip(out)


def fq_poly_lift(F, coeffs):
    return Poly(F, [F.from_fq(c) for c in coeffs] or [F.zero])


def _min_known(poly):
    return min((c.known_to for c in poly.coeffs), default=None)


# -- Hensel lifting --------------------------------------------------------------


def _fq_bezout(g, a, b):
    """(u, v, d): u*a + v*b = d = gcd, over F_q[T]."""
    r0, r1 = _fq_strip(a), _fq_strip(b)
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _fq_divmod(g, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _fq_add(g, u0, tuple(g.neg(c) for c in _fq_mul(g, q, u1)))
        v0, v1 = v1, _fq_add(g, v0, tuple(g.neg(c) for c in _fq_mul(g, q, v1)))
    inv = g.inv(r0[-1])
    scale = lambda p: tuple(g.mul(c, inv) for c in p)
    return scale(u0), scale(v0), scale(r0)


def hensel_split(poly, res_a):
    """Split monic integral poly as A*B where A lifts the monic residue factor res_a.

    Requires gcd(res_a, residue/res_a) = 1.  Lifts linearly, correcting the
    lowest nonzero digit of poly - A*B at each step, and returns as soon as
    poly - A*B is exactly zero: A and B are then exact.  Otherwise the lift
    stops at the precision available in the coefficients (or the field
    default), target, and every non-leading coefficient of A and B carries
    known_to = target.
    """
    F = poly.ring
    g = F.gf
    res = poly_residue(poly)
    res_b, rem = _fq_divmod(g, res, res_a)
    if rem:
        raise FactorFail("residue factor does not divide the residue")
    u, v, d = _fq_bezout(g, res_a, res_b)
    if len(d) != 1:
        raise FactorFail("residue factors are not coprime")
    known = _min_known(poly)
    target = F.precision if known is None or known > F.precision + 8 else int(known)
    A = fq_poly_lift(F, res_a)
    B = fq_poly_lift(F, res_b)
    while True:
        err = poly - A * B
        if all(c.is_exact_zero for c in err.coeffs):
            return A, B
        # the lowest certified nonzero digit of the error; every digit
        # below it is zero, and a correction at pi^k leaves none at or
        # below pi^k
        k = min((c.val for c in err.coeffs if c.coeffs), default=target)
        if k >= target:
            break
        err_k = _fq_strip([c.coeff(k) if c.known_to > k else 0 for c in err.coeffs])
        da = _fq_divmod(g, _fq_mul(g, v, err_k), res_a)[1]
        db = _fq_divmod(g, _fq_mul(g, u, err_k), res_b)[1]
        A = A + Poly(F, [F.zero if c == 0 else F.element(k, (c,)) for c in da] or [F.zero])
        B = B + Poly(F, [F.zero if c == 0 else F.element(k, (c,)) for c in db] or [F.zero])
    return _truncate_tail(A, target), _truncate_tail(B, target)


def _truncate_tail(f, k):
    """f with every non-leading coefficient certified only below pi^k."""
    return Poly(f.ring, [c.truncate(k) for c in f.coeffs[:-1]] + [f.coeffs[-1]])


# -- square roots -----------------------------------------------------------------


def sqrt_in_F(x):
    """A square root of x in F, or None when none exists.

    Exact inputs give exact outputs when the root terminates within the
    working window; otherwise the root is certified to the available
    relative precision.  At even q an inexact x known modulo pi^k has a
    root known modulo pi^ceil(k/2), an undetermined zero O(pi^k) included;
    at odd q such a zero raises PrecisionExhausted.
    """
    F = x.field
    g = F.gf
    if x.is_exact_zero:
        return F.zero
    if g.p == 2 and not x.coeffs:
        k = (x.known_to + 1) // 2
        return F.element(k, (), k)
    v = x.valuation()
    if v % 2:
        return None
    if g.p == 2:
        # Frobenius: sqrt(sum a_j pi^j) needs all exponents even
        if any(c and (x.val + i) % 2 for i, c in enumerate(x.coeffs)):
            return None
        coeffs = {}
        for i, c in enumerate(x.coeffs):
            if c:
                coeffs[(x.val + i) // 2] = g.sqrt(c)
        lo = min(coeffs)
        hi = max(coeffs)
        vec = [coeffs.get(k, 0) for k in range(lo, hi + 1)]
        know = x.known_to if x.known_to == float("inf") else (x.known_to + 1) // 2
        return F.element(lo, vec, know)
    lead = g.sqrt(x.coeffs[0])
    if lead is None:
        return None
    rel = x.known_to - v if x.known_to != float("inf") else F.precision
    rel = int(min(rel, F.precision + 8))
    u = list(x.coeffs[:rel]) + [0] * max(0, rel - len(x.coeffs))
    out = [lead] + [0] * (rel - 1)
    two_lead_inv = g.inv(g.add(lead, lead))
    for k in range(1, rel):
        s = 0
        for i in range(1, k):
            s = g.add(s, g.mul(out[i], out[k - i]))
        out[k] = g.mul(g.sub(u[k], s), two_lead_inv)
    root = F.element(v // 2, out, float("inf"))
    # certify: exact when the square reproduces x exactly
    if (root * root - x).is_exact_zero:
        return root
    return F.element(v // 2, out, (v // 2) + rel)


# -- Newton polygon ----------------------------------------------------------------


def newton_slopes(poly):
    """Lower-hull slopes of the Newton polygon of a monic F[T]-polynomial.

    Returns a list of (slope_num, slope_den, length) segments, slope =
    num/den in lowest terms, scanning from the constant term to the leading
    term; slopes of the roots are the negatives of textbook conventions
    normalized so that a segment of slope s/1 contains roots of valuation s.
    """
    from math import gcd

    pts = []
    for i, c in enumerate(poly.coeffs):
        if c.coeffs:
            pts.append((i, c.valuation()))
        elif not c.is_exact_zero:
            pts.append((i, None))  # undetermined; only safe if above the hull
    n = poly.degree
    # lower convex hull from (0, v0) to (n, vn); undetermined points must lie above
    known = [(i, v) for i, v in pts if v is not None]
    if known[0][0] != 0:
        raise FactorFail("constant term vanishes (polynomial not squarefree at 0)")
    hull = [known[0]]
    for p in known[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    while len(hull) >= 2 and hull[-1][0] != n:
        hull.pop()
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        num, den = y1 - y2, x2 - x1  # root valuation on this segment
        g_ = gcd(abs(num), den) or 1
        segments.append((num // g_, den // g_, x2 - x1))
    return segments


# -- the factorization driver --------------------------------------------------------


def _make_integral(poly):
    """Substitute T -> pi^-k T to clear denominators; return (poly', k)."""
    F = poly.ring
    worst = 0
    n = poly.degree
    for i, c in enumerate(poly.coeffs[:-1]):
        if c.coeffs:
            v = c.valuation()
            if v < 0:
                # need k with v + k*(n - i) >= 0
                need = (-v + (n - i) - 1) // (n - i)
                worst = max(worst, need)
    if worst == 0:
        return poly, 0
    k = worst
    out = [c.shift(k * (n - i)) for i, c in enumerate(poly.coeffs)]
    return Poly(F, out), k


def hensel_factor(poly, _depth=0):
    """Factor a monic squarefree F[T]-polynomial into monic irreducibles.

    Returns a list of (factor, multiplicity) with multiplicity always 1 for
    squarefree input.  Raises FactorFail when the working precision or the
    implemented Newton-polygon cases cannot separate the factors.
    """
    F = poly.ring
    if not poly.is_monic():
        raise ValueError("monic polynomial required")
    if _depth > F.precision + 16:
        raise FactorFail("factorization did not terminate; raise the precision")
    if poly.degree <= 1:
        return [(poly, 1)]
    work, shift_k = _make_integral(poly)
    if shift_k:
        subfactors = hensel_factor(work, _depth + 1)
        out = []
        for f, m in subfactors:
            d = f.degree
            coeffs = [c.shift(-shift_k * (d - i)) for i, c in enumerate(f.coeffs)]
            out.append((Poly(F, coeffs), m))
        return out
    g = F.gf
    res = poly_residue(poly)
    rfac = fq_factor(g, res) if len(res) > 1 else []
    if len(res) == poly.degree + 1 and len(rfac) > 1:
        # split off the first residue factor group
        p0, m0 = rfac[0]
        part = p0
        for _ in range(m0 - 1):
            part = _fq_mul(g, part, p0)
        A, B = hensel_split(poly, part)
        return hensel_factor(A, _depth + 1) + hensel_factor(B, _depth + 1)
    if len(res) == poly.degree + 1 and len(rfac) == 1 and rfac[0][1] == 1:
        return [(poly, 1)]  # irreducible: irreducible residue of full degree
    # residue is a power of a single irreducible (or degenerate)
    if poly.degree == 2:
        return _factor_quadratic(poly)
    if len(res) == poly.degree + 1 and rfac and len(rfac[0][0]) > 2:
        raise FactorFail(
            "ramified factor over a nontrivial residue extension: unsupported degree")
    # residue = (T - a)^e; shift the root to 0
    if len(res) == poly.degree + 1:
        a = rfac[0][0][0]  # constant coeff of (T - (-a))...
        root = g.neg(a)
        if root:
            shifted = poly.shift_variable(F.from_fq(root))
            out = []
            for f, m in hensel_factor(shifted, _depth + 1):
                out.append((f.shift_variable(-F.from_fq(root)), m))
            return out
    # now all non-leading coefficients have positive valuation; the last
    # Newton segment carries the roots of smallest valuation
    segs = newton_slopes(poly)
    num, den, length = segs[-1]
    if len(segs) == 1 and den == length:
        return [(poly, 1)]  # single slope in lowest terms: irreducible
    if den != 1:
        if len(segs) == 1:
            raise FactorFail(
                "mixed ramification on a single segment: unsupported degree")
        if segs[0][1] != 1:
            raise FactorFail("non-integral smallest and largest root valuations "
                             "with multiple segments: unsupported")
        # the largest root valuation is integral, and it is the negated
        # smallest root valuation of the reciprocal polynomial
        return [(_reciprocal(f), m)
                for f, m in hensel_factor(_reciprocal(poly), _depth + 1)]
    # integral smallest root valuation w: substitute T = pi^w S, which
    # leaves a root of valuation 0 and so a residue with a nonzero root
    w = num
    n = poly.degree
    coeffs = [c.shift(-w * n + w * i) for i, c in enumerate(poly.coeffs)]
    sub = Poly(F, coeffs)
    out = []
    for f, m in hensel_factor(sub, _depth + 1):
        d = f.degree
        back = Poly(F, [c.shift(w * (d - i)) for i, c in enumerate(f.coeffs)])
        out.append((back, m))
    return out


def _reciprocal(poly):
    """The monic polynomial whose roots are the inverses of poly's."""
    return Poly(poly.ring, reversed(poly.coeffs)).force_monic()


def _factor_quadratic(poly):
    """Complete factorization decision for monic quadratics."""
    F = poly.ring
    g = F.gf
    c0, c1, _ = poly.coeffs
    if g.p != 2:
        two_inv = F.from_int(2).inv()
        disc = c1 * c1 - F.from_int(4) * c0
        if disc.is_exact_zero:
            half = -(c1 * two_inv)
            lin = Poly(F, [-half, F.one])
            return [(lin, 2)]
        root = sqrt_in_F(disc)
        if root is None:
            return [(poly, 1)]
        r1 = (-c1 + root) * two_inv
        r2 = (-c1 - root) * two_inv
        return [(Poly(F, [-r1, F.one]), 1), (Poly(F, [-r2, F.one]), 1)]
    # char 2: T^2 + c1 T + c0
    if c1.is_exact_zero:
        root = sqrt_in_F(c0)
        if root is None:
            return [(poly, 1)]
        lin = Poly(F, [root, F.one])  # (T - root)^2 = T^2 + root^2
        return [(lin, 2)]
    # substitute T = c1*S: S^2 + S + c0/c1^2, Artin-Schreier form
    c1inv = c1.inv()
    a = c0 * c1inv * c1inv
    sol = _artin_schreier_root(F, a)
    if sol is None:
        return [(poly, 1)]
    r1 = c1 * sol
    r2 = r1 + c1
    return [(Poly(F, [r1, F.one]), 1), (Poly(F, [r2, F.one]), 1)]


def _artin_schreier_root(F, a):
    """Root of S^2 + S + a = 0 in F (char 2), or None.

    Solvable iff a can be written x^2 + x; digits are solved from the bottom.
    Requires val(a) >= 0 after reduction; negative odd valuation is unsolvable,
    negative even valuation is shifted out recursively.  The root is exact
    only when S^2 + S + a is exactly zero; otherwise it is certified below
    pi^rel, the digits solved: a's known_to, or the field default when a is
    exact, and at most the field default + 8.
    """
    g = F.gf
    if a.is_exact_zero:
        return F.zero
    v = a.valuation()
    if v < 0:
        if v % 2:
            return None
        # S = pi^(v/2) * lead-adjusted + lower order: solve greedily
        lead = g.sqrt(a.coeffs[0])
        shift = F.element(v // 2, (lead,))
        rest = a + shift * shift + shift
        sub = _artin_schreier_root(F, rest)
        if sub is None:
            return None
        return shift + sub
    # integral a: solve digit by digit; S = sum s_k pi^k
    rel = a.known_to if a.known_to != float("inf") else F.precision
    rel = int(min(rel, F.precision + 8))
    s = F.zero
    cur = a
    for k in range(rel):
        ck = cur.coeff(k) if cur.known_to > k else 0
        if ck == 0:
            continue
        if k == 0:
            # s0^2 + s0 = c0 in F_q
            s0 = None
            for cand in range(g.q):
                if g.add(g.mul(cand, cand), cand) == ck:
                    s0 = cand
                    break
            if s0 is None:
                return None
            term = F.from_fq(s0)
        else:
            term = F.element(k, (ck,))
        s = s + term
        cur = a + s * s + s
    # every digit past the residue one is solvable, so only the digits
    # from rel on are left open
    return s if cur.is_exact_zero else s.truncate(rel)


# -- polynomial gcd and Bezout coefficients over F ----------------------------------


def poly_bezout(a, b):
    """(u, v, g) with u*a + v*b = g, the monic gcd of a and b over F, by the
    Euclidean algorithm (valuation-certified leads)."""
    F = a.ring
    r0, r1 = a, b
    u0, u1 = Poly(F, [F.one]), Poly(F, [F.zero])
    v0, v1 = Poly(F, [F.zero]), Poly(F, [F.one])
    while not r1.is_zero():
        li = r1.coeffs[-1].inv()
        q, r = r0.monic_divmod(r1.force_monic())
        q = Poly(F, [c * li for c in q.coeffs])
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    ci = r0.coeffs[-1].inv()
    return (Poly(F, [x * ci for x in u0.coeffs]),
            Poly(F, [x * ci for x in v0.coeffs]), r0.force_monic())


def poly_gcd(a, b):
    """Monic gcd over F."""
    return poly_bezout(a, b)[2]
