import math

import pytest
from hypothesis import given, settings, strategies as st

from fflab.errors import DivisionByZero, PrecisionExhausted
from fflab.localfield import INF, FieldElement, LocalField


F = LocalField(3)


def rand_element(draw_val, coeffs):
    return F.element(draw_val, coeffs)


small_elements = st.builds(
    rand_element,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=5),
)


def test_inv_geometric_series():
    x = F.one - F.pi()
    xi = x.inv()
    # 1 + pi + pi^2 + ... up to the working precision
    assert xi.val == 0
    assert all(c == 1 for c in xi.coeffs)
    assert xi.known_to == F.precision
    assert (x * xi).same(F.one)


def test_valuation_examples():
    assert (F.pi(3) + F.pi(5)).valuation() == 3
    assert (F.pi(-1) * F.pi(1)) == F.one
    assert F.zero.valuation() == INF


def test_exact_zero_vs_inexact_zero():
    o = F.o_term(7)
    assert o.is_zeroish and not o.is_exact_zero
    with pytest.raises(PrecisionExhausted):
        o.valuation()
    with pytest.raises(PrecisionExhausted):
        o.inv()
    with pytest.raises(DivisionByZero):
        F.zero.inv()


def test_precision_never_inflated():
    x = F.element(0, [1, 2], known_to=5)
    y = F.element(0, [2], known_to=9)
    assert (x + y).known_to == 5
    assert (x * y).known_to == 5
    # multiplication by a positive-valuation element raises the bound
    z = F.element(2, [1], known_to=9)
    assert (x * z).known_to == 7


def test_reduce_mod_is_exact():
    x = F.element(-1, [1, 0, 2, 1], known_to=10)
    r = x.reduce_mod(2)
    assert r.is_exact
    assert r.val == -1 and r.coeffs == (1, 0, 2)
    with pytest.raises(PrecisionExhausted):
        x.reduce_mod(11)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).same(a + (b + c))
    assert (a + b).same(b + a)
    assert ((a * b) * c).same(a * (b * c))
    assert (a * (b + c)).same(a * b + a * c)


@settings(max_examples=40, deadline=None)
@given(small_elements, small_elements)
def test_valuation_multiplicative(a, b):
    if a.coeffs and b.coeffs:
        assert (a * b).valuation() == a.valuation() + b.valuation()


@settings(max_examples=40, deadline=None)
@given(small_elements)
def test_inverse_roundtrip(a):
    if a.coeffs:
        assert (a * a.inv()).same(F.one)


def test_serialization_generator_exponents():
    x = F.element(2, [2, 1])
    j = x.to_json()
    g = F.gf
    assert j["terms"] == [[2, g.log(2)], [3, 0]]
    assert j["known_to"] is None


def test_even_q_field():
    F4 = LocalField(4)
    g = F4.gf
    a = F4.from_fq(g.generator)
    assert (a * a * a).same(F4.one)  # generator of F_4^x has order 3
    assert (a + a).is_exact_zero    # characteristic 2


# -- the digit loops that products and inverses replaced, as oracles ----------


def reference_mul(a, b):
    """Schoolbook digit convolution, the product before packed products."""
    f = a.field
    if a.is_exact_zero or b.is_exact_zero:
        return f.zero
    # lower bound for the valuation of the product
    if a.coeffs and b.coeffs:
        know = min(a.val + b.known_to, b.val + a.known_to)
        va = a.val + b.val
        g = f.gf
        n = len(a.coeffs) + len(b.coeffs) - 1
        if know != INF:
            n = min(n, know - va)
        out = [0] * n
        add, mul = g.add_table, g.mul_table
        for i, ca in enumerate(a.coeffs):
            if ca and i < n:
                row = mul[ca]
                for j, cb in enumerate(b.coeffs):
                    if cb and i + j < n:
                        out[i + j] = add[out[i + j]][row[cb]]
        return FieldElement(f, va, out, know)
    know = min(a.val + b.known_to, b.val + a.known_to)
    return FieldElement(f, know, (), know)


def reference_inv(x):
    """The inverse recurrence with its inner sum running to k."""
    if x.is_exact_zero:
        raise DivisionByZero("inverse of exact zero")
    if not x.coeffs:
        raise PrecisionExhausted(
            f"inverse of O(pi^{x.known_to}): nonzero not detectable")
    f, g = x.field, x.field.gf
    v = x.val
    if len(x.coeffs) == 1 and x.known_to == INF:
        return FieldElement(f, -v, (g.inv(x.coeffs[0]),), INF)
    # relative precision available for the unit part
    rel = x.known_to - v if x.known_to != INF else f.precision
    rel = int(min(rel, f.precision + 8))
    u = list(x.coeffs[:rel]) + [0] * max(0, rel - len(x.coeffs))
    inv0 = g.inv(u[0])
    out = [inv0] + [0] * (rel - 1)
    add, mul = g.add_table, g.mul_table
    for k in range(1, rel):
        # coefficient k of u * out must vanish
        s = 0
        for i in range(1, k + 1):
            if i < len(u) and u[i]:
                s = add[s][mul[u[i]][out[k - i]]]
        out[k] = mul[g.neg(s)][inv0]
    return FieldElement(f, -v, out, rel - v)


QS = (2, 3, 4, 5, 7, 8, 9)
# precision 90 lets an exact operand's inverse run to 98 digits
WIDE = {q: LocalField(q, 90) for q in QS}


@st.composite
def series(draw, field, zeros=True):
    """An exact, truncated or (with zeros) O(pi^k) element of up to 90 digits."""
    val = draw(st.integers(min_value=-5, max_value=5))
    kinds = ("exact", "truncated", "o_term") if zeros else ("exact", "truncated")
    kind = draw(st.sampled_from(kinds))
    if kind == "o_term":
        return field.o_term(val)
    n = draw(st.integers(min_value=1, max_value=90))
    digit = st.integers(min_value=0, max_value=field.q - 1)
    top = st.just(field.q - 1)
    digits = draw(st.lists(st.one_of(digit, top), min_size=n, max_size=n))
    digits[0] = draw(st.integers(min_value=1, max_value=field.q - 1))
    known = INF if kind == "exact" else val + draw(st.integers(min_value=1, max_value=100))
    return field.element(val, digits, known)


@st.composite
def operands(draw, count, zeros=True):
    field = WIDE[draw(st.sampled_from(QS))]
    return [draw(series(field, zeros)) for _ in range(count)]


@settings(max_examples=120, deadline=None)
@given(operands(2))
def test_product_matches_digit_convolution(pair):
    a, b = pair
    assert (a * b).key() == reference_mul(a, b).key()
    assert (b * a).key() == reference_mul(b, a).key()


@pytest.mark.parametrize("q", QS)
def test_product_at_slot_width_bounds(q):
    # all-top digits reach the largest slot value at every length, on both
    # sides of each slot width's bound
    field = WIDE[q]
    for n in (2, 7, 8, 15, 16, 31, 32, 63, 64, 85, 86, 127, 128, 256):
        a = field.element(0, [q - 1] * n)
        b = field.element(-2, [q - 1] * (n // 2 + 1), known_to=n)
        for x, y in ((a, a), (a, b), (b, b)):
            assert (x * y).key() == reference_mul(x, y).key()
    # 2,000 digits take 3-byte slots at q = 7; a sparse operand keeps the
    # reference loop short
    a = field.element(0, [q - 1] * 2000)
    b = field.element(1, [1] + [0] * 1998 + [q - 1])
    assert (a * b).key() == reference_mul(a, b).key()


@settings(max_examples=80, deadline=None)
@given(operands(1, zeros=False))
def test_inverse_matches_recurrence(one):
    (x,) = one
    assert x.inv().key() == reference_inv(x).key()


@settings(max_examples=80, deadline=None)
@given(operands(1, zeros=False))
def test_unit_inverse_is_the_inverse_shifted(one):
    # _hermite and _smith take the inverse of a pivot's unit part this way
    (x,) = one
    a = x.valuation()
    assert x.shift(-a).inv().key() == x.inv().shift(a).key()
