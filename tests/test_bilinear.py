"""The bilinear extension shared by every product, composition and
operator application, and the rule that zero coefficients are never stored.

Exact cancellations check the rule on every result path; a small
property-based test compares the three product routes on random rational
elements and checks bilinearity with a scalar that is not a unit.  The
fused sums of products are checked against their one-pair products over
every kernel, and the closed kernel's memo against mutation through the
dicts it returns.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from malcev5 import (
    AElement,
    MalcevVector,
    Operator,
    UElement,
    associator_a,
    associator_u,
    bracket_a,
    bracket_m,
    bracket_u,
    compose,
    embed,
    jacobian_u,
    l_of_monomial,
    mul_a,
    mul_u,
    mul_u_oracle,
    parse_element,
    project,
    rho,
)
from malcev5.alternative import _mul_a_mono, in_ideal_j
from malcev5.core import _bilinear
from malcev5.diffops import _apply_word, _compose_words
from malcev5.envelope import _closed_class, _closed_terms, bracket_u_oracle, mul_u_closed


def assert_no_zero_stored(el):
    assert all(coeff != 0 for coeff in el.terms.values()), repr(el)


# ---------------------------------------------------------------------------
# exact cancellations


def test_products_cancel_ab():
    # (a + b)(b - a) = ab - a^2 + b^2 - (ab - c): the ab terms cancel
    x, y = parse_element("a + b"), parse_element("b - a")
    want = parse_element("-a^2 + b^2 + c")
    for mul in (mul_u, mul_u_oracle):
        got = mul(x, y)
        assert got == want
        assert_no_zero_stored(got)
    got = mul_a(project(x), project(y))
    assert got == project(want)
    assert str(got) == "-a^2 + b^2 + c"
    assert_no_zero_stored(got)


def test_apply_cancels_to_zero():
    op = Operator.mul_by("a") @ Operator.deriv("a") - Operator.identity()
    got = op.apply(UElement.from_letter("a"))
    assert got == UElement.zero()
    assert got.terms == {}


def test_compose_cancels_the_identity_word():
    # D_a M_a = M_a D_a + 1, and -1 * 1 takes the identity word away again
    f = Operator.deriv("a") - Operator.identity()
    g = Operator.mul_by("a") + Operator.identity()
    got = compose(f, g)
    want = Operator.mul_by("a") @ Operator.deriv("a") + Operator.deriv("a") - Operator.mul_by("a")
    assert got == want
    assert str(got) == "M_a D_a - M_a + D_a"
    assert_no_zero_stored(got)


def test_construction_and_subtraction_cancel():
    m = (1, 0, 2, 0, 0)
    assert UElement([(m, 1), (m, -1)]).terms == {}
    x = parse_element("1/2 ab - c + 3")
    assert (x - x).terms == {}
    assert (x + -x).terms == {}


# ---------------------------------------------------------------------------
# typed entry points: _bilinear takes any element, so each product checks

UA, UCE = UElement.from_letter("a"), UElement.from_monomial((0, 0, 1, 0, 1))
AA, AC = AElement.from_letter("a"), AElement.from_letter("c")
WRONG_OPERANDS = {
    "mul_u": (lambda: mul_u(UA, AA), "UElement"),
    "bracket_u": (lambda: bracket_u(AA, UA), "UElement"),
    "associator_u": (lambda: associator_u(UA, UA, AA), "UElement"),
    "jacobian_u": (lambda: jacobian_u(UA, AA, UA), "UElement"),
    "mul_u_oracle": (lambda: mul_u_oracle(AA, UA), "UElement"),
    "bracket_u_oracle": (lambda: bracket_u_oracle(AC, "d"), "UElement"),
    "mul_a": (lambda: mul_a(UCE, UA), "AElement"),
    "bracket_a": (lambda: bracket_a(AA, UA), "AElement"),
    "associator_a": (lambda: associator_a(AA, AA, UA), "AElement"),
    "Operator.apply": (lambda: rho("d").apply(AC), "UElement"),
    "compose": (lambda: compose(rho("d"), UA), "Operator"),
    "project": (lambda: project(AC), "UElement"),
    "bracket_m": (lambda: bracket_m(MalcevVector.basis("a"), AA), "MalcevVector"),
    "embed": (lambda: embed(UA), "MalcevVector"),
}


@pytest.mark.parametrize("call, expected", WRONG_OPERANDS.values(), ids=WRONG_OPERANDS)
def test_products_reject_operands_of_the_wrong_class(call, expected):
    with pytest.raises(TypeError, match=f"expected {expected}, got "):
        call()


# ---------------------------------------------------------------------------
# the product routes on random rational elements

MONOMIALS = [m for m in product(range(4), repeat=5) if sum(m) <= 3]
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
elements = st.dictionaries(
    st.sampled_from(MONOMIALS), coefficients, min_size=1, max_size=4
).map(UElement)
scalars = coefficients.filter(lambda q: q not in (1, -1))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(x=elements, y=elements, z=elements, s=scalars)
def test_product_routes_and_bilinearity(x, y, z, s):
    xy = mul_u(x, y)
    assert xy == mul_u_oracle(x, y)
    for ch in "abcde":
        assert bracket_u_oracle(x, ch) == bracket_u(x, UElement.from_letter(ch))
    lx = sum((c * l_of_monomial(m) for m, c in x.terms.items()), Operator.zero())
    assert lx.apply(y) == xy
    assert project(xy) == mul_a(project(x), project(y))
    assert_no_zero_stored(xy)
    assert mul_u(x + s * y, z) == mul_u(x, z) + s * mul_u(y, z)
    assert mul_u(x, y + s * z) == xy + s * mul_u(x, z)
    px, py, pz = project(x), project(y), project(z)
    assert bracket_a(px, py) == mul_a(px, py) - mul_a(py, px)
    assert mul_a(px + s * py, pz) == mul_a(px, pz) + s * mul_a(py, pz)
    assert mul_a(px, py + s * pz) == mul_a(px, py) + s * mul_a(px, pz)


# ---------------------------------------------------------------------------
# fused sums of products over every kernel

QUOTIENT = [m for m in MONOMIALS if not in_ideal_j(m)]
WORDS = [(mul, der) for mul in product(range(2), repeat=5) for der in product(range(3), repeat=4)
         if sum(mul) + sum(der) <= 3]


def sparse(cls, keys, max_size=3):
    keys = st.sampled_from(keys)
    return st.dictionaries(keys, coefficients, min_size=1, max_size=max_size).map(cls)


# kernel -> (left operand, right operand)
KERNELS = {
    "closed": (_closed_terms, (UElement, MONOMIALS), (UElement, MONOMIALS)),
    "quotient": (_mul_a_mono, (AElement, QUOTIENT), (AElement, QUOTIENT)),
    "apply": (_apply_word, (UElement, MONOMIALS), (Operator, WORDS)),
    "compose": (_compose_words, (Operator, WORDS), (Operator, WORDS)),
}


def assert_canonical(el):
    """No zero numerator, a positive reduced denominator, 1 for zero."""
    assert all(el._num.values()), repr(el)
    assert el._den > 0 and math.gcd(el._den, *el._num.values()) == 1, repr(el)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(KERNELS)), data=st.data())
def test_fused_sum_is_the_sum_of_its_products(name, data):
    kernel, left, right = KERNELS[name]
    pair = st.tuples(st.integers(-3, 3), sparse(*left), sparse(*right))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    if data.draw(st.booleans()):  # take one pair back, so that its terms cancel
        sign, x, y = pairs[0]
        pairs.append((-sign, x, y))
    got = _bilinear(kernel, *pairs)
    want = sum((sign * _bilinear(kernel, (1, x, y)) for sign, x, y in pairs), type(got).zero())
    assert got == want
    assert_canonical(got)


def test_zero_products_have_denominator_one():
    # D_b kills a, type 1 times type 1 is zero, and a zero sign: den 1 each time
    half_a = UElement({(1, 0, 0, 0, 0): Fraction(1, 2)})
    zeros = [
        _bilinear(_apply_word, (1, half_a, Operator.deriv("b"))),
        _bilinear(_mul_a_mono, (1, AElement({(0, 0, 0, 0, 1): Fraction(2, 3)}),
                                AElement.from_letter("e"))),
        _bilinear(_closed_terms, (0, half_a, UElement.from_letter("b"))),
    ]
    for got in zeros:
        assert (got._den, got._num) == (1, {})


def test_closed_kernel_product_leaves_the_memo_intact():
    # the memo entry holds tuples only, and every _closed_terms call decodes
    # it into a dict of its own, so no product can reach the cached sum
    x, y = (1, 1, 0, 1, 0), (0, 1, 1, 1, 0)
    entry = _closed_class(x, y)
    assert all(type(part) is tuple for part in entry[2:])
    den, first = _closed_terms(x, y)
    before = dict(first)
    assert den != 1 and len(first) > 1
    second = _closed_terms(x, y)[1]
    assert second == first and second is not first
    first[next(iter(first))] += 1
    first[(9, 9, 9, 9, 9)] = 1
    assert _closed_terms(x, y) == (den, before) and _closed_class(x, y) == entry
    p = mul_u_closed(x, y)
    q = UElement({(0, 0, 0, 0, 1): Fraction(1, 5), next(iter(before)): 7})
    results = [
        p + p, p + q, q + p, p - p, p - q, q - p, -p, 3 * p, p * Fraction(2, 3), 0 * p,
        project(p), p == q, p == p, hash(p), str(p), repr(p), dict(p.terms),
        mul_u(2 * UElement.from_monomial(x), UElement.from_monomial(y)), mul_u(p, p.one()),
    ]
    assert _closed_terms(x, y) == (den, before)
    assert p._num == before and results[3] == UElement.zero()
