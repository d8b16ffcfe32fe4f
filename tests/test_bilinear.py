"""The bilinear extension shared by every product, composition and
operator application, and the rule that zero coefficients are never stored.

Exact cancellations check the rule on every result path; a small
property-based test compares the three product routes on random rational
elements and checks bilinearity with a scalar that is not a unit.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from malcev5 import (
    Operator,
    UElement,
    compose,
    l_of_monomial,
    mul_a,
    mul_u,
    mul_u_oracle,
    parse_element,
    project,
)


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
    lx = sum((c * l_of_monomial(m) for m, c in x.terms.items()), Operator.zero())
    assert lx.apply(y) == xy
    assert project(xy) == mul_a(project(x), project(y))
    assert_no_zero_stored(xy)
    assert mul_u(x + s * y, z) == mul_u(x, z) + s * mul_u(y, z)
    assert mul_u(x, y + s * z) == xy + s * mul_u(x, z)
    px, py, pz = project(x), project(y), project(z)
    assert mul_a(px + s * py, pz) == mul_a(px, pz) + s * mul_a(py, pz)
    assert mul_a(px, py + s * pz) == mul_a(px, py) + s * mul_a(px, pz)
