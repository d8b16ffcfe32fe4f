"""Tests for the alternative quotient and its closed multiplication rule."""

import itertools
import random
from fractions import Fraction

import pytest

from malcev5.core import UElement, bracket_m, MalcevVector
from malcev5.alternative import (
    AElement,
    associator_a,
    in_ideal_j,
    is_type1,
    is_type2,
    mul_a,
    project,
    type2_associator_closed,
)
from malcev5.envelope import associator_u, mul_u

rng = random.Random(7741)

U = UElement.from_monomial
A = AElement.from_monomial


def rand_a_element(max_exp=2, nterms=3):
    terms = {}
    while len(terms) < nterms:
        mono = (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, 1),
        )
        if in_ideal_j(mono):
            continue
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return AElement(terms)


# ---------------------------------------------------------------------------
# the ideal and the surviving basis


def test_ideal_membership():
    assert in_ideal_j((0, 0, 1, 0, 1))  # ce
    assert in_ideal_j((0, 0, 0, 0, 2))  # e^2
    assert in_ideal_j((1, 1, 2, 0, 1))
    assert not in_ideal_j((0, 0, 0, 0, 1))  # e survives
    assert not in_ideal_j((1, 1, 0, 1, 1))  # abde survives
    assert not in_ideal_j((1, 1, 3, 2, 0))  # no e at all


def test_type_split():
    # every monomial outside the ideal is exactly one of the two shapes
    for mono in itertools.product(range(3), range(3), range(3), range(3), range(3)):
        if in_ideal_j(mono):
            assert not is_type1(mono) and not is_type2(mono)
        else:
            assert is_type1(mono) != is_type2(mono)
    assert is_type1((2, 1, 0, 3, 1))
    assert is_type2((2, 1, 4, 3, 0))
    assert is_type2((0, 0, 0, 0, 0))


def test_aelement_rejects_ideal_monomials():
    with pytest.raises(ValueError):
        AElement({(0, 0, 1, 0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        A((0, 0, 0, 0, 2))


def test_projection():
    x = U((1, 1, 0, 0, 0)) - Fraction(1, 6) * U((0, 0, 1, 0, 1)) + U((0, 0, 0, 0, 2))
    assert project(x) == A((1, 1, 0, 0, 0))
    assert project(UElement.zero()) == AElement.zero()
    assert str(project(Fraction(-1, 6) * U((0, 0, 1, 0, 1)))) == "0"


def test_projection_is_linear():
    for _ in range(20):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(5)): Fraction(rng.randint(-4, 4))
            for _ in range(4)
        }
        x, y = UElement(terms), UElement({m: c + 1 for m, c in terms.items()})
        assert project(x + y) == project(x) + project(y)


# ---------------------------------------------------------------------------
# multiplication


def test_mul_projects_the_envelope_product():
    # the quotient map is an algebra homomorphism
    count = 0
    for x in itertools.product(range(2), range(2), range(2), range(2), range(2)):
        if in_ideal_j(x):
            continue
        for y in itertools.product(range(2), range(2), range(2), range(2), range(2)):
            if in_ideal_j(y):
                continue
            got = mul_a(A(x), A(y))
            want = project(mul_u(U(x), U(y)))
            assert got == want, (x, y)
            count += 1
    assert count == 576  # 24 surviving monomials with exponents <= 1


def test_type1_products_vanish():
    for x in [(0, 0, 0, 0, 1), (1, 0, 0, 1, 1), (2, 1, 0, 0, 1)]:
        for y in [(0, 0, 0, 0, 1), (0, 1, 0, 2, 1)]:
            assert not mul_a(A(x), A(y))


def test_generator_products_frozen():
    b, a = A((0, 1, 0, 0, 0)), A((1, 0, 0, 0, 0))
    assert mul_a(b, a) == A((1, 1, 0, 0, 0)) - A((0, 0, 1, 0, 0))
    d, c = A((0, 0, 0, 1, 0)), A((0, 0, 1, 0, 0))
    assert mul_a(d, c) == A((0, 0, 1, 1, 0)) - A((0, 0, 0, 0, 1))


def test_correction_term_frozen():
    # b * (ad): the mu-sum alone would give abd - cd; the closed rule adds e/3
    b, ad = A((0, 1, 0, 0, 0)), A((1, 0, 0, 1, 0))
    assert mul_a(b, ad) == A((1, 1, 0, 1, 0)) - A((0, 0, 1, 1, 0)) + Fraction(1, 3) * A(
        (0, 0, 0, 0, 1)
    )


def test_mixed_type_products():
    e = A((0, 0, 0, 0, 1))
    assert mul_a(A((0, 1, 0, 0, 0)), e) == A((0, 1, 0, 0, 1))  # b * e
    assert not mul_a(A((0, 0, 1, 0, 0)), e)  # c * e dies in the ideal
    assert mul_a(e, A((0, 0, 0, 1, 0))) == A((0, 0, 0, 1, 1))  # e * d
    assert not mul_a(e, A((1, 0, 1, 0, 0)))  # e * ac


def test_mul_bilinear():
    for _ in range(20):
        x, y, z = rand_a_element(), rand_a_element(), rand_a_element()
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert mul_a(x + y, z) == mul_a(x, z) + mul_a(y, z)
        assert mul_a(x, s * y) == s * mul_a(x, y)


def test_one_is_identity():
    x = rand_a_element()
    assert mul_a(AElement.one(), x) == x
    assert mul_a(x, AElement.one()) == x


# ---------------------------------------------------------------------------
# alternativity


def test_alternative_laws_random():
    for _ in range(60):
        x, y = rand_a_element(), rand_a_element()
        assert not associator_a(x, x, y)  # left alternative
        assert not associator_a(x, y, y)  # right alternative
        assert not associator_a(x, y, x)  # flexible


def test_associator_alternates():
    for _ in range(30):
        x, y, z = rand_a_element(1), rand_a_element(1), rand_a_element(1)
        axyz = associator_a(x, y, z)
        assert associator_a(y, x, z) == -axyz
        assert associator_a(x, z, y) == -axyz
        assert associator_a(z, y, x) == -axyz


def test_envelope_witnesses_die_in_quotient():
    abd = U((1, 1, 0, 1, 0))
    assert not project(associator_u(abd, abd, abd))
    ab, d = U((1, 1, 0, 0, 0)), U((0, 0, 0, 1, 0))
    assert not project(associator_u(ab, ab, d))


def test_generator_associator_frozen():
    a, b, d = (AElement.from_letter(t) for t in "abd")
    e = A((0, 0, 0, 0, 1))
    assert associator_a(a, b, d) == Fraction(1, 6) * e
    assert associator_a(b, a, d) == Fraction(-1, 6) * e
    assert not associator_a(a, b, A((0, 0, 1, 0, 0)))


def test_type1_slot_kills_associator():
    t1 = [A((0, 0, 0, 0, 1)), A((1, 0, 0, 1, 1)), A((0, 2, 0, 0, 1))]
    t2 = [A((1, 0, 0, 0, 0)), A((0, 1, 1, 2, 0))]
    for u in t1:
        for x in t2:
            for y in t2:
                assert not associator_a(u, x, y)
                assert not associator_a(x, u, y)
                assert not associator_a(x, y, u)


def test_type2_associator_closed_form():
    t2 = [m + (0,) for m in itertools.product(range(2), repeat=4)]
    for x in t2:
        for y in t2:
            for z in t2:
                got = type2_associator_closed(x, y, z)
                want = associator_a(A(x), A(y), A(z))
                assert got == want, (x, y, z)


def test_type2_associator_closed_random():
    for _ in range(150):
        x, y, z = (
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), 0)
            for _ in range(3)
        )
        assert type2_associator_closed(x, y, z) == associator_a(A(x), A(y), A(z))


def test_type2_associator_closed_rejects_type1():
    with pytest.raises(ValueError):
        type2_associator_closed((0, 0, 0, 0, 1), (1, 0, 0, 0, 0), (1, 0, 0, 0, 0))


def test_associator_value_needs_all_c_free():
    # the sextuple numerator only fires when no argument carries c
    x, y, z = (1, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 1, 0)
    assert associator_a(A(x), A(y), A(z))
    xc = (1, 0, 1, 1, 0)
    assert not associator_a(A(xc), A(y), A(z))


# ---------------------------------------------------------------------------
# speciality


def test_quotient_commutators_match_base_brackets():
    for f in "abcde":
        for g in "abcde":
            xf, xg = AElement.from_letter(f), AElement.from_letter(g)
            got = mul_a(xf, xg) - mul_a(xg, xf)
            want = project(bracket_m(MalcevVector.basis(f), MalcevVector.basis(g)).u_element())
            assert got == want
