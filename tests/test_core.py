"""Tests for the base Malcev algebra and the shared sparse-element machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from malcev5 import alternative, core, diffops, envelope
from malcev5.core import (
    LETTERS,
    ONE,
    MalcevVector,
    UElement,
    binomial,
    bracket_m,
    clear_memos,
    degree,
    falling_factorial,
    format_monomial,
    format_terms,
    jacobian_m,
    letter_monomial,
    monomial,
    multinomial,
    term_key,
)

rng = random.Random(20240517)


def rand_vector():
    return MalcevVector(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)))


# ---------------------------------------------------------------------------
# combinatorics


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, 1) == 0


def test_falling_factorial():
    assert falling_factorial(7, 3) == 7 * 6 * 5
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 5) == 0


def test_multinomial_values():
    assert multinomial(6, (2, 2)) == 90  # 6!/(2!2!2!)
    assert multinomial(4, (4,)) == 1
    assert multinomial(4, (0, 0)) == 1


def test_multinomial_vanishes_when_parts_exceed_total():
    assert multinomial(3, (2, 2)) == 0


def test_multinomial_matches_factorial_ratio():
    import math

    for _ in range(50):
        n = rng.randint(0, 8)
        k1 = rng.randint(0, n)
        k2 = rng.randint(0, n - k1)
        expected = math.factorial(n) // (
            math.factorial(k1) * math.factorial(k2) * math.factorial(n - k1 - k2)
        )
        assert multinomial(n, (k1, k2)) == expected


# ---------------------------------------------------------------------------
# monomials


def test_monomial_roundtrip():
    assert monomial(1, 0, 2, 0, 3) == (1, 0, 2, 0, 3)
    assert monomial(0, 0, 0, 0, 0) == ONE


def test_monomial_rejects_negative():
    with pytest.raises(ValueError):
        monomial(0, -1, 0, 0, 0)


def test_letter_monomial():
    assert letter_monomial("a") == (1, 0, 0, 0, 0)
    assert letter_monomial("e") == (0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        letter_monomial("f")


def test_degree():
    assert degree(ONE) == 0
    assert degree((1, 1, 0, 2, 0)) == 4


def test_term_key_orders_by_degree_then_lex():
    # graded order: total degree first, exponent tuple breaks ties
    assert term_key((0, 0, 0, 0, 1)) < term_key((2, 0, 0, 0, 0))
    assert term_key((0, 1, 0, 0, 0)) < term_key((1, 0, 0, 0, 0))


def test_format_monomial():
    assert format_monomial(ONE) == "1"
    assert format_monomial((1, 1, 0, 2, 0)) == "abd^2"
    assert format_monomial((0, 0, 3, 0, 1)) == "c^3e"


def test_format_monomial_shows_negative_exponents():
    # the constructors reject a negative exponent, but a key built past them
    # (_make) can carry one, and a counterexample must tell it from zero
    assert format_monomial((-1, 0, 0, 0, 1)) == "a^-1e"
    assert format_monomial((0, 2, -3, 0, 0)) == "b^2c^-3"
    shifted = UElement._make(1, {(0, 0, 1, 1, 0): 1, (-1, 0, 0, 0, 1): -1})
    assert str(shifted) == "cd - a^-1e"  # not "cd - e"


def test_format_terms_golden():
    # coefficients arrive as str(Fraction) writes them
    terms = {
        (1, 1, 1, 2, 1): "1/6",
        (1, 1, 0, 1, 2): "-1/6",
        (0, 0, 2, 2, 1): "-1/6",
        (0, 0, 1, 1, 2): "11/36",
        (0, 0, 0, 0, 3): "-1/12",
    }
    want = "1/6 abcd^2e - 1/6 abde^2 - 1/6 c^2d^2e + 11/36 cde^2 - 1/12 e^3"
    assert format_terms(sorted(terms.items(), key=lambda t: term_key(t[0]), reverse=True)) == want


def test_format_terms_unit_coefficients():
    pair = [((1, 1, 0, 0, 0), "1"), ((0, 0, 1, 0, 0), "-1")]
    assert format_terms(pair) == "ab - c"
    assert format_terms([(ONE, "-2")]) == "-2"
    assert format_terms([(ONE, "1")]) == "1"
    assert format_terms([((1, 0, 0, 0, 0), "-1/2"), (ONE, "3")]) == "-1/2 a + 3"
    assert format_terms([]) == "0"


# ---------------------------------------------------------------------------
# the five-dimensional Malcev algebra


def test_bracket_table():
    a, b, c, d, e = (MalcevVector.basis(t) for t in "abcde")
    assert bracket_m(a, b) == c
    assert bracket_m(b, a) == -1 * c
    assert bracket_m(c, d) == e
    assert bracket_m(d, c) == -1 * e
    # every other basis pair vanishes
    basis = [a, b, c, d, e]
    for i in range(5):
        for j in range(5):
            if {i, j} in ({0, 1}, {2, 3}):
                continue
            assert not bracket_m(basis[i], basis[j])
    with pytest.raises(ValueError):
        MalcevVector.basis("f")


def test_bracket_bilinear():
    for _ in range(30):
        x, y, z = rand_vector(), rand_vector(), rand_vector()
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert bracket_m(x + y, z) == bracket_m(x, z) + bracket_m(y, z)
        assert bracket_m(x, s * y) == s * bracket_m(x, y)


def test_bracket_anticommutative():
    for _ in range(30):
        x, y = rand_vector(), rand_vector()
        assert bracket_m(x, y) == -1 * bracket_m(y, x)
        assert not bracket_m(x, x)


def test_jacobi_fails():
    a = MalcevVector.basis("a")
    b = MalcevVector.basis("b")
    d = MalcevVector.basis("d")
    e = MalcevVector.basis("e")
    assert jacobian_m(a, b, d) == e


def test_malcev_identity_on_basis():
    basis = [MalcevVector.basis(t) for t in "abcde"]
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = bracket_m(jacobian_m(x, y, z), x)
                rhs = jacobian_m(x, y, bracket_m(x, z))
                assert lhs == rhs


def test_malcev_identity_random():
    for _ in range(200):
        x, y, z = rand_vector(), rand_vector(), rand_vector()
        assert bracket_m(jacobian_m(x, y, z), x) == jacobian_m(x, y, bracket_m(x, z))


def test_nilpotency():
    # [[x,y],z] always lies in the span of e, and e is central
    for _ in range(20):
        x, y, z, w = (rand_vector() for _ in range(4))
        triple = bracket_m(bracket_m(x, y), z)
        assert triple.coords[:4] == (0, 0, 0, 0)
        assert not bracket_m(triple, w)


# ---------------------------------------------------------------------------
# sparse elements


def test_uelement_zero_and_one():
    assert not UElement.zero()
    assert UElement.one().coefficient(ONE) == 1
    assert str(UElement.zero()) == "0"


def test_uelement_addition_cancels():
    x = UElement.from_monomial((1, 0, 0, 0, 0))
    assert not x - x
    assert len((x + x).sorted_terms()) == 1


def test_uelement_prunes_zero_coefficients():
    x = UElement({(0, 1, 0, 0, 0): Fraction(0), (1, 0, 0, 0, 0): Fraction(2)})
    assert len(x.sorted_terms()) == 1


def test_uelement_rejects_bad_monomials():
    with pytest.raises(ValueError):
        UElement({(1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        UElement({(1, -1, 0, 0, 0): Fraction(1)})


def test_uelement_scalar_types():
    x = UElement.from_letter("a")
    assert 2 * x == Fraction(2) * x
    assert 0 * x == UElement.zero()


BOOL_COEFFICIENTS = {
    "UElement": lambda: UElement({ONE: True}),
    "AElement": lambda: alternative.AElement({ONE: True}),
    "MalcevVector": lambda: MalcevVector((True, 0, 0, 0, 0)),
    "Operator": lambda: diffops.Operator.word(ONE, (0, 0, 0, 0), True),
    "True * x": lambda: True * UElement.one(),
    "x * False": lambda: UElement.one() * False,
}


@pytest.mark.parametrize("build", BOOL_COEFFICIENTS.values(), ids=BOOL_COEFFICIENTS)
def test_bool_is_not_a_coefficient(build):
    # like a bool exponent: True equals 1, but is not a rational coefficient
    with pytest.raises(TypeError, match="True|bool"):
        build()


def test_numpy_integers_give_exact_numerators():
    # a numpy integer is a Rational of fixed width: stored as given, 4 * 2^62
    # and 2^62 * 2^62 overflow to 0
    np = pytest.importorskip("numpy")
    a = (1, 0, 0, 0, 0)
    x = UElement({a: np.int64(2**62)})
    assert str(4 * x) == f"{2**64} a"
    assert str(envelope.mul_u(x, x)) == f"{2**124} a^2"
    half = Fraction(np.int64(3), np.int64(6))
    built = [
        x,
        UElement({a: np.int64(3), ONE: half}),
        alternative.AElement({a: np.int64(-3), ONE: half}),
        MalcevVector((np.int64(3), half, 0, 0, 0)),
        diffops.Operator.word(ONE, (1, 0, 0, 0), half),
        np.int64(3) * UElement.from_letter("a"),
        UElement.from_letter("a") * np.int64(3),
        half * UElement.from_letter("a"),
        UElement.from_letter("a") * half,
    ]
    for el in built:
        assert isinstance(el, core._SparseElement)
        assert type(el._den) is int and all(type(n) is int for n in el._num.values()), repr(el)


BAD_KEYS = {
    "bool exponent": (UElement.from_letter("a"), (True, 0, 0, 0, 0)),
    "short tuple": (UElement.from_letter("a"), (1, 2)),
    "letter": (UElement.from_letter("a"), "a"),
    "ideal monomial": (alternative.AElement.from_letter("a"), (0, 0, 0, 0, 2)),
    "vector letter": (MalcevVector.basis("a"), "a"),
    "vector bool": (MalcevVector.basis("b"), True),
    "operator monomial": (diffops.Operator.identity(), ONE),
}


@pytest.mark.parametrize("element, key", BAD_KEYS.values(), ids=BAD_KEYS)
def test_coefficient_rejects_a_key_outside_the_basis(element, key):
    with pytest.raises(ValueError):
        element.coefficient(key)


def test_uelement_vector_space_axioms():
    def rand_element():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(5))
            terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return UElement(terms)

    for _ in range(50):
        x, y, z = rand_element(), rand_element(), rand_element()
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x - y == x + (-y)
        assert s * (x + y) == s * x + s * y
        assert x + UElement.zero() == x


def test_uelement_equality_and_hash():
    x = UElement.from_letter("b") + 2 * UElement.from_letter("d")
    y = 2 * UElement.from_letter("d") + UElement.from_letter("b")
    assert x == y
    assert hash(x) == hash(y)
    assert x != UElement.from_letter("b")


def test_uelement_mixed_type_comparison():
    assert UElement.from_letter("a") != "a"
    assert (UElement.zero() == 0) is False


# the representation: integer numerators over one denominator, checked
# against plain dicts of Fraction coefficients

_MONOS = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0), ONE]
_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_DICTS = st.dictionaries(st.sampled_from(_MONOS), _COEFFS, max_size=4)


def fraction_sum(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_DICTS, b=_DICTS, s=st.one_of(st.integers(-3, 3), _COEFFS), k=st.integers(2, 12))
def test_representation_matches_fraction_dicts(a, b, s, k):
    x, y = UElement(a), UElement(b)
    ra, rb = fraction_sum({}, a), fraction_sum({}, b)
    for got, want in (
        (x, ra),
        (x + y, fraction_sum(ra, rb)),
        (x - y, fraction_sum(ra, rb, -1)),
        (-x, {m: -c for m, c in ra.items()}),
        (s * x, {m: s * c for m, c in ra.items() if s}),
        (x * s, {m: s * c for m, c in ra.items() if s}),
    ):
        assert got.terms == want
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())
        assert bool(got) == bool(want) and len(got) == len(want)
    assert (x == y) == (ra == rb)
    assert (x == y) <= (hash(x) == hash(y))
    # equal values over different denominators: k times larger, and a sum
    # that is not reduced
    twin = UElement._make(x._den * k, {m: n * k for m, n in x._num.items()})
    z = UElement({ONE: Fraction(1, k)})
    for other in (twin, (x + z) - z):
        assert other == x and not other != x
        assert hash(other) == hash(x)
        assert other.terms == ra and str(other) == str(x)
    assert (twin == y) == (ra == rb)


def test_coefficients_are_int_exactly_when_integral():
    a, b = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)
    x = UElement({a: Fraction(2), b: Fraction(1, 2)})
    assert repr(x) == "UElement({(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): Fraction(1, 2)})"
    assert str(x) == "2 a + 1/2 b"
    assert [type(c) for c in x.terms.values()] == [int, Fraction]
    assert type(x.coefficient(a)) is int and x.coefficient(b) == Fraction(1, 2)
    # a half made whole: 2 * (1/2 a) prints its coefficient as 1
    assert repr(2 * UElement({a: Fraction(1, 2)})) == "UElement({(1, 0, 0, 0, 0): 1})"
    assert repr(envelope.mul_u(UElement.from_letter("b"), UElement.from_letter("a"))) == (
        "UElement({(0, 0, 1, 0, 0): -1, (1, 1, 0, 0, 0): 1})"
    )
    # terms is a read-only view
    with pytest.raises(TypeError):
        x.terms[a] = 3


def test_sorted_terms_graded_descending():
    x = UElement(
        {
            (0, 0, 0, 0, 1): Fraction(1),
            (1, 1, 0, 0, 0): Fraction(1),
            (0, 0, 1, 0, 0): Fraction(1),
        }
    )
    monos = [m for m, _ in x.sorted_terms()]
    assert monos == [(1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)]


def test_max_degree():
    x = UElement.from_monomial((1, 1, 0, 2, 0)) + UElement.from_letter("e")
    assert x.max_degree() == 4
    assert UElement.one().max_degree() == 0
    assert UElement.zero().max_degree() == -1


def test_malcev_vector_u_element():
    v = MalcevVector((Fraction(2), Fraction(0), Fraction(-1), Fraction(0), Fraction(0)))
    el = v.u_element()
    assert el == 2 * UElement.from_letter("a") - UElement.from_letter("c")


def test_malcev_vector_sorts_by_letter():
    v = MalcevVector((Fraction(1, 2), 2, 0, 0, -1))
    assert v.sorted_terms() == [(0, Fraction(1, 2)), (1, 2), (4, -1)]
    assert MalcevVector((1, 2, 0, 0, 0)).sorted_terms() == [(0, 1), (1, 2)]


def test_malcev_vector_has_no_monomial_constructor():
    # its keys are letter indices, so a monomial is not a vector
    with pytest.raises(AttributeError):
        MalcevVector.from_monomial(2)


def test_letters_constant():
    assert LETTERS == "abcde"


# ---------------------------------------------------------------------------
# memo tables


def memoized_kernels():
    return [
        envelope._closed_class,
        envelope._beta_row,
        envelope._one_term,
        envelope._lmul_letter,
        envelope._bracket_mono,
        envelope._mul_mono,
    ]


def fill_memos():
    abd = UElement.from_monomial((1, 1, 0, 1, 0))
    envelope.associator_u(abd, abd, abd)
    envelope.mul_u_oracle(abd, abd)


def test_clear_memos_empties_every_table():
    kernels = memoized_kernels()
    assert len(core._MEMOIZED) == len(kernels)
    assert set(core._MEMOIZED) == set(kernels)
    fill_memos()
    assert all(cached.cache_info().currsize > 0 for cached in kernels)
    clear_memos()
    assert all(cached.cache_info().currsize == 0 for cached in kernels)
    assert envelope.clear_memos is clear_memos


def test_memo_info_names_every_table():
    clear_memos()
    fill_memos()
    assert core.memo_info() == {
        f"malcev5.envelope.{cached.__name__}": cached.cache_info() for cached in memoized_kernels()}
    clear_memos()
    assert all(stats.currsize == 0 for stats in core.memo_info().values())


def test_operator_route_reads_no_memo():
    clear_memos()
    for mono in ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (1, 1, 0, 1, 0)):
        diffops.l_of_monomial(mono).apply(UElement.from_monomial(mono))
    diffops.standard_word(1, 1, 1, 1, 1, 1, 1, 1)
    assert all(cached.cache_info().currsize == 0 for cached in core._MEMOIZED)
