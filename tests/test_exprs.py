"""Tests for parsing canonical element text and the JSON form."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from malcev5.alternative import AElement
from malcev5.core import UElement
from malcev5.envelope import associator_u, mul_u
from malcev5.exprs import ParseError, element_json, parse_element

U = UElement.from_monomial


# ---------------------------------------------------------------------------
# well-formed input


def test_parse_monomial():
    assert parse_element("abd^2") == U((1, 1, 0, 2, 0))
    assert parse_element("a") == U((1, 0, 0, 0, 0))
    assert parse_element("e^3") == U((0, 0, 0, 0, 3))


def test_parse_constants():
    assert parse_element("1") == UElement.one()
    assert parse_element("0") == UElement.zero()
    assert parse_element("-7/2") == Fraction(-7, 2) * UElement.one()


def test_parse_coefficients():
    x = parse_element("11/36 cde^2")
    assert x == Fraction(11, 36) * U((0, 0, 1, 1, 2))
    assert parse_element("2a") == 2 * U((1, 0, 0, 0, 0))
    assert parse_element("2*a") == 2 * U((1, 0, 0, 0, 0))
    assert parse_element("1/2 * bd") == Fraction(1, 2) * U((0, 1, 0, 1, 0))


def test_parse_sums():
    got = parse_element("ab - c")
    assert got == U((1, 1, 0, 0, 0)) - U((0, 0, 1, 0, 0))
    got = parse_element("1/6 abcd^2e - 1/6 abde^2 - 1/6 c^2d^2e + 11/36 cde^2 - 1/12 e^3")
    assert got.coefficient((0, 0, 1, 1, 2)) == Fraction(11, 36)
    assert len(got.sorted_terms()) == 5


def test_parse_leading_sign():
    assert parse_element("-e") == -U((0, 0, 0, 0, 1))
    assert parse_element("+e") == U((0, 0, 0, 0, 1))


def test_parse_unicode_minus():
    assert parse_element("ab − c") == parse_element("ab - c")
    assert parse_element("−2 e") == -2 * U((0, 0, 0, 0, 1))


def test_parse_collects_repeats():
    assert parse_element("a + a - 2 a") == UElement.zero()


def test_parse_whitespace_tolerant():
    assert parse_element("  1/2   ab  +  c ") == parse_element("1/2 ab + c")


def test_roundtrip_canonical_text():
    samples = [
        UElement.zero(),
        UElement.one(),
        -3 * UElement.one(),
        mul_u(U((0, 1, 0, 1, 0)), U((1, 0, 1, 0, 0))),
        associator_u(U((1, 1, 0, 1, 0)), U((1, 1, 0, 1, 0)), U((1, 1, 0, 1, 0))),
    ]
    for x in samples:
        assert parse_element(str(x)) == x


def test_parse_into_quotient():
    x = parse_element("ab - c", cls=AElement)
    assert isinstance(x, AElement)
    assert x == AElement.from_monomial((1, 1, 0, 0, 0)) - AElement.from_monomial(
        (0, 0, 1, 0, 0)
    )


def test_parse_quotient_rejects_ideal_monomials():
    with pytest.raises(ValueError):
        parse_element("ce", cls=AElement)
    with pytest.raises(ValueError):
        parse_element("e^2", cls=AElement)


# ---------------------------------------------------------------------------
# malformed input


def bad(text, offset):
    with pytest.raises(ParseError) as info:
        parse_element(text)
    assert info.value.offset == offset, str(info.value)
    return str(info.value)


def test_letters_out_of_order():
    msg = bad("ba", 1)
    assert "monomial letters must be in order a..e" in msg
    bad("aa", 1)
    bad("cde^2c", 5)


def test_unknown_generator():
    msg = bad("f", 0)
    assert "unknown generator" in msg
    bad("ab + 2q", 6)


def test_dangling_operator():
    bad("a +", 3)
    bad("+", 1)


def test_missing_separator():
    bad("2 3", 2)
    bad("a b", 2)


def test_empty_input():
    bad("", 0)
    bad("   ", 3)


def test_bad_exponent():
    bad("a^", 2)
    bad("a^-2", 2)


def test_too_many_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    msg = bad("1" * (limit + 1) + " a", 0)
    assert "too many digits" in msg
    bad("a^" + "2" * (limit + 1), 2)


def test_zero_denominator():
    msg = bad("1/0 a", 2)
    assert "zero denominator" in msg


def test_star_without_monomial():
    bad("2*", 2)
    bad("2*3", 2)


def test_offset_counts_bytes_not_codepoints():
    # U+2212 is three bytes in UTF-8, so the bad letter lands at byte 6
    msg = bad("1 − f", 6)
    assert "unknown generator" in msg


def test_parse_error_is_value_error():
    with pytest.raises(ValueError):
        parse_element("ba")


# ---------------------------------------------------------------------------
# JSON form


def test_json_structure():
    x = mul_u(U((0, 1, 0, 0, 0)), U((1, 0, 0, 0, 0)))  # ab - c
    data = json.loads(element_json(x))
    assert data == [
        {"coeff": "1", "exp": [1, 1, 0, 0, 0]},
        {"coeff": "-1", "exp": [0, 0, 1, 0, 0]},
    ]


def test_json_zero():
    assert json.loads(element_json(UElement.zero())) == []


def test_json_with_types():
    x = AElement.from_monomial((1, 1, 0, 1, 1)) + Fraction(1, 6) * AElement.from_monomial(
        (0, 0, 1, 0, 0)
    )
    data = json.loads(element_json(x, with_type=True))
    assert data == [
        {"coeff": "1", "exp": [1, 1, 0, 1, 1], "type": 1},
        {"coeff": "1/6", "exp": [0, 0, 1, 0, 0], "type": 2},
    ]


def test_json_roundtrip_via_text():
    x = associator_u(U((1, 1, 0, 1, 0)), U((1, 1, 0, 1, 0)), U((1, 1, 0, 1, 0)))
    data = json.loads(element_json(x))
    rebuilt = UElement(
        {tuple(item["exp"]): Fraction(item["coeff"]) for item in data}
    )
    assert rebuilt == x


# ---------------------------------------------------------------------------
# round trips of random elements

exps = st.integers(min_value=0, max_value=12)
coefficients = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
u_elements = st.dictionaries(
    st.tuples(exps, exps, exps, exps, exps), coefficients, max_size=4
).map(UElement)
# the quotient basis: a^i b^j d^l e (type 1) and a^i b^j c^k d^l (type 2)
a_monomials = st.tuples(exps, exps, st.just(0), exps, st.just(1)) | st.tuples(
    exps, exps, exps, exps, st.just(0)
)
a_elements = st.dictionaries(a_monomials, coefficients, max_size=4).map(AElement)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(x=u_elements | a_elements)
def test_text_and_json_round_trip(x):
    cls = type(x)
    assert parse_element(str(x), cls) == x
    data = json.loads(element_json(x, with_type=cls is AElement))
    assert cls((tuple(item["exp"]), Fraction(item["coeff"])) for item in data) == x


# ---------------------------------------------------------------------------
# mutated valid text: parsed and printed back, or a ParseError

_SEED_TEXTS = (
    "2/3 a^2bd - 1/2 c + e",
    "−3*b*c^2 + 7",
    "ab^10d^3 − 5/4 e^2",
    " a * b ^ 2 + 1 / 6 ",
)
# the grammar's own characters, plus letters, digits and spaces it rejects
_JUNK = "abcdefz0123456789+-−*/^. \t²١é"
edits = st.lists(
    st.tuples(st.sampled_from("ids"), st.integers(0, 60), st.sampled_from(_JUNK)),
    min_size=1,
    max_size=4,
)


def _edit(text, op, at, ch):
    # insert a character, delete one, or swap two neighbours
    n = len(text)
    if op == "i":
        k = at % (n + 1)
        return text[:k] + ch + text[k:]
    if op == "d" and n:
        k = at % n
        return text[:k] + text[k + 1:]
    if op == "s" and n > 1:
        k = at % (n - 1)
        return text[:k] + text[k + 1] + text[k] + text[k + 2:]
    return text


def _neighbours(text):
    # every text one edit away: random edits alone rarely reach the end of
    # the input or put a junk character right after a digit
    for k in range(len(text) + 1):
        for ch in _JUNK:
            yield _edit(text, "i", k, ch)
        yield _edit(text, "d", k, "")
        yield _edit(text, "s", k, "")


def _check_parse(text):
    try:
        x = parse_element(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8")), text
    else:
        assert parse_element(str(x)) == x, text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(_SEED_TEXTS) | u_elements.map(str), edits=edits)
def test_parse_malformed_input(base, edits):
    text = base
    for edit in edits:
        text = _edit(text, *edit)
    for mutant in (text, *_neighbours(text)):
        _check_parse(mutant)
