"""Tests for parsing canonical element text and the JSON form."""

import json
import sys
from fractions import Fraction

import pytest
from _reference_parser import ReferenceParseError, reference_parse
from hypothesis import given, settings, strategies as st

from malcev5.alternative import AElement
from malcev5.core import MalcevVector, UElement
from malcev5.diffops import Operator
from malcev5.envelope import associator_u, mul_u
from malcev5.exprs import _WS, ParseError, element_json, parse_element

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


def test_json_types_only_quotient_elements():
    # ce and e^2 lie in the alternator ideal: neither is of type 1 or 2
    x = UElement.from_monomial((0, 0, 1, 0, 1)) + UElement.from_monomial((0, 0, 0, 0, 2))
    with pytest.raises(TypeError, match="takes an AElement, got UElement"):
        element_json(x, with_type=True)
    assert element_json(x) == (
        '[{"coeff": "1", "exp": [0, 0, 1, 0, 1]}, {"coeff": "1", "exp": [0, 0, 0, 0, 2]}]'
    )


@pytest.mark.parametrize(
    "el", [MalcevVector.basis("c"), Operator.deriv("a"), object()],
    ids=["MalcevVector", "Operator", "object"],
)
def test_json_takes_only_envelope_and_quotient_elements(el):
    with pytest.raises(TypeError, match=f"UElement or an AElement, got {type(el).__name__}"):
        element_json(el)


@pytest.mark.parametrize("cls", [MalcevVector, Operator, object])
def test_parse_element_builds_only_envelope_and_quotient_elements(cls):
    with pytest.raises(TypeError, match="UElement or an AElement"):
        parse_element("a + 2 bc", cls)


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


# ---------------------------------------------------------------------------
# the parser against its frozen character-at-a-time reference


def _outcome(parse, text, cls):
    # the element's exact (den, numerators), or the error's kind, message
    # and offset; ParseError is tested first, as it is a ValueError
    try:
        x = parse(text, cls)
    except (ParseError, ReferenceParseError) as exc:
        return "ParseError", str(exc), exc.offset
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return type(x), x._den, x._num


def _same_as_reference(text):
    for cls in (UElement, AElement):
        assert _outcome(parse_element, text, cls) == _outcome(reference_parse, text, cls), (
            text, cls.__name__)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(_SEED_TEXTS) | u_elements.map(str) | a_elements.map(str),
    edits=edits,
)
def test_parser_matches_reference(base, edits):
    text = base
    for edit in edits:
        text = _edit(text, *edit)
    for mutant in (text, *_neighbours(text)):
        _same_as_reference(mutant)


def test_parser_matches_reference_on_edge_texts():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 5000
    texts = [
        "ce - ce", "0 ce", "a + ce - ce", "e^2 + 1/0",  # basis checks, before pruning
        "2/4 a + 1/4 a", "1/2 a - 1/2 a", "3/6", "0/5 b", "a^0", "a^0b^0",
        "a ^2", "a^ 2", "a b", "2 3", "1 / 2 * a * b", "2 *\tab", "a*", "2*", "2 * 3",
        "1" * (limit + 1) + " a", "a^" + "2" * (limit + 1), "1/" + "3" * (limit + 1),
        "", "  ", "−", "+ −a", "a −− b", "1 − f", "é", "²", "a²", "a\u3000+\x85b",
        # non-ASCII digits, leading zeros
        "a^\u0663", "\u0663 a", "1/\u0663", "a^01", "007 a", "1/007 b",
        # doubled or stray operators
        "a**b", "a* *b", "2**a", "a^^2", "a^2^3", "*a", "/2 a", "2/ a", "a/2", "+-a",
        "a +", "a * ",
        # repeated or foreign letters, digits after a letter or a caret
        "aa", "a^2a", "ab a", "A", "f", "a2", "a 2", "2^3",
    ]
    for text in texts:
        _same_as_reference(text)


# ---------------------------------------------------------------------------
# whitespace is exactly str.isspace()

_CODE_POINTS = range(sys.maxunicode + 1)
_SPACES = [chr(cp) for cp in _CODE_POINTS if chr(cp).isspace()]


def test_whitespace_pattern_is_isspace():
    # the one pattern the parser skips whitespace with, over every code point
    assert [chr(cp) for cp in _CODE_POINTS if _WS(chr(cp)).end()] == _SPACES


@pytest.mark.parametrize("space", _SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_whitespace_allowed_exactly_where_the_grammar_says(space):
    s = space
    # around signs, '/' and '*', and between a coefficient and its monomial
    text = f"{s}-{s}1{s}/{s}2{s}*{s}a{s}*{s}b^2{s}+{s}3{s}cd{s}−{s}4{s}"
    assert parse_element(text) == parse_element("-1/2 ab^2 + 3 cd - 4")
    # not inside a number, after a letter before '^', after '^', nor between
    # the factors of a monomial without '*'
    for text in (f"1{s}2", f"a{s}^2", f"a^{s}2", f"a{s}b", f"2a{s}b"):
        with pytest.raises(ParseError):
            parse_element(text)


def test_no_other_code_point_is_whitespace():
    # "a?*b" reads as ab exactly when '?' is skipped: a digit, letter, sign,
    # '^', '*' or '/' there is a parse error
    ab = parse_element("ab")
    for ch in [*map(chr, range(0x3100)), "\u180e", "\u200b", "\u2060", "\ufeff", "\U000e0020"]:
        try:
            got = parse_element(f"a{ch}*b")
        except ParseError:
            got = None
        assert (got == ab) is ch.isspace(), f"U+{ord(ch):04X}"


# ---------------------------------------------------------------------------
# str and JSON against a Fraction-based renderer


def _reference_str(x):
    # the renderer that str used before it read the numerators
    chunks = []
    for key, coeff in x.sorted_terms():
        coeff = Fraction(coeff)
        mag, word = abs(coeff), x._render_key(key)
        body = str(mag) if word == "1" else word if mag == 1 else f"{mag} {word}"
        if chunks:
            chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            chunks.append(f"-{body}" if coeff < 0 else body)
    return "".join(chunks) or "0"


def _reference_json(x, with_type):
    out = []
    for mono, coeff in x.sorted_terms():
        item = {"coeff": str(Fraction(coeff)), "exp": list(mono)}
        if with_type:
            item["type"] = 1 if mono[4] else 2
        out.append(item)
    return json.dumps(out)


# integral and negative coefficients on every key type, and sums and
# differences, which do not reduce their denominator
mixed = coefficients | st.integers(-5, 5)
words = st.tuples(st.tuples(exps, exps, exps, exps, exps), st.tuples(exps, exps, exps, exps))
_ELEMENTS = (
    st.dictionaries(st.tuples(exps, exps, exps, exps, exps), mixed, max_size=4).map(UElement),
    st.dictionaries(a_monomials, mixed, max_size=4).map(AElement),
    st.dictionaries(words, mixed, max_size=4).map(Operator),
)


def _sums(elements):
    pairs = st.tuples(elements, elements)
    return (elements | elements.map(lambda x: x + x)
            | pairs.map(lambda p: p[0] + p[1]) | pairs.map(lambda p: p[0] - p[1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=st.one_of(*map(_sums, _ELEMENTS)))
def test_str_and_json_match_fraction_renderer(x):
    assert str(x) == _reference_str(x)
    if type(x) is Operator:  # JSON is for envelope and quotient elements only
        with pytest.raises(TypeError, match="got Operator"):
            element_json(x)
        return
    for with_type in (False, True) if type(x) is AElement else (False,):
        assert element_json(x, with_type=with_type) == _reference_json(x, with_type)


def test_str_reduces_each_coefficient_of_a_sum():
    half_a = Fraction(1, 2) * U((1, 0, 0, 0, 0))
    x = half_a + half_a + Fraction(1, 2) * UElement.one() + Fraction(3, 2) * UElement.one()
    assert x._den == 2  # the sum kept its denominator
    assert str(x) == _reference_str(x) == "a + 2"
    assert json.loads(element_json(x)) == [
        {"coeff": "1", "exp": [1, 0, 0, 0, 0]},
        {"coeff": "2", "exp": [0, 0, 0, 0, 0]},
    ]
