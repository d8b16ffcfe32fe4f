"""Tests for the normal-ordered differential-operator representation.

The representation sends each generator to a polynomial coefficient
operator acting on the commutative polynomial ring in a..e; composing
operators and normal-ordering them is what everything else leans on,
so the canonical commutation relations get checked from several angles.
"""

import itertools
import random
from fractions import Fraction

import pytest

from malcev5 import diffops
from malcev5.core import UElement, bracket_m, MalcevVector
from malcev5.diffops import (
    Operator,
    compose,
    l_of_monomial,
    lb_power_closed,
    ld_power_closed,
    lmul,
    rho,
    standard_word,
)
from malcev5.envelope import mul_u

rng = random.Random(991)


def rand_element(max_exp=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(5))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return UElement(terms)


def rand_operator(nwords=3):
    terms = {}
    for _ in range(nwords):
        mul = tuple(rng.randint(0, 2) for _ in range(5))
        der = tuple(rng.randint(0, 2) for _ in range(4))
        terms[(mul, der)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Operator(terms)


# ---------------------------------------------------------------------------
# construction and application


def test_word_validation():
    with pytest.raises(ValueError):
        Operator.word((1, 0, 0, 0, 0), (0, 0, 0, 0, 1))  # derivation tuple too long
    with pytest.raises(ValueError):
        Operator.word((1, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(TypeError):
        Operator({((0, 0, 0, 0, 0), (0, 0, 0, 0)): 0.5})
    with pytest.raises(ValueError):
        Operator.word((True, 0, 0, 0, 0), (0, 0, 0, 0))  # bool is not an exponent
    with pytest.raises(ValueError):
        Operator.word((0, 0, 0, 0, 0), (False, 0, 0, 0))


def test_no_derivation_in_e():
    with pytest.raises(ValueError):
        Operator.deriv("e")
    # multiplication by e is fine
    assert Operator.mul_by("e").apply(UElement.one()) == UElement.from_letter("e")


def test_unknown_letter():
    with pytest.raises(ValueError):
        Operator.mul_by("q")
    with pytest.raises(ValueError):
        rho("q")


def test_identity_and_zero_apply():
    x = rand_element()
    assert Operator.identity().apply(x) == x
    assert not Operator.zero().apply(x)


def test_apply_basic_words():
    d2 = UElement.from_monomial((0, 0, 0, 2, 0))
    d = UElement.from_letter("d")
    assert Operator.deriv("d").apply(d2) == 2 * d

    ab = UElement.from_monomial((1, 1, 0, 0, 0))
    e = UElement.from_letter("e")
    w = compose(Operator.mul_by("e"), compose(Operator.deriv("a"), Operator.deriv("b")))
    assert w.apply(ab) == e

    a3 = UElement.from_monomial((3, 0, 0, 0, 0))
    a = UElement.from_letter("a")
    dd_a = compose(Operator.deriv("a"), Operator.deriv("a"))
    assert dd_a.apply(a3) == 6 * a  # falling factorial 3*2


def test_apply_kills_lower_degree():
    assert not Operator.deriv("b").apply(UElement.one())
    assert not Operator.deriv("a").apply(UElement.from_letter("c"))


def test_apply_is_linear():
    f = rand_operator()
    x, y = rand_element(), rand_element()
    s = Fraction(3, 2)
    assert f.apply(x + s * y) == f.apply(x) + s * f.apply(y)


# ---------------------------------------------------------------------------
# normal ordering


def test_canonical_commutator():
    # D_x M_x = M_x D_x + 1 for each non-central letter
    for letter in "abcd":
        lhs = compose(Operator.deriv(letter), Operator.mul_by(letter))
        rhs = compose(Operator.mul_by(letter), Operator.deriv(letter)) + Operator.identity()
        assert lhs == rhs


def test_distinct_letters_commute():
    da, mb = Operator.deriv("a"), Operator.mul_by("b")
    assert compose(da, mb) == compose(mb, da)


def test_reordering_powers():
    # D_d^2 M_d = M_d D_d^2 + 2 D_d
    dd, md = Operator.deriv("d"), Operator.mul_by("d")
    lhs = compose(compose(dd, dd), md)
    rhs = compose(md, compose(dd, dd)) + 2 * dd
    assert lhs == rhs


def test_reordering_general_powers():
    # D^m M^n = sum_i i! C(m,i) C(n,i) M^(n-i) D^(m-i), checked per letter
    import math

    for m in range(4):
        for n in range(4):
            dm = Operator.word((0, 0, 0, 0, 0), (0, m, 0, 0))
            mn = Operator.word((0, n, 0, 0, 0), (0, 0, 0, 0))
            expect = Operator.zero()
            for i in range(min(m, n) + 1):
                coeff = math.factorial(i) * math.comb(m, i) * math.comb(n, i)
                expect = expect + Operator.word(
                    (0, n - i, 0, 0, 0), (0, m - i, 0, 0), coeff
                )
            assert compose(dm, mn) == expect


def test_compose_matches_function_composition():
    for _ in range(40):
        f, g = rand_operator(), rand_operator()
        x = rand_element()
        assert compose(f, g).apply(x) == f.apply(g.apply(x))


def test_compose_associative():
    for _ in range(40):
        f, g, h = rand_operator(2), rand_operator(2), rand_operator(2)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_operator_linear_algebra():
    f, g = rand_operator(), rand_operator()
    assert f - f == Operator.zero()
    assert -1 * f == -f
    assert 2 * (f + g) == 2 * f + 2 * g


# ---------------------------------------------------------------------------
# the representation itself


def test_rho_table():
    mc, me = Operator.mul_by("c"), Operator.mul_by("e")
    da, db, dc, dd = (Operator.deriv(t) for t in "abcd")
    half = Fraction(1, 2)
    assert rho("a") == -1 * compose(mc, db) + half * compose(me, compose(db, dd))
    assert rho("b") == compose(mc, da) - half * compose(me, compose(da, dd))
    assert rho("c") == -1 * compose(me, dd)
    assert rho("d") == compose(me, dc) + half * compose(me, compose(da, db))
    assert rho("e") == Operator.zero()


def test_lmul_table():
    ma, mb, mc, md, me = (Operator.mul_by(t) for t in "abcde")
    da, db, dc, dd = (Operator.deriv(t) for t in "abcd")
    third = Fraction(1, 3)
    assert lmul("a") == ma
    assert lmul("b") == mb - compose(mc, da) + third * compose(me, compose(da, dd))
    assert lmul("c") == mc
    assert lmul("d") == md - compose(me, dc) - third * compose(me, compose(da, db))
    assert lmul("e") == me


def test_rho_strings():
    assert str(rho("a")) == "1/2 M_e D_b D_d - M_c D_b"
    assert str(lmul("d")) == "-1/3 M_e D_a D_b - M_e D_c + M_d"
    assert str(Operator.zero()) == "0"
    assert str(Operator.identity()) == "1"


def test_rho_reproduces_brackets_in_degree_one():
    # adjoint action on generators agrees with the base bracket
    for f in "abcde":
        for g in "abcde":
            got = rho(f).apply(UElement.from_letter(g))
            want = bracket_m(MalcevVector.basis(g), MalcevVector.basis(f)).u_element()
            assert got == want


def test_lmul_on_monomial():
    abc = UElement.from_monomial((1, 1, 1, 0, 0))
    got = lmul("d").apply(abc)
    want = UElement(
        {
            (1, 1, 1, 1, 0): Fraction(1),
            (1, 1, 0, 0, 1): Fraction(-1),
            (0, 0, 1, 0, 1): Fraction(-1, 3),
        }
    )
    assert got == want


def test_left_adjoint_commutators_spot():
    def comm(f, g):
        return compose(f, g) - compose(g, f)

    me = Operator.mul_by("e")
    assert comm(lmul("c"), lmul("d")) == me
    assert comm(rho("a"), rho("d")) == compose(me, Operator.deriv("b"))
    assert comm(lmul("d"), rho("c")) == me
    assert comm(lmul("a"), lmul("c")) == Operator.zero()
    # genuine right multiplication is L + rho, and [R(a), D_a] = -1
    ra = lmul("a") + rho("a")
    assert comm(ra, Operator.deriv("a")) == -1 * Operator.identity()


# ---------------------------------------------------------------------------
# powers, standard words, left multiplication by monomials


def test_power_expansions_small():
    for n in range(5):
        acc = Operator.identity()
        for _ in range(n):
            acc = compose(acc, lmul("b"))
        assert lb_power_closed(n) == acc
        acc = Operator.identity()
        for _ in range(n):
            acc = compose(acc, lmul("d"))
        assert ld_power_closed(n) == acc


@pytest.mark.parametrize("power", [lb_power_closed, ld_power_closed], ids=["lb", "ld"])
@pytest.mark.parametrize("bad", [-1, True, 1.0], ids=["negative", "bool", "float"])
def test_power_closed_rejects_bad_exponent(power, bad):
    with pytest.raises(ValueError, match="nonnegative integer"):
        power(bad)


def test_standard_word_degenerate():
    assert standard_word(0, 0, 0, 0, 0, 0, 0, 0) == Operator.identity()
    assert standard_word(1, 0, 0, 0, 0, 0, 0, 0) == lmul("a")
    assert standard_word(0, 0, 0, 0, 2, 0, 0, 0) == compose(
        Operator.mul_by("c"), Operator.mul_by("c")
    )


def reference_standard_word(*counts):
    """The standard word as a left fold of single-generator compositions,
    the reference for the balanced product of powers that is shipped."""
    generators = (
        lmul("a"), Operator.deriv("a"), lmul("b"), Operator.deriv("b"),
        lmul("c"), Operator.deriv("d"), lmul("d"), lmul("e"),
    )
    acc = Operator.identity()
    for op, count in zip(generators, counts):
        for _ in range(count):
            acc = compose(acc, op)
    return acc


_WORD_RNG = random.Random(26)
REFERENCE_WORD_COUNTS = list(itertools.product((0, 1), repeat=8)) + [
    tuple(_WORD_RNG.randint(0, 3) for _ in range(8)) for _ in range(50)
]


def test_standard_word_matches_the_left_fold():
    for counts in REFERENCE_WORD_COUNTS:
        word, want = standard_word(*counts), reference_standard_word(*counts)
        assert word == want, counts
        assert str(word) == str(want), counts


def test_l_of_monomial_from_reference_words(monkeypatch):
    monos = [m for m in itertools.product(range(5), repeat=5) if sum(m) <= 4]
    shipped = [l_of_monomial(m) for m in monos]
    monkeypatch.setattr(diffops, "standard_word", reference_standard_word)
    for mono, op in zip(monos, shipped):
        assert l_of_monomial(mono) == op, mono


def test_standard_word_rejects_negative_count():
    with pytest.raises(ValueError, match="nonnegative integers"):
        standard_word(-1, 0, 0, 0, 0, 0, 0, 0)


def test_standard_word_rejects_bool_count():
    standard_word(1, 0, 0, 0, 0, 0, 0, 0)  # accepted, though True == 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        standard_word(True, 0, 0, 0, 0, 0, 0, 0)


def test_straightening_identity_fixed_words():
    la, ra = lmul("a"), rho("a")
    for word_exps in [
        (0, 1, 0, 0, 0, 0, 0, 0),
        (1, 0, 2, 0, 0, 1, 0, 0),
        (0, 2, 1, 1, 0, 0, 2, 0),
        (2, 1, 1, 0, 1, 1, 1, 1),
    ]:
        s, t, u, v, w, x, y, z = word_exps
        word = standard_word(*word_exps)
        lhs = 2 * compose(la, word) - compose(word, la) - compose(word, ra) + compose(ra, word)
        rhs = standard_word(s + 1, t, u, v, w, x, y, z)
        if t:
            rhs = rhs - t * standard_word(s, t - 1, u, v, w, x, y, z)
        if u:
            rhs = rhs + Fraction(u, 6) * standard_word(s, t, u - 1, v, w, x + 1, y, z + 1)
        if y:
            rhs = rhs - Fraction(y, 6) * standard_word(s, t, u, v + 1, w, x, y - 1, z + 1)
        assert lhs == rhs


def test_l_of_monomial_degree_one():
    for letter in "abcde":
        mono = tuple(1 if t == letter else 0 for t in "abcde")
        assert l_of_monomial(mono) == lmul(letter)
    assert l_of_monomial((0, 0, 0, 0, 0)) == Operator.identity()


def test_l_of_monomial_central_powers():
    me = Operator.mul_by("e")
    assert l_of_monomial((0, 0, 0, 0, 3)) == compose(me, compose(me, me))


def test_l_of_monomial_builds_no_fraction(monkeypatch):
    # the words' coefficients are summed as integer numerators
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for mono in ((2, 1, 0, 2, 1), (1, 2, 1, 1, 0), (0, 3, 0, 2, 0)):
        l_of_monomial(mono)
    found = len(built)
    Fraction(1, 2)  # the wrapper sees what is built
    monkeypatch.undo()
    assert found == 0 and len(built) == 1


def test_l_of_monomial_multiplies():
    x = (0, 1, 0, 1, 0)  # bd
    y = UElement.from_monomial((1, 0, 1, 0, 0))  # ac
    assert l_of_monomial(x).apply(y) == mul_u(UElement.from_monomial(x), y)


def test_l_of_bd_string():
    want = (
        "-1/9 M_e^2 D_a^2 D_b D_d + 1/3 M_c M_e D_a^2 D_b - 1/3 M_e^2 D_a D_c D_d"
        " - 1/3 M_b M_e D_a D_b + M_c M_e D_a D_c + 1/3 M_d M_e D_a D_d"
        " - M_b M_e D_c - M_c M_d D_a + M_b M_d + 1/2 M_e D_a"
    )
    assert str(l_of_monomial((0, 1, 0, 1, 0))) == want
