"""Differential operators on the polynomial model of the enveloping algebra.

Left and right multiplication by the five generators act on the underlying
polynomial space as differential operators with polynomial coefficients.
An :class:`Operator` is a finite rational combination of *normal-ordered
words*

    ``M_a^p1 M_b^p2 M_c^p3 M_d^p4 M_e^p5  D_a^q1 D_b^q2 D_c^q3 D_d^q4``

where ``M_x`` multiplies by the letter ``x`` and ``D_x`` differentiates with
respect to it; all multiplications stand to the left of all derivations.
No ``D_e`` slot exists: none of the operators realized here ever
differentiates in the central letter, and the normal form rejects it
outright.  The only nontrivial commutation is ``[D_x, M_x] = 1``; distinct
letters commute, which is what :func:`compose` exploits to renormalize
products of words.

The generator tables :func:`rho` (right multiplication) and :func:`lmul`
(left multiplication) are the bridge between the recursive product oracle
and the closed structure-constant formula: left multiplication by a whole
monomial (:func:`l_of_monomial`) composes the paper's standard words from
the generator operators alone, so it closes no sum that the closed kernel
closes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iterproduct

from .core import (
    LETTERS,
    ONE,
    UElement,
    _SparseElement,
    _UNIT,
    _accumulate,
    _are_exponents,
    _bilinear,
    _check_monomial,
    _expect,
    _letter_index,
    _pruned,
    _reduced,
    binomial,
    multinomial,
)

#: index of each differentiable letter in the derivation part of a word
DERIV_LETTERS = "abcd"

# An operator word is a pair (mul, der): mul is a 5-tuple of M-exponents
# over a..e, der a 4-tuple of D-exponents over a..d.
Word = tuple[tuple[int, int, int, int, int], tuple[int, int, int, int]]

_D0 = (0, 0, 0, 0)
_IDENTITY_WORD: Word = (ONE, _D0)

# the exponent tuple of M_x and of D_x, by letter
_M = dict(zip(LETTERS, _UNIT))
_D = {ch: unit[:4] for ch, unit in zip(DERIV_LETTERS, _UNIT)}


def _check_word(word) -> None:
    ok = (
        isinstance(word, tuple)
        and len(word) == 2
        and isinstance(word[0], tuple)
        and isinstance(word[1], tuple)
        and len(word[0]) == 5
        and len(word[1]) == 4
        and _are_exponents(word[0])
        and _are_exponents(word[1])
    )
    if not ok:
        raise ValueError(f"malformed operator word {word!r}")


def _word_key(word):
    mul, der = word
    return (sum(mul) + sum(der), mul, der)


def format_word(word) -> str:
    """``((0,0,1,0,0), (0,1,0,0))`` -> ``M_c D_b``; the identity word prints as ``1``."""
    mul, der = word
    parts = [
        f"M_{ch}" if e == 1 else f"M_{ch}^{e}" for ch, e in zip(LETTERS, mul) if e
    ] + [
        f"D_{ch}" if e == 1 else f"D_{ch}^{e}" for ch, e in zip(DERIV_LETTERS, der) if e
    ]
    return " ".join(parts) if parts else "1"


class Operator(_SparseElement):
    """A normal-ordered differential operator with rational coefficients.

    A sparse combination of words: the linear structure is the one every
    element type shares; only the keys, their display order and their text
    form differ.
    """

    __slots__ = ()

    _check_basis = staticmethod(_check_word)
    _term_key = staticmethod(_word_key)
    _render_key = staticmethod(format_word)

    @classmethod
    def identity(cls) -> "Operator":
        return cls._make(1, {_IDENTITY_WORD: 1})

    @classmethod
    def word(cls, mul, der, coeff=1) -> "Operator":
        """A single word ``coeff * M^mul D^der``."""
        return cls({(tuple(mul), tuple(der)): coeff})

    @classmethod
    def mul_by(cls, letter: str) -> "Operator":
        """The multiplication operator ``M_letter``."""
        return cls._make(1, {(_UNIT[_letter_index(letter)], _D0): 1})

    @classmethod
    def deriv(cls, letter: str) -> "Operator":
        """The derivation ``D_letter``; the central letter has no derivation."""
        if _letter_index(letter) == 4:
            raise ValueError("no derivation in the central letter e")
        return cls._make(1, {(ONE, _D[letter]): 1})

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return compose(self, other)

    def apply(self, x: UElement) -> UElement:
        """Apply the operator to an element of the polynomial space."""
        _expect(UElement, x)
        return _bilinear(_apply_word, (1, x, self))


def _apply_word(mono, word) -> tuple:
    """The word ``M^mul D^der`` applied to a basis monomial, over 1."""
    mul, der = word
    factor = 1
    for v in range(4):
        k = der[v]
        if k:
            factor *= math.perm(mono[v], k)
            if not factor:
                return 1, {}
    new = (
        mono[0] - der[0] + mul[0],
        mono[1] - der[1] + mul[1],
        mono[2] - der[2] + mul[2],
        mono[3] - der[3] + mul[3],
        mono[4] + mul[4],
    )
    return 1, {new: factor}


# the only (contraction, weight) choice of a letter that D and M do not share
_NO_CONTRACTION = ((0, 1),)


def _compose_words(w1, w2) -> tuple:
    """The normal-ordered product of two words, over 1, expanded as in
    :func:`compose` over one ``(i, i! C(m,i) C(n,i))`` choice per letter."""
    (m1, d1), (m2, d2) = w1, w2
    choices = [
        [(i, math.factorial(i) * math.comb(m, i) * math.comb(n, i)) for i in range(min(m, n) + 1)]
        if m and n else _NO_CONTRACTION
        for m, n in zip(d1, m2)
    ]
    out = {}
    for (ia, wa), (ib, wb), (ic, wc), (id_, wd) in _iterproduct(*choices):
        word = (
            (m1[0] + m2[0] - ia, m1[1] + m2[1] - ib, m1[2] + m2[2] - ic,
             m1[3] + m2[3] - id_, m1[4] + m2[4]),
            (d1[0] + d2[0] - ia, d1[1] + d2[1] - ib, d1[2] + d2[2] - ic,
             d1[3] + d2[3] - id_),
        )
        out[word] = wa * wb * wc * wd
    return 1, out


def compose(f: Operator, g: Operator) -> Operator:
    """Normal-ordered product ``f g`` (``g`` acts first).

    Straightening moves every derivation of ``f`` past the multiplications
    of ``g``.  Letter by letter, ``D^m M^n = sum_i i! C(m,i) C(n,i)
    M^(n-i) D^(m-i)``, and distinct letters commute, so the product of two
    words expands over one contraction index per colliding letter.
    """
    _expect(Operator, f, g)
    return _bilinear(_compose_words, (1, f, g))


# ---------------------------------------------------------------------------
# the generator tables
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)

_Dab = (1, 1, 0, 0)
_Dad = (1, 0, 0, 1)
_Dbd = (0, 1, 0, 1)

_RHO_TABLE = {
    # right multiplication by each generator
    "a": {(_M["c"], _D["b"]): -1, (_M["e"], _Dbd): _HALF},
    "b": {(_M["c"], _D["a"]): 1, (_M["e"], _Dad): -_HALF},
    "c": {(_M["e"], _D["d"]): -1},
    "d": {(_M["e"], _D["c"]): 1, (_M["e"], _Dab): _HALF},
    "e": {},
}

_LMUL_TABLE = {
    # left multiplication by each generator
    "a": {(_M["a"], _D0): 1},
    "b": {(_M["b"], _D0): 1, (_M["c"], _D["a"]): -1, (_M["e"], _Dad): _THIRD},
    "c": {(_M["c"], _D0): 1},
    "d": {(_M["d"], _D0): 1, (_M["e"], _D["c"]): -1, (_M["e"], _Dab): -_THIRD},
    "e": {(_M["e"], _D0): 1},
}

_RHO = {ch: Operator(t) for ch, t in _RHO_TABLE.items()}
_LMUL = {ch: Operator(t) for ch, t in _LMUL_TABLE.items()}


def rho(letter: str) -> Operator:
    """Right multiplication by a generator, as a normal-ordered operator."""
    return _RHO[LETTERS[_letter_index(letter)]]


def lmul(letter: str) -> Operator:
    """Left multiplication by a generator, as a normal-ordered operator."""
    return _LMUL[LETTERS[_letter_index(letter)]]


# ---------------------------------------------------------------------------
# left multiplication by a whole monomial
# ---------------------------------------------------------------------------

def standard_word(s, t, u, v, w, x, y, z) -> Operator:
    """The composed word ``L(a)^s D_a^t L(b)^u D_b^v L(c)^w D_d^x L(d)^y L(e)^z``.

    Rightmost factor acts first, as usual for operator products.

    Each nonzero power, such as ``L(a)^s``, is composed from its generator,
    and the powers are then multiplied pairwise, neighbour with neighbour,
    in a balanced tree that keeps their left-to-right order.  Since
    :func:`compose` is associative, any grouping of the same factors in the
    same order gives the same operator as composing them one at a time.
    This grouping is the cheaper one because most of its products pair two
    operators of similar size, not a long operator with a generator of one
    to three words.
    """
    counts = (s, t, u, v, w, x, y, z)
    if not _are_exponents(counts):
        raise ValueError(f"standard word counts must be nonnegative integers, got {counts!r}")
    generators = (
        _LMUL["a"], Operator.deriv("a"), _LMUL["b"], Operator.deriv("b"),
        _LMUL["c"], Operator.deriv("d"), _LMUL["d"], _LMUL["e"],
    )
    powers = []
    for op, count in zip(generators, counts):
        if count:
            power = op
            for _ in range(count - 1):
                power = compose(power, op)
            powers.append(power)
    if not powers:
        return Operator.identity()
    while len(powers) > 1:
        powers = [
            compose(*powers[i:i + 2]) if i + 1 < len(powers) else powers[i]
            for i in range(0, len(powers), 2)
        ]
    return powers[0]


def lb_power_closed(u: int) -> Operator:
    """Closed trinomial expansion of ``L(b)^u``."""
    if not _are_exponents((u,)):
        raise ValueError(f"power of L(b) must be a nonnegative integer, got {u!r}")
    return Operator({
        ((0, eps, zeta, 0, u - eps - zeta), (u - eps, 0, 0, u - eps - zeta)):
            Fraction((-1) ** zeta * multinomial(u, (eps, zeta)), 3 ** (u - eps - zeta))
        for eps in range(u + 1) for zeta in range(u - eps + 1)
    })


def ld_power_closed(y: int) -> Operator:
    """Closed trinomial expansion of ``L(d)^y``."""
    if not _are_exponents((y,)):
        raise ValueError(f"power of L(d) must be a nonnegative integer, got {y!r}")
    return Operator({
        ((0, 0, 0, eta, y - eta), (y - eta - theta, y - eta - theta, theta, 0)):
            Fraction((-1) ** (y - eta) * multinomial(y, (eta, theta)), 3 ** (y - eta - theta))
        for eta in range(y + 1) for theta in range(y - eta + 1)
    })


def l_of_monomial(mono) -> Operator:
    """Left multiplication by the basis monomial ``mono``.

    The representation of the enveloping algebra by operators: ``mono =
    (i,j,k,l,m)`` expands into a four-index combination of standard words,
    and each word is composed from the generator operators, so this route
    reads nothing but the generator tables.  The term of ``(alpha, beta,
    gamma, delta)`` is ``(-1)^(beta+delta) alpha! beta! C(alpha,beta-gamma)
    C(i,beta)`` times the multinomials ``(j; alpha, delta)`` and ``(l;
    alpha, gamma-delta)``, over ``6^(alpha+gamma)``; summation limits are
    written plainly, and the vanishing conventions of
    :func:`~malcev5.core.multinomial` and :func:`~malcev5.core.binomial`
    kill the out-of-range terms.
    """
    _check_monomial(mono)
    i, j, k, l, m = mono
    fact = math.factorial
    acc, den = {}, 1
    for alpha in range(l + 1):
        for beta in range(i + 1):
            for gamma in range(beta + 1):
                for delta in range(gamma + 1):
                    weight = (
                        binomial(alpha, beta - gamma)
                        * binomial(i, beta)
                        * multinomial(j, (alpha, delta))
                        * multinomial(l, (alpha, gamma - delta))
                    )
                    if not weight:
                        continue
                    word = standard_word(
                        i - beta,
                        alpha - beta + gamma,
                        j - alpha - delta,
                        gamma - delta,
                        k,
                        delta,
                        l - alpha - gamma + delta,
                        m + alpha + gamma,
                    )
                    den = _accumulate(
                        acc, den, (-1) ** (beta + delta) * fact(alpha) * fact(beta) * weight,
                        6 ** (alpha + gamma) * word._den, word._num,
                    )
    return Operator._make(*_reduced(den, _pruned(acc)))
