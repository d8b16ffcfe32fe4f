"""Exact arithmetic foundations.

The base algebra is the five-dimensional nilpotent Malcev algebra: ordered
basis ``a < b < c < d < e`` with the only nonzero brackets ``[a,b] = c`` and
``[c,d] = e`` (extended antisymmetrically).  Its enveloping algebra has the
ordered monomials ``a^i b^j c^k d^l e^m`` as a linear basis, so a monomial
is an exponent 5-tuple and an element is a sparse map from tuples to exact
rational coefficients.  No floating point appears anywhere in the package.

An element is one dict of ``int`` numerators over one positive ``int``
denominator, and is immutable (see :class:`_SparseElement`).  The product
kernels return ``(den, numerators)`` too.  :func:`_accumulate` is the one
step that adds terms over a common denominator, for the constructors, sums
and the parser alike; :func:`_sum_into` is the one product loop over it,
and :func:`_bilinear` reduces by one ``gcd`` per sum.

This module owns the shared vocabulary: letters, monomials, the graded-lex
term order, combinatorial helpers with the vanishing conventions used by the
closed formulas, the sparse linear combination type that the other modules
build on, vectors of the base algebra with ``_BRACKETS``, the one table of
the defining brackets (read by :func:`bracket_m` and by the recursive
oracle, never by the closed kernel or the operator tables), and
:func:`memoized`, the one memo mechanism, with :func:`memo_info` its one
readout.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType

LETTERS = "abcde"
LETTER_INDEX = {ch: i for i, ch in enumerate(LETTERS)}

# A monomial is the exponent tuple (i, j, k, l, m) of a^i b^j c^k d^l e^m.
Monomial = tuple[int, int, int, int, int]

#: the empty monomial, i.e. the unit of the enveloping algebra
ONE: Monomial = (0, 0, 0, 0, 0)

# the degree-one monomial of each letter, by letter index
_UNIT = tuple(tuple(int(t == v) for t in range(5)) for v in range(5))


class ComputationError(RuntimeError):
    """An evaluation strategy could not finish (e.g. recursion exhausted)."""


def monomial(i: int, j: int, k: int, l: int, m: int) -> Monomial:
    """Build a validated exponent tuple."""
    mono = (i, j, k, l, m)
    _check_monomial(mono)
    return mono


def _are_exponents(values) -> bool:
    """The one exponent rule: every value is a nonnegative ``int``, not a ``bool``."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return False
    return True


def _is_coefficient(value) -> bool:
    """The one coefficient rule: a ``Rational`` that is not a ``bool``."""
    return isinstance(value, Rational) and not isinstance(value, bool)


def _check_monomial(mono) -> None:
    if not (isinstance(mono, tuple) and len(mono) == 5):
        raise ValueError(f"monomial must be a 5-tuple of exponents, got {mono!r}")
    if not _are_exponents(mono):
        raise ValueError(f"exponents must be nonnegative integers, got {mono!r}")


def degree(mono: Monomial) -> int:
    """Total degree of a monomial (sum of exponents)."""
    return sum(mono)


def term_key(mono: Monomial):
    """Sort key for the canonical graded-lexicographic order.

    Terms are displayed by descending degree, ties broken by descending
    exponent tuple, so products lead with their highest-degree part and the
    constant term comes last.
    """
    return (sum(mono), mono)


def _letter_index(letter: str) -> int:
    """The index of a generator letter; the one check for an unknown letter."""
    v = LETTER_INDEX.get(letter)
    if v is None:
        raise ValueError(f"unknown generator {letter!r}; expected one of {LETTERS!r}")
    return v


def letter_monomial(letter: str) -> Monomial:
    """The degree-one monomial for a single generator letter."""
    return _UNIT[_letter_index(letter)]


# ---------------------------------------------------------------------------
# combinatorics with vanishing conventions
# ---------------------------------------------------------------------------

def falling_factorial(n: int, k: int) -> int:
    """``n (n-1) ... (n-k+1)``; equals 1 when k == 0 and 0 when k > n >= 0."""
    return math.perm(n, k)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside ``0 <= k <= n``."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts) -> int:
    """``n! / (p_1! ... p_r! (n - sum p)!)``.

    Follows the convention used by all the closed formulas here: the value
    is 0 whenever any part is negative or the parts sum to more than ``n``.
    """
    if n < 0:
        return 0
    used = 0
    out = 1
    for p in parts:
        if p < 0 or used + p > n:
            return 0
        out *= math.comb(n - used, p)
        used += p
    return out


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def format_monomial(mono: Monomial) -> str:
    """``(1,1,0,2,0)`` -> ``abd^2``; the empty monomial prints as ``1``.

    Any other nonzero exponent prints as ``letter^n``, a negative one too:
    the constructors reject it, but a key built past them (``_make``) may
    carry one, and a counterexample must then show it.
    """
    parts = []
    for letter, exp in zip(LETTERS, mono):
        if exp == 1:
            parts.append(letter)
        elif exp:
            parts.append(f"{letter}^{exp}")
    return "".join(parts) if parts else "1"


def format_terms(sorted_items, render=format_monomial) -> str:
    """Render ``[(key, coeff_text), ...]`` (already ordered) as canonical text.

    ``coeff_text`` is a nonzero rational in lowest terms as ``str(Fraction)``
    writes it (``"-3/4"``, ``"2"``).  ``render`` turns a key into text; a key
    that renders as ``1`` (the unit) prints as its bare coefficient.
    """
    if not sorted_items:
        return "0"
    chunks = []
    for n, (key, coeff) in enumerate(sorted_items):
        neg = coeff[0] == "-"
        mag = coeff[1:] if neg else coeff
        word = render(key)
        if word == "1":
            body = mag
        elif mag == "1":
            body = word
        else:
            body = f"{mag} {word}"
        if n == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------

def _pruned(acc: dict) -> dict:
    """Delete the zero coefficients of the term dict ``acc`` in place; return it.

    Accumulators sum without checking for zero and pass through here once,
    before they become an element or a memoized term dict: this is the one
    place that keeps the rule that zero coefficients are never stored.
    """
    if all(acc.values()):  # one scan when nothing cancelled
        return acc
    for key in [key for key, n in acc.items() if not n]:
        del acc[key]
    return acc


def _reduced(den: int, num: dict) -> tuple:
    """``(den, num)`` divided by the gcd of ``den`` and every numerator."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return den // g, {key: n // g for key, n in num.items()}
    return den, num


def _accumulate(acc: dict, den: int, c: int, kden: int, terms: dict) -> int:
    """Add ``c * terms / kden`` into the numerators ``acc`` over ``den``.

    The one accumulation step.  Returns the new ``den``, scaling ``acc`` up
    first when ``kden`` brings a new factor; zero sums are kept for
    :func:`_pruned`.
    """
    if den % kden:  # a new factor of the common denominator
        grow = kden // math.gcd(den, kden)
        for key in acc:
            acc[key] *= grow
        den *= grow
    c *= den // kden
    for key, n in terms.items():
        acc[key] = acc.get(key, 0) + c * n
    return den


def _sum_into(acc: dict, den: int, kernel, sign: int, x: tuple, y: tuple) -> int:
    """Add ``sign * xy`` into ``acc`` over ``den``; return the new ``den``.

    The one product loop of every route: ``x`` and ``y`` are ``(den,
    numerators)`` pairs, and ``xy`` extends ``kernel(kx, ky) -> (den,
    numerators)`` bilinearly.
    """
    (xden, xnum), (yden, ynum) = x, y
    for kx, cx in xnum.items():
        for ky, cy in ynum.items():
            kden, terms = kernel(kx, ky)
            if terms:
                den = _accumulate(acc, den, sign * cx * cy, kden * xden * yden, terms)
    return den


def _expect(cls, *args) -> None:
    """Raise ``TypeError`` unless every argument is a ``cls``: a public
    product's check of its operands, since :func:`_bilinear` takes any."""
    for arg in args:
        if not isinstance(arg, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(arg).__name__}")


def _bilinear(kernel, *pairs):
    """``sum sign * xy`` over ``(sign, x, y)`` pairs, of the first ``x``'s type.

    ``xy`` extends ``kernel(kx, ky) -> (den, numerators)``, none zero, by
    :func:`_sum_into`, and the sum is reduced once.
    """
    out, den = {}, 1
    for sign, x, y in pairs:
        den = _sum_into(out, den, kernel, sign, (x._den, x._num), (y._den, y._num))
    return type(pairs[0][1])._make(*_reduced(den, _pruned(out)))


class _SparseElement:
    """Shared machinery for exact sparse linear combinations of basis keys.

    An element is one dict ``_num`` of nonzero ``int`` numerators over one
    positive ``int`` denominator ``_den``.  The pair need not be reduced:
    products reduce it once, sums do not, so ``==`` cross-multiplies when
    the denominators differ and ``hash`` reduces first.  ``terms``, the map
    from key to coefficient, is a read-only view derived on access; a
    coefficient in it is an ``int`` exactly when it is integral, a
    ``Fraction`` otherwise.  Instances are immutable: nothing mutates
    ``_num`` after construction, which is what makes every value here safe
    to share across threads and to memoize.  The keys are monomials by
    default; a subclass over other keys overrides ``_check_basis`` and the
    display order ``_term_key`` (and the renderer ``_render_key`` if it
    prints through :func:`format_terms`), and one over some of the
    monomials overrides ``_check_member``.  The monomial constructors are on
    :class:`_MonomialElement`.
    """

    __slots__ = ("_num", "_den")

    _term_key = staticmethod(term_key)
    _render_key = staticmethod(format_monomial)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc, den = {}, 1
        for key, coeff in items:
            self._check_basis(key)
            if not _is_coefficient(coeff):
                raise TypeError(f"coefficients must be rational, got {coeff!r}")
            # int(): a numpy integer is a Rational too, but of fixed width
            den = _accumulate(acc, den, int(coeff.numerator), int(coeff.denominator), {key: 1})
        self._den, self._num = _reduced(den, _pruned(acc))

    @classmethod
    def _check_basis(cls, mono) -> None:
        _check_monomial(mono)
        cls._check_member(mono)

    @staticmethod
    def _check_member(mono) -> None:
        """Raise ``ValueError`` if the well-formed ``mono`` is not a basis key.

        Every monomial is one here.  The parser builds well-formed monomials,
        so it calls only this part of :meth:`_check_basis`.
        """

    @classmethod
    def _make(cls, den: int, num: dict):
        # Internal fast path: `num` must hold validated keys and nonzero ints.
        el = object.__new__(cls)
        el._den = den
        el._num = num
        return el

    @classmethod
    def zero(cls):
        return cls._make(1, {})

    @property
    def terms(self) -> Mapping:
        """Key -> coefficient: a read-only view, ``int`` exactly when integral."""
        den = self._den
        return MappingProxyType(self._num if den == 1 else {
            key: Fraction(n, den) if n % den else n // den for key, n in self._num.items()})

    def sorted_terms(self):
        """Terms in the canonical (graded-lex descending) display order."""
        key = self._term_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def _display_terms(self) -> list:
        """``(key, coeff_text)`` in display order, as :func:`format_terms` takes.

        Each coefficient is reduced by one ``gcd``, which a sum needs: sums
        do not reduce ``_den``.  No ``Fraction`` is built.
        """
        den, num = self._den, self._num
        out = []
        for key in sorted(num, key=self._term_key, reverse=True):
            n = num[key]
            g = math.gcd(n, den)
            out.append((key, str(n // g) if g == den else f"{n // g}/{den // g}"))
        return out

    def coefficient(self, key) -> Rational:
        """The coefficient of ``key``, as in ``terms``; ``ValueError`` unless
        ``key`` is a basis key."""
        self._check_basis(key)
        return self.terms.get(key, 0)

    def __add__(self, other, sign=1):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._num)
        den = _accumulate(out, self._den, sign, other._den, other._num)
        return type(self)._make(den, _pruned(out))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return type(self)._make(self._den, {key: -n for key, n in self._num.items()})

    def __rmul__(self, scalar):
        if not _is_coefficient(scalar):
            return NotImplemented
        if not scalar:
            return type(self).zero()
        c = int(scalar.numerator)
        num = {key: c * n for key, n in self._num.items()}
        return type(self)._make(*_reduced(self._den * int(scalar.denominator), num))

    __mul__ = __rmul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b, theirs = self._den, other._den, other._num
        if a == b:
            return self._num == theirs
        return self._num.keys() == theirs.keys() and all(
            n * b == theirs[key] * a for key, n in self._num.items()
        )

    def __hash__(self):
        den, num = _reduced(self._den, self._num)
        return hash((den, frozenset(num.items())))

    def __bool__(self):
        return bool(self._num)

    def __len__(self):
        return len(self._num)

    def __str__(self):
        return format_terms(self._display_terms(), self._render_key)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.terms)!r})"


class _MonomialElement(_SparseElement):
    """An element keyed by monomials, with the monomial constructors."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls._make(1, {ONE: 1})

    @classmethod
    def from_letter(cls, letter: str):
        return cls._make(1, {letter_monomial(letter): 1})

    @classmethod
    def from_monomial(cls, mono, coeff=1):
        return cls({mono: coeff})


class UElement(_MonomialElement):
    """An element of the enveloping algebra in the ordered-monomial basis."""

    __slots__ = ()

    def max_degree(self) -> int:
        """Degree of the element (largest monomial degree; -1 for zero)."""
        return max((sum(mono) for mono in self._num), default=-1)


# ---------------------------------------------------------------------------
# the base algebra
# ---------------------------------------------------------------------------

class MalcevVector(_SparseElement):
    """A vector of the base algebra: rational coordinates over a, b, c, d, e.

    The terms are keyed by letter index, so the linear structure is the
    shared one; ``coords`` gives all five coordinates as a tuple.  Terms
    sort from ``a`` to ``e``, and there is no monomial constructor.
    """

    __slots__ = ()

    @staticmethod
    def _term_key(v: int) -> int:
        # the shared sort is descending
        return -v

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 5:
            raise ValueError(f"expected 5 coordinates, got {len(coords)}")
        super().__init__(enumerate(coords))

    @staticmethod
    def _check_basis(v) -> None:
        if type(v) is not int or not 0 <= v < 5:
            raise ValueError(f"a vector's key is a letter index 0..4, got {v!r}")

    @property
    def coords(self) -> tuple:
        terms = self.terms
        return tuple(terms.get(v, 0) for v in range(5))

    @classmethod
    def basis(cls, letter: str) -> "MalcevVector":
        return cls._make(1, {_letter_index(letter): 1})

    def u_element(self) -> "UElement":
        """The image of this vector under the canonical degree-1 embedding."""
        return UElement._make(self._den, {_UNIT[v]: n for v, n in sorted(self._num.items())})

    def __repr__(self):
        parts = [f"{coeff!s}*{LETTERS[v]}" for v, coeff in sorted(self.terms.items())]
        return "MalcevVector<%s>" % (" + ".join(parts) if parts else "0")

    __str__ = __repr__


#: The defining brackets ``[a,b] = c`` and ``[c,d] = e``, extended
#: antisymmetrically: ``_BRACKETS[(v, w)]`` is ``[v, w]`` for letter indices
#: ``v`` and ``w``, as ``{letter index: coefficient}``; every pair not listed
#: brackets to zero.  The dicts are shared like memo results, so no caller
#: may mutate one.
_BRACKETS = {(0, 1): {2: 1}, (1, 0): {2: -1}, (2, 3): {4: 1}, (3, 2): {4: -1}}


def _bracket_letters(v: int, w: int) -> tuple:
    """``[v, w]`` of two letter indices as ``(1, numerators)``, a kernel."""
    return 1, _BRACKETS.get((v, w), {})


def bracket_m(x: MalcevVector, y: MalcevVector) -> MalcevVector:
    """Bracket of the base algebra: the bilinear extension of ``_BRACKETS``."""
    _expect(MalcevVector, x, y)
    return _bilinear(_bracket_letters, (1, x, y))


def jacobian_m(x: MalcevVector, y: MalcevVector, z: MalcevVector) -> MalcevVector:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] on the base algebra.

    Not identically zero -- J(a,b,d) = e -- which is exactly why the
    enveloping algebra below is nonassociative.
    """
    return _bilinear(
        _bracket_letters, (1, bracket_m(x, y), z), (1, bracket_m(y, z), x), (1, bracket_m(z, x), y)
    )


# ---------------------------------------------------------------------------
# memo tables
# ---------------------------------------------------------------------------

_MEMOIZED: list = []


def memoized(fn):
    """``functools.cache(fn)``, recorded so that :func:`clear_memos` empties it.

    A cache grows until cleared; its ``cache_info()`` gives hits, misses
    and size.  Every caller shares one result per key, so no caller may
    mutate it.  Arguments are not validated on a hit, so a public entry
    point checks its arguments before it calls a memoized kernel.
    """
    cached = functools.cache(fn)
    _MEMOIZED.append(cached)
    return cached


def clear_memos() -> None:
    """Empty every memo table (mainly useful for measuring cold runs)."""
    for cached in _MEMOIZED:
        cached.cache_clear()


def memo_info() -> dict:
    """``{qualified name: cache_info()}`` for every memo table, in creation order."""
    return {f"{cached.__module__}.{cached.__qualname__}": cached.cache_info() for cached in _MEMOIZED}
