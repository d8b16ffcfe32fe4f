"""Parsing and structured output of element expressions.

Grammar::

    element  :=  ['+'|'-'] term ( ('+'|'-') term )*
    term     :=  rational ['*'] [monomial]  |  monomial
    rational :=  uint ['/' uint]
    monomial :=  factor ( ['*'] factor )*
    factor   :=  letter ['^' uint]
    uint     :=  ('0'..'9')+

Whitespace (any character for which ``str.isspace()`` holds) is allowed at
either end, around the signs, ``/`` and ``*``, and between a coefficient and
its monomial; nowhere else.  So ``2 a`` and ``a * b`` are valid, while
``1 2``, ``a ^2``, ``a^ 2`` and ``a b`` are errors.  ``a^0`` reads as ``1``.
Letters are ``a..e`` and must appear in strictly increasing order within a
monomial: ``ba`` is rejected rather than silently reordered, because the
generators do not commute and ``ba != ab``.  Both ASCII ``-`` and the
typographic minus U+2212 are accepted on input; output always uses ASCII.
Errors carry the UTF-8 byte offset of the offending token.

Parsing sums the terms as ``int`` numerators over one common denominator,
and ``str`` and :func:`element_json` render from the element's numerators;
neither builds a ``Fraction``.
"""

from __future__ import annotations

import json
import re

from .alternative import AElement, is_type1
from .core import LETTER_INDEX, ONE, UElement, _accumulate, _pruned, _reduced

_MINUS = {"-", "−"}
_SIGNS = {"+"} | _MINUS
# ASCII only: str.isdigit() also admits "²", which int() rejects
_DIGITS = frozenset("0123456789")
_UINT = re.compile("[0-9]*").match
# \s is exactly str.isspace(); the tests check every code point
_WS = re.compile(r"\s*").match


class ParseError(ValueError):
    """Malformed element expression; ``offset`` is a UTF-8 byte position."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"parse error at byte {self.offset}: {message}")


class _Parser:
    """One pass over ``text``; ``i`` is the position of the next character.

    Each rule reads from ``i`` and leaves it just past what it consumed.
    Whitespace and digit runs are read by the compiled patterns, and the
    terms are summed as ``int`` numerators over one common denominator.
    """

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.text, self.i if pos is None else pos)

    def uint(self, what: str) -> int:
        text, start = self.text, self.i
        self.i = end = _UINT(text, start).end()
        if end == start:
            self.fail(f"expected {what}", start)
        try:
            return int(text[start:end])
        except ValueError:  # past sys.get_int_max_str_digits()
            self.fail(f"too many digits in {what}", start)

    def rational(self) -> tuple:
        """``(num, den)`` with ``den > 0``, not reduced."""
        num = self.uint("a number")
        text = self.text
        j = _WS(text, self.i).end()
        if text[j:j + 1] == "/":
            self.i = den_pos = _WS(text, j + 1).end()
            den = self.uint("a denominator")
            if den == 0:
                self.fail("zero denominator", den_pos)
            return num, den
        return num, 1

    def monomial(self) -> tuple:
        text, i = self.text, self.i
        exps = [0, 0, 0, 0, 0]
        last = -1
        while True:
            ch = text[i:i + 1]
            v = LETTER_INDEX.get(ch)
            if v is None:
                self.fail(f"unknown generator {ch!r}; expected one of a, b, c, d, e", i)
            if v <= last:
                self.fail("monomial letters must be in order a..e", i)
            last = v
            i += 1
            if text[i:i + 1] == "^":
                self.i = i + 1
                exps[v] = self.uint("an exponent after '^'")
                i = self.i
            else:
                exps[v] = 1
            # another factor? '*' (spaces allowed) or direct juxtaposition
            j = _WS(text, i).end()
            if text[j:j + 1] == "*":
                i = _WS(text, j + 1).end()
                continue
            if text[i:i + 1] in LETTER_INDEX:
                continue
            self.i = i
            return tuple(exps)

    def term(self) -> tuple:
        """``(num, den, monomial)`` of the unsigned term at ``i``."""
        text = self.text
        ch = text[self.i:self.i + 1]
        if ch in _DIGITS:
            num, den = self.rational()
            j = _WS(text, self.i).end()
            ch = text[j:j + 1]
            if ch == "*":
                self.i = j = _WS(text, j + 1).end()
                if text[j:j + 1] not in LETTER_INDEX:
                    self.fail("expected a monomial after '*'")
                return num, den, self.monomial()
            if ch in LETTER_INDEX:
                self.i = j
                return num, den, self.monomial()
            return num, den, ONE
        if ch in LETTER_INDEX:
            return 1, 1, self.monomial()
        if ch.isalpha():
            self.fail(f"unknown generator {ch!r}; expected one of a, b, c, d, e")
        self.fail("expected a term" if ch else "unexpected end of input")

    def parse(self, cls):
        text = self.text
        n = len(text)
        i = _WS(text, 0).end()
        if i == n:
            self.fail("empty expression", i)
        den, acc = 1, {}
        first = True
        while True:
            i = _WS(text, i).end()
            if i == n:
                break
            ch = text[i]
            sign = 1
            if ch in _SIGNS:
                if ch in _MINUS:
                    sign = -1
                i = _WS(text, i + 1).end()
            elif not first:
                self.fail("expected '+' or '-' between terms", i)
            self.i = i
            num, q, mono = self.term()
            i = self.i
            den = _accumulate(acc, den, sign * num, q, {mono: 1})
            first = False
        for mono in acc:  # before pruning: a cancelled term must be a basis term too
            cls._check_member(mono)
        return cls._make(*_reduced(den, _pruned(acc)))


def parse_element(text: str, cls=UElement):
    """Parse canonical-form text into an element (``cls`` picks the algebra).

    ``cls`` is ``UElement`` or ``AElement``; any other class raises
    ``TypeError``.  Raises :class:`ParseError` for malformed input.
    Constructing the element may additionally raise ``ValueError`` when a
    well-formed monomial is not a basis monomial of the target algebra.
    """
    if cls is not UElement and cls is not AElement:
        raise TypeError(f"parse_element builds a UElement or an AElement, got {cls!r}")
    return _Parser(text).parse(cls)


def element_json(el, with_type: bool = False) -> str:
    """Serialize an element as a JSON array of term objects.

    Terms follow the canonical display order; each is
    ``{"coeff": "p/q", "exp": [i, j, k, l, m]}``.  With ``with_type``, which
    takes only an ``AElement``, each also has a ``"type"`` field: 1 for the
    quotient's type-1 monomials, 2 for its type-2 monomials.  ``el`` is a
    ``UElement`` or an ``AElement``; anything else raises ``TypeError``.
    """
    if not isinstance(el, (UElement, AElement)):
        raise TypeError(f"element_json takes a UElement or an AElement, got {type(el).__name__}")
    if with_type and not isinstance(el, AElement):
        raise TypeError(f"with_type=True takes an AElement, got {type(el).__name__}")
    out = []
    for mono, coeff in el._display_terms():
        item = {"coeff": coeff, "exp": list(mono)}
        if with_type:
            item["type"] = 1 if is_type1(mono) else 2
        out.append(item)
    return json.dumps(out)
