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

:func:`parse_element` reads each term with one compiled pattern, ``_TERM``:
the sign, the numerator, an optional ``/`` and denominator, an optional
``*`` and the monomial, as one optional slot per letter in the order
``a..e``, with the spaces after the term; it matches only where the next
sign or the end follows.  Python then checks a zero denominator and the
``int`` digit limit, and sums the term with one accumulation step as
``int`` numerators over one common denominator.  That is the one path that
accepts text.  Errors come from the grammar's rule methods on ``_Parser``:
when the pattern or a check rejects a term, they read that term again and
raise at its first fault.  ``str`` and :func:`element_json` render from
the element's numerators; neither builds a ``Fraction``.
"""

from __future__ import annotations

import json
import re

from .alternative import AElement, _basis_type
from .core import LETTER_INDEX, LETTERS, UElement, _accumulate, _pruned, _reduced

_SIGNS = {"+", "-", "−"}
# ASCII only: str.isdigit() also admits "²", which int() rejects
_DIGITS = frozenset("0123456789")
_UINT = re.compile("[0-9]*").match
# \s is exactly str.isspace(); the tests check every code point
_S = r"\s*"
_WS = re.compile(_S).match


def _slot(k: int) -> str:
    """The pattern of the ``k``-th letter's factor in a monomial: the letter,
    then ``^`` and the exponent's digits or an empty group, then ``*``
    (spaces allowed) only where a later letter follows; the whole slot is
    optional.  Juxtaposed factors need no ``*``."""
    later = LETTERS[k + 1:]
    join = rf"(?:{_S}\*{_S}(?=[{later}]))?" if later else ""
    return rf"(?:{LETTERS[k]}(?:\^([0-9]+)|()){join})?"


# one signed term and the spaces after it, matched only when the next sign
# or the end follows.  The monomial is the five slots in letter order, so
# a letter out of order or repeated does not match.  The groups are the
# minus sign, the numerator, the denominator and each slot's pair.
_TERM = re.compile(
    rf"(?:([\-−])|\+)?{_S}(?=[0-9a-e])"
    rf"(?:([0-9]+)(?:{_S}/{_S}([0-9]+))?(?:{_S}(?:\*{_S})?(?=[a-e]))?)?"
    rf"{''.join(map(_slot, range(5)))}{_S}(?=[+\-−]|\Z)"
).match


class ParseError(ValueError):
    """Malformed element expression; ``offset`` is a UTF-8 byte position."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"parse error at byte {self.offset}: {message}")


class _Parser:
    """The error locator of :func:`parse_element`.

    :func:`parse_element` accepts a term only through the pattern
    ``_TERM``, which reads the whole signed term, its monomial as five
    ordered letter slots, and matches only where the next sign or the end
    follows.  When the pattern does not match, or the denominator is zero,
    or a number is past the ``int`` digit limit, :meth:`locate` reads that
    term again with the grammar's rules (``term``, ``rational``,
    ``monomial``, ``uint``) and raises the ``ParseError`` of its first
    fault, so that every message and offset is the grammar's.  It accepts
    nothing.  ``i`` is the position of the next character; each rule reads
    from ``i`` and leaves it just past what it consumed.
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

    def rational(self) -> None:
        self.uint("a number")
        text = self.text
        j = _WS(text, self.i).end()
        if text[j:j + 1] == "/":
            self.i = den_pos = _WS(text, j + 1).end()
            if self.uint("a denominator") == 0:
                self.fail("zero denominator", den_pos)

    def monomial(self) -> None:
        text, i = self.text, self.i
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
                self.uint("an exponent after '^'")
                i = self.i
            # another factor? '*' (spaces allowed) or direct juxtaposition
            j = _WS(text, i).end()
            if text[j:j + 1] == "*":
                i = _WS(text, j + 1).end()
                continue
            if text[i:i + 1] in LETTER_INDEX:
                continue
            self.i = i
            return

    def term(self) -> None:
        """Read the unsigned term at ``i``."""
        text = self.text
        ch = text[self.i:self.i + 1]
        if ch in _DIGITS:
            self.rational()
            j = _WS(text, self.i).end()
            ch = text[j:j + 1]
            if ch == "*":
                self.i = j = _WS(text, j + 1).end()
                if text[j:j + 1] not in LETTER_INDEX:
                    self.fail("expected a monomial after '*'")
                self.monomial()
            elif ch in LETTER_INDEX:
                self.i = j
                self.monomial()
        elif ch in LETTER_INDEX:
            self.monomial()
        elif ch.isalpha():
            self.fail(f"unknown generator {ch!r}; expected one of a, b, c, d, e")
        else:
            self.fail("expected a term" if ch else "unexpected end of input")

    def locate(self, i: int):
        """Raise the ``ParseError`` of the signed term at ``i``.

        The rules raise at the term's first fault; a term that they read
        through is one that neither the next sign nor the end follows.
        """
        text = self.text
        if text[i:i + 1] in _SIGNS:
            i = _WS(text, i + 1).end()
        self.i = i
        self.term()
        self.fail("expected '+' or '-' between terms", _WS(text, self.i).end())


def parse_element(text: str, cls=UElement):
    """Parse canonical-form text into an element (``cls`` picks the algebra).

    ``cls`` is ``UElement`` or ``AElement``; any other class raises
    ``TypeError``.  Raises :class:`ParseError` for malformed input.
    Constructing the element may additionally raise ``ValueError`` when a
    well-formed monomial is not a basis monomial of the target algebra.
    """
    if cls is not UElement and cls is not AElement:
        raise TypeError(f"parse_element builds a UElement or an AElement, got {cls!r}")
    # the one path that accepts text: a term per match of _TERM
    n = len(text)
    i = _WS(text).end()
    if i == n:
        raise ParseError("empty expression", text, i)
    den, acc = 1, {}
    while i < n:
        m = _TERM(text, i)
        if m is None:
            _Parser(text).locate(i)
        minus, num, q, a, a1, b, b1, c, c1, d, d1, e, e1 = m.groups()
        try:
            num = int(num) if num else 1
            q = int(q) if q else 1
            # a slot's exponent: its digits, 1 when written bare, 0 when absent
            mono = (
                int(a) if a else 0 if a1 is None else 1,
                int(b) if b else 0 if b1 is None else 1,
                int(c) if c else 0 if c1 is None else 1,
                int(d) if d else 0 if d1 is None else 1,
                int(e) if e else 0 if e1 is None else 1,
            )
        except ValueError:  # past sys.get_int_max_str_digits()
            mono = None
        if mono is None or not q:
            _Parser(text).locate(i)
        den = _accumulate(acc, den, -num if minus else num, q, {mono: 1})
        i = m.end()
    for mono in acc:  # before pruning: a cancelled term must be a basis term too
        cls._check_member(mono)
    return cls._make(*_reduced(den, _pruned(acc)))


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
            item["type"] = _basis_type(mono)
        out.append(item)
    return json.dumps(out)
