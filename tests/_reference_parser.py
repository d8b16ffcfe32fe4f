"""A frozen copy of the character-at-a-time element parser.

This is the parser that ``malcev5.exprs`` used before it read whitespace
and digit runs with regexes and summed integer numerators.  The parity
test in ``test_exprs.py`` holds the package's parser to it: the same
elements, and the same error messages at the same UTF-8 offsets.  Do not
edit it to follow the package; it is the specification.
"""

from __future__ import annotations

from fractions import Fraction

from malcev5.core import LETTER_INDEX

_MINUS = {"-", "−"}
_SIGNS = {"+"} | _MINUS
_DIGITS = frozenset("0123456789")


class ReferenceParseError(ValueError):
    """Malformed element expression; ``offset`` is a UTF-8 byte position."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"parse error at byte {self.offset}: {message}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.i = 0

    def fail(self, message: str, pos: int | None = None):
        raise ReferenceParseError(message, self.text, self.i if pos is None else pos)

    def skip_ws(self):
        while self.i < self.n and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < self.n else ""

    def uint(self, what: str) -> int:
        start = self.i
        while self.i < self.n and self.text[self.i] in _DIGITS:
            self.i += 1
        if self.i == start:
            self.fail(f"expected {what}", start)
        try:
            return int(self.text[start:self.i])
        except ValueError:  # past sys.get_int_max_str_digits()
            self.fail(f"too many digits in {what}", start)

    def rational(self) -> Fraction:
        num = self.uint("a number")
        save = self.i
        self.skip_ws()
        if self.peek() == "/":
            self.i += 1
            self.skip_ws()
            den_pos = self.i
            den = self.uint("a denominator")
            if den == 0:
                self.fail("zero denominator", den_pos)
            return Fraction(num, den)
        self.i = save
        return Fraction(num)

    def monomial(self) -> tuple:
        exps = [0, 0, 0, 0, 0]
        last = -1
        while True:
            pos = self.i
            ch = self.peek()
            v = LETTER_INDEX.get(ch)
            if v is None:
                self.fail(
                    f"unknown generator {ch!r}; expected one of a, b, c, d, e", pos
                )
            if v <= last:
                self.fail("monomial letters must be in order a..e", pos)
            last = v
            self.i += 1
            exp = 1
            if self.peek() == "^":
                self.i += 1
                exp = self.uint("an exponent after '^'")
            exps[v] = exp
            save = self.i
            self.skip_ws()
            if self.peek() == "*":
                self.i += 1
                self.skip_ws()
                continue
            self.i = save
            if self.peek() in LETTER_INDEX:
                continue
            return tuple(exps)

    def term(self):
        ch = self.peek()
        if ch in _DIGITS:
            coeff = self.rational()
            save = self.i
            self.skip_ws()
            if self.peek() == "*":
                self.i += 1
                self.skip_ws()
                if self.peek() not in LETTER_INDEX:
                    self.fail("expected a monomial after '*'")
                return coeff, self.monomial()
            if self.peek() in LETTER_INDEX:
                return coeff, self.monomial()
            self.i = save
            return coeff, (0, 0, 0, 0, 0)
        if ch in LETTER_INDEX:
            return Fraction(1), self.monomial()
        if ch.isalpha():
            self.fail(f"unknown generator {ch!r}; expected one of a, b, c, d, e")
        self.fail("expected a term" if ch else "unexpected end of input")

    def parse(self, cls):
        self.skip_ws()
        if self.i == self.n:
            self.fail("empty expression")
        terms = []
        first = True
        while True:
            self.skip_ws()
            if self.i == self.n:
                break
            ch = self.peek()
            sign = 1
            if ch in _SIGNS:
                sign = -1 if ch in _MINUS else 1
                self.i += 1
                self.skip_ws()
            elif not first:
                self.fail("expected '+' or '-' between terms")
            coeff, mono = self.term()
            terms.append((mono, sign * coeff))
            first = False
        return cls(terms)


def reference_parse(text: str, cls):
    """``text`` parsed into ``cls`` as the frozen parser does it."""
    return _Parser(text).parse(cls)
