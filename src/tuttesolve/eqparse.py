"""Text grammar for functional equations.

The accepted language is plain polynomial arithmetic over the four fixed
names ``psi``, ``g``, ``x``, ``y``::

    equation := expr ('=' expr)?
    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base (('^' | '**') natural)?
    base     := name | natural | '(' expr ')' | '-' factor

Whitespace is ignored.  An optional right-hand side (usually ``= 0``) is
subtracted from the left.  Division and negative exponents are rejected as
``NonPolynomial`` rather than syntax errors, and any identifier outside the
four names raises ``UnknownVariable``; every error carries the 0-based
offset of the offending token.  A power or product with an exponent of
2**20 or more is ``NonPolynomial`` at its exponent or ``*``; one that could
have more than ``_MAX_TERMS`` terms is ``ResourceCeiling`` there, refused
before it is expanded.  An exponent written with more than
``_MAX_EXP_DIGITS`` digits is ``NonPolynomial`` at once, whatever its
base.  Coefficients may have any number of digits, all ASCII ``0-9``;
a digit of any other script is an unexpected character.
"""

from __future__ import annotations

from math import comb

from .errors import (EquationSyntaxError, NonPolynomial, ResourceCeiling,
                     UnknownVariable)
from .funceq import FuncEq
from .mpoly import MPoly
from .polyq import int_parse

_NAMES = ("psi", "g", "x", "y")

#: A number is ASCII digits only; ``str.isdigit`` would take any script's.
_DIGITS = frozenset("0123456789")

#: Most terms one product or power may build while parsing.
_MAX_TERMS = 10_000

#: Most significant digits of an exponent: 10**7 is past 2**20.
_MAX_EXP_DIGITS = 7


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind          # "num", "name", or the operator itself
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in _NAMES:
                raise UnknownVariable(name, i)
            out.append(_Token("name", name, i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            out.append(_Token("pow", "**", i))
            i += 2
            continue
        if ch == "^":
            out.append(_Token("pow", "^", i))
            i += 1
            continue
        if ch in "+-*()/=":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def equation(self) -> MPoly:
        lhs = self.expr()
        if self.peek().kind == "=":
            self.take()
            lhs = lhs - self.expr()
        t = self.peek()
        if t.kind != "end":
            raise EquationSyntaxError(f"unexpected {t.text!r}", t.pos)
        return lhs

    def expr(self) -> MPoly:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def term(self) -> MPoly:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "*":
                self.take()
                acc = _fitting(MPoly.__mul__, acc, self.factor(), t.pos)
            elif t.kind == "/":
                raise NonPolynomial("division is not allowed", t.pos)
            else:
                return acc

    def factor(self) -> MPoly:
        b = self.base()
        if self.peek().kind != "pow":
            return b
        self.take()
        t = self.peek()
        if t.kind == "-":
            raise NonPolynomial("exponent must be a natural number", t.pos)
        if t.kind != "num":
            raise EquationSyntaxError("expected a natural number exponent", t.pos)
        self.take()
        digits = t.text.lstrip("0") or "0"
        if len(digits) > _MAX_EXP_DIGITS:
            raise NonPolynomial(f"exponent too large: more than "
                                f"{_MAX_EXP_DIGITS} digits", t.pos)
        return _fitting(MPoly.__pow__, b, int(digits), t.pos)

    def base(self) -> MPoly:
        t = self.take()
        if t.kind == "num":
            # int_parse reads any number of digits; int(str) stops at 4,300
            return MPoly.const(int_parse(t.text))
        if t.kind == "name":
            return MPoly.var(t.text)
        if t.kind == "(":
            inner = self.expr()
            c = self.take()
            if c.kind != ")":
                raise EquationSyntaxError("expected ')'", c.pos)
            return inner
        if t.kind == "-":
            return -self.factor()
        if t.kind == "end":
            raise EquationSyntaxError("unexpected end of input", t.pos)
        raise EquationSyntaxError(f"unexpected {t.text!r}", t.pos)


def _fitting(op, a, b, pos: int) -> MPoly:
    """op(a, b), with a result too large or an exponent that does not fit
    reported at ``pos``.  op is ``MPoly.__mul__`` or ``MPoly.__pow__``."""
    t = len(a.terms)
    if op is MPoly.__mul__:
        bound = t * len(b.terms)
    else:
        # monomials of degree b in t unknowns; an exponent past the ceiling
        # already passes it for t >= 2, and clamping it keeps comb cheap
        bound = comb(min(b, _MAX_TERMS) + t - 1, t - 1) if t else 1
    if bound > _MAX_TERMS:
        raise ResourceCeiling(f"result could have {bound} terms, more than "
                              f"{_MAX_TERMS} (at position {pos})")
    try:
        return op(a, b)
    except OverflowError as exc:
        raise NonPolynomial(f"exponent too large: {exc}", pos) from exc


def parse_equation(text: str) -> FuncEq:
    """Parse equation text into a :class:`FuncEq`.

    Semantic rejects (zero polynomial, equation not involving psi) are
    reported as syntax errors at offset 0 so callers see one taxonomy.
    """
    poly = _Parser(text).equation()
    try:
        return FuncEq(poly)
    except ValueError as exc:
        raise EquationSyntaxError(str(exc), 0) from exc
