"""Exact unrolling of P-recurrences.

`PRec.terms` iterates term by term with `Fraction`s, because its callers
need every term.  `unroll` needs one far-out term: it iterates only up to
the last singular index of the recurrence and then multiplies integer
companion matrices in a product tree (binary splitting), clearing every
denominator into one integer that a single gcd reduces at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import mul

from . import polyq
from .errors import InvalidIndex, MissingInitials


@dataclass(frozen=True)
class SequenceValue:
    """One exact sequence entry; integers keep their digit count handy."""

    index: int
    value: Fraction

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    @property
    def digits(self) -> int:
        return Decimal(self.value.numerator).adjusted() + 1

    def __str__(self) -> str:
        return polyq.num_str(self.value)


def _iterate(rec, count: int) -> list[Fraction]:
    """First `count` terms; singular indices come from the initials."""
    s = rec.order
    coeffs = [(t, q) for t, q in enumerate(rec.coeffs[:-1]) if q]
    lead = rec.coeffs[-1]
    out: list[Fraction] = []
    for n in range(count):
        if n < s:
            if n >= len(rec.initials):
                raise MissingInitials(f"no initial value for index {n}")
            out.append(rec.initials[n])
            continue
        k = n - s  # recurrence row producing a_(k+s)
        lv = polyq.peval(lead, k)
        if lv == 0:
            if n >= len(rec.initials):
                raise MissingInitials(
                    f"leading coefficient vanishes at index {n} and no "
                    f"initial value covers it")
            out.append(rec.initials[n])
            continue
        acc = Fraction(0)
        for t, q in coeffs:
            acc += polyq.peval(q, k) * out[k + t]
        out.append(-acc / lv)
    return out


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def unroll(rec, G: int) -> SequenceValue:
    """Value of the sequence at index G, without the terms before it.

    With s = rec.order, every index from head = s + (last nonnegative
    integer root of the leading coefficient q_s) + 1 on is regular:
    a(k+s) = -(q_0(k) a(k) + ... + q_(s-1)(k) a(k+s-1)) / q_s(k) holds for
    every k >= head - s.  Below head the value comes from `_iterate`, which
    takes singular indices from the initials.  From there on, the step
    k -> k+1 is the integer companion matrix C(k), with q_s(k) on the
    superdiagonal and -q_0(k) .. -q_(s-1)(k) in its last row, over the
    denominator q_s(k).  Binary splitting multiplies adjacent products of
    equal length into a balanced product tree of integer matrices and
    integer denominators; one Fraction, so one big gcd, then gives a(G).
    The cost is a few products of O(G log G)-bit integers instead of G
    rational steps, and no term other than a(G) is kept.
    """
    if G < 0:
        raise InvalidIndex(f"sequence index must be nonnegative, got {G}")
    s = rec.order
    head = s + rec._last_singular() + 1
    if G < head:
        return SequenceValue(G, _iterate(rec, G + 1)[G])
    if s == 0:
        # q_0(G) a(G) = 0 with q_0(G) != 0
        return SequenceValue(G, Fraction(0))
    v = _iterate(rec, head)[head - s:]
    scale = lcm(*(x.denominator for x in v))
    *rest, lead = rec.coeffs
    # the factors, first to last: the start vector, then C(head-s) ..
    # C(G-s), each over its denominator.  A product of 2^j factors merges
    # with its left neighbour once that one holds 2^j too, so the stack
    # keeps at most log2(G) products.
    stack = [(1, [[x.numerator * (scale // x.denominator)] for x in v], scale)]
    for k in range(head - s, G - s + 1):
        b = polyq.peval(lead, k)
        B = [[b if j == i + 1 else 0 for j in range(s)] for i in range(s - 1)]
        B.append([-polyq.peval(q, k) for q in rest])
        size = 1
        while stack and stack[-1][0] == size:
            _, A, a = stack.pop()
            B, b, size = _matmul(B, A), a * b, 2 * size
        stack.append((size, B, b))
    # a(G) is the last entry of the product: fold the last row into it
    row, den = [[0] * (s - 1) + [1]], 1
    for _, A, a in reversed(stack):
        row, den = _matmul(row, A), den * a
    return SequenceValue(G, Fraction(row[0][0], den))
