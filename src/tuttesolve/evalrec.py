"""Exact unrolling of P-recurrences.

`PRec.terms` iterates term by term with `Fraction`s, because its callers
need every term.  `unroll` needs one far-out term: past the last singular
index it multiplies integer companion matrices in a product tree (binary
splitting), block by block, and sheds common content at every product.
A lacunary recurrence, whose nonzero coefficients sit a multiple of a
period d apart (walks whose steps share a period give these), is stepped
by d along the residue class of the index, with companion matrices of
order s/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import floordiv, mul

from . import polyq
from .errors import InvalidIndex

#: Leaves folded at once into one stack node; it bounds the peak memory.
_BLOCK = 512


@dataclass(frozen=True)
class SequenceValue:
    """One exact sequence entry, converted to decimal once."""

    index: int
    value: Fraction

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    @cached_property
    def decimal(self) -> str:
        return polyq.num_str(self.value)

    @property
    def digits(self) -> int:
        return len(self.decimal.partition("/")[0].lstrip("-"))

    def __str__(self) -> str:
        return self.decimal


def _horner(q, ks) -> list[int]:
    """q(k) for every k in ks, in one vectorised Horner pass."""
    vals = [q[-1] if q else 0] * len(ks)
    for c in reversed(q[:-1]):
        vals = [v * k + c for v, k in zip(vals, ks)]
    return vals


def _fold(E: list[list[int]], D: list[int], s: int):
    """Product of s x s integer matrices; node i, first to last, has entry
    (r, c) at E[r*s + c][i] over D[i].  Each level multiplies adjacent
    pairs, the later on the left, and divides each product by the gcd of
    its denominator and entries.  Returns the one node left, in that form.
    """
    idx = range(s)
    while len(D) > 1:
        L, R = [e[1::2] for e in E], [e[0::2] for e in E]
        P = [list(map(sum, zip(*(map(mul, L[r * s + t], R[t * s + c])
                                 for t in idx)))) for r in idx for c in idx]
        den = list(map(mul, D[1::2], D[0::2]))
        g = list(map(gcd, den, *P))
        m = 2 * len(den)  # an odd last node waits for the next level
        E = [list(map(floordiv, p, g)) + e[m:] for p, e in zip(P, E)]
        D = list(map(floordiv, den, g)) + D[m:]
    return E, D


def _stretch(q, c: int, d: int) -> list[int]:
    """Coefficients of q(c + d*j) as a polynomial in j."""
    return [x * d**i for i, x in enumerate(polyq.pshift(q, c))]


def unroll(rec, G: int) -> SequenceValue:
    """Value of the sequence at index G, without the terms before it.

    With s = rec.order and head = s + (last nonnegative integer root of
    q_s) + 1, the values below head come from `PRec.terms`.  Past head the
    recurrence steps by its period: with T = {t : q_t != 0}, t0 = min T and
    d = gcd(s - t : t in T) (1 if T = {s}), row n links only indices
    n + t0 + d*u, so b_j = a(i0 + d*j), with i0 = G (mod d) in [t0, t0+d),
    satisfies sum_u p_u(j) b_(j+u) = 0 with p_u(j) = q_(t0+d*u)(i0-t0+d*j),
    of order S = (s - t0)/d.  Each row that makes a b at or past head has
    q_s != 0 there, so b is fixed by its values below head.

    A step j -> j+1 of b is the integer companion matrix C(j), with p_S(j)
    on the superdiagonal and -p_0(j) .. -p_(S-1)(j) in its last row, over
    p_S(j).  The leaves, first to last, are the start matrix (first column
    b_lo .. b_(lo+S-1), the last S values of b below head, over their
    common denominator) and C(lo) .. C(J-S), with J = (G - i0)/d.  Each
    block of `_BLOCK` leaves folds to one node, the block nodes merge on a
    stack keyed by size, and b_J is entry (S-1, 0) of the top node over
    its denominator.
    """
    if G < 0:
        raise InvalidIndex(f"sequence index must be nonnegative, got {G}")
    s = rec.order
    head = rec.initials_needed(rec.coeffs)
    if G < head:
        return SequenceValue(G, rec.terms(G + 1)[G])
    T = [t for t, q in enumerate(rec.coeffs) if q]
    t0, d = T[0], gcd(*(s - t for t in T)) or 1
    S = (s - t0) // d
    if not S:
        # q_s(G - s) a(G) = 0 with q_s(G - s) != 0
        return SequenceValue(G, Fraction(0))
    i0 = t0 + (G - t0) % d
    v = rec.terms(head)[i0::d]
    lo = len(v) - S
    v = v[lo:]
    scale = lcm(*(x.denominator for x in v))
    start = [0] * (S * S)
    start[::S] = [x.numerator * (scale // x.denominator) for x in v]
    *rest, lead = (_stretch(rec.coeffs[t], i0 - t0, d)
                   for t in range(t0, s + 1, d))
    n = (G - i0) // d - lo - S + 2  # leaf j >= 1 is C(lo + j - 1)
    stack = []  # (size, node): a node of size 2^i holds 2^i blocks
    for j in range(0, n, _BLOCK):
        ks = range(lo + max(j, 1) - 1, lo + min(j + _BLOCK, n) - 1)
        b = _horner(lead, ks)
        E = [b if c == r + 1 else [0] * len(b)
             for r in range(S - 1) for c in range(S)]
        E += [_horner([-c for c in q], ks) for q in rest]
        if not j:
            E, b = [[x] + e for x, e in zip(start, E)], [scale] + b
        node, size = _fold(E, b, S), 1
        # the last block folds in everything the stack holds
        while stack and (stack[-1][0] == size or j + _BLOCK >= n):
            (_, (E, b)), size = stack.pop(), 2 * size
            node = _fold([p + e for p, e in zip(E, node[0])], b + node[1], S)
        stack.append((size, node))
    (_, (E, D)), = stack
    return SequenceValue(G, Fraction(E[(S - 1) * S][0], D[0]))
