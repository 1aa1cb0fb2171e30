"""Exact unrolling of P-recurrences.

`PRec.terms` iterates term by term with `Fraction`s, because its callers
need every term.  `unroll` needs one far-out term, and past the last
singular index it takes one of two routes.  A lacunary recurrence, whose
nonzero coefficients sit a multiple of a period d apart (walks whose steps
share a period give these), is first stepped by d along the residue class
of the index; its order s becomes S = s/d.

- The product route, for S = 1 when the ratio b_(j+1)/b_j, reduced, is an
  integer content times linear factors over Q (a hypergeometric term:
  Catalan, Tutte's maps and triangulations, the Dyck and Lukasiewicz
  walks).  The value is a signed product of prime powers, each exponent a
  count along arithmetic progressions, as for factorials (P. Borwein, J.
  Algorithms 6, 1985): no gcd and no division of large integers build
  it, though a value that is not an integer meets one gcd in `Fraction`.
- Block stepping otherwise (S >= 2, a factor of degree 2 or more such as
  n^2 + 1's, or values too far above the step count): a vector of start
  values meets the companion matrices one folded block of steps at a
  time, with one exact division per block and no gcd of its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, isqrt, lcm
from operator import floordiv, mul

from . import polyq
from .errors import InvalidIndex

#: Steps folded into one matrix; it bounds the size of the block products.
_BLOCK = 512
_REDUCE = 16  #: smaller nodes skip `_fold`'s gcd, which sheds 2-4 bits
#: The product route counts over every prime up to the largest value V of
#: a linear factor, block stepping over the n steps; past V = 32 (n + 32)
#: the primes cost more.
_SPREAD = 32


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
    pairs, the later on the left, and divides a product of `_REDUCE` or more
    leaves by the gcd of its denominator and entries; returns the last node."""
    idx, span = range(s), 1
    while len(D) > 1:
        L, R = [e[1::2] for e in E], [e[0::2] for e in E]
        P = [list(map(sum, zip(*(map(mul, L[r * s + t], R[t * s + c])
                                 for t in idx)))) for r in idx for c in idx]
        den, span = list(map(mul, D[1::2], D[0::2])), 2 * span
        if span >= _REDUCE:
            g = list(map(gcd, den, *P))
            P = [list(map(floordiv, p, g)) for p in P]
            den = list(map(floordiv, den, g))
        m = 2 * len(den)  # an odd last node waits for the next level
        E = [p + e[m:] for p, e in zip(P, E)]
        D = den + D[m:]
    return E, D


def _primes(n: int) -> list[int]:
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _product(xs: list[int]) -> int:
    """Product of xs by a balanced tree."""
    while len(xs) > 1:
        xs = [*map(mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1:]]
    return xs[0] if xs else 1


def _linear_factors(q: list[int]):
    """q as (content, [(a, b, m), ...]) with q = content * prod (a*j + b)^m,
    a > 0 and gcd(a, b) = 1; None if q has a factor irreducible over Q of
    degree 2 or more."""
    fs = []
    for r in polyq.rational_roots(q):
        m = 0
        while not polyq.peval(q, r):
            q, m = polyq.idivexact(q, [-r.numerator, r.denominator]), m + 1
        fs.append((r.denominator, -r.numerator, m))
    return (q[0], fs) if len(q) == 1 else None


def _hypergeometric(p0: list[int], p1: list[int], lo: int, J: int,
                    start: Fraction):
    """b_J for b_(j+1) = -p0(j)/p1(j) * b_j and b_lo = start, where p1 has
    no root at j >= lo; None unless p0/p1, reduced, is a content times
    linear factors over Q with values below `_SPREAD` (n + `_SPREAD`).

    Over the n = J - lo steps, a factor a*j + b runs through an arithmetic
    progression, negative below its root and positive above.  The exponent
    of a prime p in the product of the |values| is the sum over k of the
    multiples m*i of m = p^k among them, those with i = c (mod a) for one c
    read from m mod a; p | a divides no value, as gcd(a, b) = 1.  A content
    adds n * v_p(content) for each p up to the largest value, and what is
    left of it is raised to the n-th power whole.  The gcd in Z[j] leaves
    the contents coprime, so numerator and denominator come out coprime.
    """
    g = polyq.igcd_poly(p0, p1)
    num, den = (_linear_factors(polyq.idivexact(p, g)) for p in (p0, p1))
    if num is None or den is None:
        return None
    (c0, fnum), (c1, fden) = num, den
    n = J - lo
    # the count of negative factors: the step's -1 and the contents first
    neg = n * ((c0 < 0) + (c1 < 0) + 1)
    runs = []  # (a, r, L, H, w): the values in [L, H] that are r mod a
    for a, b, w in [*fnum, *((a, b, -m) for a, b, m in fden)]:
        if w > 0 and b % a == 0 and lo <= -b // a < J:
            return Fraction(0)
        top = min(J, -(b // a))  # a*j + b < 0 for j < top
        bot = max(lo, -b // a + 1)  # a*j + b > 0 for j >= bot
        if top > lo:
            neg += w * (top - lo)
            runs.append((a, -b % a, -(a * (top - 1) + b), -(a * lo + b), w))
        if bot < J:
            runs.append((a, b % a, a * bot + b, a * (J - 1) + b, w))
    V = max((H for *_, H, _ in runs), default=1)
    if V > _SPREAD * (n + _SPREAD):
        return None
    ps = _primes(V)
    exps = [0] * len(ps)
    for a, r, L, H, w in runs:
        # c[t] with c[t] * t = r (mod a), for t = p^k mod a prime to a
        c = [r * pow(t, -1, a) % a if gcd(t, a) == 1 else -1
             for t in range(a)]
        for i, p in enumerate(ps):
            if p > H:
                break
            m = p
            while m <= H:
                if (ct := c[m % a]) >= 0:
                    exps[i] += w * ((H // m - ct) // a
                                    - ((L - 1) // m - ct) // a)
                m *= p
    parts = [abs(c0), abs(c1)]
    for i, w in ((0, n), (1, -n)):
        for j, p in enumerate(ps):
            if parts[i] < p:
                break
            while not parts[i] % p:
                parts[i] //= p
                exps[j] += w
    P = _product([p**e for p, e in zip(ps, exps) if e > 0]) * parts[0]**n
    Q = _product([p**-e for p, e in zip(ps, exps) if e < 0]) * parts[1]**n
    return Fraction((-1)**(neg % 2) * start.numerator * P,
                    start.denominator * Q)


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

    At S = 1, `_hypergeometric` gives b_J from b_lo, the last value of b
    below head, when the ratio -p_0/p_1 splits.  Otherwise a step j -> j+1
    of b is the integer companion matrix C(j), with p_S(j) on the
    superdiagonal and -p_0(j) .. -p_(S-1)(j) in its last row, over p_S(j).
    The vector w starts as b_lo .. b_(lo+S-1), the last S values below
    head, times `scale`, their common denominator.  The steps C(lo) ..
    C(J-S), J = (G - i0)/d, fold `_BLOCK` at a time into E over D, and w
    becomes E w / D: exact on an integer sequence, else `scale` takes what
    D leaves.  b_J is w[S-1] / scale.
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
    v, J = v[lo:], (G - i0) // d
    *rest, lead = (_stretch(rec.coeffs[t], i0 - t0, d)
                   for t in range(t0, s + 1, d))
    if S == 1:
        value = _hypergeometric(rest[0], lead, lo, J, v[0])
        if value is not None:
            return SequenceValue(G, value)
    scale = lcm(*(x.denominator for x in v))
    w = [x.numerator * (scale // x.denominator) for x in v]
    for k in range(lo, J - S + 1, _BLOCK):
        ks = range(k, min(k + _BLOCK, J - S + 1))
        b = _horner(lead, ks)
        E = [b if c == r + 1 else [0] * len(b)
             for r in range(S - 1) for c in range(S)]
        E += [_horner([-c for c in q], ks) for q in rest]
        E, (D,) = _fold(E, b, S)
        u = [sum(e[0] * x for e, x in zip(E[r * S:], w)) for r in range(S)]
        w, rems = zip(*(divmod(x, D) for x in u))
        if any(rems):  # not an integer sequence: carry the denominator
            g = gcd(D, *u)
            w, scale = [x // g for x in u], scale * (D // g)
    return SequenceValue(G, Fraction(w[S - 1], scale))
