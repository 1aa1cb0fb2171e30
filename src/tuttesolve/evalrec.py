"""Exact unrolling of P-recurrences and the closed-form test oracle."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import factorial

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
        from .report import _frac_str
        return _frac_str(self.value)


def _iterate(rec, count: int) -> list[Fraction]:
    """First `count` terms; singular indices come from the initials."""
    s = rec.order
    lead = [Fraction(c) for c in rec.coeffs[-1]]
    out: list[Fraction] = []
    for n in range(count):
        if n < s:
            if n >= len(rec.initials):
                raise MissingInitials(f"no initial value for index {n}")
            out.append(rec.initials[n])
            continue
        k = n - s  # recurrence row producing a_(k+s)
        lv = polyq.peval(lead, Fraction(k))
        if lv == 0:
            if n >= len(rec.initials):
                raise MissingInitials(
                    f"leading coefficient vanishes at index {n} and no "
                    f"initial value covers it")
            out.append(rec.initials[n])
            continue
        acc = Fraction(0)
        for t in range(s):
            q = [Fraction(c) for c in rec.coeffs[t]]
            if q:
                acc += polyq.peval(q, Fraction(k)) * out[k + t]
        out.append(-acc / lv)
    return out


def unroll(rec, G: int) -> SequenceValue:
    """Value of the sequence at index G by exact iteration."""
    if G < 0:
        raise InvalidIndex(f"sequence index must be nonnegative, got {G}")
    vals = _iterate(rec, G + 1)
    return SequenceValue(G, vals[G])


def tutte_closed_form(n: int) -> SequenceValue:
    """2 * (3n+3)(3n+4)...(4n+1) / (n+1)!  with the empty-product reading.

    n = 0 returns the series' constant term 1; the product is empty at
    n = 1 (upper limit below lower), giving 2/2! = 1.
    """
    if n < 0:
        raise InvalidIndex(f"closed form needs a nonnegative index, got {n}")
    if n == 0:
        return SequenceValue(0, Fraction(1))
    prod = 1
    for k in range(3 * n + 3, 4 * n + 2):
        prod *= k
    return SequenceValue(n, Fraction(2 * prod, factorial(n + 1)))
