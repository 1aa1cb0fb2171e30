"""Guess an exact algebraic equation P(f, x) = 0 from series coefficients.

The fit is exact linear algebra over every available coefficient, posed
over the integers: the series is put over one common denominator d, and
the table of powers of d*s it reads is integer.  A returned equation
annihilates the whole input prefix by construction.
"""

from __future__ import annotations

import math

from . import linalg
from .errors import InvalidBounds, Sentinel, ZeroPolynomial
from .mpoly import MPoly, squarefree_primitive
from .series import QSeries, _mul_trunc


#: Falsy sentinel: no support within the degree bounds fits the series.
FAIL = Sentinel.FAIL


def _fix_sign(P: MPoly) -> MPoly:
    # canonical sign: lowest x-coefficient of the top f-power block positive
    top = P.coeff_of("f", P.degree("f"))
    low = top.coeff_of("x", top.valuation("x"))
    return -P if low.constant_value() < 0 else P


class AlgEq:
    """Polynomial relation in {f, x} together with its series witness.

    The constructor only checks shape (nonzero, right variables); whether
    the relation actually annihilates the witness is the certifier's job,
    which must be able to receive wrong candidates and refute them.
    """

    __slots__ = ("P", "branch", "degF")

    def __init__(self, P: MPoly, branch: QSeries):
        if P.is_zero:
            raise ZeroPolynomial("algebraic equation must be nonzero")
        extra = set(P.variables()) - {"f", "x"}
        if extra:
            raise ValueError(f"unexpected variables in algebraic equation: {sorted(extra)}")
        self.P = P
        self.branch = branch
        self.degF = P.degree("f")

    def render(self) -> str:
        return self.P.render()

    def __repr__(self) -> str:
        return f"AlgEq({self.P.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgEq):
            return NotImplemented
        return self.P == other.P and self.branch == other.branch

    def __hash__(self) -> int:
        return hash((self.P, self.branch))


def guess_algeq(s: QSeries, maxDegF: int, maxDegX: int, margin: int = 6):
    """Search for integer κ with Σ κ_ij f^i x^j ≡ 0 mod x^len(s), f = s.

    Supports are tried by degree in f, then in x; a support is only
    eligible when the coefficient count exceeds the unknown count by at
    least `margin`.
    Within a support, `linalg.relations` orders the candidates.  Returns
    the first candidate whose canonical squarefree part still annihilates
    the series, as an AlgEq, or FAIL when no eligible support fits.
    """
    if maxDegF < 1 or maxDegX < 0 or margin < 4:
        raise InvalidBounds(
            f"need maxDegF >= 1, maxDegX >= 0, margin >= 4; got ({maxDegF}, {maxDegX}, {margin})"
        )
    L = len(s)
    d = math.lcm(*(c.denominator for c in s.coeffs))
    base = [c.numerator * (d // c.denominator) for c in s.coeffs]
    pows = [[1] + [0] * (L - 1)]          # pows[i] = (d*s)^i mod x^L, built on demand
    shapes = ((dF, dX) for dF in range(1, maxDegF + 1)
              for dX in range(maxDegX + 1) if (dF + 1) * (dX + 1) + margin <= L)

    def column(dF: int, i: int, j: int) -> list[int]:
        # d^dF times the column of s^i x^j: the same kernel, over Z
        while len(pows) <= dF:
            pows.append(_mul_trunc(pows[-1], base, L, 0))
        scale = d ** (dF - i)
        return [0] * j + [c * scale for c in pows[i][:L - j]]

    # f^0 columns are unit vectors, so every candidate involves f
    for grid in linalg.relations(shapes, column):
        raw = MPoly.from_items(("f", "x"), (((i, j), c) for i, row in enumerate(grid)
                                            for j, c in enumerate(row)))
        P = _fix_sign(squarefree_primitive(raw, "f"))
        # squarefree reduction can weaken a truncated fit; re-verify on
        # the power table, which covers P: a factor of the candidate has
        # no larger f- or x-degree than its shape.  The sum is d^degF(P)
        # times P(s, x)'s x^m coefficient.
        top = P.degree("f")
        terms = [(i, j, c * d ** (top - i)) for (i, j), c in P.items(("f", "x"))]
        if not any(sum(c * pows[i][m - j] for i, j, c in terms if j <= m)
                   for m in range(L)):
            return AlgEq(P, s)
    return FAIL
