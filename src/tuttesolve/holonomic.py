"""Algebraic equation -> linear ODE -> P-recurrence, plus minimization.

The ODE step works over Z[x] with ``MPoly``: each derivative of the branch
is an integer polynomial in f and x over a power of dP/df, reduced mod P by
a pseudo-remainder, and the lowest-order linear dependence among 1, f, f',
..., homogeneous preferred, comes from a fraction-free kernel
(``linalg.nullspace_field``).  The recurrence step is the classical
coefficient extraction x^j f^(i) |-> falling-factorial shift, with an
explicit validity repair at small indices checked against the witness
series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Sequence

from . import linalg, polyq
from .errors import (InsufficientData, MissingInitials, NonSquarefree,
                     SelfCheckFailed, Sentinel)
from .guessing import AlgEq
from .mpoly import MPoly, prem, resultant
from .series import QSeries, _mul_trunc


#: Falsy sentinel: no recurrence within the complexity cap.
ABSENT = Sentinel.ABSENT


def _poly_str_x(p: Sequence[int]) -> str:
    return polyq.poly_str(list(p), "x")


class LinODE:
    """Sum of p_i(x) * f^(i)(x) plus an inhomogeneous polynomial, = 0."""

    __slots__ = ("coeffs", "inhom", "branch")

    def __init__(self, coeffs: Sequence[Sequence[int]], inhom: Sequence[int],
                 branch: QSeries):
        cs = [polyq.trim(list(map(int, p))) for p in coeffs]
        if not cs or not cs[-1]:
            raise ValueError("leading ODE coefficient must be nonzero")
        self.coeffs = tuple(tuple(p) for p in cs)
        self.inhom = tuple(polyq.trim(list(map(int, inhom))))
        self.branch = branch

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def render(self) -> str:
        parts = []
        for i, p in enumerate(self.coeffs):
            if not p:
                continue
            head = "f" + "'" * i if i <= 3 else f"f^({i})"
            parts.append(f"({_poly_str_x(p)})*{head}")
        if self.inhom:
            parts.append(f"({_poly_str_x(self.inhom)})")
        return " + ".join(parts) + " = 0"

    def __repr__(self) -> str:
        return f"LinODE({self.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinODE):
            return NotImplemented
        return self.coeffs == other.coeffs and self.inhom == other.inhom


class PRec:
    """Sum of q_t(n) * a_(n+t) = 0 with exact initial values."""

    __slots__ = ("coeffs", "initials")

    def __init__(self, coeffs: Sequence[Sequence[int]], initials: Sequence):
        cs = [polyq.trim(list(map(int, q))) for q in coeffs]
        if not cs or not cs[-1]:
            raise ValueError("leading recurrence coefficient must be nonzero")
        self.coeffs = tuple(tuple(q) for q in cs)
        self.initials = tuple(Fraction(v) for v in initials)
        need = self.order + self._last_singular() + 1
        if len(self.initials) < need:
            raise ValueError(
                f"need at least {need} initial values to cover singular indices")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(polyq.deg(list(q)) for q in self.coeffs if q)

    @property
    def complexity(self) -> int:
        return self.order + self.degree

    def _last_singular(self) -> int:
        roots = [r for r in polyq.integer_roots(list(self.coeffs[-1])) if r >= 0]
        return max(roots) if roots else -1

    def render(self) -> str:
        parts = []
        for t, q in enumerate(self.coeffs):
            if q:
                parts.append(f"({polyq.poly_str(list(q), 'n')})*a(n+{t})"
                             if t else f"({polyq.poly_str(list(q), 'n')})*a(n)")
        return " + ".join(parts) + " = 0"

    def __repr__(self) -> str:
        return f"PRec({self.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PRec):
            return NotImplemented
        return self.coeffs == other.coeffs and self.initials == other.initials

    def terms(self, count: int) -> list[Fraction]:
        """First `count` terms, pulling singular indices from the initials.

        Steps in ints while every term so far is one, and in Fractions
        from the first term that is not."""
        s = self.order
        coeffs = [(t, q) for t, q in enumerate(self.coeffs[:-1]) if q]
        lead = self.coeffs[-1]
        out: list = []
        exact = True      # every term in out is an int
        for n in range(count):
            k = n - s  # recurrence row producing a_(k+s)
            lv = polyq.peval(lead, k) if k >= 0 else 0
            if lv == 0:
                if n >= len(self.initials):
                    raise MissingInitials(
                        f"no initial value for index {n}" if k < 0 else
                        f"leading coefficient vanishes at index {n} and no "
                        f"initial value covers it")
                v = self.initials[n]
            else:
                acc = -sum(polyq.peval(q, k) * out[k + t] for t, q in coeffs)
                v, rem = divmod(acc, lv) if exact else (acc / lv, 0)
                if rem:
                    v = Fraction(acc, lv)
            if exact:
                if v.denominator == 1:
                    v = int(v)
                else:
                    exact = False
                    out = [Fraction(u) for u in out]
            out.append(v)
        return [Fraction(u) for u in out] if exact else out


# ---------------------------------------------------------------------------
# the ODE over Z[x]

def algeq_to_ode(p: AlgEq) -> LinODE:
    """Lowest-order linear ODE for the branch of the algebraic equation.

    With delta(H) = H_x*P_f - H_f*P_x, dH/dx = delta(H)/P_f along the
    branch, so f^(k) = V_k / P_f^(2k) with V_0 = f and
    V_(k+1) = delta(V_k)*P_f - 2k*V_k*delta(P_f): products and
    derivatives, no inverse.  At order r each of 1, f, ..., f^(r) is
    multiplied by P_f^(2r) and reduced mod P by one pseudo-remainder in f,
    all to one power of lc_f(P).  P is squarefree (its discriminant in f is
    nonzero), so P_f is a unit of Q(x)[f]/(P): every column is scaled by the
    same unit, and the kernel over Q(x) is that of the derivatives.  The
    first dependence that involves the newest derivative, homogeneous
    preferred, is unique up to a Q(x) scalar; its primitive form over Z[x]
    is the ODE.  Order never exceeds the f-degree of P.
    """
    P = p.P
    d = P.degree("f")
    Pf, Px = P.derivative("f"), P.derivative("x")
    if d > 1 and resultant(P, Pf, "f").is_zero:
        raise NonSquarefree(
            "the discriminant in f vanishes; "
            "the equation is not squarefree along the branch")

    def delta(H: MPoly) -> MPoly:
        return H.derivative("x") * Pf - H.derivative("f") * Px

    lc = P.as_univariate("f")[-1]
    dPf, Pf2 = delta(Pf), Pf * Pf
    V = [MPoly.var("f")]     # f^(k) = V[k] / P_f^(2k)
    for r in range(1, d + 1):
        V.append(delta(V[-1]) * Pf - 2 * (r - 1) * V[-1] * dPf)
        # 1, f, ..., f^(r), each times P_f^(2r)
        scaled = [Pf2 ** r] + [Vk * Pf2 ** (r - k) for k, Vk in enumerate(V)]
        # prem scales by lc^max(0, deg - d + 1); bring all to one power
        exps = [max(0, A.degree("f") - d + 1) for A in scaled]
        cols = [(prem(A, P, "f") * lc ** (max(exps) - e)).as_univariate("f")
                for A, e in zip(scaled, exps)]
        full = [[c[j] if j < len(c) else MPoly.zero() for c in cols]
                for j in range(d)]
        for use_one in (False, True):
            rows = full if use_one else [row[1:] for row in full]
            rel = next((v for v in linalg.nullspace_field(rows) if v[-1]),
                       None)
            if rel is None:
                continue
            if not use_one:
                rel = [MPoly.zero()] + rel
            rel = [[a.constant_value() for a in c.as_univariate("x")]
                   for c in rel]
            g = reduce(polyq.igcd_poly, [c for c in rel if c])
            rel = [polyq.idivexact(c, g) if c else [] for c in rel]
            inhom, coeffs = rel[0], rel[1:]
            if next(c for c in coeffs[-1] if c) < 0:
                coeffs = [[-v for v in q] for q in coeffs]
                inhom = [-v for v in inhom]
            ode = LinODE(coeffs, inhom, p.branch)
            _check_ode(ode, p.branch)
            return ode
    raise NonSquarefree("no linear dependence found; equation is degenerate")


def _ode_apply(ode: LinODE, s: QSeries) -> list[Fraction]:
    """Series of the ODE's left side, to the order the witness supports."""
    r = ode.order
    L = len(s) - r
    if L <= 0:
        raise InsufficientData("witness too short to test the ODE")
    out = [Fraction(c) for c in ode.inhom[:L]]
    out += [Fraction(0)] * (L - len(out))
    for i, p in enumerate(ode.coeffs):
        # f^(i) coefficients: (m+1)...(m+i) * a_(m+i)
        fi = [math.perm(m + i, i) * s[m + i] for m in range(L)]
        for m, v in enumerate(_mul_trunc(p, fi, L, Fraction(0))):
            out[m] += v
    return out


def _check_ode(ode: LinODE, s: QSeries) -> None:
    if any(_ode_apply(ode, s)):
        raise SelfCheckFailed(
            "derived ODE does not annihilate the witness series")


def ode_to_rec(L: LinODE) -> PRec:
    """P-recurrence for the coefficient sequence of the ODE's solution.

    x^j f^(i) contributes q(n) a_(n+i-j) with q the falling factorial
    (n+i-j)...(n-j+1).  The shape is shift-normalized to reference a_n,
    and its common factor in Z[n], content included, is divided out
    exactly, signed so that the last coefficient is positive.  Small
    indices where the divided relation fails (checked against the
    witness: below the shape's validity or at a root of the common
    factor) are repaired by an (n - index) factor.
    """
    s = L.branch
    shifts: dict[int, list[int]] = {}
    tmax_j = 0
    for i, p in enumerate(L.coeffs):
        for j, pc in enumerate(p):
            if not pc:
                continue
            tmax_j = max(tmax_j, j)
            # falling factorial in n: product_(u=1..i) (n - j + u)
            ff = [pc]
            for u in range(1, i + 1):
                ff = polyq.pmul(ff, [u - j, 1])
            t = i - j
            shifts[t] = polyq.padd(shifts.get(t, []), ff)
    shifts = {t: polyq.trim(q) for t, q in shifts.items()}
    shifts = {t: q for t, q in shifts.items() if q}
    tmin = min(shifts)
    tmax = max(shifts)
    order = tmax - tmin
    # relation valid (polynomial shape) for original m >= n0
    n0 = max(tmax_j, (len(L.inhom) - 1) + 1 if L.inhom else 0)
    # reference a_k..a_(k+order) with k = m + tmin: valid for k >= n0 + tmin
    qs = [polyq.pshift(shifts.get(t, []), -tmin) for t in range(tmin, tmax + 1)]
    valid_from = max(0, n0 + tmin)

    # strip the common factor, content included; the last entry positive
    com = reduce(polyq.igcd_poly, [q for q in qs if q])
    if qs[-1][-1] * com[-1] < 0:
        com = [-c for c in com]
    qi = [polyq.idivexact(q, com) if q else [] for q in qs]

    # validity repair below valid_from and at the roots of com, where the
    # divided relation may fail too, certified against the witness
    roots = [r for r in polyq.integer_roots(com) if r >= 0]
    for nu in range(max([valid_from - 1, *roots]), -1, -1):
        if nu + order >= len(s):
            raise InsufficientData("witness too short to check small indices")
        val = sum(polyq.peval(q, nu) * s[nu + t] for t, q in enumerate(qi))
        if val:
            qi = [polyq.pmul(q, [-nu, 1]) if q else [] for q in qi]

    lead = qi[-1]
    roots = [r for r in polyq.integer_roots(list(lead)) if r >= 0]
    need = order + (max(roots) if roots else -1) + 1
    if len(s) < need:
        raise InsufficientData("witness too short for the required initial values")
    rec = PRec(qi, s.coeffs[:need])
    gen = rec.terms(len(s))
    if gen != list(s.coeffs):
        raise SelfCheckFailed("recurrence does not regenerate the witness")
    return rec


def minimize_rec(r: PRec, data: QSeries, maxC: int):
    """Smallest certified recurrence with order+degree <= maxC, or ABSENT.

    Shapes are tried by order+degree, then by order, order 0 included;
    within a shape, `linalg.relations` orders the candidates.  The shapes
    of one order are a family: the same rows n, one column n^e * a(n+t)
    per (t, e).  The columns are integer: the data are put over one common
    denominator, which scales each row and leaves the kernel as it is.
    Certification is exact agreement with the proven recurrence r on a
    window long enough to pass every singular index of both.
    """
    den = math.lcm(*(c.denominator for c in data.coeffs))
    data_vals = [c.numerator * (den // c.denominator) for c in data.coeffs]

    def shapes():
        for c in range(maxC + 1):
            for sp in range(c + 1):
                if len(data_vals) - sp < (sp + 1) * (c - sp + 1) + 2:
                    raise InsufficientData(
                        "data too short to fit the complexity grid")
                yield sp, c - sp

    def column(sp: int, t: int, e: int) -> list[int]:
        return [n ** e * data_vals[n + t] for n in range(len(data_vals) - sp)]

    roots_r = [u for u in polyq.integer_roots(list(r.coeffs[-1])) if u >= 0]
    # relations leaves qs[-1][-1] positive: the leading polynomial needs
    # no sign fix
    for qs in linalg.relations(shapes(), column):
        roots_c = [u for u in polyq.integer_roots(qs[-1]) if u >= 0]
        big = max(roots_c + roots_r + [-1])
        Lstar = len(r.initials) + big + r.order + (len(qs) - 1) + 8
        if len(data_vals) < Lstar:
            raise InsufficientData(
                f"need {Lstar} certified terms to certify the candidate")
        ref = r.terms(Lstar)
        need_c = (len(qs) - 1) + (max(roots_c) if roots_c else -1) + 1
        cand = PRec(qs, ref[:need_c])
        if cand.terms(Lstar) == ref:
            return cand
    return ABSENT
