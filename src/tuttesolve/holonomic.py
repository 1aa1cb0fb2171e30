"""Algebraic equation -> linear ODE -> P-recurrence, plus minimization.

The ODE step works over Z[x] with ``MPoly``: each derivative of the branch
is an integer polynomial in f and x over a power of dP/df, reduced mod P by
a pseudo-remainder, and the lowest-order linear dependence among 1, f, f',
... (f, f', ... when P is linear in f), unique up to a Q(x) scalar, comes
from one fraction-free kernel (``linalg.nullspace_field``) per order.
The recurrence step is the classical coefficient extraction x^j f^(i)
|-> falling-factorial shift, with an explicit validity repair at small
indices checked against the witness series.  Minimization searches the
proven recurrence's own terms for a smaller one and certifies each
candidate against it, so it needs no data from outside.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import groupby
from typing import Sequence

from . import linalg, polyq
from .errors import (InsufficientData, MissingInitials, NonSquarefree,
                     ResourceCeiling, SelfCheckFailed, Sentinel)
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
        need = self.initials_needed(self.coeffs)
        if len(self.initials) < need:
            raise ValueError(
                f"need at least {need} initial values to cover singular indices")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(polyq.deg(list(q)) for q in self.coeffs if q)

    @staticmethod
    def initials_needed(coeffs: Sequence[Sequence[int]]) -> int:
        """How many initial values the recurrence q_0..q_s needs: its order
        s, plus one past the last nonnegative integer root of q_s, where
        a(n+s) is not determined by the terms before it."""
        roots = [r for r in polyq.integer_roots(list(coeffs[-1])) if r >= 0]
        return len(coeffs) + max(roots, default=-1)

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
                v = acc // lv if exact and not acc % lv else Fraction(acc, lv)
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
    same unit, and the kernel over Q(x) is that of the derivatives.  For
    d = deg_f P >= 2, 1 and f are independent and every lower order found
    no dependence, so the first dependence among 1, ..., f^(r) is unique up
    to a Q(x) scalar: two would combine into one without f^(r).  For
    d = 1, Q(x)[f]/(P) is one-dimensional and the kernel is taken on f,
    ..., f^(r) alone, so the ODE is homogeneous.  The dependence's
    primitive form over Z[x] is the ODE.  Order never exceeds d.
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
        # 1, f, ..., f^(r), each times P_f^(2r); 1 only when d > 1
        scaled = [Pf2 ** r] * (d > 1) + [Vk * Pf2 ** (r - k)
                                         for k, Vk in enumerate(V)]
        # prem scales by lc^max(0, deg - d + 1); bring all to one power
        exps = [max(0, A.degree("f") - d + 1) for A in scaled]
        cols = [(prem(A, P, "f") * lc ** (max(exps) - e)).as_univariate("f")
                for A, e in zip(scaled, exps)]
        rows = [[c[j] if j < len(c) else MPoly.zero() for c in cols]
                for j in range(d)]
        rel = next((v for v in linalg.nullspace_field(rows) if v[-1]), None)
        if rel is None:
            continue
        rel = [[]] * (d == 1) + [
            [a.constant_value() for a in c.as_univariate("x")] for c in rel]
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


def _ode_apply(ode: LinODE, s: QSeries) -> list[int]:
    """Series of the ODE's left side, to the order the witness supports,
    times the lcm M of the witness's denominators: the witness is put over
    M, so every product is of integers, and a coefficient is zero exactly
    when the left side's is."""
    r = ode.order
    L = len(s) - r
    if L <= 0:
        raise InsufficientData("witness too short to test the ODE")
    M = math.lcm(*(c.denominator for c in s))
    a = [c.numerator * (M // c.denominator) for c in s]
    out = [M * c for c in ode.inhom[:L]]
    out += [0] * (L - len(out))
    for i, p in enumerate(ode.coeffs):
        # f^(i) coefficients: (m+1)...(m+i) * a_(m+i)
        fi = [math.perm(m + i, i) * a[m + i] for m in range(L)]
        for m, v in enumerate(_mul_trunc(p, fi, L, 0)):
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

    need = PRec.initials_needed(qi)
    if len(s) < need:
        raise InsufficientData("witness too short for the required initial values")
    rec = PRec(qi, s.coeffs[:need])
    gen = rec.terms(len(s))
    if gen != list(s.coeffs):
        raise SelfCheckFailed("recurrence does not regenerate the witness")
    return rec


_MAX_TERMS = 8192       # the most terms of r that minimize_rec reads


def minimize_rec(r: PRec, maxC: int):
    """Smallest certified recurrence with order+degree <= maxC, or ABSENT.

    Shapes are tried by order+degree, then by order, order 0 included;
    within a shape, `linalg.relations` orders the candidates.  The shapes
    of one order are a family: the same rows n, one column n^e * a(n+t)
    per (t, e).  The data are r's first terms, 64 doubled until each shape
    of the order+degree reached has two more rows than columns, put over
    one common denominator: that scales each row and leaves the kernel.
    Certification is exact agreement with r past every singular index of
    both.  Data or a window past _MAX_TERMS terms raise ResourceCeiling.
    """
    prefix: list[Fraction] = []  # the longest run of r's terms read

    def read(k: int) -> list[Fraction]:
        if k > _MAX_TERMS:
            raise ResourceCeiling(
                f"minimization needs {k} terms, more than {_MAX_TERMS}")
        if k > len(prefix):
            prefix[:] = r.terms(k)
        return prefix[:k]

    def data_len(c: int) -> int:
        # shape (sp, c - sp) has count - sp rows, (sp + 1)*(c - sp + 1) columns
        need = max(sp + (sp + 1) * (c - sp + 1) + 2 for sp in range(c + 1))
        return 64 << ((need - 1) // 64).bit_length()

    last_r = PRec.initials_needed(r.coeffs) - len(r.coeffs)
    for count, cs in groupby(range(maxC + 1), key=data_len):
        data = read(count)
        den = math.lcm(*(v.denominator for v in data))
        vals = [v.numerator * (den // v.denominator) for v in data]

        def column(sp: int, t: int, e: int) -> list[int]:
            return [n ** e * vals[n + t] for n in range(count - sp)]

        # relations leaves qs[-1][-1] positive: the leading polynomial
        # needs no sign fix
        shapes = ((sp, c - sp) for c in cs for sp in range(c + 1))
        for qs in linalg.relations(shapes, column):
            need_c = PRec.initials_needed(qs)
            # the last singular index of either recurrence, or -1
            big = max(need_c - len(qs), last_r)
            Lstar = len(r.initials) + big + r.order + (len(qs) - 1) + 8
            ref = read(Lstar)
            cand = PRec(qs, ref[:need_c])
            if cand.terms(Lstar) == ref:
                return cand
    return ABSENT
