"""Algebraic equation -> linear ODE -> P-recurrence, plus minimization.

The ODE step works in the residue ring Q(x)[f]/(P) and looks for the
lowest-order linear dependence among the derivatives of f, preferring a
homogeneous one.  The recurrence step is the classical coefficient
extraction x^j f^(i) |-> falling-factorial shift, with an explicit
validity repair at small indices checked against the witness series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg, polyq
from .errors import InsufficientData, NonSquarefree, SelfCheckFailed
from .guessing import AlgEq
from .polyq import RATFUNC_ONE, RATFUNC_ZERO, RatFunc
from .series import QSeries, _mul_trunc


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "ABSENT"


#: Falsy sentinel: no recurrence within the complexity cap.
ABSENT = _Absent()


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
        """First `count` terms, pulling singular indices from the initials."""
        from .evalrec import _iterate
        return _iterate(self, count)


# ---------------------------------------------------------------------------
# residue ring Q(x)[f]/(P) with RatFunc scalars

def _rf_deriv(r: RatFunc) -> RatFunc:
    n, d = list(r.num), list(r.den)
    return RatFunc(polyq.psub(polyq.pmul(polyq.pderiv(n), d),
                              polyq.pmul(n, polyq.pderiv(d))),
                   polyq.pmul(d, d))


def _ext_gcd_rf(a: list[RatFunc], b: list[RatFunc]):
    # returns (g, s) with s*a = g mod b
    r0, r1 = list(a), list(b)
    s0, s1 = [RATFUNC_ONE], []
    while r1:
        q, r = polyq.pdivmod(r0, r1, RATFUNC_ZERO)
        r0, r1 = r1, r
        s0, s1 = s1, polyq.psub(s0, polyq.pmul(q, s1, RATFUNC_ZERO))
    return r0, s0


class _Residue:
    """Arithmetic for Q(x)[f]/(P), elements are RatFunc coordinate lists."""

    def __init__(self, P):
        rows = P.as_univariate("f")
        self.mod = [RatFunc(self._xpoly(r)) for r in rows]
        self.d = len(self.mod) - 1

    @staticmethod
    def _xpoly(m) -> list[Fraction]:
        out = [Fraction(0)] * (m.degree("x") + 1)
        for (j,), c in m.items(("x",)):
            out[j] += c
        return out

    def elem(self, coords: Sequence[RatFunc]) -> list[RatFunc]:
        out = list(coords[: self.d])
        out += [RATFUNC_ZERO] * (self.d - len(out))
        return out

    def reduce(self, poly: list[RatFunc]) -> list[RatFunc]:
        _, r = polyq.pdivmod(poly, self.mod, RATFUNC_ZERO)
        return self.elem(r)

    def mul(self, u: list[RatFunc], v: list[RatFunc]) -> list[RatFunc]:
        return self.reduce(polyq.pmul(u, v, RATFUNC_ZERO))

    def inv(self, u: list[RatFunc]) -> list[RatFunc]:
        g, s = _ext_gcd_rf(self.elem(u), self.mod)
        if len(g) != 1:
            raise NonSquarefree(
                "cannot invert the derivative in the residue ring; "
                "the equation is not squarefree along the branch")
        ginv = RATFUNC_ONE / g[0]
        return self.elem([c * ginv for c in s])

    def deriv(self, u: list[RatFunc], fprime: list[RatFunc]) -> list[RatFunc]:
        # d/dx (sum u_i f^i) = sum u_i' f^i + (sum i u_i f^(i-1)) f'
        part1 = [_rf_deriv(c) for c in u]
        part2 = [RATFUNC_ZERO] * self.d
        for i in range(1, self.d):
            part2[i - 1] = u[i] * RatFunc([Fraction(i)])
        mixed = self.mul(part2, fprime)
        return self.elem([a + b for a, b in zip(part1, mixed)])


def _clear_relation(vec: list[RatFunc]) -> list[list[int]]:
    """Common-denominator integer polynomial coefficients of the relation."""
    den = [Fraction(1)]
    for c in vec:
        d = list(c.den)
        g = polyq.pgcd(den, d)
        if polyq.deg(g) > 0:
            d, _ = polyq.pdivmod(d, g)
        den = polyq.pmul(den, d)
    out_fr = []
    for c in vec:
        if c.is_zero:
            out_fr.append([])
            continue
        q, r = polyq.pdivmod(polyq.pmul(list(c.num), den), list(c.den))
        if r:
            raise SelfCheckFailed(
                "relation denominator is not a multiple of every coefficient's")
        out_fr.append(q)
    # the sign this may flip is renormalised by the caller
    flat, _ = polyq.clear_denominators([v for p in out_fr for v in p])
    it = iter(flat)
    return [[next(it) for _ in p] for p in out_fr]


def algeq_to_ode(p: AlgEq) -> LinODE:
    """Lowest-order linear ODE for the branch of the algebraic equation.

    Differentiates in Q(x)[f]/(P) and searches 1, f, f', f'', ... for the
    first dependence, homogeneous preferred.  Order never exceeds the
    f-degree of P.
    """
    ring = _Residue(p.P)
    d = ring.d
    Pf = _rows_to_elem(ring, p.P.derivative("f"))
    Px = _rows_to_elem(ring, p.P.derivative("x"))
    fprime = ring.mul([-c for c in Px], ring.inv(Pf))

    one = ring.elem([RATFUNC_ONE])
    f_el = ring.reduce([RATFUNC_ZERO, RATFUNC_ONE])
    derivs = [f_el]  # f^(0), f^(1), ...
    for r in range(1, d + 1):
        derivs.append(ring.deriv(derivs[-1], fprime))
        for use_one in (False, True):
            cols = ([one] if use_one else []) + derivs[: r + 1]
            rel = _dependence(cols, d)
            if rel is None:
                continue
            if use_one:
                inhom_rf, prest = rel[0], rel[1:]
            else:
                inhom_rf, prest = RATFUNC_ZERO, rel
            ints = _clear_relation(list(prest) + [inhom_rf])
            coeffs, inhom = ints[:-1], ints[-1]
            lead = coeffs[-1]
            low = next(c for c in lead if c)
            if low < 0:
                coeffs = [[-v for v in q] for q in coeffs]
                inhom = [-v for v in inhom]
            ode = LinODE(coeffs, inhom, p.branch)
            _check_ode(ode, p.branch)
            return ode
    raise NonSquarefree("no linear dependence found; equation is degenerate")


def _rows_to_elem(ring: _Residue, m) -> list[RatFunc]:
    rows = m.as_univariate("f")
    poly = [RatFunc(_Residue._xpoly(r)) for r in rows]
    return ring.reduce(poly)


def _dependence(cols: list[list[RatFunc]], dim: int):
    """Relation with nonzero last coordinate, or None.

    The columns are residue-ring elements; a valid relation must actually
    involve the newest derivative, so the last column may not be a pivot.
    """
    rows = [[col[i] for col in cols] for i in range(dim)]
    basis = linalg.nullspace_field(rows, RATFUNC_ZERO, RATFUNC_ONE)
    for v in basis:
        if not v[-1].is_zero:
            return v
    return None


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
    (n+i-j)...(n-j+1).  The shape is shift-normalized to reference a_n;
    small indices where the polynomial relation fails (checked against
    the witness) are repaired by an (n - index) factor.
    """
    s = L.branch
    shifts: dict[int, list[Fraction]] = {}
    tmax_j = 0
    for i, p in enumerate(L.coeffs):
        for j, pc in enumerate(p):
            if not pc:
                continue
            tmax_j = max(tmax_j, j)
            # falling factorial in n: product_(u=1..i) (n - j + u)
            ff = [Fraction(pc)]
            for u in range(1, i + 1):
                ff = polyq.pmul(ff, [Fraction(u - j), Fraction(1)])
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
    qs: list[list[Fraction]] = []
    for t in range(tmin, tmax + 1):
        q = shifts.get(t, [])
        qs.append(polyq.pshift([Fraction(c) for c in q], Fraction(-tmin))
                  if q else [])
    valid_from = max(0, n0 + tmin)

    # strip common polynomial factor, then content
    nz = [q for q in qs if q]
    com = nz[0]
    for q in nz[1:]:
        com = polyq.pgcd(com, q)
        if polyq.deg(com) == 0:
            break
    if polyq.deg(com) > 0:
        qs = [polyq.pdivmod(q, com)[0] if q else [] for q in qs]
    flat = [v for q in qs for v in q]
    ints_flat, _ = polyq.clear_denominators(flat)
    it = iter(ints_flat)
    qi: list[list[int]] = [[next(it) for _ in q] for q in qs]

    # validity repair below valid_from, certified against the witness
    for nu in range(valid_from - 1, -1, -1):
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

    Shapes are tried by order+degree, then by order; within a shape,
    `linalg.relations` orders the candidates.  The rows are integer: the
    data are put over one common denominator, which scales each row and
    leaves the kernel as it is.  Certification is exact agreement with
    the proven recurrence r on a window long enough to pass every
    singular index of both.
    """
    shapes = ((sp, c - sp) for c in range(1, maxC + 1) for sp in range(1, c + 1))
    den = math.lcm(*(c.denominator for c in data.coeffs))
    data_vals = [c.numerator * (den // c.denominator) for c in data.coeffs]

    def rows_of(sp: int, dp: int) -> list[list[int]]:
        rows_avail = len(data_vals) - sp
        if rows_avail < (sp + 1) * (dp + 1) + 2:
            raise InsufficientData("data too short to fit the complexity grid")
        return [[n ** e * data_vals[n + t]
                 for t in range(sp + 1) for e in range(dp + 1)]
                for n in range(rows_avail)]

    roots_r = [u for u in polyq.integer_roots(list(r.coeffs[-1])) if u >= 0]
    # relations leaves qs[-1][-1] positive: the leading polynomial needs
    # no sign fix
    for qs in linalg.relations(shapes, rows_of):
        if len(qs) < 2:
            continue
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
