"""Functional equations Q(psi(x,y), psi(x,0), x, y) = 0.

``check_well_posed`` finds the unique admissible order-0 branch and the
kernel data; ``expand_series`` solves order by order for the coefficients
c_k(y); ``specialize_y0`` reads off the diagonal sequence c_k(0).  Both
evaluate polynomials on the branch through ``series._subs`` alone.

Per-order structure: writing the partial sum psi_<k = sum c_i x^i and the
x^k coefficient of Q(psi_<k + c_k x^k, ...) as A(y) c_k(y) + B(y) c_k(0) +
N_k(y) = 0 with A = dQ/dpsi and B = dQ/dg frozen at order 0, the coupled
unknowns (c_k, c_k(0)) are resolved by one of two admissible modes:

* direct: A(0) + B(0) != 0 fixes c_k(0), then c_k = -(B c_k(0) + N_k)/A;
* simple kernel: A(0) = B(0) = 0 with A vanishing to order exactly 1 at
  y = 0 and A'(0) + B'(0) != 0; the y^1 coefficient of the identity then
  fixes c_k(0).

A(0) + B(0) = 0 with A(0) != 0 leaves the pair underdetermined (or
inconsistent) at every order, and higher-order kernel vanishing is out of
scope; both are rejected as DegenerateKernel up front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, polyq
from .errors import (
    AmbiguousBranch,
    DegenerateKernel,
    NoSeriesBranch,
    PoleAtYZero,
    SelfCheckFailed,
)
from .mpoly import MPoly
from .polyq import RatFunc
from .series import QSeries, SeriesX, _int_lift, _Loc, _LocCtx, _subs

_ALLOWED = {"psi", "g", "x", "y"}


class FuncEq:
    """A polynomial functional equation; Q must involve psi."""

    __slots__ = ("Q",)

    def __init__(self, Q: MPoly):
        if Q.is_zero:
            raise ValueError("the zero polynomial is not a functional equation")
        extra = set(Q.variables()) - _ALLOWED
        if extra:
            raise ValueError(f"unsupported variables in equation: {sorted(extra)}")
        if Q.degree("psi") < 1:
            raise ValueError("equation does not involve psi")
        self.Q = Q

    def render(self) -> str:
        return self.Q.render()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuncEq):
            return NotImplemented
        return self.Q == other.Q

    def __repr__(self) -> str:
        return f"FuncEq({self.render()})"


@dataclass(frozen=True, slots=True, repr=False)
class WellPosedness:
    """Witness data for a well-posed equation; equal when every field is."""

    c0: RatFunc
    kernelA: RatFunc
    kernelB: RatFunc
    kernelValuation: int
    mode: str

    @property
    def gamma0(self) -> Fraction:
        return self.c0.eval0()

    def __repr__(self) -> str:
        return (f"WellPosedness(c0={self.c0}, kernelA={self.kernelA}, "
                f"kernelB={self.kernelB}, valuation={self.kernelValuation})")


# --- order-0 branch search -------------------------------------------------
#
# The order-0 equation R(c, gamma, y) = Q(c, gamma, 0, y) = 0 couples a
# rational function c(y) with gamma = c(0).  Roots are found without a
# factorization engine: specialize y at a sample point keeping the
# polynomial squarefree of full degree, take the rational roots there,
# Newton-lift each to a power series s, read a rational function p/q back
# from it, and verify the candidate exactly.  Completeness: a
# rational-function root is regular at the sample point (its denominator
# divides the leading coefficient, nonzero there) and distinct roots take
# distinct values there (discriminant nonzero), so every root is hit.
#
# Reading back is the Pade relation q*s - p = 0 mod t^(2dY+1) with
# deg p, q <= dY, one kernel vector of `linalg.nullspace`, the guessers'
# kernel.  Its q is never zero: q = 0 leaves p = 0 mod t^(2dY+1), so p = 0.
# A root n/d has degree <= dY (d divides the leading, n the trailing
# coefficient), and q*n - p*d has degree <= 2dY and vanishes to that order,
# so p/q = n/d.  Any other candidate fails the exact check.
#
# Every evaluation goes through `series._subs`: at the branch over
# RatFunc, where L = 1 keeps only the x^0 terms, and in the Newton lift
# over Fraction, with the shifted variable t = y - a written as x.  The
# lift's coefficients there are ints, which Fraction arithmetic takes in.

def _newton_lift(St: MPoly, r0: Fraction, order: int) -> list[Fraction]:
    """Series root c(t) of St(c, t), an MPoly in (psi, x) with t written
    as x, with c(0) = r0 a simple root."""
    dSt = St.derivative("psi")
    c = [r0]
    prec = 1
    while prec < order + 1:
        prec = min(2 * prec, order + 1)
        cpad = c + [Fraction(0)] * (prec - len(c))
        val = _subs(St, {"psi": cpad}, prec, _int_lift)
        der = _subs(dSt, {"psi": cpad}, prec, _int_lift)
        step = polyq.series_div(val, der, prec)
        c = [cv - sv for cv, sv in zip(cpad, step)]
    return c


def _ratfunc_roots(A: MPoly) -> list[RatFunc]:
    """All rational-function roots c(y) of an integer A(psi, y) = 0."""
    if A.degree("psi") < 1:
        return []
    from .mpoly import squarefree_primitive
    S = squarefree_primitive(A, "psi")
    dC, dY = S.degree("psi"), S.degree("y")
    if dC < 1:
        return []
    for a in itertools.chain([0], (s * v for v in range(1, 200) for s in (1, -1))):
        spec = [c.constant_value()
                for c in S.subs_int({"y": a}).as_univariate("psi")]
        if (len(spec) - 1 == dC
                and len(polyq.igcd_poly(spec, polyq.pderiv(spec))) == 1):
            break
    else:
        raise DegenerateKernel(
            "could not find a regular sample point for the order-0 branch search")
    # S(psi, t + a), Horner in y with y := t + a
    St, ta = MPoly.zero(), MPoly.var("x") + a
    for c in reversed(S.as_univariate("y")):
        St = St * ta + c
    out: list[RatFunc] = []
    for r0 in polyq.rational_roots(spec):
        series = _newton_lift(St, r0, 2 * dY)
        # columns p_0..p_dY, q_0..q_dY; row k is the t^k coefficient of q*s - p
        vec = linalg.nullspace(
            [[-1 if j == k else 0 for j in range(dY + 1)]
             + [series[k - j] if j <= k else 0 for j in range(dY + 1)]
             for k in range(2 * dY + 1)])[0]
        cand = RatFunc(polyq.pshift(vec[:dY + 1], -a),
                       polyq.pshift(vec[dY + 1:], -a))
        # exact verification on S, which has the roots of A
        if not _subs(S, {"psi": [cand]}, 1, RatFunc)[0] and cand not in out:
            out.append(cand)
    return out


def check_well_posed(eq: FuncEq) -> WellPosedness:
    """Find the unique admissible branch and classify the per-order solve."""
    R = eq.Q.subs_int({"x": 0})
    if R.degree("psi") < 1:
        if R.is_zero:
            raise DegenerateKernel(
                "order-0 equation vanishes identically; branch undetermined")
        raise NoSeriesBranch("order-0 equation has no root in psi")
    pairs: list[tuple[RatFunc, Fraction]] = []
    dg = R.degree("g")
    if dg >= 1:
        # consistency polynomial in the shared constant gamma = c(0)
        T = [0] * (R.degree("psi") + dg + 1)
        for (i, k), c in R.subs_int({"y": 0}).items(("psi", "g")):
            T[i + k] += c
        if not polyq.trim(T):
            raise DegenerateKernel(
                "order-0 consistency polynomial vanishes identically")
        for gv in polyq.rational_roots(T):
            # gd^dg * R(psi, gn/gd, y), an integer polynomial
            gn, gd = gv.numerator, gv.denominator
            Rg = MPoly.from_items(("psi", "y"), (
                ((i, l), c * gn**k * gd**(dg - k))
                for (i, k, l), c in R.items(("psi", "g", "y"))))
            if Rg.is_zero:
                raise DegenerateKernel(
                    f"order-0 equation vanishes identically at branch value {gv}")
            for cand in _ratfunc_roots(Rg):
                if cand.regular_at_0 and cand.eval0() == gv:
                    if all(cand != p[0] for p in pairs):
                        pairs.append((cand, gv))
    else:
        for cand in _ratfunc_roots(R):
            if cand.regular_at_0:
                pairs.append((cand, cand.eval0()))
    if not pairs:
        raise NoSeriesBranch(
            "no rational-function root of the order-0 equation is regular at y=0")
    if len(pairs) > 1:
        raise AmbiguousBranch(
            f"{len(pairs)} admissible order-0 branches: "
            + ", ".join(str(p[0]) for p in pairs))
    c0, g0 = pairs[0]
    # dQ/dpsi and dQ/dg at x = 0 on the branch: L = 1 keeps the x^0 terms
    branch = {"psi": [c0], "g": [RatFunc.const(g0)]}
    A, B = (_subs(eq.Q.derivative(v), branch, 1, RatFunc)[0]
            for v in ("psi", "g"))
    if A.is_zero:
        raise DegenerateKernel("kernel dQ/dpsi vanishes identically on the branch")
    a0 = A.eval0()
    b0 = B.eval0()
    s = a0 + b0
    if s != 0:
        mode = "direct"
    elif a0 != 0:
        # one scalar equation 0*c_k(0) = -N_k(0): never uniquely solvable
        raise DegenerateKernel(
            "kernel sum A(0)+B(0) vanishes while A(0) does not; the per-order "
            "solve is underdetermined or inconsistent at every order")
    else:
        if A.series(1)[1] == 0:
            raise DegenerateKernel(
                "kernel A vanishes to order >= 2 at y=0 (unsupported multiplicity)")
        if (A + B).series(1)[1] == 0:
            raise DegenerateKernel(
                "solvability function A+B vanishes to order >= 2 at y=0")
        mode = "kernel"
    return WellPosedness(c0, A, B, 0 if mode == "direct" else 1, mode)


# --- series expansion ------------------------------------------------------

class _Expander:
    """Taylor-jet engine: carries the x-coefficients of every normalized
    mixed partial of Q at the current partial sums, over localized
    coefficients with the fixed denominator D = den(c0) * num(A) / y^v,
    where v is the order of A's zero at y = 0.  Both factors are nonzero
    at y = 0, and the division by A shifts out the v low coefficients of
    each numerator, which vanish exactly when c_k is regular there."""

    def __init__(self, eq: FuncEq, wp: WellPosedness, K: int):
        self.K = K
        self.wp = wp
        Q = eq.Q
        self.dpsi = Q.degree("psi")
        self.dg = max(0, Q.degree("g"))
        q_int, _ = polyq.clear_denominators(wp.c0.den)
        an_int, an_scale = polyq.clear_denominators(wp.kernelA.num)
        ad_int, ad_scale = polyq.clear_denominators(wp.kernelA.den)
        self._val_a = v = next(i for i, c in enumerate(an_int) if c)
        self.ctx = _LocCtx(polyq.pmul(q_int, an_int[v:]))
        self.c0 = self.ctx.localize(wp.c0)
        self._div_num = polyq.pmul(ad_int, q_int)
        self._div_scale = ad_scale / an_scale
        # normalized partials T[i][j] = d^i_psi d^j_g Q / (i! j!)
        T: list[list[MPoly]] = [[Q]]
        for i in range(1, self.dpsi + 1):
            T.append([T[i - 1][0].derivative("psi").divexact(MPoly.const(i))])
        for i in range(self.dpsi + 1):
            for j in range(1, self.dg + 1):
                T[i].append(T[i][j - 1].derivative("g").divexact(MPoly.const(j)))
        # each x-coefficient evaluated at psi = c0, g = gamma0 in the _Loc ring
        branch = {"psi": [self.c0], "g": [self.ctx.from_fraction(wp.gamma0)]}
        self.J: dict[tuple[int, int], list[_Loc]] = {}
        for i in range(self.dpsi + 1):
            for j in range(self.dg + 1):
                xs = T[i][j].as_univariate("x")
                row = [self.ctx.zero()] * (K + 1)
                for m, cm in enumerate(xs[: K + 1]):
                    row[m] = _subs(cm, branch, 1, self.ctx.from_ints)[0]
                self.J[(i, j)] = row
        self.order_ij = sorted(self.J, key=lambda ij: (ij[0] + ij[1], ij))
        self.a_val0 = wp.kernelA.eval0()
        self.b_val0 = wp.kernelB.eval0()
        self.s_val = self.a_val0 + self.b_val0
        if wp.mode == "kernel":
            self.t_val = wp.kernelA.series(1)[1] + wp.kernelB.series(1)[1]

    def _div_by_a(self, v: _Loc, k: int) -> _Loc:
        if v.is_zero:
            return v
        if any(v.num[:self._val_a]):
            raise PoleAtYZero(
                f"coefficient of x^{k} has a pole at y = 0; "
                "the equation does not define a power series")
        return _Loc(self.ctx, polyq.pmul(v.num[self._val_a:], self._div_num),
                    v.scale * self._div_scale, v.e + 1)

    def solve_order(self, k: int) -> tuple[_Loc, Fraction]:
        N = self.J[(0, 0)][k]
        B = self.J[(0, 1)][0] if self.dg else self.ctx.zero()
        if self.wp.mode == "direct":
            gam = -N.eval0() / self.s_val
        else:
            if N.eval0() != 0:
                raise DegenerateKernel(
                    f"order {k}: constant term N_k(0) = {N.eval0()} != 0 "
                    "in the kernel mode; no solution")
            gam = -N.y_coeff(1) / self.t_val
        numer = (B.scaled(gam) + N) if self.dg else N
        ck = self._div_by_a(numer.scaled(Fraction(-1)), k)
        if ck.eval0() != gam:
            raise DegenerateKernel(
                f"order {k}: computed c_k(0) = {ck.eval0()} conflicts with "
                f"the solved value {gam}")
        return ck, gam

    def apply_order(self, k: int, ck: _Loc, gam: Fraction) -> None:
        K = self.K
        cpow = [None, ck]
        for a in range(2, self.dpsi + 1):
            cpow.append(cpow[-1] * ck)
        gpow = [Fraction(1)]
        for b in range(self.dg):
            gpow.append(gpow[-1] * gam)
        for (i, j) in self.order_ij:
            row = self.J[(i, j)]
            for a in range(self.dpsi - i + 1):
                for b in range(self.dg - j + 1):
                    if a == 0 and b == 0:
                        continue
                    step = k * (a + b)
                    if step > K:
                        continue
                    src = self.J[(i + a, j + b)]
                    coef = (math.comb(i + a, a)
                            * math.comb(j + b, b)) * gpow[b]
                    if coef == 0:
                        continue
                    if a == 0:
                        for m in range(step, K + 1):
                            v = src[m - step]
                            if not v.is_zero:
                                row[m] = row[m] + v.scaled(coef)
                    else:
                        mult = cpow[a].scaled(coef)
                        for m in range(step, K + 1):
                            v = src[m - step]
                            if not v.is_zero:
                                row[m] = row[m] + v * mult
        if self.J[(0, 0)][k]:
            raise SelfCheckFailed(f"order-{k} defect does not vanish")


def expand_series(eq: FuncEq, K: int) -> SeriesX:
    """Solve for c_0(y), ..., c_K(y) with Q annihilated to order K."""
    if K < 0:
        raise ValueError("negative expansion order")
    wp = check_well_posed(eq)
    eng = _Expander(eq, wp, K)
    coeffs = [eng.c0]
    for k in range(1, K + 1):
        ck, gam = eng.solve_order(k)
        eng.apply_order(k, ck, gam)
        coeffs.append(ck)
    return SeriesX._from_locs(eng.ctx, coeffs)


def specialize_y0(s: SeriesX) -> QSeries:
    """The sequence c_k(0) (Step: plug in y = 0).

    Every coefficient of a ``SeriesX`` is regular at y = 0.
    """
    return QSeries([c.eval0() for c in s.locs])
