"""Functional equations Q(psi(x,y), psi(x,0), x, y) = 0.

``check_well_posed`` finds the unique admissible order-0 branch and the
kernel data, evaluating on the branch through ``series._subs``;
``expand_series`` solves order by order for the coefficients c_k(y), on
tables of the powers of psi and g that a longer expansion extends where
they stopped; ``specialize_y0`` reads off the diagonal sequence c_k(0).
``solvable_at_every_order`` tells, from the kernel data alone, when every
order is known to solve, so that the series exists unexpanded.

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
from .series import GLift, QSeries, SeriesX, _Loc, _LocCtx, _subs

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
    mode: str

    @property
    def kernelValuation(self) -> int:
        return int(self.mode == "kernel")

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
# lift each to a power series s, read a rational function p/q back
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
# The series s comes from `series.GLift`, the package's one series-root
# lifter, with the shifted variable t = y - a written as x.  A candidate
# with a pole at y = 0 is dropped before its check: no branch may have
# one.  Every evaluation goes through `series._subs` over `_Loc` values
# localized at the candidate's denominator, where L = 1 keeps only the
# x^0 terms.

def _on_branch(P: MPoly, c: RatFunc, gamma: Fraction) -> _Loc:
    """P(c, gamma, 0, y) for c regular at y = 0."""
    ctx = _LocCtx(polyq.clear_denominators(c.den)[0])
    branch = {"psi": [ctx.localize(c)], "g": [ctx.from_fraction(gamma)]}
    return _subs(P, branch, 1, ctx.from_ints)[0]


def _ratfunc_roots(A: MPoly) -> list[RatFunc]:
    """All rational-function roots c(y) of an integer A(psi, y) = 0 that
    are regular at y = 0."""
    if A.degree("psi") < 1:
        return []
    from .mpoly import squarefree_primitive
    S = squarefree_primitive(A, "psi")
    dC, dY = S.degree("psi"), S.degree("y")
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
        series = GLift(St.rename_var("psi", "g"), r0).series(2 * dY)
        # columns p_0..p_dY, q_0..q_dY; row k is the t^k coefficient of q*s - p
        vec = linalg.nullspace(
            [[-1 if j == k else 0 for j in range(dY + 1)]
             + [series[k - j] if j <= k else 0 for j in range(dY + 1)]
             for k in range(2 * dY + 1)])[0]
        cand = RatFunc(polyq.pshift(vec[:dY + 1], -a),
                       polyq.pshift(vec[dY + 1:], -a))
        # exact verification on S, which has the roots of A
        if (cand.regular_at_0 and cand not in out
                and not _on_branch(S, cand, Fraction(0))):
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
            # distinct gamma give distinct roots, so no pair repeats
            pairs += [(cand, gv) for cand in _ratfunc_roots(Rg)
                      if cand.eval0() == gv]
    else:
        pairs = [(cand, cand.eval0()) for cand in _ratfunc_roots(R)]
    if not pairs:
        raise NoSeriesBranch(
            "no rational-function root of the order-0 equation is regular at y=0")
    if len(pairs) > 1:
        raise AmbiguousBranch(
            f"{len(pairs)} admissible order-0 branches: "
            + ", ".join(str(p[0]) for p in pairs))
    c0, g0 = pairs[0]
    # dQ/dpsi and dQ/dg at x = 0 on the branch
    A, B = (_on_branch(eq.Q.derivative(v), c0, g0).to_ratfunc()
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
        if A.series(1)[1] + B.series(1)[1] == 0:
            raise DegenerateKernel(
                "solvability function A+B vanishes to order >= 2 at y=0")
        mode = "kernel"
    return WellPosedness(c0, A, B, mode)


# --- series expansion ------------------------------------------------------

class _Expander:
    """Online expansion: each coefficient is read from the ones before it.

    Tables T[i, j][n] = [x^n] psi^i g^j hold every monomial of Q and the
    chain that builds it: psi^i g^j = psi^(i-1) g^j * psi, or g^(j-1) * g
    when i = 0.  At order k the tables read with c_k = gamma_k = 0 give
    N_k = [x^k] Q(psi_<k, g_<k, x, y); (c_k, gamma_k) follow from N_k and
    the kernel data, and each table gains its part linear in them,
    a_ij c_k + b_ij gamma_k, with a_ij = i c0^(i-1) gamma0^j and b_ij =
    j c0^i gamma0^(j-1).  ``series`` extends the tables where they stopped.

    Values are localized at D = den(c0) * num(A) / y^v, where v is the
    order of A's zero at y = 0.  Both factors are nonzero at y = 0, and the
    division by A shifts out the v low coefficients of each numerator,
    which vanish exactly when c_k is regular there.
    """

    def __init__(self, eq: FuncEq, wp: WellPosedness):
        q_int, _ = polyq.clear_denominators(wp.c0.den)
        an_int, an_scale = polyq.clear_denominators(wp.kernelA.num)
        ad_int, ad_scale = polyq.clear_denominators(wp.kernelA.den)
        self._val_a = next(i for i, c in enumerate(an_int) if c)
        self.ctx = ctx = _LocCtx(polyq.pmul(q_int, an_int[self._val_a:]))
        self._div_num = polyq.pmul(ad_int, q_int)
        self._div_scale = ad_scale / an_scale
        # Q's x^m coefficient at each monomial psi^i g^j, a y-polynomial
        ys: dict[tuple[int, int], dict[int, list[int]]] = {}
        for (i, j, m, l), c in eq.Q.items(("psi", "g", "x", "y")):
            cs = ys.setdefault((i, j), {}).setdefault(m, [])
            cs.extend([0] * (l + 1 - len(cs)))
            cs[l] = c
        self._q = {ij: [(m, ctx.from_ints(cs)) for m, cs in xs.items()]
                   for ij, xs in ys.items()}
        zero, one = ctx.zero(), ctx.from_ints([1])
        T = self._T = {(0, 0): [one], (1, 0): [ctx.localize(wp.c0)]}
        lin = self._lin = {(0, 0): (zero, zero), (1, 0): (one, zero)}
        if eq.Q.degree("g") > 0:
            T[(0, 1)] = [ctx.from_fraction(wp.gamma0)]
            lin[(0, 1)] = (zero, one)
        # (key, factor, base): T[key] = T[factor] * T[base]
        keys = {(a, j) for i, j in ys for a in range(1, i + 1)}
        keys |= {(0, b) for i, j in ys for b in range(1, j + 1)}
        self._chain = [((i, j), (i - 1, j) if i else (0, j - 1),
                        (1, 0) if i else (0, 1))
                       for i, j in sorted(keys - set(T), key=sum)]
        for key, u, v in self._chain:
            (u0,), (v0,) = T[u], T[v]
            T[key] = [u0 * v0]
            lin[key] = tuple(du * v0 + u0 * dv
                             for du, dv in zip(lin[u], lin[v]))
        # the linear parts of [x^0] Q are the kernel data A and B
        A, self._B = (self._sum(q * lin[key][n] for key, xs in self._q.items()
                                for m, q in xs if not m) for n in (0, 1))
        if (A.to_ratfunc(), self._B.to_ratfunc()) != (wp.kernelA, wp.kernelB):
            raise SelfCheckFailed(
                "the linear part of the tables' [x^0] Q is not the kernel "
                "data A, B")
        # c_k(0) is read from the y^kv coefficient: kv = 0 direct, 1 kernel
        self._kv = kv = wp.kernelValuation
        self._s = wp.kernelA.series(kv)[kv] + wp.kernelB.series(kv)[kv]

    def series(self, K: int) -> SeriesX:
        """psi through x^K, the tables extended as far as needed."""
        psi = self._T[(1, 0)]
        for k in range(len(psi), K + 1):
            self._order(k)
        return SeriesX._from_locs(self.ctx, psi[:K + 1])

    def _div_by_a(self, v: _Loc, k: int) -> _Loc:
        if v.is_zero:
            return v
        if any(v.num[:self._val_a]):
            raise PoleAtYZero(
                f"coefficient of x^{k} has a pole at y = 0; "
                "the equation does not define a power series")
        return _Loc(self.ctx, polyq.pmul(v.num[self._val_a:], self._div_num),
                    v.scale * self._div_scale, v.e + 1)

    def _sum(self, terms) -> _Loc:
        """The sum in ascending e: each alignment then multiplies the
        smaller partial sum by a low power of D."""
        return sum(sorted(terms, key=lambda t: t.e), self.ctx.zero())

    def _order(self, k: int) -> None:
        T, zero = self._T, self.ctx.zero()
        # [x^k] of each table with c_k = gamma_k = 0
        part = dict.fromkeys(self._lin, zero)
        for key, u, v in self._chain:
            U, V = T[u], T[v]
            if u == v:
                # a square: each product U_t U_(k-t) once, doubled
                s = self._sum(U[t] * U[k - t]
                              for t in range(1, (k + 1) // 2)).scaled(2)
                part[key] = s + U[k // 2] * U[k // 2] if k % 2 == 0 else s
            else:
                part[key] = self._sum([part[u] * V[0]] + [
                    U[t] * V[k - t] for t in range(1, k) if U[t]])
        N = self._sum(q * (T[key][k - m] if m else part[key])
                      for key, xs in self._q.items() for m, q in xs if m <= k)
        if self._kv and N.eval0() != 0:
            raise DegenerateKernel(
                f"order {k}: constant term N_k(0) = {N.eval0()} != 0 "
                "in the kernel mode; no solution")
        gam = -N.y_coeff(self._kv) / self._s
        ck = self._div_by_a((self._B.scaled(gam) + N).scaled(Fraction(-1)), k)
        if ck.eval0() != gam:
            raise DegenerateKernel(
                f"order {k}: computed c_k(0) = {ck.eval0()} conflicts with "
                f"the solved value {gam}")
        for key, (a, b) in self._lin.items():
            T[key].append(part[key] + a * ck + b.scaled(gam))


def expand_series(eq: FuncEq, K: int,
                  wp: WellPosedness | None = None) -> SeriesX:
    """Solve for c_0(y), ..., c_K(y) with Q annihilated to order K.

    ``wp`` is ``check_well_posed(eq)``, computed here when not given.
    """
    if K < 0:
        raise ValueError("negative expansion order")
    if wp is None:
        wp = check_well_posed(eq)
    return _Expander(eq, wp).series(K)


def specialize_y0(s: SeriesX) -> QSeries:
    """The sequence c_k(0) (Step: plug in y = 0).

    Every coefficient of a ``SeriesX`` is regular at y = 0.
    """
    return QSeries([c.eval0() for c in s.locs])


def _at_y0(h: MPoly) -> MPoly:
    """h(g, g, x, 0): at y = 0, psi is g."""
    return MPoly.from_items(("g", "x"), (
        ((i + j, m), c)
        for (i, j, m, l), c in h.items(("psi", "g", "x", "y")) if not l))


def solvable_at_every_order(eq: FuncEq, wp: WellPosedness) -> bool:
    """True when every order of `expand_series` is known to solve, so the
    series solution exists, and is unique, without being expanded.

    Two cases, by the per-order structure above, where A, B are the kernel
    data and N_k the order-k defect:

    * direct mode with A(0) != 0: A has no zero at y = 0, so the division
      by A meets no pole, and gamma = -N_k(0)/(A(0) + B(0)) gives
      c_k(0) = -(B(0)*gamma + N_k(0))/A(0) = gamma;
    * kernel mode with Q(g, g, x, 0) = 0 identically: if c_i(0) = gamma_i
      for i < k, the partial sum of psi is that of g at y = 0, so N_k(0) =
      [x^k] Q(g_<k, g_<k, x, 0) = 0.  The numerator -(B*gamma + N_k) then
      vanishes at y = 0, where A has a simple zero, so c_k is regular
      there, and gamma = -N_k'(0)/(A'(0) + B'(0)) gives c_k(0) =
      -(B'(0)*gamma + N_k'(0))/A'(0) = gamma: the induction goes on.

    Anywhere else an order may fail (``PoleAtYZero``, ``DegenerateKernel``),
    and only expanding tells.
    """
    if wp.mode == "direct":
        return wp.kernelA.eval0() != 0
    return _at_y0(eq.Q).is_zero
