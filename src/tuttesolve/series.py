"""Truncated power series in x over exact coefficient domains.

Public types: :class:`QSeries` (rational-number coefficients, the image of a
series at y = 0) and :class:`SeriesX` (coefficients are rational functions of
y, each regular at y = 0).

A ``SeriesX`` stores its coefficients localized: the private
``_LocCtx``/``_Loc`` pair writes each one as scale * n(y) / D(y)^e against
one fixed denominator polynomial D, so the expansion and the table and
column reads run on integer convolutions and never reduce fractions.  The expander hands its own D and coefficients over as
they are.  Canonical :class:`RatFunc` coefficients are built only when a
caller outside the package asks for them, through indexing, iteration or
``coeffs``.

All truncated-series arithmetic goes through one kernel that works over
any exact coefficient ring: ``_mul_trunc`` is the truncated product, over
``int`` for the guesser's power table and over ``Fraction`` for the ODE
check.  ``_powers`` is the table of powers built on it that ``_subs``
reads.  ``_subs`` substitutes series into a polynomial, over ``_Loc`` for
the expander's rows, over ``int`` for the zero test, and in the branch
search of ``funceq`` over ``RatFunc`` for the exact check and the kernel
data on the branch.

:class:`GLift` is the one series-root lifter: the root g(x) of an integer
D(g, x) through a simple rational root g0 of D0(g, 0), term by term in
integers.  It lifts g = psi(x, 0) from the annihilator for ``certify`` and
the roots of the order-0 equation for ``funceq``'s branch search.

Every certification check that a polynomial vanishes on a series goes
through ``_vanishing_order``.  It clears the witness's denominators into integer
polynomials in y and runs ``_subs`` over ints at the single point
y = 2^B, where 2^B exceeds a height bound that ``_subs`` itself proves on
1-norms; an x-coefficient is zero exactly when its value there is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import polyq
from .errors import PoleAtYZero, SelfCheckFailed
from .mpoly import MPoly
from .polyq import RatFunc


class QSeries:
    """Truncation of a univariate series; exactly order+1 rational entries."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs: tuple[Fraction, ...] = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("QSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def prefix(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("prefix longer than the stored truncation")
        return QSeries(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"QSeries([{shown}{tail}], order={self.order})"


class SeriesX:
    """Truncation in x with rational-function-in-y coefficients, regular at 0.

    The store is localized: ``ctx`` is a :class:`_LocCtx` and ``locs`` holds
    one ``_Loc`` per coefficient; package code reads those directly.  The
    canonical view (``s[k]``, iteration, ``coeffs``) builds each
    :class:`RatFunc` on first use and keeps it.  The public constructor takes
    RatFuncs, rejects a pole at y = 0 and localizes at the lcm of their
    denominators.  Equality compares the canonical coefficients.
    """

    __slots__ = ("ctx", "locs", "_rf")

    def __init__(self, coeffs: Iterable[RatFunc]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("SeriesX needs at least the constant term")
        D = [1]
        for k, c in enumerate(cs):
            if not c.regular_at_0:
                raise PoleAtYZero(
                    f"coefficient of x^{k} has a pole at y = 0: {c}")
            d, _ = polyq.clear_denominators(c.den)
            D = polyq.pmul(D, polyq.idivexact(d, polyq.igcd_poly(D, d)))
        self.ctx = ctx = _LocCtx(D)
        self.locs = tuple(ctx.localize(c) for c in cs)
        self._rf = list(cs)

    @classmethod
    def _from_locs(cls, ctx: "_LocCtx", locs: Iterable["_Loc"]) -> "SeriesX":
        """A series over ``ctx``; each value must be regular at y = 0."""
        s = cls.__new__(cls)
        s.ctx = ctx
        s.locs = tuple(locs)
        s._rf = [None] * len(s.locs)
        return s

    @property
    def order(self) -> int:
        return len(self.locs) - 1

    def __len__(self) -> int:
        return len(self.locs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.coeffs[k]
        rf = self._rf[k]
        if rf is None:
            rf = self._rf[k] = self.locs[k].to_ratfunc()
        return rf

    def __iter__(self):
        return map(self.__getitem__, range(len(self.locs)))

    @property
    def coeffs(self) -> tuple[RatFunc, ...]:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesX):
            return NotImplemented
        return self.coeffs == other.coeffs

    @property
    def is_zero(self) -> bool:
        return not any(self.locs)

    def prefix(self, order: int) -> "SeriesX":
        if order > self.order:
            raise ValueError("prefix longer than the stored truncation")
        return SeriesX._from_locs(self.ctx, self.locs[: order + 1])

    def __repr__(self) -> str:
        shown = ", ".join(str(self[k]) for k in range(min(4, len(self))))
        tail = ", ..." if len(self) > 4 else ""
        return f"SeriesX([{shown}{tail}], order={self.order})"


# --- localized coefficient engine (package internal) ---

class _LocCtx:
    """Fixed localization context: denominators are powers of one D(y),
    with D(0) != 0, so every value is regular at y = 0."""

    __slots__ = ("D", "_powers")

    def __init__(self, D: Sequence[int]):
        D = polyq.trim(list(D))
        if not D or not D[0]:
            raise ZeroDivisionError("localization by a D(y) that vanishes at 0")
        if D[-1] < 0:
            D = [-c for c in D]
        self.D = D
        self._powers: dict[int, list[int]] = {0: [1], 1: list(D)}

    def power(self, e: int) -> list[int]:
        got = self._powers.get(e)
        if got is None:
            half = self.power(e // 2)
            got = polyq.pmul(half, half)
            if e % 2:
                got = polyq.pmul(got, self.D)
            self._powers[e] = got
        return got

    def zero(self) -> "_Loc":
        return _Loc(self, [], Fraction(1), 0)

    def from_fraction(self, c: Fraction) -> "_Loc":
        if not c:
            return self.zero()
        return _Loc(self, [1], Fraction(c), 0)

    def from_ints(self, coeffs: list[int]) -> "_Loc":
        """The polynomial with these integer coefficients, constant first."""
        if not coeffs:
            return self.zero()
        return _Loc(self, coeffs, Fraction(1), 0)

    def localize(self, rf: RatFunc) -> "_Loc":
        """rf as a value over this context; its denominator must divide D."""
        if rf.is_zero:
            return self.zero()
        nint, nscale = polyq.clear_denominators(rf.num)
        dint, dscale = polyq.clear_denominators(rf.den)
        if len(dint) == 1:
            return _Loc(self, nint, nscale / dscale, 0)
        return _Loc(self, polyq.pmul(nint, polyq.idivexact(self.D, dint)),
                    nscale / dscale, 1)


class _Loc:
    """Value scale * num(y) / D(y)^e; num is an int list, scale a Fraction."""

    __slots__ = ("ctx", "num", "scale", "e")

    def __init__(self, ctx: _LocCtx, num: list[int], scale: Fraction, e: int):
        self.ctx = ctx
        self.num = num
        self.scale = scale
        self.e = e

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "_Loc") -> "_Loc":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        e = max(self.e, other.e)
        na = self.num if self.e == e else polyq.pmul(
            self.num, self.ctx.power(e - self.e))
        nb = other.num if other.e == e else polyq.pmul(
            other.num, self.ctx.power(e - other.e))
        sa, sb = self.scale, other.scale
        pg = math.gcd(sa.numerator, sb.numerator)
        ql = sa.denominator * sb.denominator // math.gcd(
            sa.denominator, sb.denominator)
        s = Fraction(pg, ql)
        ma = int(sa / s)
        mb = int(sb / s)
        out = [ma * c for c in na]
        if len(out) < len(nb):
            out.extend([0] * (len(nb) - len(out)))
        for i, c in enumerate(nb):
            out[i] += mb * c
        polyq.trim(out)
        if not out:
            return self.ctx.zero()
        return _Loc(self.ctx, out, s, e)

    def __neg__(self) -> "_Loc":
        return _Loc(self.ctx, self.num, -self.scale, self.e)

    def __sub__(self, other: "_Loc") -> "_Loc":
        return self + (-other)

    def __mul__(self, other: "_Loc") -> "_Loc":
        if self.is_zero or other.is_zero:
            return self.ctx.zero()
        return _Loc(self.ctx, polyq.pmul(self.num, other.num),
                    self.scale * other.scale, self.e + other.e)

    def scaled(self, c: Fraction) -> "_Loc":
        if not c or self.is_zero:
            return self.ctx.zero()
        return _Loc(self.ctx, self.num, self.scale * c, self.e)

    def y_coeff(self, m: int) -> Fraction:
        """Taylor coefficient of y^m at y = 0."""
        if self.is_zero:
            return Fraction(0)
        series = self.y_prefix(m)
        return series[m]

    def eval0(self) -> Fraction:
        return self.y_coeff(0)

    def y_prefix(self, m: int) -> list[Fraction]:
        """Taylor coefficients through y^m."""
        if self.is_zero:
            return [Fraction(0)] * (m + 1)
        den = self.ctx.power(self.e)
        taylor = polyq.series_div(self.num[:m + 1], den[:m + 1], m + 1)
        return [c * self.scale for c in taylor]

    def to_ratfunc(self) -> RatFunc:
        return RatFunc([c * self.scale for c in self.num],
                       self.ctx.power(self.e))

    def __repr__(self) -> str:
        return f"_Loc({self.to_ratfunc()})"


# --- the truncated-series kernel ---
#
# Coefficients come from any exact ring whose zero is falsy.  ``_subs``
# names its ring by a ``lift``, which maps the integer coefficients of a
# y-polynomial (constant first) into it: ``ctx.from_ints`` for _Loc,
# ``_int_lift`` for int, and ``RatFunc`` itself for RatFunc.

def _mul_trunc(a: Sequence, b: Sequence, L: int, zero) -> list:
    """The first L coefficients of the product of two series."""
    out = [zero] * L
    for i, ai in enumerate(a[:L]):
        if ai:
            for j, bj in enumerate(b[:L - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out


def _powers(base: Sequence, top: int, L: int, one, zero) -> list[list]:
    """base^0, ..., base^top, each truncated to L coefficients."""
    base = list(base[:L]) + [zero] * (L - len(base))
    pows = [[one] + [zero] * (L - 1), base]
    while len(pows) <= top:
        pows.append(_mul_trunc(pows[-1], base, L, zero))
    return pows[:top + 1]


def _subs(P: MPoly, subst: dict[str, Sequence], L: int, lift) -> list:
    """The first L x-coefficients of P with series put in for variables.

    ``subst`` maps every variable of P other than x and y to a series over
    the ring of ``lift`` (ValueError otherwise); each y-polynomial
    coefficient goes through ``lift``.  Terms with the same substituted
    exponents share one product of powers.
    """
    zero, one = lift([]), lift([1])
    names = tuple(subst)
    groups: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for (*e, j, l), c in P.items(names + ("x", "y")):
        if j >= L:
            continue
        ys = groups.setdefault(tuple(e), {}).setdefault(j, [])
        ys.extend([0] * (l + 1 - len(ys)))
        ys[l] = c
    pows = {v: _powers(subst[v], max((k[n] for k in groups), default=0),
                       L, one, zero)
            for n, v in enumerate(names)}
    acc = [zero] * L
    for key, xs in groups.items():
        conv = None
        for v, k in zip(names, key):
            if k:
                conv = pows[v][k] if conv is None else _mul_trunc(
                    conv, pows[v][k], L, zero)
        coef = [zero] * (max(xs) + 1)
        for j, ys in xs.items():
            coef[j] = lift(ys)
        for m, t in enumerate(coef if conv is None
                              else _mul_trunc(coef, conv, L, zero)):
            if t:
                acc[m] = acc[m] + t
    return acc


def _int_lift(coeffs: list[int]) -> int:
    # only for y-free polynomials
    return coeffs[0] if coeffs else 0


def _vanishing_order(P: MPoly, psi: SeriesX | None, g: Sequence[Fraction],
                     L: int) -> int | None:
    """Lowest x-order below L at which P(psi, g, x, y) is nonzero, exactly.

    Works on the witness's ints and never builds a ``_Loc`` value.  Put
    x = u*D^r with r = max_k ceil(e_k/k), a = max(0, max_k e_k - r*k), and
    S, S_g the lcms of the denominators of psi's scales and of g.  Then
    Psi_k = S*scale_k*n_k*D^(a+r*k-e_k) and G_k = S_g*g_k*D^(r*k) lie in
    Z[y], and the u^m coefficient of (S*D^a)^deg_psi * S_g^deg_g * P at
    (Psi, G) is Z_m = (S*D^a)^deg_psi * S_g^deg_g * D^(r*m) * [x^m]P, an
    integer polynomial that is zero exactly when [x^m]P is.

    ``_subs`` runs twice over ints, each polynomial mapped to one int.
    First to its 1-norm: since |fg|_1 <= |f|_1 |g|_1, that gives an
    H >= |Z_m|_1 for every m < L.  Then to its value at t = 2^B > H: a
    nonzero integer polynomial whose coefficients are all below t in size
    does not vanish at t, so Z_m(t) = 0 exactly when Z_m = 0.  g may be
    empty, standing for g = 0.  A P free of psi ignores the witness, which
    may be None: with no locs, r = a = 0 and S = 1, so the test runs on g
    alone.
    """
    locs = psi.locs[:L] if P.degree("psi") else ()
    g = g[:L]
    r = max((-(-c.e // k) for k, c in enumerate(locs) if k), default=0)
    a = max([0] + [c.e - r * k for k, c in enumerate(locs)])
    S = math.lcm(*(c.scale.denominator for c in locs))
    Sg = math.lcm(*(c.denominator for c in g))
    dpsi, dg = P.degree("psi"), P.degree("g")
    terms: dict[tuple[int, int, int], list[int]] = {}
    for (i, j, m, l), c in P.items(("psi", "g", "x", "y")):
        if m < L:
            ys = terms.setdefault((i, j, m), [])
            ys.extend([0] * (l + 1 - len(ys)))
            ys[l] = c

    def image(ev) -> list[int]:
        # the x-coefficients of Z with each y-polynomial mapped by ev
        Dv, sg = ev(psi.ctx.D) if locs else 1, ev([Sg])
        lead = ev([S]) * Dv ** a
        Psi = [ev([S // c.scale.denominator * c.scale.numerator])
               * ev(c.num) * Dv ** (a + r * k - c.e)
               for k, c in enumerate(locs)]
        G = [ev([Sg // c.denominator * c.numerator]) * Dv ** (r * k)
             for k, c in enumerate(g)]
        Pt = MPoly.from_items(("psi", "g", "x"), (
            (key, ev(ys) * lead ** (dpsi - key[0]) * sg ** (dg - key[1])
             * Dv ** (r * key[2]))
            for key, ys in terms.items()))
        return _subs(Pt, {"psi": Psi, "g": G}, L, _int_lift)

    H = max(image(lambda p: sum(map(abs, p))), default=0)
    B = H.bit_length()
    return next((m for m, v in enumerate(image(
        lambda p: polyq.peval_pow2(p, B))) if v), None)


# --- the series-root lifter ---

class GLift:
    """The series root g(x) of an integer polynomial D(g, x), term by term.

    The package's one series-root lifter: `certify` lifts g = psi(x, 0)
    from its annihilator, and `funceq`'s branch search a root of the
    order-0 equation at a sample point.  D0 = D / x^val_x(D) has the
    roots of D.  When g0 is a simple root of D0(g, 0), g is the one
    series root of D0 with g(0) = g0, and its coefficients follow from D0
    by an integer lift.  With g0 = a/b, n = deg_g D0 and F(u, x) = b^n *
    D0(u/b, x), e = F_u(a, 0) is a nonzero integer, and
    G(v, z) = F(a + e*v, e^2*z) / e^2 is an integer polynomial v + R(v, z)
    with R free of the monomials 1 and v: every other term keeps a factor
    e^2.  Its root v(z) with v(0) = 0 has integer coefficients
    v_k = -[z^k] R(v, z), and [z^k] v^m for m >= 2 reads only v_1, ...,
    v_(k-1).  Then b*g(x) = a + e*v(x/e^2), so g_k = v_k / (b*e^(2k-1)).
    Each step is O(n*k) integer products, and a longer prefix extends the
    lift where it stopped.
    """

    __slots__ = ("D", "D0", "g0", "_e", "_R", "_pows")

    def __init__(self, D: MPoly, g0: Fraction):
        self.D = D
        self.D0 = D0 = D.divexact(MPoly.var("x") ** D.valuation("x"))
        self.g0 = g0
        a, b = g0.numerator, g0.denominator
        n = D0.degree("g")
        F = {}   # F[j][i] = b^(n-i) * [g^i x^j] D0
        for (i, j), c in D0.items(("g", "x")):
            F.setdefault(j, [0] * (n + 1))[i] = c * b ** (n - i)
        low = F.get(0, [0] * (n + 1))
        if sum(c * a ** i for i, c in enumerate(low)):
            raise SelfCheckFailed("D0 does not vanish at (g0, 0)")
        self._e = e = sum(i * c * a ** (i - 1) for i, c in enumerate(low) if i)
        # R[(m, j)] = [v^m z^j] G, each e^(m+2j-2) * sum_i F_ij C(i, m) a^(i-m)
        self._R = {}
        if e:
            for j, row in F.items():
                for m in range(n + 1):
                    if j or m > 1:
                        c = sum(row[i] * math.comb(i, m) * a ** (i - m)
                                for i in range(m, n + 1))
                        if c:
                            self._R[(m, j)] = c * e ** (m + 2 * j - 2)
        # _pows[m] = [z^0..z^k] v^m for m = 0..n; _pows[1] is v itself
        self._pows = [[1]] + [[0] for _ in range(n)]

    @property
    def simple(self) -> bool:
        """D0_g(g0, 0) != 0: the lift applies."""
        return self._e != 0

    @property
    def order(self) -> int:
        """The order through which g is lifted so far."""
        return len(self._pows[1]) - 1

    def series(self, K: int) -> QSeries:
        """g through x^K, the lift extended as far as needed."""
        pows, R = self._pows, self._R
        v = pows[1]
        for k in range(len(v), K + 1):
            pows[0].append(0)
            for m in range(2, len(pows)):
                prev = pows[m - 1]
                pows[m].append(sum(v[t] * prev[k - t] for t in range(1, k)))
            # R has no v^1 z^0 term, so v_k is not read here
            v.append(-sum(c * pows[m][k - j]
                          for (m, j), c in R.items() if j <= k))
        b, e = self.g0.denominator, self._e
        return QSeries([self.g0] + [Fraction(v[k], b * e ** (2 * k - 1))
                                    for k in range(1, K + 1)])
