"""Truncated series containers and the reference evaluator."""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve import (MPoly, QSeries, SeriesX, expand_series, parse_equation,
                        specialize_y0)
from tuttesolve.errors import PoleAtYZero
from tuttesolve.polyq import RATFUNC_ONE, RATFUNC_ZERO, RatFunc
from tuttesolve.series import _subs, _vanishing_order

from . import _oracle

psi, g, x, y = (MPoly.var(v) for v in ("psi", "g", "x", "y"))
Y = RatFunc([F(0), F(1)])


def test_qseries_basics():
    s = QSeries([1, 2, F(1, 2)])
    assert s.order == 2 and len(s) == 3
    assert s[2] == F(1, 2)
    assert s.prefix(1) == QSeries([1, 2])
    with pytest.raises(ValueError):
        s.prefix(5)
    with pytest.raises(ValueError):
        QSeries([])


def test_seriesx_rejects_pole_at_y0():
    pole = RATFUNC_ONE / Y
    with pytest.raises(PoleAtYZero):
        SeriesX([RATFUNC_ONE, pole])


def test_seriesx_accessors():
    s = SeriesX([RATFUNC_ONE, Y, RATFUNC_ZERO])
    assert s.order == 2
    assert s[1] == Y
    assert s.prefix(1).coeffs == (RATFUNC_ONE, Y)


def loc_subs(P, s, g, L):
    """The first L x-coefficients of P(s, g, x, y), over the _Loc ring."""
    ctx = s.ctx
    subst = {"psi": s.locs, "g": [ctx.from_fraction(c) for c in g]}
    return _subs(P, subst, L, ctx.from_ints)


def frac_lift(coeffs):
    # y-free polynomials only
    return F(coeffs[0]) if coeffs else F(0)


def test_series_eval_small_case():
    # Q = psi*g + x*y at psi = 1 + y*x, g = 1 + 2x, over the _Loc ring
    Q = psi * g + x * y
    sx = SeriesX([RATFUNC_ONE, Y])
    out = loc_subs(Q, sx, [F(1), F(2)], 2)
    assert out[0].to_ratfunc() == RATFUNC_ONE
    # order 1: psi0*g1 + psi1*g0 + y = 2 + y + y
    assert out[1].to_ratfunc() == RatFunc([F(2), F(2)])


def test_series_eval_matches_independent_convolution():
    # Q = psi^2 - g with psi = sum (1+y)^n x^n-ish data, g its y=0 line
    coeffs = [RatFunc([F(1), F(n)]) for n in range(6)]
    sx = SeriesX(coeffs)
    out = loc_subs(psi ** 2 - g, sx, [c.eval0() for c in coeffs], 6)
    # independent check at y = 0: (sum x^n)^2 - same = square - line
    a = [F(1)] * 6
    sq = _oracle.ser_mul(a, a, 6)
    for k in range(6):
        got = out[k].eval0()
        assert got == sq[k] - a[k]


# --- the kernel against the oracle, in both coefficient rings ---

# exponents (psi, g, x, y) of total degree at most 3
EXPS = [e for e in product(range(4), repeat=4) if sum(e) <= 3]
Y0S = (F(0), F(2), F(-1), F(1, 2), F(-3, 4))
small = st.integers(-3, 3)


@st.composite
def polys(draw, y_free=False, psi_free=False):
    exps = [e for e in EXPS
            if not (y_free and e[3]) and not (psi_free and e[0])]
    P = MPoly.zero()
    for a, b, j, l in draw(st.lists(st.sampled_from(exps), min_size=1,
                                    max_size=6)):
        P = P + MPoly.monomial(draw(small), psi=a, g=b, x=j, y=l)
    return P


@st.composite
def loc_series(draw, n, coeffs=small):
    # c_k(y) = n_k(y) / (1 - y)^e_k: regular at y = 0, poles only at y = 1
    out = []
    for _ in range(n):
        num = [F(c) for c in draw(st.lists(coeffs, min_size=1, max_size=3))]
        den = [F(1)]
        for _ in range(draw(st.integers(0, 3))):
            den = [a - b for a, b in zip(den + [F(0)], [F(0)] + den)]
        out.append(RatFunc(num, den))
    return SeriesX(out)


def _oracle_terms(P: MPoly) -> dict:
    return dict(P.items(("psi", "g", "x", "y")))


@given(polys(), st.integers(1, 6).flatmap(
    lambda n: st.tuples(loc_series(n), st.lists(small, min_size=n,
                                                max_size=n))))
@settings(max_examples=60, deadline=None)
def test_localized_kernel_matches_oracle_at_points(P, data):
    sx, gl = data
    gs = [F(c) for c in gl]
    L = len(sx)
    out = [c.to_ratfunc() for c in loc_subs(P, sx, gs, L)]
    for y0 in Y0S:
        at = [c.evaluate(y0) for c in sx]
        want = _oracle.subs_at(_oracle_terms(P), at, gs, y0, L)
        assert [c.evaluate(y0) for c in out] == want


@given(polys(y_free=True), st.integers(1, 7).flatmap(
    lambda n: st.tuples(*[st.lists(st.fractions(-4, 4, max_denominator=5),
                                   min_size=n, max_size=n)] * 2)))
@settings(max_examples=60, deadline=None)
def test_rational_kernel_matches_oracle(P, data):
    ps, gl = data
    L = len(ps)
    got = _subs(P, {"psi": ps, "g": gl}, L, frac_lift)
    assert got == _oracle.subs_at(_oracle_terms(P), ps, gl, 0, L)


# --- the two ways of building a SeriesX ---

@given(st.sets(st.integers(0, 3), min_size=1), st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_expanded_and_constructed_series_agree(ups, K):
    # the expander's localization against the public constructor's
    eq = parse_equation(_oracle.walk_equation((-1, *sorted(ups))))
    sx = expand_series(eq, K)
    rf = SeriesX(list(sx))
    assert sx == rf
    g = specialize_y0(sx)
    assert specialize_y0(rf) == g
    assert ([c.y_prefix(4) for c in sx.locs]
            == [c.y_prefix(4) for c in rf.locs])
    for s in (sx, rf):
        assert not any(loc_subs(eq.Q, s, g, K + 1))
        assert _vanishing_order(eq.Q, s, g.coeffs, K + 1) is None


# --- the exact zero test over the integers against the _Loc reference ---

def _loc_order(P, s, g, L):
    """First nonzero x-order below L, over the _Loc ring."""
    return next((m for m, v in enumerate(loc_subs(P, s, g, L)) if v), None)


# equations free of g; the last two localize at a D with D(0) != 0 and
# give psi_0 a denominator, so r, a > 0 in the expander's layout
G_FREE = ("psi - 1 - x*psi**2", "psi - 1 - x*y*psi**3 - x*psi",
          "(1 - y)*psi - 1 - x*psi**2",
          "(2 - 3*y)*psi - 1 - x*(1 + y)*psi**2")


@st.composite
def vanishing_cases(draw):
    """(P, witness, g) with P(witness, g) = 0 to the witness's order.

    P is the equation times a small multiplier; the witness is its
    expansion, or that expansion rebuilt by the public constructor, which
    localizes with e in {0, 1}.  g is empty when the equation is g-free.
    """
    if draw(st.booleans()):
        ups = draw(st.sets(st.integers(0, 3), min_size=1))
        text = _oracle.walk_equation((-1, *sorted(ups)))
    else:
        text = draw(st.sampled_from(G_FREE))
    eq = parse_equation(text)
    sx = expand_series(eq, draw(st.integers(0, 10)))
    if draw(st.booleans()):
        sx = SeriesX(list(sx))
    g = specialize_y0(sx).coeffs if eq.Q.degree("g") else ()
    return eq.Q * draw(polys()), sx, g


@given(vanishing_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_vanishing_order_matches_loc_reference(case, data):
    P, s, g = case
    L = len(s)
    assert _vanishing_order(P, s, g, L) is None
    assert _loc_order(P, s, g, L) is None
    # a planted c*x^m*y^l is the first thing left
    m = data.draw(st.integers(0, L - 1))
    c = data.draw(small.filter(bool))
    P = P + MPoly.monomial(c, x=m, y=data.draw(st.integers(0, 3)))
    assert _vanishing_order(P, s, g, L) == _loc_order(P, s, g, L) == m


@given(polys(), st.integers(1, 6).flatmap(lambda n: st.tuples(
    loc_series(n, st.fractions(-3, 3, max_denominator=4)),
    st.just(()) | st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=n, max_size=n))))
@settings(max_examples=60, deadline=None)
def test_vanishing_order_matches_loc_reference_on_random_data(P, data):
    # non-unit scales, e in {0, 1}, with and without g
    s, g = data
    for L in range(len(s) + 1):
        assert _vanishing_order(P, s, g, L) == _loc_order(P, s, g, L)


def _frac_order(P, g, L):
    """First nonzero x-order below L of a psi-free P at g, over Fraction."""
    by_y: dict[int, dict] = {}
    for (_, b, j, l), c in _oracle_terms(P).items():
        by_y.setdefault(l, {})[(0, b, j, 0)] = c
    cols = [_oracle.subs_at(t, [], g, 0, L) for t in by_y.values()]
    return next((m for m in range(L) if any(col[m] for col in cols)), None)


rationals = st.fractions(-3, 3, max_denominator=4)


@given(polys(psi_free=True), st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_vanishing_order_of_a_psi_free_polynomial(P, n, more):
    # the shape of certify's p1 checks: P in (g, x, y) at a rational g,
    # with a witness passed along that P does not read
    s = more.draw(loc_series(n, rationals))
    g = more.draw(st.lists(rationals, min_size=n, max_size=n))
    # at least one entry negative and not an integer
    g[more.draw(st.integers(0, n - 1))] = more.draw(
        st.sampled_from((F(-1, 2), F(-4, 3), F(-3, 4))))
    for L in range(n + 1):
        assert _vanishing_order(P, s, g, L) == _frac_order(P, g, L)
    # d*(G(x) - g) vanishes to order n, for G the polynomial of g; a
    # planted c*x^m*y^l on a multiple of it is the first thing left
    d = math.lcm(*(c.denominator for c in g))
    G = sum((MPoly.monomial(int(d * c), x=k) for k, c in enumerate(g) if c),
            MPoly.zero())
    Z = (G - MPoly.const(d) * MPoly.var("g")) * more.draw(polys(psi_free=True))
    assert _vanishing_order(Z, s, g, n) is None
    m = more.draw(st.integers(0, n - 1))
    Z = Z + MPoly.monomial(more.draw(small.filter(bool)), x=m,
                           y=more.draw(st.integers(0, 3)))
    assert _vanishing_order(Z, s, g, n) == _frac_order(Z, g, n) == m


@pytest.mark.parametrize("s", [2, 64])
def test_defect_with_a_root_at_a_power_of_two_is_found(s):
    # psi = 1 + x*y, and [x^m] of the defect is y^2 - 2^s*y, which is zero
    # at y = 2^s; the test point must lie above it
    w = SeriesX([RATFUNC_ONE, Y] + [RATFUNC_ZERO] * 6)
    for m in range(8):
        P = psi - 1 - x * y + x**m * (y**2 - 2**s * y)
        assert _vanishing_order(P, w, (), 8) == m


def test_planted_defect_on_an_expanded_witness_is_found():
    eq = parse_equation(_oracle.walk_equation((-1, 1, 2)))
    sx = expand_series(eq, 12)
    g = specialize_y0(sx).coeffs
    for m in range(13):
        P = eq.Q + x**m * (y**2 - 4 * y)
        assert _vanishing_order(P, sx, g, 13) == m
