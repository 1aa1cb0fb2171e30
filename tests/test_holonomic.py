"""Algebraic equation -> linear ODE -> recurrence, and minimization."""

from __future__ import annotations

from fractions import Fraction as F
from math import comb

import pytest

from tuttesolve import (ABSENT, AlgEq, LinODE, MPoly, PRec, QSeries,
                        algeq_to_ode, linalg, minimize_rec, ode_to_rec, polyq)
from tuttesolve.errors import InsufficientData, NonSquarefree, SelfCheckFailed
from tuttesolve.holonomic import _check_ode

from . import _frozen, _oracle

f, x = MPoly.var("f"), MPoly.var("x")
one = MPoly.const(1)


def geom_eq(n=12):
    return AlgEq((one - x) * f - one, QSeries([F(1)] * n))


def sqrt_eq(n=12):
    return AlgEq(f**2 + x - one, QSeries(_oracle.sqrt_one_minus_x(n)))


def catalan_eq(n=12):
    return AlgEq(x * f**2 - f + one,
                 QSeries([F(_oracle.catalan(k)) for k in range(n)]))


def excursion_eq(ups, n=40):
    """p1 of the walk with steps -1 and ``ups``: g = 1 + sum (x*g)^(s+1)."""
    P = sum(((x * f) ** (s + 1) for s in ups), one - f)
    rows = _oracle.walk_counts((-1, *ups), n - 1, 0)
    return AlgEq(P, QSeries([F(row[0]) for row in rows]))


def maps_eq(n=40):
    P = 27 * x**2 * f**2 - 18 * x * f + f + 16 * x - one
    return AlgEq(P, QSeries([F(_oracle.planar_maps(k)) for k in range(n)]))


P1S = {"catalan": lambda: catalan_eq(40), "maps": maps_eq,
       "dyck": lambda: excursion_eq((1,)),
       "motzkin": lambda: excursion_eq((0, 1)),
       "luk2": lambda: excursion_eq((2,)), "luk3": lambda: excursion_eq((3,)),
       "walk112": lambda: excursion_eq((1, 2)),
       "walk102": lambda: excursion_eq((0, 2)),
       "walk23": lambda: excursion_eq((2, 3)),
       "walk13": lambda: excursion_eq((1, 3))}

# (coeffs, inhom) of each p1's ODE, as the residue-ring derivation over
# Q(x) found them
ODES = {
    "catalan": (((1, -2), (0, 1, -4)), (-1,)),
    "maps": (((2, -6), (0, 1, -12)), (-2,)),
    "dyck": (((2, 0, -4), (0, 1, 0, -4)), (-2,)),
    "motzkin": (((2, -3, -3), (0, 1, -2, -3)), (-2,)),
    "luk2": (((0, 0, -54), (10, 0, 0, -108), (0, 4, 0, 0, -27)), ()),
    "luk3": (((0, 0, 0, -1536), (-21, 0, 0, 0, -4608),
              (0, 81, 0, 0, 0, -2304), (0, 0, 27, 0, 0, 0, -256)), ()),
    "walk112": (((6, 2, -42, -336, -558), (0, 14, 94, -54, -722, -1116),
                 (0, 0, 4, 37, -9, -193, -279)), (-6, -2)),
    "walk102": (((-10, 18, -62), (10, -36, 42, -124),
                 (0, 4, -12, 12, -31)), ()),
    "walk23": (((24, 108, 2736, -1980, 50664, 173736, 464664, 728220),
                (0, 186, -4368, -282, 5304, 152502, 492288, 1659426, 2184660),
                (0, 0, 162, -5700, -8250, -45048, 79746, 228702, 962430,
                 1092330),
                (0, 0, 0, 27, -1138, -2175, -14406, 9433, 23142, 121683,
                 121370)),
               (-24, -108, -2736, 264)),
    "walk13": (((0, -480, 0, -960, 0, 4320), (105, 0, -1787, 0, 936, 0, 12960),
                (0, 135, 0, -1525, 0, 2616, 0, 6480),
                (0, 0, 27, 0, -275, 0, 556, 0, 720)), ()),
}


class TestAlgEqToOde:
    @pytest.mark.parametrize("name", list(ODES))
    def test_pinned_odes(self, name):
        ode = algeq_to_ode(P1S[name]())
        assert (ode.coeffs, ode.inhom) == ODES[name]

    def test_geometric(self):
        ode = algeq_to_ode(geom_eq())
        assert ode.coeffs == ((-1,), (1, -1))
        assert ode.inhom == ()

    def test_square_root(self):
        ode = algeq_to_ode(sqrt_eq())
        assert ode.coeffs == ((1,), (2, -2))
        assert ode.inhom == ()

    def test_catalan_is_inhomogeneous(self):
        ode = algeq_to_ode(catalan_eq())
        assert ode.coeffs == ((1, -2), (0, 1, -4))
        assert ode.inhom == (-1,)

    def test_flagship(self, tutte_p1):
        ode = algeq_to_ode(tutte_p1)
        assert ode.coeffs == _frozen.TUTTE_ODE_COEFFS
        assert ode.inhom == _frozen.TUTTE_ODE_INHOM

    def test_wrong_ode_fails_its_check(self):
        # f' = f does not hold for 1/(1-x); the error survives python -O
        ode = LinODE(((-1,), (1,)), (), QSeries([F(1)] * 6))
        with pytest.raises(SelfCheckFailed):
            _check_ode(ode, ode.branch)

    def test_non_squarefree_rejected(self):
        sq = AlgEq((f - one) ** 2, QSeries([F(1), F(0), F(0)]))
        with pytest.raises(NonSquarefree):
            algeq_to_ode(sq)


class TestOdeToRec:
    def test_geometric(self):
        rec = ode_to_rec(algeq_to_ode(geom_eq()))
        assert rec.coeffs == ((-1,), (1,))
        assert rec.terms(30) == [F(1)] * 30

    def test_exponential_style_ode(self):
        # f' = f fed in directly; the recurrence is (n+1) a_{n+1} = a_n
        ode = LinODE(((-1,), (1,)), (), QSeries([F(1), F(1), F(1, 2)]))
        rec = ode_to_rec(ode)
        assert rec.coeffs == ((-1,), (1, 1))
        assert rec.terms(10) == [F(1, _oracle.factorial(n)) for n in range(10)]

    def test_catalan(self):
        rec = ode_to_rec(algeq_to_ode(catalan_eq()))
        assert rec.coeffs == ((-2, -4), (2, 1))
        assert rec.terms(60) == [F(_oracle.catalan(n)) for n in range(60)]

    def test_square_root_against_oracle(self):
        rec = ode_to_rec(algeq_to_ode(sqrt_eq()))
        assert rec.terms(60) == _oracle.sqrt_one_minus_x(60)

    def test_flagship_sixty_terms(self, tutte_p1):
        rec = ode_to_rec(algeq_to_ode(tutte_p1))
        assert rec.terms(60) == [_oracle.counting_term(n) for n in range(60)]

    def test_round_trip_reproduces_witness(self, tutte_p1):
        rec = ode_to_rec(algeq_to_ode(tutte_p1))
        n = len(tutte_p1.branch)
        assert rec.terms(n) == list(tutte_p1.branch)


class TestPRec:
    def test_enough_initials_required(self):
        # leading coefficient n - 3 vanishes at n = 3, so five initials
        # are needed before iteration is well defined
        with pytest.raises(ValueError):
            PRec(((1,), (-3, 1)), (F(1), F(1)))
        ok = PRec(((1,), (-3, 1)), (F(1), F(-1), F(1, 2), F(-1, 6), F(7)))
        assert len(ok.terms(8)) == 8

    def test_wide_leading_coefficient(self):
        # n^2 + N has no integer root, and (n - 3)(n + N) only n = 3, found
        # without factoring N
        N = _oracle.WIDE_SEMIPRIME
        assert PRec(((1,), (N, 0, 1)), [1]).order == 1
        with pytest.raises(ValueError):
            PRec(((1,), (-3 * N, N - 3, 1)), [1] * 4)
        assert PRec(((1,), (-3 * N, N - 3, 1)), [1] * 5).order == 1

    def test_singular_index_pulled_from_initials(self):
        # (k - 1) a(k+1) = a(k): iteration breaks at a(2), which must come
        # from the initial values; afterwards iteration resumes
        rec = PRec(((-1,), (-1, 1)), (F(2), F(-2), F(7)))
        assert rec.terms(5) == [F(2), F(-2), F(7), F(7), F(7, 2)]


class TestMinimize:
    def test_already_minimal_is_identity(self):
        rec = ode_to_rec(algeq_to_ode(geom_eq()))
        data = QSeries([F(1)] * 40)
        assert minimize_rec(rec, data, 2) == rec

    def test_catalan_cannot_shrink_below_ratio(self):
        rec = ode_to_rec(algeq_to_ode(catalan_eq()))
        data = QSeries([F(_oracle.catalan(n)) for n in range(40)])
        assert minimize_rec(rec, data, 1) is ABSENT
        small = minimize_rec(rec, data, 2)
        assert small is not ABSENT
        assert small.coeffs == ((-2, -4), (2, 1))

    def test_flagship_minimal_form(self, tutte_p1):
        rec = ode_to_rec(algeq_to_ode(tutte_p1))
        data = QSeries([_oracle.counting_term(n) for n in range(64)])
        small = minimize_rec(rec, data, 4)
        assert small is not ABSENT
        assert len(small.coeffs) == 2          # first order
        assert max(len(c) for c in small.coeffs) == 4   # cubic in n
        assert small.terms(64) == list(data)

    def test_too_little_data_raises(self):
        rec = ode_to_rec(algeq_to_ode(catalan_eq()))
        with pytest.raises(InsufficientData):
            minimize_rec(rec, QSeries([F(1), F(1)]), 6)

    @pytest.mark.parametrize("scale", [F(1), F(1, linalg._P)],
                             ids=["plain", "rank-prime"])
    def test_fraction_data(self, scale):
        # a_n = C(2n, n) / 4^n, the coefficients of (1 - x)^(-1/2); over
        # the denominator _P no shape is kernel-free mod _P
        base = [F(comb(2 * n, n), 4**n) for n in range(64)]
        p1 = AlgEq((one - x) * f**2 - one, QSeries(base[:12]))
        full = ode_to_rec(algeq_to_ode(p1))
        # a recurrence is linear and homogeneous: scaled initials, scaled terms
        rec = PRec(full.coeffs, [scale * v for v in full.initials])
        terms = [scale * t for t in base]
        data = QSeries(terms)
        small = minimize_rec(rec, data, 2)
        # 2(n+1) a_(n+1) - (2n+1) a_n = 0
        assert small.coeffs == ((-1, -2), (2, 2))
        assert small == fraction_rows_minimize(rec, data, 2)
        assert small.terms(64) == terms


def fraction_rows_minimize(r: PRec, data: QSeries, maxC: int):
    """The reference minimizer: the same search on rows of the Fraction
    data themselves."""
    shapes = ((sp, c - sp) for c in range(1, maxC + 1) for sp in range(1, c + 1))
    vals = list(data.coeffs)

    def rows_of(sp, dp):
        return [[n ** e * vals[n + t] for t in range(sp + 1) for e in range(dp + 1)]
                for n in range(len(vals) - sp)]

    roots_r = [u for u in polyq.integer_roots(list(r.coeffs[-1])) if u >= 0]
    for qs in linalg.relations(shapes, rows_of):
        if len(qs) < 2:
            continue
        roots_c = [u for u in polyq.integer_roots(qs[-1]) if u >= 0]
        Lstar = len(r.initials) + max(roots_c + roots_r + [-1]) + r.order + len(qs) + 7
        ref = r.terms(Lstar)
        need_c = len(qs) + (max(roots_c) if roots_c else -1)
        cand = PRec(qs, ref[:need_c])
        if cand.terms(Lstar) == ref:
            return cand
    return ABSENT
