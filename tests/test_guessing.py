"""Algebraic-equation guessing: exact fits, honest failures, invariances."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tuttesolve import FAIL, MPoly, QSeries, guess_algeq
from tuttesolve.errors import InvalidBounds

from . import _oracle

f, x = MPoly.var("f"), MPoly.var("x")


def annihilates(P: MPoly, s: list[F]) -> bool:
    """Check P(s(x), x) = O(x^len(s)) by plain series arithmetic."""
    n = len(s)
    nested = [[row.coeff_of("x", j).constant_value()
               for j in range(row.degree("x") + 1)]
              for row in P.as_univariate("f")]
    out = _oracle.poly_eval_series(nested, list(s), n)
    return all(c == 0 for c in out)


class TestExactFits:
    def test_all_ones_is_geometric(self):
        got = guess_algeq(QSeries([F(1)] * 8), 1, 1, margin=4)
        assert got is not FAIL
        assert got.P.normalized() == ((MPoly.const(1) - x) * f - MPoly.const(1)).normalized()

    def test_catalan_prefix(self):
        s = QSeries([F(_oracle.catalan(n)) for n in range(10)])
        got = guess_algeq(s, 2, 1, margin=4)
        assert got is not FAIL
        assert got.P.normalized() == (x * f**2 - f + MPoly.const(1)).normalized()

    def test_branch_is_echoed(self):
        s = QSeries([F(_oracle.catalan(n)) for n in range(10)])
        got = guess_algeq(s, 2, 1, margin=4)
        assert got.branch == s


class TestFailure:
    def test_short_input_fails(self):
        # four terms can never support six unknowns plus the margin
        s = QSeries([_oracle.counting_term(n) for n in range(4)])
        assert guess_algeq(s, 2, 1, margin=4) is FAIL

    def test_transcendental_style_input_fails(self):
        # partial sums of 1/n! have no small algebraic equation
        acc, fac, terms = F(0), 1, []
        for n in range(24):
            acc += F(1, fac)
            fac *= n + 1
            terms.append(acc)
        assert guess_algeq(QSeries(terms), 3, 3) is FAIL

    def test_fail_is_monotone_in_bounds(self):
        s = QSeries([_oracle.counting_term(n) for n in range(12)])
        for dF in range(1, 4):
            for dX in range(0, 4):
                if guess_algeq(s, dF, dX, margin=4) is FAIL:
                    for a in range(1, dF + 1):
                        for b in range(dX + 1):
                            assert guess_algeq(s, a, b, margin=4) is FAIL

    def test_bad_bounds_raise(self):
        s = QSeries([F(1)] * 20)
        with pytest.raises(InvalidBounds):
            guess_algeq(s, 0, 1)
        with pytest.raises(InvalidBounds):
            guess_algeq(s, 1, -1)
        with pytest.raises(InvalidBounds):
            guess_algeq(s, 1, 1, margin=3)


class TestTableCheck:
    def test_squarefree_part_short_of_the_last_order_is_rejected(self):
        # Catalan with its last coefficient moved: x*A fits every order,
        # for A the Catalan equation, but its squarefree primitive part A
        # fits to order L - 2 only, so the guesser must not return it
        L = 16
        s = [F(_oracle.catalan(n)) for n in range(L)]
        s[-1] += 1
        vals = _oracle.poly_eval_series([[1], [-1], [0, 1]], s, L)
        assert not any(vals[:L - 1]) and vals[L - 1]
        assert annihilates(x**2 * f**2 - x * f + x, s)
        assert guess_algeq(QSeries(s), 2, 2) is FAIL


class TestInvariances:
    def test_soundness_annihilation(self):
        s = [_oracle.counting_term(n) for n in range(26)]
        got = guess_algeq(QSeries(s), 4, 3, margin=4)
        assert got is not FAIL
        assert annihilates(got.P, s)

    def test_stability_under_longer_prefix(self):
        s = [_oracle.counting_term(n) for n in range(40)]
        first = guess_algeq(QSeries(s[:26]), 4, 3)
        second = guess_algeq(QSeries(s), 4, 3)
        assert first is not FAIL and second is not FAIL
        assert first.P == second.P

    def test_scaling_equivariance(self):
        rng = random.Random(20260815)
        s = [F(_oracle.catalan(n)) for n in range(14)]
        c = rng.randrange(2, 9)
        scaled = guess_algeq(QSeries([c * t for t in s]), 2, 1)
        plain = guess_algeq(QSeries(s), 2, 1)
        assert scaled is not FAIL and plain is not FAIL
        # substituting f -> c*f into the scaled equation recovers the plain one
        back = _oracle.subs_poly(scaled.P, {"f": MPoly.const(c) * f})
        assert back.normalized() == plain.P.normalized()
