"""Algebraic-equation guessing: exact fits, honest failures, invariances."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve import ABSENT, FAIL, MPoly, QSeries, guess_algeq, linalg
from tuttesolve.errors import InvalidBounds
from tuttesolve.guessing import _fix_sign
from tuttesolve.mpoly import squarefree_primitive
from tuttesolve.series import _powers

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

    @pytest.mark.parametrize("sentinel", [FAIL, ABSENT], ids=repr)
    def test_sentinel_is_a_falsy_singleton(self, sentinel):
        assert not sentinel and repr(sentinel) == str(sentinel)
        assert copy.deepcopy(sentinel) is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel

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


def fraction_table_guess(s: QSeries, maxDegF: int, maxDegX: int, margin: int = 6):
    """The reference guesser: the same search on a Fraction power table of
    s itself, with the squarefree step and the re-verify.  Returns P or
    FAIL."""
    L = len(s)
    pows = _powers(s.coeffs, maxDegF, L, F(1), F(0))
    shapes = ((dF, dX) for dF in range(1, maxDegF + 1)
              for dX in range(maxDegX + 1) if (dF + 1) * (dX + 1) + margin <= L)

    def column(dF, i, j):
        return [F(0)] * j + pows[i][:L - j]

    for grid in linalg.relations(shapes, column):
        raw = MPoly.from_items(("f", "x"), (((i, j), c) for i, row in enumerate(grid)
                                            for j, c in enumerate(row)))
        P = _fix_sign(squarefree_primitive(raw, "f"))
        terms = list(P.items(("f", "x")))
        if not any(sum(c * pows[i][m - j] for (i, j), c in terms if j <= m)
                   for m in range(L)):
            return P
    return FAIL


ALGEBRAIC = [lambda n: [F(_oracle.catalan(k)) for k in range(n)],
             lambda n: [F(_oracle.motzkin(k)) for k in range(n)],
             lambda n: [F(_oracle.planar_maps(k)) for k in range(n)],
             _oracle.sqrt_one_minus_x,
             lambda n: [_oracle.counting_term(k) for k in range(n)]]


@st.composite
def guess_inputs(draw):
    """(series, maxDegF, maxDegX, margin): a random series with a common
    denominator up to 10^6, a known algebraic series scaled by 1/c, or
    the series root of a random equation within the bounds, scaled by 1/c."""
    dF, dX = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    L = draw(st.integers(8, 30))
    kind = draw(st.sampled_from(["random", "known", "implicit", "implicit"]))
    if kind == "random":
        den = draw(st.integers(1, 10**6))
        s = [F(a, den) for a in draw(st.lists(st.integers(-1000, 1000),
                                              min_size=L, max_size=L))]
    else:
        if kind == "known":
            s = draw(st.sampled_from(ALGEBRAIC))(L)
        else:
            row = st.lists(st.integers(-3, 3), min_size=1, max_size=dX + 1)
            nested = draw(st.lists(row, min_size=2, max_size=dF + 1))
            nested[0][0] = 0
            nested[1][0] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            s = _oracle.implicit_series(nested, L)
        c = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, -1]))
        s = [t / c for t in s]
    return QSeries(s), dF, dX, draw(st.integers(4, 8))


class TestIntegerTable:
    @given(guess_inputs())
    @settings(max_examples=150, deadline=None)
    def test_same_equation_as_the_fraction_table(self, args):
        want = fraction_table_guess(*args)
        got = guess_algeq(*args)
        assert (got is FAIL) == (want is FAIL)
        if got is not FAIL:
            assert got.P == want

    def test_denominator_divisible_by_the_rank_prime(self, monkeypatch):
        # over one common denominator divisible by _P every column but the
        # top power's is zero mod _P, so no shape is proven kernel-free;
        # each one's kernel on its pivot rows mod _P fails the exact check,
        # and it takes the kernel of all 14 rows
        sizes = []
        real = linalg._int_kernel

        def spy(rows):
            sizes.append((len(rows), len(rows[0])))
            return real(rows)

        monkeypatch.setattr(linalg, "_int_kernel", spy)
        s = QSeries([F(_oracle.catalan(n), linalg._P) for n in range(14)])
        got = guess_algeq(s, 2, 1)
        # shapes (1, 0), (1, 1), (2, 0), (2, 1)
        assert sizes == [(1, 2), (14, 2), (2, 4), (14, 4),
                         (1, 3), (14, 3), (2, 6), (14, 6)]
        want = fraction_table_guess(s, 2, 1)
        assert want is not FAIL and got.P == want
        # C = _P f satisfies x C^2 - C + 1 = 0
        p = MPoly.const(linalg._P)
        want_P = x * p**2 * f**2 - p * f + MPoly.const(1)
        assert got.P.normalized() == want_P.normalized()
