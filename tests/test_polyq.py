"""Univariate polynomial helpers and canonical rational functions."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve.polyq import (RATFUNC_ONE, RATFUNC_ZERO, RatFunc,
                              clear_denominators, deg, idivexact, igcd_poly,
                              int_parse, integer_roots, num_str, padd, peval,
                              peval_pow2, pmul, pshift, rational_roots,
                              series_div, trim)

from . import _oracle

ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(ints, min_size=0, max_size=6)


def frac_poly(p):
    return [F(c) for c in p]


class TestArithmetic:
    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert trim(pmul(a, b)) == trim(pmul(b, a))

    @given(polys, polys)
    @settings(max_examples=60)
    def test_mul_degree_and_eval(self, a, b):
        a, b = trim(list(a)), trim(list(b))
        c = pmul(a, b)
        if a and b:
            assert deg(c) == deg(a) + deg(b)
        for x in (F(0), F(1), F(-2), F(1, 3)):
            assert peval(c, x) == peval(a, x) * peval(b, x)

    @given(polys, st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60)
    def test_shift_is_composition(self, a, s):
        shifted = pshift(frac_poly(a), s)
        for x in (F(0), F(2), F(-1)):
            assert peval(shifted, x) == peval(frac_poly(a), x + s)

    @given(polys, polys, st.integers(min_value=0, max_value=8))
    @settings(max_examples=60)
    def test_series_div_times_den_is_num(self, num, den, n):
        if not den or not den[0]:
            return
        s = series_div(num, den, n)
        assert len(s) == n
        assert (pmul(s, den) + [0] * n)[:n] == (num + [0] * n)[:n]


wide = st.integers(min_value=-2**200, max_value=2**200)


class TestNumberTheory:
    def test_rational_roots(self):
        # 6x^2 - 5x + 1 = (2x-1)(3x-1)
        assert sorted(rational_roots([1, -5, 6])) == [F(1, 3), F(1, 2)]
        assert integer_roots([6, -5, 1]) == [2, 3]
        assert rational_roots([1]) == []

    def test_integer_roots_with_zero_constant(self):
        # n(n-3): roots 0 and 3
        assert sorted(integer_roots([0, -3, 1])) == [0, 3]

    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=7))
    @settings(max_examples=200)
    def test_agrees_with_the_divisor_method(self, a):
        if not trim(list(a)):
            return
        assert rational_roots(a) == _oracle.rational_roots_by_divisors(a)

    def test_roots_that_meet_mod_a_small_prime(self):
        # 1 and 3 are one double root mod 2, and 1/3 has no image mod 3
        assert rational_roots([3, -4, 1]) == [1, 3]
        assert rational_roots(pmul([-1, 3], [3, -4, 1])) == [F(1, 3), 1, 3]

    @given(st.lists(st.tuples(wide, wide.map(abs).filter(bool),
                              st.integers(1, 2)), max_size=3),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planted_wide_roots(self, planted, cofactor, lead_has_small_primes):
        # u/v with |u|, |v| up to 2^200, some twice; a leading coefficient
        # divisible by every prime below 50 leaves no small prime to work at
        a = trim(list(cofactor))
        if not a:
            return
        want = set(_oracle.rational_roots_by_divisors(a))
        for u, v, mult in planted:
            a = pmul(a, [-u, v] if mult == 1 else [u * u, -2 * u * v, v * v])
            want.add(F(u, v))
        if lead_has_small_primes:
            a = pmul(a, [1, _oracle.PRIMES_BELOW_50])
            want.add(F(-1, _oracle.PRIMES_BELOW_50))
        assert rational_roots(a) == sorted(want)

    def test_wide_semiprime_is_not_factored(self):
        # the divisor method would factor n; each root here is found at once
        n = _oracle.WIDE_SEMIPRIME
        assert rational_roots([-1, n]) == [F(1, n)]
        assert rational_roots(pmul([-1, n], [n, 1])) == [-n, F(1, n)]
        assert rational_roots([n, 0, 1]) == []

    @given(polys)
    def test_igcd_divides(self, a):
        a = trim([c for c in a])
        b = pmul(a, [1, 1]) if a else []
        g = igcd_poly(a, b)
        if a:
            assert deg(g) >= deg(a)


class TestClearDenominators:
    def test_basic(self):
        ints_out, scale = clear_denominators([F(1, 2), F(1, 3)])
        assert ints_out == [3, 2] and scale == F(1, 6)

    def test_int_input(self):
        assert clear_denominators([2, -4, 0]) == ([-1, 2], F(-2))

    def test_zero(self):
        assert clear_denominators([0, F(0)]) == ([], F(0))

    @given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_rescaling_recovers_input(self, fr):
        ints_out, scale = clear_denominators(fr)
        assert [scale * c for c in ints_out] == trim(list(fr))

    @given(st.lists(st.one_of(st.integers(-50, 50),
                              st.fractions(max_denominator=30)),
                    min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_mixed_input_is_primitive_with_positive_lead(self, cs):
        ints_out, scale = clear_denominators(cs)
        assert [scale * c for c in ints_out] == trim(list(cs))
        assert all(type(c) is int for c in ints_out)
        if ints_out:
            assert math.gcd(*ints_out) == 1 and ints_out[-1] > 0


class TestRatFunc:
    def test_canonical_form(self):
        r = RatFunc([F(2), F(2)], [F(4)])   # (2+2y)/4 -> (1/2)(1+y)
        assert r.den == (F(1),)
        assert r == RatFunc([F(1, 2), F(1, 2)])

    def test_field_ops(self):
        one_minus = RatFunc([F(1), F(-1)])
        r = RATFUNC_ONE / one_minus
        assert r == RatFunc([F(1)], [F(1), F(-1)])
        assert r.den[-1] == F(1)            # denominator kept monic
        assert (r - r).is_zero
        assert r * one_minus == RATFUNC_ONE
        assert (RATFUNC_ZERO + r) == r

    def test_eval0_and_regularity(self):
        r = RatFunc([F(1)], [F(1), F(-1)])
        assert r.regular_at_0 and r.eval0() == F(1)
        pole = RatFunc([F(1)], [F(0), F(1)])     # 1/y
        assert not pole.regular_at_0
        with pytest.raises(ZeroDivisionError):
            pole.eval0()

    @given(st.lists(st.fractions(-9, 9, max_denominator=6), max_size=4),
           st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1,
                    max_size=4),
           st.lists(ints, min_size=1, max_size=3))
    @settings(max_examples=80)
    def test_integer_reduction_matches_field_reduction(self, num, den, h):
        # a common factor h planted on both sides must cancel, and the
        # result must equal the reduction over Q with a monic gcd
        if not trim(list(den)) or not trim(list(h)):
            return
        r = RatFunc(pmul(num, h), pmul(den, h))
        n, d = trim(list(num)), trim(list(den))
        g = _oracle.poly_gcd_q(n, d) if n else [F(1)]
        n, d = _oracle.poly_divmod_q(n, g)[0], _oracle.poly_divmod_q(d, g)[0]
        assert r.num == tuple(c / d[-1] for c in n)
        assert r.den == (tuple(c / d[-1] for c in d) if n else (F(1),))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_add_matches_pointwise(self, a, b):
        if not trim(frac_poly(a)) or not trim(frac_poly(b)):
            return
        ra = RATFUNC_ONE / RatFunc(frac_poly(a)) if trim(frac_poly(a)) else RATFUNC_ZERO
        rb = RatFunc(frac_poly(b))
        s = ra + rb
        for x in (F(2), F(3), F(5)):
            da = peval(frac_poly(a), x)
            if da == 0 or peval(list(s.den), x) == 0:
                continue
            lhs = peval(list(s.num), x) / peval(list(s.den), x)
            assert lhs == 1 / da + peval(frac_poly(b), x)


@given(polys, polys)
@settings(max_examples=80)
def test_idivexact_inverts_pmul(a, b):
    a, b = trim(list(a)), trim(list(b))
    if not b:
        return
    assert idivexact(pmul(a, b), b) == a
    if a and deg(b) >= 1:
        with pytest.raises(ArithmeticError):
            idivexact(padd(pmul(a, b), [1]), b)


@given(st.lists(st.integers(-2**70, 2**70), max_size=40), st.integers(1, 80))
@settings(max_examples=200, deadline=None)
def test_evaluation_by_halves_is_horner(a, B):
    # signed coefficients wider than 2^B: the halves must carry and borrow
    # across their seam exactly as Horner does
    assert peval_pow2(a, B) == peval(a, 2**B)


# --- decimal text of any length ---
#
# Decimal is the reference: it has no digit limit, where str() and int()
# stop at 4,300 digits on Python 3.11+.  The lengths straddle that limit,
# the 3,000-digit pieces and their doublings.

LENGTHS = [1, 2, 2999, 3000, 3001, 4299, 4300, 4301, 5999, 6000, 6001,
           12000, 12001, 24001, 50000]


def _numbers(length: int) -> list[int]:
    """Random digits, and forms whose pieces are zero or all nines."""
    rng = random.Random(length)
    low = 10 ** (length - 1) if length > 1 else 0
    return [rng.randrange(low, 10**length), low, 10**length - 1,
            low + 1, low + 10 ** (length // 2)]


@pytest.mark.parametrize("length", LENGTHS)
def test_integers_round_trip(length):
    for n in _numbers(length):
        for v in (n, -n):
            text = num_str(v)
            assert text == str(Decimal(v))
            assert int_parse(text) == v
            assert int_parse(text.replace("-", "-000", 1)) == v


@pytest.mark.parametrize("length", LENGTHS)
def test_fractions_round_trip(length):
    n = _numbers(length)[0]
    for v in (F(7 * n + 1, 7**40), F(-3 * n - 1, 3), F(-7, 10 * n + 3)):
        num, den = num_str(v).split("/")
        assert (num, den) == (str(Decimal(v.numerator)),
                              str(Decimal(v.denominator)))
        assert F(int_parse(num), int_parse(den)) == v


@pytest.mark.parametrize("bad", ["", "-", "+7", " 7", "7 ", "7\n", "1_0",
                                 "1e3", "1.5", "--1", "0x1f", "\u0663",
                                 "1" * 5000 + "a"])
def test_int_parse_reads_only_ascii_digits(bad):
    with pytest.raises(ValueError, match="invalid integer"):
        int_parse(bad)
