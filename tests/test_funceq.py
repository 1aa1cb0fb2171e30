"""Well-posedness analysis and the exact series expansion engine."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuttesolve import (FuncEq, MPoly, check_well_posed, expand_series,
                        parse_equation, specialize_y0)
from tuttesolve.errors import (AmbiguousBranch, DegenerateKernel,
                               NoSeriesBranch, PoleAtYZero)
from tuttesolve.polyq import RatFunc

from . import _frozen, _oracle

psi, g, x, y = (MPoly.var(v) for v in ("psi", "g", "x", "y"))


def poly_y(cs):
    return sum((c * y**i for i, c in enumerate(cs)), MPoly.zero())


class TestFuncEqType:
    def test_requires_psi(self):
        with pytest.raises(ValueError):
            FuncEq(x + y)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            FuncEq(MPoly.zero())

    def test_rejects_internal_variables(self):
        with pytest.raises(ValueError):
            FuncEq(psi + MPoly.var("z"))

    def test_render_round_trip(self):
        eq = parse_equation(_frozen.TUTTE_EQ)
        assert parse_equation(eq.render()) == eq


class TestWellPosedness:
    def test_flagship_kernel_data(self, tutte_eq):
        wp = check_well_posed(tutte_eq)
        assert wp.mode == _frozen.TUTTE_KERNEL_MODE
        assert wp.kernelValuation == _frozen.TUTTE_KERNEL_VALUATION
        assert wp.c0 == RatFunc([F(1)])
        assert wp.gamma0 == F(1)
        assert wp.kernelA == RatFunc([F(0), F(-1), F(1)])   # y^2 - y
        assert wp.kernelB.is_zero

    def test_direct_mode_when_kernel_regular(self):
        wp = check_well_posed(parse_equation("psi - 1 - x*psi**2"))
        assert wp.mode == "direct" and wp.kernelValuation == 0

    def test_equal_by_fields(self):
        catalan = parse_equation("psi - 1 - x*psi**2")
        a, b = check_well_posed(catalan), check_well_posed(catalan)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != check_well_posed(parse_equation(_frozen.TUTTE_EQ))

    def test_two_branches_is_ambiguous(self):
        with pytest.raises(AmbiguousBranch):
            check_well_posed(parse_equation("psi**2 - psi"))

    def test_no_rational_branch(self):
        with pytest.raises(NoSeriesBranch):
            check_well_posed(parse_equation("psi**2 + 1"))

    def test_underdetermined_equation_is_degenerate(self):
        with pytest.raises(DegenerateKernel):
            check_well_posed(parse_equation("psi - g - x*y"))

    def test_branch_at_one_over_a_wide_semiprime(self):
        # the branch search finds c0 = 1/n without factoring n
        n = _oracle.WIDE_SEMIPRIME
        wp = check_well_posed(parse_equation(f"{n}*psi - 1 - x*psi**2"))
        assert wp.c0 == RatFunc([F(1, n)]) and wp.mode == "direct"

    # the order-0 branch c0(y) is not constant, so it is read back from its
    # series by the Pade relation; with g at order 0, it is searched at each
    # root gamma of the consistency polynomial
    @pytest.mark.parametrize("text, c0, A, B", [
        ("(1-y)*psi - 1 - x*psi**2*y", ([1], [1, -1]), [1, -1], []),
        ("(1+2*y)*psi - (1+y) - x*g*psi", ([1, 1], [1, 2]), [1, 2], []),
        ("(1 - y + 2*y**2)*psi - (1 + 3*y**2) - x*psi**2",
         ([1, 0, 3], [1, -1, 2]), [1, -1, 2], []),
        ("3*psi - 1 - g - x*psi**2", ([1], [2]), [3], [-1]),
    ], ids=["pole-at-1", "with-g", "degree-2", "fractional-gamma"])
    def test_rational_branch(self, text, c0, A, B):
        wp = check_well_posed(parse_equation(text))
        assert wp.c0 == RatFunc(*c0) and wp.mode == "direct"
        assert wp.gamma0 == wp.c0.eval0()
        assert wp.kernelA == RatFunc(A) and wp.kernelB == RatFunc(B)

    def test_two_rational_branches_are_ambiguous(self):
        with pytest.raises(AmbiguousBranch, match=r"-y \+ 1, y \+ 1"):
            check_well_posed(parse_equation("(psi - 1 - y)*(psi - 1 + y) - x*psi"))

    @given(st.lists(st.integers(-6, 6), max_size=3),
           st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_branch_is_any_rational_function(self, n, d):
        # d*psi - n - x*psi**2 has the one order-0 branch n/d
        assume(d[0] and len(_oracle.poly_gcd_q(n, d)) == 1)
        eq = FuncEq(poly_y(d) * psi - poly_y(n) - x * psi**2)
        assert check_well_posed(eq).c0 == RatFunc(n, d)


class TestExpansion:
    def test_flagship_prefix_matches_closed_form(self, tutte_sx, tutte_seq):
        want = [_oracle.counting_term(n) for n in range(31)]
        assert list(tutte_seq) == want
        # the first catalytic coefficient is 1/(1-y), computable by hand
        assert tutte_sx[1] == RatFunc([F(1)], [F(1), F(-1)])

    def test_deep_expansion_regression(self, tutte_eq):
        # high powers of (1-y) in the denominators; used to overflow a cap
        s = expand_series(tutte_eq, 38)
        got = specialize_y0(s)
        assert list(got) == [_oracle.counting_term(n) for n in range(39)]

    def test_engineered_pole_is_reported(self):
        eq = parse_equation("y**2*psi + g + x*y")
        with pytest.raises(PoleAtYZero):
            specialize_y0(expand_series(eq, 4))

    def test_negative_order_rejected(self, tutte_eq):
        with pytest.raises(ValueError):
            expand_series(tutte_eq, -1)

    def test_specialize_is_y0_column(self, tutte_sx, tutte_seq):
        assert list(tutte_seq) == [c.eval0() for c in tutte_sx]
