"""Exact multivariate polynomials: arithmetic, elimination, squarefree parts."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tuttesolve import (MPoly, expand_series, guess_algeq, parse_equation,
                        resultant, specialize_y0, squarefree_primitive)
from tuttesolve.errors import InvalidElimination
from tuttesolve.linalg import _eliminate
from tuttesolve.mpoly import VARS, _p_try_divexact, gcd_mpoly

from . import _oracle

mpoly_mod = importlib.import_module("tuttesolve.mpoly")

x, y, f, psi = (MPoly.var(v) for v in ("x", "y", "f", "psi"))
FXY = ("f", "x", "y")


@st.composite
def small_polys(draw, vars=("f", "x"), max_terms=4, max_exp=2, max_coeff=4):
    p = MPoly.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        c = draw(st.integers(-max_coeff, max_coeff))
        exps = {v: draw(st.integers(0, max_exp)) for v in vars}
        p = p + MPoly.monomial(c, **exps)
    return p


class TestArithmetic:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=80)
    def test_ring_laws_by_evaluation(self, a, b, c):
        pts = [{"f": 2, "x": 3}, {"f": -1, "x": 5}, {"f": 7, "x": -2}]
        for pt in pts:
            ev = lambda p: p.subs_int(pt).constant_value()
            assert ev(a * (b + c)) == ev(a) * (ev(b) + ev(c))
            assert ev((a - b) * c) == (ev(a) - ev(b)) * ev(c)

    def test_pow_and_degree(self):
        p = (x + y) ** 3
        assert p.degree("x") == 3 and p.degree("y") == 3
        assert p.coeff_of("x", 2) == 3 * y
        assert p.total_degree() == 3

    def test_valuation(self):
        p = x ** 2 * y + x ** 3
        assert p.valuation("x") == 2 and p.valuation("y") == 0

    def test_univariate_round_trip(self):
        p = f ** 2 * x + 3 * f - x ** 2 + 1
        rows = p.as_univariate("f")
        assert len(rows) == 3
        assert MPoly.from_univariate(rows, "f") == p

    def test_derivative(self):
        p = f ** 3 * x + f
        assert p.derivative("f") == 3 * f ** 2 * x + 1
        assert p.derivative("y").is_zero

    def test_divexact(self):
        a = (f + x) * (f - 2 * x + 1)
        assert a.divexact(f + x) == f - 2 * x + 1
        assert a.try_divexact(f + x + 1) is None

    def test_normalized(self):
        p = -2 * f * x - 4 * x ** 2
        n = p.normalized()
        assert n == f * x + 2 * x ** 2
        assert n.int_content() == 1

    def test_subs_poly(self):
        p = f ** 2 + x
        assert _oracle.subs_poly(p, {"f": x + 1}) == (x + 1) ** 2 + x


# --- every operation against the tuple-keyed oracle, in all six variables ---

EXP6 = st.tuples(*[st.integers(0, 3)] * 6)


@st.composite
def paired(draw):
    """A polynomial and the same polynomial as an oracle dict."""
    P, ref = MPoly.zero(), {}
    for e, c in draw(st.lists(st.tuples(EXP6, st.integers(-4, 4)), max_size=5)):
        P = P + MPoly.monomial(c, **dict(zip(VARS, e)))
        ref = _oracle.sparse_add(ref, {e: c})
    return P, ref


def view(P: MPoly) -> dict:
    return dict(P.items(VARS))


class TestAgainstOracle:
    @given(paired(), paired())
    @settings(max_examples=60, deadline=None)
    def test_add_and_mul(self, a, b):
        (P, p), (Q, q) = a, b
        assert view(P) == p
        assert view(P + Q) == _oracle.sparse_add(p, q)
        assert view(P * Q) == _oracle.sparse_mul(p, q)

    @given(paired(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_pow(self, a, n):
        P, p = a
        assert view(P ** n) == _oracle.sparse_pow(p, n, len(VARS))

    @given(paired(), st.sampled_from(VARS), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_derivative_and_coeff_of(self, a, v, k):
        P, p = a
        i = VARS.index(v)
        assert view(P.derivative(v)) == _oracle.sparse_derivative(p, i)
        assert view(P.coeff_of(v, k)) == _oracle.sparse_coeff(p, i, k)

    @given(paired(), st.sampled_from(VARS), st.sampled_from(VARS))
    @settings(max_examples=60, deadline=None)
    def test_rename_var(self, a, src, dst):
        P, p = a
        i, j = VARS.index(src), VARS.index(dst)
        # the target must be absent
        P, p = P.coeff_of(dst, 0), _oracle.sparse_coeff(p, j, 0)
        assert view(P.rename_var(src, dst)) == _oracle.sparse_rename(p, i, j)

    @given(paired(), st.dictionaries(st.sampled_from(VARS),
                                     st.integers(-3, 3), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_subs_int(self, a, values):
        P, p = a
        want = _oracle.sparse_subs_int(
            p, {VARS.index(v): n for v, n in values.items()})
        assert view(P.subs_int(values)) == want

    @given(paired(), st.sampled_from(VARS))
    @settings(max_examples=60, deadline=None)
    def test_univariate_and_items_round_trips(self, a, v):
        P, p = a
        rows = P.as_univariate(v)
        assert [view(r) for r in rows] == [
            _oracle.sparse_coeff(p, VARS.index(v), k) for k in range(len(rows))]
        assert MPoly.from_univariate(rows, v) == P
        assert MPoly.from_items(VARS, P.items(VARS)) == P

    @given(paired(), paired())
    @settings(max_examples=60, deadline=None)
    def test_exact_quotient_comes_back(self, a, b):
        (P, _), (D, _) = a, b
        assume(not D.is_zero)
        assert (P * D).try_divexact(D) == P
        if D.total_degree() > 0:
            assert (P * D + 1).try_divexact(D) is None

    @given(paired(), EXP6, st.sampled_from([1, -1, 2, -3]))
    @settings(max_examples=80, deadline=None)
    def test_monomial_division_matches_oracle(self, a, d, dc):
        P, p = a
        got = P.try_divexact(MPoly.from_items(VARS, [(d, dc)]))
        want = _oracle.sparse_div_monomial(p, d, dc)
        assert (got is None and want is None) or view(got) == want

    @given(paired(), paired(), EXP6, st.integers(-4, 4).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_multi_term_division_by_the_heap(self, a, b, e, c):
        (Q, _), (D, _) = a, b
        assume(len(D.terms) > 1)
        QD = (Q * D).terms
        assert _p_try_divexact(QD, D.terms) == Q.terms
        # a multi-term D divides no monomial, so one more term (cancelling
        # a term of Q*D or not) leaves the product indivisible
        extra = (Q * D + MPoly.monomial(c, **dict(zip(VARS, e)))).terms
        assert _p_try_divexact(extra, D.terms) is None

    def test_borrow_from_a_lower_field_does_not_divide(self):
        assert (x ** 3).try_divexact(x * y) is None
        assert (psi * x ** 2).try_divexact(psi * y) is None
        assert (x ** 3 + x).try_divexact(x * y + 1) is None

    def test_items_rejects_a_variable_it_was_not_asked_for(self):
        with pytest.raises(ValueError):
            list((x * y + 1).items(("x",)))


class TestExponentWidth:
    def test_largest_exponent_fits(self):
        assert (x ** (2**20 - 1)).degree("x") == 2**20 - 1
        assert (psi ** (2**20 - 1)).degree("psi") == 2**20 - 1

    def test_power_past_the_width_raises(self):
        with pytest.raises(OverflowError):
            x ** (2**20)
        with pytest.raises(OverflowError):
            psi ** (2**20)

    def test_product_past_the_width_raises(self):
        with pytest.raises(OverflowError):
            x ** (2**19) * x ** (2**19)

    def test_no_carry_into_the_next_field(self):
        # unchecked, x**3000000 would carry into the z field
        with pytest.raises(OverflowError):
            x ** 3000000

    def test_from_items_checks_the_width(self):
        with pytest.raises(OverflowError):
            MPoly.from_items(("y",), [((2**20,), 1)])


@st.composite
def elimination_pairs(draw):
    """Two polynomials of f-degree 1 to 4 over Z[x, y], with multi-term
    coefficients, leading ones included.  Some share a factor, so their
    resultant is 0; in others A = Q*B + C with C free of f, so the one
    pseudo-remainder of the larger by the smaller has degree 0."""
    coeff = small_polys(("x", "y"), max_terms=3, max_exp=1, max_coeff=3)
    lead = coeff.filter(lambda c: not c.is_zero)

    def poly(d):
        return sum((draw(coeff) * f ** k for k in range(d)),
                   draw(lead) * f ** d)

    kind = draw(st.sampled_from(["plain", "shared", "constant remainder"]))
    if kind == "shared":
        h = poly(1)
        return poly(draw(st.integers(0, 3))) * h, poly(draw(st.integers(0, 3))) * h
    if kind == "constant remainder":
        b = poly(draw(st.integers(2, 3)))
        return poly(1) * b + draw(lead), b
    return poly(draw(st.integers(1, 4))), poly(draw(st.integers(1, 4)))


class TestResultant:
    @given(elimination_pairs())
    # deg_f B = 2 and a constant pseudo-remainder 3*(x + 2)^2: a diagonal
    # norm matrix
    @example(((((x + 2) * f ** 2 + y * f + 1) * (f + 1) + 3,
               (x + 2) * f ** 2 + y * f + 1)))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_sylvester_determinant(self, pair):
        a, b = pair
        want = _oracle.sylvester_resultant(dict(a.items(FXY)),
                                           dict(b.items(FXY)), 0)
        assert dict(resultant(a, b, "f").items(FXY)) == want

    @pytest.mark.parametrize("dA", [1, 2, 3, 4])
    @pytest.mark.parametrize("dB", [1, 2, 3, 4])
    def test_every_degree_pair_and_its_sign(self, dA, dB):
        a = sum(((k - x) * f ** k for k in range(dA)), (x + y + 2) * f ** dA)
        b = sum(((y + k) * f ** k for k in range(dB)), (x - 3) * f ** dB)
        want = _oracle.sylvester_resultant(dict(a.items(FXY)),
                                           dict(b.items(FXY)), 0)
        assert dict(resultant(a, b, "f").items(FXY)) == want

    def test_zero_pivot_swaps_a_row(self):
        # Bareiss on the Sylvester matrix of (f^2 + x, f) meets a zero
        # pivot in its second column; the determinant is Res = x
        one, zero = MPoly.const(1), MPoly.zero()
        M = [[one, zero, x], [one, zero, zero], [zero, one, zero]]
        piv, sign = _eliminate(M, MPoly.divexact)
        assert piv == [0, 1, 2] and sign * M[-1][-1] == x
        assert resultant(f ** 2 + x, f, "f") == x

    def test_zero_first_pivot_of_the_norm_matrix(self):
        # R = (x^2 - y)*f has no constant term, so the norm matrix's first
        # column is zero in row 0 and the elimination swaps rows
        a, b = f ** 3 - x * y, f ** 2 + x * f + y
        want = _oracle.sylvester_resultant(dict(a.items(FXY)),
                                           dict(b.items(FXY)), 0)
        assert want and dict(resultant(a, b, "f").items(FXY)) == want

    def test_singular_norm_matrix_with_a_nonzero_corner(self):
        # the shared factor f leaves the norm matrix singular, with a
        # nonzero entry in its last place after the elimination
        a = f * ((y + 1) * f ** 2 + f + x)
        b = f * (f ** 2 + 2 * f + 2)
        assert resultant(a, b, "f").is_zero

    def test_divisor_of_degree_nine(self):
        # a 9 x 9 norm matrix; sparse and non-monic, at equal degrees
        # (either order, odd degrees so the sign flips) and a degree apart
        d = 9
        same = f ** d + x * f ** 3 - y, (x + 2) * f ** d + y * f ** (d - 2) + 1
        apart = f ** (d + 1) + x * f - y, (x + 2) * f ** d + y * f ** (d - 1) + 1
        for a, b in (same, same[::-1], apart):
            want = _oracle.sylvester_resultant(dict(a.items(FXY)),
                                               dict(b.items(FXY)), 0)
            assert dict(resultant(a, b, "f").items(FXY)) == want

    def test_linear_pair(self):
        r = resultant(f - x, f - y, "f")
        assert r in (x - y, y - x)

    def test_common_factor_vanishes(self):
        a = (f - x) * (f + 1)
        b = (f - x) * (f + y)
        assert resultant(a, b, "f").is_zero

    def test_divisibility_in_products(self):
        a = f ** 2 + x
        b = f - x
        c = f + x + 1
        whole = resultant(a, b * c, "f")
        part = resultant(a, b, "f")
        assert whole.try_divexact(part) is not None

    def test_rejects_constant_in_variable(self):
        with pytest.raises(InvalidElimination):
            resultant(x + 1, f - x, "f")


@st.composite
def packed_matrices(draw):
    """Square matrices of packed polynomials in x and y, 1x1 to 6x6, with
    zero entries often, and now and then a zero row or a zero leading
    column, so that Bareiss meets zero pivots."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(MPoly.zero()),
                      small_polys(("x", "y"), max_terms=2, max_exp=2))
    M = [[draw(entry).terms for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["plain", "zero row", "zero column"]))
    k = draw(st.integers(0, n - 1))
    if kind == "zero row":
        M[k] = [{}] * n
    elif kind == "zero column":
        for row in M[:k + 1]:
            row[0] = {}
    return M


class TestDeterminant:
    @given(packed_matrices())
    @settings(max_examples=120, deadline=None)
    def test_bareiss_agrees_with_the_permutation_expansion(self, M):
        # sign times the last pivot of the elimination, as resultant reads it
        want = _oracle.sparse_det([[dict(MPoly(e).items(("x", "y")))
                                    for e in row] for row in M], 2)
        n = len(M)
        M = [[MPoly(e) for e in row] for row in M]
        piv, sign = _eliminate(M, MPoly.divexact)
        assert (len(piv) < n) == (not want)
        if len(piv) == n:
            assert dict((sign * M[-1][-1]).items(("x", "y"))) == want


class TestGcd:
    @given(small_polys(FXY, 3), small_polys(FXY, 3), small_polys(FXY, 3))
    @settings(max_examples=80, deadline=None)
    def test_common_factor_divides_the_gcd(self, a, b, c):
        assume(not c.is_zero and not (a.is_zero and b.is_zero))
        A, B = a * c, b * c
        g = gcd_mpoly(A, B)
        assert g.try_divexact(c) is not None
        assert A.try_divexact(g) is not None
        assert B.try_divexact(g) is not None

    def test_content_and_sign(self):
        assert gcd_mpoly(-6 * (f - x), 4 * (f - x) * y) == 2 * (f - x)
        assert gcd_mpoly(f + 1, f - 1) == 1
        assert gcd_mpoly(MPoly.zero(), -(x * y)) == x * y


class TestSquarefreePrimitive:
    @given(small_polys(FXY, 3), small_polys(FXY, 3), small_polys(("x", "y"), 2))
    @settings(max_examples=80, deadline=None)
    def test_repeated_factors_and_free_content_drop_out(self, F, G, k):
        assume(not (F * G).is_zero and not k.is_zero)
        got = squarefree_primitive(F ** 2 * G * k, "f")
        assert got == squarefree_primitive(F * G, "f")
        assert gcd_mpoly(got, got.derivative("f")).total_degree() <= 0

    def test_strips_multiplicity(self):
        p = (f - x) ** 2 * (f + 1)
        got = squarefree_primitive(p, "f")
        want = ((f - x) * (f + 1)).normalized()
        assert got.normalized() == want

    def test_drops_variable_free_content(self):
        p = 6 * x ** 2 * (f - 1) ** 2
        assert squarefree_primitive(p, "f").normalized() == (f - 1).normalized()

    @pytest.mark.parametrize("p, want", [
        (6 * psi ** 2 * x, psi), (-6 * psi ** 2 * x, psi), (x + y, 1)])
    def test_monomial_in_v(self, p, want):
        assert squarefree_primitive(p, "psi") == want

    def test_squarefree_input_unchanged_up_to_normalization(self):
        p = f ** 2 - x
        assert squarefree_primitive(p, "f").normalized() == p.normalized()

    def test_primitive_resultant_is_proven_squarefree_without_a_gcd(
            self, monkeypatch, deadline):
        # Res_g(Q, p1) of this equation is psi-primitive and squarefree:
        # one specialization in psi proves it, where the gcd's test in y is
        # inconclusive and its remainder sequence runs for minutes
        eq = parse_equation("y*psi - y - x*y*(3 + y)*psi**2 + x*(psi - g)")
        deadline(60)
        p1 = guess_algeq(specialize_y0(expand_series(eq, 48)), 16, 16)
        R = resultant(eq.Q, p1.P.rename_var("f", "g"), "g")
        real = mpoly_mod.gcd_mpoly

        def psi_free_only(A, B):
            # the content gcds are psi-free; no gcd in psi may start
            if A.degree("psi") > 0 or B.degree("psi") > 0:
                raise AssertionError("gcd_mpoly called on a polynomial in psi")
            return real(A, B)

        monkeypatch.setattr(mpoly_mod, "gcd_mpoly", psi_free_only)
        S = squarefree_primitive(R, "psi")
        assert S.degree("psi") == R.degree("psi") == 8
        assert R.try_divexact(S) is not None
