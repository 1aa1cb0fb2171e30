"""Elimination, defect annihilators, and the a-posteriori certificate."""

from __future__ import annotations

import copy
import importlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve import (AlgEq, MPoly, QSeries, SeriesX, certify,
                        defect_annihilator, eliminate_g, expand_series,
                        guess_algeq, parse_equation,
                        specialize_y0, vanishing_bound)
from tuttesolve.certify import BivarAlgEq
from tuttesolve.errors import (AmbiguousBranch, InvalidElimination,
                               NoVanishingFactor, ResultantVanishes,
                               ZeroAnnihilator)
from tuttesolve.mpoly import _coeff_gcd, resultant, squarefree_primitive
from tuttesolve.polyq import RatFunc
from tuttesolve.series import _subs

from . import _frozen, _oracle

# the package binds the name `certify` to the function, not the module
certify_mod = importlib.import_module("tuttesolve.certify")

psi, g, x, y, z = (MPoly.var(v) for v in ("psi", "g", "x", "y", "z"))
one = MPoly.const(1)


def rf(*cs):
    return RatFunc([F(c) for c in cs])


def toy_witness(order: int) -> SeriesX:
    # psi = 1/(1-x) + x*y, written out coefficient by coefficient
    cs = [rf(1), RatFunc([F(1), F(1)])] + [rf(1)] * (order - 1)
    return SeriesX(cs[: order + 1])


TOY_P1 = AlgEq((one - x) * MPoly.var("f") - one, QSeries([F(1)] * 13))


def stages(equation, K=24, deg=3):
    """(eq, p1, p2) of an equation, as the pipeline builds them at series
    order K with guessed degrees up to deg."""
    eq = parse_equation(equation)
    sx = expand_series(eq, K)
    p1 = guess_algeq(specialize_y0(sx), deg, deg)
    return eq, p1, eliminate_g(eq, p1, sx)


def walk_stages(ups, K=24, deg=3):
    """stages of the walk with steps -1 and ``ups``."""
    return stages(_oracle.walk_equation((-1, *sorted(ups))), K, deg)


def g_first_annihilator(eq, p1, p2):
    """M by the other elimination order: g first, then psi."""
    zq = z - eq.Q
    if zq.degree("g") > 0:
        zq = resultant(zq, p1.P.rename_var("f", "g"), "g")
    g_first = resultant(p2.P, zq, "psi")
    assert not g_first.is_zero
    return squarefree_primitive(g_first, "z")


@pytest.fixture
def count_checks(monkeypatch):
    """Counts the checks certify makes on the series witness."""
    calls = []
    real = certify_mod._vanishing_order

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(certify_mod, "_vanishing_order", spy)
    return calls


@pytest.fixture
def squarefree_args(monkeypatch):
    """The polynomials certify hands to squarefree_primitive."""
    calls = []
    real = certify_mod.squarefree_primitive

    def spy(A, v):
        calls.append(A)
        return real(A, v)

    monkeypatch.setattr(certify_mod, "squarefree_primitive", spy)
    return calls


class TestEliminateG:
    def test_linear_toy(self):
        eq = parse_equation("psi - g - x*y")
        p2 = eliminate_g(eq, TOY_P1, toy_witness(12))
        want = ((one - x) * (psi - x * y) - one).normalized()
        assert p2.P == want
        assert p2.branch == toy_witness(12)

    def test_keeps_only_vanishing_factor(self):
        # after eliminating g the polynomial splits as (psi - x)(psi + 1);
        # no factor is sought, and the whole product vanishes on the
        # witness psi = x
        eq = parse_equation("g + (psi - x)*(psi + 1)")
        p1 = AlgEq(MPoly.var("f"), QSeries([F(0)] * 8))
        witness = SeriesX([RatFunc.const(0), rf(1)] + [RatFunc.const(0)] * 6)
        p2 = eliminate_g(eq, p1, witness)
        assert p2.P == ((psi - x) * (psi + one)).normalized()

    def test_no_factor_vanishes(self):
        eq = parse_equation("g + (psi - x)*(psi + 1)")
        p1 = AlgEq(MPoly.var("f"), QSeries([F(0)] * 8))
        witness = SeriesX([rf(1)] + [RatFunc.const(0)] * 7)
        with pytest.raises(NoVanishingFactor):
            eliminate_g(eq, p1, witness)

    def test_shared_factor_collapses_resultant(self):
        eq = parse_equation("psi*g - psi*x")
        p1 = AlgEq(MPoly.var("f") - x, QSeries([F(0), F(1)]))
        with pytest.raises(ResultantVanishes):
            eliminate_g(eq, p1, SeriesX([rf(1)] * 2))

    def test_equation_must_involve_f(self):
        eq = parse_equation("psi - g - x*y")
        bad = AlgEq(x - one, QSeries([F(1)] * 4))
        with pytest.raises(InvalidElimination):
            eliminate_g(eq, bad, toy_witness(3))

    def test_flagship_shape(self, tutte_p2, tutte_sx):
        for v, d in _frozen.TUTTE_P2_DEGREES.items():
            assert tutte_p2.P.degree(v) == d
        assert len(tutte_p2.P.terms) == _frozen.TUTTE_P2_SUPPORT
        assert tutte_p2.branch == tutte_sx


class TestDefectAnnihilator:
    def test_linear_toy_gives_bare_z(self):
        eq = parse_equation("psi - g - x*y")
        p2 = eliminate_g(eq, TOY_P1, toy_witness(12))
        M = defect_annihilator(eq, TOY_P1, p2)
        assert M == z
        assert vanishing_bound(M, "z") == 0

    @given(st.sets(st.integers(0, 2), min_size=1))
    @settings(max_examples=10, deadline=None)
    def test_both_elimination_orders_agree(self, ups):
        # defect_annihilator eliminates psi first; g first must give the same M
        eq, p1, p2 = walk_stages(ups)
        assert defect_annihilator(eq, p1, p2) == g_first_annihilator(eq, p1, p2)

    @pytest.mark.parametrize("equation, divided", [
        # Tutte's maps: deg_psi(Q) = 2 and deg(p1) = 2, so lc_psi(p2)**4
        ("y*psi - y - x*y*(1+y)**2*psi**2 - x*(1+y)*((1+y)*psi - g)", 4),
        # Catalan: lc_psi(p2) is the single term x, so nothing is divided
        ("psi - 1 - x*psi**2", 0),
    ], ids=["maps", "catalan"])
    def test_orders_agree_with_the_known_content_divided_out(
            self, equation, divided, squarefree_args):
        eq, p1, p2 = stages(equation)
        squarefree_args.clear()
        assert defect_annihilator(eq, p1, p2) == g_first_annihilator(eq, p1, p2)
        M0 = resultant(p2.P, z - eq.Q, "psi")
        if M0.degree("g") > 0:
            M0 = resultant(M0, p1.P.rename_var("f", "g"), "g")
        lc = p2.P.coeff_of("psi", p2.P.degree("psi"))
        assert squarefree_args == [M0.divexact(lc ** divided)]

    def test_squarefree_gets_no_content_but_a_monomial(self, squarefree_args):
        # up step 3: lc_psi(p2) has ten terms, and M0 holds its fourth power
        eq, p1, p2 = walk_stages({3}, K=32, deg=4)
        squarefree_args.clear()
        defect_annihilator(eq, p1, p2)
        A, = squarefree_args
        assert len(_coeff_gcd(A.as_univariate("z")).terms) == 1

    def test_collapse_raises_zero_annihilator(self, monkeypatch):
        eq, p1, p2 = walk_stages({0, 1})
        calls = []

        def collapse(A, B, v):
            calls.append(v)
            return MPoly.zero()

        monkeypatch.setattr(certify_mod, "resultant", collapse)
        with pytest.raises(ZeroAnnihilator):
            defect_annihilator(eq, p1, p2)
        # a zero psi-resultant has no g left to eliminate
        assert calls == ["psi"]

    def test_flagship_shape_via_certificate(self, tutte_cert):
        M = tutte_cert.annihilator
        for v, d in _frozen.TUTTE_M_DEGREES.items():
            assert M.degree(v) == d
        assert len(M.terms) == _frozen.TUTTE_M_SUPPORT
        assert vanishing_bound(M, "z") == _frozen.TUTTE_BOUND


PERTURBED = {"catalan": "psi - 1 - x*psi**2",
             "dyck": _oracle.walk_equation((-1, 1)),
             "motzkin": _oracle.walk_equation((-1, 0, 1)),
             "luk2": _oracle.walk_equation((-1, 2)),
             "maps": "y*psi - y - x*y*(1+y)**2*psi**2 - x*(1+y)*((1+y)*psi - g)",
             "walk112": _oracle.walk_equation((-1, 1, 2))}


class TestCertify:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: when Q is linear in g or free of it, the defect "
        "step holds for any p1, so a p1 wrong only past the witness order "
        "is proven"))
    @pytest.mark.parametrize("c, i", [(1, 1), (-3, 2), (1, 0)])
    @pytest.mark.parametrize("name", list(PERTURBED))
    def test_p1_wrong_past_the_witness_is_not_proven(self, name, c, i):
        # p1 + c*x^25*f^i fits all 25 coefficients the guess saw
        eq = parse_equation(PERTURBED[name])
        sx = expand_series(eq, 24)
        p1 = guess_algeq(specialize_y0(sx), 3, 3)
        bad = AlgEq(p1.P + c * x**25 * MPoly.var("f") ** i, p1.branch)
        assert not certify(eq, bad, eliminate_g(eq, bad, sx)).is_proven

    def test_flagship_is_proven(self, tutte_cert):
        assert tutte_cert.status == "proven" and tutte_cert.is_proven
        assert tutte_cert.bound == _frozen.TUTTE_BOUND
        assert tutte_cert.checkedOrder == _frozen.TUTTE_CHECKED_ORDER
        assert tutte_cert.kernel.mode == _frozen.TUTTE_KERNEL_MODE
        assert tutte_cert.kernel.kernelValuation == _frozen.TUTTE_KERNEL_VALUATION
        assert tutte_cert.annihilator_support == _frozen.TUTTE_M_SUPPORT

    def test_perturbed_specialization_is_refuted(self, tutte_eq, tutte_p1,
                                                 tutte_p2):
        bad = AlgEq(tutte_p1.P + x, tutte_p1.branch)
        cert = certify(tutte_eq, bad, tutte_p2)
        assert cert.status == "refuted" and not cert.is_proven
        assert cert.annihilator is None
        assert cert.checkedOrder >= 0

    def test_perturbed_bivariate_is_refuted(self, tutte_eq, tutte_p1,
                                            tutte_p2):
        bad = BivarAlgEq(tutte_p2.P + x, tutte_p2.branch)
        cert = certify(tutte_eq, tutte_p1, bad)
        assert cert.status == "refuted"
        assert cert.annihilator is None

    def test_bivariate_holds_past_checked_order(self, tutte_eq, tutte_p2):
        # independent spot check well beyond the certified order
        deep = expand_series(tutte_eq, _frozen.TUTTE_CHECKED_ORDER + 8)
        # over the _Loc ring, apart from the certifier's integer zero test
        assert not any(_subs(tutte_p2.P, {"psi": deep.locs}, len(deep.locs),
                             deep.ctx.from_ints))

    @pytest.mark.parametrize("c", [0, 1])
    def test_equation_that_is_not_well_posed_is_not_proven(self, c):
        # psi**2 - psi has the two series solutions 0 and 1; each satisfies
        # the guessed pair, but no uniqueness step can pick one of them
        eq = parse_equation("psi**2 - psi")
        p1 = AlgEq(MPoly.var("f") - c, QSeries([F(c)] + [F(0)] * 7))
        p2 = BivarAlgEq(psi - c, SeriesX([RatFunc.const(c)]
                                         + [RatFunc.const(0)] * 7))
        with pytest.raises(AmbiguousBranch):
            certify(eq, p1, p2)


class TestWitnessCheck:
    """certify skips its first p2 check only for eliminate_g's own output."""

    def test_own_output_is_checked_once(self, count_checks):
        eq, p1, p2 = walk_stages({1})
        count_checks.clear()
        own = certify(eq, p1, p2)
        own_checks = list(count_checks)
        count_checks.clear()
        rebuilt = certify(eq, p1, BivarAlgEq(p2.P, p2.branch))
        assert own.is_proven
        assert rebuilt == own
        assert len(count_checks) == len(own_checks) + 1
        assert count_checks.count(p2.P) == own_checks.count(p2.P) + 1

    def test_foreign_nonvanishing_p2_is_refuted_at_its_order(self):
        eq, p1, p2 = walk_stages({1})
        cert = certify(eq, p1, BivarAlgEq(p2.P + x**3, p2.branch))
        # the defect at the witness is x**3 itself
        assert cert.status == "refuted" and cert.annihilator is None
        assert cert.checkedOrder == 3

    def test_reassigned_P_is_checked_again(self, count_checks):
        eq, p1, p2 = walk_stages({1})
        count_checks.clear()
        certify(eq, p1, p2)
        n_own = len(count_checks)
        p2.P = copy.copy(p2.P)
        count_checks.clear()
        assert certify(eq, p1, p2).is_proven
        assert len(count_checks) == n_own + 1
        p2.P = p2.P + x**3
        cert = certify(eq, p1, p2)
        assert cert.status == "refuted" and cert.checkedOrder == 3
