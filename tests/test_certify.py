"""Elimination, the annihilator D(g, x), and the a-posteriori certificate."""

from __future__ import annotations

import importlib
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve import (AlgEq, MPoly, PipelineConfig, QSeries, SeriesX,
                        certify, eliminate_g, expand_series, guess_algeq,
                        parse_equation, run_pipeline, specialize_y0)
from tuttesolve.errors import (AmbiguousBranch, InsufficientData,
                               InvalidElimination, ResourceCeiling,
                               ResultantVanishes, SelfCheckFailed,
                               ZeroAnnihilator)
from tuttesolve.mpoly import resultant, squarefree_primitive
from tuttesolve.polyq import RatFunc
from tuttesolve.series import _subs, _vanishing_order

from . import _frozen, _oracle

# the package binds the name `certify` to the function, not the module
certify_mod = importlib.import_module("tuttesolve.certify")

psi, g, x, y = (MPoly.var(v) for v in ("psi", "g", "x", "y"))
f = MPoly.var("f")
one = MPoly.const(1)

CATALAN = "psi - 1 - x*psi**2"
MAPS = "y*psi - y - x*y*(1+y)**2*psi**2 - x*(1+y)*((1+y)*psi - g)"
CORPUS = {"catalan": CATALAN, "maps": MAPS,
          **{name: _oracle.walk_equation(steps) for name, steps in (
              ("dyck", (-1, 1)), ("motzkin", (-1, 0, 1)), ("luk2", (-1, 2)),
              ("luk3", (-1, 3)), ("walk112", (-1, 1, 2)),
              ("walk102", (-1, 0, 2)))}}


TOY_P1 = AlgEq((one - x) * f - one, QSeries([F(1)] * 13))


@lru_cache(maxsize=None)
def stages(equation, K=24, deg=3):
    """(eq, p1, witness) of an equation, as the pipeline builds them at
    series order K with guessed degrees up to deg."""
    eq = parse_equation(equation)
    sx = expand_series(eq, K)
    return eq, guess_algeq(specialize_y0(sx), deg, deg), sx


def walk_stages(ups, K=24, deg=3):
    """stages of the walk with steps -1 and ``ups``."""
    return stages(_oracle.walk_equation((-1, *sorted(ups))), K, deg)


class TestEliminateG:
    def test_linear_toy(self):
        eq = parse_equation("psi - g - x*y")
        want = ((one - x) * (psi - x * y) - one).normalized()
        assert eliminate_g(eq, TOY_P1) == want

    def test_keeps_only_vanishing_factor(self):
        # after eliminating g the polynomial splits as (psi - x)(psi + 1);
        # no factor is sought, and the whole squarefree product is kept
        eq = parse_equation("g + (psi - x)*(psi + 1)")
        p1 = AlgEq(f, QSeries([F(0)] * 8))
        assert eliminate_g(eq, p1) == ((psi - x) * (psi + one)).normalized()

    def test_shared_factor_collapses_resultant(self):
        eq = parse_equation("psi*g - psi*x")
        p1 = AlgEq(f - x, QSeries([F(0), F(1)]))
        with pytest.raises(ResultantVanishes):
            eliminate_g(eq, p1)

    def test_equation_must_involve_f(self):
        eq = parse_equation("psi - g - x*y")
        bad = AlgEq(x - one, QSeries([F(1)] * 4))
        with pytest.raises(InvalidElimination):
            eliminate_g(eq, bad)

    def test_flagship_shape(self, tutte_p2):
        for v, d in _frozen.TUTTE_P2_DEGREES.items():
            assert tutte_p2.degree(v) == d
        assert len(tutte_p2.terms) == _frozen.TUTTE_P2_SUPPORT

    @pytest.mark.parametrize("name", [*CORPUS, "flagship"])
    def test_p2_of_the_proven_p1_holds_by_construction(self, name, request):
        # nothing checks P2 on the witness of order K, so a fresh expansion
        # of order K + 16 is put into it, over the _Loc ring
        if name == "flagship":
            eq = request.getfixturevalue("tutte_eq")
            rep = request.getfixturevalue("tutte_report")
        else:
            eq = parse_equation(CORPUS[name])
            rep = run_pipeline(PipelineConfig(CORPUS[name], eval_at=0))
        assert rep.proven
        deep = expand_series(eq, len(rep.series_prefix) - 1 + 16)
        assert not any(_subs(rep.p2, {"psi": deep.locs}, len(deep.locs),
                             deep.ctx.from_ints))

    def test_resultant_past_the_ceiling_is_not_started(self):
        # Res_g(Q, g - x^N) has degree up to N + 1 in x on a walk
        eq, _, _ = walk_stages({1})
        N = certify_mod.MAX_RESULTANT_DEGREE
        p1 = AlgEq(f - x**N, QSeries([F(1)]))
        with pytest.raises(ResourceCeiling, match=f"degree {N + 1} in x"):
            eliminate_g(eq, p1)


class TestAnnihilator:
    @pytest.mark.parametrize("equation", [CATALAN, "(1 - y)*psi - 1 - x*psi**2"])
    def test_direct_mode_puts_psi_to_g_and_y_to_zero(self, equation):
        eq, p1, sx = stages(equation)
        cert = certify(eq, p1, sx)
        assert cert.kernel.mode == "direct" and cert.is_proven
        assert cert.annihilator == g - 1 - x * g**2

    @given(st.sets(st.integers(0, 3), min_size=1, max_size=2))
    @settings(max_examples=10, deadline=None)
    def test_walk_annihilator_vanishes_on_a_longer_series(self, ups):
        eq, p1, sx = walk_stages(ups, K=32, deg=4)
        D = certify(eq, p1, sx).annihilator
        deep = specialize_y0(expand_series(eq, 60)).coeffs
        assert _vanishing_order(D, sx, deep, 61) is None
        assert D.try_divexact(p1.P.rename_var("f", "g")) is not None

    def test_flagship_shape_via_certificate(self, tutte_cert, tutte_p1):
        D = tutte_cert.annihilator
        assert {v: D.degree(v) for v in D.variables()} == _frozen.TUTTE_D_DEGREES
        assert len(D.terms) == _frozen.TUTTE_D_SUPPORT
        assert D.try_divexact(tutte_p1.P.rename_var("f", "g")) is not None

    def test_maps_needs_the_squarefree_step(self):
        # gcd(R1, dR1/dy) = x*(1 + y), so Res_y(R1, dR1/dy) is zero
        eq, p1, sx = stages(MAPS)
        Q = eq.Q
        R1 = resultant(Q, Q.derivative("psi"), "psi")
        R1 = R1.divexact(y ** R1.valuation("y"))
        assert resultant(R1, R1.derivative("y"), "y").is_zero
        assert R1.divexact(squarefree_primitive(R1, "y")) == x * (1 + y)
        assert certify(eq, p1, sx).is_proven

    def test_zero_kernel_root_claims_nothing(self):
        # Q_psi = y*(1 - 2*x*psi) vanishes on y = 0, so Y may be zero, and
        # y^v cannot be divided out of the discriminant
        eq, p1, sx = stages("y*(psi - 1 - x*psi**2)")
        with pytest.raises(ZeroAnnihilator, match="kernel root"):
            certify(eq, p1, sx)

    def test_divided_out_factor_that_may_vanish_claims_nothing(
            self, monkeypatch, tutte_eq, tutte_p1, tutte_sx):
        # with nothing kept of the discriminant, what is divided out is all
        # of it, and its x^0 coefficient is zero at (g0, 0, 0)
        real = certify_mod.squarefree_primitive
        monkeypatch.setattr(certify_mod, "squarefree_primitive",
                            lambda A, v: one if v == "y" else real(A, v))
        with pytest.raises(ZeroAnnihilator, match="divided out"):
            certify(tutte_eq, tutte_p1, tutte_sx)

    def test_collapse_raises_zero_annihilator(self, monkeypatch):
        eq, p1, sx = walk_stages({0, 1})
        monkeypatch.setattr(certify_mod, "resultant",
                            lambda A, B, v: MPoly.zero())
        with pytest.raises(ZeroAnnihilator):
            certify(eq, p1, sx)

    def test_resultant_past_the_ceiling_is_not_started(self, monkeypatch):
        # Res_y(A, B) of walk {-1, 1, 2} may reach degree 4 in x
        eq, p1, sx = walk_stages({1, 2})
        monkeypatch.setattr(certify_mod, "MAX_RESULTANT_DEGREE", 3)
        monkeypatch.setattr(certify_mod, "resultant", None)
        with pytest.raises(ResourceCeiling, match="degree 4 in x"):
            certify(eq, p1, sx)


PERTURBED = {name: CORPUS[name] for name in
             ("catalan", "dyck", "motzkin", "luk2", "maps", "walk112")}


class TestCertify:
    @pytest.mark.parametrize("c, i", [(1, 1), (-3, 2), (1, 0)])
    @pytest.mark.parametrize("name", list(PERTURBED))
    def test_p1_wrong_past_the_witness_is_not_proven(self, name, c, i):
        # p1 + c*x^25*f^i fits all 25 coefficients the guess saw
        eq, p1, sx = stages(PERTURBED[name])
        bad = AlgEq(p1.P + c * x**25 * f**i, p1.branch)
        assert not certify(eq, bad, sx).is_proven

    @given(st.sampled_from(["catalan", "dyck", "motzkin", "luk2", "maps"]),
           st.integers(-9, 9).filter(bool), st.integers(0, 8),
           st.integers(25, 60))
    @settings(max_examples=40, deadline=None)
    def test_perturbation_past_the_witness_is_never_proven(self, name, c, i, k):
        eq, p1, sx = stages(PERTURBED[name])
        bad = AlgEq(p1.P + c * x**k * f**min(i, p1.degF), p1.branch)
        cert = certify(eq, bad, sx)
        assert cert.status == "refuted"
        # it fits the whole witness, so the division refutes it
        assert cert.checkedOrder == 25 and cert.annihilator is not None

    def test_division_refutes_the_sparse_walk_guess(self):
        # steps {-1, +4}: a degree-2 p1 fits the 25 guessed coefficients
        eq, p1, sx = stages(_oracle.walk_equation((-1, 4)), deg=16)
        cert = certify(eq, p1, sx)
        assert cert.status == "refuted" and cert.checkedOrder == 25
        assert cert.annihilator == -g**5 * x**6 + g * x - x

    def test_flagship_is_proven(self, tutte_cert):
        assert tutte_cert.status == "proven" and tutte_cert.is_proven
        assert tutte_cert.bound == _frozen.TUTTE_D_SLACK
        assert tutte_cert.checkedOrder == _frozen.TUTTE_D_CHECKED_ORDER
        assert tutte_cert.kernel.mode == _frozen.TUTTE_KERNEL_MODE
        assert tutte_cert.kernel.kernelValuation == _frozen.TUTTE_KERNEL_VALUATION
        assert tutte_cert.annihilator_support == _frozen.TUTTE_D_SUPPORT

    def test_perturbed_specialization_is_refuted(self, tutte_eq, tutte_p1,
                                                 tutte_sx):
        bad = AlgEq(tutte_p1.P + x, tutte_p1.branch)
        cert = certify(tutte_eq, bad, tutte_sx)
        assert cert.status == "refuted" and not cert.is_proven
        assert cert.annihilator is None
        assert cert.checkedOrder >= 0

    def test_bivariate_holds_past_checked_order(self, tutte_eq, tutte_p2):
        # independent spot check well beyond the certified order
        deep = expand_series(tutte_eq, _frozen.TUTTE_D_CHECKED_ORDER + 8)
        # over the _Loc ring, apart from the certifier's integer zero test
        assert not any(_subs(tutte_p2, {"psi": deep.locs}, len(deep.locs),
                             deep.ctx.from_ints))

    @pytest.mark.parametrize("c", [0, 1])
    def test_equation_that_is_not_well_posed_is_not_proven(self, c):
        # psi**2 - psi has the two series solutions 0 and 1; each satisfies
        # the guessed equation, but no uniqueness step can pick one of them
        eq = parse_equation("psi**2 - psi")
        p1 = AlgEq(f - c, QSeries([F(c)] + [F(0)] * 7))
        witness = SeriesX([RatFunc.const(c)] + [RatFunc.const(0)] * 7)
        with pytest.raises(AmbiguousBranch):
            certify(eq, p1, witness)

    def test_witness_of_another_equation_is_not_taken(self):
        # (1 - y)*psi - 1 - x*psi**2 has the same g as Catalan, but its psi
        # does not solve Catalan's equation
        eq, p1, _ = stages(CATALAN)
        _, _, other = stages("(1 - y)*psi - 1 - x*psi**2")
        with pytest.raises(SelfCheckFailed):
            certify(eq, p1, other)

    def test_witness_too_short_for_hensel(self):
        # K >= 2e + 1 with e = 0 needs K >= 1
        eq, p1, _ = stages(CATALAN)
        with pytest.raises(InsufficientData):
            certify(eq, p1, expand_series(eq, 0))
        assert certify(eq, p1, expand_series(eq, 1)).is_proven
