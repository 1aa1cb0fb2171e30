"""End-to-end pipeline runs, coefficient tables, and column extraction."""

from __future__ import annotations

import importlib
from fractions import Fraction as F

import pytest

from tuttesolve import (CoeffTable, PipelineConfig, certify, column_series,
                        parse_equation, run_pipeline, unroll)
from tuttesolve.errors import (AmbiguousBranch, InsufficientData,
                               InvalidBounds, PipelineError,
                               PoleAtYZero, ResourceCeiling)

from . import _frozen, _oracle

# the package binds these names to functions, not to the modules
certify_mod = importlib.import_module("tuttesolve.certify")
pipeline_mod = importlib.import_module("tuttesolve.pipeline")

DYCK = "y*psi - y - x*(y**2)*psi - x*psi + x*g"


def strip_timings(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("timings_ms", None)
    return doc


class TestGoldenRuns:
    def test_doubling_sequence(self):
        rep = run_pipeline(PipelineConfig("psi - 1 - 2*x*psi", guess_order=12,
                                          max_complexity=4, eval_at=10))
        assert rep.proven
        assert rep.value.value == F(1024)
        assert list(rep.series_prefix) == [F(2) ** n for n in range(13)]
        assert unroll(rep.recurrence, 20).value == F(2) ** 20

    def test_catalan_equation(self):
        # g never appears, so elimination degenerates to the equation itself
        rep = run_pipeline(PipelineConfig("psi - 1 - x*psi**2", guess_order=24,
                                          max_complexity=4, eval_at=60))
        assert rep.proven
        assert rep.value.value == F(_oracle.catalan(60))
        want = [F(_oracle.catalan(n)) for n in range(25)]
        assert list(rep.series_prefix) == want
        assert rep.minimized is not None
        assert rep.minimized.coeffs == ((-2, -4), (2, 1))

    def test_fractional_gamma(self):
        # 3c - 1 - gamma = 0 at y = 0 gives gamma = c0 = 1/2, so psi(x, 0)
        # = (1 - sqrt(1 - x))/x = C(x/4)/2 with C the Catalan series
        rep = run_pipeline(PipelineConfig("3*psi - 1 - g - x*psi**2",
                                          eval_at=40))
        want = [F(_oracle.catalan(n), 2 * 4**n) for n in range(41)]
        assert rep.proven
        assert list(rep.series_prefix) == want[:len(rep.series_prefix)]
        assert rep.value.value == want[40]

    def test_flagship_summary(self, tutte_report):
        rep = tutte_report
        assert rep.proven
        assert rep.certificate.bound == _frozen.TUTTE_D_SLACK
        assert rep.certificate.checked_order == _frozen.TUTTE_D_CHECKED_ORDER
        assert (rep.certificate.annihilator_support
                == _frozen.TUTTE_D_SUPPORT)
        assert rep.value.value == _oracle.counting_term(1000)
        assert rep.value.digits == 969

    @pytest.mark.parametrize("steps", [
        (-1, 2, 3), (-1, 1, 2, 3), (-1, 1, 3), (-1, 0, 3), (-1, 4),
        (-1, 0, 4), (-1, 1, 4), (-1, 2, 4), (-1, 3, 4), (-1, 5),
        (-1, 1, 5)], ids=str)
    def test_walk_beyond_the_corpus(self, steps):
        # p1 has degree 4 to 6; {-1, +4}'s guess at K = 24 fits the prefix
        # but does not divide D, and the one at K = 48 is proven; {-1, +5}
        # is proven at K = 192 and {-1, +1, +5} at K = 96
        rep = run_pipeline(PipelineConfig(_oracle.walk_equation(steps),
                                          eval_at=60))
        # a guess at K = 192 returns 193 prefix terms, each checked
        top = max(60, len(rep.series_prefix) - 1)
        want = [row[0] for row in _oracle.walk_counts(steps, top, 0)]
        assert rep.proven
        assert list(rep.series_prefix) == want[:len(rep.series_prefix)]
        assert rep.value.value == want[60]

    @pytest.mark.parametrize("equation, k, c", [
        ("psi - x", 1, 1), ("psi - 2*x", 1, 2), ("psi - x**2", 2, 1),
        ("psi - x**5", 5, 1), ("psi - x - x*y", 1, 1)], ids=str)
    def test_monomial_series(self, equation, k, c):
        # the recurrence (n - k)*a(n) = 0 is all common factor; divided out,
        # a(n) = 0 fails at n = k, a root of that factor
        rep = run_pipeline(PipelineConfig(equation, eval_at=50))
        want = [F(c if n == k else 0) for n in range(len(rep.series_prefix))]
        assert rep.proven
        assert list(rep.series_prefix) == want
        assert rep.recurrence.terms(len(want)) == want
        # minimizing keeps the order-0 recurrence (n - k)*a(n) = 0
        assert rep.minimized.coeffs == ((-k, 1),)
        assert rep.minimized.initials[k] == c
        assert unroll(rep.recurrence, k).value == c
        assert rep.value.value == 0

    def test_sparse_walk_is_not_proven_wrong(self):
        # steps {-1, +4}: the excursion series is sparse, and a degree-2 p1
        # fits its 25 guessed coefficients but not the 26th
        steps = (-1, 4)
        rep = run_pipeline(PipelineConfig(_oracle.walk_equation(steps),
                                          eval_at=30))
        want = _oracle.walk_counts(steps, 30, 0)[30][0]
        assert want == 23751
        assert not rep.proven or rep.value.value == want


class TestStageAttribution:
    def test_ambiguous_branch_stops_well_posedness(self):
        cfg = PipelineConfig("psi**2 - psi", guess_order=8, max_complexity=2,
                             eval_at=0)
        with pytest.raises(PipelineError) as e:
            run_pipeline(cfg)
        assert e.value.stage == "well-posedness"
        assert isinstance(e.value.cause, AmbiguousBranch)

    def test_pole_stops_expansion(self):
        cfg = PipelineConfig("y**2*psi + g + x*y", guess_order=8,
                             max_complexity=2, eval_at=0)
        with pytest.raises(PipelineError) as e:
            run_pipeline(cfg)
        assert e.value.stage in ("expansion", "specialize")
        assert isinstance(e.value.cause, PoleAtYZero)

    def test_failed_stage_keeps_its_time(self):
        cfg = PipelineConfig("y**2*psi + g + x*y", guess_order=8,
                             max_complexity=2, eval_at=0)
        with pytest.raises(PipelineError) as e:
            run_pipeline(cfg)
        assert set(e.value.timings_ms) == {
            "parse", "well-posedness", *{"expansion", e.value.stage}}

    def test_guess_ceiling_keeps_stage_timings(self):
        # Catalan's series is not rational, so degree 1 never fits
        cfg = PipelineConfig("psi - 1 - x*psi**2", guess_order=8,
                             max_complexity=2, eval_at=0, max_degree=1,
                             max_order=8)
        with pytest.raises(PipelineError) as e:
            run_pipeline(cfg)
        assert e.value.stage == "guess"
        assert isinstance(e.value.cause, ResourceCeiling)
        assert {"expansion", "guess"} <= set(e.value.timings_ms)

    @pytest.mark.parametrize("prove, stage", [(True, "certify"),
                                              (False, "eliminate")])
    def test_resultant_ceiling_names_its_stage(self, monkeypatch, prove,
                                               stage):
        # Dyck's Res_y(A, B) may reach degree 3 in x, and Res_g(Q, p1)
        # degree 4 in y
        monkeypatch.setattr(certify_mod, "MAX_RESULTANT_DEGREE", 2)
        with pytest.raises(PipelineError) as e:
            run_pipeline(PipelineConfig(DYCK, prove=prove, eval_at=0))
        assert e.value.stage == stage
        assert isinstance(e.value.cause, ResourceCeiling)
        assert "past the ceiling 2" in str(e.value.cause)

    def test_wrong_guess_is_refuted_before_elimination(self, monkeypatch):
        # walk {-1, +4}: the K = 24 guess is refuted by the division, and
        # only the K = 48 guess, which is proven, is eliminated
        calls = {"certify": 0, "eliminate_g": 0}
        for name in calls:
            real = getattr(pipeline_mod, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(pipeline_mod, name, spy)
        rep = run_pipeline(PipelineConfig(_oracle.walk_equation((-1, 4)),
                                          eval_at=0))
        assert rep.proven
        assert calls == {"certify": 2, "eliminate_g": 1}

    def test_witness_too_short_for_the_proof_doubles_the_order(
            self, monkeypatch):
        orders = []

        def short_first(eq, p1, witness):
            orders.append(witness.order)
            if len(orders) == 1:
                raise InsufficientData("too short")
            return certify(eq, p1, witness)

        monkeypatch.setattr(pipeline_mod, "certify", short_first)
        rep = run_pipeline(PipelineConfig(DYCK, eval_at=0))
        assert rep.proven and orders == [24, 48]

    def test_column_guess_timed_apart(self):
        rep = run_pipeline(PipelineConfig(DYCK, column=1, eval_at=10))
        assert {"column", "column-guess"} <= set(rep.timings_ms)


class TestConfig:
    def test_bounds_validated(self):
        with pytest.raises(InvalidBounds):
            PipelineConfig("psi - 1 - x*psi", guess_order=7)
        with pytest.raises(InvalidBounds):
            PipelineConfig("psi - 1 - x*psi", max_complexity=0)
        with pytest.raises(InvalidBounds):
            PipelineConfig("psi - 1 - x*psi", eval_at=-1)
        with pytest.raises(InvalidBounds):
            PipelineConfig("psi - 1 - x*psi", guess_order=64, max_order=32)

    def test_format_is_not_a_config_field(self):
        # the rendering format belongs to render_report, not to the solve
        with pytest.raises(TypeError):
            PipelineConfig("psi - 1 - x*psi", format="text")

    def test_deterministic_modulo_timings(self):
        cfg = PipelineConfig("psi - 1 - x*psi**2", guess_order=16,
                             max_complexity=4, eval_at=12)
        a, b = run_pipeline(cfg), run_pipeline(cfg)
        assert strip_timings(a.to_dict()) == strip_timings(b.to_dict())


class TestColumns:
    def test_flagship_bottom_row(self, tutte_eq):
        got = column_series(tutte_eq, 0, 4)
        assert list(got) == [F(1), F(1), F(3), F(13), F(68)]

    def test_flagship_first_column(self, tutte_eq):
        got = column_series(tutte_eq, 1, 4)
        assert list(got) == [F(0), F(1), F(6), F(36), F(228)]

    def test_y_free_equation_has_zero_columns(self):
        eq = parse_equation("psi - 1 - 2*x*psi")
        assert all(c == 0 for c in column_series(eq, 1, 6))
        assert all(c == 0 for c in column_series(eq, 3, 6))

    def test_table_matches_columns(self, tutte_eq):
        tab = CoeffTable.build(tutte_eq, 3, 3)
        assert tab.shape == (4, 4)
        assert tab.entries[0] == (F(1), F(0), F(0), F(0))
        assert tab.entries[1] == (F(1), F(1), F(1), F(1))
        for m in range(4):
            col = column_series(tutte_eq, m, 3)
            assert [tab.entry(n, m) for n in range(4)] == list(col)

    @pytest.mark.parametrize("name, steps, N", [
        ("dyck", (-1, 1), 128), ("motzkin", (-1, 0, 1), 96),
        ("luk3", (-1, 3), 96)])
    def test_walk_table_matches_counting(self, name, steps, N):
        eq = parse_equation(_oracle.walk_equation(steps))
        want = _oracle.walk_counts(steps, N, 6)
        assert CoeffTable.build(eq, N, 6).entries == tuple(
            tuple(F(c) for c in row) for row in want)

    def test_walk_column_matches_counting(self):
        steps = (-1, 1, 2)
        eq = parse_equation(_oracle.walk_equation(steps))
        want = [F(row[3]) for row in _oracle.walk_counts(steps, 64, 3)]
        assert list(column_series(eq, 3, 64)) == want

    def test_column_report_in_pipeline(self):
        rep = run_pipeline(PipelineConfig("psi - 1 - x*psi**2", guess_order=16,
                                          max_complexity=4, eval_at=6,
                                          column=0))
        # column 0 is only reported when explicitly requested with m > 0
        assert rep.column is None
