"""Report rendering and the structured round trip."""

from __future__ import annotations

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from tuttesolve import (ABSENT, CertificateSummary, ColumnReport, LinODE,
                        MPoly, PipelineConfig, PRec, QSeries, Report,
                        parse_report, render_report, run_pipeline)
from tuttesolve.evalrec import SequenceValue
from tuttesolve.report import (COLUMN_LABEL, _frac_parse, poly_from_doc,
                               poly_to_doc)

from . import _oracle

f, x, psi, y = (MPoly.var(v) for v in ("f", "x", "psi", "y"))


def synthetic_report(minimized=None, value=None, column=None, cert=None):
    """A small hand-built report around the doubling sequence 2^n."""
    p1 = ((MPoly.const(1) - MPoly.const(2) * x) * f - MPoly.const(1)).normalized()
    p2 = ((MPoly.const(1) - MPoly.const(2) * x) * psi - MPoly.const(1)).normalized()
    if cert is None:
        cert = CertificateSummary("proven", 0, 12, 1)
    prefix = tuple(F(2) ** n for n in range(13))
    ode = LinODE(((-2,), (1, -2)), (), QSeries(prefix))
    rec = PRec(((-2,), (1,)), (F(1),))
    if value is None:
        value = SequenceValue(10, F(1024))
    return Report("psi - 1 - 2*x*psi", p1, p2, cert, ode, rec,
                  minimized if minimized is not None else ABSENT,
                  value, prefix, column, 3, {"expansion": 1.0})


class TestPolyDocs:
    def test_round_trip(self):
        samples = [x, (x + y) ** 3, psi**2 - MPoly.const(4) * x * y,
                   MPoly.const(7), MPoly.zero()]
        for p in samples:
            assert poly_from_doc(poly_to_doc(p)) == p

    def test_doc_shape_is_nested_lists(self):
        doc = poly_to_doc((MPoly.const(1) - x) * f - MPoly.const(1))
        assert set(doc) == {"vars", "coeffs"}
        assert doc["vars"] == ["f", "x"]


class TestStructuredRoundTrip:
    def test_flagship(self, tutte_report):
        blob = render_report(tutte_report, "structured")
        assert parse_report(blob) == tutte_report

    def test_synthetic_with_absent_minimal_form(self):
        rep = synthetic_report()
        again = parse_report(render_report(rep, "structured"))
        assert again == rep and again.minimized is ABSENT

    def test_synthetic_with_column(self):
        col = ColumnReport(2, (F(0), F(0), F(1)), None)
        rep = synthetic_report(column=col)
        again = parse_report(render_report(rep, "structured"))
        assert again.column.index == 2 and again.column.equation is None

    def test_marker_and_version_enforced(self):
        rep = synthetic_report()
        doc = json.loads(render_report(rep, "structured"))
        assert doc["format"] == "tuttesolve-report" and doc["version"] == 1
        with pytest.raises(ValueError):
            parse_report(json.dumps({"format": "something-else", "version": 1}))
        bad = dict(doc, version=99)
        with pytest.raises(ValueError):
            parse_report(json.dumps(bad))

    @pytest.mark.parametrize("breaks", [
        lambda doc: doc.pop("series_prefix"),
        lambda doc: doc.update(p1=5),
        lambda doc: doc.update(p1={"vars": ["q"], "coeffs": [0, 1]}),
    ], ids=["missing-key", "number-for-polynomial", "unknown-variable"])
    def test_malformed_document_is_a_value_error(self, breaks):
        doc = json.loads(render_report(synthetic_report(), "structured"))
        breaks(doc)
        with pytest.raises(ValueError, match="malformed report document"):
            parse_report(json.dumps(doc))

    def test_array_document_is_a_value_error(self):
        doc = json.loads(render_report(synthetic_report(), "structured"))
        with pytest.raises(ValueError, match="not a tuttesolve report"):
            parse_report(json.dumps([doc]))

    def test_unknown_render_format(self):
        with pytest.raises(ValueError):
            render_report(synthetic_report(), "yaml")


def _shown_value(text: str) -> str:
    """a(10) as a text or markdown rendering shows it."""
    lines = text.splitlines()
    head = next((i for i, line in enumerate(lines)
                 if "Decimal digits of a(10)" in line), None)
    if head is None:
        return next(line for line in lines if "a(10) = " in line).split(
            "a(10) = ")[1]
    return "".join(line.strip() for line in lines[head + 1:]
                   if line.strip().isdigit())


class TestHugeValues:
    """Values past Python's 4300-digit int <-> str limit."""

    @pytest.mark.parametrize("value, digits", [
        (F(10**5000 + 7), 5001),
        (F(-(3**9500) + 1, 7**40), 4533),
    ])
    def test_round_trip_in_every_format(self, value, digits):
        rep = synthetic_report(value=SequenceValue(10, value))
        assert rep.value.digits == digits
        again = parse_report(render_report(rep, "structured"))
        assert again == rep and again.value.value == value
        assert again.value.digits == digits
        for fmt in ("text", "markdown"):
            assert _frac_parse(_shown_value(render_report(rep, fmt))) == value

    def test_huge_coefficients_in_p1_the_ode_and_the_recurrence(self):
        big = 10**5000 + 3
        digits = "1" + "0" * 4999 + "3"
        rep = synthetic_report()
        rep.p1 = MPoly.const(big) * x * f + f - MPoly.const(1)
        rep.ode = LinODE(((-big,), (1, -2)), (big,), rep.ode.branch)
        rep.recurrence = PRec(((-big,), (1,)), (F(1),))
        for fmt in ("text", "markdown"):
            text = render_report(rep, fmt)
            assert f"{digits}*f*x" in text
            assert f"(-{digits})*f + (-2*x + 1)*f' + ({digits}) = 0" in text
            assert f"(-{digits})*a(n)" in text
        blob = render_report(rep, "structured")
        doc = json.loads(blob)
        # only the integers past the limit are strings; the rest stay numbers
        assert doc["p1"]["coeffs"] == [[-1], [1, digits]]
        assert doc["ode"]["coeffs"] == [[f"-{digits}"], [1, -2]]
        assert doc["ode"]["inhom"] == [digits]
        again = parse_report(blob)
        assert again == rep
        assert (again.p1, again.ode.coeffs, again.ode.inhom,
                again.recurrence.coeffs) == (
            rep.p1, rep.ode.coeffs, rep.ode.inhom, rep.recurrence.coeffs)

    def test_malformed_rational_is_a_value_error(self):
        doc = json.loads(render_report(synthetic_report(), "structured"))
        doc["value"]["decimal_string"] = "1/2/3"
        with pytest.raises(ValueError):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["1.5", "1e3", " 7", "+7", "1_0",
                                     "1/ 2", "-/2"])
    def test_rational_in_any_other_form_is_a_value_error(self, bad):
        # num_str never writes these forms
        with pytest.raises(ValueError, match="invalid rational number"):
            _frac_parse(bad)

    @pytest.mark.parametrize("bad", ["1e3", "5.0", "4/2", "+7", " 7", "", "-"])
    def test_malformed_integer_is_a_value_error(self, bad):
        doc = json.loads(render_report(synthetic_report(), "structured"))
        doc["p1"]["coeffs"][0][0] = bad
        with pytest.raises(ValueError, match="invalid integer"):
            parse_report(json.dumps(doc))


class TestTextRendering:
    def test_required_sections(self, tutte_report):
        text = render_report(tutte_report, "text")
        assert tutte_report.equation in text
        assert "Status: proven" in text
        assert "1. Algebraic equation for g(x)" in text
        assert "2. Algebraic equation for the full series" in text
        assert "3. Recurrence for the coefficients" in text
        assert "4. Exact sequence value" in text
        assert "Appendix A. Certificate" in text
        assert "(conjectural)" not in text

    def test_big_integer_goes_to_appendix(self, tutte_report):
        text = render_report(tutte_report, "text")
        digits = str(_oracle.counting_term(1000).numerator)
        assert "969 digits" in text
        assert "Appendix B" in text
        assert digits[:70] in text and digits not in text  # wrapped at 70
        digit_lines = [ln.strip() for ln in text.split("Appendix B")[1].splitlines()
                       if ln.strip().isdigit()]
        assert digit_lines and all(len(ln) <= 70 for ln in digit_lines)
        assert "".join(digit_lines) == digits

    def test_small_values_stay_inline(self):
        text = render_report(synthetic_report(), "text")
        assert "a(10) = 1024" in text
        assert "Appendix B" not in text

    def test_absent_minimal_form_notes_cap(self):
        text = render_report(synthetic_report(), "text")
        assert "no recurrence with order+degree <= 3" in text

    def test_column_section(self):
        got = ColumnReport(1, (F(0), F(1)), (psi - x).normalized())
        none = ColumnReport(1, (F(0), F(1)), None)
        with_eq = render_report(synthetic_report(column=got), "text")
        without = render_report(synthetic_report(column=none), "text")
        assert COLUMN_LABEL in with_eq and "guessed equation:" in with_eq
        assert "no algebraic equation found within the bounds" in without

    def test_conjectural_tags_when_not_proving(self):
        rep = run_pipeline(PipelineConfig("psi - 1 - x*psi**2", guess_order=16,
                                          max_complexity=4, eval_at=8,
                                          prove=False))
        assert not rep.proven
        text = render_report(rep, "text")
        assert "Status: conjectural" in text
        assert text.count("(conjectural)") >= 4

    def test_markdown_variant(self, tutte_report):
        md = render_report(tutte_report, "markdown")
        assert md.startswith("# tuttesolve report")
        assert "## Appendix A. Certificate" in md
        assert "## Appendix B. Decimal digits of a(1000)" in md
        assert tutte_report.equation in md


GOLDEN = Path(__file__).parent / "golden"

# one report per layout decision of the text and markdown renderers
GOLDEN_REPORTS = {
    "proven": synthetic_report,
    "refuted": lambda: synthetic_report(
        cert=CertificateSummary("refuted", 2, 17, 9)),
    "skipped": lambda: synthetic_report(cert=CertificateSummary.skipped()),
    "minimal-differs": lambda: synthetic_report(
        minimized=PRec(((-4,), (0,), (1,)), (F(1), F(2)))),
    "appendix-b": lambda: synthetic_report(
        value=SequenceValue(10, F(10**5000 + 7))),
    "column-equation": lambda: synthetic_report(column=ColumnReport(
        2, (F(0), F(0), F(1), F(6)), (psi**2 - x * psi + x).normalized())),
    "column-no-equation": lambda: synthetic_report(
        column=ColumnReport(2, (F(0), F(0), F(1, 2)), None)),
    "all-optional-none": lambda: Report(
        "psi - 1 - 2*x*psi", None, None, CertificateSummary.skipped(), None,
        None, None, None, (), None, 3, {}),
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("markdown", "md")])
@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_golden_render(name, fmt, ext):
    want = (GOLDEN / f"{name}.{ext}").read_text(encoding="utf-8")
    assert render_report(GOLDEN_REPORTS[name](), fmt) == want
