"""Report assembly and rendering.

A :class:`Report` is the end product of a pipeline run: the canonical
equation echo, the two algebraic equations, a certificate summary, the
differential equation, the recurrences, the requested sequence value, a
series prefix for cross-checking, and per-stage timings.  Three renderings
are provided: plain text, markdown, and a structured JSON document that
round-trips through :func:`parse_report`.  Text and markdown come from one
renderer, :func:`_render`; each format's wording is one template table.

Polynomials serialize as nested coefficient arrays under an explicit
variable-order header, outermost variable first, so the document is
self-describing without this package's term encoding.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from .certify import Certificate
from .holonomic import ABSENT, LinODE, PRec
from .evalrec import SequenceValue
from .mpoly import MPoly
from .polyq import int_parse, num_str
from .series import QSeries

FORMAT_MARKER = "tuttesolve-report"
FORMAT_VERSION = 1

# integers longer than this render as a digit count plus an appendix
INLINE_DIGIT_LIMIT = 40

COLUMN_LABEL = "guessed, not certified"


# ---------------------------------------------------------------------------
# polynomial <-> nested coefficient arrays

def _nested(p: MPoly, pvars: Sequence[str]):
    if not pvars:
        return _int_doc(p.constant_value())
    rows = p.as_univariate(pvars[0])
    return [_nested(r, pvars[1:]) for r in rows]


def poly_to_doc(p: MPoly) -> dict:
    pvars = list(p.variables())
    return {"vars": pvars, "coeffs": _nested(p, pvars)}


def _unnest(node, pvars: Sequence[str]) -> MPoly:
    if not pvars:
        return MPoly.const(_int_parse(node))
    rows = [_unnest(c, pvars[1:]) for c in node]
    return MPoly.from_univariate(rows, pvars[0])


def poly_from_doc(d: dict) -> MPoly:
    return _unnest(d["coeffs"], list(d["vars"]))


def _frac_parse(s: str) -> Fraction:
    """Inverse of ``num_str``: ``Fraction(s)`` for a rational of any size."""
    num, slash, den = s.partition("/")
    try:
        return Fraction(int_parse(num), int_parse(den) if slash else 1)
    except ValueError:
        raise ValueError(f"invalid rational number {s!r}") from None


# Python 3.11+ neither writes nor reads a JSON integer of more than 4,300
# digits, so a document carries such an integer as a string of its digits.
# The bound is fixed, so a document reads the same on every version.
_JSON_INT_BOUND = 10**4300


def _int_doc(c: int) -> int | str:
    return c if -_JSON_INT_BOUND < c < _JSON_INT_BOUND else num_str(c)


def _int_parse(v: int | str) -> int:
    """Inverse of ``_int_doc``."""
    return int_parse(v) if isinstance(v, str) else int(v)


def _int_rows(rows, conv) -> list[list]:
    return [list(map(conv, r)) for r in rows]


# ---------------------------------------------------------------------------
# report pieces

@dataclass(frozen=True)
class CertificateSummary:
    """What the report keeps of a Certificate: status and the key numbers."""

    status: str                     # "proven" | "refuted" | "skipped"
    bound: int | None
    checked_order: int | None
    annihilator_support: int | None

    @classmethod
    def from_certificate(cls, c: Certificate) -> "CertificateSummary":
        return cls(c.status, c.bound, c.checkedOrder, c.annihilator_support)

    @classmethod
    def skipped(cls) -> "CertificateSummary":
        return cls("skipped", None, None, None)


@dataclass(frozen=True)
class ColumnReport:
    """Coefficient extraction at a fixed power of y, plus an uncertified guess."""

    index: int
    series: tuple[Fraction, ...]
    equation: MPoly | None          # None when the guesser returned FAIL


@dataclass(eq=False, repr=False, slots=True)
class Report:
    """Everything a pipeline run produced, ready for rendering."""

    equation: str
    p1: MPoly | None
    p2: MPoly | None
    certificate: CertificateSummary
    ode: LinODE | None
    recurrence: PRec | None
    minimized: object                   # PRec, ABSENT or None
    value: SequenceValue | None
    series_prefix: Sequence[Fraction]
    column: ColumnReport | None
    max_complexity: int
    timings_ms: dict[str, int]

    def __post_init__(self):
        self.series_prefix = tuple(Fraction(v) for v in self.series_prefix)
        self.timings_ms = dict(self.timings_ms)

    @property
    def proven(self) -> bool:
        return self.certificate.status == "proven"

    # -- structured form --------------------------------------------------

    def to_dict(self) -> dict:
        ode = None if self.ode is None else {
            "vars": ["x"],
            "coeffs": _int_rows(self.ode.coeffs, _int_doc),
            "inhom": ([_int_doc(c) for c in self.ode.inhom]
                      if self.ode.inhom else None),
        }
        column = None if self.column is None else {
            "index": self.column.index,
            "series": [num_str(v) for v in self.column.series],
            "equation": (poly_to_doc(self.column.equation)
                         if self.column.equation is not None else None),
            "label": COLUMN_LABEL,
        }
        value = None if self.value is None else {
            "index": self.value.index,
            "integer_digits": (self.value.digits
                               if self.value.is_integer else None),
            "decimal_string": self.value.decimal,
        }
        return {
            "format": FORMAT_MARKER,
            "version": FORMAT_VERSION,
            "equation": self.equation,
            "max_complexity": self.max_complexity,
            "p1": poly_to_doc(self.p1) if self.p1 is not None else None,
            "p2": poly_to_doc(self.p2) if self.p2 is not None else None,
            "certificate": asdict(self.certificate),
            "ode": ode,
            "recurrence": _rec_to_doc(self.recurrence),
            "minimized_recurrence": _rec_to_doc(
                self.minimized if self.minimized is not ABSENT else None),
            "value": value,
            "series_prefix": [num_str(v) for v in self.series_prefix],
            "column": column,
            "timings_ms": dict(self.timings_ms),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        if d.get("format") != FORMAT_MARKER:
            raise ValueError("not a tuttesolve report document")
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported report version {d.get('version')!r}")
        prefix = [_frac_parse(v) for v in d["series_prefix"]]
        branch = QSeries(prefix if prefix else [Fraction(0)])
        ode = None
        if d["ode"] is not None:
            ode = LinODE(_int_rows(d["ode"]["coeffs"], _int_parse),
                         [_int_parse(c) for c in d["ode"]["inhom"] or ()],
                         branch)
        cert = CertificateSummary(
            d["certificate"]["status"], d["certificate"]["bound"],
            d["certificate"]["checked_order"],
            d["certificate"]["annihilator_support"])
        rec = _rec_from_doc(d["recurrence"])
        mini = _rec_from_doc(d["minimized_recurrence"])
        value = None
        if d["value"] is not None:
            value = SequenceValue(d["value"]["index"],
                                  _frac_parse(d["value"]["decimal_string"]))
        column = None
        if d["column"] is not None:
            column = ColumnReport(
                d["column"]["index"],
                tuple(_frac_parse(v) for v in d["column"]["series"]),
                (poly_from_doc(d["column"]["equation"])
                 if d["column"]["equation"] is not None else None))
        return cls(
            d["equation"],
            poly_from_doc(d["p1"]) if d["p1"] is not None else None,
            poly_from_doc(d["p2"]) if d["p2"] is not None else None,
            cert, ode, rec, mini if mini is not None else ABSENT, value,
            prefix, column, d["max_complexity"], d["timings_ms"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"Report(equation={self.equation!r}, "
                f"status={self.certificate.status!r})")


def _rec_to_doc(r) -> dict | None:
    if r is None or r is ABSENT:
        return None
    return {"coeffs": _int_rows(r.coeffs, _int_doc),
            "initials": [num_str(v) for v in r.initials]}


def _rec_from_doc(d: dict | None) -> PRec | None:
    if d is None:
        return None
    return PRec(_int_rows(d["coeffs"], _int_parse),
                [_frac_parse(v) for v in d["initials"]])


# ---------------------------------------------------------------------------
# rendering

def _value_lines(r: Report) -> tuple[str, list[str]]:
    """Main bullet line for the value plus appendix digit lines (maybe empty)."""
    v = r.value
    if v is None:
        return "not available", []
    name = f"a({v.index})"
    if not v.is_integer or v.digits <= INLINE_DIGIT_LIMIT:
        return f"{name} = {v.decimal}", []
    lines = textwrap.wrap(v.decimal, width=70)
    return (f"{name} is an integer with {v.digits} digits "
            f"(full decimal expansion in the appendix)", lines)


def _cert_argument(r: Report) -> list[str]:
    c = r.certificate
    if c.status == "skipped":
        return ["Certification was skipped on request; every displayed object",
                "is a guess fitted to the computed series prefix."]
    if c.status == "refuted":
        text = (f"Certification FAILED at order {c.checked_order}: the "
                "guessed equation for g fails on the series there, or it "
                "holds on the whole checked prefix but does not divide the "
                "annihilator D, and then fails at this order or later.  All "
                "displayed objects are conjectural.")
    else:
        text = (
            "The functional equation alone gives D(g, x) != 0 of monomial "
            f"support {c.annihilator_support} with D(g(x), x) = 0.  With "
            "its power of x divided out, D0 = p1^k * C, where p1 is the "
            "guessed equation for g and k >= 1.  p1 holds on the series "
            f"through order N = {c.checked_order}, and C(g) is nonzero at "
            f"order m = {c.bound}, which that prefix shows.  So p1(g)^k * "
            "C(g) = D0(g) = 0 in the integral domain Q[[x]] gives "
            "p1(g) = 0.  The equation for the full series follows from "
            "the proven one by a resultant.")
    return textwrap.wrap(text, 66)


# Each format's wording: str.format templates, one per report part.  A
# template's own newlines place the blank lines between parts.
_TEXT = {
    "head": "tuttesolve report\n=================\n\n"
            "Functional equation (Q = 0 with psi = psi(x, y), g = psi(x, 0)):\n"
            "    {equation}\n",
    "proven": "Status: proven (checked order {c.checked_order}, "
              "cofactor order {c.bound})\n",
    "conjectural": "Status: conjectural (certification {c.status})\n",
    "p1": "1. {tag}Algebraic equation for g(x) = psi(x, 0), written in "
          "f = g(x):\n       {eq}\n",
    "p2": "2. {tag}Algebraic equation for the full series psi = psi(x, y):\n"
          "       {eq}\n",
    "rec": "3. {tag}Recurrence for the coefficients a(n) = [x^n] g(x):",
    "recurrence": "       {rec}\n       with {initials}",
    "missing": "       not available",
    "ode": "   Derived from the differential equation:\n       {ode}",
    "absent": "   Minimal form: no recurrence with order+degree <= {cap}",
    "minimal": "   Minimal form (order+degree <= {cap}):\n"
               "       {rec}\n       with {initials}",
    "value": "\n4. {tag}Exact sequence value:\n       {value}\n",
    "series": "Series prefix a(0), a(1), ...:\n    {series}",
    "column": "\nColumn m = {i} of psi (coefficients of y^{i}), {label}:\n"
              "    {series}",
    "column_eq": "    guessed equation: {eq}",
    "column_none": "    no algebraic equation found within the bounds",
    "appendix_a": "\nAppendix A. Certificate\n    status: {c.status}",
    "numbers": "    cofactor order m: {c.bound}\n"
               "    checked order N: {c.checked_order}\n"
               "    annihilator D support: {c.annihilator_support}",
    "indent": "    ",
    "argument": "{lines}",
    "appendix_b": "\nAppendix B. Decimal digits of a({i})\n{digits}",
}

_MARKDOWN = {
    "head": "# tuttesolve report\n\n"
            "Functional equation (`Q = 0` with `psi = psi(x, y)`, "
            "`g = psi(x, 0)`):\n\n    {equation}\n",
    "proven": "**Status: proven** (checked order {c.checked_order}, "
              "cofactor order {c.bound})\n",
    "conjectural": "**Status: conjectural** (certification {c.status})\n",
    "p1": "1. {tag}Algebraic equation for `g(x) = psi(x, 0)`, written in "
          "`f = g(x)`:\n   `{eq}`",
    "p2": "2. {tag}Algebraic equation for the full series `psi = psi(x, y)`:"
          "\n   `{eq}`",
    "rec": "3. {tag}Recurrence for the coefficients `a(n) = [x^n] g(x)`:",
    "recurrence": "   `{rec}`\n   with {initials}",
    "missing": "   not available",
    "ode": "   derived from the differential equation `{ode}`",
    "absent": "   minimal form: no recurrence with order+degree <= {cap}",
    "minimal": "   minimal form (order+degree <= {cap}): `{rec}`\n"
               "   with {initials}",
    "value": "4. {tag}Exact sequence value: {value}\n",
    "series": "Series prefix `a(0), a(1), ...`: {series}",
    "column": "\n## Column m = {i} ({label})\n\nSeries: {series}",
    "column_eq": "Guessed equation: `{eq}`",
    "column_none": "No algebraic equation found within the bounds.",
    "appendix_a": "\n## Appendix A. Certificate\n\n- status: {c.status}",
    "numbers": "- cofactor order m: {c.bound}\n"
               "- checked order N: {c.checked_order}\n"
               "- annihilator D support: {c.annihilator_support}",
    "indent": "",
    "argument": "\n{lines}",
    "appendix_b": "\n## Appendix B. Decimal digits of a({i})\n\n{digits}",
}

_TEMPLATES = {"text": _TEXT, "markdown": _MARKDOWN}
FORMATS = (*_TEMPLATES, "structured")


def _render(r: Report, t: dict[str, str]) -> str:
    """The human-readable report in the wording of template table ``t``."""
    c, out = r.certificate, []

    def put(key: str, **fields) -> None:
        out.append(t[key].format(c=c, cap=r.max_complexity, **fields,
                                 tag="" if r.proven else "(conjectural) "))

    def put_rec(key: str, rec: PRec) -> None:
        put(key, rec=rec.render(), initials=", ".join(
            f"a({i}) = {num_str(v)}" for i, v in enumerate(rec.initials)))

    put("head", equation=r.equation)
    put("proven" if r.proven else "conjectural")
    for key, p in (("p1", r.p1), ("p2", r.p2)):
        put(key, eq=p.render() if p is not None else "not available")
    put("rec")
    if r.recurrence is None:
        put("missing")
    else:
        put_rec("recurrence", r.recurrence)
    if r.ode is not None:
        put("ode", ode=r.ode.render())
    if r.minimized is ABSENT:
        put("absent")
    elif r.minimized is not None and r.minimized != r.recurrence:
        put_rec("minimal", r.minimized)
    vline, digits = _value_lines(r)
    put("value", value=vline)
    put("series", series=", ".join(map(num_str, r.series_prefix)))
    if r.column is not None:
        col = r.column
        put("column", i=col.index, label=COLUMN_LABEL,
            series=", ".join(map(num_str, col.series)))
        if col.equation is None:
            put("column_none")
        else:
            put("column_eq", eq=col.equation.render())
    put("appendix_a")
    if c.bound is not None:
        put("numbers")
    put("argument", lines="\n".join(t["indent"] + line
                                     for line in _cert_argument(r)))
    if digits:
        put("appendix_b", i=r.value.index,
            digits="\n".join("    " + line for line in digits))
    out.append("\nTimings (ms): " + ", ".join(
        f"{k}={v}" for k, v in r.timings_ms.items()))
    # an empty field (series prefix, timings) would leave trailing blanks
    return "".join(line.rstrip() + "\n" for line in "\n".join(out).split("\n"))


def render_report(r: Report, format: str = "text") -> str:
    """Render a report in one of ``FORMATS``: `text`, `markdown`, `structured`."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if format == "structured":
        return json.dumps(r.to_dict(), indent=2) + "\n"
    return _render(r, _TEMPLATES[format])


def parse_report(text: str) -> Report:
    """Inverse of ``render_report(r, 'structured')``."""
    return Report.from_dict(json.loads(text))
