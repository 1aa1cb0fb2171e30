"""Acceptance gate: one test per shipping criterion, then the known-answer
corpus solved end to end.

Each test stands alone and prints as a single pass/fail line under
``pytest -v``.  Everything is checked exactly; there are no tolerances
anywhere in this file.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import tuttesolve
from tuttesolve import (ABSENT, FAIL, AlgEq, MPoly, PipelineConfig, PRec,
                        QSeries, algeq_to_ode, certify, guess_algeq,
                        ode_to_rec, parse_report, render_report, run_pipeline,
                        unroll)
from tuttesolve.errors import (AmbiguousBranch, PipelineError, PoleAtYZero)

from . import _frozen, _oracle


def _cli() -> list[str]:
    exe = shutil.which("tuttesolve")
    if exe:
        return [exe]
    return [sys.executable, "-m", "tuttesolve.cli"]


def _cli_env() -> dict[str, str]:
    # the module fallback must import the same package as this test does
    src = str(Path(tuttesolve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _normalize_rec(coeffs):
    """Strip content and fix the sign of the leading polynomial."""
    flat = [c for poly in coeffs for c in poly]
    content = math.gcd(*(abs(c) for c in flat if c)) or 1
    sign = 1 if coeffs[-1][-1] > 0 else -1
    return tuple(tuple(sign * c // content for c in poly) for poly in coeffs)


def test_criterion_1_cli_tutte_end_to_end():
    start = time.monotonic()
    proc = subprocess.run(
        _cli() + ["solve", "--equation", _frozen.TUTTE_EQ,
                  "--guess-order", "30", "--max-complexity", "5",
                  "--eval-at", "1000", "--format", "structured"],
        capture_output=True, text=True, timeout=120, env=_cli_env())
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    rep = parse_report(proc.stdout)
    assert rep.proven
    assert rep.certificate.status == "proven"
    rec = rep.minimized if isinstance(rep.minimized, PRec) else rep.recurrence
    got = rec.terms(201)
    for n in range(1, 201):
        want = _oracle.counting_term(n)
        assert got[n] == want and got[n].denominator == 1
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_1_optimized_cli_past_the_digit_limit():
    # -O strips asserts, and C(8000) has 4811 digits, past the 4300 limit
    # Python 3.11+ puts on int <-> str
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tuttesolve.cli", "solve",
         "--equation", "psi - 1 - x*psi**2", "--eval-at", "8000",
         "--format", "structured"],
        capture_output=True, text=True, timeout=120, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    rep = parse_report(proc.stdout)
    assert render_report(rep, "structured") == proc.stdout
    assert rep.value.value == _oracle.catalan(8000)


def test_criterion_1_cli_far_out_coefficient():
    # C(50000) has 30,096 digits; unroll reaches it by binary splitting
    proc = subprocess.run(
        _cli() + ["solve", "--equation", "psi - 1 - x*psi**2",
                  "--eval-at", "50000", "--format", "structured"],
        capture_output=True, text=True, timeout=120, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    rep = parse_report(proc.stdout)
    assert render_report(rep, "structured") == proc.stdout
    assert rep.value.value == _oracle.catalan(50000)


def test_no_assert_statements_in_the_package():
    # a check written as assert vanishes under python -O
    src = Path(tuttesolve.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_module_imports_decimal():
    # decimal text is read and written by polyq alone
    src = Path(tuttesolve.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "decimal" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "decimal")]
    assert not found, found


def test_criterion_2_thousandth_coefficient_exact(tutte_report):
    start = time.monotonic()
    got = unroll(tutte_report.minimized, 1000)
    want = _oracle.counting_term(1000)
    elapsed = time.monotonic() - start
    assert got.value == want
    assert got.is_integer and got.digits == 969
    assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_minimized_recurrence_is_the_golden_one(tutte_report):
    # golden form assembled from the closed-form term ratio:
    #   3 (n+2)(3n+4)(3n+5) a(n+1) = 8 (2n+1)(4n+3)(4n+5) a(n)
    m = _oracle.poly_mul_int
    lead = m(m([2, 1], [4, 3]), [15, 9])            # 3(n+2)(3n+4)(3n+5)
    trail = m(m([-8, -16], [3, 4]), [5, 4])         # -8(2n+1)(4n+3)(4n+5)
    rec = tutte_report.minimized
    assert rec is not None
    assert rec.order == 1 and rec.degree == 3
    assert _normalize_rec(rec.coeffs) == _normalize_rec(
        (tuple(trail), tuple(lead)))


def test_criterion_4_guesser_random_algebraic_suite():
    rng = random.Random(20260815)
    f = MPoly.var("f")
    checked = 0
    while checked < 50:
        nested = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        nested[0][0] = 0
        nested[1][0] = rng.choice([c for c in range(-5, 6) if c])
        checked += 1
        branch = _oracle.implicit_series(nested, 40)
        P = sum((MPoly.monomial(c, f=i, x=j)
                 for i, row in enumerate(nested) for j, c in enumerate(row)
                 if c), MPoly.zero())
        got = guess_algeq(QSeries(branch), 3, 3)
        assert got is not FAIL
        # annihilates every supplied term
        doc = [[row.coeff_of("x", j).constant_value()
                for j in range(row.degree("x") + 1)]
               for row in got.P.as_univariate("f")]
        vals = _oracle.poly_eval_series(doc, branch, 40)
        assert all(v == 0 for v in vals)
        # proportional to a factor of the generating polynomial
        assert P.try_divexact(got.P) is not None
        # FAIL monotonicity on a short prefix of the same series
        short = QSeries(branch[:10])
        fails = {(a, b): guess_algeq(short, a, b, margin=4) is FAIL
                 for a in range(1, 4) for b in range(4)}
        for (a, b), failed in fails.items():
            if failed:
                assert all(fails[(u, v)]
                           for u in range(1, a + 1) for v in range(b + 1))


def test_criterion_5_certification_refutes_any_perturbation(
        tutte_eq, tutte_p1, tutte_sx, tutte_cert):
    assert tutte_cert.status == "proven"
    assert tutte_cert.bound == _frozen.TUTTE_D_SLACK
    f = MPoly.var("f")
    degF, degX = tutte_p1.P.degree("f"), tutte_p1.P.degree("x")
    for i in range(degF + 1):
        for j in range(degX + 1):
            bad = AlgEq(tutte_p1.P + MPoly.monomial(1, f=i, x=j),
                        tutte_p1.branch)
            cert = certify(tutte_eq, bad, tutte_sx)
            assert cert.status == "refuted", (i, j)


def test_criterion_6_conversion_chain_identities():
    f, x = MPoly.var("f"), MPoly.var("x")
    one = MPoly.const(1)
    cases = [
        ((one - x) * f - one,
         [F(1)] * 60),
        (f**2 + x - one,
         _oracle.sqrt_one_minus_x(60)),
        (x * f**2 - f + one,
         [F(_oracle.catalan(n)) for n in range(60)]),
    ]
    for P, series in cases:
        rec = ode_to_rec(algeq_to_ode(AlgEq(P, QSeries(series[:12]))))
        assert rec.terms(60) == series


def test_criterion_7_well_posedness_failures_carry_their_stage():
    with pytest.raises(PipelineError) as e1:
        run_pipeline(PipelineConfig("psi**2 - psi", guess_order=8,
                                    max_complexity=2, eval_at=0))
    assert e1.value.stage == "well-posedness"
    assert isinstance(e1.value.cause, AmbiguousBranch)

    with pytest.raises(PipelineError) as e2:
        run_pipeline(PipelineConfig("y**2*psi + g + x*y", guess_order=8,
                                    max_complexity=2, eval_at=0))
    assert e2.value.stage in ("expansion", "specialize")
    assert isinstance(e2.value.cause, PoleAtYZero)


def test_criterion_8_structured_output_is_deterministic(tutte_report):
    fresh = run_pipeline(PipelineConfig(
        _frozen.TUTTE_EQ, guess_order=30, max_complexity=5, eval_at=1000))
    docs = []
    for rep in (tutte_report, fresh):
        doc = json.loads(render_report(rep, "structured"))
        doc.pop("timings_ms", None)
        docs.append(json.dumps(doc, indent=2, sort_keys=False))
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# the known-answer corpus: Catalan, Tutte's planar maps (shifted so the
# catalytic point is y = 0) and six walk equations whose g counts
# excursions

WALK_STEPS = {"dyck": (-1, 1), "motzkin": (-1, 0, 1), "luk2": (-1, 2),
              "luk3": (-1, 3), "walk112": (-1, 1, 2), "walk102": (-1, 0, 2)}
CORPUS = {
    "catalan": ("psi - 1 - x*psi**2", _oracle.catalan),
    "maps": ("y*psi - y - x*y*(1+y)**2*psi**2 - x*(1+y)*((1+y)*psi - g)",
             _oracle.planar_maps),
    **{name: (_oracle.walk_equation(steps), steps)
       for name, steps in WALK_STEPS.items()},
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_known_answer_corpus(name):
    equation, known = CORPUS[name]
    G = 200
    if callable(known):
        counts = [known(n) for n in range(G + 1)]
    else:
        counts = [row[0] for row in _oracle.walk_counts(known, G, 0)]
    rep = run_pipeline(PipelineConfig(equation, eval_at=G))
    assert rep.proven
    assert rep.value.index == G and rep.value.value == counts[G]
    assert list(rep.series_prefix) == counts[:len(rep.series_prefix)]
    assert rep.recurrence.terms(60) == counts[:60]
    if rep.minimized is not ABSENT:
        assert rep.minimized.terms(60) == counts[:60]
