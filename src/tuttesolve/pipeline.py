"""End-to-end driver: equation text in, report out.

The run is a fixed sequence of stages; any library error is re-raised as
``PipelineError`` carrying the stage name.  The guess is certified
before the full series is eliminated, so a wrong guess costs no
elimination.  These restart the guessing loop with a doubled expansion
order instead of failing outright: the guesser returning FAIL (not enough
data for any support), a certificate refutation (the guess fit the prefix
but not the equation), and a witness too short for the proof.  All are
capped by the configured series ceiling.  With proving off, the first
guess is eliminated as it is, and everything after it is conjectural.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .certify import certify, eliminate_g
from .eqparse import parse_equation
from .errors import (InsufficientData, InvalidBounds, PipelineError,
                     RefutedGuess, ResourceCeiling, TutteSolveError)
from .evalrec import unroll
from .funceq import FuncEq, check_well_posed, expand_series, specialize_y0
from .guessing import FAIL, guess_algeq
from .holonomic import ABSENT, algeq_to_ode, minimize_rec, ode_to_rec
from .report import CertificateSummary, ColumnReport, Report
from .series import QSeries, SeriesX

@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline invocation; no global state anywhere."""

    equation: str
    guess_order: int = 24        # K: initial expansion order
    max_complexity: int = 8      # MaxC: recurrence order + degree cap
    eval_at: int = 1000          # G: sequence index to evaluate
    column: int = 0              # m: y-power to extract (0 = just psi(x,0))
    prove: bool = True
    max_degree: int = 16         # ceiling on guessed degrees in f and x
    max_order: int = 512         # ceiling on the doubled expansion order

    def __post_init__(self):
        if self.guess_order < 8:
            raise InvalidBounds("guess order must be at least 8")
        if self.eval_at < 0:
            raise InvalidBounds("evaluation index must be nonnegative")
        if self.max_complexity < 1:
            raise InvalidBounds("complexity cap must be at least 1")
        if self.column < 0:
            raise InvalidBounds("column index must be nonnegative")
        if self.max_degree < 1:
            raise InvalidBounds("degree ceiling must be at least 1")
        if self.max_order < self.guess_order:
            raise InvalidBounds("series ceiling is below the guess order")


# ---------------------------------------------------------------------------
# column extraction

def _column_from_expansion(s: SeriesX, m: int) -> QSeries:
    return QSeries([c.y_coeff(m) for c in s.locs])


def column_series(eq: FuncEq, m: int, K: int) -> QSeries:
    """The sequence [x^n y^m] psi for n = 0..K, exactly.

    Every coefficient of the expansion is a rational function of y regular
    at y = 0, so the extraction is a finite Taylor step.  m = 0 agrees with
    specialize_y0.
    """
    if m < 0:
        raise InvalidBounds("column index must be nonnegative")
    return _column_from_expansion(expand_series(eq, K), m)


class CoeffTable:
    """Rectangular table of [x^n y^m] psi, 0 <= n <= N, 0 <= m <= M."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(Fraction(v) for v in row)
                             for row in entries)

    @classmethod
    def build(cls, eq: FuncEq, N: int, M: int) -> "CoeffTable":
        s = expand_series(eq, N)
        return cls([c.y_prefix(M) for c in s.locs])

    def entry(self, n: int, m: int) -> Fraction:
        return self.entries[n][m]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))


# ---------------------------------------------------------------------------
# the driver

class _Stages:
    """Tiny helper: run a callable under a stage name, timing it."""

    def __init__(self):
        self.timings: dict[str, int] = {}

    def run(self, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except TutteSolveError as exc:
            raise PipelineError(name, exc) from exc
        finally:
            ms = int((time.perf_counter() - t0) * 1000)
            self.timings[name] = self.timings.get(name, 0) + ms


def _minimize_full(rec, max_complexity: int):
    # grow the data window until the certification pass has enough terms
    count = 64
    while True:
        try:
            return minimize_rec(rec, QSeries(rec.terms(count)), max_complexity)
        except InsufficientData:
            if count >= 8192:
                raise ResourceCeiling(
                    "minimization needed more than 8192 terms")
            count *= 2


def run_pipeline(cfg: PipelineConfig) -> Report:
    """Solve one functional equation end to end and assemble the report.

    A ``PipelineError`` leaves with ``timings_ms``: the time of every stage
    run so far, the failed one included.
    """
    st = _Stages()
    try:
        return _solve(cfg, st)
    except PipelineError as exc:
        exc.timings_ms = dict(st.timings)
        raise


def _solve(cfg: PipelineConfig, st: _Stages) -> Report:
    eq = st.run("parse", parse_equation, cfg.equation)
    st.run("well-posedness", check_well_posed, eq)

    K = cfg.guess_order
    while True:
        sx = st.run("expansion", expand_series, eq, K)
        seq = st.run("specialize", specialize_y0, sx)
        p1 = st.run("guess", guess_algeq, seq, cfg.max_degree, cfg.max_degree)
        if p1 is FAIL:
            if 2 * K > cfg.max_order:
                raise PipelineError("guess", ResourceCeiling(
                    f"no algebraic equation found within degree "
                    f"{cfg.max_degree} at series order {K}"))
            K *= 2
            continue
        try:
            cert = st.run("certify", certify, eq, p1, sx) if cfg.prove else None
            if cert is None or cert.is_proven:
                break
            err = PipelineError("certify", RefutedGuess(cert.checkedOrder))
        except PipelineError as exc:
            # a witness too short for the proof's Hensel steps
            if not isinstance(exc.cause, InsufficientData):
                raise
            err = exc
        if 2 * K > cfg.max_order:
            raise err
        K *= 2

    p2 = st.run("eliminate", eliminate_g, eq, p1)
    certsum = (CertificateSummary.skipped() if cert is None
               else CertificateSummary.from_certificate(cert))
    ode = st.run("ode", algeq_to_ode, p1)
    rec = st.run("recurrence", ode_to_rec, ode)
    mini = st.run("minimize", _minimize_full, rec, cfg.max_complexity)
    value = st.run("unroll", unroll, mini if mini is not ABSENT else rec,
                   cfg.eval_at)

    column = None
    if cfg.column > 0:
        col = st.run("column", _column_from_expansion, sx, cfg.column)
        colguess = st.run("column-guess", guess_algeq, col,
                          cfg.max_degree, cfg.max_degree)
        column = ColumnReport(cfg.column, col.coeffs,
                              None if colguess is FAIL else colguess.P)

    return Report(eq.render(), p1.P, p2, certsum, ode, rec, mini, value,
                  seq.coeffs, column, cfg.max_complexity, st.timings)
