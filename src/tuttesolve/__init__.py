"""tuttesolve: exact guess-and-certify solver for functional equations
of the form Q(psi(x, y), psi(x, 0), x, y) = 0 with one catalytic variable.

The pipeline expands the unique series solution, guesses an algebraic
equation for the specialization psi(x, 0) from finitely many exact
coefficients, proves it by an exact division of an annihilator built
from the equation alone, eliminates g by one resultant to an equation
for the full bivariate series, which then holds by construction with no
check on the series, converts to a linear ODE and then to a recurrence
with polynomial coefficients, minimizes the recurrence under a
complexity cap, and evaluates the sequence exactly at any index.  Everything is exact rational arithmetic; there is no floating
point anywhere.
"""

from .errors import (AmbiguousBranch, DegenerateKernel, EquationSyntaxError,
                     InsufficientData, InvalidBounds, InvalidElimination,
                     InvalidIndex, MissingInitials, NonPolynomial,
                     NonSquarefree, NoSeriesBranch, PipelineError,
                     PoleAtYZero, RefutedGuess, ResourceCeiling,
                     ResultantVanishes, TutteSolveError, UnknownVariable,
                     ZeroAnnihilator, ZeroPolynomial)
from .mpoly import MPoly, resultant, squarefree_primitive
from .polyq import RatFunc
from .series import QSeries, SeriesX
from .funceq import (FuncEq, WellPosedness, check_well_posed, expand_series,
                     specialize_y0)
from .guessing import FAIL, AlgEq, guess_algeq
from .certify import Certificate, certify, eliminate_g
from .holonomic import (ABSENT, LinODE, PRec, algeq_to_ode, minimize_rec,
                        ode_to_rec)
from .evalrec import SequenceValue, unroll
from .pipeline import (CoeffTable, PipelineConfig, column_series,
                       run_pipeline)
from .eqparse import parse_equation
from .report import (CertificateSummary, ColumnReport, Report, parse_report,
                     render_report)

__version__ = "0.1.0"

__all__ = [
    "ABSENT", "AlgEq", "AmbiguousBranch", "Certificate", "CertificateSummary",
    "CoeffTable", "ColumnReport", "DegenerateKernel", "EquationSyntaxError",
    "FAIL", "FuncEq", "InsufficientData", "InvalidBounds",
    "InvalidElimination", "InvalidIndex", "LinODE", "MPoly",
    "MissingInitials", "NonPolynomial", "NonSquarefree", "NoSeriesBranch",
    "PRec", "PipelineConfig", "PipelineError", "PoleAtYZero", "QSeries", "RatFunc", "RefutedGuess",
    "Report", "ResourceCeiling", "ResultantVanishes", "SequenceValue",
    "SeriesX", "TutteSolveError", "UnknownVariable", "WellPosedness",
    "ZeroAnnihilator", "ZeroPolynomial", "algeq_to_ode", "certify",
    "check_well_posed", "column_series",
    "eliminate_g", "expand_series", "guess_algeq", "minimize_rec",
    "ode_to_rec", "parse_equation", "parse_report", "render_report",
    "resultant", "run_pipeline", "specialize_y0", "squarefree_primitive",
    "unroll",
]
