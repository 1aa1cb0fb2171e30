"""Error taxonomy shared by every module of the package.

All failures that a caller can act on are distinct exception classes with a
common base, so library users can catch ``TutteSolveError`` and the CLI can
map each class to a message.  FAIL and ABSENT results of the guessing and
minimization searches are return values, not exceptions: the members of
``Sentinel``.
"""

from __future__ import annotations

from enum import Enum


class Sentinel(Enum):
    """Falsy results: ``FAIL`` of the guessing search, ``ABSENT`` of
    recurrence minimization.  A member keeps its identity under ``copy``
    and ``pickle``."""

    FAIL = "FAIL"
    ABSENT = "ABSENT"

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


class TutteSolveError(Exception):
    """Base class for all package errors."""


# --- polynomial core ---

class InvalidElimination(TutteSolveError):
    """Resultant requested with respect to a variable of degree zero."""


class ZeroPolynomial(TutteSolveError):
    """An operation that needs a nonzero polynomial received zero."""


class InvalidBounds(TutteSolveError):
    """Malformed degree bounds or margins passed to a search."""


# --- functional equation / expansion ---

class NoSeriesBranch(TutteSolveError):
    """No admissible order-0 coefficient exists (regular at y=0)."""


class AmbiguousBranch(TutteSolveError):
    """Two or more admissible order-0 coefficients exist."""


class DegenerateKernel(TutteSolveError):
    """The per-order linear solve has no solution or is underdetermined."""


class PoleAtYZero(TutteSolveError):
    """A series coefficient fails regularity at y = 0."""


# --- elimination / certification ---

class ResultantVanishes(TutteSolveError):
    """Elimination produced the zero polynomial (shared content)."""


class ZeroAnnihilator(TutteSolveError):
    """The annihilator D(g, x) of the specialization is zero, or a factor
    divided out while building it may vanish at the kernel root; no proof
    is claimed."""


class RefutedGuess(TutteSolveError):
    """Certification refuted the guessed equation.

    Carries the first order at which an annihilation check failed.
    """

    def __init__(self, order: int, message: str | None = None):
        self.order = order
        super().__init__(message or f"guess refuted at series order {order}")


# --- holonomic conversions ---

class NonSquarefree(TutteSolveError):
    """dP/df is not invertible modulo P (P not squarefree in f)."""


class InsufficientData(TutteSolveError):
    """Certified data prefix is shorter than the certification window."""


# --- recurrence evaluation ---

class MissingInitials(TutteSolveError):
    """Stored initial terms do not cover a singular index."""


class InvalidIndex(TutteSolveError):
    """Sequence index out of range (negative)."""


# --- parsing ---

class EquationSyntaxError(TutteSolveError):
    """Equation text failed to parse.  Carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownVariable(TutteSolveError):
    """Equation text used an identifier other than psi, g, x, y."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown variable {name!r} (at position {position})")


class NonPolynomial(TutteSolveError):
    """Equation text used division or a non-natural exponent."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# --- self-checks ---

class SelfCheckFailed(TutteSolveError):
    """A computed object failed an identity it holds by construction.

    Raised instead of ``assert``, so the checks a proof rests on also run
    under ``python -O``.
    """


# --- pipeline ---

class ResourceCeiling(TutteSolveError):
    """A configured degree or size ceiling was exceeded."""


class PipelineError(TutteSolveError):
    """Wraps any error raised inside the pipeline with its stage name.

    ``timings_ms`` holds the stage times up to the failure, once the error
    has left ``run_pipeline``.
    """

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        self.timings_ms: dict[str, int] = {}
        super().__init__(f"error at stage {stage}: {cause}")
