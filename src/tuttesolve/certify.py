"""Turn a guessed algebraic equation into a theorem, or refute it.

The route: eliminate the specialized series to get a bivariate equation
for the full solution, build a one-variable annihilator of the defect by
a double resultant, bound the possible x-valuation of any nonzero series
root of that annihilator by its Newton polygon, and check the defect
vanishes strictly beyond the bound.  Everything is exact.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import (InvalidElimination, NonSquarefree, NoVanishingFactor,
                     ResultantVanishes, SelfCheckFailed, ZeroAnnihilator,
                     ZeroPolynomial)
from .funceq import (FuncEq, WellPosedness, check_well_posed, expand_series,
                     specialize_y0)
from .guessing import AlgEq
from .mpoly import MPoly, resultant, squarefree_primitive, vanishing_bound
from .series import SeriesX, _vanishing_order


class BivarAlgEq:
    """Polynomial relation in {psi, x, y} with a series witness.

    Shape checks only; annihilation of the witness is established by the
    producer (eliminate_g) and re-examined by the certifier for any other
    producer.
    """

    __slots__ = ("P", "branch", "__weakref__")

    def __init__(self, P: MPoly, branch: SeriesX):
        if P.is_zero:
            raise ZeroPolynomial("bivariate algebraic equation must be nonzero")
        extra = set(P.variables()) - {"psi", "x", "y"}
        if extra:
            raise ValueError(f"unexpected variables in bivariate equation: {sorted(extra)}")
        self.P = P
        self.branch = branch

    def render(self) -> str:
        return self.P.render()

    def __repr__(self) -> str:
        return f"BivarAlgEq({self.P.render()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarAlgEq):
            return NotImplemented
        return self.P == other.P and self.branch == other.branch


@dataclass(frozen=True)
class Certificate:
    """Outcome of the a-posteriori check.

    annihilator is None only when the guess was refuted before the
    elimination was worth building.  checkedOrder is the verified order
    for proven status and the first failing order for refuted status.
    """

    annihilator: MPoly | None
    bound: int
    checkedOrder: int
    kernel: WellPosedness
    status: str  # "proven" | "refuted"

    @property
    def is_proven(self) -> bool:
        return self.status == "proven"

    @property
    def annihilator_support(self) -> int:
        return 0 if self.annihilator is None else len(self.annihilator.terms)


# ---------------------------------------------------------------------------

# eliminate_g's own outputs, which it checked on their witness at its full
# order: id -> (P, branch) as checked.  An entry leaves when its object
# dies, so a live id names the object vouched for.
_VOUCHED: dict[int, tuple] = {}


def _vouch(p2: BivarAlgEq) -> None:
    _VOUCHED[id(p2)] = (p2.P, p2.branch)
    weakref.finalize(p2, _VOUCHED.pop, id(p2), None)


def _vouched(p2: BivarAlgEq) -> bool:
    P, branch = _VOUCHED.get(id(p2), (None, None))
    return P is p2.P and branch is p2.branch


def eliminate_g(eq: FuncEq, p1: AlgEq, witness: SeriesX) -> BivarAlgEq:
    """Eliminate the specialized series between Q and its equation.

    The result is the squarefree primitive part of the resultant in psi,
    kept whole: no factor of it is sought.  It annihilates the witness to
    its full order, or NoVanishingFactor is raised.
    """
    if p1.degF < 1:
        raise InvalidElimination("equation for the specialization must involve f")
    Q = eq.Q
    if Q.degree("g") == 0:
        R = Q
    else:
        R = resultant(Q, p1.P.rename_var("f", "g"), "g")
        if R.is_zero:
            raise ResultantVanishes("elimination of the specialization collapsed to zero")
    if R.degree("psi") < 1:
        raise InvalidElimination("elimination lost the unknown series")
    P2 = squarefree_primitive(R, "psi")
    if _vanishing_order(P2, witness, (), len(witness)) is not None:  # g-free
        raise NoVanishingFactor(
            "no factor of the eliminated equation annihilates the series witness")
    p2 = BivarAlgEq(P2.normalized(), witness)
    _vouch(p2)
    return p2


def defect_annihilator(eq: FuncEq, p1: AlgEq, p2: BivarAlgEq) -> MPoly:
    """Univariate annihilator M(z, x, y) of the defect z = Q(psi~, g~).

    Double resultant: eliminate psi against p2, then g against p1.  Neither
    step can vanish.  z - Q is irreducible and p2 has no z, so they share no
    factor in psi.  The z-leading coefficient of the first resultant is
    +-lc_psi(p2)**deg_psi(Q), free of g, so the z-free p1 shares no factor
    in g with it.

    The z-content of M0 carries up to deg_psi(Q) * deg_g(p1) factors of
    lc_psi(p2), on which the content gcd of squarefree_primitive is slow.
    They are divided out first, while they divide exactly.  A z-free factor
    cannot change M, and the gcd still runs on whatever content is left.
    """
    M0 = resultant(p2.P, MPoly.var("z") - eq.Q, "psi")
    if M0.degree("g") > 0:
        M0 = resultant(M0, p1.P.rename_var("f", "g"), "g")
    if M0.is_zero:
        raise ZeroAnnihilator("defect elimination collapsed to zero")
    lc = p2.P.coeff_of("psi", p2.P.degree("psi"))
    # a single term is monomial content, which squarefree_primitive strips
    if len(lc.terms) > 1:
        for _ in range(eq.Q.degree("psi") * max(1, p1.degF)):
            q = M0.try_divexact(lc)
            if q is None:
                break
            M0 = q
    return squarefree_primitive(M0, "z")


def _slack(first_nonzero, cap: int, what: str) -> int:
    # the slack is almost always 0; grow the truncation lazily
    L = 1
    while True:
        m = first_nonzero(L)
        if m is not None:
            return m
        if L >= cap + 1:
            raise NonSquarefree(
                f"derivative of the {what} equation vanishes on the witness")
        L = min(L * 2, cap + 1)


def certify(eq: FuncEq, p1: AlgEq, p2: BivarAlgEq) -> Certificate:
    """Prove or refute the guessed pair (p1, p2) against the equation.

    Proven means: the defect of the exact algebraic solution pair is a
    series root of the annihilator M vanishing beyond the Newton-polygon
    bound, hence identically zero; uniqueness of the series solution then
    identifies it with the algebraic one.  Refuted carries the first
    x-order at which a required identity fails.  An equation that is not
    well posed raises the typed error of `check_well_posed`: without a
    unique series solution there is nothing to prove.

    p2 is checked on its witness at order K + 1 unless it is the very
    object eliminate_g returned, with the same P and branch: eliminate_g
    has checked that one at that order already.

    Every identity check here, p1 and its f-derivative at g^ = psi(x, 0),
    p2 and its psi-derivative and Q at the witness, asks for the first
    nonzero x-order of one polynomial, and `series._vanishing_order`
    answers it exactly over the integers.  p1 goes in with f renamed to g.
    """
    wp = check_well_posed(eq)
    witness = p2.branch
    K = witness.order
    g_hat = specialize_y0(witness)
    p1g = p1.P.rename_var("f", "g")

    bad = _vanishing_order(p1g, witness, g_hat.coeffs, K + 1)
    if bad is not None:
        return Certificate(None, 0, bad, wp, "refuted")
    if not _vouched(p2):
        bad = _vanishing_order(p2.P, witness, g_hat.coeffs, K + 1)
        if bad is not None:
            return Certificate(None, 0, bad, wp, "refuted")

    M = defect_annihilator(eq, p1, p2)
    B = vanishing_bound(M, "z")
    dp1, dp2 = p1g.derivative("g"), p2.P.derivative("psi")
    e1 = _slack(lambda L: _vanishing_order(dp1, witness, g_hat.coeffs, L), K,
                "specialized")
    e2 = _slack(lambda L: _vanishing_order(dp2, witness, g_hat.coeffs, L), K,
                "bivariate")
    # the checked order must leave the defect's valuation strictly above
    # the bound after losing the Hensel slack, and inside Newton's basin
    N = max(B + e1 + e2, 2 * e1 + 1, 2 * e2 + 1, K)

    if N > K:
        witness = expand_series(eq, N)
        g_hat = specialize_y0(witness)
        bad = _vanishing_order(p1g, witness, g_hat.coeffs, N + 1)
        if bad is None:
            bad = _vanishing_order(p2.P, witness, g_hat.coeffs, N + 1)
        if bad is not None:
            return Certificate(M, B, bad, wp, "refuted")

    # defect of the series solution itself; zero by construction
    if _vanishing_order(eq.Q, witness, g_hat.coeffs, N + 1) is not None:
        raise SelfCheckFailed("series solution failed its own equation")

    return Certificate(M, B, N, wp, "proven")
