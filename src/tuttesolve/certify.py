"""Turn a guessed equation for g = psi(x, 0) into a theorem, or refute it.

From Q alone, psi and y are eliminated to get D(g, x) != 0 with
D(g(x), x) = 0.  The guess p1 is proven when it divides D exactly and, by
Hensel's lemma on the series witness, the root of p1 the witness singles
out is the root g of D.  p2 then holds by construction: `eliminate_g`
builds it from Q and the proven p1 by one resultant, and checks nothing
on the witness.  Everything is exact.

D follows the mode of `check_well_posed`.  Direct: psi(x, 0) = g, so
D = Q(g, g, x, 0).  Kernel: Q_psi(psi(x, y), g, x, y) vanishes on a unique
series y = Y(x) with Y(0) = 0, and so do Q and, differentiating Q = 0 in
y, Q_y.  For Q = A*psi + B, D = Res_y(A, B): the kernel method of
Banderier and Flajolet.  Otherwise (psi(x, Y), Y) is a singular point of
the curve Q = 0, so Res_psi(Q, Q_psi) has a double root at y = Y, and D =
Res_y(Delta, Delta_y) for its squarefree primitive part Delta in y, y^v
divided out: the quadratic method of Bousquet-Melou and Jehanne.  Each
factor divided out is shown nonzero at (g, x, Y), or ZeroAnnihilator is
raised and nothing is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InsufficientData, InvalidElimination, ResourceCeiling,
                     ResultantVanishes, SelfCheckFailed, ZeroAnnihilator)
from .funceq import (FuncEq, WellPosedness, check_well_posed, expand_series,
                     specialize_y0)
from .guessing import AlgEq
from .mpoly import MPoly, resultant, squarefree_primitive
from .series import SeriesX, _vanishing_order

# perfbench/tracing.py wraps these names here, expand_series too, until
# ROADMAP item 4 retires its call-site patching
defect_annihilator = vanishing_bound = None

# the largest degree in one variable that the Sylvester bound of a
# resultant may predict; past it the resultant is not started.  The bench
# equations and the walks with steps up to +4 predict at most 25.
MAX_RESULTANT_DEGREE = 1024


@dataclass(frozen=True)
class Certificate:
    """Outcome of the a-posteriori check of p1.

    annihilator is D, or None when the witness refuted the guess before D
    was built.  bound is the Hensel slack e of D at the witness.
    checkedOrder is the witness order K for proven status.  For refuted
    status it is the first order that fails on the witness, or K + 1 when
    the guess holds through K but does not divide D: it must fail at some
    order past K, and K + 1 is the first it can.
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

def _resultant(A: MPoly, B: MPoly, v: str) -> MPoly:
    """Res_v(A, B), or the v-free operand itself, which has the same zeros.

    ResourceCeiling is raised before the work when the Sylvester bound
    deg_w Res <= deg_v B * deg_w A + deg_v A * deg_w B passes
    MAX_RESULTANT_DEGREE in some variable w.
    """
    dA, dB = A.degree(v), B.degree(v)
    if dA < 1 or dB < 1:
        return A if dA < 1 else B
    for w in dict.fromkeys(A.variables() + B.variables()):
        bound = dB * max(0, A.degree(w)) + dA * max(0, B.degree(w))
        if w != v and bound > MAX_RESULTANT_DEGREE:
            raise ResourceCeiling(
                f"resultant in {v} may reach degree {bound} in {w}, past "
                f"the ceiling {MAX_RESULTANT_DEGREE}")
    return resultant(A, B, v)


def eliminate_g(eq: FuncEq, p1: AlgEq) -> MPoly:
    """The equation P2(psi, x, y) = 0 of the full series.

    Q(psi, g) = 0 and p1(g) = 0 give Res_g(Q, p1)(psi) = 0, so P2, that
    resultant's squarefree primitive part, holds exactly once p1 is
    proven.  Nothing is checked on a series: for an unproven p1, P2 is as
    conjectural as p1.
    """
    if p1.degF < 1:
        raise InvalidElimination("equation for the specialization must involve f")
    R = _resultant(eq.Q, p1.P.rename_var("f", "g"), "g")
    if R.is_zero:
        raise ResultantVanishes("elimination of the specialization collapsed to zero")
    if R.degree("psi") < 1:
        raise InvalidElimination("elimination lost the unknown series")
    return squarefree_primitive(R, "psi")


def _at_y0(h: MPoly) -> MPoly:
    """h(g, g, x, 0): at y = 0, psi is g."""
    return MPoly.from_items(("g", "x"), (
        ((i + j, m), c)
        for (i, j, m, l), c in h.items(("psi", "g", "x", "y")) if not l))


def _annihilator(Q: MPoly, mode: str, witness: SeriesX, g) -> MPoly:
    """D(g, x) != 0 with D(g(x), x) = 0, built from Q alone.

    The witness only shows factors that were divided out nonzero.
    """
    if mode == "direct":
        D = _at_y0(Q)
    elif Q.degree("psi") == 1:
        D = _resultant(Q.coeff_of("psi", 1), Q.coeff_of("psi", 0), "y")
    else:
        dQ = Q.derivative("psi")
        R1 = _resultant(Q, dQ, "psi")
        if R1.is_zero:
            raise ZeroAnnihilator("Q and Q_psi share a factor")
        v = R1.valuation("y")
        # y^v is nonzero at Y unless Y = 0, and then Q_psi(g, g, x, 0) = 0
        if v and _vanishing_order(_at_y0(dQ), witness, g, len(witness)) is None:
            raise ZeroAnnihilator("the kernel root may be zero")
        R1 = R1.divexact(MPoly.var("y") ** v)
        Delta = squarefree_primitive(R1, "y")
        # the rest is nonzero at (g, x, Y) when its lowest x-coefficient is
        # nonzero at (g0, 0, 0), since Y(0) = 0
        rest = R1.divexact(Delta)
        low = rest.coeff_of("x", rest.valuation("x"))
        if _vanishing_order(_at_y0(low), witness, g, 1) is None:
            raise ZeroAnnihilator(
                "a factor divided out of the discriminant may vanish at the "
                "kernel root")
        D = _resultant(Delta, Delta.derivative("y"), "y")
    if D.is_zero:
        raise ZeroAnnihilator("the elimination of psi and y collapsed to zero")
    return D


def _slack(P: MPoly, witness: SeriesX, g, K: int) -> int:
    """The x-valuation e of P at the witness, where K >= 2e + 1 must hold,
    or InsufficientData."""
    cap = (K + 1) // 2
    # e is almost always 0: that alone is tried first
    e = _vanishing_order(P, witness, g, min(1, cap))
    if e is None and cap > 1:
        e = _vanishing_order(P, witness, g, cap)
    if e is None:
        raise InsufficientData(
            f"a witness of order {K} is too short for Hensel's lemma")
    return e


def certify(eq: FuncEq, p1: AlgEq, witness: SeriesX) -> Certificate:
    """Prove or refute the guessed equation p1 for g = psi(x, 0).

    Proven: p1 divides D, and with e1 and e the x-valuations at the
    witness of dp1/dg and of the g-derivative of D's squarefree primitive
    part, K >= 2*e1 + 1 and K >= 2*e + 1.  By Hensel's lemma p1 then has a
    root that agrees with the witness through order K - e1 >= e, and D has
    only one such root, g.  The witness is checked against Q through order
    K, which ties it to the unique series solution.

    Refuted: p1 fails on the witness, or does not divide D.  An equation
    that is not well posed raises the typed error of `check_well_posed`:
    without a unique series solution there is nothing to prove.  A witness
    too short for either Hensel step raises InsufficientData.
    """
    wp = check_well_posed(eq)
    K = witness.order
    g_hat = specialize_y0(witness).coeffs
    p1g = p1.P.rename_var("f", "g")

    bad = _vanishing_order(p1g, witness, g_hat, K + 1)
    if bad is not None:
        return Certificate(None, 0, bad, wp, "refuted")
    if _vanishing_order(eq.Q, witness, g_hat, K + 1) is not None:
        raise SelfCheckFailed("series witness fails its own equation")

    D = _annihilator(eq.Q, wp.mode, witness, g_hat)
    if D.try_divexact(p1g) is None:
        return Certificate(D, 0, K + 1, wp, "refuted")
    _slack(p1g.derivative("g"), witness, g_hat, K)
    e = _slack(squarefree_primitive(D, "g").derivative("g"), witness, g_hat, K)
    return Certificate(D, e, K, wp, "proven")
