"""Turn a guessed equation for g = psi(x, 0) into a theorem, or refute it.

From Q alone, psi and y are eliminated to get D(g, x) != 0 with
D(g(x), x) = 0.  There are two witnesses of g's prefix.  Where the series
solution is known to exist at every order (`funceq.solvable_at_every_order`)
and g0 is a simple root of D0(g, 0), D0 = D / x^val_x(D), g is lifted from
D0 alone (`series.GLift`); elsewhere the witness is psi's expansion.  On
either, p1 is proven one way: D0 = p1^k * C with k >= 1 as large as exact
division allows, and C(g) nonzero at some order m <= K, which the prefix
through x^K shows.  p2 then holds by construction: `eliminate_g` builds it
from Q and the proven p1 by one resultant, and checks nothing on the
witness.  Everything is exact.

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

from .errors import (DegenerateKernel, InsufficientData, InvalidElimination,
                     ResourceCeiling, ResultantVanishes, SelfCheckFailed,
                     ZeroAnnihilator)
from .funceq import (FuncEq, WellPosedness, _at_y0, check_well_posed,
                     expand_series, specialize_y0)
from .guessing import AlgEq
from .mpoly import MPoly, resultant, squarefree_primitive
from .series import GLift, SeriesX, _vanishing_order

# perfbench/tracing.py wraps these names here until ROADMAP item 4 retires
# its call-site patching
defect_annihilator = vanishing_bound = None

# the largest degree in one variable that the Sylvester bound of a
# resultant may predict; past it the resultant is not started.  The bench
# equations and the walks with steps up to +4 predict at most 25.
MAX_RESULTANT_DEGREE = 1024


@dataclass(frozen=True)
class Certificate:
    """Outcome of the a-posteriori check of p1.

    annihilator is D, or None when the witness refuted the guess before D
    was built.  bound is the order m at which the cofactor C of p1 in D0
    is first nonzero at g (0 on a lifted g), and 0 when refuted.
    checkedOrder is the witness order K for proven status.  For refuted
    status it is the first order that fails on the witness, or K + 1 when
    the guess holds through K but does not divide D0: it must fail at some
    order past K, and K + 1 is the first it can.
    """

    annihilator: MPoly | None
    bound: int
    checkedOrder: int
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


def _annihilator(Q: MPoly, mode: str, g) -> MPoly:
    """D(g, x) != 0 with D(g(x), x) = 0, built from Q alone.

    g's prefix only shows factors that were divided out nonzero.
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
        if v and _vanishing_order(_at_y0(dQ), None, g, len(g)) is None:
            raise ZeroAnnihilator("the kernel root may be zero")
        R1 = R1.divexact(MPoly.var("y") ** v)
        Delta = squarefree_primitive(R1, "y")
        # the rest is nonzero at (g, x, Y) when its lowest x-coefficient is
        # nonzero at (g0, 0, 0), since Y(0) = 0
        rest = R1.divexact(Delta)
        low = rest.coeff_of("x", rest.valuation("x"))
        if _vanishing_order(_at_y0(low), None, g, 1) is None:
            raise ZeroAnnihilator(
                "a factor divided out of the discriminant may vanish at the "
                "kernel root")
        D = _resultant(Delta, Delta.derivative("y"), "y")
    if D.is_zero:
        raise ZeroAnnihilator("the elimination of psi and y collapsed to zero")
    return D


def lift_g(eq: FuncEq, wp: WellPosedness) -> GLift | None:
    """g ready to lift from D, or None where the expansion route must run.

    For an equation that passes `funceq.solvable_at_every_order`.  None
    when D cannot be built (ResourceCeiling, ZeroAnnihilator), and the
    expansion route raises the same error at the stage it always has, or
    when g0 is not a simple root of D0(g, 0) (DegenerateKernel from GLift).
    """
    g = None
    if wp.mode == "kernel" and eq.Q.degree("psi") > 1:
        # the quadratic method's nonvanishing checks read g through x^1
        g = specialize_y0(expand_series(eq, 1, wp)).coeffs
    try:
        D = _annihilator(eq.Q, wp.mode, g)
    except (ResourceCeiling, ZeroAnnihilator):
        return None
    try:
        return GLift(D, wp.gamma0)
    except DegenerateKernel:
        return None


def certify(eq: FuncEq, p1: AlgEq, witness: SeriesX | GLift,
            wp: WellPosedness | None = None) -> Certificate:
    """Prove or refute the guessed equation p1 for g = psi(x, 0).

    The witness is psi's expansion through x^K, or g lifted from D through
    x^K.  ``wp`` is ``check_well_posed(eq)``, computed here when not given.

    Proven when D0 = D / x^val_x(D) = p1^k * C for some k >= 1, and C(g)
    has a nonzero coefficient at an order m <= K.  Then D0(g) =
    p1(g)^k * C(g) = 0 in the integral domain Q[[x]] leaves p1(g) = 0.
    [x^m] C(g) reads only g through x^m, so the witness's prefix decides
    it.  On a lifted g, m = 0: p1 fits g0, and D0_g(g0, 0) != 0 then
    forces k = 1 and C(g0, 0) != 0, so order 0 alone is read.  An
    expansion is first checked against Q through order K, which ties it
    to the unique series solution, and read through K; a C(g) zero at
    every order read raises InsufficientData.

    Refuted: p1 fails on the witness, the cheap test that runs first, or
    does not divide D0.  An equation that is not well posed raises the
    typed error of `check_well_posed`: without a unique series solution
    there is nothing to prove.
    """
    if wp is None:
        wp = check_well_posed(eq)
    K = witness.order
    p1g = p1.P.rename_var("f", "g")
    if isinstance(witness, GLift):
        D, g = witness.D, witness.series(K).coeffs
    else:
        D, g = None, specialize_y0(witness).coeffs
    bad = _vanishing_order(p1g, None, g, K + 1)
    if bad is not None:
        return Certificate(D, 0, bad, "refuted")
    if D is None:
        if _vanishing_order(eq.Q, witness, g, K + 1) is not None:
            raise SelfCheckFailed("series witness fails its own equation")
        D = _annihilator(eq.Q, wp.mode, g)

    C, k = D.divexact(MPoly.var("x") ** D.valuation("x")), 0
    while (q := C.try_divexact(p1g)) is not None:
        C, k = q, k + 1
    if not k:
        return Certificate(D, 0, K + 1, "refuted")
    m = _vanishing_order(C, None, g, 1 if isinstance(witness, GLift) else K + 1)
    if m is None:
        raise InsufficientData(
            "the cofactor of p1 in D0 vanishes on g at every order read")
    return Certificate(D, m, K, "proven")
