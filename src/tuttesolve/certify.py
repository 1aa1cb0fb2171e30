"""Turn a guessed equation for g = psi(x, 0) into a theorem, or refute it.

From Q alone, psi and y are eliminated to get D(g, x) != 0 with
D(g(x), x) = 0.  There are two witnesses of g.  Where the series solution
is known to exist at every order (`funceq.solvable_at_every_order`) and
g0 is a simple root of D0(g, 0), D0 = D / x^val_x(D), g is lifted from D0
alone (`GLift`), and p1 is proven when it divides D0 and p1(g0, 0) = 0.
Elsewhere the witness is psi's expansion, and p1 is proven when it
divides D exactly and, by Hensel's lemma on the witness, the root of p1
the witness singles out is the root g of D.  p2 then holds by
construction: `eliminate_g` builds it from Q and the proven p1 by one
resultant, and checks nothing on the witness.  Everything is exact.

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

from fractions import Fraction
from math import comb

from .errors import (InsufficientData, InvalidElimination, ResourceCeiling,
                     ResultantVanishes, SelfCheckFailed, ZeroAnnihilator)
from .funceq import (FuncEq, WellPosedness, _at_y0, check_well_posed,
                     expand_series, specialize_y0)
from .guessing import AlgEq
from .mpoly import MPoly, resultant, squarefree_primitive
from .series import QSeries, SeriesX, _vanishing_order

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
    was built.  bound is the Hensel slack e of D at an expansion witness,
    and 0 on a lifted g, which needs none.  checkedOrder is the witness
    order K for proven status.  For refuted
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


class GLift:
    """g = psi(x, 0) lifted from the annihilator alone, term by term.

    D0 = D / x^val_x(D) has g as a root, since x^val_x(D) is nonzero.
    When g0 = g(0) is a simple root of D0(g, 0), g is the one series
    root of D0 through (g0, 0), and its coefficients follow from D0 by an
    integer lift.  With g0 = a/b, n = deg_g D0 and F(u, x) = b^n *
    D0(u/b, x), e = F_u(a, 0) is a nonzero integer, and
    G(v, z) = F(a + e*v, e^2*z) / e^2 is an integer polynomial v + R(v, z)
    with R free of the monomials 1 and v: every other term keeps a factor
    e^2.  Its root v(z) with v(0) = 0 has integer coefficients
    v_k = -[z^k] R(v, z), and [z^k] v^m for m >= 2 reads only v_1, ...,
    v_(k-1).  Then b*g(x) = a + e*v(x/e^2), so g_k = v_k / (b*e^(2k-1)).
    Each step is O(n*k) integer products, and a longer prefix extends the
    lift where it stopped.
    """

    __slots__ = ("D", "D0", "g0", "_e", "_R", "_pows")

    def __init__(self, D: MPoly, g0: Fraction):
        self.D = D
        self.D0 = D0 = D.divexact(MPoly.var("x") ** D.valuation("x"))
        self.g0 = g0
        a, b = g0.numerator, g0.denominator
        n = D0.degree("g")
        F = {}   # F[j][i] = b^(n-i) * [g^i x^j] D0
        for (i, j), c in D0.items(("g", "x")):
            F.setdefault(j, [0] * (n + 1))[i] = c * b ** (n - i)
        low = F.get(0, [0] * (n + 1))
        if sum(c * a ** i for i, c in enumerate(low)):
            raise SelfCheckFailed("the annihilator does not vanish at (g0, 0)")
        self._e = e = sum(i * c * a ** (i - 1) for i, c in enumerate(low) if i)
        # R[(m, j)] = [v^m z^j] G, each e^(m+2j-2) * sum_i F_ij C(i, m) a^(i-m)
        self._R = {}
        if e:
            for j, row in F.items():
                for m in range(n + 1):
                    if j or m > 1:
                        c = sum(row[i] * comb(i, m) * a ** (i - m)
                                for i in range(m, n + 1))
                        if c:
                            self._R[(m, j)] = c * e ** (m + 2 * j - 2)
        # _pows[m] = [z^0..z^k] v^m for m = 0..n; _pows[1] is v itself
        self._pows = [[1]] + [[0] for _ in range(n)]

    @property
    def simple(self) -> bool:
        """D0_g(g0, 0) != 0: the lift applies."""
        return self._e != 0

    @property
    def order(self) -> int:
        """The order through which g is lifted so far."""
        return len(self._pows[1]) - 1

    def series(self, K: int) -> QSeries:
        """g through x^K, the lift extended as far as needed."""
        pows, R = self._pows, self._R
        v = pows[1]
        for k in range(len(v), K + 1):
            pows[0].append(0)
            for m in range(2, len(pows)):
                prev = pows[m - 1]
                pows[m].append(sum(v[t] * prev[k - t] for t in range(1, k)))
            # R has no v^1 z^0 term, so v_k is not read here
            v.append(-sum(c * pows[m][k - j]
                          for (m, j), c in R.items() if j <= k))
        b, e = self.g0.denominator, self._e
        return QSeries([self.g0] + [Fraction(v[k], b * e ** (2 * k - 1))
                                    for k in range(1, K + 1)])


def lift_g(eq: FuncEq, wp: WellPosedness) -> GLift | None:
    """g ready to lift from D, or None where the expansion route must run.

    For an equation that passes `funceq.solvable_at_every_order`.  None
    when D cannot be built (ResourceCeiling, ZeroAnnihilator), and the
    expansion route raises the same error at the stage it always has, or
    when g0 is not a simple root of D0(g, 0).
    """
    witness = g = None
    if wp.mode == "kernel" and eq.Q.degree("psi") > 1:
        # the quadratic method's nonvanishing checks read g through x^1
        witness = expand_series(eq, 1, wp)
        g = specialize_y0(witness).coeffs
    try:
        D = _annihilator(eq.Q, wp.mode, witness, g)
    except (ResourceCeiling, ZeroAnnihilator):
        return None
    lift = GLift(D, wp.gamma0)
    return lift if lift.simple else None


def certify(eq: FuncEq, p1: AlgEq, witness: SeriesX | GLift,
            wp: WellPosedness | None = None) -> Certificate:
    """Prove or refute the guessed equation p1 for g = psi(x, 0).

    The witness is psi's expansion through x^K, or g lifted from D through
    x^K.  ``wp`` is ``check_well_posed(eq)``, computed here when not given.

    On a lifted g: proven when p1 holds on the lifted prefix through x^K,
    so p1(g0, 0) = 0, and p1 divides D0.  Those two facts are the proof;
    the rest of the prefix only sets checkedOrder.  Write D0 = p1*C.  Then
    D0_g(g0, 0) = p1_g(g0, 0)*C(g0, 0) is nonzero, so C(g, x) has a
    nonzero constant term, and p1(g, x)*C(g, x) = D0(g, x) = 0 leaves
    p1(g, x) = 0.  Nothing else is checked: the series exists by
    `funceq.solvable_at_every_order`, and g is the root of D0 that the
    lift follows.

    On an expansion: proven when p1 divides D, and with e1 and e the
    x-valuations at the witness of dp1/dg and of the g-derivative of D's
    squarefree primitive part, K >= 2*e1 + 1 and K >= 2*e + 1.  By
    Hensel's lemma p1 then has a root that agrees with the witness through
    order K - e1 >= e, and D has only one such root, g.  The witness is
    checked against Q through order K, which ties it to the unique series
    solution.  A witness too short for either Hensel step raises
    InsufficientData.

    Refuted: p1 fails on the witness, or does not divide D.  An equation
    that is not well posed raises the typed error of `check_well_posed`:
    without a unique series solution there is nothing to prove.
    """
    if wp is None:
        wp = check_well_posed(eq)
    K = witness.order
    p1g = p1.P.rename_var("f", "g")
    if isinstance(witness, GLift):
        # a fit through order 0 is p1(g0, 0) = 0
        bad = _vanishing_order(p1g, None, witness.series(K), K + 1)
        if bad is None and witness.D0.try_divexact(p1g) is not None:
            return Certificate(witness.D, 0, K, wp, "proven")
        return Certificate(witness.D, 0, K + 1 if bad is None else bad, wp,
                           "refuted")

    g_hat = specialize_y0(witness).coeffs
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
