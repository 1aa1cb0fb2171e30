"""Frozen regression values for the flagship equation.

The sequence values and the minimized recurrence are anchored to the
independent closed form in tests/_oracle.py.  The structural snapshots
(exact P1, degrees and support sizes of P2 and of the annihilator D(g, x)
that proves P1, the certificate numbers) were produced by certified runs
and are pinned here so that any behavioral drift shows up as a test
failure.
"""

TUTTE_EQ = "y**2*psi**2+(x+x*g*y-y-y**2)*psi+y-x*g"

# P1 as rows per power of f; row i lists coefficients of x^0, x^1, ...
TUTTE_P1 = [
    [-1, 16],
    [1, -20],
    [0, 3, 8],
    [0, 0, 3],
    [0, 0, 0, 1],
]
TUTTE_P1_DEGF = 4
TUTTE_P1_DEGX = 3

TUTTE_P2_DEGREES = {"psi": 8, "x": 4, "y": 8}
TUTTE_P2_SUPPORT = 81

TUTTE_D_DEGREES = {"g": 4, "x": 7}
TUTTE_D_SUPPORT = 8

# the certificate's bound: the order m at which the cofactor C of P1 in
# D0 = P1^k * C is first nonzero at g; and the witness order
TUTTE_D_SLACK = 0
TUTTE_D_CHECKED_ORDER = 30

TUTTE_KERNEL_MODE = "kernel"
TUTTE_KERNEL_VALUATION = 1

TUTTE_ODE_COEFFS = (
    (6, -120),
    (0, 114, -1392),
    (0, 0, 135, -1408),
    (0, 0, 0, 27, -256),
)
TUTTE_ODE_INHOM = (-6,)
