"""Exact linear algebra: the guessers' relation search and the ODE kernel.

One fraction-free (Bareiss) forward elimination, ``_eliminate``, serves
every ring here and ``mpoly.resultant``'s determinant too.  ``_kernel``
back-substitutes from it to a Cramer basis of the kernel.
``_int_kernel`` runs that over Z on rows cleared of denominators;
``nullspace`` scales each of its vectors to 1 at its free column, a kernel
over Q for the branch search's Pade step; ``nullspace_field`` runs it on
``MPoly`` entries for the ODE step, a kernel over the fraction field of
the entries' ring with the basis vectors in the ring itself.
``relations`` is the one search both guessers run: a walk over a
caller's grid of shapes that turns each shape's integer kernel into
primitive candidates in one fixed order.  The shapes of one family share
their rows and grow by columns, so one elimination mod the prime ``_P``
per family serves them all, each shape reducing only the columns it adds.
A shape whose columns are independent mod _P has an empty kernel over Q,
so it is skipped before any exact row is built: a proof, not a
heuristic.  Any other shape takes the exact kernel on the family's pivot
rows mod _P, checked exactly against every row, and on all rows if the
check fails, so the candidates are those of the kernel of all rows.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv
from typing import Callable, Iterable, Iterator, Sequence

from .mpoly import MPoly
from .polyq import clear_denominators, ipp, peval_pow2, trim

#: A word-size prime.  Rank mod _P is at most rank over Q: a nonzero C x C
#: minor mod _P is the image of a nonzero minor over Q.
_P = 2**31 - 1


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of int or Fraction rows, one vector
    per free column.

    Deterministic: pivots are chosen first-nonzero scanning top down, and
    each basis vector has value 1 at its free column.
    """
    basis = []
    for v in _int_kernel(rows):
        # a Cramer vector's last nonzero entry is its value at its free column
        d = next(a for a in reversed(v) if a)
        basis.append([Fraction(a, d) for a in v])
    return basis


def _int_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """`_kernel`'s integer Cramer basis of int or Fraction rows."""
    # a row's sign and scale cannot change the basis, so clear each one to
    # a primitive int row, padded back over the zeros the clearing trimmed
    M = []
    for row in rows:
        ints, _ = clear_denominators(row)
        M.append(ints + [0] * (len(row) - len(ints)))
    return _kernel(M, 0, 1, floordiv)


def relations(shapes: Iterable[tuple[int, int]],
              column: Callable[[int, int, int], Sequence]) -> Iterator[list[list[int]]]:
    """Integer kernel vectors of each shape's matrix, best first.

    Shape (A, B) has the columns (a, b), a-major over 0 <= a <= A,
    0 <= b <= B, and ``column(A, a, b)`` is column (a, b) of family A, an
    exact int or Fraction column.  A family's shapes share their rows, and
    each one's B exceeds the B of the family's shape before it, so its
    columns contain theirs; each column is asked for once.  For each shape,
    in the given order, the kernel is taken as `_kernel`'s integer vectors,
    each made primitive with its last nonzero entry positive, and yielded
    as trimmed grids ``[[c_a0, ..., c_ab], ...]``: no trailing zero in a
    row, no trailing empty row.  One shape's grids come ordered by
    (attained A, attained B, max |c|, basis position).  Lazy: a shape's
    columns are asked for only once the consumer asks past the previous
    shape.  A shape of full column rank mod _P yields nothing and builds
    no rows: its kernel is {0}.  Any other shape takes the kernel on the
    pivot rows of its family's basis mod _P (`_Family`), checked exactly
    against every row; the kernel of all rows replaces it if the check
    fails.
    """
    fams: dict[int, _Family] = {}
    for A, B in shapes:
        fam = fams.setdefault(A, _Family())
        if B <= fam.B:
            raise ValueError(f"shape {(A, B)} does not grow family {A}")
        for b in range(fam.B + 1, B + 1):
            for a in range(A + 1):
                fam.add((a, b), column(A, a, b))
        fam.B = B
        C = (A + 1) * (B + 1)
        if fam.basis is not None and len(fam.basis) == C:
            continue
        cols = [fam.cols[a, b] for a in range(A + 1) for b in range(B + 1)]
        cands = []
        for pos, v in enumerate(_family_kernel(cols, fam.basis)):
            ints = ipp(v)
            grid = trim([trim(ints[a * (B + 1):(a + 1) * (B + 1)])
                         for a in range(A + 1)])
            cands.append(((len(grid) - 1, max(len(row) for row in grid) - 1,
                           max(abs(c) for c in ints), pos), grid))
        cands.sort(key=lambda t: t[0])
        yield from (grid for _, grid in cands)


class _Family:
    """The exact columns of one shape family, and a column-echelon basis
    of their images mod _P.

    Each column goes into the basis reduced by the basis columns before
    it, so the shapes of a family share one elimination.  A shape's C
    columns are independent mod _P exactly when the basis has C columns.
    A column mod _P is packed into one int, row i in the W-bit slot i, so
    a reduction step is one big-int product and sum; W leaves room for a
    sum of R products below _P**2, so no slot carries into the next.
    """

    __slots__ = ("B", "cols", "basis", "W", "ones")

    def __init__(self):
        self.B = -1
        self.cols: dict[tuple[int, int], Sequence] = {}
        # (pivot row r, the inverse of the column's entry there, and _P
        # minus the column at the rows from r on, 0 at the rows before r):
        # a basis column is 0 at the rows before its pivot row and at the
        # pivot rows placed before its own.  None once a column with a
        # denominator divisible by _P leaves the family unproven.
        self.basis: list[tuple[int, int, int]] | None = []
        self.W = 0
        self.ones = 0       # 1 in every slot

    def add(self, key: tuple[int, int], col: Sequence) -> None:
        self.cols[key] = col
        if self.basis is None:
            return
        if {*map(type, col)} == {int}:
            v = [a % _P for a in col]
        else:
            v = []
            for a in col:
                d = a.denominator % _P
                if not d:
                    self.basis = None
                    return
                v.append(a.numerator * pow(d, -1, _P) % _P)
        if not self.W:
            self.W = 64 + len(col).bit_length()
            self.ones = peval_pow2([1] * len(col), self.W)
        W, ones, slot = self.W, self.ones, (1 << self.W) - 1
        u = peval_pow2(v, W)
        for r, inv, neg in self.basis:
            f = (u >> r * W & slot) * inv % _P
            if f:
                u += f * neg
        # each slot back into [0, _P): _P = 2^31 - 1 is a Mersenne prime,
        # so folding a slot's bits above 31 onto its low 31 keeps it mod _P
        low, high = ones * _P, ones * ((1 << W - 31) - 1)
        while u & ~low:
            u = (u & low) + (u >> 31 & high)
        u += ones                              # now _P + 1 = 2^31 folds to 1
        u = (u & low) + (u >> 31 & high) - ones
        if u:
            r = ((u & -u).bit_length() - 1) // W
            self.basis.append((r, pow(u >> r * W & slot, -1, _P),
                               (low - u) >> r * W << r * W))


def _family_kernel(cols: list[Sequence], basis) -> list[list[int]]:
    """`_int_kernel` of the matrix with these exact columns, taken on the
    basis's pivot rows when that is exact.

    The r pivot rows hold a nonsingular r x r minor mod _P, so their rank
    over Q is at least r and their kernel contains the whole one.  When
    each of its Cramer vectors annihilates every row, the two kernels are
    the same space, with the same free columns and so the same Cramer
    vectors up to scale.  Otherwise (rank over Q above r), the kernel of
    all rows is taken.
    """
    R = len(cols[0])
    if basis:
        kernel = _int_kernel([[c[i] for c in cols]
                              for i in sorted(r for r, _, _ in basis)])
        if all(_annihilates(cols, v) for v in kernel):
            return kernel
    return _int_kernel([[c[i] for c in cols] for i in range(R)])


def _annihilates(cols: list[Sequence], v: list[int]) -> bool:
    acc = [0] * len(cols[0])
    for c, x in zip(cols, v):
        if x:
            acc = [s + x * t for s, t in zip(acc, c)]
    return not any(acc)


# keeps its name: perfbench/tracing.py patches it by name
def nullspace_field(rows: Sequence[Sequence[MPoly]]) -> list[list[MPoly]]:
    """Basis, over the fraction field of its entries' ring, of the right
    nullspace of rows of ``MPoly`` entries, one vector per free column:
    the Cramer vectors of `_kernel`, with entries in the ring."""
    return _kernel(rows, MPoly.zero(), MPoly.const(1), MPoly.divexact)


def _kernel(rows: Sequence[Sequence], zero, one, div) -> list[list]:
    """Cramer basis of the right nullspace of rows over an integral domain
    whose exact division is ``div``, one vector per free column.

    The echelon form is `_eliminate`'s.  The vector of a free column is
    there the last pivot to its left (``one`` if none) and zero at every
    other free column, which makes it the Cramer solution, with entries in
    the ring.
    """
    if not rows:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    C = len(rows[0])
    M = [list(r) for r in rows]
    piv_cols, _ = _eliminate(M, div)
    basis = []
    for fc in sorted(set(range(C)).difference(piv_cols)):
        m = sum(1 for pc in piv_cols if pc < fc)
        v = [zero] * C
        v[fc] = M[m - 1][piv_cols[m - 1]] if m else one
        # echelon back-substitution, bottom pivot row first
        for k in range(m - 1, -1, -1):
            pc = piv_cols[k]
            acc = zero
            for j in range(pc + 1, C):
                if v[j] and M[k][j]:
                    acc += M[k][j] * v[j]
            v[pc] = div(-acc, M[k][pc])
        basis.append(v)
    return basis


def _eliminate(M: list[list], div) -> tuple[list[int], int]:
    """Fraction-free forward elimination of M in place, over an integral
    domain whose exact division is ``div``; the pivot columns and the sign
    (+1 or -1) of the row swaps made.

    Bareiss (Math. Comp. 22, 1968), pivots chosen first-nonzero scanning
    top down: every entry left below a pivot is a minor of the matrix, so
    each division by the previous pivot is exact.  Row k of the result is
    the k-th pivot row, right of its pivot; entries left of a row's pivot
    are stale.  On a square matrix of full rank, sign times the last pivot
    is the determinant.
    """
    R, C = len(M), len(M[0])
    piv_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(C):
        if r == R:
            break
        pr = next((i for i in range(r, R) if M[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
            sign = -sign
        p, top = M[r][c], M[r][c + 1:]
        prev = M[r - 1][piv_cols[-1]] if r else None
        for row in M[r + 1:]:
            lead = row[c]
            new = [a * p - lead * b for a, b in zip(row[c + 1:], top)]
            row[c + 1:] = new if prev is None else [div(a, prev) for a in new]
        piv_cols.append(c)
        r += 1
    return piv_cols, sign
