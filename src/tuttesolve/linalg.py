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
primitive candidates in one fixed order.  A shape whose matrix has full
column rank mod the prime ``_P`` has an empty kernel over Q, so it is
skipped without the exact kernel: a proof, not a heuristic.  Any other
shape gets the exact kernel.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv
from typing import Callable, Iterable, Iterator, Sequence

from .mpoly import MPoly
from .polyq import clear_denominators, ipp, trim

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


def _full_column_rank_mod_p(rows: Sequence[Sequence[Fraction]]) -> bool:
    """True when the int or Fraction rows have rank C (their width) mod _P,
    which proves their kernel over Q is {0}.

    Rows go one at a time into an echelon basis, so a full-rank matrix
    stops at its C-th pivot.  False only means unproven: a denominator
    divisible by _P, or fewer than C pivots mod _P.
    """
    C = len(rows[0]) if rows else 0
    basis: list[tuple[int, list[int]]] = []   # (pivot, row), row[pivot] == 1
    for row in rows:
        v = []
        for a in row:
            d = a.denominator % _P
            if not d:
                return False
            v.append(a.numerator * pow(d, -1, _P) % _P if d != 1
                     else a.numerator % _P)
        # each basis row is zero at the pivots placed before its own, so
        # clearing in insertion order leaves v zero at every pivot
        for c, b in basis:
            f = v[c]
            if f:
                v = [(s - f * t) % _P for s, t in zip(v, b)]
        c = next((j for j, s in enumerate(v) if s), None)
        if c is None:
            continue
        inv = pow(v[c], -1, _P)
        basis.append((c, [s * inv % _P for s in v]))
        if len(basis) == C:
            return True
    return False


def relations(shapes: Iterable[tuple[int, int]],
              rows_of: Callable[[int, int], list]) -> Iterator[list[list[int]]]:
    """Integer kernel vectors of each shape's matrix, best first.

    For each (A, B) in ``shapes``, in the given order, the kernel of
    ``rows_of(A, B)`` (columns a-major over 0 <= a <= A, 0 <= b <= B) is
    taken as `_kernel`'s integer vectors, each made primitive with its
    last nonzero entry positive, and yielded as trimmed grids
    ``[[c_a0, ..., c_ab], ...]``: no trailing zero in a row, no trailing
    empty row.  One shape's grids come ordered by (attained A, attained B,
    max |c|, basis position).  Lazy: a shape's matrix is built only once
    the consumer asks past the previous shape.  A shape of full column rank
    mod _P yields nothing without an exact kernel; its kernel is {0}.
    """
    for A, B in shapes:
        rows = rows_of(A, B)
        if _full_column_rank_mod_p(rows):
            continue
        cands = []
        for pos, v in enumerate(_int_kernel(rows)):
            ints = ipp(v)
            grid = trim([trim(ints[a * (B + 1):(a + 1) * (B + 1)])
                         for a in range(A + 1)])
            cands.append(((len(grid) - 1, max(len(row) for row in grid) - 1,
                           max(abs(c) for c in ints), pos), grid))
        cands.sort(key=lambda t: t[0])
        yield from (grid for _, grid in cands)


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
