"""Exact rational linear algebra for the guessers.

``nullspace`` is a fraction-free (Bareiss) kernel over Q; ``nullspace_field``
the same echelon construction over any exact field.  ``relations`` is the
one search both guessers run: a walk over a caller's grid of shapes that
turns each shape's kernel into integer candidates in one fixed order.  A
shape whose matrix has full column rank mod the prime ``_P`` has an empty
kernel over Q, so it is skipped without ``nullspace``: a proof, not a
heuristic.  Any other shape gets the exact kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .polyq import clear_denominators, trim

#: A word-size prime.  Rank mod _P is at most rank over Q: a nonzero C x C
#: minor mod _P is the image of a nonzero minor over Q.
_P = 2**31 - 1


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of int or Fraction rows, one vector
    per free column.

    Deterministic: pivots are chosen first-nonzero scanning top down, and
    each basis vector has value 1 at its free column.
    """
    R = len(rows)
    if R == 0:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    C = len(rows[0])
    # a row's sign and scale cannot change the basis, so clear each one to
    # a primitive int row, padded back over the zeros the clearing trimmed
    M = []
    for row in rows:
        ints, _ = clear_denominators(row)
        M.append(ints + [0] * (C - len(ints)))
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(C):
        pr = next((i for i in range(r, R) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        p = M[r][c]
        for i in range(r + 1, R):
            fi = M[i][c]
            M[i] = [(p * M[i][j] - fi * M[r][j]) // prev for j in range(C)]
        prev = p
        piv_cols.append(c)
        r += 1
        if r == R:
            break
    free_cols = sorted(set(range(C)).difference(piv_cols))
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * C
        v[fc] = Fraction(1)
        # echelon back-substitution, bottom pivot row first
        for pr in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[pr]
            acc = Fraction(0)
            for j in range(pc + 1, C):
                if v[j]:
                    acc += M[pr][j] * v[j]
            v[pc] = -acc / M[pr][pc]
        basis.append(v)
    return basis


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
    cleared to primitive integers and yielded as trimmed grids
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
        for pos, v in enumerate(nullspace(rows)):
            ints, _ = clear_denominators(v)
            grid = trim([trim(ints[a * (B + 1):(a + 1) * (B + 1)])
                         for a in range(A + 1)])
            cands.append(((len(grid) - 1, max(len(row) for row in grid) - 1,
                           max(abs(c) for c in ints), pos), grid))
        cands.sort(key=lambda t: t[0])
        yield from (grid for _, grid in cands)


def nullspace_field(rows, zero, one):
    """Right-nullspace basis over an arbitrary exact field.

    Elements need +, -, *, /, == and a falsy zero test via == zero.
    Same deterministic echelon construction as `nullspace`.
    """
    R = len(rows)
    if R == 0:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    C = len(rows[0])
    M = [list(r) for r in rows]
    piv_cols: list[int] = []
    r = 0
    for c in range(C):
        pr = next((i for i in range(r, R) if not M[i][c] == zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = one / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(R):
            if i != r and not M[i][c] == zero:
                fi = M[i][c]
                M[i] = [a - fi * b for a, b in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
        if r == R:
            break
    free_cols = sorted(set(range(C)).difference(piv_cols))
    basis = []
    for fc in free_cols:
        v = [zero] * C
        v[fc] = one
        for pr, pc in enumerate(piv_cols):
            if fc > pc:
                v[pc] = zero - M[pr][fc]
        basis.append(v)
    return basis
