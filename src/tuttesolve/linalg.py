"""Exact rational linear algebra for the guessers.

``nullspace`` is a fraction-free (Bareiss) kernel over Q; ``nullspace_field``
the same echelon construction over any exact field.  ``relations`` is the
one search both guessers run: a walk over a caller's grid of shapes that
turns each shape's kernel into integer candidates in one fixed order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .polyq import clear_denominators, trim


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
    free_cols = [c for c in range(C) if c not in set(piv_cols)]
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


def relations(shapes: Iterable[tuple[int, int]],
              rows_of: Callable[[int, int], list]) -> Iterator[list[list[int]]]:
    """Integer kernel vectors of each shape's matrix, best first.

    For each (A, B) in ``shapes``, in the given order, the kernel of
    ``rows_of(A, B)`` (columns a-major over 0 <= a <= A, 0 <= b <= B) is
    cleared to primitive integers and yielded as trimmed grids
    ``[[c_a0, ..., c_ab], ...]``: no trailing zero in a row, no trailing
    empty row.  One shape's grids come ordered by (attained A, attained B,
    max |c|, basis position).  Lazy: a shape's matrix is built only once
    the consumer asks past the previous shape.
    """
    for A, B in shapes:
        cands = []
        for pos, v in enumerate(nullspace(rows_of(A, B))):
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
    free_cols = [c for c in range(C) if c not in set(piv_cols)]
    basis = []
    for fc in free_cols:
        v = [zero] * C
        v[fc] = one
        for pr, pc in enumerate(piv_cols):
            if fc > pc:
                v[pc] = zero - M[pr][fc]
        basis.append(v)
    return basis
