"""Exact nullspace computations and the relation search of the guessers."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuttesolve import MPoly, linalg
from tuttesolve.linalg import _P, nullspace, nullspace_field, relations

from . import _oracle


def rank_of(rows):
    m = [list(r) for r in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = F(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                fac = m[r][c]
                m[r] = [v - fac * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_simple_kernel():
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert v[2] == 0 and v[0] == -v[1] and any(v)


def test_full_rank_has_trivial_kernel():
    rows = [[F(2), F(1)], [F(1), F(1)]]
    assert nullspace(rows) == []


def test_randomized_rank_nullity_and_annihilation():
    rng = random.Random(20260815)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
        basis = nullspace(rows)
        assert len(basis) == m - rank_of(rows)
        for v in basis:
            assert any(v)
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def test_deterministic_echelon_output():
    rows = [[F(1), F(2), F(3)]]
    b1 = nullspace(rows)
    b2 = nullspace([list(r) for r in rows])
    assert b1 == b2
    # one basis vector per free column, marked with a 1
    assert len(b1) == 2
    assert b1[0][1] == 1 and b1[1][2] == 1


def test_row_scale_and_sign_do_not_change_the_basis():
    # all-zero rows and rows ending in zeros check that each cleared row is
    # padded back to the full width
    rng = random.Random(20261018)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(n):
            row = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            cut = rng.choice([0, rng.randint(0, m), m])
            rows.append(row[:cut] + [F(0)] * (m - cut))
        scales = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in rows]
        scaled = [[c * k for c in row] for row, k in zip(rows, scales)]
        assert nullspace(scaled) == nullspace(rows)


def test_int_rows_give_the_fraction_basis():
    rows = [[2, 0, -4, 0], [0, 0, 0, 0], [1, 3, 0, 0]]
    assert nullspace(rows) == nullspace([[F(c) for c in r] for r in rows])


def by_rows(rows, B):
    """The column callback of one shape's rows, columns a-major over
    0 <= b <= B."""
    return lambda A, a, b: [row[a * (B + 1) + b] for row in rows]


class TestRelations:
    # columns a-major over 0 <= a <= 1, 0 <= b <= 2; column 3 = (1, 0)
    # depends on columns 0 and 2, column 4 = (1, 1) on column 0 alone
    ROWS = [[1, 0, 0, 1, 2, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 1]]

    def test_candidates_ordered_by_attained_shape_not_basis_position(self):
        basis = nullspace(self.ROWS)
        assert basis[0] == [-1, 0, -1, 1, 0, 0]   # attains (1, 2)
        assert basis[1] == [-2, 0, 0, 0, 1, 0]    # attains (1, 1)
        grids = list(relations([(1, 2)], by_rows(self.ROWS, 2)))
        assert grids == [[[-2], [0, 1]], [[-1, 0, -1], [1]]]

    def test_ties_go_by_height_then_position(self):
        # both kernel vectors attain (1, 1); the later one is lower
        rows = [[1, 0, 7, 0], [0, 1, 5, 1]]
        grids = list(relations([(1, 1)], by_rows(rows, 1)))
        assert grids == [[[0, -1], [0, 1]], [[-7, -5], [1]]]
        # same attained shape and height: basis position decides
        rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
        grids = list(relations([(1, 1)], by_rows(rows, 1)))
        assert grids == [[[-1, -1], [1]], [[-1], [0, 1]]]

    def test_candidates_are_primitive_integer_kernel_vectors(self):
        rows = [[F(1, 2), F(1, 3), F(-1, 6), F(0)]]
        for grid in relations([(1, 1)], by_rows(rows, 1)):
            flat = [c for row in grid for c in row]
            assert all(isinstance(c, int) for c in flat)
            assert math.gcd(*flat) == 1 and grid[-1][-1] > 0
            v = [c for row in grid for c in row + [0] * (2 - len(row))]
            v += [0] * (4 - len(v))
            assert sum(a * b for a, b in zip(rows[0], v)) == 0

    def test_later_shapes_are_not_built_once_the_consumer_stops(self):
        asked = []

        def column(A, a, b):
            asked.append((A, a, b))
            if b == 3:
                raise AssertionError("built a shape after the consumer stopped")
            # full rank at (0, 1), a kernel at (0, 2)
            return [[1, 0], [0, 1], [0, 0]][b]

        gen = relations([(0, 1), (0, 2), (0, 3)], column)
        assert next(gen) == [[0, 0, 1]]
        # each column once, and only the ones the shapes so far add
        assert asked == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]

    def test_a_shape_must_grow_its_family(self):
        with pytest.raises(ValueError):
            list(relations([(0, 1), (1, 0), (0, 1)],
                           lambda A, a, b: [1, b, b * b]))


ENTRIES = st.one_of(st.integers(-4, 4),
                    st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def family_tables(draw):
    """(shapes, {(A, a, b): column}): up to three families A with rows R
    and largest B, their shapes interleaved, each family's B growing.
    Each family is twisted one of five ways: untouched, a planted kernel
    vector, a column scaled by _P (its rank drops only mod _P), an entry
    whose denominator _P divides, or a row scaled by _P (zero mod _P but
    not over Q, so a kernel on the pivot rows mod _P can be too large)."""
    fams = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    shapes, table = [], {}
    for A in fams:
        Bs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                           unique=True))
        keys = [(a, b) for a in range(A + 1) for b in range(max(Bs) + 1)]
        C = len(keys)
        R = draw(st.integers(1, C + 3))
        rows = draw(st.lists(st.lists(ENTRIES, min_size=C, max_size=C),
                             min_size=R, max_size=R))
        twist = draw(st.sampled_from(["none", "kernel", "scale",
                                      "denominator", "row"]))
        k = draw(st.integers(0, C - 1))
        if twist == "kernel":
            v = draw(st.lists(st.integers(-3, 3), min_size=C, max_size=C))
            for row in rows:
                row[k] = -sum(row[j] * v[j] for j in range(C) if j != k)
        elif twist == "scale":
            for row in rows:
                row[k] *= _P
        elif twist == "denominator":
            num = draw(st.integers(1, 4))
            den = draw(st.sampled_from([_P, 2 * _P]))
            rows[draw(st.integers(0, R - 1))][k] = F(num, den)
        elif twist == "row":
            i = draw(st.integers(0, R - 1))
            rows[i] = [c * _P for c in rows[i]]
        for j, (a, b) in enumerate(keys):
            table[A, a, b] = [row[j] for row in rows]
        shapes.append([(A, B) for B in sorted(Bs)])
    # interleave the families, keeping each one's order
    order = []
    while any(shapes):
        fam = draw(st.sampled_from([s for s in shapes if s]))
        order.append(fam.pop(0))
    return order, table


@given(family_tables())
@settings(max_examples=200, deadline=None)
def test_mod_p_skip_leaves_the_candidates_unchanged(args):
    # neither the skip nor the kernel on the pivot rows mod _P changes
    # what the exact kernel of all rows of every shape gives
    shapes, table = args

    def column(A, a, b):
        return table[A, a, b]

    assert list(relations(shapes, column)) == _oracle.exact_relations(shapes, column)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The matrices relations hands to the exact kernel."""
    calls = []
    real = linalg._int_kernel

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "_int_kernel", spy)
    return calls


class TestModPSkip:
    def test_full_rank_shape_gets_no_exact_kernel(self, kernel_calls):
        # family 0 over three rows: columns b = 0, 1 are independent,
        # b = 2 is their sum
        cols = [[1, F(1, 3), 5], [2, 4, 7], [3, F(13, 3), 12]]
        asked = []

        def column(A, a, b):
            asked.append(b)
            return cols[b]

        grids = list(relations([(0, 1), (0, 2)], column))
        assert grids == [[[-1, -1, 1]]]
        assert asked == [0, 1, 2]
        # (0, 1) got no kernel; (0, 2) got the two pivot rows mod _P
        assert kernel_calls == [[[1, 2, 3], [F(1, 3), 4, F(13, 3)]]]

    def test_kernel_on_the_pivot_rows_when_the_ranks_agree(self, kernel_calls):
        # rank 2 over Q and mod _P, five rows: the kernel needs two of them
        rows = [[1, 0, 1], [0, 1, 1], [2, 3, 5], [1, 1, 2], [4, 0, 4]]
        grids = list(relations([(0, 2)], by_rows(rows, 2)))
        assert grids == _oracle.exact_relations([(0, 2)], by_rows(rows, 2))
        assert kernel_calls == [rows[:2]]

    def test_rank_lost_only_mod_p_falls_through(self, kernel_calls):
        for rows in ([[1, 0], [0, _P]],            # rank 2 over Q, 1 mod _P
                     [[F(1, _P), 0], [0, 1]]):     # no image mod _P
            assert list(relations([(0, 1)], by_rows(rows, 1))) == []
        # the first is tried on its one pivot row, whose kernel fails the
        # exact check, then on all rows; the second on all rows at once
        assert kernel_calls == [[[1, 0]], [[1, 0], [0, _P]],
                                [[F(1, _P), 0], [0, 1]]]


def test_field_nullspace_matches_fraction_version():
    # on constant entries each vector is nullspace's, scaled by its value
    # at the free column: the last pivot to the left of that column
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        data = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        b_frac = nullspace(data)
        b_ring = nullspace_field([[MPoly.const(c) for c in r] for r in data])
        assert len(b_frac) == len(b_ring)
        for vf, vr in zip(b_frac, b_ring):
            ints = [c.constant_value() for c in vr]
            t = ints[vf.index(1)]
            assert t != 0
            assert ints == [t * c for c in vf]


xpolys = st.lists(st.integers(min_value=-4, max_value=4), max_size=4).map(
    lambda cs: MPoly.from_items(("x",), (((k,), c) for k, c in enumerate(cs))))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_field_nullspace_over_polynomials_in_x(R, C, data):
    # a last column that is a Z[x]-combination of the others plants a
    # kernel vector; every basis vector must annihilate every row exactly
    rows = [data.draw(st.lists(xpolys, min_size=C, max_size=C)) for _ in range(R)]
    lam = data.draw(st.lists(xpolys, min_size=C, max_size=C))
    rows = [r + [sum((a * b for a, b in zip(r, lam)), MPoly.zero())]
            for r in rows]
    basis = nullspace_field(rows)
    assert basis
    for v in basis:
        assert any(v)
        for r in rows:
            assert sum((a * b for a, b in zip(r, v)), MPoly.zero()).is_zero


def det(M):
    """Laplace expansion along the first row."""
    if not M:
        return MPoly.const(1)
    return sum(((-1) ** j * M[0][j] * det([r[:j] + r[j + 1:] for r in M[1:]])
                for j in range(len(M))), MPoly.zero())


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_field_nullspace_is_the_cramer_solution(R, data):
    # R x (R+1) with an invertible left block: the one vector is, up to
    # the sign of the row swaps, det(A) at the last column and minus the
    # determinant with column k swapped for the last one at column k.
    # nullspace runs the same kernel over Z and scales that vector to 1
    # at its free column.
    over_z = data.draw(st.booleans())
    entries = st.integers(-9, 9).map(MPoly.const) if over_z else xpolys
    rows = [data.draw(st.lists(entries, min_size=R + 1, max_size=R + 1))
            for _ in range(R)]
    A = [r[:R] for r in rows]
    assume(not det(A).is_zero)
    cramer = [-det([r[:k] + [r[R]] + r[k + 1:R] for r in rows])
              for k in range(R)] + [det(A)]
    if over_z:
        ints = [[c.constant_value() for c in r] for r in rows]
        d = cramer[R].constant_value()
        assert nullspace(ints) == [[F(c.constant_value(), d) for c in cramer]]
    else:
        assert nullspace_field(rows) in ([cramer], [[-c for c in cramer]])
