"""Exact nullspace computations and the relation search of the guessers."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuttesolve import MPoly, linalg
from tuttesolve.linalg import _P, nullspace, nullspace_field, relations


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
        grids = list(relations([(1, 2)], lambda A, B: self.ROWS))
        assert grids == [[[-2], [0, 1]], [[-1, 0, -1], [1]]]

    def test_ties_go_by_height_then_position(self):
        # both kernel vectors attain (1, 1); the later one is lower
        rows = [[1, 0, 7, 0], [0, 1, 5, 1]]
        grids = list(relations([(1, 1)], lambda A, B: rows))
        assert grids == [[[0, -1], [0, 1]], [[-7, -5], [1]]]
        # same attained shape and height: basis position decides
        rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
        grids = list(relations([(1, 1)], lambda A, B: rows))
        assert grids == [[[-1, -1], [1]], [[-1], [0, 1]]]

    def test_candidates_are_primitive_integer_kernel_vectors(self):
        rows = [[F(1, 2), F(1, 3), F(-1, 6), F(0)]]
        for grid in relations([(1, 1)], lambda A, B: rows):
            flat = [c for row in grid for c in row]
            assert all(isinstance(c, int) for c in flat)
            assert math.gcd(*flat) == 1 and grid[-1][-1] > 0
            v = [c for row in grid for c in row + [0] * (2 - len(row))]
            v += [0] * (4 - len(v))
            assert sum(a * b for a, b in zip(rows[0], v)) == 0

    def test_later_shapes_are_not_built_once_the_consumer_stops(self):
        built = []

        def rows_of(A, B):
            built.append((A, B))
            if (A, B) == (0, 3):
                raise AssertionError("built a shape after the consumer stopped")
            # full rank at (0, 1), a kernel at (0, 2)
            return [[1, 0, 0][:B + 1], [0, 1, 0][:B + 1]]

        gen = relations([(0, 1), (0, 2), (0, 3)], rows_of)
        assert next(gen) == [[0, 0, 1]]
        assert built == [(0, 1), (0, 2)]


def exact_relations(shapes, rows_of):
    """The reference: relations with the exact nullspace on every shape."""
    with mock.patch.object(linalg, "_full_column_rank_mod_p",
                           lambda rows: False):
        return list(relations(shapes, rows_of))


ENTRIES = st.one_of(st.integers(-4, 4),
                    st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def shape_matrices(draw):
    """{(A, B): rows} over distinct shapes, each matrix (A+1)(B+1) wide and
    twisted one of four ways: untouched, a planted kernel vector, a column
    scaled by _P (its rank drops only mod _P), or an entry whose
    denominator _P divides."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           min_size=1, max_size=3, unique=True))
    mats = {}
    for A, B in shapes:
        C = (A + 1) * (B + 1)
        R = draw(st.integers(1, C + 3))
        rows = draw(st.lists(st.lists(ENTRIES, min_size=C, max_size=C),
                             min_size=R, max_size=R))
        twist = draw(st.sampled_from(["none", "kernel", "scale", "denominator"]))
        k = draw(st.integers(0, C - 1))
        if twist == "kernel":
            v = draw(st.lists(st.integers(-3, 3), min_size=C, max_size=C))
            v[k] = 1
            for row in rows:
                row[k] = -sum(row[j] * v[j] for j in range(C) if j != k)
        elif twist == "scale":
            for row in rows:
                row[k] *= _P
        elif twist == "denominator":
            num = draw(st.integers(1, 4))
            den = draw(st.sampled_from([_P, 2 * _P]))
            rows[draw(st.integers(0, R - 1))][k] = F(num, den)
        mats[A, B] = rows
    return mats


@given(shape_matrices())
@settings(max_examples=200, deadline=None)
def test_mod_p_skip_leaves_the_candidates_unchanged(mats):
    def rows_of(A, B):
        return mats[A, B]

    assert list(relations(mats, rows_of)) == exact_relations(mats, rows_of)


@pytest.fixture
def nullspace_calls(monkeypatch):
    """The matrices relations hands to the exact nullspace."""
    calls = []
    real = linalg.nullspace

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "nullspace", spy)
    return calls


class TestModPSkip:
    def test_full_rank_shape_gets_no_exact_kernel(self, nullspace_calls):
        mats = {(0, 1): [[1, 2], [F(1, 3), 4], [5, 7]],   # full rank
                (0, 2): [[1, 1, 0], [0, 0, 1]]}            # a kernel
        grids = list(relations(mats, lambda A, B: mats[A, B]))
        assert grids == [[[-1, 1]]]
        assert nullspace_calls == [mats[0, 2]]

    def test_rank_lost_only_mod_p_falls_through(self, nullspace_calls):
        for rows in ([[1, 0], [0, _P]],            # rank 2 over Q, 1 mod _P
                     [[F(1, _P), 0], [0, 1]]):     # no image mod _P
            assert not linalg._full_column_rank_mod_p(rows)
            assert list(relations([(0, 1)], lambda A, B: rows)) == []
        assert len(nullspace_calls) == 2


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
    # determinant with column k swapped for the last one at column k
    rows = [data.draw(st.lists(xpolys, min_size=R + 1, max_size=R + 1))
            for _ in range(R)]
    A = [r[:R] for r in rows]
    assume(not det(A).is_zero)
    cramer = [-det([r[:k] + [r[R]] + r[k + 1:R] for r in rows])
              for k in range(R)] + [det(A)]
    basis = nullspace_field(rows)
    assert basis in ([cramer], [[-c for c in cramer]])
