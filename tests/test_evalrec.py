"""Exact recurrence unrolling and the reference closed form."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction as F
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttesolve import PRec, SequenceValue, evalrec, unroll
from tuttesolve.errors import InvalidIndex
from tuttesolve.polyq import peval

from . import _oracle


class TestUnroll:
    def test_constant_sequence_far_out(self):
        rec = PRec(((-1,), (1,)), (F(1),))
        got = unroll(rec, 1000)
        assert got.index == 1000 and got.value == F(1)

    def test_reciprocal_factorial(self):
        rec = PRec(((-1,), (1, 1)), (F(1),))
        assert unroll(rec, 5).value == F(1, 120)
        assert not unroll(rec, 5).is_integer

    def test_negative_index_rejected(self):
        rec = PRec(((-1,), (1,)), (F(1),))
        with pytest.raises(InvalidIndex):
            unroll(rec, -1)

    def test_linear_in_initials(self):
        coeffs = ((-2, -4), (2, 1))
        base = PRec(coeffs, (F(1),))
        tripled = PRec(coeffs, (F(3),))
        for G in (0, 7, 31):
            assert unroll(tripled, G).value == 3 * unroll(base, G).value

    def test_continues_past_singular_index(self):
        rec = PRec(((-1,), (-1, 1)), (F(2), F(-2), F(7)))
        assert unroll(rec, 4).value == F(7, 2)

    def test_agrees_with_catalan_oracle(self):
        rec = PRec(((-2, -4), (2, 1)), (F(1),))
        got = unroll(rec, 200)
        assert got.value == F(_oracle.catalan(200))
        assert got.is_integer

    def test_order_zero_is_zero_past_its_roots(self):
        rec = PRec(((-2, 1),), (F(5), F(6), F(7)))
        assert [unroll(rec, G).value for G in range(5)] == rec.terms(5)
        assert unroll(rec, 1000).value == 0

    def test_order_zero_below_its_roots_is_a_fraction(self):
        rec = PRec(((3, -4, 1),), (0, F(1, 2), 0, 5))
        got = unroll(rec, 2).value
        assert got == 0 and type(got) is F


CATALAN = PRec(((-2, -4), (2, 1)), (F(1),))
MOTZKIN = PRec(((-3, -3), (-5, -2), (4, 1)), (F(1), F(1)))
# the same recurrences times -1: the leading coefficient is negative at
# every index
NEG_CATALAN = PRec(((2, 4), (-2, -1)), (F(1),))
NEG_MOTZKIN = PRec(((3, 3), (5, 2), (-4, -1)), (F(1), F(1)))
# a(n) = n^2 + 1: (n^2 + 1) a(n+1) = ((n+1)^2 + 1) a(n), a ratio of
# quadratics irreducible over Q, so order 1 that block stepping unrolls
SQUARES = PRec(((-2, -2, -1), (1, 0, 1)), (F(1),))

coeff_polys = st.lists(st.integers(-5, 5), max_size=4)


@st.composite
def precs(draw):
    """Order 1-4, degree <= 3, with zero middle coefficients, leading
    coefficients that vanish at a nonnegative integer, and rational
    initials beyond the ones the singular indices need."""
    s = draw(st.integers(1, 4))
    rest = [draw(coeff_polys) for _ in range(s)]
    root = draw(st.none() | st.integers(0, 6))
    if root is None:
        lead = draw(coeff_polys.filter(any))
    else:
        c = draw(st.integers(-3, 3).filter(bool))
        lead = [-root * c, c]
    # integer roots of lead lie below 7 (Cauchy's bound)
    last = max((r for r in range(7) if peval(lead, r) == 0), default=-1)
    count = s + last + 1 + draw(st.integers(0, 2))
    initials = draw(st.lists(st.fractions(min_value=-20, max_value=20,
                                          max_denominator=9),
                             min_size=count, max_size=count))
    return PRec(rest + [lead], initials)


def _block_edges(block: int, blocks: int):
    """Offsets from head at which the step count (G - head + 1, with no
    singular index) is one below, at or one above a multiple of the
    block."""
    return [k * block + d for k in range(1, blocks + 1) for d in (-2, -1, 0)]


class TestBinarySplitting:
    @given(precs(), st.sampled_from([1, 2, 3, 4, 5, 64]), st.integers(0, 6),
           st.integers(-3, -1))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_iteration(self, rec, block, k, d):
        # blocks of a few leaves put G past several of them at a small
        # reference cost; the index sits next to a block edge
        G = max(0, PRec.initials_needed(rec.coeffs) + k * block + d)
        with mock.patch.object(evalrec, "_BLOCK", block):
            assert unroll(rec, G).value == rec.terms(G + 1)[G]

    @pytest.mark.parametrize("block", [1, 2, 3, 4, evalrec._BLOCK])
    def test_block_edges_against_oracles(self, block):
        pairs = [(CATALAN, _oracle.catalan), (NEG_CATALAN, _oracle.catalan),
                 (MOTZKIN, _oracle.motzkin), (NEG_MOTZKIN, _oracle.motzkin),
                 (SQUARES, lambda n: n * n + 1)]
        with mock.patch.object(evalrec, "_BLOCK", block):
            for off in _block_edges(block, 5 if block < 5 else 2):
                for rec, want in pairs:
                    G = max(0, PRec.initials_needed(rec.coeffs) + off)
                    assert unroll(rec, G).value == want(G)

    @pytest.mark.parametrize("block", [1, 3, evalrec._BLOCK])
    def test_initials_that_need_a_scale(self, block):
        # start values over 2 and 3 (scale 6); the second recurrence is
        # singular at index 3 and starts from values over 5 and 7
        mixed = PRec(MOTZKIN.coeffs, (F(1, 2), F(-2, 3)))
        basis = [PRec(MOTZKIN.coeffs, (F(1), F(0))),
                 PRec(MOTZKIN.coeffs, (F(0), F(1)))]
        singular = PRec(((-1, 2), (3, 0, 1), (-1, 1)),
                        (F(1, 2), F(-2, 3), F(3, 5), F(-1, 7)))
        with mock.patch.object(evalrec, "_BLOCK", block):
            for G in (0, 1, 2, 5, 40):
                assert unroll(mixed, G).value == mixed.terms(G + 1)[G]
                assert unroll(singular, G).value == singular.terms(G + 1)[G]
            G = 2 * evalrec._BLOCK + 1
            a, b = (unroll(r, G).value for r in basis)
            assert unroll(mixed, G).value == a / 2 - 2 * b / 3

    def test_motzkin_oracle(self):
        want = [1, 1, 2, 4, 9, 21, 51, 127, 323]
        assert [_oracle.motzkin(n) for n in range(9)] == want
        assert MOTZKIN.terms(9) == want

    def test_catalan_far_out(self):
        assert unroll(CATALAN, 20000).value == _oracle.catalan(20000)

    def test_motzkin_far_out(self):
        assert unroll(MOTZKIN, 10000).value == _oracle.motzkin(10000)

    def test_memory_stays_small_far_out(self):
        # keeping every term up to 30000 takes about 110 MB
        tracemalloc.start()
        try:
            unroll(CATALAN, 30000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_memory_stays_small_far_out_at_order_two(self):
        # the blocks keep this near 0.3 MB; one fold over all 30000
        # leaves at once peaks near 11 MB
        tracemalloc.start()
        try:
            unroll(MOTZKIN, 30000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# (n+2) a(n+2) = a(n+1) + a(n): a(3) = 2/3, so not every block divides
RATIONAL = PRec(((-1,), (-1,), (2, 1)), (F(1), F(1)))


class TestBlockStepping:
    # unroll(MOTZKIN, 30000) steps C(0) .. C(29998) from b_0, b_1
    STEPS = 29999

    def test_one_fold_per_block(self):
        with _spy_fold() as fold:
            unroll(MOTZKIN, 30000)
        sizes = [len(c.args[1]) for c in fold.call_args_list]
        assert len(sizes) == -(-self.STEPS // evalrec._BLOCK)
        assert sum(sizes) == self.STEPS

    def test_folds_stay_within_one_block(self):
        # a leaf entry is at most 3 * 29998 + 3, so a product of _BLOCK
        # 2 x 2 leaves has entries below (2 * 89997)^_BLOCK
        bound = evalrec._BLOCK * (2 * 89997).bit_length()
        nodes, real_fold = [], evalrec._fold

        def fold(*args):
            nodes.append(real_fold(*args))
            return nodes[-1]

        with mock.patch.object(evalrec, "_fold", fold):
            unroll(MOTZKIN, 30000)
        bits = max(abs(x).bit_length() for E, D in nodes
                   for x in [*D, *(x for e in E for x in e)])
        assert 0 < bits <= bound

    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_rational_sequence_carries_its_denominator(self, block):
        folded, inside, carries = [], [], []
        real_fold = evalrec._fold

        def fold(*args):
            inside.append(True)
            try:
                return real_fold(*args)
            finally:
                inside.pop()
                folded.append(True)

        def spy_gcd(*args):
            # a gcd outside _fold once a block has folded is a carry
            if folded and not inside:
                carries.append(args)
            return gcd(*args)

        head = PRec.initials_needed(RATIONAL.coeffs)
        Gs = [head + off for off in _block_edges(block, 3 if block < 5 else 2)]
        terms = RATIONAL.terms(max(Gs) + 1)
        with mock.patch.multiple(evalrec, _BLOCK=block, _fold=fold,
                                 gcd=spy_gcd):
            for G in Gs:
                folded.clear()
                assert unroll(RATIONAL, G).value == terms[G]
        assert carries and terms[Gs[-1]].denominator != 1


@st.composite
def lacunary_precs(draw):
    """q_t = 0 below an offset t0 in 0-3 and off t0 + d*u for a period d in
    2-4, strided order 1-2, and a leading coefficient that vanishes at a
    nonnegative integer, so one residue class has a singular strided
    index; rational initials as `precs` draws them."""
    d, t0, S = draw(st.integers(2, 4)), draw(st.integers(0, 3)), \
        draw(st.integers(1, 2))
    s = t0 + d * S
    coeffs = [[] for _ in range(s + 1)]
    coeffs[t0] = draw(coeff_polys.filter(any))
    for u in range(1, S):
        coeffs[t0 + d * u] = draw(coeff_polys)
    root, c = draw(st.integers(0, 9)), draw(st.integers(-3, 3).filter(bool))
    coeffs[s] = [-root * c, c]
    count = s + root + 1 + draw(st.integers(0, 2))
    initials = draw(st.lists(st.fractions(min_value=-20, max_value=20,
                                          max_denominator=9),
                             min_size=count, max_size=count))
    return PRec(coeffs, initials)


# the minimized recurrences the pipeline derives for the corpus (and
# walk112's unminimized one), with the initials it gives them
DYCK = PRec(((-4, -4), (), (4, 1)), (F(1), F(0)))
LUK2 = PRec(((-54, -81, -27), (), (), (54, 30, 4)), (F(1), F(0), F(0)))
LUK3 = PRec(((-1536, -2816, -1536, -256), (), (), (),
             (1536, 1248, 324, 27)), (F(1), F(0), F(0), F(0)))
CORPUS_RECS = {
    "catalan": CATALAN,
    "maps": PRec(((-6, -12), (3, 1)), (F(1),)),
    "dyck": DYCK,
    "motzkin": MOTZKIN,
    "luk2": LUK2,
    "luk3": LUK3,
    "walk112": PRec(((-6510, -11377, -5673, -806),
                     (-9636, -10938, -3996, -468), (822, 829, 261, 26),
                     (5688, 4558, 1200, 104)), (F(1), F(0), F(1))),
    "walk112-full": PRec(((-558, -837, -279), (-1058, -915, -193),
                          (-168, -81, -9), (506, 279, 37), (110, 42, 4)),
                         (F(1), F(0), F(1), F(1))),
    "walk102": PRec(((-62, -93, -31), (60, 54, 12), (-106, -72, -12),
                     (54, 30, 4)), (F(1), F(1), F(1))),
}


def _fuss_catalan(k: int, G: int) -> int:
    """Excursions of length G with steps -1 and +k: C((k+1)n, n)/(kn+1)
    at G = (k+1)n, else 0."""
    n, r = divmod(G, k + 1)
    return 0 if r else comb((k + 1) * n, n) // (k * n + 1)


class TestStride:
    @given(lacunary_precs(), st.sampled_from([1, 2, 3, 64]),
           st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_lacunary_agrees_with_iteration(self, rec, block, k):
        # four consecutive indices meet every residue class of a period
        # up to 4, both at the head and past k blocks of the strided steps
        head = PRec.initials_needed(rec.coeffs)
        far = head + 4 * k * block
        terms = rec.terms(far + 4)
        with mock.patch.object(evalrec, "_BLOCK", block):
            for G in [*range(max(0, head - 4), head + 4),
                      *range(far, far + 4)]:
                assert unroll(rec, G).value == terms[G]

    def test_offset_past_the_first_index(self):
        # a(n+1) + n a(n+4) = 0: q_0 = 0, so the period 3 starts at t0 = 1
        rec = PRec(((), (1,), (), (), (0, 1)),
                   (F(2), F(-1), F(1, 3), F(5), F(7)))
        terms = rec.terms(100)
        assert [unroll(rec, G).value for G in range(100)] == terms

    @pytest.mark.parametrize("k, rec", [(1, DYCK), (2, LUK2), (3, LUK3)],
                             ids=["dyck", "luk2", "luk3"])
    def test_fuss_catalan_far_out(self, k, rec):
        for G in range(12000, 12000 + 2 * (k + 1)):
            assert unroll(rec, G).value == _fuss_catalan(k, G)

    @pytest.mark.parametrize("name", list(CORPUS_RECS))
    def test_corpus_recurrences_agree_with_iteration(self, name):
        rec = CORPUS_RECS[name]
        Gs = [*range(40), 97, 98, 99, 100, 1000, 1001, 1002, 1003, 4097]
        terms = rec.terms(max(Gs) + 1)
        assert [unroll(rec, G).value for G in Gs] == [terms[G] for G in Gs]


# the flagship's golden recurrence,
#   3 (n+2)(3n+4)(3n+5) a(n+1) = 8 (2n+1)(4n+3)(4n+5) a(n)
TUTTE = PRec((tuple(_oracle.poly_mul_int(_oracle.poly_mul_int(
                  [-8, -16], [3, 4]), [5, 4])),
              tuple(_oracle.poly_mul_int(_oracle.poly_mul_int(
                  [2, 1], [4, 3]), [15, 9]))), (F(1),))


class TestClosedForm:
    def test_spot_values(self):
        want = [1, 1, 3, 13, 68]
        assert [_oracle.counting_term(n) for n in range(5)] == want

    def test_matches_oracle_widely(self):
        # the closed form against the golden recurrence, both ways of
        # reading it
        terms = TUTTE.terms(120)
        for n in range(0, 120, 7):
            want = _oracle.counting_term(n)
            assert terms[n] == unroll(TUTTE, n).value == want


class TestSequenceValue:
    def test_str_and_digits(self):
        v = SequenceValue(4, F(68))
        assert str(v) == "68" and v.digits == 2 and v.is_integer

    def test_digits_ignore_sign(self):
        assert SequenceValue(0, F(-12345)).digits == 5

    def test_thousandth_entry_digit_count(self):
        assert SequenceValue(1000, _oracle.counting_term(1000)).digits == 969


linear = st.tuples(st.integers(1, 4), st.integers(-12, 12)).filter(
    lambda f: gcd(*f) == 1)


@st.composite
def hypergeometric_precs(draw):
    """q_0 and q_d, for a period d in 1-3, each a content of either sign
    times 0-3 primitive linear factors a*n + b; rational initials."""
    d = draw(st.integers(1, 3))
    q0, qd = ([draw(st.integers(-6, 6).filter(bool))] for _ in range(2))
    for q in (q0, qd):
        for a, b in draw(st.lists(linear, max_size=3)):
            q[:] = _oracle.poly_mul_int(q, [b, a])
    coeffs = [q0, *[[]] * (d - 1), qd]
    count = PRec.initials_needed(coeffs)
    initials = draw(st.lists(st.fractions(min_value=-20, max_value=20,
                                          max_denominator=9),
                             min_size=count, max_size=count))
    return PRec(coeffs, initials)


def _spy_fold():
    return mock.patch.object(evalrec, "_fold", wraps=evalrec._fold)


class TestProductRoute:
    @given(hypergeometric_precs(), st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_iteration(self, rec, k):
        G = PRec.initials_needed(rec.coeffs) + k
        with _spy_fold() as fold:
            got = unroll(rec, G).value
        assert got == rec.terms(G + 1)[G]
        fold.assert_not_called()

    @pytest.mark.parametrize("rec", [
        # (n+1) a(n+1) = (50-n) a(n): zero from index 51 on
        PRec(((-50, 1), (1, 1)), (F(3, 7),)),
        # (2n-21) a(n+1) = (n+3) a(n): the lead is negative up to n = 10
        PRec(((-3, -1), (-21, 2)), (F(1),)),
        # -4(n+2) a(n+1) = 6(2n+1)(3n-5) a(n): both contents negative
        PRec((tuple(_oracle.poly_mul_int([-6, -12], [-5, 3])), (-8, -4)),
             (F(-2, 3),)),
        # -4(n+2) a(n+2) = 12(n-5) a(n): period 2, a(7) = 0 and every odd
        # index past it
        PRec(((60, -12), (), (-8, -4)), (F(1), F(5))),
        # (n+2) a(n+1) = 1009 (n+1) a(n): a content prime above the values
        # up to index 1007
        PRec(((-1009, -1009), (2, 1)), (F(1),)),
    ], ids=["numerator-root", "negative-lead", "negative-contents",
            "strided-root", "content-prime"])
    def test_edge_cases_agree_with_iteration(self, rec):
        Gs = [*range(60), 999, 1000, 1001, 2000]
        terms = rec.terms(max(Gs) + 1)
        with _spy_fold() as fold:
            assert [unroll(rec, G).value for G in Gs] == [terms[G]
                                                         for G in Gs]
        fold.assert_not_called()

    def test_memory_stays_small_far_out(self):
        # near 2 MB: the sieve to 200,000, the exponents, two product trees
        tracemalloc.start()
        try:
            unroll(CATALAN, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("G", [1000, 30000])
    def test_golden_recurrence_far_out(self, G):
        assert unroll(TUTTE, G).value == _oracle.counting_term(G)

    @pytest.mark.parametrize("name, product", [
        *((name, True) for name in ("catalan", "maps", "dyck", "luk2",
                                    "luk3", "tutte")),
        *((name, False) for name in ("motzkin", "walk112", "walk102",
                                     "squares", "spread")),
    ])
    def test_route(self, name, product):
        # spread: (4096 n + 2) a(n+1) = (4096 n + 1) a(n), whose values are
        # 4,096 times its step count, above evalrec._SPREAD times it
        spread = PRec(((-1, -4096), (2, 4096)), (F(1),))
        rec = {**CORPUS_RECS, "tutte": TUTTE, "squares": SQUARES,
               "spread": spread}[name]
        with _spy_fold() as fold:
            got = unroll(rec, 1000).value
        assert fold.called is not product
        assert got == rec.terms(1001)[1000]
