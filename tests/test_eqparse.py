"""Equation text parsing: grammar, positions, rejection reasons."""

from __future__ import annotations

import pytest

from tuttesolve import MPoly, parse_equation
from tuttesolve.errors import (EquationSyntaxError, NonPolynomial,
                               ResourceCeiling, UnknownVariable)

from . import _frozen

psi, g, x, y = (MPoly.var(v) for v in ("psi", "g", "x", "y"))


class TestAccepted:
    def test_flagship_string(self):
        eq = parse_equation(_frozen.TUTTE_EQ)
        want = y**2 * psi**2 + (x + x*g*y - y - y**2) * psi + y - x*g
        assert eq.Q == want.normalized()

    def test_caret_and_explicit_rhs(self):
        a = parse_equation("y^2*psi^2 + (x + x*g*y - y - y^2)*psi + y - x*g = 0")
        b = parse_equation(_frozen.TUTTE_EQ)
        assert a == b

    def test_whitespace_is_free(self):
        eq = parse_equation("  psi - 1\t- x * y * psi - x*g ")
        assert eq.Q == psi - MPoly.const(1) - x*y*psi - x*g

    def test_render_round_trips(self):
        for text in (_frozen.TUTTE_EQ, "psi - 1 - x*psi**2",
                     "g + (psi - x)*(psi + 1)"):
            eq = parse_equation(text)
            assert parse_equation(eq.Q.render()) == eq

    def test_unary_minus_and_zero_power(self):
        assert parse_equation("2*-psi + psi*3 - -1").Q == (psi + MPoly.const(1)).normalized()
        assert parse_equation("psi^0 + psi").Q == (psi + MPoly.const(1)).normalized()

    def test_nonzero_rhs(self):
        assert parse_equation("psi = 1 - x*psi") == parse_equation("psi - 1 + x*psi")

    def test_power_under_the_term_ceiling_is_accepted(self):
        eq = parse_equation("psi*(1 + x + y)**20")
        assert len(eq.Q.terms) == 231

    def test_coefficient_of_thousands_of_digits_is_read_exactly(self):
        big = 10**5000 - 1
        eq = parse_equation("psi - 1 - " + "9" * 5000 + "*x*psi**2")
        assert eq.Q == psi - MPoly.const(1) - MPoly.const(big) * x * psi**2

    def test_largest_exponent_is_accepted(self):
        eq = parse_equation("psi - x**1048575*psi")
        assert eq.Q.degree("x") == 2**20 - 1


class TestRejected:
    def test_unknown_variable_with_position(self):
        with pytest.raises(UnknownVariable) as e:
            parse_equation("psi + z")
        assert e.value.name == "z" and e.value.position == 6

    def test_internal_name_not_accepted(self):
        with pytest.raises(UnknownVariable):
            parse_equation("psi + f")

    def test_division(self):
        with pytest.raises(NonPolynomial) as e:
            parse_equation("psi / x")
        assert e.value.position == 4

    def test_negative_exponent(self):
        with pytest.raises(NonPolynomial):
            parse_equation("psi^-2")

    def test_exponent_too_large_is_reported_at_the_exponent(self):
        with pytest.raises(NonPolynomial) as e:
            parse_equation("psi - 1 - x**3000000*psi**2")
        assert e.value.position == 13

    def test_exponent_of_thousands_of_digits_is_refused_at_the_exponent(self):
        with pytest.raises(NonPolynomial) as e:
            parse_equation("psi - x**" + "9" * 5000)
        assert e.value.position == 9
        # even on a constant base, whose power the term ceiling never stops
        with pytest.raises(NonPolynomial) as e:
            parse_equation("psi - 2**" + "1" * 8)
        assert e.value.position == 9

    def test_leading_zeros_do_not_lengthen_an_exponent(self):
        eq = parse_equation("psi - x**" + "0" * 5000 + "7")
        assert eq.Q.degree("x") == 7

    def test_product_too_large_is_reported_at_the_star(self):
        with pytest.raises(NonPolynomial) as e:
            parse_equation("psi - x**600000*x**600000")
        assert e.value.position == 15

    def test_power_past_the_term_ceiling_is_refused_at_the_exponent(self):
        # (1 + x + y)**200 has 20,301 terms; it is refused before expanding
        with pytest.raises(ResourceCeiling) as e:
            parse_equation("psi - 1 - x*(1 + x + y)**200*psi")
        assert str(e.value).endswith("(at position 25)")
        assert "20301 terms" in str(e.value)

    def test_term_ceiling_boundary(self):
        # (1 + x + y)**139 could have 9,870 terms, under the ceiling;
        # **140 could have 10,011
        with pytest.raises(ResourceCeiling) as e:
            parse_equation("psi - (1 + x + y)**140")
        assert str(e.value).endswith("(at position 19)")
        assert "10011 terms" in str(e.value)

    def test_product_past_the_term_ceiling_is_refused_at_the_star(self):
        # 101 * 101 possible terms
        with pytest.raises(ResourceCeiling) as e:
            parse_equation("psi - (1 + x)**100*(1 + y)**100")
        assert str(e.value).endswith("(at position 18)")

    def test_symbolic_exponent(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("psi ^ x")

    def test_truncated_input_position(self):
        with pytest.raises(EquationSyntaxError) as e:
            parse_equation("psi + ")
        assert e.value.position == 6

    def test_unclosed_paren_position(self):
        with pytest.raises(EquationSyntaxError) as e:
            parse_equation("(psi + x")
        assert e.value.position == 8

    @pytest.mark.parametrize("text, pos", [
        ("psi - \u0663 - x*psi**2", 6),
        ("psi**\u0662 - 1 - x", 5),
    ], ids=["coefficient", "exponent"])
    def test_digit_of_another_script_is_refused_at_it(self, text, pos):
        # Arabic-Indic digits: str.isdigit takes them, the grammar does not
        with pytest.raises(EquationSyntaxError) as e:
            parse_equation(text)
        assert e.value.position == pos

    def test_stray_character(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("psi + $")

    def test_no_implicit_multiplication(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("2 psi")

    def test_missing_unknown_series(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("x + y")

    def test_identically_zero(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("psi - psi")

    def test_empty_input(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("")
