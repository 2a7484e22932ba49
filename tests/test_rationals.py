from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keymark.core import exact_rational
from keymark.errors import ParameterError
from keymark.rationals import mass_to_string, parse_mass


def test_parse_fraction_string() -> None:
    assert parse_mass("3/80") == Fraction(3, 80)
    assert parse_mass("1") == Fraction(1)
    assert parse_mass(" 7/10 ") == Fraction(7, 10)


def test_parse_decimal_string_is_exact() -> None:
    assert parse_mass("0.05") == Fraction(1, 20)
    assert parse_mass("0.47") == Fraction(47, 100)


def test_parse_rejects_garbage() -> None:
    for bad in ("", "abc", "1/0", "1e3", "inf", "nan"):
        with pytest.raises(ParameterError):
            parse_mass(bad)


def test_exact_inputs_accept_int_fraction_and_decimal_text() -> None:
    assert exact_rational(2) == Fraction(2)
    assert exact_rational(Fraction(5, 3)) == Fraction(5, 3)
    assert parse_mass("0.25") == Fraction(1, 4)


def test_exact_inputs_reject_float_and_bool() -> None:
    for value in (0.1, True):
        with pytest.raises(ParameterError):
            exact_rational(value)
        with pytest.raises(ParameterError):
            parse_mass(value)  # type: ignore[arg-type]


def test_format_prefers_finite_decimals() -> None:
    assert mass_to_string(Fraction(1, 20)) == "0.05"
    assert mass_to_string(Fraction(3, 80)) == "0.0375"
    assert mass_to_string(Fraction(1, 3)) == "1/3"
    assert mass_to_string(Fraction(0)) == "0"
    assert mass_to_string(Fraction(-7, 4)) == "-1.75"


@given(st.integers(min_value=-10**9, max_value=10**9), st.integers(min_value=1, max_value=10**9))
def test_string_round_trip(num: int, den: int) -> None:
    q = Fraction(num, den)
    assert parse_mass(mass_to_string(q)) == q
