from __future__ import annotations

import sys

import pytest
from hypothesis import given

from ringinv import (
    ParseError,
    Z,
    matrix,
    modular,
    parse_element,
    parse_ring,
)

from conftest import ring_elements


class TestRingGrammar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Z", Z),
            ("Z/9", modular(9)),
            ("Z/2", modular(2)),
            ("M2(Z/3)", matrix(modular(3), 2)),
            ("M3(Z)", matrix(Z, 3)),
            (" M2( Z/5 ) ", matrix(modular(5), 2)),
            ("M1(Z/5)", matrix(modular(5), 1)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_ring(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "Q", "Z/1", "Z/0", "Z/-3", "M0(Z)", "M2(M2(Z))", "M2(Z/3) extra", "M2(Z/3"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_ring(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Z /9", "unexpected trailing input (at position 2 in 'Z /9')"),
            ("Z/ 9", "expected a number (at position 2 in 'Z/ 9')"),
            ("M 2(Z/9)", "expected a number (at position 1 in 'M 2(Z/9)')"),
            ("M2(Z /9)", "expected ')' (at position 5 in 'M2(Z /9)')"),
        ],
    )
    def test_no_whitespace_inside_a_token(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_ring(text)
        assert str(err.value) == message

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_ring("Z/x")
        assert "position" in str(err.value)

    def test_text_of_80_characters_is_quoted_whole(self):
        text = "M2(Z/3)" + " " * 72 + ")"
        with pytest.raises(ParseError) as err:
            parse_ring(text)
        assert str(err.value) == f"unexpected trailing input (at position 79 in {text!r})"

    def test_long_text_is_quoted_around_the_position(self):
        text = "M2(Z/3)" + " " * 200 + "x" + " " * 200
        with pytest.raises(ParseError) as err:
            parse_ring(text)
        window = " " * 40 + "x" + " " * 39
        assert err.value.text == text and err.value.position == 207
        assert str(err.value) == (
            f"unexpected trailing input (at position 207 in a text of 408 characters, "
            f"around {window!r})"
        )

    def test_round_trip(self):
        for ring in (
            Z, modular(12), matrix(modular(7), 2), matrix(Z, 4), matrix(modular(5), 1), matrix(Z, 1)
        ):
            assert parse_ring(str(ring)) == ring


class TestElementGrammar:
    def test_scalar(self):
        z9 = modular(9)
        assert parse_element(z9, "5") == z9.element(5)
        assert parse_element(z9, "-1") == z9.element(8)
        assert parse_element(Z, "-17") == Z.element(-17)

    def test_unicode_minus(self):
        assert parse_element(Z, "−2") == Z.element(-2)

    def test_matrix(self):
        m = matrix(modular(3), 2)
        assert parse_element(m, "[[0,1],[1,1]]") == m.element([[0, 1], [1, 1]])
        assert parse_element(m, " [ [ -1 , 0 ] , [ 0 , 2 ] ] ") == m.element([[2, 0], [0, 2]])

    @pytest.mark.parametrize(
        "text",
        ["", "[[1,2],[3]]", "[[1,2,3],[4,5,6]]", "[1,2]", "5", "[[1,2],[3,4]] junk", "[[1,2],[3,4"],
    )
    def test_rejects_bad_matrix(self, text):
        with pytest.raises(ParseError):
            parse_element(matrix(modular(3), 2), text)

    def test_rejects_matrix_for_scalar_ring(self):
        with pytest.raises(ParseError):
            parse_element(modular(3), "[[1,0],[0,1]]")

    def test_scalar_for_matrix_ring_rejected(self):
        with pytest.raises(ParseError):
            parse_element(matrix(modular(3), 2), "7")

    @pytest.mark.parametrize(
        "text",
        [" [ [ 1 , -2 ] , [ 3 , 4 ] ] ", "\t[\n[1,-2]\n,\t[3,4]\t]\n"],
        ids=["spaces", "tabs and newlines"],
    )
    def test_whitespace_around_every_token(self, text):
        m = matrix(modular(9), 2)
        assert parse_element(m, text) == m.element([[1, -2], [3, 4]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[- 3]]", "expected a number (at position 3 in '[[- 3]]')"),
            ("[[1,2],[3,4]", "expected ']' (at position 12 in '[[1,2],[3,4]')"),
            ("[[1,,2]]", "expected a number (at position 4 in '[[1,,2]]')"),
            ("[[1,2],]", "expected '[' (at position 7 in '[[1,2],]')"),
            ("[]", "expected '[' (at position 1 in '[]')"),
            ("[ ]", "expected '[' (at position 2 in '[ ]')"),
            ("[[]]", "expected a number (at position 2 in '[[]]')"),
            ("[[1,2] [3,4]]", "expected ']' (at position 7 in '[[1,2] [3,4]]')"),
        ],
    )
    def test_refusal_names_the_token_and_its_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_element(matrix(modular(9), 2), text)
        assert str(err.value) == message

    @given(ring_elements())
    def test_round_trip(self, a):
        assert parse_element(a.ring, str(a)) == a

    def test_round_trip_over_integers(self):
        m = matrix(Z, 2)
        a = m.element([[-3, 12], [0, -1]])
        assert parse_element(m, str(a)) == a


@pytest.fixture
def digit_limit():
    """Restore the interpreter's int-string digit limit after the test."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


class TestNumbers:
    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_ring, "Z/\u00b2", 2),
            (parse_ring, "M\u0662(Z/3)", 1),
            (lambda text: parse_element(modular(9), text), "\u00b2", 0),
            (lambda text: parse_element(modular(9), text), "-1\u00b2", 2),
            (lambda text: parse_element(matrix(modular(9), 2), text), "[[1,0],[0,\u0663]]", 10),
        ],
        ids=["modulus", "dimension", "scalar", "after an ASCII digit", "matrix entry"],
    )
    def test_non_ascii_digit_is_refused_where_it_stands(self, parse, text, position):
        # str.isdigit accepts these; int accepts the Arabic-Indic ones but
        # not the superscript
        with pytest.raises(ParseError, match="expected an ASCII digit") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("where", ["modulus", "element"])
    def test_number_above_the_digit_limit_is_refused(self, where, digit_limit):
        digit_limit(640)
        number = "1" + "0" * 640
        with pytest.raises(ParseError, match="641 digits, above the limit of 640") as err:
            if where == "modulus":
                parse_ring(f"Z/{number}")
            else:
                parse_element(modular(9), f"-{number}")
        assert err.value.position == (2 if where == "modulus" else 1)

    def test_number_at_the_digit_limit_parses(self, digit_limit):
        digit_limit(640)
        assert parse_element(modular(9), "1" + "0" * 639) == modular(9).element(1)

    def test_no_limit_admits_any_length(self, digit_limit):
        digit_limit(0)
        assert parse_element(modular(9), "1" + "0" * 6020) == modular(9).element(1)
