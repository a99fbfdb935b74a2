from __future__ import annotations

import copy
import pickle
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv import (
    ParseError,
    RingSpec,
    Z,
    matrix,
    modular,
    parse_element,
    parse_ring,
    rings,
)
from ringinv.literals import _parse_ring

from conftest import SMALL_RINGS, ring_elements
from oracles import cursor_parse_element, cursor_parse_ring, joined_str, listed_str


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


class TestParseRingMemo:
    """parse_ring is memoised on its text and the digit limit; refusals are not."""

    @pytest.mark.parametrize("text", ["Z", "Z/9", "M2(Z/9)", "M3(Z)", " M2( Z/5 ) "])
    def test_same_text_same_ring(self, text):
        assert parse_ring(text) is parse_ring(text)

    @pytest.mark.parametrize("text", ["Z/\u00b2", "Z/1", "M0(Z)", "M2(Z/3"])
    def test_refused_literal_raises_the_same_error_every_time(self, text):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_ring(text)
            errors.append((str(err.value), err.value.position))
        assert errors[0] == errors[1]

    def test_memoised_ring_round_trips(self):
        ring = parse_ring("M2(Z/9)")
        a = ring.element([[1, 2], [3, 4]])
        for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring), copy.copy(ring)):
            assert copied == ring and hash(copied) == hash(ring)
            assert copied.element([[1, 2], [3, 4]]) * a == a * a
        assert parse_ring("M2(Z/9)") is ring

    def test_memo_is_bounded(self):
        maxsize = _parse_ring.cache_info().maxsize
        assert maxsize is not None
        for n in range(2, maxsize + 12):
            parse_ring(f"Z/{n}")
        assert _parse_ring.cache_info().currsize <= maxsize

    def test_digit_limit_is_part_of_the_key(self, digit_limit):
        text = "Z/1" + "0" * 640
        assert parse_ring(text) == modular(10**640)
        digit_limit(640)
        with pytest.raises(ParseError, match="641 digits, above the limit of 640"):
            parse_ring(text)


LITERAL_RINGS = SMALL_RINGS + [matrix(Z, 3)]

# what a mutation inserts or puts in place of one character: the grammar's
# own characters, whitespace, a Unicode minus, digits that str.isdigit
# accepts but ASCII does not, and numbers at and one above the digit limit
_LIMIT = sys.get_int_max_str_digits()
MUTATIONS = [
    *"[],-0123456789ZM/()x", " ", "\t", "\n", "\u00a0", "\u2212", "\u00b2", "\u0663",
    "1" + "0" * (_LIMIT - 1), "9" * (_LIMIT + 1),
]


def outcome(parse, *args):
    """What a parser returns, or its refusal's message and position."""
    try:
        return parse(*args)
    except ParseError as err:
        return str(err), err.position


def _literal(ring, values) -> str:
    if not ring.is_matrix:
        return str(values[0])
    k = ring.dim
    rows = (values[i:i + k] for i in range(0, k * k, k))
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"


@st.composite
def mutated(draw, text):
    """text with up to three characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from(["", *MUTATIONS])) + text[at + cut:]
    return text


@st.composite
def mutated_element_literals(draw):
    ring = draw(st.sampled_from(LITERAL_RINGS))
    size = max(1, ring.dim) ** 2
    values = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size))
    return ring, draw(mutated(_literal(ring, values)))


class TestParserParity:
    """The token walk answers as the character cursor it replaced (kept in
    tests/oracles.py): the same element or ring, or the same message and
    position."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LITERAL_RINGS), st.text(max_size=40))
    def test_random_text(self, ring, text):
        assert outcome(parse_element, ring, text) == outcome(cursor_parse_element, ring, text)
        assert outcome(parse_ring, text) == outcome(cursor_parse_ring, text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(LITERAL_RINGS),
        st.text(st.sampled_from(MUTATIONS[:-2]), max_size=40),
    )
    def test_text_of_the_grammars_characters(self, ring, text):
        assert outcome(parse_element, ring, text) == outcome(cursor_parse_element, ring, text)
        assert outcome(parse_ring, text) == outcome(cursor_parse_ring, text)

    @settings(max_examples=500, deadline=None)
    @given(mutated_element_literals())
    def test_mutated_element_literal(self, case):
        ring, text = case
        assert outcome(parse_element, ring, text) == outcome(cursor_parse_element, ring, text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LITERAL_RINGS).flatmap(lambda ring: mutated(str(ring))))
    # a non-ASCII digit right after a ring's number is refused before that
    # number's range, or the '(' after it, is checked
    @example("M0\u00b2(Z)")
    @example("Z/1\u0663")
    @example("M2\u00b2(Z/3)")
    def test_mutated_ring_literal(self, text):
        assert outcome(parse_ring, text) == outcome(cursor_parse_ring, text)


class TestRenderParity:
    """str(a) renders what the nested joins it replaced (tests/oracles.py)
    rendered."""

    @given(ring_elements())
    def test_small_rings(self, a):
        assert str(a) == joined_str(a)

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.integers(-(10**40), 10**40), min_size=k * k, max_size=k * k
            ).map(lambda values: matrix(Z, k).element(
                [values[i:i + k] for i in range(0, k * k, k)]
            ))
        )
    )
    def test_integer_matrices_with_long_and_negative_entries(self, a):
        assert str(a) == joined_str(a)


DIGIT_LIMIT = sys.get_int_max_str_digits()
# Z and Z/n (k = 0), Mk(.) for k = 1..8, the compiled kernels' sizes, and k = 9
RENDER_DIMS = range(rings._UNROLL_MAX_DIM + 2)


def element_of(ring, values):
    """The element of ring with these row-major entries."""
    if not ring.is_matrix:
        return ring.element(values[0])
    k = ring.dim
    return ring.element([values[i:i + k] for i in range(0, k * k, k)])


@st.composite
def rendered_elements(draw, k, moduli=st.none() | st.integers(2, 10**30)):
    """An element of Z, Z/n or Mk(.) with entries up to 10^40 in size, one
    of them, at a drawn position, up to the digit limit that str accepts."""
    ring = RingSpec(draw(moduli), k)
    n = max(1, k) ** 2
    values = draw(st.lists(st.integers(-(10**40), 10**40), min_size=n, max_size=n))
    values[draw(st.integers(0, n - 1))] = draw(
        st.integers(-(10**DIGIT_LIMIT - 1), 10**DIGIT_LIMIT - 1)
    )
    return element_of(ring, values)


def rendering(function, a):
    """function(a), or the type and message of the ValueError it raised."""
    try:
        return function(a)
    except ValueError as err:
        return type(err), str(err)


class TestFormatParity:
    """str(a), one per-ring format template, renders what the repr of the
    list of rows it replaced (tests/oracles.py) rendered, byte for byte."""

    @pytest.mark.parametrize("k", RENDER_DIMS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_ring_shape(self, k, data):
        a = data.draw(rendered_elements(k))
        assert str(a) == listed_str(a)

    @pytest.mark.parametrize("k", RENDER_DIMS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_an_entry_past_the_digit_limit(self, k, data):
        """An entry one digit past the limit, over Z, Mk(Z) or a modulus
        above it, raises the same ValueError from both renders, wherever it
        sits."""
        a = data.draw(rendered_elements(k, st.sampled_from([None, 10 ** (DIGIT_LIMIT + 1)])))
        entries = list(a.entries)
        i = data.draw(st.integers(0, len(entries) - 1))
        entries[i] = data.draw(st.sampled_from([1, -1])) * 10**DIGIT_LIMIT
        big = element_of(a.ring, entries)
        assert rendering(str, big) == rendering(listed_str, big)
        assert rendering(str, big)[0] is ValueError
