"""Parsing of ring and element literals.

Ring grammar:     Z   Z/9   M2(Z/3)   M3(Z)
Element grammar:  an integer for scalar rings, a row-major nested list such
                  as [[-2,3,2],[-2,3,2],[1,-1,-1]] for matrix rings; one
                  list rule reads a row of integers and a list of rows.

``str`` of a ring or an element renders the same grammar, so every
emitted literal parses back to what it came from.  A Unicode minus sign
is accepted as input.  Numbers are ASCII digits, at most
sys.get_int_max_str_digits() of them.
"""

from __future__ import annotations

import functools
import sys

from .rings import Element, RingSpec, Z, matrix, modular


class ParseError(ValueError):
    """A literal failed to parse; carries the 0-based offending position.

    The message quotes the text, or for a text above 80 characters its
    length and the 40 characters either side of the position, so a number
    of thousands of digits gives a short message.
    """

    def __init__(self, message: str, text: str, position: int) -> None:
        if len(text) <= 80:
            where = repr(text)
        else:
            start = max(0, position - 40)
            where = f"a text of {len(text)} characters, around {text[start:position + 40]!r}"
        super().__init__(f"{message} (at position {position} in {where})")
        self.text = text
        self.position = position


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self.pos += 1

    def fail(self, message: str) -> "ParseError":
        return ParseError(message, self.text, self.pos)

    def unsigned_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", self.text, start)
        digits = self.text[start:self.pos]
        if not digits.isascii():
            at = start + next(i for i, ch in enumerate(digits) if not ch.isascii())
            raise ParseError("expected an ASCII digit", self.text, at)
        try:
            return int(digits)
        except ValueError:  # ASCII digits fail only above the interpreter's limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(
                f"number has {len(digits)} digits, above the limit of {limit}",
                self.text,
                start,
            ) from None

    def signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.unsigned_int()

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.text, self.pos)


def _normalize(text: str) -> str:
    return text.replace("−", "-")


def _parse_scalar_ring(cur: _Cursor) -> RingSpec:
    cur.skip_ws()
    if cur.peek() != "Z":
        raise cur.fail("expected a ring literal starting with 'Z' or 'M'")
    cur.take("Z")
    if cur.peek() == "/":
        cur.take("/")
        at = cur.pos
        n = cur.unsigned_int()
        if n < 2:
            raise ParseError("modulus must be at least 2", cur.text, at)
        return modular(n)
    return Z


def parse_ring(text: str) -> RingSpec:
    """The ring a literal names, memoised on the text.

    Requests that name the same literal share one RingSpec, so its kernels
    and per-ring constants are built once per process; the memo holds at
    most 64 literals, the least recently used leaving first.  The memo is
    also keyed on sys.get_int_max_str_digits(), which decides whether a
    long number is refused.  A refused literal is not memoised: it raises
    its positioned ParseError on every call.
    """
    return _parse_ring(text, sys.get_int_max_str_digits())


@functools.lru_cache(maxsize=64)
def _parse_ring(text: str, digit_limit: int) -> RingSpec:
    cur = _Cursor(_normalize(text))
    cur.skip_ws()
    if cur.peek() == "M":
        cur.take("M")
        at = cur.pos
        dim = cur.unsigned_int()
        if dim < 1:
            raise ParseError("matrix dimension must be at least 1", cur.text, at)
        cur.skip_ws()
        cur.take("(")
        base = _parse_scalar_ring(cur)
        cur.skip_ws()
        cur.take(")")
        ring = matrix(base, dim)
    else:
        ring = _parse_scalar_ring(cur)
    cur.expect_end()
    return ring


def _bracketed(cur: _Cursor, item) -> list:
    """'[' item (',' item)* ']', whitespace allowed around each item."""
    cur.take("[")
    items = []
    while True:
        cur.skip_ws()
        items.append(item(cur))
        cur.skip_ws()
        if cur.peek() != ",":
            cur.take("]")
            return items
        cur.take(",")


def _parse_row(cur: _Cursor) -> list[int]:
    return _bracketed(cur, _Cursor.signed_int)


def parse_element(ring: RingSpec, text: str) -> Element:
    """Parse an element literal in ``ring``; negatives reduce canonically."""
    cur = _Cursor(_normalize(text))
    cur.skip_ws()
    if not ring.is_matrix:
        if cur.peek() == "[":
            raise cur.fail(f"{ring} takes an integer literal, not a matrix")
        value = cur.signed_int()
        cur.expect_end()
        return ring.element(value)
    if cur.peek() != "[":
        raise cur.fail(f"{ring} takes a row-major matrix literal like [[0,1],[1,1]]")
    shape_at = cur.pos
    rows = _bracketed(cur, _parse_row)
    cur.expect_end()
    k = ring.dim
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ParseError(f"expected a {k}x{k} matrix", cur.text, shape_at)
    return ring.element(rows)

