"""Parsing of ring and element literals.

Ring grammar:     Z   Z/9   M2(Z/3)   M3(Z)
Element grammar:  an integer for scalar rings, a row-major nested list such
                  as [[-2,3,2],[-2,3,2],[1,-1,-1]] for matrix rings.

One pattern cuts a literal into tokens, each a number (an optional '-' and
ASCII digits, at most sys.get_int_max_str_digits() of them) or one other
character, with whitespace before it but none inside 'M2' or 'Z/9'.  Each
parser walks its tokens once: a matrix as rows of any length, then trailing
input, then its k×k shape.  Only a refusal looks up positions.  ``str`` of
a ring or an element renders the same grammar, so every emitted literal
parses back to what it came from.  A Unicode minus sign is accepted as input.
"""

from __future__ import annotations

import functools
import re
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


_TOKEN = re.compile(r"\s*(-?[0-9]+|\S)")


def _tokens(text: str) -> tuple[str, list[str]]:
    """The text with '-' for each Unicode minus, and its tokens, then "" for
    its end.  A non-ASCII token is read as "?", which no rule accepts: int()
    would take a non-ASCII decimal digit for a number."""
    text = text.replace("−", "-")
    tokens = _TOKEN.findall(text)
    if not text.isascii():
        tokens = [token if token.isascii() else "?" for token in tokens]
    tokens.append("")
    return text, tokens


def _starts(text: str) -> list[int]:
    """Where each token of _tokens(text) starts; its end at len(text)."""
    return [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]


def _number_refusal(text: str, at: int) -> ParseError:
    """Why no number starts at ``at``, where one should."""
    rest = text[at:]
    end = at + len(rest) - len(rest.lstrip("0123456789"))
    if text[end:end + 1].isdigit():
        return ParseError("expected an ASCII digit", text, end)
    if end == at:
        return ParseError("expected a number", text, at)
    limit = sys.get_int_max_str_digits()  # ASCII digits fail only above the limit
    return ParseError(f"number has {end - at} digits, above the limit of {limit}", text, at)


def _refusal(text: str, tokens: list[str], j: int, message: str | None = None) -> ParseError:
    """The error at token j, where a walk stopped: ``message``, or why no number
    starts there; first, though, a non-ASCII digit right after a number."""
    starts = _starts(text)
    end = starts[j - 1] + len(tokens[j - 1])
    if j and tokens[j - 1][-1].isdigit() and text[end:end + 1].isdigit():
        return ParseError("expected an ASCII digit", text, end)
    if message is None:
        return _number_refusal(text, starts[j] + (tokens[j][:1] == "-"))
    return ParseError(message, text, starts[j])


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
    text, tokens = _tokens(text)
    starts = _starts(text)

    def number(i: int, least: int, what: str) -> int:
        """The number token i spells, written right after token i - 1."""
        at, token = starts[i - 1] + 1, tokens[i]
        end = at + len(token)
        if starts[i] != at or not token.isdigit() or text[end:end + 1].isdigit():
            raise _number_refusal(text, at)
        try:
            n = int(token)
        except ValueError:
            raise _number_refusal(text, at) from None
        if n < least:
            raise ParseError(f"{what} must be at least {least}", text, at)
        return n

    i = dim = 0
    if tokens[0] == "M":
        dim = number(1, 1, "matrix dimension")
        if tokens[2] != "(":
            raise ParseError("expected '('", text, starts[2])
        i = 3
    if tokens[i] != "Z":
        raise ParseError("expected a ring literal starting with 'Z' or 'M'", text, starts[i])
    i, ring = i + 1, Z
    if tokens[i] == "/" and starts[i] == starts[i - 1] + 1:
        ring = modular(number(i + 1, 2, "modulus"))
        i += 2
    if dim:
        if tokens[i] != ")":
            raise ParseError("expected ')'", text, starts[i])
        ring, i = matrix(ring, dim), i + 1
    if tokens[i]:
        raise ParseError("unexpected trailing input", text, starts[i])
    return ring


def parse_element(ring: RingSpec, text: str) -> Element:
    """Parse an element literal in ``ring``; negatives reduce canonically."""
    text, tokens = _tokens(text)
    if not ring.is_matrix:
        if tokens[0] == "[":
            raise _refusal(text, tokens, 0, f"{ring} takes an integer literal, not a matrix")
        try:
            value = int(tokens[0])
        except ValueError:
            raise _refusal(text, tokens, 0) from None
        if tokens[1]:
            raise _refusal(text, tokens, 1, "unexpected trailing input")
        return ring._reduce((value,))
    if tokens[0] != "[":
        message = f"{ring} takes a row-major matrix literal like [[0,1],[1,1]]"
        raise _refusal(text, tokens, 0, message)
    entries: list[int] = []
    lengths = []
    i, sep = 1, ","
    while sep == ",":  # tokens[i] opens a row
        if tokens[i] != "[":
            raise _refusal(text, tokens, i, "expected '['")
        before, sep = len(entries), ","
        while sep == ",":
            try:
                entries.append(int(tokens[i + 1]))
            except ValueError:
                raise _refusal(text, tokens, i + 1) from None
            i += 2
            sep = tokens[i]
        if sep != "]":
            raise _refusal(text, tokens, i, "expected ']'")
        lengths.append(len(entries) - before)
        i += 2
        sep = tokens[i - 1]
    if sep != "]":
        raise _refusal(text, tokens, i - 1, "expected ']'")
    if tokens[i]:
        raise _refusal(text, tokens, i, "unexpected trailing input")
    k = ring.dim
    if len(lengths) != k or lengths.count(k) != k:
        raise _refusal(text, tokens, 0, f"expected a {k}x{k} matrix")
    return ring._reduce(entries)
