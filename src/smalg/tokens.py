"""The tokenizer that the four input formats share.

A ``#`` starts a comment that runs to the end of its line. Lines break where
``str.splitlines`` breaks them and tokens where ``str.split`` splits a line,
so every Unicode line break and space separates. Line numbers are 1-based
and count every line, blank and comment lines included.

A parser strips the comments once and then reads the text in one of two
ways. ``plain_tokens`` matches the whole text against a regex of the
format's grammar, written in ASCII characters with spaces, tabs and ``\\n``
only, and splits it in one call. (The relation and linear-map parsers
match only the format's alphabet there and check the lines on the tokens,
as a grammar regex is slow on large inputs.) It only accepts: a parser
that finds anything wrong in what it returns, such as a value out of
range, reads the text again with ``token_lines``, line by line, which finds
the first error and its line (``convert`` puts the line number on it). So
both paths give the same value or the same error.
"""

from __future__ import annotations

import re

from .errors import FormatError

# a comment ends at any line break that str.splitlines knows
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
# ASCII digits only: ``int()`` also takes other scripts' digits and ``_``
_RE_INT = re.compile(r"\A[+-]?[0-9]+\Z")


def parse_int(token: str) -> int:
    """An optionally signed integer written in ASCII digits.

    Raises ValueError, like ``int()``, on anything else, including the
    ``_`` separators and non-ASCII digits that ``int()`` accepts.
    """
    if not _RE_INT.match(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def strip_comments(text: str) -> str:
    """``text`` with each comment replaced by a space: every line break is
    kept, and a ``\\r`` before a comment and the ``\\n`` after it stay two."""
    return _COMMENT.sub(" ", text) if "#" in text else text


def plain_tokens(text: str, grammar: re.Pattern):
    """The tokens of ``text`` when ``grammar`` matches all of it, else None."""
    return text.split() if grammar.fullmatch(text) else None


def token_lines(text: str):
    """(line number, tokens) for each line of ``text`` that has a token."""
    lines = enumerate(map(str.split, text.splitlines()), start=1)
    return [(lineno, tokens) for lineno, tokens in lines if tokens]


def convert(read, tokens, lineno: int, message=None) -> list:
    """``read`` of each token of line ``lineno``. A FormatError it raises
    gets the line number; so does a ValueError, as FormatError(message),
    when a message is given."""
    try:
        return list(map(read, tokens))
    except FormatError as exc:
        raise FormatError(str(exc), line=lineno) from exc
    except ValueError as exc:
        if message is None:
            raise
        raise FormatError(message, line=lineno) from exc
