"""The tokenizer that the four input formats share.

A ``#`` starts a comment that runs to the end of its line. Lines break where
``str.splitlines`` breaks them and tokens where ``str.split`` splits a line,
so every Unicode line break and space separates. Line numbers are 1-based
and count every line, blank and comment lines included.

Each format has one reader. It strips the comments once and walks the
lines of ``token_lines`` once, in order, and stops at the first error, on
which ``convert`` puts the line number. The walk keeps no list of the
file's lines. A vertex written as its name, "1" to "n", is looked up in
``names``; only a token that is not a name is read by ``parse_int`` and
checked, so a leading zero, a sign or a non-ASCII digit gives the value or
the error it would give if every token were read.
"""

from __future__ import annotations

import re
from operator import itemgetter

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


def token_lines(text: str):
    """An iterator of (line number, tokens) over the lines of ``text`` that
    have a token."""
    return filter(itemgetter(1), enumerate(map(str.split, text.splitlines()), 1))


def names(n: int):
    """The ``get`` of a dict from each name "1" to "n" to its int: None for
    any other token."""
    vertices = range(1, n + 1)
    return dict(zip(map(str, vertices), vertices)).get


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
