"""S-expression reader shared by the formula, constraint, and guard parsers.

Produces nested lists of tokens; interval tokens like ``[0,2]`` or
``(1,inf]`` are recognized at the lexer level and returned as Interval
objects.  Errors carry the offending position.
"""

from __future__ import annotations

import re

from .temporal import Interval


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# interval tokens must win over '(' so that "(1,2]" lexes as one token
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<interval>[\[\(]\s*\d+\s*,\s*(?:\d+|inf(?:inity)?)\s*[\]\)])
      | (?P<open>\()
      | (?P<close>\))
      | (?P<symbol>[^\s()\[\]]+)
    )""",
    re.VERBOSE,
)


def _parse_interval(text: str, pos: int) -> Interval:
    lo_open = text[0] == "("
    hi_open = text[-1] == ")"
    body = text[1:-1]
    lo_s, hi_s = (part.strip() for part in body.split(","))
    hi = None if hi_s.startswith("inf") else int(hi_s)
    try:
        return Interval(int(lo_s), hi, lo_open, hi_open)
    except ValueError as e:
        raise ParseError(str(e), pos) from None


def tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                return
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "open":
            yield ("(", m.start())
        elif m.lastgroup == "close":
            yield (")", m.start())
        elif m.lastgroup == "interval":
            yield (_parse_interval(m.group().strip(), m.start()), m.start())
        else:
            yield (m.group("symbol"), m.start())


def parse(text: str):
    """One s-expression: a symbol string, an Interval, or a nested list."""
    tokens = list(tokenize(text))
    if not tokens:
        raise ParseError("empty input", 0)
    expr, rest = _read(tokens, 0)
    if rest != len(tokens):
        raise ParseError("trailing input after expression", tokens[rest][1])
    return expr


def _read(tokens, i):
    tok, pos = tokens[i]
    if tok == "(":
        items = []
        i += 1
        while True:
            if i >= len(tokens):
                raise ParseError("unbalanced parenthesis", pos)
            if tokens[i][0] == ")":
                return items, i + 1
            item, i = _read(tokens, i)
            items.append(item)
    if tok == ")":
        raise ParseError("unexpected ')'", pos)
    return tok, i + 1
