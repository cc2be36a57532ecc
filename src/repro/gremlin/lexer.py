"""Tokenizer for the Gremlin-Groovy pipeline subset.

One compiled pattern matches every token kind; a text it cannot match at
some offset holds an unexpected character or an unterminated string.
"""

from __future__ import annotations

import re
from collections import namedtuple

from repro.gremlin.errors import GremlinSyntaxError

#: one token: ``kind`` is IDENT, NUMBER, STRING, OP or EOF, ``value`` its
#: text (a STRING's unescaped body), ``position`` its start offset
Token = namedtuple("Token", "kind value position")

_TOKEN = re.compile(
    r"""
      (?P<SKIP>[ \t\r\n]+|//[^\n]*)
    | (?P<STRING>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    # a "." starts a decimal part only before a digit: 1..3 is a range;
    # an exponent is e/E, a sign or digit, then any digits
    | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][-+\d]\d*)?)
    | (?P<IDENT>[^\W\d]\w*)
    | (?P<OP>==|!=|<=|>=|&&|\|\||\.\.|[<>!(){}\[\],.+\-*/%=])
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def tokenize(text):
    tokens = []
    append = tokens.append
    position = 0
    for match in _TOKEN.finditer(text):
        start = match.start()
        if start != position:
            _refuse(text, position)
        position = match.end()
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        value = match.group()
        if kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(
                    lambda escape: _ESCAPES.get(escape[1], escape[1]), value
                )
        append(Token(kind, value, start))
    if position != len(text):
        _refuse(text, position)
    append(Token("EOF", "", len(text)))
    return tokens


def _refuse(text, position):
    char = text[position]
    if char in "'\"":
        raise GremlinSyntaxError(f"unterminated string starting at {position}")
    raise GremlinSyntaxError(f"unexpected character {char!r} at {position}")
