"""SQL tokenizer.

One compiled pattern matches every token kind; a text it cannot match at
some offset holds an unexpected character, an unterminated string, quoted
identifier or block comment.
"""

from __future__ import annotations

import re
from collections import namedtuple

from repro.relational.errors import SqlSyntaxError

KEYWORDS = {
    "ALL", "ANALYZE", "AND", "ANY", "AS", "ASC", "BETWEEN", "BOOLEAN", "BY", "CASE",
    "CAST", "COUNT", "CREATE", "CROSS", "DELETE", "DESC", "DISTINCT", "DOUBLE",
    "DROP", "ELSE", "END", "ESCAPE", "EXCEPT", "EXISTS", "EXPLAIN", "FALSE", "FROM",
    "FULL", "GROUP", "HAVING", "IF", "IN", "INDEX", "INNER", "INSERT", "INT",
    "INTEGER", "INTERSECT", "INTO", "IS", "JOIN", "JSON", "KEY", "LEFT",
    "LIKE", "LIMIT", "NOT", "NULL", "OFFSET", "ON", "OR", "ORDER", "OUTER",
    "PRIMARY", "RECURSIVE", "RIGHT", "SELECT", "SET", "STRING", "TABLE",
    "TABLES", "THEN", "TRUE", "UNION", "UNIQUE", "UPDATE", "USING", "VALUES",
    "VARCHAR", "WHEN", "WHERE", "WITH",
}

#: one token: ``kind`` is KEYWORD, IDENT, STRING, NUMBER, OP or EOF,
#: ``value`` its text (a KEYWORD upper-cased, a STRING or quoted IDENT
#: without its quotes), ``position`` its start offset
Token = namedtuple("Token", "kind value position")

_TOKEN = re.compile(
    r"""
      # a block comment ends at the first */ after its /, so /*/ is one
      (?P<SKIP>[ \t\r\n]+|--[^\n]*|/\*(?:/|.*?\*/))
    # '' inside a string is a quote; the closing quote is the first one
    # not followed by another
    | (?P<STRING>'(?:[^']|'')*'(?!'))
    | (?P<QUOTED>"[^"]*")
    # a "." starts a decimal part only before a digit: t1.a is a name;
    # an exponent is e/E, a sign or digit, then any digits
    | (?P<NUMBER>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+\d]\d*)?)
    | (?P<WORD>[^\W\d]\w*)
    | (?P<OP>\|\||<>|!=|<=|>=|[<>=+\-*%(),.;?]|/(?!\*))
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text):
    """Tokenize *text* into a list of tokens ending with an EOF token."""
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
        if kind == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
            elif value[0].isalpha() or value[0] == "_":
                kind = "IDENT"
            else:  # \w also takes numerals that are no decimal digit: ²
                _refuse(text, start)
        elif kind == "STRING":
            value = value[1:-1].replace("''", "'")
        elif kind == "QUOTED":
            kind, value = "IDENT", value[1:-1]
        append(Token(kind, value, start))
    if position != len(text):
        _refuse(text, position)
    append(Token("EOF", "", len(text)))
    return tokens


def _refuse(text, position):
    char = text[position]
    if char == "'":
        message = "unterminated string literal"
    elif char == '"':
        message = "unterminated quoted identifier"
    elif text.startswith("/*", position):
        message = "unterminated block comment"
    else:
        message = f"unexpected character {char!r}"
    raise SqlSyntaxError(message, position)
