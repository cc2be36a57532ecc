"""Tokenizer for the Gremlin-Groovy pipeline subset.

One compiled pattern matches every token kind; a text it cannot match at
some offset holds an unexpected character or an unterminated string.

:func:`slot_literals` is the front end's cheap pass: it finds the same
NUMBER and STRING tokens without tokenizing the rest, so texts that
differ only in their literals share one *shape*.
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

# the NUMBER and STRING tokens of _TOKEN, and the comments that hide
# them; a digit right after a word character is inside an identifier or
# a number, never the start of a NUMBER
_LITERAL = re.compile(
    r"""(//[^\n]*|'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|"""
    r"""(?<!\w)\d+(?:\.\d+)?(?:[eE][-+\d]\d*)?)""",
    re.DOTALL,
)
_KINDS = frozenset(("int", "float", "str"))


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
            value = _string_value(value)
        append(Token(kind, value, start))
    if position != len(text):
        _refuse(text, position)
    append(Token("EOF", "", len(text)))
    return tokens


def _string_value(token):
    body = token[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda escape: _ESCAPES.get(escape[1], escape[1]), body)


def number_value(text):
    """The value of a NUMBER token: a float when it has a decimal part or
    an exponent, else an int."""
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise GremlinSyntaxError(f"malformed number {text!r}") from None


def slot_literals(text):
    """Split *text* into its shape and its literal values.

    The shape is a tuple: the text between literals, with each NUMBER or
    STRING token replaced by its slot kind (``"int"``, ``"float"`` or
    ``"str"``) and each comment kept as written.  The values are the
    literals as the parser reads them, in text order.  Two texts of one
    shape differ only in literals of the same kinds, so they tokenize
    alike.
    """
    pieces = _LITERAL.split(text)
    values = []
    append = values.append
    for position in range(1, len(pieces), 2):
        token = pieces[position]
        first = token[0]
        if first == "'" or first == '"':
            append(_string_value(token))
            pieces[position] = "str"
        elif first != "/":
            value = number_value(token)
            append(value)
            pieces[position] = "int" if type(value) is int else "float"
    return tuple(pieces), values


def fill_slots(shape, values):
    """The text of *shape* with its slots holding *values*, which are
    non-negative numbers and strings of the slots' kinds."""
    pieces = list(shape)
    fill = iter(values)
    for position in range(1, len(pieces), 2):
        if pieces[position] in _KINDS:
            value = next(fill)
            if isinstance(value, str):
                escaped = value.replace("\\", "\\\\").replace("'", "\\'")
                pieces[position] = f"'{escaped}'"
            else:
                pieces[position] = repr(value)
    return "".join(pieces)


def _refuse(text, position):
    char = text[position]
    if char in "'\"":
        raise GremlinSyntaxError(f"unterminated string starting at {position}")
    raise GremlinSyntaxError(f"unexpected character {char!r} at {position}")
