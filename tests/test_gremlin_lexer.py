"""Tests for the Gremlin tokenizer."""

import pytest

from repro.gremlin.errors import GremlinSyntaxError
from repro.gremlin.lexer import tokenize


def kinds(text):
    return [(token.kind, token.value) for token in tokenize(text)[:-1]]


class TestTokenize:
    def test_pipeline_shape(self):
        tokens = kinds("g.V.out('knows')")
        assert tokens == [
            ("IDENT", "g"), ("OP", "."), ("IDENT", "V"), ("OP", "."),
            ("IDENT", "out"), ("OP", "("), ("STRING", "knows"), ("OP", ")"),
        ]

    def test_double_quoted_strings(self):
        assert kinds('"hi there"') == [("STRING", "hi there")]

    def test_string_escapes(self):
        assert kinds(r"'a\'b\nc'") == [("STRING", "a'b\nc")]

    def test_unterminated_string(self):
        with pytest.raises(GremlinSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        assert kinds("1 2.5 1e3") == [
            ("NUMBER", "1"), ("NUMBER", "2.5"), ("NUMBER", "1e3"),
        ]

    def test_range_operator_not_a_decimal(self):
        values = [v for __, v in kinds("1..3")]
        assert values == ["1", "..", "3"]

    def test_closure_operators(self):
        values = [v for __, v in kinds("{it.age >= 2 && !x || y != z}")]
        assert "{" in values and "}" in values
        assert ">=" in values and "&&" in values
        assert "!" in values and "||" in values and "!=" in values

    def test_comments_skipped(self):
        assert kinds("g // trailing\n.V") == [
            ("IDENT", "g"), ("OP", "."), ("IDENT", "V"),
        ]

    def test_unexpected_character(self):
        with pytest.raises(GremlinSyntaxError):
            tokenize("g.V @")

    def test_underscore_identifier(self):
        assert kinds("_()")[0] == ("IDENT", "_")

    def test_every_token_records_its_start(self):
        text = "g.v(12, 'ab', 2.5e3) // done"
        assert [(token.value, token.position) for token in tokenize(text)] == [
            ("g", 0), (".", 1), ("v", 2), ("(", 3), ("12", 4), (",", 6),
            ("ab", 8), (",", 12), ("2.5e3", 14), (")", 19), ("", 28),
        ]

    @pytest.mark.parametrize("text, value", [
        (r"'tab\there'", "tab\there"),
        (r'"say \"hi\""', 'say "hi"'),
        (r"'back\\slash'", "back\\slash"),
        (r"'unknown \q kept'", "unknown q kept"),
        ("'escaped \\\nnewline'", "escaped \nnewline"),
        ("'raw\nnewline'", "raw\nnewline"),
    ])
    def test_escapes(self, text, value):
        assert kinds(text) == [("STRING", value)]

    @pytest.mark.parametrize("text, start", [
        (r"'ends in a backslash\'", 0),
        ("'a' + \"b", 6),
    ])
    def test_unterminated_string_names_its_start(self, text, start):
        with pytest.raises(GremlinSyntaxError,
                           match=f"unterminated string starting at {start}$"):
            tokenize(text)

    @pytest.mark.parametrize("text, expected", [
        ("// only a comment", []),
        ("a//b\nc", [("IDENT", "a"), ("IDENT", "c")]),
        ("a / b", [("IDENT", "a"), ("OP", "/"), ("IDENT", "b")]),
        ("'not // a comment'", [("STRING", "not // a comment")]),
    ])
    def test_comments(self, text, expected):
        assert kinds(text) == expected

    @pytest.mark.parametrize("text, values", [
        ("0..9", ["0", "..", "9"]),
        ("[0..9]", ["[", "0", "..", "9", "]"]),
        ("1.5..2", ["1.5", "..", "2"]),
        ("3.x", ["3", ".", "x"]),
    ])
    def test_ranges(self, text, values):
        assert [value for __, value in kinds(text)] == values

    @pytest.mark.parametrize("text, values", [
        ("1e3", ["1e3"]),
        ("2.5E-4", ["2.5E-4"]),
        ("7e+", ["7e+"]),
        ("1e", ["1", "e"]),
        ("1ex", ["1", "ex"]),
        ("4e5.5", ["4e5", ".", "5"]),
    ])
    def test_exponents(self, text, values):
        assert [value for __, value in kinds(text)] == values

    @pytest.mark.parametrize("text, message", [
        ("g.V @", "unexpected character '@' at 4"),
        ("a & b", "unexpected character '&' at 2"),
        ("a | b", "unexpected character '|' at 2"),
    ])
    def test_unexpected_character_position(self, text, message):
        with pytest.raises(GremlinSyntaxError, match=f"^{message}$"):
            tokenize(text)
