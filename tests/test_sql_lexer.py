"""Tests for the SQL tokenizer."""

import pytest

from repro.relational.errors import SqlSyntaxError
from repro.relational.sql.lexer import tokenize


def kinds(text):
    return [(token.kind, token.value) for token in tokenize(text)[:-1]]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        assert kinds("select From")[0] == ("KEYWORD", "SELECT")
        assert kinds("select From")[1] == ("KEYWORD", "FROM")

    def test_identifiers(self):
        assert kinds("foo _bar x1") == [
            ("IDENT", "foo"), ("IDENT", "_bar"), ("IDENT", "x1"),
        ]

    def test_quoted_identifier(self):
        assert kinds('"Select"') == [("IDENT", "Select")]

    def test_string_with_escape(self):
        assert kinds("'it''s'") == [("STRING", "it's")]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        assert kinds("1 2.5 1e3 2.5E-2") == [
            ("NUMBER", "1"), ("NUMBER", "2.5"), ("NUMBER", "1e3"),
            ("NUMBER", "2.5E-2"),
        ]

    def test_qualified_name_not_a_float(self):
        assert kinds("t1.a") == [
            ("IDENT", "t1"), ("OP", "."), ("IDENT", "a"),
        ]

    def test_operators(self):
        assert [v for __, v in kinds("<= >= <> != || ?")] == [
            "<=", ">=", "<>", "!=", "||", "?",
        ]

    def test_line_comment(self):
        assert kinds("select -- comment\n 1") == [
            ("KEYWORD", "SELECT"), ("NUMBER", "1"),
        ]

    def test_block_comment(self):
        assert kinds("select /* x */ 1") == [
            ("KEYWORD", "SELECT"), ("NUMBER", "1"),
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select /* oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")

    def test_eof_token(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == "EOF"

    def test_every_token_records_its_start(self):
        text = "SELECT \"Q\", 'it''s', 2.5e3 FROM t -- done"
        assert [(token.value, token.position) for token in tokenize(text)] == [
            ("SELECT", 0), ("Q", 7), (",", 10), ("it's", 12), (",", 19),
            ("2.5e3", 21), ("FROM", 27), ("t", 32), ("", 41),
        ]

    def test_escaped_quotes_pair_left_to_right(self):
        assert kinds("'''' 'a''' x") == [
            ("STRING", "'"), ("STRING", "a'"), ("IDENT", "x"),
        ]
        assert kinds("''") == [("STRING", "")]

    @pytest.mark.parametrize("text, message, offset", [
        ("x 'oops", "unterminated string literal", 2),
        ("'a''", "unterminated string literal", 0),
        ("x \"oops", "unterminated quoted identifier", 2),
        ("a /* oops", "unterminated block comment", 2),
        ("select @", "unexpected character '@'", 7),
        ("a | b", "unexpected character '|'", 2),
        ("a ! b", "unexpected character '!'", 2),
        ("a\fb", "unexpected character '\\x0c'", 1),
        ("SELECT ²", "unexpected character '²'", 7),
        ("SELECT 1½", "unexpected character '½'", 8),
    ])
    def test_errors_name_their_offset(self, text, message, offset):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize(text)
        assert excinfo.value.position == offset
        assert str(excinfo.value) == f"{message} (at offset {offset})"

    def test_comment_edges(self):
        # a block comment closes at the first */ after its opening /
        assert kinds("a/*/b") == [("IDENT", "a"), ("IDENT", "b")]
        assert kinds("a/**/b") == [("IDENT", "a"), ("IDENT", "b")]
        assert kinds("a -- x") == [("IDENT", "a")]
        assert kinds("a - -1 / 2") == [
            ("IDENT", "a"), ("OP", "-"), ("OP", "-"), ("NUMBER", "1"),
            ("OP", "/"), ("NUMBER", "2"),
        ]

    def test_dot_rules(self):
        assert kinds(".5 t1.5 1.a 1.2.3") == [
            ("NUMBER", ".5"), ("IDENT", "t1"), ("NUMBER", ".5"),
            ("NUMBER", "1"), ("OP", "."), ("IDENT", "a"),
            ("NUMBER", "1.2"), ("NUMBER", ".3"),
        ]

    def test_exponent_rules(self):
        assert kinds("1e 1e+ 1e5e5 1e5.5 .5E-1") == [
            ("NUMBER", "1"), ("IDENT", "e"), ("NUMBER", "1e+"),
            ("NUMBER", "1e5"), ("IDENT", "e5"), ("NUMBER", "1e5"),
            ("NUMBER", ".5"), ("NUMBER", ".5E-1"),
        ]

    def test_longest_operator_wins(self):
        assert [v for __, v in kinds("<>= <=> a||b")] == [
            "<>", "=", "<=", ">", "a", "||", "b",
        ]
