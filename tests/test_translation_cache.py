"""The translation cache keyed on slotted text.

``SQLGraphStore.translation_cache`` maps a query's *shape* (its text
with every NUMBER and STRING literal replaced by a slot of its kind) to
the slot map learned on the shape's first sight and the statements
translated for it.  A warm text binds its literals through that map and
never reaches the parser.  These tests hold the warm hit to the cold
path and to the reference interpreter on the same text.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.gremlin import GremlinInterpreter, parse_gremlin
from repro.gremlin.errors import GremlinError, GremlinSyntaxError
from repro.gremlin.lexer import fill_slots, slot_literals
from tests.corpus import golden_corpus
from tests.test_differential import normalize_interpreter, normalize_sql

# a random text draws each string literal from the pool holding the
# corpus literal it replaces (a property key stays a key of the same
# value type, a label a label), else from the values; the values carry
# quotes and backslashes to escape and digit strings
STRING_POOLS = (("age",), ("name", "lang", "tag"), ("id",), ("label",),
                ("knows", "created", "likes"), ("x", "here", "a", "b"))
STRING_VALUES = ("marko", "josh", "java", "w", "it's", "a\\b", "1", "v1")


@pytest.fixture(scope="module")
def graph():
    return tinkerpop_classic()


@pytest.fixture(scope="module")
def warm(graph):
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


@pytest.fixture(scope="module")
def cold(graph):
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


@pytest.fixture(scope="module")
def interpreter(graph):
    return GremlinInterpreter(graph)


def outcome(run, text):
    """``("ok", multiset)`` or ``("error", exception type)``."""
    try:
        return "ok", normalize_sql(run(text))
    except GremlinError as exc:
        return "error", type(exc)


def assert_agree(warm, cold, interpreter, text):
    """The warm store, a cold translation and the interpreter agree."""
    got = outcome(warm.run, text)
    cold.translation_cache.invalidate_all()
    expected = outcome(cold.run, text)
    assert not cold.last_query_stats.translation_cache_hit
    assert got == expected, text
    if expected[0] == "ok":
        assert normalize_interpreter(
            interpreter.run(parse_gremlin(text))) == expected[1], text


def shapes():
    """``(shape, literals)`` of every golden-corpus query."""
    return [slot_literals(text) for __, text in sorted(golden_corpus().items())]


def literal_like(value):
    if isinstance(value, str):
        pools = [pool for pool in STRING_POOLS if value in pool]
        return st.sampled_from(pools[0] if pools else STRING_VALUES)
    if isinstance(value, float):
        return st.sampled_from((0.2, 0.4, 0.5, 1.0, 29.0))
    return st.integers(0, 12)


@st.composite
def corpus_texts(draw):
    """Two texts of one corpus shape with independently drawn literals."""
    shape, literals = draw(st.sampled_from(shapes()))
    fill = st.tuples(*(literal_like(value) for value in literals))
    return fill_slots(shape, draw(fill)), fill_slots(shape, draw(fill))


class TestWarmAgreesWithCold:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus_texts())
    def test_corpus_shapes_with_random_literals(self, warm, cold,
                                                interpreter, texts):
        for text in texts:
            assert_agree(warm, cold, interpreter, text)

    @pytest.mark.parametrize("texts", [
        # a kept key equal to a parameter value, both ways round
        ("g.V('name', 'marko').out.name", "g.V('name', 'name').out.name",
         "g.V('age', 'name')"),
        # an int, a float and a string of the same digits
        ("g.V.has('age', 29).name", "g.V.has('age', 29.0).name",
         "g.V.has('age', '29').name"),
        ("g.E.has('weight', 0.5).count()", "g.E.has('weight', 1).count()"),
        # escaped quotes and backslashes in a has value, negative numbers
        ("g.V.has('name', 'it\\'s').count()",
         "g.V.has('name', \"marko\").count()",
         "g.V.has('name', 'a\\\\b').count()",
         "g.V.has('age', T.gt, -1).count()",
         "g.V.has('age', T.gt, 30).count()",
         "g.V.filter{it.age > -30 && it.age < 30}.name",
         "g.V.filter{it.age > 27 && it.age < 30}.name",
         "g.V.filter{it.age > 3 - -27}.name"),
        # range and loop bounds shape the SQL
        ("g.V.range(0..3)", "g.V.range(0..4)"),
        ("g.V.range(0, 3).count()", "g.V.range(0, 4).count()",
         "g.V.range(1, 4).count()"),
        ("g.v(1).out.loop(1){it.loops < 3}.count()",
         "g.v(1).out.loop(1){it.loops < 4}.count()",
         "g.v(1).out.loop(1){it.loops < 2}.count()",
         "g.v(4).out.loop(1){it.loops < 2}.count()"),
        # labels, digits inside identifiers and inside strings
        ("g.v(1).outE('knows').inV.name", "g.v(1).outE('created').inV.name",
         "g.v(4).outE('created').inV.name"),
        ("g.V.out.aggregate(x1).out.except(x1).count()",
         "g.V.out.aggregate(x2).out.except(x1).count()",
         "g.V.has('name', 'v1').count()", "g.V.has('name', 'josh').count()",
         "g.V.filter{it.name.contains('o')}.count()",
         "g.V.filter{it.name.contains('r')}.count()"),
        # repeated start ids are a bag, not a set
        ("g.v(1, 2).out.count()", "g.v(1, 1).out.count()", "g.v(1, 1)",
         "g.e(9, 9).count()", "g.e(9, 10).inV.name", "g.e(7, 7).inV.name"),
        # comments are not literals; the text after one is
        ("g.v(1).out // it's 2\n.name", "g.v(4).out // it's 3\n.name"),
    ])
    def test_traps(self, warm, cold, interpreter, texts):
        for text in texts:
            assert_agree(warm, cold, interpreter, text)


class TestSlotMap:
    def test_warm_read_skips_the_parser(self, monkeypatch):
        store = SQLGraphStore()
        store.load_graph(tinkerpop_classic())
        store.run("g.v(1).outE('knows')")

        def refuse(*args):
            raise AssertionError("a warm read parsed its text")

        monkeypatch.setattr("repro.core.store.parse_gremlin", refuse)
        monkeypatch.setattr("repro.core.store.parameterize_query", refuse)
        assert sorted(store.run("g.v(4).outE('knows')")) == []
        assert sorted(store.run("g.v(1).outE('knows')")) == [7, 8]
        assert store.last_query_stats.translation_cache_hit

    def test_unlearnable_shape_falls_back(self, warm, cold, interpreter):
        # a unary minus on a property makes the parser add a constant
        # no literal explains: the shape is never cached
        text = "g.V.filter{-it.age < -30}.name"
        before = warm.translation_cache.stats()["size"]
        for __ in range(2):
            assert_agree(warm, cold, interpreter, text)
            assert not warm.last_query_stats.translation_cache_hit
        assert warm.translation_cache.stats()["size"] == before

    def test_ddl_drops_the_entries(self):
        store = SQLGraphStore()
        store.load_graph(tinkerpop_classic())
        text = "g.V.has('age', T.gt, 28).name"
        cold = sorted(store.run(text))
        store.run(text)
        assert store.last_query_stats.translation_cache_hit
        invalidations = store.translation_cache.stats()["invalidations"]
        store.create_attribute_index("vertex", "age", sorted_index=True)
        assert sorted(store.run(text)) == cold
        assert not store.last_query_stats.translation_cache_hit
        counters = store.translation_cache.stats()
        assert counters["invalidations"] == invalidations + 1
        assert counters["size"] == 1


class TestIds:
    @pytest.mark.parametrize("text, literal", [
        ("g.v('x')", "'x'"),
        ("g.v(1.5)", "1.5"),
        ("g.e(1, '2')", "'2'"),
        ("g.V(2.0).out", "2.0"),
        ("g.v(true)", "True"),
    ])
    def test_only_integer_literals_are_ids(self, warm, interpreter, text,
                                           literal):
        for run in (warm.run, lambda t: interpreter.run(parse_gremlin(t))):
            with pytest.raises(GremlinSyntaxError, match=literal):
                run(text)

    def test_repeated_ids_keep_their_multiplicity(self, warm):
        single = warm.run("g.v(1).out.count()")[0]
        assert warm.run("g.v(1, 1).out.count()") == [2 * single]
        assert warm.run("g.v(1, 1)") == [1, 1]
        assert warm.run("g.e(3, 3)") == []
        assert sorted(warm.run("g.e(9, 9)")) == [9, 9]


class TestKeyPass:
    @pytest.mark.parametrize("left, right", [
        ("g.v(1).outE('a')", "g.v(23).outE(\"b\")"),
        ("g.V.has('w', 1.5)", "g.V.has('w', 2e3)"),
        ("g.V.range(0..3)", "g.V.range(1..4)"),
    ])
    def test_same_shape(self, left, right):
        assert slot_literals(left)[0] == slot_literals(right)[0]

    @pytest.mark.parametrize("left, right", [
        ("g.V.has('w', 1)", "g.V.has('w', 1.0)"),
        ("g.V.has('w', 1)", "g.V.has('w', '1')"),
        ("g.V.as(x1).count()", "g.V.as(x2).count()"),
        ("g.v(1).out // 1\n.name", "g.v(1).out // 2\n.name"),
    ])
    def test_different_shapes(self, left, right):
        assert slot_literals(left)[0] != slot_literals(right)[0]

    @pytest.mark.parametrize("text, values", [
        ("g.v(12).outE('a1')", [12, "a1"]),
        ("g.V.as(x12).has('k', 'it\\'s').back(x12)", ["k", "it's"]),
        ("g.V.range(0..3)", [0, 3]),
        ("g.V.has('w', 1e3).has('v', 2.5)", ["w", 1000.0, "v", 2.5]),
        ("g.V.has('w', 1ex)", ["w", 1]),
        ("g.V.has('w', -7) // 8 'q'\n", ["w", 7]),
        ("g.V.has(\"a\\\"b\", 'c\\nd')", ['a"b', "c\nd"]),
    ])
    def test_literals_are_the_tokenizers(self, text, values):
        assert slot_literals(text)[1] == values

    def test_malformed_number_is_a_syntax_error(self):
        for text in ("g.V.has('w', 1e+)", "g.V.has('w', 1e-)"):
            with pytest.raises(GremlinSyntaxError, match="malformed number"):
                slot_literals(text)
            with pytest.raises(GremlinSyntaxError, match="malformed number"):
                parse_gremlin(text)

    def test_fill_slots_round_trips(self):
        shape, values = slot_literals("g.V.has('k', 'it\\'s').has('n', 2.5)")
        assert slot_literals(fill_slots(shape, values)) == (shape, values)
