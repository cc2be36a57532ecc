"""Coverage matrix for paper Table 8: every supported pipe translates and
executes consistently with the interpreter, and the paper's Figure 7
example produces the documented CTE structure."""

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.gremlin import GremlinInterpreter, parse_gremlin
from tests.corpus import FIGURE7_EXAMPLES, TABLE8_MATRIX


@pytest.fixture(scope="module")
def pair():
    graph = tinkerpop_classic()
    store = SQLGraphStore()
    store.load_graph(graph)
    return store, GremlinInterpreter(graph)


def _normalize_interpreter(values):
    out = []
    for value in values:
        if hasattr(value, "id") and hasattr(value, "get_property"):
            out.append(value.id)
        elif isinstance(value, (list, tuple)):
            out.append(
                tuple(item.id if hasattr(item, "id") else item for item in value)
            )
        else:
            out.append(value)
    return sorted(map(repr, out))


@pytest.mark.parametrize("pipe_name", sorted(TABLE8_MATRIX))
def test_pipe_translates_and_agrees(pair, pipe_name):
    store, interpreter = pair
    text = TABLE8_MATRIX[pipe_name]
    sql = store.translate(text)
    assert sql.startswith("WITH ")
    expected = _normalize_interpreter(interpreter.run(parse_gremlin(text)))
    got = sorted(
        repr(tuple(v) if isinstance(v, (list, tuple)) else v)
        for v in store.run(text)
    )
    assert got == expected, text


def test_figure7_example_structure(pair):
    """The paper's running example, forced onto the hash-adjacency path by
    an extra traversal step, compiles to the Figure 7 CTE shape: JSON
    attribute lookup, OPA/OSA and IPA/ISA branches, UNION ALL, dedup,
    COUNT."""
    store, interpreter = pair
    text = FIGURE7_EXAMPLES["figure7 two-step"]
    sql = store.translate(text)
    assert "JSON_VAL(p.attr, 'tag') = 'w'" in sql
    assert "opa" in sql and "LEFT OUTER JOIN osa" in sql
    assert "ipa" in sql and "LEFT OUTER JOIN isa" in sql
    assert "UNION ALL" in sql
    assert "SELECT DISTINCT" in sql
    assert "COUNT(*)" in sql
    assert sql.count(" AS (") >= 7
    assert store.run(text) == [0]  # no 'tag' attribute in this graph


def test_figure7_single_step_uses_ea_shortcut(pair):
    """With `both` as the only traversal step, the §3.5 optimization kicks
    in: the redundant EA table answers both directions, no OPA/OSA join."""
    store, __ = pair
    sql = store.translate(FIGURE7_EXAMPLES["figure7 single-step"])
    assert " ea " in sql
    assert "opa" not in sql and "UNION ALL" in sql


def test_figure7_with_matching_data(pair):
    store, __ = pair
    store.set_vertex_property(1, "tag", "w")
    try:
        result = store.run(FIGURE7_EXAMPLES["figure7 single-step"])
        assert result == [3]  # marko's distinct neighbours
    finally:
        store.procedures.update_vertex(1, {"tag": None})
