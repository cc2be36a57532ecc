"""The engine's SQL surface is what the product emits.

A census, re-run by every test session: each statement the product sends
the engine is recorded as it runs, with the plan it is executed by.  The
statements come from

* the Gremlin translator over the golden corpus (:mod:`tests.corpus`,
  paper Table 8 + Figure 7) and :data:`MORE_GREMLIN`, planned without and
  with ANALYZE statistics;
* the four :mod:`repro.graph.analytics` algorithms;
* the store's own SQL: loading, attribute indexes, the stored procedures
  and element accessors, export, reorganize, ANALYZE and a durable reopen;
* the two baseline schemas (:mod:`repro.baselines.schemas`).

Every AST node type, operator class, plan step and function name the
census sees must be in the kept-surface lists below, and every kept entry
must be either seen by the census or listed in :data:`USER_FEATURES` —
reachable through ``:sql`` and ``Database.execute``, but emitted by no
product path.  The kept lists must also name exactly what the engine
defines, so a construct the product stops emitting fails here until it is
deleted or declared a user feature.

The constructs the engine dropped are rejected with typed errors that name
them, and the sqlite differential pools draw only from the kept surface.
"""

import dataclasses
import inspect

import pytest

from repro.baselines.schemas import HashAttributeTable, JsonAdjacencyStore
from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.graph.blueprints import Direction
from repro.relational import Database
from repro.relational import expressions as ex
from repro.relational import operators as op
from repro.relational.errors import BindError, SqlSyntaxError
from repro.relational.plan import CteStep, RecursiveCteStep
from repro.relational.planner import Planner
from repro.relational.sql import ast_nodes as ast
from repro.relational.sql.parser import parse_statement
from tests.corpus import golden_corpus
from tests.sqlcheck import _walk_nodes
from tests.test_sqlite_differential import DML, QUERIES

#: statement-level AST nodes; joins and set operations by kind
KEPT_NODES = {
    "SelectStatement", "Select", "SelectItem", "TableRef", "UnnestValues",
    "Join[inner]", "Join[left]", "Join[cross]",
    "SetOp[union_all]", "SetOp[union]",
    "OrderItem", "CommonTableExpr",
    "InsertStatement", "UpdateStatement", "DeleteStatement",
    "CreateTableStatement", "ColumnDef", "CreateIndexStatement",
    "DropTableStatement", "ExplainStatement",
    # expressions
    "Literal", "Parameter", "ColumnRef", "BinaryOp", "Comparison", "And",
    "Or", "Not", "IsNull", "Like", "InList", "InSubquery", "Cast",
    "CaseWhen", "FuncCall",
}

#: physical operators and the steps that fill CTEs
KEPT_OPERATORS = {
    "SeqScan", "IndexEqScan", "IndexRangeScan", "MaterializedScan",
    "FilterOp", "ProjectOp", "HashJoinOp", "IndexNLJoinOp",
    "LateralUnnestOp", "UnionAllOp", "DistinctOp", "AggregateOp", "SortOp",
    "LimitOp", "CteStep", "RecursiveCteStep",
}

#: scalar functions, COALESCE (compiled inline) and the aggregates
KEPT_FUNCTIONS = {
    "json_val", "abs", "coalesce", "issimplepath", "path_init",
    "element_at", "path_prefix", "make_list",
    "count", "sum", "avg", "min", "max",
}

#: kept, but emitted by no product path: what a user reaches directly
USER_FEATURES = {
    "UpdateStatement", "ExplainStatement", "Join[cross]", "avg",
    # WITH RECURSIVE stays until paper §4.3's unbounded loops decide it
    "RecursiveCteStep",
}

#: the dropped constructs, each with the name its error gives
DELETED = [
    ("SELECT a FROM t INTERSECT SELECT a FROM u", "INTERSECT"),
    ("SELECT a FROM t EXCEPT SELECT a FROM u", "EXCEPT"),
    ("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1", "HAVING"),
    ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)", "EXISTS"),
    ("SELECT a FROM t WHERE a = (SELECT MAX(a) FROM u)", "scalar subquery"),
    ("UPDATE t SET a = (SELECT MAX(a) FROM u)", "scalar subquery"),
    ("SELECT s.a FROM (SELECT a FROM t) AS s", "derived table"),
    ("SELECT t.a FROM t LEFT JOIN (SELECT a FROM u) s ON t.a = s.a",
     "derived table"),
    ("ANALYZE", "ANALYZE"),
    ("ANALYZE t", "ANALYZE"),
]


#: translator templates the corpus leaves out: a negated closure
#: (``NOT``)
MORE_GREMLIN = ["g.V.filter{!(it.age > 30)}.name"]


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def _run_product(directory):
    graph = tinkerpop_classic()
    store = SQLGraphStore(path=str(directory / "store"), wal_fsync="off")
    store.load_graph(graph)
    store.create_attribute_index("vertex", "name")
    store.create_attribute_index("vertex", "age", sorted_index=True)
    corpus = list(golden_corpus().values()) + MORE_GREMLIN
    for text in corpus:
        store.run(text)

    vid = store.add_vertex(properties={"name": "ann", "age": 3})
    other = store.add_vertex(properties={"name": "bo"})
    eid = store.add_edge(vid, other, "knows", properties={"weight": 0.5})
    store.set_vertex_property(vid, "age", 4)
    store.set_edge_property(eid, "weight", 0.7)
    vertex = store.get_vertex(vid)
    for direction in Direction:
        vertex.vertices(direction)
        vertex.edges(direction, ("knows",))
    store.get_edge(eid).vertex(Direction.IN)
    store.vertices(), store.edges()
    store.vertex_count(), store.edge_count()
    store.remove_edge(eid)
    store.remove_vertex(other)
    store.export_graph()
    store.table_stats()

    store.pagerank()
    store.connected_components()
    store.label_propagation()
    store.shortest_paths(1)
    store.shortest_paths(1, weight_key="weight")

    store.reorganize()
    store.run("g.V.out.name")
    store.close()
    SQLGraphStore(path=str(directory / "store")).close()

    adjacency = JsonAdjacencyStore()
    adjacency.load_graph(graph)
    adjacency.k_hop([1], 2)
    adjacency.k_hop([4], 2, labels=("created",), undirected=True)
    attributes = HashAttributeTable()
    attributes.load_graph(graph)
    attributes.create_value_index("name")
    for sql in (
        attributes.exists_sql("lang"),
        attributes.string_lookup_sql("name", like_pattern="m%"),
        attributes.string_lookup_sql("name", equals="josh"),
        attributes.numeric_lookup_sql("age", ">", 30),
    ):
        attributes.database.execute(sql)


@dataclasses.dataclass
class Surface:
    nodes: set
    operators: set
    functions: set


def _node_label(node):
    if isinstance(node, ast.Join):
        return f"Join[{node.kind}]"
    if isinstance(node, ast.SetOp):
        return f"SetOp[{node.op}]"
    return type(node).__name__


def statement_surface(statements, plans=()):
    """The AST nodes and functions of *statements* and the operators and
    steps of *plans*."""
    surface = Surface(set(), set(), set())
    for statement in statements:
        for node in _walk_nodes(statement):
            surface.nodes.add(_node_label(node))
            if isinstance(node, ex.FuncCall):
                surface.functions.add(node.name)

    def visit(operator):
        surface.operators.add(type(operator).__name__)
        for child in operator.children_ops():
            visit(child)

    for plan in plans:
        for step in plan.steps:
            surface.operators.add(type(step).__name__)
            if isinstance(step, CteStep):
                visit(step.plan)
            else:
                for term in step.base_terms + step.recursive_terms:
                    visit(term)
        visit(plan.body)
    return surface


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    statements, plans = {}, []
    prepare, plan = Database._prepare, Planner.plan

    def recording_prepare(database, sql):
        prepared = prepare(database, sql)
        statements[prepared.sql] = prepared.statement
        return prepared

    def recording_plan(planner, statement):
        built = plan(planner, statement)
        plans.append(built)
        return built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Database, "_prepare", recording_prepare)
        patch.setattr(Planner, "plan", recording_plan)
        _run_product(tmp_path_factory.mktemp("census"))
    return statement_surface(statements.values(), plans)


def test_census_stays_inside_the_kept_surface(census):
    assert census.nodes - KEPT_NODES == set()
    assert census.operators - KEPT_OPERATORS == set()
    assert census.functions - KEPT_FUNCTIONS == set()


def test_every_kept_construct_is_emitted_or_a_user_feature(census):
    reached = census.nodes | census.operators | census.functions
    kept = KEPT_NODES | KEPT_OPERATORS | KEPT_FUNCTIONS
    assert kept - reached == USER_FEATURES


def test_kept_lists_name_exactly_what_the_engine_defines():
    def classes(module, base):
        return {
            name for name, value in vars(module).items()
            if inspect.isclass(value) and issubclass(value, base)
            and value is not base and not name.startswith("_")
        }

    statement_nodes = {
        name for name, value in vars(ast).items()
        if dataclasses.is_dataclass(value)
    }
    kinds = {"Join[inner]", "Join[left]", "Join[cross]",
             "SetOp[union_all]", "SetOp[union]"}
    assert (statement_nodes - {"Join", "SetOp"}) | kinds | classes(
        ex, ex.Expression
    ) == KEPT_NODES
    steps = {CteStep.__name__, RecursiveCteStep.__name__}
    assert classes(op, op.Operator) | steps == KEPT_OPERATORS
    assert set(ex.default_functions()) | {"coalesce"} | (
        ex.AGGREGATE_FUNCTIONS
    ) == KEPT_FUNCTIONS


# ----------------------------------------------------------------------
# what the engine refuses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sql, construct", DELETED)
def test_deleted_construct_is_a_named_syntax_error(sql, construct):
    with pytest.raises(SqlSyntaxError, match=f"{construct}.* not supported"):
        parse_statement(sql)


@pytest.fixture
def database():
    instance = Database()
    instance.execute("CREATE TABLE t (a INTEGER, s STRING)")
    instance.execute("CREATE TABLE u (a INTEGER)")
    return instance


@pytest.mark.parametrize("sql", [
    "SELECT t.a FROM t, u",
    "SELECT t.a FROM t, u WHERE t.a < u.a",
    "SELECT t.a FROM t CROSS JOIN u",
    "SELECT t.a FROM t LEFT JOIN u ON t.a <> u.a",
])
def test_join_without_equality_is_a_bind_error(database, sql):
    with pytest.raises(BindError, match="no equality between its sides"):
        database.execute(sql)


@pytest.mark.parametrize("name", [
    "upper", "lower", "length", "substr", "sqrt", "path_length",
])
def test_deleted_function_is_unknown(database, name):
    with pytest.raises(BindError, match=f"unknown function '{name}'"):
        database.execute(f"SELECT {name.upper()}(s) FROM t")


def test_sqlite_differential_pools_use_the_kept_surface():
    statements = [parse_statement(sql) for sql in QUERIES]
    statements += [parse_statement(sql) for sql, __ in DML]
    pools = statement_surface(statements)
    assert pools.nodes - KEPT_NODES == set()
    assert pools.functions - KEPT_FUNCTIONS == set()
