"""The golden translation corpus the SQL invariant checker runs over.

``TABLE8_MATRIX`` is one minimal Gremlin query per paper Table-8 row
(pipe -> query exercising it); ``FIGURE7_EXAMPLES`` are the paper's
running examples that exercise the hash-adjacency CTE shape and the
redundant-EA single-step shortcut.  The differential tests and the
SQL invariant checker (:mod:`tests.sqlcheck`) both import it, so they
always agree on what "the corpus" is.

Keep entries translatable against the TinkerPop classic store — the
invariant test loads the classic graph into ``SQLGraphStore`` and feeds
every translation through ``repro.relational.sql``.
"""

# one minimal query per Table 8 row (pipe -> query exercising it)
TABLE8_MATRIX = {
    "out": "g.v(1).out",
    "in": "g.v(3).in",
    "both": "g.v(4).both",
    "outV": "g.e(9).outV",
    "inV": "g.e(9).inV",
    "bothV": "g.e(9).bothV",
    "outE": "g.v(1).outE",
    "inE": "g.v(3).inE",
    "bothE": "g.v(4).bothE",
    "range filter": "g.V.range(1, 3).count()",
    "duplicate filter": "g.v(1).out.in.dedup()",
    "id filter": "g.V.has('id', 3)",
    "property filter": "g.V.has('age', T.gte, 29)",
    "interval filter": "g.V.interval('age', 27, 32)",
    "label filter": "g.E.has('label', 'created')",
    "except filter": "g.v(1).out.aggregate(x).out.except(x)",
    "retain filter": "g.v(1).out.aggregate(x).out.retain(x)",
    "cyclic path filter": "g.v(1).out.in.cyclicPath.count()",
    "back filter": "g.V.as('x').out('created').back('x')",
    "and filter": "g.V.and(_().out('knows'), _().out('created'))",
    "or filter": "g.V.or(_().has('lang'), _().has('age', T.gt, 33))",
    "if-then-else": "g.V.ifThenElse{it.age != null}{it.age}{0}",
    "split-merge": "g.v(1).copySplit(_().out('knows'), _().out('created'))"
                   ".exhaustMerge()",
    "loop": "g.v(1).out.loop(1){it.loops < 2}",
    "as": "g.V.as('here').count()",
    "aggregate": "g.V.aggregate(all).count()",
    "select": "g.v(1).as('a').out.as('b').select('a','b')",
    "path": "g.v(1).out('created').path",
    "simple path": "g.v(1).out.in.simplePath.count()",
    "order": "g.V.age.order()",
    "count": "g.V.count()",
    "property get": "g.v(1).name",
    "id get": "g.v(1).out.id",
    "label get": "g.v(1).outE.label",
    "table (identity)": "g.V.as('x').table(t).count()",
    "groupCount (identity)": "g.V.groupCount(m).count()",
    "sideEffect (identity)": "g.V.sideEffect{it.age > 0}.count()",
    "iterate (identity)": "g.V.iterate().count()",
}

# the paper's Figure 7 running example (hash-adjacency CTE shape) and
# the §3.5 single-step variant that takes the redundant-EA shortcut
FIGURE7_EXAMPLES = {
    "figure7 two-step": "g.V.filter{it.tag=='w'}.both.both.dedup().count()",
    "figure7 single-step": "g.V.filter{it.tag=='w'}.both.dedup().count()",
}


def golden_corpus():
    """All golden queries: name -> Gremlin text."""
    corpus = dict(TABLE8_MATRIX)
    corpus.update(FIGURE7_EXAMPLES)
    return corpus
