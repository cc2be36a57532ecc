"""Pipe AST nodes — the four Gremlin operation categories of paper Table 5.

Every node records its category (``transform`` / ``filter`` /
``side_effect`` / ``branch``) and whether it changes the traversed object
(``extends_path``), which drives path tracking in both the interpreter and
the SQL translator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRANSFORM = "transform"
FILTER = "filter"
SIDE_EFFECT = "side_effect"
BRANCH = "branch"

# comparison tokens accepted by has(): T.eq, T.neq, ...
COMPARE_TOKENS = {
    "eq": "==",
    "neq": "!=",
    "lt": "<",
    "lte": "<=",
    "gt": ">",
    "gte": ">=",
}


class Pipe:
    category = TRANSFORM
    extends_path = False
    #: sharding metadata: ``True`` when evaluating the pipe never leaves
    #: the shard that owns its input elements (pure filters, property
    #: access, side effects over already-materialized traversers).
    #: Adjacency hops (except ``outE``) and pipes that embed sub-pipelines
    #: are ``False`` — the scatter-gather router must take over for those.
    shard_local = True


# ----------------------------------------------------------------------
# start pipes
# ----------------------------------------------------------------------
@dataclass
class StartVertices(Pipe):
    """``g.V``, ``g.V(key, value)`` or ``g.v(id, ...)``."""

    ids: list = field(default_factory=list)
    key: str | None = None
    value: object = None
    category = TRANSFORM
    extends_path = True
    # start placement is the router's decision (which shards own the
    # seed ids), not a local property of the pipe
    shard_local = False


@dataclass
class StartEdges(Pipe):
    """``g.E`` or ``g.e(id, ...)``."""

    ids: list = field(default_factory=list)
    key: str | None = None
    value: object = None
    category = TRANSFORM
    extends_path = True
    shard_local = False


# ----------------------------------------------------------------------
# transform pipes
# ----------------------------------------------------------------------
@dataclass
class Adjacent(Pipe):
    """``out`` / ``in`` / ``both`` (vertex to adjacent vertices)."""

    direction: str  # 'out' | 'in' | 'both'
    labels: tuple = ()
    category = TRANSFORM
    extends_path = True
    shard_local = False


@dataclass
class IncidentEdges(Pipe):
    """``outE`` / ``inE`` / ``bothE`` (vertex to incident edges)."""

    direction: str
    labels: tuple = ()
    category = TRANSFORM
    extends_path = True

    @property
    def shard_local(self):
        # an edge is stored on the shard owning its source vertex
        # (repro.sharding.partition), so out-edges never leave it
        return self.direction == "out"


@dataclass
class EdgeVertex(Pipe):
    """``outV`` / ``inV`` / ``bothV`` (edge to its endpoint(s))."""

    direction: str
    category = TRANSFORM
    extends_path = True
    shard_local = False


@dataclass
class IdGetter(Pipe):
    category = TRANSFORM
    extends_path = True


@dataclass
class LabelGetter(Pipe):
    category = TRANSFORM
    extends_path = True


@dataclass
class PropertyGetter(Pipe):
    """``property('name')`` or the bare ``.name`` Groovy shorthand."""

    key: str
    category = TRANSFORM
    extends_path = True


@dataclass
class PathPipe(Pipe):
    category = TRANSFORM
    extends_path = False


@dataclass
class CountPipe(Pipe):
    category = TRANSFORM
    extends_path = False


@dataclass
class OrderPipe(Pipe):
    descending: bool = False
    category = TRANSFORM
    extends_path = False


@dataclass
class BackPipe(Pipe):
    """``back(n)`` or ``back('name')`` — rewind to an earlier step."""

    target: object  # int or str
    category = TRANSFORM
    extends_path = False


@dataclass
class SelectPipe(Pipe):
    """``select('a','b')`` — project named steps (interpreter only)."""

    names: tuple = ()
    category = TRANSFORM
    extends_path = False


# ----------------------------------------------------------------------
# filter pipes
# ----------------------------------------------------------------------
@dataclass
class HasPipe(Pipe):
    """``has(key)``, ``has(key, value)`` or ``has(key, T.op, value)``.

    ``value is None`` with ``op == 'exists'`` is the existence test.
    Keys ``label`` and ``id`` address the element label / id.
    """

    key: str
    op: str = "=="
    value: object = None
    exists_only: bool = False
    category = FILTER


@dataclass
class HasNotPipe(Pipe):
    key: str
    category = FILTER


@dataclass
class IntervalPipe(Pipe):
    """``interval(key, low, high)`` — low <= value < high."""

    key: str
    low: object
    high: object
    category = FILTER


@dataclass
class FilterClosurePipe(Pipe):
    closure: object  # ClosureNode
    category = FILTER


@dataclass
class DedupPipe(Pipe):
    category = FILTER


@dataclass
class RangePipe(Pipe):
    """``range(low, high)`` / ``[low..high]`` — inclusive positions."""

    low: int
    high: int
    category = FILTER


@dataclass
class IdFilterPipe(Pipe):
    """Equality filter on the element/value itself (used by templates)."""

    value: object
    category = FILTER


@dataclass
class ExceptPipe(Pipe):
    """``except(x)`` — drop objects present in collection/step x."""

    name: str | None = None
    values: tuple | None = None
    category = FILTER


@dataclass
class RetainPipe(Pipe):
    name: str | None = None
    values: tuple | None = None
    category = FILTER


@dataclass
class SimplePathPipe(Pipe):
    category = FILTER


@dataclass
class CyclicPathPipe(Pipe):
    category = FILTER


@dataclass
class AndPipe(Pipe):
    branches: list = field(default_factory=list)  # anonymous pipelines
    category = FILTER
    # embedded sub-pipelines may contain adjacency hops
    shard_local = False


@dataclass
class OrPipe(Pipe):
    branches: list = field(default_factory=list)
    category = FILTER
    shard_local = False


# ----------------------------------------------------------------------
# side-effect pipes (identity under translation, per paper §4.4)
# ----------------------------------------------------------------------
@dataclass
class AsPipe(Pipe):
    name: str
    category = SIDE_EFFECT


@dataclass
class AggregatePipe(Pipe):
    name: str
    category = SIDE_EFFECT


@dataclass
class StorePipe(Pipe):
    name: str
    category = SIDE_EFFECT


@dataclass
class TablePipe(Pipe):
    name: str | None = None
    category = SIDE_EFFECT


@dataclass
class GroupCountPipe(Pipe):
    name: str | None = None
    category = SIDE_EFFECT


@dataclass
class SideEffectClosurePipe(Pipe):
    closure: object = None
    category = SIDE_EFFECT


@dataclass
class IteratePipe(Pipe):
    category = SIDE_EFFECT


@dataclass
class CapPipe(Pipe):
    category = SIDE_EFFECT


# ----------------------------------------------------------------------
# branch pipes
# ----------------------------------------------------------------------
@dataclass
class IfThenElsePipe(Pipe):
    condition: object  # ClosureNode
    then_closure: object  # ClosureNode (value to emit)
    else_closure: object
    category = BRANCH


@dataclass
class CopySplitPipe(Pipe):
    branches: list = field(default_factory=list)  # anonymous pipelines
    category = BRANCH
    shard_local = False


@dataclass
class MergePipe(Pipe):
    """``exhaustMerge`` / ``fairMerge`` terminating a copySplit."""

    fair: bool = False
    category = BRANCH


@dataclass
class LoopPipe(Pipe):
    """``loop(n){cond}`` — repeat the previous *n* pipes while cond holds."""

    back_steps: int
    condition: object  # ClosureNode over it.loops (and maybe it)
    category = BRANCH
    # the looped section may contain adjacency hops
    shard_local = False


@dataclass
class GremlinQuery:
    """A parsed pipeline: an ordered list of pipes."""

    pipes: list

    def __iter__(self):
        return iter(self.pipes)

    def __len__(self):
        return len(self.pipes)
