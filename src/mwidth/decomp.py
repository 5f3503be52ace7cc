"""Classic and recursive tree/path/branch decompositions of graphs.

Widths follow the convention WITHOUT the customary "-1": the width of a
tree or path decomposition is the size of its largest bag, so trees have
tree width 2 and a single vertex has tree width 1.  Branch width is the
maximum edge order.  Classic and recursive forms convert into each other;
the tree/path conversions preserve width exactly, the branch conversions
satisfy one-sided bounds that are asserted as hard postconditions.

The three recursive families share one private node protocol: every
node has a `graph`, the graph with sources it decomposes (the empty one
for the tree and path empty nodes); `_children` gives its children in
walk order, `_cost` what it adds to the width (bag size for tree and path
nodes, source count for branch nodes, 0 for empty nodes), and `_LAYOUT`
the JSON of all six formats.  Every walker over that protocol is a loop, so
a chain of any depth goes through: width, bags, validation (with the local
clauses of a family from one function per family, the tree and path ones
opening with the same four checks, `_bag_node`), JSON, equality, hash and
repr read one node order, `_pre_order`, forwards or, to see children before
parents, reversed, or keep the nodes they have open on an explicit stack.
Validation yields the width from its own walk.  A child's "subgraph"
clause is two subset tests, of the vertices and of the (edge, ends) pairs,
so a child read from JSON that reuses a parent edge id with other ends
fails it.  The conversions build every node's graph as a part of its
parent's (`Graph._part`, which checks nothing: each keeps only edges
whose ends it holds), so the nodes of one form share the end sets of the
graph it decomposes; the vertex and edge sets of each node are its own,
so a chain k nodes deep holds O(k^2) ids.  `branch_to_recursive`
takes the largest boundary from what it builds, so its width
postcondition walks its result no second time.  The tree and path
conversions need no such check: each node carries a bag of the input,
one node per bag, and a chain link's bag lies within its parent's.

Each classic decomposition tree is walked (`graph._walk`) at most once
per call, but twice by `branch_dec_width` (in validation and again for
its bit masks), and every question is linear in the tree's size.  The
tree and branch validators share one walk that tells whether the shape is
a tree (`graph._tree_parents`, which `Graph.is_tree` also reads); the
tree validator reads from it the parents, the branch validator the
degrees and leaves.  The tree and path validators share one check of
clauses 1 to 3 (`_bag_clauses`), where clause 3 (the bags holding a
vertex are connected) is one per-vertex test against the parent bag.  One
subtree pass (`_subtrees`) joins a value per node over its subtree and
lists the children: the leaf edges' ends as bit masks over the graph's
one numbering (`Graph._numbering`) for `branch_dec_width` (with one pass
down for those outside), the leaf edges and tree neighbours for
`branch_to_recursive`, the bags for `tree_to_recursive`.  The classic ->
recursive conversions validate with the bodies of the validators
(`_tree_verdict`, `_branch_verdict`), which take the walk's parents, so
that one walk also serves the rest: `tree_to_recursive` turns it over to
its root (`_rerooted`) for the subtree pass, lists each node's graph and
bag in pre-order and builds the nodes over that list reversed, and
`branch_to_recursive` reads from it the width and the leaf edges below
every node, then converts over an explicit stack.  One DOT writer renders
the classic forms from their (node, label) and edge pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (
    Graph,
    GraphError,
    SourcedGraph,
    _ints,
    _json,
    _tree_parents,
    _walk,
    ends_of_edge_set,
    graph_from_json,
    graph_to_json,
    sourced_graph_from_json,
    sourced_graph_to_json,
)


class DecompositionError(ValueError):
    """Invalid decomposition where a valid one is required."""


class BoundViolation(AssertionError):
    """A proved width bound failed at runtime; this is a bug, not bad input."""


@dataclass(frozen=True)
class Check:
    """Validation verdict; `clause` names the first violated condition."""

    ok: bool
    clause: str = ""
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fail(clause: str, message: str) -> Check:
    return Check(False, clause, message)


_OK = Check(True)


# ---------------------------------------------------------------------------
# Classic decompositions.


@dataclass(frozen=True)
class TreeDec:
    """A tree shape together with a bag of graph vertices per tree vertex."""

    shape: Graph
    bags: tuple  # sorted (tree vertex, frozenset bag) pairs

    def __init__(self, shape: Graph, bags):
        object.__setattr__(self, "shape", shape)
        items = tuple(sorted((i, frozenset(b)) for i, b in dict(bags).items()))
        object.__setattr__(self, "bags", items)

    def bag_map(self) -> dict:
        return dict(self.bags)


@dataclass(frozen=True)
class PathDec:
    """A sequence of bags glued in a path shape."""

    bags: tuple

    def __init__(self, bags: Iterable):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in bags))


@dataclass(frozen=True)
class BranchDec:
    """A subcubic tree whose leaves enumerate the graph edges bijectively."""

    shape: Graph
    leaf_map: tuple  # sorted (leaf vertex, graph edge) pairs

    def __init__(self, shape: Graph, leaf_map):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "leaf_map", tuple(sorted(dict(leaf_map).items())))

    def leaf_table(self) -> dict:
        return dict(self.leaf_map)


def _bag_clauses(g: Graph, bags, pairs: Iterable) -> Check:
    """Clauses 1 to 3 of a tree or path decomposition of `g`: its `bags`
    cover the vertices and every edge's ends, and the bags holding a vertex
    are connected, which holds when, over the (bag, parent bag) `pairs` of
    a rooted tree (the root's parent bag empty), only one of them has a
    parent bag without it."""
    union = frozenset().union(*bags)
    if union != g.vertices:
        return _fail("1", f"vertices {sorted(g.vertices - union)} are in no bag")
    for e in sorted(g.edges):
        if not any(g.ends(e) <= b for b in bags):
            return _fail("2", f"edge {e} has no bag containing both endpoints")
    tops: set = set()
    for bag, up in pairs:
        for v in bag - up:
            if v in tops:
                return _fail("3", f"the bags holding vertex {v} are not connected")
            tops.add(v)
    return _OK


def validate_tree_dec(dec: TreeDec, g: Graph) -> Check:
    return _tree_verdict(dec, g, dec.bag_map(), _tree_parents(dec.shape))


def _tree_verdict(dec: TreeDec, g: Graph, bags: dict, parent: Optional[dict]) -> Check:
    """`validate_tree_dec`, given the bag map and the parents of the walk of
    the shape from its least vertex (None when the shape is not a tree)."""
    if parent is None:
        return _fail("shape", "decomposition shape is not a tree")
    if frozenset(bags) != dec.shape.vertices:
        return _fail("shape", "bag map is not total on the tree vertices")
    for i, b in bags.items():
        if not b <= g.vertices:
            return _fail("shape", f"bag {i} contains non-vertices {sorted(b - g.vertices)}")
    return _bag_clauses(g, bags.values(),
                        ((bags[i], bags.get(p, frozenset())) for i, p in parent.items()))


def validate_path_dec(dec: PathDec, g: Graph) -> Check:
    bags = dec.bags
    for idx, b in enumerate(bags):
        if not b <= g.vertices:
            return _fail("shape", f"bag {idx} contains non-vertices")
    return _bag_clauses(g, bags, zip(bags, (frozenset(),) + bags[:-1]))


def validate_branch_dec(dec: BranchDec, g: Graph) -> Check:
    return _branch_verdict(dec, g, dec.leaf_table(), _tree_parents(dec.shape) or {})


def _branch_verdict(dec: BranchDec, g: Graph, table: dict, parent: dict) -> Check:
    """`validate_branch_dec`, given the leaf table and the parents of the
    walk of the shape from its least vertex ({} when it is not a tree)."""
    if not g.edges:
        if dec.shape.vertices or table:
            return _fail("shape", "an edgeless graph admits only the empty decomposition")
        return _OK
    # a tree node's degree is its child count, plus one below the root
    children = Counter(parent.values())
    degree = {v: children[v] + (p is not None) for v, p in parent.items()}
    if not degree or max(degree.values()) > 3:
        return _fail("shape", "decomposition shape is not a subcubic tree")
    if frozenset(table) != frozenset(v for v, d in degree.items() if d <= 1):
        return _fail("bijection", "leaf map domain differs from the tree leaves")
    values = sorted(table.values())
    if values != sorted(g.edges):
        return _fail("bijection", "leaf map is not a bijection onto the graph edges")
    return _OK


def _require(check: Check, what: str) -> None:
    """Raise DecompositionError naming the failed clause unless `check` passed."""
    if not check:
        raise DecompositionError(f"invalid {what} decomposition (clause {check.clause}): "
                                 f"{check.message}")


def tree_dec_width(dec: TreeDec, g: Graph) -> int:
    _require(validate_tree_dec(dec, g), "tree")
    return max((len(b) for _, b in dec.bags), default=0)


def path_dec_width(dec: PathDec, g: Graph) -> int:
    _require(validate_path_dec(dec, g), "path")
    return max((len(b) for b in dec.bags), default=0)


def edge_order(dec: BranchDec, g: Graph, e: int) -> int:
    """Number of graph vertices incident to both sides of the leaf split at e."""
    if e not in dec.shape.edges:
        raise GraphError(f"unknown decomposition tree edge {e}")
    pts = sorted(dec.shape.ends(e))
    side = _walk(dec.shape, pts[0], pts[-1])
    table = dec.leaf_table()
    a_edges = {table[l] for l in table if l in side}
    b_edges = set(table.values()) - a_edges
    return len(ends_of_edge_set(g, a_edges) & ends_of_edge_set(g, b_edges))


def branch_dec_width(dec: BranchDec, g: Graph) -> int:
    """Largest edge order of a validated branch decomposition."""
    _require(validate_branch_dec(dec, g), "branch")
    return _branch_width(g, dec.leaf_table(), _tree_parents(dec.shape) or {})


def _branch_width(g: Graph, table: dict, parent: dict) -> int:
    """`branch_dec_width` of a valid decomposition with leaf table `table`,
    from the parents of a walk of its shape.  The ends of the graph edges
    at the leaves below each tree node are vertex bit masks over the
    graph's numbering (`Graph._numbering`) joined by the subtree pass
    (`_subtrees`), and those at the leaves outside its subtree come from
    one pass down the tree; the order of the edge to a node's parent is
    the size of their intersection."""
    rank = g._numbering().rank
    own = {v: sum(1 << rank[u] for u in g.ends(table[v])) if v in table else 0 for v in parent}
    below, children = _subtrees(parent, own)
    outside = {}
    for v, p in parent.items():  # each node after its parent
        outside[v] = 0 if p is None else outside[p] | own[p]
        for sibling in children.get(p, ()):
            if sibling != v:
                outside[v] |= below[sibling]
    return max(((below[v] & outside[v]).bit_count() for v in parent), default=0)


def _subtrees(parent: dict, value: dict) -> tuple[dict, dict]:
    """The join by `|` of `value` over each node's subtree, and each node's
    children, from the parents of a walk, in one pass up the tree.  A set
    value is joined in place, so the sets in `value` must be fresh."""
    joined = dict(value)
    children: dict = {v: [] for v in parent}
    for v in reversed(parent):
        p = parent[v]
        if p is not None:
            joined[p] |= joined[v]
            children[p].append(v)
    return joined, children


# ---------------------------------------------------------------------------
# Recursive decompositions.  Each non-empty node carries the graph with
# sources that it decomposes.


# every node has a `graph`: the tree and path empty nodes decompose this one
_EMPTY_SOURCED = SourcedGraph(Graph.empty())


class _Looped:
    """Equality and repr of a frozen dataclass tree, looping over its nodes
    and their fields in `__match_args__` order, so a tree of any depth
    goes through; they mean what the generated dataclass methods mean.  A
    field holding a `_Looped` is a child.  Subclasses give the hash."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, _Looped) and b.__class__ is a.__class__:
                for name in a.__match_args__:
                    x, y = getattr(a, name), getattr(b, name)
                    if isinstance(x, _Looped):
                        pairs.append((x, y))
                    elif x is not y and x != y:
                        return False
            elif a != b:
                return False
        return True

    def __repr__(self):
        parts, todo = [], [self]  # text still to write, or a node to expand
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                pieces += f"{', ' if i else ''}{name}=", (
                    value if isinstance(value, _Looped) else repr(value))
            todo += reversed((*pieces, ")"))
        return "".join(parts)


class _Node(_Looped):
    """The recursive node classes; the hash reads the root alone."""

    __slots__ = ()

    def __hash__(self):
        return hash((type(self), self.graph))  # equal nodes have equal graphs


class RecTreeDec(_Node):
    """Base class; instances are RecTreeEmpty or RecTreeNode."""

    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class RecTreeEmpty(RecTreeDec):
    graph = _EMPTY_SOURCED


@dataclass(frozen=True, eq=False, repr=False)
class RecTreeNode(RecTreeDec):
    graph: SourcedGraph
    bag: frozenset
    left: RecTreeDec
    right: RecTreeDec

    def __post_init__(self):
        object.__setattr__(self, "bag", frozenset(self.bag))


REC_TREE_EMPTY = RecTreeEmpty()


class RecPathDec(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class RecPathEmpty(RecPathDec):
    graph = _EMPTY_SOURCED


@dataclass(frozen=True, eq=False, repr=False)
class RecPathCons(RecPathDec):
    graph: SourcedGraph
    bag: frozenset
    tail: RecPathDec

    def __post_init__(self):
        object.__setattr__(self, "bag", frozenset(self.bag))


REC_PATH_EMPTY = RecPathEmpty()


class RecBranchDec(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class RecBranchEmpty(RecBranchDec):
    """Decomposition of an edgeless graph.

    The graph may still have vertices; recording it keeps node-level
    conditions (vertex cover, boundaries) checkable when an edgeless part
    sits under a node.
    """

    graph: SourcedGraph = _EMPTY_SOURCED


@dataclass(frozen=True, eq=False, repr=False)
class RecBranchLeaf(RecBranchDec):
    graph: SourcedGraph


@dataclass(frozen=True, eq=False, repr=False)
class RecBranchNode(RecBranchDec):
    graph: SourcedGraph
    left: RecBranchDec
    right: RecBranchDec


REC_BRANCH_EMPTY = RecBranchEmpty()

# a `types.UnionType`: `typing.Union` would cache the classes, and so keep
# every imported copy of this module alive through `_Looped`'s methods
_RecDec = RecTreeDec | RecPathDec | RecBranchDec

# The layout of all six formats.  Per class: its JSON kind, the flag marking
# the class within that kind, and its fields in output order, each with its
# (writer, reader), or _CHILD for a child; a classic form has no children.
# Reading JSON tries the classes in this order, flagged classes first.
_CHILD = None
_GRAPH = sourced_graph_to_json, sourced_graph_from_json
_SHAPE = graph_to_json, graph_from_json
_BAG = sorted, lambda b: set(_ints(_json(b, list, "a bag")))


def _int_key(key, what: str) -> int:
    """A key of the JSON object `what` read as an integer; GraphError names
    the key when it is not one."""
    try:
        return int(key)
    except (TypeError, ValueError):
        raise GraphError(f"{what} has a key that is not an integer: {key!r}") from None


def _leaf_map(table) -> dict:
    """A branch decomposition's leaf map read from JSON, its edges before its leaves."""
    edges = _ints(_json(table, dict, "a leaf map").values())
    return dict(zip([_int_key(leaf, "a leaf map") for leaf in table], edges))


_LAYOUT = {
    TreeDec: ("tree", "", {"shape": _SHAPE, "bags": (
        lambda bags: {str(i): sorted(b) for i, b in bags},
        lambda bags: {_int_key(i, "a bag table"): _BAG[1](b)
                      for i, b in _json(bags, dict, "a bag table").items()})}),
    PathDec: ("path", "", {"bags": (
        lambda bags: [sorted(b) for b in bags],
        lambda bags: [_BAG[1](b) for b in _json(bags, list, "a bag list")])}),
    BranchDec: ("branch", "", {"shape": _SHAPE, "leaf_map": (
        lambda table: {str(l): e for l, e in table}, _leaf_map)}),
    RecTreeEmpty: ("rec-tree", "empty", {}),
    RecTreeNode: ("rec-tree", "", {"graph": _GRAPH, "bag": _BAG, "left": _CHILD,
                                   "right": _CHILD}),
    RecPathEmpty: ("rec-path", "empty", {}),
    RecPathCons: ("rec-path", "", {"graph": _GRAPH, "bag": _BAG, "tail": _CHILD}),
    RecBranchEmpty: ("rec-branch", "empty", {"graph": _GRAPH}),
    RecBranchLeaf: ("rec-branch", "leaf", {"graph": _GRAPH}),
    RecBranchNode: ("rec-branch", "", {"graph": _GRAPH, "left": _CHILD, "right": _CHILD}),
}
_EMPTY_NODES = (RecTreeEmpty, RecPathEmpty, RecBranchEmpty)


def _children(t: _RecDec) -> tuple:
    """The subdecompositions of a node, left before right."""
    if isinstance(t, (RecTreeNode, RecBranchNode)):
        return (t.left, t.right)
    return (t.tail,) if isinstance(t, RecPathCons) else ()


def _cost(t: _RecDec) -> int:
    """Bag size of a tree or path node, source count of a branch node, 0 when empty."""
    if isinstance(t, (RecTreeNode, RecPathCons)):
        return len(t.bag)
    return 0 if isinstance(t, _EMPTY_NODES) else len(t.graph.sources)


def _is_subgraph(sub: Graph, sup: Graph) -> bool:
    return sub.vertices <= sup.vertices and sub._ends.items() <= sup._ends.items()


def _pre_order(t: _RecDec) -> list:
    """Every node of `t`, empty nodes included, each before its children and
    left before right; reversed, every node comes after its children."""
    order, stack = [], [t]
    while stack:
        order.append(stack.pop())
        stack += reversed(_children(order[-1]))
    return order


def _validate_rec(t: _RecDec, sg: SourcedGraph, clauses) -> tuple[Check, int]:
    """The first failure of the local `clauses` of a family in pre-order,
    checking the root against `sg` and every other node against its graph;
    or, when every node passes, `_OK` and the width."""
    order = _pre_order(t)
    for i, node in enumerate(order):
        check = clauses(node, node.graph if i else sg)
        if not check:
            return check, 0
    return _OK, max(map(_cost, order))


def _bag_node(t, sg: SourcedGraph, empty: type, cls: type, family: str) -> Optional[Check]:
    """The verdict of the checks that open `_tree_clauses` and `_path_clauses`
    (an empty node, the class, the graph, the bag within its vertices), or
    None when `t` is a `cls` node that passes them."""
    if isinstance(t, empty):
        return _OK if sg.is_empty() else _fail("empty", "empty decomposition of a non-empty graph")
    if not isinstance(t, cls):
        return _fail("type", f"not a recursive {family} decomposition: {t!r}")
    if t.graph != sg:
        return _fail("graph", "node does not decompose the expected graph with sources")
    if not t.bag <= sg.graph.vertices:
        return _fail("shape", "bag contains non-vertices")
    return None


def _tree_clauses(t: RecTreeDec, sg: SourcedGraph) -> Check:
    if (check := _bag_node(t, sg, RecTreeEmpty, RecTreeNode, "tree")) is not None:
        return check
    g, x, bag = sg.graph, sg.sources, t.bag
    g1, g2 = t.left.graph, t.right.graph
    for i, gi in ((1, g1), (2, g2)):
        if not _is_subgraph(gi.graph, g):
            return _fail("subgraph", f"child {i} is not a subgraph")
    if not x <= bag:
        return _fail("i", f"sources {sorted(x - bag)} missing from the bag")
    if bag | g1.vertices | g2.vertices != g.vertices:
        return _fail("ii", "bag and children do not cover the vertices")
    for i, gi in ((1, g1), (2, g2)):
        if gi.sources != gi.vertices & bag:
            return _fail("iii", f"child {i} sources differ from its bag intersection")
    if not g1.vertices & g2.vertices <= bag:
        return _fail("iv", "children share vertices outside the bag")
    if g1.edges & g2.edges:
        return _fail("v", "children share edges")
    rest = g.edges - (g1.edges | g2.edges)
    if not ends_of_edge_set(g, rest) <= bag:
        return _fail("vi", "an uncovered edge leaves the bag")
    return _OK


def _path_clauses(t: RecPathDec, sg: SourcedGraph) -> Check:
    if (check := _bag_node(t, sg, RecPathEmpty, RecPathCons, "path")) is not None:
        return check
    g, x, bag = sg.graph, sg.sources, t.bag
    gp = t.tail.graph
    if not _is_subgraph(gp.graph, g):
        return _fail("subgraph", "tail is not a subgraph")
    if not x <= bag:
        return _fail("i", f"sources {sorted(x - bag)} missing from the first bag")
    if bag | gp.vertices != g.vertices:
        return _fail("ii", "bag and tail do not cover the vertices")
    if gp.sources != bag & gp.vertices:
        return _fail("iii", "tail sources differ from the bag intersection")
    if not ends_of_edge_set(g, g.edges - gp.edges) <= bag:
        return _fail("iv", "an edge outside the tail leaves the first bag")
    return _OK


def _branch_clauses(t: RecBranchDec, sg: SourcedGraph) -> Check:
    if isinstance(t, RecBranchEmpty):
        if sg.graph.edges:
            return _fail("empty", "empty decomposition of a graph with edges")
        if not t.graph.is_empty() and t.graph != sg:
            return _fail("graph", "empty decomposition records a different graph")
        return _OK
    if isinstance(t, RecBranchLeaf):
        if t.graph != sg:
            return _fail("graph", "leaf does not decompose the expected graph with sources")
        if len(sg.graph.edges) != 1:
            return _fail("leaf", "leaves carry exactly one edge")
        return _OK
    if not isinstance(t, RecBranchNode):
        return _fail("type", f"not a recursive branch decomposition: {t!r}")
    if t.graph != sg:
        return _fail("graph", "node does not decompose the expected graph with sources")
    g, x = sg.graph, sg.sources
    g1, g2 = t.left.graph, t.right.graph
    for i, gi in ((1, g1), (2, g2)):
        if not _is_subgraph(gi.graph, g):
            return _fail("subgraph", f"child {i} is not a subgraph")
    if g1.edges & g2.edges or g1.edges | g2.edges != g.edges:
        return _fail("i", "children edges do not partition the edges")
    if g1.vertices | g2.vertices != g.vertices:
        return _fail("ii", "children do not cover the vertices")
    shared = g1.vertices & g2.vertices
    for i, gi in ((1, g1), (2, g2)):
        if gi.sources != shared | (x & gi.vertices):
            return _fail("iii", f"child {i} boundary differs from the boundary formula")
    return _OK


def validate_rec_tree_dec(t: RecTreeDec, sg: SourcedGraph) -> Check:
    return _validate_rec(t, sg, _tree_clauses)[0]


def validate_rec_path_dec(t: RecPathDec, sg: SourcedGraph) -> Check:
    return _validate_rec(t, sg, _path_clauses)[0]


def validate_rec_branch_dec(t: RecBranchDec, sg: SourcedGraph) -> Check:
    return _validate_rec(t, sg, _branch_clauses)[0]


def _bags(t: RecTreeDec | RecPathDec) -> list:
    """Bags of a recursive tree or path decomposition, pre-order."""
    return [node.bag for node in _pre_order(t) if not isinstance(node, _EMPTY_NODES)]


def _rec_width(t: _RecDec, sg: Optional[SourcedGraph], clauses, what: str) -> int:
    """Width of `t` after validating it by a family's `clauses` against
    `sg`, by default the graph the root records.  DecompositionError names
    the first failed clause."""
    check, width = _validate_rec(t, t.graph if sg is None else sg, clauses)
    _require(check, f"recursive {what}")
    return width


def rec_tree_width(t: RecTreeDec, sg: Optional[SourcedGraph] = None) -> int:
    return _rec_width(t, sg, _tree_clauses, "tree")


def rec_path_width(t: RecPathDec, sg: Optional[SourcedGraph] = None) -> int:
    return _rec_width(t, sg, _path_clauses, "path")


def rec_branch_width(t: RecBranchDec, sg: Optional[SourcedGraph] = None) -> int:
    return _rec_width(t, sg, _branch_clauses, "branch")


def _descend(t: RecBranchDec, path: Iterable[int]) -> tuple[RecBranchDec, set]:
    """The subtree at a 0/1 path from the root (0 = left, 1 = right), and
    the vertices of the siblings passed on the way.  GraphError names a
    step past a leaf or an empty node, or else a step neither 0 nor 1."""
    outside: set = set()
    cur = t
    for step in path:
        if not isinstance(cur, RecBranchNode):
            raise GraphError(f"no subtree at path step {step}")
        if step not in (0, 1):
            raise GraphError(f"path step {step!r} is neither 0 nor 1")
        cur, sibling = (cur.left, cur.right) if step == 0 else (cur.right, cur.left)
        outside |= sibling.graph.vertices
    return cur, outside


def rec_branch_subtree(t: RecBranchDec, path: Iterable[int]) -> RecBranchDec:
    """Subtree at a 0/1 path from the root (0 = left, 1 = right)."""
    return _descend(t, path)[0]


def boundary_global(t: RecBranchDec, path: Iterable[int]) -> frozenset:
    """Boundary of the subtree at `path`, computed by the global formula:
    vertices of the subtree that are sources of the whole graph or appear
    in some disjoint subtree, the siblings passed on the way down."""
    cur, outside = _descend(t, path)
    return frozenset() if isinstance(cur, RecBranchEmpty) else cur.graph.vertices & (
        t.graph.sources | outside)


# ---------------------------------------------------------------------------
# Classic <-> recursive translations.


def _source_root(dec: TreeDec, sg: SourcedGraph) -> int:
    """The first tree node, in id order, whose bag holds the sources of `sg`."""
    for i, b in dec.bags:
        if sg.sources <= b:
            return i
    raise DecompositionError("no bag contains all marked sources")


def tree_to_recursive(dec: TreeDec, sg: SourcedGraph, root: int) -> RecTreeDec:
    """Recursive form rooted at `root`; width is preserved exactly."""
    bags = dec.bag_map()
    parent = _tree_parents(dec.shape)
    _require(_tree_verdict(dec, sg.graph, bags, parent), "tree")
    if root not in bags:
        raise DecompositionError(f"root {root} is not a tree vertex")
    if not sg.sources <= bags[root]:
        raise DecompositionError("the sources are not contained in the root bag")
    # the union of the bags in each node's subtree, and each node's children
    held, kids = _subtrees(_rerooted(parent, root), bags)

    def group_graph(nodes: list, gamma: SourcedGraph, used_edges: set,
                    vp: frozenset) -> SourcedGraph:
        vs = frozenset().union(*(held[i] for i in nodes))
        ends = gamma.graph._ends
        es = [e for e in gamma.edges - used_edges if ends[e] <= vs]
        used_edges.update(es)
        return SourcedGraph(gamma.graph._part(vs, es), vs & vp)

    def vertex_task(r: int, gamma: SourcedGraph) -> tuple:
        """The task of the node of tree vertex `r` over `gamma`."""
        return gamma, bags[r], sorted(kids[r]), bags[r]

    if sg.is_empty():
        return REC_TREE_EMPTY
    # The first pass lists the nodes in the order of the recursive
    # definition, pre-order and left first, from tasks on an explicit stack.
    # A task (gamma, bag, nodes, vp) is one node over `gamma` with `bag`: its
    # left child is the node of tree vertex nodes[0] over the part of `gamma`
    # that subtree holds, and its right child chains the rest of `nodes` over
    # what remains; both take their sources from `vp`.  Tree vertex r gives
    # the task (gamma, bags[r], its children, bags[r]), a chain link has the
    # sources of its part as `bag`, and None is an empty node.
    order: list = []  # (graph, bag) of each node, None for an empty one
    todo: list = [vertex_task(root, sg)]
    while todo:
        task = todo.pop()
        order.append(task and task[:2])
        if task is None:
            continue
        gamma, _, nodes, vp = task
        used: set = set()
        left = right = None
        if nodes:
            left = vertex_task(nodes[0], group_graph(nodes[:1], gamma, used, vp))
        if len(nodes) > 1:
            rest = group_graph(nodes[1:], gamma, used, vp)
            right = (vertex_task(nodes[1], rest) if len(nodes) == 2
                     else (rest, rest.sources, nodes[1:], vp))
        todo += right, left
    # the second pass builds each node after its children, as `_push` does
    done: list = []  # finished subtrees, the leftmost last
    for node in reversed(order):
        done.append(RecTreeNode(*node, done.pop(), done.pop()) if node else REC_TREE_EMPTY)
    return done[0]


def _rerooted(parent: dict, root: int) -> dict:
    """The parents of a walk of a tree, given as those of another walk of it,
    rooted at `root` instead: the path from `root` up to the old root turns
    over, and each node is still listed after its parent."""
    path = [root]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    turned = dict(zip(path, [None, *path]))
    return turned | {v: p for v, p in parent.items() if v not in turned}


def _number(t: _RecDec, on_node, on_edge) -> None:
    """Number the non-empty nodes of `t` in pre-order: `on_node(i, node)` on
    entering node i, `on_edge(i, j)` once the subtree of its child j is done."""
    # (parent's number, node) still to enter, or (i, j) for an edge, which
    # sits under the entries of j's subtree until they are all done
    count, stack = 0, [(None, t)]
    while stack:
        i, node = stack.pop()
        if isinstance(node, int):
            on_edge(i, node)
        elif not isinstance(node, _EMPTY_NODES):
            on_node(count, node)
            if i is not None:
                stack.append((i, count))
            stack += ((count, child) for child in reversed(_children(node)))
            count += 1


def tree_from_recursive(t: RecTreeDec) -> TreeDec:
    """Classic form with the same bags; width is preserved exactly."""
    bags: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    _number(t, lambda i, node: bags.update({i: node.bag}), lambda i, j: edges.append((i, j)))
    if not bags:
        return TreeDec(Graph.discrete([0]), {0: frozenset()})
    return TreeDec(Graph.from_edge_pairs(sorted(bags), edges), bags)


def path_to_recursive(dec: PathDec, sg: SourcedGraph) -> RecPathDec:
    """Recursive form peeling bags off the front; width is preserved exactly."""
    _require(validate_path_dec(dec, sg.graph), "path")
    if dec.bags and not sg.sources <= dec.bags[0]:
        raise DecompositionError("the sources are not contained in the first bag")
    if not dec.bags or (len(dec.bags) == 1 and not dec.bags[0]):
        return REC_PATH_EMPTY  # clause 1 left the graph without vertices

    # node i > 0 decomposes node i - 1's graph cut down to the union of bags
    # i.. and the edges inside it; its sources are bag i - 1's vertices there
    bags = dec.bags
    unions = [frozenset()] * len(bags)
    for i in range(len(bags) - 1, 0, -1):
        unions[i - 1] = unions[i] | bags[i]
    graphs = [sg]
    for bag, vrest in zip(bags, unions[:-1]):
        gamma = graphs[-1].graph
        erest = [e for e, pts in gamma._ends.items() if pts <= vrest]
        graphs.append(SourcedGraph(gamma._part(vrest, erest), bag & vrest))
    result = REC_PATH_EMPTY
    for gamma, bag in zip(reversed(graphs), reversed(bags)):
        result = RecPathCons(gamma, bag, result)
    return result


def path_from_recursive(t: RecPathDec) -> PathDec:
    return PathDec(_bags(t))


def branch_to_recursive(dec: BranchDec, sg: SourcedGraph) -> RecBranchDec:
    """Recursive form obtained by rooting the tree at a balanced edge.

    Below the root split the recursion follows the tree itself, so every
    subtree's edge set is one side of a split of the original tree; this
    is what keeps the result width within classic width + source count.
    (Re-choosing split edges at deeper levels can manufacture "middle"
    edge sets whose boundary exceeds every single-edge order.)
    """
    # one walk of the tree serves the validation, the width and the edges below
    shape = dec.shape
    table = dec.leaf_table()
    up = _tree_parents(shape) or {}
    _require(_branch_verdict(dec, sg.graph, table, up), "branch")
    classic_width = _branch_width(sg.graph, table, up)
    if not sg.graph.edges:
        return REC_BRANCH_EMPTY
    if len(sg.graph.edges) == 1:
        return RecBranchLeaf(sg)

    # the graph edges at the leaves below each tree node, its side of its parent edge
    below, children = _subtrees(up, {v: {table[v]} if v in table else set() for v in up})
    every = set(table.values())

    def edges_below(v: int, p: int) -> set:
        """The graph edges on v's side of the tree edge to its neighbour p."""
        return below[v] if up[v] == p else every - below[p]

    # the leaf map is a bijection, so a side's edge count is its leaf count
    total = len(table)
    best_e = min(sorted(shape.edges),
                 key=lambda e: (abs(total - 2 * len(edges_below(
                     min(shape.ends(e)), max(shape.ends(e))))), e))
    u, w = min(shape.ends(best_e)), max(shape.ends(best_e))
    g1, g2 = _branch_split(sg, edges_below(u, w))
    # (tree node, the neighbour it is entered from, its graph) still to
    # convert, or the graph of a binary node, which waits under its two
    # children's entries until both are done; the left is converted first
    done: list = []
    got = 0  # the largest boundary of a node built so far
    stack: list = [sg, (w, u, g2), (u, w, g1)]
    while stack:
        item = stack.pop()
        if isinstance(item, SourcedGraph):
            right, left = done.pop(), done.pop()
            done.append(RecBranchNode(item, left, right))
            got = max(got, len(item.sources))
            continue
        v, parent, gamma = item
        # its neighbours in the tree but the one it is entered from
        kids = sorted(n for n in (up[v], *children[v]) if n not in (None, parent))
        if v in table:
            done.append(RecBranchLeaf(gamma))
            got = max(got, len(gamma.sources))
        elif len(kids) == 1:  # a unary node adds nothing: splice it out
            stack.append((kids[0], v, gamma))
        else:
            h1, h2 = _branch_split(gamma, edges_below(kids[0], v))
            stack += gamma, (kids[1], v, h2), (kids[0], v, h1)
    (result,) = done
    if got > classic_width + len(sg.sources):
        raise BoundViolation(
            f"branch_to_recursive exceeded the bound: {got} > "
            f"{classic_width} + {len(sg.sources)}")
    return result


def _branch_split(gamma: SourcedGraph, e1: frozenset) -> tuple[SourcedGraph, SourcedGraph]:
    """Split a graph with sources along an edge bipartition; uncovered
    isolated vertices go with the second part."""
    g, x = gamma.graph, gamma.sources
    e2 = g.edges - e1
    v1 = ends_of_edge_set(g, e1)
    v2 = ends_of_edge_set(g, e2) | (g.vertices - v1)
    shared = v1 & v2
    return (SourcedGraph(g._part(v1, e1), shared | (x & v1)),
            SourcedGraph(g._part(v2, e2), shared | (x & v2)))


def branch_from_recursive(t: RecBranchDec) -> BranchDec:
    """Forget the recursive structure; the classic width never exceeds the
    recursive width."""
    vertices: list[int] = []  # numbered 0, 1, ... in the order they are added
    edges: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    order, stack = [], [t]
    while stack:  # pre-order with right before left; reversed, a left-first post-order
        order.append(stack.pop())
        stack += _children(order[-1])
    done: list = []  # tree vertex of each finished subtree, None when it has none
    for node in reversed(order):
        popped = [done.pop() for _ in _children(node)]  # the right child's first
        kids = [k for k in reversed(popped) if k is not None]
        if isinstance(node, RecBranchLeaf):
            table[len(vertices)] = min(node.graph.edges)
        elif len(kids) == 2:
            edges += ((len(vertices), k) for k in kids)
        else:
            # no tree vertex for an empty node; a unary one adds nothing: splice it out
            done.append(kids[0] if kids else None)
            continue
        done.append(len(vertices))
        vertices.append(len(vertices))
    if done == [None]:
        return BranchDec(Graph.empty(), {})
    dec = BranchDec(Graph.from_edge_pairs(vertices, edges), table)
    got, bound = branch_dec_width(dec, t.graph.graph), max(map(_cost, order))
    if got > bound:
        raise BoundViolation(
            f"branch_from_recursive exceeded the recursive width: {got} > {bound}")
    return dec


# ---------------------------------------------------------------------------
# Serialization.


def _field(data: dict, name: str, read):
    """`read(data[name])`; a missing or ill-typed field raises
    DecompositionError naming it."""
    if name not in data:
        raise DecompositionError(f"decomposition field {name!r} is missing")
    try:
        return read(data[name])
    except (TypeError, ValueError, AttributeError) as exc:
        raise DecompositionError(f"decomposition field {name!r}: {exc}") from exc


def _opened(data) -> tuple:
    """(class, JSON object, fields left to read, values read) of a node."""
    if not isinstance(data, dict):
        raise DecompositionError(
            f"a decomposition is a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    for cls, (cls_kind, flag, fields) in _LAYOUT.items():
        if cls_kind == kind and (not flag or data.get(flag)):
            # an empty node reads its graph only when it has one
            return cls, data, iter([(name, codec) for name, codec in fields.items()
                                    if flag != "empty" or name in data]), []
    raise DecompositionError(f"unknown decomposition kind {kind!r}")


def decomposition_from_json(data):
    """A decomposition read in the order of a recursive descent, a node's
    fields in layout order and a child's subtree before the next field, over
    an explicit stack of the open nodes.  An error inside a child gets the
    prefix "decomposition field '<name>': " per enclosing child field."""
    path: list = []  # the child field each open node below the root was read from
    try:
        stack = [_opened(data)]
        while True:
            cls, data, fields, values = stack[-1]
            for name, codec in fields:
                if codec is _CHILD:
                    stack.append(_field(data, name, _opened))
                    path.append(name)
                    break
                values.append(_field(data, name, codec[1]))
            else:
                node = cls(*values)
                stack.pop()
                if not stack:
                    return node
                path.pop()
                stack[-1][3].append(node)
    except (TypeError, ValueError, AttributeError) as exc:
        if not path:
            raise
        raise DecompositionError("".join(f"decomposition field {name!r}: " for name in path)
                                 + str(exc)) from exc


def decomposition_to_json(dec) -> dict:
    if type(dec) not in _LAYOUT:
        raise DecompositionError(f"not a decomposition: {dec!r}")
    done: list = []  # JSON of the finished subtrees, the leftmost last
    for node in reversed(_pre_order(dec)):
        kind, flag, fields = _LAYOUT[type(node)]
        out = {"kind": kind}
        if flag:
            out[flag] = True
        for name, codec in fields.items():
            if codec is _CHILD:
                out[name] = done.pop()
            # an empty node writes its graph only when it has one
            elif flag != "empty" or not node.graph.is_empty():
                out[name] = codec[0](getattr(node, name))
        done.append(out)
    return done[0]


def decomposition_to_dot(dec) -> str:
    """DOT rendering of a decomposition tree with bag / edge labels."""
    lines = ["graph decomposition {", "  node [shape=box];"]

    def bag_label(b) -> str:
        return "{" + ",".join(str(v) for v in sorted(b)) + "}"

    # a classic form gives its (node, label) pairs and its edges' end pairs
    labels = pairs = ()
    if isinstance(dec, (TreeDec, BranchDec)):
        pairs = [sorted(dec.shape.ends(e)) for e in sorted(dec.shape.edges)]
    if isinstance(dec, TreeDec):
        labels = [(i, bag_label(b)) for i, b in dec.bags]
    elif isinstance(dec, PathDec):
        labels = list(enumerate(map(bag_label, dec.bags)))
        pairs = [(i, i + 1) for i in range(len(dec.bags) - 1)]
    elif isinstance(dec, BranchDec):
        table = dec.leaf_table()
        labels = [(v, f"e{table[v]}" if v in table else "") for v in sorted(dec.shape.vertices)]
    elif type(dec) in _LAYOUT:
        def node_line(i: int, node: _RecDec) -> None:
            if isinstance(node, RecBranchLeaf):
                label = f"e{min(node.graph.edges)}"
            elif isinstance(node, RecBranchNode):
                label = bag_label(node.graph.sources)
            else:
                label = bag_label(node.bag)
            lines.append(f'  n{i} [label="{label}"];')

        _number(dec, node_line, lambda i, j: lines.append(f"  n{i} -- n{j};"))
    else:
        raise DecompositionError(f"not a decomposition: {dec!r}")
    lines += (f'  n{i} [label="{label}"];' for i, label in labels)
    lines += (f"  n{ends[0]} -- n{ends[-1]};" for ends in pairs)
    lines.append("}")
    return "\n".join(lines)
