"""Finite undirected multigraphs, graphs with sources, morphisms, and colimits.

Vertices and edges are small non-negative integer ids.  Self-loops are
edges whose endpoint set has one element; parallel edges are distinct ids
with equal endpoint sets.  All constructions renumber ids deterministically
(order-preserving on first appearance) so results are reproducible; each
colimit, be it a pushout, a coproduct or a whole term's value, is `_colimit`,
whose union-find is the library's one: `components` runs it too.

A part of a graph, as `Graph.subgraph` and the recursive decompositions
make them, is built by `Graph._part`: it shares its parent's end sets,
which were checked when the parent was built, and checks only that they
lie within its own vertices.  So the parts of one graph, however many and
however nested, hold one frozenset per edge between them.  Every graph
hashes on first use, to the value of its vertices and its (edge, ends)
pairs, so a part that is never hashed never pays for it.

Every graph numbers itself once, on first use (`Graph._numbering`): its
sorted vertex and edge ids, each vertex's rank among them, and each
edge's ends as ranks and as a vertex mask, with each vertex's edges as an
edge mask (`_Numbering`).  Pushouts and coproducts lay their two graphs
side by side in these numberings, `cospan_to_json` writes a cospan in
its apex's, `terms` glues each atom in its apex's, `decomp` takes branch
width over it, and the exact searches of `oracles` and `terms` hold
their states as bit masks over it, with three private helpers here: `_Bits` lists a mask's set bits,
`_subset_unions` joins masks over every subset, and `_components` is the
one component flood, which splits the outside of a bag in the tree-width
search of `oracles` and a state into its tensor factors in
`terms.bounded_mwd_search`.

`_walk` is the one walk of a decomposition tree, and `_tree_parents` the
one test of whether a graph is a tree, which `Graph.is_tree` and the
decomposition validators read.  The JSON readers check each value's type
with `_json` and `_ints`, which the decomposition and cospan readers
share, so an ill-typed value is named with the type it should have.  The
text reader checks every directive against one table of its id count and
wording.  The isomorphism search checks each forced vertex pair against
the pairs before it as it pins it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional


class GraphError(ValueError):
    """Malformed graph data or an argument outside its domain."""


class GraphParseError(GraphError):
    """Text-format parse failure; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph:
    """Finite undirected multigraph with explicit edge ids; hashed and
    numbered on first use."""

    __slots__ = ("vertices", "edges", "_ends", "_hash", "_view")

    def __init__(self, vertices: Iterable[int], ends: Mapping[int, Iterable[int]]):
        self.vertices = frozenset(vertices)
        table = {}
        for e, pts in dict(ends).items():
            pts = frozenset(pts)
            if not 1 <= len(pts) <= 2:
                raise GraphError(f"edge {e} must have 1 or 2 endpoints, got {len(pts)}")
            if not pts <= self.vertices:
                raise GraphError(f"edge {e} has endpoints {sorted(pts)} outside the vertex set")
            table[e] = pts
        self._ends = table
        self.edges = frozenset(table)
        self._hash = self._view = None

    @staticmethod
    def discrete(vertices: Iterable[int]) -> "Graph":
        return Graph(vertices, {})

    @staticmethod
    def empty() -> "Graph":
        return Graph((), {})

    @staticmethod
    def from_edge_pairs(vertices: Iterable[int], pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph with edges numbered 0.. in the order given."""
        return Graph(vertices, {i: set(p) for i, p in enumerate(pairs)})

    def ends(self, e: int) -> frozenset:
        if e not in self._ends:
            raise GraphError(f"unknown edge id {e}")
        return self._ends[e]

    def is_loop(self, e: int) -> bool:
        return len(self.ends(e)) == 1

    def degree(self, v: int) -> int:
        """Number of incident edge endpoints; a self-loop contributes 2."""
        if v not in self.vertices:
            raise GraphError(f"unknown vertex id {v}")
        d = 0
        for pts in self._ends.values():
            if v in pts:
                d += 2 if len(pts) == 1 else 1
        return d

    def neighbours(self, v: int) -> frozenset:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex id {v}")
        out = set()
        for pts in self._ends.values():
            if v in pts:
                out.update(pts - {v} or {v})
        return frozenset(out)

    def incident_edges(self, v: int) -> frozenset:
        return frozenset(e for e, pts in self._ends.items() if v in pts)

    def subgraph(self, vertices: Iterable[int], edges: Iterable[int]) -> "Graph":
        vs = frozenset(vertices)
        es = frozenset(edges)
        if not vs <= self.vertices:
            raise GraphError("subgraph vertices not contained in the graph")
        if not es <= self.edges:
            raise GraphError("subgraph edges not contained in the graph")
        return self._part(vs, es)

    def _part(self, vertices: frozenset, edges: Iterable[int]) -> "Graph":
        """The graph on `vertices` with `edges`, which must be edges of this
        graph, sharing their end sets with it.  Only that those ends lie
        within `vertices` is checked, with `Graph`'s error."""
        part = Graph.__new__(Graph)
        ends = self._ends
        part._ends = table = {e: ends[e] for e in edges}
        if not all(map(vertices.issuperset, table.values())):
            for e, pts in table.items():
                if not pts <= vertices:
                    raise GraphError(f"edge {e} has endpoints {sorted(pts)} outside the vertex set")
        part.vertices = vertices
        part.edges = frozenset(table)
        part._hash = part._view = None
        return part

    def _numbering(self) -> "_Numbering":
        """The graph's one numbering, built by `_number` on first use."""
        if self._view is None:
            self._view = _number(self)
        return self._view

    def connected_components(self) -> list[tuple[frozenset, frozenset]]:
        """Components as (vertex set, edge set) pairs, sorted by minimum vertex."""
        return components(self.vertices, self._ends)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        return len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        """Connected and acyclic; the empty graph is not a tree."""
        return _tree_parents(self) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._ends == other._ends

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, frozenset(self._ends.items())))
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join(f"{e}:{sorted(self._ends[e])}" for e in sorted(self.edges))
        return f"Graph(v={sorted(self.vertices)}, e={{{es}}})"


@dataclass(frozen=True)
class SourcedGraph:
    """A graph with a marked source-vertex set acting as its glueing interface."""

    graph: Graph
    sources: frozenset

    def __init__(self, graph: Graph, sources: Iterable[int] = ()):
        src = frozenset(sources)
        if not src <= graph.vertices:
            raise GraphError(f"sources {sorted(src - graph.vertices)} are not vertices")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sources", src)

    @property
    def vertices(self) -> frozenset:
        return self.graph.vertices

    @property
    def edges(self) -> frozenset:
        return self.graph.edges

    def is_empty(self) -> bool:
        return not self.graph.vertices and not self.graph.edges


class FiniteMap:
    """A total map between finite sets with an explicit codomain."""

    __slots__ = ("mapping", "codomain")

    def __init__(self, mapping: Mapping, codomain: Iterable):
        self.mapping = dict(mapping)
        self.codomain = frozenset(codomain)
        bad = {k for k, v in self.mapping.items() if v not in self.codomain}
        if bad:
            raise GraphError(f"map image escapes the codomain at {sorted(bad)}")

    @property
    def domain(self) -> frozenset:
        return frozenset(self.mapping)

    def __call__(self, x):
        if x not in self.mapping:
            raise GraphError(f"{x!r} is outside the map domain")
        return self.mapping[x]

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    def then(self, other: "FiniteMap") -> "FiniteMap":
        return FiniteMap({k: other(v) for k, v in self.mapping.items()}, other.codomain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMap):
            return NotImplemented
        return self.mapping == other.mapping and self.codomain == other.codomain

    def __repr__(self) -> str:
        return f"FiniteMap({self.mapping!r})"


def image_union(f: FiniteMap, g: FiniteMap) -> frozenset:
    """Union of the two images; the maps must share a codomain."""
    if f.codomain != g.codomain:
        raise GraphError("image_union requires a common codomain")
    return f.image() | g.image()


def image_intersection(f: FiniteMap, g: FiniteMap) -> frozenset:
    """Intersection of the two images; the maps must share a codomain."""
    if f.codomain != g.codomain:
        raise GraphError("image_intersection requires a common codomain")
    return f.image() & g.image()


class GraphMorphism:
    """A pair of vertex/edge maps commuting with edge endpoints."""

    __slots__ = ("domain", "codomain", "vmap", "emap")

    def __init__(self, domain: Graph, codomain: Graph, vmap: Mapping[int, int],
                 emap: Mapping[int, int]):
        self.domain = domain
        self.codomain = codomain
        self.vmap = dict(vmap)
        self.emap = dict(emap)
        if frozenset(self.vmap) != domain.vertices:
            raise GraphError("vertex map is not total on the domain vertices")
        if frozenset(self.emap) != domain.edges:
            raise GraphError("edge map is not total on the domain edges")
        if not set(self.vmap.values()) <= codomain.vertices:
            raise GraphError("vertex map escapes the codomain")
        if not set(self.emap.values()) <= codomain.edges:
            raise GraphError("edge map escapes the codomain")
        for e in domain.edges:
            expected = frozenset(self.vmap[v] for v in domain.ends(e))
            if codomain.ends(self.emap[e]) != expected:
                raise GraphError(f"morphism does not respect endpoints of edge {e}")

    def then(self, other: "GraphMorphism") -> "GraphMorphism":
        if self.codomain != other.domain:
            raise GraphError("morphisms are not composable")
        return GraphMorphism(
            self.domain, other.codomain,
            {v: other.vmap[w] for v, w in self.vmap.items()},
            {e: other.emap[f] for e, f in self.emap.items()},
        )

    def image_subgraph(self) -> Graph:
        return self.codomain.subgraph(set(self.vmap.values()), set(self.emap.values()))

    def __repr__(self) -> str:
        return f"GraphMorphism(v={self.vmap!r}, e={self.emap!r})"


def is_epimorphism(m: GraphMorphism) -> bool:
    """True iff both component maps are surjective."""
    return (frozenset(m.vmap.values()) == m.codomain.vertices
            and frozenset(m.emap.values()) == m.codomain.edges)


def components(vertices: Iterable[int],
               ends: Mapping[int, frozenset]) -> list[tuple[frozenset, frozenset]]:
    """Components of the graph on `vertices` whose edges have the endpoint
    sets `ends`, as (vertex set, edge set) pairs sorted by minimum vertex:
    the classes of `_colimit` on one block of the sorted vertices with the
    ends of each edge identified, which it numbers by least vertex."""
    vs = sorted(set(vertices))
    rank = dict(zip(vs, range(len(vs))))
    pairs = [(rank[min(pts)], rank[max(pts)]) for pts in ends.values()]
    vertex, apex = _colimit([(len(vs), ())], pairs)
    groups = [(set(), set()) for _ in apex.vertices]
    for v, c in zip(vs, vertex):
        groups[c][0].add(v)
    for e, (a, _) in zip(ends, pairs):
        groups[vertex[a]][1].add(e)
    return [(frozenset(cv), frozenset(ce)) for cv, ce in groups]


def ends_of_edge_set(g: Graph, es: Iterable[int]) -> frozenset:
    """Union of the endpoint sets of the given edges."""
    return frozenset().union(*map(g.ends, es))


def _subset_unions(masks: list[int]) -> list[int]:
    """The union of `masks[i]` over the set bits i of s, for every s below
    2**len(masks); each entry is an earlier one joined with the mask of its
    highest bit."""
    out = [0]
    for m in masks:
        out += [u | m for u in out]
    return out


class _Bits(dict):
    """mask -> the positions of its set bits, ascending, as a tuple; filled
    on first lookup.  One search keeps one table."""

    def __missing__(self, mask: int) -> tuple:
        out, rest = [], mask
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        self[mask] = out = tuple(out)
        return out


def _components(within: int, emask: int, incident: list, ends: list,
                bits: _Bits) -> list[tuple[int, int]]:
    """The components of the vertex mask `within` joined by the edges of
    `emask`, in the order of their least vertex in `within`, each as the
    pair (its vertices together with the ends of its edges, its edge
    mask).  Bit i of a vertex mask is vertex i, whose edges are the mask
    `incident[i]`; bit j of an edge mask is edge j, whose ends are the
    mask `ends[j]`.  An edge of `emask` belongs to the component of any
    end it has in `within`; its other ends join nothing."""
    comps = []
    while within:
        comp = grow = within & -within
        edges = 0
        while grow:
            near = 0
            for i in bits[grow]:
                for j in bits[incident[i] & emask & ~edges]:
                    near |= ends[j]
                    edges |= 1 << j
            grow = near & within & ~comp
            comp |= near  # the vertices grown and the ends outside `within`
        comps.append((comp, edges))
        within &= ~comp
    return comps


def _walk(shape: Graph, root: int, cut: Optional[int] = None) -> dict:
    """Parent of every node reachable from `root` without passing `cut`
    (None for the root), each node listed after its parent."""
    adjacent: dict = {v: [] for v in shape.vertices}
    for e in shape.edges:
        u, *others = shape.ends(e)  # a loop has one end and no other
        for w in others:
            adjacent[u].append(w)
            adjacent[w].append(u)
    parent = {root: None}
    order = [root]
    for v in order:
        for w in adjacent[v]:
            if w != cut and w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def _tree_parents(shape: Graph) -> Optional[dict]:
    """The parents of one walk of `shape` from its least node if `shape` is
    a tree, else None.  The walk reaches every node and |E| = |V| - 1, which
    leaves no room for a loop or a parallel edge; the empty shape fails the
    edge count."""
    parent = _walk(shape, min(shape.vertices)) if shape.vertices else {}
    if len(parent) != len(shape.vertices) or len(shape.edges) != len(shape.vertices) - 1:
        return None
    return parent


def is_subcubic_tree(g: Graph) -> bool:
    """True iff g is a tree in which every vertex has at most three neighbours."""
    if not g.is_tree():
        return False
    return all(len(g.neighbours(v)) <= 3 for v in g.vertices)


_Numbering = namedtuple("_Numbering", "vertices edges rank ends ends_mask incident")


def _number(g: Graph) -> _Numbering:
    """The numbering of g, which `Graph._numbering` keeps: bit i of a
    vertex mask is `vertices[i]` and bit j of an edge mask `edges[j]`, the
    ids in ascending order; `rank` maps each vertex to its index, `ends[j]`
    holds the (low, high) ranks of edge j's ends (a loop's twice) and
    `ends_mask[j]` their vertex mask, and `incident[i]` is the edge mask
    of vertex i's edges.  Every reader shares these tables, so none
    changes them; they hold no reference to g."""
    vertices, edges = sorted(g.vertices), sorted(g.edges)
    rank = dict(zip(vertices, range(len(vertices))))
    ends = [(rank[min(pts)], rank[max(pts)]) for pts in map(g._ends.__getitem__, edges)]
    incident = [0] * len(vertices)
    for j, (a, b) in enumerate(ends):
        incident[a] |= 1 << j
        incident[b] |= 1 << j
    return _Numbering(vertices, edges, rank, ends, [1 << a | 1 << b for a, b in ends], incident)


def _colimit(blocks: list[tuple[int, list]],
             pairs: Iterable[tuple[int, int]]) -> tuple[list, Graph]:
    """Graphs laid side by side, each given as (vertex count, edge ends in
    its ranks), with `pairs` of global vertex ids identified.  Global ids
    run through the blocks in order.  Classes are numbered by their least
    id and edges keep their global ids, so pushouts and coproducts, which
    glue two blocks, nest to the colimit of all their leaves at once.
    Returns each global vertex's class and the apex.

    The classes come from a union-find on one list of parents with path
    halving, whose roots are least ids: every parent is then at most its
    child, so one pass up the list numbers each root as it is met and
    gives every other id its parent's class."""
    parent = list(range(sum(n for n, _ in blocks)))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[max(a, b)] = min(a, b)
    vertex: list = []
    roots = 0
    for v, p in enumerate(parent):
        vertex.append(vertex[p] if p < v else roots)
        roots += p == v
    ends: list = []
    v0 = 0
    for n, block_ends in blocks:
        ends += ({vertex[v0 + v] for v in pts} for pts in block_ends)
        v0 += n
    return vertex, Graph(range(roots), dict(enumerate(ends)))


def _side_by_side(g1: Graph, g2: Graph,
                  glued: Iterable[tuple[int, int]]) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """The colimit of g1 and g2 (g1's ids first, each side in its
    numbering) with each (g1 vertex, g2 vertex) pair of `glued`
    identified, and the maps of both into it."""
    v1, v2 = g1._numbering(), g2._numbering()
    n1, m1 = len(v1.vertices), len(v1.edges)
    vertex, apex = _colimit([(n1, v1.ends), (len(v2.vertices), v2.ends)],
                            [(v1.rank[a], n1 + v2.rank[b]) for a, b in glued])
    return (apex,
            GraphMorphism(g1, apex, {v: vertex[i] for v, i in v1.rank.items()},
                          {e: i for i, e in enumerate(v1.edges)}),
            GraphMorphism(g2, apex, {v: vertex[n1 + i] for v, i in v2.rank.items()},
                          {e: m1 + i for i, e in enumerate(v2.edges)}))


def graph_coproduct(g1: Graph, g2: Graph) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Disjoint union with both injections; ids renumbered deterministically."""
    return _side_by_side(g1, g2, ())


def graph_pushout(g1: Graph, g2: Graph, y: Iterable, l1: FiniteMap,
                  l2: FiniteMap) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Glue g1 and g2 along the span  V(g1) <- y -> V(g2).

    The apex identifies l1(a) with l2(a) for every a in y and is numbered
    as `_colimit` numbers.  Returns the two quotient morphisms.
    """
    ys = frozenset(y)
    if not ys <= l1.domain or not ys <= l2.domain:
        raise GraphError("pushout legs must be total on the shared boundary")
    if not l1.image() <= g1.vertices or not l2.image() <= g2.vertices:
        raise GraphError("pushout legs must land in the graph vertices")
    return _side_by_side(g1, g2, [(l1(a), l2(a)) for a in sorted(ys)])


def _multiplicities(g: Graph) -> tuple[dict, dict]:
    """Loops at each vertex, and each vertex's other endpoints with the
    number of edges to them."""
    loops = dict.fromkeys(g.vertices, 0)
    adj: dict = {v: {} for v in g.vertices}
    for pts in g._ends.values():
        if len(pts) == 1:
            (v,) = pts
            loops[v] += 1
        else:
            u, w = pts
            adj[u][w] = adj[u].get(w, 0) + 1
            adj[w][u] = adj[w].get(u, 0) + 1
    return loops, adj


def _vertex_invariants(loops: dict, adj: dict) -> dict[int, tuple]:
    """(degree, loops) of every vertex; a loop adds 2 to the degree."""
    return {v: (2 * loops[v] + sum(adj[v].values()), loops[v]) for v in adj}


def find_isomorphism(g1: Graph, g2: Graph,
                     forced: Optional[Mapping[int, int]] = None) -> Optional[GraphMorphism]:
    """Backtracking isomorphism search on degree-refined vertex classes.

    `forced` pins a partial vertex assignment (used for leg-compatible
    cospan isomorphisms).  Deterministic given input ordering; intended
    for small graphs.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    loops1, adj1 = _multiplicities(g1)
    loops2, adj2 = _multiplicities(g2)
    inv1 = _vertex_invariants(loops1, adj1)
    inv2 = _vertex_invariants(loops2, adj2)
    if sorted(inv1.values()) != sorted(inv2.values()):
        return None
    assign: dict[int, int] = {}
    used: set = set()

    def compatible(v: int, w: int) -> bool:
        # every already-assigned neighbour relation must carry over with
        # matching multiplicities
        for u, x in assign.items():
            c1 = loops1[v] if u == v else adj1[v].get(u, 0)
            c2 = loops2[w] if x == w else adj2[w].get(x, 0)
            if c1 != c2:
                return False
        return True

    for v, w in dict(forced or {}).items():
        if (v not in g1.vertices or w not in g2.vertices or w in used or inv1[v] != inv2[w]
                or not compatible(v, w)):
            return None
        assign[v] = w
        used.add(w)
    order = sorted(g1.vertices - set(assign), key=lambda v: (inv1[v], v))

    def targets(v: int):
        # the vertices free when v's turn comes, in id order, each checked
        # against the assignment of the vertices before v when it is tried
        return (w for w in sorted(g2.vertices - used)
                if inv1[v] == inv2[w] and compatible(v, w))

    # depth first: order[:i] is assigned, tries[k] yields order[k]'s untried targets
    i, tries = 0, []
    while i < len(order):
        if i == len(tries):
            tries.append(targets(order[i]))
        w = next(tries[i], None)
        if w is not None:
            assign[order[i]] = w
            used.add(w)
            i += 1
            continue
        tries.pop()  # no target left for order[i]: try the next one for order[i - 1]
        if i == 0:
            return None
        i -= 1
        used.discard(assign.pop(order[i]))

    emap: dict[int, int] = {}
    pool: dict[frozenset, list[int]] = {}
    for e in sorted(g2.edges):
        pool.setdefault(g2.ends(e), []).append(e)
    for e in sorted(g1.edges):
        target = frozenset(assign[v] for v in g1.ends(e))
        cands = pool.get(target)
        if not cands:
            return None
        emap[e] = cands.pop(0)
    return GraphMorphism(g1, g2, assign, emap)


def graph_isomorphic(g1: Graph, g2: Graph) -> Optional[GraphMorphism]:
    """A witnessing isomorphism between the two graphs, or None."""
    return find_isomorphism(g1, g2)


def _twin_classes(loops: dict, adj: dict) -> dict:
    """Vertex -> its twin class.  Twins have equal loops and equal edge
    multiplicities to every third vertex, so swapping two of them is an
    automorphism."""
    reps: list = []
    out = {}
    for v in sorted(adj):
        for r in reps:
            if loops[r] == loops[v] and (
                    {x: m for x, m in adj[r].items() if x != v}
                    == {x: m for x, m in adj[v].items() if x != r}):
                out[v] = out[r]
                break
        else:
            reps.append(v)
            out[v] = v
    return out


def _refine(colour: dict, adj: dict) -> dict:
    """Split colour classes by each vertex's multiset of (neighbour colour,
    edge multiplicity) until the number of classes stops growing.  Colours
    are renumbered 0.. by sorted signature, so they do not depend on the
    vertex ids."""
    cells = len(set(colour.values()))
    while True:
        sig = {v: (c, tuple(sorted((colour[u], m) for u, m in adj[v].items())))
               for v, c in colour.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colour = {v: rank[s] for v, s in sig.items()}
        if len(rank) == cells:
            return colour
        cells = len(rank)


def _leaf_key(g: Graph, label: dict) -> tuple:
    """The key of g relabelled by a vertex order."""
    return (len(label), tuple(sorted(tuple(sorted(label[v] for v in pts))
                                     for pts in g._ends.values())))


def canonical_key(g: Graph) -> tuple:
    """A label-independent canonical form: equal keys if and only if the
    graphs are isomorphic.

    The key is `(n, sorted tuple of sorted endpoint tuples)` of g relabelled
    onto 0..n-1, a loop being a 1-tuple; so it is a copy of g itself.  It is
    the least such key over the leaves of an individualisation-refinement
    search (McKay & Piperno, *Practical graph isomorphism II*, 2014): colour
    the vertices by (degree, loops) and refine, then individualise each
    vertex of the first non-singleton class in turn and refine again, until
    every class is a single vertex and the colours order the vertices.  A
    vertex whose swap with one already tried is an automorphism (a twin) is
    skipped.  Graphs without twins or refinable structure still have n!
    leaves, but the search never has more than the brute force over all
    orderings.
    """
    n = len(g.vertices)
    if not n:
        return (0, ())
    loops, adj = _multiplicities(g)
    twin = _twin_classes(loops, adj)
    start = _vertex_invariants(loops, adj)
    rank = {c: i for i, c in enumerate(sorted(set(start.values())))}
    best = None
    stack = [_refine({v: rank[c] for v, c in start.items()}, adj)]
    while stack:
        colour = stack.pop()
        cells: dict = {}
        for v, c in colour.items():
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            key = _leaf_key(g, colour)
            if best is None or key < best:
                best = key
            continue
        tried = set()
        for v in sorted(cells[min(c for c, vs in cells.items() if len(vs) > 1)]):
            if twin[v] not in tried:
                tried.add(twin[v])
                stack.append(_refine({u: 2 * c + (u != v) for u, c in colour.items()}, adj))
    return best


# ---------------------------------------------------------------------------
# Text format: `v <id>` / `e <u> <v>` / `s <id>` / `#` comments.


def parse_graph_text(text: str) -> SourcedGraph:
    vertices: set = set()
    pairs: list[tuple[int, int]] = []
    sources: set = set()
    # per directive: its id count in words, what its ids name when they
    # must be declared with 'v' first, and what takes them
    directives = {"v": (1, "one id", "", vertices.add),
                  "e": (2, "two ids", "edge endpoint", pairs.append),
                  "s": (1, "one id", "source vertex", sources.add)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        try:
            ids = [int(a) for a in args]
        except ValueError:
            raise GraphParseError(lineno, f"non-integer id in {line!r}")
        if tag not in directives:
            raise GraphParseError(lineno, f"unknown directive {tag!r}")
        count, words, name, take = directives[tag]
        if len(ids) != count:
            raise GraphParseError(lineno, f"'{tag}' takes exactly {words}")
        if name and not vertices.issuperset(ids):
            raise GraphParseError(lineno, f"{name} not declared with 'v'")
        take(ids[0] if count == 1 else tuple(ids))
    return SourcedGraph(Graph.from_edge_pairs(vertices, pairs), sources)


def format_graph_text(sg: SourcedGraph) -> str:
    lines = [f"v {v}" for v in sorted(sg.graph.vertices)]
    for e in sorted(sg.graph.edges):
        pts = sorted(sg.graph.ends(e))
        u, w = pts[0], pts[-1]
        lines.append(f"e {u} {w}")
    lines.extend(f"s {v}" for v in sorted(sg.sources))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON form used by decomposition schemas: explicit ids so that edge ids
# referenced elsewhere stay stable.


def graph_to_json(g: Graph) -> dict:
    return {
        "v": sorted(g.vertices),
        "e": [[e, *sorted(g.ends(e))] for e in sorted(g.edges)],
    }


def _json(data, cls: type, what: str):
    """`data`, if it is a JSON object (`cls` dict) or array (list); else
    GraphError naming `what` and the expected type."""
    if not isinstance(data, cls):
        raise GraphError(f"{what} is a JSON {'object' if cls is dict else 'array'}, "
                         f"not {type(data).__name__}")
    return data


def _ints(items) -> list:
    items = list(items)
    if not all(isinstance(i, int) for i in items):
        raise GraphError(f"expected integers, got {items!r}")
    return items


def graph_from_json(data: dict) -> Graph:
    """The graph of `graph_to_json`'s form; GraphError names an ill-typed
    value, or an edge entry with no id."""
    items = _json(_json(data, dict, "a graph").get("e", []), list, "an edge list")
    for item in items:
        if type(item) is not list or not item:  # only these can lack an id or be no array
            if isinstance(item, (str, dict)) or item == []:  # nothing at index 0
                raise GraphError(f"edge entry {item!r} has no id")
            _json(item, list, "an edge entry")
    # one pass over every id; `_ints` of each entry only to name a bad one
    if not all(isinstance(i, int) for i in chain.from_iterable(items)):
        for item in items:
            _ints(item)
    return Graph(_ints(_json(data.get("v", []), list, "a vertex list")),
                 {item[0]: item[1:] for item in items})


def sourced_graph_to_json(sg: SourcedGraph) -> dict:
    out = graph_to_json(sg.graph)
    out["s"] = sorted(sg.sources)
    return out


def sourced_graph_from_json(data: dict) -> SourcedGraph:
    return SourcedGraph(graph_from_json(data),
                        _ints(_json(data.get("s", []), list, "a source list")))
