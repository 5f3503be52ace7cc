"""Exact width oracles and small-graph enumeration.

The tree and path oracles search the recursive decomposition forms
directly (bag choice + outside-component grouping), memoized on the
(vertices, edges, sources) state held as bit masks, so they exercise the
same inductive definitions the validators check; only the witness's
nodes are built as graphs, and `WidthCache` builds none: it takes tree
and path width from the search's value.  Each state stops trying bags
once its best width reaches its floor (`_floor`), a lower bound from the
minor-min-width of its graph that proves the best optimal; the witnesses
are those of the full search.  The branch oracle computes the width by
a dynamic program over edge subsets, then takes as witness the first
leaf-labelled cubic tree that attains it, cutting every partial tree
already wider than that; its width, the cache's too, is that of the
validated witness.  The tree and path searches number the vertices and
edges in id order, so their witnesses depend only on the order of the
vertex ids: relabelling the vertices order-preservingly relabels the
witness.  Each search frees its tables by reference counting when it
returns or raises, as its recursive closures are deleted in a `finally`,
so none waits for the cyclic GC.  The catalog computes no `canonical_key`.
Everything here is desk scale only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterable, Optional

from .decomp import (
    BranchDec,
    PathDec,
    RecPathCons,
    RecPathDec,
    RecTreeDec,
    RecTreeNode,
    REC_PATH_EMPTY,
    REC_TREE_EMPTY,
    TreeDec,
    branch_dec_width,
    path_from_recursive,
    tree_from_recursive,
)
from .graph import Graph, SourcedGraph, _Bits, _components, _subset_unions, canonical_key


class OracleError(ValueError):
    """Input outside the configured size bounds."""


# Default caps of the exact oracles: vertices for the tree and path
# searches, edges for branch width.  `terms.bounded_mwd_search` seeds its
# search with a translation only for inputs within both.
MAX_VERTICES = 8
MAX_EDGES = 7
# Caps of `terms.bounded_mwd_search`, on apex vertices and edges.  Whatever
# its budget, the search walks every composition split (2^edges) and tensor
# split (2^components) of each state it expands, so past these its time
# and memory grow about 3-4x for every two more edges or vertices.
MAX_SEARCH_VERTICES = 16
MAX_SEARCH_EDGES = 16


_INF = math.inf


def _floor(vs: int, xs: int, reach: dict) -> int:
    """The floor of a search state with vertices `vs` and sources `xs`,
    whose edges at each vertex i reach the vertices `reach[i]`: 0 if vs is
    empty, else max(|xs|, mmw(H) + 1).  H is the simple graph of those
    edges plus a clique on xs, and mmw(H) its minor-min-width (Bodlaender
    and Koster's lower bound on contraction degeneracy, hence on tree
    width): while a vertex is left, take one of least degree and record
    that degree, then delete it if isolated, or else contract it into its
    neighbour of least degree.  Ties go to the lower bit.
    """
    left = [i for i in range(vs.bit_length()) if vs >> i & 1]
    adj = [0] * vs.bit_length()
    for i in left:
        adj[i] = (reach[i] | (xs if xs >> i & 1 else 0)) & ~(1 << i)
    low = -1
    while len(left) > low + 1:  # else no degree left can exceed `low`
        degrees = [adj[i].bit_count() for i in left]
        low = max(low, min(degrees))
        v = left.pop(degrees.index(min(degrees)))
        near = adj[v]
        if near:
            u = min((adj[i].bit_count(), i) for i in left if near >> i & 1)[1]
            for i in left:
                if near >> i & 1:
                    adj[i] = (adj[i] | 1 << u) & ~(1 << v)
            adj[u] = (adj[u] | near) & ~(1 << u | 1 << v)
    return max(xs.bit_count(), low + 1)


def _optimal_rec(sg: SourcedGraph, max_vertices: int, what: str, empty, make):
    """Minimum-width recursive decomposition by exhaustive search over bags.

    A state is a (vertices, edges, sources) triple of bit masks over the
    numbering of `sg`'s graph (`Graph._numbering`), bit i standing for the
    i-th smallest vertex or edge id, whose end and incidence masks it
    reads.  A node's bag is the state's sources plus a subset of its other
    vertices, tried by size, then lexicographically.  The vertices outside the bag split into
    components, each with the edges that touch it and those edges' ends in
    the bag, found by least outside vertex (`graph._components`) and then
    stably sorted by least vertex.  A tree node (`what == "tree"`) groups
    the components into two children in every way; a path node keeps them
    as one child, which must differ from the state.  A child's sources are
    its vertices in the bag.

    Each state's best (width, bag, child states) is memoized; a state met
    again while it is being searched counts as infinitely wide and is not
    memoized.  A best is replaced only by a strictly narrower candidate,
    so the first least-width candidate in this order wins.  A state stops
    trying bags once its best width is at most its `_floor`; the witness
    is still the one the full search finds, for three reasons:

    - every decomposition of a state is a tree decomposition of the
      floor's graph H, since the sources sit in its root bag, so its width
      is at least tw(H) + 1 >= mmw(H) + 1, and at least |sources|;
    - so no candidate after the stop is strictly narrower than the best;
    - a state's memoized value does not depend on the order in which
      states are met: from parent to child the vertices and edges can
      only shrink, and where both stay equal the sources can only grow,
      so the only cycle is a state meeting itself.

    A state without vertices is the empty state, as a state's edges have
    their ends among its vertices: the root's by construction, a tree
    child's by the component flood, and a path child's as it takes the
    ends of every edge it keeps.  Every best is finite, and so memoized,
    as every state tries its full bag, whose children are all the empty
    state.  At the end `make(graph, bag, *children)` builds the witness's
    nodes, and only those, each once: no witness meets a non-empty state
    twice, as siblings split the components and a descendant equal to its
    ancestor is a cycle.  With `make` None the result is `(width, None)`
    and no node is built.
    """
    g = sg.graph
    if len(g.vertices) > max_vertices:
        raise OracleError(
            f"refusing {what}-width search on {len(g.vertices)} > {max_vertices} vertices")
    view = g._numbering()
    vids, eids, ends, incident = view.vertices, view.edges, view.ends_mask, view.incident
    tree = what == "tree"
    bits = _Bits()
    memo: dict = {}
    active: set = set()

    def parts(vs: int, es: int, bag: int, touch: dict, reach: dict):
        """Candidate child states, as tuples, for `bag`; `touch[i]` and
        `reach[i]` are the state edges at vertex i and their ends."""
        out = vs & ~bag
        if not tree:
            rest_v, rest_e = out, 0
            for i in bits[out]:
                rest_v |= reach[i]
                rest_e |= touch[i]
            if (rest_v, rest_e) != (vs, es):
                yield ((rest_v, rest_e, rest_v & bag),)
            return
        comps = _components(out, es, incident, ends, bits)
        comps.sort(key=lambda c: c[0] & -c[0])
        vs_of = _subset_unions([cv for cv, _ in comps])
        es_of = _subset_unions([ce for _, ce in comps])
        full = len(vs_of) - 1
        for m in range(max(len(vs_of) // 2, 1)):
            yield ((vs_of[m], es_of[m], vs_of[m] & bag),
                   (vs_of[full ^ m], es_of[full ^ m], vs_of[full ^ m] & bag))

    def best(key: tuple) -> float:
        vs, es, xs = key
        if not vs:  # a state's edges have their ends among its vertices
            return 0
        if key in memo:
            return memo[key][0]
        if key in active:
            return _INF
        active.add(key)
        touch, reach = {}, {}
        for i in bits[vs]:
            touch[i] = es & incident[i]
            reach[i] = 0
            for j in bits[touch[i]]:
                reach[i] |= ends[j]
        floor = _floor(vs, xs, reach)
        best_w, found = _INF, None
        free = [1 << i for i in bits[vs & ~xs]]
        for extra in (sum(c) for r in range(len(free) + 1) for c in combinations(free, r)):
            bag = xs | extra
            if max(bag.bit_count(), floor) >= best_w:
                break  # bags come by size, and none beats the floor
            for children in parts(vs, es, bag, touch, reach):
                # children in order, stopping once they cannot beat the best
                w = bag.bit_count()
                for child in children:
                    w = max(w, best(child))
                    if w >= best_w:
                        break
                else:
                    best_w, found = w, (bag, children)
                    if w <= floor:
                        break
        active.discard(key)
        memo[key] = (best_w, *found)
        return best_w

    def ids(table: list, mask: int) -> list:
        return [table[i] for i in bits[mask]]

    def build(key: tuple):
        vs, es, xs = key
        if not vs:
            return empty
        _, bag, children = memo[key]
        sub = SourcedGraph(g.subgraph(ids(vids, vs), ids(eids, es)), ids(vids, xs))
        return make(sub, ids(vids, bag), *map(build, children))

    root = (2 ** len(vids) - 1, 2 ** len(eids) - 1, sum(1 << view.rank[v] for v in sg.sources))
    try:
        return best(root), None if make is None else build(root)
    finally:  # `best` and `build` reach themselves: break the cycle to free the tables
        del best, build


def optimal_rec_tree_dec(sg: SourcedGraph,
                         max_vertices: int = MAX_VERTICES) -> tuple[int, RecTreeDec]:
    """Minimum-width recursive tree decomposition by exhaustive search."""
    return _optimal_rec(sg, max_vertices, "tree", REC_TREE_EMPTY, RecTreeNode)


def optimal_rec_path_dec(sg: SourcedGraph,
                         max_vertices: int = MAX_VERTICES) -> tuple[int, RecPathDec]:
    """Minimum-width recursive path decomposition by exhaustive search."""
    return _optimal_rec(sg, max_vertices, "path", REC_PATH_EMPTY, RecPathCons)


def exact_treewidth(g: Graph, max_vertices: int = MAX_VERTICES) -> tuple[int, TreeDec]:
    """Exact tree width (max-bag-size convention) with a classic witness."""
    w, t = optimal_rec_tree_dec(SourcedGraph(g), max_vertices)
    return w, tree_from_recursive(t)


def exact_pathwidth(g: Graph, max_vertices: int = MAX_VERTICES) -> tuple[int, PathDec]:
    """Exact path width (max-bag-size convention) with a classic witness."""
    w, t = optimal_rec_path_dec(SourcedGraph(g), max_vertices)
    return w, path_from_recursive(t)


def _leaf_trees(k: int, cut: Optional[Callable[[list, int], bool]] = None
                ) -> Iterable[tuple[Graph, dict]]:
    """All leaf-labelled cubic trees with k labelled leaves 0..k-1.

    Built by the standard edge-subdivision recursion, which enumerates
    each tree exactly once (no symmetry duplicates): leaf j subdivides
    each edge of a tree on leaves 0..j-1 in turn, in edge-id order.  With
    a `cut`, each tree so grown is first passed as `cut(sides, placed)`:
    `sides[v]` is the mask of the leaf labels at or below tree vertex v,
    seen from leaf 0 (vertex 0), and `placed` the mask of every label
    placed so far.  When it returns true, the walk skips that tree and all
    its completions.
    """
    if k == 0:
        return
    if k == 1:
        yield Graph.discrete([0]), {0: 0}
        return

    def grow(ends: list, sides: list, table: dict):
        j = len(table)
        if j == k:
            yield Graph(range(len(sides)), dict(enumerate(ends))), table
            return
        label, mid, leaf = 1 << j, len(sides), len(sides) + 1
        for e, (u, w) in enumerate(ends):
            # `low` is the end of e farther from vertex 0: the new leaf
            # lands below every vertex above it and below `mid`, not below it
            low = w if sides[w] | sides[u] == sides[u] else u
            below = sides[low]
            grown = [s | label if s & below == below else s for s in sides]
            grown[low] = below
            grown += [below | label, label]
            if cut is not None and cut(grown, (label << 1) - 1):
                continue
            bigger = ends[:]
            bigger[e] = (u, mid)
            bigger += [(w, mid), (mid, leaf)]
            yield from grow(bigger, grown, {**table, leaf: j})

    try:
        yield from grow([(0, 1)], [0b11, 0b10], {0: 0, 1: 1})
    finally:  # `grow` reaches itself: closing the walk breaks the cycle and frees `cut`
        del grow


def _branchwidth_value(g: Graph) -> tuple[int, list[int]]:
    """Branch width of `g` (at least one edge) by a dynamic program over the
    subsets X of its edges, held as bit masks over its numbering
    (`Graph._numbering`), in O(3**m); also the table of the vertex mask
    `ends[X]` that the edges of every X touch.

    f(X) is the least width of a rooted binary tree with leaves X, counting
    the order of every tree edge below the root: 0 for a single edge, else
    the minimum over splits (A, X - A) of max(mid(A), mid(X - A), f(A),
    f(X - A)), where mid(S) counts the vertices incident to both S and the
    edges outside S.  Joining the root's two edges into one makes the tree
    cubic, so f(edges) is the branch width.
    """
    view = g._numbering()
    ends = _subset_unions(view.ends_mask)
    full = len(ends) - 1
    mid = [(ends[s] & ends[full ^ s]).bit_count() for s in range(full + 1)]
    f = [0] * (full + 1)
    for x in range(1, full + 1):
        low = x & -x
        rest = x ^ low
        if not rest:
            continue
        # each split once: A holds the lowest edge of X, X - A is not empty
        best, sub = len(view.vertices), rest
        while sub:
            sub = (sub - 1) & rest
            a = low | sub
            best = min(best, max(mid[a], mid[x ^ a], f[a], f[x ^ a]))
        f[x] = best
    return f[full], ends


def exact_branchwidth(g: Graph, max_edges: int = MAX_EDGES) -> tuple[int, BranchDec]:
    """Exact branch width with a classic witness.

    The width comes from `_branchwidth_value`; the witness is the first tree
    of `_leaf_trees` that attains it, which is the first least-width tree of
    the full enumeration.  The walk cuts every partial tree wider than that
    over the edges placed so far: each later leaf joins one side of every
    tree edge, and the vertices shared by the two sides can only grow, so
    no completion of such a tree attains the width.  Only the witness is
    validated.  Edgeless graphs have width 0 with the empty decomposition;
    a single edge sits on a one-vertex tree with no tree edges, hence
    width 0.
    """
    if len(g.edges) > max_edges:
        raise OracleError(
            f"refusing branch-width search on {len(g.edges)} > {max_edges} edges")
    if not g.edges:
        return 0, BranchDec(Graph.empty(), {})
    edges = g._numbering().edges
    width, ends = _branchwidth_value(g)

    def wider(sides: list, placed: int) -> bool:
        return any((ends[s] & ends[placed ^ s]).bit_count() > width for s in sides)

    tree, table = next(_leaf_trees(len(edges), wider))
    dec = BranchDec(tree, {leaf: edges[i] for leaf, i in table.items()})
    return branch_dec_width(dec, g), dec


# ---------------------------------------------------------------------------
# Graph catalog.


def enumerate_graphs(max_v: int, max_e: Optional[int] = None) -> list[Graph]:
    """All simple nonempty graphs with at most max_v vertices and max_e
    edges, one per isomorphism class, in a deterministic order: by vertex
    count, then edge count, then the lexicographic order of the chosen
    vertex pairs, keeping the first graph met in each class.

    An edge set on n vertices is a bit mask over the n(n-1)/2 vertex pairs.
    On meeting a new class, the masks of all n! relabellings of it join the
    set of masks already classified, so a candidate is new exactly when
    its mask is not in that set."""
    if max_v > 6:
        raise OracleError(f"refusing to enumerate graphs on {max_v} > 6 vertices")
    out = []
    for n in range(1, max_v + 1):
        all_pairs = list(combinations(range(n), 2))
        index = {p: i for i, p in enumerate(all_pairs)}
        images = [[1 << index[tuple(sorted((p[a], p[b])))] for a, b in all_pairs]
                  for p in permutations(range(n))]
        seen: set = set()
        limit = len(all_pairs) if max_e is None else min(max_e, len(all_pairs))
        for m in range(limit + 1):
            for chosen in combinations(range(len(all_pairs)), m):
                if sum(1 << i for i in chosen) in seen:
                    continue
                seen.update(sum(image[i] for i in chosen) for image in images)
                out.append(Graph.from_edge_pairs(range(n), [all_pairs[i] for i in chosen]))
    return out


# ---------------------------------------------------------------------------
# Width cache, keyed by canonical graph form, JSON-backed.


@dataclass
class WidthCache:
    """Exact widths memoized across calls; optionally persisted as JSON to
    keep repeated suites fast.

    Records are keyed by `repr(canonical_key(g))`.  A key is a relabelled
    copy of the graph itself, so two keys are equal only for isomorphic
    graphs, whichever canonical form wrote them.  A file keyed by another
    form (such as the least key over all vertex orderings) is therefore
    never misread: its records can only miss.  So the file carries no
    version field.

    A miss takes tree and path width from the value of the memoized
    search (`_optimal_rec`) and builds no witness; branch width is that of
    the witness `exact_branchwidth` validates.
    """

    data: dict = field(default_factory=dict)

    def widths(self, g: Graph) -> tuple[int, int, int]:
        """(tree width, path width, branch width) for the graph."""
        key = repr(canonical_key(g))
        if key not in self.data:
            tw, pw = (_optimal_rec(SourcedGraph(g), MAX_VERTICES, what, None, None)[0]
                      for what in ("tree", "path"))
            bw, _ = exact_branchwidth(g)
            self.data[key] = {"tw": tw, "pw": pw, "bw": bw}
        rec = self.data[key]
        return rec["tw"], rec["pw"], rec["bw"]

    def load(self, path: str) -> "WidthCache":
        """Add the records of a cache file, if it exists; a file that is not
        an object of {"tw": int, "pw": int, "bw": int} records raises
        OracleError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return self
        except (OSError, ValueError, RecursionError) as exc:  # unreadable or invalid JSON
            raise OracleError(f"width cache {path}: {exc}") from exc
        if not isinstance(data, dict) or not all(
                isinstance(rec, dict) and sorted(rec) == ["bw", "pw", "tw"]
                and all(type(w) is int for w in rec.values()) for rec in data.values()):
            raise OracleError(f"width cache {path}: not an object of "
                              '{"tw": int, "pw": int, "bw": int} records')
        self.data.update(data)
        return self

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
