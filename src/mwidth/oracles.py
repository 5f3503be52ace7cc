"""Exact width oracles and small-graph enumeration.

The tree and path oracles search the recursive decomposition forms
directly (bag choice + outside-component grouping), memoized on the
(subgraph, sources) state, so they exercise the same inductive
definitions the validators check.  The branch oracle computes the width
by a dynamic program over edge subsets, then takes as witness the first
leaf-labelled cubic tree that attains it.  Everything here is desk scale
only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

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
    _branch_width,
    branch_dec_width,
    path_from_recursive,
    tree_from_recursive,
)
from .graph import (
    Graph,
    SourcedGraph,
    _subset_unions,
    canonical_key,
    components,
    ends_of_edge_set,
)


class OracleError(ValueError):
    """Input outside the configured size bounds."""


_INF = math.inf


def _subsets(items: Iterable) -> Iterable[frozenset]:
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def _outside_components(g: Graph, vs: frozenset, es: frozenset,
                        bag: frozenset) -> list[tuple[frozenset, frozenset]]:
    """Components of the part not handled by the bag.

    An edge is outside when its endpoints are not all inside the bag; a
    vertex is outside when it is not in the bag.  Each component comes
    with its bag anchors included (vertices shared with the bag); they are
    sorted by smallest vertex, then by smallest outside vertex.
    """
    outside = {e: g.ends(e) - bag for e in es if not g.ends(e) <= bag}
    comps = [(cv | ends_of_edge_set(g, ce), ce) for cv, ce in components(vs - bag, outside)]
    comps.sort(key=lambda c: min(c[0]))
    return comps


def _grouped(comps: list, mask: int) -> tuple[frozenset, frozenset]:
    vs: set = set()
    es: set = set()
    for i, (cv, ce) in enumerate(comps):
        if mask & (1 << i):
            vs |= cv
            es |= ce
    return frozenset(vs), frozenset(es)


def _tree_parts(sub: Graph, vs: frozenset, es: frozenset, bag: frozenset):
    """Children of a tree node: the outside components split into two groups."""
    comps = _outside_components(sub, vs, es, bag)
    k = len(comps)
    for mask in range(1 << max(k - 1, 0)):
        yield _grouped(comps, mask), _grouped(comps, ((1 << k) - 1) ^ mask)


def _path_parts(sub: Graph, vs: frozenset, es: frozenset, bag: frozenset):
    """The one child of a path node: the minimal suffix, which keeps exactly
    the edges not inside the bag, and only the vertices they still need
    plus the uncovered ones."""
    rest_es = frozenset(e for e in es if not sub.ends(e) <= bag)
    rest_vs = (vs - bag) | ends_of_edge_set(sub, rest_es)
    if (rest_vs, rest_es) != (vs, es):
        yield ((rest_vs, rest_es),)


def _optimal_rec(sg: SourcedGraph, max_vertices: int, what: str, empty, make, parts):
    """Minimum-width recursive decomposition by exhaustive search over bags,
    memoized on the (vertices, edges, sources) state.  `parts` yields the
    candidate child states for a bag, and `make(graph, bag, *children)`
    builds the node."""
    g = sg.graph
    if len(g.vertices) > max_vertices:
        raise OracleError(
            f"refusing {what}-width search on {len(g.vertices)} > {max_vertices} vertices")
    memo: dict = {}
    active: set = set()

    def best(vs: frozenset, es: frozenset, xs: frozenset) -> tuple:
        if not vs and not es:
            return 0, empty
        key = (vs, es, xs)
        if key in memo:
            return memo[key]
        if key in active:
            return _INF, None
        active.add(key)
        best_w, best_t = _INF, None
        sub = g.subgraph(vs, es)
        for extra in _subsets(vs - xs):
            bag = xs | extra
            if len(bag) >= best_w:
                continue
            for children in parts(sub, vs, es, bag):
                # children in order, stopping once they cannot beat the best
                w, kids = len(bag), []
                for cv, ce in children:
                    cw, ct = best(cv, ce, cv & bag)
                    w = max(w, cw)
                    if w >= best_w:
                        break
                    kids.append(ct)
                else:
                    best_w, best_t = w, make(SourcedGraph(sub, xs), bag, *kids)
        active.discard(key)
        if best_t is not None:
            memo[key] = (best_w, best_t)
        return best_w, best_t

    w, t = best(g.vertices, g.edges, sg.sources)
    if t is None:
        raise OracleError(f"no recursive {what} decomposition found")
    return w, t


def optimal_rec_tree_dec(sg: SourcedGraph,
                         max_vertices: int = 8) -> tuple[int, RecTreeDec]:
    """Minimum-width recursive tree decomposition by exhaustive search."""
    return _optimal_rec(sg, max_vertices, "tree", REC_TREE_EMPTY, RecTreeNode, _tree_parts)


def optimal_rec_path_dec(sg: SourcedGraph,
                         max_vertices: int = 8) -> tuple[int, RecPathDec]:
    """Minimum-width recursive path decomposition by exhaustive search."""
    return _optimal_rec(sg, max_vertices, "path", REC_PATH_EMPTY, RecPathCons, _path_parts)


def exact_treewidth(g: Graph, max_vertices: int = 8) -> tuple[int, TreeDec]:
    """Exact tree width (max-bag-size convention) with a classic witness."""
    w, t = optimal_rec_tree_dec(SourcedGraph(g), max_vertices)
    return w, tree_from_recursive(t)


def exact_pathwidth(g: Graph, max_vertices: int = 8) -> tuple[int, PathDec]:
    """Exact path width (max-bag-size convention) with a classic witness."""
    w, t = optimal_rec_path_dec(SourcedGraph(g), max_vertices)
    return w, path_from_recursive(t)


def _leaf_trees(k: int) -> Iterable[tuple[Graph, dict]]:
    """All leaf-labelled cubic trees with k labelled leaves 0..k-1.

    Built by the standard edge-subdivision recursion, which enumerates
    each tree exactly once (no symmetry duplicates).
    """
    if k == 0:
        return
    if k == 1:
        yield Graph.discrete([0]), {0: 0}
        return
    if k == 2:
        yield Graph.from_edge_pairs([0, 1], [(0, 1)]), {0: 0, 1: 1}
        return

    def grow(tree: Graph, table: dict, next_leaf: int):
        if next_leaf == k:
            yield tree, table
            return
        fresh = max(tree.vertices) + 1
        for e in sorted(tree.edges):
            pts = sorted(tree.ends(e))
            u, w = pts[0], pts[-1]
            mid, leaf = fresh, fresh + 1
            ends = {i: tree.ends(i) for i in tree.edges if i != e}
            nid = max(tree.edges) + 1
            ends[e] = {u, mid}
            ends[nid] = {mid, w}
            ends[nid + 1] = {mid, leaf}
            bigger = Graph(tree.vertices | {mid, leaf}, ends)
            yield from grow(bigger, {**table, leaf: next_leaf}, next_leaf + 1)

    base = Graph.from_edge_pairs([0, 1], [(0, 1)])
    yield from grow(base, {0: 0, 1: 1}, 2)


def _branchwidth_value(g: Graph, edges: list) -> int:
    """Branch width of `g` (at least one edge) by a dynamic program over the
    subsets X of `edges`, held as bit masks, in O(3**m).

    f(X) is the least width of a rooted binary tree with leaves X, counting
    the order of every tree edge below the root: 0 for a single edge, else
    the minimum over splits (A, X - A) of max(mid(A), mid(X - A), f(A),
    f(X - A)), where mid(S) counts the vertices incident to both S and the
    edges outside S.  Joining the root's two edges into one makes the tree
    cubic, so f(edges) is the branch width.
    """
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
    ends = _subset_unions([sum(bit[v] for v in g.ends(e)) for e in edges])
    full = len(ends) - 1
    mid = [(ends[s] & ends[full ^ s]).bit_count() for s in range(full + 1)]
    f = [0] * (full + 1)
    for x in range(1, full + 1):
        low = x & -x
        rest = x ^ low
        if not rest:
            continue
        # each split once: A holds the lowest edge of X, X - A is not empty
        best, sub = len(bit), rest
        while sub:
            sub = (sub - 1) & rest
            a = low | sub
            best = min(best, max(mid[a], mid[x ^ a], f[a], f[x ^ a]))
        f[x] = best
    return f[full]


def exact_branchwidth(g: Graph, max_edges: int = 7) -> tuple[int, BranchDec]:
    """Exact branch width with a classic witness.

    The width comes from `_branchwidth_value`; the witness is the first tree
    of `_leaf_trees` that attains it, which is the first least-width tree of
    the full enumeration.  Only that tree is validated.  Edgeless graphs
    have width 0 with the empty decomposition; a single edge sits on a
    one-vertex tree with no tree edges, hence width 0.
    """
    edges = sorted(g.edges)
    if len(edges) > max_edges:
        raise OracleError(
            f"refusing branch-width search on {len(edges)} > {max_edges} edges")
    if not edges:
        return 0, BranchDec(Graph.empty(), {})
    width = _branchwidth_value(g, edges)
    decs = (BranchDec(tree, {leaf: edges[i] for leaf, i in table.items()})
            for tree, table in _leaf_trees(len(edges)))
    dec = next(d for d in decs if _branch_width(d, g) == width)
    return branch_dec_width(dec, g), dec


# ---------------------------------------------------------------------------
# Graph catalog.


def enumerate_graphs(max_v: int, max_e: Optional[int] = None) -> list[Graph]:
    """All simple nonempty graphs with at most max_v vertices and max_e
    edges, one per isomorphism class, in a deterministic order."""
    if max_v > 6:
        raise OracleError(f"refusing to enumerate graphs on {max_v} > 6 vertices")
    out = []
    seen: set = set()
    for n in range(1, max_v + 1):
        all_pairs = list(combinations(range(n), 2))
        limit = len(all_pairs) if max_e is None else min(max_e, len(all_pairs))
        for m in range(limit + 1):
            for chosen in combinations(all_pairs, m):
                g = Graph.from_edge_pairs(range(n), chosen)
                key = canonical_key(g)
                if key in seen:
                    continue
                seen.add(key)
                out.append(g)
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
    """

    data: dict = field(default_factory=dict)

    @staticmethod
    def _key(g: Graph) -> str:
        return repr(canonical_key(g))

    def widths(self, g: Graph) -> tuple[int, int, int]:
        """(tree width, path width, branch width) for the graph."""
        key = self._key(g)
        if key not in self.data:
            tw, _ = exact_treewidth(g)
            pw, _ = exact_pathwidth(g)
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
