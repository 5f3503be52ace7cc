"""Translations between graph decompositions and monoidal decomposition terms.

Each direction carries the width bound that makes the three sandwich
theorems work:

* recursive tree dec  -> right-tree term   with width <= 2 * input width;
* right-tree term     -> recursive tree dec with width <= max(term width, |boundary image|);
* recursive path dec  -> path term          with width  = input width exactly;
* path term           -> recursive path dec with width <= term width;
* recursive branch dec-> term               with width <= max(input width, 1) + 1;
* term + glue map     -> recursive branch dec with width <= 2 * max(term width, arities).

The module owns the table of decomposition kinds (`_KINDS`: per kind
its validators, widths, conversions, translations and oracle), which the
CLI, `check_theorems` and the search seeds read; `_optimal` runs a kind's
oracle, makes its witness recursive and translates it to a term, with
that term's width.

The term -> decomposition directions are linear in the term.  They
evaluate it once, as one colimit of its leaves (`terms._glue`) that also
gives every term node's global ids and each global id's image in the
root apex.  One post-order pass over those nodes then builds each
decomposition node over its term node's image, a part of that apex: a
leaf's part is read off its global ids, an inner node's is the union of
its two children's parts (`_read_back`, for trees and branches), and a
path suffix's is its tail's part with its leaf's vertices and edges
added.  The tree and path bounds are checked against widths taken on
the way; `m_to_bdec` validates its result, which gives its width.
`check_theorems` validates the tree and path decompositions it certifies
with.

Every part made here is made by `Graph._part`, which checks nothing, so
each one's edge ends lie within its vertices by construction: the glued
term places them so for the parts read off a term (leaves, unions and
path suffixes), `_push` maps the parts of a decomposition that
`epi_to_dec_tree` has validated through a validated morphism,
`_tree_term` and `_path_term` cut their bag parts after validating
clauses vi and iv, and a branch leaf's edge part is built on that edge's
own ends.

The decomposition -> term directions make right-tree and path terms by
construction (each composition they make has a leaf on its left), so
only their widths are checked.  One function pushes a recursive tree or path
decomposition through an epimorphism (`epi_to_dec_tree`, also named
`epi_to_dec_path`).

The bounds are hard postconditions (BoundViolation on failure).  The
branch upper bound carries a floor of one because a term for a graph with
a real edge always contains a two-vertex apex, whatever the decomposition
width says; single-edge graphs with no sources meet that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

from . import cospan as cs
from . import oracles
from . import terms as tm
from .cospan import Cospan
from .decomp import (
    BoundViolation,
    RecBranchDec,
    RecBranchEmpty,
    RecBranchLeaf,
    RecBranchNode,
    RecPathCons,
    RecPathDec,
    RecPathEmpty,
    RecTreeDec,
    RecTreeEmpty,
    RecTreeNode,
    REC_PATH_EMPTY,
    REC_TREE_EMPTY,
    branch_dec_width,
    branch_from_recursive,
    branch_to_recursive,
    path_dec_width,
    path_from_recursive,
    path_to_recursive,
    rec_branch_width,
    rec_path_width,
    rec_tree_width,
    tree_dec_width,
    tree_from_recursive,
    tree_to_recursive,
    validate_branch_dec,
    validate_path_dec,
    validate_rec_branch_dec,
    validate_rec_path_dec,
    validate_rec_tree_dec,
    validate_tree_dec,
    _EMPTY_NODES,
    _bags,
    _branch_clauses,
    _branch_split,
    _children,
    _pre_order,
    _source_root,
    _validate_rec,
)
from .graph import (
    FiniteMap,
    Graph,
    GraphMorphism,
    SourcedGraph,
    is_epimorphism,
)
from .terms import Compose, DecompTree, Leaf, Signature, Tensor


class TranslationError(ValueError):
    """Input outside a translation's stated precondition."""


# ---------------------------------------------------------------------------
# Epimorphisms induced by composition, and nodes built through apex maps.


@dataclass
class EpiWitness:
    """Surjections of the two composed apexes onto subgraphs of the composite."""

    composite: Cospan
    alpha1: GraphMorphism
    alpha2: GraphMorphism


def epis_from_composition(g1: Cospan, g2: Cospan) -> EpiWitness:
    """Quotient maps of a composition, restricted onto their images.

    Each map identifies two distinct vertices only when both lie in the
    image of the inner boundary leg: the pushout glues only `g1.right[p]`
    to `g2.left[p]`.
    """
    composite, m1, m2 = cs.compose_with_maps(g1, g2)
    return EpiWitness(composite, *(GraphMorphism(m.domain, m.image_subgraph(), m.vmap, m.emap)
                                   for m in (m1, m2)))


def _first_bad_pair(mapping: dict, ok) -> Optional[tuple]:
    """First pair of keys with one image, in ascending order, failing `ok`."""
    classes: dict = {}
    for v in sorted(mapping):
        classes.setdefault(mapping[v], []).append(v)
    for group in classes.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if not ok(group[i], group[j]):
                    return group[i], group[j]
    return None


def epi_to_dec_tree(alpha: GraphMorphism, t: RecTreeDec | RecPathDec):
    """Push a recursive tree or path decomposition through a graph
    epimorphism; `epi_to_dec_path` is the same function.

    `t` must be a valid decomposition of the morphism's domain
    (DecompositionError names the first failed clause).  Identified
    vertices must share some bag; the width never increases.
    """
    if isinstance(t, _EMPTY_NODES):
        return t
    if alpha.domain != t.graph.graph:
        raise TranslationError("the morphism domain is not the decomposed graph")
    (rec_path_width if isinstance(t, RecPathCons) else rec_tree_width)(t)
    if not is_epimorphism(alpha):
        raise TranslationError("the morphism is not an epimorphism")
    bags = _bags(t)
    bad = _first_bad_pair(alpha.vmap, lambda v, w: any(v in b and w in b for b in bags))
    if bad is not None:
        raise TranslationError(f"identified vertices {bad[0]} and {bad[1]} share no bag")
    return _push(t, alpha.vmap, alpha.emap, alpha.codomain)


epi_to_dec_path = epi_to_dec_tree


def _push(t, vmap: dict, emap: dict, target: Graph):
    """Rebuild a validated recursive tree or path decomposition over
    `target` through the vertex and edge maps, which respect edge ends:
    each node decomposes the image of its own graph, a part of `target`,
    with the images of its bag and sources."""
    done: list = []  # the images of the finished subtrees, the leftmost last
    for node in reversed(_pre_order(t)):
        if not isinstance(node, _EMPTY_NODES):
            g = node.graph
            kids = [done.pop() for _ in _children(node)]
            image = target._part(frozenset([vmap[v] for v in g.vertices]),
                                 [emap[e] for e in g.edges])
            node = type(node)(SourcedGraph(image, {vmap[v] for v in g.sources}),
                              {vmap[v] for v in node.bag}, *kids)
        done.append(node)
    return done[0]


def _glue_closed(d: DecompTree, sig: Signature, shaped, shape: str) -> tm._Glued:
    """`terms._glue` of the `shape`d term `d`, which must have an empty
    right boundary."""
    if not shaped(d):
        raise TranslationError(f"the term is not {shape} shaped")
    glued = tm._glue(d, sig)
    if glued.value.right_arity != 0:
        raise TranslationError("the term's right boundary is not empty")
    return glued


def _read_back(glued: tm._Glued, whole: Graph, at: Sequence, leaf: Callable, join: Callable):
    """The decomposition read off a term's `terms._glue` in one post-order
    pass over its nodes.  Each node is built over its term node's part of
    `whole` with the images of its ports as sources, the image of global
    vertex id v being `at[v]`: by `leaf(sg)` for a leaf, whose part is read
    off its global ids, and by `join(term, sg, t1, t2)` over its children's
    decompositions for an inner node, whose part is the union of theirs."""
    edge = glued.edge
    done: list = []  # decompositions of the finished subterms, innermost last
    for n in glued.nodes:
        sources = [at[v] for v in n.left + n.right]
        if isinstance(n.term, Leaf):
            part = whole._part(frozenset([at[v] for v in n.vertices]), [edge[e] for e in n.edges])
            done.append(leaf(SourcedGraph(part, sources)))
            continue
        t1, t2 = done[-2:]
        del done[-2:]
        # each child's root holds its term node's part: this one's is their union
        g1, g2 = t1.graph.graph, t2.graph.graph
        part = whole._part(g1.vertices | g2.vertices, g1.edges | g2.edges)
        done.append(join(n.term, SourcedGraph(part, sources), t1, t2))
    return done[0]


# ---------------------------------------------------------------------------
# The copy lemma.


def copy_mdec(d: DecompTree, sig: Signature, y: int, xs: Sequence[int],
              z: int) -> DecompTree:
    """Decompose the copy-and-feed composite around a term for f.

    Given d decomposing f : y + x1 + .. + xn + z -> w, returns a term for
    the morphism that copies the middle block, swaps one copy past z, and
    feeds the original into f.  Width is bounded by
    max(width(d), y + z + (n+1) * max(xs)).
    """
    xs = list(xs)
    base_width = tm.width(d, sig)
    result = _copy_rec(d, sig, y, xs, z)
    bound = base_width if not xs else max(
        base_width, y + z + (len(xs) + 1) * max(xs))
    got = tm.width(result, sig)
    if got > bound:
        raise BoundViolation(f"copy construction width {got} exceeds bound {bound}")
    return result


def _peel(sig: Signature, head: DecompTree, x: int, z: int) -> DecompTree:
    """`head`, doubling x wires, then its second copy swapped past z wires."""
    if z == 0:
        return head
    return Compose(Tensor(head, sig.leaf_identity(z)), 2 * x + z,
                   Tensor(sig.leaf_identity(x), sig.leaf_swap(x, z)))


def _copy_rec(d: DecompTree, sig: Signature, y: int, xs: list, z: int) -> DecompTree:
    if not xs:
        return d
    x = xs[-1]
    inner = _copy_rec(d, sig, y, xs[:-1], x + z)
    xbar = sum(xs[:-1])
    layer = Tensor(sig.leaf_identity(y + xbar), _peel(sig, sig.leaf_copy(x), x, z))
    return Compose(layer, y + xbar + x + z + x, Tensor(inner, sig.leaf_identity(x)))


# ---------------------------------------------------------------------------
# Helpers shared by the graph -> term translations.


def _perm_into(sig: Signature, outer: Sequence, inner: Sequence,
               tree: DecompTree) -> DecompTree:
    """Precompose a permutation so the domain reads `outer` instead of
    `inner`, which must hold the same ports.  Its callers in `_branch_term`
    run on a validated decomposition, where branch clauses ii and iii make
    each pair the same set: a child's sources, or at the root
    (x1 - x2) | (x1 & x2 & x) | (x2 - x1) = x."""
    outer, inner = list(outer), list(inner)
    if outer == inner:
        return tree
    perm = tuple(inner.index(v) for v in outer)
    return Compose(sig.leaf_permutation(perm), len(perm), tree)


def _vertex_factor(sig: Signature, v: int, sources: frozenset) -> tuple[DecompTree, list]:
    ports = [v] if v in sources else []
    c = cs.wiring(1, [0] * len(ports), [])
    return sig.leaf(c), ports


def _built_width(sig: Signature, cut: int) -> int:
    """The width of a term made by `_tree_term`, `_path_term` or
    `_branch_term` over the fresh signature `sig`, whose atoms are all
    leaves of the term, given the largest cut of its compositions."""
    return max(cut, max(a.weight for a in sig.atoms.values()))


def _tensor_comb(factors: list) -> tuple[DecompTree, list]:
    """Right comb of one or more (tree, ports) factors; concatenates the port lists."""
    tree, ports = factors[-1]
    for t, p in reversed(factors[:-1]):
        tree = Tensor(t, tree)
        ports = p + ports
    return tree, ports


# ---------------------------------------------------------------------------
# Tree decompositions <-> right-tree terms.


def t_to_mdec(t: RecTreeDec, sg: SourcedGraph) -> tuple[DecompTree, Signature]:
    """Right-tree term for the cospan of a recursive tree decomposition.

    The term width is at most twice the decomposition width.
    """
    return _tree_term(t, sg)[:2]


def _tree_term(t: RecTreeDec, sg: SourcedGraph) -> tuple[DecompTree, Signature, int]:
    """`t_to_mdec`, and the width of its term, built in one loop over an
    explicit stack: a node's atoms are made before its children's, the
    left subtree's first."""
    bound = 2 * rec_tree_width(t, sg)
    sig = Signature()
    done: list = []  # terms of the finished subtrees, the rightmost last
    widest = 0  # the largest cut of the compositions made so far
    todo: list = [(t, sg)]  # (node, its graph) to enter, or (h, cut, b, cut) to join
    while todo:
        task = todo.pop()
        if len(task) == 4:  # both children are done: join them under h and b
            h, cut_h, b, cut_b = task
            d2, d1 = done.pop(), done.pop()
            done.append(Compose(h, cut_h, Compose(b, cut_b, Tensor(d1, d2))))
            widest = max(widest, cut_h, cut_b)
            continue
        t, sg = task
        if isinstance(t, RecTreeEmpty):
            done.append(sig.leaf(cs.identity(0)))
            continue
        g, x = sg.graph, sg.sources
        if isinstance(t.left, RecTreeEmpty) and isinstance(t.right, RecTreeEmpty):
            done.append(sig.leaf(cs.from_sourced(sg)))
            continue
        g1, g2 = t.left.graph, t.right.graph
        x1, x2 = g1.sources, g2.sources
        hub = g._part(t.bag, g.edges - (g1.edges | g2.edges))
        # boundary blocks in ascending id order: only-left, shared, only-right
        blocks = sorted(x1 - x2) + sorted(x1 & x2) + sorted(x2 - x1)
        h = sig.leaf(Cospan(hub, tuple(sorted(x)), tuple(blocks)))
        b_right = [(0, v) for v in sorted(x1)] + [(1, v) for v in sorted(x2)]
        apex = Graph.discrete(blocks)
        b = sig.leaf(Cospan(apex, tuple(blocks), tuple(v for _, v in b_right)))
        todo += (h, len(blocks), b, len(x1) + len(x2)), (t.right, g2), (t.left, g1)
    got = _built_width(sig, widest)
    if got > bound:
        raise BoundViolation(f"tree-to-term width {got} exceeds 2*{bound // 2}")
    return done[0], sig, got


def m_to_tdec(d: DecompTree, sig: Signature) -> RecTreeDec:
    """Recursive tree decomposition read off a right-tree term.

    The term must have an empty right boundary; the result decomposes
    (apex, image of the left leg) with width <= max(term width, image size).
    Each node is built by `_read_back` over its term node's image in the
    apex.  A leaf's node has one bag, its whole part; an inner node's bag
    is the image of its left boundary, and a composition's adds the cut.
    """
    glued = _glue_closed(d, sig, tm.is_right_tree, "right-tree")
    widest = 0  # the largest bag built

    def node(sg: SourcedGraph, bag: frozenset, *kids: RecTreeDec) -> RecTreeDec:
        nonlocal widest
        widest = max(widest, len(bag))
        return RecTreeNode(sg, bag, *kids)

    # only the left factor of a composition, a leaf, has right ports in a
    # closed right tree: so every other node's sources are its left
    # boundary's image, and that leaf's add the cut, which its parent's bag
    # takes from them
    def leaf(sg: SourcedGraph) -> RecTreeDec:
        if not sg.vertices:
            return REC_TREE_EMPTY
        return node(sg, sg.vertices, REC_TREE_EMPTY, REC_TREE_EMPTY)

    def join(term, sg: SourcedGraph, t1: RecTreeDec, t2: RecTreeDec) -> RecTreeDec:
        return node(sg, sg.sources | t1.graph.sources if isinstance(term, Compose)
                    else sg.sources, t1, t2)

    t = _read_back(glued, glued.value.apex, glued.vertex, leaf, join)
    return _within(t, widest, max(glued.width, len(glued.value.left_image())), "tree")


def _within(t, got: int, bound: int, what: str):
    """`t`, a term's decomposition of width `got`, after checking that
    against `bound`."""
    if got > bound:
        raise BoundViolation(f"term-to-{what} width {got} exceeds {bound}")
    return t


# ---------------------------------------------------------------------------
# Path decompositions <-> path terms.


def p_to_mdec(t: RecPathDec, sg: SourcedGraph) -> tuple[DecompTree, Signature]:
    """Path term for the cospan of a recursive path decomposition; the
    width is preserved exactly."""
    return _path_term(t, sg)[:2]


def _path_term(t: RecPathDec, sg: SourcedGraph) -> tuple[DecompTree, Signature, int]:
    """`p_to_mdec`, and the width of its term: one leaf per node, in chain
    order, composed from the last back."""
    want = rec_path_width(t, sg)
    sig = Signature()
    heads: list = []  # (leaf, cut) of every node with a non-empty tail
    while not isinstance(t, RecPathEmpty) and not isinstance(t.tail, RecPathEmpty):
        g, x = sg.graph, sg.sources
        gp = t.tail.graph
        xp = gp.sources
        g1 = g._part(t.bag, g.edges - gp.edges)
        heads.append((sig.leaf(Cospan(g1, tuple(sorted(x)), tuple(sorted(xp)))), len(xp)))
        t, sg = t.tail, gp
    last = cs.identity(0) if isinstance(t, RecPathEmpty) else cs.from_sourced(sg)
    term = sig.leaf(last)
    widest = 0
    for head, cut in reversed(heads):
        term = Compose(head, cut, term)
        widest = max(widest, cut)
    got = _built_width(sig, widest)
    if got != want:
        raise BoundViolation(f"path-to-term width {got} differs from {want}")
    return term, sig, got


def m_to_pdec(d: DecompTree, sig: Signature) -> RecPathDec:
    """Recursive path decomposition read off a composition-only term.

    Node i is the part of the root apex covered by leaves i, i+1, ..., with
    leaf i's image as its bag: its tail's part with leaf i's vertices and
    edges added.  The apex and each leaf's image in it do not depend on how
    the term is associated.  Width never increases.
    """
    glued = _glue_closed(d, sig, tm.is_path, "path")
    target, vertex, edge = glued.value.apex, glued.vertex, glued.edge
    leaves = [n for n in glued.nodes if isinstance(n.term, Leaf)]
    t, part, widest = REC_PATH_EMPTY, REC_PATH_EMPTY.graph.graph, 0
    for i, n in enumerate(reversed(leaves)):
        bag = frozenset([vertex[v] for v in n.vertices])
        part = target._part(part.vertices | bag, chain(part.edges, [edge[e] for e in n.edges]))
        if bag or i:  # only an empty last leaf leaves the tail empty
            t = RecPathCons(SourcedGraph(part, {vertex[v] for v in n.left}), bag, t)
            widest = max(widest, len(bag))
    return _within(t, widest, glued.width, "path")


# ---------------------------------------------------------------------------
# Branch decompositions -> terms.


def b_to_mdec(t: RecBranchDec, sg: SourcedGraph) -> tuple[DecompTree, Signature]:
    """Term for the cospan of a recursive branch decomposition.

    Width is at most max(decomposition width, 1) + 1.  The floor of one is
    forced: any term for a graph containing a proper edge has width at
    least two, no matter how cheap the decomposition is.
    """
    return _branch_term(t, sg)[:2]


def _branch_term(t: RecBranchDec, sg: SourcedGraph) -> tuple[DecompTree, Signature, int]:
    """`b_to_mdec`, and the width of its term, built in one loop over an
    explicit stack: a binary node's atoms are made after both children's,
    the left subtree's first.  Each subterm comes with its domain port
    order, a permutation of its sources."""
    bound = max(rec_branch_width(t, sg), 1) + 1
    sig, sources = Signature(), sorted(sg.sources)
    done: list = []  # (term, ports) of the finished subtrees, the rightmost last
    # the largest cut of the compositions made so far but those of
    # `_perm_into`, which are their own atom's weight
    widest = 0
    todo: list = [(t, sg, False)]  # (node, its graph, whether its children are done)
    while todo:
        t, sg, joined = todo.pop()
        g, x = sg.graph, sg.sources
        if isinstance(t, RecBranchEmpty):
            vs = sorted(g.vertices)
            done.append(_tensor_comb([_vertex_factor(sig, v, x) for v in vs]) if vs
                        else (sig.leaf(cs.identity(0)), []))
            continue
        if isinstance(t, RecBranchLeaf):
            e = min(g.edges)
            epart = g._part(g.ends(e), (e,))
            esources = sorted(x & epart.vertices)
            factors = [(sig.leaf(Cospan(epart, tuple(esources), ())), esources)]
            for v in sorted(g.vertices - epart.vertices):
                factors.append(_vertex_factor(sig, v, x))
            factors.sort(key=lambda f: min(f[1], default=math.inf))
            done.append(_tensor_comb(factors))
            continue
        g1, g2 = t.left.graph, t.right.graph
        if not joined:
            todo += (t, sg, True), (t.right, g2, False), (t.left, g1, False)
            continue
        x1, x2 = g1.sources, g2.sources
        (d2, ports2), (d1, ports1) = done.pop(), done.pop()
        y_block = sorted(x1 - x2)
        shared = sorted(x1 & x2)
        z_block = sorted(x2 - x1)
        # gamma chain: feed x1 into the left term while copying the shared
        # wires; created wires (shared but not a source) start at a spider
        inner = _perm_into(sig, y_block + shared, ports1, d1)
        existing = [v in x for v in shared]
        for k in range(1, len(shared) + 1):
            a_k = len(y_block) + sum(existing[:k - 1])
            zk = len(shared) - k
            head = sig.leaf_copy(1) if existing[k - 1] else sig.leaf_spider(0, 2)
            peel = _peel(sig, head, 1, zk)
            layer = Tensor(sig.leaf_identity(a_k), peel) if a_k else peel
            inner = Compose(layer, a_k + 2 + zk, Tensor(inner, sig.leaf_identity(1)))
            widest = max(widest, a_k + 2 + zk)  # the peel's cut, 2 + zk, is no larger
        gamma_ports = y_block + [v for v, ex in zip(shared, existing) if ex]
        if z_block:
            assembled = Tensor(inner, sig.leaf_identity(len(z_block)))
        else:
            assembled = inner
        d2w = _perm_into(sig, shared + z_block, ports2, d2)
        done.append((Compose(assembled, len(x2), d2w), gamma_ports + z_block))
        widest = max(widest, len(x2))
    (tree, ports), = done
    tree = _perm_into(sig, sources, ports, tree)
    got = _built_width(sig, widest)
    if got > bound:
        raise BoundViolation(f"branch-to-term width {got} exceeds {bound}")
    return tree, sig, got


# ---------------------------------------------------------------------------
# Terms -> branch decompositions via a glue map.


def check_glueing(h: Cospan, phi: FiniteMap) -> Optional[tuple]:
    """First vertex pair violating the glueing property, or None."""
    boundary = h.left_image() | h.right_image()
    return _first_bad_pair(phi.mapping, lambda v, w: v in boundary and w in boundary)


def m_to_bdec(d: DecompTree, sig: Signature,
              phi: Optional[FiniteMap] = None) -> RecBranchDec:
    """Recursive branch decomposition read off any term, through a glue map.

    `phi` tells which apex vertices are destined to be identified later;
    it may merge vertices only inside the boundary images (the glueing
    property).  Width is at most twice max(term width, boundary arities).
    Each node decomposes the image through `phi` of its term node's image
    in the apex, built by `_read_back`, as the image of a union is the
    union of the images: a leaf's node is a comb of its edges.  The result
    is validated before its width is checked.
    """
    glued = tm._glue(d, sig)
    h = glued.value
    if phi is None:
        phi = FiniteMap({v: v for v in h.apex.vertices}, h.apex.vertices)
    if phi.domain != h.apex.vertices:
        raise TranslationError("the glue map domain must be the apex vertices")
    bad = check_glueing(h, phi)
    if bad is not None:
        raise TranslationError(
            f"glue map identifies {bad[0]} and {bad[1]} outside the boundary")
    # the apex through `phi`, whose end table every node's part shares
    pushed = phi.mapping
    whole = Graph([pushed[v] for v in h.apex.vertices],
                  {e: [pushed[v] for v in pts] for e, pts in h.apex._ends.items()})

    def join(term, sg: SourcedGraph, t1: RecBranchDec, t2: RecBranchDec) -> RecBranchDec:
        if isinstance(t1, RecBranchEmpty) and isinstance(t2, RecBranchEmpty):
            return RecBranchEmpty(sg)
        return RecBranchNode(sg, t1, t2)

    t = _read_back(glued, whole, [pushed[v] for v in glued.vertex], _left_comb_branch, join)
    check, got = _validate_rec(t, SourcedGraph(whole, [pushed[v] for v in h.left + h.right]),
                               _branch_clauses)
    if not check:
        raise BoundViolation(f"term-to-branch output invalid "
                             f"(clause {check.clause}): {check.message}")
    return _within(t, got, 2 * max(glued.width, h.left_arity, h.right_arity), "branch")


def _left_comb_branch(sg: SourcedGraph) -> RecBranchDec:
    """Any valid recursive branch decomposition: split edges off one at a
    time in ascending id order; isolated vertices stay with the tail."""
    splits: list = []  # (graph, its first edge's part) down the comb
    while len(sg.edges) > 1:
        g1, g2 = _branch_split(sg, frozenset({min(sg.edges)}))
        splits.append((sg, g1))
        sg = g2
    t = RecBranchLeaf(sg) if sg.edges else RecBranchEmpty(sg)
    for whole, first in reversed(splits):
        t = RecBranchNode(whole, RecBranchLeaf(first), t)
    return t


# ---------------------------------------------------------------------------
# The decomposition kinds.


class _Kind(NamedTuple):
    """What the CLI, theorem checks and search seeds use of one kind."""

    validate: Callable  # (classic, graph) -> Check
    rec_validate: Callable  # (recursive, graph with sources) -> Check
    width: Callable  # (classic, graph) -> int
    rec_width: Callable  # recursive -> int
    to_rec: Callable  # (classic, graph with sources) -> recursive
    from_rec: Callable  # recursive -> classic
    term: Callable  # (recursive, graph with sources) -> (term, signature, its width)
    from_term: Callable  # (term, signature) -> recursive
    oracle: Callable  # graph -> (width, classic witness)


_KINDS = {
    "tree": _Kind(validate_tree_dec, validate_rec_tree_dec, tree_dec_width, rec_tree_width,
                  lambda dec, sg: tree_to_recursive(dec, sg, _source_root(dec, sg)),
                  tree_from_recursive, _tree_term, m_to_tdec, oracles.exact_treewidth),
    "path": _Kind(validate_path_dec, validate_rec_path_dec, path_dec_width, rec_path_width,
                  path_to_recursive, path_from_recursive,
                  _path_term, m_to_pdec, oracles.exact_pathwidth),
    "branch": _Kind(validate_branch_dec, validate_rec_branch_dec, branch_dec_width,
                    rec_branch_width, branch_to_recursive,
                    branch_from_recursive, _branch_term, m_to_bdec,
                    oracles.exact_branchwidth),
}


def _optimal(kind: str, sg: SourcedGraph) -> tuple[int, DecompTree, Signature, int]:
    """Exact `kind` width of `sg`'s graph, the term of its oracle's witness
    and that term's width."""
    k = _KINDS[kind]
    w, dec = k.oracle(sg.graph)
    return (w, *k.term(k.to_rec(dec, sg), sg))


# ---------------------------------------------------------------------------
# Theorem checks.


@dataclass
class TheoremCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class TheoremReport:
    """Exact widths, certified bounds, and pass/fail per sandwich theorem."""

    tw: int
    pw: int
    bw: int
    mtwd_upper: int
    mtwd_lower_cert: int
    mpwd: int
    mwd_upper: int
    mwd_search: int
    mwd_lower_cert: int
    checks: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    mwd_search_exact: bool = False  # the shape="any" search exhausted its space

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def mwd_interval(self) -> tuple[int, int]:
        lo = max(0, math.ceil(self.bw / 2))
        hi = max(self.bw + 1, self.mwd_upper) if self.bw or self.mwd_upper else 0
        return lo, hi

    def mtwd_interval(self) -> tuple[int, int]:
        return self.tw, 2 * self.tw

    def to_json(self) -> dict:
        return {
            "widths": {"tw": self.tw, "pw": self.pw, "bw": self.bw},
            "bounds": {
                "mtwd": list(self.mtwd_interval()),
                "mtwd_achieved": self.mtwd_upper,
                "mtwd_lower_cert": self.mtwd_lower_cert,
                "mpwd": self.mpwd,
                "mwd": list(self.mwd_interval()),
                "mwd_achieved": self.mwd_upper,
                "mwd_search": self.mwd_search,
                "mwd_search_exact": self.mwd_search_exact,
                "mwd_lower_cert": self.mwd_lower_cert,
            },
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "witnesses": self.witnesses,
        }

    def summary(self) -> str:
        mwd_lo, mwd_hi = self.mwd_interval()
        t_lo, t_hi = self.mtwd_interval()
        return (f"tw={self.tw} pw={self.pw} bw={self.bw} "
                f"mwd∈[{mwd_lo},{mwd_hi}] "
                f"mtwd∈[{t_lo},{t_hi}] mpwd={self.mpwd}")


def check_theorems(g: Graph, budget: int = 4000) -> TheoremReport:
    """Verify the three width correspondences on one graph.

    Widths and upper bounds come from `_optimal` for each kind; lower
    bounds from translating the best searched terms back into
    decompositions, the certificates.  Each certificate is validated
    against the graph its root records: the tree and path ones by
    `rec_tree_width` and `rec_path_width`, which give their widths and
    raise DecompositionError on an invalid one, the branch one by
    `m_to_bdec`, which raises BoundViolation.

    ``branch-upper`` tests the literal ``mwd_upper <= bw + 1``.  It
    therefore fails on graphs of branch width 0 that have a proper
    (non-loop) edge, such as a single edge or a matching: every term for
    them has width at least 2, and the bound that ``b_to_mdec`` guarantees
    is ``max(bw, 1) + 1``.  Its detail then names that guaranteed bound,
    which tells this gap from a broken sandwich.
    """
    sg = SourcedGraph(g)
    tw, term_t, sig_t, mtwd_upper = _optimal("tree", sg)
    pw, term_p, sig_p, width_p = _optimal("path", sg)
    bw, term_b, sig_b, mwd_upper = _optimal("branch", sg)
    closed = cs.of_graph(g)
    checks: list = []
    witnesses: dict = {}

    # tree sandwich: tw <= mtwd <= 2 tw
    witnesses["tree_term"] = tm.tree_to_json(term_t)
    cert_t = m_to_tdec(term_t, sig_t)
    mtwd_lower_cert = rec_tree_width(cert_t)
    checks.append(TheoremCheck(
        "tree-upper", mtwd_upper <= 2 * tw, f"mtwd_upper={mtwd_upper} vs 2*tw={2 * tw}"))
    checks.append(TheoremCheck(
        "tree-lower", tw <= mtwd_lower_cert,
        f"tw={tw} vs certified decomposition width {mtwd_lower_cert}"))

    # path equality: mpwd == pw
    searched_p = tm.bounded_mwd_search(closed, shape="path", budget=budget,
                                       seed_translations=False)
    mpwd = min(width_p, searched_p.width)
    witnesses["path_term"] = tm.tree_to_json(term_p)
    best_p = (term_p, sig_p) if width_p <= searched_p.width \
        else (searched_p.tree, searched_p.signature)
    cert_p_width = rec_path_width(m_to_pdec(*best_p))
    checks.append(TheoremCheck(
        "path-equality", mpwd == pw, f"min path-term width {mpwd} vs pw={pw}"))
    checks.append(TheoremCheck(
        "path-lower-cert", pw <= cert_p_width,
        f"pw={pw} vs certified decomposition width {cert_p_width}"))

    # branch sandwich: bw/2 <= mwd <= bw + 1.  branch-upper checks the
    # literal bw + 1, so it fails at bw = 0 with a proper edge, where the
    # guaranteed bound is max(bw, 1) + 1
    witnesses["branch_term"] = tm.tree_to_json(term_b)
    searched = tm.bounded_mwd_search(closed, shape="any", budget=budget,
                                     seed_translations=False)
    if mwd_upper < searched.width:
        best = tm.SearchResult(term_b, sig_b, mwd_upper, searched.exact)
    else:
        best = searched
    # the certificate decomposes the evaluated apex, an isomorphic copy of g
    cert_b = m_to_bdec(best.tree, best.signature)
    cert_graph = cert_b.graph.graph
    cert_classic = branch_from_recursive(cert_b)
    cert_width = branch_dec_width(cert_classic, cert_graph)
    upper_detail = f"mwd_upper={mwd_upper} vs bw+1={bw + 1}"
    if bw == 0 and any(len(g.ends(e)) == 2 for e in g.edges):
        upper_detail += f" (bw=0 floor: guaranteed max(bw,1)+1={max(bw, 1) + 1})"
    checks.append(TheoremCheck("branch-upper", mwd_upper <= bw + 1, upper_detail))
    checks.append(TheoremCheck(
        "branch-lower", bw <= 2 * best.width,
        f"bw={bw} vs 2*searched width {2 * best.width} "
        f"(certificate width {cert_width})"))
    return TheoremReport(tw, pw, bw, mtwd_upper, mtwd_lower_cert, mpwd,
                         mwd_upper, best.width, cert_width, checks, witnesses,
                         mwd_search_exact=searched.exact)
