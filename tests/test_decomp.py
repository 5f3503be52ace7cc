import dataclasses
import json
import random

import pytest

from conftest import all_tree_decs, deep_right_tree_term, k, path_graph, random_graph
from mwidth import (
    BranchDec,
    Check,
    DecompositionError,
    Graph,
    GraphError,
    PathDec,
    RecBranchEmpty,
    RecBranchLeaf,
    RecBranchDec,
    RecBranchNode,
    RecPathCons,
    RecPathDec,
    RecTreeDec,
    RecTreeNode,
    REC_BRANCH_EMPTY,
    REC_PATH_EMPTY,
    REC_TREE_EMPTY,
    Signature,
    SourcedGraph,
    TreeDec,
    boundary_global,
    branch_dec_width,
    branch_from_recursive,
    branch_to_recursive,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
    edge_order,
    m_to_bdec,
    m_to_tdec,
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
)
from mwidth import cospan as cs
from mwidth.decomp import _bags, rec_branch_subtree
from mwidth.oracles import _leaf_trees, exact_branchwidth
from mwidth.terms import Tensor


def fig_style_graph_and_dec():
    # triangle a,b,c with a tail c-d-e; one bag of size three
    g = Graph.from_edge_pairs(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    shape = path_graph(3)
    dec = TreeDec(shape, {0: {0, 1, 2}, 1: {2, 3}, 2: {3, 4}})
    return g, dec


def test_fig_style_tree_dec_width_three():
    g, dec = fig_style_graph_and_dec()
    assert validate_tree_dec(dec, g)
    assert tree_dec_width(dec, g) == 3


def test_tree_dec_clause_diagnostics():
    g, dec = fig_style_graph_and_dec()
    missing_vertex = TreeDec(dec.shape, {0: {0, 1, 2}, 1: {2, 3}, 2: {3}})
    assert validate_tree_dec(missing_vertex, g).clause == "1"
    missing_edge = TreeDec(dec.shape, {0: {0, 1}, 1: {1, 2, 3}, 2: {3, 4}})
    chk = validate_tree_dec(missing_edge, g)
    assert chk.clause == "2" and "edge" in chk.message
    disconnected_host = TreeDec(dec.shape, {0: {0, 1, 2}, 1: {3}, 2: {2, 3, 4}})
    assert validate_tree_dec(disconnected_host, g).clause == "3"
    not_tree = TreeDec(Graph.from_edge_pairs(range(3), [(0, 1), (1, 2), (0, 2)]),
                       {0: {0, 1, 2, 3, 4}, 1: {0}, 2: {0}})
    assert validate_tree_dec(not_tree, g).clause == "shape"
    # |E| = |V| - 1 but disconnected, a loop, parallel edges, and no node at all
    for shape in (Graph.from_edge_pairs(range(4), [(0, 1), (1, 2), (0, 2)]),
                  Graph.from_edge_pairs(range(1), [(0, 0)]),
                  Graph.from_edge_pairs(range(3), [(0, 1), (0, 1)]),
                  Graph.empty()):
        bags = {i: set(g.vertices) for i in shape.vertices}
        chk = validate_tree_dec(TreeDec(shape, bags), g)
        assert (chk.clause, chk.message) == ("shape", "decomposition shape is not a tree")
    with pytest.raises(DecompositionError):
        tree_dec_width(missing_edge, g)


def test_path_dec_clauses():
    g = path_graph(4)
    good = PathDec([{0, 1}, {1, 2}, {2, 3}])
    assert validate_path_dec(good, g)
    assert path_dec_width(good, g) == 2
    assert validate_path_dec(PathDec([{0, 1}, {2, 3}]), g).clause == "2"
    assert validate_path_dec(PathDec([{0, 1}, {1, 2}]), g).clause == "1"
    assert validate_path_dec(PathDec([{0, 1}, {1, 2}, {0, 2, 3}]), g).clause == "3"


def test_validators_agree_with_enumerated_corpus():
    # everything the clause-driven enumerators produce passes the literal
    # validator, and mutated bags fail it
    rng = random.Random(4)
    for g in (path_graph(3), k(3)):
        decs = list(all_tree_decs(g))
        assert decs
        for dec in decs[:200]:
            assert validate_tree_dec(dec, g)
        for dec in rng.sample(decs, min(30, len(decs))):
            bags = dec.bag_map()
            i = rng.choice(sorted(bags))
            smaller = dict(bags)
            smaller[i] = frozenset()
            mutated = TreeDec(dec.shape, smaller)
            chk = validate_tree_dec(mutated, g)
            if chk:
                assert tree_dec_width(mutated, g) <= tree_dec_width(dec, g)


def test_branch_dec_validation_and_orders(k3):
    bd = BranchDec(path_graph(2), {0: 0, 1: 1})
    p3 = path_graph(3)
    assert validate_branch_dec(bd, p3)
    assert edge_order(bd, p3, 0) == 1  # the shared middle vertex
    assert branch_dec_width(bd, p3) == 1
    star = Graph.from_edge_pairs(range(4), [(0, 1), (0, 2), (0, 3)])
    bk3 = BranchDec(star, {1: 0, 2: 1, 3: 2})
    assert validate_branch_dec(bk3, k3)
    for e in sorted(star.edges):
        assert edge_order(bk3, k3, e) == 2  # every split of K3 shares two ends
    # wrong bijection
    bad = BranchDec(star, {1: 0, 2: 1, 3: 1})
    assert validate_branch_dec(bad, k3).clause == "bijection"
    # single-edge graph on a one-vertex tree
    k2 = path_graph(2)
    one = BranchDec(Graph.discrete([0]), {0: 0})
    assert validate_branch_dec(one, k2)
    assert branch_dec_width(one, k2) == 0


def test_branch_dec_shape_and_leaf_domain_clauses():
    # an edgeless graph admits only the empty decomposition
    lone = BranchDec(Graph.discrete([0]), {})
    for dec in (lone, BranchDec(Graph.empty(), {0: 0})):
        chk = validate_branch_dec(dec, Graph.discrete([0, 1]))
        assert (chk.clause, chk.message) == (
            "shape", "an edgeless graph admits only the empty decomposition")
    assert validate_branch_dec(BranchDec(Graph.empty(), {}), Graph.discrete([0, 1]))
    # the leaf map misses the tree leaf 1 of P3's two-leaf shape
    chk = validate_branch_dec(BranchDec(path_graph(2), {0: 0}), path_graph(3))
    assert (chk.clause, chk.message) == (
        "bijection", "leaf map domain differs from the tree leaves")


def test_edge_order_pendant_on_k3(k3):
    # a pendant tree edge isolating one leaf of K3: both endpoints shared
    star = Graph.from_edge_pairs(range(4), [(0, 1), (0, 2), (0, 3)])
    bk3 = BranchDec(star, {1: 0, 2: 1, 3: 2})
    pendant = next(e for e in star.edges if 1 in star.ends(e))
    assert edge_order(bk3, k3, pendant) == 2


def test_rec_tree_validators_and_round_trip(p3):
    sg = SourcedGraph(p3, {0})
    dec = TreeDec(path_graph(2), {0: {0, 1}, 1: {1, 2}})
    rec = tree_to_recursive(dec, sg, 0)
    assert validate_rec_tree_dec(rec, sg)
    assert rec_tree_width(rec) == 2 == tree_dec_width(dec, p3)
    back = tree_from_recursive(rec)
    assert validate_tree_dec(back, p3)
    assert tree_dec_width(back, p3) == 2
    # root must contain the sources
    with pytest.raises(DecompositionError):
        tree_to_recursive(dec, SourcedGraph(p3, {2}), 0)
    # single bag becomes a single node with empty children
    single = TreeDec(Graph.discrete([0]), {0: {0, 1, 2}})
    rec1 = tree_to_recursive(single, SourcedGraph(p3), 0)
    assert isinstance(rec1, RecTreeNode)
    assert rec1.left is REC_TREE_EMPTY and rec1.right is REC_TREE_EMPTY
    assert rec1.bag == {0, 1, 2}


def test_rec_path_round_trip(p3):
    dec = PathDec([{0, 1}, {1, 2}])
    sg = SourcedGraph(p3, {0})
    rec = path_to_recursive(dec, sg)
    assert validate_rec_path_dec(rec, sg)
    assert rec_path_width(rec) == 2
    assert path_from_recursive(rec).bags == dec.bags
    one = path_to_recursive(PathDec([{0, 1, 2}]), SourcedGraph(p3))
    assert rec_path_width(one) == 3
    with pytest.raises(DecompositionError):
        path_to_recursive(dec, SourcedGraph(p3, {2}))


def test_branch_round_trip_bounds(k3):
    for sources in (frozenset(), frozenset({0}), frozenset({0, 1, 2})):
        sg = SourcedGraph(k3, sources)
        w, bdec = exact_branchwidth(k3)
        rec = branch_to_recursive(bdec, sg)
        assert validate_rec_branch_dec(rec, sg)
        assert rec_branch_width(rec) <= w + len(sources)
        back = branch_from_recursive(rec)
        assert validate_branch_dec(back, k3)
        assert branch_dec_width(back, k3) <= rec_branch_width(rec)


def test_branch_exhaustive_small(p3):
    # every leaf-labelled tree over every <=3-edge graph round-trips in bound
    for g in (p3, k(3), Graph.from_edge_pairs(range(4), [(0, 1), (2, 3)])):
        edges = sorted(g.edges)
        for shape, table in _leaf_trees(len(edges)):
            dec = BranchDec(shape, {l: edges[i] for l, i in table.items()})
            assert validate_branch_dec(dec, g)
            w = branch_dec_width(dec, g)
            for x in (frozenset(), frozenset({min(g.vertices)})):
                sg = SourcedGraph(g, x)
                rec = branch_to_recursive(dec, sg)
                assert validate_rec_branch_dec(rec, sg)
                assert rec_branch_width(rec) <= w + len(x)
                back = branch_from_recursive(rec)
                assert branch_dec_width(back, g) <= rec_branch_width(rec)


def _largest_edge_order(dec: BranchDec, g: Graph) -> int:
    return max((edge_order(dec, g, e) for e in dec.shape.edges), default=0)


def test_branch_dec_width_is_the_largest_edge_order():
    rng = random.Random(71)
    trees = {m: list(_leaf_trees(m)) for m in range(1, 8)}
    for _ in range(200):
        n = rng.randint(1, 5)
        g = Graph.from_edge_pairs(range(n), [(rng.randrange(n), rng.randrange(n))
                                             for _ in range(rng.randint(1, 7))])
        shape, table = rng.choice(trees[len(g.edges)])
        # fresh node ids move the walk's root; shuffled edges move the leaves
        ids = dict(zip(sorted(shape.vertices), rng.sample(range(40), len(shape.vertices))))
        edges = rng.sample(sorted(g.edges), len(g.edges))
        shape = Graph(ids.values(), {e: {ids[v] for v in shape.ends(e)} for e in shape.edges})
        dec = BranchDec(shape, {ids[leaf]: edges[i] for leaf, i in table.items()})
        assert branch_dec_width(dec, g) == _largest_edge_order(dec, g), (g, dec)
    g = Graph.from_edge_pairs(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
    for shape, table in _leaf_trees(5):
        dec = BranchDec(shape, table)
        assert branch_dec_width(dec, g) == _largest_edge_order(dec, g), dec
    assert branch_dec_width(BranchDec(Graph.empty(), {}), Graph.discrete([0])) == 0


def _branch_paths(t, prefix=()):
    yield prefix
    if isinstance(t, RecBranchNode):
        yield from _branch_paths(t.left, prefix + (0,))
        yield from _branch_paths(t.right, prefix + (1,))


def test_boundary_global_matches_stored():
    rng = random.Random(6)
    seen = 0
    while seen < 25:
        g = random_graph(rng, max_v=5, max_e=5, multigraph=False)
        if not g.edges:
            continue
        seen += 1
        sources = frozenset(v for v in g.vertices if rng.random() < 0.3)
        sg = SourcedGraph(g, sources)
        _, bdec = exact_branchwidth(g)
        rec = branch_to_recursive(bdec, sg)
        assert boundary_global(rec, ()) == sources  # root case
        for path in _branch_paths(rec):
            sub = rec_branch_subtree(rec, path)
            if isinstance(sub, RecBranchEmpty):
                continue
            assert boundary_global(rec, path) == sub.graph.sources, (g, path)


def test_boundary_global_past_a_leaf_or_an_empty_node_and_along_a_generator():
    # K2 plus a source vertex 2 with no edge: a node over a leaf and an empty node
    g = Graph.from_edge_pairs(range(3), [(0, 1)])
    sg = SourcedGraph(g, {2})
    leaf = RecBranchLeaf(SourcedGraph(g.subgraph({0, 1}, {0}), set()))
    empty = RecBranchEmpty(SourcedGraph(g.subgraph({2}, set()), {2}))
    rec = RecBranchNode(sg, leaf, empty)
    assert rec_branch_width(rec) == 1
    for path, step in (((0, 1), 1), ((1, 0), 0)):  # a step past the leaf or the empty node
        for f in (rec_branch_subtree, boundary_global):
            with pytest.raises(GraphError, match=f"^no subtree at path step {step}$"):
                f(rec, path)
    # an empty node has no boundary, although its vertex is a source
    assert boundary_global(rec, (1,)) == frozenset()
    # P3 splits into its two edges, which share vertex 1
    p3 = branch_to_recursive(exact_branchwidth(path_graph(3))[1], SourcedGraph(path_graph(3)))
    assert boundary_global(p3, (step for step in (0,))) == frozenset({1})


def test_an_empty_root_is_validated_against_its_own_graph():
    k2 = SourcedGraph(path_graph(2))
    for sg in (None, k2):  # the graph the root records, by default or given
        with pytest.raises(DecompositionError, match=r"\(clause empty\)"):
            rec_branch_width(RecBranchEmpty(k2), sg)
    assert rec_tree_width(REC_TREE_EMPTY) == rec_path_width(REC_PATH_EMPTY) == 0
    assert rec_branch_width(REC_BRANCH_EMPTY) == 0
    edgeless = SourcedGraph(Graph.discrete([0, 1]), {1})
    assert rec_branch_width(RecBranchEmpty(edgeless)) == 0


def test_a_path_step_other_than_0_or_1_is_refused(p3):
    # P3's recursive branch form: a node over its two edges, which share vertex 1
    rec = branch_to_recursive(exact_branchwidth(p3)[1], SourcedGraph(p3))
    for f in (rec_branch_subtree, boundary_global):
        for step in (5, -1, 2, "x", None):
            with pytest.raises(GraphError) as info:
                f(rec, (step,))
            assert str(info.value) == f"path step {step!r} is neither 0 nor 1"
        # past a leaf, the step is refused as such, whatever it is
        with pytest.raises(GraphError, match="^no subtree at path step 5$"):
            f(rec, (1, 5))
    assert rec_branch_subtree(rec, (1,)) == rec.right
    assert boundary_global(rec, (1,)) == frozenset({1})


def test_path_to_recursive_of_no_bag_or_one_empty_bag():
    for bags in ([], [set()]):
        assert path_to_recursive(PathDec(bags), SourcedGraph(Graph.empty())) is REC_PATH_EMPTY
        # over a vertex, the decomposition fails its clause 1 first
        with pytest.raises(DecompositionError) as info:
            path_to_recursive(PathDec(bags), SourcedGraph(Graph.discrete([0])))
        assert str(info.value) == ("invalid path decomposition (clause 1): "
                                   "vertices [0] are in no bag")


def test_branch_shapes_tree_edges_and_writers_refuse_what_is_not_theirs(k4):
    # a star with four leaves has a node of degree 4
    star = Graph.from_edge_pairs(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    dec = BranchDec(star, {1: 0, 2: 1, 3: 2, 4: 3})
    assert validate_branch_dec(dec, k4) == Check(
        False, "shape", "decomposition shape is not a subcubic tree")
    with pytest.raises(GraphError) as info:
        edge_order(BranchDec(path_graph(2), {0: 0, 1: 1}), path_graph(3), 7)
    assert str(info.value) == "unknown decomposition tree edge 7"
    for write in (decomposition_to_json, decomposition_to_dot):
        for thing in (5, "x", path_graph(2)):
            with pytest.raises(DecompositionError) as info:
                write(thing)
            assert str(info.value) == f"not a decomposition: {thing!r}"


def test_json_round_trips(p3, k3):
    sg = SourcedGraph(k3)
    _, bdec = exact_branchwidth(k3)
    rec_b = branch_to_recursive(bdec, sg)
    dec = TreeDec(path_graph(2), {0: {0, 1}, 1: {1, 2}})
    rec_t = tree_to_recursive(dec, SourcedGraph(p3), 0)
    rec_p = path_to_recursive(PathDec([{0, 1}, {1, 2}]), SourcedGraph(p3))
    for d in (dec, PathDec([{0, 1}, {1, 2}]), bdec, rec_b, rec_t, rec_p):
        blob = json.dumps(decomposition_to_json(d), sort_keys=True)
        assert decomposition_from_json(json.loads(blob)) == d


def test_dot_export(p3):
    dec = TreeDec(path_graph(2), {0: {0, 1}, 1: {1, 2}})
    dot = decomposition_to_dot(dec)
    assert dot.startswith("graph decomposition {") and "{0,1}" in dot
    rec = tree_to_recursive(dec, SourcedGraph(p3), 0)
    assert "--" in decomposition_to_dot(rec)
    _, bdec = exact_branchwidth(p3)
    assert "e0" in decomposition_to_dot(bdec)


# ---------------------------------------------------------------------------
# Every failure clause of the recursive validators, on hand-built bad nodes
# of P3 (vertices 0, 1, 2; edge 0 = {0, 1}, edge 1 = {1, 2}).

_P3 = path_graph(3)


def _sg(vs, es=(), sources=()):
    return SourcedGraph(_P3.subgraph(frozenset(vs), frozenset(es)), sources)


def _tnode(sg, bag, left=REC_TREE_EMPTY, right=REC_TREE_EMPTY):
    return RecTreeNode(sg, bag, left, right)


def _pnode(sg, bag, tail=REC_PATH_EMPTY):
    return RecPathCons(sg, bag, tail)


_ALL = _sg({0, 1, 2}, {0, 1})
_X0 = _sg({0, 1, 2}, {0, 1}, {0})
_ODD = SourcedGraph(Graph.discrete([9]))
_ISO3 = SourcedGraph(Graph.from_edge_pairs(range(4), [(0, 1), (1, 2)]))
# nodes read from JSON, so not parts of P3, over a graph whose edge 0 has
# the ends of P3's edge 1
_MOVED_EDGE = {"v": [0, 1, 2], "e": [[0, 1, 2]], "s": []}
_MOVED_TREE = decomposition_from_json({
    "kind": "rec-tree", "graph": _MOVED_EDGE, "bag": [0, 1, 2],
    "left": {"kind": "rec-tree", "empty": True}, "right": {"kind": "rec-tree", "empty": True}})
_MOVED_PATH = decomposition_from_json({"kind": "rec-path", "graph": _MOVED_EDGE, "bag": [0, 1, 2],
                                       "tail": {"kind": "rec-path", "empty": True}})
_MOVED_LEAF = decomposition_from_json({"kind": "rec-branch", "leaf": True, "graph": _MOVED_EDGE})


REC_TREE_FAILURES = [
    ("empty", REC_TREE_EMPTY, _ALL, "empty decomposition of a non-empty graph"),
    ("type", REC_PATH_EMPTY, _ALL, "not a recursive tree decomposition: RecPathEmpty()"),
    ("graph", _tnode(_ALL, {0, 1, 2}), _X0,
     "node does not decompose the expected graph with sources"),
    ("shape", _tnode(_ALL, {0, 1, 2, 7}), _ALL, "bag contains non-vertices"),
    ("subgraph", _tnode(_ALL, {0, 1, 2}, _tnode(_ODD, {9})), _ALL,
     "child 1 is not a subgraph"),
    ("subgraph", _tnode(_ALL, {0, 1, 2}, REC_TREE_EMPTY, _tnode(_ODD, {9})), _ALL,
     "child 2 is not a subgraph"),
    ("i", _tnode(_X0, {1, 2}), _X0, "sources [0] missing from the bag"),
    ("ii", _tnode(_ALL, {0, 1}), _ALL, "bag and children do not cover the vertices"),
    ("iii", _tnode(_ALL, {0, 1}, _tnode(_sg({1, 2}, {1}), {1, 2})), _ALL,
     "child 1 sources differ from its bag intersection"),
    ("iii", _tnode(_ALL, {0, 1}, REC_TREE_EMPTY, _tnode(_sg({1, 2}, {1}), {1, 2})), _ALL,
     "child 2 sources differ from its bag intersection"),
    ("iv", _tnode(_ALL, {0, 1}, _tnode(_sg({1, 2}, {1}, {1}), {1, 2}),
                  _tnode(_sg({2}), {2})), _ALL,
     "children share vertices outside the bag"),
    ("v", _tnode(_ALL, {0, 1, 2}, _tnode(_sg({0, 1, 2}, {0, 1}, {0, 1, 2}), {0, 1, 2}),
                 _tnode(_sg({0, 1, 2}, {0, 1}, {0, 1, 2}), {0, 1, 2})), _ALL,
     "children share edges"),
    ("vi", _tnode(_ALL, {0, 1}, _tnode(_sg({1, 2}, (), {1}), {1, 2})), _ALL,
     "an uncovered edge leaves the bag"),
    # pre-order, left before right: the left child's fault is reported
    ("shape", _tnode(_ALL, {0, 1, 2},
                     _tnode(_sg({0, 1, 2}, {0, 1}, {0, 1, 2}), {0, 1, 2, 8}),
                     _tnode(_sg({2}, (), {2}), {2, 3})), _ALL,
     "bag contains non-vertices"),
    ("iii", _tnode(_ALL, {0, 1, 2}, _tnode(_sg({0, 1, 2}, {0, 1}, {0, 1, 2}), {0, 1, 2},
                                           _tnode(_sg({0}), {0}))), _ALL,
     "child 1 sources differ from its bag intersection"),
    # a child reusing a parent edge id with other ends
    ("subgraph", _tnode(_ALL, {0, 1, 2}, _MOVED_TREE), _ALL, "child 1 is not a subgraph"),
    ("subgraph", _tnode(_ALL, {0, 1, 2}, REC_TREE_EMPTY, _MOVED_TREE), _ALL,
     "child 2 is not a subgraph"),
]

REC_PATH_FAILURES = [
    ("empty", REC_PATH_EMPTY, _ALL, "empty decomposition of a non-empty graph"),
    ("type", REC_TREE_EMPTY, _ALL, "not a recursive path decomposition: RecTreeEmpty()"),
    ("graph", _pnode(_ALL, {0, 1, 2}), _X0,
     "node does not decompose the expected graph with sources"),
    ("shape", _pnode(_ALL, {0, 1, 2, 7}), _ALL, "bag contains non-vertices"),
    ("subgraph", _pnode(_ALL, {0, 1, 2}, _pnode(_ODD, {9})), _ALL,
     "tail is not a subgraph"),
    ("i", _pnode(_X0, {1, 2}), _X0, "sources [0] missing from the first bag"),
    ("ii", _pnode(_ALL, {0, 1}), _ALL, "bag and tail do not cover the vertices"),
    ("iii", _pnode(_ALL, {0, 1}, _pnode(_sg({1, 2}, {1}), {1, 2})), _ALL,
     "tail sources differ from the bag intersection"),
    ("iv", _pnode(_ALL, {0, 1}, _pnode(_sg({1, 2}, (), {1}), {1, 2})), _ALL,
     "an edge outside the tail leaves the first bag"),
    ("ii", _pnode(_ALL, {0, 1}, _pnode(_sg({1, 2}, {1}, {1}), {1})), _ALL,
     "bag and tail do not cover the vertices"),
    # a tail reusing a parent edge id with other ends
    ("subgraph", _pnode(_ALL, {0, 1, 2}, _MOVED_PATH), _ALL, "tail is not a subgraph"),
]

_E0 = _sg({0, 1}, {0}, {1})
_E1 = _sg({1, 2}, {1}, {1})

REC_BRANCH_FAILURES = [
    ("empty", REC_BRANCH_EMPTY, _ALL, "empty decomposition of a graph with edges"),
    ("graph", RecBranchEmpty(SourcedGraph(Graph.discrete([0, 1]))),
     SourcedGraph(Graph.discrete([0])), "empty decomposition records a different graph"),
    ("graph", RecBranchLeaf(_sg({0, 1}, {0})), _sg({0, 1}, {0}, {0}),
     "leaf does not decompose the expected graph with sources"),
    ("leaf", RecBranchLeaf(_ALL), _ALL, "leaves carry exactly one edge"),
    ("type", REC_TREE_EMPTY, _ALL, "not a recursive branch decomposition: RecTreeEmpty()"),
    ("graph", RecBranchNode(_ALL, RecBranchLeaf(_E0), RecBranchLeaf(_E1)), _X0,
     "node does not decompose the expected graph with sources"),
    ("subgraph", RecBranchNode(_ALL, RecBranchLeaf(_ODD), RecBranchLeaf(_E1)), _ALL,
     "child 1 is not a subgraph"),
    ("subgraph", RecBranchNode(_ALL, RecBranchLeaf(_E0), RecBranchLeaf(_ODD)), _ALL,
     "child 2 is not a subgraph"),
    ("i", RecBranchNode(_ALL, RecBranchLeaf(_E0), RecBranchLeaf(_E0)), _ALL,
     "children edges do not partition the edges"),
    ("ii", RecBranchNode(_ISO3, RecBranchLeaf(_E0), RecBranchLeaf(_E1)), _ISO3,
     "children do not cover the vertices"),
    ("iii", RecBranchNode(_ALL, RecBranchLeaf(_sg({0, 1}, {0})), RecBranchLeaf(_E1)), _ALL,
     "child 1 boundary differs from the boundary formula"),
    ("iii", RecBranchNode(_ALL, RecBranchLeaf(_E0), RecBranchLeaf(_sg({1, 2}, {1}))), _ALL,
     "child 2 boundary differs from the boundary formula"),
    # a fault two levels down, below a valid left leaf
    ("leaf", RecBranchNode(_ALL, RecBranchLeaf(_E0),
                           RecBranchNode(_E1, RecBranchLeaf(_sg({1}, (), {1})),
                                         RecBranchLeaf(_E1))), _ALL,
     "leaves carry exactly one edge"),
    ("leaf", RecBranchNode(_ALL, RecBranchEmpty(_sg({0}, (), {0})),
                           RecBranchLeaf(_sg({0, 1, 2}, {0, 1}, {0}))), _ALL,
     "leaves carry exactly one edge"),
    # a child reusing a parent edge id with other ends
    ("subgraph", RecBranchNode(_ALL, _MOVED_LEAF, RecBranchLeaf(_E1)), _ALL,
     "child 1 is not a subgraph"),
    ("subgraph", RecBranchNode(_ALL, RecBranchLeaf(_E0), _MOVED_LEAF), _ALL,
     "child 2 is not a subgraph"),
    # the children together miss edge 1
    ("i", RecBranchNode(_ALL, RecBranchLeaf(_E0), RecBranchEmpty(_sg({1, 2}, (), {1}))), _ALL,
     "children edges do not partition the edges"),
]


def _failure_ids(cases):
    return [f"{i}-{case[0]}" for i, case in enumerate(cases)]


@pytest.mark.parametrize("clause,node,sg,message", REC_TREE_FAILURES,
                         ids=_failure_ids(REC_TREE_FAILURES))
def test_validate_rec_tree_dec_failure_clauses(clause, node, sg, message):
    assert validate_rec_tree_dec(node, sg) == Check(False, clause, message)


@pytest.mark.parametrize("clause,node,sg,message", REC_PATH_FAILURES,
                         ids=_failure_ids(REC_PATH_FAILURES))
def test_validate_rec_path_dec_failure_clauses(clause, node, sg, message):
    assert validate_rec_path_dec(node, sg) == Check(False, clause, message)


@pytest.mark.parametrize("clause,node,sg,message", REC_BRANCH_FAILURES,
                         ids=_failure_ids(REC_BRANCH_FAILURES))
def test_validate_rec_branch_dec_failure_clauses(clause, node, sg, message):
    assert validate_rec_branch_dec(node, sg) == Check(False, clause, message)


# ---------------------------------------------------------------------------
# Golden JSON (key order included) and DOT for P3 in all six kinds.

_K2_SHAPE = path_graph(2)
_P3_TREE = TreeDec(_K2_SHAPE, {0: {0, 1}, 1: {1, 2}})
_P3_PATH = PathDec([{0, 1}, {1, 2}])
_P3_BRANCH = BranchDec(_K2_SHAPE, {0: 0, 1: 1})
_P3_SG = SourcedGraph(_P3, {0})
_P3_G = '"graph": {"v": [0, 1, 2], "e": [[0, 0, 1], [1, 1, 2]], "s": [0]}'
_TWO_BAGS_DOT = ('graph decomposition {\n  node [shape=box];\n  n0 [label="{0,1}"];\n'
                 '  n1 [label="{1,2}"];\n  n0 -- n1;\n}')

GOLDEN = [
    ("tree", lambda: _P3_TREE,
     '{"kind": "tree", "shape": {"v": [0, 1], "e": [[0, 0, 1]]}, '
     '"bags": {"0": [0, 1], "1": [1, 2]}}', _TWO_BAGS_DOT),
    ("path", lambda: _P3_PATH, '{"kind": "path", "bags": [[0, 1], [1, 2]]}', _TWO_BAGS_DOT),
    ("branch", lambda: _P3_BRANCH,
     '{"kind": "branch", "shape": {"v": [0, 1], "e": [[0, 0, 1]]}, '
     '"leaf_map": {"0": 0, "1": 1}}',
     'graph decomposition {\n  node [shape=box];\n  n0 [label="e0"];\n'
     '  n1 [label="e1"];\n  n0 -- n1;\n}'),
    ("rec-tree", lambda: tree_to_recursive(_P3_TREE, _P3_SG, 0),
     '{"kind": "rec-tree", ' + _P3_G + ', "bag": [0, 1], "left": {"kind": "rec-tree", '
     '"graph": {"v": [1, 2], "e": [[1, 1, 2]], "s": [1]}, "bag": [1, 2], '
     '"left": {"kind": "rec-tree", "empty": true}, "right": {"kind": "rec-tree", '
     '"empty": true}}, "right": {"kind": "rec-tree", "empty": true}}', _TWO_BAGS_DOT),
    ("rec-path", lambda: path_to_recursive(_P3_PATH, _P3_SG),
     '{"kind": "rec-path", ' + _P3_G + ', "bag": [0, 1], "tail": {"kind": "rec-path", '
     '"graph": {"v": [1, 2], "e": [[1, 1, 2]], "s": [1]}, "bag": [1, 2], '
     '"tail": {"kind": "rec-path", "empty": true}}}', _TWO_BAGS_DOT),
    ("rec-branch", lambda: branch_to_recursive(_P3_BRANCH, _P3_SG),
     '{"kind": "rec-branch", ' + _P3_G + ', "left": {"kind": "rec-branch", "leaf": true, '
     '"graph": {"v": [0, 1], "e": [[0, 0, 1]], "s": [0, 1]}}, "right": {"kind": '
     '"rec-branch", "leaf": true, "graph": {"v": [1, 2], "e": [[1, 1, 2]], "s": [1]}}}',
     'graph decomposition {\n  node [shape=box];\n  n0 [label="{0}"];\n'
     '  n1 [label="e0"];\n  n0 -- n1;\n  n2 [label="e1"];\n  n0 -- n2;\n}'),
    ("rec-branch-empty", lambda: RecBranchEmpty(SourcedGraph(Graph.discrete([0, 1]), {1})),
     '{"kind": "rec-branch", "empty": true, "graph": {"v": [0, 1], "e": [], "s": [1]}}',
     'graph decomposition {\n  node [shape=box];\n}'),
]


@pytest.mark.parametrize("name,build,golden_json,golden_dot", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden_json_and_dot(name, build, golden_json, golden_dot):
    dec = build()
    assert json.dumps(decomposition_to_json(dec)) == golden_json
    assert decomposition_to_dot(dec) == golden_dot
    assert decomposition_from_json(json.loads(golden_json)) == dec


# ---------------------------------------------------------------------------
# Clause 3 of the classic validators against a pairwise reference.


def _tree_path(shape: Graph, i: int, k: int) -> list:
    prev = {i: None}
    stack = [i]
    while stack:
        v = stack.pop()
        for w in shape.neighbours(v):
            if w not in prev:
                prev[w] = v
                stack.append(w)
    path = [k]
    while path[-1] != i:
        path.append(prev[path[-1]])
    return path


def _pairwise_clause_3(nodes, bags, between) -> bool:
    """Every bag between two bags holds what the two share."""
    return all(bags[i] & bags[k] <= bags[j]
               for i in nodes for k in nodes for j in between(i, k))


def _random_bags(rng: random.Random, nodes, g: Graph) -> dict:
    """Random bags that pass clauses 1 and 2 on `g`."""
    bags = {i: {v for v in g.vertices if rng.random() < 0.4} for i in nodes}
    for v in sorted(g.vertices):
        if not any(v in b for b in bags.values()):
            bags[rng.choice(nodes)].add(v)
    for e in sorted(g.edges):
        if not any(g.ends(e) <= b for b in bags.values()):
            bags[rng.choice(nodes)] |= g.ends(e)
    return bags


def test_clause_3_agrees_with_a_pairwise_reference():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g = random_graph(rng, max_v=5, max_e=5)
        n = rng.randint(1, 6)
        ids = rng.sample(range(20), n)  # node ids out of walk order
        shape = Graph.from_edge_pairs(ids, [(ids[rng.randrange(j)], ids[j])
                                            for j in range(1, n)])
        bags = _random_bags(rng, ids, g)
        want = _pairwise_clause_3(ids, bags, lambda i, k: _tree_path(shape, i, k))
        chk = validate_tree_dec(TreeDec(shape, bags), g)
        assert (chk.ok, chk.clause) == (want, "" if want else "3"), (shape, bags, g)
        seen[want] += 1
        pbags = _random_bags(rng, list(range(n)), g)
        want = _pairwise_clause_3(range(n), pbags,
                                  lambda i, k: range(min(i, k), max(i, k) + 1))
        chk = validate_path_dec(PathDec([pbags[i] for i in range(n)]), g)
        assert (chk.ok, chk.clause) == (want, "" if want else "3"), (pbags, g)
        seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_clause_3_message_names_the_split_vertex():
    g, dec = fig_style_graph_and_dec()
    split_tree = TreeDec(dec.shape, {0: {0, 1, 2}, 1: {3}, 2: {2, 3, 4}})
    assert validate_tree_dec(split_tree, g).message == \
        "the bags holding vertex 2 are not connected"
    split_path = PathDec([{0, 1}, {1, 2}, {0, 2, 3}])
    assert validate_path_dec(split_path, path_graph(4)).message == \
        "the bags holding vertex 0 are not connected"


def test_tree_to_recursive_golden_three_children():
    # the root 4 has children 1, 6 and 9, listed out of id order in the shape's
    # edges; 1 goes left and 6, 9 are chained on the right in id order
    g = Graph.from_edge_pairs(range(5), [(0, 1), (0, 2), (0, 3), (3, 4)])
    shape = Graph.from_edge_pairs([1, 3, 4, 6, 9], [(4, 9), (6, 3), (4, 6), (4, 1)])
    dec = TreeDec(shape, {4: {0}, 9: {0, 1}, 1: {0, 2}, 6: {0, 3}, 3: {3, 4}})
    rec = tree_to_recursive(dec, SourcedGraph(g, {0}), 4)
    empty = '{"kind": "rec-tree", "empty": true}'
    leaf = ('{"kind": "rec-tree", "graph": %s, "bag": %s, "left": ' + empty
            + ', "right": ' + empty + '}')
    assert json.dumps(decomposition_to_json(rec)) == (
        '{"kind": "rec-tree", "graph": {"v": [0, 1, 2, 3, 4], "e": [[0, 0, 1], [1, 0, 2], '
        '[2, 0, 3], [3, 3, 4]], "s": [0]}, "bag": [0], "left": '
        + leaf % ('{"v": [0, 2], "e": [[1, 0, 2]], "s": [0]}', "[0, 2]")
        + ', "right": {"kind": "rec-tree", "graph": {"v": [0, 1, 3, 4], "e": [[0, 0, 1], '
        '[2, 0, 3], [3, 3, 4]], "s": [0]}, "bag": [0], "left": {"kind": "rec-tree", '
        '"graph": {"v": [0, 3, 4], "e": [[2, 0, 3], [3, 3, 4]], "s": [0]}, "bag": [0, 3], '
        '"left": ' + leaf % ('{"v": [3, 4], "e": [[3, 3, 4]], "s": [3]}', "[3, 4]")
        + ', "right": ' + empty + '}, "right": '
        + leaf % ('{"v": [0, 1], "e": [[0, 0, 1]], "s": [0]}', "[0, 1]") + '}}')


def test_tree_to_recursive_refuses_a_root_outside_the_tree(p3):
    dec = TreeDec(path_graph(2), {0: {0, 1}, 1: {1, 2}})
    with pytest.raises(DecompositionError, match="^root 7 is not a tree vertex$"):
        tree_to_recursive(dec, SourcedGraph(p3), 7)


def test_branch_to_recursive_splices_out_a_degree_two_node(p3):
    # the shape 0 - 2 - 1 roots at its edge to leaf 0; the inner node 2 then
    # has leaf 1 as its only child, adds nothing and is spliced out
    dec = BranchDec(Graph.from_edge_pairs(range(3), [(0, 2), (2, 1)]), {0: 0, 1: 1})
    sg = SourcedGraph(p3)
    rec = branch_to_recursive(dec, sg)
    assert isinstance(rec, RecBranchNode) and rec.graph == sg
    assert isinstance(rec.left, RecBranchLeaf) and isinstance(rec.right, RecBranchLeaf)
    assert (rec.left.graph.edges, rec.right.graph.edges) == ({0}, {1})
    assert rec_branch_width(rec) == 1


def test_path_to_recursive_of_a_long_path_needs_no_recursion():
    # 1,500 bags of P_1500 give a chain 1,500 nodes deep, past the default
    # recursion limit; the width is read without the (recursive) validator
    n = 1500
    g = path_graph(n)
    dec = PathDec([{i, i + 1} for i in range(n - 1)] + [{n - 1}])
    t = path_to_recursive(dec, SourcedGraph(g))
    chain, node = 0, t
    while isinstance(node, RecPathCons):
        chain += 1
        node = node.tail
    assert chain == n and node is REC_PATH_EMPTY
    assert max(map(len, _bags(t))) == 2
    assert path_from_recursive(t) == dec


def test_branch_from_recursive_numbers_tree_vertices_in_post_order():
    # P4's comb beside an isolated vertex: the leaves of edges 0, 1 and 2
    # become vertices 0, 1, 2, then the inner join 3 and the comb's root 4,
    # each join's edge to its left child first; the root has an empty
    # right child, so it adds nothing and is spliced out
    sig = Signature()
    t = m_to_bdec(Tensor(sig.leaf(cs.of_graph(path_graph(4))),
                         sig.leaf(cs.of_graph(Graph.discrete([0])))), sig)
    assert isinstance(t, RecBranchNode) and isinstance(t.right, RecBranchEmpty)
    assert json.dumps(decomposition_to_json(branch_from_recursive(t))) == (
        '{"kind": "branch", "shape": {"v": [0, 1, 2, 3, 4], "e": [[0, 1, 3], [1, 2, 3], '
        '[2, 0, 4], [3, 3, 4]]}, "leaf_map": {"0": 0, "1": 1, "2": 2}}')


def test_walkers_over_a_1500_deep_path_chain(long_path_chain):
    # validation, width, bags, JSON and DOT each walk the whole chain in a loop
    sg, dec, t = long_path_chain
    assert rec_path_width(t, sg) == 2
    assert path_from_recursive(t) == dec
    depth, data = 0, decomposition_to_json(t)
    while "tail" in data:
        assert data["bag"] == sorted(dec.bags[depth])
        depth, data = depth + 1, data["tail"]
    assert depth == 1500 and data == {"kind": "rec-path", "empty": True}
    # node lines on entry, each edge once the subtree below it is done
    dot = decomposition_to_dot(t).splitlines()
    assert len(dot) == 2 + 1500 + 1499 + 1
    assert dot[2] == '  n0 [label="{0,1}"];' and dot[1501] == '  n1499 [label="{1499}"];'
    assert dot[1502] == "  n1498 -- n1499;" and dot[-2] == "  n0 -- n1;"


def test_first_failing_node_of_a_1500_deep_path_chain(long_path_chain):
    # nodes 1,200 (a source left out of its bag, clause i) and 1,400 (a
    # non-vertex in its bag, clause shape) both fail; pre-order reports 1,200
    sg, _, t = long_path_chain
    nodes = []
    while isinstance(t, RecPathCons):
        nodes.append(t)
        t = t.tail
    bad = REC_PATH_EMPTY
    for i in reversed(range(len(nodes))):
        node = nodes[i]
        bag = {1200: node.bag - node.graph.sources, 1400: node.bag | {-1}}.get(i, node.bag)
        bad = RecPathCons(node.graph, bag, bad)
    assert validate_rec_path_dec(bad, sg) == Check(
        False, "i", "sources [1200] missing from the first bag")


def test_walkers_over_a_1500_deep_tree_chain():
    # the tree decomposition of a 1,500-deep path term: each composition
    # puts its edge on the left and the rest of the chain on the right
    term, sig = deep_right_tree_term(1500)
    t = m_to_tdec(term, sig)
    assert rec_tree_width(t) == 2
    classic = tree_from_recursive(t)
    assert len(classic.bags) == 3001 and len(classic.shape.edges) == 3000
    assert max(len(b) for _, b in classic.bags) == 2
    dot = decomposition_to_dot(t).splitlines()
    assert len(dot) == 2 + 3001 + 3000 + 1 and dot[-2] == "  n0 -- n2;"


# ---------------------------------------------------------------------------
# One layout for the six formats: the JSON reader loops, and the recursive
# nodes compare, hash and print in loops.


def test_recursive_form_of_p600_round_trips_through_json():
    # 600 levels of "tail": too deep for a reader that recursed per level
    n = 600
    sg = SourcedGraph(path_graph(n))
    t = path_to_recursive(PathDec([{i, i + 1} for i in range(n - 1)] + [{n - 1}]), sg)
    back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(t))))
    assert back == t and hash(back) == hash(t)
    assert rec_path_width(back, sg) == 2


_EMPTY_GRAPH_JSON = {"v": [], "e": [], "s": []}
_CHAIN_LINK = {  # a node of each family with its chained child at "@"
    "rec-tree": ({"kind": "rec-tree", "empty": True},
                 lambda inner: {"kind": "rec-tree", "graph": _EMPTY_GRAPH_JSON, "bag": [],
                                "left": inner, "right": {"kind": "rec-tree", "empty": True}}),
    "rec-path": ({"kind": "rec-path", "empty": True},
                 lambda inner: {"kind": "rec-path", "graph": _EMPTY_GRAPH_JSON, "bag": [],
                                "tail": inner}),
    "rec-branch": ({"kind": "rec-branch", "empty": True},
                   lambda inner: {"kind": "rec-branch", "graph": _EMPTY_GRAPH_JSON,
                                  "left": inner, "right": {"kind": "rec-branch",
                                                           "empty": True}}),
}
_EMPTY_SG = "SourcedGraph(graph=Graph(v=[], e={}), sources=frozenset())"
_CHAIN_REPR = {  # (innermost node, node before its chained child, after it)
    "rec-tree": ("RecTreeEmpty()", f"RecTreeNode(graph={_EMPTY_SG}, bag=frozenset(), left=",
                 ", right=RecTreeEmpty())"),
    "rec-path": ("RecPathEmpty()", f"RecPathCons(graph={_EMPTY_SG}, bag=frozenset(), tail=",
                 ")"),
    "rec-branch": (f"RecBranchEmpty(graph={_EMPTY_SG})", f"RecBranchNode(graph={_EMPTY_SG}, left=",
                   f", right=RecBranchEmpty(graph={_EMPTY_SG}))"),
}


@pytest.mark.parametrize("kind", sorted(_CHAIN_LINK))
def test_1500_deep_forms_read_back_compare_and_print(kind):
    depth = 1500
    data, link = _CHAIN_LINK[kind]
    for _ in range(depth):
        data = link(data)
    t, again = decomposition_from_json(data), decomposition_from_json(data)
    assert t is not again and t == again and hash(t) == hash(again)
    assert decomposition_from_json(decomposition_to_json(t)) == t
    innermost, before, after = _CHAIN_REPR[kind]
    assert repr(t) == before * depth + innermost + after * depth
    # a change at the far end is seen
    node, inner = data, link(dict(_CHAIN_LINK[kind][0]))
    for _ in range(depth - 1):
        node = node["left" if "left" in node else "tail"]
    node["left" if "left" in node else "tail"] = inner
    other = decomposition_from_json(data)
    assert other != t and not other == t


def _generated_repr(node) -> str:
    """What the dataclass-generated repr would print, recursing."""
    if not dataclasses.is_dataclass(node) or not isinstance(
            node, (RecTreeDec, RecPathDec, RecBranchDec)):
        return repr(node)
    return f"{type(node).__qualname__}(" + ", ".join(
        f"{f.name}={_generated_repr(getattr(node, f.name))}"
        for f in dataclasses.fields(node)) + ")"


def test_node_equality_hash_and_repr_mean_what_the_generated_ones_mean():
    g = Graph.from_edge_pairs(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4)])
    forms = []
    for sources in ((), (0,), (0, 2)):
        sg = SourcedGraph(g, sources)
        tree = TreeDec(path_graph(3), {0: {0, 1, 2}, 1: {2, 3}, 2: {3, 4}})
        forms.append(tree_to_recursive(tree, sg, 0))
        forms.append(path_to_recursive(PathDec([{0, 1, 2}, {2, 3}, {3, 4}]), sg))
        _, branch = exact_branchwidth(g)
        forms.append(branch_to_recursive(branch, sg))
    forms += [REC_TREE_EMPTY, REC_PATH_EMPTY, REC_BRANCH_EMPTY,
              RecBranchEmpty(SourcedGraph(Graph.discrete([0]))),
              RecTreeNode(SourcedGraph(g), {0}, PathDec([{0}]), REC_TREE_EMPTY)]
    for a in forms:
        assert repr(a) == _generated_repr(a)
        copy = decomposition_from_json(decomposition_to_json(a))
        assert copy == a and hash(copy) == hash(a) and not copy != a
        for b in forms:
            assert (a == b) == (a is b)
    assert RecTreeNode(SourcedGraph(g), {0}, REC_TREE_EMPTY, REC_TREE_EMPTY) != 0
    assert REC_PATH_EMPTY != REC_TREE_EMPTY


def test_classic_readers_name_the_expected_type_of_a_key():
    shape = {"v": [0], "e": []}
    for data, field, what in (({"kind": "tree", "shape": shape, "bags": {"x": [0]}},
                               "bags", "a bag table"),
                              ({"kind": "branch", "shape": shape, "leaf_map": {"x": 0}},
                               "leaf_map", "a leaf map")):
        with pytest.raises(DecompositionError) as info:
            decomposition_from_json(data)
        assert str(info.value) == (f"decomposition field {field!r}: "
                                   f"{what} has a key that is not an integer: 'x'")
    # a leaf map's edges are read before its leaves, as they were
    with pytest.raises(DecompositionError) as info:
        decomposition_from_json({"kind": "branch", "shape": shape, "leaf_map": {"x": "e"}})
    assert str(info.value) == "decomposition field 'leaf_map': expected integers, got ['e']"
    # an integer key in its text form still reads
    dec = decomposition_from_json({"kind": "branch", "shape": shape, "leaf_map": {"0": 7}})
    assert dec.leaf_table() == {0: 7}


def test_reader_errors_come_in_recursive_descent_order():
    node = {"kind": "rec-tree", "graph": {"v": [0], "e": [], "s": []}, "bag": [0],
            "left": {"kind": "rec-tree", "empty": True}}
    # the missing right child is reported only once the left subtree reads
    bad_left = {**node, "left": {**node, "bag": ["x"]}}
    with pytest.raises(DecompositionError) as info:
        decomposition_from_json({**node, "right": bad_left})
    assert str(info.value) == ("decomposition field 'right': decomposition field 'left': "
                               "decomposition field 'bag': expected integers, got ['x']")
    with pytest.raises(DecompositionError) as info:
        decomposition_from_json({**node, "left": node})
    assert str(info.value) == "decomposition field 'left': decomposition field 'right' is missing"
    with pytest.raises(DecompositionError) as info:
        decomposition_from_json(node)
    assert str(info.value) == "decomposition field 'right' is missing"
    # an edge entry without an id is a GraphError, wrapped like any bad field
    with pytest.raises(DecompositionError) as info:
        decomposition_from_json({**node, "right": {**node, "graph": {"e": [[]]}}})
    assert str(info.value) == ("decomposition field 'right': decomposition field 'graph': "
                               "edge entry [] has no id")
