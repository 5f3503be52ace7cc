import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwidth.decomp as decomp_mod
import mwidth.oracles as oracles_mod
from conftest import cycle_graph, k, path_graph, random_graph, reference_key
from conftest import reference_branchwidth, reference_enumerate_graphs, reference_optimal_rec
from mwidth import (
    Graph,
    PathDec,
    SourcedGraph,
    TreeDec,
    WidthCache,
    canonical_key,
    enumerate_graphs,
    exact_branchwidth,
    exact_pathwidth,
    exact_treewidth,
    graph_isomorphic,
    optimal_rec_path_dec,
    optimal_rec_tree_dec,
    rec_path_width,
    rec_tree_width,
    validate_branch_dec,
    validate_path_dec,
    validate_rec_path_dec,
    validate_rec_tree_dec,
    validate_tree_dec,
)
from mwidth.decomp import RecTreeNode
from mwidth.oracles import OracleError, _leaf_trees


SPOT_VALUES = [
    (Graph.empty(), 0, 0, 0),
    (Graph.discrete([0]), 1, 1, 0),
    (path_graph(2), 2, 2, 0),
    (path_graph(3), 2, 2, 1),
    (k(3), 3, 3, 2),
    (k(4), 4, 4, 3),
    (cycle_graph(4), 3, 3, 2),
]


@pytest.mark.parametrize("g,tw,pw,bw", SPOT_VALUES)
def test_spot_widths(g, tw, pw, bw):
    got_tw, tdec = exact_treewidth(g)
    got_pw, pdec = exact_pathwidth(g)
    got_bw, bdec = exact_branchwidth(g)
    assert (got_tw, got_pw, got_bw) == (tw, pw, bw)
    assert validate_tree_dec(tdec, g)
    assert validate_path_dec(pdec, g)
    assert validate_branch_dec(bdec, g)


def test_trees_have_width_two():
    for g in (path_graph(2), path_graph(4),
              Graph.from_edge_pairs(range(4), [(0, 1), (0, 2), (0, 3)])):
        assert exact_treewidth(g)[0] == 2
        assert exact_pathwidth(g)[0] == 2


def test_oracle_refusals():
    big = Graph.discrete(range(9))
    with pytest.raises(OracleError):
        exact_treewidth(big)
    with pytest.raises(OracleError):
        exact_pathwidth(big)
    with pytest.raises(OracleError):
        exact_branchwidth(k(5))  # ten edges
    with pytest.raises(OracleError):
        enumerate_graphs(7)


def test_catalog_counts_and_membership():
    assert len(enumerate_graphs(1, 0)) == 1
    assert len(enumerate_graphs(4)) == 1 + 2 + 4 + 11
    cat = enumerate_graphs(3, 3)
    keys = {canonical_key(g) for g in cat}
    assert canonical_key(path_graph(3)) in keys
    assert canonical_key(k(3)) in keys


def test_catalog_unique_up_to_iso_by_pairwise_check():
    cat = enumerate_graphs(4)
    for i, g1 in enumerate(cat):
        for g2 in cat[i + 1:]:
            assert graph_isomorphic(g1, g2) is None
    # counts match an independent recount via pairwise isomorphism
    raw = []
    for g in enumerate_graphs(4):
        if not any(graph_isomorphic(g, h) for h in raw):
            raw.append(g)
    assert len(raw) == len(cat)


def test_pathwidth_at_least_treewidth_on_catalog():
    cache = WidthCache()
    for g in enumerate_graphs(4):
        tw, pw, bw = cache.widths(g)
        assert pw >= tw


def test_classical_sanity_sandwich():
    # classical inequality in the -1 convention, stated for graphs with
    # at least one edge: max(bw, 2) <= tw_classic + 1 <= max(3 bw / 2, 2)
    cache = WidthCache()
    for g in enumerate_graphs(5, 6):
        if not g.edges:
            continue
        tw, pw, bw = cache.widths(g)
        assert max(bw, 2) <= tw <= max(1.5 * bw, 2)


def test_sourced_oracles_respect_sources():
    g = path_graph(3)
    w0, t0 = optimal_rec_tree_dec(SourcedGraph(g))
    assert w0 == 2 and validate_rec_tree_dec(t0, SourcedGraph(g))
    wx, tx = optimal_rec_tree_dec(SourcedGraph(g, {0, 2}))
    assert validate_rec_tree_dec(tx, SourcedGraph(g, {0, 2}))
    assert wx >= 2  # forcing both ends into the root bag can only cost more
    wp, tp = optimal_rec_path_dec(SourcedGraph(g, {1}))
    assert validate_rec_path_dec(tp, SourcedGraph(g, {1}))
    assert rec_path_width(tp) == wp


def test_witness_node_counts_stay_small():
    # the optimal witnesses found need at most 2|V| nodes, supporting the
    # bounded-size search assumption checked here on the <=4-vertex catalog
    def count_tree(t):
        from mwidth.decomp import RecTreeNode
        if not isinstance(t, RecTreeNode):
            return 0
        return 1 + count_tree(t.left) + count_tree(t.right)

    for g in enumerate_graphs(4):
        w, t = optimal_rec_tree_dec(SourcedGraph(g))
        assert count_tree(t) <= max(2 * len(g.vertices), 1)
        assert rec_tree_width(t) == w


def test_oracles_handle_multigraphs():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, max_v=4, max_e=5, multigraph=True)
        tw, tdec = exact_treewidth(g)
        pw, pdec = exact_pathwidth(g)
        bw, bdec = exact_branchwidth(g)
        assert validate_tree_dec(tdec, g)
        assert validate_path_dec(pdec, g)
        assert validate_branch_dec(bdec, g)
        assert tw <= pw


def test_width_cache_round_trip(tmp_path):
    cache = WidthCache()
    g = k(3)
    assert cache.widths(g) == (3, 3, 2)
    path = tmp_path / "widths.json"
    cache.save(str(path))
    fresh = WidthCache().load(str(path))
    assert fresh.widths(g) == (3, 3, 2)
    assert fresh.data  # loaded, not recomputed


def test_width_cache_file_with_other_keys_never_misreads(tmp_path):
    # a file keyed by the brute-force form: every record can only miss or
    # hit its own class, so each lookup gives that graph's widths
    graphs = enumerate_graphs(4)
    truth = [(exact_treewidth(g)[0], exact_pathwidth(g)[0], exact_branchwidth(g)[0])
             for g in graphs]
    path = tmp_path / "widths.json"
    path.write_text(json.dumps({repr(reference_key(g)): {"tw": tw, "pw": pw, "bw": bw}
                                for g, (tw, pw, bw) in zip(graphs, truth)}))
    cache = WidthCache().load(str(path))
    assert len(cache.data) == len(graphs)
    for g, want in zip(graphs, truth):
        assert cache.widths(g) == want


def test_oracle_minima_match_enumerated_decompositions():
    # the recursive-form search agrees with a direct minimum over every
    # enumerated classic decomposition
    from conftest import all_path_decs, all_tree_decs
    from mwidth import path_dec_width, tree_dec_width
    for g in enumerate_graphs(4):
        tw, _ = exact_treewidth(g)
        pw, _ = exact_pathwidth(g)
        best_t = min(tree_dec_width(d, g) for d in all_tree_decs(g))
        best_p = min(path_dec_width(d, g) for d in all_path_decs(g))
        assert tw == best_t, g
        assert pw == best_p, g


def _relabelled(dec, ids: list):
    """A witness over vertices 0..n-1 with each vertex i renamed ids[i]."""
    if isinstance(dec, TreeDec):
        return TreeDec(dec.shape, {i: {ids[v] for v in b} for i, b in dec.bags})
    if isinstance(dec, PathDec):
        return PathDec({ids[v] for v in b} for b in dec.bags)
    return dec  # a branch witness names edges, which keep their ids


def test_oracle_witnesses_follow_vertex_order():
    # from id 8 on a small frozenset no longer iterates in id order, so a
    # witness that followed set order would not follow the ids
    rng = random.Random(59)
    graphs = [Graph([3, 7, 11], {0: {11, 3}, 1: {3, 7}})]
    for _ in range(100):
        ids = sorted(rng.sample(range(8, 60), rng.randint(1, 7)))
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 7))]
        graphs.append(Graph.from_edge_pairs(ids, pairs))
    for g in graphs:
        ids = sorted(g.vertices)
        rank = {v: i for i, v in enumerate(ids)}
        small = Graph(range(len(ids)), {e: {rank[v] for v in g.ends(e)} for e in g.edges})
        for oracle in (exact_treewidth, exact_pathwidth, exact_branchwidth):
            w, dec = oracle(small)
            assert oracle(g) == (w, _relabelled(dec, ids)), (oracle.__name__, g)


# ---------------------------------------------------------------------------
# Branch width: the subset DP against the brute force over every cubic tree.


def test_branchwidth_matches_the_brute_force_on_the_6_vertex_catalog():
    graphs = [g for g in enumerate_graphs(6) if len(g.edges) <= 7]
    assert len(graphs) == 126
    for g in graphs:
        assert exact_branchwidth(g) == reference_branchwidth(g), g


@st.composite
def multigraphs(draw):
    """A multigraph with loops and parallel edges: up to 5 vertices, 0 to 7 edges."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    return Graph.from_edge_pairs(range(n), draw(st.lists(st.tuples(vertex, vertex),
                                                         max_size=7)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(multigraphs())
def test_branchwidth_matches_the_brute_force_on_multigraphs(g):
    assert exact_branchwidth(g) == reference_branchwidth(g)


def _star(leaves: int) -> Graph:
    return Graph.from_edge_pairs(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


# bw(K_n) = ceil(2n / 3) for n >= 3, bw(C_n) = 2 for n >= 3, and a star with
# at least two edges has width 1: every edge order is its centre alone
@pytest.mark.parametrize("g,bw", [(k(3), 2), (k(4), 3), (cycle_graph(3), 2),
                                  (cycle_graph(5), 2), (cycle_graph(7), 2),
                                  (_star(1), 0), (_star(2), 1), (_star(5), 1),
                                  (_star(7), 1)])
def test_branchwidth_closed_forms(g, bw):
    assert exact_branchwidth(g)[0] == bw


def test_branchwidth_validates_only_its_witness(monkeypatch):
    checked = []
    real = decomp_mod.validate_branch_dec

    def counted(dec, g):
        checked.append(dec)
        return real(dec, g)
    monkeypatch.setattr(decomp_mod, "validate_branch_dec", counted)
    for g in (k(4), cycle_graph(7), _star(1)):
        w, dec = exact_branchwidth(g)
        assert checked == [dec]
        checked.clear()


def test_branchwidth_walk_cuts_wide_partial_trees(monkeypatch):
    # every tree the walk grows is passed to the cut; the full enumeration
    # yields 105 trees on 6 leaves and 945 on 7
    real = oracles_mod._leaf_trees
    grown = []

    def counting(n, cut=None):
        def counted(sides, placed):
            grown.append(placed)
            return cut(sides, placed)
        return real(n, counted)
    monkeypatch.setattr(oracles_mod, "_leaf_trees", counting)
    for g, full, pinned in ((k(4), 105, 5), (cycle_graph(7), 945, 5)):
        assert sum(1 for _ in real(len(g.edges))) == full
        grown.clear()
        assert exact_branchwidth(g) == reference_branchwidth(g)
        assert len(grown) == pinned < full


# ---------------------------------------------------------------------------
# Tree and path width: the mask search against the frozenset search.


def test_tree_and_path_search_match_the_reference_on_the_6_vertex_catalog():
    graphs = enumerate_graphs(6)
    assert len(graphs) == 208
    for g in graphs:
        sg = SourcedGraph(g)
        assert optimal_rec_tree_dec(sg) == reference_optimal_rec(sg, "tree"), g
        assert optimal_rec_path_dec(sg) == reference_optimal_rec(sg, "path"), g


@st.composite
def sourced_multigraphs(draw):
    """A multigraph of `multigraphs()` with a random set of sources."""
    g = draw(multigraphs())
    return SourcedGraph(g, draw(st.sets(st.sampled_from(sorted(g.vertices)))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sourced_multigraphs())
def test_tree_and_path_search_match_the_reference_on_sourced_multigraphs(sg):
    assert optimal_rec_tree_dec(sg) == reference_optimal_rec(sg, "tree")
    assert optimal_rec_path_dec(sg) == reference_optimal_rec(sg, "path")


def test_tree_search_builds_graphs_only_for_its_witness(monkeypatch):
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    for g in (cycle_graph(5), k(4)):
        sg = SourcedGraph(g)
        built.clear()
        monkeypatch.setattr(Graph, "__init__", counted)
        w, t = optimal_rec_tree_dec(sg)
        monkeypatch.undo()
        nodes, stack = 0, [t]
        while stack:
            node = stack.pop()
            if isinstance(node, RecTreeNode):
                nodes += 1
                stack += [node.left, node.right]
        assert len(built) <= nodes + 1


# ---------------------------------------------------------------------------
# The catalog: labelled orbits against canonical keys.


@pytest.mark.parametrize("args", [(5, 7), (6, 7), (6,)])
def test_catalog_matches_the_canonical_key_reference(args):
    assert enumerate_graphs(*args) == reference_enumerate_graphs(*args)


def test_catalog_computes_no_canonical_key(monkeypatch):
    calls = []
    real = oracles_mod.canonical_key

    def counted(g):
        calls.append(g)
        return real(g)
    monkeypatch.setattr(oracles_mod, "canonical_key", counted)
    assert len(enumerate_graphs(5, 7)) == 48
    assert calls == []


# ---------------------------------------------------------------------------
# The floor that stops each tree and path search state.


def _root_floor(sg: SourcedGraph) -> int:
    """`oracles._floor` of the root state of `sg`'s search."""
    bit = {v: 1 << i for i, v in enumerate(sorted(sg.graph.vertices))}
    reach = dict.fromkeys(range(len(bit)), 0)
    for e in sg.graph.edges:
        ends = sum(bit[v] for v in sg.graph.ends(e))
        for i in reach:
            if ends >> i & 1:
                reach[i] |= ends
    return oracles_mod._floor(2 ** len(bit) - 1, sum(bit[v] for v in sg.sources), reach)


@st.composite
def sourced_edge_subsets(draw):
    """A multigraph with loops and parallel edges on up to 7 vertices, cut
    down to a random subset of its edges, with a random set of sources."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    g = Graph.from_edge_pairs(range(n), draw(st.lists(st.tuples(vertex, vertex), max_size=12)))
    g = g.subgraph(g.vertices, draw(st.sets(st.sampled_from(sorted(g.edges))))
                   if g.edges else ())
    return SourcedGraph(g, draw(st.sets(st.sampled_from(sorted(g.vertices)))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sourced_edge_subsets())
def test_floor_never_exceeds_the_optimal_widths(sg):
    floor = _root_floor(sg)
    assert floor <= optimal_rec_tree_dec(sg)[0] <= optimal_rec_path_dec(sg)[0]
    assert floor >= len(sg.sources)


def _grid(side: int) -> Graph:
    """The side x side grid; vertex r * side + c sits in row r, column c."""
    right = [(v, v + 1) for v in range(side * side) if v % side < side - 1]
    down = [(v, v + side) for v in range(side * (side - 1))]
    return Graph.from_edge_pairs(range(side * side), right + down)


PETERSEN = Graph.from_edge_pairs(range(10), [(i, (i + 1) % 5) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                 + [(i, i + 5) for i in range(5)])


# bag-size convention: tw + 1 and pw + 1 of the textbook values; the 4x4
# grid also guards the cut, without which it takes seconds and a gigabyte
@pytest.mark.parametrize("g,tw,pw,max_vertices", [
    *[(k(n), n, n, 8) for n in range(1, 9)],
    *[(cycle_graph(n), 3, 3, 8) for n in range(3, 9)],
    *[(path_graph(n), 2, 2, 8) for n in range(2, 9)],
    (_grid(3), 4, 4, 9),
    (PETERSEN, 5, 6, 10),
    (_grid(4), 5, 5, 16),
], ids=[*(f"K{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        *(f"P{n}" for n in range(2, 9)), "grid3", "petersen", "grid4"])
def test_tree_and_path_width_closed_forms(g, tw, pw, max_vertices):
    got_tw, tdec = exact_treewidth(g, max_vertices)
    got_pw, pdec = exact_pathwidth(g, max_vertices)
    assert (got_tw, got_pw) == (tw, pw)
    assert validate_tree_dec(tdec, g) and validate_path_dec(pdec, g)


# ---------------------------------------------------------------------------
# The width cache: tree and path width from the search's value, no witness.


def _exact_widths(g: Graph) -> tuple:
    return exact_treewidth(g)[0], exact_pathwidth(g)[0], exact_branchwidth(g)[0]


def test_width_cache_matches_the_exact_oracles():
    rng = random.Random(28)
    graphs = enumerate_graphs(5, 7)
    assert len(graphs) == 48
    graphs += [random_graph(rng, max_v=6, max_e=7, multigraph=True) for _ in range(40)]
    ends = [[frozenset(g.ends(e)) for e in g.edges] for g in graphs]
    assert any(len(es) > len(set(es)) for es in ends)  # parallel edges
    assert any(len(x) == 1 for es in ends for x in es)  # a loop
    cache = WidthCache()
    for g in graphs:
        assert cache.widths(g) == _exact_widths(g), g


def test_width_cache_miss_builds_no_witness(monkeypatch):
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call
    for name in ("tree_from_recursive", "path_from_recursive"):
        monkeypatch.setattr(oracles_mod, name, counted(name, getattr(oracles_mod, name)))
    monkeypatch.setattr(Graph, "subgraph", counted("subgraph", Graph.subgraph))
    for g in (k(4), cycle_graph(6), Graph(range(3), {0: {0}, 1: {0, 1}, 2: {0, 1}, 3: {1, 2}})):
        calls.clear()
        WidthCache().widths(g)
        assert calls == []
        exact_treewidth(g)
        exact_pathwidth(g)
        assert {"tree_from_recursive", "path_from_recursive", "subgraph"} <= set(calls)


def test_width_cache_refuses_as_the_tree_oracle(monkeypatch):
    # the same text, from the search's own cap: the cache calls neither oracle
    big = path_graph(9)
    with pytest.raises(OracleError) as want:
        exact_treewidth(big)
    called = []
    for name in ("exact_treewidth", "exact_pathwidth"):
        monkeypatch.setattr(oracles_mod, name, lambda *args, name=name: called.append(name))
    with pytest.raises(OracleError) as got:
        WidthCache().widths(big)
    assert str(got.value) == str(want.value) == "refusing tree-width search on 9 > 8 vertices"
    assert called == []
