import dataclasses
import hashlib
import json
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    deep_right_tree_term,
    k,
    path_graph,
    random_cospan,
    random_graph,
    reference_evaluate,
    reference_m_to_bdec,
    reference_m_to_pdec,
    reference_m_to_tdec,
)
from mwidth import (
    BoundViolation,
    BranchDec,
    DecompositionError,
    FiniteMap,
    Graph,
    GraphMorphism,
    PathDec,
    Signature,
    SourcedGraph,
    SymbolicSignature,
    TermError,
    TranslationError,
    TreeDec,
    b_to_mdec,
    branch_dec_width,
    branch_from_recursive,
    branch_to_recursive,
    check_glueing,
    check_theorems,
    copy_mdec,
    cospan_iso_eq,
    decomposition_to_json,
    epi_to_dec_path,
    epi_to_dec_tree,
    epis_from_composition,
    evaluate,
    exact_branchwidth,
    exact_pathwidth,
    exact_treewidth,
    from_sourced,
    is_path,
    is_right_tree,
    m_to_bdec,
    m_to_pdec,
    m_to_tdec,
    p_to_mdec,
    path_to_recursive,
    rec_branch_width,
    rec_path_width,
    rec_tree_width,
    t_to_mdec,
    tree_to_recursive,
    validate_branch_dec,
    validate_rec_branch_dec,
    validate_rec_path_dec,
    validate_rec_tree_dec,
    width,
)
from mwidth import cospan as cs
from mwidth import decomp as decomp_module
from mwidth import graph as graph_module
from mwidth import terms as tm
from mwidth import translate as translate_module
from mwidth.decomp import (
    RecBranchLeaf, RecBranchEmpty, RecBranchNode, RecPathCons, RecTreeNode, REC_TREE_EMPTY, _bags,
)
from mwidth.oracles import optimal_rec_path_dec, optimal_rec_tree_dec
from mwidth.terms import Compose, Leaf, Tensor, tree_from_json, tree_to_json
from mwidth.translate import _KINDS, _optimal


# ---------------------------------------------------------------------------
# epis_from_composition.


def test_epis_injective_on_edge_edge():
    w = epis_from_composition(cs.edge(), cs.edge())
    for a in (w.alpha1, w.alpha2):
        assert len(set(a.vmap.values())) == len(a.vmap)


def test_epis_identify_only_boundary_vertices():
    # copying then merging collapses the two right-boundary targets
    g1 = cs.copy(1)
    g2 = cs.merge(1)
    w = epis_from_composition(g1, g2)
    merged = {}
    for v, t in w.alpha2.vmap.items():
        merged.setdefault(t, []).append(v)
    for group in merged.values():
        if len(group) > 1:
            assert set(group) <= set(g2.left)


def test_epis_disjoint_boundary_images_stay_injective():
    g1 = cs.tensor(cs.edge(), cs.edge())  # right boundary hits distinct vertices
    g2 = cs.tensor(cs.edge(), cs.edge())
    w = epis_from_composition(g1, g2)
    assert len(set(w.alpha1.vmap.values())) == len(w.alpha1.vmap)


# ---------------------------------------------------------------------------
# epi_to_dec_tree / epi_to_dec_path.


def _identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})


def test_epi_identity_keeps_decomposition(p3):
    sg = SourcedGraph(p3)
    _, rec = optimal_rec_tree_dec(sg)
    out = epi_to_dec_tree(_identity_morphism(p3), rec)
    assert out == rec


def test_epi_collapse_within_component():
    # identify the two endpoints of one bag: the last edge becomes a loop
    g = path_graph(4)
    sg = SourcedGraph(g)
    dec = TreeDec(path_graph(3), {0: {0, 1}, 1: {1, 2}, 2: {2, 3}})
    rec = tree_to_recursive(dec, sg, 0)
    h = Graph(range(3), {0: {0, 1}, 1: {1, 2}, 2: {2}})
    alpha = GraphMorphism(g, h, {0: 0, 1: 1, 2: 2, 3: 2},
                          {0: 0, 1: 1, 2: 2})
    out = epi_to_dec_tree(alpha, rec)
    assert validate_rec_tree_dec(out, SourcedGraph(h))
    assert rec_tree_width(out) <= rec_tree_width(rec)


def test_epi_rejects_identifications_across_bags():
    g = path_graph(4)
    rec = tree_to_recursive(
        TreeDec(path_graph(3), {0: {0, 1}, 1: {1, 2}, 2: {2, 3}}),
        SourcedGraph(g), 0)
    h = Graph.from_edge_pairs(range(3), [(0, 1), (1, 2), (2, 0)])
    alpha = GraphMorphism(g, h, {0: 0, 1: 1, 2: 2, 3: 0}, {0: 0, 1: 1, 2: 2})
    with pytest.raises(TranslationError) as err:
        epi_to_dec_tree(alpha, rec)
    assert "0" in str(err.value) and "3" in str(err.value)


def test_epi_random_never_increases_width():
    rng = random.Random(17)
    done = 0
    while done < 25:
        g = random_graph(rng, max_v=5, max_e=5, multigraph=False)
        if len(g.vertices) < 2:
            continue
        sg = SourcedGraph(g)
        _, rec = optimal_rec_tree_dec(sg)
        bags = []

        def collect(t):
            if isinstance(t, RecTreeNode):
                bags.append(t.bag)
                collect(t.left)
                collect(t.right)

        collect(rec)
        pairs = [(v, w) for b in bags for v in sorted(b) for w in sorted(b) if v < w]
        if not pairs:
            continue
        v, wv = rng.choice(pairs)
        target_vs = sorted(g.vertices - {wv})
        relab = {u: u for u in target_vs}
        relab[wv] = v
        h = Graph(target_vs, {e: {relab[u] for u in g.ends(e)} for e in g.edges})
        alpha = GraphMorphism(g, h, relab, {e: e for e in g.edges})
        out = epi_to_dec_tree(alpha, rec)
        assert validate_rec_tree_dec(out, SourcedGraph(h))
        assert rec_tree_width(out) <= rec_tree_width(rec)
        done += 1


def test_epi_to_dec_path_identity_and_collapse(p3):
    sg = SourcedGraph(p3)
    _, rec = optimal_rec_path_dec(sg)
    assert epi_to_dec_path(_identity_morphism(p3), rec) == rec
    h = Graph(range(2), {0: {0, 1}, 1: {1}})
    alpha = GraphMorphism(p3, h, {0: 0, 1: 1, 2: 1}, {0: 0, 1: 1})
    out = epi_to_dec_path(alpha, rec)
    assert validate_rec_path_dec(out, SourcedGraph(h))
    assert rec_path_width(out) <= rec_path_width(rec)


# ---------------------------------------------------------------------------
# copy_mdec.


def test_copy_mdec_trivial_case():
    sig = SymbolicSignature()
    sig.add("f", 2, 1, 2)
    d = Leaf("f")
    assert copy_mdec(d, sig, 1, [], 1) is d


@pytest.mark.parametrize("n", range(1, 6))
def test_copy_mdec_delta(n):
    sig = Signature()
    d = sig.leaf(cs.identity(n))
    out = copy_mdec(d, sig, 0, [1] * n, 0)
    assert width(out, sig) <= n + 1
    assert cospan_iso_eq(evaluate(out, sig), cs.copy(n))


def test_copy_mdec_symbolic_bound_and_cospan_evaluation():
    # symbolic width bound for a weight-three atom with two copied wires
    ssig = SymbolicSignature()
    ssig.add("f", 4, 1, 3)  # y=1, two middle wires, z=1
    sym = copy_mdec(Leaf("f"), ssig, 1, [1, 1], 1)
    assert width(sym, ssig) <= max(3, 1 + 1 + 3 * 1)
    # the same shape in cospans: f wires three vertices, one reused
    sig = Signature()
    f = cs.wiring(3, [0, 1, 2, 0], [1])
    d = sig.leaf(f)
    out = copy_mdec(d, sig, 1, [1, 1], 1)
    gamma = cs.compose(
        cs.tensor(cs.tensor(cs.identity(1), cs.copy(2)), cs.identity(1)),
        cs.compose(cs.tensor(cs.identity(3), cs.swap(2, 1)),
                   cs.tensor(f, cs.identity(2))))
    assert cospan_iso_eq(evaluate(out, sig), gamma)


# ---------------------------------------------------------------------------
# tree translations.


def test_t_to_mdec_single_bag_is_leaf(k3):
    sg = SourcedGraph(k3)
    rec = tree_to_recursive(TreeDec(Graph.discrete([0]), {0: {0, 1, 2}}), sg, 0)
    term, sig = t_to_mdec(rec, sg)
    assert isinstance(term, Leaf)
    assert width(term, sig) == 3


def test_t_to_mdec_structure_and_bounds(p3, k3, k4):
    for g in (p3, k3, k4):
        for sources in (frozenset(), frozenset({0})):
            sg = SourcedGraph(g, sources)
            w, rec = optimal_rec_tree_dec(sg)
            term, sig = t_to_mdec(rec, sg)
            assert is_right_tree(term)
            assert width(term, sig) <= 2 * w
            assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))


def test_m_to_tdec_leaf_and_tensor():
    sig = Signature()
    g = cs.from_sourced(SourcedGraph(k(3), {0}))
    d = sig.leaf(g)
    rec = m_to_tdec(d, sig)
    assert isinstance(rec, RecTreeNode)
    assert rec.left is REC_TREE_EMPTY and rec.right is REC_TREE_EMPTY
    assert rec.bag == g.apex.vertices
    from mwidth.terms import Tensor
    d2 = Tensor(sig.leaf(cs.of_graph(path_graph(2))), sig.leaf(cs.of_graph(k(3))))
    rec2 = m_to_tdec(d2, sig)
    assert isinstance(rec2, RecTreeNode) and rec2.bag == frozenset()
    assert validate_rec_tree_dec(rec2, rec2.graph)


def test_m_to_tdec_rejects_bad_shapes():
    sig = Signature()
    from mwidth.terms import Compose
    left_heavy = Compose(
        Compose(sig.leaf(cs.edge()), 1, sig.leaf(cs.edge())), 1,
        sig.leaf(cs.delete(1)))
    with pytest.raises(TranslationError):
        m_to_tdec(left_heavy, sig)
    open_right = sig.leaf(cs.edge())
    with pytest.raises(TranslationError):
        m_to_tdec(open_right, sig)


def test_m_to_tdec_bound_on_emitted_terms(p3, k3):
    for g in (p3, k3):
        sg = SourcedGraph(g)
        w, rec = optimal_rec_tree_dec(sg)
        term, sig = t_to_mdec(rec, sg)
        back = m_to_tdec(term, sig)
        bound = max(width(term, sig), 0)
        assert rec_tree_width(back) <= bound
        assert exact_treewidth(g)[0] <= rec_tree_width(back)


# ---------------------------------------------------------------------------
# path translations.


def test_p_to_mdec_exact_width(p3):
    sg = SourcedGraph(p3)
    rec = path_to_recursive(PathDec([{0, 1}, {1, 2}]), sg)
    term, sig = p_to_mdec(rec, sg)
    assert is_path(term)
    assert width(term, sig) == 2
    assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))
    one_bag = path_to_recursive(PathDec([{0, 1, 2}]), sg)
    term1, sig1 = p_to_mdec(one_bag, sg)
    assert isinstance(term1, Leaf) and width(term1, sig1) == 3


def test_m_to_pdec_round_trip(p3, k3):
    for g in (p3, k3):
        sg = SourcedGraph(g)
        pw, _ = exact_pathwidth(g)
        w, rec = optimal_rec_path_dec(sg)
        term, sig = p_to_mdec(rec, sg)
        back = m_to_pdec(term, sig)
        assert validate_rec_path_dec(back, back.graph if hasattr(back, "graph") else sg)
        assert rec_path_width(back) <= width(term, sig) == pw


# ---------------------------------------------------------------------------
# branch translations.


def test_b_to_mdec_single_edge():
    k2 = path_graph(2)
    for sources in (frozenset(), frozenset({0}), frozenset({0, 1})):
        sg = SourcedGraph(k2, sources)
        rec = RecBranchLeaf(sg)
        term, sig = b_to_mdec(rec, sg)
        assert width(term, sig) <= max(len(sources), 1) + 1
        assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))


def test_b_to_mdec_k3_bound(k3):
    sg = SourcedGraph(k3)
    bw, bdec = exact_branchwidth(k3)
    rec = branch_to_recursive(bdec, sg)
    assert rec_branch_width(rec) == 2
    term, sig = b_to_mdec(rec, sg)
    assert width(term, sig) <= 3
    assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))


def test_b_to_mdec_isolated_vertices():
    g = Graph.from_edge_pairs(range(4), [(0, 1)])  # an edge plus two loose points
    sg = SourcedGraph(g, {2})
    rec = RecBranchLeaf(sg)
    term, sig = b_to_mdec(rec, sg)
    assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))
    assert width(term, sig) <= max(rec_branch_width(rec), 1) + 1


def test_m_to_bdec_leaf_cases():
    sig = Signature()
    empty_leaf = sig.leaf(cs.of_graph(Graph.discrete([0, 1])))
    out = m_to_bdec(empty_leaf, sig)
    assert isinstance(out, RecBranchEmpty)
    assert rec_branch_width(out) == 0
    one = sig.leaf(cs.of_graph(path_graph(2)))
    out1 = m_to_bdec(one, sig)
    assert isinstance(out1, RecBranchLeaf)
    sig2 = Signature()
    multi = sig2.leaf(cs.of_graph(k(3)))
    out3 = m_to_bdec(multi, sig2)
    assert validate_rec_branch_dec(out3, out3.graph)
    assert rec_branch_width(out3) <= 2 * 3


def test_m_to_bdec_glue_map():
    sig = Signature()
    e = sig.leaf(cs.edge())
    h = evaluate(e, sig)
    # identifying the two boundary-image vertices is allowed
    phi = FiniteMap({0: 0, 1: 0}, frozenset({0}))
    out = m_to_bdec(e, sig, phi)
    assert isinstance(out, RecBranchLeaf)
    assert out.graph.graph.is_loop(min(out.graph.graph.edges))
    # a map merging an interior vertex is rejected with the pair named
    sig3 = Signature()
    path_leaf = sig3.leaf(cs.of_graph(path_graph(3)))
    bad = FiniteMap({0: 0, 1: 1, 2: 0}, frozenset({0, 1}))
    with pytest.raises(TranslationError) as err:
        m_to_bdec(path_leaf, sig3, bad)
    assert "0" in str(err.value) and "2" in str(err.value)
    assert check_glueing(cs.of_graph(path_graph(3)), bad) is not None


def test_m_to_bdec_on_emitted_terms(k3, p3):
    for g in (k3, p3, Graph.from_edge_pairs(range(4), [(0, 1), (2, 3)])):
        sg = SourcedGraph(g)
        _, bdec = exact_branchwidth(g)
        rec = branch_to_recursive(bdec, sg)
        term, sig = b_to_mdec(rec, sg)
        back = m_to_bdec(term, sig)
        target = back.graph if not isinstance(back, RecBranchEmpty) else None
        if target is not None:
            assert validate_rec_branch_dec(back, target)
        assert rec_branch_width(back) <= 2 * max(width(term, sig), 0)


# ---------------------------------------------------------------------------
# check_theorems.


def test_check_theorems_k3(k3):
    rep = check_theorems(k3)
    assert (rep.tw, rep.pw, rep.bw) == (3, 3, 2)
    assert rep.mwd_interval() == (1, 3)
    assert rep.mtwd_interval() == (3, 6)
    assert rep.mpwd == 3
    assert rep.ok


def test_check_theorems_single_edge_reports_branch_gap():
    rep = check_theorems(path_graph(2))
    assert (rep.tw, rep.pw, rep.bw) == (2, 2, 0)
    assert rep.mpwd == 2
    failed = [c.name for c in rep.checks if not c.ok]
    # the branch upper bound is unattainable here: any term for a graph
    # with a proper edge has width two, but bw + 1 is one
    assert failed == ["branch-upper"]
    # the detail names the guaranteed floor, telling the gap from a broken bound
    upper = next(c for c in rep.checks if c.name == "branch-upper")
    assert upper.detail == "mwd_upper=2 vs bw+1=1 (bw=0 floor: guaranteed max(bw,1)+1=2)"


def test_check_theorems_empty_graph():
    rep = check_theorems(Graph.empty())
    assert (rep.tw, rep.pw, rep.bw) == (0, 0, 0)
    assert rep.mwd_interval() == (0, 0)
    assert rep.ok


def test_check_theorems_takes_the_branch_term_over_a_wider_search():
    # with no budget the shape="any" search of P5 stops at width 5, so the
    # branch translation's term of width 3 is the searched term
    p5 = path_graph(5)
    searched = tm.bounded_mwd_search(cs.of_graph(p5), shape="any", budget=0,
                                     seed_translations=False)
    assert searched.width == 5 and not searched.exact
    rep = check_theorems(p5, budget=0)
    assert rep.mwd_search == rep.mwd_upper == 3
    assert rep.mwd_search_exact is False
    assert all(c.ok for c in rep.checks)


@pytest.mark.parametrize("reader", ["m_to_tdec", "m_to_pdec"])
def test_check_theorems_validates_its_certificates(monkeypatch, reader):
    # a certificate whose root graph has lost an edge no longer holds its
    # children's edges: its width must not be read as a lower bound
    real = getattr(translate_module, reader)

    def lossy(d, sig):
        t = real(d, sig)
        g = t.graph.graph
        root = g._part(g.vertices, g.edges - {min(g.edges)})
        return dataclasses.replace(t, graph=SourcedGraph(root, t.graph.sources))

    monkeypatch.setattr(translate_module, reader, lossy)
    with pytest.raises(DecompositionError):
        check_theorems(cycle_graph(4))


def test_report_json_shape(k3):
    data = check_theorems(k3).to_json()
    assert data["widths"] == {"tw": 3, "pw": 3, "bw": 2}
    assert data["bounds"]["mtwd"] == [3, 6]
    assert data["bounds"]["mpwd"] == 3
    assert data["bounds"]["mtwd_lower_cert"] == 3
    assert data["bounds"]["mwd_lower_cert"] == 2
    assert data["bounds"]["mwd_search_exact"] is True
    assert {c["name"] for c in data["checks"]} >= {"tree-upper", "path-equality"}
    assert "tree_term" in data["witnesses"]


def test_translation_bounds_exhaustive_small():
    # every valid tree decomposition of every <=3-vertex graph, pushed
    # through the term translations and back, stays within its bounds
    from conftest import all_tree_decs, all_path_decs
    from mwidth import enumerate_graphs
    for g in enumerate_graphs(3):
        for dec in all_tree_decs(g):
            bags = dec.bag_map()
            root = min(bags)
            sg = SourcedGraph(g)
            rec = tree_to_recursive(dec, sg, root)
            w = rec_tree_width(rec, sg)
            term, sig = t_to_mdec(rec, sg)
            assert width(term, sig) <= 2 * w
            assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))
            back = m_to_tdec(term, sig)
            assert rec_tree_width(back) <= max(width(term, sig), 0)
        for dec in all_path_decs(g):
            sg = SourcedGraph(g)
            rec = path_to_recursive(dec, sg)
            w = rec_path_width(rec, sg)
            term, sig = p_to_mdec(rec, sg)
            assert width(term, sig) == w
            back = m_to_pdec(term, sig)
            assert rec_path_width(back) <= w


# ---------------------------------------------------------------------------
# term -> decomposition translations: pinned outputs, properties, growth.

# sha256 (first 16 hex digits) of the sorted-key JSON of m_to_<kind> on the
# term of the oracle's witness, and the width of that decomposition
M_TO_PINS = {
    ("P4", (), "tree"): ("66b6ddf138d90624", 2),
    ("P4", (), "path"): ("2b36f8b343d08324", 2),
    ("P4", (), "branch"): ("edd7f1915ef17054", 2),
    ("P4", (0,), "tree"): ("fc0cdefd77ee1a54", 2),
    ("P4", (0,), "path"): ("98780d48227354f6", 2),
    ("P4", (0,), "branch"): ("d302ed1d401c4cb4", 2),
    ("C5", (), "tree"): ("0ab6468da49a8f5e", 3),
    ("C5", (), "path"): ("eee94f62aaadd89c", 3),
    ("C5", (), "branch"): ("8787b8a2b1c90bc3", 3),
    ("C5", (0,), "tree"): ("fe7e9ee7306b67b3", 3),
    ("C5", (0,), "path"): ("02f39ffcad6ac3ec", 3),
    ("C5", (0,), "branch"): ("c58fdb52c8af6212", 4),
    ("K4", (), "tree"): ("985c7b06271de76a", 4),
    ("K4", (), "path"): ("0348d690860e0532", 4),
    ("K4", (), "branch"): ("a8224a045bd0be75", 4),
    ("K4", (0,), "tree"): ("78b63577971a8fb6", 4),
    ("K4", (0,), "path"): ("cb9e45084a89ecbb", 4),
    ("K4", (0,), "branch"): ("b70914f20ac22616", 4),
}
NAMED = {"P4": path_graph(4), "C5": cycle_graph(5), "K4": k(4)}


@pytest.mark.parametrize("name,sources,kind", sorted(M_TO_PINS),
                         ids=[f"{n}-{set(s) or '{}'}-{k}" for n, s, k in sorted(M_TO_PINS)])
def test_term_to_decomposition_golden_pins(name, sources, kind):
    _, term, sig, _ = _optimal(kind, SourcedGraph(NAMED[name], sources))
    out = _KINDS[kind].from_term(term, sig)
    text = json.dumps(decomposition_to_json(out), sort_keys=True, separators=(",", ":"))
    got = (hashlib.sha256(text.encode()).hexdigest()[:16], _KINDS[kind].rec_width(out))
    assert got == M_TO_PINS[name, sources, kind]


@st.composite
def small_sourced_graphs(draw):
    """Up to 5 vertices with sparse ids, up to 5 edges (loops and parallel
    edges allowed) and any set of sources."""
    vs = draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
    if not vs:
        return SourcedGraph(Graph.empty())
    vertex = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    return SourcedGraph(Graph.from_edge_pairs(vs, pairs), draw(st.sets(vertex)))


@settings(derandomize=True, deadline=None)
@given(small_sourced_graphs())
def test_terms_translate_back_to_valid_decompositions_within_bounds(sg):
    rec_tree = optimal_rec_tree_dec(sg)[1]
    rec_path = optimal_rec_path_dec(sg)[1]
    rec_branch = branch_to_recursive(exact_branchwidth(sg.graph)[1], sg)
    for kind, rec in (("tree", rec_tree), ("path", rec_path), ("branch", rec_branch)):
        term, sig, _ = _KINDS[kind].term(rec, sg)
        back = _KINDS[kind].from_term(term, sig)
        h = evaluate(term, sig)
        w = width(term, sig)
        if kind == "branch":  # through the identity glue map
            target = SourcedGraph(h.apex, h.left_image() | h.right_image())
            bound = 2 * max(w, h.left_arity, h.right_arity)
        else:
            target = SourcedGraph(h.apex, h.left_image())
            bound = max(w, len(h.left_image())) if kind == "tree" else w
        assert _KINDS[kind].rec_validate(back, target), kind
        assert _KINDS[kind].rec_width(back) <= bound, kind


def _caterpillar(m: int) -> BranchDec:
    """Branch decomposition of edges 0..m-1 (m >= 3) on a cubic caterpillar:
    leaf i holds edge i, spine node m + j - 1 is the j-th of m - 2."""
    spine = [m + j for j in range(m - 2)]
    edges = [(spine[0], 0), (spine[0], 1), (spine[-1], m - 1)]
    edges += [(a, b) for a, b in zip(spine, spine[1:])]
    edges += [(spine[j], j + 1) for j in range(1, m - 2)]
    return BranchDec(Graph.from_edge_pairs(range(2 * m - 2), edges), {i: i for i in range(m)})


def test_branch_walkers_over_a_deep_caterpillar():
    # P_n's caterpillar is rooted at its middle edge, so each half of its
    # spine becomes a chain of nodes about n / 2 deep.  The recursion limit
    # is lowered to keep n small
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        n = 4 * sys.getrecursionlimit()
        sg = SourcedGraph(path_graph(n))
        dec = _caterpillar(n - 1)
        assert validate_branch_dec(dec, sg.graph)
        assert branch_dec_width(dec, sg.graph) == 2
        rec = branch_to_recursive(dec, sg)
        assert rec_branch_width(rec, sg) == 2
        back = branch_from_recursive(rec)
    finally:
        sys.setrecursionlimit(limit)
    deepest, stack = 0, [(rec, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, RecBranchNode):
            stack += (node.left, depth + 1), (node.right, depth + 1)
    assert deepest > n // 2 - 5
    assert len(back.leaf_map) == n - 1 and branch_dec_width(back, sg.graph) == 2


def _graphs_built(monkeypatch, fn, *args) -> int:
    built = []
    init = graph_module.Graph.__init__

    def counting(self, *a, **kw):
        built.append(None)
        init(self, *a, **kw)

    monkeypatch.setattr(graph_module.Graph, "__init__", counting)
    fn(*args)
    monkeypatch.setattr(graph_module.Graph, "__init__", init)
    return len(built)


def _path_terms(n: int) -> dict:
    """Terms for the path P_n from its chain tree, path and caterpillar
    branch decompositions."""
    sg = SourcedGraph(path_graph(n))
    chain = [{i, i + 1} for i in range(n - 1)]
    tdec = TreeDec(path_graph(n - 1), dict(enumerate(chain)))
    return {"tree": t_to_mdec(tree_to_recursive(tdec, sg, 0), sg),
            "path": p_to_mdec(path_to_recursive(PathDec(chain), sg), sg),
            "branch": b_to_mdec(branch_to_recursive(_caterpillar(n - 1), sg), sg)}


def test_term_to_decomposition_translations_grow_linearly(monkeypatch):
    # each node is evaluated and pushed once, so doubling the path about
    # doubles the graphs built (a quadratic translation gives about 4x)
    terms = {n: _path_terms(n) for n in (40, 80)}
    for kind, how in (("tree", m_to_tdec), ("path", m_to_pdec), ("branch", m_to_bdec),
                      ("tree", m_to_bdec)):
        built = [_graphs_built(monkeypatch, how, *terms[n][kind]) for n in (40, 80)]
        assert built[1] / built[0] <= 2.5, (kind, how.__name__, built)


def _dumped(dec) -> str:
    return json.dumps(decomposition_to_json(dec), sort_keys=True)


def test_term_to_decomposition_glues_the_term_once(monkeypatch):
    # one union-find pass evaluates the whole term: no pushout, no coproduct
    calls, pushouts = [], []
    real = tm._glue
    monkeypatch.setattr(tm, "_glue", lambda *a: calls.append(None) or real(*a))
    for name in ("graph_pushout", "graph_coproduct"):
        monkeypatch.setattr(cs, name, lambda *a: pushouts.append(None))
    for kind, how in (("tree", m_to_tdec), ("path", m_to_pdec), ("branch", m_to_bdec)):
        _, term, sig, _ = _optimal(kind, SourcedGraph(cycle_graph(5), {0}))
        calls.clear()
        how(term, sig)
        assert len(calls) == 1 and not pushouts, kind


def _fault_chains(sig: Signature, e: Leaf):
    """Right combs of five leaves with two or three faults at distinct
    paths: an unknown atom, an atom with no cospan, a cut that does not
    match (the composition at depth i has cut 2)."""
    bad_leaves = {"unknown": Leaf("nope"), "unbound": Leaf("unbound")}
    for kinds in list(permutations(["unknown", "unbound", "cut"], 2)) + \
            list(permutations(["unknown", "unbound", "cut"], 3)):
        for places in permutations(range(5), len(kinds)):
            leaves, cuts = [e] * 5, [1] * 5  # the comb has no fifth composition
            for kind, i in zip(kinds, places):
                if kind == "cut":
                    cuts[i] = 2
                else:
                    leaves[i] = bad_leaves[kind]
            if cuts[4] == 1:
                term = leaves[4]
                for i in reversed(range(4)):
                    term = Compose(leaves[i], cuts[i], term)
                yield term


def test_first_fault_is_the_nested_folds_everywhere():
    # the arity and cut checks run in post-order before any glueing, so
    # evaluate and every term -> decomposition translation raise the
    # reference fold's first error
    sig = Signature()
    e = sig.leaf(cs.edge())
    sig.add("unbound", 1, 1, 2)
    cases = list(_fault_chains(sig, e))
    assert len(cases) > 100
    cases += [Tensor(a, b) for a, b in zip(cases[::7], cases[3::7])]
    for term in cases:
        with pytest.raises(TermError) as want:
            reference_evaluate(term, sig)
        shaped = (evaluate, m_to_bdec) + ((m_to_tdec, m_to_pdec) if is_path(term) else ())
        for how in shaped:
            with pytest.raises(TermError) as got:
                how(term, sig)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _reassociated(d, rng: random.Random):
    """The path term `d` with its compositions regrouped at random."""
    leaves, cuts = [], []

    def flatten(t):
        if isinstance(t, Leaf):
            leaves.append(t)
        else:
            flatten(t.left)
            cuts.append(t.cut)
            flatten(t.right)

    def group(lo: int, hi: int):
        if lo == hi:
            return leaves[lo]
        k = rng.randint(lo, hi - 1)
        return Compose(group(lo, k), cuts[k], group(k + 1, hi))

    flatten(d)
    return group(0, len(leaves) - 1)


def test_m_to_pdec_ignores_how_the_term_is_associated():
    rng = random.Random(11)
    for _ in range(12):
        g = random_graph(rng, max_v=6, max_e=7)
        sg = SourcedGraph(g, {v for v in g.vertices if rng.random() < 0.3})
        term, sig = p_to_mdec(optimal_rec_path_dec(sg)[1], sg)
        want = _dumped(m_to_pdec(term, sig))
        for _ in range(3):
            assert _dumped(m_to_pdec(_reassociated(term, rng), sig)) == want


def test_term_to_decomposition_on_a_shared_subterm():
    # the same subterm object at two places of a term gets different maps
    # into the root apex at each; a structural copy must give the same output
    for kind, how, join in (("tree", m_to_tdec, lambda a, b: Tensor(a, b)),
                            ("path", m_to_pdec, lambda a, b: Compose(a, 0, b)),
                            ("branch", m_to_bdec, lambda a, b: Tensor(a, b)),
                            ("branch", m_to_bdec, lambda a, b: Compose(a, 0, b))):
        _, x, sig, _ = _optimal(kind, SourcedGraph(cycle_graph(4)))
        shared = _dumped(how(join(x, x), sig))
        assert shared == _dumped(how(join(x, tree_from_json(tree_to_json(x))), sig)), kind


def test_m_to_pdec_of_a_deep_path_term_needs_no_recursion():
    # 3,000 edges composed one by one and closed: a 3,001-node path
    # decomposition, deeper than the recursion limit
    sig = Signature()
    edge, close = sig.leaf(cs.edge()), sig.leaf(cs.delete(1))
    term = close
    for _ in range(3000):
        term = Compose(edge, 1, term)
    t = m_to_pdec(term, sig)
    assert isinstance(t, RecPathCons)
    assert max(map(len, _bags(t))) == 2 and len(_bags(t)) == 3001


def test_m_to_tdec_of_a_deep_right_tree_term_needs_no_recursion():
    # each composition puts its edge on the left and the rest of the chain
    # on the right: a chain of 3,000 nodes, deeper than the recursion limit
    term, sig = deep_right_tree_term(3000)
    t = m_to_tdec(term, sig)
    assert isinstance(t, RecTreeNode)
    assert max(map(len, _bags(t))) == 2 and len(_bags(t)) == 6001


def test_m_to_bdec_of_a_deep_compose_chain_needs_no_recursion():
    # one node per composition, its edge's leaf on the left
    term, sig = deep_right_tree_term(3000)
    t = m_to_bdec(term, sig)
    depth = 0
    while isinstance(t, RecBranchNode):
        assert isinstance(t.left, RecBranchLeaf) and len(t.left.graph.edges) == 1
        t, depth = t.right, depth + 1
    # the closing leaf has a vertex and no edge
    assert depth == 3000 and isinstance(t, RecBranchEmpty) and len(t.graph.vertices) == 1


def _glue_map(rng: random.Random, h: cs.Cospan) -> FiniteMap:
    """A glue map on the apex of `h` that sends each boundary vertex to one
    of at most half of them, and every other vertex to itself."""
    boundary = sorted(h.left_image() | h.right_image())
    pool = rng.sample(boundary, (len(boundary) + 1) // 2)
    mapping = {v: v for v in h.apex.vertices}
    mapping.update((v, rng.choice(pool)) for v in boundary)
    return FiniteMap(mapping, mapping.values())


def _kind_terms(rng: random.Random):
    """The t/p/b_to_mdec terms of seeded random multigraphs with sources,
    each with its kind."""
    for _ in range(25):
        g = random_graph(rng, max_v=6, max_e=7)
        sg = SourcedGraph(g, {v for v in g.vertices if rng.random() < 0.4})
        yield ("tree", *t_to_mdec(optimal_rec_tree_dec(sg)[1], sg))
        yield ("path", *p_to_mdec(optimal_rec_path_dec(sg)[1], sg))
        yield ("branch", *b_to_mdec(branch_to_recursive(exact_branchwidth(g)[1], sg), sg))


def _same(got, want) -> bool:
    return got == want and _dumped(got) == _dumped(want)


def test_term_readers_match_the_per_node_reference():
    # a node's part built from its children's parts is the part its term
    # node's global ids give
    readers = {"tree": [(m_to_tdec, reference_m_to_tdec)],
               "path": [(m_to_pdec, reference_m_to_pdec)], "branch": []}
    for kind, term, sig in _kind_terms(random.Random(25)):
        for how, ref in readers[kind] + [(m_to_bdec, reference_m_to_bdec)]:
            assert _same(how(term, sig), ref(term, sig)), (kind, how.__name__)


def test_m_to_bdec_through_a_merging_glue_map_matches_the_reference():
    rng = random.Random(26)
    terms = [(term, sig) for _, term, sig in _kind_terms(rng)]
    for _ in range(60):  # open terms: random cospans tensored and composed
        sig = Signature()
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        x, y = sig.leaf(random_cospan(rng, a, b)), sig.leaf(random_cospan(rng, b, c))
        z, w = (sig.leaf(random_cospan(rng, c, rng.randint(0, 2))),
                sig.leaf(random_cospan(rng, rng.randint(0, 2), rng.randint(0, 2))))
        terms.append((Tensor(Compose(x, b, Compose(y, c, z)), w), sig))
    merged = 0
    for term, sig in terms:
        phi = _glue_map(rng, evaluate(term, sig))
        merged += len(phi.image()) < len(phi.domain)
        assert _same(m_to_bdec(term, sig, phi), reference_m_to_bdec(term, sig, phi))
    assert merged >= 40, merged


def test_p_to_mdec_of_a_1500_deep_chain_keeps_its_atoms(long_path_chain):
    # one atom per node, named in chain order, each holding its node's bag,
    # and the last holding the last node's whole graph
    sg, dec, t = long_path_chain
    term, sig = p_to_mdec(t, sg)
    assert width(term, sig) == 2 and is_path(term)
    atoms = []
    while isinstance(term, Compose):
        assert term.cut == 1
        atoms.append(term.left.atom)
        term = term.right
    atoms.append(term.atom)
    assert atoms == [f"a{i}" for i in range(1500)]
    assert all(sig.atom(a).cospan.apex.vertices == b for a, b in zip(atoms, dec.bags))


def test_epi_to_dec_path_of_a_1500_deep_chain(long_path_chain):
    # identify the ends of the first edge: it becomes a loop at vertex 0
    sg, _, t = long_path_chain
    g = sg.graph
    vmap = {v: 0 if v == 1 else v for v in g.vertices}
    h = Graph(g.vertices - {1}, {e: {vmap[v] for v in g.ends(e)} for e in g.edges})
    out = epi_to_dec_path(GraphMorphism(g, h, vmap, {e: e for e in g.edges}), t)
    assert rec_path_width(out, SourcedGraph(h)) == 2
    assert _bags(out) == [{vmap[v] for v in b} for b in _bags(t)]


def test_m_to_bdec_of_one_leaf_holding_a_long_path():
    # the left comb splits the 1,499 edges off in id order, one per level;
    # its classic form keeps every leaf and every binary node
    g = path_graph(1500)
    sig = Signature()
    t = m_to_bdec(sig.leaf(cs.Cospan(g, (), ())), sig)
    classic = branch_from_recursive(t)
    assert len(classic.shape.vertices) == 2 * 1499 - 1
    assert sorted(classic.leaf_table().values()) == sorted(g.edges)
    firsts = []
    while isinstance(t, RecBranchNode):
        assert isinstance(t.left, RecBranchLeaf)
        firsts.append(min(t.left.graph.edges))
        t = t.right
    assert isinstance(t, RecBranchLeaf) and firsts + [min(t.graph.edges)] == sorted(g.edges)


def test_t_to_mdec_of_the_p1200_chain():
    # the chain tree decomposition of P_1200 rooted at bag 0 is 1,199 nodes
    # deep; the root's atoms come first, so a0 holds the root bag
    n = 1200
    sg = SourcedGraph(path_graph(n))
    shape = Graph(range(n - 1), {i: {i, i + 1} for i in range(n - 2)})
    t = tree_to_recursive(TreeDec(shape, {i: {i, i + 1} for i in range(n - 1)}), sg, 0)
    term, sig = t_to_mdec(t, sg)
    assert is_right_tree(term) and width(term, sig) <= 2 * 2
    first = term
    while isinstance(first, Compose):
        first = first.left
    assert first.atom == "a0" and sig.atom("a0").cospan.apex.vertices == {0, 1}


def test_b_to_mdec_of_the_p1200_comb():
    # `_left_comb_branch` of P_1200 splits one edge off per level: 1,199 deep
    from mwidth.translate import _left_comb_branch

    sg = SourcedGraph(path_graph(1200))
    t = _left_comb_branch(sg)
    term, sig = b_to_mdec(t, sg)
    assert width(term, sig) <= max(rec_branch_width(t, sg), 1) + 1
    assert cospan_iso_eq(evaluate(term, sig), from_sourced(sg))


# ---------------------------------------------------------------------------
# Every width bound is a hard postcondition: patch the quantity it checks
# and it raises BoundViolation.


def _p3(kind: str) -> tuple:
    """(recursive form of the `kind` oracle's witness, graph) of P3 with no sources."""
    sg = SourcedGraph(path_graph(3))
    k = _KINDS[kind]
    return k.to_rec(k.oracle(sg.graph)[1], sg), sg


def _p3_term(kind: str) -> tuple:
    """(term, signature) that `_KINDS[kind].term` makes of `_p3(kind)`."""
    return _KINDS[kind].term(*_p3(kind))[:2]


class _Shrunk(tuple):
    """Path bags that read back one vertex each when reversed, as
    `path_to_recursive` reads them to build its nodes."""

    def __reversed__(self):
        return (frozenset(sorted(b)[:1]) for b in reversed(tuple(self)))


def _wide(mp, args):  # the width of the term a graph -> term translation built
    mp.setattr(translate_module, "_built_width", lambda sig, cut: 99)


def _narrow(mp, args):  # the width `terms._glue` gives of a term
    mp.setattr(tm, "_glue", lambda d, sig, glue=tm._glue: glue(d, sig)._replace(width=0))


def _copy_args() -> tuple:
    sig = Signature()
    return sig.leaf(cs.identity(2)), sig, 0, [1], 1


BOUNDS = {  # where: (its arguments, the call, the patch that breaks the quantity it checks)
    "t_to_mdec": (lambda: _p3("tree"), t_to_mdec, _wide),
    "p_to_mdec": (lambda: _p3("path"), p_to_mdec, _wide),
    "b_to_mdec": (lambda: _p3("branch"), b_to_mdec, _wide),
    "m_to_tdec": (lambda: _p3_term("tree"), m_to_tdec, _narrow),
    "m_to_pdec": (lambda: _p3_term("path"), m_to_pdec, _narrow),
    "m_to_bdec": (lambda: _p3_term("branch"), m_to_bdec, _narrow),
    "m_to_bdec-output": (lambda: _p3_term("branch"), m_to_bdec, lambda mp, args: mp.setattr(
        translate_module, "_left_comb_branch", RecBranchEmpty)),
    "copy_mdec": (_copy_args, copy_mdec, lambda mp, args: mp.setattr(
        translate_module, "_copy_rec", lambda d, sig, *rest: sig.leaf(cs.identity(50)))),
    "epis_from_composition": (lambda: (cs.identity(2), cs.merge(1)), epis_from_composition,
                              lambda mp, args: mp.setattr(cs.Cospan, "right_image",
                                                          lambda self: frozenset())),
    "tree_to_recursive": (
        lambda: (TreeDec(Graph.from_edge_pairs(range(3), [(0, 1), (0, 2)]),
                         {0: {1}, 1: {0, 1}, 2: {1, 2}}), SourcedGraph(path_graph(3)), 0),
        tree_to_recursive, lambda mp, args: mp.setattr(
            decomp_module, "_subtrees",
            lambda parent, value, f=decomp_module._subtrees: (f(parent, value)[0],
                                                              {v: [] for v in parent}))),
    "path_to_recursive": (lambda: (PathDec([{0, 1}, {1, 2}]), SourcedGraph(path_graph(3))),
                          path_to_recursive,
                          lambda mp, args: mp.setitem(vars(args[0]), "bags",
                                                      _Shrunk(args[0].bags))),
    "branch_to_recursive": (lambda: (exact_branchwidth(path_graph(3))[1],
                                     SourcedGraph(path_graph(3))), branch_to_recursive,
                            lambda mp, args: mp.setattr(decomp_module, "_branch_width",
                                                        lambda *a: -1)),
    "branch_from_recursive": (lambda: _p3("branch")[:1], branch_from_recursive,
                              lambda mp, args: mp.setattr(decomp_module, "branch_dec_width",
                                                          lambda dec, g: 99)),
}


@pytest.mark.parametrize("where", sorted(BOUNDS))
def test_each_width_bound_raises_when_its_quantity_is_broken(where, monkeypatch):
    make_args, call, break_it = BOUNDS[where]
    args = make_args()
    call(*args)  # the bound holds on the real quantity
    break_it(monkeypatch, args)
    with pytest.raises(BoundViolation):
        call(*args)
