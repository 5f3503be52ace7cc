import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    deep_right_tree_term,
    doubling_balanced,
    doubling_naive,
    example_fan_term,
    fg_signature,
    k,
    path_graph,
    reference_evaluate,
)
from mwidth import (
    Cospan,
    Graph,
    Signature,
    SourcedGraph,
    SymbolicSignature,
    TermError,
    bounded_mwd_search,
    cospan_iso_eq,
    evaluate,
    is_left_tree,
    is_path,
    is_right_tree,
    node_weights,
    of_graph,
    signature_from_json,
    signature_to_json,
    tree_from_json,
    tree_to_json,
    weight,
    width,
)
from mwidth import cospan as cs
from mwidth.oracles import exact_pathwidth
from mwidth.terms import Compose, Leaf, Tensor, _before, node_count, tree_serial


def test_example_fan_width_two():
    sig = fg_signature()
    assert width(example_fan_term(), sig) == 2


def test_single_leaf_width_is_atom_weight():
    sig = fg_signature()
    assert width(Leaf("f"), sig) == 2


def test_doubling_family_widths():
    sig = fg_signature()
    for n in range(5):
        assert width(doubling_balanced(n), sig) == 2
        assert width(doubling_naive(n), sig) == max(2, 2 ** n)


def test_width_equals_max_node_weight():
    sig = fg_signature()
    for n in range(5):
        for term in (doubling_naive(n), doubling_balanced(n), example_fan_term()):
            assert width(term, sig) == max(node_weights(term, sig))


def test_ill_typed_tree_raises_with_path():
    sig = fg_signature()
    bad = Compose(Leaf("f"), 3, Leaf("g"))
    with pytest.raises(TermError) as err:
        width(bad, sig)
    assert "root" in str(err.value)
    nested = Compose(Leaf("f"), 2, Compose(Leaf("g"), 1, Leaf("g")))
    with pytest.raises(TermError) as err:
        width(nested, sig)
    assert "node R" in str(err.value)


def test_shape_predicates():
    sig = fg_signature()
    fan = Compose(Leaf("f"), 2, Tensor(Leaf("f"), Leaf("f")))
    assert is_right_tree(fan)
    assert not is_path(fan)
    assert is_path(Compose(Leaf("f"), 2, Leaf("g")))
    assert not is_path(Tensor(Leaf("f"), Leaf("g")))
    mirror = Compose(Tensor(Leaf("g"), Leaf("g")), 2, Leaf("g"))
    assert is_left_tree(mirror) and not is_right_tree(mirror)
    assert is_right_tree(Leaf("f")) and is_left_tree(Leaf("f")) and is_path(Leaf("f"))
    # a path is both a right and a left tree only when compositions are leaf-sided
    assert is_right_tree(Compose(Leaf("f"), 2, Leaf("g")))


def _structural_is_path(d):
    if isinstance(d, Leaf):
        return True
    if isinstance(d, Tensor):
        return False
    return _structural_is_path(d.left) and _structural_is_path(d.right)


def _structural_is_right_tree(d):
    if isinstance(d, Leaf):
        return True
    if isinstance(d, Tensor):
        return _structural_is_right_tree(d.left) and _structural_is_right_tree(d.right)
    return isinstance(d.left, Leaf) and _structural_is_right_tree(d.right)


def test_shape_predicates_against_structural_oracle():
    rng = random.Random(9)

    def rand_shape(depth):
        if depth == 0 or rng.random() < 0.4:
            return Leaf("f")
        kind = rng.choice(["t", "c"])
        a, b = rand_shape(depth - 1), rand_shape(depth - 1)
        return Tensor(a, b) if kind == "t" else Compose(a, 2, b)

    for _ in range(200):
        d = rand_shape(4)
        assert is_path(d) == _structural_is_path(d)
        assert is_right_tree(d) == _structural_is_right_tree(d)


def test_evaluate_examples():
    sig = Signature()
    e = sig.leaf(cs.edge())
    assert cospan_iso_eq(evaluate(e, sig), cs.edge())
    two = Compose(sig.leaf(cs.edge()), 1, sig.leaf(cs.edge()))
    val = evaluate(two, sig)
    assert weight(val) == 3 and len(val.apex.edges) == 2
    bad = Compose(sig.leaf(cs.edge()), 2, sig.leaf(cs.edge()))
    with pytest.raises(TermError):
        evaluate(bad, sig)
    with pytest.raises(TermError):
        evaluate(Leaf("f"), fg_signature())  # symbolic atom has no cospan


def test_json_round_trip_and_golden_serial():
    t = example_fan_term()
    assert tree_from_json(tree_to_json(t)) == t
    assert tree_serial(t) == (
        '{"children":[{"atom":"f","op":"leaf"},{"children":[{"children":'
        '[{"children":[{"atom":"f","op":"leaf"},{"atom":"g","op":"leaf"}],'
        '"cut":2,"op":"compose"},{"children":[{"atom":"f","op":"leaf"},'
        '{"atom":"g","op":"leaf"}],"cut":2,"op":"compose"}],"op":"tensor"},'
        '{"atom":"g","op":"leaf"}],"cut":2,"op":"compose"}],"cut":2,"op":"compose"}')


_LEAF = {"op": "leaf", "atom": "a"}
# (JSON, TermError message) of malformed terms, as the recursive-descent
# parser worded them: an enclosing node prefixes "malformed <op> node: "
TERM_JSON_FAULTS = [
    (None, "unknown term op None"),
    ([], "unknown term op None"),
    ({"op": "loop"}, "unknown term op 'loop'"),
    ({"atom": "a"}, "unknown term op None"),
    ({"op": "leaf"}, "leaf node lacks field 'atom'"),
    ({"op": "leaf", "atom": 3}, "malformed leaf node: atom 3 is not a name"),
    ({"op": "tensor"}, "tensor node lacks field 'children'"),
    ({"op": "compose", "children": [_LEAF, _LEAF]}, "compose node lacks field 'cut'"),
    ({"op": "compose", "cut": 1, "children": [{"op": "leaf"}, {"op": "loop"}]},
     "malformed compose node: leaf node lacks field 'atom'"),
    ({"op": "compose", "children": [_LEAF, {"op": "loop"}]}, "compose node lacks field 'cut'"),
    ({"op": "compose", "cut": 1, "children": [_LEAF, {"op": "tensor", "children": [
        {"op": "loop"}, _LEAF]}]},
     "malformed compose node: malformed tensor node: unknown term op 'loop'"),
    ({"op": "tensor", "children": [_LEAF, {"op": "compose", "cut": 1, "children": [
        {"op": "tensor", "children": [_LEAF, {"op": "leaf", "atom": None}]}, _LEAF]}]},
     "malformed tensor node: malformed compose node: malformed tensor node: "
     "malformed leaf node: atom None is not a name"),
]


@pytest.mark.parametrize("data,message", TERM_JSON_FAULTS)
def test_tree_from_json_fault_messages(data, message):
    with pytest.raises(TermError) as info:
        tree_from_json(data)
    assert str(info.value) == message


def test_term_json_beyond_the_recursion_limit():
    # a zigzag of compositions and tensors twice the recursion limit deep
    depth = 2 * sys.getrecursionlimit()
    t = Leaf("a0")
    for i in range(1, depth + 1):
        t = Compose(t, 1, Leaf(f"a{i}")) if i % 2 else Tensor(Leaf(f"a{i}"), t)
    back = tree_from_json(tree_to_json(t))
    assert tree_serial(back) == tree_serial(t)
    bad: object = {"op": "leaf", "atom": 3}
    for _ in range(depth):
        bad = {"op": "tensor", "children": [_LEAF, bad]}
    with pytest.raises(TermError) as info:
        tree_from_json(bad)
    assert str(info.value) == (
        "malformed tensor node: " * depth + "malformed leaf node: atom 3 is not a name")


def test_search_edge_is_leaf():
    res = bounded_mwd_search(cs.edge(), seed_translations=False)
    assert res.width == 2 and res.exact
    assert cospan_iso_eq(evaluate(res.tree, res.signature), cs.edge())


def test_search_path_shape_matches_pathwidth():
    g = path_graph(3)
    res = bounded_mwd_search(of_graph(g), shape="path", seed_translations=False)
    assert is_path(res.tree)
    assert cospan_iso_eq(evaluate(res.tree, res.signature), of_graph(g))
    pw, _ = exact_pathwidth(g)
    assert res.width == pw == 2


def test_search_k3_within_branch_bound():
    g = k(3)
    res = bounded_mwd_search(of_graph(g), shape="any")
    assert res.width <= 3  # branch width 2 plus one
    assert cospan_iso_eq(evaluate(res.tree, res.signature), of_graph(g))


def test_search_result_never_beats_leaf():
    rng = random.Random(13)
    from conftest import random_cospan
    for _ in range(20):
        g = random_cospan(rng, rng.randint(0, 2), rng.randint(0, 2))
        res = bounded_mwd_search(g, seed_translations=False)
        assert res.width <= weight(g)
        assert cospan_iso_eq(evaluate(res.tree, res.signature), g)


def test_search_budget_flag():
    g = k(4)
    res = bounded_mwd_search(of_graph(g), budget=1, seed_translations=False)
    assert not res.exact
    assert cospan_iso_eq(evaluate(res.tree, res.signature), of_graph(g))


def test_search_right_tree_shape():
    from mwidth.oracles import exact_treewidth
    g = k(3)
    res = bounded_mwd_search(of_graph(g), shape="right-tree", seed_translations=True)
    assert is_right_tree(res.tree)
    assert cospan_iso_eq(evaluate(res.tree, res.signature), of_graph(g))
    tw, _ = exact_treewidth(g)
    assert tw <= res.width <= 2 * tw


# ---------------------------------------------------------------------------
# Search results pinned byte for byte: (graph, shape, budget,
# seed_translations, width, exact, node count, tree_serial).

SEARCH_GRAPHS = {"K4": of_graph(k(4)), "C5": of_graph(cycle_graph(5)),
                 "P4": of_graph(path_graph(4)),
                 "P3-0-2": cs.Cospan(path_graph(3), (0,), (2,))}
SEARCH_PINS = [
    ('K4', 'any', 4000, False, 3, True, 9,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"children":[{"atom":"a2'
     '21","op":"leaf"},{"children":[{"atom":"a9","op":"leaf"},{"atom":"a237","op":'
     '"leaf"}],"op":"tensor"}],"cut":3,"op":"compose"},{"atom":"a6","op":"leaf"}],'
     '"cut":3,"op":"compose"}],"cut":2,"op":"compose"}'),
    ('K4', 'right-tree', 4000, False, 4, True, 1,
     '{"atom":"a0","op":"leaf"}'),
    ('K4', 'path', 4000, False, 4, True, 1,
     '{"atom":"a0","op":"leaf"}'),
    ('C5', 'any', 4000, False, 2, True, 9,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"children":[{"atom":"a2'
     '3","op":"leaf"},{"children":[{"atom":"a5","op":"leaf"},{"atom":"a5","op":"le'
     'af"}],"cut":1,"op":"compose"}],"op":"tensor"},{"atom":"a8","op":"leaf"}],"cu'
     't":2,"op":"compose"}],"cut":2,"op":"compose"}'),
    ('C5', 'right-tree', 4000, False, 3, True, 5,
     '{"children":[{"atom":"a130","op":"leaf"},{"children":[{"atom":"a63","op":"le'
     'af"},{"atom":"a6","op":"leaf"}],"cut":2,"op":"compose"}],"cut":2,"op":"compo'
     'se"}'),
    ('C5', 'path', 4000, False, 3, True, 5,
     '{"children":[{"atom":"a114","op":"leaf"},{"children":[{"atom":"a14","op":"le'
     'af"},{"atom":"a13","op":"leaf"}],"cut":2,"op":"compose"}],"cut":2,"op":"comp'
     'ose"}'),
    ('P4', 'any', 4000, False, 2, True, 5,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"atom":"a3","op":"leaf"'
     '},{"atom":"a4","op":"leaf"}],"cut":1,"op":"compose"}],"cut":1,"op":"compose"'
     '}'),
    ('P4', 'right-tree', 4000, False, 2, True, 5,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"atom":"a3","op":"leaf"'
     '},{"atom":"a4","op":"leaf"}],"cut":1,"op":"compose"}],"cut":1,"op":"compose"'
     '}'),
    ('P4', 'path', 4000, False, 2, True, 5,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"atom":"a3","op":"leaf"'
     '},{"atom":"a4","op":"leaf"}],"cut":1,"op":"compose"}],"cut":1,"op":"compose"'
     '}'),
    ('K4', 'any', 50, False, 3, False, 11,
     '{"children":[{"atom":"a108","op":"leaf"},{"children":[{"children":[{"atom":"'
     'a9","op":"leaf"},{"children":[{"children":[{"atom":"a9","op":"leaf"},{"atom"'
     ':"a33","op":"leaf"}],"op":"tensor"},{"atom":"a14","op":"leaf"}],"cut":2,"op"'
     ':"compose"}],"op":"tensor"},{"atom":"a12","op":"leaf"}],"cut":2,"op":"compos'
     'e"}],"cut":3,"op":"compose"}'),
    ('P3-0-2', 'any', 4000, False, 2, True, 3,
     '{"children":[{"atom":"a1","op":"leaf"},{"atom":"a1","op":"leaf"}],"cut":1,"o'
     'p":"compose"}'),
    ('K4', 'any', 4000, True, 3, True, 9,
     '{"children":[{"atom":"a1","op":"leaf"},{"children":[{"children":[{"atom":"a2'
     '21","op":"leaf"},{"children":[{"atom":"a9","op":"leaf"},{"atom":"a237","op":'
     '"leaf"}],"op":"tensor"}],"cut":3,"op":"compose"},{"atom":"a6","op":"leaf"}],'
     '"cut":3,"op":"compose"}],"cut":2,"op":"compose"}'),
    ('C5', 'right-tree', 4000, True, 3, True, 5,
     '{"children":[{"atom":"a130","op":"leaf"},{"children":[{"atom":"a63","op":"le'
     'af"},{"atom":"a6","op":"leaf"}],"cut":2,"op":"compose"}],"cut":2,"op":"compo'
     'se"}'),
    ('P4', 'path', 4000, True, 2, True, 5,
     '{"children":[{"atom":"a0","op":"leaf"},{"children":[{"atom":"a1","op":"leaf"'
     '},{"atom":"a2","op":"leaf"}],"cut":1,"op":"compose"}],"cut":1,"op":"compose"'
     '}'),
    ('C5', 'path', 3, True, 3, False, 7,
     '{"children":[{"atom":"a0","op":"leaf"},{"children":[{"atom":"a1","op":"leaf"'
     '},{"children":[{"atom":"a2","op":"leaf"},{"atom":"a3","op":"leaf"}],"cut":2,'
     '"op":"compose"}],"cut":2,"op":"compose"}],"cut":2,"op":"compose"}'),
]


@pytest.mark.parametrize("name,shape,budget,seeds,w,exact,nodes,serial", SEARCH_PINS,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}-{'seeded' if p[3] else 'unseeded'}"
                              for p in SEARCH_PINS])
def test_search_golden_pins(name, shape, budget, seeds, w, exact, nodes, serial):
    res = bounded_mwd_search(SEARCH_GRAPHS[name], shape=shape, budget=budget,
                             seed_translations=seeds)
    assert (res.width, res.exact, node_count(res.tree), tree_serial(res.tree)) == (
        w, exact, nodes, serial)


# The unseeded search `check_theorems` runs, on a multigraph of the
# benchmark's (5, 6) stratum: a self-loop, a parallel pair and a second
# looped component, so tensor splits, loops and repeated edges all reach
# the memo.  Budget 25 stops every shape mid-search.  Each pin is (shape,
# budget, width, exact, node count, tree_serial, sha256 of the key-sorted
# signature JSON).
LOOPED_MULTIGRAPH = cs.of_graph(Graph.from_edge_pairs(
    range(5), [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (4, 4)]))
MULTIGRAPH_PINS = [
    ('any', 4000, 2, True, 7,
     '{"children":[{"atom":"a126","op":"leaf"},{"children":[{"atom":"a16","op":"lea'
     'f"},{"children":[{"atom":"a48","op":"leaf"},{"atom":"a87","op":"leaf"}],"cut"'
     ':1,"op":"compose"}],"cut":1,"op":"compose"}],"cut":0,"op":"compose"}',
     '1b1da96a1ab590907ef480155b2299c5'
     'e9e48900922c3f6ea3a3613ec193b062'),
    ('right-tree', 4000, 2, True, 7,
     '{"children":[{"atom":"a165","op":"leaf"},{"children":[{"atom":"a131","op":"le'
     'af"},{"children":[{"atom":"a98","op":"leaf"},{"atom":"a9","op":"leaf"}],"op":'
     '"tensor"}],"cut":2,"op":"compose"}],"op":"tensor"}',
     'fe72cbc79f6389756edfa592594cfc8e'
     'a70fcff477029ffa26ebf8b9b498d964'),
    ('path', 4000, 2, True, 7,
     '{"children":[{"atom":"a10","op":"leaf"},{"children":[{"atom":"a135","op":"lea'
     'f"},{"children":[{"atom":"a19","op":"leaf"},{"atom":"a9","op":"leaf"}],"cut":'
     '1,"op":"compose"}],"cut":1,"op":"compose"}],"cut":0,"op":"compose"}',
     '7f15def08c2039a576cfdcd84af460f7'
     'a907591cd488f1a5f011fe39b7fd5f2b'),
    ('any', 25, 2, False, 7,
     '{"children":[{"atom":"a68","op":"leaf"},{"children":[{"atom":"a40","op":"leaf'
     '"},{"children":[{"atom":"a14","op":"leaf"},{"atom":"a9","op":"leaf"}],"cut":1'
     ',"op":"compose"}],"cut":1,"op":"compose"}],"cut":0,"op":"compose"}',
     '3fad7082c5c0fd5cab82e19625fa0c13'
     'a470b9f4d0605fc556e9c270cf860735'),
    ('right-tree', 25, 2, False, 7,
     '{"children":[{"atom":"a165","op":"leaf"},{"children":[{"atom":"a131","op":"le'
     'af"},{"children":[{"atom":"a98","op":"leaf"},{"atom":"a9","op":"leaf"}],"op":'
     '"tensor"}],"cut":2,"op":"compose"}],"op":"tensor"}',
     'fe72cbc79f6389756edfa592594cfc8e'
     'a70fcff477029ffa26ebf8b9b498d964'),
    ('path', 25, 2, False, 7,
     '{"children":[{"atom":"a59","op":"leaf"},{"children":[{"atom":"a19","op":"leaf'
     '"},{"children":[{"atom":"a11","op":"leaf"},{"atom":"a9","op":"leaf"}],"cut":1'
     ',"op":"compose"}],"cut":1,"op":"compose"}],"cut":1,"op":"compose"}',
     'b48df451f898baac1c9d2666570c1f5f'
     '3b5b2a1f0114e3f97c1240009563840d'),
]


@pytest.mark.parametrize("shape,budget,w,exact,nodes,serial,sig_sha", MULTIGRAPH_PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in MULTIGRAPH_PINS])
def test_search_multigraph_pins(shape, budget, w, exact, nodes, serial, sig_sha):
    res = bounded_mwd_search(LOOPED_MULTIGRAPH, shape=shape, budget=budget,
                             seed_translations=False)
    assert (res.width, res.exact, node_count(res.tree), tree_serial(res.tree)) == (
        w, exact, nodes, serial)
    sig = json.dumps(signature_to_json(res.signature), sort_keys=True)
    assert hashlib.sha256(sig.encode()).hexdigest() == sig_sha


def _leaf_names(d) -> set:
    return {d.atom} if isinstance(d, Leaf) else _leaf_names(d.left) | _leaf_names(d.right)


@pytest.mark.parametrize("shape", ("any", "right-tree", "path"))
def test_search_signature_holds_only_the_tree_atoms(shape):
    for name, g in SEARCH_GRAPHS.items():
        for budget, seeds in ((4000, False), (4000, True), (3, True)):
            res = bounded_mwd_search(g, shape=shape, budget=budget, seed_translations=seeds)
            assert set(res.signature.atoms) == _leaf_names(res.tree), (name, budget, seeds)
            assert cospan_iso_eq(evaluate(res.tree, res.signature), g)


def _search_outcome(g, shape: str, seeds: bool) -> tuple:
    res = bounded_mwd_search(g, shape=shape, seed_translations=seeds)
    return tree_serial(res.tree), res.width, res.exact, signature_to_json(res.signature)


def test_path_seed_needs_the_sources_in_the_first_bag():
    # the path oracle's witness for 0-1-2 starts with the bag {0, 1}, so
    # with a source outside it there is no path seed and the search stands
    p3 = path_graph(3)
    for sources in ({2}, {0, 2}):
        g = cs.from_sourced(SourcedGraph(p3, sources))
        assert _search_outcome(g, "path", True) == _search_outcome(g, "path", False)
    g = cs.from_sourced(SourcedGraph(p3, {0}))
    assert _search_outcome(g, "path", True) != _search_outcome(g, "path", False)
    # on the empty cospan each seed ties the searched leaf and loses
    for shape in ("any", "right-tree", "path"):
        assert _search_outcome(of_graph(Graph.empty()), shape, True) == \
            _search_outcome(of_graph(Graph.empty()), shape, False)


@st.composite
def small_cospans(draw):
    """Up to 5 vertices with sparse ids, up to 6 edges (loops and parallel
    edges allowed), and up to 3 ports a side, which may repeat vertices."""
    vs = draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
    if not vs:
        return cs.Cospan(Graph.empty(), (), ())
    vertex = st.sampled_from(vs)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    left, right = draw(st.lists(vertex, max_size=3)), draw(st.lists(vertex, max_size=3))
    return cs.Cospan(Graph.from_edge_pairs(vs, pairs), tuple(left), tuple(right))


@settings(derandomize=True, deadline=None)
@given(small_cospans())
def test_search_terms_evaluate_back_to_their_cospan(g):
    for shape in ("any", "right-tree", "path"):
        for budget in (4000, 3):
            res = bounded_mwd_search(g, shape=shape, budget=budget)
            assert cospan_iso_eq(evaluate(res.tree, res.signature), g)
            assert width(res.tree, res.signature) == res.width
            assert set(res.signature.atoms) == _leaf_names(res.tree)
            assert shape != "path" or is_path(res.tree)
            assert shape != "right-tree" or is_right_tree(res.tree)


def test_symbolic_wiring_atoms_are_named_weighted_and_cached():
    sig = SymbolicSignature()
    made = [sig.leaf_identity(3), sig.leaf_copy(2), sig.leaf_swap(1, 2),
            sig.leaf_spider(0, 2), sig.leaf_spider(0, 0), sig.leaf_permutation((1, 0))]
    got = {leaf.atom: (a.dom, a.cod, a.weight)
           for leaf in made for a in [sig.atom(leaf.atom)]}
    assert got == {"id3": (3, 3, 3), "cp2": (2, 4, 4), "sw1_2": (3, 3, 3),
                   "sp0_2": (0, 2, 2), "sp0_0": (0, 0, 1), "w5_pm": (2, 2, 2)}
    assert sig.atom("w5_pm").cospan is not None
    atoms = dict(sig.atoms)
    again = [sig.leaf_identity(3), sig.leaf_copy(2), sig.leaf_swap(1, 2),
             sig.leaf_spider(0, 2), sig.leaf_spider(0, 0), sig.leaf_permutation((1, 0))]
    assert again == made
    assert sig.atoms == atoms and all(sig.atoms[n] is atoms[n] for n in atoms)
    assert sig.leaf_swap(2, 1).atom == "sw2_1" and len(sig.atoms) == 7


def test_rebalancing_compose_chain_preserves_evaluation():
    # (a ; b) ; c against a ; (b ; c): same cuts, same width, iso value
    sig = Signature()
    a = sig.leaf(cs.edge())
    b = sig.leaf(cs.edge())
    c = sig.leaf(cs.edge())
    left = Compose(Compose(a, 1, b), 1, c)
    right = Compose(a, 1, Compose(b, 1, c))
    assert width(left, sig) == width(right, sig)
    assert cospan_iso_eq(evaluate(left, sig), evaluate(right, sig))


def test_width_requires_only_weights_not_cospans():
    # symbolic signatures never need evaluation to report widths
    sig = fg_signature()
    assert width(doubling_naive(3), sig) == 8


def _sparse_cospan(rng: random.Random, left: int, right: int) -> Cospan:
    """Sparse vertex and edge ids, some loops, legs that need not be injective."""
    n = rng.randint(1 if left or right else 0, 4)
    vs = rng.sample(range(40), n)
    ends = {e: {rng.choice(vs), rng.choice(vs)}
            for e in rng.sample(range(90), rng.randint(0, 4) if n else 0)}
    return Cospan(Graph(vs, ends), tuple(rng.choice(vs) for _ in range(left)),
                  tuple(rng.choice(vs) for _ in range(right)))


def _random_term(rng: random.Random, sig: Signature, dom: int, depth: int):
    """A well-typed term with domain `dom`, and its codomain; some leaves
    share an atom."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        same_dom = [name for name, a in sig.atoms.items() if a.dom == dom]
        if same_dom and r < 0.1:
            name = rng.choice(same_dom)
            return Leaf(name), sig.atoms[name].cod
        cod = rng.randint(0, 3)
        return sig.leaf(_sparse_cospan(rng, dom, cod)), cod
    if r < 0.6:
        d1 = rng.randint(0, dom)
        t1, c1 = _random_term(rng, sig, d1, depth - 1)
        t2, c2 = _random_term(rng, sig, dom - d1, depth - 1)
        return Tensor(t1, t2), c1 + c2
    t1, c1 = _random_term(rng, sig, dom, depth - 1)
    t2, c2 = _random_term(rng, sig, c1, depth - 1)
    return Compose(t1, c1, t2), c2


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32 - 1))
def test_evaluate_matches_the_nested_fold(seed):
    rng = random.Random(seed)
    sig = Signature()
    term, _ = _random_term(rng, sig, rng.randint(0, 3), rng.randint(0, 5))
    got, want = evaluate(term, sig), reference_evaluate(term, sig)
    assert got.apex == want.apex
    assert list(got.apex._ends.items()) == list(want.apex._ends.items())
    assert (got.left, got.right) == (want.left, want.right)
    for name, a in sig.atoms.items():
        # a bare leaf is its atom's own cospan, not renumbered
        assert evaluate(Leaf(name), sig) is a.cospan


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_deep_compose_chains_need_no_recursion(nesting):
    sig = Signature()
    e = sig.leaf(cs.edge())
    term = e
    for _ in range(5000):
        term = Compose(e, 1, term) if nesting == "right" else Compose(term, 1, e)
    value = evaluate(term, sig)
    assert weight(value) == 5002 and len(value.apex.edges) == 5001
    assert (value.left, value.right) == ((0,), (5001,))
    assert width(term, sig) == 2
    assert node_weights(term, sig) == [2, 1] * 5000 + [2]


def _json_serial(d) -> str:
    return json.dumps(tree_to_json(d), sort_keys=True, separators=(",", ":"))


# names that JSON must escape: quotes, backslashes, controls and non-ASCII
_ATOM_NAMES = st.text(alphabet=st.sampled_from('a"\\/\n\x00\x7f\u00e9\u03bb\U0001f600'),
                      max_size=4) | st.text(max_size=5)
_TERMS = st.recursive(
    st.builds(Leaf, _ATOM_NAMES),
    lambda sub: st.builds(Tensor, sub, sub) | st.builds(Compose, sub, st.integers(0, 12), sub),
    max_leaves=12)


@settings(derandomize=True, deadline=None)
@given(_TERMS)
def test_tree_serial_is_the_compact_sorted_json(t):
    shared = Tensor(t, Compose(t, 0, t))  # one subterm object at three places
    for d in (t, shared):
        assert tree_serial(d) == _json_serial(d)


def _unshared(d):
    """An equal copy of `d` that shares no node object with it."""
    return tree_from_json(tree_to_json(d))


@settings(derandomize=True, deadline=None)
@given(_TERMS, _TERMS, st.integers(-1, 100))
def test_before_is_the_serial_order(t, u, cut):
    # equal pairs, pairs that share subterm objects, and pairs apart
    pairs = [(t, t), (t, u), (Tensor(t, u), Tensor(t, t)), (Compose(t, cut, u), Tensor(t, u)),
             (Compose(u, cut, t), Compose(u, 3, t)), (Tensor(t, u), Tensor(u, t)),
             (Compose(t, cut, t), _unshared(Compose(t, cut, t)))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert _before(x, y) == (tree_serial(x) < tree_serial(y))


def test_tree_serial_of_a_deep_chain_needs_no_recursion():
    e = Leaf("e")
    term = e
    for _ in range(5000):
        term = Compose(e, 1, term)
    assert tree_serial(term) == ('{"children":[{"atom":"e","op":"leaf"},' * 5000
                                 + '{"atom":"e","op":"leaf"}'
                                 + '],"cut":1,"op":"compose"}' * 5000)


def test_tree_serial_of_a_deep_term_is_its_json():
    # json.dumps recurses once per level, too deep here, so the expected
    # serial is put together from its serials of one level and the leaf
    term, _ = deep_right_tree_term(6000)
    marker = Leaf("marker")
    head, tail = _json_serial(Compose(term.left, 1, marker)).split(_json_serial(marker))
    bottom = term
    while isinstance(bottom, Compose):
        bottom = bottom.right
    assert tree_serial(term) == head * 6000 + _json_serial(bottom) + tail * 6000


def test_deep_terms_compare_hash_and_print_without_recursion():
    term, _ = deep_right_tree_term(3000)
    copy = _unshared(term)
    assert copy is not term and copy.left is not term.left
    assert copy == term and not copy != term and hash(copy) == hash(term)
    data = tree_to_json(term)
    bottom = data
    while bottom["op"] == "compose":
        bottom = bottom["children"][1]
    bottom["atom"] += "'"  # the deepest leaf renamed
    other = tree_from_json(data)
    assert other != term and not other == term
    assert {term: 1, copy: 2, other: 3} == {term: 2, other: 3}
    assert repr(term) == (f"Compose(left={term.left!r}, cut=1, right=" * 3000
                          + f"Leaf(atom={bottom['atom'][:-1]!r})" + ")" * 3000)


@pytest.mark.parametrize("t,text", [
    (Leaf("a"), "Leaf(atom='a')"),
    (Tensor(Leaf("a"), Leaf('"')), """Tensor(left=Leaf(atom='a'), right=Leaf(atom='"'))"""),
    (Compose(Tensor(Leaf("a"), Leaf("b")), 2, Leaf("c")),
     "Compose(left=Tensor(left=Leaf(atom='a'), right=Leaf(atom='b')), cut=2, "
     "right=Leaf(atom='c'))"),
])
def test_small_terms_print_as_dataclasses(t, text):
    assert repr(t) == text
    assert t == _unshared(t) and hash(t) == hash(_unshared(t))
    assert t != Leaf("z") and t != text


def _chain(bottom: str):
    """5,000 compositions down to the leaf `bottom`, sharing no node with
    another chain."""
    term = Leaf(bottom)
    for _ in range(5000):
        term = Compose(Leaf("e"), 1, term)
    return term


@pytest.mark.parametrize("bottoms", [("e", "e"), ("e", "f")])
def test_before_on_deep_chains_needs_no_recursion(bottoms):
    a, b = map(_chain, bottoms)
    assert a is not b
    for x, y in ((a, b), (b, a)):
        assert _before(x, y) == (tree_serial(x) < tree_serial(y))
    assert _before(a, b) == (bottoms[0] < bottoms[1])


def test_signature_add_checks_the_cospan_arities():
    sig = Signature()
    for dom, cod in ((2, 2), (1, 2), (0, 1)):
        with pytest.raises(TermError, match=rf"'x' is declared {dom} -> {cod} but its "
                                            r"cospan is 1 -> 1"):
            sig.add("x", dom, cod, 1, cs.edge())
    assert sig.atoms == {}
    sig.add("x", 1, 1, 2, cs.edge())
    sig.add("symbolic", 2, 2, 1)  # an atom without a cospan declares any arities
    assert set(sig.atoms) == {"x", "symbolic"}


def test_signature_from_json_names_an_ill_typed_atom():
    sig = Signature()
    sig.add("x", 1, 1, 2, cs.edge())
    data = signature_to_json(sig)
    assert signature_to_json(signature_from_json(data)) == data
    data["x"]["dom"] = 2
    with pytest.raises(TermError, match="'x' is declared 2 -> 1"):
        signature_from_json(data)


# `cospan_to_json` of each atom that `bounded_mwd_search` returns, recorded
# while the search still built a cospan for every state it named
SEARCH_ATOM_COSPANS = {
    ("K4", "any"): {
        "a1": {"apex": {"e": [[0, 1]], "v": [0, 1]}, "left": [], "legL": {},
               "legR": {"0": 0, "1": 1}, "right": [0, 1]},
        "a221": {"apex": {"e": [[0, 2]], "v": [0, 1, 2]}, "left": [0, 1],
                 "legL": {"0": 1, "1": 2}, "legR": {"0": 0, "1": 1, "2": 2},
                 "right": [0, 1, 2]},
        "a237": {"apex": {"e": [[0, 2]], "v": [0, 1, 2]}, "left": [0, 1],
                 "legL": {"0": 1, "1": 2}, "legR": {"0": 0, "1": 1}, "right": [0, 1]},
        "a6": {"apex": {"e": [[0, 1], [0, 2], [1, 2]], "v": [0, 1, 2]}, "left": [0, 1, 2],
               "legL": {"0": 0, "1": 1, "2": 2}, "legR": {}, "right": []},
        "a9": {"apex": {"e": [], "v": [0]}, "left": [0], "legL": {"0": 0},
               "legR": {"0": 0}, "right": [0]}},
    ("C5", "right-tree"): {
        "a130": {"apex": {"e": [[0, 1], [1, 2]], "v": [0, 1, 2]}, "left": [], "legL": {},
                 "legR": {"0": 0, "1": 2}, "right": [0, 1]},
        "a6": {"apex": {"e": [[1, 2], [0, 2]], "v": [0, 1, 2]}, "left": [0, 1],
               "legL": {"0": 0, "1": 1}, "legR": {}, "right": []},
        "a63": {"apex": {"e": [[0, 1]], "v": [0, 1, 2]}, "left": [0, 1],
                "legL": {"0": 1, "1": 2}, "legR": {"0": 0, "1": 2}, "right": [0, 1]}},
    ("P4", "path"): {
        "a1": {"apex": {"e": [[0, 1]], "v": [0, 1]}, "left": [], "legL": {},
               "legR": {"0": 1}, "right": [0]},
        "a3": {"apex": {"e": [[0, 1]], "v": [0, 1]}, "left": [0], "legL": {"0": 0},
               "legR": {"0": 1}, "right": [0]},
        "a4": {"apex": {"e": [[0, 1]], "v": [0, 1]}, "left": [0], "legL": {"0": 0},
               "legR": {}, "right": []}},
}


@pytest.mark.parametrize("name,shape", list(SEARCH_ATOM_COSPANS))
def test_search_builds_graphs_only_for_the_returned_atoms(monkeypatch, name, shape):
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    res = bounded_mwd_search(SEARCH_GRAPHS[name], shape=shape, seed_translations=False)
    monkeypatch.undo()
    # one graph for the renumbered input, then one per returned atom
    assert len(built) <= len(res.signature.atoms) + 1
    got = {atom: cs.cospan_to_json(a.cospan) for atom, a in res.signature.atoms.items()}
    assert got == SEARCH_ATOM_COSPANS[name, shape]
    assert list(got) == sorted(got, key=lambda atom: int(atom[1:]))  # naming order


def test_search_refuses_cospans_past_its_caps():
    from mwidth.oracles import MAX_SEARCH_EDGES, MAX_SEARCH_VERTICES, OracleError

    scattered = cs.of_graph(Graph.discrete(range(MAX_SEARCH_VERTICES + 1)))
    with pytest.raises(OracleError, match=r"on 17 > 16 vertices"):
        bounded_mwd_search(scattered)
    bundle = cs.of_graph(Graph([0, 1], {e: {0, 1} for e in range(MAX_SEARCH_EDGES + 1)}))
    with pytest.raises(OracleError, match=r"on 17 > 16 edges"):
        bounded_mwd_search(bundle, shape="path", budget=1)


# Run in a process of its own, so that no copy of `mwidth` the tests hold
# is counted: import the library afresh nine times, as the benchmark's set-up
# does, and count the live module dicts of each `mwidth` module.
_REIMPORT = """
import gc, importlib, json, sys
for _ in range(9):
    for name in [n for n in sys.modules if n == "mwidth" or n.startswith("mwidth.")]:
        del sys.modules[name]
    importlib.import_module("mwidth")
    importlib.import_module("mwidth.cli")
gc.collect()
names = [o["__name__"] for o in gc.get_objects()
         if type(o) is dict and str(o.get("__name__")).startswith("mwidth.")]
print(json.dumps({name: names.count(name) for name in set(names)}))
"""


def test_reimporting_the_library_keeps_no_old_copy_alive():
    # a `typing.Union` alias caches its classes, and their generated methods
    # hold their module's globals, so each old copy of the module would live on
    import mwidth
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwidth.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, capture_output=True,
                         text=True, check=True).stdout
    counts = json.loads(out)
    assert {"mwidth.graph", "mwidth.terms", "mwidth.decomp", "mwidth.cli"} <= set(counts)
    assert counts == dict.fromkeys(counts, 1)
