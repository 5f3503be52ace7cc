"""`canonical_key` against the brute-force reference in conftest: equal
keys exactly for isomorphic graphs, on the whole small catalog, on random
multigraphs, and on the twin-heavy graphs the search prunes."""

from itertools import combinations
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

import mwidth.graph as graph_mod
from conftest import cycle_graph, k, reference_key
from mwidth import Graph, canonical_key, enumerate_graphs


def _relabelled(g: Graph, perm) -> Graph:
    return Graph({perm[v] for v in g.vertices},
                 {e: {perm[v] for v in g.ends(e)} for e in g.edges})


def _key_graph(key: tuple) -> Graph:
    n, edges = key
    return Graph.from_edge_pairs(range(n), [(t[0], t[-1]) for t in edges])


def _assert_copy(g: Graph, key: tuple) -> None:
    """The key is a relabelled copy of g (its value is not the reference's)."""
    assert reference_key(_key_graph(key)) == reference_key(g)


def _assert_same_partition(graphs) -> None:
    """New keys are equal exactly when reference keys are equal."""
    by_ref, by_new = {}, {}
    for g in graphs:
        ref, new = reference_key(g), canonical_key(g)
        assert by_ref.setdefault(ref, new) == new, g
        assert by_new.setdefault(new, ref) == ref, g


def _count_leaves(monkeypatch) -> list:
    leaves = []
    real = graph_mod._leaf_key

    def counted(g, label):
        leaves.append(label)
        return real(g, label)
    monkeypatch.setattr(graph_mod, "_leaf_key", counted)
    return leaves


def test_keys_partition_every_candidate_of_the_5_vertex_catalog():
    candidates = []
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            candidates.extend(Graph.from_edge_pairs(range(n), chosen)
                              for chosen in combinations(pairs, m))
    assert len(candidates) == 1 + 2 + 8 + 64 + 1024
    _assert_same_partition(candidates)


@st.composite
def multigraph_pairs(draw):
    """A multigraph with loops and parallel edges on up to 6 vertices, a
    relabelling, and the relabelled graph after one endpoint switch
    ((a, b), (c, d) -> (a, d), (c, b)), which keeps every degree."""
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=9)) if n else []
    perm = draw(st.permutations(range(n)))
    switched = list(pairs)
    if len(pairs) >= 2:
        i, j = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=2,
                             unique=True))
        (a, b), (c, d) = pairs[i], pairs[j]
        switched[i], switched[j] = (a, d), (c, b)
    g = Graph.from_edge_pairs(range(n), pairs)
    h = _relabelled(Graph.from_edge_pairs(range(n), switched), perm)
    return g, perm, h


@settings(derandomize=True, deadline=None, max_examples=150)
@given(multigraph_pairs())
def test_keys_on_multigraphs_match_the_reference(case):
    g, perm, h = case
    key = canonical_key(g)
    assert canonical_key(_relabelled(g, perm)) == key
    assert (canonical_key(h) == key) == (reference_key(h) == reference_key(g))
    _assert_copy(g, key)


def test_discrete_graph_is_one_leaf(monkeypatch):
    leaves = _count_leaves(monkeypatch)
    assert canonical_key(Graph.discrete(range(8))) == (8, ())
    assert len(leaves) == 1


def test_complete_graph_is_one_leaf(monkeypatch):
    leaves = _count_leaves(monkeypatch)
    assert canonical_key(k(6)) == (6, tuple(combinations(range(6), 2)))
    assert len(leaves) == 1


def test_k33_with_loops_on_one_side(monkeypatch):
    pairs = [(a, b) for a in range(3) for b in range(3, 6)] + [(a, a) for a in range(3)]
    g = Graph.from_edge_pairs(range(6), pairs)
    leaves = _count_leaves(monkeypatch)
    key = canonical_key(g)
    assert len(leaves) == 1
    _assert_copy(g, key)
    assert canonical_key(_relabelled(g, [5, 1, 3, 0, 4, 2])) == key


def test_stars(monkeypatch):
    leaves = _count_leaves(monkeypatch)
    for n in range(2, 8):
        star = Graph.from_edge_pairs(range(n), [(n - 1, v) for v in range(n - 1)])
        del leaves[:]
        key = canonical_key(star)
        assert len(leaves) == 1
        _assert_copy(star, key)
        assert canonical_key(_relabelled(star, list(range(n))[::-1])) == key


def test_cycle_without_twins(monkeypatch):
    # no twins and one colour class: one leaf per automorphism of C6 (12),
    # where the brute force tries all 720 orderings
    leaves = _count_leaves(monkeypatch)
    g = cycle_graph(6)
    _assert_copy(g, canonical_key(g))
    assert len(leaves) == 12 < factorial(6)


def test_catalog_class_counts_up_to_6_vertices():
    per_n = [0] * 7
    for g in enumerate_graphs(6):
        per_n[len(g.vertices)] += 1
    assert per_n[1:] == [1, 2, 4, 11, 34, 156]
    assert sum(per_n) == 208
