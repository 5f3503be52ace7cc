"""The exact searches leave no reference cycles behind: each one's tables
are freed by reference counting when it returns, not by the cyclic GC.
Nor does a graph's numbering, which the graph keeps."""

import gc

import pytest

from mwidth import (
    Graph,
    SourcedGraph,
    WidthCache,
    bounded_mwd_search,
    check_theorems,
    exact_branchwidth,
    exact_pathwidth,
    exact_treewidth,
    optimal_rec_tree_dec,
)
from mwidth import cospan as cs
from conftest import cycle_graph, k, path_graph

# a loop at 0 and two parallel edges between 1 and 2
MULTIGRAPH = Graph(range(4), {0: {0}, 1: {0, 1}, 2: {1, 2}, 3: {1, 2}, 4: {2, 3}})

GRAPHS = {"K4": k(4), "C5": cycle_graph(5), "P4": path_graph(4), "multigraph": MULTIGRAPH}

CALLS = {
    "exact_treewidth": exact_treewidth,
    "exact_pathwidth": exact_pathwidth,
    "exact_branchwidth": exact_branchwidth,
    "optimal_rec_tree_dec": lambda g: optimal_rec_tree_dec(SourcedGraph(g, [min(g.vertices)])),
    **{f"bounded_mwd_search/{shape}": (lambda g, shape=shape: bounded_mwd_search(
        cs.from_sourced(SourcedGraph(g, [min(g.vertices)])), shape))
       for shape in ("any", "right-tree", "path")},
    "WidthCache.widths": lambda g: WidthCache().widths(g),
    "check_theorems": check_theorems,
    # a fresh graph's numbering holds no reference to the graph
    "Graph._numbering": lambda g: Graph(g.vertices, {e: g.ends(e) for e in g.edges})._numbering(),
}


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("call", CALLS)
def test_search_leaves_no_cyclic_garbage(call, name):
    fn, g = CALLS[call], GRAPHS[name]
    fn(g)  # warm up: first-use caches are not garbage
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
