"""Shared builders: named small graphs, symbolic example terms, random
cospans, and exhaustive small-decomposition enumerators.  Also collects
acceptance-criterion verdicts and prints one line per criterion at the
end of the run."""

import math
import random
from itertools import combinations, permutations, product

import pytest

from mwidth import (
    BranchDec,
    Cospan,
    Graph,
    PathDec,
    RecPathCons,
    RecTreeNode,
    Signature,
    SourcedGraph,
    SymbolicSignature,
    TermError,
    TreeDec,
    branch_dec_width,
    canonical_key,
)
from mwidth import cospan as cs
from mwidth import terms as tm
from mwidth.decomp import (
    REC_PATH_EMPTY,
    REC_TREE_EMPTY,
    RecBranchDec,
    RecBranchEmpty,
    RecBranchNode,
    RecPathDec,
    RecTreeDec,
    path_to_recursive,
)
from mwidth.graph import components, ends_of_edge_set
from mwidth.oracles import _leaf_trees
from mwidth.terms import Compose, DecompTree, Leaf, Tensor
from mwidth.translate import _left_comb_branch

ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((criterion, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{verdict}  {criterion}: {detail}")


# ---------------------------------------------------------------------------
# Named graphs.


def k(n: int) -> Graph:
    return Graph.from_edge_pairs(range(n), list(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph.from_edge_pairs(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edge_pairs(range(n), [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture(scope="session")
def long_path_chain():
    """P_1500, its 1,500-bag path decomposition and that decomposition's
    recursive form: a chain 1,500 nodes deep, past the default recursion
    limit, built once for every test that walks it."""
    n = 1500
    sg = SourcedGraph(path_graph(n))
    dec = PathDec([{i, i + 1} for i in range(n - 1)] + [{n - 1}])
    return sg, dec, path_to_recursive(dec, sg)


def deep_right_tree_term(depth: int) -> tuple:
    """`depth` edges composed one by one and closed: a path term, and so a
    right-tree one, whose decompositions are chains `depth` nodes deep."""
    sig = Signature()
    edge, close = sig.leaf(cs.edge()), sig.leaf(cs.delete(1))
    term = close
    for _ in range(depth):
        term = Compose(edge, 1, term)
    return term, sig


@pytest.fixture
def k2():
    return k(2)


@pytest.fixture
def k3():
    return k(3)


@pytest.fixture
def k4():
    return k(4)


@pytest.fixture
def p3():
    return path_graph(3)


def reference_key(g: Graph) -> tuple:
    """The brute-force canonical form: the least `(n, sorted endpoint
    tuples)` over all n! vertex orderings.  Reference for `canonical_key`."""
    vs = sorted(g.vertices)
    best = None
    for perm in permutations(range(len(vs))):
        relab = {v: perm[i] for i, v in enumerate(vs)}
        cand = (len(vs), tuple(sorted(tuple(sorted(relab[v] for v in g.ends(e)))
                                      for e in g.edges)))
        if best is None or cand < best:
            best = cand
    return best if best is not None else (0, ())


def reference_branchwidth(g: Graph) -> tuple:
    """The brute-force branch width: the first least-width tree over every
    leaf-labelled cubic tree of `_leaf_trees`, each one validated and
    scored.  Reference for `exact_branchwidth`."""
    edges = sorted(g.edges)
    if not edges:
        return 0, BranchDec(Graph.empty(), {})
    best = None
    for tree, table in _leaf_trees(len(edges)):
        dec = BranchDec(tree, {leaf: edges[i] for leaf, i in table.items()})
        w = branch_dec_width(dec, g)
        if best is None or w < best[0]:
            best = w, dec
    return best


def _ref_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def _ref_outside_components(g: Graph, vs: frozenset, es: frozenset, bag: frozenset):
    outside = {e: g.ends(e) - bag for e in es if not g.ends(e) <= bag}
    comps = [(cv | ends_of_edge_set(g, ce), ce) for cv, ce in components(vs - bag, outside)]
    comps.sort(key=lambda c: min(c[0]))
    return comps


def _ref_grouped(comps: list, mask: int) -> tuple:
    vs: set = set()
    es: set = set()
    for i, (cv, ce) in enumerate(comps):
        if mask & (1 << i):
            vs |= cv
            es |= ce
    return frozenset(vs), frozenset(es)


def _ref_tree_parts(sub: Graph, vs: frozenset, es: frozenset, bag: frozenset):
    comps = _ref_outside_components(sub, vs, es, bag)
    k = len(comps)
    for mask in range(1 << max(k - 1, 0)):
        yield _ref_grouped(comps, mask), _ref_grouped(comps, ((1 << k) - 1) ^ mask)


def _ref_path_parts(sub: Graph, vs: frozenset, es: frozenset, bag: frozenset):
    rest_es = frozenset(e for e in es if not sub.ends(e) <= bag)
    rest_vs = (vs - bag) | ends_of_edge_set(sub, rest_es)
    if (rest_vs, rest_es) != (vs, es):
        yield ((rest_vs, rest_es),)


def reference_optimal_rec(sg: SourcedGraph, what: str) -> tuple:
    """The frozenset search: a `g.subgraph` and a built node for every
    state's best bag, memoized on (vertices, edges, sources) frozensets.
    Reference for `optimal_rec_tree_dec` (`what == "tree"`) and
    `optimal_rec_path_dec` (`what == "path"`), witnesses included."""
    empty, make, parts = {"tree": (REC_TREE_EMPTY, RecTreeNode, _ref_tree_parts),
                          "path": (REC_PATH_EMPTY, RecPathCons, _ref_path_parts)}[what]
    g = sg.graph
    memo: dict = {}
    active: set = set()

    def best(vs: frozenset, es: frozenset, xs: frozenset) -> tuple:
        if not vs and not es:
            return 0, empty
        key = (vs, es, xs)
        if key in memo:
            return memo[key]
        if key in active:
            return math.inf, None
        active.add(key)
        best_w, best_t = math.inf, None
        sub = g.subgraph(vs, es)
        for extra in _ref_subsets(vs - xs):
            bag = xs | extra
            if len(bag) >= best_w:
                continue
            for children in parts(sub, vs, es, bag):
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

    return best(g.vertices, g.edges, sg.sources)


def reference_enumerate_graphs(max_v: int, max_e: int = None) -> list:
    """One graph per class, keyed by `canonical_key`, in the order of
    `enumerate_graphs`.  Reference for the orbit enumeration."""
    out, seen = [], set()
    for n in range(1, max_v + 1):
        all_pairs = list(combinations(range(n), 2))
        limit = len(all_pairs) if max_e is None else min(max_e, len(all_pairs))
        for m in range(limit + 1):
            for chosen in combinations(all_pairs, m):
                g = Graph.from_edge_pairs(range(n), chosen)
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    out.append(g)
    return out


def reference_evaluate(d: DecompTree, sig: Signature, path: str = "") -> Cospan:
    """The nested fold: one `cs.compose` or `cs.tensor` per inner node,
    checking each leaf's binding and each cut in post-order.  Reference for
    `evaluate`, its numbering and its errors."""
    if isinstance(d, Leaf):
        a = sig.atom(d.atom)
        if a.cospan is None:
            raise TermError(f"atom {d.atom!r} at {path or 'root'} has no cospan binding")
        return a.cospan
    left = reference_evaluate(d.left, sig, path + "L")
    right = reference_evaluate(d.right, sig, path + "R")
    if isinstance(d, Tensor):
        return cs.tensor(left, right)
    if left.right_arity != d.cut or right.left_arity != d.cut:
        raise TermError(f"cut mismatch at node {path or 'root'}: "
                        f"{left.right_arity} -> [{d.cut}] -> {right.left_arity}")
    return cs.compose(left, right)


def _ref_part(target: Graph, vertex, edge, n) -> Graph:
    """The part of `target` a term node `n` of `terms._glue` covers, read
    off its ranges of global ids through `vertex` and `edge`."""
    return target._part(frozenset([vertex[v] for v in n.vertices]), [edge[e] for e in n.edges])


def reference_m_to_tdec(d: DecompTree, sig: Signature) -> RecTreeDec:
    """`m_to_tdec` of a right-tree term with an empty right boundary, each
    node's part read off its term node's ranges.  Reference for the parts
    and bags of `m_to_tdec`."""
    glued = tm._glue(d, sig)
    vertex, target = glued.vertex, glued.value.apex

    def node(n, sources, bag, *kids) -> RecTreeDec:
        if not kids:
            if not n.vertices:
                return REC_TREE_EMPTY
            kids = REC_TREE_EMPTY, REC_TREE_EMPTY
        part = _ref_part(target, vertex, glued.edge, n)
        return RecTreeNode(SourcedGraph(part, {vertex[v] for v in sources}),
                           {vertex[v] for v in bag}, *kids)

    def placed(n, t) -> RecTreeDec:
        return node(n, n.left, n.vertices) if t is None else t

    done: list = []  # (term node, its decomposition; None for a leaf)
    for n in glued.nodes:
        if isinstance(n.term, Leaf):
            done.append((n, None))
            continue
        (n1, t1), (n2, t2) = done[-2:]
        del done[-2:]
        if isinstance(n.term, Compose):
            bag = n.left + n1.right
            kids = node(n1, bag, n1.vertices), placed(n2, t2)
        else:
            bag = n.left
            kids = placed(n1, t1), placed(n2, t2)
        done.append((n, node(n, n.left, bag, *kids)))
    return placed(*done[0])


def reference_m_to_pdec(d: DecompTree, sig: Signature) -> RecPathDec:
    """`m_to_pdec` of a path term with an empty right boundary: node i is the
    part covered by leaves i, i+1, ..., read off their ranges.  Reference
    for the parts and bags of `m_to_pdec`."""
    glued = tm._glue(d, sig)
    vertex, edge, target = glued.vertex, glued.edge, glued.value.apex
    leaves = [n for n in glued.nodes if isinstance(n.term, Leaf)]
    t, vs, es = REC_PATH_EMPTY, frozenset(), []
    for i, n in enumerate(reversed(leaves)):
        bag = frozenset([vertex[v] for v in n.vertices])
        vs |= bag
        es += [edge[e] for e in n.edges]
        if bag or i:
            t = RecPathCons(SourcedGraph(target._part(vs, es), {vertex[v] for v in n.left}),
                            bag, t)
    return t


def reference_m_to_bdec(d: DecompTree, sig: Signature, phi=None) -> RecBranchDec:
    """`m_to_bdec` of any term through the glue map `phi` (the identity when
    None), each node's part read off its term node's ranges and pushed
    through `phi`.  Reference for the parts of `m_to_bdec`."""
    glued = tm._glue(d, sig)
    apex = glued.value.apex
    pushed = phi.mapping if phi is not None else {v: v for v in apex.vertices}
    whole = Graph([pushed[v] for v in apex.vertices],
                  {e: [pushed[v] for v in pts] for e, pts in apex._ends.items()})
    at = [pushed[v] for v in glued.vertex]
    done: list = []
    for n in glued.nodes:
        part = SourcedGraph(_ref_part(whole, at, glued.edge, n),
                            [at[v] for v in n.left + n.right])
        if isinstance(n.term, Leaf):
            done.append(_left_comb_branch(part))
            continue
        t1, t2 = done[-2:]
        del done[-2:]
        if isinstance(t1, RecBranchEmpty) and isinstance(t2, RecBranchEmpty):
            done.append(RecBranchEmpty(part))
        else:
            done.append(RecBranchNode(part, t1, t2))
    return done[0]


# ---------------------------------------------------------------------------
# Symbolic terms: a prop with f : 1 -> 2 and g : 2 -> 1, both of weight 2.


def fg_signature() -> SymbolicSignature:
    sig = SymbolicSignature()
    sig.add("f", 1, 2, 2)
    sig.add("g", 2, 1, 2)
    return sig


def example_fan_term() -> Compose:
    """f ; (f x f) ; (g x g) ; g decomposed with every cut on two wires."""
    fg = Compose(Leaf("f"), 2, Leaf("g"))
    return Compose(Leaf("f"), 2, Compose(Tensor(fg, fg), 2, Leaf("g")))


def doubling_balanced(n: int) -> Compose:
    """The defining factorization of the doubling family; width stays 2."""
    if n == 0:
        return Compose(Leaf("f"), 2, Leaf("g"))
    inner = Tensor(doubling_balanced(n - 1), doubling_balanced(n - 1))
    return Compose(Leaf("f"), 2, Compose(inner, 2, Leaf("g")))


def _fan_out(depth: int):
    if depth == 1:
        return Leaf("f")
    return Compose(Leaf("f"), 2, Tensor(_fan_out(depth - 1), _fan_out(depth - 1)))


def _fan_in(depth: int):
    if depth == 1:
        return Leaf("g")
    return Compose(Tensor(_fan_in(depth - 1), _fan_in(depth - 1)), 2, Leaf("g"))


def doubling_naive(n: int) -> Compose:
    """Cut the doubling morphism across its full middle of 2**n wires:
    a fan-out of f's, a row of 2**n seed blocks, and a fan-in of g's.

    At n=0 this is the seed ``f ; g`` itself, whose only cut carries 2
    wires, so its width is 2 rather than 2**0."""
    if n == 0:
        return Compose(Leaf("f"), 2, Leaf("g"))
    row = Compose(Leaf("f"), 2, Leaf("g"))
    for _ in range(n):
        row = Tensor(row, row)
    return Compose(_fan_out(n), 2 ** n, Compose(row, 2 ** n, _fan_in(n)))


# ---------------------------------------------------------------------------
# Random structures (seeded by the caller).


def random_graph(rng: random.Random, max_v: int = 5, max_e: int = 7,
                 multigraph: bool = True) -> Graph:
    n = rng.randint(0, max_v)
    m = rng.randint(0, max_e) if n else 0
    pairs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not multigraph and (u == v or (u, v) in pairs or (v, u) in pairs):
            continue
        pairs.append((u, v))
    return Graph.from_edge_pairs(range(n), pairs)


def random_cospan(rng: random.Random, left: int, right: int,
                  max_v: int = 4, max_e: int = 4) -> Cospan:
    n = rng.randint(1, max_v) if (left or right) else rng.randint(0, max_v)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_e))] \
        if n else []
    apex = Graph.from_edge_pairs(range(n), pairs)
    lp = tuple(rng.randrange(n) for _ in range(left))
    rp = tuple(rng.randrange(n) for _ in range(right))
    return Cospan(apex, lp, rp)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of valid classic decompositions on small graphs.


def _tree_shapes(max_nodes: int):
    """All tree shapes with 1..max_nodes vertices, one per iso class."""
    seen = set()
    out = []
    trees = {1: [Graph.discrete([0])]}
    for n in range(2, max_nodes + 1):
        grown = []
        for t in trees[n - 1]:
            for attach in sorted(t.vertices):
                pairs = [tuple(sorted(t.ends(e))) for e in sorted(t.edges)]
                g = Graph.from_edge_pairs(range(n), pairs + [(attach, n - 1)])
                grown.append(g)
        trees[n] = grown
    for n in range(1, max_nodes + 1):
        for t in trees[n]:
            key = canonical_key(t)
            if key not in seen:
                seen.add(key)
                out.append(t)
    return out


def _connected_subsets(shape: Graph):
    nodes = sorted(shape.vertices)
    subs = []
    for r in range(1, len(nodes) + 1):
        for combo in combinations(nodes, r):
            sub = shape.subgraph(combo, {e for e in shape.edges
                                         if shape.ends(e) <= set(combo)})
            if sub.is_connected():
                subs.append(frozenset(combo))
    return subs


def all_tree_decs(g: Graph, max_nodes: int = None):
    """Every valid tree decomposition with at most max(|V|, 1) tree nodes.

    Built from per-vertex connected host sets (which forces the glueing
    clause), then filtered by edge cover; everything yielded passes the
    full validator by construction.
    """
    if max_nodes is None:
        max_nodes = max(len(g.vertices), 1)
    vs = sorted(g.vertices)
    for shape in _tree_shapes(max_nodes):
        hosts = _connected_subsets(shape)
        for choice in product(hosts, repeat=len(vs)):
            bags = {i: frozenset(v for v, hs in zip(vs, choice) if i in hs)
                    for i in shape.vertices}
            if not all(any(g.ends(e) <= b for b in bags.values())
                       for e in g.edges):
                continue
            yield TreeDec(shape, bags)


def _intervals(length: int):
    return [frozenset(range(i, j + 1))
            for i in range(length) for j in range(i, length)]


def all_path_decs(g: Graph, max_len: int = None):
    """Every valid path decomposition with at most max(|V|, 1) bags."""
    if max_len is None:
        max_len = max(len(g.vertices), 1)
    vs = sorted(g.vertices)
    for length in range(1, max_len + 1):
        spans = _intervals(length)
        for choice in product(spans, repeat=len(vs)):
            bags = [frozenset(v for v, span in zip(vs, choice) if i in span)
                    for i in range(length)]
            if not all(any(g.ends(e) <= b for b in bags) for e in g.edges):
                continue
            yield PathDec(bags)
