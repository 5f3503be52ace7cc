import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, k, path_graph, random_graph
from mwidth import (
    Cospan,
    FiniteMap,
    Graph,
    GraphError,
    GraphMorphism,
    GraphParseError,
    SourcedGraph,
    ends_of_edge_set,
    format_graph_text,
    cospan_iso_eq,
    graph_coproduct,
    graph_isomorphic,
    graph_pushout,
    image_intersection,
    image_union,
    is_epimorphism,
    is_subcubic_tree,
    parse_graph_text,
)
from mwidth.graph import (
    find_isomorphism,
    graph_from_json,
    graph_to_json,
    sourced_graph_from_json,
)
from mwidth.oracles import enumerate_graphs


def test_ends_of_edge_set():
    g = k(3)
    e_ab = next(e for e in g.edges if g.ends(e) == frozenset({0, 1}))
    assert ends_of_edge_set(g, [e_ab]) == {0, 1}
    assert ends_of_edge_set(g, []) == frozenset()
    p = path_graph(3)
    assert ends_of_edge_set(p, p.edges) == {0, 1, 2}
    with pytest.raises(GraphError):
        ends_of_edge_set(g, [99])


def test_graph_invariants():
    with pytest.raises(GraphError):
        Graph([0], {0: {0, 1}})  # endpoint outside the vertex set
    with pytest.raises(GraphError):
        Graph([0, 1, 2], {0: {0, 1, 2}})  # too many endpoints
    loop = Graph([0], {0: {0}})
    assert loop.is_loop(0)
    assert loop.degree(0) == 2


def test_coproduct_counts():
    e = Graph.from_edge_pairs([0, 1], [(0, 1)])
    g, i1, i2 = graph_coproduct(e, e)
    assert len(g.vertices) == 4 and len(g.edges) == 2
    empty = Graph.empty()
    g2, _, inj = graph_coproduct(empty, k(3))
    assert graph_isomorphic(g2, k(3)) is not None
    g3, _, _ = graph_coproduct(k(3), k(3))
    assert len(g3.vertices) == 6 and len(g3.edges) == 6


def test_pushout_path_of_length_two():
    e = Graph.from_edge_pairs([0, 1], [(0, 1)])
    l1 = FiniteMap({0: 1}, e.vertices)
    l2 = FiniteMap({0: 0}, e.vertices)
    apex, m1, m2 = graph_pushout(e, e, [0], l1, l2)
    assert graph_isomorphic(apex, path_graph(3)) is not None


def test_pushout_empty_is_coproduct():
    g1, g2 = k(3), path_graph(3)
    apex, _, _ = graph_pushout(g1, g2, [], FiniteMap({}, g1.vertices),
                               FiniteMap({}, g2.vertices))
    co, _, _ = graph_coproduct(g1, g2)
    assert graph_isomorphic(apex, co) is not None


def test_pushout_merge_classes_against_union_find_oracle():
    # both boundary points to the same vertex on one side, distinct on the other
    e1 = Graph.from_edge_pairs([0, 1], [(0, 1)])
    e2 = Graph.from_edge_pairs([0, 1], [(0, 1)])
    l1 = FiniteMap({0: 1, 1: 1}, e1.vertices)
    l2 = FiniteMap({0: 0, 1: 1}, e2.vertices)
    apex, m1, m2 = graph_pushout(e1, e2, [0, 1], l1, l2)
    # independent quotient computation over the generated relation
    pairs = [(("a", l1(y)), ("b", l2(y))) for y in (0, 1)]
    items = [("a", v) for v in e1.vertices] + [("b", v) for v in e2.vertices]
    classes = {x: {x} for x in items}
    for p, q in pairs:
        union = classes[p] | classes[q]
        for x in union:
            classes[x] = union
    n_classes = len({frozenset(c) for c in classes.values()})
    assert len(apex.vertices) == n_classes == 2
    assert sum(1 for e in apex.edges if len(apex.ends(e)) == 1) == 1  # a loop appears


def test_pushout_identification_property():
    rng = random.Random(7)
    for _ in range(30):
        g1 = random_graph(rng, max_v=4, max_e=4)
        g2 = random_graph(rng, max_v=4, max_e=4)
        if not g1.vertices or not g2.vertices:
            continue
        y = list(range(rng.randint(0, 3)))
        l1 = FiniteMap({a: rng.choice(sorted(g1.vertices)) for a in y}, g1.vertices)
        l2 = FiniteMap({a: rng.choice(sorted(g2.vertices)) for a in y}, g2.vertices)
        apex, m1, m2 = graph_pushout(g1, g2, y, l1, l2)
        for m, leg in ((m1, l1), (m2, l2)):
            img = leg.image()
            for v, w in itertools.combinations(sorted(m.domain.vertices), 2):
                if m.vmap[v] == m.vmap[w]:
                    assert v in img and w in img


def test_pushout_is_the_quotient_of_the_coproduct():
    # the apex and both maps, dict order included, equal the coproduct
    # injections followed by the quotient onto least-id classes
    rng = random.Random(11)
    for _ in range(60):
        g1, g2 = (_sparse_ids(rng, random_graph(rng, max_v=5, max_e=6)) for _ in "ab")
        if not g1.vertices or not g2.vertices:
            continue
        y = list(range(rng.randint(0, 4)))
        l1 = FiniteMap({a: rng.choice(sorted(g1.vertices)) for a in y}, g1.vertices)
        l2 = FiniteMap({a: rng.choice(sorted(g2.vertices)) for a in y}, g2.vertices)
        apex, m1, m2 = graph_pushout(g1, g2, y, l1, l2)
        co, i1, i2 = graph_coproduct(g1, g2)
        parent = {v: v for v in co.vertices}  # a union-find whose roots are least ids

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for a in y:
            ra, rb = find(i1.vmap[l1(a)]), find(i2.vmap[l2(a)])
            parent[max(ra, rb)] = min(ra, rb)
        reps = sorted({find(v) for v in co.vertices})
        q = {v: reps.index(find(v)) for v in co.vertices}
        want = Graph(range(len(reps)), {e: {q[v] for v in co.ends(e)} for e in co.edges})
        qm = GraphMorphism(co, want, q, {e: e for e in co.edges})
        assert apex == want
        for got, ref in ((m1, i1.then(qm)), (m2, i2.then(qm))):
            assert list(got.vmap.items()) == list(ref.vmap.items())
            assert list(got.emap.items()) == list(ref.emap.items())


def _bfs_components(g: Graph) -> list:
    """Components by breadth-first search from each least unreached vertex."""
    out, seen = [], set()
    for root in sorted(g.vertices):
        if root in seen:
            continue
        comp, es, queue = {root}, set(), [root]
        for v in queue:
            for e in g.incident_edges(v):
                es.add(e)
                for w in g.ends(e) - comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append((frozenset(comp), frozenset(es)))
    return out


def test_connected_components_match_a_breadth_first_search():
    assert Graph.empty().connected_components() == []
    rng = random.Random(13)
    loops = parallel = isolated = False
    for _ in range(200):
        g = _sparse_ids(rng, random_graph(rng, max_v=9, max_e=10))
        ends = [g.ends(e) for e in g.edges]
        loops |= any(len(pts) == 1 for pts in ends)
        parallel |= len(set(ends)) < len(ends)
        isolated |= any(not g.incident_edges(v) for v in g.vertices)
        got = g.connected_components()
        assert got == _bfs_components(g)
        assert g.is_connected() == (len(got) == 1)
    assert loops and parallel and isolated  # the corpus holds each


def _sparse_ids(rng, g: Graph) -> Graph:
    """g with its vertex and edge ids spread over 0..99."""
    vs = dict(zip(sorted(g.vertices), sorted(rng.sample(range(100), len(g.vertices)))))
    es = rng.sample(range(100), len(g.edges))
    return Graph(vs.values(), {f: {vs[v] for v in g.ends(e)} for f, e in zip(es, sorted(g.edges))})


def _morphisms_between(g: Graph, h: Graph):
    """All graph morphisms g -> h (brute force, tiny graphs only)."""
    vs = sorted(g.vertices)
    for vchoice in itertools.product(sorted(h.vertices), repeat=len(vs)):
        vmap = dict(zip(vs, vchoice))
        epools = []
        for e in sorted(g.edges):
            target = frozenset(vmap[v] for v in g.ends(e))
            pool = [f for f in sorted(h.edges) if h.ends(f) == target]
            if not pool:
                break
            epools.append(pool)
        else:
            for echoice in itertools.product(*epools):
                yield GraphMorphism(g, h, vmap, dict(zip(sorted(g.edges), echoice)))


def test_pushout_universal_property_small():
    e = Graph.from_edge_pairs([0, 1], [(0, 1)])
    l1 = FiniteMap({0: 1}, e.vertices)
    l2 = FiniteMap({0: 0}, e.vertices)
    apex, m1, m2 = graph_pushout(e, e, [0], l1, l2)
    for d in enumerate_graphs(3, 3):
        for c1 in _morphisms_between(e, d):
            for c2 in _morphisms_between(e, d):
                if any(c1.vmap[l1(y)] != c2.vmap[l2(y)] for y in [0]):
                    continue
                mediators = [
                    u for u in _morphisms_between(apex, d)
                    if all(u.vmap[m1.vmap[v]] == c1.vmap[v] for v in e.vertices)
                    and all(u.emap[m1.emap[x]] == c1.emap[x] for x in e.edges)
                    and all(u.vmap[m2.vmap[v]] == c2.vmap[v] for v in e.vertices)
                    and all(u.emap[m2.emap[x]] == c2.emap[x] for x in e.edges)
                ]
                assert len(mediators) == 1


def test_subcubic_tree():
    assert is_subcubic_tree(Graph.discrete([0]))
    assert is_subcubic_tree(path_graph(3))
    star4 = Graph.from_edge_pairs(range(5), [(0, i) for i in range(1, 5)])
    assert not is_subcubic_tree(star4)  # centre has four neighbours
    assert not is_subcubic_tree(k(3))  # cycle
    assert not is_subcubic_tree(Graph.empty())


def test_is_epimorphism():
    g = k(3)
    ident = GraphMorphism(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})
    assert is_epimorphism(ident)
    e = next(iter(g.edges))
    sub = g.subgraph(g.ends(e), {e})
    incl = GraphMorphism(sub, g, {v: v for v in sub.vertices}, {e: e})
    assert not is_epimorphism(incl)
    # quotient of a path identifying its endpoints
    p = path_graph(3)
    two = Graph([0, 1], {0: {0, 1}, 1: {0, 1}})
    q = GraphMorphism(p, two, {0: 0, 1: 1, 2: 0}, {0: 0, 1: 1})
    assert is_epimorphism(q)


def _brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    vs1, vs2 = sorted(g1.vertices), sorted(g2.vertices)
    prof2 = {}
    for e in g2.edges:
        key = g2.ends(e)
        prof2[key] = prof2.get(key, 0) + 1
    for perm in itertools.permutations(vs2):
        relab = dict(zip(vs1, perm))
        prof1 = {}
        for e in g1.edges:
            key = frozenset(relab[v] for v in g1.ends(e))
            prof1[key] = prof1.get(key, 0) + 1
        if prof1 == prof2:
            return True
    return False


def test_isomorphism_examples():
    g = k(3)
    relabelled = Graph.from_edge_pairs([5, 7, 9], [(5, 7), (7, 9), (5, 9)])
    m = graph_isomorphic(g, relabelled)
    assert m is not None
    # the witness is a real morphism with bijective components
    assert len(set(m.vmap.values())) == 3 and len(set(m.emap.values())) == 3
    assert graph_isomorphic(g, path_graph(3)) is None


def test_isomorphism_against_brute_force_oracle():
    cat = enumerate_graphs(4)
    for g1 in cat:
        for g2 in cat:
            got = graph_isomorphic(g1, g2) is not None
            assert got == _brute_force_isomorphic(g1, g2), (g1, g2)


def test_isomorphism_is_equivalence_on_catalog():
    cat = enumerate_graphs(4, 4)
    for g in cat:
        assert graph_isomorphic(g, g) is not None
    rng = random.Random(1)
    for _ in range(40):
        g = rng.choice(cat)
        perm = {v: p for v, p in zip(sorted(g.vertices),
                                     rng.sample(range(10, 20), len(g.vertices)))}
        h = Graph({perm[v] for v in g.vertices},
                  {e: {perm[v] for v in g.ends(e)} for e in g.edges})
        m = graph_isomorphic(g, h)
        assert m is not None
        back = graph_isomorphic(h, g)
        assert back is not None
        # transitivity via composition of witnesses
        gh = graph_isomorphic(g, h)
        hg = graph_isomorphic(h, g)
        comp = gh.then(hg)
        assert comp.domain == g and comp.codomain == g


def test_forced_partial_isomorphism():
    g = path_graph(3)
    assert find_isomorphism(g, g, {0: 2, 2: 0}) is not None
    assert find_isomorphism(g, g, {0: 1}) is None  # degree mismatch
    assert find_isomorphism(g, g, {0: 0, 2: 0}) is None  # two vertices to one target
    assert find_isomorphism(g, g, {3: 0}) is None  # a pin outside the vertex set
    assert find_isomorphism(g, g, {0: 3}) is None  # and a target outside it


def test_isomorphism_search_backtracks_past_its_first_vertex():
    # C6 and two triangles share every vertex invariant, so the search
    # tries every target of its first vertex and runs out
    triangles = Graph.from_edge_pairs(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert find_isomorphism(cycle_graph(6), triangles) is None
    assert not cospan_iso_eq(Cospan(cycle_graph(6), (), ()), Cospan(triangles, (), ()))


def test_a_pin_incompatible_with_the_pins_before_it_is_refused():
    # 0 and 1 are adjacent in C4, their targets 0 and 2 are not
    c4 = cycle_graph(4)
    assert find_isomorphism(c4, c4, {0: 0, 1: 2}) is None
    assert find_isomorphism(c4, c4, {0: 0, 1: 3}) is not None
    assert not cospan_iso_eq(Cospan(c4, (0, 1), ()), Cospan(c4, (0, 2), ()))


def _pushout(l1, l2):
    return graph_pushout(k(2), k(2), {0}, l1, l2)


_K2_ID = GraphMorphism(k(2), k(2), {0: 0, 1: 1}, {0: 0})

GRAPH_REFUSALS = [
    (lambda: path_graph(3).degree(9), "unknown vertex id 9"),
    (lambda: path_graph(3).neighbours(9), "unknown vertex id 9"),
    (lambda: GraphMorphism(k(2), k(2), {0: 0}, {0: 0}),
     "vertex map is not total on the domain vertices"),
    (lambda: GraphMorphism(k(2), k(2), {0: 0, 1: 1}, {}),
     "edge map is not total on the domain edges"),
    (lambda: GraphMorphism(k(2), k(2), {0: 0, 1: 5}, {0: 0}), "vertex map escapes the codomain"),
    (lambda: GraphMorphism(k(2), k(2), {0: 0, 1: 1}, {0: 5}), "edge map escapes the codomain"),
    (lambda: GraphMorphism(k(2), k(2), {0: 0, 1: 0}, {0: 0}),
     "morphism does not respect endpoints of edge 0"),
    (lambda: _K2_ID.then(GraphMorphism(k(3), k(3), {v: v for v in range(3)},
                                       {e: e for e in range(3)})),
     "morphisms are not composable"),
    (lambda: FiniteMap({0: 5}, {0, 1}), "map image escapes the codomain at [0]"),
    (lambda: FiniteMap({0: 1}, {0, 1})(3), "3 is outside the map domain"),
    (lambda: image_intersection(FiniteMap({0: 1}, {0, 1}), FiniteMap({}, {0})),
     "image_intersection requires a common codomain"),
    (lambda: _pushout(FiniteMap({}, {0, 1}), FiniteMap({0: 0}, {0, 1})),
     "pushout legs must be total on the shared boundary"),
    (lambda: _pushout(FiniteMap({0: 7}, {7}), FiniteMap({0: 0}, {0, 1})),
     "pushout legs must land in the graph vertices"),
]


@pytest.mark.parametrize("call,message", GRAPH_REFUSALS)
def test_graph_refusals_name_what_is_wrong(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert str(info.value) == message


def test_image_union_intersection():
    rng = random.Random(3)
    cod = frozenset(range(6))
    for _ in range(50):
        f = FiniteMap({i: rng.randrange(6) for i in range(rng.randint(0, 5))}, cod)
        g = FiniteMap({i: rng.randrange(6) for i in range(rng.randint(0, 5))}, cod)
        assert image_union(f, g) == set(f.mapping.values()) | set(g.mapping.values())
        assert image_intersection(f, g) == set(f.mapping.values()) & set(g.mapping.values())
    assert image_union(f, f) == f.image() == image_intersection(f, f)
    with pytest.raises(GraphError):
        image_union(f, FiniteMap({}, frozenset({99})))


def test_text_format_round_trip():
    sg = SourcedGraph(k(3), {0, 2})
    parsed = parse_graph_text(format_graph_text(sg))
    assert parsed.sources == sg.sources
    assert graph_isomorphic(parsed.graph, sg.graph) is not None
    # self-loops use a repeated id
    loop = SourcedGraph(Graph([0], {0: {0}}))
    assert "e 0 0" in format_graph_text(loop)
    assert parse_graph_text("v 3\ne 3 3\n").graph.is_loop(0)


@pytest.mark.parametrize("text,lineno", [
    ("q 1\n", 1),
    ("v 0\nz\n", 2),
    ("v 0\ne 0 1\n", 2),
    ("s 0\n", 1),
    ("v 0\nv 1\ne 0\n", 3),
    ("v x\n", 1),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphParseError) as err:
        parse_graph_text(text)
    assert err.value.lineno == lineno


def test_graph_json_round_trip():
    for g in enumerate_graphs(3, 3):
        assert graph_from_json(graph_to_json(g)) == g


def test_find_isomorphism_of_a_long_path_needs_no_recursion():
    # the search goes one vertex deeper per assignment, 1,500 deep here; the
    # first isomorphism in id order is the identity
    g = path_graph(1500)
    m = find_isomorphism(g, g)
    assert m.vmap == {v: v for v in g.vertices} and m.emap == {e: e for e in g.edges}


def test_a_subgraph_means_what_the_graph_of_its_edges_means():
    # a part shares its parent's end sets, but equals, hashes and prints
    # like the graph built from scratch, nested parts too
    rng = random.Random(19)
    for _ in range(200):
        g = random_graph(rng, max_v=6, max_e=8)
        vs = frozenset(v for v in g.vertices if rng.random() < 0.7)
        es = [e for e in g.edges if g.ends(e) <= vs and rng.random() < 0.7]
        sub = g.subgraph(vs, es)
        fresh = Graph(vs, {e: g.ends(e) for e in es})
        assert sub == fresh and hash(sub) == hash(fresh) and repr(sub) == repr(fresh)
        assert graph_to_json(sub) == graph_to_json(fresh)
        inner = sub.subgraph(vs, es[1:])
        assert inner == Graph(vs, {e: g.ends(e) for e in es[1:]})
        assert hash(inner) == hash(Graph(vs, {e: g.ends(e) for e in es[1:]}))
    assert {path_graph(3).subgraph({0, 1}, {0}), Graph([0, 1], {0: {0, 1}})} == {
        Graph([0, 1], {0: [1, 0]})}


def test_a_subgraph_edge_leaving_its_vertices_fails_as_a_graph_does():
    g = path_graph(3)
    message = "edge 1 has endpoints [1, 2] outside the vertex set"
    with pytest.raises(GraphError) as built:
        Graph({0, 1}, {0: g.ends(0), 1: g.ends(1)})
    with pytest.raises(GraphError) as part:
        g.subgraph({0, 1}, {0, 1})
    assert str(built.value) == str(part.value) == message
    with pytest.raises(GraphError, match="subgraph vertices not contained in the graph"):
        g.subgraph({0, 7}, {0})
    with pytest.raises(GraphError, match="subgraph edges not contained in the graph"):
        g.subgraph({0, 1}, {0, 5})


def test_a_subgraph_names_the_first_edge_leaving_its_vertices():
    # the first in the order of the frozenset of the edges given
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, max_v=6, max_e=8)
        vs = frozenset(v for v in g.vertices if rng.random() < 0.5)
        es = frozenset(e for e in g.edges if rng.random() < 0.7)
        bad = [e for e in es if not g.ends(e) <= vs]
        if not bad:
            assert g.subgraph(vs, es) == Graph(vs, {e: g.ends(e) for e in es})
            continue
        with pytest.raises(GraphError) as info:
            g.subgraph(vs, es)
        assert str(info.value) == (f"edge {bad[0]} has endpoints {sorted(g.ends(bad[0]))} "
                                   "outside the vertex set")


@pytest.mark.parametrize("entry", [[], "", {}, {"a": 1}])
def test_graph_from_json_refuses_an_edge_entry_without_an_id(entry):
    with pytest.raises(GraphError) as info:
        graph_from_json({"v": [0, 1], "e": [entry]})
    assert str(info.value) == f"edge entry {entry!r} has no id"


@pytest.mark.parametrize("read,data,message", [
    (graph_from_json, "x", "a graph is a JSON object, not str"),
    (graph_from_json, {"v": 5, "e": []}, "a vertex list is a JSON array, not int"),
    (graph_from_json, {"v": [0], "e": [[0, {}]]}, "expected integers, got [0, {}]"),
    (sourced_graph_from_json, {"v": [0], "s": 3}, "a source list is a JSON array, not int"),
])
def test_graph_json_readers_name_the_expected_type(read, data, message):
    with pytest.raises(GraphError) as info:
        read(data)
    assert str(info.value) == message


def _is_tree_reference(g: Graph) -> bool:
    """The definition `Graph.is_tree` had before it read the decomposition
    walk: connected, no loop, and one edge fewer than vertices."""
    return (g.is_connected() and not any(g.is_loop(e) for e in g.edges)
            and len(g.edges) == len(g.vertices) - 1)


@st.composite
def near_trees(draw):
    """A multigraph on up to 7 of the ids 0..9, the empty graph included:
    a random tree, less some of its edges (leaving isolated vertices or
    several components), plus loops, parallel edges and other edges."""
    ids = draw(st.permutations(range(10)))[:draw(st.integers(0, 7))]
    tree = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, len(ids))]
    kept = [pair for pair in tree if draw(st.integers(0, 3))]  # drawing 0 drops the edge
    vertex = st.sampled_from(ids or [0])
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2)) if ids else []
    return Graph.from_edge_pairs(ids, kept + extra)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(near_trees())
def test_is_tree_matches_the_reference_on_multigraphs(g):
    assert g.is_tree() == _is_tree_reference(g)
    assert is_subcubic_tree(g) == (
        _is_tree_reference(g) and all(len(g.neighbours(v)) <= 3 for v in g.vertices))


# ---------------------------------------------------------------------------
# The one numbering of a graph.


def _naive_numbering(g: Graph) -> tuple:
    """The fields of `Graph._numbering`, by their definitions."""
    vs, es = sorted(g.vertices), sorted(g.edges)
    rank = {v: vs.index(v) for v in vs}
    ends = [(min(rank[v] for v in g.ends(e)), max(rank[v] for v in g.ends(e))) for e in es]
    ends_mask = [sum(2 ** rank[v] for v in g.ends(e)) for e in es]
    incident = [sum(2 ** j for j, e in enumerate(es) if v in g.ends(e)) for v in vs]
    return vs, es, rank, ends, ends_mask, incident


def test_the_numbering_is_sorted_ranked_and_masked():
    rng = random.Random(31)
    multigraphs = [_sparse_ids(rng, random_graph(rng, max_v=8, max_e=12)) for _ in range(200)]
    ends = [g.ends(e) for g in multigraphs for e in g.edges]
    assert any(len(pts) == 1 for pts in ends)  # loops
    assert any(len(g.edges) > len({g.ends(e) for e in g.edges}) for g in multigraphs)
    assert any(v not in set().union(*map(g.ends, g.edges)) for g in multigraphs
               for v in g.vertices)  # isolated vertices
    for g in [Graph.empty(), *enumerate_graphs(5), *multigraphs]:
        view = g._numbering()
        assert tuple(view) == _naive_numbering(g)
        assert g._numbering() is view  # built once, then kept
        part = g.subgraph(g.vertices, g.edges)
        assert tuple(part._numbering()) == tuple(view)


def test_one_numbering_per_graph(monkeypatch):
    from mwidth import WidthCache, check_theorems, graph as graph_module

    built = []  # every graph numbered, kept alive so that no id is reused
    number = graph_module._number

    def counted(g):
        built.append(g)
        return number(g)

    monkeypatch.setattr(graph_module, "_number", counted)
    for call in (check_theorems, lambda g: WidthCache().widths(g)):
        for g in (k(4), path_graph(5), Graph(range(4), {0: {0}, 1: {0, 1}, 2: {0, 1}, 3: {2, 3}})):
            built.clear()
            call(g)
            assert sum(h is g for h in built) == 1
            assert len({id(h) for h in built}) == len(built)
