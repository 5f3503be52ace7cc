import random

import pytest

from conftest import random_cospan
from mwidth import (
    Cospan,
    CospanError,
    Graph,
    SourcedGraph,
    boundary_weight,
    compose,
    copy,
    cospan_from_json,
    cospan_iso_eq,
    cospan_to_json,
    create,
    delete,
    edge,
    from_sourced,
    generator,
    identity,
    merge,
    permutation,
    swap,
    tensor,
    weight,
)


def test_compose_edge_edge_is_path_of_length_two():
    c = compose(edge(), edge())
    assert weight(c) == 3 and len(c.apex.edges) == 2
    assert c.left_arity == 1 and c.right_arity == 1
    degrees = sorted(c.apex.degree(v) for v in c.apex.vertices)
    assert degrees == [1, 1, 2]


def test_compose_unit_laws():
    rng = random.Random(0)
    for _ in range(25):
        g = random_cospan(rng, rng.randint(0, 2), rng.randint(0, 2))
        assert cospan_iso_eq(compose(identity(g.left_arity), g), g)
        assert cospan_iso_eq(compose(g, identity(g.right_arity)), g)
        assert cospan_iso_eq(tensor(g, identity(0)), g)
        assert cospan_iso_eq(tensor(identity(0), g), g)


def test_copy_then_merge_collapses_to_a_point():
    c = compose(copy(1), merge(1))
    assert weight(c) == 1
    assert c.left == c.right and len(c.left) == 1
    assert cospan_iso_eq(c, identity(1))


def test_tensor_counts():
    c = tensor(edge(), edge())
    assert weight(c) == 4 and len(c.apex.edges) == 2
    d = tensor(copy(1), delete(1))
    assert weight(d) == 2
    assert d.left_arity == 2 and d.right_arity == 2


def test_generator_table():
    cp = generator("copy", 1)
    assert weight(cp) == 1 and cp.left_arity == 1 and cp.right_arity == 2
    assert cp.right[0] == cp.right[1]
    assert not cp.apex.edges
    sw = generator("swap", 2, 1)
    assert not sw.apex.edges and weight(sw) == 3
    assert sw.left_arity == sw.right_arity == 3
    assert cospan_iso_eq(generator("create", 0), identity(0))
    e = generator("edge")
    assert weight(e) == 2 and len(e.apex.edges) == 1
    assert e.left != e.right
    sw2 = generator("swap", 2)  # m defaults to n
    assert sw2 == swap(2, 2) and sw2.right == (2, 3, 0, 1)
    for kind, made in (("identity", identity), ("merge", merge), ("delete", delete)):
        for n in range(3):
            assert generator(kind, n) == made(n)
    assert generator("merge", 2).left == (0, 1, 0, 1) and generator("delete", 2).right == ()
    with pytest.raises(CospanError):
        generator("nope")


def test_weights():
    assert weight(edge()) == 2
    assert weight(identity(0)) == 0
    for n in range(4):
        assert weight(copy(n)) == n
    assert boundary_weight(0) == 0 and boundary_weight(5) == 5
    with pytest.raises(CospanError):
        boundary_weight(-1)


def test_iso_eq_examples():
    e = edge()
    renamed = Cospan(Graph.from_edge_pairs([7, 9], [(7, 9)]), (7,), (9,))
    assert cospan_iso_eq(e, renamed)
    flipped = Cospan(e.apex, (1,), (0,))
    assert cospan_iso_eq(e, flipped)  # undirected symmetry swaps the ends
    assert not cospan_iso_eq(copy(1), merge(1))  # arities differ
    # same arities, legs wired differently: 2-port discrete apexes
    a = Cospan(Graph.discrete([0, 1]), (0, 1), (0, 1))
    b = Cospan(Graph.discrete([0, 1]), (0, 1), (1, 0))
    assert not cospan_iso_eq(a, b)


def test_a_leg_outside_the_apex_and_unequal_right_arities():
    with pytest.raises(CospanError) as info:
        Cospan(edge().apex, (0, 5), ())
    assert str(info.value) == "leg hits 5, not an apex vertex"
    e = edge()
    assert not cospan_iso_eq(e, Cospan(e.apex, (0,), ()))
    assert not cospan_iso_eq(Cospan(e.apex, (0,), ()), e)


def test_compose_boundary_mismatch():
    with pytest.raises(CospanError):
        compose(copy(1), copy(1))


def test_associativity_and_interchange_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c, d = (rng.randint(0, 2) for _ in range(4))
        f = random_cospan(rng, a, b)
        g = random_cospan(rng, b, c)
        h = random_cospan(rng, c, d)
        assert cospan_iso_eq(compose(compose(f, g), h), compose(f, compose(g, h)))
        f2 = random_cospan(rng, rng.randint(0, 2), rng.randint(0, 2))
        g2 = random_cospan(rng, f2.right_arity, rng.randint(0, 2))
        assert cospan_iso_eq(
            compose(tensor(f, f2), tensor(g, g2)),
            tensor(compose(f, g), compose(f2, g2)))
        h2 = random_cospan(rng, rng.randint(0, 2), rng.randint(0, 2))
        assert cospan_iso_eq(tensor(tensor(f, g2), h2), tensor(f, tensor(g2, h2)))


def test_frobenius_laws_single_wire():
    cp, mg = copy(1), merge(1)
    i1 = identity(1)
    left = compose(tensor(cp, i1), tensor(i1, mg))
    mid = compose(mg, cp)
    right = compose(tensor(i1, cp), tensor(mg, i1))
    assert cospan_iso_eq(left, mid) and cospan_iso_eq(mid, right)
    assert cospan_iso_eq(compose(cp, mg), i1)  # special
    assert cospan_iso_eq(compose(cp, tensor(delete(1), i1)), i1)  # counit
    assert cospan_iso_eq(compose(tensor(create(1), i1), mg), i1)  # unit
    coassoc_l = compose(cp, tensor(cp, i1))
    coassoc_r = compose(cp, tensor(i1, cp))
    assert cospan_iso_eq(coassoc_l, coassoc_r)


def test_coherent_copying():
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        lhs = copy(n + m)
        rhs = compose(tensor(copy(n), copy(m)),
                      tensor(tensor(identity(n), swap(n, m)), identity(m)))
        assert cospan_iso_eq(lhs, rhs)


def test_permutation_routing():
    p = permutation((2, 0, 1))
    q = permutation((1, 2, 0))
    assert cospan_iso_eq(compose(p, q), identity(3))
    with pytest.raises(CospanError):
        permutation((0, 0, 1))


def test_from_sourced():
    sg = SourcedGraph(Graph.from_edge_pairs([3, 5, 8], [(3, 5)]), {8, 3})
    c = from_sourced(sg)
    assert c.left == (3, 8) and c.right == ()


def test_json_round_trip_stable():
    rng = random.Random(5)
    for _ in range(25):
        c = random_cospan(rng, rng.randint(0, 3), rng.randint(0, 3))
        data = cospan_to_json(c)
        assert cospan_iso_eq(cospan_from_json(data), c)
        assert cospan_to_json(cospan_from_json(data)) == data
    assert list(cospan_to_json(edge())) == ["left", "right", "apex", "legL", "legR"]


def _brute_iso_eq(c1, c2):
    import itertools
    if (c1.left_arity, c1.right_arity) != (c2.left_arity, c2.right_arity):
        return False
    if len(c1.apex.vertices) != len(c2.apex.vertices) \
            or len(c1.apex.edges) != len(c2.apex.edges):
        return False
    vs1, vs2 = sorted(c1.apex.vertices), sorted(c2.apex.vertices)
    prof2 = {}
    for e in c2.apex.edges:
        prof2[c2.apex.ends(e)] = prof2.get(c2.apex.ends(e), 0) + 1
    for perm in itertools.permutations(vs2):
        m = dict(zip(vs1, perm))
        if tuple(m[v] for v in c1.left) != c2.left:
            continue
        if tuple(m[v] for v in c1.right) != c2.right:
            continue
        prof1 = {}
        for e in c1.apex.edges:
            key = frozenset(m[v] for v in c1.apex.ends(e))
            prof1[key] = prof1.get(key, 0) + 1
        if prof1 == prof2:
            return True
    return False


def test_iso_eq_matches_permutation_oracle():
    rng = random.Random(99)
    for _ in range(400):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        c1 = random_cospan(rng, a, b, max_v=4, max_e=4)
        if rng.random() < 0.5:
            perm = rng.sample(range(10, 20), len(c1.apex.vertices))
            m = dict(zip(sorted(c1.apex.vertices), perm))
            apex = Graph({m[v] for v in c1.apex.vertices},
                         {e: {m[v] for v in c1.apex.ends(e)}
                          for e in c1.apex.edges})
            c2 = Cospan(apex, tuple(m[v] for v in c1.left),
                        tuple(m[v] for v in c1.right))
        else:
            c2 = random_cospan(rng, a, b, max_v=4, max_e=4)
        assert cospan_iso_eq(c1, c2) == _brute_iso_eq(c1, c2)
