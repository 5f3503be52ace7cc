"""The symmetric monoidal category of cospans over undirected graphs.

Objects are finite boundary arities; a morphism is a graph apex with two
leg maps sending boundary ports to apex vertices.  Boundary ports are
positional (0..n-1), so tensor and swap are unambiguous; composition glues
apexes by pushout over the shared boundary, identifying common sources.
Morphism equality throughout is up to apex isomorphism commuting with the
legs, never structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import (
    FiniteMap,
    Graph,
    GraphError,
    GraphMorphism,
    SourcedGraph,
    _ints,
    _json,
    find_isomorphism,
    graph_coproduct,
    graph_pushout,
)


class CospanError(TypeError):
    """Boundary mismatch or malformed cospan data."""


@dataclass(frozen=True)
class Cospan:
    """left ports -> apex <- right ports; ports are tuples of apex vertices."""

    apex: Graph
    left: tuple
    right: tuple

    def __post_init__(self):
        for v in self.left + self.right:
            if v not in self.apex.vertices:
                raise CospanError(f"leg hits {v}, not an apex vertex")

    @property
    def left_arity(self) -> int:
        return len(self.left)

    @property
    def right_arity(self) -> int:
        return len(self.right)

    def left_image(self) -> frozenset:
        return frozenset(self.left)

    def right_image(self) -> frozenset:
        return frozenset(self.right)

    def __repr__(self) -> str:
        return f"Cospan({self.left_arity}->{len(self.apex.vertices)}v<-{self.right_arity})"


def weight(g: Cospan) -> int:
    """Morphism weight: the number of apex vertices."""
    return len(g.apex.vertices)


def boundary_weight(arity: int) -> int:
    """Object weight: the boundary cardinality."""
    if arity < 0:
        raise CospanError("boundary arity must be a natural number")
    return arity


def _ranked_legs(c: Cospan) -> tuple:
    """The apex's numbering (`Graph._numbering`) and the two legs as ranks in it."""
    view = c.apex._numbering()
    return view, tuple([view.rank[v] for v in c.left]), tuple([view.rank[v] for v in c.right])


def compose_with_maps(g1: Cospan, g2: Cospan) -> tuple[Cospan, GraphMorphism, GraphMorphism]:
    """Compose and also return the two apex quotient morphisms."""
    if g1.right_arity != g2.left_arity:
        raise CospanError(
            f"cannot compose: right arity {g1.right_arity} != left arity {g2.left_arity}")
    n = g1.right_arity
    ports = range(n)
    l1 = FiniteMap({p: g1.right[p] for p in ports}, g1.apex.vertices)
    l2 = FiniteMap({p: g2.left[p] for p in ports}, g2.apex.vertices)
    apex, m1, m2 = graph_pushout(g1.apex, g2.apex, ports, l1, l2)
    left = tuple(m1.vmap[v] for v in g1.left)
    right = tuple(m2.vmap[v] for v in g2.right)
    return Cospan(apex, left, right), m1, m2


def compose(g1: Cospan, g2: Cospan) -> Cospan:
    """Glue the apexes by pushout over the shared boundary."""
    return compose_with_maps(g1, g2)[0]


def tensor(g1: Cospan, g2: Cospan) -> Cospan:
    """Monoidal product: disjoint union of apexes, concatenated boundaries."""
    apex, i1, i2 = graph_coproduct(g1.apex, g2.apex)
    left = tuple(i1.vmap[v] for v in g1.left) + tuple(i2.vmap[v] for v in g2.left)
    right = tuple(i1.vmap[v] for v in g1.right) + tuple(i2.vmap[v] for v in g2.right)
    return Cospan(apex, left, right)


def wiring(n_vertices: int, left: Iterable[int], right: Iterable[int]) -> Cospan:
    """A cospan with a discrete apex on 0..n_vertices-1; legs as given."""
    return Cospan(Graph.discrete(range(n_vertices)), tuple(left), tuple(right))


def identity(n: int) -> Cospan:
    return wiring(n, range(n), range(n))


def swap(n: int, m: int) -> Cospan:
    """The symmetry on n + m wires."""
    return wiring(n + m, range(n + m), list(range(n, n + m)) + list(range(n)))


def copy(n: int) -> Cospan:
    """Duplicate n wires: each right half points at the same vertex."""
    return wiring(n, range(n), list(range(n)) * 2)


def merge(n: int) -> Cospan:
    """Identify two bundles of n wires."""
    return wiring(n, list(range(n)) * 2, range(n))


def delete(n: int) -> Cospan:
    return wiring(n, range(n), ())


def create(n: int) -> Cospan:
    return wiring(n, (), range(n))


def spider(n_left: int, n_right: int) -> Cospan:
    """All ports wired to one vertex (the single-vertex Frobenius spider)."""
    return wiring(1, [0] * n_left, [0] * n_right)


def edge() -> Cospan:
    """One edge between two vertices, one boundary port on each side."""
    return Cospan(Graph.from_edge_pairs((0, 1), [(0, 1)]), (0,), (1,))


def permutation(perm: Iterable[int]) -> Cospan:
    """Discrete cospan routing left port i to right port perm[i]."""
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise CospanError(f"{perm!r} is not a permutation")
    right = [0] * n
    for i, p in enumerate(perm):
        right[p] = i
    return wiring(n, range(n), right)


def generator(kind: str, n: int = 1, m: Optional[int] = None) -> Cospan:
    """The named Frobenius/edge generator; `m` only applies to swap."""
    table = {
        "identity": identity,
        "copy": copy,
        "merge": merge,
        "delete": delete,
        "create": create,
        "swap": lambda n: swap(n, m if m is not None else n),
        "edge": lambda n: edge(),
    }
    if kind in table:
        return table[kind](n)
    raise CospanError(f"unknown generator kind {kind!r}")


def from_sourced(sg: SourcedGraph) -> Cospan:
    """The cospan  sources -> G <- (empty);  left ports in ascending id order."""
    return Cospan(sg.graph, tuple(sorted(sg.sources)), ())


def of_graph(g: Graph) -> Cospan:
    """The closed cospan  (empty) -> G <- (empty)."""
    return Cospan(g, (), ())


def cospan_iso_eq(g1: Cospan, g2: Cospan) -> bool:
    """True iff an apex isomorphism commutes with all four legs positionally."""
    if g1.left_arity != g2.left_arity or g1.right_arity != g2.right_arity:
        return False
    forced = {}
    for a, b in zip(g1.left + g1.right, g2.left + g2.right):
        if forced.get(a, b) != b:
            return False
        forced[a] = b
    return find_isomorphism(g1.apex, g2.apex, forced) is not None


# ---------------------------------------------------------------------------
# JSON form.  Apex edges are serialized as endpoint pairs in ascending edge
# id order, so edge ids become list positions; legs map port -> vertex.


def cospan_to_json(c: Cospan) -> dict:
    """The cospan with its apex written in the apex's numbering
    (`Graph._numbering`): vertex ids are ranks, a loop's two ends equal."""
    view, left, right = _ranked_legs(c)
    return {
        "left": list(range(c.left_arity)),
        "right": list(range(c.right_arity)),
        "apex": {"v": list(range(len(view.vertices))), "e": [list(p) for p in view.ends]},
        "legL": {str(i): v for i, v in enumerate(left)},
        "legR": {str(i): v for i, v in enumerate(right)},
    }


def cospan_from_json(data: dict) -> Cospan:
    """The cospan of `cospan_to_json`'s form; CospanError names a missing
    field or the expected type of an ill-typed value."""
    try:
        apex = _json(_json(data, dict, "a cospan")["apex"], dict, "an apex")
        vertices = _ints(_json(apex["v"], list, "a vertex list"))
        ends = {i: _ints(_json(pair, list, "an edge"))
                for i, pair in enumerate(_json(apex["e"], list, "an edge list"))}
        left, right = (tuple(_ints(_json(data[leg], dict, "a leg")[str(i)]
                                   for i in _json(data[ports], list, "a port list")))
                       for ports, leg in (("left", "legL"), ("right", "legR")))
    except (KeyError, GraphError) as exc:
        raise CospanError(f"malformed cospan JSON: {exc}") from exc
    return Cospan(Graph(vertices, ends), left, right)
