"""Monoidal decomposition terms over an atom signature.

A term is a binary tree: leaves name atoms, tensor nodes place parts side
by side, and composition nodes cut along a boundary object.  Width is the
weight of the most expensive node; composition nodes cost the cut object,
tensor nodes are free.  Atoms may be purely symbolic (a declared weight)
or bound to cospans of graphs, in which case terms can be evaluated back
into the category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import cospan as cs
from .cospan import Cospan
from .decomp import DecompositionError
from .graph import Graph, SourcedGraph, _subset_unions
from .oracles import OracleError


class TermError(TypeError):
    """Ill-typed decomposition tree or unknown atom."""


@dataclass(frozen=True)
class Leaf:
    atom: str


@dataclass(frozen=True)
class Tensor:
    left: "DecompTree"
    right: "DecompTree"


@dataclass(frozen=True)
class Compose:
    left: "DecompTree"
    cut: int
    right: "DecompTree"


DecompTree = Union[Leaf, Tensor, Compose]


@dataclass(frozen=True)
class Atom:
    dom: int
    cod: int
    weight: int
    cospan: Optional[Cospan] = None


class Signature:
    """Atom table: name -> (domain arity, codomain arity, weight[, cospan]).

    Object weight is boundary cardinality, additive under tensor with
    weight 0 for the unit.
    """

    def __init__(self):
        self.atoms: dict[str, Atom] = {}
        self._fresh = 0
        self._wiring_cache: dict[tuple, str] = {}

    def add(self, name: str, dom: int, cod: int, weight: int,
            cospan: Optional[Cospan] = None) -> str:
        if name in self.atoms:
            raise TermError(f"atom {name!r} already declared")
        self.atoms[name] = Atom(dom, cod, weight, cospan)
        return name

    def add_cospan(self, c: Cospan, name: Optional[str] = None) -> str:
        if name is None:
            name = f"a{self._fresh}"
            self._fresh += 1
        return self.add(name, c.left_arity, c.right_arity, cs.weight(c), c)

    def atom(self, name: str) -> Atom:
        if name not in self.atoms:
            raise TermError(f"unknown atom {name!r}")
        return self.atoms[name]

    def leaf(self, c: Cospan, name: Optional[str] = None) -> Leaf:
        return Leaf(self.add_cospan(c, name))

    def _wiring_leaf(self, key: tuple, factory) -> Leaf:
        """Cache structural wiring atoms (identities, copies, swaps...)."""
        if key not in self._wiring_cache:
            self._wiring_cache[key] = self.add_cospan(factory(), name="w%d_%s" % (
                len(self._wiring_cache), key[0]))
        return Leaf(self._wiring_cache[key])

    def leaf_identity(self, n: int) -> Leaf:
        return self._wiring_leaf(("id", n), lambda: cs.identity(n))

    def leaf_copy(self, n: int) -> Leaf:
        return self._wiring_leaf(("cp", n), lambda: cs.copy(n))

    def leaf_swap(self, n: int, m: int) -> Leaf:
        return self._wiring_leaf(("sw", n, m), lambda: cs.swap(n, m))

    def leaf_spider(self, n_left: int, n_right: int) -> Leaf:
        return self._wiring_leaf(("sp", n_left, n_right),
                                 lambda: cs.spider(n_left, n_right))

    def leaf_permutation(self, perm: tuple) -> Leaf:
        return self._wiring_leaf(("pm",) + tuple(perm), lambda: cs.permutation(perm))


class SymbolicSignature(Signature):
    """Signature of abstract atoms plus on-demand wiring with prop weights.

    Wiring weights follow the convention for copyable objects:
    w(id_n) = n, w(cp_n) = 2n, w(swap_{n,m}) = n + m.
    """

    # kind -> (dom, cod, weight) of its wiring atom, from the key's arities
    _WIRING = {"id": lambda n: (n, n, n), "cp": lambda n: (n, 2 * n, 2 * n),
               "sw": lambda n, m: (n + m, n + m, n + m),
               "sp": lambda n, m: (n, m, max(n, m, 1))}

    def _wiring_leaf(self, key: tuple, factory) -> Leaf:
        kind, *ns = key
        if kind in self._WIRING and key not in self._wiring_cache:
            self._wiring_cache[key] = self.add(kind + "_".join(map(str, ns)),
                                               *self._WIRING[kind](*ns))
        return super()._wiring_leaf(key, factory)


def arity(d: DecompTree, sig: Signature, _path: str = "") -> tuple[int, int]:
    """Domain and codomain arities; raises TermError naming the bad node."""
    if isinstance(d, Leaf):
        a = sig.atom(d.atom)
        return a.dom, a.cod
    if isinstance(d, Tensor):
        d1, c1 = arity(d.left, sig, _path + "L")
        d2, c2 = arity(d.right, sig, _path + "R")
        return d1 + d2, c1 + c2
    if isinstance(d, Compose):
        d1, c1 = arity(d.left, sig, _path + "L")
        d2, c2 = arity(d.right, sig, _path + "R")
        if c1 != d.cut or d2 != d.cut:
            raise TermError(
                f"cut mismatch at node {_path or 'root'}: "
                f"{c1} -> [{d.cut}] -> {d2}")
        return d1, c2
    raise TermError(f"not a decomposition tree node: {d!r}")


def width(d: DecompTree, sig: Signature) -> int:
    """max over leaves of atom weight and over composition nodes of cut weight."""
    arity(d, sig)
    return _width(d, sig)


def _width(d: DecompTree, sig: Signature) -> int:
    if isinstance(d, Leaf):
        return sig.atom(d.atom).weight
    if isinstance(d, Tensor):
        return max(_width(d.left, sig), _width(d.right, sig))
    return max(_width(d.left, sig), d.cut, _width(d.right, sig))


def node_weights(d: DecompTree, sig: Signature) -> list[int]:
    """Weights of all tree nodes (tensor nodes cost 0)."""
    if isinstance(d, Leaf):
        return [sig.atom(d.atom).weight]
    if isinstance(d, Tensor):
        return node_weights(d.left, sig) + [0] + node_weights(d.right, sig)
    return node_weights(d.left, sig) + [d.cut] + node_weights(d.right, sig)


def node_count(d: DecompTree) -> int:
    if isinstance(d, Leaf):
        return 1
    return 1 + node_count(d.left) + node_count(d.right)


def is_right_tree(d: DecompTree) -> bool:
    """Compositions may only recurse on the right; the left factor is atomic."""
    if isinstance(d, Leaf):
        return True
    if isinstance(d, Tensor):
        return is_right_tree(d.left) and is_right_tree(d.right)
    return isinstance(d.left, Leaf) and is_right_tree(d.right)


def is_left_tree(d: DecompTree) -> bool:
    if isinstance(d, Leaf):
        return True
    if isinstance(d, Tensor):
        return is_left_tree(d.left) and is_left_tree(d.right)
    return isinstance(d.right, Leaf) and is_left_tree(d.left)


def is_path(d: DecompTree) -> bool:
    """No tensor nodes anywhere."""
    if isinstance(d, Leaf):
        return True
    if isinstance(d, Tensor):
        return False
    return is_path(d.left) and is_path(d.right)


def evaluate(d: DecompTree, sig: Signature, _path: str = "") -> Cospan:
    """Fold the term back into the category; every atom must carry a cospan."""
    return _fold(d, sig, _path, {})


def _fold(d: DecompTree, sig: Signature, path: str, nodes: dict) -> Cospan:
    """`evaluate`, recording in `nodes`, by `id(node)`, each node's cospan and
    the apex maps of its two factors into it (None at a leaf)."""
    if isinstance(d, Leaf):
        a = sig.atom(d.atom)
        if a.cospan is None:
            raise TermError(f"atom {d.atom!r} at {path or 'root'} has no cospan binding")
        out = a.cospan, None, None
    else:
        left = _fold(d.left, sig, path + "L", nodes)
        right = _fold(d.right, sig, path + "R", nodes)
        if isinstance(d, Tensor):
            out = cs.tensor_with_maps(left, right)
        elif left.right_arity != d.cut or right.left_arity != d.cut:
            raise TermError(
                f"cut mismatch at node {path or 'root'}: "
                f"{left.right_arity} -> [{d.cut}] -> {right.left_arity}")
        else:
            out = cs.compose_with_maps(left, right)
    nodes[id(d)] = out
    return out[0]


# ---------------------------------------------------------------------------
# JSON serialization.


def tree_to_json(d: DecompTree) -> dict:
    if isinstance(d, Leaf):
        return {"op": "leaf", "atom": d.atom}
    if isinstance(d, Tensor):
        return {"op": "tensor", "children": [tree_to_json(d.left), tree_to_json(d.right)]}
    return {"op": "compose", "cut": d.cut,
            "children": [tree_to_json(d.left), tree_to_json(d.right)]}


def tree_from_json(data: dict) -> DecompTree:
    op = data.get("op") if isinstance(data, dict) else None
    try:
        if op == "leaf":
            if not isinstance(data["atom"], str):
                raise TypeError(f"atom {data['atom']!r} is not a name")
            return Leaf(data["atom"])
        if op == "tensor":
            a, b = data["children"]
            return Tensor(tree_from_json(a), tree_from_json(b))
        if op == "compose":
            a, b = data["children"]
            return Compose(tree_from_json(a), int(data["cut"]), tree_from_json(b))
    except KeyError as exc:
        raise TermError(f"{op} node lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:  # a TermError below is a TypeError too
        raise TermError(f"malformed {op} node: {exc}") from exc
    raise TermError(f"unknown term op {op!r}")


def signature_to_json(sig: Signature) -> dict:
    out = {}
    for name in sorted(sig.atoms):
        a = sig.atoms[name]
        out[name] = {
            "dom": a.dom, "cod": a.cod, "weight": a.weight,
            "cospan": cs.cospan_to_json(a.cospan) if a.cospan is not None else None,
        }
    return out


def signature_from_json(data: dict) -> Signature:
    if not isinstance(data, dict):
        raise TermError(f"a signature is a JSON object, not {type(data).__name__}")
    sig = Signature()
    for name, rec in data.items():
        try:
            c = cs.cospan_from_json(rec["cospan"]) if rec.get("cospan") else None
            dom, cod, weight = (int(rec[k]) for k in ("dom", "cod", "weight"))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TermError(f"malformed atom {name!r}: {exc!r}") from exc
        sig.add(name, dom, cod, weight, c)
    return sig


def tree_serial(d: DecompTree) -> str:
    """Deterministic serialization used for golden tests and tie-breaking."""
    return json.dumps(tree_to_json(d), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Bounded search for low-width monoidal decompositions of a cospan.


@dataclass
class SearchResult:
    """A searched term and its width.  `exact` means the search space was
    exhausted within the budget -- `width` is then the least over the terms
    the search builds, not a proof of optimality; False is "bound only".
    `signature` holds only the atoms that `tree` uses."""

    tree: DecompTree
    signature: Signature
    width: int
    exact: bool


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _prefix_in(ports: tuple, mask: int) -> int:
    """How many leading `ports` lie in `mask`; -1 if a later port does too."""
    n = 0
    while n < len(ports) and mask >> ports[n] & 1:
        n += 1
    return -1 if any(mask >> v & 1 for v in ports[n:]) else n


def _tensor_split_states(state: tuple, ends_mask: list) -> Iterable[tuple[tuple, tuple]]:
    """Tensor splits of a search state along unions of its components,
    ordered by minimum vertex; the first factor takes a boundary prefix."""
    vmask, emask, left, right = state
    es = _bits(emask)
    comps = []
    rest = vmask
    while rest:
        comp = rest & -rest
        grown = True
        while grown:
            grown = False
            for e in es:
                if ends_mask[e] & comp and ends_mask[e] & ~comp:
                    comp |= ends_mask[e]
                    grown = True
        comps.append((comp, sum(1 << e for e in es if ends_mask[e] & comp)))
        rest &= ~comp
    for mask in range(1, (1 << len(comps)) - 1):
        vs1 = es1 = 0
        for i, (vs, e1) in enumerate(comps):
            if mask >> i & 1:
                vs1 |= vs
                es1 |= e1
        nl, nr = _prefix_in(left, vs1), _prefix_in(right, vs1)
        if nl >= 0 and nr >= 0:
            yield ((vs1, es1, left[:nl], right[:nr]),
                   (vmask & ~vs1, emask & ~es1, left[nl:], right[nr:]))


def _compose_split_states(state: tuple, ends_mask: list) -> Iterable[tuple[tuple, int, tuple]]:
    """Composition splits of a search state, one per proper edge bipartition
    in counting order; the cut is the shared vertices, ascending."""
    vmask, emask, left, right = state
    es = _bits(emask)
    if len(es) < 2:
        return
    full = (1 << len(es)) - 1
    # endpoint and edge masks of every subset of `es`
    union = _subset_unions([ends_mask[e] for e in es])
    edges = _subset_unions([1 << e for e in es])
    lmask = sum(1 << v for v in set(left))
    rmask = sum(1 << v for v in set(right))
    free = vmask & ~(lmask | rmask | union[full])
    for s in range(1, full):
        vs1 = union[s] | lmask | free
        vs2 = union[full ^ s] | rmask
        cut = tuple(_bits(vs1 & vs2))
        yield (vs1, edges[s], left, cut), len(cut), (vs2, edges[full ^ s], cut, right)


class _Incumbent:
    """The best (width, node count, tree) triple offered: lower width, then
    fewer nodes, then the smaller `tree_serial`, which is computed only on a
    tie of the first two, and for the incumbent once."""

    def __init__(self, first: tuple):
        self.best, self.serial = first, None

    def offer(self, cand: tuple) -> bool:
        """Take `cand` if it ranks strictly before the incumbent."""
        serial = None
        if cand[:2] == self.best[:2]:
            self.serial = self.serial or tree_serial(self.best[2])
            serial = tree_serial(cand[2])
            if serial >= self.serial:
                return False
        elif cand[:2] > self.best[:2]:
            return False
        self.best, self.serial = cand, serial
        return True


def _leaf_atoms(d: DecompTree) -> set:
    return {d.atom} if isinstance(d, Leaf) else _leaf_atoms(d.left) | _leaf_atoms(d.right)


def bounded_mwd_search(g: Cospan, shape: str = "any", budget: int = 4000,
                       seed_translations: bool = True) -> SearchResult:
    """Best decomposition of `g` found within the searched space.

    The space covers the atomic leaf, tensor splits along disjoint apex
    parts, composition splits induced by edge bipartitions (cut = shared
    vertices), and, for closed-enough cospans, the `translate._optimal_term`
    of the shape's kind.  The result is an upper bound witness; `exact` says
    whether the space was exhausted within the budget.

    A search state is a sub-cospan of the renumbered input, held as
    (vertex mask, edge mask, left ports, right ports) over its apex.  The
    memo key is the state's cospan renumbered order-preservingly, read
    straight off the masks, so states that renumber alike share one entry.
    A state's cospan and its atom are built only on a memo miss (and, for
    right trees, for each atomic left factor).
    """
    if shape not in ("any", "right-tree", "path"):
        raise TermError(f"unknown search shape {shape!r}")
    sig = Signature()
    memo: dict[tuple, tuple[int, int, DecompTree]] = {}
    keys: dict[tuple, tuple] = {}  # raw state -> memo key, each key computed once
    visited = 0
    root = cs._renumber(g)
    # root edge ids are 0..m-1: their sorted ends and their endpoint masks
    ends = [tuple(sorted(root.apex.ends(e))) for e in range(len(root.apex.edges))]
    ends_mask = [sum(1 << v for v in pts) for pts in ends]

    def key_of(state: tuple) -> tuple:
        """What `_renumber` makes of the state: its ports, vertex count and
        sorted edge ends, in ranks within the vertex mask."""
        vmask, emask, left, right = state
        rank = {v: i for i, v in enumerate(_bits(vmask))}
        es = sorted(tuple(rank[v] for v in ends[e]) for e in _bits(emask))
        return tuple(rank[v] for v in left), tuple(rank[v] for v in right), len(rank), tuple(es)

    def cospan_of(state: tuple) -> Cospan:
        """The state's sub-cospan, renumbered order-preservingly."""
        vmask, emask, left, right = state
        rank = {v: i for i, v in enumerate(_bits(vmask))}
        apex = Graph(range(len(rank)), {i: {rank[v] for v in ends[e]}
                                        for i, e in enumerate(_bits(emask))})
        return Cospan(apex, tuple(rank[v] for v in left), tuple(rank[v] for v in right))

    def best(state: tuple) -> tuple[int, int, DecompTree]:
        nonlocal visited
        key = keys.get(state)
        if key is None:
            key = keys[state] = key_of(state)
        if key in memo:
            return memo[key]
        result = _Incumbent((state[0].bit_count(), 1, sig.leaf(cospan_of(state))))
        visited += 1
        if visited <= budget:
            if shape != "path":
                for s1, s2 in _tensor_split_states(state, ends_mask):
                    (w1, n1, t1), (w2, n2, t2) = best(s1), best(s2)
                    result.offer((max(w1, w2), n1 + n2 + 1, Tensor(t1, t2)))
            for s1, cut, s2 in _compose_split_states(state, ends_mask):
                if shape == "right-tree":
                    w1, n1, t1 = s1[0].bit_count(), 1, sig.leaf(cospan_of(s1))
                else:
                    w1, n1, t1 = best(s1)
                w2, n2, t2 = best(s2)
                result.offer((max(w1, cut, w2), n1 + n2 + 1, Compose(t1, cut, t2)))
        memo[key] = result.best
        return result.best

    found, found_sig = best(((1 << len(root.apex.vertices)) - 1, (1 << len(ends)) - 1,
                             root.left, root.right)), sig
    closed = (g.right_arity == 0 and g.left == tuple(sorted(set(g.left)))
              and len(g.apex.vertices) <= 8 and len(g.apex.edges) <= 7)
    if seed_translations and closed:
        from .translate import _optimal_term
        kind = {"any": "branch", "right-tree": "tree", "path": "path"}[shape]
        try:
            _, tree2, sig2 = _optimal_term(kind, SourcedGraph(g.apex, set(g.left)))
        except (DecompositionError, OracleError):
            pass
        else:
            cand = (width(tree2, sig2), node_count(tree2), tree2)
            if _Incumbent(found).offer(cand):
                found, found_sig = cand, sig2

    w, _, tree = found
    used = _leaf_atoms(tree)
    trimmed = Signature()
    trimmed.atoms = {name: a for name, a in found_sig.atoms.items() if name in used}
    return SearchResult(tree, trimmed, w, visited <= budget)
