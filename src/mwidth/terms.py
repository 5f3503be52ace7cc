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
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import cospan as cs
from .cospan import Cospan
from .decomp import DecompositionError
from .graph import Graph, SourcedGraph, _Bits, _colimit, _numbered as _ranked, _subset_unions
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
        if cospan is not None and (cospan.left_arity, cospan.right_arity) != (dom, cod):
            raise TermError(f"atom {name!r} is declared {dom} -> {cod} but its cospan is "
                            f"{cospan.left_arity} -> {cospan.right_arity}")
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


def _post_order(d: DecompTree) -> list:
    """The nodes of `d`, each after its children, left before right.  Only
    `Tensor` and `Compose` nodes are entered."""
    out, stack = [], [d]
    while stack:  # parents before children, right before left: the reverse
        node = stack.pop()
        out.append(node)
        if isinstance(node, (Tensor, Compose)):
            stack += node.left, node.right
    out.reverse()
    return out


def _path(d: DecompTree, target) -> str:
    """The steps ("L", "R") from the root of `d` to the first node `target`
    in post-order, or "root".  A node's checks depend only on its subterm,
    so the first failing node is the first occurrence of its object."""
    trail = [[d, "", 0]]  # open nodes from the root down, each with its step
    while True:
        frame = trail[-1]
        node, _, seen = frame
        if seen < 2 and isinstance(node, (Tensor, Compose)):
            frame[2] = seen + 1
            trail.append([node.right if seen else node.left, "LR"[seen], 0])
        elif node is target:
            return "".join(step for _, step, _ in trail) or "root"
        else:
            trail.pop()


def _cut_mismatch(d: DecompTree, node: Compose, cod: int, dom: int) -> TermError:
    return TermError(f"cut mismatch at node {_path(d, node)}: {cod} -> [{node.cut}] -> {dom}")


def _typed(d: DecompTree, sig: Signature) -> tuple[int, int, int]:
    """Domain and codomain arities and width of `d`, in one post-order walk;
    raises TermError naming the first bad node."""
    done: list = []  # (dom, cod, width) of the finished subterms, innermost last
    for node in _post_order(d):
        if isinstance(node, Leaf):
            a = sig.atom(node.atom)
            done.append((a.dom, a.cod, a.weight))
            continue
        if not isinstance(node, (Tensor, Compose)):
            raise TermError(f"not a decomposition tree node: {node!r}")
        d2, c2, w2 = done.pop()
        d1, c1, w1 = done.pop()
        if isinstance(node, Tensor):
            done.append((d1 + d2, c1 + c2, max(w1, w2)))
        elif c1 != node.cut or d2 != node.cut:
            raise _cut_mismatch(d, node, c1, d2)
        else:
            done.append((d1, c2, max(w1, node.cut, w2)))
    return done[0]


def arity(d: DecompTree, sig: Signature) -> tuple[int, int]:
    """Domain and codomain arities; raises TermError naming the bad node."""
    return _typed(d, sig)[:2]


def width(d: DecompTree, sig: Signature) -> int:
    """max over leaves of atom weight and over composition nodes of cut weight."""
    return _typed(d, sig)[2]


def node_weights(d: DecompTree, sig: Signature) -> list[int]:
    """Weights of all tree nodes in order (tensor nodes cost 0)."""
    out: list = []
    above: list = []  # inner nodes whose left subterm is being listed
    node = d
    while True:
        while not isinstance(node, Leaf):
            above.append(node)
            node = node.left
        out.append(sig.atom(node.atom).weight)
        if not above:
            return out
        node = above.pop()
        out.append(0 if isinstance(node, Tensor) else node.cut)
        node = node.right


def node_count(d: DecompTree) -> int:
    return len(_post_order(d))


def is_right_tree(d: DecompTree) -> bool:
    """Compositions may only recurse on the right; the left factor is atomic."""
    return all(isinstance(node.left, Leaf) for node in _post_order(d)
               if isinstance(node, Compose))


def is_left_tree(d: DecompTree) -> bool:
    return all(isinstance(node.right, Leaf) for node in _post_order(d)
               if isinstance(node, Compose))


def is_path(d: DecompTree) -> bool:
    """No tensor nodes anywhere."""
    return not any(isinstance(node, Tensor) for node in _post_order(d))


class _Node(NamedTuple):
    """A node of an evaluated term, in the global numbering of its leaves."""

    term: DecompTree
    vertices: range  # global ids of its leaves' apex vertices
    edges: range  # global ids of its leaves' apex edges
    left: tuple  # global ids of its left ports
    right: tuple  # global ids of its right ports


class _Glued(NamedTuple):
    """A term's value with each node's place in it: a node's image in the
    value's apex is `vertex` and `edge` of its global ids."""

    value: Cospan
    vertex: list  # global vertex id -> apex vertex of `value`
    edge: Sequence  # global edge id -> apex edge of `value`
    nodes: list  # the _Node of every term node, in post-order


def _numbered(c: Cospan) -> tuple:
    """A leaf cospan in its own sorted numbering: vertex count, edge ends
    and the two legs."""
    rank, _, ends = _ranked(c.apex)
    return len(rank), ends, tuple(rank[v] for v in c.left), tuple(rank[v] for v in c.right)


def _glue(d: DecompTree, sig: Signature) -> _Glued:
    """Evaluate `d` as one colimit of its leaves.

    The leaves' apex vertices and edges get global ids left to right, each
    leaf's in sorted order, and each composition identifies its cut ports
    (`graph._colimit`).  The arity and cut checks all run, in post-order,
    before any gluing.
    """
    nodes: list = []
    done: list = []  # _Node of the finished subterms, innermost last
    blocks: list = []  # (vertex count, local edge ends) of each leaf
    pairs: list = []  # cut ports to identify
    numbered: dict = {}  # id(leaf cospan) -> _numbered of it
    n_vertices = n_edges = 0
    for node in _post_order(d):
        if isinstance(node, Leaf):
            c = sig.atom(node.atom).cospan
            if c is None:
                raise TermError(f"atom {node.atom!r} at {_path(d, node)} has no cospan binding")
            if id(c) not in numbered:
                numbered[id(c)] = _numbered(c)
            n, leaf_ends, left, right = numbered[id(c)]
            v0, e0 = n_vertices, n_edges
            n_vertices += n
            n_edges += len(leaf_ends)
            blocks.append((n, leaf_ends))
            out = _Node(node, range(v0, n_vertices), range(e0, n_edges),
                        tuple([v0 + v for v in left]), tuple([v0 + v for v in right]))
        elif isinstance(node, (Tensor, Compose)):
            n2 = done.pop()
            n1 = done.pop()
            vs = range(n1.vertices.start, n2.vertices.stop)
            es = range(n1.edges.start, n2.edges.stop)
            if isinstance(node, Tensor):
                out = _Node(node, vs, es, n1.left + n2.left, n1.right + n2.right)
            elif len(n1.right) != node.cut or len(n2.left) != node.cut:
                raise _cut_mismatch(d, node, len(n1.right), len(n2.left))
            else:
                pairs += zip(n1.right, n2.left)
                out = _Node(node, vs, es, n1.left, n2.right)
        else:
            raise TermError(f"not a decomposition tree node: {node!r}")
        nodes.append(out)
        done.append(out)
    if isinstance(d, Leaf):
        c = sig.atom(d.atom).cospan
        return _Glued(c, sorted(c.apex.vertices), sorted(c.apex.edges), nodes)
    vertex, apex = _colimit(blocks, pairs)
    (root,) = done
    return _Glued(Cospan(apex, tuple(vertex[v] for v in root.left),
                         tuple(vertex[v] for v in root.right)),
                  vertex, range(len(apex.edges)), nodes)


def evaluate(d: DecompTree, sig: Signature) -> Cospan:
    """Fold the term back into the category; every atom must carry a cospan.

    The value is the one colimit of the leaves (`_glue`).  A bare leaf
    evaluates to its atom's own cospan, as it is.
    """
    return _glue(d, sig).value


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


def _json_value(x) -> str:
    """Compact, key-sorted JSON of one field value, as `tree_serial` writes it."""
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _serial(d: DecompTree, kept: Optional[dict] = None) -> str:
    """`tree_serial(d)`, built by concatenation in one post-order walk.

    With a `kept` dict (id(node) -> (node, serial); the node keeps its id
    from being reused) the serial of every node walked is stored there,
    and nodes already in it are not walked again.  Without one, a child's
    serial is dropped once its parent has used it, so a deep term needs
    only its root's serial at the end.
    """
    done = {} if kept is None else kept
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        if isinstance(node, Leaf):
            name = node.atom
            serial = '{"atom":' + (encode_basestring_ascii(name) if type(name) is str
                                   else _json_value(name)) + ',"op":"leaf"}'
        else:
            left, right = done.get(id(node.left)), done.get(id(node.right))
            if left is None or right is None:
                stack.append(node)
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            if kept is None:
                done.pop(id(node.left), None)
                done.pop(id(node.right), None)
            children = '{"children":[' + left[1] + ',' + right[1] + '],'
            if isinstance(node, Tensor):
                serial = children + '"op":"tensor"}'
            else:
                cut = node.cut
                serial = (children + '"cut":' + (str(cut) if type(cut) is int else _json_value(cut))
                          + ',"op":"compose"}')
        done[id(node)] = (node, serial)
    return done[id(d)][1]


def tree_serial(d: DecompTree) -> str:
    """Deterministic serialization used for golden tests and tie-breaking:
    `json.dumps(tree_to_json(d), sort_keys=True, separators=(",", ":"))`,
    built without recursion."""
    return _serial(d)


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


def _prefix_in(ports: tuple, mask: int) -> int:
    """How many leading `ports` lie in `mask`; -1 if a later port does too."""
    n = 0
    while n < len(ports) and mask >> ports[n] & 1:
        n += 1
    return -1 if any(mask >> v & 1 for v in ports[n:]) else n


def _tensor_split_states(state: tuple, ends_mask: list,
                         bits: _Bits) -> Iterable[tuple[tuple, tuple]]:
    """Tensor splits of a search state along unions of its components,
    ordered by minimum vertex; the first factor takes a boundary prefix."""
    vmask, emask, left, right = state
    es = bits[emask]
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


def _compose_split_states(state: tuple, ends_mask: list,
                          bits: _Bits) -> Iterable[tuple[tuple, int, tuple]]:
    """Composition splits of a search state, one per proper edge bipartition
    in counting order; the cut is the shared vertices, ascending."""
    vmask, emask, left, right = state
    es = bits[emask]
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
        cut = bits[vs1 & vs2]
        yield (vs1, edges[s], left, cut), len(cut), (vs2, edges[full ^ s], cut, right)


class _Incumbent:
    """The best (width, node count, tree) triple offered: lower width, then
    fewer nodes, then the smaller `tree_serial`.  Serials are read only on
    a tie of the first two, from `serials`, the `_serial` cache that one
    search shares among all its incumbents."""

    def __init__(self, first: tuple, serials: dict):
        self.best, self.serials = first, serials

    def offer(self, cand: tuple) -> bool:
        """Take `cand` if it ranks strictly before the incumbent."""
        if cand[:2] == self.best[:2]:
            if _serial(cand[2], self.serials) >= _serial(self.best[2], self.serials):
                return False
        elif cand[:2] > self.best[:2]:
            return False
        self.best = cand
        return True


def _leaf_atoms(d: DecompTree) -> set:
    return {node.atom for node in _post_order(d) if isinstance(node, Leaf)}


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
    The search builds no graph or cospan for a state: a memo miss (and, for
    right trees, each atomic left factor) gets a fresh atom `a0`, `a1`, ...
    recorded against its state, and only the atoms of the returned term get
    their cospans, at the end.  The set bits of each mask, the ranks within
    each vertex mask and the tie-break serial of each term node are kept in
    tables local to the call.
    """
    if shape not in ("any", "right-tree", "path"):
        raise TermError(f"unknown search shape {shape!r}")
    memo: dict[tuple, tuple[int, int, DecompTree]] = {}
    seen: dict[tuple, tuple] = {}  # raw state -> memo entry, each key computed once
    atom_states: dict[str, tuple] = {}  # atom name -> its state, in naming order
    bits = _Bits()
    ranks: dict[int, dict] = {}  # vertex mask -> vertex -> rank within the mask
    serials: dict = {}  # the `_serial` cache of every incumbent
    visited = 0
    root = cs._renumber(g)
    # root edge ids are 0..m-1: their sorted ends and their endpoint masks
    ends = [tuple(sorted(root.apex.ends(e))) for e in range(len(root.apex.edges))]
    ends_mask = [sum(1 << v for v in pts) for pts in ends]

    def rank_in(vmask: int) -> dict:
        rank = ranks.get(vmask)
        if rank is None:
            rank = ranks[vmask] = {v: i for i, v in enumerate(bits[vmask])}
        return rank

    def key_of(state: tuple) -> tuple:
        """What `_renumber` makes of the state: its ports, vertex count and
        sorted edge ends, in ranks within the vertex mask."""
        vmask, emask, left, right = state
        rank = rank_in(vmask)
        es = sorted(tuple(rank[v] for v in ends[e]) for e in bits[emask])
        return tuple(rank[v] for v in left), tuple(rank[v] for v in right), len(rank), tuple(es)

    def cospan_of(state: tuple) -> Cospan:
        """The state's sub-cospan, renumbered order-preservingly."""
        vmask, emask, left, right = state
        rank = rank_in(vmask)
        apex = Graph(range(len(rank)), {i: {rank[v] for v in ends[e]}
                                        for i, e in enumerate(bits[emask])})
        return Cospan(apex, tuple(rank[v] for v in left), tuple(rank[v] for v in right))

    def leaf(state: tuple) -> Leaf:
        """A fresh atom for `state`, named as `Signature.add_cospan` names."""
        name = f"a{len(atom_states)}"
        atom_states[name] = state
        return Leaf(name)

    def best(state: tuple) -> tuple[int, int, DecompTree]:
        nonlocal visited
        out = seen.get(state)
        if out is not None:
            return out
        key = key_of(state)
        out = memo.get(key)
        if out is None:
            result = _Incumbent((state[0].bit_count(), 1, leaf(state)), serials)
            visited += 1
            if visited <= budget:
                if shape != "path":
                    for s1, s2 in _tensor_split_states(state, ends_mask, bits):
                        (w1, n1, t1), (w2, n2, t2) = best(s1), best(s2)
                        result.offer((max(w1, w2), n1 + n2 + 1, Tensor(t1, t2)))
                for s1, cut, s2 in _compose_split_states(state, ends_mask, bits):
                    if shape == "right-tree":
                        w1, n1, t1 = s1[0].bit_count(), 1, leaf(s1)
                    else:
                        w1, n1, t1 = best(s1)
                    w2, n2, t2 = best(s2)
                    result.offer((max(w1, cut, w2), n1 + n2 + 1, Compose(t1, cut, t2)))
            out = memo[key] = result.best
        seen[state] = out
        return out

    found, seed_sig = best(((1 << len(root.apex.vertices)) - 1, (1 << len(ends)) - 1,
                            root.left, root.right)), None
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
            if _Incumbent(found, serials).offer(cand):
                found, seed_sig = cand, sig2

    w, _, tree = found
    used = _leaf_atoms(tree)
    trimmed = Signature()
    if seed_sig is None:
        for name, state in atom_states.items():
            if name in used:
                trimmed.add_cospan(cospan_of(state), name)
    else:
        trimmed.atoms = {name: a for name, a in seed_sig.atoms.items() if name in used}
    return SearchResult(tree, trimmed, w, visited <= budget)
