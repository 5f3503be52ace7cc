"""Monoidal decomposition terms over an atom signature.

A term is a binary tree: leaves name atoms, tensor nodes place parts side
by side, and composition nodes cut along a boundary object.  Width is the
weight of the most expensive node; composition nodes cost the cut object,
tensor nodes are free.  Atoms may be purely symbolic (a declared weight)
or bound to cospans of graphs, in which case terms can be evaluated back
into the category.  A signature refuses an atom whose cospan's legs
differ in length from its declared arities.

`evaluate` takes a term as one colimit of its leaves (`_glue`), the
construction of `cospan.compose` and `cospan.tensor`, so nesting those
gives the same apex, edge order and legs.  `evaluate`, `arity`, `width`,
`node_weights`, `node_count`, the shape predicates, `tree_serial` and the
JSON forms walk a term over explicit stacks, so its depth does not bound
them.  `bounded_mwd_search` frees its tables by reference counting when it
returns or raises, as its recursive closure is deleted in a `finally`, so
no reference cycle waits for the cyclic GC; the signature it returns
holds only the atoms of its term (`mwidth decompose k4.g --kind monoidal
--json` lists 5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence

from . import cospan as cs
from .cospan import Cospan
from .decomp import DecompositionError, _Looped
from .graph import Graph, SourcedGraph, _Bits, _colimit, _components, _subset_unions
from .oracles import MAX_EDGES, MAX_SEARCH_EDGES, MAX_SEARCH_VERTICES, MAX_VERTICES, OracleError


class TermError(TypeError):
    """Ill-typed decomposition tree or unknown atom."""


class _Term(_Looped):
    """Equality and repr by loops (`decomp._Looped`); the hash is that of
    the tuple of a node's fields, each child standing in by its hash,
    computed in one post-order walk, so equal terms hash equal."""

    __slots__ = ()

    def __hash__(self):
        done: list = []  # hashes of the finished subterms, innermost last
        for node in _post_order(self):
            if isinstance(node, Leaf):
                done.append(hash((node.atom,)))
            else:
                right = done.pop()
                done[-1] = hash((done[-1], right) if isinstance(node, Tensor)
                                else (done[-1], node.cut, right))
        return done[0]


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Term):
    atom: str


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(_Term):
    left: "DecompTree"
    right: "DecompTree"


@dataclass(frozen=True, eq=False, repr=False)
class Compose(_Term):
    left: "DecompTree"
    cut: int
    right: "DecompTree"


# a `types.UnionType`: `typing.Union` would cache the classes, and so keep
# every imported copy of this module alive through their generated methods
DecompTree = Leaf | Tensor | Compose


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
    width: int  # the term's width, as `width` gives it


def _glue(d: DecompTree, sig: Signature) -> _Glued:
    """Evaluate `d` as one colimit of its leaves.

    The leaves' apex vertices and edges get global ids left to right, each
    leaf's in its apex's numbering (`Graph._numbering`), and each
    composition identifies its cut ports (`graph._colimit`).  Each atom's
    legs are ranked once per call, at its first leaf.  The arity and cut
    checks all run, in post-order, before any gluing; the same walk takes
    the term's width, the largest atom weight or cut.  A node's `_Node`
    holds only ranges and port tuples of global ids; the readers of
    `translate` map them into the apex.
    """
    atoms = sig.atoms
    new = tuple.__new__
    nodes: list = []
    done: list = []  # _Node of the finished subterms, innermost last
    blocks: list = []  # (vertex count, local edge ends) of each leaf
    pairs: list = []  # cut ports to identify
    numbered: dict = {}  # atom name -> its apex's numbering and its legs in it
    n_vertices = n_edges = 0
    widest = None  # the width so far; every term has a leaf
    for node in _post_order(d):
        if isinstance(node, Leaf):
            leaf = numbered.get(node.atom)
            if leaf is None:
                atom = atoms.get(node.atom) or sig.atom(node.atom)  # raises if unknown
                c = atom.cospan
                if c is None:
                    raise TermError(f"atom {node.atom!r} at {_path(d, node)} has no cospan binding")
                if widest is None or atom.weight > widest:
                    widest = atom.weight
                numbered[node.atom] = leaf = cs._ranked_legs(c)
            view, left, right = leaf
            v0, e0 = n_vertices, n_edges
            n_vertices += len(view.vertices)
            n_edges += len(view.edges)
            blocks.append((len(view.vertices), view.ends))
            out = new(_Node, (node, range(v0, n_vertices), range(e0, n_edges),
                              tuple([v0 + v for v in left]), tuple([v0 + v for v in right])))
        elif isinstance(node, (Tensor, Compose)):
            n2 = done.pop()
            n1 = done.pop()
            vs = range(n1.vertices.start, n2.vertices.stop)
            es = range(n1.edges.start, n2.edges.stop)
            if isinstance(node, Tensor):
                out = new(_Node, (node, vs, es, n1.left + n2.left, n1.right + n2.right))
            elif len(n1.right) != node.cut or len(n2.left) != node.cut:
                raise _cut_mismatch(d, node, len(n1.right), len(n2.left))
            else:
                pairs += zip(n1.right, n2.left)
                out = new(_Node, (node, vs, es, n1.left, n2.right))
                if node.cut > widest:
                    widest = node.cut
        else:
            raise TermError(f"not a decomposition tree node: {node!r}")
        nodes.append(out)
        done.append(out)
    if isinstance(d, Leaf):  # the loop met d alone: `c` and `view` are its atom's
        return _Glued(c, view.vertices, view.edges, nodes, widest)
    vertex, apex = _colimit(blocks, pairs)
    (root,) = done
    return _Glued(Cospan(apex, tuple(vertex[v] for v in root.left),
                         tuple(vertex[v] for v in root.right)),
                  vertex, range(len(apex.edges)), nodes, widest)


def evaluate(d: DecompTree, sig: Signature) -> Cospan:
    """Fold the term back into the category; every atom must carry a cospan.

    The value is the one colimit of the leaves (`_glue`).  A bare leaf
    evaluates to its atom's own cospan, as it is.
    """
    return _glue(d, sig).value


# ---------------------------------------------------------------------------
# JSON serialization.


def tree_to_json(d: DecompTree) -> dict:
    """`d` as nested dicts, built in one post-order walk: a node's dict
    takes its children's, which are then dropped from the stack."""
    done: list = []  # dicts of the finished subterms, innermost last
    for node in _post_order(d):
        if isinstance(node, Leaf):
            done.append({"op": "leaf", "atom": node.atom})
            continue
        children = done[-2:]
        del done[-2:]
        done.append({"op": "tensor", "children": children} if isinstance(node, Tensor)
                    else {"op": "compose", "cut": node.cut, "children": children})
    return done[0]


def _parse_error(outer: list, message: str) -> TermError:
    """A parse error inside the open nodes of ops `outer`, outermost first."""
    return TermError("".join(f"malformed {op} node: " for op in outer) + message)


def tree_from_json(data: dict) -> DecompTree:
    """The term of `data`, parsed over an explicit stack.

    Parts are read in the order of a recursive descent: a node's op and
    children, its left subterm, a composition's cut, its right subterm.  The
    first bad part raises TermError; each enclosing tensor or compose node
    prefixes the message with "malformed <op> node: ".
    """
    done: list = []  # finished subterms and cuts, innermost last
    ops: list = []  # the op of each open tensor or compose node, outermost first
    todo: list = [("term", data)]  # ("term", JSON), ("cut", JSON) or ("close", None)
    while todo:
        step, item = todo.pop()
        if step == "close":
            right = done.pop()
            if ops.pop() == "tensor":
                done.append(Tensor(done.pop(), right))
            else:
                cut = done.pop()
                done.append(Compose(done.pop(), cut, right))
            continue
        if step == "cut":  # a part of the innermost open node
            op, depth = ops[-1], len(ops) - 1
        else:
            op, depth = item.get("op") if isinstance(item, dict) else None, len(ops)
            if op not in ("leaf", "tensor", "compose"):
                raise _parse_error(ops[:depth], f"unknown term op {op!r}")
        try:
            if step == "cut":
                done.append(int(item["cut"]))
            elif op == "leaf":
                if not isinstance(item["atom"], str):
                    raise TypeError(f"atom {item['atom']!r} is not a name")
                done.append(Leaf(item["atom"]))
            else:
                a, b = item["children"]
                ops.append(op)
                todo += ("close", None), ("term", b)
                if op == "compose":
                    todo.append(("cut", item))
                todo.append(("term", a))
        except KeyError as exc:
            raise _parse_error(ops[:depth], f"{op} node lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise _parse_error(ops[:depth], f"malformed {op} node: {exc}") from exc
    return done[0]


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
        if not isinstance(rec, dict):
            raise TermError(f"malformed atom {name!r}: an atom is a JSON object, "
                            f"not {type(rec).__name__}")
        try:
            c = cs.cospan_from_json(rec["cospan"]) if rec.get("cospan") else None
            arities = [rec[k] for k in _ARITIES]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TermError(f"malformed atom {name!r}: {exc!r}") from exc
        sig.add(name, *(_atom_int(name, k, a) for k, a in zip(_ARITIES, arities)), c)
    return sig


_ARITIES = ("dom", "cod", "weight")


def _atom_int(name: str, field: str, value) -> int:
    """`int(value)` for the field `field` of atom `name`; else TermError,
    which names the expected type when `int` refuses the type of `value`."""
    try:
        return int(value)
    except TypeError:
        raise TermError(f"malformed atom {name!r}: field {field!r} is an integer, "
                        f"not {type(value).__name__}") from None
    except (ValueError, OverflowError) as exc:
        raise TermError(f"malformed atom {name!r}: {exc!r}") from exc


def _json_value(x) -> str:
    """Compact, key-sorted JSON of one field value, as `tree_serial` writes it."""
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _leaf_serial(name: str) -> str:
    """`tree_serial` of the leaf of atom `name`."""
    return '{"atom":' + (encode_basestring_ascii(name) if type(name) is str
                         else _json_value(name)) + ',"op":"leaf"}'


def _tail(node: Tensor | Compose) -> str:
    """What follows the children in `tree_serial` of the inner node `node`."""
    if isinstance(node, Tensor):
        return '"op":"tensor"}'
    cut = node.cut
    return '"cut":' + (str(cut) if type(cut) is int else _json_value(cut)) + ',"op":"compose"}'


def tree_serial(d: DecompTree) -> str:
    """Deterministic serialization used for golden tests; its order breaks
    the search's ties (`_before` reads it off the trees):
    `json.dumps(tree_to_json(d), sort_keys=True, separators=(",", ":"))`.
    Its fragments are written in output order over an explicit stack and
    joined once, so the time is linear in the serial's length whatever the
    depth."""
    parts, todo = [], [d]  # text still to write, or a subterm to expand
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(_leaf_serial(item.atom))
        else:
            parts.append('{"children":[')
            todo += '],' + _tail(item), item.right, ',', item.left
    return "".join(parts)


def _before(a: DecompTree, b: DecompTree) -> bool:
    """`tree_serial(a) < tree_serial(b)`, read off the two trees.

    The pairs of subtrees at the same place are compared in the order
    their serials are written, over an explicit stack; a pair that is one
    object is equal.  No serial is a proper prefix of another, so the
    first pair that differs decides.  A leaf (`{"atom"...`) comes before
    an inner node (`{"children"...`), and two leaves compare their
    serials.  Two inner nodes compare their left children, then their
    right ones, then their `_tail`s, which are built only here: a compose
    tail comes before a tensor tail.
    """
    stack = [(a, b, False)]  # (x, y, whether only their tails are left)
    while stack:
        x, y, tails = stack.pop()
        if tails:
            tx, ty = _tail(x), _tail(y)
            if tx != ty:
                return tx < ty
        elif x is not y:
            x_leaf, y_leaf = isinstance(x, Leaf), isinstance(y, Leaf)
            if x_leaf and y_leaf:
                sx, sy = _leaf_serial(x.atom), _leaf_serial(y.atom)
                if sx != sy:
                    return sx < sy
            elif x_leaf or y_leaf:
                return x_leaf
            else:
                stack += (x, y, True), (x.right, y.right, False), (x.left, y.left, False)
    return False


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


class _PortCuts(dict):
    """ports -> (their mask, the places a boundary prefix can end): the
    mask of `ports[:n]` -> n for each n at which no port of `ports[n:]` is
    also in `ports[:n]`.  A vertex mask X takes a prefix of `ports`, the
    rest lying outside X, exactly when the mask of the ports in X is one
    of those keys; its value is the prefix's length.  Filled on first
    lookup; one search keeps one table."""

    def __missing__(self, ports: tuple) -> tuple[int, dict]:
        prefix = [0]
        for v in ports:
            prefix.append(prefix[-1] | 1 << v)
        cuts, suffix = {}, 0
        for n in range(len(ports), -1, -1):
            if not prefix[n] & suffix:
                cuts[prefix[n]] = n
            if n:
                suffix |= 1 << ports[n - 1]
        self[ports] = out = (prefix[-1], cuts)
        return out


def _leaf_atoms(d: DecompTree) -> set:
    return {node.atom for node in _post_order(d) if isinstance(node, Leaf)}


def bounded_mwd_search(g: Cospan, shape: str = "any", budget: int = 4000,
                       seed_translations: bool = True) -> SearchResult:
    """Best decomposition of `g` found within the searched space.

    The space covers the atomic leaf, tensor splits along disjoint apex
    parts, composition splits induced by edge bipartitions (cut = shared
    vertices), and, for closed-enough cospans, the term of the shape's kind
    that `translate._optimal` makes, ranked by the width `_optimal` returns
    with it.  The result is an upper bound witness; `exact` says
    whether the space was exhausted within the budget.  A cospan with more
    than `oracles.MAX_SEARCH_VERTICES` apex vertices or
    `oracles.MAX_SEARCH_EDGES` edges is refused with OracleError.

    A search state is a sub-cospan of the input, held as (vertex mask,
    edge mask, left ports, right ports) over its apex's numbering
    (`Graph._numbering`), whose end and incidence masks it reads.  The
    memo key is the state's cospan renumbered order-preservingly, read
    straight off the masks: its ports as ranks within the vertex mask, and
    an interned edge part, its vertex count n and the sorted codes
    rank * (n + 1) + rank of its edges' ends (a loop's twice), which
    depends on the two masks alone.  States that renumber alike share one
    entry.  The search builds no graph or cospan for a state: a memo miss
    (and, for right trees, each atomic left factor) gets a fresh atom `a0`,
    `a1`, ... recorded against its state, and only the atoms of the
    returned term get their cospans, at the end.

    A memo miss runs one loop per split kind.  Tensor splits take unions
    of the state's components, flooded by `graph._components` and ordered
    by least vertex, and keep those whose ports form a boundary prefix
    (`_PortCuts`); composition splits take the proper edge bipartitions
    in counting order, the cut being the shared vertices, ascending.  A
    candidate is ranked by (width, node count) as plain ints, then by the
    smaller `tree_serial`, and its `Tensor` or `Compose` node is built
    only when it wins or ties; a tie is broken on the two trees
    (`_before`), without building their serials.  The set bits of each
    mask, the ranks within each vertex mask, the edge part of each mask
    pair, the prefix cuts of each port tuple and the subset unions of
    each edge mask are kept in tables local to the call.
    """
    if shape not in ("any", "right-tree", "path"):
        raise TermError(f"unknown search shape {shape!r}")
    if len(g.apex.vertices) > MAX_SEARCH_VERTICES:
        raise OracleError(f"refusing monoidal-width search on {len(g.apex.vertices)} > "
                          f"{MAX_SEARCH_VERTICES} vertices")
    if len(g.apex.edges) > MAX_SEARCH_EDGES:
        raise OracleError(f"refusing monoidal-width search on {len(g.apex.edges)} > "
                          f"{MAX_SEARCH_EDGES} edges")
    tensors, right_tree = shape != "path", shape == "right-tree"
    memo: dict[tuple, tuple[int, int, DecompTree]] = {}
    seen: dict[tuple, tuple] = {}  # state -> memo entry, each key computed once
    states: list = []  # the state of atom a<i>, at index i
    bits = _Bits()
    ranks: dict[int, dict] = {}  # vertex mask -> vertex -> rank within the mask
    edge_parts: dict[tuple, tuple] = {}  # (vertex mask, edge mask) -> (ranks, edge part)
    interned: dict[tuple, int] = {}  # (vertex count, sorted edge codes) -> edge part
    port_cuts = _PortCuts()
    subsets: dict[int, tuple] = {}  # edge mask -> endpoint and edge masks of its subsets
    visited = 0
    view, root_left, root_right = cs._ranked_legs(g)
    ends, ends_mask, incident = view.ends, view.ends_mask, view.incident

    def rank_in(vmask: int) -> dict:
        rank = ranks.get(vmask)
        if rank is None:
            rank = ranks[vmask] = {v: i for i, v in enumerate(bits[vmask])}
        return rank

    def cospan_of(state: tuple) -> Cospan:
        """The state's sub-cospan, renumbered order-preservingly."""
        vmask, emask, left, right = state
        rank = rank_in(vmask)
        apex = Graph(range(len(rank)), {i: {rank[v] for v in ends[e]}
                                        for i, e in enumerate(bits[emask])})
        return Cospan(apex, tuple(rank[v] for v in left), tuple(rank[v] for v in right))

    def best(state: tuple) -> tuple[int, int, DecompTree]:
        """The (width, node count, tree) of a state not yet in `seen`."""
        nonlocal visited
        vmask, emask, left, right = state
        part = edge_parts.get((vmask, emask))
        if part is None:
            rank = rank_in(vmask)
            base = len(rank) + 1
            codes = sorted([rank[ends[e][0]] * base + rank[ends[e][1]] for e in bits[emask]])
            part = edge_parts[vmask, emask] = (
                rank, interned.setdefault((len(rank), tuple(codes)), len(interned)))
        rank, edge_part = part
        key = (edge_part, tuple([rank[v] for v in left]), tuple([rank[v] for v in right]))
        out = memo.get(key)
        if out is None:
            atom = len(states)
            states.append(state)
            # the incumbent; a tree of None is the leaf of `atom`, built on
            # demand, and no split ties it: a split has at least 3 nodes
            bw, bn, bt = vmask.bit_count(), 1, None
            visited += 1
            if visited <= budget:
                lmask, lcuts = port_cuts[left]
                rmask, rcuts = port_cuts[right]
                es = bits[emask]
                if tensors:
                    comps = _components(vmask, emask, incident, ends_mask, bits)
                    vs_of = _subset_unions([cv for cv, _ in comps]) if len(comps) > 1 else ()
                    es_of = _subset_unions([ce for _, ce in comps]) if vs_of else ()
                    for s in range(1, len(vs_of) - 1):
                        vs1 = vs_of[s]
                        nl, nr = lcuts.get(lmask & vs1), rcuts.get(rmask & vs1)
                        if nl is None or nr is None:
                            continue
                        s1 = (vs1, es_of[s], left[:nl], right[:nr])
                        s2 = (vmask ^ vs1, emask ^ es_of[s], left[nl:], right[nr:])
                        w1, n1, t1 = seen.get(s1) or best(s1)
                        w2, n2, t2 = seen.get(s2) or best(s2)
                        w, n = w1 if w1 > w2 else w2, n1 + n2 + 1
                        if w < bw or w == bw and n <= bn:
                            node = Tensor(t1, t2)
                            if w == bw and n == bn and not _before(node, bt):
                                continue
                            bw, bn, bt = w, n, node
                if len(es) >= 2:
                    full = (1 << len(es)) - 1
                    split = subsets.get(emask)
                    if split is None:  # endpoint and edge masks of every subset of `es`
                        split = subsets[emask] = (_subset_unions([ends_mask[e] for e in es]),
                                                  _subset_unions([1 << e for e in es]))
                    union, edges = split
                    lfree = lmask | vmask & ~(lmask | rmask | union[full])
                    for s in range(1, full):
                        vs1 = union[s] | lfree
                        vs2 = union[full ^ s] | rmask
                        cut = bits[vs1 & vs2]
                        if right_tree:
                            atom1 = len(states)
                            states.append((vs1, edges[s], left, cut))
                            w1, n1 = vs1.bit_count(), 1
                        else:
                            s1 = (vs1, edges[s], left, cut)
                            w1, n1, t1 = seen.get(s1) or best(s1)
                        s2 = (vs2, edges[full ^ s], cut, right)
                        w2, n2, t2 = seen.get(s2) or best(s2)
                        k = len(cut)
                        w, n = w1 if w1 > w2 else w2, n1 + n2 + 1
                        if k > w:
                            w = k
                        if w < bw or w == bw and n <= bn:
                            node = Compose(Leaf(f"a{atom1}") if right_tree else t1, k, t2)
                            if w == bw and n == bn and not _before(node, bt):
                                continue
                            bw, bn, bt = w, n, node
            out = memo[key] = (bw, bn, bt or Leaf(f"a{atom}"))
        seen[state] = out
        return out

    try:
        found = best(((1 << len(view.vertices)) - 1, (1 << len(ends)) - 1,
                      root_left, root_right))
    finally:  # `best` reaches itself: break the cycle to free the tables
        del best
    seed_sig = None
    closed = (g.right_arity == 0 and g.left == tuple(sorted(set(g.left)))
              and len(g.apex.vertices) <= MAX_VERTICES and len(g.apex.edges) <= MAX_EDGES)
    if seed_translations and closed:
        from .translate import _optimal
        kind = {"any": "branch", "right-tree": "tree", "path": "path"}[shape]
        try:
            _, tree2, sig2, width2 = _optimal(kind, SourcedGraph(g.apex, set(g.left)))
        except DecompositionError:  # `closed` keeps within every oracle's caps
            pass
        else:
            cand = (width2, node_count(tree2))
            if cand < found[:2] or cand == found[:2] and _before(tree2, found[2]):
                found, seed_sig = (*cand, tree2), sig2

    w, _, tree = found
    used = _leaf_atoms(tree)
    trimmed = Signature()
    if seed_sig is None:
        for i in sorted(int(name[1:]) for name in used):
            trimmed.add_cospan(cospan_of(states[i]), f"a{i}")
    else:
        trimmed.atoms = {name: a for name, a in seed_sig.atoms.items() if name in used}
    return SearchResult(tree, trimmed, w, visited <= budget)
