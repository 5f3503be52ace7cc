"""The library's results on a fixed corpus, one record per line, and the
comparison of two revisions on that corpus.

    python tools/same_results.py                # this tree's records, then their sha256
    python tools/same_results.py --against REV  # this tree against git revision REV

A record is `name<TAB>value`, the value as compact key-sorted JSON; a call
that raises records the error's type and message instead.  The corpus:

- `graph_pushout`, `graph_coproduct`, `compose`, `tensor` and `evaluate` on
  seeded random graphs, cospans and terms;
- JSON and DOT of the classic and recursive decompositions of the
  `roundtrip` benchmark inputs of seeds 1-3, of the terms made of the
  recursive ones, and of what `m_to_*dec` makes of those terms;
- JSON and DOT of what `m_to_bdec` makes, through a glue map that
  identifies boundary vertices at random, of seeded random terms and of
  the terms of the seed-1 `roundtrip` inputs;
- the witness of each exact oracle, or its error, on `enumerate_graphs(6)`;
- `WidthCache.widths`, or its error, on `enumerate_graphs(5, 7)` and on
  seeded multigraphs with loops and parallel edges, each graph then again
  under a relabelling (a cache hit);
- `check_theorems(g).to_json()` on the `theorems` benchmark inputs of
  seeds 1-3;
- `bounded_mwd_search` in each shape at budgets 4000 and 50, with and
  without `seed_translations`;
- (ok, clause, message) of every validator on corrupted decompositions;
- the error's type and message, or the parsed value, of each parser on
  fault inputs: graph text, decomposition JSON of all six kinds (missing
  and ill-typed fields at the root and one to three child fields deep),
  term JSON and signature JSON;
- the public functions the above never call, on seeded random graphs,
  cospans and terms and on the `roundtrip` inputs of seed 2: graph
  queries, isomorphisms with and without forced vertices (one to three
  pins, two vertices pinned to one target, a pin outside the vertex set),
  components of sparse-id multigraphs, `cospan_iso_eq`,
  `epis_from_composition` and `epi_to_dec_*`, `copy_mdec` over a
  `SymbolicSignature` and over cospans, `node_weights`, `is_left_tree`,
  the cut-mismatch errors of `terms.arity`, `edge_order`,
  `boundary_global`, recursive-node `==` and hash equality (as booleans,
  since a class's hash differs between processes), `format_graph_text`,
  and `WidthCache.save` and `load`;
- `tree_serial` beside the JSON of every term recorded, but for the
  witness terms inside theorem reports;
- stdout, stderr and exit code of `mwidth.cli.main` on a few files.

The benchmark inputs come from this tree's `perfbench/gen.py` and
`perfbench/workloads.py`, which are only read.  With `--against`, REV is
exported with `git archive` into a temporary directory, each library
writes its records in a process of its own, and the first records that
differ are printed; the exit code is then 1 when any record differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEEDS = (1, 2, 3)
SHOWN = 10  # differing records printed with --against
CLIPPED = 300  # characters of a differing value printed


def _steps(prefix: str, steps):
    """The (name, value) records of a generator of (suffix, value) pairs;
    a step that raises ends the generator, and its error is the last record."""
    try:
        for suffix, value in steps:
            yield f"{prefix}/{suffix}", value
    except Exception as exc:  # recorded, so a revision that raises here differs
        yield f"{prefix}/raised", [type(exc).__name__, str(exc)]


def _cospan(mw, c) -> dict:
    return {"apex": mw.graph.graph_to_json(c.apex), "left": list(c.left), "right": list(c.right)}


def _morphism(m) -> list:
    """Both maps of a graph morphism, in their dict order."""
    return [[list(p) for p in m.vmap.items()], [list(p) for p in m.emap.items()]]


def _dec(mw, dec) -> dict:
    return {"json": mw.decomposition_to_json(dec), "dot": mw.decomposition_to_dot(dec)}


def _check(c) -> list:
    return [c.ok, c.clause, c.message]


# ---------------------------------------------------------------------------
# Colimits: random graphs with sparse vertex and edge ids, loops and
# parallel edges, random legs, and random well-typed terms.


def _random_graph(mw, rng, at_least: int = 0):
    n = rng.randint(at_least, 5)
    vs = sorted(rng.sample(range(15), n))
    pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 6))] if vs else []
    return mw.Graph(vs, {e: set(p) for e, p in zip(rng.sample(range(20), len(pairs)), pairs)})


def _random_cospan(mw, rng, dom: int, cod: int):
    g = _random_graph(mw, rng, 1 if dom + cod else 0)
    vs = sorted(g.vertices)
    return mw.Cospan(g, tuple(rng.choice(vs) for _ in range(dom)),
                     tuple(rng.choice(vs) for _ in range(cod)))


def _random_term(mw, rng, sig, dom: int, depth: int) -> tuple:
    """A random term of domain arity `dom` and its codomain arity; some
    leaves reuse an atom already in `sig`."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        same = sorted(name for name, a in sig.atoms.items() if a.dom == dom)
        if same and rng.random() < 0.3:
            name = rng.choice(same)
            return mw.Leaf(name), sig.atoms[name].cod
        cod = rng.randint(0, 3)
        return sig.leaf(_random_cospan(mw, rng, dom, cod)), cod
    if roll < 0.65:
        d1 = rng.randint(0, dom)
        t1, c1 = _random_term(mw, rng, sig, d1, depth - 1)
        t2, c2 = _random_term(mw, rng, sig, dom - d1, depth - 1)
        return mw.Tensor(t1, t2), c1 + c2
    t1, c1 = _random_term(mw, rng, sig, dom, depth - 1)
    t2, c2 = _random_term(mw, rng, sig, c1, depth - 1)
    return mw.Compose(t1, c1, t2), c2


def _colimit_steps(mw, rng):
    g1, g2 = _random_graph(mw, rng), _random_graph(mw, rng)
    apex, i1, i2 = mw.graph_coproduct(g1, g2)
    yield "graph_coproduct", [mw.graph.graph_to_json(apex), _morphism(i1), _morphism(i2)]
    y = range(rng.randint(0, 3) if g1.vertices and g2.vertices else 0)
    l1 = mw.FiniteMap({a: rng.choice(sorted(g1.vertices)) for a in y}, g1.vertices)
    l2 = mw.FiniteMap({a: rng.choice(sorted(g2.vertices)) for a in y}, g2.vertices)
    apex, m1, m2 = mw.graph_pushout(g1, g2, y, l1, l2)
    yield "graph_pushout", [mw.graph.graph_to_json(apex), _morphism(m1), _morphism(m2)]
    a, b, c = (rng.randint(0, 3) for _ in range(3))
    c1, c2 = _random_cospan(mw, rng, a, b), _random_cospan(mw, rng, b, c)
    yield "compose", _cospan(mw, mw.compose(c1, c2))
    yield "tensor", _cospan(mw, mw.tensor(c1, c2))
    sig = mw.Signature()
    term, _ = _random_term(mw, rng, sig, rng.randint(0, 2), 4)
    yield "evaluate", _cospan(mw, mw.evaluate(term, sig))


def colimit_records(mw, gen):
    rng = gen.stream(0, "same_results colimits")
    for i in range(300):
        yield from _steps(f"colimit/{i}", _colimit_steps(mw, rng))


# ---------------------------------------------------------------------------
# The roundtrip inputs: classic -> recursive -> term -> recursive.


def _roundtrip_steps(mw, workloads, item, kind: str):
    _, to_rec, _, from_rec, to_term, from_term = (getattr(mw, s) for s in workloads.STEPS[kind])
    d = item.decs[kind]
    sg = mw.SourcedGraph(item.graph, d.sources)
    yield "classic", _dec(mw, d.dec)
    rec = to_rec(d.dec, sg, *d.extra)
    yield "recursive", _dec(mw, rec)
    yield "from_recursive", _dec(mw, from_rec(rec))
    term, sig = to_term(rec, sg)
    yield "term", [mw.tree_to_json(term), mw.signature_to_json(sig)]
    yield "term/serial", mw.terms.tree_serial(term)
    yield "from_term", _dec(mw, from_term(term, sig))


def roundtrip_records(mw, workloads, table):
    for seed in SEEDS:
        w = workloads.Roundtrip()
        w.build(mw, seed, table)
        for v, inputs in enumerate(w.variants):
            for i, item in enumerate(inputs):
                for kind in workloads.STEPS:
                    yield from _steps(f"roundtrip/{seed}/{v}/{i}/{kind}",
                                      _roundtrip_steps(mw, workloads, item, kind))


def _glue_map(mw, rng, h):
    """A glue map on the apex of `h` that sends each boundary vertex to one
    of at most half of them, drawn at random, and every other vertex to
    itself, so it identifies only boundary vertices."""
    boundary = sorted(h.left_image() | h.right_image())
    pool = rng.sample(boundary, (len(boundary) + 1) // 2)
    mapping = {v: v for v in h.apex.vertices}
    mapping.update((v, rng.choice(pool)) for v in boundary)
    return mw.FiniteMap(mapping, mapping.values())


def _glued_steps(mw, rng, term, sig):
    phi = _glue_map(mw, rng, mw.evaluate(term, sig))
    yield "phi", sorted(phi.mapping.items())
    yield "m_to_bdec", _dec(mw, mw.m_to_bdec(term, sig, phi))


def glue_records(mw, gen, workloads, table):
    rng = gen.stream(0, "same_results glue")
    for i in range(300):
        sig = mw.Signature()
        term, _ = _random_term(mw, rng, sig, rng.randint(0, 2), 4)
        yield from _steps(f"glue/random/{i}", _glued_steps(mw, rng, term, sig))
    w = workloads.Roundtrip()
    w.build(mw, 1, table)
    for i, item in enumerate(w.variants[0]):
        for kind in workloads.STEPS:
            _, to_rec, _, _, to_term, _ = (getattr(mw, s) for s in workloads.STEPS[kind])
            d = item.decs[kind]
            sg = mw.SourcedGraph(item.graph, d.sources)
            term, sig = to_term(to_rec(d.dec, sg, *d.extra), sg)
            yield from _steps(f"glue/roundtrip/{i}/{kind}", _glued_steps(mw, rng, term, sig))


# ---------------------------------------------------------------------------
# Oracles, theorem reports and the bounded search.


def _oracle_steps(mw, g):
    for name in ("exact_treewidth", "exact_pathwidth", "exact_branchwidth"):
        try:
            w, dec = getattr(mw, name)(g)
        except mw.OracleError as exc:
            yield name, ["OracleError", str(exc)]
        else:
            yield name, [w, mw.decomposition_to_json(dec)]


def oracle_records(mw):
    for i, g in enumerate(mw.enumerate_graphs(6)):
        yield from _steps(f"oracle/{i}", _oracle_steps(mw, g))


def _multigraph(mw, rng):
    """Up to 9 vertices spread over 0..29 and up to 8 edges, with loops
    and parallel edges: sometimes past an oracle's cap."""
    vs = rng.sample(range(30), rng.randint(0, 9))
    pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 8))] if vs else []
    return mw.Graph(vs, {e: set(p) for e, p in zip(rng.sample(range(30), len(pairs)), pairs)})


def width_records(mw, gen):
    rng = gen.stream(0, "same_results widths")
    cache = mw.WidthCache()
    graphs = {"catalog": mw.enumerate_graphs(5, 7),
              "multigraph": [_multigraph(mw, rng) for _ in range(80)]}
    for name, gs in graphs.items():
        for i, g in enumerate(gs):
            copy, _ = _relabelled(mw, rng, g)
            yield f"widths/{name}/{i}", [_outcome(lambda: list(cache.widths(h)))
                                         for h in (g, copy)]


def _theorem_steps(mw, g):
    yield "report", mw.check_theorems(g).to_json()


def theorem_records(mw, workloads, table):
    for seed in SEEDS:
        w = workloads.Theorems()
        w.build(mw, seed, table)
        for v, inputs in enumerate(w.variants):
            for i, (_, g) in enumerate(inputs):
                yield from _steps(f"theorems/{seed}/{v}/{i}", _theorem_steps(mw, g))


def _search_steps(mw, c):
    """Each shape at both budgets, seeded with a translation (the default)
    and unseeded (what `check_theorems` runs)."""
    for budget in (4000, 50):
        for shape in ("any", "right-tree", "path"):
            for seeded, suffix in ((True, ""), (False, "/unseeded")):
                r = mw.bounded_mwd_search(c, shape=shape, budget=budget,
                                          seed_translations=seeded)
                yield f"{budget}/{shape}{suffix}", [mw.tree_to_json(r.tree), r.width, r.exact,
                                                    mw.signature_to_json(r.signature)]
                yield f"{budget}/{shape}{suffix}/serial", mw.terms.tree_serial(r.tree)


def search_records(mw, gen, table):
    for i, row in enumerate(table["theorems"]):
        g = mw.Graph.from_edge_pairs(range(row["n"]), row["edges"])
        for sources in ((), (0,), (0, row["n"] - 1)):
            c = mw.from_sourced(mw.SourcedGraph(g, sources))
            yield from _steps(f"search/theorems/{i}/{len(sources)}", _search_steps(mw, c))
    rng = gen.stream(0, "same_results search")
    for i in range(30):
        c = _random_cospan(mw, rng, rng.randint(0, 2), rng.randint(0, 2))
        yield from _steps(f"search/random/{i}", _search_steps(mw, c))


# ---------------------------------------------------------------------------
# Validators on corrupted decompositions of the seed-1 roundtrip inputs.


def _corrupt_classic(mw, rng, kind: str, dec):
    """One random corruption of a classic decomposition."""
    if kind == "path":
        bags = [set(b) for b in dec.bags]
        i, how = rng.randrange(len(bags)), rng.randrange(3)
        if how == 0 and bags[i]:
            bags[i].discard(rng.choice(sorted(bags[i])))
        elif how == 1:
            bags[i].add(-1)
        else:
            del bags[i]
        return mw.PathDec(bags)
    shape = dec.shape
    nodes, edges = sorted(shape.vertices), sorted(shape.edges)
    ends = {e: set(shape.ends(e)) for e in edges}
    fresh, how = max(nodes) + 1, rng.randrange(4)
    if how == 0 and edges:  # two trees
        del ends[rng.choice(edges)]
    elif how == 1:  # a cycle or a loop
        ends[max(edges, default=-1) + 1] = {rng.choice(nodes), rng.choice(nodes)}
    elif how == 2:  # still a tree, with a new leaf
        ends[max(edges, default=-1) + 1] = {rng.choice(nodes), fresh}
        nodes.append(fresh)
    new_shape = mw.Graph(nodes, ends)
    if kind == "tree":
        bags = {i: set(b) for i, b in dec.bags}
        bags[fresh] = set()
        i = rng.choice(nodes)
        if how == 3 and bags[i]:
            bags[i].discard(rng.choice(sorted(bags[i])))
        elif how == 3:
            bags[i].add(-1)
        return mw.TreeDec(new_shape, {i: b for i, b in bags.items() if i in nodes})
    table = dec.leaf_table()
    if how == 3:
        leaf = rng.choice(sorted(table))
        table[leaf] = rng.choice([*table.values(), -1])
    return mw.BranchDec(new_shape, table)


def _corrupt_recursive(mw, rng, rec) -> dict:
    """The JSON of one random corruption of a recursive decomposition."""
    data = mw.decomposition_to_json(rec)
    nodes, stack = [], [data]
    while stack:
        node = stack.pop()
        if "graph" in node:
            nodes.append(node)
        stack += (x for x in node.values() if isinstance(x, dict) and "kind" in x)
    node = rng.choice(nodes)
    how = rng.randrange(4)
    if how == 0 and node.get("bag"):
        node["bag"].remove(rng.choice(node["bag"]))
    elif how == 1 and "bag" in node:
        node["bag"].append(-1)
    elif how == 2 and node["graph"]["e"]:
        node["graph"]["e"].pop(rng.randrange(len(node["graph"]["e"])))
    elif node["graph"]["v"]:
        node["graph"]["s"] = sorted(set(node["graph"]["s"]) | {rng.choice(node["graph"]["v"])})
    return data


def _validator_steps(mw, workloads, rng, item, kind: str):
    validate = getattr(mw, f"validate_{kind}_dec")
    validate_rec = getattr(mw, f"validate_rec_{kind}_dec")
    d = item.decs[kind]
    sg = mw.SourcedGraph(item.graph, d.sources)
    rec = getattr(mw, workloads.STEPS[kind][1])(d.dec, sg, *d.extra)
    # every corruption is drawn before any is checked, so one that raises
    # leaves the draws for the next input as they are
    classic = [_corrupt_classic(mw, rng, kind, d.dec) for _ in range(4)]
    recursive = [_corrupt_recursive(mw, rng, rec) for _ in range(4)]
    yield "classic", _check(validate(d.dec, item.graph))
    yield "recursive", _check(validate_rec(rec, sg))
    for j, dec in enumerate(classic):
        yield f"classic/{j}", _check(validate(dec, item.graph))
    for j, data in enumerate(recursive):
        yield f"recursive/{j}", _check(validate_rec(mw.decomposition_from_json(data), sg))


def validator_records(mw, gen, workloads, table):
    w = workloads.Roundtrip()
    w.build(mw, 1, table)
    rng = gen.stream(1, "same_results corruptions")
    for i, item in enumerate(w.variants[0]):
        for kind in workloads.STEPS:
            yield from _steps(f"validate/{i}/{kind}",
                              _validator_steps(mw, workloads, rng, item, kind))


# ---------------------------------------------------------------------------
# Fault inputs of every parser: graph text, decomposition JSON of all six
# kinds, term JSON and signature JSON.  A record holds the error's type and
# message, or what the input parses to.

_G = {"v": [0, 1], "e": [[0, 0, 1]], "s": [0]}  # a sourced graph that reads
_EMPTY_G = {"v": [], "e": [], "s": []}
_REC_EMPTY = {"rec-tree": {"kind": "rec-tree", "empty": True},
              "rec-path": {"kind": "rec-path", "empty": True},
              "rec-branch": {"kind": "rec-branch", "empty": True}}
_REC_NODE = {  # a node of each family that reads, its children empty
    "rec-tree": {"kind": "rec-tree", "graph": _G, "bag": [0, 1],
                 "left": _REC_EMPTY["rec-tree"], "right": _REC_EMPTY["rec-tree"]},
    "rec-path": {"kind": "rec-path", "graph": _G, "bag": [0, 1], "tail": _REC_EMPTY["rec-path"]},
    "rec-branch": {"kind": "rec-branch", "graph": _G,
                   "left": _REC_EMPTY["rec-branch"], "right": _REC_EMPTY["rec-branch"]},
}
_CLASSIC = {
    "tree": {"kind": "tree", "shape": {"v": [0, 1], "e": [[0, 0, 1]]},
             "bags": {"0": [0, 1], "1": [1]}},
    "path": {"kind": "path", "bags": [[0, 1], [1]]},
    "branch": {"kind": "branch", "shape": {"v": [0], "e": []}, "leaf_map": {"0": 0}},
}
_ILL = {  # per field: ill-typed values
    "graph": (3, [], {"v": [0], "e": [[0, 0, 5]]}, {"v": [0], "s": [7]}, {"v": ["a"]},
              {"v": [0], "e": [[]]}),  # the last: an edge entry with no id
    "bag": (3, ["x"], [[0]], None),
    "shape": ("s", {"v": [0], "e": [[0, 0, 9]]}),
    "bags": (3, [], {"a": [0]}, {"0": ["x"]}, [["x"]], [3]),
    "leaf_map": ([], {"0": "x"}, {"x": 0}),
    "child": ([], "x", None, {"kind": "nope"}, {}),
}
_CHILDREN = {"rec-tree": ("left", "right"), "rec-path": ("tail",), "rec-branch": ("left", "right")}


def _outcome(call, show=lambda value: value, label: str = "ok") -> list:
    """[label, show(value)] of `call()`, or the type and message of its error."""
    try:
        value = call()
    except Exception as exc:  # recorded, so a revision that differs here differs
        return [type(exc).__name__, str(exc)]
    return [label, show(value)]


def _parsed(mw, parse, data, show) -> list:
    return _outcome(lambda: parse(data), show, "parsed")


def _faulty_nodes(kind: str):
    """(name, JSON) of every fault of one node of `kind`: each field missing
    and each field ill-typed in turn."""
    base = _CLASSIC.get(kind) or _REC_NODE[kind]
    for name in base:
        if name == "kind":
            continue
        yield f"missing-{name}", {k: v for k, v in base.items() if k != name}
        field = "child" if name in _CHILDREN.get(kind, ()) else name
        for j, bad in enumerate(_ILL[field]):
            yield f"ill-{name}/{j}", {**base, name: bad}


def _nested(kind: str, inner: dict, path: tuple) -> dict:
    """`inner` under the child fields `path` of valid `kind` nodes, outermost first."""
    for name in reversed(path):
        inner = {**_REC_NODE[kind], name: inner}
    return inner


def _decomposition_faults():
    yield "non-object/list", []
    yield "non-object/str", "tree"
    yield "non-object/null", None
    yield "unknown/none", {}
    yield "unknown/name", {"kind": "graph"}
    yield "unknown/int", {"kind": 3}
    for kind in _CLASSIC:
        yield f"{kind}/valid", _CLASSIC[kind]
        for name, data in _faulty_nodes(kind):
            yield f"{kind}/{name}", data
    for kind, children in _CHILDREN.items():
        yield f"{kind}/valid", _REC_NODE[kind]
        faults = list(_faulty_nodes(kind))
        for depth in range(4):
            for child in children:
                path = (children[0],) * (depth - 1) + (child,) if depth else ()
                if not depth and child != children[0]:
                    continue
                for name, data in faults:
                    yield f"{kind}/{'.'.join(path) or 'root'}/{name}", _nested(kind, data, path)
        # a faulty first child followed by a missing sibling: the child's
        # error comes first; with a valid first child, the missing sibling
        for depth in range(3 if len(children) > 1 else 0):
            path = (children[0],) * depth
            for label, first in (("faulty", {**_REC_NODE[kind], "graph": 3}),
                                 ("valid", _REC_NODE[kind])):
                node = {**_REC_NODE[kind], children[0]: first}
                del node[children[1]]
                yield (f"{kind}/{'.'.join(path) or 'root'}/{label}-then-missing-{children[1]}",
                       _nested(kind, node, path))
        # a classic form nested as a child still reads
        for classic in _CLASSIC:
            yield f"{kind}/child-{classic}", {**_REC_NODE[kind], children[0]: _CLASSIC[classic]}
    # the flags: an empty rec-branch node with and without its graph
    yield "rec-branch/empty-with-graph", {"kind": "rec-branch", "empty": True, "graph": _G}
    yield "rec-branch/empty-with-empty-graph", {"kind": "rec-branch", "empty": True,
                                                "graph": _EMPTY_G}
    yield "rec-branch/empty-ill-graph", {"kind": "rec-branch", "empty": True, "graph": 3}
    yield "rec-branch/empty-and-leaf", {"kind": "rec-branch", "empty": True, "leaf": True,
                                        "graph": _G}
    yield "rec-branch/leaf", {"kind": "rec-branch", "leaf": True, "graph": _G}
    yield "rec-branch/leaf-missing-graph", {"kind": "rec-branch", "leaf": True}
    yield "rec-branch/flag-false", {"kind": "rec-branch", "empty": False, "graph": _G}
    yield "rec-tree/empty-extra", {"kind": "rec-tree", "empty": 1, "graph": 3, "bag": "x"}
    yield "rec-path/flag-zero", {"kind": "rec-path", "empty": 0, "graph": _G, "bag": [0, 1],
                                 "tail": _REC_EMPTY["rec-path"]}


_LEAF = {"op": "leaf", "atom": "a"}


def _term_faults():
    nodes = {
        "non-object": 3, "no-op": {}, "unknown-op": {"op": "swap"},
        "leaf-no-atom": {"op": "leaf"}, "leaf-int-atom": {"op": "leaf", "atom": 3},
        "tensor-no-children": {"op": "tensor"},
        "tensor-one-child": {"op": "tensor", "children": [_LEAF]},
        "tensor-int-children": {"op": "tensor", "children": 3},
        "compose-no-cut": {"op": "compose", "children": [_LEAF, _LEAF]},
        "compose-bad-cut": {"op": "compose", "cut": "x", "children": [_LEAF, _LEAF]},
        "compose-null-cut": {"op": "compose", "cut": None, "children": [_LEAF, _LEAF]},
    }
    for name, node in nodes.items():
        for depth in range(4):
            data = node
            for i in range(depth):
                data = ({"op": "tensor", "children": [data, _LEAF]} if i % 2 else
                        {"op": "compose", "cut": 1, "children": [_LEAF, data]})
            yield f"{name}/{depth}", data


_ATOM = {"dom": 1, "cod": 1, "weight": 2,
         "cospan": {"apex": {"v": [0, 1], "e": [[0, 1]]}, "left": [0], "right": [0],
                    "legL": {"0": 0}, "legR": {"0": 1}}}


def _signature_faults():
    yield "non-object", []
    yield "empty", {}
    yield "atom-not-object", {"a": 3}
    yield "valid", {"a": _ATOM}
    yield "no-cospan", {"a": {**_ATOM, "cospan": None}}
    for k in ("dom", "cod", "weight"):
        yield f"missing-{k}", {"a": {key: v for key, v in _ATOM.items() if key != k}}
        yield f"ill-{k}", {"a": {**_ATOM, k: "x"}}
    yield "arity-mismatch", {"a": {**_ATOM, "dom": 2}}
    yield "cospan-no-apex", {"a": {**_ATOM, "cospan": {"left": [], "right": []}}}
    yield "cospan-bad-leg", {"a": {**_ATOM, "cospan": {**_ATOM["cospan"], "legL": {}}}}
    yield "cospan-bad-vertex", {"a": {**_ATOM, "cospan": {**_ATOM["cospan"],
                                                          "legR": {"0": 7}}}}


_GRAPH_TEXTS = {
    "empty": "", "comment": "# nothing\n\n", "valid": "v 0\nv 1\ne 0 1\ns 1\n",
    "non-integer": "v x\n", "v-two-ids": "v 0 1\n", "v-no-id": "v\n",
    "e-one-id": "v 0\ne 0\n", "e-undeclared": "v 0\ne 0 1\n", "e-three-ids": "v 0\ne 0 0 0\n",
    "s-undeclared": "v 0\ns 1\n", "s-two-ids": "v 0\ns 0 0\n", "unknown": "v 0\nw 0\n",
    "late-fault": "v 0\nv 1\ne 0 1\n\n# c\nx\n", "loop": "v 0\ne 0 0\n",
}


def fault_records(mw):
    for name, text in _GRAPH_TEXTS.items():
        yield f"fault/graph-text/{name}", _parsed(
            mw, mw.parse_graph_text, text,
            lambda sg: [mw.graph.sourced_graph_to_json(sg), repr(sg)])
    for name, data in _decomposition_faults():
        yield f"fault/decomposition/{name}", _parsed(
            mw, mw.decomposition_from_json, data, repr)
    for name, data in _term_faults():
        yield f"fault/term/{name}", _parsed(mw, mw.tree_from_json, data, mw.tree_to_json)
        yield f"fault/term/{name}/serial", _parsed(mw, mw.tree_from_json, data,
                                                   mw.terms.tree_serial)
    for name, data in _signature_faults():
        yield f"fault/signature/{name}", _parsed(mw, mw.signature_from_json, data,
                                                 mw.signature_to_json)


# ---------------------------------------------------------------------------
# The public functions that the sections above never call: graph queries
# and isomorphisms, epimorphisms of compositions, the copy lemma over a
# symbolic signature, term weights and cut mismatches, branch edge orders
# and boundaries, recursive-node equality, the text form of a graph, and
# the width cache's file.  `==` and hash equality are recorded as
# booleans: a class's hash differs from one process to the next.


def _relabelled(mw, rng, g):
    """A copy of g under random vertex and edge renumberings, and its vertex renumbering."""
    vs, es = sorted(g.vertices), sorted(g.edges)
    vnew = dict(zip(vs, rng.sample(range(20), len(vs))))
    enew = dict(zip(es, rng.sample(range(30), len(es))))
    return mw.Graph(vnew.values(), {enew[e]: {vnew[v] for v in g.ends(e)} for e in es}), vnew


def _maybe_morphism(m):
    return None if m is None else _morphism(m)


def _graph_api_steps(mw, rng):
    g = _random_graph(mw, rng)
    vs = sorted(g.vertices)
    yield "queries", [[v, g.degree(v), sorted(g.neighbours(v)), sorted(g.incident_edges(v))]
                      for v in vs]
    yield "unknown-vertex", [_outcome(lambda: g.degree(99)), _outcome(lambda: g.neighbours(99))]
    yield "components", [[sorted(c), sorted(e)] for c, e in g.connected_components()]
    n = rng.randint(1, 6)  # and a random tree, whose degrees may pass three
    tree = mw.Graph.from_edge_pairs(range(n), [(rng.randrange(i), i) for i in range(1, n)])
    yield "trees", [g.is_tree(), mw.is_subcubic_tree(g), tree.is_tree(), mw.is_subcubic_tree(tree)]
    yield "text", mw.format_graph_text(mw.SourcedGraph(g, [v for v in vs if rng.random() < 0.4]))
    h, vnew = _relabelled(mw, rng, g)
    yield "isomorphic", _maybe_morphism(mw.graph_isomorphic(g, h))
    yield "isomorphic/other", _maybe_morphism(mw.graph_isomorphic(g, _random_graph(mw, rng)))
    if vs:
        v = rng.choice(vs)
        forced = {v: rng.choice([vnew[v], *vnew.values()])}
        yield "forced", _maybe_morphism(mw.graph.find_isomorphism(g, h, forced))
    c = _random_cospan(mw, rng, rng.randint(0, 2), rng.randint(0, 2))
    h, vnew = _relabelled(mw, rng, c.apex)
    same = mw.Cospan(h, tuple(vnew[v] for v in c.left), tuple(vnew[v] for v in c.right))
    moved = mw.Cospan(h, tuple(vnew[v] for v in c.right), tuple(vnew[v] for v in c.left))
    yield "cospan_iso_eq", [mw.cospan_iso_eq(c, same), mw.cospan_iso_eq(c, moved),
                            mw.cospan_iso_eq(c, _random_cospan(mw, rng, len(c.left),
                                                               len(c.right)))]


def _forced_steps(mw, rng):
    """Isomorphisms onto a relabelled copy with two and three vertices
    pinned, each pin to its image or at random; then two vertices pinned to
    one target, and a pin outside the vertex set."""
    g = _random_graph(mw, rng, 2)
    h, vnew = _relabelled(mw, rng, g)
    vs, targets = sorted(g.vertices), sorted(h.vertices)
    for k in (2, 3):
        pins = rng.sample(vs, min(k, len(vs)))
        forced = {v: vnew[v] if rng.random() < 0.6 else rng.choice(targets) for v in pins}
        yield f"pins/{k}", [sorted(forced.items()),
                            _maybe_morphism(mw.graph.find_isomorphism(g, h, forced))]
    a, b = rng.sample(vs, 2)
    yield "non-injective", _maybe_morphism(mw.graph.find_isomorphism(g, h, {a: vnew[a],
                                                                            b: vnew[a]}))
    yield "outside", [_maybe_morphism(mw.graph.find_isomorphism(g, h, {max(vs) + 1: t}))
                      for t in (targets[0], max(targets) + 1)]


def _components_steps(mw, rng):
    """Components of a multigraph with up to 12 vertices spread over 0..99,
    loops, parallel edges and isolated vertices."""
    vs = rng.sample(range(100), rng.randint(0, 12))
    pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 12))] if vs else []
    g = mw.Graph(vs, {e: set(p) for e, p in zip(rng.sample(range(100), len(pairs)), pairs)})
    yield "components", [[sorted(c), sorted(e)] for c, e in g.connected_components()]
    yield "connected", g.is_connected()


def _term_api_steps(mw, rng):
    sig = mw.Signature()
    term, cod = _random_term(mw, rng, sig, rng.randint(0, 2), 4)
    yield "node_weights", mw.node_weights(term, sig)
    yield "shapes", [mw.is_left_tree(term), mw.is_right_tree(term), mw.is_path(term)]
    yield "arity", list(mw.terms.arity(term, sig))
    # a composition whose cut disagrees with its left side, then one whose
    # cut disagrees with its right side, each under random tensors
    right, _ = _random_term(mw, rng, sig, cod + 1, 2)
    for j, bad in enumerate((mw.Compose(term, cod + 1, right), mw.Compose(term, cod, right))):
        for _ in range(rng.randint(0, 2)):
            bad = mw.Tensor(bad, term) if rng.random() < 0.5 else mw.Tensor(term, bad)
        yield f"cut-mismatch/{j}", _outcome(lambda: mw.terms.arity(bad, sig))


def _copy_steps(mw, rng):
    y, z = rng.randint(0, 2), rng.randint(0, 2)
    xs = [rng.randint(1, 2) for _ in range(rng.randint(0, 3))]
    dom, cod = y + sum(xs) + z, rng.randint(0, 2)
    sym = mw.SymbolicSignature()
    sym.add("f", dom, cod, rng.randint(0, 4))
    # a repeated `copy_mdec` adds no atom: its wiring atoms are cached
    yield "symbolic", _outcome(lambda: mw.copy_mdec(mw.Leaf("f"), sym, y, xs, z),
                               lambda d: [mw.tree_to_json(d), mw.width(d, sym)])
    yield "symbolic/serial", _outcome(lambda: mw.copy_mdec(mw.Leaf("f"), sym, y, xs, z),
                                      mw.terms.tree_serial)
    wiring = [sym.leaf_spider(rng.randint(0, 2), rng.randint(0, 2)),
              sym.leaf_permutation(tuple(rng.sample(range(3), 3)))]
    yield "symbolic/signature", [[mw.tree_to_json(t) for t in wiring],
                                 mw.signature_to_json(sym)]
    yield "symbolic/wiring-serial", [mw.terms.tree_serial(t) for t in wiring]
    sig = mw.Signature()
    f = sig.leaf(_random_cospan(mw, rng, dom, cod))
    yield "cospans", _outcome(lambda: mw.copy_mdec(f, sig, y, xs, z),
                              lambda d: [mw.tree_to_json(d), mw.width(d, sig),
                                         _cospan(mw, mw.evaluate(d, sig))])
    yield "cospans/serial", _outcome(lambda: mw.copy_mdec(f, sig, y, xs, z),
                                     mw.terms.tree_serial)


def _epi_steps(mw, rng):
    a, b, c = (rng.randint(0, 3) for _ in range(3))
    c1, c2 = _random_cospan(mw, rng, a, b), _random_cospan(mw, rng, b, c)
    epis = mw.epis_from_composition(c1, c2)
    yield "epis", [_cospan(mw, epis.composite), _morphism(epis.alpha1), _morphism(epis.alpha2)]
    for side, alpha, part, inner in (("1", epis.alpha1, c1, c1.right),
                                     ("2", epis.alpha2, c2, c2.left)):
        for kind, optimal, push in (("tree", mw.optimal_rec_tree_dec, mw.epi_to_dec_tree),
                                    ("path", mw.optimal_rec_path_dec, mw.epi_to_dec_path)):
            # sources on the inner boundary put every identified pair in the
            # root bag; without sources a pair may share no bag
            for label, sources in (("inner", inner), ("none", ())):
                rec = optimal(mw.SourcedGraph(part.apex, sources))[1]
                yield f"{side}/{kind}/{label}", _outcome(lambda: push(alpha, rec),
                                                         lambda t: _dec(mw, t))
    rec = mw.optimal_rec_tree_dec(mw.SourcedGraph(c2.apex))[1]
    yield "other-domain", _outcome(lambda: mw.epi_to_dec_tree(epis.alpha1, rec),
                                   lambda t: _dec(mw, t))


def _subtree_paths(t) -> list:
    """The 0/1 path of every node of a recursive branch decomposition, and one past a leaf."""
    paths, stack = [], [((), t)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        if hasattr(node, "left"):
            stack += (path + (1,), node.right), (path + (0,), node.left)
    return paths + [paths[-1] + (0,)]


def _decomposition_api_steps(mw, workloads, rng, item, other):
    d = item.decs["branch"]
    shape = d.dec.shape
    yield "edge_order", [[e, mw.edge_order(d.dec, item.graph, e)] for e in sorted(shape.edges)]
    yield "edge_order/unknown", _outcome(lambda: mw.edge_order(d.dec, item.graph, -1))
    rec = mw.branch_to_recursive(d.dec, mw.SourcedGraph(item.graph, d.sources))
    yield "boundary_global", [[list(p), _outcome(lambda: sorted(mw.boundary_global(rec, p)))]
                              for p in _subtree_paths(rec)]
    for kind in workloads.STEPS:
        to_rec = getattr(mw, workloads.STEPS[kind][1])
        mine, theirs = (to_rec(x.decs[kind].dec, mw.SourcedGraph(x.graph, x.decs[kind].sources),
                               *x.decs[kind].extra) for x in (item, other))
        copy = mw.decomposition_from_json(mw.decomposition_to_json(mine))
        changed = mw.decomposition_from_json(_corrupt_recursive(mw, rng, mine))
        yield f"equal/{kind}", [mine == copy, hash(mine) == hash(copy), mine != copy,
                                mine == theirs, mine == changed, hash(mine) == hash(changed),
                                mine == item.decs[kind].dec, len({mine, copy, theirs})]


_CACHE_FILES = {
    "invalid": "{", "list": "[]", "empty": "{}",
    "extra-field": '{"k": {"tw": 1, "pw": 1, "bw": 1, "x": 1}}',
    "bool-width": '{"k": {"tw": true, "pw": 1, "bw": 1}}',
    "valid": '{"k": {"tw": 1, "pw": 2, "bw": 3}}',
}


def _cache_steps(mw):
    with tempfile.TemporaryDirectory() as tmp:
        cache = mw.WidthCache()
        widths = [list(cache.widths(g)) for g in mw.enumerate_graphs(3)]
        path = os.path.join(tmp, "widths.json")
        cache.save(path)
        with open(path, encoding="utf-8") as fh:
            yield "saved", [widths, fh.read()]
        loaded = mw.WidthCache().load(path)
        yield "loaded", [loaded.data == cache.data,
                         [list(loaded.widths(g)) for g in mw.enumerate_graphs(3)]]
        yield "missing", mw.WidthCache().load(os.path.join(tmp, "missing.json")).data
        for name, text in _CACHE_FILES.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            got, value = _outcome(lambda: mw.WidthCache().load(path).data)
            yield f"file/{name}", [got, value if got == "ok" else value.replace(tmp, "<dir>")]


def api_records(mw, gen, workloads, table):
    rng = gen.stream(0, "same_results api")
    for i in range(60):
        yield from _steps(f"api/graph/{i}", _graph_api_steps(mw, rng))
    for i in range(60):
        yield from _steps(f"api/term/{i}", _term_api_steps(mw, rng))
    forced_rng = gen.stream(0, "same_results forced")
    for i in range(60):
        yield from _steps(f"api/forced/{i}", _forced_steps(mw, forced_rng))
    components_rng = gen.stream(0, "same_results components")
    for i in range(60):
        yield from _steps(f"api/components/{i}", _components_steps(mw, components_rng))
    for i in range(30):
        yield from _steps(f"api/copy/{i}", _copy_steps(mw, rng))
    for i in range(30):
        yield from _steps(f"api/epi/{i}", _epi_steps(mw, rng))
    w = workloads.Roundtrip()
    w.build(mw, 2, table)
    items = w.variants[0]
    for i, item in enumerate(items[:12]):
        yield from _steps(f"api/decomposition/{i}", _decomposition_api_steps(
            mw, workloads, rng, item, items[i + 1]))
    yield from _steps("api/cache", _cache_steps(mw))


# ---------------------------------------------------------------------------
# The command line on a few files.

FILES = {
    "k3.g": "v 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\n",
    "p4.g": "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 3\ns 0\n",
    "bad.g": "v 0\ne 0 1\n",
    "tree.json": json.dumps({"kind": "tree", "shape": {"v": [0, 1, 2], "e": [[0, 0, 1], [1, 1, 2]]},
                             "bags": {"0": [0, 1], "1": [1, 2], "2": [2, 3]}}),
    "gap.json": json.dumps({"kind": "tree", "shape": {"v": [0, 1, 2], "e": [[0, 0, 1], [1, 1, 2]]},
                            "bags": {"0": [0, 1], "1": [1], "2": [2, 3]}}),
    "bad.json": "{\"kind\": ",
}

# each argv names its files relative to the directory holding them; the
# output of a command whose name is given first is written to that file
COMMANDS = [
    (None, ["widths", "k3.g"]),
    (None, ["widths", "p4.g", "--json"]),
    (None, ["check-theorems", "k3.g"]),
    (None, ["check-theorems", "p4.g", "--json", "--budget", "50"]),
    (None, ["decompose", "k3.g", "--kind", "tree"]),
    (None, ["decompose", "p4.g", "--kind", "path", "--recursive", "--json"]),
    (None, ["decompose", "k3.g", "--kind", "branch", "--recursive", "--dot"]),
    ("term.json", ["decompose", "p4.g", "--kind", "monoidal", "--json"]),
    (None, ["decompose", "k3.g", "--kind", "monoidal", "--shape", "path"]),
    (None, ["validate", "p4.g", "--dec", "tree.json"]),
    (None, ["validate", "p4.g", "--dec", "gap.json"]),
    (None, ["validate", "p4.g", "--dec", "bad.json"]),
    (None, ["translate", "--from", "tree.json", "--to", "rec-tree", "--graph", "p4.g", "--json"]),
    (None, ["translate", "--from", "term.json", "--to", "rec-path", "--json"]),
    (None, ["translate", "--from", "term.json", "--to", "branch"]),
    (None, ["translate", "--from", "term.json", "--to", "monoidal"]),
    (None, ["catalog", "--max-v", "3"]),
    (None, ["catalog", "--max-v", "3", "--max-e", "2", "--json"]),
    (None, ["widths", "bad.g"]),
    (None, ["widths", "missing.g"]),
    (None, ["decompose", "k3.g"]),
]


def cli_records(mw):
    from mwidth.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for i, (keep, argv) in enumerate(COMMANDS):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([os.path.join(tmp, a) if a.endswith((".g", ".json")) else a
                             for a in argv])
            if keep:
                with open(os.path.join(tmp, keep), "w", encoding="utf-8") as fh:
                    fh.write(out.getvalue())
            yield (f"{i}/{' '.join(argv)}",
                   [code, out.getvalue().replace(tmp, "<dir>"), err.getvalue().replace(tmp, "<dir>")])


# ---------------------------------------------------------------------------


def records(mw):
    """Every (name, value) record, in a fixed order."""
    sys.path.insert(0, PERFBENCH)
    import gen
    import workloads

    table = workloads.load_table()
    yield from colimit_records(mw, gen)
    yield from roundtrip_records(mw, workloads, table)
    yield from glue_records(mw, gen, workloads, table)
    yield from oracle_records(mw)
    yield from width_records(mw, gen)
    yield from theorem_records(mw, workloads, table)
    yield from search_records(mw, gen, table)
    yield from validator_records(mw, gen, workloads, table)
    yield from fault_records(mw)
    yield from api_records(mw, gen, workloads, table)
    yield from _steps("cli", cli_records(mw))


def write_records(src: str, out) -> None:
    """Write the records of the library under `src`, then their sha256."""
    sys.path.insert(0, src)
    import mwidth

    digest, count = hashlib.sha256(), 0
    for name, value in records(mwidth):
        line = f"{name}\t{json.dumps(value, sort_keys=True, separators=(',', ':'))}\n"
        out.write(line)
        digest.update(line.encode())
        count += 1
    out.write(f"sha256 {digest.hexdigest()} of {count} records\n")


def _read(path: str) -> tuple[dict, str]:
    """The records of a file `write_records` wrote, by name, and its last line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return dict(line.split("\t", 1) for line in lines[:-1]), lines[-1]


def compare(rev: str) -> int:
    """Print the records that differ between this tree and `rev`; 1 if any does."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=zip", rev],
                                 check=True, capture_output=True).stdout
        other = os.path.join(tmp, "tree")
        with zipfile.ZipFile(io.BytesIO(archive)) as zf:
            zf.extractall(other)
        runs = {}
        for label, src in (("here", os.path.join(ROOT, "src")), (rev, os.path.join(other, "src"))):
            path = os.path.join(tmp, f"{len(runs)}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                runs[label] = (path, subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                                       "--src", src], stdout=fh))
        for label, (_, proc) in runs.items():
            if proc.wait():
                print(f"the records of {label} failed (exit {proc.returncode})")
                return 1
        (mine, mine_sum), (theirs, their_sum) = (_read(path) for path, _ in runs.values())
    differ = [name for name in {**mine, **theirs} if mine.get(name) != theirs.get(name)]
    print(f"here: {mine_sum}\n{rev}: {their_sum}")
    print(f"{len(differ)} of {len(mine)} records differ")
    for name in differ[:SHOWN]:
        print(name)
        for label, table in (("here", mine), (rev, theirs)):
            print(f"  {label}: {table.get(name, '(no such record)')[:CLIPPED]}")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", help="git revision to compare this tree with")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the mwidth package to run (default: this tree's)")
    args = p.parse_args(argv)
    if args.against:
        return compare(args.against)
    write_records(os.path.abspath(args.src), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
