"""The three workloads: inputs made from the seed, one pass of items, and
the output checks behind `failed_frac`.

A workload is built once per set-up (`build`) and then run as repeated
passes over the same inputs (`run_pass`), one item at a time in a closed
loop.  Each item's latency covers only its calls into `mwidth`; the checks
and the clock's calibration samples run between items.  Expected values
come from `data/expected.json` (recorded at the commit that added the
benchmark, keyed by isomorphism class) or, for `roundtrip`, from the
benchmark's own width computations.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import gen

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "expected.json")

# Fields of a TheoremReport that are exact invariants of the graph, and
# the witness bounds that depend on the witnesses the oracles return for
# one labelling (checked against their theorem interval instead).
EXACT_FIELDS = ("tw", "pw", "bw", "mpwd")
WITNESS_FIELDS = ("mtwd_upper", "mwd_upper", "mwd_search")


def load_table() -> dict:
    """The expected-value table, cross-checked against closed forms."""
    with open(DATA, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    for section in ("catalog", "theorems", "multigraphs"):
        for row in table[section]:
            known = gen.closed_form_widths(row["n"], row["edges"])
            if known is not None and known != (row["tw"], row["pw"], row["bw"]):
                raise ValueError(f"expected.json disagrees with the closed form "
                                 f"for {row['key']}: {known}")
    return table


@dataclass
class PassResult:
    """Timings, failures and notes of one pass."""

    clock: object                                   # clock.Clock of the run
    tag: object = None                              # called with each item index
    items: list = field(default_factory=list)       # (start, raw seconds) per item
    busy: list = field(default_factory=list)        # (start, raw seconds) inside mwidth
    failures: list = field(default_factory=list)    # (item index, reason)
    notes: dict = field(default_factory=dict)       # informational counts

    def timed(self, fn):
        """Call fn as time inside mwidth that belongs to no item."""
        t0 = time.perf_counter()
        out = fn()
        self.busy.append((t0, time.perf_counter() - t0))
        return out

    def item(self, index: int, fn, check) -> None:
        """Run one item, time it, then check its output outside the clock;
        an item that raises is a failed item."""
        self.clock.tick()
        if self.tag:
            self.tag(index)
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            error = exc
        span = (t0, time.perf_counter() - t0)
        self.items.append(span)
        self.busy.append(span)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            problem = f"{type(error).__name__}: {error}"
        else:
            problem = check(out)
        if problem:
            self.failures.append((index, problem))


def _graph(mw, pairs, n):
    return mw.Graph.from_edge_pairs(range(n), pairs)


class Workload:
    """Inputs for VARIANTS passes made at set-up; pass k runs variant k mod
    VARIANTS, so a run sees several relabellings or graph draws while two
    runs with one seed run the same passes in the same order."""

    name = ""
    VARIANTS = 4

    def build(self, mw, seed: int, table: dict) -> None:
        rng = gen.stream(seed, self.name)
        self.table = table
        self.variants = [self.make_inputs(mw, rng) for _ in range(self.VARIANTS)]
        self.passes = 0

    def run_pass(self, mw, clock, tag=None) -> PassResult:
        res = PassResult(clock, tag)
        self.run_items(mw, self.variants[self.passes % self.VARIANTS], res)
        self.passes += 1
        return res


# ---------------------------------------------------------------------------
# catalog: what `mwidth catalog --max-v 5 --max-e 7` does.  Each pass calls
# enumerate_graphs(5, 7), then WidthCache.widths on every class under two
# relabellings with a fresh cache, so one lookup of each class misses and
# runs the three oracles, and one hits and only computes canonical_key.


class Catalog(Workload):
    name = "catalog"
    VARIANTS = 8

    def make_inputs(self, mw, rng) -> list:
        return [(row, _graph(mw, gen.relabel(row["n"], row["edges"], rng), row["n"]),
                 _graph(mw, gen.relabel(row["n"], row["edges"], rng), row["n"]))
                for row in self.table["catalog"]]

    def _check_enumeration(self, classes) -> str:
        keys = [gen.class_key(len(g.vertices), [tuple(g.ends(e)) for e in g.edges])
                for g in classes]
        want = [r["key"] for r in self.table["catalog"]]
        if keys != want:
            return f"enumerate_graphs(5, 7) gave {len(keys)} classes, not the {len(want)} expected"
        return ""

    def run_items(self, mw, inputs, res: PassResult) -> None:
        cache = mw.WidthCache()
        classes = res.timed(lambda: mw.enumerate_graphs(5, 7))
        if self.passes == 0:  # the classes never depend on the pass
            problem = self._check_enumeration(classes)
            if problem:
                res.failures.append((-1, problem))
        for i, (row, ga, gb) in enumerate(inputs):
            want = (row["tw"], row["pw"], row["bw"])

            def check(out, want=want):
                return "" if out == (want, want) else f"widths {out} != {want}"
            res.item(i, lambda: (cache.widths(ga), cache.widths(gb)), check)


# ---------------------------------------------------------------------------
# theorems: check_theorems at the default budget on the 44 classes of
# enumerate_graphs(5, 6) and on one random multigraph per size stratum,
# all relabelled.


class Theorems(Workload):
    name = "theorems"

    def make_inputs(self, mw, rng) -> list:
        by_stratum: dict = {}
        for row in self.table["multigraphs"]:
            by_stratum.setdefault(tuple(row["stratum"]), []).append(row)
        rows = self.table["theorems"] + [rng.choice(by_stratum[tuple(s)])
                                         for s in self.table["strata"]]
        return [(row, _graph(mw, gen.relabel(row["n"], row["edges"], rng), row["n"]))
                for row in rows]

    @staticmethod
    def check(row: dict, rep, notes: dict) -> str:
        got = {f: getattr(rep, f) for f in EXACT_FIELDS}
        want = {f: row[f] for f in EXACT_FIELDS}
        if got != want:
            return f"{row['key']}: widths {got} != {want}"
        verdicts = {c.name: c.ok for c in rep.checks}
        if verdicts != row["checks"]:
            return f"{row['key']}: verdicts {verdicts} != {row['checks']}"
        tw, bw = row["tw"], row["bw"]
        if not tw <= rep.mtwd_upper <= 2 * tw:
            return f"{row['key']}: mtwd_upper {rep.mtwd_upper} outside [{tw}, {2 * tw}]"
        if rep.mwd_upper > max(bw, 1) + 1:
            return f"{row['key']}: mwd_upper {rep.mwd_upper} > max(bw, 1) + 1"
        if not math.ceil(bw / 2) <= rep.mwd_search <= rep.mwd_upper:
            return f"{row['key']}: mwd_search {rep.mwd_search} outside [bw/2, mwd_upper]"
        for f in WITNESS_FIELDS:
            if getattr(rep, f) != row[f]:
                notes[f"{f} differs from the table"] = notes.get(f"{f} differs from the table", 0) + 1
        for name, ok in verdicts.items():
            if not ok:
                notes[f"{name} fails by design"] = notes.get(f"{name} fails by design", 0) + 1
        return ""

    def run_items(self, mw, inputs, res: PassResult) -> None:
        for i, (row, g) in enumerate(inputs):
            res.item(i, lambda: mw.check_theorems(g),
                   lambda rep, row=row: self.check(row, rep, res.notes))


# ---------------------------------------------------------------------------
# roundtrip: what `mwidth validate` and `mwidth translate` do, at scale.
# Three classic decompositions per random multigraph go through: classic
# width, *_to_recursive, rec_*_width, *_from_recursive, a JSON round trip,
# the translation to a term, evaluate + cospan_iso_eq against the graph,
# and the translation back.

# (vertices, edges) of the graphs in one pass, three times each: every n
# in 7..10 with n, 3n/2 and 2n edges, so the size mix is the same for every
# seed, and 36 graphs a pass keep the tail percentile steady across seeds.
ROUNDTRIP_SIZES = [(n, m) for n in range(7, 11) for m in (n, (3 * n) // 2, 2 * n)] * 3

# kind -> (classic width, to recursive, recursive width, from recursive,
#          to term, term to recursive)
STEPS = {
    "tree": ("tree_dec_width", "tree_to_recursive", "rec_tree_width",
             "tree_from_recursive", "t_to_mdec", "m_to_tdec"),
    "path": ("path_dec_width", "path_to_recursive", "rec_path_width",
             "path_from_recursive", "p_to_mdec", "m_to_pdec"),
    "branch": ("branch_dec_width", "branch_to_recursive", "rec_branch_width",
               "branch_from_recursive", "b_to_mdec", "m_to_bdec"),
}


@dataclass
class Decomposition:
    dec: object        # TreeDec, PathDec or BranchDec
    extra: tuple       # further arguments of *_to_recursive (the tree root)
    sources: frozenset
    width: int         # worked out by the benchmark when it built dec


@dataclass
class RoundtripInput:
    pairs: list
    graph: object
    decs: dict         # kind -> Decomposition


def _rec_width(t, mw) -> int:
    """Largest bag (tree, path) or boundary (branch) of a recursive form."""
    best, stack = 0, [t]
    while stack:
        node = stack.pop()
        if isinstance(node, (mw.RecTreeNode, mw.RecPathCons)):
            best = max(best, len(node.bag))
        elif isinstance(node, (mw.RecBranchLeaf, mw.RecBranchNode)):
            best = max(best, len(node.graph.sources))
        stack.extend(getattr(node, c) for c in ("left", "right", "tail") if hasattr(node, c))
    return best


def _classic_width(kind: str, dec, pairs) -> int:
    """Width of a classic decomposition, counted by the benchmark."""
    if kind == "tree":
        return max((len(b) for _, b in dec.bags), default=0)
    if kind == "path":
        return max((len(b) for b in dec.bags), default=0)
    shape = dec.shape
    edges = [tuple(sorted(shape.ends(e))) for e in shape.edges]
    return gen.branch_width_of(edges, dec.leaf_table(), pairs)


class Roundtrip(Workload):
    name = "roundtrip"

    def make_inputs(self, mw, rng) -> list:
        out = []
        for n, m in ROUNDTRIP_SIZES:
            pairs = gen.multigraph(rng, n, m)
            t_edges, bags = gen.tree_decomposition(rng, n, pairs)
            root = rng.choice(sorted(bags))
            p_bags = gen.path_decomposition(rng, n, pairs)
            b_edges, leaves = gen.cubic_tree(rng, m)
            rng.shuffle(leaves)
            leaf_edge = dict(zip(leaves, range(m)))
            tdec = mw.TreeDec(mw.Graph.from_edge_pairs(sorted(bags), t_edges), bags)
            pdec = mw.PathDec(p_bags)
            bdec = mw.BranchDec(mw.Graph.from_edge_pairs(
                sorted({v for e in b_edges for v in e} | set(leaves)), b_edges), leaf_edge)
            decs = {
                "tree": Decomposition(tdec, (root,), frozenset(
                    v for v in bags[root] if rng.random() < 0.5), _classic_width("tree", tdec, pairs)),
                "path": Decomposition(pdec, (), frozenset(
                    v for v in p_bags[0] if rng.random() < 0.5), _classic_width("path", pdec, pairs)),
                "branch": Decomposition(bdec, (), frozenset(
                    rng.sample(range(n), rng.randint(0, 2))), _classic_width("branch", bdec, pairs)),
            }
            out.append(RoundtripInput(pairs, _graph(mw, pairs, n), decs))
        return out

    @staticmethod
    def run_kind(mw, item: RoundtripInput, kind: str) -> tuple:
        """The eight steps for one decomposition; returns what check() reads."""
        classic_w, to_rec, rec_w, from_rec, to_term, from_term = (
            getattr(mw, name) for name in STEPS[kind])
        d = item.decs[kind]
        sg = mw.SourcedGraph(item.graph, d.sources)
        classic = classic_w(d.dec, item.graph)
        rec = to_rec(d.dec, sg, *d.extra)
        width = rec_w(rec, sg)
        back = from_rec(rec)
        same = mw.decomposition_from_json(
            json.loads(json.dumps(mw.decomposition_to_json(rec)))) == rec
        term, sig = to_term(rec, sg)
        term_w = mw.width(term, sig)
        iso = mw.cospan_iso_eq(mw.evaluate(term, sig), mw.from_sourced(sg))
        again = from_term(term, sig)
        return classic, width, back, same, term_w, iso, again

    @staticmethod
    def check(mw, item: RoundtripInput, out: dict) -> str:
        """The bounds of the `mwidth.translate` docstring (and of the
        classic <-> recursive conversions), against widths the benchmark
        worked out itself when it built the decompositions."""
        for kind, (classic, rec_w, back, same, term_w, iso, again) in out.items():
            own, ns = item.decs[kind].width, len(item.decs[kind].sources)
            back_w = _classic_width(kind, back, item.pairs)
            again_w = _rec_width(again, mw)
            if kind == "branch":
                bounds = (rec_w <= own + ns, back_w <= rec_w,
                          term_w <= max(rec_w, 1) + 1, again_w <= 2 * max(term_w, ns))
            elif kind == "tree":
                bounds = (rec_w == own, back_w == own,
                          term_w <= 2 * own, again_w <= max(term_w, ns))
            else:
                bounds = (rec_w == own, back_w == own, term_w == own, again_w <= term_w)
            labels = ("recursive width", "from_recursive width", "term width",
                      "term-to-decomposition width")
            for label, ok in (("classic width", classic == own), *zip(labels, bounds),
                              ("JSON round trip", same), ("evaluation iso", iso)):
                if not ok:
                    return f"{kind}: {label} check fails (own width {own})"
        return ""

    def run_items(self, mw, inputs, res: PassResult) -> None:
        for i, item in enumerate(inputs):
            res.item(i, lambda: {k: self.run_kind(mw, item, k) for k in STEPS},
                   lambda out, item=item: self.check(mw, item, out))


WORKLOADS = {w.name: w for w in (Catalog, Theorems, Roundtrip)}
