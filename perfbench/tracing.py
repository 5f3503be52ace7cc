"""Span and counter recorder for the traced run.

`Recorder.install()` replaces each listed `mwidth` function by a wrapper
in every `mwidth` module namespace that binds it (modules import with
`from .x import y`, so patching the defining module alone would miss
internal calls), and each listed method on its class; `uninstall()` puts
the originals back.  The library itself is never edited.

A spanned function records (name, parent span, item, start, end) per
call; spans stay in memory until `take()` turns them into per-function
call counts and self times (span time minus the time of its direct child
spans).  Methods that run millions of times are counted, not spanned, so
their time lands in the calling span's self time.  Recursive calls are
calls too: `evaluate` on a term counts one call per evaluated node.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

# layer -> functions (or Class.method) that get spans
SPANNED = {
    "graph": ["canonical_key", "find_isomorphism", "graph_pushout"],
    "cospan": ["compose", "tensor", "cospan_iso_eq", "from_sourced"],
    "terms": ["bounded_mwd_search", "evaluate", "width"],
    "oracles": ["exact_treewidth", "exact_pathwidth", "exact_branchwidth",
                "enumerate_graphs", "WidthCache.widths"],
    "decomp": [f"{p}{k}_dec" for p in ("validate_", "validate_rec_")
               for k in ("tree", "path", "branch")]
    + [f"{k}_{d}_recursive" for d in ("to", "from") for k in ("tree", "path", "branch")]
    + ["decomposition_to_json", "decomposition_from_json"],
    "translate": ["t_to_mdec", "p_to_mdec", "b_to_mdec", "m_to_tdec", "m_to_pdec",
                  "m_to_bdec", "check_theorems"],
}
# graph methods that only get a call counter
COUNTED = ["neighbours", "degree", "incident_edges", "subgraph", "connected_components"]
LAYERS = list(SPANNED)
SPAN_NAMES = [f"{layer}.{f}" for layer, fs in SPANNED.items() for f in fs]


def _mwidth_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mwidth" or name.startswith("mwidth."))]


class Recorder:
    def __init__(self, mw):
        self.mw = mw
        self.names = SPAN_NAMES
        self._patches: list = []
        self.counts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.counts.clear()  # the wrappers hold this dict

    def tag(self, item: int) -> None:
        """Mark the spans that follow as belonging to item `item`."""
        self.item = item

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, idx: int, fn, before=None, after=None):
        rec, counts, key = self, self.counts, f"{self.names[idx]}.calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            sid = len(rec.span_name)
            rec.span_name.append(idx)
            rec.span_parent.append(rec.stack[-1] if rec.stack else -1)
            rec.span_item.append(rec.item)
            rec.span_start.append(0.0)
            rec.span_end.append(0.0)
            rec.stack.append(sid)
            state = before(args) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.span_end[sid] = perf_counter()
                rec.span_start[sid] = t0
                rec.stack.pop()
            if after:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        """Before/after hooks that measure the ratio metrics in place."""
        def search_done(args, res, _):
            self.bump("terms.search.not_exact", 0 if res.exact else 1)
            self.bump("terms.search.signature_atoms", len(res.signature.atoms))

        def enum_done(args, res, keys_before):
            self.bump("oracles.enumerate.key_calls",
                      self.counts.get("graph.canonical_key.calls", 0) - keys_before)
            self.bump("oracles.enumerate.kept", len(res))

        def widths_done(args, res, size_before):
            self.bump("oracles.width_cache.hits", len(args[0].data) == size_before)

        return {
            "terms.bounded_mwd_search": (None, search_done),
            "oracles.enumerate_graphs":
                (lambda a: self.counts.get("graph.canonical_key.calls", 0), enum_done),
            "oracles.WidthCache.widths": (lambda a: len(a[0].data), widths_done),
        }

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = _mwidth_modules()
        hooks = self._hooks()
        for idx, name in enumerate(self.names):
            layer, attr = name.split(".", 1)
            before, after = hooks.get(name, (None, None))
            home = getattr(self.mw, layer)
            if "." in attr:  # Class.method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, meth)
                wrapped = self._spanned(idx, original, before, after)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._spanned(idx, original, before, after)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        graph_cls = self.mw.graph.Graph
        for meth in COUNTED:
            self._set(graph_cls, meth,
                      self._counted(f"graph.Graph.{meth}.calls", getattr(graph_cls, meth)))
        self._set(graph_cls, "__init__",
                  self._counted("graph.Graph.built", graph_cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def take(self) -> dict:
        """Per-function calls and self seconds, and the raw ratio counts,
        for everything recorded since the last reset."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        for i in range(n):
            self_s[self.span_name[i]] += ends[i] - starts[i] - child[i]
        out = dict(self.counts)
        for idx, name in enumerate(self.names):
            out.setdefault(f"{name}.calls", 0)
            out[f"{name}.self_s"] = self_s[idx]
        return out

    def write_spans(self, path: str) -> None:
        """All spans since the last reset, one JSON array per line:
        [name, parent span, item, start, end] (seconds, perf_counter)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_parent[i],
                                     self.span_item[i], self.span_start[i],
                                     self.span_end[i]]) + "\n")
