"""Write data/expected.json: the expected outputs of `catalog` and
`theorems`, one row per isomorphism class.

    PYTHONPATH=src python3 perfbench/record_expected.py

Rows hold the class in canonical labelling (see gen.canonical_form) and
what `mwidth` computes on that labelling.  Before writing, every row's
tw / pw / bw is checked against the reference oracles below, which share
no code with `mwidth`, and against the closed forms for C_n and K_n.
Run it only to re-record after a deliberate change of results.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import permutations

import gen

POOL_SEED = 20220215
POOL_PER_STRATUM = 8
# (vertices, edges) of the random multigraphs in `theorems`, one per
# stratum per pass; at most 6 edges so that one pass costs about the same
# for every seed (a 7-edge input alone varies from 0.7 s to 2.3 s).
STRATA = [(3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (3, 5), (4, 5), (5, 5),
          (2, 6), (3, 6), (4, 6), (5, 6)]


def ref_treewidth(n: int, pairs) -> int:
    """Largest bag over the best elimination order (no "-1")."""
    if n == 0:
        return 0
    best = n
    for order in permutations(range(n)):
        adj = [set() for _ in range(n)]
        for u, v in pairs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in order:
            later = {w for w in adj[v] if pos[w] > pos[v]}
            worst = max(worst, len(later) + 1)
            for a in later:
                adj[a] |= later - {a}
        best = min(best, worst)
    return best


def ref_pathwidth(n: int, pairs) -> int:
    """Largest bag of the best vertex-separation order (no "-1")."""
    if n == 0:
        return 0
    return min(max(len(b) for b in gen.path_bags(order, pairs))
               for order in permutations(range(n)))


def ref_branchwidth(pairs) -> int:
    """Branch width by dynamic programming over edge subsets."""
    m = len(pairs)
    if m <= 1:
        return 0
    ends = [frozenset(p) for p in pairs]
    full = (1 << m) - 1

    def verts(mask):
        return set().union(*(ends[i] for i in range(m) if mask >> i & 1))

    mid = {x: len(verts(x) & verts(full ^ x)) for x in range(1, full + 1)}
    f = {}
    for x in sorted(range(1, full + 1), key=lambda x: bin(x).count("1")):
        if x & (x - 1) == 0:
            f[x] = 0
            continue
        low = x & -x
        best = None
        a = (x - 1) & x
        while a:
            if a & low and a != x:
                b = x ^ a
                cost = max(mid[a], mid[b], f[a], f[b])
                best = cost if best is None else min(best, cost)
            a = (a - 1) & x
        f[x] = best
    low = 1
    return min(max(mid[a], f[a], f[full ^ a]) for a in range(1, full) if a & low)


def _row(n: int, pairs) -> dict:
    key = gen.class_key(n, pairs)
    _, edges = gen.canonical_form(n, pairs)
    return {"key": key, "n": n, "edges": [list(e) for e in edges]}


def _theorem_fields(mw, row: dict) -> dict:
    g = mw.Graph.from_edge_pairs(range(row["n"]), row["edges"])
    rep = mw.check_theorems(g)
    row.update({"tw": rep.tw, "pw": rep.pw, "bw": rep.bw, "mpwd": rep.mpwd,
                "mtwd_upper": rep.mtwd_upper, "mwd_upper": rep.mwd_upper,
                "mwd_search": rep.mwd_search,
                "checks": {c.name: c.ok for c in rep.checks}})
    return row


def _cross_check(row: dict) -> None:
    n, pairs = row["n"], row["edges"]
    ref = (ref_treewidth(n, pairs), ref_pathwidth(n, pairs), ref_branchwidth(pairs))
    got = (row["tw"], row["pw"], row["bw"])
    if got != ref:
        raise SystemExit(f"{row['key']}: mwidth gives {got}, reference gives {ref}")
    known = gen.closed_form_widths(n, pairs)
    if known is not None and known != got:
        raise SystemExit(f"{row['key']}: closed form gives {known}, mwidth {got}")


def main() -> int:
    import mwidth as mw

    catalog = []
    for g in mw.enumerate_graphs(5, 7):
        row = _row(len(g.vertices), [tuple(sorted(g.ends(e))) for e in sorted(g.edges)])
        tw, pw, bw = mw.WidthCache().widths(mw.Graph.from_edge_pairs(range(row["n"]), row["edges"]))
        row.update({"tw": tw, "pw": pw, "bw": bw})
        catalog.append(row)
    theorems = []
    for g in mw.enumerate_graphs(5, 6):
        row = _row(len(g.vertices), [tuple(sorted(g.ends(e))) for e in sorted(g.edges)])
        theorems.append(_theorem_fields(mw, row))
    multigraphs = []
    rng = gen.stream(POOL_SEED, "pool")
    for n, m in STRATA:
        seen: set = set()
        for _ in range(400):
            if len(seen) == POOL_PER_STRATUM:
                break
            row = _row(n, gen.multigraph(rng, n, m))
            if row["key"] in seen:
                continue
            seen.add(row["key"])
            row["stratum"] = [n, m]
            multigraphs.append(_theorem_fields(mw, row))
    for row in catalog + theorems + multigraphs:
        _cross_check(row)
    table = {"strata": [list(s) for s in STRATA], "catalog": catalog,
             "theorems": theorems, "multigraphs": multigraphs}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "expected.json")
    with open(path, "w", encoding="utf-8") as fh:  # one row per line
        fh.write("{\n" + ",\n".join(
            f'"{name}": [\n' + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]"
            for name, rows in sorted(table.items())) + "\n}\n")
    fails = sum(1 for r in theorems for ok in r["checks"].values() if not ok)
    print(f"{len(catalog)} catalog classes, {len(theorems)} theorem classes "
          f"({fails} failing checks by design), {len(multigraphs)} multigraphs",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
