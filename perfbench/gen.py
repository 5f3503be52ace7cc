"""Seeded input generators and reference computations of the benchmark.

Everything here is plain Python on vertex/edge tuples and calls nothing
in `mwidth`: set-up only wraps these inputs in the library's graph and
decomposition constructors, so no library search hides in set-up or in
the output checks.  Graphs
are `(n, pairs)` with vertices `0..n-1`; a pair `(v, v)` is a self-loop
and a repeated pair is a parallel edge.
"""

from __future__ import annotations

import random
from itertools import permutations


def stream(seed: int, purpose: str) -> random.Random:
    """An independent random stream for one purpose, fixed by the seed."""
    return random.Random(f"{seed}:{purpose}")


def canonical_form(n: int, pairs) -> tuple:
    """Label-independent form: the least sorted edge list over all vertex
    orders.  Brute force, so only for the benchmark's small catalogs."""
    best = None
    for perm in permutations(range(n)):
        cand = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs))
        if best is None or cand < best:
            best = cand
    return (n, best or ())


def class_key(n: int, pairs) -> str:
    """The canonical form as a short string, used as a table key."""
    n, edges = canonical_form(n, pairs)
    return f"{n}:" + ",".join(f"{u}-{v}" for u, v in edges)


def relabel(n: int, pairs, rng: random.Random) -> list:
    """Pairs under a random vertex permutation, in a random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in pairs]
    rng.shuffle(out)
    return out


def multigraph(rng: random.Random, n: int, m: int) -> list:
    """m random edges on n >= 2 vertices, at least one self-loop and one
    parallel pair among them (m >= 3)."""
    v = rng.randrange(n)
    u, w = rng.sample(range(n), 2)
    pairs = [(v, v), (u, w), (u, w)]
    while len(pairs) < m:
        pairs.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# Closed forms used to cross-check the expected-value table.


def is_cycle(n: int, pairs) -> bool:
    """C_n for n >= 3: connected, simple, every vertex of degree two."""
    if n < 3 or len(pairs) != n or any(u == v for u, v in pairs):
        return False
    if len({frozenset(p) for p in pairs}) != n:
        return False
    adj = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    if any(len(a) != 2 for a in adj.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def is_complete(n: int, pairs) -> bool:
    """K_n for n >= 3, simple."""
    want = {frozenset((u, v)) for u in range(n) for v in range(u + 1, n)}
    return (n >= 3 and len(pairs) == len(want)
            and {frozenset(p) for p in pairs} == want)


def closed_form_widths(n: int, pairs):
    """(tw, pw, bw) when the graph is C_n or K_n, else None."""
    if is_complete(n, pairs):
        return n, n, -(-2 * n // 3)
    if is_cycle(n, pairs):
        return 3, 3, 2
    return None


# ---------------------------------------------------------------------------
# Classic decompositions, valid by construction.


def _adjacency(n: int, pairs) -> list:
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def tree_decomposition(rng: random.Random, n: int, pairs, nodes: int = 40):
    """(tree edges, {node: bag}) from a random elimination order, padded
    to `nodes` tree nodes.

    Padding inserts the intersection of two adjacent bags between them,
    or hangs a random subset of a bag off it; both keep every clause.
    """
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    adj = _adjacency(n, pairs)
    bags: dict[int, frozenset] = {}
    parent: dict[int, int] = {}
    for v in order:
        later = {w for w in adj[v] if pos[w] > pos[v]}
        bags[v] = frozenset(later | {v})
        for a in later:  # fill-in: the later neighbours become a clique
            adj[a] |= later - {a}
        if later:
            parent[v] = min(later, key=pos.get)
    roots = [v for v in order if v not in parent]
    for r in roots[1:]:  # components have disjoint bags: join them freely
        parent[r] = roots[0]
    edges = [(v, p) for v, p in parent.items()]
    fresh = n
    while len(bags) < nodes:
        if edges and rng.random() < 0.5:
            i = rng.randrange(len(edges))
            a, b = edges[i]
            bags[fresh] = bags[a] & bags[b]
            edges[i:i + 1] = [(a, fresh), (fresh, b)]
        else:
            a = rng.randrange(fresh)
            bag = sorted(bags[a])
            bags[fresh] = frozenset(rng.sample(bag, rng.randint(min(1, len(bag)), len(bag))))
            edges.append((a, fresh))
        fresh += 1
    return edges, bags


def path_bags(order, pairs) -> list:
    """Bags of the vertex-separation path decomposition of a vertex order:
    bag i holds v_i and every earlier vertex with a neighbour at i or later."""
    pos = {v: i for i, v in enumerate(order)}
    adj = _adjacency(len(order), pairs)
    last = {v: max([pos[w] for w in adj[v]] + [pos[v]]) for v in order}
    return [frozenset({v} | {u for u in order[:i] if last[u] >= i})
            for i, v in enumerate(order)]


def path_decomposition(rng: random.Random, n: int, pairs) -> list:
    """path_bags of a random vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    return path_bags(order, pairs)


def cubic_tree(rng: random.Random, leaves: int):
    """(tree edges, leaf vertices) of a random cubic tree, grown by
    subdividing a random edge and hanging the next leaf off it."""
    if leaves == 1:
        return [], [0]
    edges = [(0, 1)]
    leaf_list = [0, 1]
    fresh = 2
    while len(leaf_list) < leaves:
        i = rng.randrange(len(edges))
        a, b = edges[i]
        mid, leaf = fresh, fresh + 1
        fresh += 2
        edges[i:i + 1] = [(a, mid), (mid, b)]
        edges.append((mid, leaf))
        leaf_list.append(leaf)
    return edges, leaf_list


def branch_width_of(tree_edges, leaf_edge: dict, pairs) -> int:
    """Maximum edge order of a branch decomposition, by direct count."""
    adj: dict[int, list] = {}
    for a, b in tree_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    ends = [frozenset(p) for p in pairs]
    best = 0
    for a, b in tree_edges:
        side, stack = {a}, [a]
        while stack:
            for w in adj[stack.pop()]:
                if w not in side and w != b:
                    side.add(w)
                    stack.append(w)
        mine = set().union(*(ends[leaf_edge[x]] for x in side if x in leaf_edge))
        theirs = set().union(*(ends[e] for x, e in leaf_edge.items() if x not in side))
        best = max(best, len(mine & theirs))
    return best
