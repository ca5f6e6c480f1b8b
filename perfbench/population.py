"""Seeded random populations of connected graphs for the file-audit workloads.

The generator is independent of the package under test: it draws graphs,
encodes them as graph6 itself, and measures the share of distinct
(n, edge-degree partition) keys, which is the input property that
partition-keyed or isomorphism-aware audits depend on.  The same seed gives
the same population.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

ORDERS = (8, 12)
DENSITY = (0.25, 0.75)
SIZE = 5000
REPEATS = 10  # copies of each base graph in the "repeats" population


def random_connected(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) edge list, redrawn until connected."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    while True:
        edges = [e for e in pairs if rng.random() < p]
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        seen = frontier = 1
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        if seen == (1 << n) - 1:
            return edges


def relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]


def graph6(n: int, edges) -> str:
    """Short-form graph6: upper-triangle bits in column order, 6 per char."""
    present = set(edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chunks = (int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(c + 63) for c in chunks)


def partition_key(n: int, edges) -> tuple:
    """(n, multiset of sorted endpoint-degree pairs over the edges)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pairs = Counter(tuple(sorted((deg[u], deg[v]))) for u, v in edges)
    return n, tuple(sorted(pairs.items()))


def anchors() -> list[tuple[int, list[tuple[int, int]]]]:
    """K_n, C_n, P_n and the spanning star for every order in ORDERS.

    They attain the equality cases of the catalog (complete, cycle, star and
    regular families) and violate the published upper side of (21) in every
    population, so the audit's verdicts do not hinge on whether a seed
    happens to draw a rare extremal graph and one pinned expectation file
    holds for every seed.
    """
    out = []
    for n in range(ORDERS[0], ORDERS[1] + 1):
        out.append((n, [(u, v) for v in range(1, n) for u in range(v)]))
        out.append((n, [(v - 1, v) for v in range(1, n)] + [(0, n - 1)]))
        out.append((n, [(v - 1, v) for v in range(1, n)]))
        out.append((n, [(0, v) for v in range(1, n)]))
    return out


def generate(kind: str, seed: int, size: int = SIZE) -> tuple[list[str], dict]:
    """Return (graph6 lines, metadata), the anchors included in ``size``.

    kind "distinct": the anchors plus independent random graphs, in shuffled
    order.  kind "repeats": ``size // REPEATS`` base graphs (the anchors plus
    random ones), each present ``REPEATS`` times under random relabelings, in
    shuffled order.
    """
    rng = random.Random(f"{kind}:{seed}")

    def draw():
        n = rng.randint(*ORDERS)
        return n, random_connected(rng, n, rng.uniform(*DENSITY))

    if kind == "distinct":
        base = anchors()
        graphs = base + [draw() for _ in range(size - len(base))]
    elif kind == "repeats":
        base = anchors()
        base += [draw() for _ in range(size // REPEATS - len(base))]
        graphs = [(n, relabel(rng, n, e)) for n, e in base for _ in range(REPEATS)]
    else:
        raise ValueError(f"unknown population kind {kind!r}")
    rng.shuffle(graphs)
    lines = [graph6(n, e) for n, e in graphs]
    keys = {partition_key(n, e) for n, e in graphs}
    meta = {
        "kind": kind,
        "seed": seed,
        "size": len(lines),
        "orders": list(ORDERS),
        "density": list(DENSITY),
        "repeats": REPEATS if kind == "repeats" else 1,
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "partition_keys": len(keys),
        "key_share": len(keys) / len(lines),
    }
    return lines, meta


def canonical_sample():
    """Fixed sample for timing ``canonical_form``: 40 random connected graphs
    of each order 7..10, the same on every run."""
    from degbound.graphs import Graph

    rng = random.Random("canonical-form-sample")
    return [Graph(n, random_connected(rng, n, rng.uniform(*DENSITY)))
            for n in range(7, 11) for _ in range(40)]


def write_population(path, kind: str, seed: int, size: int = SIZE) -> dict:
    """Write the population as graph6 lines under a ``#`` header that records
    the generator parameters; return the metadata."""
    lines, meta = generate(kind, seed, size)
    header = "# degbound benchmark population " + json.dumps(meta, sort_keys=True)
    with open(path, "w") as f:
        f.write(header + "\n" + "\n".join(lines) + "\n")
    return meta

