"""Isomorphism-reduced streams of connected graphs of a given order.

Generation is vertex extension, the first step of McKay's orderly generation
("Isomorph-free exhaustive generation", J. Algorithms 1998): each order-n
class is built from the order-(n-1) classes by adding one vertex joined to a
nonempty subset of the old vertices.  A candidate is kept only if no other
non-cut vertex has a smaller degree than the new one.  Every connected graph
has a non-cut vertex of minimum degree among its non-cut vertices, and
deleting it leaves a connected parent, so no class is lost; extensions of a
connected graph are connected, so no candidate needs a connectivity test.
The survivors are deduplicated by an exact canonical form (the
lexicographically minimal graph6 encoding over all vertex relabelings).

Orders up to 7 run in about a second.  Order 8 takes tens of seconds and is
gated behind an explicit opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Unused; kept because perfbench/child.py records numpy.__version__ on every run.
import numpy  # noqa: F401

from .graphs import (
    Graph,
    GraphError,
    SizeLimitError,
    connected_within,
    is_molecular,
    is_regular,
    min_degree,
    parse_graph6,
    to_graph6,
)

DEFAULT_ORDER_CAP = 7
MAX_ORDER = 8
CANONICAL_CAP = 10


def _canonical_columns(adj: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Minimal upper-triangle column sequence over all vertex orderings.

    Branch and bound on the ordering prefix: a partial column sequence that
    already exceeds the incumbent's prefix cannot lead to the minimum.
    Vertices with identical adjacency rows are interchangeable, so only one
    of each is branched on.
    """
    best: list[int] | None = None

    def search(order: list[int], cols: list[int], placed: int) -> None:
        nonlocal best
        k = len(order)
        if best is not None:
            prefix = best[:k]
            if cols > prefix:
                return
        if k == n:
            if best is None or cols < best:
                best = list(cols)
            return
        by_col: dict[int, list[int]] = {}
        for v in range(n):
            if placed >> v & 1:
                continue
            col = 0
            av = adj[v]
            for i, u in enumerate(order):
                if av >> u & 1:
                    col |= 1 << (k - 1 - i)
            by_col.setdefault(col, []).append(v)
        for col in sorted(by_col):
            if best is not None and cols == best[:k] and col > best[k]:
                break
            seen_rows = set()
            for v in by_col[col]:
                if adj[v] in seen_rows:
                    continue
                seen_rows.add(adj[v])
                order.append(v)
                cols.append(col)
                search(order, cols, placed | 1 << v)
                order.pop()
                cols.pop()

    search([], [], 0)
    assert best is not None
    return tuple(best)


def _columns_to_graph(cols: tuple[int, ...], n: int) -> Graph:
    edges = []
    for v in range(1, n):
        col = cols[v]
        for u in range(v):
            if col >> (v - 1 - u) & 1:
                edges.append((u, v))
    return Graph(n, edges)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    if g.n > CANONICAL_CAP:
        raise SizeLimitError(
            f"canonical form capped at n <= {CANONICAL_CAP}, got {g.n}"
        )
    return _columns_to_graph(_canonical_columns(g.adj, g.n), g.n)


def canonical_form(g: Graph) -> str:
    """Lexicographically minimal graph6 encoding over all relabelings.

    Two graphs have equal canonical form iff they are isomorphic.
    """
    return to_graph6(canonical_graph(g))


@dataclass(frozen=True)
class EnumerationSpec:
    """Population request: order plus degree-based filters."""

    n: int
    delta_min: int | None = None
    molecular: bool = False
    regular_only: bool = False

    def admits(self, g: Graph) -> bool:
        if self.delta_min is not None and min_degree(g) < self.delta_min:
            return False
        if self.molecular and not is_molecular(g):
            return False
        if self.regular_only and not is_regular(g):
            return False
        return True

    def describe(self) -> str:
        parts = [f"n={self.n}"]
        if self.delta_min is not None:
            parts.append(f"delta_min={self.delta_min}")
        if self.molecular:
            parts.append("molecular")
        if self.regular_only:
            parts.append("regular_only")
        return "enumerate(" + ", ".join(parts) + ")"


def _extensions(parents, n: int):
    """Adjacency tuples of the order-n vertex extensions of ``parents``
    whose new vertex has minimum degree among the non-cut vertices."""
    new = n - 1
    bit = 1 << new
    everyone = (1 << n) - 1
    for parent in parents:
        for nbrs in range(1, bit):
            k = nbrs.bit_count()
            adj = tuple(a | bit if nbrs >> u & 1 else a
                        for u, a in enumerate(parent.adj)) + (nbrs,)
            if all(adj[u].bit_count() >= k or not connected_within(adj, everyone ^ 1 << u)
                   for u in range(new)):
                yield adj


_cache: dict[EnumerationSpec, tuple[Graph, ...]] = {}


def enumerate_connected(spec: EnumerationSpec, allow_big: bool = False) -> list[Graph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs of order ``spec.n`` passing the filters, sorted by
    canonical graph6 string."""
    if spec.n < 2:
        raise GraphError(f"enumeration needs n >= 2, got {spec.n}")
    if spec.n > MAX_ORDER:
        raise SizeLimitError(f"enumeration capped at n <= {MAX_ORDER}, got {spec.n}")
    if spec.n > DEFAULT_ORDER_CAP and not allow_big:
        raise SizeLimitError(
            f"order {spec.n} is above the default cap {DEFAULT_ORDER_CAP} and "
            "takes tens of seconds; pass allow_big=True to run it"
        )
    if spec in _cache:
        return list(_cache[spec])

    n = spec.n
    parents = enumerate_connected(EnumerationSpec(n - 1)) if n > 2 else [Graph(1)]
    canon = dict.fromkeys(_canonical_columns(adj, n) for adj in _extensions(parents, n))
    graphs = []
    for cols in canon:
        g = _columns_to_graph(cols, n)
        if spec.admits(g):
            graphs.append(g)
    graphs.sort(key=to_graph6)
    _cache[spec] = tuple(graphs)
    return graphs


def connected_graphs(n: int, delta_min: int | None = None, molecular: bool = False,
                     regular_only: bool = False, allow_big: bool = False) -> list[Graph]:
    """Convenience wrapper over :func:`enumerate_connected`."""
    spec = EnumerationSpec(n, delta_min=delta_min, molecular=molecular,
                           regular_only=regular_only)
    return enumerate_connected(spec, allow_big=allow_big)


def read_population(path: str | Path) -> list[Graph]:
    """Read a population file: one graph6 string per line, blank lines and
    ``#`` comments (whole-line or trailing) ignored.  graph6 never contains
    ``#``.  A file with no graph line is an error."""
    graphs = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            graphs.append(parse_graph6(line))
        except GraphError as exc:
            raise GraphError(f"{path}, line {lineno}: {exc}") from None
    if not graphs:
        raise GraphError(f"{path}: no graphs found")
    return graphs
