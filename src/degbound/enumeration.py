"""Isomorphism-reduced streams of connected graphs of a given order.

Generation is vertex extension, the first step of McKay's orderly generation
("Isomorph-free exhaustive generation", J. Algorithms 1998): each order-n
class is built from the order-(n-1) classes by adding one vertex joined to a
nonempty subset of the old vertices.  A candidate is kept only if no other
non-cut vertex has a smaller degree than the new one.  Every connected graph
has a non-cut vertex of minimum degree among its non-cut vertices, and
deleting it leaves a connected parent, so no class is lost; extensions of a
connected graph are connected, so no candidate needs a connectivity test.
The survivors are deduplicated by a certificate, and the exact canonical
form runs once per class.  The certificate is the minimal column sequence
over only the orderings that list the vertices in ascending degree order.
The degree cells are an isomorphism-invariant ordered partition, so equal
column sequences mean isomorphic graphs: it is a complete invariant.  Each
class representative then gets the lex-min canonical form (the
lexicographically minimal graph6 encoding over all vertex relabelings).
Both are one search, which keeps the unplaced vertices in cells split by
their placed neighbours (the cell splitting of McKay & Piperno, "Practical
graph isomorphism II", J. Symb. Comput. 2014).

On a 2-vCPU host, orders 2..7 together take 0.2-0.3 s.  Order 8 takes
3.0-3.9 s; the library runs any order up to MAX_ORDER, and the CLI's
``--allow-n8`` is the one opt-in for order 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

# Unused; kept because perfbench/child.py records numpy.__version__ on every run.
import numpy  # noqa: F401

from .graphs import (
    Graph,
    GraphError,
    SizeLimitError,
    connected_within,
    content_lines,
    is_molecular,
    is_regular,
    min_degree,
    parse_graph6,
    to_graph6,
)

MAX_ORDER = 8
CANONICAL_CAP = 10


def _canonical_columns(adj: tuple[int, ...], n: int,
                       cells: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Minimal upper-triangle column sequence over all vertex orderings, or,
    given ``cells``, over the orderings that place a vertex of the mask
    ``cells[k]`` at each position k.

    Branch and bound on the ordering prefix.  The unplaced vertices sit in
    cells ``(pattern, mask)`` in ascending pattern order, where bit n-1-i of
    ``pattern`` marks a neighbour at position i.  A vertex's column at
    position k is its pattern >> (n-k), so the candidates are the first cell
    that meets ``cells[k]``.  Placing a vertex splits each cell into its
    non-neighbours, then its neighbours, which keeps that order.  While the
    prefix equals the incumbent's (``tight``), a larger column is cut off.
    Open twins (equal adjacency rows) and closed twins (equal rows once each
    vertex is added to its own) are interchangeable: swapping two unplaced
    twins is an automorphism that fixes the placed prefix and every cell.
    So only one vertex of each twin class is branched on.
    """
    if cells is None:
        cells = ((1 << n) - 1,) * n
    best: list[int] = []
    cols = [0] * n

    def search(k: int, parts: list[tuple[int, int]], tight: bool) -> None:
        nonlocal best
        if k == n:
            if not tight:
                best = cols[:]
            return
        allowed = cells[k]
        for pattern, mask in parts:
            if mask & allowed:
                break
        col = pattern >> (n - k)
        if tight:
            if col > best[k]:
                return
            tight = col == best[k]
        cols[k] = col
        bit = 1 << (n - 1 - k)
        # One vertex's open row never equals another's closed row (it would
        # hold its own vertex), so one set holds both kinds.
        seen_rows = set()
        todo = mask & allowed
        while todo:
            low = todo & -todo
            todo ^= low
            row = adj[low.bit_length() - 1]
            if row in seen_rows or row | low in seen_rows:
                continue
            seen_rows.add(row)
            seen_rows.add(row | low)
            off = ~(row | low)
            split = []
            for p, m in parts:
                if lo := m & off:
                    split.append((p, lo))
                if hi := m & row:
                    split.append((p | bit, hi))
            search(k + 1, split, tight)
            # The subtree ended on the incumbent's prefix or replaced it.
            tight = True

    search(0, [(0, (1 << n) - 1)], False)
    return tuple(best)


def _degree_cells(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Per-position vertex masks that list the vertices in ascending degree
    order, an isomorphism-invariant ordered partition."""
    degrees = [a.bit_count() for a in adj]
    masks: dict[int, int] = {}
    for v, d in enumerate(degrees):
        masks[d] = masks.get(d, 0) | 1 << v
    return tuple(masks[d] for d in sorted(degrees))


def _columns_to_graph(cols: tuple[int, ...], n: int) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        col = cols[v]
        for u in range(v):
            if col >> (v - 1 - u) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


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


@cache
def _classes(n: int) -> tuple[Graph, ...]:
    """Every class of connected graphs of order n, sorted by canonical graph6
    string; each order is built once and filtered per spec."""
    parents = _classes(n - 1) if n > 2 else (Graph(1),)
    reps = {}
    for adj in _extensions(parents, n):
        reps.setdefault(_canonical_columns(adj, n, _degree_cells(adj)), adj)
    # Same-order column tuples sort as their graph6 strings, which list the same bits in order.
    cols = sorted(_canonical_columns(adj, n) for adj in reps.values())
    return tuple(_columns_to_graph(c, n) for c in cols)


def check_order(n: int) -> None:
    """Raise ``GraphError`` unless 2 <= n <= MAX_ORDER."""
    if n < 2:
        raise GraphError(f"enumeration needs n >= 2, got {n}")
    if n > MAX_ORDER:
        raise SizeLimitError(f"enumeration capped at n <= {MAX_ORDER}, got {n}")


def enumerate_connected(spec: EnumerationSpec) -> list[Graph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs of order ``spec.n`` passing the filters, sorted by
    canonical graph6 string."""
    check_order(spec.n)
    return [g for g in _classes(spec.n) if spec.admits(g)]


def connected_graphs(n: int, delta_min: int | None = None, molecular: bool = False,
                     regular_only: bool = False) -> list[Graph]:
    """Convenience wrapper over :func:`enumerate_connected`."""
    spec = EnumerationSpec(n, delta_min=delta_min, molecular=molecular,
                           regular_only=regular_only)
    return enumerate_connected(spec)


def read_population(path: str | Path) -> list[Graph]:
    """Read a population file; see :func:`parse_population`."""
    return parse_population(Path(path).read_text(encoding="utf-8"), path)


def parse_population(text: str, path: str | Path) -> list[Graph]:
    """Parse the text of population file ``path``: one graph6 string per
    line, blank lines and ``#`` comments (whole-line or trailing) ignored.
    graph6 never contains ``#``.  A file with no graph line is an error, and
    every error names ``path``."""
    graphs = []
    for lineno, line in content_lines(text):
        try:
            graphs.append(parse_graph6(line))
        except GraphError as exc:
            raise GraphError(f"{path}, line {lineno}: {exc}") from None
    if not graphs:
        raise GraphError(f"{path}: no graphs found")
    return graphs
