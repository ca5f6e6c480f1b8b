"""Isomorphism-reduced streams of connected graphs of a given order.

Generation is Read's orderly generation (R. C. Read, "Every one a winner",
Ann. Discrete Math. 2, 1978), the method McKay's "Isomorph-free exhaustive
generation" (J. Algorithms 1998) builds on.  The canonical form of a graph
is its lex-min column sequence: the upper-triangle columns of an ordering
of its vertices, minimal over all orderings, which read in order are the
bits of its graph6 encoding.  The first n-1 positions of a lex-min ordering
are a lex-min ordering of the subgraph they induce, so each canonical graph
of order n is a canonical graph of order n-1, connected or not, plus a last
column.  Each such candidate is kept exactly when its own ordering is
already lex-min, so each class is born once, canonically labeled.  The
test is the canonical-form search itself, tight against the candidate's
columns from the start and stopped at the first smaller prefix; at the
requested order, a disconnected candidate is dropped before it.  The
search keeps the unplaced vertices in cells split by their placed
neighbours (the cell splitting of McKay & Piperno, "Practical graph
isomorphism II", J. Symb. Comput. 2014).

On a 2-vCPU host, orders 2..7 together take 0.06-0.08 s.  Order 8 takes
1.1-1.3 s; the library runs any order up to MAX_ORDER, and the CLI's
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
    min_degree,
    parse_graph6,
    to_graph6,
)

MAX_ORDER = 8
CANONICAL_CAP = 10


def _canonical_columns(adj: tuple[int, ...], n: int,
                       own: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
    """Minimal upper-triangle column sequence over all vertex orderings.

    Given ``own``, the columns of the identity ordering, it decides instead
    whether that ordering is already minimal: the search starts tight
    against ``own``, returns None at the first ordering prefix with smaller
    columns, and returns ``own`` when there is none.

    Branch and bound on the ordering prefix.  The unplaced vertices sit in
    cells ``(pattern, mask)`` in ascending pattern order, where bit n-1-i of
    ``pattern`` marks a neighbour at position i.  A vertex's column at
    position k is its pattern >> (n-k), so the candidates are the first
    cell.  Placing a vertex splits each cell into its non-neighbours, then
    its neighbours, which keeps that order.  While the prefix equals the
    incumbent's (``tight``), a larger column is cut off.  Open twins (equal
    adjacency rows) and closed twins (equal rows once each vertex is added
    to its own) are interchangeable: swapping two unplaced twins is an
    automorphism that fixes the placed prefix and every cell.  So only one
    vertex of each twin class is branched on.
    """
    checking = own is not None
    best = list(own or ())
    cols = [0] * n

    def search(k: int, parts: list[tuple[int, int]], tight: bool) -> bool:
        """Search the orderings that extend ``cols[:k]``; True stops the
        whole search at a prefix smaller than ``own``."""
        nonlocal best
        if k == n:
            if not tight:
                best = cols[:]
            return False
        pattern, mask = parts[0]
        col = pattern >> (n - k)
        if tight:
            if col > best[k]:
                return False
            tight = col == best[k]
            if not tight and checking:
                return True
        cols[k] = col
        bit = 1 << (n - 1 - k)
        # One vertex's open row never equals another's closed row (it would
        # hold its own vertex), so one set holds both kinds.
        seen_rows = set()
        while mask:
            low = mask & -mask
            mask ^= low
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
            if search(k + 1, split, tight):
                return True
            # The subtree ended on the incumbent's prefix or replaced it.
            tight = True
        return False

    if search(0, [(0, (1 << n) - 1)], checking):
        return None
    return tuple(best)


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

    def admits(self, g: Graph) -> bool:
        if self.delta_min is not None and min_degree(g) < self.delta_min:
            return False
        return not self.molecular or is_molecular(g)

    def describe(self) -> str:
        parts = [f"n={self.n}"]
        if self.delta_min is not None:
            parts.append(f"delta_min={self.delta_min}")
        if self.molecular:
            parts.append("molecular")
        return "enumerate(" + ", ".join(parts) + ")"


@cache
def _classes(n: int, connected: bool = True) -> tuple[Graph, ...]:
    """Every class of graphs of order n, or only the connected ones, each in
    its canonical labeling and sorted by graph6 string; each order is built
    once and filtered per spec.

    Orderly generation (see the module docstring) from every class of order
    n-1.  Parents come in ascending column order and so do their last
    columns, so the output is sorted as it is built."""
    if n == 1:
        return (Graph(1),)
    new = n - 1
    bit = 1 << new
    everyone = (1 << n) - 1
    # Bit new-1-u of a last column marks neighbour u; nbrs[col] is its vertex mask.
    nbrs = [int(f"{col:0{new}b}"[::-1], 2) for col in range(bit)]
    out = []
    for parent in _classes(new, False):
        own = tuple(sum(1 << (v - 1 - u) for u in range(v) if a >> u & 1)
                    for v, a in enumerate(parent.adj))
        # Swapping the last two positions must not shrink the columns.
        for col in range(own[-1] << 1, bit):
            adj = tuple(a | bit if nbrs[col] >> u & 1 else a
                        for u, a in enumerate(parent.adj)) + (nbrs[col],)
            if connected and not connected_within(adj, everyone):
                continue
            if _canonical_columns(adj, n, own + (col,)):
                out.append(Graph._from_adj(n, adj))
    return tuple(out)


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


def connected_graphs(n: int, delta_min: int | None = None,
                     molecular: bool = False) -> list[Graph]:
    """Convenience wrapper over :func:`enumerate_connected`."""
    return enumerate_connected(EnumerationSpec(n, delta_min=delta_min, molecular=molecular))


def read_population(path: str | Path) -> list[Graph]:
    """Read a population file as UTF-8, less a leading byte-order mark; see
    :func:`parse_population`."""
    return parse_population(Path(path).read_text(encoding="utf-8-sig"), path)


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
