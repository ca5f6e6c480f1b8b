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
already lex-min, so each class is born once, canonically labeled; at the
requested order, a disconnected candidate is dropped first.  The test is
the canonical-form search, started tight against the candidate's columns:
the candidate is kept when the search finds none smaller.  Its orderings
that begin with parent vertices only are the same for every last column
of one parent, so one walk over them decides all of that parent's
candidates together, and each candidate's own search starts only where
the new vertex is placed.  The search keeps the unplaced vertices in cells
split by their placed neighbours (the cell splitting of McKay & Piperno,
"Practical graph isomorphism II", J. Symb. Comput. 2014).

So each order is a stream (``_stream``): the classes of order n-1 are built
whole and cached (``_classes``), and those of order n follow one parent at
a time, in ascending graph6 order.  ``enumerate_connected`` reads the
cached tuple of its order; ``stream_connected`` reads the stream as it is
built, and the CLI's audit keys each graph as it comes, so no graph of the
requested order outlives its keying.  An in-process audit of all 261,080
classes of order 9 read that way peaks at 145 MB, and at 255 MB from the
cached tuple.

On a shared 2-vCPU host (Xeon, 2.0 GHz), a cold build of orders 2..7
together took 0.04-0.08 s and one of order 8 took 0.5-0.8 s, over twelve
fresh processes each; the library runs any order up to MAX_ORDER, and the
CLI's ``--allow-n8`` is the one opt-in for order 8.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from pathlib import Path

# Unused; kept because perfbench/child.py records numpy.__version__ on every run.
import numpy  # noqa: F401

from .graphs import (
    MOLECULAR_MAX_DEGREE,
    Graph,
    GraphError,
    SizeLimitError,
    content_lines,
    parse_graph6,
    reach,
    to_graph6,
)

MAX_ORDER = 8
CANONICAL_CAP = 10


def _canonical_columns(adj: tuple[int, ...], n: int, own: tuple[int, ...], k: int,
                       parts: list[tuple[int, int]], below: list[int]) -> tuple[int, ...]:
    """Minimal upper-triangle column sequence over the vertex orderings that
    extend a placed prefix of length k, whose columns are ``own[:k]``.

    ``own`` is the column sequence of one such ordering, the incumbent the
    search starts tight against; so the result is ``own`` exactly when no
    ordering that extends the prefix has smaller columns.  ``parts`` holds
    the unplaced vertices' cells after the prefix, and only the rows of
    those vertices, and their bits for each other, are read.  ``below[v]``
    masks the lower vertices that are twins of v when they share its cell
    (``_twins_below``).

    Branch and bound on the ordering prefix.  The unplaced vertices sit in
    cells ``(pattern, mask)`` in ascending pattern order, where bit n-1-i of
    ``pattern`` marks a neighbour at position i.  A vertex's column at
    position k is its pattern >> (n-k), so the candidates are the first
    cell.  Placing a vertex splits each cell into its non-neighbours, then
    its neighbours, which keeps that order.  While the prefix equals the
    incumbent's (``tight``), a larger column is cut off.  Swapping two
    unplaced twins is an automorphism that fixes the placed prefix and every
    cell, so the search branches only on the lowest vertex of each twin
    class in the first cell.
    """
    best = own
    cols = list(own)

    def search(k: int, parts: list[tuple[int, int]], tight: bool) -> None:
        nonlocal best
        if k == n:
            if not tight:
                best = tuple(cols)
            return
        pattern, cell = parts[0]
        col = pattern >> (n - k)
        if tight:
            if col > best[k]:
                return
            tight = col == best[k]
        cols[k] = col
        bit = 1 << (n - 1 - k)
        mask = cell
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            if below[v] & cell:
                continue
            search(k + 1, _split(parts, adj[v], low, bit), tight)
            # The subtree ended on the incumbent's prefix or replaced it.
            tight = True

    search(k, parts, True)
    return best


def _twins_below(adj: tuple[int, ...]) -> list[int]:
    """Per vertex, the mask of the lower vertices that are its open twins
    (equal adjacency rows) or closed twins (equal rows once each vertex is
    added to its own).  One vertex's open row never equals another's closed
    row (it would hold its own vertex), so one dict holds both kinds."""
    below = []
    seen: dict[int, int] = {}
    for v, row in enumerate(adj):
        me = 1 << v
        below.append(seen.get(row, 0) | seen.get(row | me, 0))
        seen[row] = seen.get(row, 0) | me
        seen[row | me] = seen.get(row | me, 0) | me
    return below


def _split(parts: list[tuple[int, int]], row: int, low: int, bit: int) -> list[tuple[int, int]]:
    """The cells once a vertex with neighbour mask ``row`` is placed at the
    position whose pattern bit is ``bit``; ``low`` is that vertex's one-bit
    mask, or 0 for a vertex outside the cells."""
    off = ~(row | low)
    split = []
    for p, m in parts:
        if lo := m & off:
            split.append((p, lo))
        if hi := m & row:
            split.append((p | bit, hi))
    return split


@cache
def _last_columns(new: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a last column after ``new`` vertices: ``nbrs[col]``, the vertex
    mask of its neighbours (bit new-1-u of col marks neighbour u), and
    ``cover[u]``, the mask of the columns that hold u (bit col).  Reversing
    ``new`` bits is its own inverse, so ``nbrs`` also maps a vertex mask to
    its column."""
    nbrs = tuple(int(f"{col:0{new}b}"[::-1], 2) for col in range(1 << new))
    cover = tuple(sum(1 << col for col, s in enumerate(nbrs) if s >> u & 1) for u in range(new))
    return nbrs, cover


def _lex_min_last_columns(adj: tuple[int, ...], own: tuple[int, ...], live: int) -> int:
    """The mask of the last columns, of those in the mask ``live``, after
    which the identity ordering of the canonical graph ``adj`` (columns
    ``own``) plus a new vertex x is lex-min; bit c stands for last column c.

    It is the canonicity test of every candidate at once: one walk over the
    parent's tight prefixes, the orderings of parent vertices whose columns
    equal ``own``.  At each, x's column is compared with the next of ``own``
    for all candidates by masks: a smaller one rejects the candidate, and an
    equal one continues that candidate's own search, with x placed next.
    At a full prefix, an automorphism of the parent, x's last column must
    not be smaller than its own.  The parent's first cell is never below
    ``own``, as the parent is canonical, and the walk stops where it is
    above.  Twins follow the search's rule, per candidate: a parent twin is
    branched on only for the candidates that tell it from every lower twin
    in its cell, and x's continuation is left to a twin of x in the cell."""
    new = len(adj)
    n = new + 1
    nbrs, cover = _last_columns(new)
    below = _twins_below(adj)
    # The last columns that make x an open or a closed twin of vertex u.
    twin_of_x = [1 << nbrs[a] | 1 << nbrs[a | 1 << u] for u, a in enumerate(adj)]
    # bits[k][i] marks the candidates whose own column at position k joins
    # position i: all or none for k < new, as own[k] is every candidate's,
    # and cover[i] for the last column.
    bits = [[-(c >> (k - 1 - i) & 1) for i in range(k)] for k, c in enumerate(own)] + [cover]
    order = [0] * new
    rejected = 0
    continuations = []

    def walk(k: int, parts: list[tuple[int, int]], live: int) -> None:
        nonlocal rejected
        # x's column at position k against each candidate's own there.
        smaller = 0
        same = live
        for v, mine in zip(order, bits[k]):
            differ = same & (mine ^ cover[v])
            smaller |= differ & mine
            same ^= differ
        rejected |= smaller
        if k == new:
            return
        pattern, cell = parts[0]
        mask = cell if pattern >> (n - k) == own[k] else 0
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            same &= ~twin_of_x[v]
            branch = live & ~rejected
            twins = below[v] & cell
            while twins and branch:
                w = twins & -twins
                twins ^= w
                branch &= cover[w.bit_length() - 1] ^ cover[v]
            if branch:
                order[k] = v
                walk(k + 1, _split(parts, adj[v], low, 1 << (n - 1 - k)), branch)
        if same:
            continuations.append((k, parts, same))

    walk(0, [(0, (1 << new) - 1)], live)
    # Continuations run last, so that the walk's cheap rejections spare them.
    for k, parts, same in continuations:
        same &= ~rejected
        while same:
            low = same & -same
            same ^= low
            col = low.bit_length() - 1
            split = _split(parts, nbrs[col], 0, 1 << (n - 1 - k))
            # Two parent twins left in one cell are joined alike to x, so
            # they are twins of the candidate too.
            columns = own + (col,)
            if _canonical_columns(adj, n, columns, k + 1, split, below) != columns:
                rejected |= low
    return live & ~rejected


def _own_columns(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The columns of the identity ordering: bit v-1-u of column v marks
    the edge uv."""
    return tuple(sum(1 << (v - 1 - u) for u in range(v) if a >> u & 1)
                 for v, a in enumerate(adj))


def _columns_to_graph(cols: tuple[int, ...], n: int) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        col = cols[v]
        for u in range(v):
            if col >> (v - 1 - u) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


def canonical_form(g: Graph) -> str:
    """Lexicographically minimal graph6 encoding over all relabelings.

    Two graphs have equal canonical form iff they are isomorphic.
    """
    if g.n > CANONICAL_CAP:
        raise SizeLimitError(
            f"canonical form capped at n <= {CANONICAL_CAP}, got {g.n}"
        )
    cols = _canonical_columns(g.adj, g.n, _own_columns(g.adj), 0,
                              [(0, (1 << g.n) - 1)], _twins_below(g.adj))
    return to_graph6(_columns_to_graph(cols, g.n))


@dataclass(frozen=True)
class EnumerationSpec:
    """Population request: order plus degree-based filters."""

    n: int
    delta_min: int | None = None
    molecular: bool = False

    def admits(self, g: Graph) -> bool:
        if self.delta_min is not None and min(g.degrees) < self.delta_min:
            return False
        return not self.molecular or max(g.degrees) <= MOLECULAR_MAX_DEGREE

    def describe(self) -> str:
        parts = [f"n={self.n}"]
        if self.delta_min is not None:
            parts.append(f"delta_min={self.delta_min}")
        if self.molecular:
            parts.append("molecular")
        return "enumerate(" + ", ".join(parts) + ")"


def _stream(n: int, connected: bool = True) -> Iterator[Graph]:
    """Every class of graphs of order n, or only the connected ones, each in
    its canonical labeling, in ascending graph6 order, built as it is read.

    Orderly generation (see the module docstring) from every class of order
    n-1, which is built whole and cached.  Parents come in ascending column
    order and so do their last columns, so the stream is sorted as it is
    built."""
    if n == 1:
        yield Graph(1)
        return
    new = n - 1
    bit = 1 << new
    nbrs, cover = _last_columns(new)
    for parent in _classes(new, False):
        adj = parent.adj
        own = _own_columns(adj)
        # Swapping the last two positions must not shrink the columns.
        live = (1 << bit) - (1 << (own[-1] << 1))
        # A connected candidate's last column meets every parent component.
        rest = (1 << new) - 1 if connected else 0
        while rest:
            component = reach(adj, rest)
            rest ^= component
            meets = 0
            for u in range(new):
                if component >> u & 1:
                    meets |= cover[u]
            live &= meets
        kept = _lex_min_last_columns(adj, own, live)
        while kept:
            low = kept & -kept
            kept ^= low
            joined = nbrs[low.bit_length() - 1]
            yield Graph._from_adj(n, tuple(a | bit if joined >> u & 1 else a
                                           for u, a in enumerate(adj)) + (joined,))


@cache
def _classes(n: int, connected: bool = True) -> tuple[Graph, ...]:
    """The whole of ``_stream(n, connected)``, built once per order and
    filtered per spec."""
    return tuple(_stream(n, connected))


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


def stream_connected(spec: EnumerationSpec) -> Iterator[Graph]:
    """The graphs of :func:`enumerate_connected`, in the same order, built
    one at a time: of the orders below ``spec.n``, only order n-1 is kept
    whole."""
    check_order(spec.n)
    return filter(spec.admits, _stream(spec.n))


def connected_graphs(n: int, delta_min: int | None = None,
                     molecular: bool = False) -> list[Graph]:
    """Convenience wrapper over :func:`enumerate_connected`."""
    return enumerate_connected(EnumerationSpec(n, delta_min=delta_min, molecular=molecular))


def read_population(path: str | Path) -> list[Graph]:
    """The graphs of population file ``path``, read as UTF-8 less a leading
    byte-order mark; see :func:`stream_population`."""
    return [g for _, g in stream_population(Path(path).read_text(encoding="utf-8-sig"), path)]


def stream_population(text: str, path: str | Path) -> Iterator[tuple[str, Graph]]:
    """Parse the text of population file ``path`` one line at a time: one
    graph6 string per line, blank lines and ``#`` comments (whole-line or
    trailing) ignored.  graph6 never contains ``#``.  Yields each graph with
    its stripped line, which is its ``to_graph6``: the decoder refuses any
    other spelling of a graph, such as nonzero padding bits.  A file with no
    graph line is an error, raised once the text is read through, and every
    error names ``path``."""
    found = False
    for lineno, line in content_lines(text):
        try:
            g = parse_graph6(line)
        except GraphError as exc:
            raise GraphError(f"{path}, line {lineno}: {exc}") from None
        found = True
        yield line, g
    if not found:
        raise GraphError(f"{path}: no graphs found")
