"""Simple undirected graphs with bitset adjacency: the edge-degree
partition, the named families, the exact chromatic number (and upper
bounds on it read from the partition) and the graph6 and edge-list text
formats.  Connectivity is the only structural predicate;
a degree fact is read from ``Graph.degrees`` (such as ``min(g.degrees)``),
and the bound auditor decides its equality families on the audit key's
record, not on a graph.

Vertices are the integers ``0..n-1``.  A graph is a plain value: its order,
one Python int adjacency bitmask per vertex and its degrees, with nothing
derived cached on it.  The named families build the bitmasks directly, the
graph6 decoder sums them from a table of each body character's adjacency
bits, and the edge-degree partition is counted afresh per call, per pair of
degree classes with popcounts, never by walking the edges: every vertex
outside the top degree class is grouped once, each of those classes' rows
is popcounted against every class at or above its degree (the top class's
mask is the complement of the others), and the top class's own pairs are
the edge ends left over.  That is all the machinery required at the graph
orders this package works with (graph6 short form, n <= 62, except that
family constructors may build larger graphs, up to K_{200,200} on 400
vertices, for closed-form cross-checks).
"""

from __future__ import annotations

import math
import re
import struct
from collections.abc import Iterator
from functools import cache
from operator import getitem


class GraphError(ValueError):
    """Raised for malformed graph constructions or inputs."""


class SizeLimitError(GraphError):
    """Raised when an exact-search routine is asked to exceed its size cap."""


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    The order, the adjacency bitmasks and the degrees are all it stores;
    ``edges`` and ``m`` are derived from them on every access.
    """

    __slots__ = ("n", "adj", "degrees")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        adj = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {{{u},{v}}} has an endpoint outside 0..{n - 1}")
            if u > v:
                u, v = v, u
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge {{{u},{v}}}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set_adj(n, adj)

    @classmethod
    def _from_adj(cls, n: int, adj) -> "Graph":
        """Wrap adjacency masks that are symmetric, loop-free and within
        ``0..n-1`` by construction; nothing is checked."""
        g = cls.__new__(cls)
        g._set_adj(n, adj)
        return g

    def _set_adj(self, n: int, adj) -> None:
        self.n = n
        self.adj = tuple(adj)
        self.degrees = tuple(map(int.bit_count, self.adj))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as ``(u, v)`` pairs with ``u < v``, in sorted order."""
        edges = []
        for u, a in enumerate(self.adj):
            higher = a >> u + 1 << u + 1
            while higher:
                low = higher & -higher
                edges.append((u, low.bit_length() - 1))
                higher ^= low
        return tuple(edges)

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def relabeled(self, perm) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Degree statistics

# A molecular graph has maximum degree at most this (a carbon atom's valence).
MOLECULAR_MAX_DEGREE = 4


def degree_pair_counts(g: Graph) -> tuple[int, ...]:
    """The edge-degree partition as one flat tuple ``(a1, b1, c1, a2, b2,
    c2, ...)``: ``c`` edges join a vertex of degree ``a`` to one of degree
    ``b >= a``, one triple per pair that occurs, pairs strictly increasing.

    Every index this package computes is a sum over edges of a symmetric
    function of the endpoint degrees, so these counts are a sufficient
    statistic for all of them.  They are counted per pair of degree classes,
    never by walking the edges, and the class of the maximum degree ``top``
    is never grouped or read.  Every other vertex is grouped once by degree,
    and each of those classes' rows is popcounted against every class at or
    above its degree, the top class included: its mask is the complement of
    the other classes' masks, isolated vertices among those.  Its own pairs
    are the edge ends left over, since a class's rows hold ``degree * size``
    edge ends: ``(top, top)`` is ``(top * |top class| - sum over a of (a,
    top)) / 2``.  So K_n, C_n and P_n cost at most a few popcounts at any
    order, a star about 2n.  Nothing is cached: each call counts afresh.
    Equal partitions give equal tuples, so the audit keys on the tuple as it
    is, and the index sums read it in the same order.
    """
    degrees = g.degrees
    adj = g.adj
    top = max(degrees)
    rows: dict[int, list[int]] = {}  # degree below top -> adjacency rows of that class
    masks: dict[int, int] = {}  # degree below top -> vertex mask of that class
    for v, d in enumerate(degrees):
        if d != top:
            rows.setdefault(d, []).append(adj[v])
            masks[d] = masks.get(d, 0) | 1 << v
    top_mask = ((1 << g.n) - 1) ^ sum(masks.values())
    rows.pop(0, None)  # isolated vertices: in a mask above, but no edge ends
    lower = sorted(rows)
    counts: list[int] = []
    ends = 0  # edge ends in the top class counted from the classes below it
    for i, a in enumerate(lower):
        ra = rows[a]
        for b in lower[i:]:
            mask = masks[b]
            count = 0
            for row in ra:
                count += (row & mask).bit_count()
            if count:
                counts += (a, b, count // 2 if a == b else count)
        count = 0
        for row in ra:
            count += (row & top_mask).bit_count()
        if count:
            counts += (a, top, count)
            ends += count
    both = (top * top_mask.bit_count() - ends) // 2
    if both:
        counts += (top, top, both)
    return tuple(counts)


def reach(adj, mask: int) -> int:
    """The vertices of the bitmask ``mask`` reachable from its lowest vertex
    within the subgraph it induces, given one adjacency bitmask per vertex
    (BFS); 0 for an empty mask."""
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (true for n = 1)."""
    everyone = (1 << g.n) - 1
    return reach(g.adj, everyone) == everyone


# ---------------------------------------------------------------------------
# Named families


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    full = (1 << n) - 1  # clips the neighbour v + 1 of the last vertex
    return Graph._from_adj(n, [(1 << v >> 1 | 1 << v + 1) & full for v in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph._from_adj(n, [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph._from_adj(n, [full ^ 1 << v for v in range(n)])


def star_graph(k: int) -> Graph:
    """Star with one center and ``k`` pendant vertices (k + 1 vertices)."""
    if k < 1:
        raise GraphError(f"star needs k >= 1 leaves, got {k}")
    return Graph._from_adj(k + 1, [(1 << k + 1) - 2] + [1] * k)


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite parts must be >= 1")
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return Graph._from_adj(a + b, [right] * a + [left] * b)


def double_star() -> Graph:
    """Two adjacent centers, three pendant vertices on each (8 vertices):
    center 0 holds leaves 2, 3, 4 and center 1 holds leaves 5, 6, 7."""
    return Graph._from_adj(8, [0b00011110, 0b11100001] + [0b01] * 3 + [0b10] * 3)


def regular_witness(d: int) -> Graph:
    """A canonical connected d-regular graph that is neither complete (d >= 2)
    nor a cycle (d >= 3): the complete bipartite graph on d + d vertices."""
    if d < 1:
        raise GraphError(f"regular witness needs degree >= 1, got {d}")
    return complete_bipartite(d, d)


_FAMILY_BUILDERS = {
    "path": (path_graph, True),
    "cycle": (cycle_graph, True),
    "complete": (complete_graph, True),
    "star": (star_graph, True),
    "double_star": (double_star, False),
    "delta_regular_witness": (regular_witness, True),
}


def make_family(tag: str, param: int | None = None) -> Graph:
    """Build the canonical labeled member of a named family."""
    try:
        builder, wants_param = _FAMILY_BUILDERS[tag]
    except KeyError:
        raise GraphError(f"unknown family {tag!r}") from None
    if wants_param:
        if param is None:
            raise GraphError(f"family {tag!r} needs a parameter")
        return builder(param)
    if param is not None:
        raise GraphError(f"family {tag!r} takes no parameter")
    return builder()


# ---------------------------------------------------------------------------
# Exact chromatic number

CHROMATIC_CAP = 12


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, searched only between two greedy bounds.

    One pass over the vertices in decreasing-degree order (stable, so ties
    keep vertex order) builds a greedy clique (a vertex joins when it is
    adjacent to all of it) of size ``lo`` and a first-fit colouring with
    ``hi`` colours, so lo <= chi <= hi.  For k = lo .. hi - 1 ``_colours``
    then tries to colour ``g`` with k colours in the same order; the first k
    that succeeds is chi, and when none does (at once when lo = hi), chi is
    ``hi``.  Exponential in the worst case; refuse instances above
    ``CHROMATIC_CAP`` vertices.
    """
    n = g.n
    if n > CHROMATIC_CAP:
        raise SizeLimitError(f"exact chromatic number capped at n <= {CHROMATIC_CAP}, got {n}")
    order = sorted(range(n), key=g.degrees.__getitem__, reverse=True)
    adj = g.adj
    clique = 0
    greedy: list[int] = []
    for v in order:
        row = adj[v]
        if row & clique == clique:
            clique |= 1 << v
        for j, members in enumerate(greedy):
            if not row & members:
                greedy[j] = members | 1 << v
                break
        else:
            greedy.append(1 << v)
    hi = len(greedy)
    for k in range(clique.bit_count(), hi):
        if _colours(adj, order, 0, [], k):
            return k
    return hi


def chromatic_upper(counts: tuple[int, ...]) -> int:
    """An upper bound on the chromatic number of every graph whose edge-degree
    partition is ``counts`` (``degree_pair_counts``), in exact integers: the
    least of two bounds, both attained by K_n.

    - 1 + k, where k is the largest smaller-end degree of the pairs (0 with
      no edge): no edge joins two vertices of degree above k, so they share
      one colour, and a vertex of degree at most k then finds a free colour
      among k + 1.
    - floor((1 + isqrt(8m + 1)) / 2), the largest t with t(t - 1)/2 <= m,
      for m edges: an optimal colouring has an edge between any two of its
      colour classes.
    """
    m = sum(counts[2::3])
    return min(1 + max(counts[::3], default=0), (1 + math.isqrt(8 * m + 1)) // 2)


def welsh_powell_upper(counts: tuple[int, ...]) -> int:
    """Welsh and Powell's bound (Computer J. 10, 1967) on the chromatic
    number of every graph whose edge-degree partition is ``counts``:
    max_i min(d_i + 1, i) over the degrees d_1 >= d_2 >= ... of the
    vertices with an edge, and 1 without one.  A first-fit colouring in
    that order gives the i-th vertex a colour at most min(d_i, i - 1) + 1,
    since at most that many of its neighbours come before it.  Often below
    ``chromatic_upper``, but dearer.
    """
    ends: dict[int, int] = {}  # degree -> edge ends at vertices of that degree
    for a, b, c in zip(counts[::3], counts[1::3], counts[2::3]):
        ends[a] = ends.get(a, 0) + c
        ends[b] = ends.get(b, 0) + c
    bound, seen = 1, 0
    for d in sorted(ends, reverse=True):
        seen += ends[d] // d  # the last i of the vertices of degree d
        bound = max(bound, min(d + 1, seen))
    return bound


def _colours(adj, order, i: int, classes: list[int], k: int) -> bool:
    """Whether ``order[i:]`` can join ``classes`` (vertex bitmasks), each
    vertex a class free of its neighbours, with at most ``k`` classes."""
    if i == len(order):
        return True
    v = order[i]
    for j, members in enumerate(classes):
        if not adj[v] & members:
            classes[j] = members | 1 << v
            if _colours(adj, order, i + 1, classes, k):
                return True
            classes[j] = members
    if len(classes) < k:
        classes.append(1 << v)
        if _colours(adj, order, i + 1, classes, k):
            return True
        classes.pop()
    return False


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62) and edge-list text format

G6_MAX = 62  # largest order the short form encodes
# A chunk read least significant bit first, as it sits in ``lower`` below.
_G6_CHARS = [chr(63 + int(format(chunk, "06b")[::-1], 2)) for chunk in range(64)]


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string: 6-bit chunks of the upper-triangle
    adjacency bits in column order, each chunk offset by 63."""
    n = g.n
    if n > G6_MAX:
        raise GraphError(f"graph6 short form encodes n <= {G6_MAX}, got {n}")
    # Bit v(v-1)/2 + u of ``lower`` is the pair u < v, as in parse_graph6.
    lower = shift = 0
    for v in range(1, n):
        lower |= (g.adj[v] & (1 << v) - 1) << shift
        shift += v
    return chr(n + 63) + "".join([_G6_CHARS[lower >> i & 63] for i in range(0, shift, 6)])


@cache
def _g6_position(j: int) -> tuple[int | None, ...]:
    """The adjacency bits of body character ``j`` by its byte: bits
    6j..6j+5 of the body, most significant first, are the pairs u < v at
    i = v(v-1)/2 + u, each set as bit 64u + v and bit 64v + u.  Bytes
    outside 63..126 map to None."""
    pairs = []
    for i in range(6 * j, 6 * j + 6):
        v = 1
        while v * (v + 1) // 2 <= i:
            v += 1
        u = i - v * (v - 1) // 2
        pairs.append(1 << 64 * u + v | 1 << 64 * v + u)
    slots = [None] * 128
    for chunk in range(64):
        slots[63 + chunk] = sum(bit for k, bit in enumerate(pairs) if chunk >> 5 - k & 1)
    return tuple(slots)


@cache
def _g6_order(n: int) -> tuple[tuple[tuple[int | None, ...], ...], struct.Struct]:
    """The position tables of an order-``n`` body and the struct that reads
    its n 64-bit rows."""
    return tuple(map(_g6_position, range((n * (n - 1) // 2 + 5) // 6))), struct.Struct(f"<{n}Q")


def parse_graph6(s: str) -> Graph:
    """Decode a short-form graph6 string.

    Body character j always carries the same six pairs u < v, so
    ``_g6_position(j)`` maps each of its bytes to the adjacency bits those
    pairs set, in both orientations, with row u at bit 64u.  The positions
    set disjoint bits, so a body decodes as the sum of its characters'
    entries, and the n rows are read out of that sum as 64-bit words.  A
    padding bit is a pair with v >= n, which sets a bit past row n-1, so
    the sum no longer fits in n words.  Anything the lookup refuses (a
    character outside 63..126, an order outside 1..62, a bad length or
    padding) goes to the checks of :func:`_graph6_error`, whose order fixes
    the message.  The tables are cached and fill on first use, shared by all
    orders: an order-n string reads the first ceil(n(n-1)/12) positions.
    Decoding one graph of each order 1..12 leaves 0.09 MB allocated, and one
    of order 62 then brings it to 8.0 MB (tracemalloc, CPython 3.11).
    """
    s = s.strip()
    n = ord(s[0]) - 63 if s else 0
    if 0 < n <= G6_MAX:
        positions, rows = _g6_order(n)
        try:
            body = s[1:].encode("ascii")
            if len(body) == len(positions):
                bits = sum(map(getitem, positions, body))
                return Graph._from_adj(n, rows.unpack(bits.to_bytes(8 * n, "little")))
        except (UnicodeEncodeError, TypeError, OverflowError):
            pass
    raise _graph6_error(s)


def _graph6_error(s: str) -> GraphError:
    """The error for stripped graph6 string ``s``, which the table decode
    refused; the first failed check, in this order, names it."""
    if not s:
        return GraphError("empty graph6 string")
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            return GraphError(f"graph6: invalid character {ch!r} at position {i}")
    if s[0] == "~":
        return GraphError("graph6 long form (n > 62) is not supported")
    n = ord(s[0]) - 63
    if n < 1:
        return GraphError(f"graph6: vertex count {n} out of range")
    expected = 1 + (n * (n - 1) // 2 + 5) // 6
    if len(s) != expected:
        return GraphError(f"graph6: expected {expected} characters for n={n}, got {len(s)}")
    # Each other refusal is named above, so the sum overflowed its n rows.
    return GraphError("graph6: nonzero padding bits")


# A line's text, then its end: \r\n, \r, \n or the end of the text.
_LINE = re.compile(r"([^\r\n]*)(?:\r\n?|\n|\Z)")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number from 1, text)`` of each line of ``text`` left nonempty
    once its ``#`` comment and surrounding blanks are stripped, yielded as
    each line is read.  A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``, as an
    editor numbers it; a form feed, vertical tab or other break
    ``str.splitlines`` would split at stays in the line, where only the
    stripping at its ends removes it."""
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        stripped = line[1].split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line ``n``, then one
    whitespace-separated 0-based ``u v`` pair per line."""
    lines = list(content_lines(text))
    if not lines:
        raise GraphError("edge list: no content")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise GraphError(f"edge list, line {lineno}: expected vertex count, got {head!r}") from None
    edges = []
    for lineno, body in lines[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise GraphError(f"edge list, line {lineno}: expected 'u v', got {body!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"edge list, line {lineno}: non-integer endpoint in {body!r}") from None
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise GraphError(f"edge list: {exc}") from None
