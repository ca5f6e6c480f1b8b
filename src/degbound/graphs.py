"""Simple undirected graphs with bitset adjacency, plus the structural
predicates and named families needed by the bound auditor.

Vertices are the integers ``0..n-1``.  A graph is a plain value: its order,
one Python int adjacency bitmask per vertex and its degrees, with nothing
derived cached on it.  The named families and the graph6 decoder build the
bitmasks directly, and the edge-degree partition is counted afresh per call,
per pair of degree classes with popcounts, never by walking the edges.  That
is all the machinery required at the graph orders this package works with
(graph6 short form, n <= 62, except that family constructors may build
larger graphs, up to K_{200,200} on 400 vertices, for closed-form cross-checks).
"""

from __future__ import annotations


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
        self.degrees = tuple(a.bit_count() for a in self.adj)

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


def degree_sequence(g: Graph) -> list[int]:
    """Return the degree of each vertex, indexed by vertex label."""
    return list(g.degrees)


def edge_degree_partition(g: Graph) -> dict[tuple[int, int], int]:
    """Multiset of unordered endpoint-degree pairs over all edges, keyed in
    sorted pair order.

    Every index this package computes is a sum over edges of a symmetric
    function of the endpoint degrees, so this multiset is a sufficient
    statistic for all of them.  It is counted per pair of degree classes,
    one ``(adj[v] & class_mask).bit_count()`` per vertex and class, so the
    cost grows with n times the number of distinct degrees, not with m.
    Nothing is cached: each call counts afresh and returns a new dict.
    """
    rows: dict[int, list[int]] = {}  # degree -> adjacency rows of that class
    masks: dict[int, int] = {}  # degree -> vertex mask of that class
    for v, d in enumerate(g.degrees):
        if d:
            rows.setdefault(d, []).append(g.adj[v])
            masks[d] = masks.get(d, 0) | 1 << v
    degrees = sorted(rows)
    part: dict[tuple[int, int], int] = {}
    for i, a in enumerate(degrees):
        for b in degrees[i:]:
            mask = masks[b]
            count = 0
            for row in rows[a]:
                count += (row & mask).bit_count()
            if count:
                part[(a, b)] = count // 2 if a == b else count
    return part


def min_degree(g: Graph) -> int:
    return min(g.degrees)


def max_degree(g: Graph) -> int:
    return max(g.degrees)


def is_regular(g: Graph, d: int | None = None) -> bool:
    """True when all degrees are equal (and equal to ``d`` if given)."""
    lo = min(g.degrees)
    if lo != max(g.degrees):
        return False
    return d is None or lo == d


def is_molecular(g: Graph) -> bool:
    """True when the maximum degree is at most 4."""
    return max(g.degrees) <= 4


def connected_within(adj, mask: int) -> bool:
    """True when the subgraph induced by the vertex bitmask ``mask`` is
    connected, given one adjacency bitmask per vertex (BFS from the lowest
    vertex in ``mask``)."""
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
    return seen == mask


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (true for n = 1)."""
    return connected_within(g.adj, (1 << g.n) - 1)


# ---------------------------------------------------------------------------
# Family recognizers (structural, never numeric)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_cycle(g: Graph) -> bool:
    return g.n >= 3 and is_regular(g, 2) and is_connected(g)


def is_path(g: Graph) -> bool:
    if g.n == 1:
        return True
    degs = sorted(g.degrees)
    return degs.count(1) == 2 and all(d == 2 for d in degs[2:]) and is_connected(g)


def is_star(g: Graph) -> bool:
    """True for the star with n-1 leaves (includes K1 and K2).  Its n-1
    edges all meet at a vertex of degree n-1, which makes it connected."""
    return g.m == g.n - 1 and max(g.degrees) == g.n - 1


def is_double_star_t(g: Graph) -> bool:
    """True for the 8-vertex tree with two adjacent degree-4 centers."""
    if g.n != 8 or g.m != 7 or not is_connected(g):
        return False
    return edge_degree_partition(g) == {(1, 4): 6, (4, 4): 1}


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
    """Exact chromatic number: the smallest k for which a backtracking search
    colours ``g`` with k colours.

    Vertices are placed in decreasing-degree order.  Each joins an open colour
    class (a vertex bitmask) that holds none of its neighbours, or opens a new
    class while fewer than k are open.  Exponential in the worst case; refuse
    instances above ``CHROMATIC_CAP`` vertices.
    """
    n = g.n
    if n > CHROMATIC_CAP:
        raise SizeLimitError(f"exact chromatic number capped at n <= {CHROMATIC_CAP}, got {n}")
    order = sorted(range(n), key=lambda v: -g.degrees[v])
    adj = g.adj

    def colours(i: int, classes: list[int], k: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for j, members in enumerate(classes):
            if not adj[v] & members:
                classes[j] = members | 1 << v
                if colours(i + 1, classes, k):
                    return True
                classes[j] = members
        if len(classes) < k:
            classes.append(1 << v)
            if colours(i + 1, classes, k):
                return True
            classes.pop()
        return False

    k = 1
    while not colours(0, [], k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62) and edge-list text format

G6_MAX = 62  # largest order the short form encodes
_G6_BITS = {63 + chunk: format(chunk, "06b") for chunk in range(64)}  # for str.translate
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


def parse_graph6(s: str) -> Graph:
    """Decode a short-form graph6 string."""
    s = s.strip()
    if not s:
        raise GraphError("empty graph6 string")
    if not (s.isascii() and "?" <= min(s) and max(s) <= "~"):
        for i, ch in enumerate(s):
            if not 63 <= ord(ch) <= 126:
                raise GraphError(f"graph6: invalid character {ch!r} at position {i}")
    if s[0] == "~":
        raise GraphError("graph6 long form (n > 62) is not supported")
    n = ord(s[0]) - 63
    if n < 1:
        raise GraphError(f"graph6: vertex count {n} out of range")
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(s) != expected:
        raise GraphError(
            f"graph6: expected {expected} characters for n={n}, got {len(s)}"
        )
    body = s[1:].translate(_G6_BITS)
    if "1" in body[nbits:]:
        raise GraphError("graph6: nonzero padding bits")
    # Reversed, bit i of the body (pair u < v at i = v(v-1)/2 + u) is bit i
    # of ``lower``, so each column v is a v-bit mask of its neighbours u < v.
    lower = int(body[nbits - 1::-1], 2) if nbits else 0
    adj = [0] * n
    for v in range(1, n):
        col = lower & (1 << v) - 1
        lower >>= v
        adj[v] = col
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= 1 << v
            col ^= low
    return Graph._from_adj(n, adj)


def content_lines(text: str) -> list[tuple[int, str]]:
    """``(line number from 1, text)`` of each line of ``text`` left nonempty
    once its ``#`` comment and surrounding blanks are stripped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line ``n``, then one
    whitespace-separated 0-based ``u v`` pair per line."""
    lines = content_lines(text)
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
