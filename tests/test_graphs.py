import importlib.util
import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from degbound.bounds import (
    C3_FAMILY,
    COMPLETE_FAMILY,
    CYCLE_FAMILY,
    K14,
    P2_FAMILY,
    P3_FAMILY,
    REGULAR_FAMILY,
    SPANNING_STAR_FAMILY,
    T_STAR,
    catalog_by_id,
    graph_context,
    star_family,
)
from degbound.enumeration import EnumerationSpec, _classes, connected_graphs
from degbound.graphs import (
    CHROMATIC_CAP,
    G6_MAX,
    Graph,
    GraphError,
    SizeLimitError,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    content_lines,
    cycle_graph,
    degree_pair_counts,
    double_star,
    is_connected,
    make_family,
    parse_edge_list,
    parse_graph6,
    path_graph,
    reach,
    star_graph,
    to_graph6,
)

from conftest import random_graph


# ---------------------------------------------------------------------------
# construction


# (n, edges, the message Graph(n, edges) raises)
INVALID_GRAPHS = [
    (0, [], "vertex count must be >= 1, got 0"),
    (3, [(0, 0)], "self-loop at vertex 0"),
    (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
    (3, [(0, 3)], "edge {0,3} has an endpoint outside 0..2"),
    (3, [(-1, 2)], "edge {-1,2} has an endpoint outside 0..2"),
    (3, [(0, 1), (0, 1)], "duplicate edge {0,1}"),
    (3, [(0, 1), (1, 0)], "duplicate edge {0,1}"),
    (4, [(3, 2), (1, 2), (2, 3)], "duplicate edge {2,3}"),
]


def test_graph_validation():
    for n, edges, message in INVALID_GRAPHS:
        with pytest.raises(GraphError) as exc:
            Graph(n, edges)
        assert str(exc.value) == message


def test_edges_are_derived_sorted():
    g = Graph(3, [(2, 0)])
    assert g.edges == ((0, 2),)
    g = Graph(5, [(4, 1), (3, 0), (1, 0), (2, 1), (4, 3)])
    assert g.edges == ((0, 1), (0, 3), (1, 2), (1, 4), (3, 4))
    assert g.m == 5
    assert Graph(4).edges == () and Graph(4).m == 0


def test_degree_sequence_examples():
    assert list(path_graph(3).degrees) == [1, 2, 1]
    assert list(complete_graph(4).degrees) == [3, 3, 3, 3]
    assert sorted(double_star().degrees) == [1] * 6 + [4, 4]


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 12))
        assert sum(g.degrees) == 2 * g.m


def test_edge_degree_partition_examples():
    assert degree_pair_counts(cycle_graph(5)) == (2, 2, 5)
    assert degree_pair_counts(star_graph(4)) == (1, 4, 4)
    assert degree_pair_counts(double_star()) == (1, 4, 6, 4, 4, 1)


def test_partition_total_and_relabel_invariance():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 10))
        counts = degree_pair_counts(g)
        assert sum(counts[2::3]) == g.m
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert degree_pair_counts(g.relabeled(perm)) == counts


def test_is_connected_examples():
    assert is_connected(path_graph(4))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))


def test_reach_is_the_component_of_the_lowest_vertex():
    # Within the subgraph that the mask induces.
    adj = path_graph(4).adj
    assert reach(adj, 0b1111) == 0b1111
    assert reach(adj, 0b1110) == 0b1110  # drop an end: still a path
    assert reach(adj, 0b1101) == 0b0001  # drop an inner vertex: 0 is cut off
    assert reach(adj, 0b1100) == 0b1100
    assert reach(adj, 0b0100) == 0b0100
    assert reach(adj, 0) == 0
    adj = Graph(5, [(0, 1), (2, 3), (3, 4)]).adj
    assert reach(adj, 0b11111) == 0b00011
    assert reach(adj, 0b11110) == 0b00010
    assert reach(adj, 0b11100) == 0b11100


def test_recognizers():
    def contains(family, g):
        return family.contains(graph_context(g))

    assert contains(P3_FAMILY, path_graph(3)) and not contains(P3_FAMILY, path_graph(4))
    assert contains(P2_FAMILY, path_graph(2)) and not contains(P2_FAMILY, star_graph(3))
    assert contains(SPANNING_STAR_FAMILY, star_graph(6))
    assert contains(SPANNING_STAR_FAMILY, path_graph(2))
    assert not contains(SPANNING_STAR_FAMILY, path_graph(4))
    assert contains(CYCLE_FAMILY, cycle_graph(4)) and not contains(CYCLE_FAMILY, path_graph(4))
    assert contains(T_STAR, double_star())
    assert not contains(T_STAR, star_graph(7))


def _by_definition(g):
    """Each family's members by its textbook definition, connectivity first:
    family label (a star by its leaves) -> whether ``g`` is a member."""
    n, degrees = g.n, sorted(g.degrees)
    connected = is_connected(g)
    path = connected and (n == 1 or degrees == [1, 1] + [2] * (n - 2))
    cycle = connected and n >= 3 and degrees == [2] * n
    star = connected and n >= 2 and degrees == [1] * (n - 1) + [n - 1]
    centers = [v for v, d in enumerate(g.degrees) if d == 4]
    t_star = (connected and n == 8 and degrees == [1] * 6 + [4, 4]
              and g.adj[centers[0]] >> centers[1] & 1 == 1)
    return {"P2": path and n == 2, "P3": path and n == 3,
            "K_n": g.m == n * (n - 1) // 2, "C_n": cycle, "C_3": cycle and n == 3,
            "S_{1,n-1}": star, "delta-regular": degrees[0] == degrees[-1],
            "K_{1,4}": star and n == 5, "T*": t_star,
            **{f"S_{{1,{k}}}": star and n == k + 1 for k in range(1, 9)}}


def _small_graphs():
    """Every labelled graph with at most 6 vertices and every class of order
    1..8, disconnected and edgeless ones and K1 included."""
    labelled = [Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                for n in range(1, 7)
                for pairs in [[(u, v) for v in range(n) for u in range(v)]]
                for mask in range(1 << len(pairs))]
    return labelled, [g for n in range(1, 9) for g in _classes(n, False)]


def test_star_and_path_match_connectivity_first_definitions():
    """The star and path families, and with them every other family and
    exclusion, read on a graph's record, agree with their
    connectivity-first definitions on every labelled graph with at most 6
    vertices and every class of order 1..8, disconnected ones included, and
    on S_{1,8} and T*, alone and with isolated vertices."""
    families = [P2_FAMILY, P3_FAMILY, COMPLETE_FAMILY, CYCLE_FAMILY, C3_FAMILY,
                SPANNING_STAR_FAMILY, REGULAR_FAMILY, K14, T_STAR,
                *map(star_family, range(1, 9))]
    labelled, classes = _small_graphs()
    members = dict.fromkeys((f.label for f in families), 0)
    extra = [star_graph(8), Graph(10, star_graph(8).edges), Graph(9, double_star().edges)]
    for g in [*labelled, *classes, *extra]:
        ctx, want = graph_context(g), _by_definition(g)
        for f in families:
            assert f.contains(ctx) == want[f.label], (f.label, g.n, g.edges)
            members[f.label] += want[f.label]
    assert len(labelled) == 33_867 and len(classes) == 13_598
    assert members == {"P2": 2, "P3": 4, "K_n": 14, "C_n": 82, "C_3": 2, "S_{1,n-1}": 27,
                       "delta-regular": 247, "K_{1,4}": 6, "T*": 1, "S_{1,1}": 2,
                       "S_{1,2}": 4, "S_{1,3}": 5, "S_{1,4}": 6, "S_{1,5}": 7,
                       "S_{1,6}": 1, "S_{1,7}": 1, "S_{1,8}": 1}


def test_the_record_splits_no_audit_key():
    """A graph's record holds the four fields the audit keyed on before it
    keyed on the record, (n, connectivity, flat pair counts, chi), and its
    delta and Delta are the least and the largest degree, on every graph of
    ``_small_graphs``.  So graphs with equal four-field keys have equal
    records, and keying on the record groups graphs as that key did."""
    labelled, classes = _small_graphs()
    records = {}
    for g in [*labelled, *classes]:
        ctx = graph_context(g)
        old = (g.n, is_connected(g), degree_pair_counts(g), chromatic_number(g))
        assert (ctx.n, ctx.connected, ctx.counts, ctx.chi) == old
        assert (ctx.delta, ctx.Delta) == (min(g.degrees), max(g.degrees))
        assert records.setdefault(old, ctx) == ctx, (g.n, g.edges)
    edgeless = [ctx for ctx in records.values() if ctx.counts == ()]
    assert [(ctx.n, ctx.connected, ctx.delta, ctx.Delta, ctx.chi) for ctx in edgeless] == [
        (1, True, 0, 0, 1), *((n, False, 0, 0, 1) for n in range(2, 9))]
    assert (len(records), sum(not ctx.connected for ctx in records.values())) == (7788, 1275)


# ---------------------------------------------------------------------------
# families


def test_make_family_examples():
    s8 = make_family("star", 8)
    assert s8.n == 9
    assert degree_pair_counts(s8) == (1, 8, 8)
    t = make_family("double_star")
    assert t.n == 8 and t.m == 7
    assert degree_pair_counts(t) == (1, 4, 6, 4, 4, 1)
    assert make_family("cycle", 3) == complete_graph(3)


def test_make_family_regularity():
    for n in (2, 5, 9):
        assert set(make_family("complete", n).degrees) == {n - 1}
    for n in (3, 6, 10):
        assert set(make_family("cycle", n).degrees) == {2}
    for d in (1, 2, 4):
        w = make_family("delta_regular_witness", d)
        assert set(w.degrees) == {d} and is_connected(w)


def test_make_family_errors():
    with pytest.raises(GraphError):
        make_family("cycle", 2)
    with pytest.raises(GraphError):
        make_family("star", 0)
    with pytest.raises(GraphError):
        make_family("nonsense", 3)
    with pytest.raises(GraphError):
        make_family("cycle")
    with pytest.raises(GraphError):
        make_family("double_star", 8)


# ---------------------------------------------------------------------------
# chromatic number


def _brute_chromatic(g: Graph) -> int:
    if g.m == 0:
        return 1
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def test_chromatic_examples():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(path_graph(4)) == 2
    assert chromatic_number(Graph(1)) == 1


def test_chromatic_matches_bruteforce_small():
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 6))
        assert chromatic_number(g) == _brute_chromatic(g)


def test_chromatic_brooks_style_sanity():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 9))
        chi = chromatic_number(g)
        assert 1 <= chi <= max(g.degrees) + 1
    for n in range(2, 9):
        assert chromatic_number(complete_graph(n)) == n


def test_chromatic_bipartite_and_odd_cycles():
    for a, b in ((1, 1), (2, 3), (3, 4)):
        assert chromatic_number(complete_bipartite(a, b)) == 2
    for n in (3, 5, 7, 9):
        assert chromatic_number(cycle_graph(n)) == 3
    for n in (4, 6, 8):
        assert chromatic_number(cycle_graph(n)) == 2


def _cover_chromatic(g: Graph) -> int:
    """Fewest independent sets covering V, by dynamic programming over vertex
    subsets: the set holding the lowest vertex of ``mask`` is chosen first."""
    full = 1 << g.n
    independent = [True] * full
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        independent[mask] = independent[rest] and not g.adj[low.bit_length() - 1] & rest
    cover = [0] * full
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        best = g.n
        sub = rest
        while True:
            if independent[sub | low]:
                best = min(best, cover[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        cover[mask] = best
    return cover[full - 1]


def test_chromatic_matches_cover_oracle(populations):
    for graphs in populations.values():
        for g in graphs:
            assert chromatic_number(g) == _cover_chromatic(g), to_graph6(g)
    rng = random.Random(47)
    disconnected = 0
    for _ in range(90):
        g = random_graph(rng, rng.randrange(8, 11), rng.uniform(0.05, 0.9))
        disconnected += not is_connected(g)
        assert chromatic_number(g) == _cover_chromatic(g), to_graph6(g)
    assert disconnected >= 10


def _groetzsch() -> Graph:
    """Mycielski's construction on C5: triangle-free with chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph(11, edges)


def test_chromatic_groetzsch_graph():
    g = _groetzsch()
    assert all(not g.adj[u] & g.adj[v] for u, v in g.edges)  # clique number 2
    assert chromatic_number(g) == _cover_chromatic(g) == 4


def _incremental_chromatic(g: Graph) -> int:
    """The smallest k for which the static-order backtracking search colours
    ``g``, trying k = 1, 2, ... with no bracket."""
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])

    def colours(i, classes, k):
        if i == g.n:
            return True
        v = order[i]
        for j, members in enumerate(classes):
            if not g.adj[v] & members:
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


def test_chromatic_matches_incremental_search():
    """The clique/first-fit bracket changes no chromatic number: every class
    of order <= 8, seeded random graphs of order 9..12 (disconnected and
    edgeless ones among them) and two graphs whose bracket stays open."""
    graphs = [Graph(1)] + [g for n in range(2, 9) for g in connected_graphs(n)]
    rng = random.Random(61)
    graphs += [random_graph(rng, rng.randint(9, 12), rng.uniform(0.05, 0.95))
               for _ in range(300)]
    graphs += [Graph(n) for n in range(9, 13)]
    assert sum(not is_connected(g) for g in graphs) >= 30
    for g in graphs:
        assert chromatic_number(g) == _incremental_chromatic(g), to_graph6(g)
    # The crown graph: first-fit in vertex order uses 5 colours, the greedy
    # clique has 2 vertices, and the search succeeds at k = 2.
    crown = Graph(10, [(2 * i, 2 * j + 1) for i in range(5) for j in range(5) if i != j])
    # The Groetzsch graph: omega = 2, and the searches for k = 2 and 3 fail,
    # so chi is the colour count of first-fit.
    for g, chi in ((crown, 2), (_groetzsch(), 4)):
        assert chromatic_number(g) == _incremental_chromatic(g) == chi


def test_chromatic_size_cap():
    big = path_graph(CHROMATIC_CAP + 1)
    with pytest.raises(SizeLimitError):
        chromatic_number(big)


# ---------------------------------------------------------------------------
# graph6 codec

# hand-encoded per the 6-bit column-order format
G6_KNOWN = [
    ("A_", Graph(2, [(0, 1)])),
    ("Bw", complete_graph(3)),
    ("Bg", path_graph(3)),
]


@pytest.mark.parametrize("s,g", G6_KNOWN)
def test_graph6_known_strings(s, g):
    assert to_graph6(g) == s
    assert parse_graph6(s) == g


def test_graph6_round_trip_random():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 20))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_string_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 15))
        s = to_graph6(g)
        assert to_graph6(parse_graph6(s)) == s


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 25))
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        expected = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert to_graph6(g) == expected
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(map(tuple, map(sorted, back.edges()))) == set(g.edges)


# Each malformed string and the exact message it fails with.
G6_MALFORMED = [
    ("", "empty graph6 string"),
    ("  \n", "empty graph6 string"),
    ("B", "graph6: expected 2 characters for n=3, got 1"),  # truncated body
    ("Bww", "graph6: expected 2 characters for n=3, got 3"),  # overlong body
    ("B" + chr(20), "graph6: invalid character '\\x14' at position 1"),  # below 63
    ("Bw\x7f", "graph6: invalid character '\\x7f' at position 2"),  # above 126
    ("Bé", "graph6: invalid character 'é' at position 1"),  # not ASCII
    ("B\ud800", "graph6: invalid character '\\ud800' at position 1"),  # lone surrogate
    ("~~~", "graph6 long form (n > 62) is not supported"),
    ("~", "graph6 long form (n > 62) is not supported"),
    ("?", "graph6: vertex count 0 out of range"),
]


def test_graph6_malformed():
    for s, message in G6_MALFORMED:
        with pytest.raises(GraphError) as exc:
            parse_graph6(s)
        assert str(exc.value) == message, s
    with pytest.raises(GraphError) as exc:
        to_graph6(Graph(63))
    assert str(exc.value) == "graph6 short form encodes n <= 62, got 63"


def test_graph6_padding_bits():
    # n = 2 holds one pair bit and five padding bits; chr(96) sets the last.
    with pytest.raises(GraphError, match="nonzero padding bits"):
        parse_graph6("A" + chr(96))
    assert parse_graph6("C~") == complete_graph(4)  # six pair bits, no padding


# ---------------------------------------------------------------------------
# edge-list format


def test_parse_edge_list():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g == path_graph(3)
    g = parse_edge_list("# a triangle\n3\n0 1\n1 2 # chord comment\n0 2\n")
    assert g == complete_graph(3)


# A bad fifth line after a whole-line comment, a blank line and a trailing comment.
COMMENTED_EDGE_LIST = "# a path\n\n3  # order\n0 1\n0 1 2  # one too many\n"


def test_parse_edge_list_errors():
    with pytest.raises(GraphError, match="^edge list: no content$"):
        parse_edge_list("")
    with pytest.raises(GraphError, match="^edge list, line 1: expected vertex count, got 'x'$"):
        parse_edge_list("x\n0 1\n")
    with pytest.raises(GraphError, match="^edge list, line 2: expected 'u v', got '0 1 2'$"):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(GraphError, match="^edge list, line 2: non-integer endpoint in '0 zero'$"):
        parse_edge_list("3\n0 zero\n")
    with pytest.raises(GraphError, match=r"^edge list: edge \{0,5\} has an endpoint outside 0..1$"):
        parse_edge_list("2\n0 5\n")
    with pytest.raises(GraphError, match="^edge list, line 5: expected 'u v', got '0 1 2'$"):
        parse_edge_list(COMMENTED_EDGE_LIST)


def test_content_lines_keep_true_line_numbers():
    assert list(content_lines(COMMENTED_EDGE_LIST)) == [(3, "3"), (4, "0 1"), (5, "0 1 2")]
    assert list(content_lines("# only a comment\n\n   \n")) == []
    # Lines end at \n, \r\n and \r alone; other breaks stay in the line.
    assert list(content_lines("a\r\nb\rc\x0cd\x0be\x1cf\x85g\u2028h\u2029i\nj\x0c")) == [
        (1, "a"), (2, "b"), (3, "c\x0cd\x0be\x1cf\x85g\u2028h\u2029i"), (4, "j")]


def test_complete_graph_edge_count():
    for n in range(1, 10):
        assert complete_graph(n).m == n * (n - 1) // 2
        assert complete_graph(n).m == len(list(combinations(range(n), 2)))


# ---------------------------------------------------------------------------
# adjacency-built graphs against the validating edge-list constructor


def _same_graph(g: Graph, n: int, edges):
    """``g`` equals ``Graph(n, edges)`` field by field; ``edges`` lists
    each pair as u < v, so the derived edges are ``edges`` sorted."""
    ref = Graph(n, edges)
    assert (g.n, g.adj, g.degrees) == (ref.n, ref.adj, ref.degrees)
    assert g.edges == tuple(sorted(edges))
    assert g.m == len(edges)
    assert g == ref and hash(g) == hash(ref)


def test_family_builders_match_edge_lists():
    from degbound.cli import FAMILY_MAX

    for n in range(1, FAMILY_MAX + 1):
        _same_graph(path_graph(n), n, [(i, i + 1) for i in range(n - 1)])
        _same_graph(complete_graph(n), n, list(combinations(range(n), 2)))
        _same_graph(star_graph(n), n + 1, [(0, i) for i in range(1, n + 1)])
        _same_graph(make_family("delta_regular_witness", n), 2 * n,
                    [(i, n + j) for i in range(n) for j in range(n)])
        if n >= 3:
            _same_graph(cycle_graph(n), n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    for a in range(1, 13):
        for b in range(1, 13):
            _same_graph(complete_bipartite(a, b), a + b,
                        [(i, a + j) for i in range(a) for j in range(b)])
    _same_graph(double_star(), 8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


def _reference_graph6_edges(s: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode graph6 bit by bit: 6-bit chunks, MSB first, pairs u < v in
    column order."""
    n = ord(s[0]) - 63
    bits = [(ord(ch) - 63) >> shift & 1 for ch in s[1:] for shift in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def _graph6_samples(populations):
    """Every connected class of order 2..7, then seeded random graphs of
    every order 1..62 at densities from 0 (edgeless) to 1 (complete), so
    every body position of the short form is decoded."""
    samples = [to_graph6(g) for graphs in populations.values() for g in graphs]
    rng = random.Random(29)
    for n in range(1, G6_MAX + 1):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            samples.append(to_graph6(random_graph(rng, n, p)))
    return samples


def test_parse_graph6_matches_edge_list_constructor(populations):
    samples = _graph6_samples(populations)
    graphs = [parse_graph6(s) for s in samples]
    assert sum(not is_connected(g) for g in graphs) >= 50
    assert sum(g.m == 0 for g in graphs) >= 20
    for s, g in zip(samples, graphs):
        _same_graph(g, *_reference_graph6_edges(s))


def _reference_graph6(s: str) -> Graph | str:
    """What decoding ``s`` gives: the bit-by-bit reference's graph, or the
    message of the first check it fails, in this order: empty, a character
    outside 63..126, the long form, an order below 1, the length, then a
    nonzero padding bit."""
    s = s.strip()
    if not s:
        return "empty graph6 string"
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            return f"graph6: invalid character {ch!r} at position {i}"
    if s[0] == "~":
        return "graph6 long form (n > 62) is not supported"
    n = ord(s[0]) - 63
    if n < 1:
        return f"graph6: vertex count {n} out of range"
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(s) != expected:
        return f"graph6: expected {expected} characters for n={n}, got {len(s)}"
    if any((ord(s[-1]) - 63) >> k & 1 for k in range(6 * (expected - 1) - nbits)):
        return "graph6: nonzero padding bits"
    return Graph(*_reference_graph6_edges(s))


# Outside the graph6 alphabet: DEL, controls (tab, form feed and the other
# line breaks of str.splitlines among them), a space, non-ASCII and a lone
# surrogate, as a command-line argument can hold.
G6_FUZZ_EXTRA = "\x7f\x00\t\n\x0b\x0c\r\x1c\x1e \x85é\u2028\U0001f600\ud800"


def test_parse_graph6_matches_reference_on_random_strings():
    """Seeded random strings of length 0..12: each decodes to the
    reference's graph or fails with exactly the reference's message.  Half
    have the length a random order 0..12 asks for, and half start with
    that order's character, so many decode."""
    rng = random.Random(36)
    alphabet = "".join(map(chr, range(63, 127)))
    outcomes = Counter()
    for _ in range(50_000):
        n = rng.randrange(0, 13)
        length = 1 + (n * (n - 1) // 2 + 5) // 6 if rng.random() < 0.5 else rng.randrange(13)
        chars = [rng.choice(G6_FUZZ_EXTRA) if rng.random() < 0.03 else rng.choice(alphabet)
                 for _ in range(length)]
        if chars and rng.random() < 0.5:
            chars[0] = chr(63 + n)
        s = "".join(chars)
        want = _reference_graph6(s)
        try:
            got = parse_graph6(s)
        except GraphError as exc:
            assert str(exc) == want, s
            outcomes[want.split(" ", 2)[1]] += 1
        else:
            assert isinstance(want, Graph), (s, want)
            assert (got.n, got.adj, got.degrees) == (want.n, want.adj, want.degrees), s
            outcomes["decoded"] += 1
    # Every outcome occurs: a graph, and each of the six messages.
    assert min(outcomes.values()) >= 100 and len(outcomes) == 7, outcomes


def _reference_partition(n: int, edges) -> tuple[int, ...]:
    """Per-edge count of sorted endpoint-degree pairs, as flat
    ``(a, b, count)`` triples in increasing pair order."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    part: dict[tuple[int, int], int] = {}
    for u, v in edges:
        pair = tuple(sorted((deg[u], deg[v])))
        part[pair] = part.get(pair, 0) + 1
    return tuple(x for pair, count in sorted(part.items()) for x in (*pair, count))


def test_edge_degree_partition_matches_per_edge_count(populations):
    cases = [(parse_graph6(s), _reference_graph6_edges(s)) for s in _graph6_samples(populations)]
    n = 200
    cases += [
        (complete_graph(n), (n, list(combinations(range(n), 2)))),
        (path_graph(n), (n, [(i, i + 1) for i in range(n - 1)])),
        (cycle_graph(n), (n, [(i, (i + 1) % n) for i in range(n)])),
        (star_graph(n - 1), (n, [(0, i) for i in range(1, n)])),
    ]
    for g, (order, edges) in cases:
        assert degree_pair_counts(g) == _reference_partition(order, edges), (order, len(edges))


def _mixed_graphs() -> list[Graph]:
    """The mixed graphs of ``tools/same_output.py``."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
    spec = importlib.util.spec_from_file_location("same_output", tool)
    same_output = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_output)
    return [Graph(n, edges) for n, edges in same_output.MIXED]


def _flat_count_graphs(populations):
    """Every connected class of order 2..7, the mixed graphs of
    ``tools/same_output.py`` and every family graph of order 2..200."""
    graphs = [g for classes in populations.values() for g in classes] + _mixed_graphs()
    orders = range(2, 201)
    graphs += [make_family(tag, n) for tag in ("path", "complete") for n in orders]
    graphs += [make_family("cycle", n) for n in orders if n >= 3]
    graphs += [make_family("star", n - 1) for n in orders]
    graphs += [make_family("delta_regular_witness", n // 2) for n in orders if n % 2 == 0]
    graphs.append(make_family("double_star"))
    return graphs


def test_flat_pair_counts_are_the_partition(populations):
    """``degree_pair_counts`` is the edge-degree partition as (a, b, count)
    triples with a <= b, in strictly increasing pair order."""
    graphs = _flat_count_graphs(populations)
    assert len(graphs) == 995 + 10 + 4 * 199 - 1 + 100 + 1
    for g in graphs:
        counts = degree_pair_counts(g)
        assert len(counts) % 3 == 0
        pairs = list(zip(counts[::3], counts[1::3]))
        assert all(0 < a <= b for a, b in pairs)
        assert all(p < q for p, q in zip(pairs, pairs[1:]))
        assert counts == _reference_partition(g.n, g.edges)


def test_the_molecular_cap_is_defined_once(populations):
    """The ``--molecular`` filter and EXT-3(i)'s degree cap admit the same
    graphs: both read ``MOLECULAR_MAX_DEGREE``.  The filter's bounds are
    exact: K_{1,4} is molecular and K_{1,5} is not, and a minimum degree
    equal to ``delta_min`` is admitted."""
    cap = catalog_by_id()["EXT-3(i)"].degree_cap
    graphs = [g for classes in populations.values() for g in classes] + _mixed_graphs()
    admitted = [EnumerationSpec(g.n, molecular=True).admits(g) for g in graphs]
    assert admitted == [cap(min(g.degrees), max(g.degrees)) for g in graphs]
    assert (len(graphs), sum(admitted)) == (1005, 468)
    assert EnumerationSpec(5, molecular=True).admits(star_graph(4))
    assert not EnumerationSpec(6, molecular=True).admits(star_graph(5))
    spec = EnumerationSpec(5, delta_min=2)
    assert spec.admits(cycle_graph(5)) and not spec.admits(path_graph(5))
    spec = EnumerationSpec(6, delta_min=3)
    assert spec.admits(complete_bipartite(3, 3)) and not spec.admits(cycle_graph(6))
