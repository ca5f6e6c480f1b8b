import random
from itertools import combinations, product

import pytest

from degbound.graphs import (
    CHROMATIC_CAP,
    Graph,
    GraphError,
    SizeLimitError,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    connected_within,
    content_lines,
    cycle_graph,
    degree_sequence,
    double_star,
    edge_degree_partition,
    is_connected,
    is_cycle,
    is_double_star_t,
    is_molecular,
    is_path,
    is_regular,
    is_star,
    make_family,
    max_degree,
    min_degree,
    parse_edge_list,
    parse_graph6,
    path_graph,
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
    assert degree_sequence(path_graph(3)) == [1, 2, 1]
    assert degree_sequence(complete_graph(4)) == [3, 3, 3, 3]
    assert sorted(degree_sequence(double_star())) == [1] * 6 + [4, 4]


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 12))
        assert sum(degree_sequence(g)) == 2 * g.m


def test_edge_degree_partition_examples():
    assert edge_degree_partition(cycle_graph(5)) == {(2, 2): 5}
    assert edge_degree_partition(star_graph(4)) == {(1, 4): 4}
    assert edge_degree_partition(double_star()) == {(1, 4): 6, (4, 4): 1}


def test_partition_total_and_relabel_invariance():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 10))
        part = edge_degree_partition(g)
        assert sum(part.values()) == g.m
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert edge_degree_partition(g.relabeled(perm)) == part


def test_is_connected_examples():
    assert is_connected(path_graph(4))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))


def test_connected_within_vertex_subsets():
    adj = path_graph(4).adj
    assert connected_within(adj, 0b1110)  # drop an end: still a path
    assert not connected_within(adj, 0b1101)  # drop an inner vertex: cut
    assert connected_within(adj, 0b0100)
    assert connected_within(adj, 0)


def test_degree_extremes():
    assert (min_degree(cycle_graph(6)), max_degree(cycle_graph(6))) == (2, 2)
    assert (min_degree(star_graph(4)), max_degree(star_graph(4))) == (1, 4)
    assert (min_degree(double_star()), max_degree(double_star())) == (1, 4)


def test_is_regular():
    assert is_regular(cycle_graph(7), 2)
    assert not is_regular(path_graph(3))
    assert is_regular(complete_graph(5), 4)
    assert not is_regular(complete_graph(5), 3)


def test_is_molecular():
    assert is_molecular(double_star())
    assert not is_molecular(complete_graph(6))
    assert is_molecular(cycle_graph(3))


def test_recognizers():
    assert is_path(path_graph(5)) and not is_path(star_graph(3))
    assert is_star(star_graph(6)) and is_star(path_graph(2))
    assert not is_star(path_graph(4))
    assert is_cycle(cycle_graph(4)) and not is_cycle(path_graph(4))
    assert is_double_star_t(double_star())
    assert not is_double_star_t(star_graph(7))


def test_star_and_path_match_connectivity_first_definitions():
    """is_star needs no connectivity test and is_path makes it last; both
    agree with the definitions that test connectivity first on every
    labelled graph with at most 6 vertices, disconnected ones included."""
    def star_by_bfs(g):
        if not is_connected(g):
            return False
        if g.n <= 2:
            return g.m == g.n - 1
        degs = sorted(g.degrees)
        return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])

    def path_by_bfs(g):
        if not is_connected(g):
            return False
        if g.n == 1:
            return True
        degs = sorted(g.degrees)
        return degs.count(1) == 2 and all(d == 2 for d in degs[2:])

    stars = paths = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert is_star(g) == star_by_bfs(g), (n, g.edges)
            assert is_path(g) == path_by_bfs(g), (n, g.edges)
            stars += is_star(g)
            paths += is_path(g)
    # labelled stars: 1, 1, 3, 4, 5, 6; labelled paths: 1, 1, 3, 12, 60, 360
    assert (stars, paths) == (20, 437)


# ---------------------------------------------------------------------------
# families


def test_make_family_examples():
    s8 = make_family("star", 8)
    assert s8.n == 9
    assert edge_degree_partition(s8) == {(1, 8): 8}
    t = make_family("double_star")
    assert t.n == 8 and t.m == 7
    assert edge_degree_partition(t) == {(1, 4): 6, (4, 4): 1}
    assert make_family("cycle", 3) == complete_graph(3)


def test_make_family_regularity():
    for n in (2, 5, 9):
        assert is_regular(make_family("complete", n), n - 1)
    for n in (3, 6, 10):
        assert is_regular(make_family("cycle", n), 2)
    for d in (1, 2, 4):
        w = make_family("delta_regular_witness", d)
        assert is_regular(w, d) and is_connected(w)


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
        assert 1 <= chi <= max_degree(g) + 1
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


def test_chromatic_groetzsch_graph():
    # Mycielski's construction on C5: triangle-free with chromatic number 4
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    g = Graph(11, edges)
    assert all(not g.adj[u] & g.adj[v] for u, v in g.edges)  # clique number 2
    assert chromatic_number(g) == _cover_chromatic(g) == 4


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


def test_graph6_malformed():
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("B")  # truncated body
    with pytest.raises(GraphError):
        parse_graph6("Bww")  # overlong body
    with pytest.raises(GraphError, match=r"invalid character '\\x14' at position 1"):
        parse_graph6("B" + chr(20))  # character below 63
    with pytest.raises(GraphError, match=r"invalid character '\\x7f' at position 2"):
        parse_graph6("Bw\x7f")  # character above 126
    with pytest.raises(GraphError, match="invalid character 'é' at position 1"):
        parse_graph6("Bé")  # not ASCII
    with pytest.raises(GraphError):
        parse_graph6("~~~")  # long form unsupported
    with pytest.raises(GraphError):
        to_graph6(Graph(63))


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
    assert content_lines(COMMENTED_EDGE_LIST) == [(3, "3"), (4, "0 1"), (5, "0 1 2")]
    assert content_lines("# only a comment\n\n   \n") == []


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
    order 1..20 with densities from 0 (edgeless) to 1 (complete)."""
    samples = [to_graph6(g) for graphs in populations.values() for g in graphs]
    rng = random.Random(29)
    for _ in range(300):
        samples.append(to_graph6(random_graph(rng, rng.randrange(1, 21),
                                              rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]))))
    return samples


def test_parse_graph6_matches_edge_list_constructor(populations):
    samples = _graph6_samples(populations)
    graphs = [parse_graph6(s) for s in samples]
    assert sum(not is_connected(g) for g in graphs) >= 50
    assert sum(g.m == 0 for g in graphs) >= 20
    for s, g in zip(samples, graphs):
        _same_graph(g, *_reference_graph6_edges(s))


def _reference_partition(n: int, edges) -> dict[tuple[int, int], int]:
    """Per-edge count of sorted endpoint-degree pairs."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    part: dict[tuple[int, int], int] = {}
    for u, v in edges:
        pair = tuple(sorted((deg[u], deg[v])))
        part[pair] = part.get(pair, 0) + 1
    return part


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
        part = edge_degree_partition(g)
        assert part == _reference_partition(order, edges), (order, len(edges))
        assert list(part) == sorted(part)
