import hashlib
import os
import random
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from degbound import enumeration
from degbound.enumeration import (
    EnumerationSpec,
    _canonical_columns,
    _degree_cells,
    canonical_form,
    canonical_graph,
    connected_graphs,
    enumerate_connected,
    parse_population,
    read_population,
)
from degbound.graphs import (
    Graph,
    GraphError,
    SizeLimitError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    is_molecular,
    min_degree,
    path_graph,
    star_graph,
    to_graph6,
)

from conftest import random_connected_graph, random_graph

# Connected graphs up to isomorphism, orders 2..7.
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# sha256 of the newline-joined graph6 representatives, in emitted order,
# pinned from earlier searches: orders 7 and 8 from the enumeration that ran
# the lex-min form on every candidate, order 9 as its test says.
REPRESENTATIVE_DIGESTS = {
    7: "b8b85762ca13a0273d6c1392cc500221f97df2c933be4f76664547c41f0d3f6e",
    8: "28b9222da489bdd97eff49da6a8d2aed76ac19453b4b69ece911cb3dd855c398",
    9: "035e9c603032ba21d4f1ec877e9adb25c7bc097e7182ce3ee39567a96b9a2fad",
}

# Order 9 takes minutes and about 280 MB, so its oracle runs only on request.
ORDER_9_OPT_IN = "DEGBOUND_TEST_ORDER_9"


def _digest(graphs):
    return hashlib.sha256("\n".join(to_graph6(g) for g in graphs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracle 1: duplicate-tolerant enumeration, canonical-form bucketing by full
# permutation minimization (vectorized so n = 6 stays cheap)


def _oracle_class_count(n, keep=None):
    pairs = list(combinations(range(n), 2))
    E = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    masks = []
    for mask in range(1 << E):
        adj = {v: set() for v in range(n)}
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u].add(v)
                adj[v].add(u)
        # set-based DFS, independent of the package's bitset BFS
        stack, seen = [0], {0}
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            continue
        if keep is not None and not keep(adj):
            continue
        masks.append(mask)
    if not masks:
        return 0
    bits = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(E)) & 1
    weights = 1 << np.arange(E - 1, -1, -1, dtype=np.int64)
    canon = None
    for perm in permutations(range(n)):
        to_new = [0] * E
        for i, (u, v) in enumerate(pairs):
            to_new[i] = pair_index[tuple(sorted((perm[u], perm[v])))]
        inv = np.empty(E, dtype=np.int64)
        inv[to_new] = np.arange(E)
        vals = bits[:, inv] @ weights
        canon = vals if canon is None else np.minimum(canon, vals)
    return len(np.unique(canon))


# ---------------------------------------------------------------------------
# oracle 2: Burnside orbit counting plus inverse Euler transform (no
# canonical forms at all)


def _burnside_all_graph_count(n):
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        mapping = [pair_index[tuple(sorted((perm[u], perm[v])))]
                   for u, v in pairs]
        seen = [False] * len(pairs)
        cycles = 0
        for start in range(len(pairs)):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = mapping[j]
        total += 1 << cycles
    assert total % factorial(n) == 0
    return total // factorial(n)


def _connected_counts_from_totals(totals):
    """Invert the Euler transform: totals[n] counts all graphs of order n up
    to isomorphism, the result counts the connected ones."""
    N = len(totals)
    g = [1] + list(totals)  # g[0] = 1
    c = [0] * (N + 1)
    d = [0] * (N + 1)
    for n in range(1, N + 1):
        s = sum(d[k] * g[n - k] for k in range(1, n))
        cn_times_n = n * g[n] - s
        # d[n] = sum_{j | n} j*c[j]; isolate c[n]
        divisor_part = sum(j * c[j] for j in range(1, n) if n % j == 0)
        c[n] = (cn_times_n - divisor_part * 1) // n
        d[n] = sum(j * c[j] for j in range(1, n + 1) if n % j == 0)
    return c[1:]


def test_euler_transform_oracle_agrees_with_published_counts():
    totals = [_burnside_all_graph_count(n) for n in range(1, 8)]
    assert totals == [1, 2, 4, 11, 34, 156, 1044]
    connected = _connected_counts_from_totals(totals)
    assert connected == [1, 1, 2, 6, 21, 112, 853]


# ---------------------------------------------------------------------------
# enumerate_connected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counts_match_bruteforce_oracle(n):
    assert len(connected_graphs(n)) == _oracle_class_count(n)


def test_counts_match_bruteforce_oracle_n6():
    assert len(connected_graphs(6)) == _oracle_class_count(6)


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_counts_match_frozen_values(n):
    assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]


def test_matches_networkx_graph_atlas():
    # The atlas lists every graph of order <= 7 once; connectivity is
    # networkx's own test, so only the canonical form is shared.
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(2, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 2 and nx.is_connected(h):
            atlas[n].add(canonical_form(Graph(n, h.edges())))
    for n, forms in atlas.items():
        assert {to_graph6(g) for g in connected_graphs(n)} == forms


def test_order_7_representatives_match_pinned_digest():
    assert _digest(connected_graphs(7)) == REPRESENTATIVE_DIGESTS[7]


def test_order_8_count_matches_oeis():
    # OEIS A001349: connected graphs on 8 unlabeled vertices.
    graphs = connected_graphs(8)
    assert len(graphs) == 11117
    assert _digest(graphs) == REPRESENTATIVE_DIGESTS[8]


@pytest.mark.filterwarnings("ignore:The hashes produced .* changed:UserWarning")
def test_order_8_classes_match_networkx():
    # An oracle that shares no code with the enumerator: networkx checks each
    # class is connected, and VF2 finds no two classes isomorphic among those
    # with equal Weisfeiler-Lehman hashes.  With the OEIS count above, the
    # class set is exact.
    nx = pytest.importorskip("networkx")
    buckets = {}
    for g in connected_graphs(8):
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        assert nx.is_connected(h), to_graph6(g)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for h, k in combinations(bucket, 2):
            assert not nx.is_isomorphic(h, k)


@pytest.mark.skipif(not os.environ.get(ORDER_9_OPT_IN),
                    reason=f"order 9 takes minutes; set {ORDER_9_OPT_IN}=1 to run it")
def test_order_9_count_and_digest():
    # Builds the private order-9 stream, above the public MAX_ORDER cap.
    # The count is OEIS A001349 and independent of this code.  The digest
    # came from an earlier search of this package (refined certificates, a
    # per-vertex column scan), so it cross-checks the current cell search on
    # every representative rather than standing as an outside oracle.
    graphs = enumeration._classes(9)
    assert len(graphs) == 261080
    assert _digest(graphs) == REPRESENTATIVE_DIGESTS[9]


def test_filtered_count_matches_bruteforce():
    def keep(adj):
        return min(len(v) for v in adj.values()) >= 2

    got = connected_graphs(5, delta_min=2)
    assert len(got) == _oracle_class_count(5, keep)
    assert all(min_degree(g) >= 2 for g in got)


def test_filtered_specs_reuse_the_order(monkeypatch):
    unfiltered = enumerate_connected(EnumerationSpec(6))
    calls = []

    def counted(*args):
        calls.append(args)
        return _canonical_columns(*args)

    monkeypatch.setattr(enumeration, "_canonical_columns", counted)
    for spec in (EnumerationSpec(6, delta_min=2), EnumerationSpec(6, molecular=True)):
        assert enumerate_connected(spec) == [g for g in unfiltered if spec.admits(g)]
    assert calls == []


def test_filters_respected():
    for g in connected_graphs(6, delta_min=2):
        assert min_degree(g) >= 2 and is_connected(g)
    mol = connected_graphs(6, molecular=True)
    assert all(is_molecular(g) for g in mol)


def test_emitted_graphs_connected_and_distinct(populations):
    for n, graphs in populations.items():
        assert all(is_connected(g) for g in graphs)
        forms = [to_graph6(g) for g in graphs]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)


def test_no_two_emitted_graphs_isomorphic():
    for n in (4, 5):
        forms = set()
        for g in connected_graphs(n):
            f = min(to_graph6(g.relabeled(p)) for p in permutations(range(n)))
            assert f not in forms
            forms.add(f)


def test_enumeration_deterministic():
    a = enumerate_connected(EnumerationSpec(5))
    b = enumerate_connected(EnumerationSpec(5))
    assert a == b


def test_order_caps():
    with pytest.raises(GraphError):
        enumerate_connected(EnumerationSpec(1))
    with pytest.raises(SizeLimitError):
        enumerate_connected(EnumerationSpec(9))


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_examples():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(0, 2), (1, 2)])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(complete_graph(3)) == "Bw"
    assert canonical_form(star_graph(2)) == canonical_form(path_graph(3))


def _bruteforce_forms(graphs, n):
    """Minimal graph6 over all n! relabelings of each graph of order n.

    For a fixed n, graph6 strings order as their upper-triangle bits in
    column order read as one integer, so numpy minimises that integer for
    every graph at once, one permutation at a time."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    index = {p: i for i, p in enumerate(pairs)}
    bits = np.zeros((len(graphs), len(pairs)), dtype=np.int64)
    for row, g in enumerate(graphs):
        for e in g.edges:
            bits[row, index[e]] = 1
    weights = 1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for v, image in enumerate(perm):
            inv[image] = v
        # new pair (u, v) is the old pair (inv[u], inv[v])
        source = [index[tuple(sorted((inv[u], inv[v])))] for u, v in pairs]
        vals = bits[:, source] @ weights
        best = vals if best is None else np.minimum(best, vals)
    return [to_graph6(Graph(n, [p for i, p in enumerate(pairs) if int(v) >> (len(pairs) - 1 - i) & 1]))
            for v in best]


def _complement(g):
    edges = set(g.edges)
    return Graph(g.n, [(u, v) for v in range(1, g.n) for u in range(v) if (u, v) not in edges])


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _twin_rich(n):
    """K_n, K_n - e, every complete multipartite graph, every threshold graph
    (each vertex added isolated or dominating), and the complements of all
    of them: graphs whose vertices fall into few open or closed twin classes."""
    graphs = [complete_graph(n), Graph(n, [e for e in complete_graph(n).edges if e != (0, 1)])]
    for parts in _partitions(n):
        part_of = [i for i, size in enumerate(parts) for _ in range(size)]
        graphs.append(Graph(n, [(u, v) for v in range(1, n) for u in range(v)
                                if part_of[u] != part_of[v]]))
    for steps in range(1 << (n - 1)):
        graphs.append(Graph(n, [(u, v) for v in range(1, n) if steps >> (v - 1) & 1
                                for u in range(v)]))
    graphs += [_complement(g) for g in graphs]
    return list({g.edges: g for g in graphs}.values())


def test_canonical_form_matches_bruteforce():
    rng = random.Random(3)
    cases = [random_graph(rng, rng.randrange(2, 7)) for _ in range(150)]
    cases += connected_graphs(5)
    for g in cases:
        brute = min(to_graph6(g.relabeled(list(p)))
                    for p in permutations(range(g.n)))
        assert canonical_form(g) == brute
    # twin-rich graphs, each as built and under two seeded relabelings
    rng = random.Random(7)
    for n in range(2, 8):
        graphs = _twin_rich(n)
        for g, brute in zip(graphs, _bruteforce_forms(graphs, n)):
            copies = [g]
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                copies.append(g.relabeled(perm))
            assert [canonical_form(h) for h in copies] == [brute] * 3, g.edges


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(9)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabeled(perm))


def test_canonical_graph_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 8))
        cg = canonical_graph(g)
        assert to_graph6(cg) == canonical_form(g)
        assert canonical_form(cg) == canonical_form(g)


def _assert_certificate_complete(graphs):
    """Degree-cell certificates are equal iff canonical forms are equal."""
    pairs = {(_canonical_columns(g.adj, g.n, _degree_cells(g.adj)), canonical_form(g))
             for g in graphs}
    assert len({cert for cert, _ in pairs}) == len(pairs)
    assert len({form for _, form in pairs}) == len(pairs)


def _with_relabelings(graphs, rng, copies):
    out = list(graphs)
    for g in graphs:
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(g.relabeled(perm))
    return out


def test_certificate_is_complete_invariant_on_all_small_graphs(populations):
    rng = random.Random(21)
    for graphs in populations.values():
        _assert_certificate_complete(_with_relabelings(graphs, rng, 2))


def test_certificate_separates_refinement_hard_pairs():
    # Each pair is regular with equal degree, so even colour refinement would
    # leave one cell and only the column search can tell the two apart.
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    spokes = [(i, i + 5) for i in range(5)]
    outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen = Graph(10, outer + spokes + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    pentagonal_prism = Graph(10, outer + spokes + [(i + 5, (i + 1) % 5 + 5) for i in range(5)])
    pairs = [(complete_bipartite(3, 3), prism), (cycle_graph(6), two_triangles),
             (petersen, pentagonal_prism)]
    rng = random.Random(34)
    for pair in pairs:
        _assert_certificate_complete(_with_relabelings(pair, rng, 3))


def _bruteforce_columns(g, cells):
    """Minimal column sequence over the orderings that place a vertex of
    ``cells[k]`` at each position k, by trying every permutation."""
    edges = set(g.edges)
    best = None
    for order in permutations(range(g.n)):
        if any(not cells[k] >> v & 1 for k, v in enumerate(order)):
            continue
        cols = tuple(sum(1 << (k - 1 - i) for i, u in enumerate(order[:k])
                         if (min(u, v), max(u, v)) in edges)
                     for k, v in enumerate(order))
        best = cols if best is None else min(best, cols)
    return best


def _random_cells(rng, n):
    """Per-position masks of a random ordered partition of range(n)."""
    labels = [rng.randrange(n) for _ in range(n)]
    return tuple(sum(1 << v for v in range(n) if labels[v] == c) for c in sorted(labels))


def test_cell_restricted_columns_match_bruteforce():
    # The dedup keys on this minimum over the degree-cell orderings, so it
    # must be the true minimum, not only some isomorphism invariant.
    rng = random.Random(17)
    cases = [random_graph(rng, rng.randrange(2, 7)) for _ in range(60)]
    cases += [g for n in range(2, 7) for g in _twin_rich(n)]
    for g in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabeled(perm)
        for cells in (((1 << g.n) - 1,) * g.n, _degree_cells(g.adj), _random_cells(rng, g.n)):
            assert _canonical_columns(g.adj, g.n, cells) == _bruteforce_columns(g, cells), \
                (g.edges, cells)


def test_canonical_cap():
    with pytest.raises(SizeLimitError):
        canonical_form(path_graph(11))


# ---------------------------------------------------------------------------
# population files


def test_read_population(tmp_path):
    path = tmp_path / "pop.g6"
    path.write_text("# comment\nBw\n\nA_\n  Bg  \n")
    graphs = read_population(path)
    assert graphs == [complete_graph(3), path_graph(2), path_graph(3)]


def test_read_population_bad_line(tmp_path):
    path = tmp_path / "pop.g6"
    path.write_text("Bw\nBAD~LINE\n")
    with pytest.raises(GraphError) as err:
        read_population(path)
    assert "line 2" in str(err.value)


def test_parse_population_error_names_the_true_line():
    text = "# a population\n\nBw  # K_3\nBAD~LINE  # bad\n"
    with pytest.raises(GraphError) as err:
        parse_population(text, "pop.g6")
    assert str(err.value) == "pop.g6, line 4: graph6: expected 2 characters for n=3, got 8"
