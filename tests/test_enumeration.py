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
    _split,
    _twins_below,
    canonical_form,
    connected_graphs,
    enumerate_connected,
    read_population,
    stream_connected,
    stream_population,
)
from degbound.graphs import (
    MOLECULAR_MAX_DEGREE,
    Graph,
    GraphError,
    SizeLimitError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)

from conftest import random_connected_graph, random_graph

# All graphs up to isomorphism, orders 1..7 (OEIS A000088).
GRAPH_COUNTS = [1, 2, 4, 11, 34, 156, 1044]

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

# The two order-9 oracles take about 37 seconds and 260 MB together (the
# count and digest alone about 9 s), so they run only on request.
ORDER_9_OPT_IN = "DEGBOUND_TEST_ORDER_9"
ORDER_9_ONLY = pytest.mark.skipif(not os.environ.get(ORDER_9_OPT_IN),
                                  reason=f"order 9 takes 37 s; set {ORDER_9_OPT_IN}=1 to run it")


def _digest(forms):
    """The digest of graph6 strings, one a line, in order."""
    return hashlib.sha256("\n".join(forms).encode()).hexdigest()


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
    assert totals == GRAPH_COUNTS
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
    # networkx's own test and the forms are brute-force minima, so no code
    # is shared with the enumerator.
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in range(2, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 2 and nx.is_connected(h):
            atlas[n].append(Graph(n, h.edges()))
    for n, graphs in atlas.items():
        assert [to_graph6(g) for g in connected_graphs(n)] == sorted(_bruteforce_forms(graphs, n))


def test_order_7_representatives_match_pinned_digest():
    assert _digest(map(to_graph6, connected_graphs(7))) == REPRESENTATIVE_DIGESTS[7]


def test_order_8_count_matches_oeis():
    # OEIS A001349: connected graphs on 8 unlabeled vertices.  The stream is
    # in ascending graph6 order, which the ordered digest alone would let a
    # re-pin change unnoticed.
    graphs = connected_graphs(8)
    assert len(graphs) == 11117
    forms = [to_graph6(g) for g in graphs]
    assert forms == sorted(forms)
    assert _digest(forms) == REPRESENTATIVE_DIGESTS[8]


@pytest.mark.filterwarnings("ignore:The hashes produced .* changed:UserWarning")
@pytest.mark.parametrize("n", [8, pytest.param(9, marks=ORDER_9_ONLY)])
def test_classes_match_networkx(n):
    # An oracle that shares no code with the enumerator: networkx checks each
    # class is connected, and VF2 finds no two classes isomorphic among those
    # with equal Weisfeiler-Lehman hashes.  With the OEIS counts, the class
    # set is exact.  Buckets hold class indices, and networkx graphs are
    # built again only inside buckets of two or more, so the order-9 run
    # never holds all 261,080 of them at once.
    nx = pytest.importorskip("networkx")

    def nx_graph(g):
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        return h

    classes = enumeration._classes(n)
    buckets = {}
    for i, g in enumerate(classes):
        h = nx_graph(g)
        assert nx.is_connected(h), to_graph6(g)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(i)
    for bucket in buckets.values():
        for h, k in combinations(map(nx_graph, (classes[i] for i in bucket)), 2):
            assert not nx.is_isomorphic(h, k)


@ORDER_9_ONLY
def test_order_9_count_and_digest():
    # Builds the private order-9 stream, above the public MAX_ORDER cap.
    # The count is OEIS A001349 and independent of this code.  The digest
    # came from an earlier search of this package (refined certificates, a
    # per-vertex column scan), so it cross-checks the current cell search on
    # every representative rather than standing as an outside oracle.
    graphs = enumeration._classes(9)
    assert len(graphs) == 261080
    forms = [to_graph6(g) for g in graphs]
    assert forms == sorted(forms)  # ascending graph6, as at order 8
    assert _digest(forms) == REPRESENTATIVE_DIGESTS[9]


def test_filtered_count_matches_bruteforce():
    def keep(adj):
        return min(len(v) for v in adj.values()) >= 2

    got = connected_graphs(5, delta_min=2)
    assert len(got) == _oracle_class_count(5, keep)
    assert all(min(g.degrees) >= 2 for g in got)


def test_filtered_specs_reuse_the_order(monkeypatch):
    unfiltered = enumerate_connected(EnumerationSpec(6))
    calls = []
    walk = enumeration._lex_min_last_columns

    def counted(*args):
        calls.append(args)
        return walk(*args)

    # The canonicity walk runs once per parent of every order built.
    monkeypatch.setattr(enumeration, "_lex_min_last_columns", counted)
    for spec in (EnumerationSpec(6, delta_min=2), EnumerationSpec(6, molecular=True)):
        assert enumerate_connected(spec) == [g for g in unfiltered if spec.admits(g)]
    assert calls == []


def test_filters_respected():
    for g in connected_graphs(6, delta_min=2):
        assert min(g.degrees) >= 2 and is_connected(g)
    mol = connected_graphs(6, molecular=True)
    assert all(max(g.degrees) <= MOLECULAR_MAX_DEGREE for g in mol)


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


def _with_relabelings(graphs, rng, copies):
    out = list(graphs)
    for g in graphs:
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(g.relabeled(perm))
    return out


def test_canonical_form_separates_refinement_hard_pairs():
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
        forms = [{canonical_form(h) for h in _with_relabelings([g], rng, 3)} for g in pair]
        assert all(len(f) == 1 for f in forms) and forms[0] != forms[1], forms


def _columns(g, order):
    """Upper-triangle columns of ``g`` with its vertices placed in ``order``."""
    edges = set(g.edges)
    return tuple(sum(1 << (k - 1 - i) for i, u in enumerate(order[:k])
                     if (min(u, v), max(u, v)) in edges)
                 for k, v in enumerate(order))


def _bruteforce_columns(g):
    """Minimal column sequence over all orderings, by trying every permutation."""
    return min(_columns(g, order) for order in permutations(range(g.n)))


def _columns_from_prefix(g, k):
    """``_canonical_columns`` of ``g`` over the orderings that begin with
    its vertices 0..k-1, in that order."""
    n = g.n
    parts = [(0, (1 << n) - 1)]
    for v in range(k):
        parts = _split(parts, g.adj[v], 1 << v, 1 << (n - 1 - v))
    return _canonical_columns(g.adj, n, _columns(g, range(n)), k, parts, _twins_below(g.adj))


def _small_cases(rng):
    """Random graphs and twin-rich graphs of order 2..6."""
    cases = [random_graph(rng, rng.randrange(2, 7)) for _ in range(60)]
    return cases + [g for n in range(2, 7) for g in _twin_rich(n)]


def test_canonical_columns_match_bruteforce():
    # From every placed prefix of one seeded relabeling: the minimum over
    # the orderings that extend it.
    rng = random.Random(17)
    for g in _small_cases(rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabeled(perm)
        for k in range(g.n):
            brute = min(_columns(g, tuple(range(k)) + rest)
                        for rest in permutations(range(k, g.n)))
            assert _columns_from_prefix(g, k) == brute, (g.edges, k)


def test_canonicity_test_accepts_exactly_the_lex_min_labelings():
    # Orderly generation keeps a candidate exactly when the search, started
    # tight against its own labeling, returns that labeling.  So on every
    # relabeling the search must return the minimum: its own columns for the
    # lex-min ones and smaller columns for the rest.
    for g in _small_cases(random.Random(21)):
        best = _bruteforce_columns(g)
        for perm in permutations(range(g.n)):
            h = g.relabeled(perm)
            assert _columns_from_prefix(h, 0) == best, (h.edges, best)


def test_walk_accepts_exactly_the_lex_min_last_columns():
    # Orderly generation keeps the last columns the walk accepts, so for a
    # canonical parent it must accept exactly the candidates whose own
    # labeling is lex-min, connected or not.  The parents are every class of
    # order <= 6, so they hold every twin-rich graph of those orders, whose
    # twin classes the candidates split.  Order 6 is needed: a walk that
    # leaves x's continuation to any vertex of x's cell, twin or not, is
    # wrong on two of its parents and on none below.
    for n in range(2, 8):
        cases = []
        for parent in enumeration._classes(n - 1, False):
            own = _columns(parent, range(n - 1))
            cols = range(own[-1] << 1, 1 << (n - 1))
            kept = enumeration._lex_min_last_columns(parent.adj, own, sum(1 << c for c in cols))
            for col in cols:
                edges = [(u, n - 1) for u in range(n - 1) if col >> (n - 2 - u) & 1]
                cases.append((Graph(n, parent.edges + tuple(edges)), kept >> col & 1))
        forms = _bruteforce_forms([g for g, _ in cases], n)
        for (g, kept), form in zip(cases, forms):
            assert kept == (to_graph6(g) == form), (g.edges, kept)


def test_every_level_matches_oeis_and_is_canonical():
    # Each order is built from every class of the order below, connected or
    # not, which the connected output never shows.  Distinct brute-force
    # minima and the OEIS count make each level exact.
    for n, want in enumerate(GRAPH_COUNTS, 1):
        level = enumeration._classes(n, False)
        forms = [to_graph6(g) for g in level]
        assert len(forms) == len(set(forms)) == want, n
        assert forms == _bruteforce_forms(level, n), n


@pytest.mark.parametrize("n", range(2, 9))
def test_stream_builds_each_order_as_cached(n):
    """The stream yields the cached order's classes in the same order, and
    so does the filtered stream for a spec (the CLI's unfiltered stream is
    checked with its labels in test_cli)."""
    assert tuple(enumeration._stream(n, False)) == enumeration._classes(n, False)
    spec = EnumerationSpec(n, delta_min=2, molecular=True)
    assert list(stream_connected(spec)) == enumerate_connected(spec)


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


def test_stream_population_labels_each_graph_with_its_graph6():
    """A file graph's label is its stripped line, which is the graph6 of the
    graph it decodes to, whatever the blanks around it and a trailing
    comment."""
    text = "# header\n  Bw  \n\tA_# P2\nDhc   # C5\n\n  Ch\t# a comment  \n"
    pairs = list(stream_population(text, "pop.g6"))
    assert [g6 for g6, _ in pairs] == ["Bw", "A_", "Dhc", "Ch"]
    for g6, g in pairs:
        assert g6 == to_graph6(g) == to_graph6(parse_graph6(g6))


def test_stream_population_fails_where_the_bad_line_is_read():
    """Parsing runs as the stream is read: the graphs before a malformed
    line come out first, and a file without a graph line fails at its end."""
    stream = stream_population("Bw\nA_\nBAD~LINE\n", "pop.g6")
    assert [g6 for g6, _ in (next(stream), next(stream))] == ["Bw", "A_"]
    with pytest.raises(GraphError, match=r"^pop\.g6, line 3: "):
        next(stream)
    with pytest.raises(GraphError, match=r"^pop\.g6: no graphs found$"):
        list(stream_population("# only a comment\n\n", "pop.g6"))


def test_parse_population_error_names_the_true_line():
    text = "# a population\n\nBw  # K_3\nBAD~LINE  # bad\n"
    with pytest.raises(GraphError) as err:
        list(stream_population(text, "pop.g6"))
    assert str(err.value) == "pop.g6, line 4: graph6: expected 2 characters for n=3, got 8"
