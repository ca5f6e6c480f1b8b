import dataclasses
import gc
import importlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from degbound import bounds as bounds_module
from degbound import cli
from degbound import graphs as graphs_module
from degbound import indices as indices_module
from degbound.bounds import (
    CHI,
    CONFIRMED_SHARP,
    DOMAIN_SKIPPED,
    EQUALITY,
    HOLDS,
    HOLDS_NOT_SHARP,
    PRECONDITION_SKIPPED,
    VACUOUS,
    VIOLATED,
    C3_FAMILY,
    COMPLETE_FAMILY,
    CYCLE_FAMILY,
    K14,
    P2_FAMILY,
    P3_FAMILY,
    REGULAR_FAMILY,
    SPANNING_STAR_FAMILY,
    T_STAR,
    BoundSpec,
    Coeff,
    EqualityFamily,
    GraphContext,
    audit,
    audit_all,
    builtin_catalog,
    catalog_by_id,
    evaluate_bound,
    graph_context,
    star_family,
)
from degbound.enumeration import _classes, connected_graphs
from degbound.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_star,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from degbound.indices import IndexId

from conftest import random_connected_graph

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_IDS = [
    "T1L", "T1U", "C1", "T2L", "T2U", "C2", "C3", "EXT-ZT",
    "T3L", "T3U", "C3b", "T4L", "T4U",
    "EXT-2a", "EXT-2b", "EXT-2c", "C4",
    "EXT-3(i)", "EXT-3(ii)", "EXT-3(iii)", "EXT-4", "C6",
    "T5-(5)L", "T5-(5)U", "T5-(6)L", "T5-(6)U", "T5-(7)L", "T5-(7)U",
    "T5-(8)L", "T5-(8)U", "T5-(9)L", "T5-(9)U",
    "C7-(10)", "C7-(11)", "C7-(12)", "C7-(13)", "C7-(14)",
    "T6L", "T6U", "C8",
    "T7-(17)L", "T7-(17)U", "T7-(18)L", "T7-(18)U", "T7-(19)L", "T7-(19)U",
    "T7-(20)L", "T7-(20)U", "T7-(21)L", "T7-(21)U",
    "C9-(22)", "C9-(23)", "C9-(24)", "C9-(25)", "C9-(26)",
]


# ---------------------------------------------------------------------------
# catalog shape


def test_catalog_covers_every_entry_once():
    ids = [b.bound_id for b in builtin_catalog()]
    assert ids == EXPECTED_IDS
    assert len(ids) == 55
    # each call hands out a fresh container
    builtin_catalog().clear()
    catalog_by_id().clear()
    assert [b.bound_id for b in builtin_catalog()] == EXPECTED_IDS
    assert list(catalog_by_id()) == EXPECTED_IDS


def test_every_entry_has_nonempty_anchor():
    for b in builtin_catalog():
        assert b.citation.strip()
        assert b.statement.strip()


def test_single_1536_over_343_coefficient():
    hits = []
    for b in builtin_catalog():
        if b.chain or b.lhs == CHI:
            continue
        value = b.coeff.ev(30, 5)
        if abs(value - 1536 / 343) < 1e-12 and abs(b.coeff.ev(9, 2) - value) < 1e-12:
            hits.append(b.bound_id)
    assert hits == ["T6L"]


def test_entry_t7_20_shape():
    b = catalog_by_id()["T7-(20)L"]
    assert b.delta_min == 2
    assert b.claimed_equality is CYCLE_FAMILY
    assert b.coeff.ev(10, 2) == 8.0


def test_entry_ext3i_shape():
    b = catalog_by_id()["EXT-3(i)"]
    assert b.strict
    assert b.degree_cap(1, 4) and not b.degree_cap(1, 5)
    assert b.exclusions == (K14, T_STAR)
    assert b.claimed_equality is None


def test_coefficient_expressions_evaluate():
    for b in builtin_catalog():
        if b.chain:
            continue
        for n, delta in ((3, 2), (9, 2), (9, 4), (30, 5)):
            value = b.coeff.ev(n, delta)
            assert value > 0 and math.isfinite(value)
        assert str(b.coeff)


def test_chi_only_on_upper_side():
    for b in builtin_catalog():
        if not b.chain and b.lhs == CHI:
            assert b.direction == "upper"
        if not b.chain:
            assert b.rhs != CHI


# ---------------------------------------------------------------------------
# evaluate_bound


def test_t1l_equality_on_p2():
    chk = evaluate_bound(catalog_by_id()["T1L"], path_graph(2))
    assert chk.verdict == EQUALITY
    assert chk.lhs_value == pytest.approx(1.0)
    assert chk.rhs_side_value == pytest.approx(1.0)


def test_t4u_equality_on_c3():
    chk = evaluate_bound(catalog_by_id()["T4U"], cycle_graph(3))
    assert chk.verdict == EQUALITY
    assert chk.lhs_value == pytest.approx(3 / math.sqrt(2), rel=1e-12)
    assert chk.rhs_side_value == pytest.approx(3 / math.sqrt(2), rel=1e-12)


def test_t7_21_upper_violated_on_k3():
    chk = evaluate_bound(catalog_by_id()["T7-(21)U"], complete_graph(3))
    assert chk.verdict == VIOLATED
    assert chk.lhs_value == pytest.approx(24.0, rel=1e-12)
    assert chk.rhs_side_value == pytest.approx(6.0, rel=1e-12)


def test_t6l_equality_on_s18():
    chk = evaluate_bound(catalog_by_id()["T6L"], star_graph(8))
    assert chk.verdict == EQUALITY
    assert chk.lhs_value == pytest.approx(4096 / 343, rel=1e-12)
    assert chk.rhs_side_value == pytest.approx((1536 / 343) * (8 / 3), rel=1e-12)


def test_precondition_skips():
    by_id = catalog_by_id()
    # delta >= 2 fails on the path
    assert evaluate_bound(by_id["C1"], path_graph(5)).verdict == PRECONDITION_SKIPPED
    # n >= 3 fails on P2
    assert evaluate_bound(by_id["T6L"], path_graph(2)).verdict == PRECONDITION_SKIPPED
    # disconnected graphs are never assessed
    g = Graph(4, [(0, 1), (2, 3)])
    assert evaluate_bound(by_id["T1L"], g).verdict == PRECONDITION_SKIPPED
    # excluded graphs are skipped
    assert evaluate_bound(by_id["EXT-3(i)"], star_graph(4)).verdict == PRECONDITION_SKIPPED
    assert evaluate_bound(by_id["EXT-3(i)"], double_star()).verdict == PRECONDITION_SKIPPED
    # non-molecular graph for the molecular variant
    assert evaluate_bound(by_id["EXT-3(i)"], complete_graph(6)).verdict == PRECONDITION_SKIPPED
    # spread cap: the star K_{1,6} has Delta - delta = 5 > 3
    assert evaluate_bound(by_id["EXT-3(ii)"], star_graph(6)).verdict == PRECONDITION_SKIPPED


def test_degree_cap_boundaries():
    by_id = catalog_by_id()

    def admitted(bid, g):
        return evaluate_bound(by_id[bid], g).verdict != PRECONDITION_SKIPPED

    # EXT-3(i) admits Delta <= 4: K5 (Delta 4) is checked, the wheel K1 + C5
    # (Delta 5) is skipped
    assert admitted("EXT-3(i)", complete_graph(5))
    wheel = Graph(6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)])
    assert max(wheel.degrees) == 5
    assert not admitted("EXT-3(i)", wheel)
    # EXT-3(ii) admits Delta - delta <= 3: K_{1,4} with one leaf extended
    # (spread 3) is checked, K_{1,5} (spread 4) is skipped
    assert admitted("EXT-3(ii)", Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]))
    assert not admitted("EXT-3(ii)", star_graph(5))
    # EXT-3(iii) admits Delta - delta <= (2*delta - 1)^2, which is 9 at delta = 2:
    # K1 joined to a triangle plus a 4-edge matching (Delta 11) is checked,
    # K1 joined to a 6-edge matching (Delta 12) is skipped
    hub = [(0, v) for v in range(1, 12)]
    spread_9 = Graph(12, hub + [(1, 2), (2, 3), (1, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
    spread_10 = Graph(13, hub + [(0, 12)] + [(v, v + 1) for v in range(1, 13, 2)])
    assert admitted("EXT-3(iii)", spread_9)
    assert not admitted("EXT-3(iii)", spread_10)


def test_domain_skip_azi_on_p2():
    # P2 passes no n_min=3 gate, so use a custom AZI bound at n_min=2
    b = BoundSpec("test-azi", "test", "AZI lower test", lhs=IndexId.AZI,
                  rhs=IndexId.R, coeff=catalog_by_id()["T2L"].coeff,
                  direction="lower")
    assert evaluate_bound(b, path_graph(2)).verdict == DOMAIN_SKIPPED


def test_precondition_soundness_never_judges_skipped():
    rng = random.Random(2)
    graphs = [random_connected_graph(rng, rng.randrange(2, 8)) for _ in range(60)]
    for b in builtin_catalog():
        for g in graphs:
            chk = evaluate_bound(b, g)
            if not b.preconditions_met(graph_context(g)):
                assert chk.verdict == PRECONDITION_SKIPPED


def test_checks_are_isomorphism_invariant():
    rng = random.Random(19)
    by_id = catalog_by_id()
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        for bid in ("T1U", "T4L", "T7-(21)U", "C9-(24)", "EXT-4"):
            a = evaluate_bound(by_id[bid], g)
            b = evaluate_bound(by_id[bid], h)
            assert (a.lhs_value, a.rhs_side_value, a.margin, a.verdict) == \
                   (b.lhs_value, b.rhs_side_value, b.margin, b.verdict)


# ---------------------------------------------------------------------------
# equality families


def test_check_equality_family_examples():
    by_id = catalog_by_id()

    def in_family(bid, g):
        b = by_id[bid]
        return b.claimed_equality is not None and b.claimed_equality.contains(graph_context(g))

    assert in_family("C1", cycle_graph(6))
    assert in_family("T1U", complete_graph(5))
    assert not in_family("T6L", star_graph(7))
    assert in_family("T6L", star_graph(8))
    assert in_family("T7-(19)L", star_graph(5))
    assert not in_family("EXT-2c", cycle_graph(4))


def test_family_membership_is_structural():
    def contains(family, g):
        return family.contains(graph_context(g))

    assert contains(REGULAR_FAMILY, complete_bipartite(3, 3))
    assert not contains(REGULAR_FAMILY, star_graph(3))
    assert contains(C3_FAMILY, cycle_graph(3))
    assert not contains(C3_FAMILY, cycle_graph(4))
    assert contains(star_family(4), star_graph(4))
    assert not contains(star_family(4), star_graph(5))
    assert contains(SPANNING_STAR_FAMILY, star_graph(6))
    assert contains(P2_FAMILY, path_graph(2))
    assert contains(P3_FAMILY, path_graph(3))
    assert contains(K14, star_graph(4))
    assert not contains(K14, star_graph(5))
    assert contains(T_STAR, double_star())
    assert not contains(T_STAR, star_graph(7))


# claimed equality family label -> catalog ids, as the reports print it
FAMILY_LABELS = {
    "P2": ["T1L", "T2L", "T3L", "T5-(5)L", "T5-(6)L", "T5-(7)L", "T5-(8)L"],
    "P3": ["C3", "EXT-ZT", "T5-(9)L", "T7-(21)L"],
    "K_n": ["T1U", "T2U", "T3U", "T4L", "EXT-4", "C6", "T5-(5)U", "T5-(6)U",
            "T5-(7)U", "T5-(8)U", "T5-(9)U", "T6U", "T7-(17)U", "T7-(18)U",
            "T7-(19)U", "T7-(20)U", "T7-(21)U"],
    "C_n": ["EXT-2b", "T7-(20)L"],
    "C_3": ["T4U"],
    "S_{1,8}": ["T6L"],
    "S_{1,7}": ["T7-(17)L"],
    "S_{1,5}": ["T7-(18)L"],
    "S_{1,n-1}": ["T7-(19)L"],
    "delta-regular": ["C1", "C2", "C3b", "EXT-2a", "C7-(10)", "C7-(11)", "C7-(12)",
                      "C7-(13)", "C7-(14)", "C8", "C9-(22)", "C9-(23)", "C9-(24)",
                      "C9-(25)", "C9-(26)"],
    None: ["EXT-2c", "C4", "EXT-3(i)", "EXT-3(ii)", "EXT-3(iii)"],
}


def test_family_and_exclusion_labels():
    catalog = builtin_catalog()
    got = {b.bound_id: b.claimed_equality.label if b.claimed_equality else None
           for b in catalog}
    assert got == {bid: label for label, ids in FAMILY_LABELS.items() for bid in ids}
    assert len(got) == 55
    exclusions = {b.bound_id: [f.label for f in b.exclusions]
                  for b in catalog if b.exclusions}
    assert exclusions == {"EXT-3(i)": ["K_{1,4}", "T*"],
                          "EXT-3(ii)": ["K_{1,4}", "T*"]}


# ---------------------------------------------------------------------------
# audits


def test_audit_t2l_sharp_only_at_p2(population_2_7):
    report = audit(catalog_by_id()["T2L"], population_2_7)
    assert report.verdict == CONFIRMED_SHARP
    assert report.equality_witnesses == ["A_"]
    assert report.counts["violated"] == 0
    assert report.family_mismatches["equality_not_in_family"] == []
    assert report.family_mismatches["family_without_equality"] == []


def test_audit_t7_21_upper_violated(population_2_7):
    report = audit(catalog_by_id()["T7-(21)U"], population_2_7)
    assert report.verdict == VIOLATED
    assert "Bw" in report.violation_witnesses
    assert report.counts["violated"] == len(report.violation_witnesses)


def test_audit_c9_26_not_sharp_with_cycle_margin(population_2_7):
    report = audit(catalog_by_id()["C9-(26)"], population_2_7)
    assert report.verdict == HOLDS_NOT_SHARP
    assert report.equality_witnesses == []
    # cycles: AZI = 8n against coefficient*(n/4) = 2n
    for n in (3, 5, 7):
        g = cycle_graph(n)
        chk = evaluate_bound(catalog_by_id()["C9-(26)"], g)
        assert chk.lhs_value == pytest.approx(8 * n, rel=1e-12)
        assert chk.rhs_side_value == pytest.approx(2 * n, rel=1e-12)


def test_evaluate_bound_above_graph6_order_is_a_verdict():
    """A graph too large for graph6 is still evaluated; its label is None."""
    chk = evaluate_bound(catalog_by_id()["T1U"], complete_graph(100))
    assert chk.verdict == EQUALITY
    assert chk.graph6 is None


def test_audit_above_graph6_order_is_an_error():
    """The audit lists witnesses by graph6 string, so it cannot label such a
    graph, and refuses it even where no report would name it: C1 skips the
    path (delta = 1)."""
    with pytest.raises(GraphError, match="graph6 short form encodes n <= 62"):
        audit(catalog_by_id()["T1U"], [cycle_graph(70)])
    with pytest.raises(GraphError, match="graph6 short form encodes n <= 62"):
        audit(catalog_by_id()["C1"], [path_graph(70)])


def test_audit_vacuous_when_no_graph_qualifies():
    report = audit(catalog_by_id()["T4L"], [path_graph(2)])
    assert report.verdict == "vacuous"
    assert report.counts["checked"] == 0


def test_audit_counts_are_consistent(full_reports):
    for report in full_reports.values():
        c = report.counts
        assert c["checked"] == c["holds"] + c["equality"] + c["violated"]
        assert (report.verdict == VIOLATED) == bool(report.violation_witnesses)


@pytest.fixture(scope="module")
def keys_2_7(population_2_7):
    """The final key table of the catalog's audit of the graphs of order
    2..7, as columns: the partition keys, split by exact chi where the
    reports of EXT-4 and C6 need it (none is, at these orders)."""
    cols = bounds_module._Columns(
        bounds_module._key_groups((to_graph6(g), g) for g in population_2_7))
    bounds_module._exact_chi(builtin_catalog(), cols)
    return cols


def _margin_gap(bounds, cols):
    """The largest relative margin |margin| / max(1, |lhs|) of an equality and
    the smallest of any other checked verdict, over ``bounds`` on the keys of
    the columns ``cols``.  Chains are left out: they fold their links'
    verdicts."""
    equality, other = [0.0], [math.inf]
    for b in bounds:
        if b.chain:
            continue
        checked = bounds_module._evaluate(b, cols)
        equal = set(checked.equal)
        lhs_col, rhs_col = (cols.sides[at] for at in b.sides)
        for i in checked.live.keys:
            lhs = lhs_col[i]
            product = b.coeff.ev(cols.columns["n"][i], cols.columns["delta"][i]) * rhs_col[i]
            margin = product - lhs if b.direction == "upper" else lhs - product
            rel = abs(margin) / max(1.0, abs(lhs))
            (equality if i in equal else other).append(rel)
    return max(equality), min(other)


def test_verdicts_clear_the_fixed_tolerance(keys_2_7):
    """Every verdict is decided by float rounding or by a wide margin, never
    by DEFAULT_TOL itself: the gap spans orders of magnitude on both sides."""
    assert len(keys_2_7.ctxs) == 728
    equality, other = _margin_gap(builtin_catalog(), keys_2_7)
    assert equality <= 1e-14 < bounds_module.DEFAULT_TOL < 1e-6 <= other, (equality, other)


@pytest.mark.parametrize("shift", [5e-10, 2e-9])
def test_a_margin_near_the_tolerance_breaks_the_gap(keys_2_7, shift):
    """A catalog entry whose margins land near the tolerance, on either side,
    fails the gap check above instead of passing with a guessed verdict."""
    b = catalog_by_id()["T1L"]
    near = dataclasses.replace(b, coeff=Coeff("n", lambda n: b.coeff.fn(n) * (1 - shift)))
    equality, other = _margin_gap([near], keys_2_7)
    assert not (equality <= 1e-14 and other >= 1e-6), (equality, other)


def test_the_chi_upper_bound_decides_the_chi_entries_on_every_connected_partition():
    """On each connected partition of order 2..8, the least of
    ``chromatic_upper`` and ``welsh_powell_upper``, taken as the chi of all
    its graphs, decides EXT-4 and C6 as the pins do.  Equality falls on the
    K_n keys alone (EXT-4 at n = 2..8, C6 at n = 3..8, where delta >= 2) and
    every other margin clears the tolerance, so the bound, being at or above
    chi, proves both entries on every graph of every other partition."""
    chi_bounds = [catalog_by_id()[bid] for bid in ("EXT-4", "C6")]
    keys, equal = 0, []
    for n in range(2, 9):
        groups = {}
        for g in _classes(n, False):
            if graphs_module.is_connected(g):
                key = bounds_module._partition(g)
                counts = key[4]
                chi = min(graphs_module.chromatic_upper(counts),
                          graphs_module.welsh_powell_upper(counts))
                groups.setdefault(GraphContext(*key, chi), []).append(to_graph6(g))
        cols = bounds_module._Columns(groups)
        keys += len(cols.ctxs)
        pins = json.loads((ROOT / "src" / "degbound" / "data" /
                           f"expected_enumerate_n{n}.json").read_text(encoding="utf-8"))
        for b in chi_bounds:
            report = bounds_module._fold(b, cols, f"enumerate(n={n})")
            assert report.verdict == pins["verdicts"][b.bound_id], (n, b.bound_id)
            assert report.counts["violated"] == 0
            assert not any(report.family_mismatches.values()), (n, b.bound_id)
            equal += [(b.bound_id, n, g6) for g6 in report.equality_witnesses]
        equality, other = _margin_gap(chi_bounds, cols)
        assert equality <= 1e-14 < bounds_module.DEFAULT_TOL < 1e-6 <= other, (n, equality, other)
    assert keys == 5_425
    assert sorted(equal) == sorted(
        [("EXT-4", n, to_graph6(complete_graph(n))) for n in range(2, 9)]
        + [("C6", n, to_graph6(complete_graph(n))) for n in range(3, 9)])


def _conjunction(verdicts):
    """A chain's verdict from its links' verdicts: any skip makes it
    unassessable (a precondition skip first), otherwise any violated link
    breaks it."""
    for verdict in (PRECONDITION_SKIPPED, DOMAIN_SKIPPED, VIOLATED):
        if verdict in verdicts:
            return verdict
    return HOLDS


def test_chain_verdict_matches_conjunction(populations):
    """C4, and a chain of bounds outside the catalog, one of them a chain
    itself, evaluate as the conjunction of their links and audit as the
    fold of those evaluations."""
    custom = {b.bound_id: b for b in _custom_bounds()}
    outside = BoundSpec("test-outside-chain", "test", "three bounds outside the catalog",
                        chain=(custom["test-upper"], custom["test-azi"],
                               custom["test-broken-chain"]))
    graphs = populations[5] + populations[6]
    for chain in (catalog_by_id()["C4"], outside):
        for g in graphs:
            whole = evaluate_bound(chain, g)
            parts = [evaluate_bound(link, g) for link in chain.chain]
            assert whole.verdict == _conjunction([p.verdict for p in parts])
            # a checked chain's margin is the slack of the tightest link that
            # holds with one
            held = [p.margin for p in parts if p.verdict == HOLDS and p.margin is not None]
            checked = whole.verdict in (HOLDS, VIOLATED)
            assert whole.margin == (min(held) if held and checked else None)
        assert audit(chain, graphs).to_dict() == _reference_report(chain, graphs, "population")
    verdicts = Counter(evaluate_bound(outside, g).verdict for g in graphs)
    assert verdicts[HOLDS] and verdicts[VIOLATED] and verdicts[PRECONDITION_SKIPPED]


def test_chain_edge_cases():
    """The custom chain of EXT-2a and EXT-4 states no hypothesis of its own:
    a link's failed hypothesis skips it on precondition, a link's undefined
    side on domain, and where both links are attained it holds with no
    margin."""
    chain = next(b for b in _custom_bounds() if b.bound_id == "test-chain")
    p4 = evaluate_bound(chain, path_graph(4))  # EXT-2a needs delta >= 2
    assert p4.verdict == PRECONDITION_SKIPPED and p4.margin is None
    c13 = evaluate_bound(chain, cycle_graph(13))  # chi is undefined above 12
    assert c13.verdict == DOMAIN_SKIPPED and c13.margin is None
    k5 = evaluate_bound(chain, complete_graph(5))  # H = R and chi = 2H
    assert (k5.verdict, k5.margin) == (HOLDS, None)
    c5 = evaluate_bound(chain, cycle_graph(5))  # H = R; 2H - chi = 5 - 3
    assert (c5.verdict, c5.margin) == (HOLDS, 2.0)
    for check in (p4, c13, k5, c5):
        assert (check.lhs_value, check.rhs_side_value) == (None, None)
    assert audit(chain, [complete_graph(5)]).min_margin is None
    assert audit(chain, [complete_graph(5), cycle_graph(5)]).min_margin == {
        "value": 2.0, "witness_graph6": "Dhc"}

    # a violated chain key still reports the slack of the link that holds
    broken = next(b for b in _custom_bounds() if b.bound_id == "test-broken-chain")
    k4 = evaluate_bound(broken, complete_graph(4))  # X - R = 6/sqrt(6) - 2
    assert k4 == ("test-broken-chain", "C~", None, None, 0.4494897427831783, VIOLATED)
    report = audit(broken, [complete_graph(4), complete_graph(5), cycle_graph(5)])
    assert report.verdict == VIOLATED
    assert (report.counts["checked"], report.counts["holds"],
            report.counts["violated"]) == (3, 1, 2)
    assert report.min_margin == {"value": 13.333333333333329, "witness_graph6": "Dhc"}
    assert report.violation_witnesses == ["C~", "D~{"]


def test_evaluate_bound_evaluates_each_link_once(monkeypatch):
    """A chain's check reads its margin from the passes of its links that
    its own pass made: C4 on C_5 is five passes (C4 and its four links),
    and a chain that holds C4 six, at any depth one pass per bound."""
    c4 = catalog_by_id()["C4"]
    around = BoundSpec("test-around-c4", "test", "C4 as one link", chain=(c4,))
    evaluated = []
    evaluate = bounds_module._evaluate

    def counted(b, cols):
        evaluated.append(b.bound_id)
        return evaluate(b, cols)

    monkeypatch.setattr(bounds_module, "_evaluate", counted)
    links = ["EXT-2a", "EXT-2b", "EXT-2c", "T4U"]
    for chain, passes in ((c4, ["C4", *links]), (around, ["test-around-c4", "C4", *links])):
        evaluated.clear()
        check = evaluate_bound(chain, cycle_graph(5))
        assert check == (chain.bound_id, "Dhc", None, None, 0.21446609406726225, HOLDS)
        assert evaluated == passes


def test_a_chain_holds_bounds_not_ids():
    """C4 holds the catalog's own entries, and a chain link that is not a
    bound, a catalog id among them, is a ``ValueError`` naming the chain and
    the link as the chain is built, before any population exists."""
    by_id = catalog_by_id()
    links = by_id["C4"].chain
    assert [link.bound_id for link in links] == ["EXT-2a", "EXT-2b", "EXT-2c", "T4U"]
    assert all(link is by_id[link.bound_id] for link in links)
    for chain in (("EXT-2a",), (by_id["EXT-2a"], "NOPE"), (None,)):
        with pytest.raises(ValueError) as err:
            BoundSpec("X", "c", "s", chain=chain)
        assert str(err.value) == f"chain 'X' holds {chain[-1]!r}, not a BoundSpec"


def test_ext2_chain_structure(populations):
    """H = R exactly on regular graphs, R = X exactly on cycles, X < ABC."""
    by_id = catalog_by_id()
    for n in range(3, 8):
        for g in populations[n]:
            if min(g.degrees) < 2:
                continue
            ha = evaluate_bound(by_id["EXT-2a"], g)
            assert (ha.verdict == EQUALITY) == (len(set(g.degrees)) == 1)
            rx = evaluate_bound(by_id["EXT-2b"], g)
            assert (rx.verdict == EQUALITY) == (set(g.degrees) == {2})  # a cycle
            xa = evaluate_bound(by_id["EXT-2c"], g)
            assert xa.verdict == HOLDS and xa.margin > 1e-9


def test_strict_equality_is_surfaced_not_passed():
    # a deliberately wrong strict claim: R < H on regular graphs is attained
    b = BoundSpec("test-strict", "test", "strict equality surfacing",
                  lhs=IndexId.R, rhs=IndexId.H,
                  coeff=catalog_by_id()["T2L"].coeff, direction="upper",
                  strict=True)
    report = audit(b, [cycle_graph(5), path_graph(3)])
    assert report.strict_conflicts == ["Dhc"]
    chk = evaluate_bound(b, cycle_graph(5))
    assert chk.verdict == EQUALITY


def test_bound_refuses_a_direction_other_than_lower_or_upper():
    # The audit read any direction but "upper" as lower, and the proof grids
    # any but "lower" as upper: a misspelt T2U was violated on P4 by one and
    # concordant by the other.
    t2u = catalog_by_id()["T2U"]
    for bad in ("Upper", "", None):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(t2u, direction=bad)
        assert str(err.value) == f"direction must be 'lower' or 'upper', got {bad!r}"
    assert dataclasses.replace(t2u, direction="lower").direction == "lower"


def test_bound_refuses_malformed_sides_and_coefficients():
    # Each of these was built: the audit then failed on a missing
    # coefficient (AttributeError) or side (ValueError), audited chi as a
    # comparison side that concordance could not read (KeyError), or, for a
    # chain, ignored the sides and coefficient it was given.
    by_id = catalog_by_id()
    t2u, c4 = by_id["T2U"], by_id["C4"]
    cases = [
        (t2u, {"coeff": None}, "coeff must be a Coeff, got None"),
        (t2u, {"coeff": t2u.coeff.fn}, f"coeff must be a Coeff, got {t2u.coeff.fn!r}"),
        (t2u, {"rhs": None}, "rhs must be an index, got None"),
        (t2u, {"rhs": CHI}, "rhs must be an index, got 'CHI'"),
        (t2u, {"lhs": None}, "lhs must be an index or CHI, got None"),
        (t2u, {"lhs": "GA"}, "lhs must be an index or CHI, got 'GA'"),
        (c4, {"lhs": IndexId.GA}, f"a chain takes no lhs, got {IndexId.GA!r}"),
        (c4, {"rhs": IndexId.R}, f"a chain takes no rhs, got {IndexId.R!r}"),
        (c4, {"coeff": t2u.coeff}, f"a chain takes no coeff, got {t2u.coeff!r}"),
    ]
    for base, change, message in cases:
        with pytest.raises(ValueError) as err:
            dataclasses.replace(base, **change)
        assert str(err.value) == message, change
    assert dataclasses.replace(t2u, lhs=CHI).sides == (7, 0)
    link = by_id["EXT-2a"]
    assert dataclasses.replace(c4, chain=(link,)).chain == (link,)


def test_coeff_refuses_a_variable_other_than_n_or_delta():
    # Any variable but "delta" was read as n: C2 on C6 went from equality
    # to violated under Coeff("Delta", ...).
    fn = catalog_by_id()["C2"].coeff.fn
    for bad in ("Delta", "N", ""):
        with pytest.raises(ValueError) as err:
            Coeff(bad, fn)
        assert str(err.value) == f"coefficient variable must be 'n' or 'delta', got {bad!r}"
    assert evaluate_bound(catalog_by_id()["C2"], cycle_graph(6)).verdict == EQUALITY


def test_report_json_schema(full_reports):
    doc = full_reports["T6L"].to_dict()
    assert doc["schema_version"] == 1
    for key in ("bound_id", "citation", "population", "counts", "min_margin",
                "equality_witnesses", "violation_witnesses", "verdict"):
        assert key in doc
    assert set(doc["counts"]) == {"checked", "skipped", "holds", "equality",
                                  "violated"}
    if doc["min_margin"] is not None:
        assert set(doc["min_margin"]) == {"value", "witness_graph6"}
    json.dumps(doc)  # serializable


@pytest.mark.parametrize("seed", [1, 2])
def test_report_dict_equals_a_deep_copy(full_reports, monkeypatch, seed):
    """``to_dict`` hands out the report's own containers; the dict, its key
    order and its json bytes are those of a deep copy through
    ``dataclasses.asdict``, on every report of the order 2..7 audit and of a
    seeded benchmark ``repeats`` population."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    lines, _ = importlib.import_module("population").generate("repeats", seed, size=500)
    repeats = audit_all(builtin_catalog(), [parse_graph6(s) for s in lines],
                        population="repeats")
    for r in [*full_reports.values(), *repeats.values()]:
        doc, want = r.to_dict(), {"schema_version": 1, **dataclasses.asdict(r)}
        assert doc == want and list(doc) == list(want), r.bound_id
        assert json.dumps(doc, indent=2) == json.dumps(want, indent=2), r.bound_id


def _reference_report(b, graphs, population):
    """The report ``audit_all`` must produce, folded graph by graph from
    ``evaluate_bound`` on a fresh context.  Family and exclusion membership
    come from the predicates on a context of their own, not from the audit's
    member sets."""
    counts = dict.fromkeys(("checked", "skipped", "holds", "equality", "violated"), 0)
    equality, violation, eq_not_family, family_not_eq, margins = [], [], [], [], []
    for g in graphs:
        chk = evaluate_bound(b, g)
        ctx = graph_context(g)
        in_family = b.claimed_equality is not None and b.claimed_equality.contains(ctx)
        if any(f.contains(ctx) for f in b.exclusions):
            assert chk.verdict == PRECONDITION_SKIPPED, (b.bound_id, chk.graph6)
        if chk.verdict in (PRECONDITION_SKIPPED, DOMAIN_SKIPPED):
            counts["skipped"] += 1
            continue
        counts["checked"] += 1
        if chk.verdict == EQUALITY:
            counts["equality"] += 1
            equality.append(chk.graph6)
            # a bound that claims no equality family has none to mismatch
            if b.claimed_equality is not None and not in_family:
                eq_not_family.append(chk.graph6)
            continue
        if in_family:
            family_not_eq.append(chk.graph6)
        if chk.verdict == VIOLATED:
            counts["violated"] += 1
            violation.append(chk.graph6)
        else:
            counts["holds"] += 1
            if chk.margin is not None:
                margins.append((chk.margin, chk.graph6))
    if counts["violated"]:
        verdict = VIOLATED
    elif not counts["checked"]:
        verdict = VACUOUS
    elif counts["equality"]:
        verdict = CONFIRMED_SHARP
    else:
        verdict = HOLDS_NOT_SHARP
    low = min(margins) if margins else None
    return {
        "schema_version": 1,
        "bound_id": b.bound_id,
        "citation": b.citation,
        "population": population,
        "tolerance": bounds_module.DEFAULT_TOL,
        "counts": counts,
        "min_margin": {"value": low[0], "witness_graph6": low[1]} if low else None,
        "equality_witnesses": sorted(equality),
        "violation_witnesses": sorted(violation),
        "verdict": verdict,
        "equality_family": b.claimed_equality.label if b.claimed_equality else None,
        "family_mismatches": {
            "equality_not_in_family": sorted(eq_not_family),
            "family_without_equality": sorted(family_not_eq),
        },
        "strict_conflicts": sorted(equality) if b.strict else [],
    }


def test_audit_matches_per_graph_reference():
    """Graphs sharing (n, edge-degree partition) but not connectivity (C6 and
    2*C3) or chi (K_{3,3} and the prism), relabeled copies, K1, a member of
    every family and exclusion, graphs above the chi cap and bounds outside
    the catalog all fold exactly as a graph-by-graph audit does."""
    rng = random.Random(20140517)
    graphs = []
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(4, 9))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(g.relabeled(perm))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    k33 = complete_bipartite(3, 3)
    graphs += [cycle_graph(6), two_triangles, prism, k33,
               prism.relabeled([5, 3, 1, 0, 2, 4]), Graph(1), complete_graph(4),
               star_graph(5), double_star(), path_graph(2), path_graph(3)]
    # one member of every catalog family and exclusion, so a membership memo
    # shared across keys, or keyed by bound instead of by family, shows:
    # P2, P3, C3, C_n, K_n, S_{1,4} = K_{1,4}, S_{1,5}, S_{1,7}, S_{1,8},
    # a delta-regular non-cycle (the prism) and T* (double_star)
    graphs += [cycle_graph(3), cycle_graph(7), complete_graph(6), star_graph(4),
               star_graph(7), star_graph(8), path_graph(2), path_graph(3), double_star()]
    # above CHROMATIC_CAP: the key reads no chi and the chi side is domain-skipped
    c13 = cycle_graph(13)
    graphs += [c13, c13.relabeled([(5 * v) % 13 for v in range(13)]), complete_graph(13)]
    rng.shuffle(graphs)
    bounds = builtin_catalog() + _custom_bounds()
    # alone, K_{3,3} (chi 2) and the prism (chi 3) decide the chi bounds' margins
    for population in (graphs, [k33, prism], [prism, k33]):
        reports = audit_all(bounds, population, population="mixed")
        assert list(reports) == [b.bound_id for b in bounds]
        for b in bounds:
            want = _reference_report(b, population, "mixed")
            assert reports[b.bound_id].to_dict() == want, b.bound_id


def _custom_bounds():
    """Bounds outside the catalog that reach the fold's other paths."""
    by_id = catalog_by_id()
    return [
        BoundSpec("test-upper", "test", "R <= (n-1)*H, not in the catalog",
                  lhs=IndexId.R, rhs=IndexId.H, coeff=by_id["T2U"].coeff,
                  direction="upper", strict=True,
                  claimed_equality=REGULAR_FAMILY),
        BoundSpec("test-chain", "test", "a chain with a link on chi",
                  chain=(by_id["EXT-2a"], by_id["EXT-4"])),
        # K_n violates T7-(21)U, which no catalog chain has as a link
        BoundSpec("test-broken-chain", "test", "R <= X and T7-(21)U",
                  chain=(by_id["EXT-2b"], by_id["T7-(21)U"])),
        # equal hypotheses but for an exclusion labelled alike, so sharing
        # hypotheses or families by label instead of by test shows
        BoundSpec("test-not-cycle", "test", "H <= R off cycles",
                  lhs=IndexId.H, rhs=IndexId.R, coeff=by_id["EXT-2a"].coeff,
                  direction="upper", exclusions=(EqualityFamily("X", CYCLE_FAMILY.contains),),
                  claimed_equality=EqualityFamily("X", COMPLETE_FAMILY.contains)),
        BoundSpec("test-not-complete", "test", "H <= R off complete graphs",
                  lhs=IndexId.H, rhs=IndexId.R, coeff=by_id["EXT-2a"].coeff,
                  direction="upper", exclusions=(EqualityFamily("X", COMPLETE_FAMILY.contains),),
                  claimed_equality=EqualityFamily("X", CYCLE_FAMILY.contains)),
        # every catalog AZI bound needs n >= 3; this one reads AZI on P2
        BoundSpec("test-azi", "test", "4*M2* <= AZI from n = 2",
                  lhs=IndexId.AZI, rhs=IndexId.M2STAR, coeff=by_id["T7-(21)L"].coeff,
                  claimed_equality=P3_FAMILY),
        # AZI on the right: attained on P3, violated on K_{1,3}, undefined on
        # P2 (AZI) and above order 12 (chi)
        BoundSpec("test-chi-azi", "test", "chi <= AZI/8 from n = 2",
                  lhs=CHI, rhs=IndexId.AZI, coeff=Coeff("n", lambda n: 1 / 8),
                  direction="upper", claimed_equality=P3_FAMILY),
        # EXT-2a with no equality family: attained, with nothing to mismatch
        BoundSpec("test-no-family", "test", "H <= R for delta >= 2, no equality claimed",
                  lhs=IndexId.H, rhs=IndexId.R, coeff=by_id["EXT-2a"].coeff,
                  direction="upper", delta_min=2),
    ]


def _disjoint_union(g, h):
    return Graph(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def _seeded_population(seed):
    """Random connected graphs, each present one to three times under random
    relabelings, and disconnected graphs, together with P2 (AZI undefined),
    two relabelings of an order-13 cycle (chi undefined), a violation of
    T7-(21)U (K_n), equality cases (K_n, C_n, a star) and K_{3,3} with the
    prism (one partition, two keys), in a shuffled order."""
    rng = random.Random(seed)

    def relabeled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.relabeled(perm)

    graphs = []
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(3, 9))
        graphs += [relabeled(g) for _ in range(rng.randint(1, 3))]
    for _ in range(6):
        graphs.append(_disjoint_union(random_connected_graph(rng, rng.randint(1, 5)),
                                      random_connected_graph(rng, rng.randint(1, 5))))
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    graphs += [path_graph(2), relabeled(cycle_graph(13)), relabeled(cycle_graph(13)),
               complete_graph(rng.randint(3, 7)), relabeled(cycle_graph(rng.randint(3, 8))),
               star_graph(rng.randint(2, 8)), relabeled(prism), complete_bipartite(3, 3)]
    rng.shuffle(graphs)
    return graphs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_audit_matches_reference_fold_on_seeded_populations(seed):
    """``audit_all`` gives, bit for bit, the reports that a fold of
    per-graph ``evaluate_bound`` calls gives, on seeded populations with
    repeated keys, equality and violation keys, undefined AZI and chi,
    disconnected graphs and ties at the minimum margin, and on an empty
    population, where every bound is vacuous."""
    bounds = builtin_catalog() + _custom_bounds()
    graphs = _seeded_population(seed)
    reports = audit_all(bounds, graphs, population="seeded")
    verdicts, tied = {}, []
    for b in bounds:
        want = _reference_report(b, graphs, "seeded")
        assert reports[b.bound_id].to_dict() == want, b.bound_id
        checks = [evaluate_bound(b, g) for g in graphs]
        verdicts[b.bound_id] = {chk.verdict for chk in checks}
        held = sorted({(chk.margin, chk.graph6) for chk in checks
                       if chk.verdict == HOLDS and chk.margin is not None})
        if len(held) > 1 and held[0][0] == held[1][0]:
            tied.append(b.bound_id)
    assert VIOLATED in verdicts["T7-(21)U"] and EQUALITY in verdicts["T2U"]
    assert DOMAIN_SKIPPED in verdicts["test-azi"] and DOMAIN_SKIPPED in verdicts["EXT-4"]
    assert PRECONDITION_SKIPPED in verdicts["T1L"]  # the disconnected graphs
    assert tied  # two graph6 strings at some bound's minimum margin

    empty = audit_all(bounds, [], population="empty")
    for b in bounds:
        assert empty[b.bound_id].to_dict() == _reference_report(b, [], "empty")
        assert empty[b.bound_id].verdict == VACUOUS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_audit_of_each_bound_alone_matches_the_full_audit(seed):
    """Each bound audited alone, C4 and its links too, gives the report the
    audit of the catalog and the custom bounds gives it, so no hypothesis
    column, family-member set or link pass that bounds share changes a
    report with the bound set (a ``--bounds`` subset against the full
    audit)."""
    bounds = builtin_catalog() + _custom_bounds()
    graphs = _seeded_population(seed)
    reports = audit_all(bounds, graphs, population="seeded")
    assert "C4" in reports
    for b in bounds:
        alone = audit_all([b], graphs, population="seeded")
        assert alone[b.bound_id].to_dict() == reports[b.bound_id].to_dict(), b.bound_id


def test_audit_hypotheses_match_preconditions_met(population_2_7):
    """The audit's met keys, decided once per (connected, n, delta, Delta)
    and then by exclusion, are the keys ``preconditions_met`` accepts, for
    every bound: over every connected graph of order 2..7 (K_{1,4} among
    them), T*, and disconnected graphs, one of them 3-regular, both on the
    partition keys and once a lower bound on chi has split them by exact
    chi."""
    two_k4 = Graph(8, [(u + s, v + s) for s in (0, 4) for u in range(4) for v in range(u + 1, 4)])
    graphs = [*population_2_7, double_star(), Graph(3, [(0, 1)]), two_k4]
    cols = bounds_module._Columns(bounds_module._key_groups((to_graph6(g), g) for g in graphs))
    partitions = len(cols.ctxs)
    for split in (False, True):
        if split:
            bounds_module._exact_chi(builtin_catalog() + [_chi_lower()], cols)
            assert len(cols.ctxs) > partitions
        for b in builtin_catalog():
            met = [b.preconditions_met(ctx) for ctx in cols.ctxs]
            assert bounds_module._live(b, cols).met == met, b.bound_id
        assert sum(not ctx.connected for ctx in cols.ctxs) == 2


def test_audit_evaluates_each_bound_once_per_key(monkeypatch):
    """Ten relabelings each of the prism and of K_{3,3} make one partition
    key, which EXT-4 and C6 each evaluate once at its chi bound (4); their
    minimum margins need exact chi, so it splits into two keys (chi 3 and
    2).  Each of the 55 catalog bounds, EXT-4 and C6 too, is then evaluated
    exactly once over those two keys, and C4's four links once more for C4.
    All keys share (connected, n, delta, Delta), so each distinct hypothesis
    set is tested exactly once on the final table, EXT-4's and C6's once
    more on the partition key, and ``preconditions_met`` not at all."""
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    rng = random.Random(10)
    graphs = []
    for g in (prism, complete_bipartite(3, 3)):
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            graphs.append(g.relabeled(perm))
    evaluated = []
    evaluate = bounds_module._evaluate

    def counted(b, cols):
        evaluated.append((b.bound_id, len(cols.weights)))
        return evaluate(b, cols)

    def hypothesis_set(b):
        return (b.n_min, b.delta_min, b.degree_cap,
                tuple(f.contains for f in b.exclusions))

    tested = []
    admits = BoundSpec.admits

    def counted_hypotheses(b, *shape):
        tested.append((hypothesis_set(b), shape))
        return admits(b, *shape)

    def uncalled(b, ctx):
        raise AssertionError("the audit decides the hypotheses per shape, not per key")

    monkeypatch.setattr(bounds_module, "_evaluate", counted)
    monkeypatch.setattr(BoundSpec, "admits", counted_hypotheses)
    monkeypatch.setattr(BoundSpec, "preconditions_met", uncalled)
    reports = audit_all(builtin_catalog(), graphs)
    links = [link.bound_id for link in catalog_by_id()["C4"].chain]
    assert links == ["EXT-2a", "EXT-2b", "EXT-2c", "T4U"]
    chi_bounds = [catalog_by_id()[bid] for bid in ("EXT-4", "C6")]
    assert len(evaluated) == 61
    assert sorted(evaluated) == sorted([(bid, 2) for bid in EXPECTED_IDS + links]
                                       + [(b.bound_id, 1) for b in chi_bounds])
    hypothesis_sets = {hypothesis_set(b) for b in builtin_catalog()}
    assert len(hypothesis_sets) == 7
    shape = (True, 6, 3, 3)
    assert Counter(tested) == Counter(
        [(h, shape) for h in hypothesis_sets] + [(hypothesis_set(b), shape) for b in chi_bounds])
    assert reports["EXT-4"].counts["checked"] == reports["C6"].counts["checked"] == 20
    assert reports["C4"].counts["checked"] == 20


def test_audit_counts_each_partition_once(monkeypatch, populations):
    """The audit counts each graph's edge-degree partition exactly once, in
    the key groups (``bounds.degree_pair_counts``), which hand the flat
    counts to the key's context, and once more for each graph it parses
    again to colour, to check it against its key: neither ``graphs`` nor
    ``indices`` counts any."""
    counted = {module: [] for module in (graphs_module, indices_module, bounds_module)}
    count_pairs = graphs_module.degree_pair_counts

    def counter(module):
        def counted_pairs(g):
            counted[module].append(g)
            return count_pairs(g)
        return counted_pairs

    for module in counted:
        monkeypatch.setattr(module, "degree_pair_counts", counter(module))
    coloured = []
    colour = bounds_module.chromatic_number

    def counted_colour(g):
        coloured.append(g)
        return colour(g)

    monkeypatch.setattr(bounds_module, "chromatic_number", counted_colour)
    order_7 = populations[7]
    audit_all(builtin_catalog(), order_7)
    assert len(order_7) == 853
    assert counted[bounds_module] == list(order_7) + coloured
    assert 0 < len(coloured) < len(order_7)
    assert counted[graphs_module] == counted[indices_module] == []


def test_audit_encodes_each_graph_once(monkeypatch, populations):
    """An order-7 audit encodes each graph exactly once, as it keys it, and
    every graph a report names is one of them."""
    encoded = []
    encode = bounds_module.to_graph6

    def counted(g):
        encoded.append(g)
        return encode(g)

    monkeypatch.setattr(bounds_module, "to_graph6", counted)
    order_7 = populations[7]
    reports = audit_all(builtin_catalog(), order_7)
    named = set()
    for r in reports.values():
        named.update(r.equality_witnesses, r.violation_witnesses,
                     *r.family_mismatches.values())
        if r.min_margin is not None:
            named.add(r.min_margin["witness_graph6"])
    assert encoded == list(order_7)
    assert named <= {encode(g) for g in encoded}


def _reaches_a_graph(root) -> bool:
    """Whether a ``Graph`` can be reached from ``root`` through its
    referents, not counting classes."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Graph):
            return True
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_key_groups_hold_graph6_strings_not_graphs(population_2_7):
    """The key table maps each key's record to its members' graph6 strings,
    as given, and no graph can be reached from it, nor from the records and
    labels of the table once a lower bound on chi has split it by exact chi;
    the check catches a key that keeps one."""
    pairs = [(to_graph6(g), g) for g in population_2_7]
    groups = bounds_module._key_groups(iter(pairs))
    assert all(type(ctx) is GraphContext for ctx in groups)
    assert all(type(label) is str for labels in groups.values() for label in labels)
    assert sorted(label for labels in groups.values() for label in labels) == sorted(
        g6 for g6, _ in pairs)
    assert not _reaches_a_graph(groups)
    ctx, labels = next(iter(groups.items()))
    assert _reaches_a_graph({ctx: [*labels, population_2_7[0]]})
    cols = bounds_module._Columns(groups)
    bounds_module._exact_chi(builtin_catalog() + [_chi_lower()], cols)
    assert len(cols.ctxs) > len(groups)
    assert all(type(ctx) is GraphContext for ctx in cols.ctxs)
    assert sorted(label for labels in cols.labels for label in labels) == sorted(
        g6 for g6, _ in pairs)
    assert not _reaches_a_graph((cols.ctxs, cols.labels))


def test_the_record_is_built_only_by_calling_its_name(monkeypatch):
    """With ``degbound.bounds.GraphContext`` replaced by a plain function
    that forwards to the class, as a tracer that times the records does,
    an audit, single checks and ``compute``'s rows come out the same: the
    package builds a record only by calling that name."""
    bounds = builtin_catalog() + _custom_bounds()
    population = [g for n in range(2, 7) for g in connected_graphs(n)]
    # K1, an edgeless graph, chi undefined (order 13) and no graph6 (order 63)
    sample = [Graph(1), Graph(3), path_graph(2), complete_bipartite(3, 3),
              double_star(), cycle_graph(13), star_graph(62)]

    def run():
        reports = audit_all(bounds, population, population="orders 2..6")
        return ({k: r.to_dict() for k, r in reports.items()},
                [evaluate_bound(b, g) for b in bounds for g in sample],
                cli._compute_rows(sample))

    plain = run()
    record, built = GraphContext, []

    def forward(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(bounds_module, "GraphContext", forward)
    assert run() == plain
    assert len(built) > len(sample)


@pytest.mark.parametrize("seed", [1, 2])
def test_audit_of_a_one_shot_iterator_equals_the_list(seed):
    """``audit_all`` reads its population once, so a generator over a list
    gives the reports of the list itself."""
    bounds = builtin_catalog() + _custom_bounds()
    graphs = _seeded_population(seed)
    from_list = audit_all(bounds, graphs, population="seeded")
    from_stream = audit_all(bounds, (g for g in graphs), population="seeded")
    assert {k: r.to_dict() for k, r in from_stream.items()} == {
        k: r.to_dict() for k, r in from_list.items()}


def _chi_lower():
    """A lower bound on chi, R <= chi: every key it checks needs exact chi.
    Violated on stars of five leaves or more and on cycles of order 7 or
    more, and attained on C_4."""
    return BoundSpec("test-chi-lower", "test", "R <= chi", lhs=CHI, rhs=IndexId.R,
                     coeff=catalog_by_id()["T2L"].coeff, direction="lower")


def _exact_chi_reference(bounds, graphs, population):
    """The reports of an audit that keys every graph by its exact chi: the
    ``graph_context`` records as the key table, made columns and folded."""
    groups = {}
    for g in graphs:
        groups.setdefault(graph_context(g), []).append(to_graph6(g))
    cols = bounds_module._Columns(groups)
    return {b.bound_id: bounds_module._fold(b, cols, population).to_dict() for b in bounds}


def test_audit_matches_an_audit_keyed_by_exact_chi():
    """Keying on the partition and splitting a key by exact chi only where a
    report needs it gives the reports of an audit that keys every graph by
    its exact chi, for the catalog, the custom bounds, a lower bound on chi
    (violated on stars and long cycles, attained on C_4), chains that hold
    EXT-4, one of them capped at degree 3, away from EXT-4's smallest
    margins, and a chain that holds that one, so reads chi two levels
    down, over every graph of order 1..7 (disconnected ones included),
    seeded random graphs of order 8..12, K_2 joined to 7..10 independent
    vertices (chi 3, which violate EXT-4 at the bound of their partition)
    and K_13 and K_62, whose chi is undefined: each bound on chi audited
    alone, and all of them together.  Then the catalog alone, which leaves
    most keys at their bound on chi, over each order alone and over its
    graphs of degrees 2..4 alone, where the smallest margins fall on other
    keys, some of them tied, and over two graphs of order 8 with one
    harmonic index: at Welsh-Powell's bound (4) the second ties the first's
    exact EXT-4 margin, and only its exact chi (3) takes it off the
    witness."""
    by_id = catalog_by_id()
    chi_chain = BoundSpec("test-chi-chain", "test", "C6 and EXT-4 at degree <= 3",
                          degree_cap=lambda d, D: D <= 3, chain=(by_id["C6"], by_id["EXT-4"]))
    bounds = builtin_catalog() + _custom_bounds() + [
        _chi_lower(),
        chi_chain,
        BoundSpec("test-nested-chain", "test", "test-chi-chain from order 5",
                  n_min=5, chain=(chi_chain,)),
    ]
    rng = random.Random(41)
    graphs = [g for n in range(1, 8) for g in _classes(n, False)]
    graphs += [random_connected_graph(rng, rng.randint(8, 12)) for _ in range(300)]
    graphs += [Graph(k + 2, [(0, 1)] + [(hub, v) for hub in (0, 1) for v in range(2, k + 2)])
               for k in range(7, 11)]
    graphs += [complete_graph(13), complete_graph(62)]
    rng.shuffle(graphs)
    want = _exact_chi_reference(bounds, graphs, "mixed")

    def reads_chi(b):
        return b.lhs == CHI or any(map(reads_chi, b.chain))

    on_chi = list(filter(reads_chi, bounds))
    assert len(on_chi) == 7
    for audited in [bounds, *([b] for b in on_chi)]:
        reports = audit_all(audited, graphs, population="mixed")
        for b in audited:
            assert reports[b.bound_id].to_dict() == want[b.bound_id], b.bound_id
    assert want["test-chi-lower"]["counts"]["violated"] > 0
    assert want["test-chi-lower"]["counts"]["equality"] > 0
    assert want["EXT-4"]["counts"]["violated"] == 0
    populations = [[parse_graph6("G?Cz~C"), parse_graph6("G?CxvO")]]
    for n in range(1, 8):
        classes = _classes(n, False)
        populations += [classes, [g for g in classes if 2 <= min(g.degrees) <= max(g.degrees) <= 4]]
    for graphs in populations:
        reports = audit_all(builtin_catalog(), graphs, population="one")
        assert {k: r.to_dict() for k, r in reports.items()} == _exact_chi_reference(
            builtin_catalog(), graphs, "one"), to_graph6(graphs[0])


def test_only_reports_on_chi_colour_graphs(monkeypatch, populations):
    """An order-7 audit of every bound but EXT-4 and C6 computes no
    chromatic number, and one of the whole catalog computes 10 of the 853
    (K_7, where EXT-4 and C6 are attained, and the graphs that could hold
    their minimum margins)."""
    coloured = []
    colour = bounds_module.chromatic_number

    def counted(g):
        coloured.append(to_graph6(g))
        return colour(g)

    monkeypatch.setattr(bounds_module, "chromatic_number", counted)
    order_7 = populations[7]
    chi_free = [b for b in builtin_catalog() if b.lhs != CHI]
    assert len(chi_free) == 53
    audit_all(chi_free, order_7)
    assert coloured == []
    audit_all(builtin_catalog(), order_7)
    assert 0 < len(coloured) <= 10
    assert to_graph6(complete_graph(7)) in coloured


def test_a_label_that_is_not_its_graphs_graph6_is_refused():
    """A label parsed again for exact chi must decode to a graph of its
    graph's key: K_5 labelled as C_5 is refused, as is a label that is no
    graph6, but only where a report needs the graph's chi."""
    ext4 = catalog_by_id()["EXT-4"]
    k5 = complete_graph(5)
    with pytest.raises(ValueError, match="is not the graph6 of its graph"):
        bounds_module.audit_labelled([ext4], [(to_graph6(cycle_graph(5)), k5)])
    with pytest.raises(GraphError):
        bounds_module.audit_labelled([ext4], [("not graph6", k5)])
    report = bounds_module.audit_labelled([catalog_by_id()["T1L"]], [("not graph6", k5)])
    assert report["T1L"].counts["checked"] == 1
