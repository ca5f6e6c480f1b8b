"""Acceptance suite: the verification targets the package must meet, each at
its stated tolerance.

Criterion 2 asserts that the equality witnesses found by the exhaustive audit
are exactly the published extremal families, entry by entry.  Five entries
fail that assertion because the published equality claims are numerically
false, which the audit is designed to expose:

  C3        sqrt(4/3)*R <= GA is not attained at P3 (GA/R there is 4/3,
            and 4/3 > sqrt(4/3)); no graph attains it.
  C7-(12)   sqrt(delta)*M2* <= H is never attained: per edge H/M2* is the
            harmonic mean of the endpoint degrees, >= delta > sqrt(delta).
  T7-(19)L  at n = 3 the bound is also attained by C3 (coefficient 2^{7/2},
            and AZI(C3) = 2^{7/2} * ABC(C3) = 24 exactly), not only by stars.
  T7-(19)U  at n = 3 the bound is also attained by P3 (AZI(P3) = 16 =
            2^{7/2} * ABC(P3)), not only by K_3.
  C9-(24)   at delta = 2 the per-edge ratio equals the coefficient whenever
            one endpoint has degree 2, so every graph in which each edge
            touches a degree-2 vertex (K_{2,3}, the bowtie, theta graphs,
            ...) is a witness, not only the regular graphs.

These failures are intentional: the assertions state the published claims
verbatim, and the discrepancies they surface are pinned positively by the
audit's family-mismatch reporting (see test_bounds and criterion 3).
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import degbound.enumeration as enumeration
from degbound.bounds import (
    CONFIRMED_SHARP,
    HOLDS_NOT_SHARP,
    VIOLATED,
    audit_all,
    builtin_catalog,
    catalog_by_id,
    evaluate_bound,
    graph_context,
)
from degbound.cli import main as cli_main
from degbound.enumeration import EnumerationSpec, connected_graphs, enumerate_connected
from degbound.formulas import regular_values
from degbound.graphs import (
    MOLECULAR_MAX_DEGREE,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_star,
    parse_graph6,
    star_graph,
    to_graph6,
)
from degbound.indices import ALL_INDICES, IndexId, all_indices, edge_term
from degbound.ratios import (
    F_T6,
    F_T21,
    concordance,
    concordance_report,
    grid_extremum,
    is_concordance_candidate,
    monotonicity_audit,
)

from conftest import record_acceptance, random_graph

EXPECTED_CLASS_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@contextmanager
def criterion(num, label, detail=""):
    try:
        yield
    except BaseException as exc:
        record_acceptance(num, label, False, detail or str(exc).splitlines()[0][:120])
        raise
    record_acceptance(num, label, True)


# ---------------------------------------------------------------------------
# 1. Exhaustive verification over all connected graphs of order 2..7


def test_criterion_1_exhaustive_verification_n7():
    with criterion(1, "exhaustive n<=7: class counts, zero violations except "
                      "T7-(21)U, under 60 s single-threaded"):
        enumeration._classes.cache_clear()
        start = time.perf_counter()
        populations = {n: enumerate_connected(EnumerationSpec(n))
                       for n in range(2, 8)}
        union = [g for n in range(2, 8) for g in populations[n]]
        reports = audit_all(builtin_catalog(), union, population="enumerate(n=2..7)")
        elapsed = time.perf_counter() - start

        for n, want in EXPECTED_CLASS_COUNTS.items():
            assert len(populations[n]) == want, (n, len(populations[n]), want)
        violated = sorted(bid for bid, r in reports.items()
                          if r.counts["violated"] > 0)
        assert violated == ["T7-(21)U"], violated
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Equality witnesses are exactly the published extremal families

CRITERION_2_IDS = (
    ["T1L", "T1U", "T2L", "T2U", "T3L", "T3U", "C1", "C2", "C3", "C3b",
     "T4L", "T4U"]
    + [f"T5-({k}){side}" for k in range(5, 10) for side in ("L", "U")]
    + [f"C7-({k})" for k in range(10, 15)]
    + ["T6L", "T6U", "C8"]
    + [f"T7-({k}){side}" for k in range(17, 21) for side in ("L", "U")]
    + [f"C9-({k})" for k in range(22, 26)]
    + ["EXT-ZT", "EXT-2a", "EXT-2b", "EXT-4", "C6"]
)


@pytest.mark.parametrize("bound_id", CRITERION_2_IDS)
def test_criterion_2_equality_witness_exactness(bound_id, population_2_7,
                                                full_reports):
    b = catalog_by_id()[bound_id]
    report = full_reports[bound_id]
    expected = sorted(
        to_graph6(g) for g in population_2_7
        if b.preconditions_met(ctx := graph_context(g)) and b.claimed_equality is not None
        and b.claimed_equality.contains(ctx)
    )
    ok = report.equality_witnesses == expected
    record_acceptance(2, "equality witnesses match the published families "
                         f"({len(CRITERION_2_IDS)} entries)",
                      ok, "" if ok else bound_id)
    assert report.equality_witnesses == expected, (
        f"{bound_id}: witnesses {report.equality_witnesses} != members of "
        f"claimed family {expected}"
    )


def test_criterion_2_margin_tightness_example(full_reports):
    # spot check the stated example: T4U equality only at C3, |margin| <= 1e-9
    chk = evaluate_bound(catalog_by_id()["T4U"], cycle_graph(3))
    assert abs(chk.margin) <= 1e-9 * max(1.0, abs(chk.lhs_value))
    assert full_reports["T4U"].equality_witnesses == ["Bw"]


# ---------------------------------------------------------------------------
# 3. The discovered discrepancies, pinned


def test_criterion_3_discrepancy_discovery(full_reports):
    with criterion(3, "T7-(21)U violated at K3 (24 vs 6); T7-(21)L and "
                      "C9-(26) hold but are never attained"):
        chk = evaluate_bound(catalog_by_id()["T7-(21)U"], complete_graph(3))
        assert chk.verdict == VIOLATED
        assert abs(chk.lhs_value - 24.0) <= 1e-12 * 24.0
        assert abs(chk.rhs_side_value - 6.0) <= 1e-12 * 6.0
        assert "Bw" in full_reports["T7-(21)U"].violation_witnesses

        for bid in ("T7-(21)L", "C9-(26)"):
            report = full_reports[bid]
            assert report.verdict == HOLDS_NOT_SHARP, (bid, report.verdict)
            assert report.equality_witnesses == []
        # equality also fails on every single-order population
        for n in range(3, 8):
            rep = audit_all([catalog_by_id()["T7-(21)L"],
                             catalog_by_id()["C9-(26)"]],
                            connected_graphs(n), population=f"n={n}")
            assert all(r.equality_witnesses == [] for r in rep.values())

        ext = grid_extremum(F_T21, 7, "min", exclude_one_one=True)
        assert ext.location == (1, 4)
        want = float(Fraction(256, 27) ** 2)
        assert abs(ext.value - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# 4. Star sharpness of the AZI/X lower coefficient


def test_criterion_4_star_sharpness():
    with criterion(4, "AZI/X over stars k=2..12 uniquely minimized at k=8 "
                      "with value 1536/343"):
        ratios = {}
        for k in range(2, 13):
            s = star_graph(k)
            ratios[k] = all_indices(s)[IndexId.AZI] / all_indices(s)[IndexId.X]
        best = min(ratios, key=ratios.get)
        assert best == 8
        want = 1536 / 343
        assert abs(ratios[8] - want) <= 1e-12 * want
        for k, value in ratios.items():
            if k != 8:
                assert value > ratios[8]


# ---------------------------------------------------------------------------
# 5. Cycle identity through the families command


def test_criterion_5_cycle_identity_via_families(capsys):
    with criterion(5, "AZI(C_n) = 8*GA(C_n) for 3 <= n <= 200 via the "
                      "families command"):
        code = cli_main(["families", "--max-n", "200", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)["rows"]
        cycles = {r["n"]: r for r in rows if r["family"] == "cycle"}
        assert set(cycles) == set(range(3, 201))
        for n, row in cycles.items():
            assert abs(row["AZI"] - 8 * row["GA"]) <= 1e-12 * abs(8 * row["GA"])
            assert row["agrees"]


# ---------------------------------------------------------------------------
# 6. Chromatic number bounds


def test_criterion_6_chromatic_bounds(population_2_7, full_reports):
    with criterion(6, "chi <= 2H with equality exactly on K_n, and "
                      "chi <= (2/delta)GA likewise for delta >= 2"):
        def is_complete(g):
            return g.m == g.n * (g.n - 1) // 2

        completes = sorted(to_graph6(g) for g in population_2_7 if is_complete(g))
        r4 = full_reports["EXT-4"]
        assert r4.counts["violated"] == 0
        assert r4.equality_witnesses == completes
        completes_d2 = sorted(to_graph6(g) for g in population_2_7
                              if is_complete(g) and g.n >= 3)
        r6 = full_reports["C6"]
        assert r6.counts["violated"] == 0
        assert r6.equality_witnesses == completes_d2


# ---------------------------------------------------------------------------
# 7. Strict molecular comparison with its two exceptions


def test_criterion_7_molecular_strict_inequality(population_2_7):
    with criterion(7, "GA > ABC on molecular graphs 3 <= n <= 7 except "
                      "K_{1,4}; K_{1,4} and T* are genuine exceptions"):
        k14 = star_graph(4)
        margins = []
        for g in population_2_7:
            if g.n < 3 or max(g.degrees) > MOLECULAR_MAX_DEGREE:
                continue
            if sorted(g.degrees) == [1, 1, 1, 1, 4]:
                continue  # K_{1,4} itself
            margins.append(all_indices(g)[IndexId.GA] - all_indices(g)[IndexId.ABC])
        assert margins and min(margins) > 1e-9

        ga, abc = all_indices(k14)[IndexId.GA], all_indices(k14)[IndexId.ABC]
        assert abs(ga - 3.2) <= 1e-12 * 3.2
        assert abs(abc - 2 * math.sqrt(3)) <= 1e-12 * abc
        assert ga < abc

        t = double_star()
        ga, abc = all_indices(t)[IndexId.GA], all_indices(t)[IndexId.ABC]
        assert abs(ga - 5.8) <= 1e-12 * 5.8
        assert abs(abc - (3 * math.sqrt(3) + math.sqrt(6) / 4)) <= 1e-12 * abc
        assert ga < abc


# ---------------------------------------------------------------------------
# 8. Proof-kernel concordance


def test_criterion_8_proof_kernel_concordance(full_reports):
    with criterion(8, "sqrt(grid extremum) equals the coefficient for every "
                      "sharp bound; T6 monotonicity at n=20; discrepancy list"):
        sharp = [catalog_by_id()[bid] for bid, r in full_reports.items()
                 if r.verdict == CONFIRMED_SHARP]
        checked = 0
        for b in sharp:
            if not is_concordance_candidate(b):
                continue
            for delta in (2, 3):
                rec = concordance(b, n=7, delta=delta)
                assert rec.matches, (b.bound_id, delta, rec)
            checked += 1
        assert checked >= 25

        down = monotonicity_audit(F_T6, "a", 1, 2, 7)
        up = monotonicity_audit(F_T6, "a", 1, 8, 19)
        assert down.direction == "decreasing"
        assert up.direction == "increasing"

        _, discrepant = concordance_report(n=12, delta=2)
        assert {"T7-(21)L", "T7-(21)U", "C9-(26)"} <= set(discrepant)
        assert set(discrepant) == {"C3", "C7-(12)", "T7-(21)L", "T7-(21)U",
                                   "C9-(26)"}


# ---------------------------------------------------------------------------
# 9. Randomized property suite, 1000 seeded cases per property


def test_criterion_9_linearity_1000():
    with criterion(9, "property suite, 1000 seeded cases per property"):
        rng = random.Random(1009)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(2, 10))
            degs = g.degrees
            for idx in ALL_INDICES:
                direct = 0.0
                try:
                    for u, v in g.edges:
                        direct += edge_term(idx, (degs[u], degs[v]))
                except Exception:
                    continue
                assert all_indices(g)[idx] == pytest.approx(direct, rel=1e-12,
                                                            abs=1e-12)


def test_criterion_9_isomorphism_invariance_1000():
    with criterion(9, "property suite, 1000 seeded cases per property"):
        rng = random.Random(2027)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(2, 10))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert all_indices(g.relabeled(perm)) == all_indices(g)


def test_criterion_9_regular_closed_forms_1000():
    with criterion(9, "property suite, 1000 seeded cases per property"):
        rng = random.Random(3033)
        for _ in range(1000):
            kind = rng.choice(("cycle", "complete", "bipartite"))
            if kind == "cycle":
                g, d = cycle_graph(rng.randrange(3, 40)), 2
            elif kind == "complete":
                n = rng.randrange(2, 16)
                g, d = complete_graph(n), n - 1
            else:
                k = rng.randrange(1, 9)
                g, d = complete_bipartite(k, k), k
            vals = all_indices(g)
            for idx, want in zip(ALL_INDICES, regular_values(d, g.m)):
                if want is None:
                    assert vals[idx] is None
                else:
                    assert vals[idx] == pytest.approx(want, rel=1e-12)


def test_criterion_9_graph6_round_trip_1000():
    with criterion(9, "property suite, 1000 seeded cases per property"):
        rng = random.Random(4049)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(1, 30))
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert to_graph6(parse_graph6(s)) == s


def test_criterion_9_enumeration_determinism_1000():
    with criterion(9, "property suite, 1000 seeded cases per property"):
        rng = random.Random(5051)
        for _ in range(1000):
            n = rng.choice((2, 3, 4, 4, 4))
            spec = EnumerationSpec(
                n,
                delta_min=rng.choice((None, 1, 2)),
                molecular=rng.random() < 0.3,
            )
            enumeration._classes.cache_clear()
            first = enumerate_connected(spec)
            enumeration._classes.cache_clear()
            second = enumerate_connected(spec)
            assert first == second
            assert all(spec.admits(g) for g in first)
