import dataclasses
import math
import re
from fractions import Fraction

import pytest

from degbound import ratios
from degbound.bounds import Coeff, builtin_catalog, catalog_by_id
from degbound.indices import IndexId, UndefinedIndexError
from degbound.ratios import (
    F_T1,
    F_T2,
    F_T4,
    F_T6,
    F_T21,
    GRID_CAP,
    LINE_STEP,
    RatioFn,
    concordance,
    concordance_report,
    grid_extremum,
    is_concordance_candidate,
    line_samples,
    monotonicity_audit,
    proofs_report,
    ratio_at,
)

# Catalog coefficients that provably differ from their grid extrema; the
# kernel must single out exactly these.
KNOWN_COEFFICIENT_DISCREPANCIES = {"C3", "C7-(12)", "T7-(21)L", "T7-(21)U", "C9-(26)"}


def test_ratio_at_values_from_the_proofs():
    assert ratio_at(F_T1, (1, 1)) == pytest.approx(2.0, rel=1e-14)
    assert ratio_at(F_T6, (1, 8)) == pytest.approx(9 * (8 / 7) ** 6, rel=1e-14)
    # (ABC/GA)^2 at (n-1, 2) with n = 9
    assert ratio_at(F_T4, (8, 2)) == pytest.approx(100 / 128, rel=1e-14)
    assert ratio_at(F_T2, (1, 1)) == pytest.approx(1.0, rel=1e-14)
    assert ratio_at(F_T2, (9, 9)) == pytest.approx(9.0, rel=1e-14)


def test_ratio_domain_errors():
    with pytest.raises(UndefinedIndexError):
        ratio_at(F_T6, (1, 1))  # AZI numerator undefined
    with pytest.raises(UndefinedIndexError):
        ratio_at(RatioFn(IndexId.GA, IndexId.ABC), (1, 1))  # zero denominator


def test_grid_extremum_examples():
    ext = grid_extremum(F_T1, 10, "max")
    assert ext.location == (9, 9)
    assert ext.value == pytest.approx(18.0, rel=1e-14)
    ext = grid_extremum(F_T6, 20, "min")
    assert ext.location == (1, 8)
    assert ext.value == pytest.approx(9 * (8 / 7) ** 6, rel=1e-14)
    ext = grid_extremum(F_T21, 7, "min", exclude_one_one=True)
    assert ext.location == (1, 4)
    assert ext.value == pytest.approx(float(Fraction(256, 27) ** 2), rel=1e-12)


def test_grid_extremum_matches_unpruned_scan():
    for r in (F_T1, F_T2, F_T4, F_T6, F_T21):
        for n in (3, 5, 8, 12):
            for kind in ("min", "max"):
                values = {}
                for a in range(1, n):
                    for b in range(a, n):
                        try:
                            values[(a, b)] = ratio_at(r, (a, b))
                        except UndefinedIndexError:
                            pass
                want = (min if kind == "min" else max)(values.values())
                got = grid_extremum(r, n, kind)
                assert got.value == want
                assert values[got.location] == want


def test_grid_extremum_tie_breaks_to_smallest_pair():
    # at n = 3 the squared AZI/ABC ratio ties at (1,2) and (2,2)
    r = RatioFn(IndexId.AZI, IndexId.ABC)
    assert ratio_at(r, (1, 2)) == ratio_at(r, (2, 2))
    assert grid_extremum(r, 3, "min").location == (1, 2)


def test_grid_extremum_validation():
    with pytest.raises(ValueError):
        grid_extremum(F_T1, 70, "min")
    with pytest.raises(ValueError):
        grid_extremum(F_T1, 10, "median")


def test_monotonicity_flagship_lines():
    assert monotonicity_audit(F_T6, "a", 1, 2, 7).direction == "decreasing"
    assert monotonicity_audit(F_T6, "a", 1, 8, 20).direction == "increasing"
    for b in range(2, 21):
        line = monotonicity_audit(F_T1, "b", b, 1, b)
        assert line.direction == "increasing"
    # (ABC/GA)^2 falls in the smaller coordinate once both degrees are >= 2
    for b in range(3, 12):
        line = monotonicity_audit(F_T4, "b", b, 2, b)
        assert line.direction == "decreasing"


def test_monotonicity_detects_violations():
    # along a=1 over [2, 20] the AZI/X ratio dips at b=8 then rises
    line = monotonicity_audit(F_T6, "a", 1, 2, 20)
    assert line.direction is None
    assert line.first_violation == ((1, 8), (1, 9))


def test_continuous_dip_location_between_7_and_8():
    samples = line_samples(F_T6, "a", 1.0, 6.0, 9.0)
    t_min = min(samples, key=lambda s: s[1])[0]
    root = (7 + math.sqrt(73)) / 2
    assert abs(t_min - root) <= LINE_STEP


def test_concordance_matches_for_sharp_entries():
    by_id = catalog_by_id()
    rec = concordance(by_id["T1L"], n=9, delta=1)
    assert rec.matches and rec.location == (1, 1)
    rec = concordance(by_id["T6L"], n=20, delta=1)
    assert rec.matches and rec.location == (1, 8)
    rec = concordance(by_id["C8"], n=9, delta=3)
    assert rec.matches and rec.location == (3, 3)
    rec = concordance(by_id["T4U"], n=9, delta=2)
    assert rec.matches and rec.location == (2, 8)
    # a delta-free coefficient keeps its own delta_min floor whatever delta is
    rec = concordance(by_id["T4U"], n=9, delta=3)
    assert rec.matches and rec.location == (2, 8)
    rec = concordance(by_id["EXT-2a"], n=9, delta=3)
    assert rec.matches and rec.location == (2, 2)


def test_concordance_rejects_a_delta_below_the_coefficients_floor():
    by_id = catalog_by_id()
    ids = ["C1", "C2", "C3b", "C8"] + [f"C7-({k})" for k in range(10, 15)] \
        + [f"C9-({k})" for k in range(22, 27)]
    for bid in ids:
        b = by_id[bid]
        assert b.coeff.var == "delta" and b.delta_min == 2
        with pytest.raises(ValueError, match=r"needs delta >= 2, got 1"):
            concordance(b, 9, delta=1)
        assert concordance(b, 9, delta=2).location[0] >= 2


def test_concordance_rejects_non_candidates():
    by_id = catalog_by_id()
    for bid in ("C4", "EXT-4", "EXT-2c", "EXT-3(i)"):
        assert not is_concordance_candidate(by_id[bid])
        with pytest.raises(ValueError):
            concordance(by_id[bid], 9)


def test_concordance_report_names_exactly_the_known_discrepancies():
    # n large enough that every constant-coefficient star bound reaches its
    # extremal degree pair
    records, discrepant = concordance_report(n=12, delta=2)
    assert set(discrepant) == KNOWN_COEFFICIENT_DISCREPANCIES
    candidates = [b for b in builtin_catalog() if is_concordance_candidate(b)]
    assert len(records) == len(candidates)


def test_concordance_clears_the_fixed_tolerance():
    """Matches differ from the grid extremum by float rounding only, and
    mismatches by far more, so DEFAULT_TOL decides no record.  The orders
    include the three mismatches nearest a match over n = 3..62: T7-(18)L at
    n = 5, T7-(17)L at 7 and T6L at 8."""
    match, mismatch = [0.0], [math.inf]
    for b in builtin_catalog():
        if not is_concordance_candidate(b):
            continue
        for n in (3, 5, 7, 8, 20, 62):
            for delta in (range(b.delta_min, n) if b.coeff.var == "delta" else [b.delta_min]):
                rec = concordance(b, n, delta)
                rel = abs(rec.coefficient - rec.grid_value) / max(1.0, abs(rec.coefficient))
                (match if rec.matches else mismatch).append(rel)
    assert max(match) <= 1e-15 and min(mismatch) >= 1e-3, (max(match), min(mismatch))


def test_concordance_discrepancy_directions():
    by_id = catalog_by_id()
    # claimed lower coefficients smaller than the true grid minimum
    for bid in ("C3", "C7-(12)", "C9-(26)"):
        rec = concordance(by_id[bid], n=12, delta=2)
        assert not rec.matches
        assert rec.coefficient < rec.grid_value
    # both (21) coefficients sit below their grid values at every order: the
    # lower one is not sharp, the upper one is violated at (n-1, n-1)
    for n in range(3, GRID_CAP + 1):
        low = concordance(by_id["T7-(21)L"], n)
        high = concordance(by_id["T7-(21)U"], n)
        assert not low.matches and low.coefficient < low.grid_value
        assert not high.matches and high.coefficient < high.grid_value
        assert high.location == (n - 1, n - 1)
        if n >= 5:
            assert low.location == (1, 4)
            assert low.grid_value ** 2 == pytest.approx(float(Fraction(256, 27) ** 2),
                                                        rel=1e-13)


def test_proofs_report_reads_the_catalog(monkeypatch):
    def label(claims):
        [claim] = [c for c in claims if c["claim"].startswith("(ABC/GA)^2 maximum")]
        return claim

    before = label(proofs_report(9))
    assert before["verdict"] == "confirmed"
    by_id = catalog_by_id()
    by_id["T4U"] = dataclasses.replace(by_id["T4U"], coeff=Coeff("n", lambda n: 1.0))
    monkeypatch.setattr(ratios, "catalog_by_id", lambda: by_id)
    after = label(proofs_report(9))
    assert after["verdict"] == "discrepant"
    assert after["observed"] == before["observed"]
    assert before["claim"].endswith("= 0.78125 at (2,n-1)")
    assert after["claim"].endswith("= 1 at (2,n-1)")


def test_proofs_report_n20():
    claims = proofs_report(20)
    verdicts = {c["claim"]: c["verdict"] for c in claims}
    confirmed = [c for c in claims if c["verdict"] == "confirmed"]
    assert len(confirmed) >= 9
    assert all(v in ("confirmed", "discrepant", "reported") for v in verdicts.values())
    t21 = [c for c in claims if "AZI/M2*" in c["claim"]]
    assert len(t21) == 2 and all(c["verdict"] == "discrepant" for c in t21)


def test_proofs_report_small_n_flags_out_of_range():
    claims = proofs_report(7)
    t6 = [c for c in claims if "9*(8/7)^6" in c["claim"]]
    assert len(t6) == 1 and t6[0]["verdict"] == "out_of_range"
    with pytest.raises(ValueError):
        proofs_report(2)


def _needed_degree(n):
    """The largest degree each proofs_report claim needs, in report order."""
    top = n - 1
    return [top, 1, top, top, 3, top, top, 7, 9, 8, 8, 4, top]


def test_proofs_report_lists_the_same_claims_for_every_n():
    reference = proofs_report(GRID_CAP)
    for n in range(3, GRID_CAP + 1):
        claims = proofs_report(n)
        assert len(claims) == len(reference) == 13
        for got, want in zip(claims, reference):
            # labels differ only in the numbers that depend on n
            assert re.sub(r"[\d.]+", "#", got["claim"]) == re.sub(r"[\d.]+", "#", want["claim"])
            assert got.keys() == want.keys()
        verdicts = [c["verdict"] for c in claims]
        assert set(verdicts) <= {"confirmed", "discrepant", "reported", "out_of_range"}
        discrepant = {i for i, v in enumerate(verdicts) if v == "discrepant"}
        assert discrepant <= {11, 12}, (n, discrepant)


def test_proofs_report_out_of_range_exactly_where_the_grid_is_too_small():
    for n in range(3, GRID_CAP + 1):
        claims = proofs_report(n)
        for claim, degree in zip(claims, _needed_degree(n)):
            assert (claim["verdict"] == "out_of_range") == (degree > n - 1), (n, claim)
            if degree > n - 1:
                assert claim["observed"].startswith(f"grid only reaches degree {n - 1}; ")
