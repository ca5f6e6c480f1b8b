"""Numerical audit of the per-edge ratio functions behind the bound proofs.

Every two-index bound has a per-edge ratio whose extremum over the integer
degree grid is the sharp coefficient.  This module scans those grids, checks
the monotonicity claims the proofs rest on, and cross-checks every catalog
coefficient against its grid extremum.  Ratios are evaluated through the same
per-edge terms as the index engine, so the two kinds of audit cannot diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import CHI, DEFAULT_TOL, BoundSpec, builtin_catalog, catalog_by_id
from .indices import IndexId, UndefinedIndexError, edge_term

GRID_CAP = 62


@dataclass(frozen=True)
class RatioFn:
    """Per-edge ratio numerator/denominator, optionally squared (the proofs
    work with squared ratios wherever square roots would otherwise appear)."""

    numerator: IndexId
    denominator: IndexId
    squared: bool = True

    @property
    def label(self) -> str:
        body = f"{self.numerator}/{self.denominator}"
        return f"({body})^2" if self.squared else body


F_T1 = RatioFn(IndexId.GA, IndexId.X, squared=True)
F_T2 = RatioFn(IndexId.GA, IndexId.R, squared=False)
F_T4 = RatioFn(IndexId.ABC, IndexId.GA, squared=True)
F_T6 = RatioFn(IndexId.AZI, IndexId.X, squared=True)
F_T21 = RatioFn(IndexId.AZI, IndexId.M2STAR, squared=True)


def ratio_at(r: RatioFn, pair) -> float:
    """Evaluate the ratio at a degree pair (works on real-valued pairs too,
    for dense line sampling)."""
    num = edge_term(r.numerator, pair)
    den = edge_term(r.denominator, pair)
    if den == 0:
        raise UndefinedIndexError(
            f"ratio {r.label} undefined at {pair}: denominator term is zero"
        )
    value = num / den
    return value * value if r.squared else value


@dataclass(frozen=True)
class GridExtremum:
    location: tuple[int, int]
    value: float
    kind: str


def grid_extremum(r: RatioFn, n: int, kind: str = "min", delta_min: int = 1,
                  exclude_one_one: bool = False) -> GridExtremum:
    """Exhaustive scan of integer pairs delta_min <= a <= b <= n-1.

    Pairs where the ratio is undefined are skipped; ties break to the
    lexicographically smallest pair.
    """
    if not 2 <= n <= GRID_CAP:
        raise ValueError(f"grid order must be in 2..{GRID_CAP}, got {n}")
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    best_pair = None
    best_value = None
    for a in range(max(1, delta_min), n):
        for b in range(a, n):
            if exclude_one_one and a == 1 and b == 1:
                continue
            try:
                value = ratio_at(r, (a, b))
            except UndefinedIndexError:
                continue
            if best_value is None or (value < best_value if kind == "min"
                                      else value > best_value):
                best_value = value
                best_pair = (a, b)
    if best_pair is None:
        raise ValueError(f"empty grid for {r.label} at n={n}")
    return GridExtremum(best_pair, best_value, kind)


@dataclass(frozen=True)
class MonotonicityReport:
    """Direction of a ratio along one integer grid line.

    ``direction`` is "increasing", "decreasing" or "constant" when the strict
    classification holds; otherwise None, with the first violating step.
    """

    direction: str | None
    first_violation: tuple | None
    values: tuple[float, ...]


def monotonicity_audit(r: RatioFn, fixed: str, fixed_value: int,
                       lo: int, hi: int) -> MonotonicityReport:
    """Check successive differences of the ratio along one grid line.

    ``fixed`` names the frozen coordinate ("a" or "b"); the other coordinate
    runs over lo..hi.
    """
    if fixed not in ("a", "b"):
        raise ValueError(f"fixed coordinate must be 'a' or 'b', got {fixed!r}")
    if not 1 <= lo <= hi <= GRID_CAP - 1:
        raise ValueError(f"line range must satisfy 1 <= lo <= hi <= {GRID_CAP - 1}: {(lo, hi)}")
    points = []
    for t in range(lo, hi + 1):
        pair = (fixed_value, t) if fixed == "a" else (t, fixed_value)
        points.append((pair, ratio_at(r, pair)))
    values = tuple(v for _, v in points)
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if not diffs:
        return MonotonicityReport("constant", None, values)
    if all(d > 0 for d in diffs):
        return MonotonicityReport("increasing", None, values)
    if all(d < 0 for d in diffs):
        return MonotonicityReport("decreasing", None, values)
    if all(d == 0 for d in diffs):
        return MonotonicityReport("constant", None, values)
    ref = next(d for d in diffs if d != 0)
    # some diff is zero or against ref's sign, so the loop always returns
    for i, d in enumerate(diffs):
        if d == 0 or (d > 0) != (ref > 0):
            return MonotonicityReport(None, (points[i][0], points[i + 1][0]), values)


LINE_STEP = 1 / 64


def line_samples(r: RatioFn, fixed: str, fixed_value: float, lo: float, hi: float):
    """Samples of the ratio along a line, ``LINE_STEP`` apart; a smoke check of
    the proofs' continuous calculus, reported but never asserted."""
    out = []
    t = lo
    while t <= hi + 1e-12:
        pair = (fixed_value, t) if fixed == "a" else (t, fixed_value)
        out.append((t, ratio_at(r, pair)))
        t += LINE_STEP
    return out


# ---------------------------------------------------------------------------
# Catalog concordance


def is_concordance_candidate(b: BoundSpec) -> bool:
    """Simple non-strict bounds between two indices (strict bounds make no
    sharpness claim, and the chromatic pseudo-index has no per-edge term)."""
    return not b.is_chain and not b.strict and b.lhs != CHI


@dataclass(frozen=True)
class ConcordanceRecord:
    bound_id: str
    n: int
    delta: int
    coefficient: float
    grid_value: float
    location: tuple[int, int]
    matches: bool


def concordance(b: BoundSpec, n: int, delta: int = 1) -> ConcordanceRecord:
    """Compare a bound's coefficient with the extremum of its squared per-edge
    ratio over the degree grid its hypotheses imply.  A coefficient of delta
    is defined only from the bound's own delta floor up.  The two match within
    the audit's relative DEFAULT_TOL: over n = 3..62, matches differ by at most
    5e-16 and mismatches by at least 3e-3, so the rule only absorbs rounding."""
    if not is_concordance_candidate(b):
        raise ValueError(f"bound {b.bound_id} has no ratio-grid counterpart")
    if b.coeff.var == "delta" and delta < b.delta_min:
        raise ValueError(f"bound {b.bound_id} needs delta >= {b.delta_min}, got {delta}")
    ratio = RatioFn(b.lhs, b.rhs, squared=True)
    kind = "min" if b.direction == "lower" else "max"
    grid_floor = delta if b.coeff.var == "delta" else b.delta_min
    ext = grid_extremum(ratio, n, kind, delta_min=grid_floor,
                        exclude_one_one=b.n_min >= 3)
    coefficient = b.coeff.ev(n, delta)
    grid_value = ext.value ** 0.5
    matches = abs(coefficient - grid_value) <= DEFAULT_TOL * max(1.0, abs(coefficient))
    return ConcordanceRecord(b.bound_id, n, delta, coefficient, grid_value,
                             ext.location, matches)


def concordance_report(n: int, delta: int = 2):
    """Concordance records for every candidate bound, plus the ids whose
    claimed coefficient does not equal its grid extremum."""
    records = []
    for b in builtin_catalog():
        if not is_concordance_candidate(b):
            continue
        d = max(delta, b.delta_min)
        records.append(concordance(b, n, d))
    discrepant = [rec.bound_id for rec in records if not rec.matches]
    return records, discrepant


# ---------------------------------------------------------------------------
# The registered proof-claim audits


def proofs_report(n: int) -> list[dict]:
    """Audit the specific grid claims the bound proofs rest on.

    Every n lists the same 13 claims in the same order: five monotonicity
    lines, a sampled observation, and the grid extrema behind the catalog
    coefficients of T1L, T1U, T2U, T4U, T4L, T6L, T7-(21)L and T7-(21)U,
    each checked by ``concordance`` at the audit's one tolerance.  Each
    record carries a claim label, what the scan observed, and a verdict:
    "confirmed" or "discrepant" (the two (AZI/M2*)^2 claims document a wrong
    catalog coefficient); "reported" for the sampled observation; and
    "out_of_range" when the claim needs a degree above n-1, the largest on
    the grid of order n.
    """
    if not 3 <= n <= GRID_CAP:
        raise ValueError(f"proof audit needs 3 <= n <= {GRID_CAP}, got {n}")
    top = n - 1
    by_id = catalog_by_id()
    reports: list[dict] = []

    def record(claim, degree, observed, verdict, **extra):
        """Record a claim whose check needs degree pairs up to ``degree``."""
        if degree > top:
            observed, verdict = f"grid only reaches degree {top}; {observed}", "out_of_range"
        reports.append({"claim": claim, "observed": observed, "verdict": verdict, **extra})

    def line(claim, r, fixed, value, lo, hi, want, what="direction"):
        """Direction along the grid part of a line; the claim needs two points
        and the line's far end."""
        end = min(hi, top)
        direction = (monotonicity_audit(r, fixed, value, lo, end).direction
                     if lo <= end else "no grid points")
        record(claim, max(lo + 1, hi), f"{what}: {direction}",
               "confirmed" if direction == want else "discrepant")

    def extremum(bound_id, claim, pair, squared=True, **extra):
        """Is the catalog coefficient the grid extremum, at ``pair``?  Numbers
        print squared unless the proof uses the plain ratio."""
        b = by_id[bound_id]
        rec = concordance(b, n, b.delta_min)
        power = 2 if squared else 1
        kind = "min" if b.direction == "lower" else "max"
        record(claim.format(rec.coefficient ** power), max(pair),
               f"{kind} {rec.grid_value ** power:.12g} at {rec.location}",
               "confirmed" if rec.matches and rec.location == pair else "discrepant",
               **extra)

    # (GA/X)^2 = 4ab/(a+b): increasing in both, extrema at the grid corners.
    line("(GA/X)^2 strictly increasing in each coordinate", F_T1, "b", top, 1, top,
         "increasing", what=f"direction along b={top}")
    extremum("T1L", "(GA/X)^2 minimum {:.12g} at (1,1)", (1, 1))
    extremum("T1U", "(GA/X)^2 maximum 2(n-1) = {:.12g} at (n-1,n-1)", (top, top))

    # GA/R = 2ab/(a+b): same shape, maximum n-1.
    extremum("T2U", "GA/R maximum n-1 = {:.12g} at (n-1,n-1)", (top, top), squared=False)

    # (ABC/GA)^2 on the delta >= 2 grid: decreasing in the smaller coordinate,
    # maximum at (2, n-1), minimum at (n-1, n-1).
    line("(ABC/GA)^2 decreasing in the smaller coordinate (line b=n-1)",
         F_T4, "b", top, 2, top, "decreasing")
    extremum("T4U", "(ABC/GA)^2 maximum (n+1)^2/(16(n-1)) = {:.12g} at (2,n-1)", (2, top))
    extremum("T4L", "(ABC/GA)^2 minimum 2(n-2)/(n-1)^2 = {:.12g} at (n-1,n-1)", (top, top))

    # (AZI/X)^2 along a=1: falls until y=7, rises from y=8; global grid
    # minimum min{F(1,7), F(1,8)} = 9*(8/7)^6 at (1,8).
    line("(AZI/X)^2 decreasing along a=1 for b in [2,7]", F_T6, "a", 1, 2, 7, "decreasing")
    line(f"(AZI/X)^2 increasing along a=1 for b in [8,{top}]",
         F_T6, "a", 1, 8, top, "increasing")
    extremum("T6L", "(AZI/X)^2 minimum 9*(8/7)^6 at (1,8)", (1, 8))
    samples = line_samples(F_T6, "a", 1.0, 7.0, 8.0)
    t_min = min(samples, key=lambda s: s[1])[0]
    root = (7 + 73 ** 0.5) / 2
    record("continuous (AZI/X)^2 along a=1 dips between b=7 and b=8 "
           f"(stationary point near {root:.4f}; sampled, not asserted)",
           8, f"sampled minimum at b = {t_min:.6f}", "reported")

    # (AZI/M2*)^2: grid minimum (256/27)^2 at (1,4), far above the claimed
    # lower coefficient 4; grid maximum at (n-1,n-1) above the claimed upper one.
    extremum("T7-(21)L", "(AZI/M2*)^2 minimum (256/27)^2 at (1,4), versus claimed "
             "lower coefficient 4 (squared: {:.12g})", (1, 4),
             detail="sharp lower coefficient would be 256/27, not 4")
    extremum("T7-(21)U", "(AZI/M2*)^2 maximum versus claimed upper coefficient "
             "(n-1)^4/(2(n-2)) (squared: {:.12g})", (top, top),
             detail="grid maximum (n-1)^8/(8(n-2)^3) exceeds the claimed coefficient")

    return reports
