"""Catalog of sharp inequalities between the seven degree-based indices,
with numerical evaluation, equality-family detection, and sharpness auditing
over graph populations.

Each catalog entry records one published inequality between two indices (or
between the chromatic number and an index): the bounded side, the comparison
side, a closed-form coefficient (a constant, or a plain function of the graph
order n or of the minimum degree delta), the hypotheses with any excluded
graphs, and the family of graphs claimed to attain equality.  A family and an
excluded graph are the same kind of value: a label and a membership test on
the audit key's record, ``GraphContext``.
The auditor evaluates entries verbatim and reports where the claims hold,
where they are attained, and where they fail; it never repairs a coefficient.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from typing import NamedTuple

from .graphs import (
    CHROMATIC_CAP,
    G6_MAX,
    MOLECULAR_MAX_DEGREE,
    Graph,
    SizeLimitError,
    chromatic_number,
    chromatic_upper,
    degree_pair_counts,
    is_connected,
    parse_graph6,
    to_graph6,
    welsh_powell_upper,
)
from .indices import ALL_INDICES, IndexId, index_sums
# Not read here: perfbench/tracing.py wraps this name to time the indices.
from .indices import all_indices  # noqa: F401

DEFAULT_TOL = 1e-9

# BoundCheck verdicts
HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"
PRECONDITION_SKIPPED = "precondition_skipped"
DOMAIN_SKIPPED = "domain_skipped"

# SharpnessReport verdicts
CONFIRMED_SHARP = "confirmed_sharp"
HOLDS_NOT_SHARP = "holds_not_sharp_in_population"
VACUOUS = "vacuous"

# Pseudo-index: the chromatic number, usable only as a bounded-above side.
CHI = "CHI"


# ---------------------------------------------------------------------------
# Coefficients


@dataclass(frozen=True)
class Coeff:
    """A closed-form coefficient of one variable: ``fn`` of the graph order n
    when ``var`` is "n" (constants too), or of the minimum degree delta when
    ``var`` is "delta"; the ratio-grid concordance reads ``var`` to pick its
    degree floor.

    Catalog formulas write square roots and half-integer powers as float
    ``** 0.5`` and ``** p`` (not ``math.sqrt``), so their values equal, bit
    for bit, the values the packaged verdict fixtures were computed from.
    """

    var: str
    fn: Callable[[int], float]

    def __post_init__(self):
        if self.var not in ("n", "delta"):
            raise ValueError(f"coefficient variable must be 'n' or 'delta', got {self.var!r}")

    def ev(self, n: int, delta: int) -> float:
        return float(self.fn(delta if self.var == "delta" else n))


# ---------------------------------------------------------------------------
# Equality families and excluded graphs (decided on the audit key, never numeric)


@dataclass(frozen=True)
class EqualityFamily:
    """A claimed extremal family, or a graph a bound excludes: its report
    label and its membership test on the record of a graph's audit key,
    ``GraphContext`` (no graph), so membership is a function of the key.
    The test must not read ``chi``, which an audit's record may hold only as
    an upper bound.  Families compare by label."""

    label: str
    contains: Callable[["GraphContext"], bool] = field(compare=False)


P2_FAMILY = EqualityFamily("P2", lambda c: c.n == 2 and c.counts == (1, 1, 1))
P3_FAMILY = EqualityFamily("P3", lambda c: c.n == 3 and c.counts == (1, 2, 2))
COMPLETE_FAMILY = EqualityFamily("K_n", lambda c: c.delta == c.n - 1)
CYCLE_FAMILY = EqualityFamily("C_n", lambda c: c.delta == c.Delta == 2 and c.connected)
C3_FAMILY = EqualityFamily("C_3", lambda c: c.n == 3 and c.delta == 2)
SPANNING_STAR_FAMILY = EqualityFamily("S_{1,n-1}", lambda c: c.counts == (1, c.n - 1, c.n - 1))
REGULAR_FAMILY = EqualityFamily("delta-regular", lambda c: c.delta == c.Delta)


def star_family(k: int) -> EqualityFamily:
    """The star with ``k`` leaves."""
    return EqualityFamily(f"S_{{1,{k}}}", lambda c: c.n == k + 1 and c.counts == (1, k, k))


# The exceptional graphs of the Das-Trinajstic comparison; T* is the tree
# of two adjacent centers with three leaves each.
K14 = EqualityFamily("K_{1,4}", star_family(4).contains)
T_STAR = EqualityFamily("T*", lambda c: c.n == 8 and c.counts == (1, 4, 6, 4, 4, 1))


# ---------------------------------------------------------------------------
# Bound records


@dataclass(frozen=True)
class BoundSpec:
    """One inequality: ``lhs <= coeff*rhs`` (direction "upper") or
    ``coeff*rhs <= lhs`` (direction "lower"), under the stated hypotheses.

    ``degree_cap``, when set, is an integer test on (delta, Delta) that the
    graph must pass.  ``exclusions`` are tested like families.  A ``chain``
    holds the bounds it conjoins, any of them a chain itself, instead of
    sides and a coefficient of its own; every other bound needs all three,
    and only ``lhs`` may be ``CHI``.
    """

    bound_id: str
    citation: str
    statement: str
    lhs: IndexId | str | None = None
    rhs: IndexId | None = None
    coeff: Coeff | None = None
    direction: str = "lower"
    strict: bool = False
    n_min: int = 2
    delta_min: int = 1
    degree_cap: Callable[[int, int], bool] | None = None
    exclusions: tuple[EqualityFamily, ...] = ()
    claimed_equality: EqualityFamily | None = None
    chain: tuple[BoundSpec, ...] = ()

    def __post_init__(self):
        if self.direction not in ("lower", "upper"):
            raise ValueError(f"direction must be 'lower' or 'upper', got {self.direction!r}")
        for name, ok, want in (("lhs", self.lhs in _SIDES, "an index or CHI"),
                               ("rhs", isinstance(self.rhs, IndexId), "an index"),
                               ("coeff", isinstance(self.coeff, Coeff), "a Coeff")):
            value = getattr(self, name)
            if self.chain and value is not None:
                raise ValueError(f"a chain takes no {name}, got {value!r}")
            if not self.chain and not ok:
                raise ValueError(f"{name} must be {want}, got {value!r}")
        for link in self.chain:
            if not isinstance(link, BoundSpec):
                raise ValueError(f"chain {self.bound_id!r} holds {link!r}, not a BoundSpec")

    @functools.cached_property
    def sides(self) -> tuple[int, int]:
        """Positions of ``lhs`` and ``rhs`` in ``GraphContext.values``."""
        return _SIDES.index(self.lhs), _SIDES.index(self.rhs)

    @functools.cached_property
    def hypotheses(self) -> tuple:
        """All ``preconditions_met`` reads of the bound: bounds with equal
        tuples decide alike on every graph.  Exclusions enter by membership
        test, since families compare by label only."""
        return (self.n_min, self.delta_min, self.degree_cap,
                tuple(f.contains for f in self.exclusions))

    def admits(self, connected: bool, n: int, delta: int, Delta: int) -> bool:
        """Every hypothesis but the exclusions: these four values decide them."""
        return (connected and n >= self.n_min and delta >= self.delta_min
                and (self.degree_cap is None or self.degree_cap(delta, Delta)))

    def preconditions_met(self, ctx: "GraphContext") -> bool:
        return (self.admits(ctx.connected, ctx.n, ctx.delta, ctx.Delta)
                and not any(f.contains(ctx) for f in self.exclusions))


class BoundCheck(NamedTuple):
    """Outcome of one bound on one graph.  A named tuple: immutable, cheap
    to build, and equal to any tuple of the same six values."""

    bound_id: str
    graph6: str | None
    lhs_value: float | None
    rhs_side_value: float | None
    margin: float | None
    verdict: str


# The sides a bound can read, in the order of GraphContext.values.
_SIDES = (*ALL_INDICES, CHI)
_CHI_AT = _SIDES.index(CHI)


# perfbench/tracing.py replaces this name with a function that forwards to
# the class, so the package builds a record only by calling it.
class GraphContext(NamedTuple):
    """The audit key's record: everything a bound, a family or an exclusion
    reads on the graphs of one key, and the per-graph record ``compute``
    prints.  The record is the key itself, the plain tuple of its six
    fields, so it holds no graph and whatever reads it is a function of the
    key.  ``counts`` are the flat pair counts (``degree_pair_counts``) and
    ``chi`` is None above CHROMATIC_CAP.  A single graph's record
    (``graph_context``) has its exact chi.  In an audit's key table, chi is
    exact wherever a report of a bound on chi can tell the difference, and
    elsewhere an upper bound read from the counts, so a family or an
    exclusion reads the other five fields only.  ``values`` are the
    counts' seven ``index_sums`` in ALL_INDICES order, then chi as a float,
    so a bound reads each side by position; a side that is None is
    domain-skipped.
    """

    n: int
    connected: bool
    delta: int
    Delta: int
    counts: tuple[int, ...]
    chi: int | None

    @property
    def values(self) -> tuple[float | None, ...]:
        return (*index_sums(self.counts), None if self.chi is None else float(self.chi))


def _partition(g: Graph) -> tuple:
    """The first five fields of ``g``'s record, the ones free of chi, in
    order, as a plain tuple: ``g``'s key in an audit."""
    degrees = g.degrees
    return g.n, is_connected(g), min(degrees), max(degrees), degree_pair_counts(g)


def graph_context(g: Graph) -> GraphContext:
    """The record of ``g``'s audit key, with ``g``'s exact chi."""
    try:
        chi = chromatic_number(g)
    except SizeLimitError:
        chi = None
    return GraphContext(*_partition(g), chi)


class _Columns:
    """The keys of one audit as columns, built once from its key table: each
    key's graph6 strings and their number (the key's weight), the eight side
    values in ``GraphContext.values`` order (with the keys where each is
    None, and its screen), n, delta and the key indices, all in ``columns``,
    and each key's position in ``shapes``, the distinct (connected, n,
    delta, Delta) of the keys, in ``shape_of``.  It also holds what the
    bounds of the audit share: one ``_Live`` per hypothesis set, and the
    member keys per family test.  A key's strings stay in the order they
    were read; a report sorts those it names.
    """

    def __init__(self, groups: dict[GraphContext, list[str]]):
        self.ctxs = list(groups)
        self.labels = list(groups.values())
        self.weights = list(map(len, self.labels))
        self.sides = [list(col) for col in zip(*(ctx.values for ctx in self.ctxs))] or [
            [] for _ in _SIDES]
        self.undefined = [{i for i, v in enumerate(col) if v is None} for col in self.sides]
        # A margin above its lhs column's screen, DEFAULT_TOL * max(1, max |lhs|),
        # holds: it exceeds DEFAULT_TOL * max(1, |lhs|) at every key.
        self.screens = [DEFAULT_TOL * max(1.0, max((abs(v) for v in col if v is not None),
                                                   default=0.0))
                        for col in self.sides]
        # The live key lists share the ints of the "keys" column.
        self.columns = dict(enumerate(self.sides), n=[ctx.n for ctx in self.ctxs],
                            delta=[ctx.delta for ctx in self.ctxs], keys=list(range(len(groups))))
        shapes: dict[tuple, int] = {}
        self.shape_of = [
            shapes.setdefault((ctx.connected, ctx.n, ctx.delta, ctx.Delta), len(shapes))
            for ctx in self.ctxs]
        self.shapes = list(shapes)
        self.live: dict = {}
        self.members: dict = {}

    def split(self, i: int, by_chi: dict[int, list[str]]) -> None:
        """Give the members of key ``i`` the chi of ``by_chi``, their exact
        chi or a tighter bound on it: the labels of each chi make one key,
        the first in place of key ``i`` and each other appended after the
        last key.  Only chi and the labels differ between the new keys, so
        the other columns copy key ``i``'s values; the screens stay, since
        no chi grew.  The shared live keys and family members are dropped,
        to be made again on first read."""
        ctx = self.ctxs[i]
        for k, (chi, labels) in enumerate(by_chi.items()):
            at = i
            if k:
                at = len(self.ctxs)
                for col in (*self.sides, self.columns["n"], self.columns["delta"],
                            self.shape_of, self.ctxs, self.labels, self.weights):
                    col.append(col[i])
                self.columns["keys"].append(at)
                for out in self.undefined:
                    if i in out:
                        out.add(at)
            self.ctxs[at] = GraphContext(*ctx[:5], chi)
            self.labels[at] = labels
            self.weights[at] = len(labels)
            self.sides[_CHI_AT][at] = float(chi)
        self.live.clear()
        self.members.clear()


class _Live(dict):
    """The keys of a pass: ``met`` marks those that meet its hypotheses (for
    a chain, also its links'), ``mask`` the live ones, ``keys`` lists these
    and ``weight`` sums their weights.  Each item is a column of
    ``cols.columns`` compressed to the live keys, made on first read."""

    def __init__(self, cols: _Columns, met: list[bool], mask: list[bool]):
        self.columns, self.met, self.mask = cols.columns, met, mask
        self.keys = self["keys"]
        self.weight = sum(compress(cols.weights, mask))

    def __missing__(self, name):
        col = self[name] = list(compress(self.columns[name], self.mask))
        return col


class _Checked(NamedTuple):
    """One bound's pass: its keys, the slack at each live key (its margin
    where it holds, ``math.inf`` where it is attained or violated), the
    equality and the violated keys, and a chain's links' passes (none for a
    plain bound).  Every other live key holds; a met key that is not live
    is domain-skipped, any other a precondition skip."""

    live: _Live
    slacks: list[float]
    equal: list[int]
    violated: list[int]
    links: tuple[_Checked, ...] = ()


def _live(b: BoundSpec, cols: _Columns) -> _Live:
    """The keys that meet ``b``'s hypotheses, shared by the bounds with the
    same hypotheses: ``b.admits`` is tested once per distinct (connected,
    n, delta, Delta) of the keys, and the exclusions only on the keys it
    admits."""
    live = cols.live.get(b.hypotheses)
    if live is None:
        admitted = [b.admits(*shape) for shape in cols.shapes]
        met = list(map(admitted.__getitem__, cols.shape_of))
        if b.exclusions:
            met = [m and not any(f.contains(ctx) for f in b.exclusions)
                   for m, ctx in zip(met, cols.ctxs)]
        live = cols.live[b.hypotheses] = _Live(cols, met, met)
    return live


def _evaluate(b: BoundSpec, cols: _Columns) -> _Checked:
    """One bound on every key of ``cols``: the margin rule of every check.

    The live keys are those that meet the hypotheses (``_live``) and define
    both sides.  The coefficient is ``float(fn(x))`` at each distinct n or
    delta of them, and each margin is one multiplication and one subtraction.
    A margin above the screen of the lhs column, DEFAULT_TOL * max(1, max
    |lhs|), holds; only the keys at or below it go through the per-key rule:
    equality when |margin| <= DEFAULT_TOL * max(1, |lhs|), violated below
    minus that, and either way the slack becomes ``inf``.  A strict bound
    reaching equality is still "equality", and the audit surfaces the
    strictness conflict.  The tolerance is one constant, not a
    setting: it only absorbs float rounding.  Over the keys of orders 2..7,
    every equality has a relative margin of at most 3e-16 and every other
    verdict at least 1e-3.

    A chain conjoins its links' passes, taken as key sets, and returns them
    with its own: it meets its hypotheses where it and every link do, checks
    the met keys live in every link, and is violated where any link is.  Its
    slack is the smallest of its links' slacks, ``inf`` where it is violated.
    """
    if b.chain:
        links = tuple(_evaluate(link, cols) for link in b.chain)
        met = list(map(all, zip(_live(b, cols).met, *(link.live.met for link in links))))
        live = _Live(cols, met, list(map(all, zip(met, *(link.live.mask for link in links)))))
        broken = set().union(*(link.violated for link in links))
        # Each link's slacks at the chain's keys; the inf lets min take one link.
        at_keys = [compress(link.slacks, compress(live.mask, link.live.mask)) for link in links]
        lows = map(min, *at_keys, repeat(math.inf))
        slacks = [math.inf if i in broken else s for i, s in zip(live.keys, lows)]
        return _Checked(live, slacks, [], [i for i in live.keys if i in broken], links)

    live = _live(b, cols)
    if out := set().union(*(cols.undefined[at] for at in b.sides)):
        live = _Live(cols, live.met, [m and i not in out for i, m in enumerate(live.met)])
    lhs_at, rhs_at = b.sides
    slacks, equal, violated = _margins(b, live[lhs_at], live[rhs_at], live[b.coeff.var],
                                       cols.screens[lhs_at])
    keys = live.keys
    return _Checked(live, slacks, [keys[k] for k in equal], [keys[k] for k in violated])


def _margins(b: BoundSpec, lhs, rhs, xs, screen: float) -> tuple[list[float], list[int], list[int]]:
    """The margin rule of ``_evaluate`` on columns of the lhs, the rhs and
    the coefficient's variable: the slack at each position (``math.inf``
    where attained or violated), then the equality and the violated
    positions.  ``screen`` may be any value at or above DEFAULT_TOL * max(1,
    |lhs|) at every position."""
    fn = b.coeff.fn
    coeffs = {x: float(fn(x)) for x in set(xs)}  # bit for bit Coeff.ev
    values = set(coeffs.values())
    cs = repeat(values.pop()) if len(values) == 1 else map(coeffs.__getitem__, xs)
    if b.direction == "upper":
        slacks = [c * r - l for c, r, l in zip(cs, rhs, lhs)]
    else:
        slacks = [l - c * r for c, r, l in zip(cs, rhs, lhs)]
    equal, violated = [], []
    for k in [k for k, margin in enumerate(slacks) if margin <= screen]:
        margin = slacks[k]
        scale = DEFAULT_TOL * max(1.0, abs(lhs[k]))
        if margin <= scale:  # attained at or above -scale, else violated
            (equal if margin >= -scale else violated).append(k)
            slacks[k] = math.inf
    return slacks, equal, violated


def evaluate_bound(b: BoundSpec, g: Graph) -> BoundCheck:
    """Check one bound on one graph; every outcome is a verdict, not an error.

    The verdict is the audit's pass over the one key of the graph's record
    (``graph_context``), so a single graph and a population follow one
    margin rule.  The sides and margin are those the pass computes, read
    back from the record's columns.  A chain has no sides; its margin is the
    smallest of its links' that hold, read from their passes, or None.
    """
    ctx = graph_context(g)
    label = to_graph6(g) if g.n <= G6_MAX else None
    cols = _Columns({ctx: [label]})
    checked = _evaluate(b, cols)
    if not checked.live.keys:
        verdict = DOMAIN_SKIPPED if checked.live.met[0] else PRECONDITION_SKIPPED
        return BoundCheck(b.bound_id, label, None, None, None, verdict)
    verdict = EQUALITY if checked.equal else VIOLATED if checked.violated else HOLDS
    if b.chain:
        low = min(link.slacks[0] for link in checked.links)
        margin = None if low == math.inf else low
        return BoundCheck(b.bound_id, label, None, None, margin, verdict)
    lhs, rhs = (cols.sides[at][0] for at in b.sides)
    product = b.coeff.ev(ctx.n, ctx.delta) * rhs
    margin = product - lhs if b.direction == "upper" else lhs - product
    return BoundCheck(b.bound_id, label, lhs, product, margin, verdict)


# ---------------------------------------------------------------------------
# Sharpness audits


@dataclass
class SharpnessReport:
    """Aggregate of one bound's checks over a population.  A bound that
    claims no equality family has no ``family_mismatches``: both lists are
    empty, and a strict bound lists its equalities in ``strict_conflicts``."""

    bound_id: str
    citation: str
    population: str
    tolerance: float
    counts: dict = field(default_factory=dict)
    min_margin: dict | None = None
    equality_witnesses: list[str] = field(default_factory=list)
    violation_witnesses: list[str] = field(default_factory=list)
    verdict: str = VACUOUS
    equality_family: str | None = None
    family_mismatches: dict = field(default_factory=dict)
    strict_conflicts: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as a json-ready dict under ``schema_version`` 1.

        Its containers are the report's own, not copies: do not mutate them.
        """
        return {"schema_version": 1, **vars(self)}


_CHUNK = 256


def _key_groups(labelled) -> dict[GraphContext, list[str]]:
    """The population, ``(graph6, graph)`` pairs, as a table from each audit
    key's record to the graph6 strings of its members, in the order read.

    The key is (n, connectivity, delta, Delta, flat pair counts)
    (``_partition``), which fixes the indices; the edge-degree partition is
    keyed as ``degree_pair_counts`` returns it, counted once per graph.  No
    chromatic number is computed: each record's chi is ``chromatic_upper``
    of its counts, at or above the chi of every member (None above
    CHROMATIC_CAP), and ``_exact_chi`` later splits the few keys whose exact
    chi a report can show (K_{3,3} and the prism share a key here, with
    chi 4).  A record is built once per key, not per graph.  No graph is
    kept: the pairs are read and keyed ``_CHUNK`` at a time, so they can be
    a stream that builds or parses each graph on demand.
    """
    groups: dict[tuple, list[str]] = {}
    pairs = iter(labelled)
    # A chunk of pairs at a time: building each graph of order 7 between
    # keying two others cost 5 us a graph, 8% of the build and keying.
    while chunk := list(islice(pairs, _CHUNK)):
        for g6, g in chunk:
            key = _partition(g)
            members = groups.get(key)
            if members is None:
                groups[key] = [g6]
            else:
                members.append(g6)
    return {GraphContext(*key, None if key[0] > CHROMATIC_CAP else chromatic_upper(key[4])):
            members for key, members in groups.items()}


def _reads_chi(b: BoundSpec) -> bool:
    """Whether ``b``, or a bound its chain holds at any depth, reads chi."""
    return b.lhs == CHI or any(map(_reads_chi, b.chain))


def _exact_chi(bounds, cols: _Columns) -> None:
    """Split the keys of ``cols`` by the exact chi of their members (each
    label parsed again and coloured by ``chromatic_number``) wherever a
    report of ``bounds`` can tell chi from its upper bound: every key live
    in a lower bound on chi or in a chain that holds a bound on chi at any
    depth, and, for an upper bound on chi, the keys equal or violated at
    the upper bound and those that can hold its minimum margin.

    The margin of an upper bound on chi is c*rhs - chi, and float
    subtraction is monotone, so a key's slack at any upper bound on its chi
    is at most its exact slack, and a key that holds at such a bound holds
    exactly.  So the keys that hold are walked in increasing slack at their
    record's chi, until the next slack is strictly above the smallest exact
    slack found.  A key reached first tries the tighter
    ``welsh_powell_upper``: where that bound is lower its record takes it,
    and the key is made exact only if its slack there is not above the
    smallest exact slack found.  A key whose members all have its record's
    chi keeps its record.  A label that does not decode to a graph of its
    key raises ``ValueError``.
    """
    exact: dict[int, dict[int, list[str]]] = {}  # key -> chi -> its labels
    tight: dict[int, int] = {}  # key -> its Welsh-Powell bound, where below its chi

    def colour(i: int) -> dict[int, list[str]]:
        by_chi = exact.get(i)
        if by_chi is None:
            by_chi = exact[i] = {}
            key = cols.ctxs[i][:5]
            for label in cols.labels[i]:
                g = parse_graph6(label)
                if _partition(g) != key:
                    raise ValueError(f"audit label {label!r} is not the graph6 of its graph")
                by_chi.setdefault(chromatic_number(g), []).append(label)
        return by_chi

    def least(b: BoundSpec, i: int, chis) -> float:
        """``b``'s smallest slack at key ``i`` over the chi values ``chis``."""
        lhs = [float(chi) for chi in chis]
        rhs, x = cols.sides[b.sides[1]][i], cols.columns[b.coeff.var][i]
        return min(_margins(b, lhs, [rhs] * len(lhs), [x] * len(lhs), cols.screens[_CHI_AT])[0])

    for b in bounds:
        if not _reads_chi(b):
            continue
        checked = _evaluate(b, cols)
        if b.chain or b.direction == "lower":
            for i in checked.live.keys:
                colour(i)
            continue
        slacks, keys = checked.slacks, checked.live.keys
        # The equal and violated keys, and one at the lowest slack, start the
        # walk exact: that keeps the walk short.
        low = min(slacks, default=math.inf)
        start = checked.equal + checked.violated
        if low < math.inf:
            start.append(keys[slacks.index(low)])
        best = min((least(b, i, colour(i)) for i in start), default=math.inf)
        for s, i in sorted((s, i) for s, i in zip(slacks, keys) if s <= best):
            if s > best:
                break
            if i not in exact:
                chi = tight.get(i) or welsh_powell_upper(cols.ctxs[i].counts)
                if chi < cols.ctxs[i].chi:
                    tight[i] = chi
                    if least(b, i, [chi]) > best:
                        continue
            best = min(best, least(b, i, colour(i)))
    for i, chi in tight.items():
        if i not in exact:
            cols.split(i, {chi: cols.labels[i]})
    for i, by_chi in exact.items():
        if list(by_chi) != [cols.ctxs[i].chi]:
            cols.split(i, by_chi)


def _min_margin(checked: _Checked, cols: _Columns) -> dict | None:
    """The smallest slack, a margin of a key that holds, and the smallest
    graph6 of the keys at that slack; None when no key holds."""
    slacks, keys = checked.slacks, checked.live.keys
    low = min(slacks, default=math.inf)
    if low == math.inf:
        return None
    at = ([keys[slacks.index(low)]] if slacks.count(low) == 1
          else [i for i, s in zip(keys, slacks) if s == low])
    return {"value": low, "witness_graph6": min(min(cols.labels[i]) for i in at)}


def _fold(b: BoundSpec, cols: _Columns, population: str) -> SharpnessReport:
    """Fold one bound's pass over the keys into a report; each key counts
    once for every graph of its group.  Counts are sums of key weights, and
    the witness and family-mismatch lists come from the sparse equality,
    violation and family-member keys.  Each witness list is sorted here,
    where it is reported, and the minimum-margin witness is the smallest
    graph6 at the smallest margin, so the report does not depend on the
    population order."""
    checked = _evaluate(b, cols)
    weights, live = cols.weights, checked.live
    equal_keys, violated_keys = checked.equal, checked.violated
    checked_n = live.weight
    equal = sum(map(weights.__getitem__, equal_keys))
    violated = sum(map(weights.__getitem__, violated_keys))
    eq_not_family: list[int] = []
    family_not_eq: list[int] = []
    family = b.claimed_equality
    if family is not None:
        members = cols.members.get(family.contains)
        if members is None:
            members = cols.members[family.contains] = {
                i for i, ctx in enumerate(cols.ctxs) if family.contains(ctx)}
        eq_not_family = [i for i in equal_keys if i not in members]
        family_not_eq = [i for i in members.difference(equal_keys) if live.mask[i]]

    def witnesses(at):
        return sorted([g6 for i in at for g6 in cols.labels[i]])

    equality_w = witnesses(equal_keys)
    if violated:
        verdict = VIOLATED
    elif checked_n == 0:
        verdict = VACUOUS
    elif equal:
        verdict = CONFIRMED_SHARP
    else:
        verdict = HOLDS_NOT_SHARP
    return SharpnessReport(
        bound_id=b.bound_id,
        citation=b.citation,
        population=population,
        tolerance=DEFAULT_TOL,
        counts={
            "checked": checked_n,
            "skipped": sum(weights) - checked_n,
            "holds": checked_n - equal - violated,
            "equality": equal,
            "violated": violated,
        },
        min_margin=_min_margin(checked, cols),
        equality_witnesses=equality_w,
        violation_witnesses=witnesses(violated_keys),
        verdict=verdict,
        equality_family=family.label if family else None,
        family_mismatches={
            "equality_not_in_family": witnesses(eq_not_family),
            "family_without_equality": witnesses(family_not_eq),
        },
        strict_conflicts=list(equality_w) if b.strict else [],
    )


def audit_labelled(bounds, labelled, population: str = "population") -> dict[str, SharpnessReport]:
    """Audit several bounds over one population of ``(graph6, graph)``
    pairs, one columnar pass per bound.

    Each label must be its graph's graph6: the reports name graphs by it,
    and the few graphs whose exact chromatic number a report can show are
    parsed again from it (``_exact_chi``), which raises ``ValueError`` for a
    label whose graph is not of its graph's key.  The pairs are keyed as
    they are read (``_key_groups``), so a stream of them is never held
    whole.  The key groups become columns once per audit (graph6 strings,
    weights, the eight side values, n and delta), and the keys of a bound
    on chi are then split by exact chi where its report needs it.  Each
    hypothesis set and each claimed family is tested once per key and
    shared by the bounds that state it, and so are the keys that meet each
    hypothesis set and their columns.  Each bound evaluates its coefficient
    once per distinct n or delta of its live keys, computes its margins over
    them, and applies the per-key rule only to the margins at or below one
    screen; a chain evaluates its links again and conjoins their passes.
    Witness lists are sorted by graph6 string, so the result does not
    depend on the population order (for equal populations as sets).
    """
    bounds = list(bounds)
    cols = _Columns(_key_groups(labelled))
    _exact_chi(bounds, cols)
    return {b.bound_id: _fold(b, cols, population) for b in bounds}


def audit_all(bounds, graphs, population: str = "population") -> dict[str, SharpnessReport]:
    """:func:`audit_labelled` over ``graphs``, each labelled with its
    ``to_graph6``, which refuses an order above G6_MAX before any bound runs,
    whether or not a report would name the graph.  ``graphs`` may be a
    one-shot iterator."""
    return audit_labelled(bounds, ((to_graph6(g), g) for g in graphs), population)


def audit(b: BoundSpec, graphs, population: str = "population") -> SharpnessReport:
    """Audit a single bound over a population of connected graphs."""
    return audit_all([b], graphs, population)[b.bound_id]


# ---------------------------------------------------------------------------
# The built-in catalog

R, H, ABC, X, GA, AZI, M2 = ALL_INDICES


def _lower(bound_id, citation, statement, lhs, rhs, coeff, **kw):
    return BoundSpec(bound_id, citation, statement, lhs=lhs, rhs=rhs,
                     coeff=coeff, direction="lower", **kw)


def _upper(bound_id, citation, statement, lhs, rhs, coeff, **kw):
    return BoundSpec(bound_id, citation, statement, lhs=lhs, rhs=rhs,
                     coeff=coeff, direction="upper", **kw)


def builtin_catalog() -> list[BoundSpec]:
    """All 55 inequality records, in source order."""
    return list(_build_catalog())


def catalog_by_id() -> dict[str, BoundSpec]:
    return {b.bound_id: b for b in _build_catalog()}


@functools.cache
def _build_catalog() -> tuple[BoundSpec, ...]:
    """The catalog, built once: a chain holds the very entries it links."""
    one = Coeff("n", lambda n: 1)
    root2 = Coeff("n", lambda n: 2 ** 0.5)
    n_minus_1 = Coeff("n", lambda n: n - 1)
    delta = Coeff("delta", lambda d: d)
    ub17 = Coeff("n", lambda n: (n - 1) ** 7 / (8 * (n - 2) ** 3))
    c9_rh = Coeff("delta", lambda d: d ** 7 / (8 * (d - 1) ** 3))
    return (
        _lower("T1L", "Theorem 1 (lower)",
               "sqrt(2)*X(G) <= GA(G) for connected G, n >= 2; equality iff G = P2",
               GA, X, root2, claimed_equality=P2_FAMILY),
        _upper("T1U", "Theorem 1 (upper)",
               "GA(G) <= sqrt(2(n-1))*X(G) for connected G, n >= 2; equality iff G = K_n",
               GA, X, Coeff("n", lambda n: (2 * (n - 1)) ** 0.5),
               claimed_equality=COMPLETE_FAMILY),
        _lower("C1", "Corollary 1",
               "sqrt(2*delta)*X(G) <= GA(G) for delta >= 2; equality iff G is delta-regular",
               GA, X, Coeff("delta", lambda d: (2 * d) ** 0.5),
               delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("T2L", "Theorem 2 (lower)",
               "R(G) <= GA(G) for connected G, n >= 2; equality iff G = P2",
               GA, R, one, claimed_equality=P2_FAMILY),
        _upper("T2U", "Theorem 2 (upper)",
               "GA(G) <= (n-1)*R(G) for connected G, n >= 2; equality iff G = K_n",
               GA, R, n_minus_1, claimed_equality=COMPLETE_FAMILY),
        _lower("C2", "Corollary 2",
               "delta*R(G) <= GA(G) for delta >= 2; equality iff G is delta-regular",
               GA, R, delta, delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C3", "Corollary 3 (first of two)",
               "sqrt(4/3)*R(G) <= GA(G) for connected G, n >= 3; equality claimed iff G = P3 "
               "(upper companion (n-1)*R(G) is entry T2U)",
               GA, R, Coeff("n", lambda n: (4 / 3) ** 0.5),
               n_min=3, claimed_equality=P3_FAMILY),
        _lower("EXT-ZT", "Zhou-Trinajstic comparison",
               "sqrt(2/3)*R(G) <= X(G) for connected G, n >= 3; equality iff G = P3",
               X, R, Coeff("n", lambda n: (2 / 3) ** 0.5),
               n_min=3, claimed_equality=P3_FAMILY),
        _lower("T3L", "Theorem 3 (lower)",
               "H(G) <= GA(G) for connected G, n >= 2; equality iff G = P2",
               GA, H, one, claimed_equality=P2_FAMILY),
        _upper("T3U", "Theorem 3 (upper)",
               "GA(G) <= (n-1)*H(G) for connected G, n >= 2; equality iff G = K_n",
               GA, H, n_minus_1, claimed_equality=COMPLETE_FAMILY),
        _lower("C3b", "Corollary 3 (second of two), inequality (1)",
               "delta*H(G) <= GA(G) for delta >= 2; equality iff G is delta-regular",
               GA, H, delta, delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("T4L", "Theorem 4 (lower)",
               "sqrt(2(n-2))/(n-1)*GA(G) <= ABC(G) for n >= 3, delta >= 2; equality iff G = K_n",
               ABC, GA, Coeff("n", lambda n: (2 * (n - 2)) ** 0.5 / (n - 1)),
               n_min=3, delta_min=2, claimed_equality=COMPLETE_FAMILY),
        t4u := _upper("T4U", "Theorem 4 (upper)",
                      "ABC(G) <= (n+1)/(4*sqrt(n-1))*GA(G) for n >= 3, delta >= 2; "
                      "equality iff G = C_3",
                      ABC, GA, Coeff("n", lambda n: (n + 1) / (4 * (n - 1) ** 0.5)),
                      n_min=3, delta_min=2, claimed_equality=C3_FAMILY),
        ext2a := _upper("EXT-2a", "Zhong-Xu chain (2), first link",
                        "H(G) <= R(G) for delta >= 2; equality iff G is regular",
                        H, R, one, delta_min=2, claimed_equality=REGULAR_FAMILY),
        ext2b := _upper("EXT-2b", "Zhong-Xu chain (2), second link",
                        "R(G) <= X(G) for delta >= 2; equality iff G is a cycle",
                        R, X, one, delta_min=2, claimed_equality=CYCLE_FAMILY),
        ext2c := _upper("EXT-2c", "Zhong-Xu chain (2), third link",
                        "X(G) < ABC(G) for delta >= 2 (strict)",
                        X, ABC, one, delta_min=2, strict=True),
        BoundSpec("C4", "Corollary 4",
                  "H(G) <= R(G) <= X(G) < ABC(G) <= (n+1)/(4*sqrt(n-1))*GA(G) "
                  "for n >= 3, delta >= 2 (chain of EXT-2a, EXT-2b, EXT-2c, T4U)",
                  n_min=3, delta_min=2, chain=(ext2a, ext2b, ext2c, t4u)),
        _upper("EXT-3(i)", "Das-Trinajstic strict comparison (molecular)",
               "ABC(G) < GA(G) for molecular G (max degree <= 4) other than K_{1,4} and T*",
               ABC, GA, one, strict=True, degree_cap=lambda d, D: D <= MOLECULAR_MAX_DEGREE,
               exclusions=(K14, T_STAR)),
        _upper("EXT-3(ii)", "Das-Trinajstic strict comparison (small degree spread)",
               "ABC(G) < GA(G) when Delta - delta <= 3, G other than K_{1,4} and T*",
               ABC, GA, one, strict=True, degree_cap=lambda d, D: D - d <= 3,
               exclusions=(K14, T_STAR)),
        _upper("EXT-3(iii)", "strict comparison under delta >= 2 and bounded spread",
               "ABC(G) < GA(G) when delta >= 2 and Delta - delta <= (2*delta-1)^2",
               ABC, GA, one, strict=True, delta_min=2,
               degree_cap=lambda d, D: D - d <= (2 * d - 1) ** 2),
        _upper("EXT-4", "Deng chromatic bound, inequality (4)",
               "chi(G) <= 2*H(G) for connected G; equality iff G = K_n",
               CHI, H, Coeff("n", lambda n: 2), claimed_equality=COMPLETE_FAMILY),
        _upper("C6", "Corollary 6",
               "chi(G) <= (2/delta)*GA(G) for delta >= 2; equality iff G = K_n",
               CHI, GA, Coeff("delta", lambda d: 2 / d),
               delta_min=2, claimed_equality=COMPLETE_FAMILY),
        _lower("T5-(5)L", "Theorem 5, inequality (5) lower",
               "M2*(G) <= R(G) for connected G, n >= 2; equality iff G = P2",
               R, M2, one, claimed_equality=P2_FAMILY),
        _upper("T5-(5)U", "Theorem 5, inequality (5) upper",
               "R(G) <= (n-1)*M2*(G); equality iff G = K_n",
               R, M2, n_minus_1, claimed_equality=COMPLETE_FAMILY),
        _lower("T5-(6)L", "Theorem 5, inequality (6) lower",
               "M2*(G)/sqrt(2) <= X(G); equality iff G = P2",
               X, M2, Coeff("n", lambda n: 1 / 2 ** 0.5), claimed_equality=P2_FAMILY),
        _upper("T5-(6)U", "Theorem 5, inequality (6) upper",
               "X(G) <= (n-1)^(3/2)/sqrt(2)*M2*(G); equality iff G = K_n",
               X, M2, Coeff("n", lambda n: (n - 1) ** 1.5 / 2 ** 0.5),
               claimed_equality=COMPLETE_FAMILY),
        _lower("T5-(7)L", "Theorem 5, inequality (7) lower",
               "M2*(G) <= H(G); equality iff G = P2",
               H, M2, one, claimed_equality=P2_FAMILY),
        _upper("T5-(7)U", "Theorem 5, inequality (7) upper",
               "H(G) <= (n-1)*M2*(G); equality iff G = K_n",
               H, M2, n_minus_1, claimed_equality=COMPLETE_FAMILY),
        _lower("T5-(8)L", "Theorem 5, inequality (8) lower",
               "M2*(G) <= GA(G); equality iff G = P2",
               GA, M2, one, claimed_equality=P2_FAMILY),
        _upper("T5-(8)U", "Theorem 5, inequality (8) upper",
               "GA(G) <= (n-1)^2*M2*(G); equality iff G = K_n",
               GA, M2, Coeff("n", lambda n: (n - 1) ** 2),
               claimed_equality=COMPLETE_FAMILY),
        _lower("T5-(9)L", "Theorem 5, inequality (9) lower",
               "sqrt(2)*M2*(G) <= ABC(G) for n >= 3; equality iff G = P3",
               ABC, M2, root2, n_min=3, claimed_equality=P3_FAMILY),
        _upper("T5-(9)U", "Theorem 5, inequality (9) upper",
               "ABC(G) <= (n-1)*sqrt(2(n-2))*M2*(G) for n >= 3; equality iff G = K_n",
               ABC, M2, Coeff("n", lambda n: (n - 1) * (2 * (n - 2)) ** 0.5), n_min=3,
               claimed_equality=COMPLETE_FAMILY),
        _lower("C7-(10)", "Corollary 7, inequality (10)",
               "delta*M2*(G) <= R(G) for delta >= 2; equality iff G is delta-regular",
               R, M2, delta, delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C7-(11)", "Corollary 7, inequality (11)",
               "delta^(3/2)/sqrt(2)*M2*(G) <= X(G) for delta >= 2; "
               "equality iff G is delta-regular",
               X, M2, Coeff("delta", lambda d: d ** 1.5 / 2 ** 0.5), delta_min=2,
               claimed_equality=REGULAR_FAMILY),
        _lower("C7-(12)", "Corollary 7, inequality (12)",
               "sqrt(delta)*M2*(G) <= H(G) for delta >= 2; "
               "equality claimed iff G is delta-regular",
               H, M2, Coeff("delta", lambda d: d ** 0.5),
               delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C7-(13)", "Corollary 7, inequality (13)",
               "delta^2*M2*(G) <= GA(G) for delta >= 2; equality iff G is delta-regular",
               GA, M2, Coeff("delta", lambda d: d ** 2),
               delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C7-(14)", "Corollary 7, inequality (14)",
               "delta*sqrt(2(delta-1))*M2*(G) <= ABC(G) for delta >= 2; "
               "equality iff G is delta-regular",
               ABC, M2, Coeff("delta", lambda d: d * (2 * (d - 1)) ** 0.5), delta_min=2,
               claimed_equality=REGULAR_FAMILY),
        _lower("T6L", "Theorem 6 (lower)",
               "1536/343*X(G) <= AZI(G) for connected G, n >= 3; equality iff G = S_{1,8}",
               AZI, X, Coeff("n", lambda n: 1536 / 343), n_min=3,
               claimed_equality=star_family(8)),
        _upper("T6U", "Theorem 6 (upper)",
               "AZI(G) <= (n-1)^(13/2)/(sqrt(32)(n-2)^3)*X(G) for n >= 3; "
               "equality iff G = K_n",
               AZI, X, Coeff("n", lambda n: (n - 1) ** 6.5 / (32 ** 0.5 * (n - 2) ** 3)),
               n_min=3, claimed_equality=COMPLETE_FAMILY),
        _lower("C8", "Corollary 8",
               "delta^(13/2)/(sqrt(32)(delta-1)^3)*X(G) <= AZI(G) for delta >= 2; "
               "equality iff G is delta-regular",
               AZI, X, Coeff("delta", lambda d: d ** 6.5 / (32 ** 0.5 * (d - 1) ** 3)),
               delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("T7-(17)L", "Theorem 7, inequality (17) lower",
               "343*sqrt(7)/216*R(G) <= AZI(G) for n >= 3; equality iff G = S_{1,7}",
               AZI, R, Coeff("n", lambda n: 343 / 216 * 7 ** 0.5), n_min=3,
               claimed_equality=star_family(7)),
        _upper("T7-(17)U", "Theorem 7, inequality (17) upper",
               "AZI(G) <= (n-1)^7/(8(n-2)^3)*R(G) for n >= 3; equality iff G = K_n",
               AZI, R, ub17, n_min=3, claimed_equality=COMPLETE_FAMILY),
        _lower("T7-(18)L", "Theorem 7, inequality (18) lower",
               "375/64*H(G) <= AZI(G) for n >= 3; equality iff G = S_{1,5}",
               AZI, H, Coeff("n", lambda n: 375 / 64), n_min=3,
               claimed_equality=star_family(5)),
        _upper("T7-(18)U", "Theorem 7, inequality (18) upper",
               "AZI(G) <= (n-1)^7/(8(n-2)^3)*H(G) for n >= 3; equality iff G = K_n",
               AZI, H, ub17, n_min=3, claimed_equality=COMPLETE_FAMILY),
        _lower("T7-(19)L", "Theorem 7, inequality (19) lower",
               "((n-1)/(n-2))^(7/2)*ABC(G) <= AZI(G) for n >= 3; "
               "equality claimed iff G = S_{1,n-1}",
               AZI, ABC, Coeff("n", lambda n: ((n - 1) / (n - 2)) ** 3.5), n_min=3,
               claimed_equality=SPANNING_STAR_FAMILY),
        _upper("T7-(19)U", "Theorem 7, inequality (19) upper",
               "AZI(G) <= ((n-1)^2/(2(n-2)))^(7/2)*ABC(G) for n >= 3; "
               "equality claimed iff G = K_n",
               AZI, ABC, Coeff("n", lambda n: ((n - 1) ** 2 / (2 * (n - 2))) ** 3.5),
               n_min=3,
               claimed_equality=COMPLETE_FAMILY),
        _lower("T7-(20)L", "Theorem 7, inequality (20) lower",
               "8*GA(G) <= AZI(G) for n >= 3, delta >= 2; equality iff G = C_n",
               AZI, GA, Coeff("n", lambda n: 8),
               n_min=3, delta_min=2, claimed_equality=CYCLE_FAMILY),
        _upper("T7-(20)U", "Theorem 7, inequality (20) upper",
               "AZI(G) <= (n-1)^6/(8(n-2)^3)*GA(G) for n >= 3, delta >= 2; "
               "equality iff G = K_n",
               AZI, GA, Coeff("n", lambda n: (n - 1) ** 6 / (8 * (n - 2) ** 3)),
               n_min=3, delta_min=2, claimed_equality=COMPLETE_FAMILY),
        _lower("T7-(21)L", "Theorem 7, inequality (21) lower",
               "4*M2*(G) <= AZI(G) for n >= 3; equality claimed iff G = P3",
               AZI, M2, Coeff("n", lambda n: 4), n_min=3, claimed_equality=P3_FAMILY),
        _upper("T7-(21)U", "Theorem 7, inequality (21) upper",
               "AZI(G) <= (n-1)^4/(2(n-2))*M2*(G) for n >= 3; "
               "equality claimed iff G = K_n",
               AZI, M2, Coeff("n", lambda n: (n - 1) ** 4 / (2 * (n - 2))), n_min=3,
               claimed_equality=COMPLETE_FAMILY),
        _lower("C9-(22)", "Corollary 9, inequality (22)",
               "delta^7/(8(delta-1)^3)*R(G) <= AZI(G) for delta >= 2; "
               "equality iff G is delta-regular",
               AZI, R, c9_rh, delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C9-(23)", "Corollary 9, inequality (23)",
               "delta^7/(8(delta-1)^3)*H(G) <= AZI(G) for delta >= 2; "
               "equality iff G is delta-regular",
               AZI, H, c9_rh, delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C9-(24)", "Corollary 9, inequality (24)",
               "(delta^2/(2(delta-1)))^(7/2)*ABC(G) <= AZI(G) for delta >= 2; "
               "equality claimed iff G is delta-regular",
               AZI, ABC, Coeff("delta", lambda d: (d ** 2 / (2 * (d - 1))) ** 3.5),
               delta_min=2, claimed_equality=REGULAR_FAMILY),
        _lower("C9-(25)", "Corollary 9, inequality (25)",
               "delta^6/(8(delta-1)^3)*GA(G) <= AZI(G) for delta >= 2; "
               "equality iff G is delta-regular",
               AZI, GA, Coeff("delta", lambda d: d ** 6 / (8 * (d - 1) ** 3)),
               delta_min=2,
               claimed_equality=REGULAR_FAMILY),
        _lower("C9-(26)", "Corollary 9, inequality (26)",
               "delta^4/(2(delta-1))*M2*(G) <= AZI(G) for delta >= 2; "
               "equality claimed iff G is delta-regular",
               AZI, M2, Coeff("delta", lambda d: d ** 4 / (2 * (d - 1))), delta_min=2,
               claimed_equality=REGULAR_FAMILY),
    )
