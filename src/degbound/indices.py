"""The seven vertex-degree-based topological indices.

Each index is a sum over edges of a fixed symmetric function of the endpoint
degrees, so everything here evaluates through the edge-degree partition.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable

from .graphs import Graph, degree_pair_counts


class IndexId(enum.Enum):
    R = "R"
    H = "H"
    ABC = "ABC"
    X = "X"
    GA = "GA"
    AZI = "AZI"
    M2STAR = "M2*"

    # Members are singletons, so identity is their equality; hashing by it
    # runs in C, where Enum's own __hash__ is a Python call per dict key.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


ALL_INDICES = tuple(IndexId)


class UndefinedIndexError(ValueError):
    """Raised when an index is evaluated outside its domain."""


_AZI_UNDEFINED = "AZI undefined on an isolated-edge component (degree pair (1,1))"


# One term function per index, in ALL_INDICES order.  Each takes the degrees
# unchecked: ``edge_term`` checks the domain, ``ratios.grid_extremum`` skips
# undefined pairs by rule.  Every term is symmetric in a and b, bit for bit.
EDGE_TERMS: dict[IndexId, Callable[[float, float], float]] = {
    IndexId.R: lambda a, b: 1.0 / math.sqrt(a * b),
    IndexId.H: lambda a, b: 2.0 / (a + b),
    IndexId.ABC: lambda a, b: math.sqrt((a + b - 2) / (a * b)),
    IndexId.X: lambda a, b: 1.0 / math.sqrt(a + b),
    IndexId.GA: lambda a, b: math.sqrt(a * b) / (0.5 * (a + b)),
    IndexId.AZI: lambda a, b: ((a * b) / (a + b - 2)) ** 3,
    IndexId.M2STAR: lambda a, b: 1.0 / (a * b),
}


def edge_term(idx: IndexId, pair: tuple[int, int]) -> float:
    """Per-edge contribution of index ``idx`` at endpoint degrees ``pair``.

    Checks the degrees, the index and AZI's domain, then calls that one
    index's function from ``EDGE_TERMS``.
    """
    a, b = pair
    if a > b:
        a, b = b, a
    if a < 1:
        raise ValueError(f"degrees must be >= 1, got {pair}")
    if not isinstance(idx, IndexId):
        raise ValueError(f"unknown index {idx!r}")
    if idx is IndexId.AZI and a == 1 and b == 1:
        raise UndefinedIndexError(_AZI_UNDEFINED)
    return EDGE_TERMS[idx](a, b)


@functools.cache
def _pair_terms(a: int, b: int) -> tuple[float, ...]:
    """The seven per-edge terms at endpoint degrees ``a`` and ``b``, in
    ALL_INDICES order, from ``EDGE_TERMS``: each equals ``edge_term`` at the
    pair.  AZI reads 0.0 at (1,1), where ``index_sums`` reports it None."""
    one_one = a == 1 and b == 1
    return tuple(0.0 if one_one and idx is IndexId.AZI else term(a, b)
                 for idx, term in EDGE_TERMS.items())


def index_sums(counts: tuple[int, ...]) -> tuple[float | None, ...]:
    """The seven index values, in ALL_INDICES order, from flat pair counts
    ``(a1, b1, c1, ...)`` in increasing pair order (``degree_pair_counts``).

    Each degree pair's seven terms are computed once per process, and every
    index accumulates ``count * term`` left to right in that order, so the
    result is bit-identical for isomorphic graphs.  AZI is None when a
    (1,1) pair, which would come first, occurs.
    """
    r = h = abc = x = ga = azi = m2 = 0.0
    triples = iter(counts)
    for a, b, count in zip(triples, triples, triples):
        t_r, t_h, t_abc, t_x, t_ga, t_azi, t_m2 = _pair_terms(a, b)
        r += count * t_r
        h += count * t_h
        abc += count * t_abc
        x += count * t_x
        ga += count * t_ga
        azi += count * t_azi
        m2 += count * t_m2
    return r, h, abc, x, ga, None if counts[:2] == (1, 1) else azi, m2


def all_indices(g: Graph) -> dict[IndexId, float | None]:
    """All seven index values of ``g``, by ``index_sums`` over its flat pair
    counts.  AZI maps to ``None`` where it is undefined instead of raising;
    ``edge_term`` is the checked per-edge entry that raises."""
    return dict(zip(ALL_INDICES, index_sums(degree_pair_counts(g))))
