"""Closed-form index values for the named families.

Each function returns the seven values as one tuple in the order of
``degbound.indices.ALL_INDICES`` (R, H, ABC, X, GA, AZI, M2*), with None
where AZI is undefined.  They are written out as direct arithmetic and import
nothing from the package, so that they and the per-edge machinery in
:mod:`degbound.indices` can cross-check each other.
"""

from __future__ import annotations

import math


def regular_values(d: int, m: int) -> tuple[float | None, ...]:
    """Indices of a d-regular graph with m edges."""
    if d < 1:
        raise ValueError(f"regular degree must be >= 1, got {d}")
    return (m / d, m / d, m * math.sqrt(2 * d - 2) / d, m / math.sqrt(2 * d), float(m),
            None if d == 1 else m * d**6 / (8 * (d - 1) ** 3), m / d**2)


def cycle_values(n: int) -> tuple[float | None, ...]:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return regular_values(2, n)


def complete_values(n: int) -> tuple[float | None, ...]:
    if n < 2:
        raise ValueError(f"closed forms for complete graphs need n >= 2, got {n}")
    return regular_values(n - 1, n * (n - 1) // 2)


def star_values(k: int) -> tuple[float | None, ...]:
    """Indices of the star with k pendant vertices (all edges have degrees (1, k))."""
    if k < 1:
        raise ValueError(f"star needs k >= 1 leaves, got {k}")
    return (math.sqrt(k), 2 * k / (k + 1), math.sqrt(k * (k - 1)), k / math.sqrt(k + 1),
            2 * k**1.5 / (k + 1), None if k == 1 else k**4 / (k - 1) ** 3, 1.0)


def path_values(n: int) -> tuple[float | None, ...]:
    """Indices of the path on n vertices (two (1,2) edges, n-3 of (2,2))."""
    if n < 2:
        raise ValueError(f"closed forms for paths need n >= 2, got {n}")
    if n == 2:
        return regular_values(1, 1)  # P2 = K2
    inner = n - 3
    # ABC: the (1,2) and (2,2) terms coincide at 1/sqrt(2); AZI: both are 8.
    return (2 / math.sqrt(2) + inner / 2, 2 * (2 / 3) + inner / 2, (n - 1) / math.sqrt(2),
            2 / math.sqrt(3) + inner / 2, 2 * (2 * math.sqrt(2) / 3) + inner, 8.0 * (n - 1),
            1.0 + inner / 4)


FAMILY_FORMULAS = {
    "path": path_values,
    "cycle": cycle_values,
    "complete": complete_values,
    "star": star_values,
}
