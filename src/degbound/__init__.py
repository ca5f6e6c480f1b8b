"""Vertex-degree-based topological indices of connected graphs, and an
exhaustive auditor for the sharp inequalities relating them."""

from .bounds import (
    BoundCheck,
    BoundSpec,
    CHI,
    EqualityFamily,
    SharpnessReport,
    audit,
    audit_all,
    builtin_catalog,
    catalog_by_id,
    evaluate_bound,
)
from .enumeration import (
    EnumerationSpec,
    canonical_form,
    connected_graphs,
    enumerate_connected,
    read_population,
)
from .graphs import (
    Graph,
    GraphError,
    SizeLimitError,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_pair_counts,
    double_star,
    is_connected,
    make_family,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from .indices import (
    ALL_INDICES,
    IndexId,
    UndefinedIndexError,
    all_indices,
    edge_term,
)
from .ratios import (
    F_T1,
    F_T4,
    F_T6,
    F_T21,
    GridExtremum,
    MonotonicityReport,
    RatioFn,
    concordance,
    concordance_report,
    grid_extremum,
    monotonicity_audit,
    proofs_report,
    ratio_at,
)

__version__ = "0.1.0"
