"""Mean Sombor index toolkit.

Degree-based edge-sum invariants built on the two-argument power mean,
with an extended exponent line (finite nonzero reals plus the 0-limit and
both infinities), mechanical verification of the proved bounds relating
them, the associated matrix/variance identities, and a QSPR regression
pipeline over octane-isomer skeletons.
"""

from .graphs import (
    Graph,
    GraphParseError,
    NamedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    default_corpus,
    degree_extremes,
    disjoint_union,
    enumerate_octane_skeletons,
    enumerate_trees,
    is_connected,
    parse_graph,
    path_graph,
    random_connected_graphs,
    star_graph,
    to_edge_list_text,
)
from .indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    SPECIAL_VALUES,
    ZERO_LIMIT,
    mean_sombor,
    parse_alpha,
    power_mean,
)
from .bounds import (
    BoundReport,
    VerificationTable,
    check_chain,
    check_jensen_m1_bound,
    check_ka_powersum_bound,
    check_kalpha_bound,
    check_monotonicity,
    check_mso2_m1_m2_bound,
    check_so_sandwich,
    kalpha_constant,
    kp_constant,
    run_verification,
)
from .qspr import (
    AlphaGrid,
    QsprDataset,
    RegressionReport,
    alpha_scan,
    f_significance,
    fit_linear,
    load_dataset,
    qspr_at_alpha,
    regularized_incomplete_beta,
    scan_properties,
)
from .spectral import (
    EdgeTermStats,
    build_matrix,
    edge_term_stats,
    trace_of_square,
)

__version__ = "0.1.0"
