"""Toolkit for distance-preserving edge contractions and maximum bicliques.

Exact verifiers and desk-scale exact solvers over rationally weighted graphs,
the pendant-gadget and tensor-square reductions with witness maps, and an
exhaustive lab that adjudicates structural claims on small instances.
"""

from .graphs import (
    UNREACHABLE,
    Biclique,
    BipartiteGraph,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    complete_bipartite,
    cycle_graph,
    generate_planted_biclique,
    generate_random_bipartite,
    is_connected,
    parse_graph,
    parse_rational,
    path_graph,
    render_graph,
    shortest_distances,
)
from .contraction import (
    QuotientGraph,
    Tolerance,
    ToleranceCheck,
    ViolationWitness,
    contract,
    contracted_distance,
    is_contraction,
    is_weak_contraction,
    normalize_edge_ids,
    violation_witness,
)
from .solvers import (
    CapExceededError,
    SolveResult,
    enumerate_valid_weak_contractions,
    max_balanced_biclique_exact,
    max_contraction_exact,
    max_edge_biclique_exact,
    max_weak_contraction_exact,
)
from .reductions import (
    GadgetGraph,
    TensorGraph,
    biclique_to_contraction,
    build_gadget,
    build_tensor_square,
    contraction_to_biclique,
    lift_biclique,
    project_biclique,
)
from .lab import (
    LabInstance,
    LabReport,
    check_biclique_lemma,
    check_corollary_scaling,
    check_lemma2,
    check_path_lemma,
    check_theorem6,
    default_suite_config,
    enumerate_connected_bipartite,
    instance_key,
    run_suite,
    summarize,
)

__version__ = "0.1.0"
