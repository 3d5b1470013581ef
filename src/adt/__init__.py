"""Adapted transport distances between finite filtered stochastic processes.

The package models discrete-time processes as probability trees with exact
rational arithmetic, canonicalizes the information they carry, computes
causality-respecting (adapted) transport distances with certified optimal
couplings, and builds the downstream machinery those distances control:
geodesics, randomized extensions, basis transfers, quantile representations
on the unit cube, optimal stopping, and Doob decompositions.
"""

from .applications import (
    DoobDecomposition,
    DoobStabilityReport,
    PayoffSpec,
    StoppingResult,
    StoppingStabilityReport,
    decorated_with_drift,
    doob,
    doob_stability_report,
    optimal_stopping,
    stopping_stability_report,
    verify_lipschitz,
)
from .canonical import (
    CanonicalForm,
    InformationResult,
    NestedAtom,
    admits_adapted_map,
    atom_level_ranks,
    canonical_tree,
    digest_tree,
    hk_equivalent,
    information_process,
    is_markov,
    is_self_aware,
    markov_lift,
    self_aware_lift,
    self_contained_check,
    subtree_process,
)
from .couplings import (
    BicausalReport,
    CausalityReport,
    PathCoupling,
    ProductTree,
    RandomizedExtension,
    TransferResult,
    assemble_optimal_coupling,
    augmented_self_aware_lift,
    check_bicausal,
    check_causal,
    extend_with_randomization,
    geodesic,
    load_coupling,
    pair_path_cost,
    product_process,
    project_product,
    transfer,
    verify_extension,
    verify_randomization_independence,
)
from .errors import (
    AdtError,
    ConfigMismatchError,
    DocumentError,
    ExpressionError,
    GridResolutionError,
    NotBicausalError,
    NotMarkovError,
    SolverError,
    StaleTableError,
    TreeValidationError,
)
from .process_model import (
    DiscreteMeasure,
    FilteredTree,
    MetricConfig,
    TreeNode,
    format_fraction,
    law_on_paths,
    load_tree,
    load_tree_file,
    parse_probability,
    parse_value_entry,
    path_cost,
    path_distance,
)
from .skorokhod import (
    BoxPartition,
    ConvergenceReport,
    FixtureAnalysis,
    FixtureResult,
    QuantileCell,
    QuantileMap,
    convergence_report,
    evaluate,
    induced_tree,
    lp_distance,
    lp_representation_on_common_basis,
    max_pointwise_gap,
    non_coexistence_fixture,
    pushforward_path_law,
    quantile_map,
)
from .transport import (
    LipschitzMarkovReport,
    NestedDistanceTable,
    StageEntry,
    TransportPlan,
    aw_distance,
    is_lipschitz_markov,
    ot_solve,
    random_bicausal_cost,
    wasserstein_paths,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "AdtError", "DocumentError", "TreeValidationError", "ConfigMismatchError",
    "SolverError", "NotMarkovError", "NotBicausalError", "StaleTableError",
    "GridResolutionError", "ExpressionError",
    # process model
    "MetricConfig", "TreeNode", "DiscreteMeasure", "FilteredTree",
    "load_tree", "load_tree_file", "parse_probability", "parse_value_entry",
    "format_fraction", "path_cost", "path_distance", "law_on_paths",
    # canonical
    "NestedAtom", "CanonicalForm", "InformationResult", "information_process",
    "atom_level_ranks", "canonical_tree", "hk_equivalent", "digest_tree",
    "is_self_aware", "self_contained_check", "self_aware_lift", "markov_lift",
    "is_markov", "admits_adapted_map", "subtree_process",
    # transport
    "TransportPlan", "ot_solve", "StageEntry",
    "NestedDistanceTable", "aw_distance", "wasserstein_paths",
    "random_bicausal_cost", "is_lipschitz_markov", "LipschitzMarkovReport",
    # couplings
    "PathCoupling", "CausalityReport", "BicausalReport", "check_causal",
    "check_bicausal", "assemble_optimal_coupling", "ProductTree",
    "product_process", "project_product", "pair_path_cost", "geodesic",
    "RandomizedExtension", "extend_with_randomization", "verify_extension",
    "verify_randomization_independence", "augmented_self_aware_lift",
    "TransferResult", "transfer", "load_coupling",
    # skorokhod
    "QuantileCell", "BoxPartition", "QuantileMap", "quantile_map", "evaluate",
    "pushforward_path_law", "induced_tree", "lp_distance", "max_pointwise_gap",
    "lp_representation_on_common_basis", "ConvergenceReport",
    "convergence_report", "FixtureAnalysis", "FixtureResult",
    "non_coexistence_fixture",
    # applications
    "PayoffSpec", "verify_lipschitz", "StoppingResult", "optimal_stopping",
    "StoppingStabilityReport", "stopping_stability_report",
    "DoobDecomposition", "doob", "decorated_with_drift",
    "DoobStabilityReport", "doob_stability_report",
]
