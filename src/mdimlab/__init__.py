"""Distance-regular graphs, imprimitivity structure, and exact metric
dimension with verified certificates."""

from .errors import (
    BadParameters,
    BudgetExceeded,
    ClassificationContradiction,
    DisconnectedGraph,
    HypothesisFailure,
    InputNotResolving,
    LiftVerificationError,
    MdimlabError,
    NotAntipodal,
    NotBipartite,
    NotDistanceRegular,
)
from .graphs import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    IntersectionArray,
    bfs_distances,
    induced_neighborhood,
    intersection_array,
    is_distance_regular,
    is_primitive,
)
from .families import (
    bipartite_double,
    family,
    family_names,
    taylor,
)
from .designs import (
    SymmetricDesign,
    design_complement,
    design_from_graph,
    design_from_text,
    design_text,
    incidence_graph,
    is_double_blocking,
    pg2,
    three_lines_2blocking,
)
from .imprimitivity import (
    AHClass,
    AntipodalStructure,
    antipodal_structure,
    bipartition,
    classify_ah,
    fold,
    halve,
    is_antipodal,
)
from .cover import (
    CoverResult,
    PairCoverInstance,
    build_instance,
    greedy_cover,
    min_cover,
)
from .mdim import (
    BoundReport,
    ResolvingCertificate,
    SplitDimension,
    babai_bounds,
    certify,
    exhaustive_mdim,
    first_unresolved_pair,
    first_unseparated_pair,
    is_resolving,
    is_semi_resolving_for_blocks,
    lower_bound_nd,
    mdim_exact,
    mdim_greedy,
    min_semi_resolving,
    pair_cover_instance,
    semi_cover_instance,
    split_mdim,
    twin_classes,
    twin_forced_choices,
)
from .lifting import (
    FoldedLift,
    descendant_extract,
    double_lift,
    lift_folded,
    lift_halved,
    project_to_folded,
    push_to_plus,
    taylor_lift,
    two_antipodal_partition,
)
from .io import graph_dot, graph_from_text, graph_text, read_graph, write_graph

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
