"""bblab: an exact-rational laboratory for branch-and-bound trees that
branch on general split disjunctions pi.x <= pi0 v pi.x >= pi0 + 1.

Build, run, verify, and transform BB trees over the hard instance
families (cross-polytope, packing/covering, perturbed cross-polytope, TSP
subtour relaxation), with every answer backed by a machine-checkable
certificate in exact arithmetic.
"""

from .bbtree import (
    Atom,
    BBTree,
    Disjunction,
    atoms_of,
    full_variable_tree,
    leaf,
    node,
    proves_infeasibility,
    separates,
    solves,
    transform_tree,
)
from .checkers import (
    criticality_bound,
    entropy_bound_check,
    enum_integer_points,
    facet_check_cardinality,
    find_high_dim_face,
    find_shattered_set,
    gen_restricted_polytope,
    half_points_feasible,
)
from .families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    TspSpec,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
    gen_set_cover,
    gen_tsp_subtour,
)
from .lp import (
    LPOutcome,
    affine_rank,
    enum_vertices,
    in_convex_hull_of_union,
    lp_feasible,
    lp_optimize,
    verify_farkas,
)
from .maps import (
    AffineMap,
    DupSpec,
    EmbedSpec,
    FlipSpec,
    apply_map_polytope,
    compose,
    make_dup,
    make_embed,
    make_flip,
)
from .polytope import LinearConstraint, Polytope
from .search import (
    FixedSequence,
    MostFractional,
    RandomGeneral,
    RunReport,
    SearchBudget,
    min_tree_size,
    run_bb,
    separation_resistance,
)

__version__ = "0.1.0"
