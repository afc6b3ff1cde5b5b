"""Polytope realizability from facet-vertex incidence relations.

Decide whether a relation is the facet-vertex incidence of a d-polytope
or polytopal cone, construct explicit realizations through low-rank
filled incidence matrices, convert between the polytope and cone
presentations, verify and realize Gramians in spherical and hyperbolic
geometry, and compute Gale duals.
"""

__version__ = "0.1.0"

from .complete import (
    CompletionProblem,
    CompletionResult,
    complete,
    completion_loss,
    initialize_factors,
)
from .gale import GaleDual, canonical_combination, gale_dual_cone, gale_dual_polytope
from .gramian import (
    ConditionReport,
    ConeRealization,
    GramianCandidate,
    block_gramian,
    gramian_of_cone,
    realize_cone_from_gramian,
    verify_gramian_conditions,
    verify_hyperbolic_conditions,
    verify_spherical_conditions,
)
from .incidence import (
    Flag,
    IncidenceRelation,
    MaxbicliqueLattice,
    PatternReport,
    SuperCycle,
    build_maxbiclique_lattice,
    check_diamond,
    check_filled_incidence,
    check_flag_connected_local,
    dump_relation,
    enumerate_flags,
    enumerate_super_cycles,
    flag_graph_bipartition,
    lattice_rank,
    load_relation,
)
from .numkernel import (
    BilinearForm,
    Svd,
    compact_svd,
    factor_against_form,
    pseudoinverse,
    read_matrix_csv,
    signature,
    sqrt_psd,
    write_matrix_csv,
)
from .realize import (
    FilledIncidenceMatrix,
    Realization,
    RealizabilityVerdict,
    cone_to_polytope_matrix,
    facet_vertex_matrix,
    grunbaum_oracle,
    polytope_to_cone_matrix,
    realizability_check,
    realization_space_dimension,
    realize_from_matrix,
)
