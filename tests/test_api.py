"""The public names of ``polyrealize`` and ``polyrealize.errors``.

Adding or removing a public name is an edit of the lists below, so that
each change of the surface is explicit.  Submodules are left out: the
package gains them as attributes as they are imported.
"""

import types

import polyrealize
from polyrealize import errors

PACKAGE = [
    "BilinearForm", "CompletionProblem", "CompletionResult", "ConditionReport",
    "ConeRealization", "FilledIncidenceMatrix", "Flag", "GaleDual", "GramianCandidate",
    "IncidenceRelation", "MaxbicliqueLattice", "PatternReport", "RealizabilityVerdict",
    "Realization", "SuperCycle", "Svd", "block_gramian", "build_maxbiclique_lattice",
    "canonical_combination", "check_diamond", "check_filled_incidence",
    "check_flag_connected_local", "compact_svd", "complete", "completion_loss",
    "cone_to_polytope_matrix", "dump_relation", "enumerate_flags", "enumerate_super_cycles",
    "facet_vertex_matrix", "factor_against_form", "flag_graph_bipartition", "gale_dual_cone",
    "gale_dual_polytope", "gramian_of_cone", "grunbaum_oracle", "initialize_factors",
    "lattice_rank", "load_relation", "polytope_to_cone_matrix", "pseudoinverse",
    "read_matrix_csv", "realizability_check", "realization_space_dimension",
    "realize_cone_from_gramian", "realize_from_matrix", "signature", "sqrt_psd",
    "verify_gramian_conditions", "verify_hyperbolic_conditions", "verify_spherical_conditions",
    "write_matrix_csv",
]

ERRORS = [
    "DegenerateFormError", "DegenerateRelationError", "DimensionMismatchError",
    "EmptyRelationError", "FlagCapExceededError", "LightlikeNormalError", "MatrixFormatError",
    "NoCycleError", "NoPositiveScalingError", "NotBipartiteError", "NotDiamondError",
    "NotGradedError", "NotInRangeError", "NotPsdError", "PatternViolationError",
    "PolyrealizeError", "RankAnomalyError", "RankMismatchError", "RelationFormatError",
    "SignatureMismatchError", "ZeroMatrixError",
]


def public_names(module) -> list:
    """The module's attributes without a leading underscore, submodules left out."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_package_names():
    assert public_names(polyrealize) == sorted(PACKAGE)


def test_errors_names():
    assert public_names(errors) == sorted(ERRORS)


def test_every_error_is_a_polyrealize_error():
    for name in ERRORS:
        assert issubclass(getattr(errors, name), errors.PolyrealizeError), name
