"""Realization of incidence relations by filled matrices.

A relation is realizable as the facet-vertex incidence of a d-polytope
exactly when its maxbiclique lattice is graded of rank d+1, diamond,
and flag connected, and the relation admits a rank-d matrix equal to 1
on incident pairs and strictly below 1 elsewhere.  This module holds
matrices verified against a relation's filled pattern, factors them
into covertex and vertex matrices through the compact SVD, converts
between the polytope (fill 1, rank d) and cone (fill 0, rank d+1)
presentations by diagonal rescaling, and wires the lattice gate and the
completion search into a single realizability verdict with a
re-verifiable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complete import (
    STATUS_FOUND as COMPLETION_FOUND,
    CompletionProblem,
    complete as run_completion,
)
from .errors import (
    DimensionMismatchError,
    PatternViolationError,
    RankAnomalyError,
    RankMismatchError,
    ZeroMatrixError,
)
from .incidence import (  # REASON_* and the Pattern* types stay importable from here
    DEFAULT_EQ_TOL,
    DEFAULT_SLACK_TOL,
    REASON_ATOMS_COATOMS,
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
    IncidenceRelation,
    MaxbicliqueLattice,
    PatternReport,
    PatternViolation,
    check_filled_incidence,
    lattice_gate,
)
from .numkernel import (
    DEFAULT_RANK_TOL,
    LP_TOL,
    as_matrix,
    compact_svd,
    dehomogenize,
    lp_strict_feasibility,
    numeric_rank,
    numeric_ranks,
    _rank_of_sigma,
)

KIND_POLYTOPE = "polytope"
KIND_CONE = "cone"

STATUS_REALIZED = "realized"
STATUS_REJECTED = "rejected"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class FilledIncidenceMatrix:
    """A matrix verified to realize a relation's pattern at the given fill.

    The matrix is a read-only copy, so its rank is a fixed property,
    kept once decided, one rank per tolerance.  ``rank`` asks
    ``numkernel.numeric_rank``, which on a matrix of at least 64 rows
    and columns decides it by a certified pivoted QR without an SVD.
    ``realize_from_matrix`` keeps the rank its own SVD counts, and the
    conversions hand their result the rank they ranked it with.  A
    realization followed by both conversions thus takes one SVD per
    distinct small matrix, and on a large low-rank one only the
    realization's.
    """

    matrix: np.ndarray
    relation: IncidenceRelation
    fill: float
    eq_tol: float = DEFAULT_EQ_TOL
    slack_tol: float = DEFAULT_SLACK_TOL
    _ranks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        report = check_filled_incidence(
            self.matrix, self.relation, self.fill, self.eq_tol, self.slack_tol
        )
        if not report.ok:
            head = report.violations[0]
            raise PatternViolationError(
                f"matrix is not a filled {self.fill:g}-incidence matrix: "
                f"{len(report.violations)} violations, first at "
                f"({head.facet}, {head.vertex}) value {head.value:g} [{head.kind}]",
                report.violations,
            )
        object.__setattr__(self, "matrix", as_matrix(self.matrix).copy())
        self.matrix.setflags(write=False)

    def rank(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        """``numeric_rank`` of the matrix, decided once per tolerance."""
        if rank_tol not in self._ranks:
            self._ranks[rank_tol] = numeric_rank(self.matrix, rank_tol)
        return self._ranks[rank_tol]


@dataclass(frozen=True, eq=False)
class Realization:
    """Vertex matrix W and covertex matrix H with H.T @ W the filled matrix.

    For polytopes (fill 1) the factors live in R^d, for cones (fill 0)
    in R^(d+1); ``dim`` is always the polytope dimension d.
    """

    dim: int
    W: np.ndarray
    H: np.ndarray
    kind: str


@dataclass(frozen=True, eq=False)
class RealizabilityVerdict:
    """Outcome of the full pipeline on one relation.

    status is "realized" with a certificate (realization + matrix) that
    re-verifies from scratch, "rejected" with the failed combinatorial
    condition, or "inconclusive" with the best completion residual; the
    numeric search never claims nonrealizability.
    """

    status: str
    d: int
    reason: str = None
    realization: Realization = None
    matrix: FilledIncidenceMatrix = None
    best_residual: float = None
    completion: object = field(default=None, repr=False)
    lattice: MaxbicliqueLattice = field(default=None, repr=False)


def facet_vertex_matrix(H, W) -> np.ndarray:
    """Matrix of inner products of covertex columns with vertex columns."""
    H = as_matrix(H, "H")
    W = as_matrix(W, "W")
    if H.shape[0] != W.shape[0]:
        raise DimensionMismatchError(
            f"H has ambient dimension {H.shape[0]}, W has {W.shape[0]}"
        )
    return H.T @ W


def realize_from_matrix(
    fim: FilledIncidenceMatrix, d: int, rank_tol: float = DEFAULT_RANK_TOL
) -> Realization:
    """Split a filled matrix into covertices and vertices via the compact SVD.

    With M = U S V.T, take H = sqrt(S) U.T and W = sqrt(S) V.T, so that
    H.T @ W reproduces M and the columns of W are the vertices of a
    centered realization (generators, for fill 0).  The numeric rank
    must equal d for fill 1 and d+1 for fill 0; the count of this SVD's
    singular values is kept as the matrix's rank at rank_tol, unless a
    rank was already decided there.
    """
    expected = d if fim.fill == 1.0 else d + 1
    if not fim.matrix.any():
        raise ZeroMatrixError("compact SVD of the zero matrix is undefined")
    U, s, Vt = np.linalg.svd(fim.matrix, full_matrices=False)
    r = fim._ranks.setdefault(rank_tol, int(_rank_of_sigma(s, rank_tol)))
    if r != expected:
        raise RankMismatchError(
            f"matrix has numeric rank {r}, expected {expected}"
        )
    root = np.sqrt(s[:r])
    H = root[:, None] * U[:, :r].T
    W = root[:, None] * Vt[:r]
    kind = KIND_POLYTOPE if fim.fill == 1.0 else KIND_CONE
    return Realization(d, W, H, kind)


def polytope_to_cone_matrix(fim: FilledIncidenceMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> FilledIncidenceMatrix:
    """Homogenize: N = M - 1 is a filled 0-incidence matrix of rank d+1.

    Subtracting the all-ones matrix moves the supporting hyperplanes to
    homogeneous coordinates; the rank must rise by exactly one, anything
    else is flagged as an anomaly instead of silently accepted.  Both
    ranks come from ``numkernel.numeric_rank``: on matrices of at least
    64 rows and columns the certified pivoted QR decides them, and an
    SVD runs only where it cannot.  The result keeps its rank.
    """
    if fim.fill != 1.0:
        raise ValueError("polytope_to_cone_matrix needs a fill-1 matrix")
    d = fim.rank(rank_tol)
    N = fim.matrix - 1.0
    rank = numeric_rank(N, rank_tol)
    if rank != d + 1:
        raise RankAnomalyError(
            f"subtracting ones changed rank {d} to {rank}, expected {d + 1}"
        )
    return _converted(fim, N, 0.0, rank_tol, rank)


def cone_to_polytope_matrix(
    fim: FilledIncidenceMatrix, rank_tol: float = DEFAULT_RANK_TOL
) -> FilledIncidenceMatrix:
    """Dehomogenize a filled 0-incidence matrix by diagonal rescaling.

    For N of rank d+1, ``numkernel.dehomogenize`` rescales rows and
    columns by N's negated row and column sums and returns
    M = D1 N D2 + 1 of rank d with the sign pattern of N shifted to
    fill 1.  Any positive scaling gives a projectively equivalent
    polytope; its choice picks the cutting hyperplanes.  Raises
    NoPositiveScalingError when a facet lies on every vertex or a
    vertex on every facet, so that a row or column sum is zero.  Both
    ranks come from ``numkernel.numeric_rank``, as in
    ``polytope_to_cone_matrix``, and the result keeps its rank.
    """
    if fim.fill != 0.0:
        raise ValueError("cone_to_polytope_matrix needs a fill-0 matrix")
    d = fim.rank(rank_tol) - 1
    M = dehomogenize(fim.matrix)
    rank = numeric_rank(M, rank_tol)
    if rank != d:
        raise RankAnomalyError(f"rescaled matrix has rank {rank}, expected {d}")
    return _converted(fim, M, 1.0, rank_tol, rank)


def _converted(fim: FilledIncidenceMatrix, matrix, fill: float, rank_tol: float,
               rank: int) -> FilledIncidenceMatrix:
    """The converted matrix, verified at fim's tolerances, keeping the rank its
    conversion ranked it with."""
    out = FilledIncidenceMatrix(matrix, fim.relation, fill, fim.eq_tol, fim.slack_tol)
    out._ranks[rank_tol] = rank
    return out


def realizability_check(
    rel: IncidenceRelation,
    d: int = None,
    *,
    margin: float = 0.1,
    max_iters: int = 2000,
    eq_tol: float = DEFAULT_EQ_TOL,
    slack_tol: float = DEFAULT_SLACK_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RealizabilityVerdict:
    """Decide realizability: combinatorial gate, then completion search.

    A failing lattice condition yields a rejection naming the condition.
    Otherwise the low-rank completion solver searches for a rank-d
    filled 1-incidence matrix; success produces a certificate holding
    the exact factors used, failure is reported as inconclusive (the
    numeric phase alone can never prove nonrealizability).
    """
    lat, d, reason = lattice_gate(rel, d)
    if reason is not None:
        return RealizabilityVerdict(STATUS_REJECTED, d if d is not None else -1,
                                    reason=reason, lattice=lat)
    problem = CompletionProblem(rel, d, margin=margin, max_iters=max_iters)
    result = run_completion(problem)
    if result.status != COMPLETION_FOUND:
        return RealizabilityVerdict(
            STATUS_INCONCLUSIVE, d, best_residual=result.best_residual,
            completion=result, lattice=lat,
        )
    fim = FilledIncidenceMatrix(result.matrix, rel, 1.0, eq_tol, slack_tol)
    realization = realize_from_matrix(fim, d, rank_tol)
    return RealizabilityVerdict(
        STATUS_REALIZED, d, realization=realization, matrix=fim,
        best_residual=result.best_residual, completion=result, lattice=lat,
    )


def realization_space_dimension(rel: IncidenceRelation, d: int) -> int:
    """d(n+m) - |R|: dimension of the realization space of the combinatorial type."""
    return d * (rel.n_facets + rel.n_vertices) - len(rel.incident)


def grunbaum_oracle(W, lat: MaxbicliqueLattice) -> bool:
    """Check that the columns of W are the vertices of a polytope with lattice lat.

    True exactly when lat is graded and diamond, every element of rank
    r has vertices whose lifted matrix [W_x; 1] has numeric rank r (one
    stacked rank count per vertex-set size, the sets read from the
    lattice's vertex rows), and every coatom has a
    supporting vector h with <h, w_j> = 1 on its vertices and < 1 on
    every other vertex: the facet LP ``lp_strict_feasibility``, solved
    in closed form once per coatom, must have an optimal margin above
    LP_TOL; the coatoms share one SVD of [W; 1].  This decides every
    vertex subset: by induction up the ranks, each element is a face of
    conv(W) with exactly its vertex set, the covers of an element x are
    facets of conv(W_x), the diamond property closes them under ridge
    adjacency, and a polytope's facet graph is connected (Balinski), so
    they are all its facets.
    """
    W = as_matrix(W, "W")
    m = lat.relation.n_vertices
    if W.shape[1] != m:
        raise DimensionMismatchError(f"W has {W.shape[1]} columns, the lattice {m} vertices")
    if not lat.is_graded or lat.rank2_failure == REASON_DIAMOND:
        return False
    lifted = np.vstack([W, np.ones(m)])
    rows, ranks = lat.vertex_rows, np.array(lat.ranks)
    sizes = np.count_nonzero(rows, axis=1)
    for size in np.unique(sizes[sizes > 0]):  # the bottom alone may be empty, and it has rank 0
        group = np.flatnonzero(sizes == size)
        cols = np.nonzero(rows[group])[1].reshape(len(group), size)
        if np.any(numeric_ranks(lifted[:, cols].transpose(1, 0, 2)) != ranks[group]):
            return False
    lifted_svd = compact_svd(lifted)
    return all(lp_strict_feasibility(W, on, lifted_svd) > LP_TOL
               for on in rows[ranks == lat.rank - 1])
