"""Heuristic low-rank completion of filled 1-incidence matrices.

The realizability conditions require a rank-d matrix equal to 1 on the
incident pairs and strictly below 1 elsewhere; nothing prescribes how
to find one.  This solver searches by alternating least squares over
factors H (n x d) and W (d x m) with a hinge penalty pushing
off-relation entries below 1 - margin, from one start.  The start is
the cone form of the problem: the rank-(d+1) truncation of the 0/-1
pattern, refined by alternating projections onto that pattern until
they reach a fixed point (at most ``CONE_PROJECTIONS`` of them), and
dehomogenized by the row- and column-sum rescaling of
``numkernel.dehomogenize`` to a rank-d matrix near 1 on the incident
pairs and below 1 elsewhere; from that start the easy families
(simplices, cubes, cross-polytopes, polygons) realize after one sweep.
Where that start does not apply, the search starts from a fixed normal
draw.  Strict inequalities are handled quantitatively: a result is
accepted when every off entry clears 1 - margin/2.  Failure never
means nonrealizability, only that the search gave up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveScalingError
from .incidence import DEFAULT_EQ_TOL, IncidenceRelation, check_filled_incidence
from .numkernel import DEFAULT_RANK_TOL, dehomogenize, numeric_rank

STATUS_FOUND = "found"
STATUS_NOT_FOUND = "not_found"

CONVERGED_LOSS = 1e-14
REL_IMPROVEMENT = 1e-12
# Warm start: alternating projections refining the rank-(d+1) truncation
# of the 0/-1 pattern, at most CONE_PROJECTIONS of them; they stop early at
# a fixed point, where a projection moves no entry by more than
# CONE_SETTLED of the largest.  CONE_FLOOR is the cap they keep
# off-pattern entries below.
CONE_PROJECTIONS = 30
CONE_SETTLED = 1e-12
CONE_FLOOR = 0.2


@dataclass(frozen=True)
class CompletionProblem:
    relation: IncidenceRelation
    d: int
    margin: float = 0.1
    max_iters: int = 2000

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ValueError(f"margin must lie in (0, 1), got {self.margin}")
        if self.d < 1:
            raise ValueError(f"target rank must be >= 1, got {self.d}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Search outcome.  Found results carry factors with M = H @ W.

    best_residual is the final loss value (sum of squared fill errors
    plus squared hinge overshoots).  iterations is the number of ALS
    sweeps run, at most max_iters.  restart_index is always 0: the
    search runs one start, and the field stays only because the
    benchmark's traced search counts restarts from it.
    """

    status: str
    H: np.ndarray = None
    W: np.ndarray = None
    matrix: np.ndarray = None
    best_residual: float = float("inf")
    iterations: int = 0
    restart_index: int = 0


def completion_loss(H, W, problem: CompletionProblem) -> float:
    """The hinge-penalized completion objective.

    loss = sum over incident (i,j) of (h_i . w_j - 1)^2
         + sum over the rest of max(0, h_i . w_j - (1 - margin))^2
    """
    H = np.asarray(H, dtype=float)
    W = np.asarray(W, dtype=float)
    mask = problem.relation.mask
    ceiling = 1.0 - problem.margin
    P = H @ W
    err_on = np.where(mask, P - 1.0, 0.0)
    err_off = np.where(mask, 0.0, np.maximum(P - ceiling, 0.0))
    return float(np.sum(err_on**2) + np.sum(err_off**2))


def _cone_warm_start(problem: CompletionProblem):
    """The cone-form starting factors (see initialize_factors), or None.

    None when a truncation has rank below d+1 or a row or column sum of
    the last one is not negative.
    """
    mask = problem.relation.mask
    d = problem.d
    k = d + 1
    N1 = np.where(mask, 0.0, -1.0)
    previous = None
    for _ in range(1 + CONE_PROJECTIONS):
        N = np.where(mask, 0.0, np.minimum(N1, -CONE_FLOOR))
        if previous is not None and \
                np.abs(N - previous).max() <= CONE_SETTLED * np.abs(N).max():
            break  # the next truncation would give N1 again, up to roundoff
        U, s, Vt = np.linalg.svd(N, full_matrices=False)
        if len(s) < k or s[k - 1] <= DEFAULT_RANK_TOL * s[0]:
            return None
        N1 = (U[:, :k] * s[:k]) @ Vt[:k]
        previous = N
    try:
        M = dehomogenize(N1)
    except NoPositiveScalingError:
        return None
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    root = np.sqrt(s[:d])
    return U[:, :d] * root, root[:, None] * Vt[:d]


def initialize_factors(problem: CompletionProblem):
    """Deterministic starting factors of the search.

    The start is the cone-form warm start.  Let N1 be the rank-(d+1)
    truncation of the 0/-1 pattern (0 on incident pairs, -1 off),
    refined by alternating projections: set the incident entries to 0,
    cap the others at -CONE_FLOOR, truncate to rank d+1 again, until a
    projection moves no entry by more than CONE_SETTLED of the largest
    (a fixed point: the next truncation would only repeat the last one
    up to roundoff), and at most CONE_PROJECTIONS times.  With
    r = -N1 1 and c = -N1.T 1 its negated row and column sums and
    s = sum(r), form
    M = diag(s / r) N1 diag(1 / c) + 1, which has rank d by construction
    (``numkernel.dehomogenize``); its rank-d SVD factors
    (H = U sqrt(S), W = sqrt(S) V.T of M = U S V.T) are the start.  For
    a polygon the pattern is circulant, its top modes are the constant
    and the first Fourier pair, and M is the regular polygon.  When the
    pattern has rank below d+1 or a row or column sum of N1 is not
    negative, the start is a fixed normal draw instead: i.i.d. standard
    normal entries scaled by 1/sqrt(d), from default_rng([0, 0]).
    """
    start = _cone_warm_start(problem)
    if start is not None:
        return start
    rel = problem.relation
    d = problem.d
    rng = np.random.default_rng([0, 0])
    scale = 1.0 / np.sqrt(d)
    return (
        scale * rng.standard_normal((rel.n_facets, d)),
        scale * rng.standard_normal((d, rel.n_vertices)),
    )


def _row_losses(vals, mask, ceiling):
    err = np.where(mask, vals - 1.0, np.maximum(vals - ceiling, 0.0))
    return np.einsum("ij,ij->i", err, err)


def _best_rows(X, G, mask, ceiling):
    """One active-set step on every row's convex piecewise-quadratic objective.

    Row i of X is scored against the rows of G: incident entries
    (mask[i]) should equal 1, the others stay below the ceiling.  The
    active set is read at X: incident entries are pinned to 1, off
    entries above the ceiling to the ceiling, and a row with no active
    entry steps to 0.  Every row's least-squares step comes from one
    stacked pseudoinverse.  A row keeps its old value unless the step
    lowers its objective: off entries inactive at X can cross the
    ceiling, so the step alone could raise it.
    """
    vals = X @ G.T
    active = mask | (vals > ceiling)
    target = np.where(active, np.where(mask, 1.0, ceiling), 0.0)
    rcond = np.finfo(float).eps * max(G.shape)
    pinv = np.linalg.pinv(active[:, :, None] * G, rcond=rcond)
    step = (pinv @ target[:, :, None])[:, :, 0]
    lower = _row_losses(step @ G.T, mask, ceiling) < _row_losses(vals, mask, ceiling)
    return np.where(lower[:, None], step, X)


def _validate(H, W, problem):
    """Pattern check with slack margin/2 and exact-rank check for a candidate."""
    M = H @ W
    report = check_filled_incidence(
        M, problem.relation, 1.0, eq_tol=DEFAULT_EQ_TOL, slack_tol=problem.margin / 2.0
    )
    if not report.ok or numeric_rank(M, DEFAULT_RANK_TOL) != problem.d:
        return None
    return M


def complete(problem: CompletionProblem) -> CompletionResult:
    """Search for a rank-d filled 1-incidence matrix of the relation.

    From the one deterministic start, runs alternating least squares
    until the loss converges, stalls or max_iters sweeps are spent, then
    validates the factors once (pattern with slack >= margin/2 and
    numeric rank exactly d).  A result that does not validate is
    reported as not found with its final loss.
    """
    mask = problem.relation.mask
    ceiling = 1.0 - problem.margin
    H, W = initialize_factors(problem)
    loss = completion_loss(H, W, problem)
    sweeps = 0
    while sweeps < problem.max_iters:
        H = _best_rows(H, W.T, mask, ceiling)
        W = _best_rows(W.T, H, mask.T, ceiling).T
        sweeps += 1
        new_loss = completion_loss(H, W, problem)
        stalled = loss - new_loss <= REL_IMPROVEMENT * max(loss, 1e-300)
        loss = new_loss
        if loss < CONVERGED_LOSS or stalled:
            break
    M = _validate(H, W, problem)
    if M is None:
        return CompletionResult(STATUS_NOT_FOUND, best_residual=loss, iterations=sweeps)
    return CompletionResult(
        STATUS_FOUND, H=H, W=W, matrix=M, best_residual=loss, iterations=sweeps,
    )
