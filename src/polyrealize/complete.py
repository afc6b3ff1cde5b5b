"""Heuristic low-rank completion of filled 1-incidence matrices.

The realizability conditions require a rank-d matrix equal to 1 on the
incident pairs and strictly below 1 elsewhere; nothing prescribes how
to find one.  This solver searches by alternating least squares over
factors H (n x d) and W (d x m) with a hinge penalty pushing
off-relation entries below 1 - margin, followed by joint gradient
descent polishing.  Restart 0 starts from the cone form of the
problem: the rank-(d+1) truncation of the 0/-1 pattern, refined by a
few alternating projections onto that pattern and dehomogenized by the
row- and column-sum rescaling of ``numkernel.dehomogenize`` to a rank-d
matrix near 1 on the incident pairs and below 1 elsewhere; from that
start the easy families (simplices, cubes, cross-polytopes, polygons)
realize after one sweep.  Later restarts start from seeded random
factors.  Strict inequalities are handled quantitatively: a
result is accepted when every off entry clears 1 - margin/2.  Failure
never means nonrealizability, only that the search gave up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveScalingError
from .incidence import IncidenceRelation, check_filled_incidence
from .numkernel import DEFAULT_RANK_TOL, dehomogenize, numeric_rank

STATUS_FOUND = "found"
STATUS_NOT_FOUND = "not_found"

CONVERGED_LOSS = 1e-14
REL_IMPROVEMENT = 1e-12
# Warm start: alternating projections refining the rank-(d+1) truncation
# of the 0/-1 pattern, and the cap they keep off-pattern entries below.
CONE_PROJECTIONS = 30
CONE_FLOOR = 0.2


@dataclass(frozen=True)
class CompletionProblem:
    relation: IncidenceRelation
    d: int
    margin: float = 0.1
    max_restarts: int = 32
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ValueError(f"margin must lie in (0, 1), got {self.margin}")
        if self.d < 1:
            raise ValueError(f"target rank must be >= 1, got {self.d}")


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Search outcome.  Found results carry factors with M = H @ W.

    best_residual is the final loss value (sum of squared fill errors
    plus squared hinge overshoots), monotone over restarts.  iterations
    is the total work of the search: ALS sweeps plus polish loss
    evaluations, summed over every restart run.  restart_index is the
    winning restart, or the last one run when none validated.
    """

    status: str
    H: np.ndarray = None
    W: np.ndarray = None
    matrix: np.ndarray = None
    best_residual: float = float("inf")
    iterations: int = 0
    restart_index: int = -1


def loss_and_gradient(H, W, problem: CompletionProblem):
    """Loss and exact gradients for the hinge-penalized completion objective.

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
    loss = float(np.sum(err_on**2) + np.sum(err_off**2))
    G = 2.0 * (err_on + err_off)
    return loss, G @ W.T, H.T @ G


def _cone_warm_start(problem: CompletionProblem):
    """Restart 0's factors (see initialize_factors), or None.

    None when a truncation has rank below d+1 or a row or column sum of
    the last one is not negative.
    """
    mask = problem.relation.mask
    d = problem.d
    k = d + 1
    N1 = np.where(mask, 0.0, -1.0)
    for _ in range(1 + CONE_PROJECTIONS):
        N = np.where(mask, 0.0, np.minimum(N1, -CONE_FLOOR))
        U, s, Vt = np.linalg.svd(N, full_matrices=False)
        if len(s) < k or s[k - 1] <= DEFAULT_RANK_TOL * s[0]:
            return None
        N1 = (U[:, :k] * s[:k]) @ Vt[:k]
    try:
        M = dehomogenize(N1)
    except NoPositiveScalingError:
        return None
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    root = np.sqrt(s[:d])
    return U[:, :d] * root, root[:, None] * Vt[:d]


def initialize_factors(problem: CompletionProblem, restart_index: int):
    """Deterministic starting factors for one restart.

    Restart 0 uses the cone-form warm start.  Let N1 be the rank-(d+1)
    truncation of the 0/-1 pattern (0 on incident pairs, -1 off),
    refined by alternating projections: set the incident entries to 0,
    cap the others at -CONE_FLOOR, truncate to rank d+1 again,
    CONE_PROJECTIONS times.  With r = -N1 1 and c = -N1.T 1 its negated
    row and column sums and s = sum(r), form
    M = diag(s / r) N1 diag(1 / c) + 1, which has rank d by construction
    (``numkernel.dehomogenize``); its rank-d SVD factors
    (H = U sqrt(S), W = sqrt(S) V.T of M = U S V.T) are the start.  For
    a polygon the pattern is circulant, its top modes are the constant
    and the first Fourier pair, and M is the regular polygon.  When the
    pattern has rank below d+1 or a row or column sum of N1 is not
    negative, restart 0 falls back to the seeded normal draw of the
    later restarts: i.i.d. standard normal entries scaled by 1/sqrt(d).
    """
    if restart_index == 0:
        start = _cone_warm_start(problem)
        if start is not None:
            return start
    rel = problem.relation
    d = problem.d
    rng = np.random.default_rng([problem.seed, restart_index])
    scale = 1.0 / np.sqrt(d)
    return (
        scale * rng.standard_normal((rel.n_facets, d)),
        scale * rng.standard_normal((d, rel.n_vertices)),
    )


def _row_objective(Wt, h, on, off, ceiling):
    vals = Wt @ h
    on_err = vals[on] - 1.0
    off_err = np.maximum(vals[off] - ceiling, 0.0)
    return float(on_err @ on_err + off_err @ off_err)


def _best_row(Wt, h0, on, off, ceiling, inner=12):
    """Minimize one row's convex piecewise-quadratic objective.

    Iterates active-set least squares: rows in the current hinge active
    set are pinned to the ceiling, incident rows to 1.  Keeps the best
    iterate seen, so the sweep never increases the row objective.
    """
    best = h0
    best_f = _row_objective(Wt, h0, on, off, ceiling)
    h = h0
    prev_active = None
    for _ in range(inner):
        active = off[Wt[off] @ h > ceiling] if len(off) else off
        rows = np.vstack([Wt[on], Wt[active]]) if (len(on) + len(active)) else None
        if rows is None:
            candidate = np.zeros_like(h0)
        else:
            targets = np.concatenate([np.ones(len(on)), np.full(len(active), ceiling)])
            candidate, *_ = np.linalg.lstsq(rows, targets, rcond=None)
        f = _row_objective(Wt, candidate, on, off, ceiling)
        if f < best_f:
            best, best_f = candidate, f
        if prev_active is not None and np.array_equal(active, prev_active):
            break
        prev_active = active
        h = candidate
    return best


def _als_sweep(H, W, mask, ceiling):
    n, m = mask.shape
    Wt = W.T
    for i in range(n):
        on = np.flatnonzero(mask[i])
        off = np.flatnonzero(~mask[i])
        H[i] = _best_row(Wt, H[i], on, off, ceiling)
    Ht = H
    for j in range(m):
        on = np.flatnonzero(mask[:, j])
        off = np.flatnonzero(~mask[:, j])
        W[:, j] = _best_row(Ht, W[:, j], on, off, ceiling)
    return H, W


def _polish(H, W, problem, budget):
    """Joint gradient descent with backtracking, polishing an ALS solution.

    Spends at most ``budget`` loss evaluations, line searches included.
    """
    step = 1e-2
    loss, gH, gW = loss_and_gradient(H, W, problem)
    used = 0
    while used < budget and loss > CONVERGED_LOSS:
        accepted = False
        for _ in range(min(30, budget - used)):
            H2 = H - step * gH
            W2 = W - step * gW
            loss2, gH2, gW2 = loss_and_gradient(H2, W2, problem)
            used += 1
            if loss2 < loss:
                H, W, loss, gH, gW = H2, W2, loss2, gH2, gW2
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return H, W, loss, used


def _validate(H, W, problem, rank_tol=1e-9):
    """Pattern check with slack margin/2 and exact-rank check for a candidate."""
    M = H @ W
    report = check_filled_incidence(
        M, problem.relation, 1.0, eq_tol=1e-7, slack_tol=problem.margin / 2.0
    )
    if not report.ok or numeric_rank(M, rank_tol) != problem.d:
        return None
    return M


def complete(problem: CompletionProblem) -> CompletionResult:
    """Search for a rank-d filled 1-incidence matrix of the relation.

    Runs deterministic restarts; each does alternating least squares
    until the loss converges or stalls, then gradient polishing.  The
    first restart whose factors validate (pattern with slack >= margin/2
    and numeric rank exactly d) wins; with the convergence threshold at
    1e-14 no later restart could improve it meaningfully.  If no restart
    validates, the best loss over all restarts is reported.
    """
    mask = problem.relation.mask
    ceiling = 1.0 - problem.margin
    best_loss = float("inf")
    total_work = 0
    total_restarts = max(problem.max_restarts, 1)
    for restart in range(total_restarts):
        H, W = initialize_factors(problem, restart)
        loss, _, _ = loss_and_gradient(H, W, problem)
        used = 0
        while used < problem.max_iters:
            H, W = _als_sweep(H, W, mask, ceiling)
            used += 1
            new_loss, _, _ = loss_and_gradient(H, W, problem)
            if new_loss < CONVERGED_LOSS:
                loss = new_loss
                break
            if loss - new_loss <= REL_IMPROVEMENT * max(loss, 1e-300):
                loss = new_loss
                break
            loss = new_loss
        if loss > CONVERGED_LOSS and used < problem.max_iters:
            H, W, loss, polished = _polish(H, W, problem, problem.max_iters - used)
            used += polished
        total_work += used
        best_loss = min(best_loss, loss)
        M = _validate(H, W, problem)
        if M is not None:
            return CompletionResult(
                STATUS_FOUND, H=H, W=W, matrix=M,
                best_residual=loss, iterations=total_work, restart_index=restart,
            )
    return CompletionResult(
        STATUS_NOT_FOUND, best_residual=best_loss,
        iterations=total_work, restart_index=total_restarts - 1,
    )
