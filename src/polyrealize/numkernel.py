"""Dense real linear algebra used by the numeric modules.

Rank-revealing compact SVD, Moore-Penrose pseudoinverse, PSD square
root, signatures of symmetric matrices, factoring a Gramian against a
bilinear form, the metric Hodge star, a small strict-feasibility LP
solved by a dense two-phase simplex, and the diagonal rescaling that
turns a cone-form (fill 0, rank d+1) matrix into polytope form (fill 1,
rank d).  Everything operates on plain float64 numpy arrays; matrices
must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    MatrixFormatError,
    NoPositiveScalingError,
    NotPsdError,
    SignatureMismatchError,
    ZeroMatrixError,
)

DEFAULT_RANK_TOL = 1e-9


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True, eq=False)
class Svd:
    """Compact singular value decomposition at numeric rank.

    U is n x r column-orthonormal, sigma holds the r singular values in
    descending order (all above the rank cutoff), V is m x r
    column-orthonormal, and M = U @ diag(sigma) @ V.T.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int


def compact_svd(M, rank_tol: float = DEFAULT_RANK_TOL) -> Svd:
    """Compact SVD with numeric rank r = #(sigma > rank_tol * sigma_max)."""
    M = as_matrix(M)
    if not M.any():
        raise ZeroMatrixError("compact SVD of the zero matrix is undefined")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(s > rank_tol * s[0]))
    return Svd(U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy(), r)


def numeric_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    M = as_matrix(M)
    if not M.any():
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * s[0]))


def pseudoinverse(M, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse (SVD based, singular values below rcond*max cut)."""
    M = as_matrix(M)
    return np.linalg.pinv(M, rcond=rcond)


def _sym_eigh(A, name="matrix"):
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {A.shape}")
    asym = np.abs(A - A.T).max()
    scale = max(np.abs(A).max(), 1.0)
    if asym > 1e-8 * scale:
        raise DimensionMismatchError(f"{name} is not symmetric (deviation {asym:g})")
    return np.linalg.eigh(0.5 * (A + A.T))


def sqrt_psd(A, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues in [-tol*scale, 0) clamp to 0.

    Eigenvalues below tol*scale are treated as exact zeros, otherwise
    their square roots (of order sqrt(eps)) would pollute the null-space
    directions of singular inputs.
    """
    w, Q = _sym_eigh(A)
    thr = tol * max(np.abs(w).max(), 0.0) if w.size else 0.0
    if np.any(w < -thr):
        raise NotPsdError(f"matrix has eigenvalue {w.min():g} below -{thr:g}")
    w = np.where(w <= thr, 0.0, w)
    S = (Q * np.sqrt(w)) @ Q.T
    return 0.5 * (S + S.T)


def signature(A, tol: float = DEFAULT_RANK_TOL) -> tuple:
    """Counts (p, n, z) of eigenvalues above tol*scale, below, and within."""
    w, _ = _sym_eigh(A)
    thr = tol * np.abs(w).max() if w.size else 0.0
    p = int(np.count_nonzero(w > thr))
    n = int(np.count_nonzero(w < -thr))
    return (p, n, len(w) - p - n)


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A nondegenerate symmetric bilinear form phi(x, y) = x.T @ phi @ y.

    Construct through from_matrix (or the euclidean / hyperbolic
    helpers), which checks symmetry and rejects forms with an eigenvalue
    at zero within tolerance.
    """

    phi: np.ndarray
    signature: tuple

    @classmethod
    def from_matrix(cls, phi, tol: float = DEFAULT_RANK_TOL) -> "BilinearForm":
        w, _ = _sym_eigh(phi, "form")
        thr = tol * np.abs(w).max() if w.size else 0.0
        if np.any(np.abs(w) <= thr) or thr == 0.0:
            raise DegenerateFormError("form has an eigenvalue at zero within tolerance")
        p = int(np.count_nonzero(w > 0))
        arr = np.asarray(phi, dtype=float)
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        return cls(arr, (p, len(w) - p))

    @classmethod
    def euclidean(cls, size: int) -> "BilinearForm":
        """The standard inner product on R^size; spherical geometry for cones."""
        return cls.from_matrix(np.eye(size))

    @classmethod
    def hyperbolic(cls, size: int) -> "BilinearForm":
        """diag(1, ..., 1, -1) on R^size."""
        phi = np.eye(size)
        phi[-1, -1] = -1.0
        return cls.from_matrix(phi)

    @property
    def size(self) -> int:
        return self.phi.shape[0]

    def value(self, x, y) -> float:
        return float(np.asarray(x, float) @ self.phi @ np.asarray(y, float))

    def det_sign(self) -> int:
        sign, _ = np.linalg.slogdet(self.phi)
        return int(sign)


def factor_against_form(G, form: BilinearForm, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Find H with H.T @ phi @ H = G, given matching signatures.

    G must be symmetric n x n with the same positive and negative
    eigenvalue counts as the form and all remaining eigenvalues zero.
    The columns of the (d+1) x n result are the candidate outward
    normals; H is unique up to an orthogonal transformation of the form.
    """
    G = as_matrix(G, "gramian")
    n = G.shape[0]
    k = form.size
    p, q = form.signature
    sig = signature(G, tol)
    if sig != (p, q, n - k):
        raise SignatureMismatchError(
            f"gramian signature {sig} does not match form signature ({p}, {q}) "
            f"with {n - k} zeros"
        )
    w, Q = _sym_eigh(G, "gramian")
    order = np.argsort(-w)  # positives first, then zeros, then negatives
    idx = np.concatenate([order[:p], order[len(order) - q:]]) if q else order[:p]
    lam = w[idx]
    K = (np.sqrt(np.abs(lam))[:, None]) * Q[:, idx].T  # k x n, K.T @ D @ K = G

    wphi, R = np.linalg.eigh(form.phi)
    orderp = np.argsort(-wphi)
    wp = wphi[orderp]
    Rp = R[:, orderp]
    B = Rp / np.sqrt(np.abs(wp))  # B.T @ phi @ B = diag(sign(wp)) = D
    return B @ K


def hodge_star(vectors, form: BilinearForm) -> np.ndarray:
    """Metric cross product of d vectors in R^(d+1).

    Returns the unique v with phi(v, x_k) = 0 for every input and
    phi(v, y) equal to the top-degree star of the inputs wedged with y,
    where a positively oriented phi-orthonormal basis has top star 1.
    Computed from the cofactor vector c (c_k the signed minor deleting
    coordinate k): v = sqrt(|det phi|) * phi^-1 c.  The result is zero
    exactly when the inputs are linearly dependent.
    """
    X = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    r = form.size
    if X.shape != (r, r - 1):
        raise DimensionMismatchError(
            f"hodge star needs {r - 1} vectors of length {r}, got shape {X.shape}"
        )
    work = np.empty((r, r))
    work[:, : r - 1] = X
    c = np.empty(r)
    for k in range(r):
        work[:, r - 1] = 0.0
        work[k, r - 1] = 1.0
        c[k] = np.linalg.det(work)
    sign, logdet = np.linalg.slogdet(form.phi)
    if sign == 0:
        raise DegenerateFormError("hodge star needs a nondegenerate form")
    scale = np.exp(0.5 * logdet)
    return scale * np.linalg.solve(form.phi, c)


@dataclass(frozen=True, eq=False)
class LpResult:
    feasible: bool
    witness: object
    margin: float


def lp_strict_feasibility(
    equalities,
    strict_upper,
    *,
    dim: int = None,
    margin_tol: float = 1e-9,
    margin_cap: float = 1e6,
) -> LpResult:
    """Maximize the slack t of a system of equalities and strict inequalities.

    Finds h maximizing t subject to <a, h> = b for (a, b) in equalities
    and <a, h> <= b - t for (a, b) in strict_upper.  The system is
    declared feasible when the optimal t exceeds margin_tol; unbounded
    problems are capped at margin_cap and reported feasible.  Returns the
    witness h when feasible.
    """
    eqs = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in equalities]
    ups = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in strict_upper]
    if dim is None:
        if eqs:
            dim = len(eqs[0][0])
        elif ups:
            dim = len(ups[0][0])
        else:
            dim = 0
    for a, _ in eqs + ups:
        if len(a) != dim:
            raise DimensionMismatchError("constraint vectors have inconsistent length")

    if not eqs and not ups:
        return LpResult(True, np.zeros(dim), margin_cap)

    # Variables: h+ (dim), h- (dim), t+, t-, then one slack per
    # inequality row and one for the cap row.
    n_rows = len(eqs) + len(ups) + 1
    n_slack = len(ups) + 1
    n_vars = 2 * dim + 2 + n_slack
    A = np.zeros((n_rows, n_vars))
    b = np.zeros(n_rows)
    row = 0
    for a, rhs in eqs:
        A[row, :dim] = a
        A[row, dim : 2 * dim] = -a
        b[row] = rhs
        row += 1
    slack = 2 * dim + 2
    for a, rhs in ups:
        A[row, :dim] = a
        A[row, dim : 2 * dim] = -a
        A[row, 2 * dim] = 1.0
        A[row, 2 * dim + 1] = -1.0
        A[row, slack] = 1.0
        b[row] = rhs
        slack += 1
        row += 1
    A[row, 2 * dim] = 1.0
    A[row, 2 * dim + 1] = -1.0
    A[row, slack] = 1.0
    b[row] = margin_cap

    c = np.zeros(n_vars)
    c[2 * dim] = -1.0  # maximize t  <=>  minimize -t+ + t-
    c[2 * dim + 1] = 1.0

    status, x = _two_phase_simplex(A, b, c)
    if status != "optimal":
        return LpResult(False, None, float("-inf"))
    t = x[2 * dim] - x[2 * dim + 1]
    h = x[:dim] - x[dim : 2 * dim]
    if t > margin_tol:
        return LpResult(True, h, float(t))
    return LpResult(False, None, float(t))


def dehomogenize(N) -> np.ndarray:
    """Rescale a rank-(d+1) cone-form matrix to a rank-d matrix plus ones.

    N is a facet-ray matrix: <= 0, zero on the incidences, every facet
    missing a vertex and every vertex missing a facet, so its negated
    row sums r = -N 1 and column sums c = -N.T 1 are positive.  Returns
    M = diag(s / r) N diag(1 / c) + 1 with s = sum(r).  With N = U S V.T
    at rank d+1, x = S V.T 1 / s and y = -S U.T 1 give D1 U x = -1,
    D2 V y = 1 and <x, S^-1 y> = 1 for D1 = diag(s / r), D2 = diag(1 / c),
    so M = D1 U (S - x y.T) V.T D2 and the rank-one update cancels
    exactly one singular direction: M has rank d, and its entries keep
    the signs of N shifted by 1.  Any positive rescaling gives a
    projectively equivalent polytope; this one is in closed form.
    Raises NoPositiveScalingError when a row or column sum is not
    negative.
    """
    N = as_matrix(N)
    r = -N.sum(axis=1)
    c = -N.sum(axis=0)
    for sums, what in ((r, "row"), (c, "column")):
        if not np.all(sums > 0):
            raise NoPositiveScalingError(
                f"{what} {int(np.argmin(sums)) + 1} has sum {-sums.min():g}, not negative; "
                "the matrix is not a facet-ray matrix of a cone over a polytope"
            )
    return (r.sum() / r)[:, None] * N / c[None, :] + 1.0


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _bland_iterate(T, basis, cols, tol, max_pivots=20000):
    """Run simplex pivots with Bland's rule on a canonical tableau.

    T has the constraint rows followed by the reduced-cost row; the last
    column is the RHS.  ``cols`` are the columns allowed to enter.
    Returns "optimal" or "unbounded".
    """
    m = T.shape[0] - 1
    for _ in range(max_pivots):
        entering = -1
        for j in cols:
            if T[m, j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal"
        best_ratio = None
        leaving = -1
        for i in range(m):
            coef = T[i, entering]
            if coef > tol:
                ratio = T[i, -1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(T, basis, leaving, entering)
    raise ArithmeticError("simplex did not terminate within the pivot budget")


def _two_phase_simplex(A, b, c, tol: float = 1e-9):
    """Minimize c @ x subject to A x = b, x >= 0.

    Dense textbook two-phase simplex with Bland's rule; built for tiny
    problems where robustness matters more than speed.  Returns
    (status, x) with status in {"optimal", "infeasible", "unbounded"}.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()

    status = _bland_iterate(T, basis, range(n + m), tol)
    if status != "optimal" or -T[m, -1] > tol * max(1.0, float(b.sum())):
        return "infeasible", None

    # Drive artificials out of the basis where possible; rows that
    # cannot pivot are redundant and stay inert at zero.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > tol:
                    _pivot(T, basis, i, j)
                    break

    # Phase 2 over the original columns.
    T[m, :] = 0.0
    T[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[m] -= c[basis[i]] * T[i]

    status = _bland_iterate(T, basis, range(n), tol)
    if status == "unbounded":
        return "unbounded", None
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    return "optimal", x


def write_matrix_csv(path, M) -> None:
    """One row per line, 17 significant digits."""
    M = as_matrix(M)
    np.savetxt(path, M, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> np.ndarray:
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise MatrixFormatError(f"cannot read matrix file {path}: {exc}") from exc
    if M.size == 0:
        raise MatrixFormatError(f"matrix file {path} is empty")
    if not np.all(np.isfinite(M)):
        raise MatrixFormatError(f"matrix file {path} contains non-finite entries")
    return M
