"""Dense real linear algebra used by the numeric modules.

Rank-revealing compact SVD, Moore-Penrose pseudoinverse, PSD square
root, signatures of symmetric matrices, factoring a Gramian against a
bilinear form, the metric Hodge star, a small strict-feasibility LP
solved by a one-phase simplex, and the diagonal rescaling that
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


LP_TOL = 1e-9
LP_MAX_PIVOTS = 20000


@dataclass(frozen=True, eq=False)
class LpResult:
    feasible: bool
    witness: object
    margin: float


def lp_strict_feasibility(equalities, strict_upper, *, dim: int = None,
                          margin_cap: float = 1e6) -> LpResult:
    """Maximize the slack t of a system of equalities and strict inequalities.

    Finds h maximizing t <= margin_cap subject to <a, h> = b for (a, b)
    in equalities and <a, h> <= b - t for (a, b) in strict_upper.  The
    equalities are solved once by SVD: inconsistent ones give margin
    -inf, otherwise h = h0 + Z z with h0 the minimum-norm solution and Z
    an orthonormal null-space basis.  The remaining LP over (z, t) starts
    from the slack basis, made feasible by one pivot of t (down to the
    least right-hand side), and runs Bland's rule.  When the equalities
    fix h, Z has no columns and that pivot is the whole solve.  The
    system is feasible when the optimal t exceeds LP_TOL; the witness h
    is returned then.
    """
    eqs = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in equalities]
    ups = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in strict_upper]
    if dim is None:
        dim = len((eqs + ups)[0][0]) if eqs or ups else 0
    for a, _ in eqs + ups:
        if len(a) != dim:
            raise DimensionMismatchError("constraint vectors have inconsistent length")

    h0, Z = np.zeros(dim), np.eye(dim)
    if eqs:
        A = np.array([a for a, _ in eqs])
        b = np.array([rhs for _, rhs in eqs])
        U, s, Vt = np.linalg.svd(A)
        r = int(np.count_nonzero(s > LP_TOL * s[0])) if s.size else 0
        h0 = Vt[:r].T @ (U[:, :r].T @ b / s[:r])
        if np.abs(A @ h0 - b).sum() > LP_TOL * max(1.0, np.abs(b).sum()):
            return LpResult(False, None, float("-inf"))
        Z = Vt[r:].T

    # Rows G z + t + s_i = c_i, then t + s = margin_cap; columns z+, z-,
    # t+, t-, one slack per row, the right-hand side; last, the reduced
    # costs of minimizing -t.
    P = np.array([a for a, _ in ups]).reshape(len(ups), dim)
    G = P @ Z
    m, k = len(ups) + 1, Z.shape[1]
    tp = 2 * k
    T = np.zeros((m + 1, tp + 3 + m))
    T[: m - 1, :tp] = np.hstack([G, -G])
    T[:m, tp : tp + 2] = 1.0, -1.0
    T[:m, tp + 2 : -1] = np.eye(m)
    T[: m - 1, -1] = [rhs for _, rhs in ups] - P @ h0
    T[m - 1, -1] = margin_cap
    T[m, tp : tp + 2] = -1.0, 1.0
    basis = np.arange(tp + 2, tp + 2 + m)
    low = int(np.argmin(T[:m, -1]))
    if T[low, -1] < 0:
        _pivot(T, basis, low, tp + 1)

    for _ in range(LP_MAX_PIVOTS):
        improving = np.flatnonzero(T[m, :-1] < -LP_TOL)
        if not improving.size:
            break
        col = improving[0]
        rows = np.flatnonzero(T[:m, col] > LP_TOL)
        if not rows.size:
            raise ArithmeticError("simplex found an unbounded ray of a capped LP")
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios <= ratios.min() + LP_TOL]
        _pivot(T, basis, ties[np.argmin(basis[ties])], col)
    else:
        raise ArithmeticError("simplex did not terminate within the pivot budget")

    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:m, -1]
    # The cap row reads t + s = margin_cap: t is the cap when its slack is 0.
    t = float(margin_cap if x[-1] == 0.0 else x[tp] - x[tp + 1])
    if t > LP_TOL:
        return LpResult(True, h0 + Z @ (x[:k] - x[k:tp]), t)
    return LpResult(False, None, t)


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
