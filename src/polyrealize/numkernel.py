"""Dense real linear algebra used by the numeric modules.

Rank-revealing compact SVD, Moore-Penrose pseudoinverse, PSD square
root, signatures of symmetric matrices, factoring a Gramian against a
bilinear form, the strict-feasibility LP of one facet's supporting
hyperplane solved in closed form from one SVD, and the diagonal
rescaling that turns a cone-form (fill 0, rank d+1) matrix into
polytope form (fill 1, rank d).  Everything operates on plain float64
numpy arrays; matrices must be finite.
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
    """Coerce to a finite 2-D float64 array; complex input is refused, not truncated."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} contains complex entries")
    arr = arr.astype(float, copy=False)
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
    r = int(_rank_of_sigma(s, rank_tol))
    return Svd(U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy(), r)


def _rank_of_sigma(s, rank_tol):
    """Singular values above rank_tol times the largest, along the last axis."""
    return np.count_nonzero(s > rank_tol * s[..., :1], axis=-1)


def numeric_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    M = as_matrix(M)
    if not M.any():
        return 0
    return int(_rank_of_sigma(np.linalg.svd(M, compute_uv=False), rank_tol))


def numeric_ranks(stack, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """``numeric_rank`` of every matrix in a (k, p, q) stack, from one stacked SVD.

    A zero matrix has no singular value above the cutoff, so its rank
    is 0 here too.
    """
    return _rank_of_sigma(np.linalg.svd(stack, compute_uv=False), rank_tol)


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
    return _signature_of(_sym_eigh(A)[0], tol)


def _signature_of(w, tol):
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
    w, Q = _sym_eigh(G, "gramian")
    sig = _signature_of(w, tol)
    if sig != (p, q, n - k):
        raise SignatureMismatchError(
            f"gramian signature {sig} does not match form signature ({p}, {q}) "
            f"with {n - k} zeros"
        )
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


LP_TOL = 1e-9


def lp_strict_feasibility(W, on, lifted_svd: Svd = None) -> float:
    """The largest margin t of a strict supporting hyperplane of one facet.

    W holds the vertices as columns and the boolean mask on marks the
    facet's vertices.  Returns the optimum of the LP: maximize t over h
    with <h, w_j> = 1 on the facet and <h, w_j> <= 1 - t off it; the
    facet is strictly supported when t > LP_TOL.  It is solved in closed
    form from one SVD [W; 1] = U S V.T.  The facet's rows of V S are
    [W; 1][:, on].T U, with the singular values of [W; 1][:, on]; their
    null vector z gives c = U z = (g, phi), the affine function
    <g, x> + phi that vanishes on the facet, and its values a = V S z on
    the vertices.  When the origin is off aff(W) (1 - |U[-1]|^2 >
    LP_TOL), phi is free: t is +inf when a has one strict sign off the
    facet, and 0 otherwise.  Otherwise h = -g / phi and t is the least
    a_j / phi off the facet, or -inf when the hyperplane passes within
    LP_TOL of the origin, relative to the facet's farthest vertex.  When
    the facet's vertices span aff(W), c is 0 and so is every value.
    Raises ValueError when they leave more than one free direction.
    A caller solving several facets of one W may pass that SVD, the
    ``compact_svd`` of [W; 1], as lifted_svd, so that it is taken once.
    """
    W = as_matrix(W, "W")
    on = np.asarray(on, dtype=bool)
    L = lifted_svd
    if L is None:
        L = compact_svd(np.vstack([W, np.ones(W.shape[1])]))
    _, s, Zt = np.linalg.svd(L.V[on] * L.sigma)
    free = Zt[np.count_nonzero(s > DEFAULT_RANK_TOL * s.max(initial=0.0)):]
    if len(free) > 1:
        raise ValueError(f"the facet's vertices leave h {len(free)} free directions")
    z = free.sum(axis=0)
    c = L.U @ z
    a = L.V @ (L.sigma * z)
    off = a[~on]
    if 1.0 - L.U[-1] @ L.U[-1] > LP_TOL:
        tol = LP_TOL * np.abs(a).max()
        return np.inf if np.all(off > tol) or np.all(off < -tol) else 0.0
    reach = np.linalg.norm(c[:-1]) * np.linalg.norm(W[:, on], axis=0).max(initial=0.0)
    if abs(c[-1]) <= LP_TOL * reach:
        return -np.inf
    return float(np.min(off / c[-1], initial=np.inf))


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
