"""Dense real linear algebra used by the numeric modules.

Rank-revealing compact SVD, the numeric rank (certified by a pivoted
QR on large matrices, by the SVD otherwise), Moore-Penrose
pseudoinverse, PSD square root, signatures of symmetric matrices,
factoring a Gramian against a bilinear form, the strict-feasibility
LP of one facet's supporting hyperplane solved in closed form from one
SVD, and the diagonal rescaling that turns a cone-form (fill 0, rank
d+1) matrix into polytope form (fill 1, rank d).  Everything operates
on plain float64 numpy arrays; matrices must be finite.
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
    descending order, V is m x r column-orthonormal, and
    M = U @ diag(sigma) @ V.T up to the rank cutoff.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int


def compact_svd(M, rank_tol: float = DEFAULT_RANK_TOL) -> Svd:
    """Compact SVD at the numeric rank r = #(sigma > rank_tol * sigma_max).

    Where the certified pivoted pass of ``numeric_rank`` decides the
    rank k, the SVD is read from its factor M ~ Q.T S, with Q (k x n)
    orthonormal rows and S = Q M: S = U_S diag(sigma) V.T gives
    U = Q.T U_S, so only the k x m S is decomposed, and
    ||M - U diag(sigma) V.T||_F = ||M - Q.T S||_F is at most
    rank_tol * sigma_max.  Elsewhere the thin SVD of M is taken and
    truncated at its own count.
    """
    M = as_matrix(M)
    if not M.any():
        raise ZeroMatrixError("compact SVD of the zero matrix is undefined")
    factor = _certified_factor(M, rank_tol)
    if factor is not None:
        Q, S = factor
        U, s, Vt = np.linalg.svd(S, full_matrices=False)
        return Svd(Q.T @ U, s, Vt.T.copy(), len(s))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(_rank_of_sigma(s, rank_tol))
    return Svd(U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy(), r)


def null_space(N, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """(r, B): the numeric rank of N (n x m) and an m x (m - r) orthonormal
    basis B of its null space, with ||N B||_F at most rank_tol * sigma_max.

    Where the certified pivoted pass decides r, B holds the trailing
    m - r columns of the complete QR of the m x r matrix S.T of its
    factor N ~ Q.T S.  Elsewhere, the zero matrix included, the full SVD
    of N is taken and B holds its extra right singular vectors, in index
    order; the zero matrix has rank 0 and its whole domain as null space.
    """
    N = as_matrix(N)
    factor = _certified_factor(N, rank_tol)
    if factor is not None:
        _, S = factor
        basis, _ = np.linalg.qr(S.T, mode="complete")
        return len(S), basis[:, len(S):].copy()
    _, s, Vt = np.linalg.svd(N, full_matrices=True)
    r = int(_rank_of_sigma(s, rank_tol))
    return r, Vt[r:].T.copy()


def _rank_of_sigma(s, rank_tol):
    """Singular values above rank_tol times the largest, along the last axis."""
    return np.count_nonzero(s > rank_tol * s[..., :1], axis=-1)


def numeric_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """#(sigma > rank_tol * sigma_max), as the values-only SVD counts it.

    On a matrix of at least PIVOTED_MIN_SIDE rows and columns, a
    column-pivoted QR (``_pivoted_factor``) runs first and decides a
    rank k only when its bounds put sigma_k above and sigma_(k+1) at or
    below that cutoff; its k is returned.  When it cannot decide, or the
    matrix is smaller, the values-only SVD is taken.  The zero matrix
    has rank 0.  ``compact_svd`` and ``null_space`` read their factors
    from the same pass.
    """
    M = as_matrix(M)
    if not M.any():
        return 0
    factor = _certified_factor(M, rank_tol)
    if factor is not None:
        return len(factor[0])
    return int(_rank_of_sigma(np.linalg.svd(M, compute_uv=False), rank_tol))


PIVOTED_MIN_SIDE = 64
PIVOTED_STEP_SHARE = 16
"""The pivoted pass runs on matrices with at least PIVOTED_MIN_SIDE rows
and columns, for at most min(n, m) / PIVOTED_STEP_SHARE steps.

Measured in-process with one BLAS thread (numpy 2.4, OpenBLAS, 2
vCPUs), a pass that decides rank 2-4 against the values-only SVD:
48 x 48 0.14 ms against 0.13 ms, the crossover; 64 x 64 0.11-0.15 ms
against 0.21 ms; 256 x 256 0.43-0.53 ms against 7.0 ms; 1024 x 1024
3.5-4.3 ms against 367 ms; 1996 x 1000 6.4-7.9 ms against 416 ms.  A
pass that cannot decide (a full-rank matrix, all its steps) costs 36 %
of the SVD it falls back to at 64 x 64, 18 % at 128 x 128, and 8-13 %
from 256 x 256 to 1996 x 1000.  Where it decides, ``compact_svd`` from
its factor (the pass plus the SVD of the k x m S) against the thin SVD,
and ``null_space`` from its factor (the pass plus the complete QR of
S.T) against the full SVD, at rank 3-4: 64 x 64 0.33 ms against
0.46 ms and 0.36 ms against 0.46 ms; 256 x 256 0.68 ms against 9.3 ms
and 0.74 ms against 9.3 ms; 1024 x 1024 5.7 ms against 553 ms and
24 ms against 562 ms; 1996 x 1000 14 ms against 760 ms and 23 ms
against 1018 ms.
"""

_UNIT = np.finfo(float).eps / 2
_QR_C = 16
_SVD_C = 16
_SCALE = (1e-100, 1e100)


def _gamma(count: float) -> float:
    """Higham's gamma_count = count u / (1 - count u), u the unit roundoff."""
    return count * _UNIT / (1.0 - count * _UNIT)


def _pivoted_steps(n: int, m: int) -> int:
    """Steps the pivoted pass may take on an n x m matrix; 0 skips it."""
    side = min(n, m)
    return side // PIVOTED_STEP_SHARE if side >= PIVOTED_MIN_SIDE else 0


def _certified_factor(M: np.ndarray, rank_tol: float):
    """(Q, S) of the pivoted pass on M, or None where it does not run (a
    side under PIVOTED_MIN_SIDE) or does not decide (the zero matrix among
    them)."""
    steps = _pivoted_steps(*M.shape)
    return _pivoted_factor(M, rank_tol, steps) if steps else None


def _pivoted_factor(A: np.ndarray, rank_tol: float, steps: int):
    """A rank-k factor of A, k the SVD count's numeric rank, certified by a
    column-pivoted QR: (Q, S) with Q (k x n) orthonormal rows and S = Q A
    (k x m), or None.

    Gram-Schmidt, orthogonalizing twice, takes the column of largest
    residual norm at each step; after k steps Q.T S, with S = Q A, has
    rank k.  The bounds, in exact arithmetic, are:
    sigma_(k+1) <= ||T||_F for T = A - Q.T S (Eckart-Young, whatever Q's
    loss of orthogonality); sigma_k >= sigma_min(C) >= sigma_min(R)
    - gamma(16 n k) ||C||_F for the k pivot columns C and the R of
    their Householder QR (interlacing; Higham 2002, Thm. 19.4, 16
    standing in for its small constant); and sigma_1 lies between the
    largest column norm and ||A||_F, and is at least
    sqrt((||A||_F^2 - ||T||_F^2) / k).  Each computed norm is widened by
    the rounding of its sum and T by that of its product, and LAPACK's
    singular values lie within 16 max(n, m) u ||A||_F of the exact ones.
    The pass returns (Q, S) at k steps when these bounds put sigma_k
    above and sigma_(k+1) at or below rank_tol times sigma_1, as LAPACK
    computes them; ||T||_F then lies below that cutoff.  T is formed
    only once the downdated residual norms fall to the cutoff or to the
    1e-6 ||A||_F that downdating resolves.  The pass returns None, so
    that the caller takes the SVD, when no k <= steps is decided: the
    SVD's rounding reaches the cutoff, the next pivot column is no
    longer above it, or the steps run out.
    """
    n, m = A.shape
    col2 = np.einsum("ij,ij->j", A, A)
    fro = float(np.sqrt(col2.sum()))
    if not _SCALE[0] < fro < _SCALE[1]:
        return None
    wide = _gamma(n * m + 2)
    fro_lo, fro_hi = fro * (1 - wide), fro * (1 + wide)
    svd_err = _SVD_C * max(n, m) * _UNIT * fro_hi
    if not svd_err < rank_tol * fro_lo:
        return None
    top_lo = float(np.sqrt(col2.max())) * (1 - wide)
    cut_hi = rank_tol * (1 + 4 * _UNIT) * (fro_hi + svd_err)
    trigger = (rank_tol ** 2 + 1e-12) * fro ** 2
    resid2 = col2.copy()
    Q = np.empty((steps, n))
    S = np.empty((steps, m))
    pivots = []
    for k in range(steps + 1):
        if resid2.sum() <= trigger:
            T = Q[:k].T @ S[:k]
            np.subtract(A, T, out=T)  # in the product's buffer: a second one would fault its pages in
            resid2 = np.einsum("ij,ij->j", T, T)
            product = _gamma(k + 1) * np.linalg.norm(Q[:k]) * np.linalg.norm(S[:k])
            tail_hi = (float(np.sqrt(resid2.sum())) + product) * (1 + wide) / (1 - _UNIT)
            if k:
                lead = float(np.sqrt(max(fro_lo ** 2 - tail_hi ** 2, 0.0) / k)) * (1 - wide)
                top_lo = max(top_lo, lead)
            if tail_hi + svd_err <= rank_tol * (1 - 4 * _UNIT) * (top_lo - svd_err):
                if k:
                    C = A[:, pivots]
                    qr_err = _gamma(_QR_C * n * k) * np.linalg.norm(C) * (1 + wide)
                    floor = _sigma_min_floor(np.linalg.qr(C, mode="r"))
                    if floor - qr_err - svd_err <= cut_hi:
                        return None
                return Q[:k], S[:k]
        if k == steps:
            return None
        pivot = int(np.argmax(resid2))
        if float(np.sqrt(max(resid2[pivot], 0.0))) * (1 + wide) - svd_err <= cut_hi:
            return None
        q = A[:, pivot]
        for _ in range(2):
            q = q - (Q[:k] @ q) @ Q[:k]
        norm = np.linalg.norm(q)
        if not norm > 0.0:
            return None
        Q[k] = q / norm
        S[k] = Q[k] @ A
        resid2 -= S[k] ** 2
        pivots.append(pivot)
        resid2[pivots] = 0.0
    return None


def _sigma_min_floor(R: np.ndarray) -> float:
    """A lower bound on the smallest singular value of the upper triangle of R.

    X = R^-1 as computed, and E = I - R X with the rounding of its
    product added, give ||R^-1||_2 <= ||X||_F / (1 - ||E||_F) when
    ||E||_F < 1; the bound is 0 otherwise.
    """
    R = np.triu(R)
    k = len(R)
    eye = np.eye(k)
    g = _gamma(k * k + k + 2)
    with np.errstate(all="ignore"):
        try:
            X = np.linalg.solve(R, eye)
        except np.linalg.LinAlgError:
            return 0.0
        x_norm = np.linalg.norm(X)
        eta = np.linalg.norm(eye - R @ X) * (1 + g) + g * np.linalg.norm(R) * x_norm
        floor = (1.0 - eta) / (x_norm * (1 + g))
    return float(floor) if eta < 1.0 and np.isfinite(floor) else 0.0


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
    LP_TOL of the origin, relative to the facet's farthest vertex, and
    so whenever every vertex of the facet is the origin.  When
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
    if reach == 0.0 or abs(c[-1]) <= LP_TOL * reach:
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
