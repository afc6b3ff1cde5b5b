"""Gale duality for cones and polytopes.

Each generator of a cone carries a canonical linear relation: the
difference between its standard basis vector and the minimum-norm
formal combination reproducing it.  These relation vectors, the columns
of I - N+ N, form the Gale dual of the cone; expressed in an
orthonormal basis of null(N) they become the familiar low-dimensional
Gale vectors, one (m - d - 1)-vector per generator.  The polytope case
reduces to the cone over the polytope in homogeneous coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotInRangeError
from .numkernel import DEFAULT_RANK_TOL, _rank_of_sigma, as_matrix, pseudoinverse


@dataclass(frozen=True, eq=False)
class GaleDual:
    """Gale dual of a cone with m generators and facet-ray matrix of rank r.

    null_basis: m x (m - r), orthonormal basis of null(N) (the extra
        right singular vectors, in index order).
    r_vectors: m x m, column j is the relation e_j - N+ N e_j, the
        projection of e_j onto null(N); computed on first access.
    coords: the null_basis array itself, read as m x (m - r) Gale
        vectors: row j holds the coordinates of generator j's relation
        in the basis; pairwise inner products agree with the full
        r_vectors.
    trivial: True when m = r, in which case the dual is empty.
    """

    null_basis: np.ndarray
    rank: int
    trivial: bool

    @cached_property
    def r_vectors(self) -> np.ndarray:
        return self.null_basis @ self.null_basis.T

    @property
    def coords(self) -> np.ndarray:
        return self.null_basis


def gale_dual_cone(N, rank_tol: float = DEFAULT_RANK_TOL) -> GaleDual:
    """Gale dual of the cone with facet-ray matrix N.

    The relation vectors are the orthogonal projections of the standard
    basis onto null(N).  A trivial dual (m equal to the rank) is
    reported, not an error.
    """
    N = as_matrix(N)
    m = N.shape[1]
    _, s, Vt = np.linalg.svd(N, full_matrices=True)
    r = int(_rank_of_sigma(s, rank_tol))
    null_basis = Vt[r:].T.copy()
    return GaleDual(null_basis, r, trivial=(m == r))


def gale_dual_polytope(M, rank_tol: float = DEFAULT_RANK_TOL) -> GaleDual:
    """Gale dual of a polytope given its facet-vertex matrix.

    Equivalent to the Gale dual of the cone over the polytope in
    homogeneous coordinates, whose facet-ray matrix is M - 1; the
    homogenization adds the all-ones relation to the null space.
    """
    M = as_matrix(M)
    return gale_dual_cone(M - 1.0, rank_tol)


def canonical_combination(N, v, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm formal combination x = N+ v with N x = v.

    Raises NotInRangeError when v is not in the range of N (relative
    residual above tol).
    """
    N = as_matrix(N)
    v = np.asarray(v, dtype=float).ravel()
    x = pseudoinverse(N) @ v
    residual = np.linalg.norm(N @ x - v)
    scale = max(np.linalg.norm(v), 1e-30)
    if residual > tol * scale:
        raise NotInRangeError(
            f"vector is not in the range of the matrix (relative residual {residual / scale:.3g})"
        )
    return x
