"""Seeded inputs for the polyrealize benchmark.

Every polytope is built from explicit coordinates: covertices H (d x n)
and vertices W (d x m) with <h_i, w_j> = 1 exactly on the incident
facet-vertex pairs, so M = H.T @ W is a filled 1-incidence matrix and
the relation is read off M.  Random members are hulls of seeded points
on the sphere; scipy builds those hulls and is used for nothing else.

Lattice sizes, flag counts and super-cycle counts in the manifest come
from closed forms for the families and from face counts of the
incidence matrix for 3-polytopes, never from the library, so they are
an independent check on its incidence layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ON_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Polytope:
    """A d-polytope given by covertices H (d x n) and vertices W (d x m)."""

    name: str
    family: str
    d: int
    H: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)

    @property
    def M(self) -> np.ndarray:
        return self.H.T @ self.W

    @property
    def incidence(self) -> np.ndarray:
        return np.abs(self.M - 1.0) < ON_TOL

    def pairs(self) -> list:
        rows, cols = np.nonzero(self.incidence)
        return [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]


# ---------------------------------------------------------------- families
# Facet and vertex numbering follows the relation builders of the test
# suite, so completion behaviour (restart counts, inconclusive members)
# matches the outcomes recorded in BENCHMARK.json.


def simplex(d: int) -> Polytope:
    """Vertices e_1..e_d and -(1,..,1); facet i omits vertex i."""
    W = np.hstack([np.eye(d), -np.ones((d, 1))])
    H = np.ones((d, d + 1))
    for k in range(d):
        H[k, k] = -float(d)
    return Polytope(f"simplex-{d}", "simplex", d, H, W)


def cube(d: int) -> Polytope:
    """Vertices {-1,1}^d in binary order; facets 2k-1, 2k are x_k = +1, -1."""
    W = np.array([[1.0 if (v >> k) & 1 else -1.0 for v in range(2**d)] for k in range(d)])
    H = np.zeros((d, 2 * d))
    for k in range(d):
        H[k, 2 * k] = 1.0
        H[k, 2 * k + 1] = -1.0
    return Polytope(f"cube-{d}", "cube", d, H, W)


def cross(d: int) -> Polytope:
    """Vertices +e_k, -e_k (2k-1, 2k); facet s is the sign vector of s's bits."""
    W = np.zeros((d, 2 * d))
    for k in range(d):
        W[k, 2 * k] = 1.0
        W[k, 2 * k + 1] = -1.0
    H = np.array([[-1.0 if (s >> k) & 1 else 1.0 for s in range(2**d)] for k in range(d)])
    return Polytope(f"cross-{d}", "cross", d, H, W)


def ngon(n: int) -> Polytope:
    """Regular n-gon; edge k joins vertices k and k+1 (mod n)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    W = np.vstack([np.cos(theta), np.sin(theta)])
    mid = theta + np.pi / n
    H = np.vstack([np.cos(mid), np.sin(mid)]) / np.cos(np.pi / n)
    return Polytope(f"gon-{n}", "ngon", 2, H, W)


def prism() -> Polytope:
    """Triangle 123 over triangle 456, joined by the squares 12, 23, 31."""
    theta = 2.0 * np.pi * np.arange(3) / 3
    ring = np.vstack([np.cos(theta), np.sin(theta)])
    W = np.vstack([np.hstack([ring, ring]), [1, 1, 1, -1, -1, -1]])
    mid = theta + np.pi / 3
    sides = np.vstack([2.0 * np.cos(mid), 2.0 * np.sin(mid), np.zeros(3)])
    H = np.hstack([[[0], [0], [1]], [[0], [0], [-1]], sides])
    return Polytope("prism", "prism", 3, H, W)


def pyramid() -> Polytope:
    """Square pyramid: triangles 1-4, base 5; base corners 1-4, apex 5."""
    H = np.array([[-2, 0, 2, 0, 0], [0, 2, 0, -2, 0], [1, 1, 1, 1, -1]], dtype=float)
    W = np.array([[-1, -1, 1, 1, 0], [-1, 1, 1, -1, 0], [-1, -1, -1, -1, 1]], dtype=float)
    return Polytope("pyramid", "pyramid", 3, H, W)


def sphere_hull(rng, n_points: int, jitter: float, min_gap: float, name: str) -> Polytope:
    """Hull of n seeded points near the unit sphere, redrawn until clean.

    A draw is kept when every point is a hull vertex, the origin is
    interior, every facet is a triangle, and every non-incident entry of
    M stays below 1 - min_gap.
    """
    from scipy.spatial import ConvexHull

    while True:
        pts = rng.standard_normal((n_points, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(1.0 - jitter, 1.0 + jitter, (n_points, 1))
        hull = ConvexHull(pts)
        if len(hull.vertices) != n_points or np.any(hull.equations[:, 3] > -0.05):
            continue
        H = (hull.equations[:, :3] / -hull.equations[:, 3:4]).T
        poly = Polytope(name, "hull", 3, H, pts.T.copy())
        on = poly.incidence
        if not np.all(on.sum(axis=1) == 3):
            continue
        if poly.M[~on].max() < 1.0 - min_gap:
            return poly


# ---------------------------------------------------------------- manifest


def face_counts(p: Polytope) -> dict:
    """|L|, flag count and super-cycle count without the library.

    Polygons and the simplex / cube / cross families use closed forms.
    For 3-polytopes: E counts vertex pairs on two common facets,
    |L| = V + E + F + 2 and flags = 4E; a vertex on k facets carries
    2k(k-2) cycles, each extended by any of the F - k facets missing it.
    Super cycles are left out (None) where no closed form is used.
    """
    n, m = p.H.shape[1], p.W.shape[1]
    d = p.d
    if d == 2:
        return {"lattice": 2 * n + 2, "flags": 2 * n, "super_cycles": 2 * n * (n - 2)}
    if d == 3:
        inc = p.incidence.astype(int)
        common = inc.T @ inc
        edges = int(np.count_nonzero(np.triu(common, 1) >= 2))
        k = inc.sum(axis=0)
        return {
            "lattice": m + edges + n + 2,
            "flags": 4 * edges,
            "super_cycles": int(np.sum(2 * k * (k - 2) * (n - k))),
        }
    fact = math.factorial(d)
    if p.family == "simplex":
        return {"lattice": 2 ** (d + 1), "flags": (d + 1) * fact, "super_cycles": (d + 1) * fact}
    if p.family == "cube":
        return {"lattice": 3**d + 1, "flags": 2**d * fact, "super_cycles": 2**d * fact * d}
    if p.family == "cross":
        return {"lattice": 3**d + 1, "flags": 2**d * fact, "super_cycles": None}
    raise ValueError(f"no closed-form face counts for {p.name}")


def gramian_of(p: Polytope) -> np.ndarray:
    """Euclidean Gramian of the cone over p: unit normals (h_i, -1)."""
    normals = np.vstack([p.H, -np.ones((1, p.H.shape[1]))])
    normals /= np.linalg.norm(normals, axis=0)
    G = normals.T @ normals
    return 0.5 * (G + G.T)
