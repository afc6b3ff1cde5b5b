"""Shared relation builders and canonical instances."""

import numpy as np
import pytest

from polyrealize import IncidenceRelation

# Square pyramid: facets 1-4 are the triangles, 5 the base; vertices
# 1-4 the base corners (a-d), 5 the apex (e).
PYRAMID_PAIRS = [
    (1, 1), (1, 2), (1, 5),
    (2, 2), (2, 3), (2, 5),
    (3, 3), (3, 4), (3, 5),
    (4, 4), (4, 1), (4, 5),
    (5, 1), (5, 2), (5, 3), (5, 4),
]

# Facet-vertex matrix of the pyramid with covertices
# (-2,0,1), (0,2,1), (2,0,1), (0,-2,1), (0,0,-1) and vertices
# (-1,-1,-1), (-1,1,-1), (1,1,-1), (1,-1,-1), (0,0,1).
PYRAMID_MATRIX = np.array(
    [
        [1, 1, -3, -3, 1],
        [-3, 1, 1, -3, 1],
        [-3, -3, 1, 1, 1],
        [1, -3, -3, 1, 1],
        [1, 1, 1, 1, -1],
    ],
    dtype=float,
)

PYRAMID_COVERTICES = np.array(
    [[-2, 0, 2, 0, 0], [0, 2, 0, -2, 0], [1, 1, 1, 1, -1]], dtype=float
)
PYRAMID_VERTICES = np.array(
    [[-1, -1, 1, 1, 0], [-1, 1, 1, -1, 0], [-1, -1, -1, -1, 1]], dtype=float
)

SQUARE_MATRIX = np.array(
    [[1, 1, -1, -1], [-1, 1, 1, -1], [-1, -1, 1, 1], [1, -1, -1, 1]], dtype=float
)


def ngon(n: int) -> IncidenceRelation:
    """Polygon: edge k is incident to vertices k and k+1 (mod n)."""
    pairs = [(k, k) for k in range(1, n + 1)]
    pairs += [(k, k % n + 1) for k in range(1, n + 1)]
    return IncidenceRelation.from_pairs(n, n, pairs)


def simplex(d: int) -> IncidenceRelation:
    """d-simplex: facet i contains every vertex except i."""
    n = d + 1
    return IncidenceRelation.from_pairs(
        n, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    )


def cube(d: int) -> IncidenceRelation:
    """d-cube: vertices are 0/1 words, facets fix one coordinate."""
    verts = [tuple((v >> k) & 1 for k in range(d)) for v in range(2**d)]
    pairs = []
    f = 0
    for k in range(d):
        for s in (1, 0):
            f += 1
            for j, word in enumerate(verts, start=1):
                if word[k] == s:
                    pairs.append((f, j))
    return IncidenceRelation.from_pairs(2 * d, 2**d, pairs)


def cross_polytope(d: int) -> IncidenceRelation:
    """d-cross-polytope: facets are sign vectors, vertex 2k-1 is +e_k, 2k is -e_k."""
    facets = [tuple((s >> k) & 1 for k in range(d)) for s in range(2**d)]
    pairs = []
    for fi, sv in enumerate(facets, start=1):
        for k in range(d):
            pairs.append((fi, 2 * k + 1 + sv[k]))
    return IncidenceRelation.from_pairs(2**d, 2 * d, pairs)


def triangular_prism() -> IncidenceRelation:
    """Two triangles 123 / 456 joined by three squares."""
    pairs = [(1, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6)]
    for k, (a, b) in enumerate([(1, 2), (2, 3), (3, 1)], start=3):
        pairs += [(k, a), (k, b), (k, a + 3), (k, b + 3)]
    return IncidenceRelation.from_pairs(5, 6, pairs)


def octant_relation() -> IncidenceRelation:
    """Cone over a triangle: facet i incident to every ray except i."""
    return IncidenceRelation.from_pairs(
        3, 3, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    )


def disjoint_squares() -> IncidenceRelation:
    base = [(k, k) for k in range(1, 5)] + [(k, k % 4 + 1) for k in range(1, 5)]
    pairs = base + [(i + 4, j + 4) for i, j in base]
    return IncidenceRelation.from_pairs(8, 8, pairs)


def pyramid_relation() -> IncidenceRelation:
    return IncidenceRelation.from_pairs(5, 5, PYRAMID_PAIRS)


def pyramid_missing_incidence() -> IncidenceRelation:
    pairs = [p for p in PYRAMID_PAIRS if p != (5, 1)]
    return IncidenceRelation.from_pairs(5, 5, pairs)


def hemi_dodecahedron() -> IncidenceRelation:
    """The dodecahedron with antipodes identified: six pentagons on ten
    vertices, a lattice that passes the gate on a non-orientable surface."""
    facets = [(1, 2, 6, 7, 10), (1, 3, 5, 7, 8), (1, 4, 5, 6, 9),
              (2, 3, 6, 8, 9), (2, 4, 5, 8, 10), (3, 4, 7, 9, 10)]
    return IncidenceRelation.from_pairs(
        6, 10, [(i, j) for i, facet in enumerate(facets, start=1) for j in facet])


def torus7() -> IncidenceRelation:
    """Moebius' 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
    mod 7, a lattice that passes the gate on a surface of Euler
    characteristic 0."""
    facets = [(i, i + k, i + 3) for i in range(7) for k in (1, 2)]
    return IncidenceRelation.from_pairs(
        14, 7, [(f, j % 7 + 1) for f, facet in enumerate(facets, start=1) for j in facet])


def sphere_points(seed: int, n: int) -> np.ndarray:
    """n seeded points on the unit sphere in R^3, one row each."""
    pts = np.random.default_rng([seed, n]).standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sphere_hull(seed: int, n: int) -> IncidenceRelation:
    """Simplicial 3-polytope: hull of sphere_points(seed, n), vertex j at row j."""
    spatial = pytest.importorskip("scipy.spatial")
    hull = spatial.ConvexHull(sphere_points(seed, n))
    assert len(hull.vertices) == n
    pairs = [(i + 1, int(j) + 1) for i, tri in enumerate(hull.simplices) for j in tri]
    return IncidenceRelation.from_pairs(len(hull.simplices), n, pairs)


def random_relation(rng, max_side: int = 8) -> IncidenceRelation:
    n = int(rng.integers(1, max_side + 1))
    m = int(rng.integers(1, max_side + 1))
    density = rng.uniform(0.2, 0.8)
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, m + 1)
        if rng.random() < density
    ]
    return IncidenceRelation.from_pairs(n, m, pairs)


@pytest.fixture
def pyramid():
    return pyramid_relation()


@pytest.fixture
def square():
    return ngon(4)


@pytest.fixture
def octant():
    return octant_relation()
