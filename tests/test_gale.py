"""Gale duality: relation vectors, basis coordinates, minimum-norm combinations."""

import numpy as np
import pytest

from polyrealize import canonical_combination, gale_dual_cone, gale_dual_polytope
from polyrealize.errors import NotInRangeError
from polyrealize.numkernel import numeric_rank

from conftest import PYRAMID_MATRIX, SQUARE_MATRIX, simplex


def square_cone_matrix():
    return SQUARE_MATRIX - 1.0


class TestGaleDualCone:
    def test_square_cone_alternating(self):
        dual = gale_dual_cone(square_cone_matrix())
        assert dual.rank == 3
        assert not dual.trivial
        assert dual.coords.shape == (4, 1)
        signs = np.sign(dual.coords.ravel())
        assert list(signs) in ([1, -1, 1, -1], [-1, 1, -1, 1])
        # the relation itself: w1 - w2 + w3 - w4 = 0
        np.testing.assert_allclose(
            dual.r_vectors @ np.ones(4), dual.r_vectors.sum(axis=1), atol=1e-12
        )

    def test_relation_vectors_are_computed_on_first_access(self):
        dual = gale_dual_cone(square_cone_matrix())
        assert "r_vectors" not in vars(dual)
        first = dual.r_vectors
        np.testing.assert_array_equal(first, dual.null_basis @ dual.null_basis.T)
        assert dual.r_vectors is first

    def test_triangle_trivial(self):
        tri = np.array([[1.0, 1, -1], [-1, 1, 1], [1, -1, 1]]) - 1.0
        dual = gale_dual_cone(tri)
        assert dual.trivial
        assert dual.coords.shape == (3, 0)

    def test_pyramid_apex_coordinate_zero(self):
        dual = gale_dual_cone(PYRAMID_MATRIX - 1.0)
        coords = dual.coords.ravel()
        assert abs(coords[4]) < 1e-12  # apex carries no relation weight
        base = coords[:4]
        assert np.all(np.abs(base) > 0.1)
        assert list(np.sign(base)) in ([1, -1, 1, -1], [-1, 1, -1, 1])


    @pytest.mark.parametrize("rank_tol", [1e-9, 1e-6, 1e-12, 0.3])
    def test_rank_is_numeric_rank(self, rank_tol):
        # the zero matrix has rank 0 and its whole domain as null space
        rng = np.random.default_rng(8)
        cones = [np.zeros((3, 4)), np.zeros((4, 2)), PYRAMID_MATRIX - 1.0, square_cone_matrix()]
        cones += [PYRAMID_MATRIX - 1.0 + eps * rng.standard_normal((5, 5))
                  for eps in (1e-14, 1e-10, 1e-7, 1e-4)]
        for N in cones:
            dual = gale_dual_cone(N, rank_tol)
            assert dual.rank == numeric_rank(N, rank_tol)
            assert dual.null_basis.shape == (N.shape[1], N.shape[1] - dual.rank)


class TestGaleDualPolytope:
    def test_matches_cone_of_homogenization(self):
        via_polytope = gale_dual_polytope(PYRAMID_MATRIX)
        via_cone = gale_dual_cone(PYRAMID_MATRIX - 1.0)
        np.testing.assert_allclose(
            via_polytope.r_vectors, via_cone.r_vectors, atol=1e-12
        )

    def test_square_polytope(self):
        dual = gale_dual_polytope(SQUARE_MATRIX)
        signs = np.sign(dual.coords.ravel())
        assert list(signs) in ([1, -1, 1, -1], [-1, 1, -1, 1])

    def test_triangle_polytope_trivial(self):
        tri = np.array([[1.0, 1, -1], [-1, 1, 1], [1, -1, 1]])
        assert gale_dual_polytope(tri).trivial


class TestInvariants:
    @pytest.mark.parametrize(
        "N",
        [square_cone_matrix(), PYRAMID_MATRIX - 1.0, PYRAMID_MATRIX],
        ids=["square-cone", "pyramid-cone", "pyramid-matrix"],
    )
    def test_projector_identities(self, N):
        dual = gale_dual_cone(N)
        P = dual.r_vectors
        assert np.abs(N @ P).max() < 1e-10
        assert np.abs(P @ P - P).max() < 1e-10

    def test_coordinate_consistency(self):
        dual = gale_dual_cone(PYRAMID_MATRIX - 1.0)
        full = dual.r_vectors.T @ dual.r_vectors  # pairwise products of r_j
        low = dual.coords @ dual.coords.T
        assert np.abs(full - low).max() < 1e-9

    def test_basis_orthonormal_and_in_null_space(self):
        N = square_cone_matrix()
        dual = gale_dual_cone(N)
        B = dual.null_basis
        np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)
        assert np.abs(N @ B).max() < 1e-12


class TestCanonicalCombination:
    def test_zero(self):
        x = canonical_combination(square_cone_matrix(), np.zeros(4))
        np.testing.assert_allclose(x, np.zeros(4), atol=1e-14)

    def test_projection_contraction(self):
        N = square_cone_matrix()
        v = N @ np.eye(4)[:, 0]
        x = canonical_combination(N, v)
        assert np.linalg.norm(N @ x - v) < 1e-10
        assert np.linalg.norm(x) <= 1.0 + 1e-12

    def test_minimum_norm_among_solutions(self):
        N = PYRAMID_MATRIX - 1.0
        rng = np.random.default_rng(6)
        v = N @ rng.standard_normal(5)
        x = canonical_combination(N, v)
        dual = gale_dual_cone(N)
        for _ in range(10):
            shift = dual.null_basis @ rng.standard_normal(dual.null_basis.shape[1])
            assert np.linalg.norm(x + shift) >= np.linalg.norm(x) - 1e-12

    def test_out_of_range(self):
        N = square_cone_matrix()  # rank 3 in R^4
        dual = gale_dual_cone(N)
        # build a vector with a component outside the range of N
        u = np.linalg.svd(N)[0][:, 3]
        with pytest.raises(NotInRangeError):
            canonical_combination(N, N @ np.ones(4) + u)

    def test_simplex_relation_sanity(self):
        # simplices have trivial duals at every size
        for d in (2, 3):
            rel = simplex(d)
            n = d + 1
            M = np.full((n, n), 1.0) - (d + 1) * np.eye(n)
            assert gale_dual_polytope(M).trivial
