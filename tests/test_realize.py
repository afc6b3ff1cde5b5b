"""Filled matrices, SVD realizations, conversions, verdicts, LP oracle."""

import numpy as np
import pytest

from polyrealize import (
    FilledIncidenceMatrix,
    build_maxbiclique_lattice,
    check_filled_incidence,
    cone_to_polytope_matrix,
    facet_vertex_matrix,
    grunbaum_oracle,
    polytope_to_cone_matrix,
    realizability_check,
    realization_space_dimension,
    realize_from_matrix,
)
from polyrealize.errors import (
    CapExceededError,
    DegenerateRelationError,
    DimensionMismatchError,
    NoPositiveScalingError,
    PatternViolationError,
    RankMismatchError,
)
from polyrealize import numkernel
from polyrealize.complete import CompletionProblem, initialize_factors
from polyrealize.numkernel import numeric_rank
from polyrealize.realize import (
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_RANK,
    STATUS_REALIZED,
    STATUS_REJECTED,
)

from conftest import (
    PYRAMID_COVERTICES,
    PYRAMID_MATRIX,
    PYRAMID_VERTICES,
    SQUARE_MATRIX,
    cube,
    disjoint_squares,
    pyramid_missing_incidence,
    simplex,
)


class TestCheckFilledIncidence:
    def test_pyramid_matrix_fill_one(self, pyramid):
        assert check_filled_incidence(PYRAMID_MATRIX, pyramid, 1.0).ok

    def test_detects_forced_violation(self, pyramid):
        M = PYRAMID_MATRIX.copy()
        M[0, 2] = 1.0  # incident value at a non-incident position
        report = check_filled_incidence(M, pyramid, 1.0)
        assert not report.ok
        assert (report.violations[0].facet, report.violations[0].vertex) == (1, 3)

    def test_shifted_matrix_fill_zero(self, pyramid):
        assert check_filled_incidence(PYRAMID_MATRIX - 1.0, pyramid, 0.0).ok

    def test_dimension_mismatch(self, square):
        with pytest.raises(DimensionMismatchError):
            check_filled_incidence(PYRAMID_MATRIX, square, 1.0)

    def test_constructor_validates(self, pyramid):
        M = PYRAMID_MATRIX.copy()
        M[0, 0] = 0.5
        with pytest.raises(PatternViolationError):
            FilledIncidenceMatrix(M, pyramid, 1.0)


class TestRealizeFromMatrix:
    def test_pyramid(self, pyramid):
        fim = FilledIncidenceMatrix(PYRAMID_MATRIX, pyramid, 1.0)
        real = realize_from_matrix(fim, 3)
        assert real.W.shape == (3, 5)
        assert np.abs(real.H.T @ real.W - PYRAMID_MATRIX).max() <= 1e-9 * 3

    def test_square(self, square):
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        real = realize_from_matrix(fim, 2)
        assert check_filled_incidence(
            facet_vertex_matrix(real.H, real.W), square, 1.0
        ).ok

    def test_rank_mismatch(self, pyramid):
        fim = FilledIncidenceMatrix(PYRAMID_MATRIX, pyramid, 1.0)
        with pytest.raises(RankMismatchError):
            realize_from_matrix(fim, 2)


class TestFacetVertexMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(facet_vertex_matrix(np.eye(3), np.eye(3)), np.eye(3))

    def test_figure_coordinates_reproduce_matrix(self):
        M = facet_vertex_matrix(PYRAMID_COVERTICES, PYRAMID_VERTICES)
        np.testing.assert_allclose(M, PYRAMID_MATRIX, atol=1e-12)

    def test_invariance_under_linear_action(self):
        rng = np.random.default_rng(23)
        base = facet_vertex_matrix(PYRAMID_COVERTICES, PYRAMID_VERTICES)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            if np.linalg.cond(A) > 30:
                continue
            M = facet_vertex_matrix(
                np.linalg.inv(A).T @ PYRAMID_COVERTICES, A @ PYRAMID_VERTICES
            )
            assert np.abs(M - base).max() < 1e-12


class TestConversions:
    def test_pyramid_round_trip(self, pyramid):
        fim = FilledIncidenceMatrix(PYRAMID_MATRIX, pyramid, 1.0)
        N = polytope_to_cone_matrix(fim)
        assert numeric_rank(N.matrix) == 4
        assert check_filled_incidence(N.matrix, pyramid, 0.0).ok
        back = cone_to_polytope_matrix(N)
        assert numeric_rank(back.matrix) == 3
        assert check_filled_incidence(back.matrix, pyramid, 1.0).ok

    def test_square_round_trip(self, square):
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        N = polytope_to_cone_matrix(fim)
        assert numeric_rank(N.matrix) == 3
        back = cone_to_polytope_matrix(N)
        assert numeric_rank(back.matrix) == 2
        assert check_filled_incidence(back.matrix, square, 1.0).ok

    def test_rescaled_cones_convert_without_lp_or_sampling(self, pyramid, square, monkeypatch):
        # any positive diagonal rescaling of a facet-ray matrix is one too,
        # and must convert back to a rank-d filled 1-incidence matrix
        cones = []
        for name, M, rel, d in [("pyramid", PYRAMID_MATRIX, pyramid, 3),
                                ("square", SQUARE_MATRIX, square, 2)]:
            cones.append((name, polytope_to_cone_matrix(FilledIncidenceMatrix(M, rel, 1.0)), d))

        def converts(fim, d):
            back = cone_to_polytope_matrix(fim)
            return numeric_rank(back.matrix) == d and check_filled_incidence(
                back.matrix, fim.relation, 1.0
            ).ok

        failed = []
        for name, fim, d in cones:
            N = fim.matrix
            for seed in range(200):
                rng = np.random.default_rng(seed)
                D1 = 10 ** rng.uniform(-2, 2, N.shape[0])
                D2 = 10 ** rng.uniform(-2, 2, N.shape[1])
                scaled = FilledIncidenceMatrix(D1[:, None] * N * D2, fim.relation, 0.0)
                try:
                    if not converts(scaled, d):
                        failed.append((name, seed, "pattern or rank"))
                except NoPositiveScalingError:
                    failed.append((name, seed, "no positive scaling"))
        assert failed == []

        def forbidden(*args, **kwargs):
            raise AssertionError("the conversion path must not solve LPs or draw samples")

        monkeypatch.setattr(numkernel, "lp_strict_feasibility", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        assert all(converts(fim, d) for _, fim, d in cones)
        H, W = initialize_factors(CompletionProblem(cube(3), 3))
        assert numeric_rank(H @ W) == 3

    def test_polar_transpose(self, pyramid):
        # the transpose of a verified fill-1 matrix verifies for the
        # transposed relation
        assert check_filled_incidence(PYRAMID_MATRIX.T, pyramid.transpose(), 1.0).ok
        FilledIncidenceMatrix(PYRAMID_MATRIX.T, pyramid.transpose(), 1.0)


class TestRealizabilityCheck:
    def test_pyramid_realized(self, pyramid):
        verdict = realizability_check(pyramid, 3)
        assert verdict.status == STATUS_REALIZED
        # the certificate re-verifies from scratch
        assert check_filled_incidence(verdict.matrix.matrix, pyramid, 1.0).ok
        assert numeric_rank(verdict.matrix.matrix) == 3
        recon = verdict.realization.H.T @ verdict.realization.W
        assert np.abs(recon - verdict.matrix.matrix).max() < 1e-9

    def test_pyramid_wrong_dimension(self, pyramid):
        verdict = realizability_check(pyramid, 2)
        assert verdict.status == STATUS_REJECTED
        assert verdict.reason == REASON_RANK

    def test_disjoint_squares_fail_flag_connectivity(self):
        verdict = realizability_check(disjoint_squares(), 2)
        assert verdict.status == STATUS_REJECTED
        assert verdict.reason == REASON_FLAG_CONNECTIVITY

    def test_deleted_incidence_fails_diamond(self):
        verdict = realizability_check(pyramid_missing_incidence(), 3)
        assert verdict.status == STATUS_REJECTED
        assert verdict.reason == REASON_DIAMOND

    def test_dimension_inferred_from_lattice(self, pyramid):
        verdict = realizability_check(pyramid)
        assert verdict.status == STATUS_REALIZED
        assert verdict.d == 3

    def test_degenerate_rejected_before_lattice(self):
        from polyrealize import IncidenceRelation

        with pytest.raises(DegenerateRelationError):
            realizability_check(IncidenceRelation.from_pairs(2, 2, [(1, 1)]), 1)

    def test_ungraded_lattice_rejected(self):
        from polyrealize import IncidenceRelation
        from polyrealize.realize import REASON_NOT_GRADED

        # closed vertex sets {}, {1}, {1,2}, {3}, {1,2,3}: chains of
        # unequal length, so the lattice is not graded
        rel = IncidenceRelation.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (3, 3)])
        verdict = realizability_check(rel, 2)
        assert verdict.status == STATUS_REJECTED
        assert verdict.reason == REASON_NOT_GRADED
        assert verdict.lattice is not None

    def test_space_dimension_metadata(self, pyramid):
        assert realization_space_dimension(pyramid, 3) == 3 * 10 - 16


class TestGrunbaumOracle:
    def test_square_true(self, square):
        lat = build_maxbiclique_lattice(square)
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        real = realize_from_matrix(fim, 2)
        assert grunbaum_oracle(real.W, lat)

    def test_missing_edge_detected(self, square):
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        real = realize_from_matrix(fim, 2)

        class MissingEdge:
            def vertex_sets(self):
                lat = build_maxbiclique_lattice(square)
                return frozenset(s for s in lat.vertex_sets() if s != frozenset({1, 2}))

        assert not grunbaum_oracle(real.W, MissingEdge())

    def test_triangle(self):
        tri = simplex(2)
        verdict = realizability_check(tri, 2)
        lat = build_maxbiclique_lattice(tri)
        assert grunbaum_oracle(verdict.realization.W, lat)

    def test_cap(self, square):
        lat = build_maxbiclique_lattice(square)
        with pytest.raises(CapExceededError):
            grunbaum_oracle(np.zeros((2, 4)), lat, cap=3)

    def test_trivial_decomposition_passes(self, square):
        # columns of the facet-vertex matrix are the vertices of a
        # linear copy: H = I, W = M is a valid decomposition
        lat = build_maxbiclique_lattice(square)
        M = facet_vertex_matrix(np.eye(4), SQUARE_MATRIX)
        assert check_filled_incidence(M, square, 1.0).ok
        assert grunbaum_oracle(SQUARE_MATRIX, lat)

    def test_trivial_decomposition_pyramid(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        assert grunbaum_oracle(PYRAMID_MATRIX, lat)


class TestModuliInvariance:
    def test_certified_realizations(self, pyramid):
        rng = np.random.default_rng(31)
        verdict = realizability_check(pyramid, 3)
        H, W = verdict.realization.H, verdict.realization.W
        base = facet_vertex_matrix(H, W)
        done = 0
        while done < 25:
            A = rng.standard_normal((3, 3))
            if np.linalg.cond(A) > 30:
                continue
            done += 1
            moved = facet_vertex_matrix(np.linalg.solve(A, np.eye(3)).T @ H, A @ W)
            assert np.abs(moved - base).max() <= 1e-12
