"""Filled matrices, SVD realizations, conversions, verdicts, LP oracle."""

import numpy as np
import pytest

from polyrealize import (
    FilledIncidenceMatrix,
    IncidenceRelation,
    build_maxbiclique_lattice,
    check_diamond,
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
    cross_polytope,
    cube,
    disjoint_squares,
    ngon,
    pyramid_missing_incidence,
    pyramid_relation,
    simplex,
    sphere_hull,
    sphere_points,
    triangular_prism,
)
from oracles import grunbaum_oracle_by_subsets


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


def relabelled(rel, perm):
    """rel with vertex j renamed perm[j - 1]."""
    return IncidenceRelation.from_pairs(
        rel.n_facets, rel.n_vertices, [(i, perm[j - 1]) for i, j in rel.incident])


# gate-passing relations with at most 8 vertices, and their dimension
ORACLE_FAMILIES = {
    **{f"simplex-{d}": (lambda d=d: simplex(d), d) for d in (2, 3, 4, 5)},
    "cube-2": (lambda: cube(2), 2),
    "cube-3": (lambda: cube(3), 3),
    "cross-3": (lambda: cross_polytope(3), 3),
    "cross-4": (lambda: cross_polytope(4), 4),
    **{f"gon-{n}": (lambda n=n: ngon(n), 2) for n in (5, 6, 8)},
    "prism": (triangular_prism, 3),
    "pyramid": (pyramid_relation, 3),
}


def oracle_variants(W, rng) -> dict:
    """W, W with vertex 1 shrunk toward the centroid or moved, W jittered,
    and W placed so that the origin is not interior to its hull."""
    c = W.mean(axis=1, keepdims=True)
    out = {"as-is": W}
    for t in (0.9, 0.5, 0.0):
        X = W.copy()
        X[:, 0] = c[:, 0] + t * (W[:, 0] - c[:, 0])
        out[f"shrunk-{t}"] = X
    X = W.copy()
    X[:, 0] += 0.05 * rng.standard_normal(len(W))
    out["moved"] = X
    out["jittered"] = W + 0.05 * rng.standard_normal(W.shape)
    out["origin-outside"] = W + 3.0 * (W[:, [0]] - c)
    out["origin-at-vertex-1"] = W - W[:, [0]]
    out["origin-off-affine-hull"] = np.vstack([W - W[:, [0]], np.ones(W.shape[1])])
    return out


def assert_agrees(W, lat, label):
    assert grunbaum_oracle(W, lat) == grunbaum_oracle_by_subsets(W, lat), label


class TestGrunbaumOracle:
    def test_square_true(self, square):
        lat = build_maxbiclique_lattice(square)
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        real = realize_from_matrix(fim, 2)
        assert grunbaum_oracle(real.W, lat)

    def test_missing_edge_detected(self, square):
        # the square with vertices 2 and 3 swapped: {1, 2} is a diagonal
        fim = FilledIncidenceMatrix(SQUARE_MATRIX, square, 1.0)
        real = realize_from_matrix(fim, 2)
        lat = build_maxbiclique_lattice(relabelled(square, [1, 3, 2, 4]))
        assert frozenset({1, 2}) not in {frozenset(el.vertex_set) for el in lat.elements}
        assert not grunbaum_oracle(real.W, lat)

    def test_triangle(self):
        tri = simplex(2)
        verdict = realizability_check(tri, 2)
        lat = build_maxbiclique_lattice(tri)
        assert grunbaum_oracle(verdict.realization.W, lat)

    def test_trivial_decomposition_passes(self, square):
        # columns of the facet-vertex matrix are the vertices of a
        # linear copy: H = I, W = M is a valid decomposition
        lat = build_maxbiclique_lattice(square)
        M = facet_vertex_matrix(np.eye(4), SQUARE_MATRIX)
        assert check_filled_incidence(M, square, 1.0).ok
        assert grunbaum_oracle(SQUARE_MATRIX, lat)
        assert grunbaum_oracle_by_subsets(SQUARE_MATRIX, lat)

    def test_trivial_decomposition_pyramid(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        assert grunbaum_oracle(PYRAMID_MATRIX, lat)

    def test_vertex_count_must_match(self, square):
        lat = build_maxbiclique_lattice(square)
        with pytest.raises(DimensionMismatchError):
            grunbaum_oracle(np.ones((2, 5)), lat)

    def test_not_diamond_fails(self):
        # graded of rank 3, but the top covers three edges
        rel = IncidenceRelation.from_pairs(3, 4, [(1, 1), (1, 2), (2, 2), (2, 3),
                                                  (3, 3), (3, 4)])
        lat = build_maxbiclique_lattice(rel)
        assert lat.is_graded and not check_diamond(lat)
        assert not grunbaum_oracle(np.array([[0.0, 1, 2, 3], [0, 1, 0, 1]]), lat)

    def test_cube_4_and_a_shrunk_vertex(self):
        # 16 vertices: the 65,536 subsets of an exhaustive check are not needed
        rel = cube(4)
        lat = build_maxbiclique_lattice(rel)
        W = realizability_check(rel, 4).realization.W
        assert grunbaum_oracle(W, lat)
        shrunk = W.copy()
        shrunk[:, 0] = W.mean(axis=1) + 0.5 * (W[:, 0] - W.mean(axis=1))
        assert not grunbaum_oracle(shrunk, lat)

    def test_regular_256_gon_and_a_vertex_pulled_inward(self):
        # one LP per edge, each fixed by the edge's two vertices
        angles = 2 * np.pi * np.arange(256) / 256
        W = np.vstack([np.cos(angles), np.sin(angles)])
        lat = build_maxbiclique_lattice(ngon(256))
        assert grunbaum_oracle(W, lat)
        W[:, 0] *= 0.99  # inside the chord of vertices 256 and 2
        assert not grunbaum_oracle(W, lat)


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_oracle_agrees_with_exhaustive_check(name):
    build, d = ORACLE_FAMILIES[name]
    rel = build()
    lat = build_maxbiclique_lattice(rel)
    W = realizability_check(rel, d).realization.W
    variants = oracle_variants(W, np.random.default_rng(sum(map(ord, name))))
    for variant, X in variants.items():
        assert_agrees(X, lat, variant)
    assert grunbaum_oracle(W, lat)
    assert grunbaum_oracle(variants["origin-off-affine-hull"], lat)
    assert not grunbaum_oracle(variants["origin-outside"], lat)
    assert not grunbaum_oracle(variants["origin-at-vertex-1"], lat)
    # W against the lattice of every other family on as many vertices,
    # and of its own relation with vertices 1 and 2 swapped
    others = [other for other, (b, _) in ORACLE_FAMILIES.items()
              if other != name and b().n_vertices == rel.n_vertices]
    for other in others:
        assert_agrees(W, build_maxbiclique_lattice(ORACLE_FAMILIES[other][0]()), other)
    swap = [2, 1, *range(3, rel.n_vertices + 1)]
    assert_agrees(W, build_maxbiclique_lattice(relabelled(rel, swap)), "swapped")


@pytest.mark.parametrize("seed, n", [(0, 7), (1, 8), (2, 9), (0, 10)])
def test_oracle_agrees_on_sphere_hulls(seed, n):
    lat = build_maxbiclique_lattice(sphere_hull(seed, n))
    W = sphere_points(seed, n).T
    for variant, X in oracle_variants(W, np.random.default_rng([seed, n])).items():
        assert_agrees(X, lat, variant)


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
