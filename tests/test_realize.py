"""Filled matrices, SVD realizations, conversions, verdicts, LP oracle."""

import sys

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
    RankAnomalyError,
    RankMismatchError,
    ZeroMatrixError,
)
from polyrealize import gale_dual_polytope, numkernel
from polyrealize import realize as realize_module
from polyrealize.complete import CompletionProblem, initialize_factors
from polyrealize.numkernel import LP_TOL, dehomogenize, lp_strict_feasibility, numeric_rank
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
from oracles import (
    elements,
    exact_edge_margin,
    grunbaum_oracle_by_subsets,
    simplex_strict_feasibility,
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


def certificate(rel, W) -> np.ndarray:
    """M = H.T @ W, with h_i solving <h_i, w_j> = 1 on facet i's vertices."""
    H = np.column_stack([np.linalg.lstsq(W[:, on].T, np.ones(on.sum()), rcond=None)[0]
                         for on in rel.mask])
    return H.T @ W


def gon_vertices(n):
    theta = 2 * np.pi * np.arange(n) / n
    return np.vstack([np.cos(theta), np.sin(theta)])


def cube_vertices(d):
    return np.array([[1.0 if (v >> k) & 1 else -1.0 for v in range(2**d)] for k in range(d)])


def cross_vertices(d):
    return np.kron(np.eye(d), [1.0, -1.0])


def simplex_vertices(d):
    return np.hstack([np.eye(d), -np.ones((d, 1))])


def prism_vertices():
    ring = gon_vertices(3)
    return np.vstack([np.hstack([ring, ring]), np.repeat([1.0, -1.0], 3)])


MEMO_FAMILIES = {
    "gon-5": (lambda: ngon(5), lambda: gon_vertices(5), 2),
    "gon-64": (lambda: ngon(64), lambda: gon_vertices(64), 2),
    "simplex-4": (lambda: simplex(4), lambda: simplex_vertices(4), 4),
    "cube-3": (lambda: cube(3), lambda: cube_vertices(3), 3),
    "cube-5": (lambda: cube(5), lambda: cube_vertices(5), 5),
    "cross-4": (lambda: cross_polytope(4), lambda: cross_vertices(4), 4),
    "prism": (triangular_prism, prism_vertices, 3),
    "hull-0-9": (lambda: sphere_hull(0, 9), lambda: sphere_points(0, 9).T, 3),
    "hull-3-16": (lambda: sphere_hull(3, 16), lambda: sphere_points(3, 16).T, 3),
}


def memo_family(name):
    build, vertices, d = MEMO_FAMILIES[name]
    rel = build()
    return rel, certificate(rel, vertices()), d


def counting_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestSingularValueMemo:
    RANK_TOLS = (1e-9, 1e-6, 1e-12)

    @pytest.mark.parametrize("name", ["gon-64", "cube-5", "hull-3-16"])
    def test_realization_and_both_conversions_take_one_svd_per_matrix(self, monkeypatch, name):
        # gon-64's 64 x 64 cone and rescaled matrices are ranked by the
        # pivoted pass; cube-5 (10 x 32) and hull-3-16 are too small for it
        svds = {"gon-64": 1, "cube-5": 3, "hull-3-16": 3}[name]
        rel, M, d = memo_family(name)
        fim = FilledIncidenceMatrix(M, rel, 1.0)
        calls = counting_svds(monkeypatch)
        realize_from_matrix(fim, d)
        cone = polytope_to_cone_matrix(fim)
        back = cone_to_polytope_matrix(cone)
        assert len(calls) == svds
        assert (fim.rank(), cone.rank(), back.rank()) == (d, d + 1, d)
        assert len(calls) == svds

    def test_gon_256_check_path_takes_two_svds(self, monkeypatch):
        # the check workload's steps: the ranks of M, of the cone and of
        # the rescaled matrix come from the pivoted pass; the realization
        # and the Gale dual need their singular vectors
        rel = ngon(256)
        fim = FilledIncidenceMatrix(certificate(rel, gon_vertices(256)), rel, 1.0)
        calls = counting_svds(monkeypatch)
        assert numeric_rank(fim.matrix) == 2 and calls == []
        realize_from_matrix(fim, 2)
        assert calls == [(256, 256)]
        cone = polytope_to_cone_matrix(fim)
        back = cone_to_polytope_matrix(cone)
        assert (cone.rank(), back.rank()) == (3, 2) and len(calls) == 1
        gale_dual_polytope(fim.matrix)
        assert calls == [(256, 256)] * 2

    @pytest.mark.parametrize("name", ["gon-64", "cube-5"])
    def test_each_tolerance_is_decided_once(self, monkeypatch, name):
        # the realization keeps its SVD's rank at the default tolerance; a
        # second tolerance takes one decision, kept beside the first
        rel, M, d = memo_family(name)
        fim = FilledIncidenceMatrix(M, rel, 1.0)
        realize_from_matrix(fim, d)
        decided, original = [], realize_module.numeric_rank

        def counted(A, rank_tol):
            decided.append(rank_tol)
            return original(A, rank_tol)

        monkeypatch.setattr(realize_module, "numeric_rank", counted)
        assert fim.rank() == d and decided == []
        assert fim.rank(1e-6) == d and decided == [1e-6]
        assert fim.rank(1e-6) == fim.rank() == d and decided == [1e-6]

    @pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
    def test_memo_rank_is_numeric_rank(self, name):
        rel, M, d = memo_family(name)
        rng = np.random.default_rng(sorted(MEMO_FAMILIES).index(name))
        cone = polytope_to_cone_matrix(FilledIncidenceMatrix(M, rel, 1.0))
        D1 = 10 ** rng.uniform(-2, 2, cone.matrix.shape[0])
        D2 = 10 ** rng.uniform(-2, 2, cone.matrix.shape[1])
        scaled = D1[:, None] * cone.matrix * D2
        exact = [(M, 1.0), (cone.matrix, 0.0), (scaled, 0.0), (dehomogenize(scaled), 1.0)]
        near = [(M + eps * rng.standard_normal(M.shape), 1.0) for eps in (1e-14, 1e-10, 1e-7, 1e-4)]
        for A, fill in exact + near:
            # the values-only SVD of rank, and the compact SVD of a realization
            fresh = FilledIncidenceMatrix(A, rel, fill, 1e-3)
            realized = FilledIncidenceMatrix(A, rel, fill, 1e-3)
            realize_from_matrix(realized, numeric_rank(A) - (fill == 0.0))
            for tol in self.RANK_TOLS:
                assert fresh.rank(tol) == realized.rank(tol) == numeric_rank(A, tol)
        for A, fill in exact:
            fim = FilledIncidenceMatrix(A, rel, fill)
            converted = polytope_to_cone_matrix(fim) if fill == 1.0 else cone_to_polytope_matrix(fim)
            for tol in self.RANK_TOLS:
                assert converted.rank(tol) == numeric_rank(converted.matrix, tol)

    def test_source_array_is_copied_and_matrix_stays_read_only(self):
        rel, M, d = memo_family("cube-3")
        source = M.copy()
        fim = FilledIncidenceMatrix(source, rel, 1.0)
        source[:] = 0.0
        np.testing.assert_array_equal(fim.matrix, M)
        assert fim.rank() == d
        source[:] = 1.0
        assert fim.rank() == d and fim.rank(1e-12) == d
        np.testing.assert_array_equal(fim.matrix, M)
        cone = polytope_to_cone_matrix(fim)
        for matrix in (fim.matrix, cone.matrix):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    def test_zero_matrix_has_rank_zero_and_no_realization(self):
        rel = IncidenceRelation.from_pairs(2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
        fim = FilledIncidenceMatrix(np.zeros((2, 3)), rel, 0.0)
        with pytest.raises(ZeroMatrixError, match="compact SVD of the zero matrix is undefined"):
            realize_from_matrix(fim, 1)
        assert fim.rank() == numeric_rank(fim.matrix) == 0

    def test_rank_errors_keep_their_texts(self, pyramid):
        fim = FilledIncidenceMatrix(PYRAMID_MATRIX, pyramid, 1.0)
        with pytest.raises(RankMismatchError, match=r"^matrix has numeric rank 3, expected 2$"):
            realize_from_matrix(fim, 2)
        rel = IncidenceRelation.from_pairs(2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
        ones = FilledIncidenceMatrix(np.ones((2, 3)), rel, 1.0)
        with pytest.raises(RankAnomalyError,
                           match=r"^subtracting ones changed rank 1 to 0, expected 2$"):
            polytope_to_cone_matrix(ones)

    def test_rank_anomaly_comes_before_the_pattern_check(self):
        # at rank_tol 0.3 this cone counts rank 2 and its rescaling rank
        # 2 too, and the rescaled off entries come within 0.5 of 1
        rel = ngon(5)
        N = np.array([[0.0, 0.0, -0.6, -0.6, -37.2], [-63.0, 0.0, 0.0, -8.9, -70.9],
                      [-37.7, -0.6, 0.0, 0.0, -23.9], [-1.3, -48.5, -8.8, 0.0, 0.0],
                      [0.0, -1.0, -17.5, -15.4, 0.0]])
        fim = FilledIncidenceMatrix(N, rel, 0.0, slack_tol=0.5)
        assert not check_filled_incidence(dehomogenize(N), rel, 1.0, slack_tol=0.5).ok
        with pytest.raises(RankAnomalyError, match=r"^rescaled matrix has rank 2, expected 1$"):
            cone_to_polytope_matrix(fim, rank_tol=0.3)


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
        assert frozenset({1, 2}) not in {frozenset(el.vertex_set) for el in elements(lat)}
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

    def test_segment_with_a_vertex_at_the_origin_fails(self):
        # no h has <h, 0> = 1, so the facet at the origin has no supporting h,
        # whatever rounding residue the hyperplane's constant term carries
        lat = build_maxbiclique_lattice(IncidenceRelation.from_pairs(2, 2, [(1, 1), (2, 2)]))
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(1000) * 10.0 ** rng.uniform(-3, 3, 1000):
            assert not grunbaum_oracle([[0.0, x]], lat)
            assert not grunbaum_oracle([[x, 0.0]], lat)


@pytest.mark.parametrize("build, d", [(lambda: cube(4), 4), (lambda: cross_polytope(4), 4),
                                      (lambda: ngon(12), 2)], ids=["cube-4", "cross-4", "gon-12"])
def test_oracle_solves_one_lp_per_coatom(monkeypatch, build, d):
    # counted the way the benchmark's numkernel.lp_calls metric counts:
    # wrapped in every library module that looks the function up
    calls = []
    original = numkernel.lp_strict_feasibility

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polyrealize.") and \
                getattr(mod, "lp_strict_feasibility", None) is original:
            monkeypatch.setattr(mod, "lp_strict_feasibility", counted)
    rel = build()
    lat = build_maxbiclique_lattice(rel)
    assert grunbaum_oracle(realizability_check(rel, d).realization.W, lat)
    assert len(calls) == rel.n_facets == lat.ranks.count(lat.rank - 1)


@pytest.mark.parametrize("build, d", [(lambda: cube(4), 4), (lambda: cross_polytope(4), 4),
                                      (lambda: ngon(12), 2)], ids=["cube-4", "cross-4", "gon-12"])
def test_oracle_takes_one_lifted_svd(monkeypatch, build, d):
    # the facet LPs share one SVD of [W; 1], and each value equals the
    # one the LP gets from taking that SVD itself
    rel = build()
    lat = build_maxbiclique_lattice(rel)
    W = realizability_check(rel, d).realization.W
    lifted = np.vstack([W, np.ones(rel.n_vertices)])
    lps, svds = [], []
    original, svd = lp_strict_feasibility, np.linalg.svd

    def recorded(*args):
        lps.append(args)
        return original(*args)

    def counted(a, *args, **kwargs):
        svds.append(np.array_equal(a, lifted))
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(realize_module, "lp_strict_feasibility", recorded)
        patch.setattr(np.linalg, "svd", counted)
        assert grunbaum_oracle(W, lat)
    assert sum(svds) == 1
    assert len(lps) == rel.n_facets
    assert all(original(*args) == original(*args[:2]) for args in lps)


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


def facet_variants(W, rng) -> dict:
    """oracle_variants, W embedded in d+2 dimensions with the origin on
    or off its affine hull, and W scaled by 1e6 and by 1e-6."""
    out = oracle_variants(W, rng)
    d = len(W)
    Q, _ = np.linalg.qr(rng.standard_normal((d + 2, d + 1)))
    out["embedded-origin-on"] = Q[:, :d] @ W
    out["embedded-origin-off"] = Q @ np.vstack([W, np.ones(W.shape[1])])
    out["scaled-1e6"] = 1e6 * W
    out["scaled-1e-6"] = 1e-6 * W
    return out


def assert_facet_lps_agree(W, lat, label):
    """The closed-form LP of every coatom against the reference simplex,
    whose margin is capped at 1e6: the same verdict, the same margin."""
    ids = np.arange(1, W.shape[1] + 1)
    for el, r in zip(elements(lat), lat.ranks):
        if r != lat.rank - 1:
            continue
        on = np.isin(ids, el.vertex_set)
        t = lp_strict_feasibility(W, on)
        ref = simplex_strict_feasibility([(w, 1.0) for w in W.T[on]],
                                         [(w, 1.0) for w in W.T[~on]], dim=len(W))
        where = (label, el.vertex_set, t, ref.margin)
        assert (t > LP_TOL) == ref.feasible, where
        if np.isfinite(t) and np.isfinite(ref.margin):
            assert min(t, 1e6) == pytest.approx(ref.margin, rel=1e-6, abs=LP_TOL), where


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_facet_lp_matches_the_simplex(name):
    build, d = ORACLE_FAMILIES[name]
    rel = build()
    lat = build_maxbiclique_lattice(rel)
    W = realizability_check(rel, d).realization.W
    for variant, X in facet_variants(W, np.random.default_rng(sum(map(ord, name)))).items():
        assert_facet_lps_agree(X, lat, variant)


@pytest.mark.parametrize("seed, n", [(0, 7), (1, 8), (2, 9), (0, 10), (3, 30)])
def test_facet_lp_matches_the_simplex_on_sphere_hulls(seed, n):
    lat = build_maxbiclique_lattice(sphere_hull(seed, n))
    W = sphere_points(seed, n).T
    for variant, X in facet_variants(W, np.random.default_rng([seed, n])).items():
        assert_facet_lps_agree(X, lat, variant)


def assert_stacked_ranks_match(monkeypatch, W, lat, rng):
    """Each rank the oracle reads from a stack is numeric_rank of that
    matrix, and with the rank test passing the stacks hold exactly the
    lifted matrices [W_x; 1] of the nonempty elements."""
    calls = []

    def recorded(stack, *args):
        ranks = numkernel.numeric_ranks(stack, *args)
        calls.append((stack, ranks))
        return ranks

    monkeypatch.setattr(realize_module, "numeric_ranks", recorded)
    for variant, X in facet_variants(W, rng).items():
        calls.clear()
        grunbaum_oracle(X, lat)
        for stack, ranks in calls:
            assert ranks.tolist() == [numeric_rank(M) for M in stack], variant
        if variant == "as-is":
            lifted = np.vstack([X, np.ones(X.shape[1])])
            got = sorted(M.tobytes() for stack, _ in calls for M in stack)
            want = sorted(np.ascontiguousarray(lifted[:, [j - 1 for j in el.vertex_set]])
                          .tobytes() for el in elements(lat) if el.vertex_set)
            assert got == want


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_oracle_stacked_ranks_match_numeric_rank(monkeypatch, name):
    build, d = ORACLE_FAMILIES[name]
    rel = build()
    lat = build_maxbiclique_lattice(rel)
    W = realizability_check(rel, d).realization.W
    assert_stacked_ranks_match(monkeypatch, W, lat, np.random.default_rng(sum(map(ord, name))))


@pytest.mark.parametrize("seed, n", [(0, 7), (1, 8), (2, 9), (0, 10), (3, 30)])
def test_oracle_stacked_ranks_match_numeric_rank_on_sphere_hulls(monkeypatch, seed, n):
    lat = build_maxbiclique_lattice(sphere_hull(seed, n))
    assert_stacked_ranks_match(monkeypatch, sphere_points(seed, n).T, lat,
                               np.random.default_rng([seed, n]))


def test_facet_lp_on_polygons_spanning_sixteen_orders_of_magnitude():
    # the facet's rank is that of [W; 1][:, on], as in the oracle's rank
    # test, so the oracle gives a verdict on every such polygon.  Where
    # [W; 1] has full numeric rank, each edge whose equations are well
    # conditioned has the exact margin's sign
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        W = np.vstack([np.cos(angles), np.sin(angles)]) * 10 ** rng.uniform(-8, 8, n)
        lat = build_maxbiclique_lattice(ngon(n))
        grunbaum_oracle(W, lat)
        if numeric_rank(np.vstack([W, np.ones(n)])) < 3:
            continue
        for i in range(n):
            j = (i + 1) % n
            if np.linalg.cond(W[:, [i, j]]) > 1e6:
                continue
            exact = exact_edge_margin(W, i, j)
            if abs(exact) < 1e-6:
                continue
            on = np.isin(np.arange(n), [i, j])
            assert (lp_strict_feasibility(W, on) > 0) == (exact > 0), (W, i, j)
            checked += 1
    assert checked > 1000


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
