"""Gramian condition verification and the cone construction."""

import numpy as np
import pytest

from polyrealize import (
    BilinearForm,
    FilledIncidenceMatrix,
    GramianCandidate,
    IncidenceRelation,
    block_gramian,
    build_maxbiclique_lattice,
    check_filled_incidence,
    compact_svd,
    enumerate_super_cycles,
    flag_graph_bipartition,
    gramian_of_cone,
    polytope_to_cone_matrix,
    realizability_check,
    realize_cone_from_gramian,
    realize_from_matrix,
    verify_gramian_conditions,
    verify_hyperbolic_conditions,
    verify_spherical_conditions,
)
from polyrealize.errors import (
    DimensionMismatchError,
    LightlikeNormalError,
    PatternViolationError,
    SignatureMismatchError,
)
from polyrealize.numkernel import factor_against_form, numeric_rank

from conftest import (
    PYRAMID_MATRIX,
    cross_polytope,
    cube,
    ngon,
    octant_relation,
    pyramid_relation,
    simplex,
    sphere_hull,
    sphere_points,
    triangular_prism,
)
from oracles import (
    column_cosines,
    cone_by_hodge_star,
    distinct_vertex_pairs_by_definition,
    elements,
    super_cycle_pairs_by_definition,
    super_cycles_by_walk,
    vertex_minor_failures_one_at_a_time,
)

IDEAL_TRIANGLE_RELATION = lambda: __import__("conftest").ngon(3)


def octant_candidate():
    return GramianCandidate(
        np.eye(3), BilinearForm.euclidean(3), octant_relation(), 2
    )


def pyramid_cone_candidate():
    """Gramian of the cone over the Figure-style pyramid, via its facet-ray matrix."""
    rel = pyramid_relation()
    N = PYRAMID_MATRIX - 1.0
    fim = FilledIncidenceMatrix(N, rel, 0.0)
    cone = realize_from_matrix(fim, 3)
    form = BilinearForm.euclidean(4)
    G = gramian_of_cone(cone.H, form)
    return GramianCandidate(G, form, rel, 3)


class TestCandidateValidation:
    def test_bad_diagonal_rejected(self, octant):
        G = np.eye(3)
        G[0, 0] = 0.5
        with pytest.raises(ValueError):
            GramianCandidate(G, BilinearForm.euclidean(3), octant, 2)

    def test_asymmetric_rejected(self, octant):
        G = np.eye(3)
        G[0, 1] = 0.3
        with pytest.raises(ValueError):
            GramianCandidate(G, BilinearForm.euclidean(3), octant, 2)

    def test_form_of_the_wrong_size_rejected(self, octant):
        with pytest.raises(DimensionMismatchError, match=r"form size 4 does not match d \+ 1 = 3"):
            GramianCandidate(np.eye(3), BilinearForm.euclidean(4), octant, 2)


@pytest.mark.parametrize("verify", [
    lambda rel, G: verify_gramian_conditions(
        GramianCandidate(G, BilinearForm.euclidean(3), rel, 2)),
    lambda rel, G: verify_spherical_conditions(rel, G, 2),
    lambda rel, G: verify_hyperbolic_conditions(rel, [], G, 2),
], ids=["general", "spherical", "hyperbolic"])
def test_asymmetric_gramian_rejected_by_every_verifier(octant, verify):
    # no verifier symmetrizes a matrix that is not a Gramian
    G = np.eye(3)
    G[0, 1], G[1, 0] = 0.3, -0.3
    with pytest.raises(ValueError, match="gramian is not symmetric"):
        verify(octant, G)


class TestVerifyGramianConditions:
    def test_octant_passes(self):
        report = verify_gramian_conditions(octant_candidate())
        assert report.passed
        assert report.check("super-cycle-pairs").passed
        assert "exhaustive" in report.check("super-cycle-pairs").detail

    def test_duplicate_normal_fails_vertex_rank(self, octant):
        G = np.eye(3)
        G[0, 1] = G[1, 0] = 1.0  # facets 1 and 2 share a normal
        cand = GramianCandidate(G, BilinearForm.euclidean(3), octant, 2)
        report = verify_gramian_conditions(cand)
        assert not report.passed
        assert not report.check("vertex-minor-rank").passed
        assert "vertex 3" in report.check("vertex-minor-rank").detail

    def test_signature_mismatch_fails(self, octant):
        cand = GramianCandidate(np.eye(3), BilinearForm.hyperbolic(3), octant, 2)
        report = verify_gramian_conditions(cand)
        assert not report.passed
        assert not report.check("signature").passed
        with pytest.raises(SignatureMismatchError):
            factor_against_form(np.eye(3), BilinearForm.hyperbolic(3))

    def test_pyramid_candidate_passes(self):
        report = verify_gramian_conditions(pyramid_cone_candidate())
        assert report.passed

    def test_flag_cap_propagates(self):
        from polyrealize.errors import FlagCapExceededError

        with pytest.raises(FlagCapExceededError):
            verify_gramian_conditions(pyramid_cone_candidate(), flag_cap=5)

    @pytest.mark.parametrize("make", [pyramid_relation, lambda: cross_polytope(4),
                                      lambda: cross_polytope(5), lambda: cube(5)],
                             ids=["pyramid", "cross-4", "cross-5", "cube-5"])
    def test_cycle_count_is_the_table_length(self, make):
        from polyrealize.incidence import _count_cycles, _cycle_table

        lat = build_maxbiclique_lattice(make())
        assert _count_cycles(lat) == len(_cycle_table(lat).facets)

    def test_flag_cap_bounds_the_cycles(self):
        """cross-6 has 46,080 flags but 47,185,920 cycles: the verifiers
        raise at the default cap before walking them."""
        import time

        from polyrealize.errors import FlagCapExceededError
        from polyrealize.incidence import count_flags

        rel = cross_polytope(6)
        assert count_flags(build_maxbiclique_lattice(rel)) == 46080
        start = time.process_time()
        with pytest.raises(FlagCapExceededError,
                           match="lattice has 47185920 cycles, exceeding the cap of 1000000"):
            verify_spherical_conditions(rel, np.eye(64), 6)
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("builder,d", [("triangular_prism", 3), ("cube", 3),
                                           ("cross_polytope", 3), ("ngon", 2)])
    def test_realized_cones_round_trip(self, builder, d):
        import conftest
        from polyrealize import polytope_to_cone_matrix, realizability_check

        make = getattr(conftest, builder)
        rel = make(6) if builder == "ngon" else (make(3) if builder != "triangular_prism" else make())
        verdict = realizability_check(rel, d)
        N = polytope_to_cone_matrix(verdict.matrix)
        form = BilinearForm.euclidean(d + 1)
        G = gramian_of_cone(realize_from_matrix(N, d).H, form)
        cand = GramianCandidate(G, form, rel, d)
        assert verify_gramian_conditions(cand).passed
        cone = realize_cone_from_gramian(cand)
        assert np.abs(gramian_of_cone(cone.H, form) - G).max() < 1e-8
        assert verify_spherical_conditions(rel, G, d).passed


class TestRealizeConeFromGramian:
    def test_octant_is_negative_orthant(self):
        cone = realize_cone_from_gramian(octant_candidate())
        np.testing.assert_allclose(cone.N.matrix, -np.eye(3), atol=1e-12)
        assert numeric_rank(cone.N.matrix) == 3

    def test_cone_keeps_the_rank_it_was_checked_with(self, monkeypatch):
        cand = pyramid_cone_candidate()
        cone = realize_cone_from_gramian(cand)

        def forbidden(*args, **kwargs):
            raise AssertionError("the cone's rank was already computed")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        assert cone.N.rank() == 4

    def test_octant_gramian_round_trip(self):
        cand = octant_candidate()
        cone = realize_cone_from_gramian(cand)
        G = gramian_of_cone(cone.H, cand.form)
        assert np.abs(G - cand.G).max() < 1e-8

    def test_pyramid_round_trip(self):
        cand = pyramid_cone_candidate()
        cone = realize_cone_from_gramian(cand)
        assert check_filled_incidence(
            cone.N.matrix, cand.relation, 0.0, eq_tol=1e-9 * np.abs(cone.N.matrix).max()
        ).ok
        assert numeric_rank(cone.N.matrix) == 4
        G = gramian_of_cone(cone.H, cand.form)
        assert np.abs(G - cand.G).max() < 1e-8

    def test_generator_normal_orthogonality(self):
        cand = pyramid_cone_candidate()
        cone = realize_cone_from_gramian(cand)
        lat = build_maxbiclique_lattice(cand.relation)
        cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)
        for j, sc in cycles.items():
            for i in sc.facet_sequence[:-1]:
                val = cone.H[:, i - 1] @ cand.form.phi @ cone.W[:, j - 1]
                assert abs(val) < 1e-10

    def test_sign_coherence(self):
        cand = pyramid_cone_candidate()
        cone = realize_cone_from_gramian(cand)
        nonzero = cone.N.matrix[np.abs(cone.N.matrix) > 1e-9]
        assert np.all(nonzero < 0)

    def test_invalid_candidate_never_silently_realizes(self, octant):
        # breaks the orientation determinant condition while keeping the
        # signature and diagonals plausible
        G = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, -0.9], [0.9, -0.9, 1.0]])
        try:
            cand = GramianCandidate(G, BilinearForm.euclidean(3), octant, 2)
        except ValueError:
            return
        report = verify_gramian_conditions(cand)
        if report.passed:
            cone = realize_cone_from_gramian(cand)
            assert check_filled_incidence(cone.N.matrix, octant, 0.0).ok
        else:
            with pytest.raises((PatternViolationError, SignatureMismatchError)):
                realize_cone_from_gramian(cand)


class TestGramianOfCone:
    def test_identity(self):
        G = gramian_of_cone(np.eye(3), BilinearForm.euclidean(3))
        np.testing.assert_allclose(G, np.eye(3), atol=1e-14)

    def test_duplicate_column(self):
        H = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).T  # h1 = h2
        H = np.column_stack([H[:, 0], H[:, 0], H[:, 1]])
        G = gramian_of_cone(H, BilinearForm.euclidean(3))
        assert G[0, 1] == pytest.approx(1.0)

    def test_negative_norm_diagonal(self):
        form = BilinearForm.hyperbolic(3)
        H = np.array([[0.0], [0.0], [1.0]])
        G = gramian_of_cone(H, form)
        assert G[0, 0] == pytest.approx(-1.0)

    def test_lightlike_rejected(self):
        form = BilinearForm.hyperbolic(3)
        H = np.array([[1.0], [0.0], [1.0]])
        with pytest.raises(LightlikeNormalError):
            gramian_of_cone(H, form)

    def test_rescales_to_unit(self):
        form = BilinearForm.euclidean(3)
        H = 3.7 * np.eye(3)
        np.testing.assert_allclose(gramian_of_cone(H, form), np.eye(3), atol=1e-12)


class TestSpherical:
    def test_octant_sphere_triangle(self, octant):
        report = verify_spherical_conditions(octant, np.eye(3), 2)
        assert report.passed

    def test_rank_failure(self, octant):
        G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        report = verify_spherical_conditions(octant, G, 2)
        assert not report.passed
        assert not report.check("rank").passed

    def test_diagonal_failure(self, octant):
        G = np.diag([1.0, 1.0, -1.0])
        report = verify_spherical_conditions(octant, G, 2)
        assert not report.passed
        assert not report.check("diagonal").passed


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 3)], ids=["small", "large", "non-square"])
@pytest.mark.parametrize("verify", [
    lambda rel, G: verify_spherical_conditions(rel, G, 2),
    lambda rel, G: verify_hyperbolic_conditions(rel, [], G, 2),
    lambda rel, G: GramianCandidate(G, BilinearForm.euclidean(3), rel, 2),
], ids=["spherical", "hyperbolic", "candidate"])
def test_gramian_shape_must_match_the_facets(verify, shape):
    # the square has 4 facets: any G but a 4 x 4 one is an input error,
    # not an IndexError, a broadcast failure or a verdict on 5 eigenvalues
    G = np.eye(*shape)
    with pytest.raises(DimensionMismatchError, match=rf"gramian shape \({shape[0]}, {shape[1]}\) "
                                                      r"does not match 4 facets"):
        verify(ngon(4), G)


def _ideal_octahedron():
    """The ideal regular octahedron: vertices (+-e_i, 1), all six ideal, and
    one facet normal (s_1, s_2, s_3, 1) per sign triple."""
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    H = np.array([[s1, s2, s3, 1.0] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]).T
    rel = IncidenceRelation.from_pairs(8, 6, [
        (i + 1, j + 1) for i in range(8) for j in range(6)
        if np.isclose(H[:3, i] @ vertices[j], 1.0)])
    return rel, range(1, 7), gramian_of_cone(H, BilinearForm.hyperbolic(4))


class TestHyperbolic:
    def ideal_triangle(self):
        rel = IDEAL_TRIANGLE_RELATION()
        G = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        return rel, G

    def test_ideal_triangle_passes(self):
        rel, G = self.ideal_triangle()
        report = verify_hyperbolic_conditions(rel, [1, 2, 3], G, 2)
        assert report.passed
        assert report.check("truncated-cycles").passed

    def test_partially_ideal_triangle(self):
        rel, G = self.ideal_triangle()
        G = G.copy()
        G[0, 1] = G[1, 0] = -0.5
        lat = build_maxbiclique_lattice(rel)
        vertex = next(
            el.vertex_set[0]
            for el in elements(lat)
            if el.facet_set == (1, 2) and len(el.vertex_set) == 1
        )
        ideal = [j for j in (1, 2, 3) if j != vertex]
        report = verify_hyperbolic_conditions(rel, ideal, G, 2)
        assert report.passed

    def test_false_ideal_claim_reported(self):
        rel, G = self.ideal_triangle()
        G = G.copy()
        G[0, 1] = G[1, 0] = -0.5
        report = verify_hyperbolic_conditions(rel, [1, 2, 3], G, 2)
        assert not report.passed
        assert not report.check("truncated-cycles").passed
        assert "ideal vertex" in report.check("truncated-cycles").detail

    def test_super_cycle_pairs_negative(self):
        rel, G = self.ideal_triangle()
        report = verify_hyperbolic_conditions(rel, [1, 2, 3], G, 2)
        assert report.check("super-cycle-pairs").passed
        assert report.check("distinct-vertex-pairs").passed

    def test_ideal_vertices_validated(self):
        rel, G = self.ideal_triangle()
        with pytest.raises(ValueError):
            verify_hyperbolic_conditions(rel, [7], G, 2)

    @pytest.mark.parametrize("vertex", [1.5, True, "2"], ids=["float", "bool", "str"])
    def test_non_integer_ideal_vertex_rejected(self, vertex):
        rel, G = self.ideal_triangle()
        with pytest.raises(ValueError, match=f"ideal vertex {vertex!r} is not an integer"):
            verify_hyperbolic_conditions(rel, [vertex], G, 2)

    def test_numpy_integer_ideal_vertices_accepted(self):
        rel, G = self.ideal_triangle()
        assert verify_hyperbolic_conditions(rel, np.arange(1, 4), G, 2).passed

    def test_right_angled_pentagon(self):
        # regular compact right-angled pentagon: adjacent normals
        # orthogonal, non-adjacent products -golden ratio; Lorentzian of
        # rank 3 with two zero eigenvalues
        from polyrealize import signature
        from conftest import ngon

        phi = (1 + np.sqrt(5)) / 2
        G = np.eye(5)
        for i in range(5):
            for j in range(5):
                if i != j and abs(i - j) % 5 not in (1, 4):
                    G[i, j] = -phi
        assert signature(G) == (2, 1, 2)
        report = verify_hyperbolic_conditions(ngon(5), [], G, 2)
        assert report.passed

    def test_compact_equilateral_triangle(self):
        # all dihedral angles pi/4; angle sum below pi forces a
        # hyperbolic realization
        from conftest import ngon

        c = -np.cos(np.pi / 4)
        G = np.array([[1.0, c, c], [c, 1.0, c], [c, c, 1.0]])
        report = verify_hyperbolic_conditions(ngon(3), [], G, 2)
        assert report.passed

    def test_ideal_regular_octahedron(self):
        rel, ideal, G = _ideal_octahedron()
        assert verify_hyperbolic_conditions(rel, ideal, G, 3).passed
        flipped = verify_hyperbolic_conditions(rel, ideal, _flip_first_normal(G), 3)
        assert not flipped.check("super-cycle-pairs").passed
        assert not flipped.check("distinct-vertex-pairs").passed

    def test_spherical_gramian_fails_hyperbolic(self, octant):
        report = verify_hyperbolic_conditions(octant, [], np.eye(3), 2)
        assert not report.passed
        assert not report.check("signature").passed


def _cube_gramian(d):
    """Cone over [-1, 1]^d: facet 2k+1 has normal (e_k, -1), facet 2k+2 (-e_k, -1)."""
    H = np.zeros((d + 1, 2 * d))
    for k in range(d):
        H[k, 2 * k], H[k, 2 * k + 1] = 1.0, -1.0
    H[d] = -1.0
    return gramian_of_cone(H, BilinearForm.euclidean(d + 1))


def _ngon_gramian(n):
    """Cone over a regular n-gon: edge k has normal (cos t, sin t, -1), t = 2pi(k+1/2)/n."""
    t = 2 * np.pi * (np.arange(n) + 0.5) / n
    H = np.vstack([np.cos(t), np.sin(t), -np.ones(n)])
    return gramian_of_cone(H, BilinearForm.euclidean(3))


def _right_angled_pentagon():
    phi = (1 + np.sqrt(5)) / 2
    G = np.eye(5)
    for i in range(5):
        for j in range(5):
            if i != j and abs(i - j) % 5 not in (1, 4):
                G[i, j] = -phi
    return G


def _compact_triangle():
    c = -np.cos(np.pi / 4)
    return np.array([[1.0, c, c], [c, 1.0, c], [c, c, 1.0]])


def _flip_first_normal(G):
    """D G D with D = diag(-1, 1, ..., 1): same signature, diagonal and vertex ranks."""
    D = np.ones(len(G))
    D[0] = -1.0
    return G * np.outer(D, D)


# name: (relation, d, Gramian with its first normal flipped)
FLIPPED_EUCLIDEAN = {
    "cube-3": lambda: (cube(3), 3, _flip_first_normal(_cube_gramian(3))),
    "pyramid": lambda: (pyramid_relation(), 3,
                        _flip_first_normal(pyramid_cone_candidate().G)),
    "gon-8": lambda: (ngon(8), 2, _flip_first_normal(_ngon_gramian(8))),
}

# name: (relation, ideal vertices, Gramian)
FAILING_HYPERBOLIC = {
    "flipped-right-angled-pentagon": lambda: (
        ngon(5), [], _flip_first_normal(_right_angled_pentagon())),
    "flipped-compact-triangle": lambda: (
        ngon(3), [], _flip_first_normal(_compact_triangle())),
    "false-ideal-triangle": lambda: (
        ngon(3), [1, 2, 3],
        np.array([[1.0, -0.5, -1.0], [-0.5, 1.0, -1.0], [-1.0, -1.0, 1.0]])),
}

# pass flags captured before the pair determinants were batched, details
# with the pairs read from one factor of G (each super cycle against its
# class's first largest |det H|, one form value per distinct-vertex cycle
# pair); the spherical reports leave out the "psd" detail, a
# rounding-level eigenvalue
EXPECTED_EUCLIDEAN = {"cube-3": ({"conditions": {"diagonal": True,
                            "lattice": True,
                            "signature": True,
                            "super-cycle-pairs": False,
                            "vertex-minor-rank": True},
             "details": {"signature": "signature (4, 0, 2), expected (4, 0, 2)",
                         "super-cycle-pairs": "exhaustive, 288 pairs; cycles (2, 4, 6, 3) "
                                              "x (2, 4, 6, 1): det*sign = -0.25; cycles "
                                              "(2, 4, 6, 5) x (2, 4, 6, 1): det*sign = "
                                              "-0.25; cycles (2, 6, 4, 3) x (2, 6, 4, 1): "
                                              "det*sign = -0.25; cycles (2, 6, 4, 5) x (2, "
                                              "6, 4, 1): det*sign = -0.25; cycles (4, 2, "
                                              "6, 3) x (2, 6, 4, 1): det*sign = -0.25"},
             "passed": False},
            {"conditions": {"diagonal": True,
                            "lattice": True,
                            "psd": True,
                            "rank": True,
                            "super-cycle-pairs": False,
                            "vertex-minor-rank": True},
             "details": {"rank": "rank 4, expected 4",
                         "super-cycle-pairs": "exhaustive, 288 pairs; cycles (2, 4, 6, 3) "
                                              "x (2, 4, 6, 1): det*sign = -0.25; cycles "
                                              "(2, 4, 6, 5) x (2, 4, 6, 1): det*sign = "
                                              "-0.25; cycles (2, 6, 4, 3) x (2, 6, 4, 1): "
                                              "det*sign = -0.25; cycles (2, 6, 4, 5) x (2, "
                                              "6, 4, 1): det*sign = -0.25; cycles (4, 2, "
                                              "6, 3) x (2, 6, 4, 1): det*sign = -0.25"},
             "passed": False}),
 "gon-8": ({"conditions": {"diagonal": True,
                           "lattice": True,
                           "signature": True,
                           "super-cycle-pairs": False,
                           "vertex-minor-rank": True},
            "details": {"signature": "signature (3, 0, 5), expected (3, 0, 5)",
                        "super-cycle-pairs": "exhaustive, 192 pairs; cycles (2, 3, 4) x (8, "
                                             "1, 4): det*sign = -0.0732; cycles (2, 3, 5) x "
                                             "(8, 1, 4): det*sign = -0.177; cycles (2, 3, 6) "
                                             "x (8, 1, 4): det*sign = -0.25; cycles (2, 3, 7) "
                                             "x (8, 1, 4): det*sign = -0.25; cycles (2, 3, 8) "
                                             "x (8, 1, 4): det*sign = -0.177"},
            "passed": False},
           {"conditions": {"diagonal": True,
                           "lattice": True,
                           "psd": True,
                           "rank": True,
                           "super-cycle-pairs": False,
                           "vertex-minor-rank": True},
            "details": {"rank": "rank 3, expected 3",
                        "super-cycle-pairs": "exhaustive, 192 pairs; cycles (2, 3, 4) x (8, "
                                             "1, 4): det*sign = -0.0732; cycles (2, 3, 5) x "
                                             "(8, 1, 4): det*sign = -0.177; cycles (2, 3, 6) "
                                             "x (8, 1, 4): det*sign = -0.25; cycles (2, 3, 7) "
                                             "x (8, 1, 4): det*sign = -0.25; cycles (2, 3, 8) "
                                             "x (8, 1, 4): det*sign = -0.177"},
            "passed": False}),
 "pyramid": ({"conditions": {"diagonal": True,
                             "lattice": True,
                             "signature": True,
                             "super-cycle-pairs": False,
                             "vertex-minor-rank": True},
              "details": {"signature": "signature (4, 0, 1), expected (4, 0, 1)",
                          "super-cycle-pairs": "exhaustive, 128 pairs; cycles (2, 3, 5, 4) x "
                                               "(1, 5, 4, 2): det*sign = -0.569; cycles (2, 5, "
                                               "3, 4) x (1, 4, 5, 2): det*sign = -0.569; cycles "
                                               "(3, 2, 5, 4) x (1, 4, 5, 2): det*sign = -0.569; "
                                               "cycles (3, 5, 2, 4) x (1, 5, 4, 2): det*sign = "
                                               "-0.569; cycles (5, 2, 3, 4) x (1, 5, 4, 2): "
                                               "det*sign = -0.569"},
              "passed": False},
             {"conditions": {"diagonal": True,
                             "lattice": True,
                             "psd": True,
                             "rank": True,
                             "super-cycle-pairs": False,
                             "vertex-minor-rank": True},
              "details": {"rank": "rank 4, expected 4",
                          "super-cycle-pairs": "exhaustive, 128 pairs; cycles (2, 3, 5, 4) x "
                                               "(1, 5, 4, 2): det*sign = -0.569; cycles (2, 5, "
                                               "3, 4) x (1, 4, 5, 2): det*sign = -0.569; cycles "
                                               "(3, 2, 5, 4) x (1, 4, 5, 2): det*sign = -0.569; "
                                               "cycles (3, 5, 2, 4) x (1, 5, 4, 2): det*sign = "
                                               "-0.569; cycles (5, 2, 3, 4) x (1, 5, 4, 2): "
                                               "det*sign = -0.569"},
              "passed": False})}

EXPECTED_HYPERBOLIC = {"false-ideal-triangle": {"conditions": {"diagonal": True,
                                         "distinct-vertex-pairs": True,
                                         "lattice": True,
                                         "signature": True,
                                         "super-cycle-pairs": True,
                                         "truncated-cycles": False,
                                         "vertex-minor-rank": False},
                          "details": {"distinct-vertex-pairs": "exhaustive, 6 pairs",
                                      "signature": "signature (2, 1, 0), expected (2, 1, 0)",
                                      "super-cycle-pairs": "exhaustive, 12 pairs",
                                      "truncated-cycles": "facets (1, 2) at ideal vertex "
                                                          "2: det 0.75",
                                      "vertex-minor-rank": "vertex 2: rank 2, expected 1"},
                          "passed": False},
 "flipped-compact-triangle": {"conditions": {"diagonal": True,
                                             "distinct-vertex-pairs": False,
                                             "lattice": True,
                                             "signature": True,
                                             "super-cycle-pairs": True,
                                             "truncated-cycles": True,
                                             "vertex-minor-rank": True},
                              "details": {"distinct-vertex-pairs": "exhaustive, 6 pairs; "
                                                                   "cycles (1, 3) x (3, "
                                                                   "2): det -1.21; cycles "
                                                                   "(2, 1) x (3, 2): det "
                                                                   "-1.21; cycles (3, 1) x "
                                                                   "(2, 3): det -1.21; "
                                                                   "cycles (1, 2) x (2, "
                                                                   "3): det -1.21",
                                          "signature": "signature (2, 1, 0), expected "
                                                       "(2, 1, 0)",
                                          "super-cycle-pairs": "exhaustive, 12 pairs"},
                              "passed": False},
 "flipped-right-angled-pentagon": {"conditions": {"diagonal": True,
                                                  "distinct-vertex-pairs": False,
                                                  "lattice": True,
                                                  "signature": True,
                                                  "super-cycle-pairs": False,
                                                  "truncated-cycles": True,
                                                  "vertex-minor-rank": True},
                                   "details": {"distinct-vertex-pairs": "exhaustive, 20 "
                                                                        "pairs; cycles (1, "
                                                                        "5) x (3, 2): det "
                                                                        "-2.62; cycles (1, "
                                                                        "5) x (4, 3): det "
                                                                        "-2.62; cycles (1, "
                                                                        "5) x (5, 4): det "
                                                                        "-1.62; cycles (2, "
                                                                        "1) x (3, 2): det "
                                                                        "-1.62; cycles (2, "
                                                                        "1) x (4, 3): det "
                                                                        "-2.62",
                                               "signature": "signature (2, 1, 2), expected (2, 1, 2)",
                                               "super-cycle-pairs": "exhaustive, 60 "
                                                                    "pairs; cycles (2, 3, "
                                                                    "4) x (5, 1, 3): "
                                                                    "det*sign = -2.62; "
                                                                    "cycles (2, 3, 5) x "
                                                                    "(5, 1, 3): det*sign = "
                                                                    "-4.24; cycles (3, 2, "
                                                                    "4) x (1, 5, 3): "
                                                                    "det*sign = -2.62; "
                                                                    "cycles (3, 2, 5) x "
                                                                    "(1, 5, 3): det*sign = "
                                                                    "-4.24; cycles (3, 4, "
                                                                    "2) x (5, 1, 3): "
                                                                    "det*sign = -2.62"},
                                   "passed": False}}


class TestFailingDetails:
    """Failing reports pinned in full, pair details included."""

    @pytest.mark.parametrize("name", sorted(FLIPPED_EUCLIDEAN))
    def test_flipped_normal_fails_super_cycle_pairs(self, name):
        rel, d, G = FLIPPED_EUCLIDEAN[name]()
        cand = GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)
        general, spherical = EXPECTED_EUCLIDEAN[name]
        assert verify_gramian_conditions(cand).as_dict() == general
        report = verify_spherical_conditions(rel, G, d).as_dict()
        assert abs(float(report["details"].pop("psd").split()[-1])) < 1e-12
        assert report == spherical

    @pytest.mark.parametrize("name", sorted(FAILING_HYPERBOLIC))
    def test_hyperbolic_failures(self, name):
        rel, ideal, G = FAILING_HYPERBOLIC[name]()
        assert verify_hyperbolic_conditions(rel, ideal, G, 2).as_dict() == \
            EXPECTED_HYPERBOLIC[name]


# the six vertices (columns) of the benchmark's gramian-workload member
# hull6-0 at seed 8, and the vertices of each of its eight facets; its
# thinnest super cycle has |det H_a| / prod |h_i| about 9e-5
HULL6_VERTICES = np.array([
    [0.659589497040055, 0.8947672445218039, 0.41252289176644946,
     -0.12328598269277381, -0.6040093374680289, -0.6521904723375488],
    [-0.49212458004684173, -0.3979360164746421, -0.48216847512472033,
     0.26797240501781544, -0.1615549252736105, 0.4407018629795913],
    [-0.52411588513422, 0.05786248062696847, -0.6648897756973253,
     -1.0492860190315187, -0.9010249468785464, 0.6268798270073683],
])
HULL6_FACETS = [(2, 4, 6), (1, 2, 4), (4, 5, 6), (1, 2, 3),
                (2, 3, 6), (3, 5, 6), (1, 3, 4), (3, 4, 5)]


def test_thin_hull_gramian_passes():
    """A genuine Gramian whose super-cycle pair dets come within det_zero_tol."""
    rel = IncidenceRelation.from_pairs(
        8, 6, [(i, j) for i, facet in enumerate(HULL6_FACETS, 1) for j in facet])
    H = np.column_stack([np.linalg.solve(HULL6_VERTICES[:, np.array(f) - 1].T, np.ones(3))
                         for f in HULL6_FACETS])
    form = BilinearForm.euclidean(4)
    G = gramian_of_cone(np.vstack([H, -np.ones(8)]), form)
    assert verify_gramian_conditions(GramianCandidate(G, form, rel, 3)).passed
    assert verify_spherical_conditions(rel, G, 3).passed


def _family_gramian(rel, d):
    verdict = realizability_check(rel, d)
    N = polytope_to_cone_matrix(verdict.matrix)
    return gramian_of_cone(realize_from_matrix(N, d).H, BilinearForm.euclidean(d + 1))


# relations small enough for the one-determinant-per-pair oracle
ORACLE_FAMILIES = {
    "simplex-2": lambda: (simplex(2), 2), "simplex-3": lambda: (simplex(3), 3),
    "simplex-4": lambda: (simplex(4), 4), "square": lambda: (cube(2), 2),
    "cube-3": lambda: (cube(3), 3), "cross-3": lambda: (cross_polytope(3), 3),
    "gon-5": lambda: (ngon(5), 2), "gon-8": lambda: (ngon(8), 2),
    "prism": lambda: (triangular_prism(), 3), "pyramid": lambda: (pyramid_relation(), 3),
}


def _hull_gramian(seed, n):
    """Gramian of the cone over conftest.sphere_hull(seed, n) from the hull's
    own points, moved to put their mean at the origin: facet i has normal
    (h_i, -1), <h_i, p> = 1 on its vertices."""
    points, rel = sphere_points(seed, n), sphere_hull(seed, n)
    points = points - points.mean(axis=0)
    H = np.column_stack([
        np.linalg.solve(points[np.array(sorted(rel.vertices_of_facet(i))) - 1], np.ones(3))
        for i in range(1, rel.n_facets + 1)])
    return rel, 3, gramian_of_cone(np.vstack([H, -np.ones(rel.n_facets)]),
                                   BilinearForm.euclidean(4))


# seeded simplicial 3-polytopes at the zero test: hull8-0 and hull9-0 have
# super cycles with |det H_a| below 2e-4 (unit normals), which fail the
# pairwise oracle against themselves at det_zero_tol and pass the verifiers
HULL_GRAMIANS = {f"hull{n}-0": lambda n=n: _hull_gramian(0, n) for n in (7, 8, 9, 10)}


def _genuine_gramian(name):
    if name in HULL_GRAMIANS:
        return HULL_GRAMIANS[name]()
    rel, d = ORACLE_FAMILIES[name]()
    return rel, d, _family_gramian(rel, d)


def _assert_matches_pairwise(rel, G, d, det_factor, *reports):
    """super-cycle-pairs against the pairwise oracle where G has rank d+1."""
    checks = [report.check("super-cycle-pairs") for report in reports]
    if numeric_rank(G) != d + 1:
        assert all(not c.passed and c.detail.startswith("not decided") for c in checks)
        return
    lat = build_maxbiclique_lattice(rel)
    cycles = enumerate_super_cycles(lat, flag_graph_bipartition(lat))
    expected = super_cycle_pairs_by_definition(G, cycles, det_factor, 1e-8)
    assert all(c.passed == expected for c in checks)


def _assert_between_pairwise(rel, G, d, *reports):
    """super-cycle-pairs at the zero-test boundary, against the pairwise oracle.

    The verifiers test each super cycle a against its class's largest,
    det_factor * det G[a, ref] > det_zero_tol; the oracle tests every pair,
    a with itself included, so a super cycle with |det H_a| near
    sqrt(det_zero_tol) fails the oracle and passes the verifiers.  Their
    verdict lies between the oracle at det_zero_tol and the oracle on signs.
    """
    checks = [report.check("super-cycle-pairs") for report in reports]
    assert numeric_rank(G) == d + 1
    lat = build_maxbiclique_lattice(rel)
    cycles = enumerate_super_cycles(lat, flag_graph_bipartition(lat))
    strict = super_cycle_pairs_by_definition(G, cycles, 1.0, 1e-8)
    signs = super_cycle_pairs_by_definition(G, cycles, 1.0, 0.0)
    assert all(strict <= c.passed <= signs for c in checks)


def _assert_distinct_vertex_pairs_match(rel, ideal, G, d):
    """distinct-vertex-pairs over cycles against the oracle over super cycles."""
    check = verify_hyperbolic_conditions(rel, ideal, G, d).check("distinct-vertex-pairs")
    lat = build_maxbiclique_lattice(rel)
    cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat))
    assert check.passed == distinct_vertex_pairs_by_definition(G, cycles, 1e-8)


class TestSuperCycleReference:
    """One reference super cycle per class decides every same-orientation pair."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES) + sorted(HULL_GRAMIANS))
    def test_genuine_and_flipped(self, name):
        rel, d, genuine = _genuine_gramian(name)
        for G in (genuine, _flip_first_normal(genuine)):
            cand = GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)
            reports = verify_gramian_conditions(cand), verify_spherical_conditions(rel, G, d)
            if name in HULL_GRAMIANS:
                _assert_between_pairwise(rel, G, d, *reports)
            else:
                _assert_matches_pairwise(rel, G, d, 1.0, *reports)

    @pytest.mark.parametrize("name", sorted(FLIPPED_EUCLIDEAN))
    def test_flipped_euclidean(self, name):
        rel, d, G = FLIPPED_EUCLIDEAN[name]()
        cand = GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)
        _assert_matches_pairwise(rel, G, d, 1.0, verify_gramian_conditions(cand))

    @pytest.mark.parametrize("name", ["ideal-triangle", "right-angled-pentagon",
                                      "compact-triangle", "ideal-octahedron",
                                      "flipped-ideal-octahedron", *sorted(FAILING_HYPERBOLIC)])
    def test_hyperbolic(self, name):
        def flipped_octahedron():
            rel, ideal, G = _ideal_octahedron()
            return rel, ideal, _flip_first_normal(G)

        cases = {
            "ideal-triangle": lambda: (ngon(3), [1, 2, 3], np.array(
                [[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])),
            "right-angled-pentagon": lambda: (ngon(5), [], _right_angled_pentagon()),
            "compact-triangle": lambda: (ngon(3), [], _compact_triangle()),
            "ideal-octahedron": _ideal_octahedron,
            "flipped-ideal-octahedron": flipped_octahedron,
            **FAILING_HYPERBOLIC,
        }
        rel, ideal, G = cases[name]()
        d = build_maxbiclique_lattice(rel).rank - 1
        _assert_matches_pairwise(rel, G, d, -1.0, verify_hyperbolic_conditions(rel, ideal, G, d))
        _assert_distinct_vertex_pairs_match(rel, ideal, G, d)

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES) + sorted(HULL_GRAMIANS))
    def test_distinct_vertex_pairs(self, name):
        """Genuine, flipped and seeded-noise normals through the hyperbolic verifier."""
        rng = np.random.default_rng((sorted(ORACLE_FAMILIES) + sorted(HULL_GRAMIANS)).index(name))
        rel, d, genuine = _genuine_gramian(name)
        H = factor_against_form(genuine, BilinearForm.euclidean(d + 1))
        gramians = [genuine, _flip_first_normal(genuine)] + [
            gramian_of_cone(H + noise * rng.standard_normal(H.shape),
                            BilinearForm.euclidean(d + 1))
            for noise in (0.05, 0.3, 1.0)]
        for G in gramians:
            _assert_distinct_vertex_pairs_match(rel, [], G, d)

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_seeded_random_normals(self, name):
        """Genuine normals under seeded noise of three sizes, and plain random normals."""
        rng = np.random.default_rng(sorted(ORACLE_FAMILIES).index(name))
        rel, d = ORACLE_FAMILIES[name]()
        form = BilinearForm.euclidean(d + 1)
        H = factor_against_form(_family_gramian(rel, d), form)
        for noise in (0.05, 0.3, 1.0, None):
            if noise is None:
                Hr = rng.standard_normal(H.shape)
            else:
                Hr = H + noise * rng.standard_normal(H.shape)
            G = gramian_of_cone(Hr, form)
            cand = GramianCandidate(G, form, rel, d)
            _assert_matches_pairwise(rel, G, d, 1.0, verify_gramian_conditions(cand))

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_gramians_fail(self, seed):
        """One off-diagonal entry moved, as in the benchmark's perturbed members."""
        rng = np.random.default_rng(seed)
        name = ("cube-3", "cross-3", "gon-8", "prism", "pyramid")[seed % 5]
        rel, d = ORACLE_FAMILIES[name]()
        G = _family_gramian(rel, d)
        i, j = sorted(rng.choice(len(G), size=2, replace=False))
        G[i, j] = G[j, i] = G[i, j] + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
        cand = GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)
        general, spherical = verify_gramian_conditions(cand), verify_spherical_conditions(rel, G, d)
        assert not general.passed and not spherical.passed
        _assert_matches_pairwise(rel, G, d, 1.0, general, spherical)


@pytest.fixture
def walk_counts(monkeypatch):
    """Cycle walks and SuperCycle objects built while a test runs."""
    from polyrealize import gramian, incidence

    counts = {"walks": 0, "super_cycles": 0}
    walk, super_cycle = incidence._cycle_table, incidence.SuperCycle

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_super_cycle(*args):
        counts["super_cycles"] += 1
        return super_cycle(*args)

    monkeypatch.setattr(incidence, "_cycle_table", counted_walk)
    monkeypatch.setattr(gramian, "_cycle_table", counted_walk)
    monkeypatch.setattr(incidence, "SuperCycle", counted_super_cycle)
    return counts


@pytest.mark.parametrize("call", ["general", "spherical", "hyperbolic", "realize"])
def test_one_cycle_walk_and_no_super_cycle_objects(call, walk_counts):
    cand = pyramid_cone_candidate()
    rel, G = cand.relation, cand.G
    {
        "general": lambda: verify_gramian_conditions(cand),
        "spherical": lambda: verify_spherical_conditions(rel, G, 3),
        "hyperbolic": lambda: verify_hyperbolic_conditions(rel, [], G, 3),
        "realize": lambda: realize_cone_from_gramian(cand),
    }[call]()
    walks = 0 if call == "realize" else 1
    assert walk_counts == {"walks": walks, "super_cycles": 0}
    # the counters see the public enumeration: one walk, one object per super cycle
    lat = build_maxbiclique_lattice(rel)
    cycles = enumerate_super_cycles(lat, flag_graph_bipartition(lat))
    assert walk_counts == {"walks": walks + 1, "super_cycles": len(cycles)}


def test_gramian_path_enumerates_no_flag(monkeypatch):
    """The verifiers and the cone realization read flag classes from the
    cover signs, never from enumerated flags."""
    from polyrealize import incidence

    def refuse(*args):
        raise AssertionError("enumerate_flags called on the Gramian path")

    monkeypatch.setattr(incidence, "enumerate_flags", refuse)
    cand = pyramid_cone_candidate()
    rel, G = cand.relation, cand.G
    assert verify_gramian_conditions(cand).passed
    assert verify_spherical_conditions(rel, G, 3).passed
    hyperbolic = verify_hyperbolic_conditions(rel, [], G, 3)
    assert hyperbolic.check("lattice").passed
    assert hyperbolic.check("distinct-vertex-pairs").detail.startswith("exhaustive")
    assert realize_cone_from_gramian(cand).W.shape == (4, 5)
    # 3,840 flags, none of them enumerated
    assert verify_spherical_conditions(cube(5), _cube_gramian(5), 5).passed


def _family_candidate(rel, d):
    return GramianCandidate(_family_gramian(rel, d), BilinearForm.euclidean(d + 1), rel, d)


def _hyperbolic_candidate(G):
    return GramianCandidate(G, BilinearForm.hyperbolic(3), ngon(len(G)), 2)


# name: candidate whose cone the cycle-based reference also builds
HODGE_STAR_CASES = {
    **{name: lambda make=make: _family_candidate(*make())
       for name, make in ORACLE_FAMILIES.items()},
    "octant": octant_candidate,
    "ideal-triangle": lambda: _hyperbolic_candidate(np.array(
        [[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])),
    "right-angled-pentagon": lambda: _hyperbolic_candidate(_right_angled_pentagon()),
    "compact-triangle": lambda: _hyperbolic_candidate(_compact_triangle()),
}


@pytest.mark.parametrize("name", sorted(HODGE_STAR_CASES))
def test_cone_matches_the_hodge_star_of_a_cycle(name):
    """One null vector per vertex gives the cycle construction's cone,
    each generator up to a positive scale, and the same normals."""
    cand = HODGE_STAR_CASES[name]()
    cone = realize_cone_from_gramian(cand)
    H, N = cone_by_hodge_star(cand)
    assert np.array_equal(cone.H, H)
    assert column_cosines(cone.N.matrix, N).min() >= 1 - 1e-12


def test_cone_construction_needs_no_lattice(monkeypatch):
    from polyrealize import gramian, incidence, numkernel

    def refuse(*args, **kwargs):
        raise AssertionError("the cone construction reached the lattice or the Hodge star")

    for module, name in [(incidence, "build_maxbiclique_lattice"), (incidence, "_cycle_table"),
                         (gramian, "_cycle_table")]:
        monkeypatch.setattr(module, name, refuse)
    cone = realize_cone_from_gramian(pyramid_cone_candidate())
    assert cone.W.shape == (4, 5)
    assert not hasattr(gramian, "build_maxbiclique_lattice")
    assert not hasattr(gramian, "hodge_star")
    assert not hasattr(numkernel, "hodge_star")


def test_batched_minor_dets_match_one_at_a_time():
    """The chunked routine against np.linalg.det and the row-norm scale per minor."""
    from polyrealize.gramian import _DET_CHUNK, _minor_dets

    rng = np.random.default_rng(5)
    A = rng.standard_normal((9, 9))
    G = A + A.T
    sequences = np.array([rng.permutation(9)[:4] for _ in range(70)])
    rows, cols = np.divmod(np.arange(70 * 70), 70)
    assert len(rows) > _DET_CHUNK
    dets, scales = _minor_dets(G, sequences[rows], sequences[cols])
    for k, (a, b) in enumerate(zip(rows, cols)):
        minor = G[np.ix_(sequences[a], sequences[b])]
        norms = np.linalg.norm(minor, axis=1)
        assert dets[k] == np.linalg.det(minor)
        assert scales[k] == max(float(np.prod(np.maximum(norms, 1e-30))), 1.0)


def _cross_gramian(d):
    """Cone over the d-cross-polytope: facet s + 1 has normal (1 - 2 b(s), -1),
    b(s) the bits of s, as conftest.cross_polytope numbers them."""
    signs = 1.0 - 2 * ((np.arange(2**d)[None, :] >> np.arange(d)[:, None]) & 1)
    return gramian_of_cone(np.vstack([signs, -np.ones(2**d)]), BilinearForm.euclidean(d + 1))


@pytest.mark.parametrize("build, d", [
    (lambda: (cube(5), _cube_gramian(5)), 5), (lambda: (cross_polytope(4), _cross_gramian(4)), 4),
], ids=["cube-5", "cross-4"])
def test_pair_checks_take_one_determinant_per_cycle(monkeypatch, build, d):
    """No minor per super cycle: the Euclidean and spherical verifiers
    decide their pairs with at most one determinant per cycle."""
    from polyrealize import gramian
    from polyrealize.incidence import _cycle_table

    rel, G = build()
    cycles = len(_cycle_table(build_maxbiclique_lattice(rel)).facets)
    cand = GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)

    def refuse(*args):
        raise AssertionError("a minor determinant on the pair path")

    det, counted = np.linalg.det, []
    monkeypatch.setattr(gramian, "_minor_dets", refuse)
    monkeypatch.setattr(np.linalg, "det",
                        lambda a: counted.append(int(np.prod(np.shape(a)[:-2]))) or det(a))
    for verify in (lambda: verify_gramian_conditions(cand),
                   lambda: verify_spherical_conditions(rel, G, d)):
        counted.clear()
        assert verify().passed
        assert 0 < sum(counted) <= cycles


@pytest.mark.parametrize("build, d", [
    (lambda: (cube(4), _cube_gramian(4)), 4), (lambda: (cross_polytope(4), _cross_gramian(4)), 4),
    (lambda: (ngon(5), _right_angled_pentagon()), 2),
], ids=["cube-4", "cross-4", "pentagon"])
def test_pair_counts_match_independent_counts(build, d):
    """The detail headers' pair counts against the enumerated super cycles
    and a brute-force count of same-class cycle pairs at distinct vertices."""
    rel, G = build()
    lat = build_maxbiclique_lattice(rel)
    coloring = flag_graph_bipartition(lat)
    super_cycles = enumerate_super_cycles(lat, coloring)
    cycles = {(c.facet_sequence[:-1], c.vertex, c.orientation)
              for c in super_cycles_by_walk(lat, coloring)}
    vertex, orientation = (np.array(x) for x in zip(*((v, o) for _, v, o in cycles)))
    pairs = (orientation[:, None] == orientation) & (vertex[:, None] != vertex)
    report = verify_hyperbolic_conditions(rel, [], G, d)
    for name, count in [("super-cycle-pairs", 2 * len(super_cycles)),
                        ("distinct-vertex-pairs", int(pairs.sum()) // 2)]:
        assert report.check(name).detail.split(";")[0] == f"exhaustive, {count} pairs"


class TestBlockGramian:
    def test_identity_blocks(self):
        out = block_gramian(np.eye(2))
        expected = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_svd_form_on_pyramid_cone(self):
        N = PYRAMID_MATRIX - 1.0
        out = block_gramian(N)
        svd = compact_svd(N)
        UV = np.vstack([svd.U, svd.V])
        ref = UV @ np.diag(svd.sigma) @ UV.T
        assert np.abs(out - ref).max() < 1e-9

    def test_rank_one(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        N = np.outer(x, y)
        out = block_gramian(N)
        np.testing.assert_allclose(
            out[:4, :4], np.linalg.norm(y) * np.outer(x, x) / np.linalg.norm(x), atol=1e-10
        )
        np.testing.assert_allclose(
            out[4:, 4:], np.linalg.norm(x) * np.outer(y, y) / np.linalg.norm(y), atol=1e-10
        )
        assert np.abs(out - out.T).max() < 1e-12


@pytest.mark.parametrize("build, d", [
    (pyramid_relation, 3), (triangular_prism, 3), (lambda: cross_polytope(3), 3),
    (lambda: sphere_hull(0, 12), 3), (lambda: ngon(7), 2),
], ids=["pyramid", "prism", "cross-3", "hull12-0", "gon-7"])
def test_vertex_minor_ranks_take_one_svd_per_degree(monkeypatch, build, d):
    """Stacked minors per vertex degree against one numeric_rank per vertex."""
    from polyrealize.gramian import _vertex_rank_condition

    rel = build()
    degrees = {len(rel.facets_of_vertex(j)) for j in range(1, rel.n_vertices + 1)}
    rng = np.random.default_rng(rel.n_facets)
    svd = np.linalg.svd
    for rank in range(1, rel.n_facets + 1):
        A = rng.standard_normal((rel.n_facets, rank))
        G = A @ np.diag(rng.choice([-1.0, 1.0], rank)) @ A.T
        ideal = frozenset(rng.choice(rel.n_vertices, 2, replace=False).tolist())
        failures = vertex_minor_failures_one_at_a_time(G, rel, d, 1e-9, ideal)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
            check = _vertex_rank_condition(G, rel, d, 1e-9, ideal)
        assert len(calls) == len(degrees)
        assert (check.passed, check.detail) == (not failures, "; ".join(failures[:5]))
