"""Randomized cross-checks against independent geometry and solvers.

These tests lean on scipy (hull construction and a reference LP solver)
purely as oracles; they skip cleanly when scipy is unavailable.
"""

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")
scipy_spatial = pytest.importorskip("scipy.spatial")

from polyrealize import (
    BilinearForm,
    FilledIncidenceMatrix,
    GramianCandidate,
    IncidenceRelation,
    build_maxbiclique_lattice,
    check_filled_incidence,
    cone_to_polytope_matrix,
    gramian_of_cone,
    grunbaum_oracle,
    lattice_rank,
    lp_strict_feasibility,
    polytope_to_cone_matrix,
    realizability_check,
    realize_cone_from_gramian,
    realize_from_matrix,
    verify_gramian_conditions,
)
from polyrealize.incidence import check_diamond, check_flag_connected_local
from polyrealize.numkernel import numeric_rank

from oracles import column_cosines, cone_by_hodge_star


def degenerate_system(family, rng):
    """A strict-feasibility system of one degenerate family, as (dim, eqs, ups)."""
    dim = int(rng.integers(1, 5))
    n_up = int(rng.integers(1, 7))
    if family == "integer-ties":
        # small integer data: many equal ratios in the simplex's ratio tests
        eqs = [(rng.integers(-2, 3, dim).astype(float), float(rng.integers(-2, 3)))
               for _ in range(rng.integers(0, 2))]
        ups = [(rng.integers(-2, 3, dim).astype(float), float(rng.integers(-1, 3)))
               for _ in range(n_up)]
        return dim, eqs, ups
    ups = [(rng.standard_normal(dim), float(rng.standard_normal())) for _ in range(n_up)]
    if family == "homogeneous":
        eqs = [(rng.standard_normal(dim), 0.0) for _ in range(rng.integers(0, 2))]
        return dim, eqs, [(a, 0.0) for a, _ in ups]
    if family == "fixed-h":
        # <h, w_j> = 1 on dim independent w_j: the equalities fix h
        return dim, [(rng.standard_normal(dim), 1.0) for _ in range(dim)], ups
    a, b = rng.standard_normal(dim), float(rng.standard_normal())
    if family == "duplicated-equalities":
        return dim, [(a, b), (a.copy(), b), (2.0 * a, 2.0 * b)], ups
    assert family == "near-parallel-equalities"
    return dim, [(a, b), (a * (1 + 1e-12), b * (1 + 1e-12))], ups


DEGENERATE_FAMILIES = ("homogeneous", "duplicated-equalities", "near-parallel-equalities",
                       "fixed-h", "integer-ties")


class TestLpAgainstReference:
    """The simplex against scipy.optimize.linprog on random systems."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_linprog(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        n_eq = int(rng.integers(0, 3))
        n_up = int(rng.integers(1, 6))
        eqs = [(rng.standard_normal(dim), float(rng.standard_normal()))
               for _ in range(n_eq)]
        ups = [(rng.standard_normal(dim), float(rng.standard_normal()))
               for _ in range(n_up)]
        self.assert_matches_linprog(dim, eqs, ups)

    @pytest.mark.parametrize("family", DEGENERATE_FAMILIES)
    def test_degenerate_systems_match_linprog(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(40):
            self.assert_matches_linprog(*degenerate_system(family, rng))

    def assert_matches_linprog(self, dim, eqs, ups):
        mine = lp_strict_feasibility(eqs, ups, dim=dim, margin_cap=50.0)

        # reference: maximize t over (h, t) with <a,h> + t <= b and t <= cap
        c = np.zeros(dim + 1)
        c[-1] = -1.0
        A_ub = np.array([list(a) + [1.0] for a, _ in ups] + [[0.0] * dim + [1.0]])
        b_ub = np.array([b for _, b in ups] + [50.0])
        A_eq = np.array([list(a) + [0.0] for a, _ in eqs]) if eqs else None
        b_eq = np.array([b for _, b in eqs]) if eqs else None
        ref = scipy_opt.linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=[(None, None)] * (dim + 1), method="highs",
        )
        if ref.status == 2:  # reference says infeasible
            assert not mine.feasible
            return
        assert ref.status == 0
        t_ref = -ref.fun
        assert mine.feasible == (t_ref > 1e-9)
        if mine.feasible:
            assert mine.margin == pytest.approx(t_ref, abs=1e-6)
            for a, b in eqs:
                assert abs(a @ mine.witness - b) < 1e-6
            for a, b in ups:
                assert a @ mine.witness <= b - mine.margin + 1e-6


def random_spherical_polytope(rng, n_points):
    """A genuine random 3-polytope: hull of points on the sphere.

    Returns (relation, M, W) or None when the draw is degenerate (origin
    not interior, near-coplanar vertices, or a vertex dropped by the
    hull).  Geometry comes entirely from scipy's hull, so the relation
    and matrix are independent of the library under test.
    """
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.9, 1.1, (n_points, 1))
    hull = scipy_spatial.ConvexHull(pts)
    if len(hull.vertices) != n_points:
        return None
    # equations: n.x + c <= 0 inside; the origin must be interior
    if np.any(hull.equations[:, 3] > -0.05):
        return None
    n_facets = len(hull.equations)
    H = (hull.equations[:, :3] / (-hull.equations[:, 3:4])).T  # <h, x> = 1 on facet
    W = pts.T
    M = H.T @ W
    pairs = []
    for i in range(n_facets):
        for j in range(n_points):
            if abs(M[i, j] - 1.0) < 1e-9:
                pairs.append((i + 1, j + 1))
    off = [M[i, j] for i in range(n_facets) for j in range(n_points)
           if (i + 1, j + 1) not in set(pairs)]
    if off and max(off) > 0.95:
        return None
    rel = IncidenceRelation.from_pairs(n_facets, n_points, pairs)
    return rel, M, W


class TestRandomPolytopes:
    """Full pipeline on hulls of random spherical point clouds."""

    def collect(self, count, seed):
        rng = np.random.default_rng(seed)
        found = []
        while len(found) < count:
            out = random_spherical_polytope(rng, int(rng.integers(5, 9)))
            if out is not None:
                found.append(out)
        return found

    def test_lattice_conditions_hold(self):
        for rel, M, W in self.collect(12, seed=7):
            lat = build_maxbiclique_lattice(rel)
            assert lattice_rank(lat) == 4
            assert check_diamond(lat)
            assert check_flag_connected_local(lat)

    def test_matrices_verify_and_refactor(self):
        for rel, M, W in self.collect(8, seed=21):
            fim = FilledIncidenceMatrix(M, rel, 1.0, eq_tol=1e-8, slack_tol=1e-3)
            real = realize_from_matrix(fim, 3)
            recon = real.H.T @ real.W
            assert np.abs(recon - M).max() < 1e-9 * max(1.0, np.abs(M).max())

    def test_realizability_pipeline(self):
        for rel, M, W in self.collect(6, seed=33):
            verdict = realizability_check(rel, 3)
            assert verdict.status == "realized"
            lat = build_maxbiclique_lattice(rel)
            assert grunbaum_oracle(verdict.realization.W, lat)

    def test_cone_round_trip(self):
        for rel, M, W in self.collect(6, seed=55):
            fim = FilledIncidenceMatrix(M, rel, 1.0, eq_tol=1e-8, slack_tol=1e-3)
            N = polytope_to_cone_matrix(fim)
            back = cone_to_polytope_matrix(N)
            assert numeric_rank(back.matrix) == 3
            assert check_filled_incidence(back.matrix, rel, 1.0, slack_tol=1e-9).ok

    def test_gramian_round_trip(self):
        form = BilinearForm.euclidean(4)
        for rel, M, W in self.collect(5, seed=77):
            fim = FilledIncidenceMatrix(M, rel, 1.0, eq_tol=1e-8, slack_tol=1e-3)
            N = polytope_to_cone_matrix(fim)
            G = gramian_of_cone(realize_from_matrix(N, 3).H, form)
            cand = GramianCandidate(G, form, rel, 3)
            assert verify_gramian_conditions(cand).passed
            cone = realize_cone_from_gramian(cand)
            assert np.abs(gramian_of_cone(cone.H, form) - G).max() < 1e-8
            H, ref = cone_by_hodge_star(cand)
            assert np.array_equal(cone.H, H)
            assert column_cosines(cone.N.matrix, ref).min() >= 1 - 1e-12
