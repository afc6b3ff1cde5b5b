"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from polyrealize import (
    BilinearForm,
    FilledIncidenceMatrix,
    GramianCandidate,
    block_gramian,
    build_maxbiclique_lattice,
    check_filled_incidence,
    check_flag_connected_local,
    compact_svd,
    cone_to_polytope_matrix,
    facet_vertex_matrix,
    gramian_of_cone,
    grunbaum_oracle,
    hodge_star,
    loss_and_gradient,
    polytope_to_cone_matrix,
    realizability_check,
    realize_cone_from_gramian,
    realize_from_matrix,
    verify_gramian_conditions,
)
from polyrealize.cli import main as cli_main
from polyrealize.complete import CompletionProblem
from polyrealize.incidence import IncidenceRelation, dump_relation, enumerate_flags
from polyrealize.numkernel import numeric_rank, write_matrix_csv
from polyrealize.realize import (
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_RANK,
    STATUS_REALIZED,
)

from conftest import (
    PYRAMID_MATRIX,
    cross_polytope,
    cube,
    disjoint_squares,
    ngon,
    octant_relation,
    pyramid_missing_incidence,
    pyramid_relation,
    random_relation,
    simplex,
    triangular_prism,
)
from oracles import (
    brute_force_maxbicliques,
    central_difference_gradients,
    exact_integer_rank,
    flag_graph_connected_explicit,
    random_form_matrix,
    top_star,
)

RECOVERY_SUITE = [
    ("simplex-2", simplex(2), 2),
    ("simplex-3", simplex(3), 3),
    ("simplex-4", simplex(4), 4),
    ("cube-2", cube(2), 2),
    ("cube-3", cube(3), 3),
    ("cross-2", cross_polytope(2), 2),
    ("cross-3", cross_polytope(3), 3),
    ("gon-3", ngon(3), 2),
    ("gon-4", ngon(4), 2),
    ("gon-5", ngon(5), 2),
    ("gon-6", ngon(6), 2),
    ("gon-7", ngon(7), 2),
    ("gon-8", ngon(8), 2),
    ("gon-9", ngon(9), 2),
    ("gon-10", ngon(10), 2),
    ("pyramid", pyramid_relation(), 3),
]


@pytest.fixture(scope="module")
def realized_suite():
    """Realizations of the whole recovery suite, shared across criteria."""
    out = {}
    for name, rel, d in RECOVERY_SUITE:
        start = time.perf_counter()
        verdict = realizability_check(rel, d)
        out[name] = (rel, d, verdict, time.perf_counter() - start)
    return out


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_figure_golden(tmp_path):
    start = time.perf_counter()
    rel = pyramid_relation()
    assert exact_integer_rank(PYRAMID_MATRIX) == 3
    assert numeric_rank(PYRAMID_MATRIX, 1e-9) == 3
    assert check_filled_incidence(PYRAMID_MATRIX, rel, 1.0).ok
    lat = build_maxbiclique_lattice(rel)
    assert len(lat) == 20
    assert lat.rank_profile() == (1, 5, 8, 5, 1)
    dump_relation(rel, tmp_path / "pyramid.json")
    write_matrix_csv(tmp_path / "fig.csv", PYRAMID_MATRIX)
    code = cli_main(
        ["verify", str(tmp_path / "pyramid.json"), str(tmp_path / "fig.csv"),
         "--d", "3", "--fill", "1"]
    )
    assert code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"pyramid golden matrix verifies, lattice profile (1,5,8,5,1), {elapsed:.2f}s")


def test_criterion_02_maxbiclique_oracle_equivalence():
    start = time.perf_counter()
    suite = [
        ngon(3), ngon(4), ngon(5), ngon(6), ngon(7), ngon(8),
        pyramid_relation(), pyramid_missing_incidence(), octant_relation(),
        simplex(2), simplex(3), simplex(4), cube(3), cross_polytope(3),
        triangular_prism(), disjoint_squares(),
        IncidenceRelation.from_pairs(2, 2, [(1, 1), (2, 2)]),
        IncidenceRelation.from_pairs(1, 1, []),
        IncidenceRelation.from_pairs(1, 1, [(1, 1)]),
    ]
    rng = np.random.default_rng(2024)
    suite += [random_relation(rng, max_side=8) for _ in range(20)]
    checked = 0
    for rel in suite:
        assert rel.n_facets <= 8 and rel.n_vertices <= 8
        lat = build_maxbiclique_lattice(rel)
        found = {(el.facet_set, el.vertex_set) for el in lat.elements}
        assert found == brute_force_maxbicliques(rel)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"{checked} relations match brute-force enumeration exactly, {elapsed:.1f}s")


def test_criterion_03_local_flag_connectivity_equivalence():
    lattices = [
        simplex(2), simplex(3), simplex(4),
        cube(3), cross_polytope(3),
        ngon(3), ngon(4), ngon(5), ngon(6), ngon(7), ngon(8), ngon(9), ngon(10),
        pyramid_relation(), triangular_prism(), disjoint_squares(),
    ]
    for rel in lattices:
        lat = build_maxbiclique_lattice(rel)
        flags = enumerate_flags(lat)
        assert check_flag_connected_local(lat) == flag_graph_connected_explicit(flags)
    report(3, f"local test agrees with explicit flag-graph BFS on {len(lattices)} lattices")


def test_criterion_04_realization_round_trip(realized_suite):
    total = sum(t for (_, _, _, t) in realized_suite.values())
    for name, (rel, d, verdict, _) in realized_suite.items():
        assert verdict.status == STATUS_REALIZED, name
        M = verdict.matrix.matrix
        assert check_filled_incidence(M, rel, 1.0, eq_tol=1e-7).ok, name
        assert numeric_rank(M) == d, name
        recon = facet_vertex_matrix(verdict.realization.H, verdict.realization.W)
        assert np.abs(recon - M).max() <= 1e-9 * max(1.0, np.abs(M).max()), name
        lat = build_maxbiclique_lattice(rel)
        assert grunbaum_oracle(verdict.realization.W, lat), name
    assert total < 300.0
    report(4, f"{len(realized_suite)} relations realized and re-verified, "
              f"every one passed the face-lattice oracle, {total:.1f}s solver time")


def test_criterion_05_cone_polytope_round_trip(realized_suite):
    for name, (rel, d, verdict, _) in realized_suite.items():
        start = time.perf_counter()
        N = polytope_to_cone_matrix(verdict.matrix)
        assert numeric_rank(N.matrix) == d + 1, name
        back = cone_to_polytope_matrix(N)
        assert check_filled_incidence(back.matrix, rel, 1.0).ok, name
        assert numeric_rank(back.matrix) == d, name
        assert time.perf_counter() - start < 10.0, name
    report(5, f"diagonal-rescaling round trip valid on all {len(realized_suite)} instances")


def test_criterion_06_hodge_star_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        negatives = int(rng.integers(0, 2))
        form = BilinearForm.from_matrix(random_form_matrix(rng, d + 1, negatives))
        vecs = [rng.standard_normal(d + 1) for _ in range(d)]
        v = hodge_star(vecs, form)
        probe = rng.standard_normal(d + 1)
        lhs = form.value(v, probe)
        rhs = top_star(form.phi, vecs + [probe])
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, err)
        for x in vecs:
            worst = max(worst, abs(form.value(v, x)))
    assert worst <= 1e-10
    report(6, f"defining identity holds on 1000 draws, worst error {worst:.2e}")


def test_criterion_07_gramian_round_trip():
    results = []
    octant = octant_relation()
    cand = GramianCandidate(np.eye(3), BilinearForm.euclidean(3), octant, 2)
    assert verify_gramian_conditions(cand).passed
    cone = realize_cone_from_gramian(cand)
    assert check_filled_incidence(cone.N.matrix, octant, 0.0).ok
    err = np.abs(gramian_of_cone(cone.H, cand.form) - cand.G).max()
    assert err < 1e-8
    results.append(("octant", err))

    rel = pyramid_relation()
    fim = FilledIncidenceMatrix(PYRAMID_MATRIX - 1.0, rel, 0.0)
    form = BilinearForm.euclidean(4)
    G = gramian_of_cone(realize_from_matrix(fim, 3).H, form)
    cand2 = GramianCandidate(G, form, rel, 3)
    assert verify_gramian_conditions(cand2).passed
    cone2 = realize_cone_from_gramian(cand2)
    scale = np.abs(cone2.N.matrix).max()
    assert check_filled_incidence(cone2.N.matrix, rel, 0.0, eq_tol=1e-9 * scale).ok
    err2 = np.abs(gramian_of_cone(cone2.H, form) - G).max()
    assert err2 < 1e-8
    results.append(("pyramid-cone", err2))
    report(7, "; ".join(f"{n} reproduced to {e:.2e}" for n, e in results))


def test_criterion_08_block_gramian_identity(realized_suite):
    worst = 0.0
    for name, (_, _, verdict, _) in realized_suite.items():
        N = verdict.matrix.matrix - 1.0
        out = block_gramian(N)
        svd = compact_svd(N)
        UV = np.vstack([svd.U, svd.V])
        ref = UV @ np.diag(svd.sigma) @ UV.T
        err = np.abs(out - ref).max()
        assert err < 1e-9, name
        worst = max(worst, err)
    report(8, f"block identity holds on {len(realized_suite)} cones, worst {worst:.2e}")


def test_criterion_09_completion_gradients():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        rel = random_relation(rng, max_side=5)
        d = int(rng.integers(1, 4))
        problem = CompletionProblem(rel, d)
        H = rng.standard_normal((rel.n_facets, d))
        W = rng.standard_normal((d, rel.n_vertices))
        _, gH, gW = loss_and_gradient(H, W, problem)
        fH, fW = central_difference_gradients(
            lambda h, w: loss_and_gradient(h, w, problem)[0], H, W
        )
        scale = max(np.abs(fH).max(), np.abs(fW).max(), 1e-8)
        err = max(np.abs(gH - fH).max(), np.abs(gW - fW).max()) / scale
        worst = max(worst, err)
    assert worst <= 1e-5
    report(9, f"analytic gradients match finite differences on 100 instances, worst {worst:.2e}")


def test_criterion_10_negative_controls(tmp_path):
    cases = [
        ("broken_pyramid", pyramid_missing_incidence(), 3, REASON_DIAMOND),
        ("disjoint_squares", disjoint_squares(), 2, REASON_FLAG_CONNECTIVITY),
        ("pyramid_d2", pyramid_relation(), 2, REASON_RANK),
    ]
    for name, rel, d, reason in cases:
        verdict = realizability_check(rel, d)
        assert verdict.status == "rejected", name
        assert verdict.reason == reason, name
        path = tmp_path / f"{name}.json"
        dump_relation(rel, path)
        assert cli_main(["realize", str(path), "--d", str(d)]) == 1, name
    report(10, "all three negative controls rejected with exit code 1 and the right reason")


def test_criterion_11_moduli_invariance(realized_suite):
    rng = np.random.default_rng(271)
    worst = 0.0
    for name, (_, d, verdict, _) in realized_suite.items():
        H, W = verdict.realization.H, verdict.realization.W
        base = facet_vertex_matrix(H, W)
        done = 0
        while done < 100:
            A = rng.standard_normal((d, d))
            if np.linalg.cond(A) > 30:
                continue
            done += 1
            moved = facet_vertex_matrix(np.linalg.inv(A).T @ H, A @ W)
            err = np.abs(moved - base).max()
            assert err <= 1e-12, name
            worst = max(worst, err)
    report(11, f"facet-vertex matrix invariant under 100 linear actions per instance, "
               f"worst deviation {worst:.2e}")
