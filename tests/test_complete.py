"""Completion solver: loss, initialization, determinism, recovery."""

import sys

import numpy as np
import pytest

from polyrealize import (
    CompletionProblem,
    FilledIncidenceMatrix,
    IncidenceRelation,
    build_maxbiclique_lattice,
    check_filled_incidence,
    complete,
    completion_loss,
    grunbaum_oracle,
    initialize_factors,
    realizability_check,
    realize_from_matrix,
)
from polyrealize.complete import (
    CONE_PROJECTIONS,
    STATUS_FOUND,
    STATUS_NOT_FOUND,
    _best_rows,
    _cone_warm_start,
)
from polyrealize.numkernel import numeric_rank
from polyrealize.realize import STATUS_INCONCLUSIVE, STATUS_REALIZED

from conftest import (
    SQUARE_MATRIX,
    cross_polytope,
    cube,
    hemi_dodecahedron,
    ngon,
    pyramid_relation,
    random_relation,
    simplex,
    sphere_hull,
    torus7,
    triangular_prism,
)
from oracles import best_rows_one_at_a_time


class TestLossAndGradient:
    """Values of ``completion_loss``."""

    def test_zero_at_valid_realization(self, square):
        problem = CompletionProblem(square, 2)
        # split the square matrix exactly; off entries are -1 <= 0.9
        U, s, Vt = np.linalg.svd(SQUARE_MATRIX)
        H = U[:, :2] * np.sqrt(s[:2])
        W = np.sqrt(s[:2])[:, None] * Vt[:2]
        assert completion_loss(H, W, problem) < 1e-24

    def test_single_entry_closed_form(self):
        rel = IncidenceRelation.from_pairs(1, 1, [(1, 1)])
        problem = CompletionProblem(rel, 1)
        H = np.array([[2.0]])
        W = np.array([[3.0]])
        assert completion_loss(H, W, problem) == pytest.approx(25.0)

    def test_hinge_side(self):
        rel = IncidenceRelation.from_pairs(1, 2, [(1, 1)])
        problem = CompletionProblem(rel, 1, margin=0.2)
        H = np.array([[1.0]])
        W = np.array([[1.0, 0.9]])  # off entry 0.9 > ceiling 0.8
        assert completion_loss(H, W, problem) == pytest.approx(0.1**2)
        W2 = np.array([[1.0, 0.5]])  # below the ceiling: hinge inactive
        assert completion_loss(H, W2, problem) == 0.0


class TestInitializeFactors:
    def test_deterministic(self, square):
        problem = CompletionProblem(square, 2)
        H1, W1 = initialize_factors(problem)
        H2, W2 = initialize_factors(problem)
        np.testing.assert_array_equal(H1, H2)
        np.testing.assert_array_equal(W1, W2)

    def test_spectral_start_on_square(self, square):
        # the start dehomogenizes the square's cone-form pattern to a
        # rank-2 matrix, and the solver converges in a handful of sweeps
        problem = CompletionProblem(square, 2)
        H0, W0 = initialize_factors(problem)
        assert numeric_rank(H0 @ W0) == 2
        result = complete(problem)
        assert result.status == STATUS_FOUND
        assert result.restart_index == 0
        assert result.iterations <= 5

    def test_warm_start_falls_back_to_the_seeded_draw(self, pyramid):
        # the pyramid's 0/-1 pattern has rank 4, one short of the d + 1 = 5
        # a 4-dimensional cone form needs, so the start is the fixed draw
        problem = CompletionProblem(pyramid, 4)
        H, W = initialize_factors(problem)
        rng = np.random.default_rng([0, 0])
        np.testing.assert_array_equal(H, rng.standard_normal((5, 4)) / 2.0)
        np.testing.assert_array_equal(W, rng.standard_normal((4, 5)) / 2.0)


class TestComplete:
    def test_square(self, square):
        result = complete(CompletionProblem(square, 2))
        assert result.status == STATUS_FOUND
        report = check_filled_incidence(result.matrix, square, 1.0, slack_tol=0.05)
        assert report.ok
        assert numeric_rank(result.matrix) == 2

    def test_pyramid(self, pyramid):
        result = complete(CompletionProblem(pyramid, 3))
        assert result.status == STATUS_FOUND
        assert check_filled_incidence(result.matrix, pyramid, 1.0, slack_tol=0.05).ok
        np.testing.assert_allclose(result.H @ result.W, result.matrix)

    def test_higher_rank_completion_exists_but_gate_rejects(self, pyramid):
        # rank-4 filled matrices of the pyramid relation do exist (perturb
        # the rank-3 one off the pattern), so the bare solver finds one;
        # only the lattice gate rules out a 4-dimensional realization
        from polyrealize.realize import REASON_RANK, STATUS_REJECTED

        result = complete(CompletionProblem(pyramid, 4))
        assert result.status == STATUS_FOUND
        assert numeric_rank(result.matrix) == 4
        verdict = realizability_check(pyramid, 4)
        assert verdict.status == STATUS_REJECTED
        assert verdict.reason == REASON_RANK

    def test_impossible_pattern_not_found(self, square):
        # a rank-1 filled 1-incidence matrix of the square forces every
        # entry to 1, so no valid completion exists at d = 1
        result = complete(CompletionProblem(square, 1, max_iters=80))
        assert result.status == STATUS_NOT_FOUND
        assert np.isfinite(result.best_residual)
        assert result.best_residual > 0

    def test_determinism(self, pyramid):
        r1 = complete(CompletionProblem(pyramid, 3))
        r2 = complete(CompletionProblem(pyramid, 3))
        assert r1.restart_index == r2.restart_index
        assert r1.best_residual == r2.best_residual
        np.testing.assert_array_equal(r1.matrix, r2.matrix)

    def test_one_start_spends_at_most_max_iters_sweeps(self):
        # no rank-3 matrix fits the hemi-dodecahedron, and its loss keeps
        # falling, so the one start runs out of sweeps; iterations counts
        # those sweeps and nothing else
        rel = hemi_dodecahedron()
        results = [complete(CompletionProblem(rel, 3, max_iters=k)) for k in (0, 1, 10, 30)]
        assert [r.iterations for r in results] == [0, 1, 10, 30]
        assert all(r.status == STATUS_NOT_FOUND and r.restart_index == 0 for r in results)
        # a sweep never raises the loss, so the final loss falls with the budget
        losses = [r.best_residual for r in results]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_found_matrices_validate(self):
        for rel, d in [(ngon(5), 2), (ngon(6), 2), (pyramid_relation(), 3)]:
            result = complete(CompletionProblem(rel, d))
            assert result.status == STATUS_FOUND
            assert check_filled_incidence(
                result.matrix, rel, 1.0, slack_tol=0.05
            ).ok
            assert numeric_rank(result.matrix) == d

    def test_validation_options(self):
        with pytest.raises(ValueError):
            CompletionProblem(ngon(4), 2, margin=1.5)
        with pytest.raises(ValueError):
            CompletionProblem(ngon(4), 0)
        with pytest.raises(ValueError, match="max_iters"):
            CompletionProblem(ngon(4), 2, max_iters=-5)
        assert CompletionProblem(ngon(4), 2, max_iters=0).max_iters == 0


@pytest.mark.parametrize("build, d", [
    (lambda: ngon(20), 2), (hemi_dodecahedron, 3), (torus7, 3),
], ids=["gon-20", "hemi-dodecahedron", "torus7"])
def test_inconclusive_inputs_spend_one_start(build, d):
    # the 20-gon's slack at the default margin 0.1 is out of reach, and the
    # other two pass the gate but are no polytopes: the search gives up
    # after one start and at most max_iters sweeps
    budget = 200
    verdict = realizability_check(build(), d, max_iters=budget)
    assert verdict.status == STATUS_INCONCLUSIVE
    assert verdict.completion.restart_index == 0
    assert verdict.completion.iterations <= budget
    assert verdict.best_residual == verdict.completion.best_residual > 0


EASY_FAMILIES = (
    [(f"simplex-{d}", lambda d=d: simplex(d), d) for d in range(2, 9)]
    + [(f"cube-{d}", lambda d=d: cube(d), d) for d in range(2, 6)]
    + [(f"cross-{d}", lambda d=d: cross_polytope(d), d) for d in range(2, 6)]
    + [(f"gon-{n}", lambda n=n: ngon(n), 2) for n in range(3, 17)]
    + [("prism", triangular_prism, 3), ("pyramid", pyramid_relation, 3)]
    + [(f"hull{n}-{s}", lambda s=s, n=n: sphere_hull(s, n), 3)
       for n in (8, 10, 12) for s in range(4)]
)


@pytest.mark.parametrize(
    "build, d", [case[1:] for case in EASY_FAMILIES], ids=[case[0] for case in EASY_FAMILIES]
)
class TestConeWarmStart:
    """The cone-form warm start realizes the easy families at once."""

    def test_warm_start_has_rank_d(self, build, d):
        H, W = initialize_factors(CompletionProblem(build(), d))
        assert numeric_rank(H @ W) == d

    def test_realizes_at_restart_zero(self, build, d):
        rel = build()
        result = complete(CompletionProblem(rel, d))
        assert result.status == STATUS_FOUND
        assert result.restart_index == 0
        assert result.iterations <= 3
        fim = FilledIncidenceMatrix(result.matrix, rel, 1.0)
        real = realize_from_matrix(fim, d)
        assert np.abs(real.H.T @ real.W - fim.matrix).max() < 1e-9
        assert grunbaum_oracle(real.W, build_maxbiclique_lattice(rel))


@pytest.mark.parametrize(
    "build, d",
    [case[1:] for case in EASY_FAMILIES] + [(hemi_dodecahedron, 3), (torus7, 3)],
    ids=[case[0] for case in EASY_FAMILIES] + ["hemi-dodecahedron", "torus7"],
)
def test_cone_warm_start_applies(build, d):
    # every gate-passing relation tried gets the warm start; only a
    # dimension the gate rejects (the pyramid at d = 4) falls back to the
    # fixed draw, so the search has no random start a caller could seed
    rel = build()
    H, W = _cone_warm_start(CompletionProblem(rel, d))
    assert H.shape == (rel.n_facets, d) and W.shape == (d, rel.n_vertices)


# the first projection of these patterns' truncation moves no entry by
# more than roundoff; those of the rest never settle within the cap
SETTLE_AT_ONCE = (
    [(f"simplex-{d}", lambda d=d: simplex(d), d) for d in range(2, 9)]
    + [(f"cube-{d}", lambda d=d: cube(d), d) for d in range(2, 5)]
    + [(f"cross-{d}", lambda d=d: cross_polytope(d), d) for d in range(2, 5)]
    + [(f"gon-{n}", lambda n=n: ngon(n), 2) for n in (3, 4)]
    + [("prism", triangular_prism, 3), ("pyramid", pyramid_relation, 3)]
)
NEVER_SETTLE = [("gon-10", lambda: ngon(10), 2), ("torus7", torus7, 3),
                ("hemi-dodecahedron", hemi_dodecahedron, 3)]


def _start_without_the_stop(monkeypatch, problem):
    """The warm start after all 1 + CONE_PROJECTIONS projections."""
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["polyrealize.complete"], "CONE_SETTLED", -np.inf)
        return _cone_warm_start(problem)


@pytest.mark.parametrize(
    "build, d, svds",
    [case[1:] + (2,) for case in SETTLE_AT_ONCE]
    + [case[1:] + (CONE_PROJECTIONS + 2,) for case in NEVER_SETTLE],
    ids=[case[0] for case in SETTLE_AT_ONCE + NEVER_SETTLE],
)
def test_cone_warm_start_stops_at_its_fixed_point(monkeypatch, build, d, svds):
    # one SVD per projection until it settles, and one of the dehomogenized start
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert _cone_warm_start(CompletionProblem(build(), d)) is not None
    assert len(calls) == svds


@pytest.mark.parametrize(
    "build, d", [case[1:] for case in SETTLE_AT_ONCE], ids=[case[0] for case in SETTLE_AT_ONCE]
)
def test_settled_start_matches_the_full_start(monkeypatch, build, d):
    problem = CompletionProblem(build(), d)
    H, W = _cone_warm_start(problem)
    H0, W0 = _start_without_the_stop(monkeypatch, problem)
    full = H0 @ W0
    assert np.abs(H @ W - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize(
    "build, d", [case[1:] for case in NEVER_SETTLE], ids=[case[0] for case in NEVER_SETTLE]
)
def test_unsettled_start_is_the_full_start(monkeypatch, build, d):
    problem = CompletionProblem(build(), d)
    for got, full in zip(_cone_warm_start(problem), _start_without_the_stop(monkeypatch, problem)):
        assert got.tobytes() == full.tobytes()


def _row_losses(X, G, mask, ceiling):
    vals = X @ G.T
    err = np.where(mask, vals - 1.0, np.maximum(vals - ceiling, 0.0))
    return (err**2).sum(axis=1)


def _half_sweeps(H, W, mask):
    """(rows, other factor's rows, mask) of the two ALS half-sweeps."""
    return [(H, W.T, mask), (W.T, H, mask.T)]


@pytest.mark.parametrize(
    "build, d", [case[1:] for case in EASY_FAMILIES], ids=[case[0] for case in EASY_FAMILIES]
)
def test_stacked_rows_match_the_row_by_row_solve(build, d):
    # near a realization every row has a clear active set, so the stacked
    # pseudoinverse and one lstsq per row and pass end at the same rows
    rel = build()
    found = complete(CompletionProblem(rel, d))
    rng = np.random.default_rng([d, rel.n_facets, rel.n_vertices])
    for noise in (1e-3, 1e-2):
        H = found.H + noise * rng.standard_normal(found.H.shape)
        W = found.W + noise * rng.standard_normal(found.W.shape)
        for X, G, mask in _half_sweeps(H, W, rel.mask):
            np.testing.assert_allclose(_best_rows(X, G, mask, 0.9),
                                       best_rows_one_at_a_time(X, G, mask, 0.9),
                                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_stacked_rows_never_raise_a_row_loss(seed):
    # from random factors the active sets hit ceiling ties, where the two
    # solvers may settle on different rows; each row still never gets worse
    rng = np.random.default_rng(seed)
    rel = random_relation(rng, max_side=8)
    d = int(rng.integers(1, 4))
    H = rng.standard_normal((rel.n_facets, d))
    W = rng.standard_normal((d, rel.n_vertices))
    for X, G, mask in _half_sweeps(H, W, rel.mask):
        before = _row_losses(X, G, mask, 0.9)
        after = _row_losses(_best_rows(X, G, mask, 0.9), G, mask, 0.9)
        assert np.all(after <= before)


def test_one_pseudoinverse_per_half_sweep(monkeypatch):
    # a half-sweep takes one active-set step: one stacked pinv, whatever
    # the rows' active sets do after it
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or pinv(*a, **k))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rel = random_relation(rng, max_side=8)
        d = int(rng.integers(1, 4))
        H = rng.standard_normal((rel.n_facets, d))
        W = rng.standard_normal((d, rel.n_vertices))
        for X, G, mask in _half_sweeps(H, W, rel.mask):
            calls.clear()
            _best_rows(X, G, mask, 0.9)
            assert len(calls) == 1


def test_multi_sweep_searches_realize():
    # seeded 3-D hulls beyond the easy families: one of them needs well
    # over the easy families' 3 sweeps, and all realize at the defaults
    sweeps = []
    for n in (16, 20):
        for s in range(4):
            verdict = realizability_check(sphere_hull(s, n), 3)
            assert verdict.status == STATUS_REALIZED, (n, s)
            sweeps.append(verdict.completion.iterations)
    assert max(sweeps) > 3
