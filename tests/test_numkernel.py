"""Linear algebra kernel: SVD, pseudoinverse, forms, Hodge star, LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrealize import (
    BilinearForm,
    compact_svd,
    factor_against_form,
    pseudoinverse,
    signature,
    sqrt_psd,
)
from polyrealize.errors import (
    DegenerateFormError,
    DimensionMismatchError,
    MatrixFormatError,
    NotPsdError,
    SignatureMismatchError,
    ZeroMatrixError,
)
from polyrealize.numkernel import (
    DEFAULT_RANK_TOL,
    _pivoted_rank,
    _pivoted_steps,
    _rank_of_sigma,
    _sigma_min_floor,
    as_matrix,
    dehomogenize,
    lp_strict_feasibility,
    numeric_rank,
    numeric_ranks,
    read_matrix_csv,
    write_matrix_csv,
)

from conftest import PYRAMID_MATRIX, SQUARE_MATRIX
import oracles
from oracles import (
    hodge_star,
    exact_integer_rank,
    random_form_matrix,
    simplex_strict_feasibility,
    top_star,
)


class TestAsMatrix:
    @pytest.mark.parametrize("value", [
        np.array([[1 + 2j, 0.5], [0.5, 1]]),
        np.array([[1, 0.5], [0.5, 1]], dtype=complex),
        [[1j, 0.0], [0.0, 1.0]],
    ], ids=["imaginary", "complex-dtype", "list"])
    def test_complex_input_is_refused(self, value):
        with pytest.raises(ValueError, match="gramian contains complex entries"):
            as_matrix(value, "gramian")
        with pytest.raises(ValueError, match="matrix contains complex entries"):
            numeric_rank(value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_is_refused(self, bad):
        with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
            as_matrix([[1.0, bad]])

    def test_real_input_is_float64(self):
        for value in ([[1, 2], [3, 4]], np.eye(2, dtype=np.float32), np.eye(2, dtype=bool)):
            arr = as_matrix(value)
            assert arr.dtype == np.float64
            assert np.array_equal(arr, np.asarray(value, dtype=float))


class TestNumericRanks:
    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        for shape in [(4, 3), (3, 7), (5, 1)]:
            stack = np.stack([
                rng.standard_normal((shape[0], r)) @ rng.standard_normal((r, shape[1]))
                for r in range(1, min(shape) + 1) for _ in range(3)
            ] + [np.zeros(shape)])
            ranks = numeric_ranks(stack)
            assert ranks.tolist() == [numeric_rank(M) for M in stack]
            assert ranks[-1] == 0

    def test_the_cutoff_is_relative_to_the_largest(self):
        stack = np.array([np.diag([1.0, 1e-8]), np.diag([1.0, 1e-10]), np.diag([1e-20, 0])])
        assert numeric_ranks(stack).tolist() == [2, 1, 1]
        assert numeric_ranks(stack, rank_tol=1e-7).tolist() == [1, 1, 1]


RANK_TOLS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 3.0)


def hull_matrix(points) -> np.ndarray:
    """The facet-vertex matrix <h_i, x_j> of the hull of points around the origin,
    with h_i scaled to 1 on facet i."""
    spatial = pytest.importorskip("scipy.spatial")
    eq = spatial.ConvexHull(points).equations
    return (eq[:, :-1] @ points.T) / -eq[:, -1:]


def rank_workload():
    """(name, matrix, rank) of polygons and sphere hulls with at least 64
    facets and vertices: the polytope matrix M, its cone M - 1, the
    rescaled dehomogenize(M - 1), and their transposes."""
    rng = np.random.default_rng(0)
    sets = []
    for n in (64, 100, 256):
        theta = 2 * np.pi * np.arange(n) / n
        sets.append((f"gon-{n}", np.column_stack([np.cos(theta), np.sin(theta)])))
        theta = np.sort(rng.uniform(0, 2 * np.pi, n))
        sets.append((f"rgon-{n}", np.column_stack([np.cos(theta), np.sin(theta)])))
    for n, d in ((64, 3), (100, 3), (80, 4)):
        points = rng.standard_normal((n, d))
        sets.append((f"hull{d}-{n}", points / np.linalg.norm(points, axis=1, keepdims=True)))
    for name, points in sets:
        M = hull_matrix(points)
        d = points.shape[1]
        for tag, A, r in (("M", M, d), ("N", M - 1.0, d + 1), ("D", dehomogenize(M - 1.0), d)):
            yield f"{name}/{tag}", A, r
            yield f"{name}/{tag}T", A.T, r


def rank_corpus():
    """(name, matrix) pairs for the soundness check of the pivoted pass.

    The workload matrices, each also with noise from 1e-15 to 1e-4 of
    its largest entry; synthetic rank-r matrices, tall, wide and square,
    whose sigma_(r+1) / sigma_1 sweeps from 1e-16 to 0.1 and lands on
    each tolerance and just beside it; matrices whose sigma_r lies on or
    beside each tolerance; and the zero matrix.
    """
    rng = np.random.default_rng(1)
    for name, A, _ in rank_workload():
        yield name, A
        for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4):
            yield f"{name}+{eps:g}", A + eps * np.abs(A).max() * rng.standard_normal(A.shape)
    near = [tol * (1 + step) for tol in RANK_TOLS[:5] for step in (-1e-3, -1e-9, 0, 1e-9, 1e-3)]
    for n, m in ((64, 64), (160, 64), (64, 200), (96, 96)):
        for r in (1, 3, 6):
            def orthonormal(rows, cols):
                return np.linalg.qr(rng.standard_normal((rows, cols)))[0]
            for rho in [10.0 ** e for e in range(-16, 0)] + near:
                sigma = np.concatenate([np.logspace(0, -2, r), [rho, rho / 3]])
                yield f"{n}x{m} r{r} next {rho:.3g}", (orthonormal(n, r + 2) * sigma) @ orthonormal(m, r + 2).T
            for last in near:
                sigma = np.concatenate([np.logspace(0, -1, r - 1), [last]])
                yield f"{n}x{m} r{r} last {last:.3g}", (orthonormal(n, r) * sigma) @ orthonormal(m, r).T
    yield "zero", np.zeros((64, 80))


def forbidden_svd(*args, **kwargs):
    raise AssertionError("SVD taken")


def counted_svds(patch) -> list:
    """Patch ``np.linalg.svd`` to record the shape of each matrix it is given."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    patch.setattr(np.linalg, "svd", counted)
    return calls


def svd_count(A, rank_tol) -> int:
    return int(_rank_of_sigma(np.linalg.svd(A, compute_uv=False), rank_tol)) if A.any() else 0


class TestDecideRank:
    def test_every_decided_rank_is_the_svd_count(self):
        # the pass may take up to a quarter of the columns here, more than
        # the gate allows, so that deeper ranks are decided too
        decided, wrong = {tol: 0 for tol in RANK_TOLS}, []
        corpus = list(rank_corpus())
        for name, A in corpus:
            sigma = np.linalg.svd(A, compute_uv=False)
            for tol in RANK_TOLS:
                k = _pivoted_rank(A, tol, min(A.shape) // 4)
                want = int(_rank_of_sigma(sigma, tol)) if A.any() else 0
                if k is not None:
                    decided[tol] += 1
                    if k != want:
                        wrong.append((name, tol, k, want))
        assert wrong == []
        # the cutoff's own rounding leaves 1e-15 and 1 to the SVD
        assert decided[1e-15] == decided[1.0] == 0
        assert min(decided[tol] for tol in (1e-12, 1e-9, 1e-6, 1e-3)) > 0.6 * len(corpus)

    def test_workload_ranks_take_no_svd(self, monkeypatch):
        cases = list(rank_workload())
        monkeypatch.setattr(np.linalg, "svd", forbidden_svd)
        for name, A, r in cases:
            assert numeric_rank(A) == r, name
            assert numeric_rank(A, 1e-6) == r, name

    def test_small_matrices_take_the_svd(self, monkeypatch):
        rng = np.random.default_rng(2)
        for n, m in ((63, 200), (200, 63), (8, 8)):
            A = rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
            assert _pivoted_steps(n, m) == 0
            with monkeypatch.context() as patch:
                calls = counted_svds(patch)
                assert numeric_rank(A) == 2
            assert calls == [A.shape]
        assert _pivoted_steps(64, 64) == 4 and _pivoted_steps(256, 1000) == 16

    def test_undecided_falls_back_to_the_svd(self, monkeypatch):
        rng = np.random.default_rng(3)
        full = rng.standard_normal((64, 64))
        low = rng.standard_normal((128, 3)) @ rng.standard_normal((3, 128))
        for A, tol in ((full, DEFAULT_RANK_TOL), (low, 1e-15), (low, 1.0)):
            assert _pivoted_rank(A, tol, _pivoted_steps(*A.shape)) is None
            want = svd_count(A, tol)
            with monkeypatch.context() as patch:
                calls = counted_svds(patch)
                assert numeric_rank(A, tol) == want
            assert calls == [A.shape]

    def test_zero_matrix_has_rank_zero(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", forbidden_svd)
        assert numeric_rank(np.zeros((64, 80))) == 0
        assert _pivoted_rank(np.zeros((64, 80)), DEFAULT_RANK_TOL, 4) is None

    def test_sigma_min_floor_is_a_lower_bound(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 5, 12):
            for scale in (1.0, 1e-6, 1e3):
                R = np.triu(rng.standard_normal((k, k))) * scale
                true = np.linalg.svd(R, compute_uv=False)[-1]
                assert true / np.sqrt(k) / 1.01 <= _sigma_min_floor(R) <= true
        assert _sigma_min_floor(np.diag([1.0, 0.0])) == 0.0
        assert _sigma_min_floor(np.array([[1.0, 1e20], [0.0, 1e-20]])) == 0.0


class TestCompactSvd:
    def test_identity(self):
        svd = compact_svd(np.eye(3))
        assert svd.rank == 3
        np.testing.assert_allclose(svd.sigma, [1, 1, 1])

    def test_pyramid_rank_matches_exact_elimination(self):
        assert exact_integer_rank(PYRAMID_MATRIX) == 3
        assert compact_svd(PYRAMID_MATRIX).rank == 3

    def test_square_matrix_rank_two(self):
        assert exact_integer_rank(SQUARE_MATRIX) == 2
        assert compact_svd(SQUARE_MATRIX).rank == 2

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            compact_svd(np.zeros((2, 3)))

    def test_factors_orthonormal_and_reconstruct(self):
        rng = np.random.default_rng(7)
        for shape in [(5, 5), (8, 3), (4, 9), (50, 50)]:
            M = rng.standard_normal(shape)
            svd = compact_svd(M)
            np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(svd.rank), atol=1e-12)
            np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(svd.rank), atol=1e-12)
            recon = svd.U @ np.diag(svd.sigma) @ svd.V.T
            assert np.abs(recon - M).max() <= 1e-9 * np.abs(M).max()


class TestPseudoinverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_column_orthonormal(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(pseudoinverse(Q), Q.T, atol=1e-12)

    def test_penrose_identities_pyramid(self):
        M = PYRAMID_MATRIX
        P = pseudoinverse(M)
        for lhs, rhs in [
            (M @ P @ M, M),
            (P @ M @ P, P),
            ((M @ P).T, M @ P),
            ((P @ M).T, P @ M),
        ]:
            assert np.abs(lhs - rhs).max() < 1e-10


class TestSqrtPsd:
    def test_identity_and_diag(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(
            sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_pyramid_gram_round_trip(self):
        N = PYRAMID_MATRIX - 1.0
        A = N @ N.T
        S = sqrt_psd(A)
        assert np.abs(S @ S - A).max() <= 1e-9 * np.abs(A).max()

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9):
            B = rng.standard_normal((n, n))
            A = B @ B.T
            S = sqrt_psd(A)
            assert np.abs(S @ S - A).max() <= 1e-8 * np.abs(A).max()

    def test_not_psd(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestSignature:
    def test_examples(self):
        assert signature(np.diag([1.0, 1.0, -1.0])) == (2, 1, 0)
        assert signature(np.eye(4)) == (4, 0, 0)
        assert signature(np.eye(3)) == (3, 0, 0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            G = random_form_matrix(rng, n, int(rng.integers(0, n + 1)))
            while True:
                A = rng.standard_normal((n, n))
                if abs(np.linalg.det(A)) > 1e-3:
                    break
            assert signature(A.T @ G @ A) == signature(G)


class TestBilinearForm:
    def test_euclidean_and_hyperbolic(self):
        f = BilinearForm.euclidean(4)
        assert f.signature == (4, 0)
        h = BilinearForm.hyperbolic(4)
        assert h.signature == (3, 1)
        assert h.det_sign() == -1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            BilinearForm.from_matrix(np.diag([1.0, 0.0]))


class TestFactorAgainstForm:
    def test_identity(self):
        f = BilinearForm.euclidean(3)
        H = factor_against_form(np.eye(3), f)
        assert np.abs(H.T @ f.phi @ H - np.eye(3)).max() < 1e-10

    def test_indefinite(self):
        f = BilinearForm.hyperbolic(3)
        G = np.diag([1.0, 1.0, -1.0])
        H = factor_against_form(G, f)
        assert np.abs(H.T @ f.phi @ H - G).max() < 1e-10

    def test_rectangular_with_zeros(self):
        rng = np.random.default_rng(2)
        f = BilinearForm.hyperbolic(3)
        B = rng.standard_normal((5, 3))
        G = B @ f.phi @ B.T
        if signature(G) == (2, 1, 2):
            H = factor_against_form(G, f)
            assert H.shape == (3, 5)
            assert np.abs(H.T @ f.phi @ H - G).max() < 1e-9 * np.abs(G).max()

    def test_signature_mismatch(self):
        f = BilinearForm.hyperbolic(3)
        with pytest.raises(SignatureMismatchError):
            factor_against_form(np.eye(3), f)


class TestHodgeStar:
    def test_cross_product_euclidean(self):
        f = BilinearForm.euclidean(3)
        e = np.eye(3)
        np.testing.assert_allclose(hodge_star([e[:, 0], e[:, 1]], f), e[:, 2], atol=1e-14)

    def test_lorentzian_flips_last_axis(self):
        f = BilinearForm.hyperbolic(3)
        e = np.eye(3)
        np.testing.assert_allclose(hodge_star([e[:, 0], e[:, 1]], f), -e[:, 2], atol=1e-14)

    def test_dependent_inputs_vanish(self):
        f = BilinearForm.euclidean(3)
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(hodge_star([v, 2 * v], f), np.zeros(3), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_alternation_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        f = BilinearForm.euclidean(d + 1)
        vecs = [rng.standard_normal(d + 1) for _ in range(d)]
        v = hodge_star(vecs, f)
        swapped = list(vecs)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        np.testing.assert_allclose(hodge_star(swapped, f), -v, atol=1e-12 * max(1, np.abs(v).max()))
        scaled = [vecs[0] * 2.5] + vecs[1:]
        np.testing.assert_allclose(hodge_star(scaled, f), 2.5 * v, atol=1e-11 * max(1, np.abs(v).max()))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_defining_identity_against_determinant(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        negatives = int(rng.integers(0, 2))  # signatures (d+1, 0) and (d, 1)
        phi = random_form_matrix(rng, d + 1, negatives)
        form = BilinearForm.from_matrix(phi)
        vecs = [rng.standard_normal(d + 1) for _ in range(d)]
        v = hodge_star(vecs, form)
        for x in vecs:
            assert abs(form.value(v, x)) < 1e-10
        probe = rng.standard_normal(d + 1)
        lhs = form.value(v, probe)
        rhs = top_star(form.phi, vecs + [probe])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_shape_validation(self):
        f = BilinearForm.euclidean(3)
        with pytest.raises(DimensionMismatchError):
            hodge_star([np.ones(3)], f)


class TestLpStrictFeasibility:
    """The reference simplex that the closed-form facet LP is checked against."""

    def test_basic_feasible(self):
        res = simplex_strict_feasibility(
            [([1.0, 0.0], 1.0)], [([0.0, 1.0], 1.0), ([-1.0, 0.0], 1.0)]
        )
        assert res.feasible
        h = res.witness
        assert abs(h[0] - 1.0) < 1e-9
        assert h[1] < 1.0 and -h[0] < 1.0
        # the reported margin is achieved by the witness
        assert h[1] <= 1.0 - res.margin + 1e-9

    def test_inconsistent_equalities(self):
        res = simplex_strict_feasibility([([1.0, 0.0], 1.0), ([1.0, 0.0], 2.0)], [])
        assert not res.feasible

    def test_empty_is_feasible_with_cap(self):
        res = simplex_strict_feasibility([], [])
        assert res.feasible
        assert res.margin == 1e6

    def test_unbounded_capped(self):
        # h can run to -infinity along the single constraint
        res = simplex_strict_feasibility([], [([1.0], 0.0)])
        assert res.feasible
        assert res.margin == pytest.approx(1e6)

    def test_strict_needs_margin(self):
        # only h = 0 satisfies both weak inequalities: no strict margin
        res = simplex_strict_feasibility([], [([1.0], 0.0), ([-1.0], 0.0)])
        assert not res.feasible

    def test_witness_satisfies_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            eqs = [(rng.standard_normal(dim), float(rng.standard_normal()))
                   for _ in range(rng.integers(0, 2))]
            ups = [(rng.standard_normal(dim), float(rng.standard_normal()))
                   for _ in range(rng.integers(1, 5))]
            res = simplex_strict_feasibility(eqs, ups)
            if res.feasible:
                for a, b in eqs:
                    assert abs(a @ res.witness - b) < 1e-6
                for a, b in ups:
                    assert a @ res.witness < b - res.margin + 1e-6


# B = -U[:, :4] of the cone warm start's last truncation (d = 3) for
# relation 1 of TestRandomPolytopes().collect(6, seed=33), 10 facets and 7
# vertices; a two-phase simplex called the system below infeasible.
WARM_START_B = np.array([
    [-0.3242244008712875, 0.29700655907067897, 0.4186671904619746, -0.2417176151140833],
    [-0.312533139712534, -0.06715735845279289, 0.5137396479464884, 0.29660772403529295],
    [-0.30261908329067466, 0.4985920521023896, 5.49931417556029e-16, -1.0354462502705164e-15],
    [-0.32422440087128923, 0.2970065590706765, -2.4644131427906392e-15, 0.4834352302281705],
    [-0.3125331397125334, -0.06715735845279355, 4.811071274884351e-15, -0.5932154480705795],
    [-0.32422440087128873, 0.29700655907067686, -0.4186671904619731, -0.2417176151140873],
    [-0.312533139712535, -0.06715735845279351, -0.513739647946492, 0.2966077240352851],
    [-0.31624168701145366, -0.39717206380620695, 0.24655497918008817, 0.14234858359966682],
    [-0.31624168701145433, -0.39717206380620695, -0.24655497918008856, 0.14234858359966351],
    [-0.31624168701145283, -0.39717206380620684, 3.3593233217251423e-15, -0.284697167199333],
])


class TestLpRegressions:
    def test_warm_start_system_is_feasible(self):
        # z = (-1, 0, 0, 0) gives min(B z) = 0.30, so the capped margin is reached
        ups = [(-WARM_START_B[l], 0.0) for l in range(10)]
        res = simplex_strict_feasibility([], ups, dim=4)
        assert res.feasible
        assert res.margin == 1e6
        for a, b in ups:
            assert a @ res.witness < b

    def test_equalities_that_fix_h_take_one_pivot(self, monkeypatch):
        calls = []
        original = oracles._pivot

        def counted(*args):
            calls.append(args)
            original(*args)

        monkeypatch.setattr(oracles, "_pivot", counted)
        # w1 and w2 fix h = (1, 1); the least slack is 1 - <h, w4> = 0.5
        W = np.array([[1.0, 0.0, -1.0, 0.2], [0.0, 1.0, -1.0, 0.3]])
        res = simplex_strict_feasibility([(W[:, 0], 1.0), (W[:, 1], 1.0)],
                                         [(W[:, 2], 1.0), (W[:, 3], 1.0)])
        assert res.feasible
        np.testing.assert_allclose(res.witness, [1.0, 1.0])
        assert res.margin == pytest.approx(0.5)
        assert len(calls) == 1

    def test_fixed_h_violating_a_row_is_infeasible(self):
        res = simplex_strict_feasibility([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)],
                                         [([1.0, 1.0], 1.5)])
        assert not res.feasible
        assert res.margin == pytest.approx(-0.5)


class TestFacetLp:
    """The closed-form facet LP on systems whose optimum is known."""

    # w1 and w2 fix h = (1, 1): margins 1 - <h, w_j> = 3 and 0.5 off the facet
    W = np.array([[1.0, 0.0, -1.0, 0.2], [0.0, 1.0, -1.0, 0.3]])
    FACET = np.array([True, True, False, False])

    def test_facet_that_fixes_h(self):
        assert lp_strict_feasibility(self.W, self.FACET) == pytest.approx(0.5)

    def test_vertex_beyond_the_hyperplane(self):
        W = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.5]])
        assert lp_strict_feasibility(W, [True, True, False]) == pytest.approx(-0.5)

    def test_hyperplane_through_the_origin(self):
        W = self.W - self.W[:, [0]]
        assert lp_strict_feasibility(W, self.FACET) == -np.inf

    def test_facet_whose_vertices_all_sit_at_the_origin(self):
        # no h has <h, 0> = 1, whatever rounding residue the hyperplane's
        # constant term carries
        assert lp_strict_feasibility([[0.0, 3.0]], [True, False]) == -np.inf
        assert lp_strict_feasibility([[3.0, 0.0, -2.0]], [False, True, False]) == -np.inf

    def test_origin_off_the_affine_hull(self):
        # the constant term is free: the margin grows without bound
        W = np.vstack([self.W, np.ones(4)])
        assert lp_strict_feasibility(W, self.FACET) == np.inf
        # a vertex on each side of the facet's hyperplane: no strict margin
        W[:2, 3] = 2.0
        assert lp_strict_feasibility(W, self.FACET) == 0.0

    def test_two_free_directions_raise(self):
        # one vertex of a polygon leaves h a pencil of lines through it
        with pytest.raises(ValueError, match="2 free directions"):
            lp_strict_feasibility(self.W, [True, False, False, False])


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        M = np.array([[1.0, -3.5e-7], [2.0 / 3.0, 1e12]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        np.testing.assert_array_equal(read_matrix_csv(path), M)

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert read_matrix_csv(path).shape == (1, 3)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nthree,4\n")
        with pytest.raises(MatrixFormatError):
            read_matrix_csv(path)
