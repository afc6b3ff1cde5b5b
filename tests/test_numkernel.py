"""Linear algebra kernel: SVD, pseudoinverse, forms, Hodge star, LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrealize import (
    BilinearForm,
    compact_svd,
    factor_against_form,
    hodge_star,
    lp_strict_feasibility,
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
from polyrealize import numkernel
from polyrealize.numkernel import read_matrix_csv, write_matrix_csv

from conftest import PYRAMID_MATRIX, SQUARE_MATRIX
from oracles import exact_integer_rank, random_form_matrix, top_star


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
    def test_basic_feasible(self):
        res = lp_strict_feasibility(
            [([1.0, 0.0], 1.0)], [([0.0, 1.0], 1.0), ([-1.0, 0.0], 1.0)]
        )
        assert res.feasible
        h = res.witness
        assert abs(h[0] - 1.0) < 1e-9
        assert h[1] < 1.0 and -h[0] < 1.0
        # the reported margin is achieved by the witness
        assert h[1] <= 1.0 - res.margin + 1e-9

    def test_inconsistent_equalities(self):
        res = lp_strict_feasibility([([1.0, 0.0], 1.0), ([1.0, 0.0], 2.0)], [])
        assert not res.feasible

    def test_empty_is_feasible_with_cap(self):
        res = lp_strict_feasibility([], [])
        assert res.feasible
        assert res.margin == 1e6

    def test_unbounded_capped(self):
        # h can run to -infinity along the single constraint
        res = lp_strict_feasibility([], [([1.0], 0.0)])
        assert res.feasible
        assert res.margin == pytest.approx(1e6)

    def test_strict_needs_margin(self):
        # only h = 0 satisfies both weak inequalities: no strict margin
        res = lp_strict_feasibility([], [([1.0], 0.0), ([-1.0], 0.0)])
        assert not res.feasible

    def test_witness_satisfies_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            eqs = [(rng.standard_normal(dim), float(rng.standard_normal()))
                   for _ in range(rng.integers(0, 2))]
            ups = [(rng.standard_normal(dim), float(rng.standard_normal()))
                   for _ in range(rng.integers(1, 5))]
            res = lp_strict_feasibility(eqs, ups)
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
        res = lp_strict_feasibility([], ups, dim=4)
        assert res.feasible
        assert res.margin == 1e6
        for a, b in ups:
            assert a @ res.witness < b

    def test_equalities_that_fix_h_take_one_pivot(self, monkeypatch):
        calls = []
        original = numkernel._pivot

        def counted(*args):
            calls.append(args)
            original(*args)

        monkeypatch.setattr(numkernel, "_pivot", counted)
        # w1 and w2 fix h = (1, 1); the least slack is 1 - <h, w4> = 0.5
        W = np.array([[1.0, 0.0, -1.0, 0.2], [0.0, 1.0, -1.0, 0.3]])
        res = lp_strict_feasibility([(W[:, 0], 1.0), (W[:, 1], 1.0)],
                                    [(W[:, 2], 1.0), (W[:, 3], 1.0)])
        assert res.feasible
        np.testing.assert_allclose(res.witness, [1.0, 1.0])
        assert res.margin == pytest.approx(0.5)
        assert len(calls) == 1

    def test_fixed_h_violating_a_row_is_infeasible(self):
        res = lp_strict_feasibility([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)],
                                    [([1.0, 1.0], 1.5)])
        assert not res.feasible
        assert res.margin == pytest.approx(-0.5)


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
