import ast
import inspect
import math

import numpy as np
import pytest

from helpers import MAP_RTOL, cs_basis, random_basis, random_orthogonal
from subpred import _linalg, predictor
from subpred._linalg import (
    EPS, IDENTITY_ERROR_TOL, QuadraticForms, _cholesky_certificate, full_row_rank,
    member_predictions, prediction_map, spectral_norm, svd,
)
from subpred.errors import RankDeficientError
from subpred.grassmann import BehaviorBasis, Geodesic
from subpred.hankel import hankel
from subpred.predictor import _basis_map


class TestSvd:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 2)])
    def test_empty_or_zero_matrix_has_rank_zero(self, shape):
        zero = np.zeros(shape)
        assert svd(zero)[3] == 0
        assert svd(zero, vectors=True)[3] == 0
        assert spectral_norm(zero) == 0.0

    def test_cutoff_is_relative_and_strict(self):
        # cutoff max(rows, cols) * eps * sigma_max = 2 eps for diag(1, t)
        assert svd(np.diag([1.0, 3 * EPS]))[3] == 2
        assert svd(np.diag([1.0, 2 * EPS]))[3] == 1
        assert svd(np.diag([1e-300, 1e-301]))[3] == 2  # relative: tiny is not zero

    def test_values_and_vectors_match_numpy(self, rng):
        M = rng.standard_normal((7, 4))
        U, s, Vt, rank = svd(M, vectors=True)
        for got, expected in zip((U, s, Vt), np.linalg.svd(M, full_matrices=False)):
            np.testing.assert_array_equal(got, expected)
        assert rank == 4
        U, s, Vt, _ = svd(M)
        assert U is None and Vt is None
        np.testing.assert_array_equal(s, np.linalg.svd(M, compute_uv=False))


class TestGramRoute:
    """`svd` with ``least``: the eigendecomposition of the smaller Gram
    matrix answers when it proves the rank and the vectors; the SVD
    answers otherwise.  `full_row_rank`: one Cholesky of the shifted Gram
    matrix certifies a clear full rank, and the SVD decides the rest."""

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])  # squares under/overflow
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6)], ids=["wide", "tall", "square"])
    def test_leading_vectors_match_the_svd(self, rng, svd_calls, shape, scale):
        M = scale * rng.standard_normal(shape)
        U, s, Vt, rank = svd(M, vectors=True, least=3)
        assert svd_calls == [] and svd_calls.eigh == [(min(shape),) * 2] and rank == 3
        Ue, se, Vte = np.linalg.svd(M, full_matrices=False)
        signs = np.sign(np.sum(U * Ue[:, :3], axis=0))
        np.testing.assert_allclose(U * signs, Ue[:, :3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(s, se[:3], rtol=1e-12)
        if shape[0] < shape[1]:
            assert Vt is None  # a wide matrix's eigenvectors give U only
        else:
            signs = np.sign(np.sum(Vt * Vte, axis=1))
            np.testing.assert_allclose(Vt * signs[:, None], Vte, rtol=0, atol=1e-12)

    def test_full_row_rank_from_one_cholesky(self, rng, svd_calls):
        assert full_row_rank(rng.standard_normal((4, 9)))
        assert svd_calls == [] and svd_calls.cholesky == [(4, 4)]
        assert svd_calls.eigvalsh == [] and svd_calls.eigh == []

    @pytest.mark.parametrize(
        "M",
        [
            np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 5.0]),  # rank one
            np.diag([1.0, 1e-9]),  # lambda_2 = 1e-18 is below 4 eps lambda_1
            np.array([[1.0, np.nan], [0.0, 1.0]]),  # a non-finite entry
            np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 2.0]]),
            np.ones((3, 2)),  # more rows than columns
            hankel(np.tile([1.0, -1.0], 10)[:, None], 3),  # a rank-2 Hankel matrix
        ],
        ids=["rank-one", "ill-conditioned", "nan", "inf", "tall", "rank-deficient-hankel"],
    )
    def test_unproven_rank_is_the_svds(self, M, svd_calls):
        # the certificate declines, and the answer is the SVD's own (or its
        # own error), from the one SVD that full_row_rank then makes
        assert not _cholesky_certificate(M)
        try:
            expected = svd(M)[3] == len(M)
        except np.linalg.LinAlgError:
            svd_calls.clear()
            with pytest.raises(np.linalg.LinAlgError):
                full_row_rank(M)
            assert svd_calls == [M.shape]
            return
        svd_calls.clear()
        assert full_row_rank(M) == expected
        assert svd_calls == [M.shape]

    # sigma_n / sigma_1 from 1e-4 to 1e-9 straddles the certificate's
    # threshold, about 3e-7 for these shapes, while the SVD finds full rank
    # throughout; a certified matrix has full rank by the SVD, and a
    # declined one gets the SVD's answer from the one SVD that follows
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])  # squares under/overflow
    @pytest.mark.parametrize("shape", [(6, 10), (10, 6), (7, 7)], ids=["wide", "tall", "square"])
    def test_certificate_against_the_svd(self, svd_calls, shape, scale):
        n = min(shape)
        certified = set()
        for seed, floor in enumerate(np.geomspace(1e-4, 1e-9, 16)):
            rng = np.random.default_rng(seed)
            Q = random_orthogonal(rng, shape[0])[:, :n]
            M = scale * (Q @ np.diag(np.geomspace(1.0, floor, n)) @ random_orthogonal(rng, shape[1])[:n])
            expected_rank = svd(M)[3]
            svd_calls.clear()
            proven = _cholesky_certificate(M)
            assert svd_calls.cholesky == [(n, n)] and svd_calls == []
            if proven:
                assert expected_rank == n
            svd_calls.clear()
            answer = full_row_rank(M)
            assert answer == (expected_rank == shape[0])
            assert svd_calls == ([] if proven and shape[0] <= shape[1] else [shape])
            certified.add(proven)
        assert certified == {True, False}

    def test_close_singular_values_leave_the_vectors_to_the_svd(self, rng, svd_calls):
        # lambda_2 - lambda_3 = 2e-9 against eps lambda_1 = 3.6e-15: the
        # estimate 1.8e-6 exceeds IDENTITY_ERROR_TOL, and the full rank alone
        # is still proven, by the certificate
        M = np.diag([4.0, 1.0 + 1e-9, 1.0])
        assert full_row_rank(M) and svd_calls == []
        U = svd(M, vectors=True, least=2)[0]
        assert svd_calls == [(3, 3)]
        np.testing.assert_array_equal(U, np.linalg.svd(M)[0])


    def test_tall_route_returns_only_rounding_orthonormal_vectors(self, svd_calls):
        # sigma_5 / sigma_1 from 0.5 down to 1e-3, past which the V
        # estimate declines: each U is either the route's, with
        # ||U'U - I||_F at most 8 * 5 * eps, or the SVD's
        routes = set()
        for seed, floor in enumerate(np.geomspace(0.5, 1e-3, 20)):
            rng = np.random.default_rng(seed)
            M = random_orthogonal(rng, 8)[:, :5] @ np.diag(np.geomspace(1.0, floor, 5)) @ random_orthogonal(rng, 5)
            svd_calls.clear()
            U = svd(M, vectors=True, least=5)[0]
            if svd_calls == []:
                assert np.linalg.norm(U.T @ U - np.eye(5)) <= 40 * EPS
            else:
                np.testing.assert_array_equal(U, np.linalg.svd(M, full_matrices=False)[0])
            routes.add(svd_calls == [])
        assert routes == {True, False}


class TestSpectralNorm:
    """sigma_max from the smaller Gram matrix, against the SVD's."""

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])  # squares under/overflow
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 40), (40, 3), (9, 9)])
    def test_matches_largest_singular_value(self, rng, shape, scale):
        M = scale * rng.standard_normal(shape)
        expected = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(spectral_norm(M) - expected) <= 32 * EPS * expected

    def test_makes_no_svd(self, rng, svd_calls):
        spectral_norm(rng.standard_normal((3, 40)))
        assert svd_calls == []

    def test_non_finite_entry_is_not_hidden(self):
        # eigvalsh of a Gram matrix with a NaN entry can return finite values
        M = np.eye(3)
        M[0, 0] = np.inf
        assert spectral_norm(M) == np.inf
        M[0, 0] = np.nan
        assert np.isnan(spectral_norm(M))


class TestOrthonormalMap:
    """The map of an orthonormal basis from its output Gram matrix, read as a
    one-piece family by `member_predictions` through `predictor._basis_map`,
    against the SVD map that `prediction_map` builds."""

    DIMS = [(2, 3, 3, 3), (3, 3, 10, 10), (4, 4, 16, 16)]

    @pytest.mark.parametrize(
        "dims", [pytest.param(dims, id=f"dims{i}") for i, dims in enumerate(DIMS)]
    )
    def test_matches_svd_map_on_random_mimo_bases(self, rng, svd_calls, dims):
        m, p, Tini, Tf = dims
        r = m * (Tini + Tf) + 2 * p
        bases = [random_basis(rng, dims, r) for _ in range(3)]
        bases += [cs_basis(rng, dims, r, sigma_min) for sigma_min in (0.03, 0.3)]
        for U in bases:
            ref_matrix, ref_rank, ref_sigma_min = prediction_map(U.context_block, U.y_future)
            svd_calls.clear()
            pred, rank, sigma_min = _basis_map(U.context_block, U.y_future, U.gram_defect)
            assert svd_calls == []  # the Gram route: one eigvalsh and one solve
            assert svd_calls.eigvalsh == svd_calls.solve == [(p * Tf, p * Tf)]
            assert pred.shape == ref_matrix.shape and pred.flags.c_contiguous
            assert rank == ref_rank == r
            gap = np.linalg.norm(pred - ref_matrix) / np.linalg.norm(ref_matrix)
            assert gap <= MAP_RTOL
            assert abs(sigma_min - ref_sigma_min) <= MAP_RTOL * ref_sigma_min

    @pytest.mark.parametrize(
        "dims", [pytest.param(dims, id=f"dims{i}") for i, dims in enumerate(DIMS)]
    )
    def test_svd_map_of_first_p_future_rows_matches_gram_maps_rows(self, rng, svd_calls, dims):
        # a declined sweep member maps its first p future rows by one SVD;
        # that is the first p rows of the Gram route's map, to rounding
        m, p, Tini, Tf = dims
        r = m * (Tini + Tf) + 2 * p
        bases = [random_basis(rng, dims, r) for _ in range(2)]
        bases += [cs_basis(rng, dims, r, sigma_min) for sigma_min in (0.03, 0.3)]
        for U in bases:
            gram_matrix, _, gram_sigma_min = _basis_map(
                U.context_block, U.y_future, U.gram_defect
            )
            svd_calls.clear()
            pred, rank, sigma_min = prediction_map(U.context_block, U.y_future[:p])
            assert svd_calls == [U.context_block.shape] and svd_calls.solve == []
            assert pred.shape == (p, U.context_block.shape[0])
            assert rank == r
            reference = gram_matrix[:p]
            assert np.linalg.norm(pred - reference) <= MAP_RTOL * np.linalg.norm(reference)
            assert abs(sigma_min - gram_sigma_min) <= MAP_RTOL * gram_sigma_min

    def test_wide_context_rows_decline(self, rng, svd_calls):
        # 6 context rows for 7 columns: sigma_min = 0, so 1 - lambda_max(K) = 0;
        # the guard declines before any solve, and the SVD finds the rank
        U = random_basis(rng, (1, 1, 1, 4), 7)
        assert U.context_block.shape == (6, 7)
        with pytest.raises(RankDeficientError, match=r"rank 6 for 7 columns, sigma_min = 0\.000e\+00$"):
            _basis_map(U.context_block, U.y_future, U.gram_defect)
        assert svd_calls == [(6, 7)] and svd_calls.solve == [] and svd_calls.eigvalsh == [(4, 4)]
        reference, ref_rank, ref_sigma_min = prediction_map(U.context_block, U.y_future)
        assert reference.shape == (4, 6)
        assert ref_rank == 6
        # sigma_7 of 7 columns, not sigma_6, the smallest of the 6 rows
        assert ref_sigma_min == 0.0


class TestMemberGuard:
    """`member_predictions`' guard, the one place that reads a Gram matrix's
    gap 1 - lambda_max(K), by one eigvalsh: the member is read while
    error / gap is at most IDENTITY_ERROR_TOL, and declined, before any
    solve, otherwise."""

    @pytest.mark.parametrize("error", [1e-12, 5e-11])
    @pytest.mark.parametrize("factor, admitted", [(1.05, True), (0.95, False)])
    def test_splits_at_the_threshold(self, rng, svd_calls, error, factor, admitted):
        gap = factor * error / IDENTITY_ERROR_TOL
        Q = random_orthogonal(rng, 6)
        gram = (Q * np.array([1.0 - gap, 0.5, 0.4, 0.3, 0.2, 0.0])) @ Q.T
        gram = (gram + gram.T) / 2
        forms = QuadraticForms([gram], [rng.standard_normal((3, 6))], error)
        got = member_predictions(forms, (1.0,), 6)
        # rows = len(K): the guard's lambda_max gives the norm, no second eigvalsh
        assert svd_calls.eigvalsh == [(6, 6)] and svd_calls == []
        assert svd_calls.solve == ([(6, 6)] if admitted else [])
        if admitted:
            top = float(np.linalg.eigvalsh(gram).max())
            assert got[1] == math.sqrt(1.0 - top)
            assert got[1] ** 2 == pytest.approx(gap, rel=1e-4)
            assert got[2] == math.sqrt(top)
        else:
            assert got is None

    def test_empty_gram_is_unreachable(self, rng):
        # every basis has p * Tf >= 1 future rows, so K is never empty
        data = random_orthogonal(rng, 2)[:, :1]
        with pytest.raises(ValueError, match="^Tf must be positive, got 0$"):
            BehaviorBasis(data, 1, 1, 1, 0)
        with pytest.raises(ValueError, match="^p must be positive, got 0$"):
            BehaviorBasis(data, 2, 0, 1, 0)

    def test_nan_declines(self):
        forms = QuadraticForms([np.eye(3) / 2], [np.eye(3)], np.nan)
        assert member_predictions(forms, (1.0,), 3) is None
        with np.errstate(invalid="ignore"):
            forms = QuadraticForms([np.full((2, 2), np.nan)], [np.eye(2)], 0.0)
            assert member_predictions(forms, (1.0,), 2) is None

    def test_each_form_sets_its_error_expression(self, rng, monkeypatch):
        errors = []

        def recorded(forms, weights, rows):
            errors.append(forms.error)
            return member_predictions(forms, weights, rows)

        monkeypatch.setattr(predictor, "member_predictions", recorded)
        dims = (2, 3, 3, 3)
        r = 2 * (3 + 3) + 2 * 3
        U = cs_basis(rng, dims, r, 0.3)
        q = len(U.context_block) + len(U.y_future)
        _basis_map(U.context_block, U.y_future, U.gram_defect)
        assert errors == [U.gram_defect + q * EPS]
        geodesic = Geodesic.draw(U, 5)
        forms = geodesic.forms(np.eye(len(U.context_block)))
        assert forms.error == geodesic.defect + (q + r + 7) * EPS
        assert member_predictions(forms, geodesic.weights(0.1), 3) is not None


def test_every_factorization_kind_is_counted(svd_calls):
    # each np.linalg function that _linalg calls, norm aside, is one that
    # the svd_calls fixture records, so no factorization kind escapes the
    # count tests
    called = {
        node.func.attr
        for node in ast.walk(ast.parse(inspect.getsource(_linalg)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) == "np.linalg"
    }
    assert "cholesky" in called
    assert called - {"norm"} <= {"svd", *svd_calls.KINDS}
