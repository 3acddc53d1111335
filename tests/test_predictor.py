import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conditioned_invertible, cs_basis, random_basis, random_model, random_orthogonal
from subpred import (
    NoiseSpec,
    StateSpaceModel,
    one_step,
    orthonormal_basis,
    predict_from_subspace,
    pseudoinverse,
    rolling_one_step,
    simulate,
    stacked_data_matrix,
    subspace_predict,
    trajectory_generation_matrix,
)
from subpred._linalg import EPS, IDENTITY_ERROR_TOL, member_predictions, prediction_map
from subpred.errors import RankDeficientError
from subpred.grassmann import BehaviorBasis, Geodesic
from subpred.hankel import PartitionedMatrix, persistently_exciting_input
from subpred.predictor import PredictionContext, _basis_map, context_windows


CONTEXT_FIELDS = pytest.mark.parametrize("field", ["u_ini", "u", "y_ini"])


def _noise_free_data(model, Tini, Tf, seed=0, T=None):
    L = Tini + Tf
    if T is None:
        T = (model.m + 1) * (model.n + L) + 12
    u = persistently_exciting_input(model.m, T, order=model.n + L, seed=seed)
    traj = simulate(model, u, x0=np.random.default_rng(seed + 1).standard_normal(model.n))
    return stacked_data_matrix(traj.inputs, traj.outputs, Tini, Tf)


def _true_window_context(model, Tini, Tf, seed=0):
    """A genuine trajectory window: context plus the matching true future."""
    rng = np.random.default_rng(seed)
    T = Tini + Tf + 6
    traj = simulate(model, rng.standard_normal((T, model.m)), x0=rng.standard_normal(model.n))
    t = 5
    ctx = PredictionContext(
        u_ini=traj.inputs[t : t + Tini],
        u=traj.inputs[t + Tini : t + Tini + Tf],
        y_ini=traj.outputs[t : t + Tini],
        m=model.m, p=model.p, Tini=Tini, Tf=Tf,
    )
    future = traj.outputs[t + Tini : t + Tini + Tf].reshape(-1)
    return ctx, future


class TestPseudoinverse:
    def test_invertible_matches_inverse(self, rng):
        M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        np.testing.assert_allclose(pseudoinverse(M), np.linalg.inv(M), atol=1e-10)

    def test_singular_diagonal(self):
        np.testing.assert_array_equal(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0])
        )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_full_column_rank_left_inverse(self, rng):
        M = rng.standard_normal((7, 4))
        np.testing.assert_allclose(pseudoinverse(M) @ M, np.eye(4), atol=1e-10)
        # oracle: normal-equations solve
        oracle = np.linalg.solve(M.T @ M, M.T)
        np.testing.assert_allclose(pseudoinverse(M), oracle, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_moore_penrose_identities(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((rows, cols))
        if rng.uniform() < 0.3 and min(rows, cols) > 1:
            M[:, -1] = M[:, 0]  # force rank deficiency sometimes
        P = pseudoinverse(M)
        scale = max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * max(1.0, np.linalg.norm(P))
        assert np.linalg.norm((M @ P).T - M @ P) <= 1e-8
        assert np.linalg.norm((P @ M).T - P @ M) <= 1e-8


class TestSubspacePredict:
    def test_zero_context_zero_prediction(self, rng, example_model):
        X = _noise_free_data(example_model, 2, 2)
        ctx = PredictionContext(
            u_ini=np.zeros(2), u=np.zeros(2), y_ini=np.zeros(2), m=1, p=1, Tini=2, Tf=2
        )
        assert np.all(subspace_predict(X, ctx).y_pred == 0.0)

    def test_linearity_in_context(self, rng, example_model):
        X = _noise_free_data(example_model, 2, 2)
        b1 = rng.standard_normal(6)
        b2 = rng.standard_normal(6)
        a, c = 2.5, -1.25

        def ctx_of(b):
            return PredictionContext(
                u_ini=b[:2], u=b[2:4], y_ini=b[4:], m=1, p=1, Tini=2, Tf=2
            )

        lhs = subspace_predict(X, ctx_of(a * b1 + c * b2)).y_pred
        rhs = a * subspace_predict(X, ctx_of(b1)).y_pred + c * subspace_predict(X, ctx_of(b2)).y_pred
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_exact_on_true_behavior(self, example_model):
        # oracle: simulate the model forward over the same window
        Tini, Tf = 4, 4
        X = _noise_free_data(example_model, Tini, Tf)
        U = orthonormal_basis(X, 1 * (Tini + Tf) + 2)
        ctx, future = _true_window_context(example_model, Tini, Tf, seed=11)
        pred = predict_from_subspace(U, ctx)
        assert np.linalg.norm(pred.y_pred - future) <= 1e-8

    def test_exact_on_true_behavior_multichannel(self, rng):
        # pins the channel-within-time-step stacking across modules
        for seed in range(3):
            model = random_model(rng, n=2, m=2, p=2)
            Tini, Tf = 2, 3
            X = _noise_free_data(model, Tini, Tf, seed=seed)
            U = orthonormal_basis(X, model.m * (Tini + Tf) + model.n)
            ctx, future = _true_window_context(model, Tini, Tf, seed=seed + 20)
            pred = predict_from_subspace(U, ctx)
            scale = max(1.0, np.linalg.norm(future))
            assert np.linalg.norm(pred.y_pred - future) <= 1e-8 * scale

    def test_dimension_mismatch_rejected(self, rng, example_model):
        X = _noise_free_data(example_model, 2, 2)
        ctx = PredictionContext(
            u_ini=np.zeros(3), u=np.zeros(2), y_ini=np.zeros(3), m=1, p=1, Tini=3, Tf=2
        )
        with pytest.raises(ValueError, match="do not match"):
            subspace_predict(X, ctx)
        # each dim is read as an index: a float is rejected, a numpy integer
        # is kept as an int
        vectors = (np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            PredictionContext(*vectors, 1.0, 1, 2, 2)
        ctx = PredictionContext(*vectors, *map(np.int64, (1, 1, 2, 2)))
        assert [type(d) for d in (ctx.m, ctx.p, ctx.Tini, ctx.Tf)] == [int] * 4

    @CONTEXT_FIELDS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_context_rejected(self, field, bad):
        vectors = {"u_ini": [0.0] * 4, "u": [0.0] * 4, "y_ini": [0.0] * 4}
        vectors[field][2] = bad
        message = rf"^{field} has non-finite entries: {field}\[2\] is {bad}$"
        with pytest.raises(ValueError, match=message):
            PredictionContext(**vectors, m=1, p=1, Tini=4, Tf=4)

    @CONTEXT_FIELDS
    def test_context_window_read_time_major(self, rng, field):
        # m = p = 2, Tini = 3, Tf = 4: a block's (steps, 2) window gives the
        # bits of its flat vector, and the (2, steps) transpose is refused
        dims = {"m": 2, "p": 2, "Tini": 3, "Tf": 4}
        vectors = {"u_ini": rng.standard_normal(6), "u": rng.standard_normal(8),
                   "y_ini": rng.standard_normal(6)}
        flat = PredictionContext(**vectors, **dims)
        window = vectors[field].reshape(-1, 2)
        ctx = PredictionContext(**{**vectors, field: window}, **dims)
        assert getattr(ctx, field).shape == vectors[field].shape
        assert ctx.b.tobytes() == flat.b.tobytes()
        steps = len(window)
        message = rf"^{field} must be 1-dimensional or of shape \({steps}, 2\), got shape \(2, {steps}\)$"
        with pytest.raises(ValueError, match=message):
            PredictionContext(**{**vectors, field: window.T}, **dims)

    def test_diagnostics_reported(self, example_model):
        X = _noise_free_data(example_model, 2, 2)
        ctx, _ = _true_window_context(example_model, 2, 2)
        pred = subspace_predict(X, ctx)
        assert pred.sigma_min >= 0.0
        assert pred.effective_rank == 1 * 4 + 2


class TestRepresentationInvariance:
    def test_orthogonal_rebasing(self, rng, example_model):
        X = _noise_free_data(example_model, 3, 3)
        U = orthonormal_basis(X, 8)
        ctx, _ = _true_window_context(example_model, 3, 3, seed=3)
        base = predict_from_subspace(U, ctx).y_pred
        for _ in range(5):
            Q = random_orthogonal(rng, 8)
            rotated = BehaviorBasis(U.matrix @ Q, *U.dims)
            np.testing.assert_allclose(
                predict_from_subspace(rotated, ctx).y_pred, base, atol=1e-10
            )

    def test_raw_matrix_vs_orthonormal_basis(self, example_model):
        X = _noise_free_data(example_model, 3, 3)
        U = orthonormal_basis(X, 8)
        ctx, _ = _true_window_context(example_model, 3, 3, seed=4)
        raw = subspace_predict(X, ctx).y_pred
        reduced = predict_from_subspace(U, ctx).y_pred
        np.testing.assert_allclose(raw, reduced, atol=1e-9)

    def test_invertible_rebasing(self, rng, example_model):
        X = _noise_free_data(example_model, 3, 3)
        ctx, _ = _true_window_context(example_model, 3, 3, seed=5)
        base = subspace_predict(X, ctx).y_pred
        bnorm = np.linalg.norm(ctx.b)
        for _ in range(5):
            T = conditioned_invertible(rng, X.r, cond=1e3)
            rebased = PartitionedMatrix(X.data @ T, *X.dims)
            assert np.linalg.norm(subspace_predict(rebased, ctx).y_pred - base) <= 1e-8 * bnorm

    def test_generator_and_data_agree(self, example_model):
        # the generator matrix and the Hankel data span the same behavior
        Tini, Tf = 3, 3
        X = _noise_free_data(example_model, Tini, Tf)
        phi = PartitionedMatrix(trajectory_generation_matrix(example_model, Tini + Tf), *X.dims)
        ctx, _ = _true_window_context(example_model, Tini, Tf, seed=6)
        np.testing.assert_allclose(
            subspace_predict(phi, ctx).y_pred, subspace_predict(X, ctx).y_pred, atol=1e-8
        )

    def test_random_models_rebasing(self, rng):
        for _ in range(5):
            model = random_model(rng, n=2)
            Tini = Tf = max(2, model.n)
            X = _noise_free_data(model, Tini, Tf, seed=int(rng.integers(2**31)))
            r = model.m * (Tini + Tf) + model.n
            U = orthonormal_basis(X, r)
            ctx, _ = _true_window_context(model, Tini, Tf, seed=int(rng.integers(2**31)))
            base = predict_from_subspace(U, ctx).y_pred
            T = conditioned_invertible(rng, r, cond=1e3)
            rebased = PartitionedMatrix(U.matrix @ T, *U.dims)
            got = subspace_predict(rebased, ctx).y_pred
            assert np.linalg.norm(got - base) <= 1e-8 * max(1.0, np.linalg.norm(ctx.b))

    def test_rank_deficient_context_block_rejected(self):
        # one column lives entirely in the future-output rows, so the context
        # block (rows 0..2 for these dims) loses column rank
        mat = np.zeros((4, 2))
        mat[1, 0] = 1.0  # future-input row
        mat[3, 1] = 1.0  # future-output row
        basis = BehaviorBasis(data=mat, m=1, p=1, Tini=1, Tf=1)
        ctx = PredictionContext(u_ini=[1.0], u=[1.0], y_ini=[1.0], m=1, p=1, Tini=1, Tf=1)
        with pytest.raises(RankDeficientError, match="sigma_min"):
            predict_from_subspace(basis, ctx)


class TestOneStep:
    def test_whole_prediction_when_single_step(self, example_model):
        X = _noise_free_data(example_model, 2, 1)
        ctx, _ = _true_window_context(example_model, 2, 1)
        pred = subspace_predict(X, ctx)
        np.testing.assert_array_equal(one_step(pred), pred.y_pred)

    def test_composition_is_prefix_slice(self, example_model):
        X = _noise_free_data(example_model, 2, 3)
        ctx, _ = _true_window_context(example_model, 2, 3)
        pred = subspace_predict(X, ctx)
        np.testing.assert_array_equal(one_step(pred), pred.y_pred[:1])


class TestRollingOneStep:
    def test_single_window(self, example_model, rng):
        Tini, Tf = 2, 2
        X = _noise_free_data(example_model, Tini, Tf)
        U = orthonormal_basis(X, 6)
        measured = simulate(example_model, rng.standard_normal((Tini + Tf, 1)))
        preds = rolling_one_step(U, measured, Tini, Tf)
        assert preds.shape == (1, 1)

    def test_step_count_formula(self, example_model, rng):
        Tini, Tf, T_sim = 4, 2, 50
        X = _noise_free_data(example_model, Tini, Tf)
        U = orthonormal_basis(X, 8)
        measured = simulate(example_model, rng.standard_normal((T_sim, 1)))
        preds = rolling_one_step(U, measured, Tini, Tf)
        assert len(preds) == 45  # oracle: windows t = 4 .. 48 inclusive

    def test_too_short_rejected(self, example_model, rng):
        X = _noise_free_data(example_model, 2, 2)
        U = orthonormal_basis(X, 6)
        measured = simulate(example_model, rng.standard_normal((3, 1)))
        with pytest.raises(ValueError, match="shorter"):
            rolling_one_step(U, measured, 2, 2)

    def test_matches_direct_slicing(self, example_model, rng):
        Tini, Tf = 3, 2
        X = _noise_free_data(example_model, Tini, Tf)
        U = orthonormal_basis(X, 7)
        measured = simulate(example_model, rng.standard_normal((12, 1)))
        preds = rolling_one_step(U, measured, Tini, Tf)
        for i, (t, ctx) in enumerate(context_windows(measured, Tini, Tf)):
            direct = predict_from_subspace(U, ctx).y_pred[:1]
            np.testing.assert_array_equal(preds[i], direct)


def _stretch(r, eps):
    """Column scales that stretch the last of r columns by 1 + eps."""
    scales = np.ones(r)
    scales[-1] += eps
    return scales


def _noisy_mimo_basis(rng, Tini=10, Tf=10):
    """Basis of noisy offline data from a random n=8, m=p=3 model."""
    model = random_model(rng, n=8, m=3, p=3)
    L = Tini + Tf
    u = persistently_exciting_input(model.m, 200, order=model.n + L, seed=5)
    offline = simulate(model, u, noise=NoiseSpec.relative_gaussian(0.02, seed=6))
    X = stacked_data_matrix(offline.inputs, offline.outputs, Tini, Tf)
    measured = simulate(
        model, rng.standard_normal((60, model.m)), noise=NoiseSpec.relative_gaussian(0.02, seed=7)
    )
    return orthonormal_basis(X, model.m * L + model.n), measured


class TestSharedMap:
    def test_rolling_equals_per_window_prediction_mimo(self, rng):
        U, measured = _noisy_mimo_basis(rng)
        preds = rolling_one_step(U, measured, 10, 10)
        windows = list(context_windows(measured, 10, 10))
        assert preds.shape == (len(windows), 3)
        for i, (_, ctx) in enumerate(windows):
            np.testing.assert_array_equal(preds[i], predict_from_subspace(U, ctx).y_pred[:3])

    def test_context_windows_match_trajectory_slices(self, rng):
        _, measured = _noisy_mimo_basis(rng)
        Tini, Tf = 10, 10
        windows = list(context_windows(measured, Tini, Tf))
        # reference: slice every window out of the trajectory directly
        expected = range(Tini, len(measured.inputs) - Tf + 1)
        assert [t for t, _ in windows] == list(expected)
        for t, ctx in windows:
            ref = PredictionContext(
                u_ini=measured.inputs[t - Tini : t],
                u=measured.inputs[t : t + Tf],
                y_ini=measured.outputs[t - Tini : t],
                m=measured.m, p=measured.p, Tini=Tini, Tf=Tf,
            )
            np.testing.assert_array_equal(ctx.b, ref.b)
            assert (ctx.m, ctx.p, ctx.Tini, ctx.Tf) == (ref.m, ref.p, ref.Tini, ref.Tf)

    def test_one_svd_per_basis(self, rng, svd_calls):
        U, measured = _noisy_mimo_basis(rng)
        _, ctx = next(context_windows(measured, 10, 10))
        future = (U.p * U.Tf,) * 2
        # The map of an orthonormal basis comes from its output Gram matrix:
        # one eigvalsh and one solve of its shape, and no SVD, on each path.
        for predict in (
            lambda: rolling_one_step(U, measured, 10, 10).shape[0] > 1,
            lambda: predict_from_subspace(U, ctx),
        ):
            svd_calls.clear()
            assert predict()
            assert svd_calls == [] and svd_calls.eigvalsh == svd_calls.solve == [future]
        # A sweep member at Tf = 1 reads all of K, so the guard's eigvalsh
        # also gives its first block's norm.
        geodesic = Geodesic.draw(random_basis(rng, (2, 3, 4, 1), 12), 5)
        forms = geodesic.forms(np.eye(len(geodesic.origin.context_block)))
        svd_calls.clear()
        assert member_predictions(forms, geodesic.weights(0.1), 3) is not None
        assert svd_calls == [] and svd_calls.eigvalsh == svd_calls.solve == [(3, 3)]
        # Stretching one column by 2.5e-11 keeps the span but fails the
        # guard: one SVD serves both the rank check and the map.
        stretched = BehaviorBasis(U.matrix * _stretch(U.r, 2.5e-11), *U.dims)
        svd_calls.clear()
        _basis_map(stretched.context_block, stretched.y_future, stretched.gram_defect)
        assert svd_calls == [U.context_block.shape]
        svd_calls.clear()
        rolling_one_step(stretched, measured, 10, 10)
        assert svd_calls == [U.context_block.shape]
        svd_calls.clear()
        predict_from_subspace(stretched, ctx)
        assert svd_calls == [U.context_block.shape]

    def test_rank_deficient_basis_rejected_by_rolling(self):
        mat = np.zeros((4, 2))
        mat[1, 0] = 1.0  # future-input row
        mat[3, 1] = 1.0  # future-output row: the context block loses a column
        basis = BehaviorBasis(data=mat, m=1, p=1, Tini=1, Tf=1)
        measured = simulate(
            StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]]), np.ones((5, 1))
        )
        with pytest.raises(RankDeficientError, match="sigma_min"):
            rolling_one_step(basis, measured, 1, 1)

    def test_rolling_dims_checked(self, rng, example_model):
        U, measured = _noisy_mimo_basis(rng)
        with pytest.raises(ValueError, match="do not match"):
            rolling_one_step(U, measured, 9, 11)
        # the dims are named before any context is built, here one that a
        # length-3 trajectory could not hold
        U = orthonormal_basis(_noise_free_data(example_model, 4, 4), 1 * 8 + 2)
        short = simulate(example_model, np.ones((3, 1)))
        with pytest.raises(ValueError, match="do not match"):
            rolling_one_step(U, short, 2, 2)


class TestGramRoute:
    """Which factorization builds a basis's map: the output Gram matrix when
    (gram_defect + q eps) <= IDENTITY_ERROR_TOL sigma_min^2, else the SVD."""

    DIMS, R = (3, 3, 10, 10), 68  # q = 120, the rolling-predict size

    @pytest.mark.parametrize("gram_defect", [1e-12, 5e-11])
    @pytest.mark.parametrize("factor, svds", [
        pytest.param(1.05, 0, id="1.05-0"),
        pytest.param(0.95, 1, id="0.95-1"),
    ])
    def test_guard_splits_cs_bases_at_the_threshold(self, rng, svd_calls, gram_defect, factor, svds):
        q = 120
        threshold = (gram_defect + q * EPS) / IDENTITY_ERROR_TOL  # sigma_min^2 at the guard
        U = cs_basis(rng, self.DIMS, self.R, np.sqrt(factor * threshold), gram_defect)
        assert U.gram_defect == pytest.approx(gram_defect, rel=0.01)
        matrix, rank, sigma_min = _basis_map(U.context_block, U.y_future, U.gram_defect)
        assert len(svd_calls) == svds
        ref_matrix, ref_rank, ref_sigma_min = prediction_map(U.context_block, U.y_future)
        assert matrix.shape == ref_matrix.shape
        if svds:
            np.testing.assert_array_equal(matrix, ref_matrix)
        assert rank == ref_rank == self.R
        gap = np.linalg.norm(matrix - ref_matrix) / np.linalg.norm(ref_matrix)
        assert gap <= IDENTITY_ERROR_TOL
        assert sigma_min == pytest.approx(ref_sigma_min, rel=IDENTITY_ERROR_TOL)

    def test_accepted_gram_defect_routes_to_svd(self, rng, svd_calls):
        # BehaviorBasis accepts a defect up to 1e-10; at sigma_min = 0.03 a
        # defect of 5e-11 leaves the identity only about 5e-8 accurate.
        U = cs_basis(rng, self.DIMS, self.R, 0.03, gram_defect=5e-11)
        assert 4e-11 < U.gram_defect <= 1e-10
        matrix, _, sigma_min = _basis_map(U.context_block, U.y_future, U.gram_defect)
        assert svd_calls == [U.context_block.shape]
        ref_matrix, _, ref_sigma_min = prediction_map(U.context_block, U.y_future)
        np.testing.assert_array_equal(matrix, ref_matrix)
        assert sigma_min == ref_sigma_min == pytest.approx(0.03, rel=1e-9)
