import numpy as np
import pytest

from helpers import (
    first_error_bound,
    first_error_bound_terms,
    pinv_perturbation_bound,
    random_model,
    random_orthogonal,
    weyl_check,
)
from subpred import (
    align_basis,
    chordal_distance,
    gain_bound,
    gamma,
    lipschitz_bound,
    observability_degree,
    one_step_bound,
    orthonormal_basis,
    perturb_subspace,
    pseudoinverse,
    subspace_predict,
    trajectory_generation_matrix,
)
from subpred._linalg import spectral_norm
from subpred.errors import HypothesisViolationError, RankDeficientError
from subpred.hankel import PartitionedMatrix
from subpred.predictor import PredictionContext, predict_from_subspace

SQRT2 = np.sqrt(2.0)


def _behavior_basis(model, Tini, Tf):
    L = Tini + Tf
    phi = PartitionedMatrix(
        data=trajectory_generation_matrix(model, L), m=model.m, p=model.p, Tini=Tini, Tf=Tf
    )
    return orthonormal_basis(phi, model.n + model.m * L)


def _random_context(rng, model, Tini, Tf):
    b = rng.standard_normal(model.m * (Tini + Tf) + model.p * Tini)
    split1 = model.m * Tini
    split2 = split1 + model.m * Tf
    return PredictionContext(
        u_ini=b[:split1], u=b[split1:split2], y_ini=b[split2:],
        m=model.m, p=model.p, Tini=Tini, Tf=Tf,
    )


class TestGamma:
    def test_beta_above_one_clipped(self):
        assert gamma(2.0, 3.0) == 0.5

    def test_beta_below_one(self):
        assert gamma(2.0, 0.5) == 0.25

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma(1.0, -0.5)

    @pytest.mark.parametrize("alpha", [0.5, np.nextafter(1.0, 0.0)])
    def test_alpha_below_one_rejected(self, alpha):
        # the gain is at least 1 (identity block); a smaller alpha would give
        # gamma > 1 and widen the certified region
        with pytest.raises(ValueError, match="alpha must be at least 1"):
            gamma(alpha, 1.0)
        with pytest.raises(ValueError, match="alpha must be at least 1"):
            lipschitz_bound(gamma(alpha, 1.0), 0.5, 1.0)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            lipschitz_bound(1.0 / alpha, 0.5, 1.0)
        with pytest.raises(ValueError, match="alpha must be at least 1"):
            gamma(float("nan"), 1.0)
        assert gamma(1.0, 1.0) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            gamma(bad, 1.0)
        with pytest.raises(ValueError):
            gamma(2.0, bad)

    def test_lower_bounds_context_block(self, example_model):
        # the ratio never exceeds the actual smallest singular value of the
        # context rows of an orthonormal behavior basis
        Tini = Tf = 4
        g = gamma(gain_bound(example_model, 8), observability_degree(example_model, Tini))
        U = _behavior_basis(example_model, Tini, Tf)
        sigma = np.linalg.svd(U.context_block, compute_uv=False)[-1]
        assert sigma >= g - 1e-9


class TestLipschitzBound:
    def test_zero_kappa_gives_zero(self):
        assert lipschitz_bound(1.0, 0.0, 5.0) == 0.0

    def test_closed_form_value(self):
        # independent arithmetic for gamma=1, kappa=0.1, |b|=1
        expected = (2.0 * (1.0 + np.sqrt(5.0)) + 1.0) * SQRT2 * 0.1
        got = lipschitz_bound(1.0, 0.1, 1.0)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 1.0566) <= 5e-4

    def test_linear_scaling(self):
        base = lipschitz_bound(0.8, 0.1, 1.0)
        assert abs(lipschitz_bound(0.8, 0.2, 1.0) - 2 * base) <= 1e-12
        assert abs(lipschitz_bound(0.8, 0.1, 2.0) - 2 * base) <= 1e-12

    def test_hypothesis_violation_rejected(self):
        limit = 0.5 / (2 * SQRT2)
        with pytest.raises(HypothesisViolationError, match="hypothesis violated"):
            lipschitz_bound(0.5, limit * 1.01, 1.0)

    def test_invalid_inputs(self):
        for bad in (0.0, -0.5, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
                lipschitz_bound(bad, 0.1, 1.0)
        for position in (1, 2):
            args = [0.5, 0.1, 1.0]
            args[position] = -1.0
            with pytest.raises(ValueError, match="must be nonnegative"):
                lipschitz_bound(*args)
            for bad in (np.nan, np.inf, -np.inf):
                args[position] = bad
                with pytest.raises(ValueError, match="all bound inputs must be finite"):
                    lipschitz_bound(*args)

    def test_monotone_in_beta_and_alpha(self):
        # improves with observability, deteriorates with gain
        kappa = 0.01
        betas = [0.2, 0.4, 0.8, 1.0]
        vals = [lipschitz_bound(gamma(2.0, b), kappa, 1.0) for b in betas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        alphas = [1.0, 2.0, 4.0]
        vals = [lipschitz_bound(gamma(a, 0.5), kappa, 1.0) for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestOneStepBound:
    def test_zero_kappa(self):
        assert one_step_bound(0.5, 0.9, 0.0, 3.0) == 0.0

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            one_step_bound(0.5, 0.9, 0.2, 1.0)

    def test_never_exceeds_unit_norm_form(self, rng, example_model):
        # the first-block norm of an orthonormal basis is at most 1, so the
        # one-step form is at most the full form evaluated at the same sigma
        U = _behavior_basis(example_model, 4, 4)
        Uhat = perturb_subspace(U, 0.05, seed=1)
        sigma = float(np.linalg.svd(Uhat.context_block, compute_uv=False)[-1])
        norm_first = float(np.linalg.norm(Uhat.y_future[:1], 2))
        assert norm_first <= 1.0 + 1e-12
        kappa, b_norm = 0.01, 2.0
        got = one_step_bound(sigma, norm_first, kappa, b_norm)
        full = one_step_bound(sigma, 1.0, kappa, b_norm)
        assert got <= full + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            one_step_bound(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            one_step_bound(0.5, -1.0, 0.0, 1.0)
        for position in range(4):
            for bad in (np.nan, np.inf, -np.inf):
                args = [0.5, 0.9, 0.01, 2.0]
                args[position] = bad
                with pytest.raises(ValueError, match="all bound inputs must be finite"):
                    one_step_bound(*args)

    def test_equals_lipschitz_bound_at_unit_first_block(self):
        # the full-horizon form is the one-step form with sigma = gamma, ||Uyf1|| = 1
        rng = np.random.default_rng(88)
        for _ in range(2000):
            g = rng.uniform(1e-3, 1.0)
            kappa = rng.uniform(0.0, g / (2 * SQRT2))
            b_norm = rng.uniform(0.0, 10.0)
            full = lipschitz_bound(g, kappa, b_norm)
            assert full == one_step_bound(g, 1.0, kappa, b_norm)

    def test_violation_messages_name_their_constant(self):
        with pytest.raises(HypothesisViolationError, match=r"exceeds gamma/\(2\*sqrt\(2\)\) = "):
            lipschitz_bound(0.5, 0.2, 1.0)
        with pytest.raises(
            HypothesisViolationError, match=r"exceeds sigma_min_Mhat/\(2\*sqrt\(2\)\) = "
        ):
            one_step_bound(0.5, 0.9, 0.2, 1.0)


class TestFirstErrorBound:
    def test_identical_matrices_zero(self, rng):
        data = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        H = PartitionedMatrix(data=data, m=1, p=1, Tini=2, Tf=2)
        assert first_error_bound(H, H, 1.0) == 0.0
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="b_norm must be finite and nonnegative"):
                first_error_bound_terms(H, H, bad)

    def test_bounds_actual_prediction_gap(self, rng, example_model):
        U = _behavior_basis(example_model, 3, 3)
        for kappa in (0.02, 0.05):
            Uhat = perturb_subspace(U, kappa, seed=7)
            aligned = align_basis(U, Uhat)
            for _ in range(5):
                ctx = _random_context(rng, example_model, 3, 3)
                b_norm = np.linalg.norm(ctx.b)
                actual = np.linalg.norm(
                    subspace_predict(aligned.basis, ctx).y_pred
                    - subspace_predict(U.basis, ctx).y_pred
                )
                assert first_error_bound(aligned.basis, U.basis, b_norm) >= actual - 1e-12

    def test_holds_without_alignment(self, rng, example_model):
        # valid for any representatives, not only Procrustes-aligned ones
        U = _behavior_basis(example_model, 3, 3)
        Uhat = perturb_subspace(U, 0.3, seed=11)
        for _ in range(5):
            ctx = _random_context(rng, example_model, 3, 3)
            b_norm = np.linalg.norm(ctx.b)
            actual = np.linalg.norm(
                subspace_predict(Uhat.basis, ctx).y_pred - subspace_predict(U.basis, ctx).y_pred
            )
            assert first_error_bound(Uhat.basis, U.basis, b_norm) >= actual - 1e-12

    def test_submatrix_line_no_bigger_than_full_line(self, rng, example_model):
        U = _behavior_basis(example_model, 3, 3)
        Uhat = align_basis(U, perturb_subspace(U, 0.05, seed=3))
        terms = first_error_bound_terms(Uhat.basis, U.basis, 1.0)
        assert terms.submatrix_value <= terms.full_value + 1e-15

    def test_both_directions_valid(self, rng, example_model):
        U = _behavior_basis(example_model, 3, 3)
        Uhat = align_basis(U, perturb_subspace(U, 0.04, seed=5))
        ctx = _random_context(rng, example_model, 3, 3)
        b_norm = np.linalg.norm(ctx.b)
        actual = np.linalg.norm(
            subspace_predict(Uhat.basis, ctx).y_pred - subspace_predict(U.basis, ctx).y_pred
        )
        for direction in ("approx", "truth"):
            terms = first_error_bound_terms(Uhat.basis, U.basis, b_norm, direction=direction)
            assert terms.direction == direction
            assert terms.submatrix_value >= actual - 1e-12

    def test_rank_deficient_rejected(self, rng):
        bad = np.zeros((8, 2))
        bad[7, 0] = 1.0
        bad[6, 1] = 1.0  # both columns in the future-output rows
        H = PartitionedMatrix(data=bad, m=1, p=1, Tini=2, Tf=2)
        with pytest.raises(RankDeficientError):
            first_error_bound(H, H, 1.0)


def _mimo_pairs(rng, count):
    """(Hhat, H) pairs: a MIMO behavior basis and an aligned perturbation."""
    for i in range(count):
        model = random_model(rng, n=3, m=2, p=2)
        U = _behavior_basis(model, 3, 2)
        Uhat = align_basis(U, perturb_subspace(U, 0.05, seed=i))
        yield Uhat.basis, U.basis


class TestOneFactorizationPerBlock:
    def test_first_error_bound_terms_five_svds(self, rng, svd_calls):
        Hhat, H = next(_mimo_pairs(rng, 1))
        for direction in ("approx", "truth"):
            svd_calls.clear()
            first_error_bound_terms(Hhat, H, 1.0, direction=direction)
            # one per context block, then the pinv gap, lead and tail norms
            assert len(svd_calls) == 5
            assert svd_calls[:2] == [Hhat.context_block.shape, H.context_block.shape]

    def test_pinv_perturbation_bound_three_svds(self, rng, svd_calls):
        M = rng.standard_normal((7, 3))
        pinv_perturbation_bound(M + 0.1 * rng.standard_normal((7, 3)), M)
        assert svd_calls == [(7, 3)] * 3

    def test_first_error_bound_terms_matches_formula(self, rng):
        for Hhat, H in _mimo_pairs(rng, 10):
            b_norm = float(rng.uniform(0.5, 2.0))
            pinv_hat, pinv = pseudoinverse(Hhat.context_block), pseudoinverse(H.context_block)
            pinv_gap = spectral_norm(pinv_hat - pinv)
            yf_gap = float(np.linalg.norm(Hhat.y_future - H.y_future))
            full_gap = float(np.linalg.norm(Hhat.data - H.data))
            for direction, lead, tail in (
                ("approx", spectral_norm(Hhat.y_future), spectral_norm(pinv)),
                ("truth", spectral_norm(H.y_future), spectral_norm(pinv_hat)),
            ):
                terms = first_error_bound_terms(Hhat, H, b_norm, direction=direction)
                assert terms.submatrix_value == float((lead * pinv_gap + yf_gap * tail) * b_norm)
                assert terms.full_value == float((lead * pinv_gap + full_gap * tail) * b_norm)

    def test_pinv_perturbation_bound_matches_formula(self, rng):
        for _ in range(10):
            M = rng.standard_normal((7, 3))
            Mhat = M + 0.1 * rng.standard_normal((7, 3))
            smin_hat, smin = (np.linalg.svd(X, compute_uv=False)[-1] for X in (Mhat, M))
            worst = max(1.0 / smin_hat**2, 1.0 / smin**2)
            expected = (1.0 + np.sqrt(5.0)) / 2.0 * worst * spectral_norm(Mhat - M)
            assert pinv_perturbation_bound(Mhat, M) == float(expected)


class TestPinvPerturbationBound:
    def test_identical_zero(self, rng):
        M = rng.standard_normal((6, 3))
        assert pinv_perturbation_bound(M, M) == 0.0
        assert np.linalg.norm(pseudoinverse(M) - pseudoinverse(M)) == 0.0

    def test_diagonal_example(self):
        M = np.diag([1.0, 1.0])
        Mhat = np.diag([1.1, 1.0])
        lhs = np.linalg.norm(pseudoinverse(Mhat) - pseudoinverse(M), 2)
        assert abs(lhs - (1.0 - 1.0 / 1.1)) <= 1e-12
        rhs = pinv_perturbation_bound(Mhat, M)
        assert rhs >= lhs
        assert abs(rhs - (1.0 + np.sqrt(5.0)) / 2.0 * 1.0 * 0.1) <= 1e-12

    def test_random_pairs(self, rng):
        hits = 0
        for _ in range(100):
            M = rng.standard_normal((7, 3))
            Mhat = M + 0.1 * rng.standard_normal((7, 3))
            lhs = np.linalg.norm(pseudoinverse(Mhat) - pseudoinverse(M), 2)
            if pinv_perturbation_bound(Mhat, M) >= lhs - 1e-12:
                hits += 1
        assert hits == 100

    def test_rank_deficiency_rejected(self, rng):
        M = rng.standard_normal((5, 3))
        bad = np.zeros((5, 3))
        with pytest.raises(RankDeficientError):
            pinv_perturbation_bound(bad, M)


class TestWeylCheck:
    def test_identical(self, rng):
        M = rng.standard_normal((5, 3))
        assert weyl_check(M, M)

    def test_small_update(self, rng):
        M = rng.standard_normal((5, 3))
        E = 1e-6 * np.outer(rng.standard_normal(5), rng.standard_normal(3))
        assert weyl_check(M + E, M)

    def test_random_pairs(self, rng):
        for _ in range(200):
            shape = (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
            assert weyl_check(rng.standard_normal(shape), rng.standard_normal(shape))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            weyl_check(np.ones((2, 2)), np.ones((3, 2)))


class TestBoundValidityEndToEnd:
    def test_context_block_lower_bound_randomized(self, rng):
        # smallest singular value of the context rows of any orthonormal
        # behavior basis respects the ratio, also after re-basing
        for _ in range(20):
            model = random_model(rng, n=int(rng.integers(1, 4)))
            Tini = model.n + int(rng.integers(0, 2))
            Tf = int(rng.integers(1, 4))
            beta = observability_degree(model, Tini)
            alpha = gain_bound(model, Tini + Tf)
            U = _behavior_basis(model, Tini, Tf)
            g = gamma(alpha, beta)
            sigma = np.linalg.svd(U.context_block, compute_uv=False)[-1]
            assert sigma >= g - 1e-9
            P = random_orthogonal(rng, U.r)
            sigma_rot = np.linalg.svd((U.matrix @ P)[: U.q - U.basis.p * Tf], compute_uv=False)[-1]
            assert sigma_rot >= g - 1e-9

    def test_full_horizon_bound_holds(self, rng):
        for _ in range(40):
            model = random_model(rng, n=int(rng.integers(1, 3)))
            Tini = model.n + 1
            Tf = 2
            beta = observability_degree(model, Tini)
            alpha = gain_bound(model, Tini + Tf)
            g = gamma(alpha, beta)
            U = _behavior_basis(model, Tini, Tf)
            kappa = rng.uniform(0.0, 1.0) * g / (2 * SQRT2)
            Uhat = perturb_subspace(U, kappa, seed=int(rng.integers(2**31)))
            ctx = _random_context(rng, model, Tini, Tf)
            b_norm = np.linalg.norm(ctx.b)
            err = np.linalg.norm(
                predict_from_subspace(Uhat, ctx).y_pred - predict_from_subspace(U, ctx).y_pred
            )
            bound = lipschitz_bound(gamma(alpha, beta), chordal_distance(U, Uhat), b_norm)
            assert err <= bound + 1e-9 * b_norm

    def test_alignment_norm_chain(self, rng, example_model):
        U = _behavior_basis(example_model, 4, 4)
        for kappa in (0.05, 0.2, 0.5):
            Uhat = align_basis(U, perturb_subspace(U, kappa, seed=2))
            d = chordal_distance(U, Uhat)
            future_gap = np.linalg.norm(Uhat.y_future - U.y_future)
            full_gap = np.linalg.norm(Uhat.matrix - U.matrix)
            assert future_gap <= full_gap + 1e-12
            assert full_gap <= SQRT2 * d + 1e-9
