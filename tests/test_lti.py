import warnings

import numpy as np
import pytest

from helpers import random_model, random_orthogonal, unobservable_model
from subpred import (
    NoiseSpec,
    StateSpaceModel,
    format_model,
    gain_bound,
    observability_degree,
    observability_matrix,
    parse_model,
    simulate,
    toeplitz_matrix,
    trajectory_generation_matrix,
)
from subpred.hankel import hankel, persistently_exciting_input


def _impulse_oracle(model, T):
    """Direct matrix recursion, independent of simulate()."""
    x = np.zeros(model.n)
    ys = []
    for t in range(T):
        u = np.array([1.0] if t == 0 else [0.0])
        ys.append(model.C @ x + model.D @ u)
        x = model.A @ x + model.B @ u
    return np.array(ys)


class TestSimulate:
    def test_zero_input_zero_state_gives_zero_output(self, example_model):
        traj = simulate(example_model, np.zeros((10, 1)))
        assert np.all(traj.outputs == 0.0)
        assert np.all(traj.states == 0.0)

    def test_impulse_response_matches_hand_values(self, example_model):
        traj = simulate(example_model, [[1.0], [0.0], [0.0]])
        expected = _impulse_oracle(example_model, 3)
        np.testing.assert_allclose(traj.outputs, expected, atol=1e-14)
        # frozen hand-derived values: 0, C B = 1.0, C A B = 1.04
        np.testing.assert_allclose(traj.outputs.ravel(), [0.0, 1.0, 1.04], atol=1e-12)

    def test_state_recursion_holds(self, rng, example_model):
        u = rng.standard_normal((12, 1))
        traj = simulate(example_model, u, x0=[1.0, -2.0])
        for t in range(traj.length):
            np.testing.assert_allclose(
                traj.states[t + 1],
                example_model.A @ traj.states[t] + example_model.B @ u[t],
                atol=1e-12,
            )
            np.testing.assert_allclose(
                traj.outputs[t],
                example_model.C @ traj.states[t] + example_model.D @ u[t],
                atol=1e-12,
            )

    def test_noise_deterministic_for_fixed_seed(self, example_model):
        u = np.ones((20, 1))
        noise = NoiseSpec.relative_gaussian(0.02, seed=7)
        a = simulate(example_model, u, noise=noise)
        b = simulate(example_model, u, noise=noise)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_noise_scale_tracks_clean_output(self, example_model):
        # zero clean output -> zero noise, regardless of sigma
        traj = simulate(
            example_model, np.zeros((5, 1)), noise=NoiseSpec.relative_gaussian(0.5, seed=0)
        )
        assert np.all(traj.outputs == 0.0)

    def test_bad_x0_dimension_is_named(self, example_model):
        with pytest.raises(ValueError, match="x0 has length 3"):
            simulate(example_model, np.zeros((4, 1)), x0=[1.0, 2.0, 3.0])

    def test_bad_input_width_rejected(self, example_model):
        with pytest.raises(ValueError, match="inputs"):
            simulate(example_model, np.zeros((4, 2)))

    # x_t = 1e10**t: the state overflows at x_31, and the noise scale, which
    # squares the output inside its norm, already at x_16
    @pytest.mark.parametrize(
        "noise, step", [(NoiseSpec.none(), 30), (NoiseSpec.relative_gaussian(0.02, seed=0), 16)]
    )
    def test_divergence_raises_without_warnings(self, noise, step):
        model = StateSpaceModel(A=[[1e10]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"simulation diverged: .* from step t={step}$"):
                simulate(model, np.zeros((40, 1)), x0=[1.0], noise=noise)


class TestStructuredMatrices:
    def test_observability_single_block_is_C(self, example_model):
        np.testing.assert_array_equal(observability_matrix(example_model, 1), example_model.C)

    def test_observability_two_blocks(self, example_model):
        # C A = [0.9, 1.1] by direct multiply
        expected = np.vstack([example_model.C, example_model.C @ example_model.A])
        got = observability_matrix(example_model, 2)
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(got, [[1.0, 1.0], [0.9, 1.1]], atol=1e-12)

    def test_observability_zero_C(self):
        model = StateSpaceModel(A=np.eye(3), B=np.ones((3, 1)), C=np.zeros((2, 3)), D=np.zeros((2, 1)))
        assert np.all(observability_matrix(model, 4) == 0.0)
        assert observability_matrix(model, 4).shape == (8, 3)

    def test_toeplitz_single_block_is_D(self, example_model):
        np.testing.assert_array_equal(toeplitz_matrix(example_model, 1), example_model.D)

    def test_toeplitz_two_blocks(self, example_model):
        # C B = 1 by direct multiply; D = 0
        got = toeplitz_matrix(example_model, 2)
        np.testing.assert_allclose(got, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_toeplitz_strictly_upper_blocks_zero(self, rng):
        model = random_model(rng)
        for k in (1, 2, 5):
            T = toeplitz_matrix(model, k)
            for i in range(k):
                for j in range(i + 1, k):
                    block = T[i * model.p : (i + 1) * model.p, j * model.m : (j + 1) * model.m]
                    assert np.all(block == 0.0)

    def test_generator_structure_for_zero_C_D(self):
        model = StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.zeros((1, 2)), D=0.0)
        L = 3
        phi = trajectory_generation_matrix(model, L)
        assert phi.shape == ((1 + 1) * L, 2 + L)
        np.testing.assert_array_equal(phi[:L, 2:], np.eye(L))
        assert np.all(phi[L:, :] == 0.0)
        assert np.linalg.matrix_rank(phi) == L

    def test_generator_reproduces_trajectories(self, rng, example_model):
        # both sides of the state-space/behavior identity on simulated data
        L, T = 8, 30
        u = rng.standard_normal((T, 1))
        traj = simulate(example_model, u, x0=rng.standard_normal(2))
        phi = trajectory_generation_matrix(example_model, L)
        lhs = np.vstack([hankel(traj.inputs, L), hankel(traj.outputs, L)])
        rhs = phi @ np.vstack([hankel(traj.states[: T - L + 1], 1), hankel(traj.inputs, L)])
        residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        assert residual <= 1e-10

    def test_generator_reproduces_trajectories_random_models(self, rng):
        for _ in range(10):
            model = random_model(rng)
            L = model.n + int(rng.integers(1, 4))
            T = L + 15
            u = rng.standard_normal((T, model.m))
            traj = simulate(model, u, x0=rng.standard_normal(model.n))
            phi = trajectory_generation_matrix(model, L)
            lhs = np.vstack([hankel(traj.inputs, L), hankel(traj.outputs, L)])
            rhs = phi @ np.vstack([hankel(traj.states[: T - L + 1], 1), hankel(traj.inputs, L)])
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))

    def test_generator_full_column_rank_when_observable(self, rng):
        for _ in range(10):
            model = random_model(rng)
            L = model.n + 2
            phi = trajectory_generation_matrix(model, L)
            assert np.linalg.matrix_rank(phi) == model.n + model.m * L


class TestSingularValueConstants:
    def test_unobservable_pair_gives_zero(self):
        model = unobservable_model()
        assert observability_degree(model, 4) == 0.0

    def test_example_model_positive(self, example_model):
        # the pair (A, C) is observable: rank of the two-block stack is n
        assert np.linalg.matrix_rank(observability_matrix(example_model, 2)) == 2
        assert observability_degree(example_model, 2) > 0.0
        assert observability_degree(example_model, 4) > 0.0

    def test_positive_iff_observable(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert observability_degree(model, model.n) > 0.0
        assert observability_degree(unobservable_model(3), 3) == 0.0

    def test_orthogonal_invariance(self, rng, example_model):
        Tini = 3
        phi = trajectory_generation_matrix(example_model, Tini)
        Q = random_orthogonal(rng, phi.shape[1])
        direct = observability_degree(example_model, Tini)
        rotated = np.linalg.svd(phi @ Q, compute_uv=False)[-1]
        assert abs(direct - rotated) <= 1e-10

    def test_matches_direct_svd(self, example_model):
        for L in (2, 5, 8):
            phi = trajectory_generation_matrix(example_model, L)
            svals = np.linalg.svd(phi, compute_uv=False)
            assert abs(gain_bound(example_model, L) - svals[0]) <= 1e-10
            assert abs(observability_degree(example_model, L) - svals[-1]) <= 1e-10

    def test_gain_is_one_for_zero_C_D(self):
        model = StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.zeros((1, 2)), D=0.0)
        assert abs(gain_bound(model, 4) - 1.0) <= 1e-12

    def test_gain_at_least_one(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert gain_bound(model, int(rng.integers(1, 6))) >= 1.0

    def test_gain_matches_power_iteration(self, example_model):
        phi = trajectory_generation_matrix(example_model, 8)
        G = phi.T @ phi
        v = np.full(G.shape[0], 1.0 / np.sqrt(G.shape[0]))
        for _ in range(10000):
            w = G @ v
            v = w / np.linalg.norm(w)
        oracle = np.sqrt(v @ G @ v)
        assert abs(gain_bound(example_model, 8) - oracle) <= 1e-8


class TestModelFiles:
    def test_round_trip(self, rng):
        model = random_model(rng, n=3, m=2, p=2)
        parsed = parse_model(format_model(model))
        np.testing.assert_array_equal(parsed.A, model.A)
        np.testing.assert_array_equal(parsed.B, model.B)
        np.testing.assert_array_equal(parsed.C, model.C)
        np.testing.assert_array_equal(parsed.D, model.D)

    def test_parse_with_comments_and_blanks(self):
        text = """
        # example system
        n = 2
        m = 1
        p = 1

        A = 0.8 0.2 ; 0.1 0.9
        B = 0.3 ; 0.7
        C = 1 1
        D = 0
        """
        model = parse_model(text)
        assert (model.n, model.m, model.p) == (2, 1, 1)
        np.testing.assert_allclose(model.A, [[0.8, 0.2], [0.1, 0.9]])

    def test_ragged_rows_rejected(self):
        text = "n = 2\nm = 1\np = 1\nA = 1 0 ; 0 1 1\nB = 1 ; 1\nC = 1 1\nD = 0\n"
        with pytest.raises(ValueError, match="ragged"):
            parse_model(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            parse_model("n = 1\nm = 1\np = 1\nA = 1\nB = 1\nC = 1\n")

    def test_dimension_mismatch_rejected(self):
        text = "n = 2\nm = 1\np = 1\nA = 1 0 ; 0 1\nB = 1 ; 1\nC = 1\nD = 0\n"
        with pytest.raises(ValueError, match="matrix C"):
            parse_model(text)


class TestPersistentlyExcitingInput:
    def test_generated_input_is_exciting(self):
        u = persistently_exciting_input(1, 30, order=10, seed=0)
        assert u.shape == (30, 1)

    def test_deterministic(self):
        a = persistently_exciting_input(2, 40, order=6, seed=5)
        b = persistently_exciting_input(2, 40, order=6, seed=5)
        np.testing.assert_array_equal(a, b)
