import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model
from subpred import (
    Trajectory,
    chordal_distance,
    hankel,
    is_persistently_exciting,
    load_trajectory,
    orthonormal_basis,
    save_trajectory,
    simulate,
    stacked_data_matrix,
    trajectory_generation_matrix,
)
from subpred.hankel import PartitionedMatrix, persistently_exciting_input
from subpred._linalg import numerical_rank


class TestHankel:
    def test_scalar_example(self):
        np.testing.assert_array_equal(
            hankel([1.0, 2.0, 3.0, 4.0], 2), [[1, 2, 3], [2, 3, 4]]
        )

    def test_full_depth_single_column(self):
        H = hankel([1.0, 2.0, 3.0], 3)
        np.testing.assert_array_equal(H, [[1], [2], [3]])

    def test_vector_layout_matches_definition(self):
        # oracle: index-by-index construction
        z = np.arange(6.0).reshape(3, 2)
        H = hankel(z, 2)
        assert H.shape == (4, 2)
        for j in range(2):
            for i in range(2):
                np.testing.assert_array_equal(H[i * 2 : (i + 1) * 2, j], z[j + i])

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError, match="depth"):
            hankel([1.0, 2.0], 3)
        with pytest.raises(ValueError, match="depth"):
            hankel([1.0, 2.0], 0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 6),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, depth, a, b, seed):
        rng = np.random.default_rng(seed)
        z1 = rng.standard_normal((8, 2))
        z2 = rng.standard_normal((8, 2))
        np.testing.assert_allclose(
            hankel(a * z1 + b * z2, depth),
            a * hankel(z1, depth) + b * hankel(z2, depth),
            atol=1e-12,
        )


class TestPersistencyOfExcitation:
    def test_constant_sequence_not_exciting(self):
        assert not is_persistently_exciting(np.full(10, 3.0), 2)

    def test_gaussian_sequence_exciting(self):
        for seed in range(5):
            u = np.random.default_rng(seed).standard_normal(30)
            assert is_persistently_exciting(u, 10)
            assert numerical_rank(hankel(u, 10)) == 10

    def test_too_few_columns_never_exciting(self):
        # rows m*k exceed columns T-k+1
        u = np.random.default_rng(0).standard_normal(10)
        assert not is_persistently_exciting(u, 8)


class TestStackedDataMatrix:
    def test_smallest_case_blocks(self):
        X = stacked_data_matrix([1.0, 2.0], [3.0, 4.0], Tini=1, Tf=1)
        np.testing.assert_array_equal(X.u_past, [[1.0]])
        np.testing.assert_array_equal(X.u_future, [[2.0]])
        np.testing.assert_array_equal(X.y_past, [[3.0]])
        np.testing.assert_array_equal(X.y_future, [[4.0]])
        assert X.r == 1

    def test_column_count(self, rng):
        for _ in range(5):
            T = int(rng.integers(6, 20))
            Tini = int(rng.integers(1, 3))
            Tf = int(rng.integers(1, 3))
            u = rng.standard_normal((T, 2))
            y = rng.standard_normal((T, 1))
            X = stacked_data_matrix(u, y, Tini, Tf)
            assert X.r == T - (Tini + Tf) + 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            stacked_data_matrix(np.ones(3), np.ones(3), Tini=2, Tf=2)

    def test_example_configuration_shape_and_rank(self, example_model):
        u = persistently_exciting_input(1, 30, order=example_model.n + 8, seed=0)
        traj = simulate(example_model, u)
        X = stacked_data_matrix(traj.inputs, traj.outputs, Tini=4, Tf=4)
        assert X.data.shape == (16, 23)
        assert numerical_rank(X.data) == 1 * 8 + 2  # m L + n

    def test_blocks_match_split_sequences(self, rng):
        T, Tini, Tf = 14, 3, 2
        L = Tini + Tf
        u = rng.standard_normal((T, 2))
        y = rng.standard_normal((T, 1))
        X = stacked_data_matrix(u, y, Tini, Tf)
        np.testing.assert_array_equal(X.u_past, hankel(u[: T - Tf], Tini))
        np.testing.assert_array_equal(X.u_future, hankel(u[Tini:], Tf))
        np.testing.assert_array_equal(X.y_past, hankel(y[: T - Tf], Tini))
        np.testing.assert_array_equal(X.y_future, hankel(y[Tini:], Tf))
        np.testing.assert_array_equal(np.vstack([hankel(u, L), hankel(y, L)]), X.data)

    def test_column_space_matches_generator(self, rng):
        # noise-free data from observable+controllable models spans the
        # length-L behavior: equal rank and vanishing subspace distance
        for _ in range(5):
            model = random_model(rng, n=int(rng.integers(1, 4)))
            Tini, Tf = model.n, 2
            L = Tini + Tf
            r = model.m * L + model.n
            T = (model.m + 1) * (model.n + L) + 10
            u = persistently_exciting_input(model.m, T, order=model.n + L, seed=int(rng.integers(2**31)))
            traj = simulate(model, u, x0=rng.standard_normal(model.n))
            X = stacked_data_matrix(traj.inputs, traj.outputs, Tini, Tf)
            assert numerical_rank(X.data) == r
            phi = X.with_data(trajectory_generation_matrix(model, L))
            d = chordal_distance(orthonormal_basis(X, r), orthonormal_basis(phi, r))
            assert d < 1e-8


class TestPartitionedMatrix:
    def test_context_block_row_count(self, rng):
        X = PartitionedMatrix(data=rng.standard_normal((10, 4)), m=1, p=1, Tini=2, Tf=3)
        assert X.context_block.shape[0] == X.q - X.p * X.Tf

    def test_blocks_reassemble_exactly(self, rng):
        X = PartitionedMatrix(data=rng.standard_normal((12, 5)), m=2, p=1, Tini=2, Tf=2)
        np.testing.assert_array_equal(
            np.vstack([X.u_past, X.u_future, X.y_past, X.y_future]), X.data
        )
        np.testing.assert_array_equal(np.vstack([X.context_block, X.y_future]), X.data)

    def test_row_count_validated(self, rng):
        with pytest.raises(ValueError, match="rows"):
            PartitionedMatrix(data=rng.standard_normal((9, 4)), m=1, p=1, Tini=2, Tf=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, rng, value):
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Q[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            PartitionedMatrix(data=Q, m=1, p=1, Tini=2, Tf=2)


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path, rng, example_model):
        traj = simulate(example_model, rng.standard_normal((9, 1)))
        path = tmp_path / "traj.csv"
        save_trajectory(path, traj)
        loaded = load_trajectory(path, m=1, p=1)
        np.testing.assert_array_equal(loaded.inputs, traj.inputs)
        np.testing.assert_array_equal(loaded.outputs, traj.outputs)

    def test_header_checked_against_dims(self, tmp_path):
        traj = Trajectory(inputs=np.ones((3, 2)), outputs=np.ones((3, 1)))
        path = tmp_path / "traj.csv"
        save_trajectory(path, traj)
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path, m=1, p=1)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        # no CLI command reads trajectory files, so the parser is checked directly
        path = tmp_path / "traj.csv"
        path.write_text(f"t,u_0,y_0\n0,1.0,2.0\n1,0.5,{token}\n")
        with pytest.raises(ValueError, match=f"traj.csv:3: non-finite entry '{token}'"):
            load_trajectory(path, m=1, p=1)
