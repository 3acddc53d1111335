import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model
from subpred import (
    chordal_distance,
    is_persistently_exciting,
    orthonormal_basis,
    simulate,
    stacked_data_matrix,
    trajectory_generation_matrix,
)
from subpred.grassmann import BehaviorBasis, load_basis, save_basis
from subpred.hankel import PartitionedMatrix, hankel, persistently_exciting_input
from subpred._linalg import svd


class TestHankel:
    @pytest.mark.parametrize("shape", [(), (6, 1, 1)])
    def test_sequence_of_other_rank_is_named(self, shape):
        bad, good = np.zeros(shape), np.zeros((6, 1))
        for call, name in (
            (lambda: hankel(bad, 2), "z"),
            (lambda: is_persistently_exciting(bad, 2), "u"),
            (lambda: stacked_data_matrix(bad, good, 2, 2), "u_data"),
            (lambda: stacked_data_matrix(good, bad, 2, 2), "y_data"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be 2-dimensional, got shape "):
                call()

    def test_module_is_not_shadowed_by_the_function(self):
        import subpred
        import subpred.hankel as module

        assert inspect.ismodule(module) and subpred.hankel is module
        assert module.hankel is hankel

    def test_scalar_example(self):
        np.testing.assert_array_equal(
            hankel([[1.0], [2.0], [3.0], [4.0]], 2), [[1, 2, 3], [2, 3, 4]]
        )

    def test_full_depth_single_column(self):
        H = hankel([[1.0], [2.0], [3.0]], 3)
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
            hankel([[1.0], [2.0]], 3)
        with pytest.raises(ValueError, match="depth"):
            hankel([[1.0], [2.0]], 0)

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
    def test_constant_sequence_not_exciting(self, svd_calls):
        # the Cholesky certificate cannot prove full row rank, so the SVD of
        # the 2 x 9 Hankel matrix finds rank 1 and decides
        assert not is_persistently_exciting(np.full((10, 1), 3.0), 2)
        assert svd_calls.cholesky == [(2, 2)] and svd_calls == [(2, 9)]

    def test_rank_deficient_mimo_hankel_not_exciting(self, svd_calls):
        # the second channel is twice the first: the 4 x 27 Hankel matrix has
        # rank 2
        first = np.random.default_rng(2).standard_normal((30, 1))
        assert not is_persistently_exciting(np.hstack([first, 2 * first]), 2)
        assert svd_calls.cholesky == [(4, 4)] and svd_calls == [(4, 29)]

    def test_rank_deficient_benchmark_sized_hankel_not_exciting(self, svd_calls):
        # sweep-mimo's 176 x 357 persistency check (m = 4, order 44) on an
        # input whose fourth channel repeats its third: rank 132, whose zero
        # Gram eigenvalues fail the shifted Cholesky, so the SVD decides
        u = np.random.default_rng(1).standard_normal((400, 4))
        u[:, 3] = u[:, 2]
        assert not is_persistently_exciting(u, 44)
        assert svd_calls.cholesky == [(176, 176)] and svd_calls == [(176, 357)]
        assert svd(hankel(u, 44))[3] == 132

    def test_gaussian_sequence_exciting(self):
        for seed in range(5):
            u = np.random.default_rng(seed).standard_normal((30, 1))
            assert is_persistently_exciting(u, 10)
            assert svd(hankel(u, 10))[3] == 10

    def test_too_few_columns_never_exciting(self, svd_calls):
        # rows m*k exceed columns T-k+1, so the certificate, which proves a
        # rank of at most the column count, leaves the finding to the SVD
        u = np.random.default_rng(0).standard_normal((10, 1))
        assert not is_persistently_exciting(u, 8)
        assert svd_calls.eigvalsh == [] and svd_calls == [(8, 3)]


class TestStackedDataMatrix:
    def test_smallest_case_blocks(self):
        X = stacked_data_matrix([[1.0], [2.0]], [[3.0], [4.0]], Tini=1, Tf=1)
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
            stacked_data_matrix(np.ones((3, 1)), np.ones((3, 1)), Tini=2, Tf=2)

    def test_example_configuration_shape_and_rank(self, example_model):
        u = persistently_exciting_input(1, 30, order=example_model.n + 8, seed=0)
        traj = simulate(example_model, u)
        X = stacked_data_matrix(traj.inputs, traj.outputs, Tini=4, Tf=4)
        assert X.data.shape == (16, 23)
        assert svd(X.data)[3] == 1 * 8 + 2  # m L + n

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
            assert svd(X.data)[3] == r
            phi = PartitionedMatrix(trajectory_generation_matrix(model, L), *X.dims)
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

    def test_row_count_validated(self, rng, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            PartitionedMatrix(data=rng.standard_normal((9, 4)), m=1, p=1, Tini=2, Tf=3)
        # each dim is read as an index: a float is rejected although its row
        # count matches, and a numpy integer is kept as an int, which a basis
        # file's header needs
        for cls in (PartitionedMatrix, BehaviorBasis):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                cls(np.eye(8)[:, :3], 1.0, 1, 2, 2)
        basis = BehaviorBasis(np.eye(8)[:, :3], *map(np.int64, (1, 1, 2, 2)))
        assert [type(d) for d in basis.dims] == [int] * 4
        save_basis(tmp_path / "basis.csv", basis)
        assert load_basis(tmp_path / "basis.csv").dims == (1, 1, 2, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, rng, value):
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Q[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            PartitionedMatrix(data=Q, m=1, p=1, Tini=2, Tf=2)
