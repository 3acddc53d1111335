import numpy as np
import pytest

from subpred._linalg import EPS, numerical_rank, spectral_norm, svd


class TestSvd:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 2)])
    def test_empty_or_zero_matrix_has_rank_zero(self, shape):
        zero = np.zeros(shape)
        assert svd(zero)[3] == 0
        assert svd(zero, vectors=True)[3] == 0
        assert numerical_rank(zero) == 0
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
