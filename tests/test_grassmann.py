import dataclasses
import gc
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subpred.grassmann as grassmann
from helpers import (
    align_basis,
    benchmark_config,
    offline_data,
    principal_angles,
    random_basis,
    random_orthogonal,
)
from subpred import ExperimentConfig, chordal_distance, default_model, load_basis
from subpred import orthonormal_basis, perturb_subspace, save_basis
from subpred._linalg import EPS, svd
from subpred.errors import ConvergenceError, RankDeficientError
from subpred.grassmann import ORTHONORMALITY_TOL, BehaviorBasis, Geodesic, check_distance
from subpred.hankel import PartitionedMatrix

DIMS = (1, 1, 2, 2)  # m, p, Tini, Tf -> ambient dimension 8
# (m, p, Tini, Tf), r: MIMO pairs, the last with q - r < r
MIMO_DIMS = [((2, 2, 3, 3), 9), ((3, 2, 4, 4), 20), ((2, 1, 2, 2), 9)]


def _wrap(matrix, dims=DIMS):
    m, p, Tini, Tf = dims
    return PartitionedMatrix(data=np.asarray(matrix, dtype=float), m=m, p=p, Tini=Tini, Tf=Tf)


def _basis(matrix, dims=DIMS):
    return BehaviorBasis(matrix, *dims)


def _svd_only(monkeypatch):
    """Make grassmann factor by the SVD alone, without the Gram route."""
    monkeypatch.setattr(grassmann, "svd", lambda matrix, vectors=False, least=0: svd(matrix, vectors))


def _signed(U):
    """``U`` with each column's largest-magnitude entry made positive."""
    return U * np.copysign(1.0, U[np.abs(U).argmax(axis=0), range(U.shape[1])])


def _twin(U):
    """Another basis object with the data of ``U``, so no stored draw of
    ``U`` serves it."""
    return BehaviorBasis(U.matrix, *U.dims)


def _coordinate_basis(q, cols, dims=DIMS):
    mat = np.zeros((q, len(cols)))
    for j, c in enumerate(cols):
        mat[c, j] = 1.0
    return _basis(mat, dims)


class TestOrthonormalBasis:
    def test_orthonormal_input_spans_same_space(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = orthonormal_basis(U, 3)
        assert chordal_distance(U, V) <= 1e-10

    def test_column_scaling_irrelevant(self):
        e = np.eye(8)
        X = _wrap(np.column_stack([e[:, 0], 2 * e[:, 0], e[:, 1]]))
        V = orthonormal_basis(X, 2)
        target = _coordinate_basis(8, [0, 1])
        assert chordal_distance(V, target) <= 1e-12

    def test_projector_matches_truncated_svd(self, rng):
        X = _wrap(rng.standard_normal((8, 12)))
        r = 5
        V = orthonormal_basis(X, r)
        # oracle: full SVD truncation
        U_full, _, _ = np.linalg.svd(X.data)
        P_oracle = U_full[:, :r] @ U_full[:, :r].T
        P = V.matrix @ V.matrix.T
        assert np.linalg.norm(P - P_oracle) <= 1e-8

    def test_orthonormality_of_result(self, rng):
        X = _wrap(rng.standard_normal((8, 10)))
        V = orthonormal_basis(X, 4)
        assert np.linalg.norm(V.matrix.T @ V.matrix - np.eye(4)) <= 1e-12

    def test_experiment_data_matrix_projector(self, example_model):
        from subpred import simulate, stacked_data_matrix
        from subpred.hankel import persistently_exciting_input

        u = persistently_exciting_input(1, 30, order=10, seed=0)
        traj = simulate(example_model, u)
        X = stacked_data_matrix(traj.inputs, traj.outputs, Tini=4, Tf=4)
        V = orthonormal_basis(X, 10)
        assert V.matrix.shape == (16, 10)
        U_full, _, _ = np.linalg.svd(X.data)
        P_oracle = U_full[:, :10] @ U_full[:, :10].T
        assert np.linalg.norm(V.matrix @ V.matrix.T - P_oracle) <= 1e-8

    def test_rank_deficient_request_rejected(self, svd_calls):
        # the Gram route cannot prove rank 2 of a rank-one matrix, so the SVD
        # finds sigma_2 below the cutoff and words the refusal
        X = _wrap(np.outer(np.arange(8.0), [1.0, 2.0, 3.0]))
        sigma_2 = np.linalg.svd(X.data, compute_uv=False)[1]
        svd_calls.clear()
        message = (
            f"requested rank r=2 exceeds the numerical rank: sigma_2 = {sigma_2:.3e} "
            "is below the cutoff"
        )
        with pytest.raises(RankDeficientError, match=f"^{re.escape(message)}$"):
            orthonormal_basis(X, 2)
        assert svd_calls.eigh == [(3, 3)] and svd_calls == [(8, 3)]

    def test_rank_out_of_range(self, rng):
        X = _wrap(rng.standard_normal((8, 3)))
        with pytest.raises(ValueError, match="out of range"):
            orthonormal_basis(X, 4)


# the benchmark's ten inputs: each workload at the seeds 1, 3 and 11 that its
# correctness gate runs, and the default configuration (None)
BENCH_INPUTS = [
    (workload, seed)
    for seed in (1, 3, 11)
    for workload in ("sweep-mimo", "sweep-longrun", "rolling-predict")
] + [(None, None)]


class TestGramRoute:
    """The basis from the eigenvectors of the data matrix's smaller Gram
    matrix, against the SVD's, and the cases the route leaves to the SVD."""

    @pytest.mark.parametrize(
        "workload, seed", BENCH_INPUTS, ids=[f"{w}-{s}" for w, s in BENCH_INPUTS[:-1]] + ["default"]
    )
    def test_routes_agree_on_benchmark_inputs(self, tmp_path, monkeypatch, svd_calls, workload, seed):
        if workload is None:
            config = ExperimentConfig(model=default_model())
        else:
            config = benchmark_config(workload, seed, tmp_path)
        X, r = offline_data(config)
        svd_calls.clear()
        routed = orthonormal_basis(X, r)
        assert svd_calls == [] and svd_calls.eigh == [(X.q, X.q)]
        _svd_only(monkeypatch)
        plain = orthonormal_basis(X, r)
        # the route's estimate eps lambda_1 / (lambda_r - lambda_r+1), from
        # the SVD's values: at most 9.2e-11, on the default configuration
        s = np.linalg.svd(X.data, compute_uv=False)
        estimate = EPS * s[0] ** 2 / ((s[r - 1] - s[r]) * (s[r - 1] + s[r]))
        assert estimate <= 1e-10
        assert np.abs(routed.matrix - plain.matrix).max() <= estimate
        assert chordal_distance(routed, plain) <= estimate

    @pytest.mark.parametrize("shape", [(8, 12), (8, 5)], ids=["wide", "tall"])
    def test_sign_rule_holds_on_both_routes(self, rng, monkeypatch, shape):
        # a wide matrix's U comes from the eigenvectors of X X', a tall one's
        # as X V / sigma from those of X'X
        X, r = _wrap(rng.standard_normal(shape)), 3
        routed = orthonormal_basis(X, r).matrix
        _svd_only(monkeypatch)
        plain = orthonormal_basis(X, r).matrix
        for U in (routed, plain):
            assert np.all(U[np.abs(U).argmax(axis=0), range(r)] > 0)
        np.testing.assert_allclose(routed, plain, rtol=0, atol=1e-13)

    def test_close_singular_values_take_the_svd_route(self, rng, svd_calls):
        # sigma_3 / sigma_4 = 1 + 1e-9, so the subspace estimate
        # eps lambda_1 / (lambda_3 - lambda_4) is about 2e-6, past the
        # route's 1e-9: the basis is the SVD's, bit for bit
        svals = [4.0, 3.0, 1.0 + 1e-9, 1.0, 0.5, 0.4, 0.3, 0.2]
        data = random_orthogonal(rng, 8) @ np.diag(svals) @ random_orthogonal(rng, 12)[:8]
        svd_calls.clear()
        basis = orthonormal_basis(_wrap(data), 3)
        assert svd_calls.eigh == [(8, 8)] and svd_calls == [(8, 12)]
        np.testing.assert_array_equal(basis.matrix, _signed(np.linalg.svd(data)[0][:, :3]))

    def test_ill_conditioned_tall_basis_falls_back_to_the_svd(self, monkeypatch, svd_calls):
        # sigma_5 / sigma_1 = 1.4e-3 on an 8 x 5 data matrix: the Gram route
        # clears the rank and V, but its X V / sigma has a Gram defect of
        # 1.6e-10, which BehaviorBasis would refuse, so the SVD builds the
        # basis instead of the request raising
        rng = np.random.default_rng(10)
        data = random_orthogonal(rng, 8)[:, :5] @ np.diag(np.geomspace(1.0, 1.4e-3, 5)) @ random_orthogonal(rng, 5)
        basis = orthonormal_basis(_wrap(data), 5)
        assert svd_calls.eigh == [(5, 5)] and svd_calls == [(8, 5)]
        _svd_only(monkeypatch)
        np.testing.assert_array_equal(basis.matrix, orthonormal_basis(_wrap(data), 5).matrix)

    def test_ill_conditioned_draw_falls_back_to_the_svd(self, monkeypatch, svd_calls):
        # span U holds g3 - g1 - 1e-4 w, for g the columns of seed 2's draw,
        # so the projected draw's third singular value is 2.9e-5 of its
        # first: the Gram route's estimate for V, 2.6e-7, exceeds 1e-9, and
        # one SVD factors the draw instead of refusing it
        rng = np.random.default_rng(0)
        g = np.random.default_rng(2).standard_normal((8, 3))
        spanning = np.column_stack([g[:, 2] - g[:, 0] - 1e-4 * rng.standard_normal(8),
                                    rng.standard_normal((8, 2))])
        U = BehaviorBasis(np.linalg.qr(spanning)[0], *DIMS)
        svd_calls.clear()
        geodesic = Geodesic.draw(U, seed=2)
        assert svd_calls.eigh == [(3, 3)] and svd_calls == [(8, 3)]
        assert geodesic.defect <= ORTHONORMALITY_TOL
        _svd_only(monkeypatch)
        plain = Geodesic.draw(_twin(U), seed=2)
        for name in ("start", "heading", "squares"):
            np.testing.assert_array_equal(getattr(geodesic, name), getattr(plain, name))


class TestPrincipalAngles:
    def test_identical_subspaces_zero_angles(self, rng):
        U = random_basis(rng, DIMS, 3)
        pa = principal_angles(U, U)
        assert np.all(pa.angles <= 1e-7)
        assert np.all(pa.sines <= 1e-7)

    def test_orthogonal_lines(self):
        U = _coordinate_basis(8, [0])
        V = _coordinate_basis(8, [1])
        pa = principal_angles(U, V)
        np.testing.assert_allclose(pa.angles, [np.pi / 2], atol=1e-12)

    def test_planar_rotation_recovers_angle(self):
        for phi in np.linspace(0.0, np.pi / 2, 9):
            U = _coordinate_basis(8, [0])
            line = np.zeros((8, 1))
            line[0, 0] = np.cos(phi)
            line[1, 0] = np.sin(phi)
            V = _basis(line)
            pa = principal_angles(U, V)
            assert abs(pa.angles[0] - phi) <= 1e-9

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="ranks differ"):
            principal_angles(random_basis(rng, DIMS, 2), random_basis(rng, DIMS, 3))

    def test_ordering_and_ranges(self, rng):
        U = random_basis(rng, DIMS, 4)
        V = random_basis(rng, DIMS, 4)
        pa = principal_angles(U, V)
        assert np.all(np.diff(pa.angles) >= -1e-12)
        assert np.all(np.diff(pa.cosines) <= 1e-12)
        assert np.all((pa.angles >= 0) & (pa.angles <= np.pi / 2))

    def test_matches_independent_implementation(self, rng):
        from scipy.linalg import subspace_angles

        # scipy carries ~sqrt(eps) noise on angles that are exactly zero
        # (forced by dimension count when 2r > q); the tolerance absorbs it
        for _ in range(10):
            r = int(rng.integers(1, 6))
            U = random_basis(rng, DIMS, r)
            V = random_basis(rng, DIMS, r)
            ours = principal_angles(U, V).angles
            reference = np.sort(subspace_angles(U.matrix, V.matrix))
            np.testing.assert_allclose(ours, reference, atol=1e-7)


class TestChordalDistance:
    def test_identical_is_zero(self, rng):
        U = random_basis(rng, DIMS, 3)
        assert chordal_distance(U, U) <= 1e-12

    def test_orthogonal_lines_distance_one(self):
        assert abs(chordal_distance(_coordinate_basis(8, [0]), _coordinate_basis(8, [1])) - 1.0) <= 1e-12

    def test_representation_free(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = random_basis(rng, DIMS, 3)
        d = chordal_distance(U, V)
        for _ in range(5):
            Q1 = random_orthogonal(rng, 3)
            Q2 = random_orthogonal(rng, 3)
            d2 = chordal_distance(
                _basis(U.matrix @ Q1), _basis(V.matrix @ Q2)
            )
            assert abs(d - d2) <= 1e-10

    def test_range(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = random_basis(rng, DIMS, 3)
        d = chordal_distance(U, V)
        assert 0.0 <= d <= np.sqrt(3)

    def test_metric_axioms(self, rng):
        for _ in range(20):
            U = random_basis(rng, DIMS, 3)
            V = random_basis(rng, DIMS, 3)
            W = random_basis(rng, DIMS, 3)
            duv, dvu = chordal_distance(U, V), chordal_distance(V, U)
            assert duv >= 0.0
            assert abs(duv - dvu) <= 1e-12
            assert chordal_distance(U, U) <= 1e-10
            assert duv <= chordal_distance(U, W) + chordal_distance(W, V) + 1e-9

    def test_small_distances_resolved(self, rng):
        # sines keep precision where arccos of cosines would floor out
        U = random_basis(rng, DIMS, 3)
        for kappa in (1e-5, 1e-3):
            V = perturb_subspace(U, kappa, seed=0)
            assert abs(chordal_distance(U, V) - kappa) <= 1e-6 * max(1.0, kappa)

    def test_no_svd_per_distance(self, rng, svd_calls):
        U, V = random_basis(rng, DIMS, 3), random_basis(rng, DIMS, 3)
        chordal_distance(U, V)
        assert svd_calls == []  # the residual norm only

    @staticmethod
    def _mimo_pairs(rng, dims, r):
        """A basis U and unrelated bases and bases perturbed by 1e-12 to 1."""
        U = random_basis(rng, dims, r)
        pairs = [random_basis(rng, dims, r) for _ in range(3)]
        for eps in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0):
            Q, _ = np.linalg.qr(U.matrix + eps * rng.standard_normal(U.matrix.shape))
            pairs.append(BehaviorBasis(Q, *U.dims))
        return U, pairs

    @pytest.mark.parametrize("dims, r", MIMO_DIMS)
    def test_matches_norm_of_sines(self, rng, dims, r):
        U, pairs = self._mimo_pairs(rng, dims, r)
        for V in pairs:
            sines = principal_angles(U, V).sines
            expected = np.linalg.norm(sines)
            assert expected > 0
            assert abs(chordal_distance(U, V) - expected) <= 1e-14 * expected

    # chordal_distance(V, U) returns the swapped residual that checks
    # chordal_distance(U, V); both must agree with the projector form
    @pytest.mark.parametrize("dims, r", MIMO_DIMS)
    def test_both_residuals_match_projector_form(self, rng, dims, r):
        U, pairs = self._mimo_pairs(rng, dims, r)
        for V in pairs:
            A, B = U.matrix, V.matrix
            projector_form = np.linalg.norm(A @ A.T - B @ B.T) / np.sqrt(2.0)
            assert abs(chordal_distance(U, V) - projector_form) <= 1e-14
            assert abs(chordal_distance(V, U) - projector_form) <= 1e-14

    # V spans U's space, so V has no residual off U, but its scaled columns
    # are not orthonormal and leave a residual of U off V
    @pytest.mark.parametrize("scale", [1.01, 1 + 1e-8])
    def test_cross_check_rejects_scaled_basis(self, rng, scale):
        U = random_basis(rng, DIMS, 3)
        V = object.__new__(BehaviorBasis)  # skips the orthonormality check
        values = (U.matrix @ random_orthogonal(rng, 3) * scale, *U.dims)
        for f, value in zip(dataclasses.fields(PartitionedMatrix), values):
            object.__setattr__(V, f.name, value)
        with pytest.raises(ArithmeticError, match="chordal distance formulas disagree"):
            chordal_distance(U, V)


class TestCosineSineIdentity:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, np.pi / 2))
    def test_one_minus_cos_below_sin_squared(self, theta):
        assert 1.0 - np.cos(theta) <= np.sin(theta) ** 2 + 1e-12


class TestAlignBasis:
    def test_rotated_copy_recovered(self, rng):
        U = random_basis(rng, DIMS, 3)
        Q = random_orthogonal(rng, 3)
        aligned = align_basis(U, _basis(U.matrix @ Q))
        assert np.linalg.norm(U.matrix - aligned.matrix) <= 1e-10

    def test_never_worse_than_identity(self, rng):
        for _ in range(10):
            U = random_basis(rng, DIMS, 3)
            V = random_basis(rng, DIMS, 3)
            aligned = align_basis(U, V)
            assert (
                np.linalg.norm(U.matrix - aligned.matrix)
                <= np.linalg.norm(U.matrix - V.matrix) + 1e-12
            )

    def test_gap_matches_angle_formula(self, rng):
        # oracle: the optimal squared gap from independently computed angles
        for _ in range(10):
            U = random_basis(rng, DIMS, 3)
            V = random_basis(rng, DIMS, 3)
            aligned = align_basis(U, V)
            gap_sq = np.linalg.norm(U.matrix - aligned.matrix) ** 2
            cosines = principal_angles(U, V).cosines
            assert abs(gap_sq - (2 * 3 - 2 * cosines.sum())) <= 1e-9

    def test_gap_bounded_by_sqrt2_distance(self, rng):
        for _ in range(10):
            U = random_basis(rng, DIMS, 4)
            V = random_basis(rng, DIMS, 4)
            aligned = align_basis(U, V)
            gap = np.linalg.norm(U.matrix - aligned.matrix)
            assert gap <= np.sqrt(2.0) * chordal_distance(U, V) + 1e-9

    def test_aligned_spans_same_subspace(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = random_basis(rng, DIMS, 3)
        aligned = align_basis(U, V)
        assert chordal_distance(aligned, V) <= 1e-10


class TestPerturbSubspace:
    def test_zero_distance(self, rng):
        U = random_basis(rng, DIMS, 3)
        assert chordal_distance(U, perturb_subspace(U, 0.0, seed=1)) <= 1e-12

    def test_hits_target_distance(self, rng):
        U = random_basis(rng, DIMS, 3)
        for kappa in (0.1, 0.5, 1.2):
            V = perturb_subspace(U, kappa, seed=3)
            assert abs(chordal_distance(U, V) - kappa) <= 1e-6 * max(1.0, kappa)

    def test_distinct_seeds_give_distinct_subspaces(self, rng):
        U = random_basis(rng, DIMS, 3)
        V1 = perturb_subspace(U, 0.5, seed=1)
        V2 = perturb_subspace(U, 0.5, seed=2)
        assert chordal_distance(V1, V2) > 1e-3

    def test_deterministic_for_fixed_seed(self, rng):
        U = random_basis(rng, DIMS, 3)
        V1 = perturb_subspace(U, 0.4, seed=9)
        V2 = perturb_subspace(_twin(U), 0.4, seed=9)
        np.testing.assert_array_equal(V1.matrix, V2.matrix)

    def test_one_draw_per_basis_and_seed(self, rng, svd_calls):
        U = random_basis(rng, DIMS, 3)
        for kappa in (0.1, 0.5, 1.2):
            perturb_subspace(U, kappa, seed=3)
        # the 8 x 3 direction is factored by one eigh of its 3 x 3 Gram matrix
        assert svd_calls == [] and svd_calls.eigh == [(3, 3)]
        perturb_subspace(U, 0.5, seed=4)
        assert svd_calls.eigh == [(3, 3)] * 2  # a new seed draws again
        perturb_subspace(_twin(U), 0.5, seed=4)
        assert svd_calls.eigh == [(3, 3)] * 3  # so does another basis object with equal data
        assert svd_calls == []

    def test_reused_draw_is_bit_identical_to_fresh_draw(self, rng):
        U = random_basis(rng, DIMS, 3)
        for kappa in (0.0, 0.1, 0.5, 1.2):
            reused = perturb_subspace(U, kappa, seed=3)
            fresh = perturb_subspace(_twin(U), kappa, seed=3)
            np.testing.assert_array_equal(reused.matrix, fresh.matrix)
        geodesic = Geodesic.draw(U, seed=3)
        fresh = Geodesic.draw(_twin(U), seed=3)
        for name in ("start", "heading"):
            np.testing.assert_array_equal(getattr(geodesic, name), getattr(fresh, name))

    def test_stored_draw_keeps_no_basis_alive(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = perturb_subspace(U, 0.5, seed=3)
        alive = weakref.ref(U)
        del U
        gc.collect()
        assert alive() is None
        assert np.linalg.norm(V.matrix.T @ V.matrix - np.eye(3)) <= 1e-10

    @pytest.mark.parametrize("seed", [None, 1.0, np.random.default_rng(0)])
    def test_non_integer_seed_rejected(self, rng, seed):
        # a draw from None or a Generator would not repeat, so it is not reused
        with pytest.raises(TypeError):
            perturb_subspace(random_basis(rng, DIMS, 3), 0.5, seed=seed)

    def test_out_of_range_rejected(self, rng):
        U = random_basis(rng, DIMS, 3)
        with pytest.raises(ValueError, match="out of range"):
            perturb_subspace(U, -0.1, seed=0)
        # rank 3 in dimension 8: sqrt(3) is the geodesic's end point, one ulp past it is not
        with pytest.raises(ValueError, match="out of range"):
            perturb_subspace(U, np.nextafter(np.sqrt(3.0), 2.0), seed=0)

    def test_end_point_reached_when_complement_is_large(self, rng):
        # q - r >= r: every principal angle can reach pi/2, so sqrt(r) is reachable
        check_distance(12, 4, 2.0)
        U = random_basis(rng, DIMS, 3)
        V = perturb_subspace(U, np.sqrt(3.0), seed=0)
        assert abs(chordal_distance(U, V) - np.sqrt(3.0)) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_distance_named(self, bad):
        # finiteness is checked before the range, so inf is not "out of range"
        with pytest.raises(ValueError, match=r"^kappa must be finite, got -?(nan|inf)$"):
            check_distance(8, 3, bad)

    @pytest.mark.parametrize("q, r", [(4, 7), (8, 9), (8, 0)])
    def test_rank_outside_the_dimension_named(self, q, r):
        # checked before sqrt(min(r, q - r)), which has no value for r > q
        with pytest.raises(ValueError, match=f"^rank r={r} out of range for ambient dimension q={q}$"):
            check_distance(q, r, 0.0)

    def test_unreachable_distance_rejected(self, rng):
        # rank 6 in dimension 8 leaves a 2-dimensional complement
        U = random_basis(rng, DIMS, 6)
        with pytest.raises(ValueError, match="unreachable"):
            perturb_subspace(U, 2.0, seed=0)

    def test_result_is_orthonormal(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = perturb_subspace(U, 0.7, seed=4)
        assert np.linalg.norm(V.matrix.T @ V.matrix - np.eye(3)) <= 1e-10


def _moving(basis):
    """k = min(r, q - r), the number of principal angles a geodesic member
    moves, and sqrt(k), the distance at which the geodesic ends."""
    k = min(basis.r, basis.q - basis.r)
    return k, np.sqrt(k)


def _behavior_basis(model, Tini, Tf, sigma=0.0):
    """Basis estimated from offline data as the experiment builds it."""
    from subpred import NoiseSpec, simulate, stacked_data_matrix
    from subpred.hankel import persistently_exciting_input

    L = Tini + Tf
    u = persistently_exciting_input(model.m, 40 * L, order=model.n + L, seed=0)
    traj = simulate(model, u, noise=NoiseSpec.relative_gaussian(sigma, 1))
    X = stacked_data_matrix(traj.inputs, traj.outputs, Tini, Tf)
    return orthonormal_basis(X, model.m * L + model.n)


class TestGeodesic:
    @pytest.fixture(
        params=["mimo-random", "mimo-behavior", "siso-default"],
    )
    def basis(self, request, rng, example_model):
        from helpers import random_model

        if request.param == "mimo-random":
            return random_basis(rng, (2, 2, 3, 3), 8)
        if request.param == "mimo-behavior":
            model = random_model(np.random.default_rng(5), n=4, m=2, p=3)
            return _behavior_basis(model, 3, 3, sigma=0.02)
        # the default experiment: rank 10 in dimension 16, so the tangent
        # direction has rank q - r = 6 < r
        return _behavior_basis(example_model, 4, 4, sigma=0.02)

    def test_closed_form_matches_measured_distance(self, basis):
        geodesic = Geodesic.draw(basis, seed=3)
        k, largest = _moving(basis)
        # up to the largest distance check_distance admits, sqrt(min(r, q - r))
        for kappa in (*np.linspace(0.0, largest, 11), 1e-9, 1e-3, 0.1, 0.7):
            member, measured = geodesic.member(kappa)
            # chordal_distance measures the built member independently
            assert abs(measured - chordal_distance(basis, member)) <= 1e-12
            assert abs(measured - kappa) <= 1e-12
            angles = principal_angles(basis, member).angles
            expected = np.r_[np.zeros(basis.r - k), np.full(k, np.arcsin(kappa / largest))]
            assert np.max(np.abs(angles - expected)) <= 1e-12

    def test_direction_rank_deficient_when_complement_is_small(self, example_model):
        basis = _behavior_basis(example_model, 4, 4, sigma=0.02)
        geodesic = Geodesic.draw(basis, seed=3)
        assert geodesic.heading.shape == (basis.q, basis.q - basis.r)
        member, _ = geodesic.member(np.sqrt(basis.q - basis.r))
        angles = principal_angles(basis, member).angles
        assert np.count_nonzero(angles > 1e-8) == basis.q - basis.r

    def test_fields_are_start_and_k_heading_columns(self, basis):
        names = [f.name for f in dataclasses.fields(Geodesic)]
        assert names == ["origin", "start", "heading", "squares", "defect"]
        geodesic = Geodesic.draw(basis, seed=3)
        k, _ = _moving(basis)
        assert geodesic.start.shape == (basis.q, basis.r)
        assert geodesic.heading.shape == (basis.q, k)
        assert geodesic.squares.shape == (2, 4)
        assert np.linalg.norm(geodesic.heading.T @ geodesic.heading - np.eye(k)) <= 1e-10
        assert np.linalg.norm(geodesic.start.T @ geodesic.heading) <= 1e-10
        assert chordal_distance(basis, _basis(geodesic.start, basis.dims)) <= 1e-12

    def test_distance_increases_along_the_geodesic(self, basis):
        geodesic = Geodesic.draw(basis, seed=8)
        kappas = np.linspace(0.0, 0.95 * _moving(basis)[1], 15)
        measured = [geodesic.member(kappa)[1] for kappa in kappas]
        assert np.all(np.diff(measured) > 0)

    def test_wrapper_is_bit_identical_to_sweep_member(self, small_config):
        from subpred.experiment import prepare, run_trial

        # a declined sweep member maps the rows of its Geodesic.blend, the
        # matrix of Geodesic.member, and every member reports its distance
        # from Geodesic.measure, as Geodesic.member does
        workspace = prepare(small_config)
        for n in (1, 5, small_config.N):
            out = run_trial(workspace, n)
            kappa = small_config.kappas[n - 1]
            V = perturb_subspace(workspace.geodesic.origin, kappa, seed=small_config.seed_perturb)
            member, measured = workspace.geodesic.member(kappa)
            np.testing.assert_array_equal(V.matrix, member.matrix)
            np.testing.assert_array_equal(workspace.geodesic.blend(kappa), member.matrix)
            assert abs(measured - chordal_distance(workspace.geodesic.origin, V)) <= 1e-12
            assert out.block.kappa == measured

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_kappa_rejected(self, rng, bad):
        U = random_basis(rng, DIMS, 3)
        geodesic = Geodesic.draw(U, seed=0)
        for solve in (geodesic.member, lambda k: perturb_subspace(U, k, seed=0)):
            with pytest.raises(ValueError):
                solve(bad)

    def test_measured_miss_raises(self, rng):
        U = random_basis(rng, DIMS, 3)
        geodesic = Geodesic.draw(U, seed=0)
        # both squared norms scaled alike: they still agree with each other,
        # and both read 0.3 + 2e-6, past the target tolerance 1e-6; the
        # sweep's run_trial reads its distance from measure too
        missed = dataclasses.replace(geodesic, squares=geodesic.squares * ((0.3 + 2e-6) / 0.3) ** 2)
        for solve in (missed.member, missed.measure):
            with pytest.raises(ConvergenceError, match="measures distance"):
                solve(0.3)

    def test_member_angles_are_equal(self, basis):
        geodesic = Geodesic.draw(basis, seed=4)
        k, largest = _moving(basis)
        end, _ = geodesic.member(largest)
        assert abs(chordal_distance(basis, end) - largest) <= 1e-12
        # s = 1 and c = 0 exactly at the end point, which is the heading
        np.testing.assert_array_equal(end.matrix[:, :k], geodesic.heading)
        for kappa in (1e-6, 0.3, 0.9):
            member, _ = geodesic.member(kappa)
            angles = principal_angles(basis, member).angles
            assert np.max(np.abs(angles[-k:] - np.arcsin(kappa / largest))) <= 1e-12
            assert np.max(angles[:-k], initial=0.0) <= 1e-12
            np.testing.assert_array_equal(member.matrix[:, k:], geodesic.start[:, k:])

    def test_direction_below_full_rank_raises(self, rng, monkeypatch, svd_calls):
        # the rank finding is the SVD's: with the Gram route declined, the
        # draw makes one SVD of the 8 x 3 direction, whose rank reads 2
        U = random_basis(rng, DIMS, 3)  # k = min(3, 8 - 3) = 3
        svd, asked = grassmann.svd, []

        def rank_two_svd(matrix, vectors=False, least=0):
            asked.append(least)
            W, s, Vt, _ = svd(matrix, vectors)
            return W, s, Vt, 2

        monkeypatch.setattr(grassmann, "svd", rank_two_svd)
        with pytest.raises(ConvergenceError, match="seed=5 has rank 2, below 3"):
            Geodesic.draw(U, seed=5)
        assert asked == [3] and svd_calls == [(8, 3)] and svd_calls.eigh == []

    def test_draw_inside_the_basis_span_raises(self, monkeypatch, svd_calls):
        # U spans the columns of the normal draw of seed 7, so the projected
        # draw is rounding error of full relative rank.  The Gram route
        # clears it and the draw is refused on that one factorization: the
        # SVD refuses the same draw, so it is not asked again
        U = random_basis(np.random.default_rng(7), DIMS, 3)
        svd_calls.clear()
        with pytest.raises(ConvergenceError, match="seed=7 is not orthogonal to the basis"):
            Geodesic.draw(U, seed=7)
        assert svd_calls.eigh == [(3, 3)] and svd_calls == []
        Geodesic.draw(U, seed=8)
        _svd_only(monkeypatch)
        svd_calls.clear()
        with pytest.raises(ConvergenceError, match="seed=7 is not orthogonal to the basis"):
            Geodesic.draw(U, seed=7)
        assert svd_calls.eigh == [] and svd_calls == [(8, 3)]

    def test_full_space_basis_serves_zero_distance(self):
        U = _coordinate_basis(8, range(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert perturb_subspace(U, 0.0, seed=0) is U
        with pytest.raises(ValueError, match="unreachable"):
            perturb_subspace(U, 0.1, seed=0)

    def test_arrays_are_read_only(self, rng):
        geodesic = Geodesic.draw(random_basis(rng, DIMS, 3), seed=0)
        for arr in (geodesic.start, geodesic.heading, geodesic.squares):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestBasisFiles:
    def test_round_trip(self, tmp_path, rng):
        U = random_basis(rng, DIMS, 3)
        path = tmp_path / "basis.csv"
        save_basis(path, U)
        loaded = load_basis(path)
        np.testing.assert_array_equal(loaded.matrix, U.matrix)
        assert loaded.dims == U.dims

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "basis.csv"
        path.write_text("not a header\n1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_basis(path)

    def test_ragged_row_rejected(self, tmp_path, rng):
        U = random_basis(rng, DIMS, 2)
        path = tmp_path / "basis.csv"
        save_basis(path, U)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 2 entries"):
            load_basis(path)

    def test_wrong_row_count_rejected(self, tmp_path, rng):
        U = random_basis(rng, DIMS, 2)
        path = tmp_path / "basis.csv"
        save_basis(path, U)
        lines = path.read_text().splitlines()
        # PartitionedMatrix reads data with (m+p)(Tini+Tf) = 8 rows, named
        # with the file; a header without rows is a basis of no rows
        for rows in (7, 0):
            path.write_text("\n".join(lines[: 1 + rows]) + "\n")
            message = rf"^{re.escape(str(path))}: data has {rows} rows, expected 8$"
            with pytest.raises(ValueError, match=message):
                load_basis(path)


class TestBehaviorBasisInvariants:
    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            _basis(rng.standard_normal((8, 3)))

    def test_rank_beyond_ambient_rejected(self, rng):
        with pytest.raises(ValueError):
            _basis(rng.standard_normal((8, 9)))

    def test_gram_defect_kept_read_only(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Q[:, 0] *= 1 + 1e-11
        U = _basis(Q)
        assert U.gram_defect == np.linalg.norm(Q.T @ Q - np.eye(3))
        assert U.gram_defect == pytest.approx(2e-11, rel=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            U.gram_defect = 0.0

    def test_nan_gram_defect_rejected(self, rng):
        # A basis is a PartitionedMatrix, whose own check stops NaN data
        # before the Gram defect, NaN too, is measured.
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Q[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _basis(Q)
