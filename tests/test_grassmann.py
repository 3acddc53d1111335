import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_basis, random_orthogonal
from subpred import (
    align_basis,
    chordal_distance,
    load_basis,
    orthonormal_basis,
    perturb_subspace,
    principal_angles,
    save_basis,
)
from subpred.errors import ConvergenceError, RankDeficientError
from subpred.grassmann import BehaviorBasis, Geodesic
from subpred.hankel import PartitionedMatrix

DIMS = (1, 1, 2, 2)  # m, p, Tini, Tf -> ambient dimension 8
# (m, p, Tini, Tf), r: MIMO pairs, the last with q - r < r
MIMO_DIMS = [((2, 2, 3, 3), 9), ((3, 2, 4, 4), 20), ((2, 1, 2, 2), 9)]


def _wrap(matrix, dims=DIMS):
    m, p, Tini, Tf = dims
    return PartitionedMatrix(data=np.asarray(matrix, dtype=float), m=m, p=p, Tini=Tini, Tf=Tf)


def _basis(matrix, dims=DIMS):
    return BehaviorBasis(_wrap(matrix, dims))


def _coordinate_basis(q, cols, dims=DIMS):
    mat = np.zeros((q, len(cols)))
    for j, c in enumerate(cols):
        mat[c, j] = 1.0
    return _basis(mat, dims)


class TestOrthonormalBasis:
    def test_orthonormal_input_spans_same_space(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = orthonormal_basis(U.basis, 3)
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

    def test_rank_deficient_request_rejected(self):
        X = _wrap(np.outer(np.arange(8.0), [1.0, 2.0, 3.0]))  # rank one
        with pytest.raises(RankDeficientError, match="numerical rank"):
            orthonormal_basis(X, 2)

    def test_rank_out_of_range(self, rng):
        X = _wrap(rng.standard_normal((8, 3)))
        with pytest.raises(ValueError, match="out of range"):
            orthonormal_basis(X, 4)


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
            pairs.append(BehaviorBasis(U.basis.with_data(Q)))
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
        object.__setattr__(
            V, "basis", U.basis.with_data(U.matrix @ random_orthogonal(rng, 3) * scale)
        )
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
        V2 = perturb_subspace(U, 0.4, seed=9)
        np.testing.assert_array_equal(V1.matrix, V2.matrix)

    def test_out_of_range_rejected(self, rng):
        U = random_basis(rng, DIMS, 3)
        with pytest.raises(ValueError, match="out of range"):
            perturb_subspace(U, -0.1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            perturb_subspace(U, np.sqrt(3.0), seed=0)

    def test_unreachable_distance_rejected(self, rng):
        # rank 6 in dimension 8 leaves a 2-dimensional complement
        U = random_basis(rng, DIMS, 6)
        with pytest.raises(ValueError, match="unreachable"):
            perturb_subspace(U, 2.0, seed=0)

    def test_result_is_orthonormal(self, rng):
        U = random_basis(rng, DIMS, 3)
        V = perturb_subspace(U, 0.7, seed=4)
        assert np.linalg.norm(V.matrix.T @ V.matrix - np.eye(3)) <= 1e-10


def _behavior_basis(model, Tini, Tf, sigma=0.0):
    """Basis estimated from offline data as the experiment builds it."""
    from subpred import NoiseSpec, simulate, stacked_data_matrix
    from subpred.hankel import persistently_exciting_input

    L = Tini + Tf
    u = persistently_exciting_input(model.m, 40 * L, order=model.n + L, seed=0)
    noise = NoiseSpec.relative_gaussian(sigma, 1) if sigma else NoiseSpec.none()
    traj = simulate(model, u, noise=noise)
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
        for t in np.linspace(0.0, 1.0, 11):
            point = geodesic.point(t)
            measured = chordal_distance(basis, point)
            assert abs(geodesic.distance(t) - measured) <= 1e-12
            angles = principal_angles(basis, point).angles
            assert np.max(np.abs(angles - np.sort(t * geodesic.rates))) <= 1e-12
        for kappa in (1e-9, 1e-3, 0.1, 0.7, geodesic.distance(1.0)):
            member, measured = geodesic.member(kappa)
            assert measured == chordal_distance(basis, member)
            assert abs(measured - kappa) <= 1e-12

    def test_direction_rank_deficient_when_complement_is_small(self, example_model):
        basis = _behavior_basis(example_model, 4, 4, sigma=0.02)
        geodesic = Geodesic.draw(basis, seed=3)
        assert np.count_nonzero(geodesic.rates > 1e-8) == basis.q - basis.r

    def test_distance_increases_along_the_geodesic(self, basis):
        geodesic = Geodesic.draw(basis, seed=8)
        kappas = np.linspace(0.0, 0.95 * geodesic.distance(1.0), 15)
        measured = [geodesic.member(kappa)[1] for kappa in kappas]
        assert np.all(np.diff(measured) > 0)

    def test_step_is_exact_to_rounding(self, basis):
        geodesic = Geodesic.draw(basis, seed=2)
        for kappa in (1e-6, 0.05, 0.5):
            t = geodesic.step(kappa)
            assert geodesic.distance(np.nextafter(t, 0.0)) <= kappa <= geodesic.distance(np.nextafter(t, 1.0))

    def test_wrapper_is_bit_identical_to_sweep_member(self, small_config):
        from subpred.experiment import prepare, run_trial

        workspace = prepare(small_config)
        for n in (1, 5, small_config.N):
            out = run_trial(workspace, n)
            kappa = small_config.kappas[n - 1]
            V = perturb_subspace(workspace.basis, kappa, seed=small_config.seed_perturb)
            np.testing.assert_array_equal(V.matrix, out.basis.matrix)
            assert out.block.kappa == chordal_distance(workspace.basis, V)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_kappa_rejected(self, rng, bad):
        U = random_basis(rng, DIMS, 3)
        geodesic = Geodesic.draw(U, seed=0)
        for solve in (geodesic.step, geodesic.member, lambda k: perturb_subspace(U, k, seed=0)):
            with pytest.raises(ValueError):
                solve(bad)

    def test_measured_miss_raises(self, rng, monkeypatch):
        import subpred.grassmann as grassmann

        U = random_basis(rng, DIMS, 3)
        geodesic = Geodesic.draw(U, seed=0)
        monkeypatch.setattr(grassmann, "chordal_distance", lambda A, B: 0.3 + 2e-6)
        with pytest.raises(ConvergenceError, match="measures distance"):
            geodesic.member(0.3)

    def test_target_beyond_geodesic_end_raises(self, rng):
        # rank 3 in dimension 8: sqrt(3) is reachable in principle, but a
        # random direction's end point lies closer
        U = random_basis(rng, DIMS, 3)
        geodesic = Geodesic.draw(U, seed=0)
        beyond = 0.5 * (geodesic.distance(1.0) + np.sqrt(3.0) * (1 - 1e-6))
        with pytest.raises(ConvergenceError, match="short of the requested"):
            geodesic.member(beyond)

    def test_full_space_basis_serves_zero_distance(self):
        U = _coordinate_basis(8, range(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert perturb_subspace(U, 0.0, seed=0) is U
        with pytest.raises(ValueError, match="unreachable"):
            perturb_subspace(U, 0.1, seed=0)

    def test_arrays_are_read_only(self, rng):
        geodesic = Geodesic.draw(random_basis(rng, DIMS, 3), seed=0)
        for arr in (geodesic.start, geodesic.heading, geodesic.rates):
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
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="data rows"):
            load_basis(path)


class TestBehaviorBasisInvariants:
    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(ValueError, match="orthonormal"):
            _basis(rng.standard_normal((8, 3)))

    def test_rank_beyond_ambient_rejected(self, rng):
        with pytest.raises(ValueError):
            _basis(rng.standard_normal((8, 9)))

    def test_nan_gram_defect_rejected(self, rng):
        # PartitionedMatrix rejects NaN itself; swap it in behind that check
        # so the basis's own test is exercised: a NaN defect must not pass.
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        X = PartitionedMatrix(data=Q, m=1, p=1, Tini=2, Tf=2)
        Q[0, 0] = np.nan
        object.__setattr__(X, "data", Q)
        with pytest.raises(ValueError, match="orthonormal.*nan"):
            BehaviorBasis(X)
