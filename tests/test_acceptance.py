"""Acceptance suite: every numbered criterion runs at its stated tolerance
and prints one pass/fail line.  Criteria 7, 8 and 10 exercise the bundled
experiment end to end; the rest are randomized property checks."""

import dataclasses
import tempfile
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from helpers import (
    align_basis,
    conditioned_invertible,
    offline_data,
    pinv_perturbation_bound,
    principal_angles,
    random_basis,
    random_model,
    random_orthogonal,
    single_angle_member,
    weyl_check,
)
from subpred import (
    ExperimentConfig,
    StateSpaceModel,
    chordal_distance,
    gain_bound,
    gamma,
    lipschitz_bound,
    observability_degree,
    one_step_bound,
    orthonormal_basis,
    perturb_subspace,
    pseudoinverse,
    simulate,
    stacked_data_matrix,
    subspace_predict,
    trajectory_generation_matrix,
)
from subpred.cli import main as cli_main
from subpred.errors import HypothesisViolationError
from subpred.experiment import default_model, run_experiment, run_single
from subpred.grassmann import BehaviorBasis
from subpred.hankel import PartitionedMatrix, persistently_exciting_input
from subpred.predictor import PredictionContext, predict_from_subspace

SQRT2 = np.sqrt(2.0)


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def _noise_free_data(rng, model, Tini, Tf):
    L = Tini + Tf
    T = (model.m + 1) * (model.n + L) + 10
    u = persistently_exciting_input(model.m, T, order=model.n + L, seed=int(rng.integers(2**31)))
    traj = simulate(model, u, x0=rng.standard_normal(model.n))
    return stacked_data_matrix(traj.inputs, traj.outputs, Tini, Tf)


def _behavior_basis(model, Tini, Tf):
    L = Tini + Tf
    phi = PartitionedMatrix(
        data=trajectory_generation_matrix(model, L), m=model.m, p=model.p, Tini=Tini, Tf=Tf
    )
    return orthonormal_basis(phi, model.n + model.m * L)


def _genuine_context(rng, model, Tini, Tf):
    T = Tini + Tf + 4
    traj = simulate(model, rng.standard_normal((T, model.m)), x0=rng.standard_normal(model.n))
    t = 2
    return PredictionContext(
        u_ini=traj.inputs[t : t + Tini],
        u=rng.standard_normal((Tf, model.m)),
        y_ini=traj.outputs[t : t + Tini],
        m=model.m, p=model.p, Tini=Tini, Tf=Tf,
    )


@lru_cache(maxsize=None)
def _sweep(Tini: int, Tf: int):
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(model=default_model(), Tini=Tini, Tf=Tf, output_dir=out)
        _, summaries = run_experiment(config)
    kappas = np.array([s.kappa for s in summaries])
    errors = np.array([s.avg_error for s in summaries])
    bounds = [(s.kappa, s.avg_bound) for s in summaries if s.avg_bound is not None]
    return kappas, errors, bounds


def test_criterion_01_representation_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        model = random_model(rng, n=int(rng.integers(1, 4)))
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 4))
        X = _noise_free_data(rng, model, Tini, Tf)
        r = model.m * (Tini + Tf) + model.n
        U = orthonormal_basis(X, r)
        ctx = _genuine_context(rng, model, Tini, Tf)
        b_norm = max(np.linalg.norm(ctx.b), 1e-12)
        base = predict_from_subspace(U, ctx).y_pred
        for T in (random_orthogonal(rng, r), conditioned_invertible(rng, r, cond=1e3)):
            rebased = PartitionedMatrix(U.matrix @ T, *U.dims)
            gap = np.linalg.norm(subspace_predict(rebased, ctx).y_pred - base)
            worst = max(worst, gap / b_norm)
        assert worst <= 1e-8, f"prediction discrepancy {worst:.3e} exceeds 1e-8*|b|"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s, budget 30s"
    _report("criterion 1 (representation invariance, 200 instances)")


def test_criterion_02_data_matrix_spans_behavior():
    rng = np.random.default_rng(202)
    from subpred._linalg import svd

    for _ in range(50):
        model = random_model(rng, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 3)),
                             p=int(rng.integers(1, 3)))
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 3))
        L = Tini + Tf
        r = model.m * L + model.n
        X = _noise_free_data(rng, model, Tini, Tf)
        assert svd(X.data)[3] == r, "rank of the stacked data matrix is not mL+n"
        d = chordal_distance(orthonormal_basis(X, r), _behavior_basis(model, Tini, Tf))
        assert d < 1e-8, f"data matrix span is {d:.3e} away from the behavior"
    _report("criterion 2 (data matrix spans the behavior, 50 models)")


def test_criterion_03_context_block_singular_value_bound():
    rng = np.random.default_rng(303)
    for _ in range(100):
        model = random_model(rng, n=int(rng.integers(1, 4)))
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 4))
        beta = observability_degree(model, Tini)
        alpha = gain_bound(model, Tini + Tf)
        floor = min(1.0, beta) / alpha
        U = _behavior_basis(model, Tini, Tf)
        sigma = np.linalg.svd(U.context_block, compute_uv=False)[-1]
        assert sigma >= floor - 1e-9
        rotated = U.matrix @ random_orthogonal(rng, U.r)
        sigma_rot = np.linalg.svd(rotated[: len(U.context_block)], compute_uv=False)[-1]
        assert sigma_rot >= floor - 1e-9
    _report("criterion 3 (context-block singular value floor, 100 models)")


def test_criterion_04_procrustes_alignment():
    rng = np.random.default_rng(404)
    for _ in range(200):
        m, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        Tini, Tf = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q = (m + p) * (Tini + Tf)
        r = int(rng.integers(1, q))
        U = random_basis(rng, (m, p, Tini, Tf), r)
        V = random_basis(rng, (m, p, Tini, Tf), r)
        aligned = align_basis(U, V)
        gap_sq = np.linalg.norm(U.matrix - aligned.matrix) ** 2
        cosines = principal_angles(U, V).cosines
        assert abs(gap_sq - (2 * r - 2 * cosines.sum())) <= 1e-9
        d = chordal_distance(U, V)
        assert gap_sq <= 2 * d**2 + 1e-9
        assert np.linalg.norm(U.matrix - aligned.matrix) <= np.linalg.norm(U.matrix - V.matrix) + 1e-12
    _report("criterion 4 (optimal basis alignment, 200 pairs)")


def _full_map(U):
    """The prediction map G = Y_f pinv(context rows) of a basis."""
    return U.y_future @ pseudoinverse(U.context_block)


def _check_full_horizon_bound(rng, model, Tini, Tf, worst_context=False):
    """Check the bound on one genuine context and, with ``worst_context``, on
    the worst genuine context of unit norm; returns that context's
    error/bound ratio, or 0 without it."""
    g = gamma(gain_bound(model, Tini + Tf), observability_degree(model, Tini))
    U = _behavior_basis(model, Tini, Tf)
    kappa = rng.uniform(0.0, 1.0) * g / (2 * SQRT2)
    Uhat = perturb_subspace(U, kappa, seed=int(rng.integers(2**31)))
    kappa = chordal_distance(U, Uhat)
    ctx = _genuine_context(rng, model, Tini, Tf)
    b_norm = np.linalg.norm(ctx.b)
    err = np.linalg.norm(
        predict_from_subspace(Uhat, ctx).y_pred - predict_from_subspace(U, ctx).y_pred
    )
    bound = lipschitz_bound(g, kappa, b_norm)
    assert err <= bound + 1e-9 * b_norm, f"bound violated: err={err}, bound={bound}"
    if not worst_context:
        return 0.0
    # genuine contexts span the column space of U's context block; Q is an
    # orthonormal basis of it, so the worst unit context gives ||(Ghat - G) Q||_2
    Q = np.linalg.qr(U.context_block)[0]
    worst = np.linalg.norm((_full_map(Uhat) - _full_map(U)) @ Q, 2)
    bound = lipschitz_bound(g, kappa, 1.0)
    assert worst <= bound + 1e-9, f"bound violated: worst={worst}, bound={bound}"
    return worst / bound if bound > 0 else 0.0


MIMO_FULL_HORIZON_CASES = 200


def test_criterion_05_full_horizon_bound_validity():
    rng = np.random.default_rng(505)
    holds = 0
    for _ in range(500):
        model = random_model(rng, n=int(rng.integers(1, 3)))
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 3))
        _check_full_horizon_bound(rng, model, Tini, Tf)
        holds += 1
    assert holds == 500
    # larger systems and horizons as in criterion 6, drawn after the 500
    # small cases so that those stay as they were
    worst_ratio = 0.0
    for _ in range(MIMO_FULL_HORIZON_CASES):
        model = random_model(
            rng, n=int(rng.integers(1, 9)), m=int(rng.integers(1, 4)), p=int(rng.integers(1, 4))
        )
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 7))
        ratio = _check_full_horizon_bound(rng, model, Tini, Tf, worst_context=True)
        worst_ratio = max(worst_ratio, ratio)
    _report(
        f"criterion 5 (full-horizon bound validity, 500/500 + {MIMO_FULL_HORIZON_CASES} larger "
        f"systems; largest worst-context ratio {worst_ratio:.3g})"
    )


def _one_step_map(U, p):
    """Rows of the prediction map G = Y_f pinv(context rows) that give the
    first predicted output."""
    return U.y_future[:p] @ pseudoinverse(U.context_block)


def _equal_angle_member(rng, U, kappa):
    return perturb_subspace(U, kappa, seed=int(rng.integers(2**31)))


def _check_one_step_bound(rng, model, Tini, Tf, perturb=_equal_angle_member):
    """Check the one-step bound at one member ``perturb(rng, U, kappa)`` of
    the true behavior; returns the worst unit-context ratio error / bound."""
    U = _behavior_basis(model, Tini, Tf)
    sigma_true = float(np.linalg.svd(U.context_block, compute_uv=False)[-1])
    # within sigma_true/(3*sqrt(2)) the perturbed context block keeps
    # sigma >= 2*sqrt(2)*kappa, so the computable hypothesis holds
    kappa = rng.uniform(0.0, 1.0) * sigma_true / (3 * SQRT2)
    Uhat = perturb(rng, U, kappa)
    kappa = chordal_distance(U, Uhat)
    sigma_hat = float(np.linalg.svd(Uhat.context_block, compute_uv=False)[-1])
    assert kappa <= sigma_hat / (2 * SQRT2) + 1e-12
    norm_first = float(np.linalg.norm(Uhat.y_future[: model.p], 2))
    ctx = _genuine_context(rng, model, Tini, Tf)
    b_norm = np.linalg.norm(ctx.b)
    err = np.linalg.norm(
        predict_from_subspace(Uhat, ctx).y_pred[: model.p]
        - predict_from_subspace(U, ctx).y_pred[: model.p]
    )
    bound = one_step_bound(sigma_hat, norm_first, kappa, b_norm)
    assert err <= bound + 1e-9 * b_norm, f"one-step bound violated: err={err}, bound={bound}"
    # the worst context of unit norm: the spectral norm of the maps' gap
    worst = np.linalg.norm(_one_step_map(Uhat, model.p) - _one_step_map(U, model.p), 2)
    bound = one_step_bound(sigma_hat, norm_first, kappa, 1.0)
    assert worst <= bound + 1e-9, f"one-step bound violated: worst={worst}, bound={bound}"
    return worst / bound


MIMO_ONE_STEP_CASES = 200


def test_criterion_06_one_step_bound_validity():
    rng = np.random.default_rng(606)
    for _ in range(500):
        model = random_model(rng, n=int(rng.integers(1, 3)))
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 3))
        _check_one_step_bound(rng, model, Tini, Tf)
    # larger systems (n <= 8, up to three inputs and outputs) and longer
    # horizons, drawn after the 500 small cases so that those stay as they were
    for _ in range(MIMO_ONE_STEP_CASES):
        model = random_model(
            rng, n=int(rng.integers(1, 9)), m=int(rng.integers(1, 4)), p=int(rng.integers(1, 4))
        )
        Tini = model.n + int(rng.integers(0, 2))
        Tf = int(rng.integers(1, 7))
        _check_one_step_bound(rng, model, Tini, Tf)
    _report(f"criterion 6 (one-step bound validity, 500 + {MIMO_ONE_STEP_CASES} larger systems)")


SINGLE_ANGLE_CASES = 300


@pytest.mark.parametrize("mimo", [False, True], ids=["default", "mimo"])
def test_one_step_bound_at_single_angle_members(mimo):
    # an equal-angle member spreads kappa over all k moving angles; a
    # single-angle member puts all of it into one direction
    rng = np.random.default_rng(607)
    model = random_model(rng, n=4, m=2, p=3) if mimo else default_model()
    Tini = Tf = model.n + 2
    worst_ratio = max(
        _check_one_step_bound(rng, model, Tini, Tf, perturb=single_angle_member)
        for _ in range(SINGLE_ANGLE_CASES)
    )
    U = _behavior_basis(model, Tini, Tf)
    angles = principal_angles(U, single_angle_member(rng, U, 0.01)).angles
    assert abs(angles[-1] - np.arcsin(0.01)) <= 1e-12 and np.max(angles[:-1]) <= 1e-12
    _report(
        f"one-step bound at {SINGLE_ANGLE_CASES} single-angle members "
        f"({'mimo' if mimo else 'default model'}; largest worst-context ratio {worst_ratio:.3g})"
    )


def _ci_mimo_config(sigma):
    """The MIMO configuration of the CI's byte-identical reruns (n = 2,
    m = p = 2, Tini = Tf = 2, T = 40) at noise level ``sigma``."""
    model = StateSpaceModel(
        A=[[0.5, 0.1], [-0.2, 0.7]], B=[[1.0, 0.0], [0.5, 1.0]],
        C=[[1.0, 0.0], [0.3, 1.0]], D=[[0.0, 0.0], [0.1, 0.0]],
    )
    return ExperimentConfig(model, Tini=2, Tf=2, T=40, sigma=sigma)


ESTIMATE_CONTEXTS = 50


@pytest.mark.parametrize(
    "config",
    [
        *[ExperimentConfig(default_model(), sigma=sigma) for sigma in (0.0, 1e-8, 1e-6)],
        *[_ci_mimo_config(sigma) for sigma in (0.0, 1e-8, 1e-6, 1e-4)],
    ],
    ids=lambda config: f"{'default' if config.model.m == 1 else 'mimo'}-{config.sigma:g}",
)
def test_bounds_cover_the_estimated_basis(config):
    # the paper's setting: the basis estimated from the sweep's offline data,
    # at the default seeds, against the true behavior, at the distance
    # between them; not a geodesic member drawn around either
    model, Tini, Tf, p = config.model, config.Tini, config.Tf, config.model.p
    data, r = offline_data(config)
    Uhat = orthonormal_basis(data, r)
    U = _behavior_basis(model, Tini, Tf)
    kappa = chordal_distance(U, Uhat)
    sigma_hat = float(np.linalg.svd(Uhat.context_block, compute_uv=False)[-1])
    norm_first = float(np.linalg.norm(Uhat.y_future[:p], 2))
    g = gamma(gain_bound(model, Tini + Tf), observability_degree(model, Tini))
    full_horizon = kappa <= g / (2 * SQRT2)
    rng = np.random.default_rng(3110)
    genuine_ratio = 0.0
    for _ in range(ESTIMATE_CONTEXTS):
        ctx = _genuine_context(rng, model, Tini, Tf)
        b_norm = np.linalg.norm(ctx.b)
        gap = predict_from_subspace(Uhat, ctx).y_pred - predict_from_subspace(U, ctx).y_pred
        bound = one_step_bound(sigma_hat, norm_first, kappa, b_norm)
        assert np.linalg.norm(gap[:p]) <= bound + 1e-9 * b_norm
        genuine_ratio = max(genuine_ratio, np.linalg.norm(gap[:p]) / bound)
        if full_horizon:
            assert np.linalg.norm(gap) <= lipschitz_bound(g, kappa, b_norm) + 1e-9 * b_norm
    # the worst context of unit norm, as in criteria 5 and 6
    worst = np.linalg.norm(_one_step_map(Uhat, p) - _one_step_map(U, p), 2)
    bound = one_step_bound(sigma_hat, norm_first, kappa, 1.0)
    assert worst <= bound + 1e-9
    # the distance bounded from the data alone: with X the noise-free data
    # matrix (the same inputs, no noise) and E = Xhat - X, Û' and V̂ the
    # leading r singular vectors of Xhat and s_r its r-th singular value,
    # U_perp' Û = U_perp' E V̂ / s_r, so kappa <= kappa_E = ||E V̂||_F / s_r;
    # at sigma = 0, E = 0 while kappa is the factorization's rounding
    data_side = ""
    if config.sigma > 0:
        clean, _ = offline_data(dataclasses.replace(config, sigma=0.0))
        _, s_hat, Vt_hat = np.linalg.svd(data.data, full_matrices=False)
        kappa_E = np.linalg.norm((data.data - clean.data) @ Vt_hat[:r].T) / s_hat[r - 1]
        assert kappa <= kappa_E
        data_side = f", kappa_E {kappa_E:.3g} ({kappa_E / kappa:.3g} kappa"
        if kappa_E <= sigma_hat / (2 * SQRT2):
            bound_E = one_step_bound(sigma_hat, norm_first, kappa_E, 1.0)
            assert worst <= bound_E + 1e-9
            data_side += f", worst ratio at kappa_E {worst / bound_E:.3g}"
        data_side += ")"
    if full_horizon:
        Q = np.linalg.qr(U.context_block)[0]
        worst_full = np.linalg.norm((_full_map(Uhat) - _full_map(U)) @ Q, 2)
        assert worst_full <= lipschitz_bound(g, kappa, 1.0) + 1e-9
    _report(
        f"bounds at the estimated basis (kappa {kappa:.3g}{data_side}, sigma_hat/(2 sqrt 2) "
        f"{sigma_hat / (2 * SQRT2):.3g}, gamma/(2 sqrt 2) {g / (2 * SQRT2):.3g}; ratio "
        f"worst {worst / bound:.3g}, genuine {genuine_ratio:.3g}; full horizon "
        f"{'checked' if full_horizon else 'not certified'})"
    )


def test_criterion_07_single_perturbation_trace(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(
        model=default_model(), Tini=4, Tf=2, sigma=0.02, kappa_max=0.8680,
        output_dir=str(tmp_path),
    )
    records, kappa = run_single(config, n=config.N)
    assert abs(kappa - 0.8680) <= 1e-3
    assert len(records) == 45
    for rec in records:
        if rec.bound is not None:
            assert rec.bound >= rec.error - 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s, budget 5s"
    _report(f"criterion 7 (single trace at kappa={kappa:.4f}, bound covers error)")


def test_criterion_08_sweep_trends():
    start = time.monotonic()
    results = {pair: _sweep(*pair) for pair in [(4, 4), (4, 2), (2, 4)]}
    for pair, (kappas, errors, _) in results.items():
        assert len(kappas) == 100
        rho = stats.spearmanr(kappas, errors).statistic
        assert rho > 0.95, f"{pair}: Spearman rho {rho:.3f} below 0.95"
        slope, intercept = np.polyfit(kappas, errors, 1)
        fitted = slope * kappas + intercept
        r_sq = 1.0 - np.sum((errors - fitted) ** 2) / np.sum((errors - errors.mean()) ** 2)
        assert slope > 0, f"{pair}: slope {slope:.3f} not positive"
        assert r_sq > 0.9, f"{pair}: linear fit R^2 {r_sq:.3f} below 0.9"
    mean_short_past = results[(2, 4)][1].mean()
    mean_long_past = results[(4, 4)][1].mean()
    assert mean_short_past > mean_long_past, (
        f"shorter past window should hurt: {mean_short_past:.4f} <= {mean_long_past:.4f}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s, budget 120s"
    _report("criterion 8 (sweep trends: monotone, linear, past-window ordering)")


def test_criterion_09_numerical_self_checks():
    rng = np.random.default_rng(909)
    # dual chordal-distance formulas
    for _ in range(200):
        m, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        Tini, Tf = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q = (m + p) * (Tini + Tf)
        r = int(rng.integers(1, q))
        U = random_basis(rng, (m, p, Tini, Tf), r)
        V = random_basis(rng, (m, p, Tini, Tf), r)
        angle_form = chordal_distance(U, V)  # raises internally above 1e-10
        projector_form = np.linalg.norm(
            U.matrix @ U.matrix.T - V.matrix @ V.matrix.T
        ) / SQRT2
        assert abs(angle_form - projector_form) <= 1e-10
    # singular-value and pseudoinverse perturbation inequalities
    for _ in range(1000):
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        assert weyl_check(rng.standard_normal(shape), rng.standard_normal(shape))
    for _ in range(1000):
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(2, rows + 1))
        M = rng.standard_normal((rows, cols))
        Mhat = M + 0.05 * rng.standard_normal((rows, cols))
        lhs = np.linalg.norm(pseudoinverse(Mhat) - pseudoinverse(M), 2)
        assert pinv_perturbation_bound(Mhat, M) >= lhs - 1e-10
    # defining identities of the pseudoinverse
    for _ in range(300):
        M = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        if rng.uniform() < 0.3 and min(M.shape) > 1:
            M[:, -1] = M[:, 0]
        P = pseudoinverse(M)
        scale = max(1.0, float(np.linalg.norm(M)))
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * max(1.0, float(np.linalg.norm(P)))
        assert np.linalg.norm((M @ P).T - M @ P) <= 1e-8
        assert np.linalg.norm((P @ M).T - P @ M) <= 1e-8
    _report("criterion 9 (metric and inequality self-checks, 1000+ trials)")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "Tini = 4\nTf = 2\nT = 30\nT_sim = 20\nN = 10\nsigma = 0.02\noutput_dir = out\n"
    )
    snapshots = []
    for _ in range(2):
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        snapshots.append(
            ((out / "trials.csv").read_bytes(), (out / "summary.csv").read_bytes())
        )
    assert snapshots[0] == snapshots[1], "repeated runs differ"
    assert cli_main(["experiment", "--config", str(cfg_path), "--jobs", "4"]) == 0
    out = tmp_path / "out"
    parallel = ((out / "trials.csv").read_bytes(), (out / "summary.csv").read_bytes())
    assert parallel == snapshots[0], "parallel run differs from serial"
    _report("criterion 10 (byte-identical reruns, parallel == serial)")


def test_soft_check_bound_trend():
    """Certified average bounds also grow with the distance (soft trend)."""
    _, _, bounds = _sweep(4, 4)
    assert len(bounds) >= 3
    kappas = np.array([k for k, _ in bounds])
    values = np.array([v for _, v in bounds])
    rho = stats.spearmanr(kappas, values).statistic
    assert rho > 0.95
