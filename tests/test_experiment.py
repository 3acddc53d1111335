import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import MAP_RTOL, benchmark_config, format_model, random_basis, trial_rows, write_csv_reference
from subpred import ExperimentConfig, chordal_distance, load_config, run_experiment, run_single
from subpred import StateSpaceModel
from subpred import experiment, predictor, simulate
from subpred.errors import ConvergenceError, RankDeficientError
from subpred._linalg import member_predictions, prediction_map, spectral_norm
from subpred.bounds import one_step_bound
from subpred.experiment import (
    SummaryRecord,
    TrialBlock,
    default_model,
    prepare,
    run_trial,
    write_summary_csv,
    write_trials_csv,
)
from subpred.grassmann import BehaviorBasis, Geodesic
from subpred.predictor import _apply, context_windows, predict_from_subspace, rolling_one_step


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(model=default_model())
        assert (cfg.Tini, cfg.Tf, cfg.T, cfg.T_sim, cfg.N) == (4, 4, 30, 50, 100)
        assert cfg.sigma == 0.02
        assert len(cfg.kappas) == 100
        assert cfg.kappas[-1] == 0.9
        assert cfg.kappas is cfg.kappas  # built once, not per access

    def test_kappa_grid_overrides_N(self):
        cfg = ExperimentConfig(model=default_model(), kappa_grid=(0.1, 0.2))
        assert (cfg.N, cfg.kappa_max) == (2, None)
        assert cfg.kappas == (0.1, 0.2)
        assert cfg.kappas is cfg.kappas
        # a list or an array gives the same tuple of Python floats
        for grid in ([0.1, 0.2], np.array([0.1, 0.2])):
            kappas = ExperimentConfig(model=default_model(), kappa_grid=grid).kappas
            assert kappas == cfg.kappas and [type(k) for k in kappas] == [float, float]

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            pytest.param("12", TypeError, "must hold real numbers, got a string array", id="12-()"),
            pytest.param(0.5, ValueError, "must be 1-dimensional, got shape ()", id="0.5-()"),
            pytest.param([[0.1, 0.2]], ValueError, "must be 1-dimensional, got shape (1, 2)", id="grid2-(1, 2)"),
        ],
    )
    def test_kappa_grid_must_be_1d(self, grid, error, message):
        # a string is not iterated character by character: it is refused
        # whole, as no vector of real numbers
        with pytest.raises(error, match=f"^kappa_grid {re.escape(message)}$"):
            ExperimentConfig(model=default_model(), kappa_grid=grid)

    @pytest.mark.parametrize(
        "grid, kind", [(("0.1", "0.2"), "string"), ([b"0.1"], "bytes")], ids=["strings", "bytes"]
    )
    def test_string_grid_rejected_by_name(self, grid, kind):
        # a string entry is not parsed: ("0.1", "0.2") used to sweep (0.1, 0.2)
        with pytest.raises(TypeError, match=f"^kappa_grid must hold real numbers, got a {kind} array$"):
            ExperimentConfig(model=default_model(), kappa_grid=grid)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((True, 0.5), "[0] must be a real number, got True"),
            ([0.1, False], "[1] must be a real number, got False"),
            ((np.True_, 0.5), f"[0] must be a real number, got {np.True_!r}"),
            (np.array([0.5, True], dtype=object), "[1] must be a real number, got True"),
        ],
        ids=["True-first", "False-last", "numpy-True", "object-array"],
    )
    def test_bool_among_numbers_rejected_by_name(self, grid, message):
        # numpy reads the list as floats, so (True, 0.5) used to sweep (1.0, 0.5)
        with pytest.raises(TypeError, match=f"^kappa_grid{re.escape(message)}$"):
            ExperimentConfig(model=default_model(), kappa_grid=grid)

    def test_grid_config_survives_replace(self):
        # the resolved N is passed back in by replace; it is not a conflict
        model = default_model()
        cfg = ExperimentConfig(model=model, kappa_grid=(0.1, 0.2))
        moved = dataclasses.replace(cfg, output_dir="elsewhere")
        assert (moved.N, moved.kappa_max, moved.kappas) == (2, None, (0.1, 0.2))
        assert ExperimentConfig(model=model, kappa_grid=(0.1, 0.2), N=2) == cfg
        with pytest.raises(ValueError, match="kappa_grid is given together with N:"):
            dataclasses.replace(cfg, kappa_grid=(0.1, 0.2, 0.3))

    @pytest.mark.parametrize("given", [{"N": 5}, {"kappa_max": 0.3}, {"N": 5, "kappa_max": 0.3},
                                       {"N": 100}, {"kappa_max": 0.9}])
    def test_kappa_grid_with_N_or_kappa_max_rejected(self, given):
        # an explicit value equal to the default conflicts too
        names = " and ".join(given)
        with pytest.raises(ValueError, match=f"^kappa_grid is given together with {names}: "
                                             "give it instead of N and kappa_max$"):
            ExperimentConfig(model=default_model(), kappa_grid=(0.1, 0.2), **given)

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            ExperimentConfig(model=default_model(), T=5)
        with pytest.raises(ValueError, match="T_sim"):
            ExperimentConfig(model=default_model(), T_sim=3)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("Tini = 2\nTf = 4\nN = 10\nsigma = 0.0\noutput_dir = results\n")
        cfg = load_config(path)
        assert (cfg.Tini, cfg.Tf, cfg.N, cfg.sigma) == (2, 4, 10, 0.0)
        assert cfg.output_dir == str(tmp_path / "results")

    def test_load_config_with_model_file(self, tmp_path, example_model):
        (tmp_path / "model.txt").write_text(format_model(example_model))
        (tmp_path / "exp.cfg").write_text("model = model.txt\nN = 3\n")
        cfg = load_config(tmp_path / "exp.cfg")
        np.testing.assert_array_equal(cfg.model.A, example_model.A)

    def test_unreachable_target_rejected(self):
        # default model, Tini = Tf = 4: rank 10 in dimension 16
        reachable = np.sqrt(6.0)
        ExperimentConfig(model=default_model(), kappa_grid=(0.0, reachable))
        with pytest.raises(ValueError, match="unreachable"):
            ExperimentConfig(model=default_model(), kappa_grid=(0.1, reachable + 1e-9))
        with pytest.raises(ValueError, match="unreachable"):
            ExperimentConfig(model=default_model(), kappa_max=2.5)
        with pytest.raises(ValueError, match="out of range"):
            ExperimentConfig(model=default_model(), Tini=2, Tf=2, T_sim=12, kappa_grid=(3.0,))

    @pytest.mark.parametrize(
        "key", ["Tini", "Tf", "T", "T_sim", "N", "seed_data", "seed_noise", "seed_perturb"]
    )
    def test_integer_keys_read_as_indices(self, key):
        default = getattr(ExperimentConfig(model=default_model()), key)  # N's default is resolved
        cfg = ExperimentConfig(model=default_model(), **{key: np.int64(default)})
        assert type(getattr(cfg, key)) is int
        with pytest.raises(TypeError):
            ExperimentConfig(model=default_model(), **{key: float(default)})
        # not read as 1 or 0, as operator.index would read it
        for flag in (True, False):
            with pytest.raises(TypeError, match=f"^{key} must be an integer, got {flag}$"):
                ExperimentConfig(model=default_model(), **{key: flag})

    @pytest.mark.parametrize("key", ["seed_data", "seed_noise", "seed_perturb"])
    def test_negative_seed_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be non-negative, got -1$"):
            ExperimentConfig(model=default_model(), **{key: -1})

    def test_unknown_key_rejected(self, tmp_path):
        # every unknown key is named, sorted, before any value is parsed
        path = tmp_path / "exp.cfg"
        path.write_text("x = 1\nsigma = nope\nw = 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unknown keys: w, x$"):
            load_config(path)

    def test_rank_beyond_the_dimension_rejected(self, tmp_path):
        # SISO n = 5 at Tini = Tf = 1: rank mL + n = 7 in dimension (m+p)L = 4
        model = StateSpaceModel(A=0.5 * np.eye(5), B=np.ones((5, 1)), C=np.ones((1, 5)), D=[[0.0]])
        message = "rank r=7 out of range for ambient dimension q=4$"
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(model=model, Tini=1, Tf=1)
        (tmp_path / "model.txt").write_text(format_model(model))
        path = tmp_path / "big.cfg"
        path.write_text("model = model.txt\nTini = 1\nTf = 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_config(path)


class TestRunExperiment:
    def test_row_counts_and_columns(self, small_config):
        blocks, summaries = run_experiment(small_config)
        steps = small_config.T_sim - small_config.Tini - small_config.Tf + 1
        assert len(trial_rows(blocks)) == small_config.N * steps
        assert [len(b.prediction_error) for b in blocks] == [steps] * small_config.N
        assert len(summaries) == small_config.N
        out = Path(small_config.output_dir)
        header = (out / "trials.csv").read_text().splitlines()[0]
        assert header == "n,kappa,t,prediction_error,bound,sigma_min_Mhat"
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "kappa,avg_error,avg_bound"
        assert len((out / "summary.csv").read_text().splitlines()) == small_config.N + 1

    def test_noise_free_zero_distance_gives_zero_error(self, tmp_path, example_model):
        # the kappa = 0 member and the baseline are read from the same pieces
        # at the same weights, so every error is exactly 0, and the bound
        # stays certified: noise-free, and on the default noisy config
        for setting in ({"Tini": 4, "Tf": 2, "sigma": 0.0, "kappa_grid": (0.0,)},
                        {"kappa_grid": (0.0, 0.01)}):
            cfg = ExperimentConfig(model=example_model, output_dir=str(tmp_path / "o"), **setting)
            blocks, summaries = run_experiment(cfg)
            assert np.all(blocks[0].prediction_error == 0.0)
            assert summaries[0].avg_error == 0.0
            assert blocks[0].bound is not None

    def test_bound_covers_error_when_certified(self, small_config):
        blocks, _ = run_experiment(small_config)
        certified = [b for b in blocks if b.bound is not None]
        assert certified, "expected at least some certified rows"
        for b in certified:
            assert np.all(b.bound >= b.prediction_error - 1e-12)

    def test_determinism_byte_identical(self, tmp_path, example_model):
        texts = []
        for run in range(2):
            cfg = ExperimentConfig(
                model=example_model,
                Tini=2,
                Tf=2,
                T_sim=16,
                N=5,
                output_dir=str(tmp_path / f"run{run}"),
            )
            run_experiment(cfg)
            out = Path(cfg.output_dir)
            texts.append(
                ((out / "trials.csv").read_bytes(), (out / "summary.csv").read_bytes())
            )
        assert texts[0] == texts[1]

    def test_kappa_measured_matches_family_member(self, small_config):
        workspace = prepare(small_config)
        out = run_trial(workspace, 4)
        member, _ = workspace.geodesic.member(small_config.kappas[3])
        assert abs(out.block.kappa - chordal_distance(workspace.geodesic.origin, member)) <= 1e-12
        assert abs(out.block.kappa - small_config.kappas[3]) <= 1e-6

    def test_single_uses_the_trial_predictions(self, small_config):
        workspace = prepare(small_config)
        out = run_trial(workspace, 6)
        records, kappa = run_single(small_config, n=6)
        assert kappa == out.block.kappa
        np.testing.assert_array_equal(np.array([rec.perturbed for rec in records]), out.predictions)

    def test_trial_predictions_match_per_window_prediction(self, tmp_path):
        from helpers import random_model

        model = random_model(np.random.default_rng(3), n=8, m=3, p=3)
        cfg = ExperimentConfig(
            model=model, Tini=10, Tf=10, T=200, T_sim=40, kappa_grid=(0.01, 0.05, 0.2),
            output_dir=str(tmp_path / "out"),
        )
        workspace = prepare(cfg)
        windows = list(context_windows(workspace.measured, cfg.Tini, cfg.Tf))
        assert tuple(t for t, _ in windows) == workspace.steps
        # a sweep member's predictions are read from the geodesic's pieces,
        # so they match the per-basis path to rounding, not bit for bit; the
        # member at 0.01 is certified (sigma_min about 0.072), the other two
        # are not
        for n in (1, 2, 3):
            out = run_trial(workspace, n)
            member, kappa = workspace.geodesic.member(cfg.kappas[n - 1])
            expected = [predict_from_subspace(member, ctx) for _, ctx in windows]
            first = np.array([pred.y_pred[: model.p] for pred in expected])
            assert np.linalg.norm(out.predictions - first) <= MAP_RTOL * np.linalg.norm(first)
            assert (out.block.bound is not None) == (n == 1)
            if out.block.bound is not None:
                unit = one_step_bound(expected[0].sigma_min, spectral_norm(member.y_future[: model.p]),
                                      kappa, 1.0)
                np.testing.assert_allclose(out.block.bound, unit * workspace.b_norms, rtol=MAP_RTOL)
        # the baseline is the kappa = 0 member of the same pieces, bit for bit,
        # and matches the library path on the origin as the members do
        zero = experiment._member(workspace.geodesic, workspace.forms, workspace.context_matrix, 0.0)
        np.testing.assert_array_equal(workspace.baseline, zero[0])
        origin = workspace.geodesic.origin
        expected = np.array([predict_from_subspace(origin, ctx).y_pred[: model.p] for _, ctx in windows])
        assert np.linalg.norm(workspace.baseline - expected) <= MAP_RTOL * np.linalg.norm(expected)

    def test_target_at_reachable_limit_is_built_and_measured(self):
        # rank 10 in dimension 16: sqrt(min(r, q-r)) = sqrt(6), the end point
        # of every geodesic, is the largest distance the configuration admits
        limit = float(np.sqrt(6.0))
        cfg = ExperimentConfig(model=default_model(), kappa_grid=(0.5, limit))
        workspace = prepare(cfg)
        out = run_trial(workspace, 2)
        assert abs(out.block.kappa - limit) <= 1e-6 * limit
        member, _ = workspace.geodesic.member(limit)
        assert abs(out.block.kappa - chordal_distance(workspace.geodesic.origin, member)) <= 1e-12

    def test_wide_context_rows_rejected(self, tmp_path):
        # p*Tini = 1 < n = 2: the baseline's context rows are 6 x 7, so no
        # basis of rank 7 has full-column-rank context rows
        cfg = ExperimentConfig(
            model=default_model(), Tini=1, Tf=4, T=40, N=10, kappa_max=0.05,
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(RankDeficientError, match="rank 6 for 7 columns"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()
        # the library path rejects any basis of these dimensions alike, and
        # so does the sweep's route for a declined member of its geodesic
        basis = random_basis(np.random.default_rng(0), (1, 1, 1, 4), 7)
        measured = simulate(cfg.model, np.ones((20, 1)))
        with pytest.raises(RankDeficientError, match="rank 6 for 7 columns"):
            rolling_one_step(basis, measured, cfg.Tini, cfg.Tf)
        geodesic, contexts = Geodesic.draw(basis, 1), np.eye(6)
        with pytest.raises(RankDeficientError, match="rank 6 for 7 columns"):
            experiment._member(geodesic, geodesic.forms(contexts), contexts, 0.05)

    def test_bound_below_error_logged_per_row(self, small_config, monkeypatch, caplog):
        # a zero unit bound lies below every positive error
        monkeypatch.setattr(experiment, "one_step_bound", lambda *args: 0.0)
        workspace = prepare(small_config)
        with caplog.at_level("WARNING", logger="subpred.experiment"):
            out = run_trial(workspace, 3)
        block = out.block
        expected = [f"trial n=3, t={t}:" for t, e in zip(block.t, block.prediction_error) if e > 0]
        assert len(expected) > 0
        assert [msg.split(" bound")[0] for msg in caplog.messages] == expected
        assert block.bound is not None and np.all(block.bound == 0.0)

    def test_trial_index_validated(self, small_config):
        workspace = prepare(small_config)
        with pytest.raises(ValueError, match="out of range"):
            run_trial(workspace, small_config.N + 1)

    # the offline stage makes no SVD: the persistency-of-excitation check is
    # one Cholesky of the m(n + L)-row Hankel matrix's shifted Gram matrix,
    # the basis one eigh of the q x q Gram matrix of the wide data matrix
    # and the geodesic direction one eigh of its r x r Gram matrix, each
    # proven by its route's guard; a member factors nothing.  Each member,
    # and the baseline as the kappa = 0 member, is read from the geodesic's
    # pieces, with no member basis and no blend: one eigvalsh of its
    # pTf x pTf Gram matrix K, one solve with p right-hand sides and one
    # p x p eigvalsh of K[:p, :p] for the norm of y_future[:p].  That is
    # one cholesky, 2N + 2 eigvalsh, 2 eigh and N + 1 solve calls per
    # sweep, and the baseline is the only BehaviorBasis built.
    @pytest.mark.parametrize("mimo", [False, True], ids=["default", "mimo"])
    def test_svd_budget(self, mimo, svd_calls, monkeypatch, tmp_path):
        from helpers import random_model

        if mimo:
            model = random_model(np.random.default_rng(8), n=4, m=2, p=3)
            cfg = ExperimentConfig(model=model, Tini=3, Tf=3, T=80, T_sim=20, N=4, kappa_max=0.5)
        else:
            cfg = ExperimentConfig(model=default_model(), N=3)
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        built, check = [], BehaviorBasis.__post_init__
        monkeypatch.setattr(BehaviorBasis, "__post_init__", lambda U: built.append(U) or check(U))
        run_experiment(cfg)
        assert svd_calls == []
        model, L = cfg.model, cfg.Tini + cfg.Tf
        hankel_rows, q, r = model.m * (model.n + L), (model.m + model.p) * L, model.m * L + model.n
        assert svd_calls.eigh == [(q, q), (r, r)]
        future, p = cfg.model.p * cfg.Tf, cfg.model.p
        assert svd_calls.cholesky == [(hankel_rows, hankel_rows)]
        assert svd_calls.eigvalsh == [(future, future), (p, p)] * (cfg.N + 1)
        assert svd_calls.solve == [(future, future)] * (cfg.N + 1)
        assert len(built) == 1 and built[0].r == r

    def test_contexts_built_once_per_prepare(self, small_config, monkeypatch):
        # the baseline is predicted from the contexts prepare already holds
        built, build = [], predictor._context_matrix
        counting = lambda *args: built.append(args) or build(*args)
        monkeypatch.setattr(predictor, "_context_matrix", counting)
        monkeypatch.setattr(experiment, "_context_matrix", counting)
        workspace = prepare(small_config)
        assert len(built) == 1
        monkeypatch.undo()
        # bit for bit the kappa = 0 member on the same contexts, and the
        # library path's to rounding
        zero = experiment._member(workspace.geodesic, workspace.forms, workspace.context_matrix, 0.0)
        np.testing.assert_array_equal(workspace.baseline, zero[0])
        expected = rolling_one_step(
            workspace.geodesic.origin, workspace.measured, small_config.Tini, small_config.Tf
        )
        assert np.linalg.norm(workspace.baseline - expected) <= MAP_RTOL * np.linalg.norm(expected)

    def test_declined_member_is_built_as_a_basis(self, small_config, monkeypatch, svd_calls):
        # with the pieces' guard declined, a member's rows are mapped by one
        # SVD of its blend's context rows, with no Gram route tried on the
        # blend: the bits of the SVD map of the member basis's first p
        # future rows; and the baseline is the kappa = 0 member's, by one
        # SVD of the kappa = 0 blend's context rows and no solve
        workspace = prepare(small_config)
        geodesic, p = workspace.geodesic, small_config.model.p
        future = p * small_config.Tf
        members = (1, small_config.N)  # certified, then not
        admitted = [run_trial(workspace, n).block for n in members]
        monkeypatch.setattr(experiment, "member_predictions", lambda *args: None)
        svd_calls.clear()
        declined = prepare(small_config)
        context_rows, future_rows = np.split(geodesic.blend(0.0), [geodesic.origin.q - future])
        assert svd_calls == [context_rows.shape] and svd_calls.solve == []
        assert (future, future) not in svd_calls.eigvalsh
        matrix = prediction_map(context_rows, future_rows[:p])[0]
        np.testing.assert_array_equal(declined.baseline, _apply(matrix, workspace.context_matrix))
        for n, before in zip(members, admitted):
            kappa = small_config.kappas[n - 1]
            member, _ = geodesic.member(kappa)
            svd_calls.clear()
            out = run_trial(workspace, n)
            assert svd_calls == [member.context_block.shape] and svd_calls.solve == []
            assert (future, future) not in svd_calls.eigvalsh
            block = out.block
            matrix, _, sigma_min = prediction_map(member.context_block, member.y_future[:p])
            predictions = _apply(matrix, workspace.context_matrix)
            rows = experiment._member(geodesic, workspace.forms, workspace.context_matrix, kappa)[0]
            np.testing.assert_array_equal(rows, predictions)
            np.testing.assert_array_equal(out.predictions, predictions)
            errors = np.linalg.norm(predictions - workspace.baseline, axis=1)
            np.testing.assert_array_equal(block.prediction_error, errors)
            assert block.sigma_min_Mhat == sigma_min
            assert block.kappa == before.kappa
            if n == 1:
                unit = one_step_bound(sigma_min, spectral_norm(member.y_future[:p]),
                                      block.kappa, 1.0)
                np.testing.assert_array_equal(block.bound, unit * workspace.b_norms)
            else:
                assert block.bound is None

    def test_baseline_declined_on_its_own_is_its_kappa_zero_member(self, tmp_path):
        # square 8 x 8 context rows with sigma_min 9.0e-4: the pieces' guard
        # declines the baseline and the kappa = 0 member alike, with no
        # monkeypatch, and both take the one-SVD route, so member 1's
        # errors are exactly 0
        model = StateSpaceModel(
            A=[[-0.6926720601669369, -1.2876122270984482], [-0.15549765088653913, 0.5492134640414514]],
            B=[[0.5118440276808229, 1.0232382136634648], [-0.8821458480598934, 2.6522866971695453]],
            C=[[-0.8769082522563802, 0.3735530621878692], [2.7395808181161874, -0.11425241215164042]],
            D=[[0.11429451370904192, -0.5118795445527522], [0.33452648360440757, -2.1266836963811473]],
        )
        cfg = ExperimentConfig(model=model, Tini=1, Tf=2, T=35, T_sim=13, sigma=0.02,
                               kappa_grid=(0.0, 0.01), output_dir=str(tmp_path))
        workspace = prepare(cfg)
        assert workspace.geodesic.origin.context_block.shape == (8, 8)
        assert member_predictions(workspace.forms, workspace.geodesic.weights(0.0), model.p) is None
        errors = run_trial(workspace, 1).block.prediction_error
        assert len(errors) > 0 and np.all(errors == 0.0)

    def test_defect_past_tolerance_refused_at_the_draw(self, small_config, monkeypatch):
        # the sweep maps every member with the geodesic's one Gram defect
        # bound, so a bound past ORTHONORMALITY_TOL stops the draw
        from subpred import grassmann

        blocks = grassmann._blocks

        def loose_blocks(*args):
            squares, defect = blocks(*args)
            return squares, defect + grassmann.ORTHONORMALITY_TOL

        monkeypatch.setattr(grassmann, "_blocks", loose_blocks)
        message = f"seed={small_config.seed_perturb} is not orthogonal to the basis: .* exceeds 1e-10"
        with pytest.raises(ConvergenceError, match=message):
            prepare(small_config)
        with pytest.raises(ConvergenceError, match="seed=0 is not orthogonal to the basis"):
            grassmann.Geodesic.draw(random_basis(np.random.default_rng(1), (1, 1, 2, 2), 3), 0)

    def test_block_member_checks_its_distance(self, small_config):
        # a member's distance from the geodesic's squares keeps the target
        # check and chordal_distance's cross-check, at their tolerances, in
        # the sweep's run_trial and in Geodesic.member alike
        workspace = prepare(small_config)
        geodesic = workspace.geodesic
        kappa = small_config.kappas[0]  # 0.05, member 1

        def trial(geodesic):
            return run_trial(dataclasses.replace(workspace, geodesic=geodesic), 1)

        assert geodesic.member(kappa)[1] == trial(geodesic).block.kappa
        swapped_off = geodesic.squares + [[0.0] * 4, [1e-10, 0.0, 0.0, 0.0]]  # about 1e-9 off
        both_off = geodesic.squares * (1 + 1e-4)  # both 5e-5 relative, 2.5e-6 absolute, off
        for squares, error, message in (
            (swapped_off, ArithmeticError, "chordal distance formulas disagree"),
            (both_off, ConvergenceError, "measures distance"),
        ):
            changed = dataclasses.replace(geodesic, squares=squares)
            for solve in (lambda: changed.member(kappa), lambda: trial(changed)):
                with pytest.raises(error, match=message):
                    solve()

    def test_default_config_certifies_its_first_eight_members(self, tmp_path):
        # the certified limit sigma_min / (2 sqrt(2)) of members 8 and 9 is
        # about 0.0771 (0.07707 and 0.07717), between their targets 0.072
        # and 0.081
        blocks, _ = run_experiment(ExperimentConfig(model=default_model(), output_dir=str(tmp_path)))
        certified = [b.n for b in blocks if b.bound is not None]
        assert certified == list(range(1, 9))
        assert abs(blocks[7].kappa - 0.072) <= 1e-12

    def test_benchmark_mimo_model_certifies_small_targets(self, tmp_path):
        # sweep-mimo's own targets start above its members' certified limit
        # sigma_min / (2 sqrt(2)), so its benchmark runs check no bound; here
        # the same model and data at targets below the baseline's limit
        # (0.01243 at seed 1): the largest error/bound ratio is about 6.7e-5
        config = benchmark_config("sweep-mimo", 1, tmp_path)
        config = dataclasses.replace(config, N=None, kappa_max=None, kappa_grid=(0.001, 0.004, 0.012))
        workspace = prepare(config)
        for n in range(1, config.N + 1):
            block = run_trial(workspace, n).block
            assert block.bound is not None, f"member {n} not certified"
            assert np.all(block.prediction_error <= block.bound + 1e-9 * workspace.b_norms)

    def test_multichannel_pipeline(self, tmp_path):
        from helpers import random_model

        model = random_model(np.random.default_rng(8), n=2, m=2, p=2)
        cfg = ExperimentConfig(
            model=model, Tini=2, Tf=2, T=40, T_sim=12, N=3, kappa_max=0.2,
            output_dir=str(tmp_path / "mimo"),
        )
        blocks, summaries = run_experiment(cfg)
        assert len(summaries) == 3
        assert all(np.all(b.prediction_error >= 0) for b in blocks)
        records, _ = run_single(cfg, n=1)
        single = (tmp_path / "mimo" / "single_1.csv").read_text().splitlines()
        assert single[0] == "t,baseline_0,baseline_1,perturbed_0,perturbed_1,error,bound"
        assert len(records[0].baseline) == 2


class TestRunSingle:
    @pytest.mark.parametrize("n", [0, 9, 2.0, True])  # small_config has N = 8
    def test_trial_index_checked_before_simulation(self, small_config, monkeypatch, n):
        simulated, simulate = [], experiment.simulate
        monkeypatch.setattr(
            experiment, "simulate", lambda *a, **k: simulated.append(a) or simulate(*a, **k)
        )
        if n is True:  # not read as index 1, as operator.index would read it
            error, message = TypeError, r"^trial index n must be an integer, got True$"
        elif isinstance(n, float):
            error, message = TypeError, "'float' object cannot be interpreted as an integer"
        elif n < 1:
            error, message = ValueError, rf"^trial index n must be positive, got {n}$"
        else:
            error, message = ValueError, rf"^trial index n={n} out of range 1\.\.{small_config.N}$"
        with pytest.raises(error, match=message):
            run_single(small_config, n=n)
        assert simulated == []

    def test_error_column_matches_difference(self, small_config):
        records, _ = run_single(small_config, n=3)
        for rec in records:
            np.testing.assert_allclose(
                rec.error, abs(float(rec.baseline[0] - rec.perturbed[0])), atol=1e-12
            )

    def test_bound_covers_error_rowwise(self, small_config):
        records, _ = run_single(small_config, n=2)
        for rec in records:
            if rec.bound is not None:
                assert rec.bound >= rec.error - 1e-12

    def test_csv_schema(self, small_config):
        run_single(small_config, n=1)
        out = Path(small_config.output_dir) / "single_1.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == "t,baseline,perturbed,error,bound"
        steps = small_config.T_sim - small_config.Tini - small_config.Tf + 1
        assert len(lines) == steps + 1
        assert lines[1].split(",")[0] == str(small_config.Tini)

    def test_reported_kappa_recoverable(self, small_config):
        _, kappa = run_single(small_config, n=5)
        workspace = prepare(small_config)
        out = run_trial(workspace, 5)
        assert abs(kappa - out.block.kappa) <= 1e-15


class TestCsvFormat:
    """Integers are written plainly, floats in shortest round-trip (repr)
    form and a bound that is not certified as an empty field."""

    @staticmethod
    def _rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            assert len(row) == len(header)
            for name, field in zip(header, row):
                assert "np." not in field and "array" not in field
                if name in ("n", "t"):
                    assert str(int(field)) == field
                elif field or name not in ("bound", "avg_bound"):
                    assert repr(float(field)) == field
        return [dict(zip(header, row)) for row in rows]

    @staticmethod
    def _assert_bounds(values, fields):
        assert [value is None for value in values] == [field == "" for field in fields]
        assert None in values and any(value is not None for value in values)

    def _check_sweep(self, config):
        blocks, summaries = run_experiment(config)
        out = Path(config.output_dir)
        rows = self._rows(out / "trials.csv")
        bounds = [row[4] for row in trial_rows(blocks)]  # the bound column
        self._assert_bounds(bounds, [row["bound"] for row in rows])
        rows = self._rows(out / "summary.csv")
        avg_bounds = [rec.avg_bound for rec in summaries]
        self._assert_bounds(avg_bounds, [row["avg_bound"] for row in rows])

    def _check_single(self, config, n):
        records, _ = run_single(config, n)
        rows = self._rows(Path(config.output_dir) / f"single_{n}.csv")
        assert [rec.bound for rec in records] == [
            None if row["bound"] == "" else float(row["bound"]) for row in rows
        ]
        return records

    def test_siso_sweep_and_single(self, small_config):
        self._check_sweep(small_config)
        self._check_single(small_config, 1)
        records = self._check_single(small_config, small_config.N)
        assert all(rec.bound is None for rec in records)

    def test_mimo_sweep_and_single(self, tmp_path):
        from helpers import random_model

        model = random_model(np.random.default_rng(8), n=2, m=2, p=2)
        cfg = ExperimentConfig(
            model=model, Tini=2, Tf=2, T=40, T_sim=12, N=3, kappa_max=0.2,
            output_dir=str(tmp_path / "mimo"),
        )
        self._check_sweep(cfg)
        for n in (1, 3):
            self._check_single(cfg, n)


def _block(n, kappa, t, errors=0.25, bounds=0.5, sigma_min=0.75):
    """A hand-built member block with numpy float64 columns, each a value
    repeated or one per step; ``bounds=None`` makes it uncertified."""
    t = tuple(t)
    if bounds is not None:
        bounds = np.full(len(t), bounds, dtype=np.float64)
    return TrialBlock(n, kappa, t, np.full(len(t), errors, dtype=np.float64), bounds, sigma_min)


INF, NAN = float("inf"), float("nan")
EXTREMES = (5e-324, 1e16, 1e22, NAN, INF, -INF)
STEPS = (4, 5, 6)  # `_block` keeps a tuple as it is, so blocks built from it share it

# Hand-built blocks, among them scalars that compare equal but that
# csv.writer writes differently: 0.0 == -0.0 and 1 == 1.0.
HAND_BUILT = {
    "empty": [],
    "single-row": [_block(1, 0.1, [4])],
    "uncertified": [_block(1, 0.1, [4, 5, 6], bounds=None)],
    "n-not-contiguous": [_block(1, 0.1, [4]), _block(2, 0.2, [4]), _block(1, 0.1, [5])],
    "same-n-new-kappa": [_block(1, 0.1, [4]), _block(1, 0.2, [5])],
    "signed-zero-kappa": [_block(1, 0.0, [4]), _block(1, -0.0, [5])],
    "float-then-int-kappa": [_block(1, 1.0, [4]), _block(1, 1, [5])],
    "extreme-floats": [
        _block(i + 1, x, range(4, 10), errors=np.roll(EXTREMES, i), bounds=np.roll(EXTREMES, -i),
               sigma_min=x)
        for i, x in enumerate(EXTREMES)
    ] + [_block(7, NAN, range(4, 10), errors=EXTREMES, bounds=None, sigma_min=-INF)],
    "no-windows-between": [_block(1, 0.1, [4, 5]), _block(2, 0.2, []), _block(3, 0.3, [4, 5])],
    "shared-steps-then-new-steps": [
        _block(1, 0.1, STEPS), _block(2, 0.2, STEPS, bounds=None), _block(3, 0.3, [7, 8, 9]),
    ],
}


class TestTrialsCsvBytes:
    """write_trials_csv writes the bytes of the csv module's writer fed with
    the blocks' rows, and write_summary_csv, by the same cell rule, those of
    the writer fed with the summaries' rows."""

    @staticmethod
    def _assert_reference_bytes(tmp_path, blocks, summaries):
        write_trials_csv(tmp_path / "trials.csv", blocks)
        write_csv_reference(tmp_path / "reference.csv", TrialBlock._fields, trial_rows(blocks))
        assert (tmp_path / "trials.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        write_summary_csv(tmp_path / "summary.csv", summaries)
        rows = [rec[1:] for rec in summaries]
        write_csv_reference(tmp_path / "reference.csv", SummaryRecord._fields[1:], rows)
        assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("shape", ["siso", "mimo", "longrun"])
    def test_sweep_records(self, shape, small_config, tmp_path):
        from helpers import random_model

        config = small_config
        if shape == "mimo":
            model = random_model(np.random.default_rng(8), n=2, m=2, p=2)
            config = ExperimentConfig(model=model, Tini=2, Tf=2, T=40, T_sim=12, N=3, kappa_max=0.2)
        elif shape == "longrun":
            config = ExperimentConfig(model=default_model(), T_sim=1000, N=25)
        blocks, summaries = run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "out")))
        assert {b.bound is None for b in blocks} == {True, False}
        assert all(type(x) is float for row in trial_rows(blocks[:1]) for x in row[3:])
        self._assert_reference_bytes(tmp_path, blocks, summaries)

    @pytest.mark.parametrize("blocks", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built_records(self, blocks, tmp_path):
        # summary rows of each block's scalars: the extreme floats, the
        # signed zeros, an int kappa and None
        summaries = [
            SummaryRecord(b.n, b.kappa, b.sigma_min_Mhat, None if b.bound is None else b.kappa)
            for b in blocks
        ]
        self._assert_reference_bytes(tmp_path, blocks, summaries)
