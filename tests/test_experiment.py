import csv
from pathlib import Path

import numpy as np
import pytest

from helpers import random_basis, trial_rows, write_csv_reference
from subpred import ExperimentConfig, chordal_distance, load_config, run_experiment, run_single
from subpred import experiment, simulate
from subpred.errors import RankDeficientError
from subpred.experiment import TrialBlock, default_model, prepare, run_trial, write_trials_csv
from subpred.predictor import context_windows, predict_from_subspace, rolling_one_step


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
        assert cfg.N == 2
        assert cfg.kappas == (0.1, 0.2)
        assert cfg.kappas is cfg.kappas

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
        from subpred import format_model

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown"):
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
        cfg = ExperimentConfig(
            model=example_model,
            Tini=4,
            Tf=2,
            sigma=0.0,
            kappa_grid=(0.0,),
            output_dir=str(tmp_path / "o"),
        )
        _, summaries = run_experiment(cfg)
        assert summaries[0].avg_error <= 1e-9

    def test_bound_covers_error_when_certified(self, small_config):
        blocks, _ = run_experiment(small_config, write=False)
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
        assert abs(out.block.kappa - chordal_distance(workspace.basis, out.basis)) <= 1e-12
        assert abs(out.block.kappa - small_config.kappas[3]) <= 1e-6

    def test_single_uses_the_trial_predictions(self, small_config):
        workspace = prepare(small_config)
        out = run_trial(workspace, 6)
        records, kappa = run_single(small_config, n=6, write=False)
        assert kappa == out.block.kappa
        np.testing.assert_array_equal(np.array([rec.perturbed for rec in records]), out.predictions)

    def test_trial_predictions_match_per_window_prediction(self, tmp_path):
        from helpers import random_model

        model = random_model(np.random.default_rng(3), n=8, m=3, p=3)
        cfg = ExperimentConfig(
            model=model, Tini=10, Tf=10, T=200, T_sim=40, kappa_grid=(0.05, 0.2),
            output_dir=str(tmp_path / "out"),
        )
        workspace = prepare(cfg)
        windows = list(context_windows(workspace.measured, cfg.Tini, cfg.Tf))
        assert tuple(t for t, _ in windows) == workspace.steps
        for n in (1, 2):
            out = run_trial(workspace, n)
            for i, (_, ctx) in enumerate(windows):
                expected = predict_from_subspace(out.basis, ctx).y_pred[: model.p]
                np.testing.assert_array_equal(out.predictions[i], expected)
        for i, (_, ctx) in enumerate(windows):
            expected = predict_from_subspace(workspace.basis, ctx).y_pred[: model.p]
            np.testing.assert_array_equal(workspace.baseline[i], expected)

    def test_target_beyond_drawn_geodesic_fails_before_online_stage(self, monkeypatch):
        # allowed by the configuration (limit sqrt(6)), but the geodesic drawn
        # from the default seed_perturb ends at about 1.815
        cfg = ExperimentConfig(model=default_model(), kappa_max=2.0)
        simulations = []
        simulate = experiment.simulate

        def counting_simulate(*args, **kwargs):
            simulations.append(len(args[1]))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(experiment, "simulate", counting_simulate)
        with pytest.raises(ValueError, match="kappa=2.0 unreachable.*reaches distance 1.815"):
            prepare(cfg)
        assert simulations == [cfg.T]  # the offline stage only

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
        # the library path rejects any basis of these dimensions alike
        basis = random_basis(np.random.default_rng(0), (1, 1, 1, 4), 7)
        measured = simulate(cfg.model, np.ones((20, 1)))
        with pytest.raises(RankDeficientError, match="rank 6 for 7 columns"):
            rolling_one_step(basis, measured, cfg.Tini, cfg.Tf)

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

    # the offline stage factors 4 matrices: the persistency-of-excitation
    # check, the basis, the geodesic direction and the baseline map; each
    # member factors 2: its map and y_future[:p] for the bound
    @pytest.mark.parametrize("mimo", [False, True], ids=["default", "mimo"])
    def test_svd_budget(self, mimo, svd_calls):
        from helpers import random_model

        if mimo:
            model = random_model(np.random.default_rng(8), n=4, m=2, p=3)
            cfg = ExperimentConfig(model=model, Tini=3, Tf=3, T=80, T_sim=20, N=4, kappa_max=0.5)
        else:
            cfg = ExperimentConfig(model=default_model(), N=3)
        run_experiment(cfg, write=False)
        assert len(svd_calls) == 2 * cfg.N + 4

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
    def test_error_column_matches_difference(self, small_config):
        records, _ = run_single(small_config, n=3, write=False)
        for rec in records:
            np.testing.assert_allclose(
                rec.error, abs(float(rec.baseline[0] - rec.perturbed[0])), atol=1e-12
            )

    def test_bound_covers_error_rowwise(self, small_config):
        records, _ = run_single(small_config, n=2, write=False)
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
        _, kappa = run_single(small_config, n=5, write=False)
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
}


class TestTrialsCsvBytes:
    """write_trials_csv writes the bytes of the csv module's writer fed with
    the blocks' rows."""

    @staticmethod
    def _assert_reference_bytes(tmp_path, blocks):
        write_trials_csv(tmp_path / "trials.csv", blocks)
        write_csv_reference(tmp_path / "reference.csv", TrialBlock._fields, trial_rows(blocks))
        assert (tmp_path / "trials.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("shape", ["siso", "mimo", "longrun"])
    def test_sweep_records(self, shape, small_config, tmp_path):
        from helpers import random_model

        config = small_config
        if shape == "mimo":
            model = random_model(np.random.default_rng(8), n=2, m=2, p=2)
            config = ExperimentConfig(model=model, Tini=2, Tf=2, T=40, T_sim=12, N=3, kappa_max=0.2)
        elif shape == "longrun":
            config = ExperimentConfig(model=default_model(), T_sim=1000, N=25)
        blocks, _ = run_experiment(config, write=False)
        assert {b.bound is None for b in blocks} == {True, False}
        assert all(type(x) is float for row in trial_rows(blocks[:1]) for x in row[3:])
        self._assert_reference_bytes(tmp_path, blocks)

    @pytest.mark.parametrize("blocks", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built_records(self, blocks, tmp_path):
        self._assert_reference_bytes(tmp_path, blocks)
