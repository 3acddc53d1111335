import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import format_model, random_basis, random_orthogonal
from subpred import perturb_subspace, save_basis, simulate
from subpred._kv import named
from subpred.cli import load_context, main
from subpred.errors import HypothesisViolationError, RankDeficientError
from subpred.experiment import default_model, load_config
from subpred.grassmann import BehaviorBasis
from subpred.hankel import persistently_exciting_input, stacked_data_matrix
from subpred.grassmann import orthonormal_basis

DIMS = (1, 1, 2, 2)


def _line_basis(angle):
    """A line in the plane of the first two coordinates, in the ambient
    dimension q = (m+p)(Tini+Tf) = 4 of the smallest windows."""
    mat = np.zeros((4, 1))
    mat[0, 0] = np.cos(angle)
    mat[1, 0] = np.sin(angle)
    return BehaviorBasis(data=mat, m=1, p=1, Tini=1, Tf=1)


class TestDistanceCommand:
    def test_identical_files(self, tmp_path, rng, capsys):
        U = random_basis(rng, DIMS, 3)
        a = tmp_path / "a.csv"
        save_basis(a, U)
        assert main(["distance", str(a), str(a)]) == 0
        assert abs(float(capsys.readouterr().out.strip())) <= 1e-12

    def test_orthogonal_lines_in_the_plane(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_basis(a, _line_basis(0.0))
        save_basis(b, _line_basis(np.pi / 2))
        assert main(["distance", str(a), str(b)]) == 0
        assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-12

    def test_perturbation_round_trip(self, tmp_path, rng, capsys):
        U = random_basis(rng, DIMS, 3)
        V = perturb_subspace(U, 0.3, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_basis(a, U)
        save_basis(b, V)
        assert main(["distance", str(a), str(b)]) == 0
        assert abs(float(capsys.readouterr().out.strip()) - 0.3) <= 1e-6

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        good = tmp_path / "good.csv"
        save_basis(good, _line_basis(0.0))
        assert main(["distance", str(bad), str(good)]) == 2
        assert main(["distance", str(tmp_path / "missing.csv"), str(good)]) == 2

    def test_window_below_one_exit_2(self, tmp_path, capsys):
        # every header count is at least 1: a Tf = 0 file was read as a payload
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text("# m=1 p=1 Tini=2 Tf=0 r=1\n1.0\n0.0\n0.0\n0.0\n")
        save_basis(good, _line_basis(0.0))
        assert main(["distance", str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:1: Tf must be positive, got 0\n"

    def test_basis_error_names_its_file(self, tmp_path, capsys):
        # BehaviorBasis's own refusal, prefixed by the file it was read from
        bad, good = tmp_path / "notortho.csv", tmp_path / "ok.csv"
        bad.write_text("# m=1 p=1 Tini=1 Tf=1 r=1\n2.0\n0.0\n0.0\n0.0\n")
        save_basis(good, _line_basis(0.0))
        assert main(["distance", str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: columns are not orthonormal: ||U'U - I||_F = 3.000e+00\n"


def _write_context(path, u_ini, u, y_ini, m, p, Tini, Tf):
    text = (
        f"m = {m}\np = {p}\nTini = {Tini}\nTf = {Tf}\n"
        f"u_ini = {' '.join(repr(float(v)) for v in u_ini)}\n"
        f"u = {' '.join(repr(float(v)) for v in u)}\n"
        f"y_ini = {' '.join(repr(float(v)) for v in y_ini)}\n"
    )
    path.write_text(text)


class TestPredictCommand:
    @pytest.fixture
    def example_basis_file(self, tmp_path):
        model = default_model()
        Tini = Tf = 4
        L = Tini + Tf
        u = persistently_exciting_input(1, 30, order=model.n + L, seed=0)
        traj = simulate(model, u)
        X = stacked_data_matrix(traj.inputs, traj.outputs, Tini, Tf)
        basis = orthonormal_basis(X, model.n + L)
        path = tmp_path / "basis.csv"
        save_basis(path, basis)
        return path, basis, model

    def test_zero_context_zero_prediction(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "step,y_0"
        values = [float(line.split(",")[1]) for line in out[1:]]
        assert np.allclose(values, 0.0)

    def test_true_prefix_matches_simulation(self, tmp_path, example_basis_file, capsys):
        path, _, model = example_basis_file
        rng = np.random.default_rng(42)
        traj = simulate(model, rng.standard_normal((14, 1)), x0=rng.standard_normal(2))
        t = 3
        ctx_path = tmp_path / "ctx.txt"
        _write_context(
            ctx_path,
            traj.inputs[t : t + 4].ravel(),
            traj.inputs[t + 4 : t + 8].ravel(),
            traj.outputs[t : t + 4].ravel(),
            1, 1, 4, 4,
        )
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        got = np.array([float(line.split(",")[1]) for line in out[1:]])
        expected = traj.outputs[t + 4 : t + 8].ravel()
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_rotated_basis_same_output(self, tmp_path, example_basis_file, capsys):
        path, basis, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        rng = np.random.default_rng(3)
        _write_context(
            ctx_path, rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4),
            1, 1, 4, 4,
        )
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 0
        first = capsys.readouterr().out
        rotated = BehaviorBasis(basis.matrix @ random_orthogonal(rng, basis.r), *basis.dims)
        rot_path = tmp_path / "rotated.csv"
        save_basis(rot_path, rotated)
        assert main(["predict", "--basis", str(rot_path), "--context", str(ctx_path)]) == 0
        second = capsys.readouterr().out
        a = np.array([float(l.split(",")[1]) for l in first.splitlines()[1:]])
        b = np.array([float(l.split(",")[1]) for l in second.splitlines()[1:]])
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_context_error_names_its_file(self, tmp_path, capsys):
        # PredictionContext's own refusal, prefixed by the file it was read from
        path, ctx_path = tmp_path / "basis.csv", tmp_path / "ctx.txt"
        save_basis(path, _line_basis(0.0))
        _write_context(ctx_path, [0.0, 0.0], [0.0], [0.0], 1, 1, 1, 1)
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ctx_path}: u_ini has 2 entries, expected 1\n"

    def test_rank_deficient_basis_exit_4(self, tmp_path, capsys):
        mat = np.zeros((4, 2))
        mat[1, 0] = 1.0
        mat[3, 1] = 1.0
        basis = BehaviorBasis(data=mat, m=1, p=1, Tini=1, Tf=1)
        path = tmp_path / "basis.csv"
        save_basis(path, basis)
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, [1.0], [1.0], [1.0], 1, 1, 1, 1)
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_context_exit_2(self, tmp_path, example_basis_file, capsys, token):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.ones(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        ctx_path.write_text(ctx_path.read_text().replace("u_ini = 1.0 1.0", f"u_ini = 1 {token}"))
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # read from text as a float, 1e400 as inf, and refused by the context
        assert captured.err == f"error: {ctx_path}: u_ini has non-finite entries: u_ini[1] is {float(token)}\n"

    def test_non_finite_basis_exit_2(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        for token in ("nan", "inf", "1e400"):
            lines = path.read_text().splitlines()
            lines[3] = ",".join([token] + lines[3].split(",")[1:])
            bad = tmp_path / "bad.csv"
            bad.write_text("\n".join(lines) + "\n")
            assert main(["predict", "--basis", str(bad), "--context", str(ctx_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            # line 4 holds the data's row 2
            message = f"data has non-finite entries: data[2, 0] is {float(token)}"
            assert captured.err == f"error: {bad}: {message}\n"
            assert main(["distance", str(bad), str(path)]) == 2
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_non_integer_dimension_names_file_and_key(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        ctx_path.write_text(ctx_path.read_text().replace("m = 1", "m = x"))
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ctx_path}: m must be an integer, got 'x'" in captured.err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("y_ini = 0.0 0.0 0.0 0.0\n", "", "missing keys: y_ini"),
            ("m = 1\n", "m = 1\nw = 0\n", "unknown keys: w"),
        ],
        ids=["missing", "unknown"],
    )
    def test_context_keys_checked_exit_2(self, tmp_path, example_basis_file, capsys, old, new, message):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        ctx_path.write_text(ctx_path.read_text().replace(old, new))
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ctx_path}: {message}" in captured.err

    def test_diagnostics_on_stderr(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        main(["predict", "--basis", str(path), "--context", str(ctx_path)])
        err = capsys.readouterr().err
        assert "sigma_min" in err
        assert "effective_rank" in err


FULL_HORIZON_FORMS = {
    "gamma": {"--gamma": "0.5", "--kappa": "0.01", "--bnorm": "2.0"},
    "alpha-beta": {"--alpha": "2", "--beta": "3", "--kappa": "0.01", "--bnorm": "2.0"},
}
FULL_HORIZON_NON_FINITE = [
    (form, flag, bad)
    for form, values in FULL_HORIZON_FORMS.items()
    for flag in values
    for bad in ("nan", "inf", "-inf")
]


class TestBoundCommand:
    def test_zero_kappa(self, capsys):
        assert main(["bound", "--gamma", "1.0", "--kappa", "0", "--bnorm", "5"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_closed_form_value(self, capsys):
        assert main(["bound", "--gamma", "1.0", "--kappa", "0.1", "--bnorm", "1.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 1.0566) <= 5e-4

    def test_alpha_beta_form(self, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "3", "--kappa", "0.01", "--bnorm", "1"]) == 0
        v = float(capsys.readouterr().out.strip())
        expected = (2 * (1 + np.sqrt(5)) / 0.25 + 1 / 0.5) * np.sqrt(2) * 0.01
        assert abs(v - expected) <= 1e-9

    def test_alpha_below_one_exit_2(self, capsys):
        # gamma would be 2, stretching kappa's validity limit from 0.354 to 0.707
        assert main(["bound", "--alpha", "0.5", "--beta", "1", "--kappa", "0.5", "--bnorm", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha must be at least 1" in captured.err

    def test_one_step_form(self, capsys):
        rc = main(
            ["bound", "--one-step", "--sigma-min", "0.5", "--uyf1", "0.8",
             "--kappa", "0.01", "--bnorm", "2.0"]
        )
        assert rc == 0
        v = float(capsys.readouterr().out.strip())
        expected = (2 * (1 + np.sqrt(5)) * 0.8 / 0.25 + 1 / 0.5) * np.sqrt(2) * 0.01 * 2.0
        assert abs(v - expected) <= 1e-9

    def test_hypothesis_violation_exit_3(self, capsys):
        assert main(["bound", "--gamma", "0.5", "--kappa", "0.9", "--bnorm", "1"]) == 3
        assert "hypothesis" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma-min", "--uyf1", "--kappa", "--bnorm"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_one_step_non_finite_exit_2(self, capsys, flag, bad):
        values = {"--sigma-min": "0.4", "--uyf1": "0.9", "--kappa": "0.01", "--bnorm": "2.0"}
        values[flag] = bad
        argv = ["bound", "--one-step"] + [f"{k}={v}" for k, v in values.items()]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        names = {"--sigma-min": "sigma_min_Mhat", "--uyf1": "norm_Uyf1", "--kappa": "kappa", "--bnorm": "b_norm"}
        assert captured.err == f"error: {names[flag]} must be finite, got {bad}\n"

    @pytest.mark.parametrize("form, flag, bad", FULL_HORIZON_NON_FINITE)
    def test_full_horizon_non_finite_exit_2(self, capsys, form, flag, bad):
        values = dict(FULL_HORIZON_FORMS[form], **{flag: bad})
        assert main(["bound"] + [f"{k}={v}" for k, v in values.items()]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_flags_exit_2(self, capsys):
        assert main(["bound", "--kappa", "0.1", "--bnorm", "1"]) == 2
        assert main(["bound", "--one-step", "--kappa", "0.1", "--bnorm", "1"]) == 2

    @pytest.mark.parametrize("extra", [["--gamma", "0.3"], ["--alpha", "2"], ["--beta", "3"],
                                       ["--alpha", "2", "--beta", "3"]])
    def test_one_step_with_full_horizon_flag_exit_2(self, capsys, extra):
        argv = ["bound", "--one-step", "--sigma-min", "0.5", "--uyf1", "1", "--kappa", "0.1",
                "--bnorm", "1"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--one-step takes --sigma-min and --uyf1, not --gamma, --alpha or --beta" in captured.err

    @pytest.mark.parametrize("extra", [["--sigma-min", "0.5"], ["--uyf1", "1"]])
    @pytest.mark.parametrize("form", FULL_HORIZON_FORMS)
    def test_full_horizon_with_one_step_flag_exit_2(self, capsys, form, extra):
        values = FULL_HORIZON_FORMS[form]
        assert main(["bound"] + [f"{k}={v}" for k, v in values.items()] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sigma-min and --uyf1 need --one-step" in captured.err


class TestExperimentCommands:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "Tini = 2\nTf = 2\nT = 30\nT_sim = 14\nN = 4\nsigma = 0.02\n"
            "kappa_max = 0.3\noutput_dir = out\n"
        )
        return path

    def test_experiment_writes_csvs(self, tmp_path, config_file, capsys):
        assert main(["experiment", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "out" / "trials.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "trials.csv" in out

    def test_experiment_jobs_reproducible(self, tmp_path, config_file):
        main(["experiment", "--config", str(config_file)])
        serial = (tmp_path / "out" / "trials.csv").read_bytes()
        main(["experiment", "--config", str(config_file), "--jobs", "4"])
        parallel = (tmp_path / "out" / "trials.csv").read_bytes()
        assert serial == parallel

    def test_single_reports_kappa_and_file(self, tmp_path, config_file, capsys):
        assert main(["single", "--config", str(config_file), "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kappa = ")
        assert (tmp_path / "out" / "single_2.csv").exists()

    def test_single_index_out_of_range_exit_2(self, config_file, capsys):
        assert main(["single", "--config", str(config_file), "--n", "99"]) == 2
        assert "out of range 1.." in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["experiment", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_model_file_resolved_relative_to_config(self, tmp_path, capsys):
        (tmp_path / "model.txt").write_text(format_model(default_model()))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = model.txt\nTini = 2\nTf = 2\nT_sim = 12\nN = 2\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 0

    def test_non_finite_model_exit_2(self, tmp_path, monkeypatch, capsys):
        def offline_stage(*args, **kwargs):
            raise AssertionError("the offline stage ran")

        monkeypatch.setattr("subpred.experiment.simulate", offline_stage)
        model = tmp_path / "model.txt"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = model.txt\nTini = 2\nTf = 2\nT_sim = 12\nN = 2\noutput_dir = o\n")
        for token in ("nan", "inf", "1e400"):
            model.write_text(format_model(default_model()).replace("A = 0.8 0.2", f"A = 0.8 {token}"))
            assert main(["experiment", "--config", str(cfg)]) == 2
            message = f"A has non-finite entries: A[0, 1] is {float(token)}"
            assert capsys.readouterr().err == f"error: {model}: {message}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["N", "Tini", "seed_perturb"])
    def test_non_integer_config_key_names_file_and_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = x\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"{cfg}: {key} must be an integer, got 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_integer_model_dimension_names_file_and_key(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(format_model(default_model()).replace("n = 2", "n = 2.5"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = model.txt\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"{model}: n must be an integer, got '2.5'" in capsys.readouterr().err

    def test_wide_context_rows_exit_4(self, tmp_path, capsys):
        # p*Tini = 1 < n = 2: the context rows of the rank-7 basis are 6 x 7
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("Tini = 1\nTf = 4\nT = 40\nN = 10\nkappa_max = 0.05\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 4
        assert "rank 6 for 7 columns, sigma_min = 0.000e+00" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_target_near_reachable_limit_exit_0(self, tmp_path, capsys):
        # within sqrt(min(r, q-r)) = sqrt(6), where every geodesic ends
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kappa_max = 2.0\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 0
        with open(tmp_path / "o" / "summary.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert abs(float(last["kappa"]) - 2.0) <= 1e-6

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sigma = nan", "sigma"),
            ("sigma = inf", "sigma"),
            ("kappa_max = nan", "kappa_max"),
            ("kappa_max = inf", "kappa_max"),
            ("kappa_grid = 0.1,nan", "kappa_grid"),
            ("kappa_grid = inf", "kappa_grid"),
            # read from text as inf, and refused by the configuration
            ("sigma = 1e400", "{cfg}: sigma must be finite, got inf"),
            ("kappa_max = 1e400", "{cfg}: kappa_max must be finite, got inf"),
            ("kappa_grid = 0.1,1e400", "{cfg}: kappa_grid has non-finite entries: kappa_grid[1] is inf"),
            # rank 6 in dimension 8: at most sqrt(2) is reachable
            ("kappa_grid = 0.1,2.0", "unreachable"),
            ("sigma = x", "{cfg}: sigma: could not convert string to float: 'x'"),
            ("kappa_grid = 0.1,y", "{cfg}: kappa_grid: could not convert string to float: 'y'"),
            # order n + Tini + Tf = 6 for m = 1: no input of length 10 is exciting
            ("T = 10", "T must be at least (m+1)*order - 1 = 11"),
            ("seed_data = -1", "{cfg}: seed_data must be non-negative, got -1"),
            ("seed_noise = -3", "{cfg}: seed_noise must be non-negative, got -3"),
            ("seed_perturb = -2", "{cfg}: seed_perturb must be non-negative, got -2"),
            # kappa_grid is given instead of N and kappa_max, never with them
            ("kappa_grid = 0.1\nN = 5", "{cfg}: kappa_grid is given together with N: give it"),
            ("kappa_grid = 0.1\nkappa_max = 0.3", "{cfg}: kappa_grid is given together with kappa_max:"),
            ("N = 100\nkappa_max = 0.9\nkappa_grid = 0.1",
             "{cfg}: kappa_grid is given together with N and kappa_max:"),
        ],
    )
    def test_bad_config_exit_2_before_simulation(self, tmp_path, monkeypatch, capsys, line, message):
        def offline_stage(*args, **kwargs):
            raise AssertionError("the offline stage ran")

        monkeypatch.setattr("subpred.experiment.simulate", offline_stage)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"Tini = 2\nTf = 2\nT_sim = 12\n{line}\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert message.format(cfg=cfg) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_diverging_model_exit_2(self, tmp_path, capsys):
        (tmp_path / "model.txt").write_text(
            format_model(default_model()).replace("A = 0.8 0.2", "A = 1e10 0.2")
        )
        cfg = tmp_path / "exp.cfg"
        # x_t grows like 1e10**t and overflows within the T = 60 offline steps
        cfg.write_text(
            "model = model.txt\nTini = 2\nTf = 2\nT = 60\nT_sim = 12\nN = 2\noutput_dir = o\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg)]) == 2
        assert "simulation diverged" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestKeyValueFiles:
    """The line rules of model, config and context files, which all three
    take from one parser: each error names the file and line, and `behave`
    exits 2 before any output."""

    @pytest.mark.parametrize("rule", ["no-equals", "empty-key", "duplicate"])
    @pytest.mark.parametrize("kind", ["model", "config", "context"])
    def test_line_rules_exit_2(self, tmp_path, capsys, kind, rule):
        cfg, ctx = tmp_path / "exp.cfg", tmp_path / "ctx.txt"
        (tmp_path / "model.txt").write_text(format_model(default_model()))
        cfg.write_text("model = model.txt\nTini = 2\nTf = 2\nT_sim = 12\noutput_dir = o\n")
        (tmp_path / "line.csv").write_text("# m=1 p=1 Tini=1 Tf=1 r=1\n1.0\n0.0\n0.0\n0.0\n")
        ctx.write_text("m = 1\np = 1\nTini = 1\nTf = 1\nu_ini = 0\nu = 0\ny_ini = 0\n")
        bad = {"model": tmp_path / "model.txt", "config": cfg, "context": ctx}[kind]
        text = bad.read_text()
        line, message = {
            "no-equals": ("just words", "expected 'key = value', got 'just words'"),
            "empty-key": ("= 1", "empty key"),
            "duplicate": (text.splitlines()[0], "duplicate key"),
        }[rule]
        bad.write_text(f"{text}{line}\n")
        if kind == "context":
            args = ["predict", "--basis", str(tmp_path / "line.csv"), "--context", str(ctx)]
        else:
            args = ["experiment", "--config", str(cfg)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}:{len(text.splitlines()) + 1}: {message}" in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error", [ValueError, RankDeficientError, HypothesisViolationError])
    def test_file_prefix_keeps_the_error_type(self, error):
        # so naming the file never changes which exit code an error maps to
        with pytest.raises(error, match=r"^f\.txt: bad$") as caught:
            with named("f.txt"):
                raise error("bad")
        assert type(caught.value) is error


class TestReadmeExamples:
    """The README's file examples are valid input as written."""

    @staticmethod
    def _block(section):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        match = re.search(rf"^### {re.escape(section)}\n.*?^```\n(.*?)^```$", readme, re.M | re.S)
        assert match is not None, section
        return match.group(1)

    def test_config_and_model_load(self, tmp_path):
        (tmp_path / "model.txt").write_text(self._block("Model file"))
        (tmp_path / "exp.cfg").write_text(self._block("Configuration file"))
        config = load_config(tmp_path / "exp.cfg")
        np.testing.assert_array_equal(config.model.A, default_model().A)
        assert (config.Tini, config.Tf, config.T, config.N, config.kappa_grid) == (4, 2, 30, 100, None)
        assert config.output_dir == str(tmp_path / "out")

    def test_context_loads(self, tmp_path):
        (tmp_path / "ctx.txt").write_text(self._block("Context file (for `behave predict`)"))
        ctx = load_context(tmp_path / "ctx.txt")
        assert (ctx.m, ctx.p, ctx.Tini, ctx.Tf) == (1, 1, 4, 4)
        np.testing.assert_array_equal(ctx.y_ini, [0.0, 1.0, 1.04, 1.122])
