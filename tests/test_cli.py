import warnings

import numpy as np
import pytest

from helpers import random_basis, random_orthogonal
from subpred import format_model, perturb_subspace, save_basis, simulate
from subpred.cli import main
from subpred.experiment import default_model
from subpred.grassmann import BehaviorBasis
from subpred.hankel import PartitionedMatrix, persistently_exciting_input, stacked_data_matrix
from subpred.grassmann import orthonormal_basis

DIMS = (1, 1, 2, 2)


def _line_basis(q, angle):
    """A line in the plane of the first two coordinates, padded to dimension q."""
    mat = np.zeros((q, 1))
    mat[0, 0] = np.cos(angle)
    mat[1, 0] = np.sin(angle)
    # Tf = 0: distance-only payload in ambient dimension q = (m+p)*Tini
    return BehaviorBasis(PartitionedMatrix(data=mat, m=1, p=1, Tini=q // 2, Tf=0))


class TestDistanceCommand:
    def test_identical_files(self, tmp_path, rng, capsys):
        U = random_basis(rng, DIMS, 3)
        a = tmp_path / "a.csv"
        save_basis(a, U)
        assert main(["distance", str(a), str(a)]) == 0
        assert abs(float(capsys.readouterr().out.strip())) <= 1e-12

    def test_orthogonal_lines_in_the_plane(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_basis(a, _line_basis(2, 0.0))
        save_basis(b, _line_basis(2, np.pi / 2))
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
        save_basis(good, _line_basis(2, 0.0))
        assert main(["distance", str(bad), str(good)]) == 2
        assert main(["distance", str(tmp_path / "missing.csv"), str(good)]) == 2


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
        rotated = BehaviorBasis(basis.basis.with_data(basis.matrix @ random_orthogonal(rng, basis.r)))
        rot_path = tmp_path / "rotated.csv"
        save_basis(rot_path, rotated)
        assert main(["predict", "--basis", str(rot_path), "--context", str(ctx_path)]) == 0
        second = capsys.readouterr().out
        a = np.array([float(l.split(",")[1]) for l in first.splitlines()[1:]])
        b = np.array([float(l.split(",")[1]) for l in second.splitlines()[1:]])
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rank_deficient_basis_exit_4(self, tmp_path, capsys):
        mat = np.zeros((4, 2))
        mat[1, 0] = 1.0
        mat[3, 1] = 1.0
        basis = BehaviorBasis(PartitionedMatrix(data=mat, m=1, p=1, Tini=1, Tf=1))
        path = tmp_path / "basis.csv"
        save_basis(path, basis)
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, [1.0], [1.0], [1.0], 1, 1, 1, 1)
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_context_exit_2(self, tmp_path, example_basis_file, capsys, token):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.ones(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        ctx_path.write_text(ctx_path.read_text().replace("u_ini = 1.0 1.0", f"u_ini = 1 {token}"))
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ctx_path}: u_ini: non-finite entry '{token}'" in captured.err

    def test_non_finite_basis_exit_2(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["nan"] + lines[3].split(",")[1:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        assert main(["predict", "--basis", str(bad), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}:4: non-finite entry 'nan'" in captured.err
        assert main(["distance", str(bad), str(path)]) == 2

    def test_non_integer_dimension_names_file_and_key(self, tmp_path, example_basis_file, capsys):
        path, _, _ = example_basis_file
        ctx_path = tmp_path / "ctx.txt"
        _write_context(ctx_path, np.zeros(4), np.zeros(4), np.zeros(4), 1, 1, 4, 4)
        ctx_path.write_text(ctx_path.read_text().replace("m = 1", "m = x"))
        assert main(["predict", "--basis", str(path), "--context", str(ctx_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ctx_path}: m must be an integer, got 'x'" in captured.err

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
        assert "all bound inputs must be finite" in captured.err

    @pytest.mark.parametrize("form, flag, bad", FULL_HORIZON_NON_FINITE)
    def test_full_horizon_non_finite_exit_2(self, capsys, form, flag, bad):
        values = dict(FULL_HORIZON_FORMS[form], **{flag: bad})
        assert main(["bound"] + [f"{k}={v}" for k, v in values.items()]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_flags_exit_2(self, capsys):
        assert main(["bound", "--kappa", "0.1", "--bnorm", "1"]) == 2
        assert main(["bound", "--one-step", "--kappa", "0.1", "--bnorm", "1"]) == 2


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
        (tmp_path / "model.txt").write_text(
            format_model(default_model()).replace("A = 0.8 0.2", "A = 0.8 inf")
        )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = model.txt\nTini = 2\nTf = 2\nT_sim = 12\nN = 2\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "matrix A, row 1: non-finite entry 'inf'" in capsys.readouterr().err
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
        assert "rank 6 for 7 columns" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_target_beyond_drawn_geodesic_exit_2(self, tmp_path, capsys):
        # within sqrt(min(r, q-r)) = sqrt(6), beyond the drawn geodesic's end
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kappa_max = 2.0\noutput_dir = o\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "reaches distance 1.815" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sigma = nan", "sigma"),
            ("sigma = inf", "sigma"),
            ("kappa_max = nan", "kappa_max"),
            ("kappa_max = inf", "kappa_max"),
            ("kappa_grid = 0.1,nan", "kappa_grid"),
            ("kappa_grid = inf", "kappa_grid"),
            # rank 6 in dimension 8: at most sqrt(2) is reachable
            ("kappa_grid = 0.1,2.0", "unreachable"),
            ("sigma = x", "{cfg}: sigma: could not convert string to float: 'x'"),
            ("kappa_grid = 0.1,y", "{cfg}: kappa_grid: could not convert string to float: 'y'"),
        ],
    )
    def test_bad_config_exit_2_before_simulation(self, tmp_path, monkeypatch, capsys, line, message):
        def offline_stage(*args, **kwargs):
            raise AssertionError("the offline stage ran")

        monkeypatch.setattr("subpred.experiment.simulate", offline_stage)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"Tini = 2\nTf = 2\nT_sim = 12\nN = 2\n{line}\noutput_dir = o\n")
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
