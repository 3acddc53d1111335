import re
import warnings

import numpy as np
import pytest

from helpers import (
    format_model,
    hankel_reference,
    random_model,
    random_orthogonal,
    simulate_reference,
    unobservable_model,
)
from subpred import (
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    gain_bound,
    gamma,
    lipschitz_bound,
    observability_degree,
    one_step_bound,
    parse_model,
    simulate,
    trajectory_generation_matrix,
)
import subpred.hankel as hankel_module
from subpred import experiment
from subpred.experiment import ExperimentConfig, default_model
from subpred.grassmann import BehaviorBasis, Geodesic, orthonormal_basis, perturb_subspace
from subpred.hankel import (
    PartitionedMatrix,
    hankel,
    is_persistently_exciting,
    persistently_exciting_input,
    stacked_data_matrix,
)
from subpred.predictor import PredictionContext, _context_matrix, pseudoinverse


def _impulse_oracle(model, T):
    """Direct matrix recursion, independent of simulate()."""
    x = np.zeros(model.n)
    ys = []
    for t in range(T):
        u = np.array([1.0] if t == 0 else [0.0])
        ys.append(model.C @ x + model.D @ u)
        x = model.A @ x + model.B @ u
    return np.array(ys)


# the two ways to build a NoiseSpec, which read a seed alike
NOISE_SPEC_MAKERS = pytest.mark.parametrize(
    "make", [NoiseSpec, NoiseSpec.relative_gaussian], ids=["init", "relative"]
)


def _plane():
    return BehaviorBasis(np.eye(4)[:, :2], 1, 1, 1, 1)


# every public reader of a seed, which reads it alike
SEED_READERS = pytest.mark.parametrize(
    "read",
    [
        lambda seed: NoiseSpec(0.02, seed),
        lambda seed: NoiseSpec.relative_gaussian(0.02, seed),
        lambda seed: Geodesic.draw(_plane(), seed),
        lambda seed: perturb_subspace(_plane(), 0.1, seed),
        lambda seed: persistently_exciting_input(1, 30, order=4, seed=seed),
    ],
    ids=["init", "relative", "draw", "perturb", "pe-input"],
)


# unit windows, m = p = Tini = Tf = 1, whose arrays stay those of the unit
# windows whatever one dim is set to, so nothing but the reader refuses it
_UNIT_WINDOWS = {
    "partitioned": lambda **dims: PartitionedMatrix(np.zeros((4, 1)), **dims),
    "context": lambda **dims: PredictionContext([0.0], [0.0], [0.0], **dims),
}
_DIMS = ("m", "p", "Tini", "Tf")


def _window_dim(kind, dim, k):
    """``dim`` as stored by a unit-window ``kind`` built with ``dim`` = k."""
    return getattr(_UNIT_WINDOWS[kind](**{**dict.fromkeys(_DIMS, 1), dim: k}), dim)


def _offline(Tini, Tf):
    return stacked_data_matrix(np.arange(10.0)[:, None], np.arange(10.0)[:, None] ** 2, Tini, Tf)


# every reader of a count: (read, the name it is refused by, a count it accepts)
COUNT_READERS = pytest.mark.parametrize(
    ("read", "name", "count"),
    [
        *[
            (lambda k, kind=kind, d=d: _window_dim(kind, d, k), d, 1)
            for kind in _UNIT_WINDOWS for d in _DIMS
        ],
        *[
            (lambda k, key=key: getattr(ExperimentConfig(default_model(), **{key: k}), key), key, count)
            for key, count in (("Tini", 4), ("Tf", 4), ("T", 30), ("T_sim", 50), ("N", 100))
        ],
        (lambda k: experiment._check_index(ExperimentConfig(default_model()), k), "trial index n", 1),
        (lambda k: _offline(k, 2).Tini, "Tini", 2),
        (lambda k: _offline(2, k).Tf, "Tf", 2),
        (lambda k: hankel(np.arange(5.0)[:, None], k).tolist(), "depth", 2),
        (lambda k: persistently_exciting_input(k, 30, 5, 0).tolist(), "m", 1),
        (lambda k: persistently_exciting_input(1, k, 5, 0).tolist(), "T", 30),
        (lambda k: persistently_exciting_input(1, 30, k, 0).tolist(), "order", 5),
        (lambda k: orthonormal_basis(_offline(2, 2), k).r, "r", 2),
        (lambda k: trajectory_generation_matrix(default_model(), k).tolist(), "horizon L", 2),
        (lambda k: gain_bound(default_model(), k), "horizon L", 2),
        (lambda k: observability_degree(default_model(), k), "horizon L", 2),
    ],
    ids=[
        *[f"{kind}-{d}" for kind in _UNIT_WINDOWS for d in _DIMS],
        *[f"config-{key}" for key in ("Tini", "Tf", "T", "T_sim", "N")],
        "trial-index", "stacked-Tini", "stacked-Tf", "hankel-depth",
        "pe-input-m", "pe-input-T", "pe-input-order", "basis-r",
        "generator-L", "gain-L", "degree-Tini",
    ],
)


class TestCountReaders:
    @COUNT_READERS
    def test_float_count_rejected(self, read, name, count):
        # an integral float too: not truncated, and not left to numpy
        with pytest.raises(TypeError, match=r"^'float' object cannot be interpreted as an integer$"):
            read(float(count))

    @COUNT_READERS
    def test_bool_count_rejected_by_name(self, read, name, count):
        # operator.index reads True as 1, so True used to pass as a count
        with pytest.raises(TypeError, match=rf"^{re.escape(name)} must be an integer, got True$"):
            read(True)

    @COUNT_READERS
    def test_count_below_one_rejected_by_name(self, read, name, count):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be positive, got 0$"):
            read(0)

    @COUNT_READERS
    def test_numpy_integer_read_as_int(self, read, name, count):
        got, want = read(np.int64(count)), read(count)
        assert type(got) is type(want) and got == want

    def test_rank_read_before_the_svd(self, svd_calls):
        X = _offline(2, 2)
        with pytest.raises(TypeError):
            orthonormal_basis(X, 2.0)
        with pytest.raises(ValueError, match=r"^rank r=9 out of range for a 8x7 matrix$"):
            orthonormal_basis(X, 9)
        assert svd_calls == []

    def test_input_without_channels_rejected(self):
        # it used to return a (30, 0) input
        with pytest.raises(ValueError, match=r"^m must be positive, got 0$"):
            persistently_exciting_input(0, 30, 5, 0)


# every reader of a real number: (read, the name it is refused by, a value
# it accepts); each read returns the float it took or built
REAL_READERS = pytest.mark.parametrize(
    ("read", "name", "good"),
    [
        (lambda x: ExperimentConfig(default_model(), sigma=x).sigma, "sigma", 0.02),
        (lambda x: ExperimentConfig(default_model(), kappa_max=x).kappa_max, "kappa_max", 0.9),
        (lambda x: NoiseSpec(sigma=x).sigma, "sigma", 0.02),
        (lambda x: NoiseSpec.relative_gaussian(x, 0).sigma, "sigma", 0.02),
        (lambda x: gamma(x, 0.5), "alpha", 2.0),
        (lambda x: gamma(2.0, x), "beta", 0.5),
        (lambda x: lipschitz_bound(x, 0.01, 1.0), "gamma", 0.5),
        (lambda x: lipschitz_bound(0.5, x, 1.0), "kappa", 0.01),
        (lambda x: lipschitz_bound(0.5, 0.01, x), "b_norm", 2.0),
        (lambda x: one_step_bound(x, 0.9, 0.01, 2.0), "sigma_min_Mhat", 0.5),
        (lambda x: one_step_bound(0.5, x, 0.01, 2.0), "norm_Uyf1", 0.9),
        (lambda x: one_step_bound(0.5, 0.9, x, 2.0), "kappa", 0.01),
        (lambda x: one_step_bound(0.5, 0.9, 0.01, x), "b_norm", 2.0),
        (lambda x: Geodesic.draw(_plane(), 0).member(x)[1], "kappa", 0.1),
    ],
    ids=[
        "config-sigma", "config-kappa_max", "noise-sigma", "relative-sigma",
        "gamma-alpha", "gamma-beta", "lipschitz-gamma", "lipschitz-kappa", "lipschitz-b_norm",
        "one-step-sigma", "one-step-Uyf1", "one-step-kappa", "one-step-b_norm", "member-kappa",
    ],
)


class TestRealReaders:
    @REAL_READERS
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1"], ids=["True", "False", "np-True", "str"])
    def test_bool_or_string_rejected_by_name(self, read, name, good, value):
        # a bool used to pass as 1.0 or 0.0, and a string reached numpy's isfinite
        with pytest.raises(TypeError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
            read(value)

    @REAL_READERS
    @pytest.mark.parametrize(
        "value, shown",
        [(float("nan"), "nan"), (float("inf"), "inf"), (10**400, "inf"), (-(10**400), "-inf")],
        ids=["nan", "inf", "huge-int", "huge-negative-int"],
    )
    def test_non_finite_rejected_by_name(self, read, name, good, value, shown):
        # an integer beyond the float range reads as +-inf; float() raised
        # an OverflowError that named no input and that the CLI maps to exit 4
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {shown}$"):
            read(value)

    @REAL_READERS
    def test_numpy_float_read_as_float(self, read, name, good):
        got, want = read(np.float64(good)), read(good)
        assert type(got) is float and got == want


def _nested(value, entry):
    """``value``, a list or a nested list, with ``entry`` applied to each entry."""
    return [_nested(v, entry) for v in value] if isinstance(value, list) else entry(value)


def _last(value, entry):
    """``value``, a list or a nested list, with its last entry replaced by ``entry``."""
    return [*value[:-1], _last(value[-1], entry)] if isinstance(value, list) else entry


# values whose entries `lti._real` refuses, each made from a list of floats
# with at least two entries: (make, the error, its message, where {name} is
# the input and {index} the index of the last entry)
NON_REAL_VALUES = pytest.mark.parametrize(
    ("make", "error", "message"),
    [
        (lambda good: _nested(good, str), TypeError, "{name} must hold real numbers, got a string array"),
        (
            lambda good: _nested(good, lambda v: str(v).encode()),
            TypeError, "{name} must hold real numbers, got a bytes array",
        ),
        (
            lambda good: _nested(good, lambda v: complex(v, 1.0)),
            TypeError, "{name} must hold real numbers, got a complex array",
        ),
        (lambda good: np.array(good) + 5j, TypeError, "{name} must hold real numbers, got a complex array"),
        # numpy read a bool among numbers as 1.0 or 0.0
        (lambda good: _last(good, True), TypeError, "{name}{index} must be a real number, got True"),
        (
            lambda good: _last(good, np.False_),
            TypeError, "{name}{index} must be a real number, got " + repr(np.False_),
        ),
        # numpy keeps it in an object array, which was refused without naming the entry
        (lambda good: _last(good, 10**400), ValueError, "{name}{index} must be finite, got inf"),
        # an object array is read entry by entry, as a list is
        (
            lambda good: np.array(_last(good, True), dtype=object),
            TypeError, "{name}{index} must be a real number, got True",
        ),
        (
            lambda good: np.array(_last(good, np.nan), dtype=object),
            ValueError, "{name}{index} must be finite, got nan",
        ),
    ],
    ids=["string", "bytes", "complex-list", "complex-array", "bool-among-numbers",
         "numpy-bool-among-numbers", "huge-int", "bool-in-object-array", "nan-in-object-array"],
)


def _refusal(message, name, good):
    """A NON_REAL_VALUES message for the input ``name``, given ``good``, as a pattern."""
    return f"^{re.escape(message.format(name=name, index=[size - 1 for size in np.shape(good)]))}$"


# (T, 1) sequences of T = 4 steps, for the readers below
_U = np.array([[1.0], [-2.0], [0.5], [3.0]])
_Y = np.array([[0.0], [1.0], [-1.0], [2.0]])

# a model with n = m = p = 2 and a context with m = p = 1, Tini = Tf = 2
_A2, _I2, _CTX = [[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]


# a (T, 2) series of the same T = 4 steps
_UY = np.hstack([_U, _Y])


def _stacked_reference(u, y, Tini, Tf):
    """The data matrix of ``u`` and ``y`` stacked from the per-lag oracle."""
    L = Tini + Tf
    data = np.vstack([hankel_reference(u, L), hankel_reference(y, L)])
    return PartitionedMatrix(data, u.shape[1], y.shape[1], Tini, Tf)


def _frozen_reads(x):
    """The names subpred.hankel reads with `lti._frozen` while it checks
    the persistency of ``x`` and stacks ``x`` with ``_Y``."""
    names, frozen = [], hankel_module._frozen

    def reading(value, name, *args, **kwargs):
        names.append(name)
        return frozen(value, name, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hankel_module, "_frozen", reading)
        is_persistently_exciting(x, 2)
        stacked_data_matrix(x, _Y, 1, 1)
    return names


# every reader of a time series, and pseudoinverse's matrix: (read, the name
# it is refused by, a (T, 1) or (T, 2) value it accepts, what it gives for
# that value, bit for bit).  Every window, of hankel, of the data matrix and
# of the contexts, is checked against the per-lag oracle at depth 1, 2 and
# T; the contexts against the context rows of the oracle's data matrix.
SEQUENCE_READERS = pytest.mark.parametrize(
    ("read", "name", "good", "want"),
    [
        (lambda x: Trajectory(x, _Y).inputs, "inputs", _U, _U),
        (lambda x: Trajectory(_U, x).outputs, "outputs", _Y, _Y),
        (
            lambda x: simulate(default_model(), x).outputs,
            "inputs", _U, simulate_reference(default_model(), _U)[1],
        ),
        (lambda x: hankel(x, 2), "z", _U, hankel_reference(_U, 2)),
        (lambda x: is_persistently_exciting(x, 2), "u", _U, True),
        (
            lambda x: stacked_data_matrix(x, _Y, 1, 1).data,
            "u_data", _U, _stacked_reference(_U, _Y, 1, 1).data,
        ),
        (
            lambda x: stacked_data_matrix(_U, x, 1, 1).data,
            "y_data", _Y, _stacked_reference(_U, _Y, 1, 1).data,
        ),
        (pseudoinverse, "M", np.array([[2.0], [0.0]]), np.array([[0.5, 0.0]])),
        (lambda x: hankel(x, 1), "z", _U, hankel_reference(_U, 1)),
        (lambda x: hankel(x, 4), "z", _U, hankel_reference(_U, 4)),
        (lambda x: hankel(x, 1), "z", _UY, hankel_reference(_UY, 1)),
        (lambda x: hankel(x, 2), "z", _UY, hankel_reference(_UY, 2)),
        (lambda x: hankel(x, 4), "z", _UY, hankel_reference(_UY, 4)),
        (
            lambda x: stacked_data_matrix(x, _Y, 2, 2).data,
            "u_data", _UY, _stacked_reference(_UY, _Y, 2, 2).data,
        ),
        (
            lambda x: stacked_data_matrix(_U, x, 1, 2).data,
            "y_data", _UY, _stacked_reference(_U, _UY, 1, 2).data,
        ),
        (
            lambda x: _context_matrix(Trajectory(x, _Y), 1, 1),
            "inputs", _U, _stacked_reference(_U, _Y, 1, 1).context_block.T,
        ),
        (
            lambda x: _context_matrix(Trajectory(x, _UY), 2, 1),
            "inputs", _UY, _stacked_reference(_UY, _UY, 2, 1).context_block.T,
        ),
        (
            lambda x: _context_matrix(Trajectory(_U, x), 2, 2),
            "outputs", _UY, _stacked_reference(_U, _UY, 2, 2).context_block.T,
        ),
        # each input is read once; `data` is PartitionedMatrix reading the stacked matrix
        (_frozen_reads, "u", _U, ["u", "u_data", "y_data", "data"]),
    ],
    ids=[
        "trajectory-inputs", "trajectory-outputs", "simulate-inputs",
        "hankel-z", "pe-u", "stacked-u_data", "stacked-y_data", "pinv-M",
        "hankel-z-depth-1", "hankel-z-depth-T", "hankel-mimo-depth-1", "hankel-mimo",
        "hankel-mimo-depth-T", "stacked-mimo-u_data-depth-T", "stacked-mimo-y_data",
        "context-inputs", "context-mimo", "context-mimo-outputs-depth-T", "frozen-reads",
    ],
)


class TestSequenceReaders:
    @SEQUENCE_READERS
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected_before_any_factorization(
        self, svd_calls, read, name, good, want, bad
    ):
        # the first non-finite entry is named by its index
        value = good.copy()
        value[-1, 0] = np.nan
        value[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries: {name}\[1, 0\] is {bad}$"):
            read(value)
        assert svd_calls == [] and svd_calls.eigvalsh == [] and svd_calls.solve == []

    @SEQUENCE_READERS
    def test_flat_array_rejected_by_name(self, read, name, good, want):
        # (T,) could be one channel of T steps or one step of T channels
        message = rf"^{name} must be 2-dimensional, got shape \({len(good)},\)$"
        with pytest.raises(ValueError, match=message):
            read(good[:, 0])

    @SEQUENCE_READERS
    def test_ragged_list_rejected_by_name(self, read, name, good, want):
        rows = good.tolist()
        rows[1].append(0.0)
        with pytest.raises(ValueError, match=f"^{name}: "):
            read(rows)

    @SEQUENCE_READERS
    def test_bool_series_rejected_by_name(self, read, name, good, want):
        # numpy reads a bool array as 0s and 1s
        with pytest.raises(TypeError, match=f"^{name} must hold real numbers, got a bool array$"):
            read(good != 0)

    @SEQUENCE_READERS
    @NON_REAL_VALUES
    def test_non_real_series_rejected_by_name(self, svd_calls, read, name, good, want, make, error, message):
        with pytest.raises(error, match=_refusal(message, name, good)):
            read(make(good.tolist()))
        assert svd_calls == [] and svd_calls.eigvalsh == [] and svd_calls.solve == []

    @SEQUENCE_READERS
    def test_column_accepted(self, read, name, good, want):
        # an object array of reals reads as its list does; it was refused
        for value in (good, good.tolist(), good.astype(object)):
            got = np.asarray(read(value))
            np.testing.assert_array_equal(got, want)
            assert got.tobytes() == np.asarray(want).tobytes()


# every array reader, each given a value with an empty dimension: (read, the
# empty value, the message it is refused with)
EMPTY_READERS = pytest.mark.parametrize(
    ("read", "empty", "message"),
    [
        (lambda x: Trajectory(x, _Y), np.zeros((4, 0)), "inputs has 0 columns, expected at least 1"),
        (lambda x: Trajectory(_U, x), np.zeros((4, 0)), "outputs has 0 columns, expected at least 1"),
        (lambda x: hankel(x, 2), np.zeros((4, 0)), "z has 0 columns, expected at least 1"),
        (lambda x: is_persistently_exciting(x, 2), np.zeros((4, 0)), "u has 0 columns, expected at least 1"),
        (
            lambda x: stacked_data_matrix(x, _Y, 1, 1), np.zeros((4, 0)),
            "u_data has 0 columns, expected at least 1",
        ),
        (
            lambda x: stacked_data_matrix(_U, x, 1, 1), np.zeros((4, 0)),
            "y_data has 0 columns, expected at least 1",
        ),
        (lambda x: Trajectory(x, _Y), np.zeros((0, 1)), "inputs has 0 rows, expected at least 1"),
        (lambda x: Trajectory(_U, x), np.zeros((0, 1)), "outputs has 0 rows, expected 4"),
        (lambda x: simulate(default_model(), x), np.zeros((0, 1)), "inputs has 0 rows, expected at least 1"),
        (lambda x: hankel(x, 1), np.zeros((0, 1)), "z has 0 rows, expected at least 1"),
        (lambda x: is_persistently_exciting(x, 1), np.zeros((0, 1)), "u has 0 rows, expected at least 1"),
        (
            lambda x: stacked_data_matrix(x, _Y, 1, 1), np.zeros((0, 1)),
            "u_data has 0 rows, expected at least 1",
        ),
        (lambda x: stacked_data_matrix(_U, x, 1, 1), np.zeros((0, 1)), "y_data has 0 rows, expected 4"),
        (pseudoinverse, np.zeros((0, 3)), "M has 0 rows, expected at least 1"),
        (pseudoinverse, np.zeros((3, 0)), "M has 0 columns, expected at least 1"),
        (lambda x: PartitionedMatrix(x, 1, 1, 1, 1), np.zeros((4, 0)), "data has 0 columns, expected at least 1"),
        (lambda x: PartitionedMatrix(x, 1, 1, 1, 1), np.zeros((0, 1)), "data has 0 rows, expected 4"),
        (lambda x: BehaviorBasis(x, 1, 1, 1, 1), np.zeros((4, 0)), "data has 0 columns, expected at least 1"),
        (
            lambda x: ExperimentConfig(default_model(), kappa_grid=x), (),
            "kappa_grid has 0 entries, expected at least 1",
        ),
        (lambda x: simulate(default_model(), [[1.0]], x0=x), [], "x0 has 0 entries, expected 2"),
        (lambda x: PredictionContext(x, _CTX, _CTX, 1, 1, 2, 2), [], "u_ini has 0 entries, expected 2"),
        (lambda x: PredictionContext(_CTX, x, _CTX, 1, 1, 2, 2), [], "u has 0 entries, expected 2"),
        (lambda x: PredictionContext(_CTX, _CTX, x, 1, 1, 2, 2), [], "y_ini has 0 entries, expected 2"),
    ],
    ids=[
        "trajectory-inputs", "trajectory-outputs", "hankel-z", "pe-u",
        "stacked-u_data", "stacked-y_data",
        "trajectory-inputs-steps", "trajectory-outputs-steps", "simulate-inputs-steps",
        "hankel-z-steps", "pe-u-steps", "stacked-u_data-steps", "stacked-y_data-steps",
        "pinv-M-rows", "pinv-M-columns", "partitioned-data-columns", "partitioned-data-rows",
        "basis-data-columns", "grid", "x0", "context-u_ini", "context-u", "context-y_ini",
    ],
)


class TestSeriesChannels:
    @EMPTY_READERS
    def test_no_channel_refused_by_name(self, svd_calls, read, empty, message):
        # an empty dimension, a series' channels among them, is refused by
        # the reader: a (T, 0) series used to pass, as a (0, T - 1) Hankel
        # matrix of "full row rank" 0 or a Trajectory with m = 0, and so did
        # pseudoinverse's (0, 3) matrix and a zero-column data matrix
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(empty)
        assert svd_calls == [] and svd_calls.eigh == [] and svd_calls.eigvalsh == []

    def test_simulate_names_its_channel_count(self):
        with pytest.raises(ValueError, match=r"^inputs has 0 columns, expected 1$"):
            simulate(default_model(), np.zeros((4, 0)))


# every array reader that is not a time series: (read, the name it is
# refused by, a value of at least two entries that it accepts)
ARRAY_READERS = pytest.mark.parametrize(
    ("read", "name", "good"),
    [
        (lambda x: ExperimentConfig(default_model(), kappa_grid=x).kappas, "kappa_grid", [0.1, 0.2]),
        (lambda x: StateSpaceModel(x, _I2, _I2, _I2).A, "A", _A2),
        (lambda x: StateSpaceModel(_A2, _I2, _I2, x).D, "D", _A2),
        (lambda x: PredictionContext(x, _CTX, _CTX, 1, 1, 2, 2).u_ini, "u_ini", [0.5, 0.5]),
        (lambda x: simulate(default_model(), [[1.0]], x0=x).outputs, "x0", [0.5, 0.5]),
        (lambda x: StateSpaceModel(_A2, x, _I2, _I2).B, "B", _I2),
        (lambda x: StateSpaceModel(_A2, _I2, x, _I2).C, "C", _I2),
        (lambda x: PredictionContext(_CTX, x, _CTX, 1, 1, 2, 2).u, "u", [0.5, 0.5]),
        (lambda x: PredictionContext(_CTX, _CTX, x, 1, 1, 2, 2).y_ini, "y_ini", [0.5, 0.5]),
        (lambda x: PartitionedMatrix(x, 1, 1, 1, 1).data, "data", [[1.0], [0.0], [0.5], [0.0]]),
    ],
    ids=["grid", "A", "D", "context", "x0", "B", "C", "context-u", "context-y_ini", "data"],
)


class TestArrayReader:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: ExperimentConfig(default_model(), kappa_grid="0.1,0.2"),
                TypeError, "^kappa_grid must hold real numbers, got a string array$",
            ),
            (
                lambda: ExperimentConfig(default_model(), kappa_grid=[[0.1], [0.2, 0.3]]),
                ValueError, "^kappa_grid: ",
            ),
            (
                lambda: StateSpaceModel([[1.0, 2.0], [3.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]),
                ValueError, "^A: ",
            ),
            (
                lambda: PredictionContext("x", [0.0], [0.0], 1, 1, 1, 1),
                TypeError, "^u_ini must hold real numbers, got a string array$",
            ),
        ],
        ids=["string-grid", "ragged-grid", "ragged-A", "string-context"],
    )
    def test_unconvertible_array_named(self, build, error, message):
        # numpy's own conversion error for a ragged list, prefixed by the
        # input it came from; a string is refused as no real number
        with pytest.raises(error, match=message):
            build()

    @ARRAY_READERS
    @NON_REAL_VALUES
    def test_non_real_array_rejected_by_name(self, read, name, good, make, error, message):
        # numpy parsed "0.5" and b"0.5" as numbers, and dropped the imaginary
        # part of a complex array with only a ComplexWarning
        with pytest.raises(error, match=_refusal(message, name, good)):
            read(make(good))

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: ExperimentConfig(default_model(), kappa_grid=(True, False)), "kappa_grid"),
            (lambda: StateSpaceModel([[True]], [[1.0]], [[1.0]], [[0.0]]), "A"),
            (lambda: StateSpaceModel([[0.5]], [[1.0]], [[1.0]], np.array([[False]])), "D"),
            (lambda: PredictionContext([True], [0.0], [0.0], 1, 1, 1, 1), "u_ini"),
            (lambda: simulate(default_model(), [[1.0]], x0=[True, False]), "x0"),
        ],
        ids=["bool-grid", "bool-A", "numpy-bool-D", "bool-context", "bool-x0"],
    )
    def test_bool_array_rejected_by_name(self, build, name):
        # it used to be read as 0s and 1s: the grid (True, False) swept (1.0, 0.0)
        with pytest.raises(TypeError, match=f"^{name} must hold real numbers, got a bool array$"):
            build()


class TestSimulate:
    def test_zero_input_zero_state_gives_zero_output(self, example_model):
        traj = simulate(example_model, np.zeros((10, 1)))
        assert np.all(traj.outputs == 0.0)

    def test_impulse_response_matches_hand_values(self, example_model):
        traj = simulate(example_model, [[1.0], [0.0], [0.0]])
        expected = _impulse_oracle(example_model, 3)
        np.testing.assert_allclose(traj.outputs, expected, atol=1e-14)
        # frozen hand-derived values: 0, C B = 1.0, C A B = 1.04
        np.testing.assert_allclose(traj.outputs.ravel(), [0.0, 1.0, 1.04], atol=1e-12)

    # the example model, then random MIMO models as (n, m, p)
    @pytest.mark.parametrize(
        "dims",
        [None, (1, 1, 1), (3, 2, 3), (6, 3, 6), (12, 4, 5)],
        ids=lambda d: "example" if d is None else "n{}m{}p{}".format(*d),
    )
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("with_x0", [False, True], ids=["zero-x0", "x0"])
    def test_state_recursion_holds(self, example_model, dims, noisy, with_x0):
        # outputs bit for bit against the per-step loop, so the state
        # recursion and the seeded noise stream behind byte-identical CSVs
        # are pinned
        rng = np.random.default_rng(46)
        model = example_model if dims is None else random_model(rng, *dims)
        u = rng.standard_normal((200, model.m))
        x0 = rng.standard_normal(model.n) if with_x0 else None
        noise = NoiseSpec.relative_gaussian(0.02, seed=5) if noisy else NoiseSpec.none()
        traj = simulate(model, u, x0=x0, noise=noise)
        _, outputs = simulate_reference(model, u, x0=x0, noise=noise)
        np.testing.assert_array_equal(traj.outputs, outputs)

    def test_noise_deterministic_for_fixed_seed(self, example_model):
        u = np.ones((20, 1))
        noise = NoiseSpec.relative_gaussian(0.02, seed=7)
        a = simulate(example_model, u, noise=noise)
        b = simulate(example_model, u, noise=noise)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_noise_scale_tracks_clean_output(self, example_model):
        # zero clean output -> zero noise, regardless of sigma
        traj = simulate(
            example_model, np.zeros((5, 1)), noise=NoiseSpec.relative_gaussian(0.5, seed=0)
        )
        assert np.all(traj.outputs == 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_bad_noise_sigma_rejected(self, sigma):
        # rejected at the noise argument, before simulate could blame the model
        rule = "nonnegative" if np.isfinite(sigma) else "finite"
        match = f"^sigma must be {rule}, got {sigma}$"
        with pytest.raises(ValueError, match=match):
            NoiseSpec(sigma=sigma)
        with pytest.raises(ValueError, match=match):
            NoiseSpec.relative_gaussian(sigma, seed=0)

    @SEED_READERS
    def test_float_seed_rejected(self, read):
        # not truncated to 1, and not left for numpy's generator to reject
        with pytest.raises(TypeError, match=r"^'float' object cannot be interpreted as an integer$"):
            read(1.5)

    @SEED_READERS
    def test_bool_seed_rejected_by_name(self, read):
        # operator.index reads True as 1, so True used to pass as seed 1
        with pytest.raises(TypeError, match=r"^seed must be an integer, got True$"):
            read(True)

    @SEED_READERS
    def test_negative_seed_rejected(self, read):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            read(-1)

    @NOISE_SPEC_MAKERS
    def test_integer_seed_read_as_index(self, example_model, make):
        noise = make(0.02, np.int64(5))
        assert type(noise.seed) is int and noise.seed == 5
        u = np.ones((20, 1))
        np.testing.assert_array_equal(
            simulate(example_model, u, noise=noise).outputs,
            simulate(example_model, u, noise=NoiseSpec(0.02, 5)).outputs,
        )

    def test_bad_x0_dimension_is_named(self, example_model):
        with pytest.raises(ValueError, match="^x0 has 3 entries, expected 2$"):
            simulate(example_model, np.zeros((4, 1)), x0=[1.0, 2.0, 3.0])
        # x0 is 1-D: a column of n entries or a scalar is refused, not flattened
        with pytest.raises(ValueError, match=r"^x0 must be 1-dimensional, got shape \(2, 1\)$"):
            simulate(example_model, np.zeros((4, 1)), x0=np.ones((2, 1)))
        with pytest.raises(ValueError, match=r"^x0 must be 1-dimensional, got shape \(\)$"):
            simulate(example_model, np.zeros((4, 1)), x0=1.0)

    def test_bad_input_width_rejected(self, example_model):
        with pytest.raises(ValueError, match="^inputs has 2 columns, expected 1$"):
            simulate(example_model, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_arguments_are_named(self, example_model, bad):
        # rejected before the loop, not reported as a divergence of the model
        u = np.zeros((4, 1))
        u[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^inputs has non-finite entries: inputs\[1, 0\] is {bad}$"):
            simulate(example_model, u)
        with pytest.raises(ValueError, match=rf"^x0 has non-finite entries: x0\[1\] is {bad}$"):
            simulate(example_model, np.zeros((4, 1)), x0=[0.0, bad])

    # x_t = 1e10**t: the state overflows at x_31, with or without noise; the
    # noise scale stays finite past x_16, where ||y_t||^2 overflows
    @pytest.mark.parametrize(
        "noise, step", [(NoiseSpec.none(), 30), (NoiseSpec.relative_gaussian(0.02, seed=0), 30)]
    )
    def test_divergence_raises_without_warnings(self, noise, step):
        model = StateSpaceModel(A=[[1e10]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"simulation diverged: .* from step t={step}$"):
                simulate(model, np.zeros((40, 1)), x0=[1.0], noise=noise)

    def test_noise_scale_past_overflow_of_the_square(self):
        # y_t = 1e10**t reaches 1e240, past the ~1e154 where ||y_t||^2 overflows
        model = StateSpaceModel(A=[[1e10]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        u = np.zeros((25, 1))
        clean = simulate(model, u, x0=[1.0]).outputs
        noise = NoiseSpec.relative_gaussian(0.02, seed=3)
        noisy = simulate(model, u, x0=[1.0], noise=noise).outputs
        assert np.abs(clean).max() > 1e154
        assert np.isfinite(noisy).all()
        z = np.random.default_rng(3).standard_normal((25, 1))
        np.testing.assert_allclose(
            (noisy - clean) / np.abs(clean), np.sqrt(0.02) * z, rtol=0, atol=1e-12
        )



class TestTrajectory:
    def test_flat_arrays_refused_by_name(self, example_model):
        # a (T,) array could be one channel of T steps or one step of T
        # channels, so it is not read as either
        traj = simulate(example_model, np.arange(6.0)[:, None])
        arrays = {"inputs": traj.inputs, "outputs": traj.outputs}
        for name in arrays:
            with pytest.raises(ValueError, match=rf"^{name} must be 2-dimensional, got shape \(6,\)$"):
                Trajectory(**{**arrays, name: arrays[name][:, 0]})

    @pytest.mark.parametrize("name", ["inputs", "outputs"])
    @pytest.mark.parametrize("shape", [(), (4, 1, 1)])
    def test_other_ranks_are_named(self, name, shape):
        arrays = {"inputs": np.zeros((4, 1)), "outputs": np.zeros((4, 1)), name: np.zeros(shape)}
        with pytest.raises(ValueError, match=rf"^{name} must be 2-dimensional, got shape "):
            Trajectory(**arrays)

    @pytest.mark.parametrize(
        "name, rows, message", [("outputs", 5, "outputs has 5 rows, expected 4")], ids=["outputs"]
    )
    def test_lengths_checked_against_the_inputs(self, name, rows, message):
        arrays = {"inputs": np.zeros((4, 1)), "outputs": np.zeros((4, 1)), name: np.zeros((rows, 1))}
        with pytest.raises(ValueError, match=f"^{message}$"):
            Trajectory(**arrays)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["inputs", "outputs"])
    def test_non_finite_trajectory_rejected(self, bad, name):
        fields = {"inputs": np.ones((5, 1)), "outputs": np.ones((5, 1))}
        fields[name][1, 0] = bad
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries: {name}\[1, 0\] is {bad}$"):
            Trajectory(**fields)


def _generator_blocks(model, L):
    """The observability block O_L and the Toeplitz block T_L of the
    trajectory generation matrix [[0, I_mL], [O_L, T_L]]."""
    outputs = trajectory_generation_matrix(model, L)[model.m * L :]
    return outputs[:, : model.n], outputs[:, model.n :]


class TestStructuredMatrices:
    def test_observability_single_block_is_C(self, example_model):
        np.testing.assert_array_equal(_generator_blocks(example_model, 1)[0], example_model.C)

    def test_observability_two_blocks(self, example_model):
        # C A = [0.9, 1.1] by direct multiply
        expected = np.vstack([example_model.C, example_model.C @ example_model.A])
        got = _generator_blocks(example_model, 2)[0]
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(got, [[1.0, 1.0], [0.9, 1.1]], atol=1e-12)

    def test_observability_zero_C(self):
        model = StateSpaceModel(A=np.eye(3), B=np.ones((3, 1)), C=np.zeros((2, 3)), D=np.zeros((2, 1)))
        observe = _generator_blocks(model, 4)[0]
        assert np.all(observe == 0.0)
        assert observe.shape == (8, 3)

    def test_toeplitz_single_block_is_D(self, example_model):
        np.testing.assert_array_equal(_generator_blocks(example_model, 1)[1], example_model.D)

    def test_toeplitz_two_blocks(self, example_model):
        # C B = 1 by direct multiply; D = 0
        got = _generator_blocks(example_model, 2)[1]
        np.testing.assert_allclose(got, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_toeplitz_strictly_upper_blocks_zero(self, rng):
        model = random_model(rng)
        for k in (1, 2, 5):
            T = _generator_blocks(model, k)[1]
            for i in range(k):
                for j in range(i + 1, k):
                    block = T[i * model.p : (i + 1) * model.p, j * model.m : (j + 1) * model.m]
                    assert np.all(block == 0.0)

    def test_blocks_formed_as_products_bit_for_bit(self, rng):
        # row block i of O_L is (C A) A ... A, and the Markov parameter of lag
        # k >= 1 is C (A^(k-1) B), multiplied in these orders: (C A^(k-1)) B
        # moves entries in the last digits
        for model in [default_model()] + [random_model(rng, n=4, m=2, p=3) for _ in range(5)]:
            L, n, m, p = 6, model.n, model.m, model.p
            observe, toeplitz = _generator_blocks(model, L)
            row, reach, markov = model.C, model.B, [model.D]
            for i in range(L):
                np.testing.assert_array_equal(observe[i * p : (i + 1) * p], row)
                row = row @ model.A
                markov.append(model.C @ reach)
                reach = model.A @ reach
            for i in range(L):
                for j in range(i + 1):
                    block = toeplitz[i * p : (i + 1) * p, j * m : (j + 1) * m]
                    np.testing.assert_array_equal(block, markov[i - j])

    def test_generator_structure_for_zero_C_D(self):
        model = StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.zeros((1, 2)), D=[[0.0]])
        L = 3
        phi = trajectory_generation_matrix(model, L)
        assert phi.shape == ((1 + 1) * L, 2 + L)
        np.testing.assert_array_equal(phi[:L, 2:], np.eye(L))
        assert np.all(phi[L:, :] == 0.0)
        assert np.linalg.matrix_rank(phi) == L

    def test_generator_reproduces_trajectories(self, rng, example_model):
        # both sides of the state-space/behavior identity on simulated data,
        # with the states of the per-step reference loop
        L, T = 8, 30
        u = rng.standard_normal((T, 1))
        x0 = rng.standard_normal(2)
        traj = simulate(example_model, u, x0=x0)
        states, _ = simulate_reference(example_model, u, x0=x0)
        phi = trajectory_generation_matrix(example_model, L)
        lhs = np.vstack([hankel(traj.inputs, L), hankel(traj.outputs, L)])
        rhs = phi @ np.vstack([hankel(states[: T - L + 1], 1), hankel(traj.inputs, L)])
        residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        assert residual <= 1e-10

    def test_generator_reproduces_trajectories_random_models(self, rng):
        for _ in range(10):
            model = random_model(rng)
            L = model.n + int(rng.integers(1, 4))
            T = L + 15
            u = rng.standard_normal((T, model.m))
            x0 = rng.standard_normal(model.n)
            traj = simulate(model, u, x0=x0)
            states, _ = simulate_reference(model, u, x0=x0)
            phi = trajectory_generation_matrix(model, L)
            lhs = np.vstack([hankel(traj.inputs, L), hankel(traj.outputs, L)])
            rhs = phi @ np.vstack([hankel(states[: T - L + 1], 1), hankel(traj.inputs, L)])
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))

    def test_generator_full_column_rank_when_observable(self, rng):
        for _ in range(10):
            model = random_model(rng)
            L = model.n + 2
            phi = trajectory_generation_matrix(model, L)
            assert np.linalg.matrix_rank(phi) == model.n + model.m * L


class TestSingularValueConstants:
    def test_unobservable_pair_gives_zero(self):
        model = unobservable_model()
        assert observability_degree(model, 4) == 0.0

    def test_example_model_positive(self, example_model):
        # the pair (A, C) is observable: rank of the two-block stack is n
        assert np.linalg.matrix_rank(_generator_blocks(example_model, 2)[0]) == 2
        assert observability_degree(example_model, 2) > 0.0
        assert observability_degree(example_model, 4) > 0.0

    def test_positive_iff_observable(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert observability_degree(model, model.n) > 0.0
        assert observability_degree(unobservable_model(3), 3) == 0.0

    def test_orthogonal_invariance(self, rng, example_model):
        Tini = 3
        phi = trajectory_generation_matrix(example_model, Tini)
        Q = random_orthogonal(rng, phi.shape[1])
        direct = observability_degree(example_model, Tini)
        rotated = np.linalg.svd(phi @ Q, compute_uv=False)[-1]
        assert abs(direct - rotated) <= 1e-10

    def test_matches_direct_svd(self, example_model):
        for L in (2, 5, 8):
            phi = trajectory_generation_matrix(example_model, L)
            svals = np.linalg.svd(phi, compute_uv=False)
            assert abs(gain_bound(example_model, L) - svals[0]) <= 1e-10
            assert abs(observability_degree(example_model, L) - svals[-1]) <= 1e-10

    def test_gain_is_one_for_zero_C_D(self):
        model = StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.zeros((1, 2)), D=[[0.0]])
        assert abs(gain_bound(model, 4) - 1.0) <= 1e-12

    def test_gain_at_least_one(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert gain_bound(model, int(rng.integers(1, 6))) >= 1.0

    def test_gain_matches_power_iteration(self, example_model):
        phi = trajectory_generation_matrix(example_model, 8)
        G = phi.T @ phi
        v = np.full(G.shape[0], 1.0 / np.sqrt(G.shape[0]))
        for _ in range(10000):
            w = G @ v
            v = w / np.linalg.norm(w)
        oracle = np.sqrt(v @ G @ v)
        assert abs(gain_bound(example_model, 8) - oracle) <= 1e-8


class TestStateSpaceModel:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_non_finite_entry_rejected(self, name, bad):
        matrices = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
        matrices[name] = [[bad]]
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries: {name}\[0, 0\] is {bad}$"):
            StateSpaceModel(**matrices)

    # each case changes the example model's matrices (n = 2, m = p = 1); the
    # last three are a scalar or flat matrix, which is not promoted
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"A": [[0.8, 0.2]]}, r"A must be square, got shape \(1, 2\)"),
            ({"A": np.zeros((0, 0))}, "A has 0 rows, expected at least 1"),
            ({"B": [[0.3], [0.7], [0.1]]}, "B has 3 rows, expected 2"),
            ({"C": [[1.0, 1.0, 1.0]]}, "C has 3 columns, expected 2"),
            ({"D": [[0.0], [0.0]]}, "D has 2 rows, expected 1"),
            ({"D": [[0.0, 0.0]]}, "D has 2 columns, expected 1"),
            (
                {"B": np.zeros((2, 0)), "D": np.zeros((1, 0))},
                "B has 0 columns, expected at least 1",
            ),
            ({"C": np.zeros((0, 2)), "D": np.zeros((0, 1))}, "C has 0 rows, expected at least 1"),
            ({"D": np.zeros((0, 0))}, "D has 0 rows, expected 1"),
            ({"D": 0.5}, r"D must be 2-dimensional, got shape \(\)"),
            ({"B": [0.3, 0.7]}, r"B must be 2-dimensional, got shape \(2,\)"),
            ({"C": [1.0, 1.0, 1.0, 1.0]}, r"C must be 2-dimensional, got shape \(4,\)"),
        ],
        ids=["A-wide", "A-empty", "B-rows", "C-cols", "D-rows", "D-cols", "m-zero", "p-zero",
             "D-empty", "D-scalar", "B-flat", "C-flat"],
    )
    def test_shapes_checked_by_name(self, changes, message):
        matrices = {"A": [[0.8, 0.2], [0.1, 0.9]], "B": [[0.3], [0.7]], "C": [[1.0, 1.0]], "D": [[0.0]]}
        with pytest.raises(ValueError, match=f"^{message}$"):
            StateSpaceModel(**{**matrices, **changes})


class TestModelFiles:
    def test_round_trip(self, rng):
        # the one model writer, bench/workloads.py's, read back bit for bit:
        # the default model, random MIMO models, and entries whose repr is
        # special (an exponent, the least subnormal, a negative zero)
        special = StateSpaceModel(
            A=[[1e16, -0.0], [5e-324, 0.5]], B=[[-0.0], [1e-16]], C=[[5e-324, -1e16]], D=[[-0.0]]
        )
        mimo = [random_model(rng, n=n, m=m, p=p) for n, m, p in ((3, 2, 2), (4, 3, 2), (6, 2, 4))]
        for model in (default_model(), special, *mimo):
            parsed = parse_model(format_model(model))
            for key in "ABCD":
                written, read = getattr(model, key), getattr(parsed, key)
                assert read.shape == written.shape and read.tobytes() == written.tobytes(), key

    def test_parse_with_comments_and_blanks(self):
        text = """
        # example system
        n = 2
        m = 1
        p = 1

        A = 0.8 0.2 ; 0.1 0.9
        B = 0.3 ; 0.7
        C = 1 1
        D = 0
        """
        model = parse_model(text)
        assert (model.n, model.m, model.p) == (2, 1, 1)
        np.testing.assert_allclose(model.A, [[0.8, 0.2], [0.1, 0.9]])

    def test_ragged_rows_rejected(self):
        text = "n = 2\nm = 1\np = 1\nA = 1 0 ; 0 1 1\nB = 1 ; 1\nC = 1 1\nD = 0\n"
        with pytest.raises(ValueError, match="ragged"):
            parse_model(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            parse_model("n = 1\nm = 1\np = 1\nA = 1\nB = 1\nC = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys: E$"):
            parse_model("n = 1\nm = 1\np = 1\nA = 1\nB = 1\nC = 1\nD = 0\nE = 1\n")

    @pytest.mark.parametrize("key", ["n", "m", "p"])
    def test_dimension_below_one_rejected(self, key):
        dims = {"n": 1, "m": 1, "p": 1, key: 0}
        text = "".join(f"{k} = {v}\n" for k, v in dims.items()) + "A = 1\nB = 1\nC = 1\nD = 0\n"
        with pytest.raises(ValueError, match=f"^<string>: {key} must be positive, got 0$"):
            parse_model(text)

    def test_dimension_mismatch_rejected(self):
        # StateSpaceModel states the shape rule, named with the source
        text = "n = 2\nm = 1\np = 1\nA = 1 0 ; 0 1\nB = 1 ; 1\nC = 1\nD = 0\n"
        with pytest.raises(ValueError, match=r"^<string>: C has 1 columns, expected 2$"):
            parse_model(text)

    @pytest.mark.parametrize("key", ["n", "m", "p"])
    def test_declared_dimension_checked_against_the_matrices(self, key):
        # the default model's matrices, which agree with each other, give
        # (n, m, p) = (2, 1, 1); one declared count is 3
        text = format_model(default_model()).replace(f"{key} = {getattr(default_model(), key)}", f"{key} = 3")
        declared = tuple(3 if k == key else getattr(default_model(), k) for k in "nmp")
        message = rf"^<string>: the matrices give \(n, m, p\) = \(2, 1, 1\), declared {re.escape(str(declared))}$"
        with pytest.raises(ValueError, match=message):
            parse_model(text)


class TestPersistentlyExcitingInput:
    def test_generated_input_is_exciting(self):
        u = persistently_exciting_input(1, 30, order=10, seed=0)
        assert u.shape == (30, 1)

    def test_deterministic(self):
        a = persistently_exciting_input(2, 40, order=6, seed=5)
        b = persistently_exciting_input(2, 40, order=6, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_retries_with_offset_seeds(self, monkeypatch):
        verdicts = iter([False, False, True])
        monkeypatch.setattr(hankel_module, "is_persistently_exciting", lambda u, order: next(verdicts))
        u = persistently_exciting_input(2, 40, order=6, seed=5)
        np.testing.assert_array_equal(u, np.random.default_rng(7).standard_normal((40, 2)))

    def test_gives_up_after_ten_attempts(self, monkeypatch):
        from subpred.errors import ConvergenceError

        # T = 7 is long enough for order 4, so only unlucky draws fail: fake ten
        seen = []

        def never(u, order):
            seen.append(u)
            return False

        monkeypatch.setattr(hankel_module, "is_persistently_exciting", never)
        with pytest.raises(ConvergenceError, match=r"order 4 \(m=1, T=7\) after 10 attempts"):
            persistently_exciting_input(1, 7, order=4, seed=0)
        assert len(seen) == 10

    @pytest.mark.parametrize("m, order", [(1, 10), (2, 6), (3, 4)], ids=["siso", "mimo-2", "mimo-3"])
    def test_shortest_length(self, svd_calls, m, order):
        # order * m Hankel rows need as many columns, T - order + 1
        shortest = (m + 1) * order - 1
        u = persistently_exciting_input(m, shortest, order=order, seed=0)
        # the square Hankel matrix's full rank is proven by one Cholesky of
        # its shifted Gram matrix, with no SVD
        assert u.shape == (shortest, m)
        assert svd_calls == [] and svd_calls.cholesky == [(m * order, m * order)]
        svd_calls.clear()
        with pytest.raises(ValueError, match=rf"T={shortest - 1} is too short.* = {shortest}$"):
            persistently_exciting_input(m, shortest - 1, order=order, seed=0)
        assert svd_calls == [] and svd_calls.cholesky == []  # rejected before any draw
