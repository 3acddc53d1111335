"""Arbitrary text in every input file: `behave` exits with one of its
documented codes (0, 2, 3, 4) and no exception escapes `cli.main`.

Each file starts from a valid one, and up to three of its lines are
replaced, dropped or added; a fully arbitrary text is drawn too.  Free text
holds no decimal digits, so every number an example feeds the program comes
from the small-integer (at most 64) or float strategies, and no example runs
a larger sweep than the default configuration.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subpred import StateSpaceModel, format_model, save_basis, simulate
from subpred.cli import main
from subpred.experiment import default_model
from subpred.grassmann import orthonormal_basis
from subpred.hankel import persistently_exciting_input, stacked_data_matrix

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_CHARS = st.characters(blacklist_categories=("Nd", "Cs"))  # no decimal digits
_TEXT = st.text(_CHARS, max_size=16)
_NUMBERS = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "0x10", "1_0", ""]),
)
_LISTS = st.tuples(
    st.lists(_NUMBERS, max_size=8), st.sampled_from([" ", ",", " ; ", ";"])
).map(lambda parts: parts[1].join(parts[0]))
_VALUES = st.one_of(_NUMBERS, _LISTS, _TEXT)

_MODEL_KEYS = ("n", "m", "p", "A", "B", "C", "D")
_CONFIG_KEYS = ("Tini", "Tf", "T", "T_sim", "N", "sigma", "kappa_max", "kappa_grid",
                "seed_data", "seed_noise", "seed_perturb")
_CONTEXT_KEYS = ("m", "p", "Tini", "Tf", "u_ini", "u", "y_ini")


def _lines(keys):
    """A fuzzed line: a known or arbitrary key with any value, or free text."""
    key = st.one_of(st.sampled_from(keys), _TEXT)
    pair = st.tuples(key, _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}")
    return st.one_of(pair, _TEXT)


def _file(valid_text, line):
    """The valid file with up to three lines replaced, dropped or added, or
    an arbitrary text."""
    lines = valid_text.splitlines()
    edits = st.lists(
        st.tuples(st.integers(0, len(lines)), st.sampled_from("rda"), line), max_size=3
    )

    def apply(edits):
        out = list(lines)
        for i, op, new in edits:
            i = min(i, len(out))
            if op == "a":
                out.insert(i, new)
            elif i < len(out) and op == "r":
                out[i] = new
            elif i < len(out):
                del out[i]
        return "\n".join(out) + "\n"

    return st.one_of(edits.map(apply), st.text(_CHARS, max_size=200))


def _small_model_text():
    """A model file of the right shapes, n, m, p <= 3, with any float entries."""

    def text(dims, entries):
        n, m, p = dims
        shapes = ((n, n), (n, m), (p, n), (p, m))
        A, B, C, D = (np.resize(entries, shape) for shape in shapes)
        return format_model(StateSpaceModel(A=A, B=B, C=C, D=D))

    dims = st.tuples(*(st.integers(1, 3),) * 3)
    return st.builds(text, dims, st.lists(st.floats(), min_size=1, max_size=9))


_VALID_MODEL = format_model(default_model())
_VALID_CONFIG = "Tini = 2\nTf = 2\nT = 30\nT_sim = 14\nN = 4\nsigma = 0.02\nkappa_max = 0.3\n"
# Fixed trailer: output never leaves the example's directory, and a fuzzed
# duplicate of either key is rejected as a duplicate.
_CONFIG_TRAILER = "model = model.txt\noutput_dir = out\n"
_VALID_CONTEXT = "m = 1\np = 1\nTini = 4\nTf = 4\nu_ini = 1 0 0 0\nu = 0 0 0 0\ny_ini = 0 0 0 0\n"


@pytest.fixture(scope="module")
def valid_basis(tmp_path_factory):
    """The default model's behavior basis at Tini = Tf = 4, as a file."""
    model = default_model()
    u = persistently_exciting_input(1, 30, order=model.n + 8, seed=0)
    traj = simulate(model, u)
    basis = orthonormal_basis(stacked_data_matrix(traj.inputs, traj.outputs, 4, 4), model.n + 8)
    path = tmp_path_factory.mktemp("valid") / "basis.csv"
    save_basis(path, basis)
    return path


_BASIS_LINES = st.one_of(
    _LISTS,
    _TEXT,
    st.tuples(*(st.integers(0, 64),) * 5).map(
        lambda d: "# m={} p={} Tini={} Tf={} r={}".format(*d)
    ),
)


# Fuzzed models may be unstable or hold huge entries; a simulation that
# diverges is rejected with exit code 2, and huge finite data may still
# overflow in the steps after it.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestFuzzedFiles:
    @FUZZ
    @given(
        config=_file(_VALID_CONFIG, _lines(_CONFIG_KEYS)),
        model=st.one_of(_file(_VALID_MODEL, _lines(_MODEL_KEYS)), _small_model_text()),
        command=st.sampled_from(["experiment", "single"]),
        n=st.integers(0, 5),
    )
    def test_experiment_and_single(self, tmp_path_factory, config, model, command, n):
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "model.txt").write_text(model, encoding="utf-8")
        cfg = directory / "config.txt"
        cfg.write_text(config + _CONFIG_TRAILER, encoding="utf-8")
        argv = ["experiment", "--config", str(cfg)]
        if command == "single":
            argv = ["single", "--config", str(cfg), "--n", str(n)]
        assert main(argv) in EXIT_CODES

    @FUZZ
    @given(data=st.data(), fuzzed=st.sampled_from(["basis", "context"]))
    def test_predict_and_distance(self, tmp_path_factory, valid_basis, data, fuzzed):
        directory = tmp_path_factory.mktemp("fuzz")
        texts = {"basis": valid_basis.read_text(), "context": _VALID_CONTEXT}
        lines = {"basis": _BASIS_LINES, "context": _lines(_CONTEXT_KEYS)}
        texts[fuzzed] = data.draw(_file(texts[fuzzed], lines[fuzzed]))
        basis, context = directory / "basis.csv", directory / "context.txt"
        basis.write_text(texts["basis"], encoding="utf-8")
        context.write_text(texts["context"], encoding="utf-8")
        assert main(["predict", "--basis", str(basis), "--context", str(context)]) in EXIT_CODES
        assert main(["distance", str(basis), str(valid_basis)]) in EXIT_CODES
