"""Arbitrary text in every input file: `behave` exits with one of its
documented codes (0, 2, 3, 4) and no exception escapes `cli.main`.

Each file starts from a valid one, and up to three of its lines are
replaced, dropped or added; a fully arbitrary text is drawn too.  Free text
holds no decimal digits, so every number an example feeds the program comes
from the small-integer (at most 64) or float strategies, and no example runs
a larger sweep than the default configuration.

A property test also draws random dimensions, ranks, seeds and distances
for `Geodesic.member`, the closed form that every perturbed subspace comes
from; another evaluates the same members from their blends and their
geodesic's squares, the way the experiment sweep does, against the member
bases; and another draws
member blocks for `write_trials_csv`, whose bytes must be those of the csv
module.
"""

from types import SimpleNamespace

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    MAP_RTOL,
    format_model,
    principal_angles,
    random_basis,
    trial_rows,
    write_csv_reference,
)
from subpred import chordal_distance, save_basis, simulate
from subpred._linalg import EPS, IDENTITY_ERROR_TOL, member_predictions, prediction_map, spectral_norm
from subpred.cli import main
from subpred.errors import ConvergenceError
from subpred.experiment import (
    TrialBlock,
    _member,
    default_model,
    write_trials_csv,
)
from subpred.grassmann import ORTHONORMALITY_TOL, BehaviorBasis, Geodesic, orthonormal_basis
from subpred.hankel import persistently_exciting_input, stacked_data_matrix
from subpred.predictor import _basis_map

EXIT_CODES = {0, 2, 3, 4}


def _examples(count: int) -> int:
    """``count`` examples under hypothesis's default profile, and the loaded
    profile's own count under another, such as conftest.py's ``deep``."""
    if settings.get_current_profile_name() == "default":
        return count
    return settings.default.max_examples


FUZZ = settings(
    max_examples=_examples(25), deadline=None, suppress_health_check=[HealthCheck.too_slow]
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
    """A model file of the right shapes, n, m, p <= 3, with any float entries.
    NaN and +-inf entries must reach the file parser, and `StateSpaceModel`
    rejects them, so the matrices go to `format_model` without one."""

    def text(dims, entries):
        n, m, p = dims
        shapes = ((n, n), (n, m), (p, n), (p, m))
        A, B, C, D = (np.resize(entries, shape) for shape in shapes)
        return format_model(SimpleNamespace(A=A, B=B, C=C, D=D))

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


_SIZES = st.integers(1, 3)


class TestGeodesicMember:
    @pytest.mark.parametrize("complement", ["large", "small"])  # q - r >= r, or q - r < r
    @settings(max_examples=_examples(60), deadline=None)
    @given(dims=st.tuples(_SIZES, _SIZES, _SIZES, _SIZES), data=st.data())
    def test_member_is_the_closed_form(self, complement, dims, data):
        m, p, Tini, Tf = dims
        q = (m + p) * (Tini + Tf)
        r = data.draw(st.integers(1, q // 2) if complement == "large" else st.integers(q // 2 + 1, q))
        k = min(r, q - r)
        largest = math.sqrt(k)
        kappa = data.draw(st.one_of(st.sampled_from([0.0, largest]), st.floats(0.0, largest)))
        basis_seed, seed = (data.draw(st.integers(0, 2**32 - 1)) for _ in range(2))
        U = random_basis(np.random.default_rng(basis_seed), dims, r)
        try:
            geodesic = Geodesic.draw(U, seed)
        except ConvergenceError:
            # one normal stream built U and the draw, so the draw lies in span U
            assert basis_seed == seed
            return

        member, measured = geodesic.member(kappa)
        assert isinstance(member, BehaviorBasis)
        assert abs(measured - chordal_distance(U, member)) <= 1e-12
        assert abs(measured - kappa) <= 1e-12 * max(1.0, kappa)
        angles = principal_angles(U, member).angles
        if k:
            assert np.max(np.abs(angles[-k:] - math.asin(kappa / largest))) <= 1e-12
        assert np.max(angles[: r - k], initial=0.0) <= 1e-12
        if kappa == 0:
            assert member is U
        else:
            np.testing.assert_array_equal(member.matrix[:, k:], geodesic.start[:, k:])


class TestMemberBlocks:
    """A sweep member evaluated from its geodesic's pieces and defect
    (`_member`) against the basis of its `Geodesic.blend`, mapped by
    `predictor._basis_map`, and its distance (`Geodesic.measure`) against
    the member basis that `Geodesic.member` builds: SISO and MIMO, k = r and
    k < r, and distances from 0, the baseline, through 1e-8 to the end of
    the geodesic.  At 0 `Geodesic.member` returns the origin, and the blend
    is ``start``, another basis of it.  The contexts are the identity, so
    the member's predictions are its map's first p rows, transposed.  The
    rank r is at most the number of context rows, which then have full
    column rank."""

    @pytest.mark.parametrize("complement", ["large", "small"])  # k = r, or k < r
    @pytest.mark.parametrize("channels", ["siso", "mimo"])
    @settings(max_examples=_examples(40), deadline=None)
    @given(data=st.data())
    def test_blocks_match_the_member_basis(self, complement, channels, data):
        m, p = (1, 1) if channels == "siso" else data.draw(
            st.tuples(_SIZES, _SIZES).filter(lambda mp: mp != (1, 1)))
        Tini, Tf = data.draw(st.tuples(_SIZES, _SIZES))
        q, future = (m + p) * (Tini + Tf), p * Tf
        if complement == "large":
            r = data.draw(st.integers(1, min(q // 2, q - future)))
        else:
            hypothesis.assume(q // 2 + 1 <= q - future)
            r = data.draw(st.integers(q // 2 + 1, q - future))
        k = min(r, q - r)
        largest = math.sqrt(k)
        kappa = data.draw(st.one_of(
            st.sampled_from([0.0, 1e-8, largest]),
            st.floats(-8.0, math.log10(largest)).map(lambda e: min(10.0**e, largest)),
        ))
        basis_seed, seed = (data.draw(st.integers(0, 2**32 - 1)) for _ in range(2))
        hypothesis.assume(basis_seed != seed)  # one stream would draw inside span U
        U = random_basis(np.random.default_rng(basis_seed), (m, p, Tini, Tf), r)
        geodesic = Geodesic.draw(U, seed)

        member, measured = geodesic.member(kappa)
        blend = BehaviorBasis(geodesic.blend(kappa), m, p, Tini, Tf)
        assert geodesic.defect >= blend.gram_defect
        assert geodesic.defect <= ORTHONORMALITY_TOL
        assert abs(measured - chordal_distance(U, member)) <= 1e-12
        contexts = np.eye(q - future)
        forms = geodesic.forms(contexts)
        predictions, sigma_min, norm_first = _member(geodesic, forms, contexts, kappa)
        rows = predictions.T
        reference_norm = spectral_norm(blend.y_future[:p])
        if member_predictions(forms, geodesic.weights(kappa), p) is None:
            # the guard declined: the blend's rows are mapped by one SVD,
            # with the bits of the SVD map of the first p future rows and
            # of spectral_norm
            reference, _, ref_sigma_min = prediction_map(blend.context_block, blend.y_future[:p])
            np.testing.assert_array_equal(rows, reference)
            assert sigma_min == ref_sigma_min
            assert norm_first == reference_norm
            return
        # the squared norm is an eigenvalue of K[:p, :p], whose entries the
        # pieces give to (r + 7) eps, so its eigenvalues to p (r + 7) eps;
        # spectral_norm's own Gram matrix rounds by as much again
        assert abs(norm_first**2 - reference_norm**2) <= 2 * p * (r + 7) * EPS
        reference, _, ref_sigma_min = _basis_map(
            blend.context_block, blend.y_future, blend.gram_defect
        )
        # the guard keeps the Gram route, on the pieces or on the blend's own
        # K, within IDENTITY_ERROR_TOL of the SVD map; MAP_RTOL is what both
        # show at sigma_min >= 0.03
        rtol = MAP_RTOL if ref_sigma_min >= 0.03 else IDENTITY_ERROR_TOL
        assert np.linalg.norm(rows - reference[:p]) <= rtol * np.linalg.norm(reference[:p])
        assert abs(sigma_min - ref_sigma_min) <= rtol * ref_sigma_min


# Any float, with the values whose repr is special drawn often: NaN, the
# infinities, both zeros, the smallest subnormal and 1e16, the first power of
# ten that repr writes in exponent form.
_CSV_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16]), st.floats()
)


@st.composite
def _trial_blocks(draw):
    """Member blocks whose steps tuples come from a small pool, so that
    blocks share a tuple object, or hold equal-length or empty ones."""
    pool = draw(st.lists(st.lists(st.integers(0, 10**4), max_size=6).map(tuple),
                         min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.sampled_from(pool))
        column = st.lists(_CSV_FLOATS, min_size=len(t), max_size=len(t)).map(
            lambda xs: np.array(xs, dtype=np.float64)
        )
        blocks.append(TrialBlock(
            n=draw(st.integers(1, 10**4)),
            kappa=draw(st.one_of(st.integers(0, 10**4), _CSV_FLOATS)),
            t=t,
            prediction_error=draw(column),
            bound=draw(st.one_of(st.none(), column)),
            sigma_min_Mhat=draw(_CSV_FLOATS),
        ))
    return blocks


class TestTrialsCsvWriter:
    # Both files are rewritten whole by every example, so one tmp_path serves all.
    @settings(max_examples=_examples(50), deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blocks=_trial_blocks())
    def test_bytes_match_the_csv_module(self, tmp_path, blocks):
        write_trials_csv(tmp_path / "trials.csv", blocks)
        write_csv_reference(tmp_path / "reference.csv", TrialBlock._fields, trial_rows(blocks))
        assert (tmp_path / "trials.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
