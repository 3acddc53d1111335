import numpy as np
import pytest
from hypothesis import settings

from subpred import ExperimentConfig, default_model

# ``pytest --hypothesis-profile=deep`` runs every property test of
# test_fuzz.py at this many examples instead of its own tier-1 count (see
# test_fuzz._examples); CI runs it at fixed hypothesis seeds.
settings.register_profile("deep", max_examples=1500)


@pytest.fixture
def example_model():
    return default_model()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class FactorizationCalls(list):
    """Shapes of the matrices passed to np.linalg.svd, in call order, with
    those passed to np.linalg.eigh, np.linalg.eigvalsh, np.linalg.solve
    (the first argument's) and np.linalg.cholesky in the lists of the same
    names; clear() empties all five."""

    KINDS = ("eigh", "eigvalsh", "solve", "cholesky")

    def __init__(self):
        super().__init__()
        for kind in self.KINDS:
            setattr(self, kind, [])

    def clear(self):
        super().clear()
        for kind in self.KINDS:
            getattr(self, kind).clear()


@pytest.fixture
def svd_calls(monkeypatch):
    """The factorizations made through np.linalg, as FactorizationCalls."""
    calls = FactorizationCalls()

    def recording(func, shapes):
        def recorded(*args, **kwargs):
            shapes.append(np.shape(args[0]))
            return func(*args, **kwargs)

        return recorded

    for name, shapes in [("svd", calls)] + [(kind, getattr(calls, kind)) for kind in calls.KINDS]:
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name), shapes))
    return calls


@pytest.fixture
def small_config(tmp_path, example_model):
    """Reduced sweep for fast mechanical tests."""
    return ExperimentConfig(
        model=example_model,
        Tini=4,
        Tf=2,
        T=30,
        T_sim=20,
        N=8,
        sigma=0.02,
        kappa_max=0.4,
        output_dir=str(tmp_path / "out"),
    )
