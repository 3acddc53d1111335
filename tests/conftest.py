import numpy as np
import pytest

from subpred import ExperimentConfig, default_model


@pytest.fixture
def example_model():
    return default_model()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd, in call order."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
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
