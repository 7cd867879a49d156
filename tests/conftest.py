import numpy as np
import pytest

from nctorus import HermiteBasis, rieffel_projection


@pytest.fixture(scope="session")
def p03():
    return rieffel_projection(0.3)


@pytest.fixture(scope="session")
def basis200():
    return HermiteBasis(200)


@pytest.fixture(scope="session")
def basis400():
    return HermiteBasis(400)


@pytest.fixture()
def fft_calls(monkeypatch):
    """The list of forward FFTs run while the test runs, one entry per call."""
    calls = []
    fft = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
