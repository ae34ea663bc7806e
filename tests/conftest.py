import numpy as np
import pytest

from geoent import OptimizerConfig


@pytest.fixture
def config():
    """Default optimizer configuration (what the acceptance criteria use)."""
    return OptimizerConfig()


@pytest.fixture
def fast_config():
    """Reduced restarts for unit tests that only need a decent optimum."""
    return OptimizerConfig(restarts=16, seed=0)


def max_diff(a, b):
    """The largest absolute difference between two states' amplitudes, which
    must have the same number of qubits."""
    assert a.num_qubits == b.num_qubits
    return np.max(np.abs(a.amplitudes - b.amplitudes))
