import pytest

from nkerr.validate import make_config


@pytest.fixture
def reference_config():
    """Weak-probe benchmark: g_a = g_c = 0.01, resonant pump block detuned."""
    return make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)


@pytest.fixture
def lossy_config():
    return make_config(0.012, 1.1, 0.009, 2, 1, 1, 0.45, -0.2, 0.4,
                       gamma=(0.12, 0.2, 0.07))
