import contextlib
import warnings

import pytest

from nkerr.validate import make_config

# When a @given test is falsified, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst where it is installed, and
# libcst's import warns DeprecationWarning (mypy_extensions.TypedDict).  Under
# filterwarnings = ["error"] that warning raised inside the plugin and ended
# the session with INTERNALERROR.  Imported here once, with that one warning
# ignored for this import only; every other warning stays an error.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def reference_config():
    """Weak-probe benchmark: g_a = g_c = 0.01, resonant pump block detuned."""
    return make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)


@pytest.fixture
def lossy_config():
    return make_config(0.012, 1.1, 0.009, 2, 1, 1, 0.45, -0.2, 0.4,
                       gamma=(0.12, 0.2, 0.07))
