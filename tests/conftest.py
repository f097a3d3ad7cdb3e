import contextlib
import types
import warnings

import numpy as np
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


def numpy_draws(rng):
    """A numpy ``Generator`` as the ``random.Random`` that ``validate._random_config`` reads."""
    return types.SimpleNamespace(uniform=rng.uniform, randrange=rng.integers)


@pytest.fixture
def reference_config():
    """Weak-probe benchmark: g_a = g_c = 0.01, resonant pump block detuned."""
    return make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)


@pytest.fixture
def lossy_config():
    return make_config(0.012, 1.1, 0.009, 2, 1, 1, 0.45, -0.2, 0.4,
                       gamma=(0.12, 0.2, 0.07))


def extreme(rng):
    """0, +-10**k for k uniform in [-300, 200], or U(-2, 2), a third of the time each."""
    kind = rng.integers(3)
    if kind == 0:
        return 0.0
    if kind == 1:
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 200))
    return float(rng.uniform(-2, 2))


def extreme_doc(rng, k):
    """A scenario of ``extreme`` values; lossy for odd k, Raman-resonant, where
    the pure form is reported, for k divisible by 4."""
    doc = {"modes": {label: {"g_re": extreme(rng), "g_im": extreme(rng) * (k % 3 == 0),
                             "delta": extreme(rng), "n": int(rng.choice([0, 1, 2, 5]))}
                     for label in "abc"},
           "gamma": {key: extreme(rng) * (k % 2) for key in ("g1", "g2", "g3")}}
    if k % 4 == 0:
        doc["modes"]["b"]["delta"] = doc["modes"]["a"]["delta"]
    return doc


def fuzz_scenarios():
    """The 320 seeded (document, sweep axis, lo, hi) of the exit-code fuzz."""
    rng = np.random.default_rng(13)
    for k in range(320):
        doc = extreme_doc(rng, k)
        yield doc, ("da", "db", "dc")[k % 3], extreme(rng), extreme(rng)
