"""Cross-Kerr response of a four-level atom in the N-configuration.

A library (plus a small CLI) that builds the single-manifold matrix of
the driven atom, expands its ground eigenvalue as a double power series in
the two probe strengths, evaluates the closed-form linear / self-Kerr /
cross-Kerr coefficients and complex susceptibilities, and cross-checks every
closed form against exact diagonalization.

Importing the package loads none of its modules: a name of ``__all__`` (or
a module's name) imports its module on first use (PEP 562), so
``import nkerr.cli`` loads only the modules the CLI itself needs, and no
numpy: the Kerr coefficients are computed in Python floats.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports; each name of __all__ is written here only
_EXPORTS = {
    "errors": ("ConvergenceError", "DegeneracyError", "NKerrError", "NotHermitianError",
               "NotResonantError", "PoleError", "ScenarioError", "TrackingError"),
    "model": ("FieldMode", "MultiPhotonDetunings", "PerturbationSplit", "SystemConfig",
              "multi_photon_detunings", "rabi_frequency", "split"),
    "perturb": ("DressedBasis", "SeriesTable", "build_series", "dressed_basis",
                "evaluate_energy"),
    "effective": ("KerrCoefficients", "coefficients", "pure_cross_kerr"),
    "oracle": ("EigenSolution", "exact_eigensystem", "ground_eigenvalue_function",
               "ground_series", "propagate"),
    "suscept": ("Coherences", "SusceptibilityPoint", "Sweep", "chis_from_energy", "coherences",
                "susceptibility_point", "sweep_at", "sweep_grid"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # the import binds the module here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
