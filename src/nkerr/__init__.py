"""Cross-Kerr response of a four-level atom in the N-configuration.

A numpy library (plus a small CLI) that builds the single-manifold matrix of
the driven atom, expands its ground eigenvalue as a double power series in
the two probe strengths, evaluates the closed-form linear / self-Kerr /
cross-Kerr coefficients and complex susceptibilities, and cross-checks every
closed form against exact diagonalization.
"""

from .effective import KerrCoefficients, coefficients, effective_phase, pure_cross_kerr
from .errors import (ConvergenceError, DegeneracyError, NKerrError, NotHermitianError,
                     NotResonantError, PoleError, ScenarioError, TrackingError)
from .model import (FieldMode, ManifoldIndex, MultiPhotonDetunings,
                    PerturbationSplit, SystemConfig, build_hamiltonian,
                    manifold_members, multi_photon_detunings,
                    perturbation_strengths, rabi_frequency, split)
from .oracle import (EigenSolution, exact_eigensystem, ground_eigenvalue_function,
                     ground_series, propagate, track_ground)
from .perturb import (DressedBasis, SeriesTable, build_series, dressed_basis,
                      evaluate_energy)
from .suscept import (Coherences, SusceptibilityPoint, Sweep, SweepRow, chi1, chi3_cross,
                      chi3_self, coherence_coefficients, coherences,
                      susceptibility_point, sweep, sweep_at, sweep_grid)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DegeneracyError", "NKerrError", "NotHermitianError",
    "NotResonantError", "PoleError", "ScenarioError", "TrackingError",
    "FieldMode", "ManifoldIndex", "MultiPhotonDetunings", "PerturbationSplit",
    "SystemConfig", "build_hamiltonian", "manifold_members",
    "multi_photon_detunings", "perturbation_strengths", "rabi_frequency", "split",
    "DressedBasis", "SeriesTable", "build_series", "dressed_basis", "evaluate_energy",
    "KerrCoefficients", "coefficients", "effective_phase", "pure_cross_kerr",
    "EigenSolution", "exact_eigensystem", "ground_eigenvalue_function", "ground_series",
    "propagate", "track_ground",
    "Coherences", "SusceptibilityPoint", "Sweep", "SweepRow", "chi1", "chi3_cross",
    "chi3_self", "coherence_coefficients", "coherences", "susceptibility_point", "sweep",
    "sweep_at", "sweep_grid", "__version__",
]
