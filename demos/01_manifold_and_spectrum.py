"""Walk through the model layer: the manifold's four states, the 4x4 matrix, spectra.

A single atom in the N-configuration exchanges photons with three modes, so
starting from |1, n_a, n_b, n_c> the dynamics closes on just four product
states.  This script builds that manifold, assembles the matrix in natural
units, and compares its exact spectrum with the dressed decomposition used
by the perturbation engine.
"""

import numpy as np

from nkerr import dressed_basis, exact_eigensystem, split
from nkerr.model import FieldMode, SystemConfig

np.set_printoptions(precision=6, suppress=True, linewidth=100)

config = SystemConfig(
    mode_a=FieldMode("a", g=0.01, delta=0.3, n=1),
    mode_b=FieldMode("b", g=1.0, delta=0.1, n=0),
    mode_c=FieldMode("c", g=0.01, delta=0.5, n=1),
)

print("== resonant manifold ==")
# |1, n_a, n_b, n_c> absorbs an 'a' photon, emits a 'b' photon, absorbs a 'c' photon
na, nb, nc = config.mode_a.n, config.mode_b.n, config.mode_c.n
for state in [(1, na, nb, nc), (2, na - 1, nb, nc), (3, na - 1, nb + 1, nc),
              (4, na - 1, nb + 1, nc - 1)]:
    print("  |%d, %d, %d, %d>" % state)

print("\n== multi-photon detunings ==")
d = config.detunings()
print(f"  delta_1 = {d.delta1}, delta_2 = {d.delta2}, delta_3 = {d.delta3}")

sp = split(config)
h = sp.reconstruct()
print("\n== manifold matrix (hbar = 1) ==")
print(h.real)
print(f"  hermitian: {np.allclose(h, h.conj().T)}")

print("\n== exact spectrum vs dressed decomposition ==")
sol = exact_eigensystem(h)
print(f"  exact eigenvalues:   {np.sort(sol.eigenvalues.real)}")
basis = dressed_basis(sp)
print(f"  unperturbed dressed: {np.sort(basis.eigenvalues.real)}")
print(f"  probe strengths:     eps_a = {sp.eps_a}, eps_c = {sp.eps_c}")
print("  the probes only nudge the dressed levels; that gap is what the")
print("  perturbation series expands in.")
