"""Map the effective photon-number response: linear, self-Kerr, cross-Kerr.

Away from Raman resonance the relaxed atom shifts the "a" probe linearly and
quadratically in n_a as well as through the n_a*n_c cross term.  Exactly on
resonance (delta_2 = 0) a dark state forms, the linear and self-Kerr pieces
vanish, and only the cross-Kerr interaction survives.
"""

import numpy as np

from nkerr import coefficients, pure_cross_kerr
from nkerr.model import FieldMode, SystemConfig


def config_with(delta_b):
    return SystemConfig(
        mode_a=FieldMode("a", g=0.01, delta=0.3, n=1),
        mode_b=FieldMode("b", g=1.0, delta=delta_b, n=0),
        mode_c=FieldMode("c", g=0.01, delta=0.5, n=1),
    )


print("== L, S, K as the pump detuning scans through Raman resonance ==")
print(f"{'delta_2':>10} {'L':>13} {'S':>13} {'K':>13}")
for delta_b in np.linspace(-0.1, 0.7, 9):
    cfg = config_with(float(delta_b))
    d = cfg.detunings()
    co = coefficients(cfg)
    print(f"{d.delta2:>10.3f} {co.linear:>13.3e} {co.self_kerr:>13.3e} {co.cross_kerr:>13.3e}")

print("\n== the dark point ==")
resonant = config_with(0.3)  # delta_2 = 0 exactly
co = coefficients(resonant)
print(f"  L = {co.linear}, S = {co.self_kerr}  (exact zeros)")
print(f"  K from the general form: {co.cross_kerr:.6e}")
print(f"  K from the pure form:    {pure_cross_kerr(resonant):.6e}")

print("\n== how to make K large ==")
print("  K ~ -|g_a g_c|^2 / (delta_3 |g_b|^2 (n_b+1)) on resonance, so a small")
print("  three-photon detuning delta_3 buys interaction strength; 'nkerr sweep'")
print("  over delta_3 shows what that costs in absorption, and 'nkerr validate'")
print("  criterion 9 checks its shape.")
