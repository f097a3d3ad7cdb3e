"""Per-entry Rayleigh-Schrodinger recursion, the reference of the pruned engine.

``perturb.build_series`` fills each total order with one gather-multiply-
reduce over the products the N-configuration's selection rules allow.  This
module keeps a recursion that prunes nothing: it fills one entry (p, q) at a
time with dense Cauchy products over every lower entry, so the tests can pin
the engine, and the entries it never writes, against a route with another
term set and summation layout.  It allocates its own arrays and returns
them in a ``SeriesTable``.  Its ``cauchy_term`` is also the per-entry
reference for ``oracle.series_product``, the Kronecker-substitution
product that ``oracle.ground_series`` uses.
"""

from __future__ import annotations

import numpy as np

from nkerr.model import PerturbationSplit
from nkerr.perturb import SeriesTable, dressed_basis

from conftest import dressed_matrices, matrices


def cauchy_term(x: np.ndarray, y: np.ndarray, p: int, q: int) -> complex:
    """Order-(p, q) term of the product of two double series.

    ``x[i, j, :]`` and ``y[i, j, :]`` are the order-(i, j) coefficients of the
    factors; the term is the sum over i <= p, j <= q of x[i, j] . y[p - i, q - j],
    contracted over the last axis.
    """
    return np.einsum("ijm,ijm->", x[:p + 1, :q + 1], y[p::-1, q::-1])


def build_series(split: PerturbationSplit, max_order: int) -> SeriesTable:
    """Fill the ground-state table with every order p + q <= max_order."""
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    basis = dressed_basis(split)
    _, v_a, v_c = matrices(split)
    e = np.zeros((2, max_order + 1, max_order + 1), dtype=complex)  # E[:, 0, 0] = 0
    a = np.zeros((2, max_order + 1, max_order + 1, 4), dtype=complex)
    a[:, 0, 0, 0] = 1.0
    right, left = dressed_matrices(basis)
    vta = left @ v_a @ right
    vtc = left @ v_c @ right
    va = np.stack([vta, vta.T])  # the companion series sees the transposed couplings
    vc = np.stack([vtc, vtc.T])
    gap = -np.array(basis.eigenvalues)
    gap[0] = 1.0  # the diagonal entry comes from the norm expansion instead
    for d in range(1, max_order + 1):
        for p in range(d + 1):
            q = d - p
            # Entries of total order d are still zero, so the full rectangle
            # sums exactly the products of lower orders.
            rhs = -np.einsum("sij,sijm->sm", e[:, :p + 1, :q + 1], a[:, p::-1, q::-1])
            if p:
                rhs += np.einsum("smj,sj->sm", va, a[:, p - 1, q])
            if q:
                rhs += np.einsum("smj,sj->sm", vc, a[:, p, q - 1])
            overlap = cauchy_term(a[1], a[0], p, q)
            e[:, p, q] = rhs[:, 0]
            a[:, p, q] = rhs / gap
            # Norm expansion fixes the real part; the residual phase freedom is
            # resolved by giving both series the same diagonal entry.
            a[:, p, q, 0] = -0.5 * overlap
    return SeriesTable(basis, max_order, e, a)
