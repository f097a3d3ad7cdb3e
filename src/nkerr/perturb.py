"""Two-variable Rayleigh-Schrodinger series for the driven four-level manifold.

The unperturbed operator couples bare levels 2 and 3 through the pump mode
and leaves levels 1 and 4 bare; the two probe couplings act as independent
perturbations of strengths eps_a and eps_c.  Eigenvalues and eigenvectors of
the full matrix are expanded as double power series in (eps_a, eps_c), with
state coefficients expressed in the dressed eigenbasis of the unperturbed
operator.  The coefficients of one state are held in dense arrays filled
by total order p + q.  Each entry reads only entries of lower total order,
so each order is one batch of array operations on the series packed by
total order (``cauchy_terms``); a table is bit-reproducible and extending
``max_order`` never changes lower entries.

Pairing convention.  With decay the unperturbed operator is not Hermitian:
its diagonal carries ``delta_j - i*gamma_j``.  Every bra appearing in the
recursion is then the matching *left* eigenvector (biorthogonal pairing,
``left @ right = identity``) rather than a conjugated ket.  For gamma = 0
the left rows are exactly the conjugated kets, so the Hermitian textbook
recursion is recovered without branching; with decay this pairing is the
analytic continuation of the Hermitian formulas in the complex detunings,
which is how the loss model is defined in the first place.

Normalisation.  The diagonal coefficient at each order is fixed by the
order-by-order expansion of the state norm.  The conjugated coefficients
appearing there are supplied by a companion series for the transposed
problem (conjugated couplings, identical complex detunings), which this
module computes in lockstep.  For real couplings the companion series
coincides with the primary one; in the Hermitian case it is its complex
conjugate, which makes the diagonal coefficients real.  The residual phase
freedom is fixed by assigning the same value to both series' diagonal
entries at every order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, MissingOrderError
from .model import PerturbationSplit

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class DressedBasis:
    """Eigensystem of the unperturbed operator in physical label order.

    Index 0 is bare level 1 (eigenvalue 0), indices 1 and 2 are the minus-
    and plus-root dressed combinations of bare levels 2 and 3, index 3 is
    bare level 4.  ``right`` holds kets as columns, ``left`` holds the
    paired bras as rows with ``left @ right = identity``.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray


def dressed_basis(h0: np.ndarray) -> DressedBasis:
    """Diagonalise the pump block exactly; reject near-degenerate spectra."""
    d1 = h0[1, 1]
    d2 = h0[2, 2]
    d3 = h0[3, 3]
    x = h0[1, 2]  # Omega_b / 2
    y = h0[2, 1]  # conj(Omega_b) / 2

    lam = np.zeros(4, dtype=complex)
    right = np.zeros((4, 4), dtype=complex)
    left = np.zeros((4, 4), dtype=complex)
    lam[3] = d3
    right[0, 0] = left[0, 0] = 1.0
    right[3, 3] = left[3, 3] = 1.0

    if x == 0 and y == 0:
        # Uncoupled pump: the two-level block is already diagonal.
        lam[1], lam[2] = d1, d2
        right[1, 1] = left[1, 1] = 1.0
        right[2, 2] = left[2, 2] = 1.0
    else:
        root = np.sqrt((d1 - d2) ** 2 + 4.0 * x * y + 0.0j)
        lam[1] = 0.5 * ((d1 + d2) - root)
        lam[2] = 0.5 * ((d1 + d2) + root)
        for idx in (1, 2):
            shift = lam[idx] - d1
            pairing = x * y + shift**2
            nrm = np.sqrt(pairing + 0.0j)
            if nrm == 0:
                raise DegeneracyError("dressed pair is defective: left/right pairing vanishes")
            right[1, idx] = x / nrm
            right[2, idx] = shift / nrm
            left[idx, 1] = y / nrm
            left[idx, 2] = shift / nrm

    scale = max(1.0, float(np.linalg.norm(h0)))
    for i in range(4):
        for j in range(i + 1, 4):
            gap = abs(lam[i] - lam[j])
            if gap < DEGENERACY_TOL * scale:
                raise DegeneracyError(
                    f"unperturbed spectrum is near-degenerate: eigenvalues {i + 1} and "
                    f"{j + 1} separated by only {gap:.3e} "
                    f"(tolerance {DEGENERACY_TOL:.1e} x {scale:.3e})"
                )
    return DressedBasis(eigenvalues=lam, right=right, left=left)


class SeriesTable:
    """Energy corrections and dressed-basis state coefficients of one state n.

    Made by :func:`build_series` and read straight from its arrays.
    ``E[s, p, q]`` is the order-(p, q) eigenvalue correction and
    ``A[s, p, q, :]`` the dressed-basis coefficients of the order-(p, q)
    state correction, for p + q <= ``order``; higher entries are zero.
    Series s = 0 is the primary one, s = 1 its companion for the transposed
    problem: ``basis.right @ A[0, p, q]`` is the order-(p, q) ket correction
    in the bare basis and ``A[1, p, q] @ basis.left`` the bra correction,
    which in the Hermitian case is the conjugated ket.  ``n`` is the state
    index (1-based, label order of :class:`DressedBasis`).  Of the readers,
    only :func:`evaluate_energy` raises :class:`MissingOrderError`, for
    another state or an order not built.
    """

    def __init__(self, split: PerturbationSplit, n: int, order: int) -> None:
        self.basis = dressed_basis(split.h0)
        self.n = n
        self.order = order
        self.E = np.zeros((2, order + 1, order + 1), dtype=complex)
        self.A = np.zeros((2, order + 1, order + 1, 4), dtype=complex)
        self.E[:, 0, 0] = self.basis.eigenvalues[n - 1]
        self.A[:, 0, 0, n - 1] = 1.0


def _row(p, q):
    """Row of the order-(p, q) coefficient in a series packed by total order."""
    return (p + q) * (p + q + 1) // 2 + p


def packed_index(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) of each row of a series packed through total order ``order``, as in ``_row``."""
    d, p = np.nonzero(np.arange(order + 1)[:, None] >= np.arange(order + 1))  # by d, then p
    return p, d - p


@functools.cache
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the two factors in every pair of the order-d product terms; where each p starts."""
    p, i, j = np.array([(p, i, j) for p in range(d + 1) for i in range(p + 1)
                        for j in range(d - p + 1)]).T
    return _row(i, j), _row(p - i, d - p - j), np.searchsorted(p, np.arange(d + 1))


def cauchy_terms(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """Every order-d term of the product of two double series packed by total order.

    Row p of the result is the order-(p, d - p) term, the sum over i <= p,
    j <= d - p of x[i, j] * y[p - i, d - p - j]; trailing axes broadcast.
    """
    rows_x, rows_y, starts = _pairs(d)
    return np.add.reduceat(x.take(rows_x, axis=0) * y.take(rows_y, axis=0), starts, axis=0)


def build_series(split: PerturbationSplit, n: int, max_order: int) -> SeriesTable:
    """Fill a table for state n with every order p + q <= max_order, one batch per order."""
    if not 1 <= n <= 4:
        raise ValueError(f"state index must lie in 1..4, got {n}")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    table = SeriesTable(split, n, max_order)
    basis, (p, q) = table.basis, packed_index(max_order)
    e = table.E[:, p, q].T.copy()  # e[row, s]
    a = table.A[:, p, q].transpose(1, 0, 2).copy()  # a[row, s, m]
    vt = (basis.left @ coupling @ basis.right for coupling in (split.va, split.vc))
    v = np.array([[w, w.T] for w in vt])  # [coupling, s]; s = 1 sees the transposed couplings
    k = n - 1
    gap = basis.eigenvalues[k] - basis.eigenvalues
    gap[k] = 1.0  # the diagonal entry comes from the norm expansion instead
    for d in range(1, max_order + 1):
        rows = slice(_row(0, d), _row(0, d + 1))
        coupled = np.einsum("csmj,psj->cpsm", v, a[_row(0, d - 1):rows.start])
        # The order-d rows are still zero: the full products sum lower orders only.
        rhs = -cauchy_terms(e[..., None], a, d)
        rhs[1:] += coupled[0]  # va raises p
        rhs[:-1] += coupled[1]  # vc raises q
        e[rows] = rhs[..., k]
        rhs /= gap
        # Norm expansion fixes the real part; the residual phase freedom is
        # resolved by giving both series the same diagonal entry.
        rhs[..., k] = -0.5 * cauchy_terms(a[:, 1], a[:, 0], d).sum(axis=-1)[:, None]
        a[rows] = rhs
    table.E[:, p, q] = e.T
    table.A[:, p, q] = a.transpose(1, 0, 2)
    return table


def power_sum(c: np.ndarray, x, y):
    """sum over (p, q) of c[p, q] x**p y**q, for scalar or array x and y."""
    xp = np.asarray(x)[..., None] ** np.arange(c.shape[0])
    yq = np.asarray(y)[..., None] ** np.arange(c.shape[1])
    return np.sum((xp @ c) * yq, axis=-1)


def evaluate_energy(table: SeriesTable, n: int, eps_a: float, eps_c: float,
                    total_order: int) -> complex:
    """Partial sum of the eigenvalue series through the given total order.

    Raises :class:`MissingOrderError` for another state than the table's or
    an order it was not built to.
    """
    if n != table.n or not 0 <= total_order <= table.order:
        raise MissingOrderError(f"order {total_order} of state {n} is not in this table "
                                f"of state {table.n} to total order {table.order}")
    d = np.arange(total_order + 1)
    e = table.E[0, :total_order + 1, :total_order + 1]
    return complex(power_sum(np.where(d[:, None] + d <= total_order, e, 0.0), eps_a, eps_c))
