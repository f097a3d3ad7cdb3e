"""Two-variable Rayleigh-Schrodinger series for the driven four-level manifold.

The unperturbed operator couples bare levels 2 and 3 through the pump mode
and leaves levels 1 and 4 bare; the two probe couplings act as independent
perturbations of strengths eps_a and eps_c.  Eigenvalues and eigenvectors of
the full matrix are expanded as double power series in (eps_a, eps_c), with
state coefficients expressed in the dressed eigenbasis of the unperturbed
operator.  The coefficients of one state are held in dense arrays filled
by total order p + q; each entry reads only entries of lower total order,
so a table is bit-reproducible and extending ``max_order`` never changes
lower entries.

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
    paired bras as rows with ``left @ right = identity``.  ``n_minus`` and
    ``n_plus`` are the dressed-state normalizers, positive reals whenever
    the operator is Hermitian.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    n_minus: complex
    n_plus: complex


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
        n_minus = n_plus = 1.0 + 0.0j
    else:
        root = np.sqrt((d1 - d2) ** 2 + 4.0 * x * y + 0.0j)
        lam[1] = 0.5 * ((d1 + d2) - root)
        lam[2] = 0.5 * ((d1 + d2) + root)
        norms = []
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
            norms.append(2.0 * nrm)
        n_minus, n_plus = norms

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
    return DressedBasis(eigenvalues=lam, right=right, left=left,
                        n_minus=n_minus, n_plus=n_plus)


class SeriesTable:
    """Energy corrections and dressed-basis state coefficients of one state n.

    Made by :func:`build_series`.  ``E[s, p, q]`` is the order-(p, q)
    eigenvalue correction and ``A[s, p, q, :]`` the dressed-basis
    coefficients of the order-(p, q) state correction, for p + q <= ``order``;
    higher entries are zero.  Series s = 0 is the primary one, s = 1 its
    companion for the transposed problem.  Methods take the state index n
    (1-based, label order of :class:`DressedBasis`) and raise
    :class:`MissingOrderError` for another state or an order not built.
    """

    def __init__(self, split: PerturbationSplit, n: int, order: int) -> None:
        self.basis = dressed_basis(split.h0)
        self.n = n
        self.order = order
        self.E = np.zeros((2, order + 1, order + 1), dtype=complex)
        self.A = np.zeros((2, order + 1, order + 1, 4), dtype=complex)
        self.E[:, 0, 0] = self.basis.eigenvalues[n - 1]
        self.A[:, 0, 0, n - 1] = 1.0

    def _require(self, n: int, p: int, q: int) -> None:
        if n != self.n or min(p, q) < 0 or p + q > self.order:
            raise MissingOrderError(f"order ({p},{q}) of state {n} is not in this table "
                                    f"of state {self.n} to total order {self.order}")

    def max_order(self, n: int) -> int:
        """Largest total order d such that every (p, q) with p + q <= d is present."""
        self._require(n, 0, 0)
        return self.order

    def energy(self, n: int, p: int, q: int) -> complex:
        self._require(n, p, q)
        return complex(self.E[0, p, q])

    def coefficient(self, n: int, m: int, p: int, q: int) -> complex:
        self._require(n, p, q)
        return complex(self.A[0, p, q, m - 1])

    def ket_correction(self, n: int, p: int, q: int) -> np.ndarray:
        """Order-(p, q) ket correction in the bare basis (column vector)."""
        self._require(n, p, q)
        return self.basis.right @ self.A[0, p, q]

    def bra_correction(self, n: int, p: int, q: int) -> np.ndarray:
        """Order-(p, q) bra correction in the bare basis (row vector).

        Built from the companion series; in the Hermitian case this equals
        the conjugate of :meth:`ket_correction`.
        """
        self._require(n, p, q)
        return self.A[1, p, q] @ self.basis.left

    def normalization_residual(self, n: int, p: int, q: int) -> complex:
        """Order-(p, q) residual of the norm expansion; zero by construction."""
        self._require(n, p, q)
        total = complex(_overlap(self.A, p, q))
        return total - 1.0 if (p, q) == (0, 0) else total


def _overlap(a: np.ndarray, p: int, q: int) -> complex:
    """sum over i <= p, j <= q of a[1, i, j] . a[0, p - i, q - j]."""
    return np.einsum("ijm,ijm->", a[1, :p + 1, :q + 1], a[0, p::-1, q::-1])


def build_series(split: PerturbationSplit, n: int, max_order: int) -> SeriesTable:
    """Fill a table for state n with every order p + q <= max_order."""
    if not 1 <= n <= 4:
        raise ValueError(f"state index must lie in 1..4, got {n}")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    table = SeriesTable(split, n, max_order)
    e, a, basis = table.E, table.A, table.basis
    vta = basis.left @ split.va @ basis.right
    vtc = basis.left @ split.vc @ basis.right
    va = np.stack([vta, vta.T])  # the companion series sees the transposed couplings
    vc = np.stack([vtc, vtc.T])
    k = n - 1
    gap = basis.eigenvalues[k] - basis.eigenvalues
    gap[k] = 1.0  # the diagonal entry comes from the norm expansion instead
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
            overlap = _overlap(a, p, q)
            e[:, p, q] = rhs[:, k]
            a[:, p, q] = rhs / gap
            # Norm expansion fixes the real part; the residual phase freedom is
            # resolved by giving both series the same diagonal entry.
            a[:, p, q, k] = -0.5 * overlap
    return table


def power_sum(c: np.ndarray, x, y):
    """sum over (p, q) of c[p, q] x**p y**q, for scalar or array x and y."""
    xp = np.asarray(x)[..., None] ** np.arange(c.shape[0])
    yq = np.asarray(y)[..., None] ** np.arange(c.shape[1])
    return np.sum((xp @ c) * yq, axis=-1)


def evaluate_energy(table: SeriesTable, n: int, eps_a: float, eps_c: float,
                    total_order: int) -> complex:
    """Partial sum of the eigenvalue series through the given total order."""
    table._require(n, 0, total_order)
    d = np.arange(total_order + 1)
    e = table.E[0, :total_order + 1, :total_order + 1]
    return complex(power_sum(np.where(d[:, None] + d <= total_order, e, 0.0), eps_a, eps_c))
