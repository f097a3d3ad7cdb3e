"""Two-variable Rayleigh-Schrodinger series for the driven four-level manifold.

The unperturbed operator couples bare levels 2 and 3 through the pump mode
and leaves levels 1 and 4 bare; the two probe couplings act as independent
perturbations of strengths eps_a and eps_c.  Eigenvalues and eigenvectors of
the full matrix are expanded as double power series in (eps_a, eps_c), with
state coefficients expressed in the dressed eigenbasis of the unperturbed
operator.  The coefficients of one state are held in dense arrays filled
by total order p + q.  Each entry reads only entries of lower total order;
a table is bit-reproducible and extending ``max_order`` never changes lower
entries.

Selection rules.  In the N-configuration probe a couples only bare levels
1 <-> 2 and probe c only 3 <-> 4, so in the dressed basis eps_a moves index
0 <-> {1, 2} and eps_c moves {1, 2} <-> 3.  A coefficient A[s, p, q, m] is
therefore zero unless the parities of (p, q) link the state's index to m,
and E[s, p, q] is zero unless p and q are both even.  ``_order_plan`` lists,
once per state and total order, only the products these rules allow, as
flat index arrays into one work vector holding the dressed couplings and
both series; ``build_series`` then fills each order with a single
gather-multiply-reduce.

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


# Parity class of each dressed index, as the bits (a, c) of the number of
# probe-a and probe-c transitions that reach it from dressed index 0: probe a
# moves 0 <-> {1, 2}, probe c moves {1, 2} <-> 3.
_CLASS = np.array([0b00, 0b10, 0b10, 0b11])
_SERIES = 64  # w[:_SERIES] holds the dressed couplings as [coupling, s, m, j]


def _slot(p, q, s, m):
    """Slot in the work vector of A[s, p, q, m], or of E[s, p, q] for m = 4."""
    return _SERIES + (2 * _row(p, q) + s) * 5 + m


@functools.cache
def _order_plan(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Flat terms of every structurally nonzero order-d entry of state n's two series.

    Returns the two factors' slots and the coefficient of each term, the
    start of each entry's terms, the entry's slot and its divisor index.
    Entries are listed by (p, s, m) and their terms in an order fixed by
    (p, q, m) alone, so a table's lower orders never depend on ``max_order``.
    """
    k = n - 1
    cls = _CLASS ^ _CLASS[k]

    def nonzero(p, q, m):  # E, at m = 4, sits in the class of m = k
        return cls[k if m == 4 else m] == 2 * (p % 2) + q % 2 and (p + q > 0 or m in (k, 4))

    left, right, coef, counts, out, div = [], [], [], [], [], []
    for p in range(d + 1):
        q = d - p
        lower = [(i, j) for i in range(p + 1) for j in range(q + 1) if 0 < i + j < d]
        for s in (0, 1):
            for m in range(5):
                if not nonzero(p, q, m):
                    continue
                if m == k:  # the norm expansion; the same value in both series fixes the phase
                    terms = [(_slot(i, j, 1, r), _slot(p - i, q - j, 0, r), -0.5)
                             for i, j in lower for r in range(4)
                             if nonzero(i, j, r) and nonzero(p - i, q - j, r)]
                else:
                    row = k if m == 4 else m
                    # A coupling element between two entries of the right classes
                    # is one the selection rules allow; c = 0 is va, c = 1 vc.
                    terms = [(16 * (2 * c + s) + 4 * row + j, _slot(p - dp, q - dq, s, j), 1.0)
                             for c, (dp, dq) in enumerate(((1, 0), (0, 1))) if p >= dp and q >= dq
                             for j in range(4) if nonzero(p - dp, q - dq, j)]
                    terms += [(_slot(i, j, s, 4), _slot(p - i, q - j, s, row), -1.0)
                              for i, j in lower if nonzero(i, j, 4) and nonzero(p - i, q - j, row)]
                if terms:  # an entry without terms stays zero
                    for column, values in zip((left, right, coef), zip(*terms)):
                        column.extend(values)
                    counts.append(len(terms))
                    out.append(_slot(p, q, s, m))
                    div.append(k if m in (k, 4) else m)
    plan = (np.array(left), np.array(right), np.array(coef, dtype=complex),
            np.cumsum([0] + counts[:-1]), np.array(out), np.array(div))
    for array in plan:
        array.setflags(write=False)
    return plan


def build_series(split: PerturbationSplit, n: int, max_order: int) -> SeriesTable:
    """Fill a table for state n with every order p + q <= max_order, one fused step per order.

    Both series live in one complex work vector ``w``: the dressed couplings,
    then the E and A entries packed by total order.  Each order is one
    gather-multiply-reduce over the terms of ``_order_plan``, and the table
    receives the packed series in one scatter each.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"state index must lie in 1..4, got {n}")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    table = SeriesTable(split, n, max_order)
    basis, (p, q), k = table.basis, packed_index(max_order), n - 1
    w = np.zeros(_SERIES + 10 * len(p), dtype=complex)
    couplings = w[:_SERIES].reshape(2, 2, 4, 4)  # [coupling, s, m, j]
    couplings[:, 0] = basis.left @ np.stack((split.va, split.vc)) @ basis.right
    couplings[:, 1] = couplings[:, 0].transpose(0, 2, 1)  # s = 1 sees the transposed couplings
    series = w[_SERIES:].reshape(-1, 2, 5)  # [row, s, m], m = 4 holding E
    series[0, :, k] = 1.0
    series[0, :, 4] = basis.eigenvalues[k]
    divisor = basis.eigenvalues[k] - basis.eigenvalues
    divisor[k] = 1.0  # E and the diagonal entry, which the norm expansion fixes
    for d in range(1, max_order + 1):
        left, right, coef, starts, out, div = _order_plan(n, d)
        w[out] = np.add.reduceat(w[left] * w[right] * coef, starts) / divisor[div]
    table.E[:, p, q] = series[..., 4].T
    table.A[:, p, q] = series[..., :4].transpose(1, 0, 2)
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
