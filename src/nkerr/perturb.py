"""Two-variable Rayleigh-Schrodinger series for the driven four-level manifold.

The unperturbed operator couples bare levels 2 and 3 through the pump mode
and leaves levels 1 and 4 bare; the two probe couplings act as independent
perturbations of strengths eps_a and eps_c.  Eigenvalues and eigenvectors of
the full matrix are expanded as double power series in (eps_a, eps_c), with
state coefficients expressed in the dressed eigenbasis of the unperturbed
operator, for the relaxed ground state (dressed index 0) only.

Layout.  A double series c[p, q] is a dense (n, n) array; this is the only
layout in the package.  The ground state's series are ``E[s, p, q]`` and
``A[s, p, q, m]`` of :class:`SeriesTable`, contiguous views of the one work
vector that ``build_series`` fills by total order p + q, after the dressed
couplings ``left @ v @ right`` of both probes (transposed for s = 1), of
which it writes only the entries the selection rules below allow.  Each
entry reads only entries of lower total order; a table is bit-reproducible
and extending ``max_order`` never changes lower entries.  ``series_product``
is the one product of two series in this layout, truncated below total
order n.

Selection rules.  In the N-configuration probe a couples only bare levels
1 <-> 2 and probe c only 3 <-> 4, so in the dressed basis eps_a moves index
0 <-> {1, 2} and eps_c moves {1, 2} <-> 3.  A coefficient A[s, p, q, m] is
therefore zero unless the parities of (p, q) link index 0 to m, and
E[s, p, q] is zero unless p and q are both even.  ``_order_plan`` lists,
once per ``max_order``, only the products these rules allow, as
flat index arrays into the work vector, which holds the dressed couplings
before E and A; ``build_series`` then fills each order with a single
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

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError
from .model import PerturbationSplit, _is_nonnegative_int

DEGENERACY_TOL = 1e-8


class DressedBasis(NamedTuple):
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
    """Diagonalise the pump block exactly; reject near-degenerate spectra.

    Two eigenvalues are near-degenerate where their gap is below
    ``DEGENERACY_TOL`` times the size of the entries that set them, at least
    1: the pump block's norm for the dressed pair, |h33| for bare level 4
    and 0 for bare level 1.  A far level therefore leaves the gaps of the
    near ones at their own scale.  Roots and gaps are taken on Python complex
    numbers, which round as numpy's do here, but ``nrm`` stays numpy:
    Python's complex division does not.
    """
    rows = h0.tolist()
    d1, x = rows[1][1:3]  # x = Omega_b / 2
    y, d2 = rows[2][1:3]  # y = conj(Omega_b) / 2
    right = np.zeros((4, 4), dtype=complex)
    left = np.zeros((4, 4), dtype=complex)
    right[0, 0] = left[0, 0] = right[3, 3] = left[3, 3] = 1.0
    if x == 0 and y == 0:  # uncoupled pump: the two-level block is already diagonal
        lam = [0j, d1, d2, rows[3][3]]
        right[1, 1] = left[1, 1] = right[2, 2] = left[2, 2] = 1.0
    else:
        root = cmath.sqrt((d1 - d2) ** 2 + 4.0 * x * y + 0.0j)
        lam = [0j, 0.5 * ((d1 + d2) - root), 0.5 * ((d1 + d2) + root), rows[3][3]]
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

    block = math.hypot(abs(d1), abs(x), abs(y), abs(d2))
    sizes = (0.0, block, block, abs(lam[3]))  # of the entries that set each eigenvalue
    for i in range(4):
        for j in range(i + 1, 4):
            gap = abs(lam[i] - lam[j])
            scale = max(1.0, sizes[i], sizes[j])
            if gap < DEGENERACY_TOL * scale:
                raise DegeneracyError(
                    f"unperturbed spectrum is near-degenerate: eigenvalues {i + 1} and "
                    f"{j + 1} separated by only {gap:.3e} "
                    f"(tolerance {DEGENERACY_TOL:.1e} x {scale:.3e})"
                )
    return DressedBasis(eigenvalues=np.array(lam), right=right, left=left)


class SeriesTable(NamedTuple):
    """Energy corrections and dressed-basis state coefficients of the ground state.

    Made by :func:`build_series` and read straight from its arrays.
    ``E[s, p, q]`` is the order-(p, q) eigenvalue correction and
    ``A[s, p, q, :]`` the dressed-basis coefficients of the order-(p, q)
    state correction, for p + q <= ``order``; higher entries are zero.
    Series s = 0 is the primary one, s = 1 its companion for the transposed
    problem: ``basis.right @ A[0, p, q]`` is the order-(p, q) ket correction
    in the bare basis and ``A[1, p, q] @ basis.left`` the bra correction,
    which in the Hermitian case is the conjugated ket.  Like every record of
    the package it is a tuple; since it holds arrays, a table equals itself,
    but comparing two tables raises numpy's ValueError and hashing one
    raises TypeError.
    """

    basis: DressedBasis
    order: int
    E: np.ndarray
    A: np.ndarray


def series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product c[p, q] of two double series a[p, q] and b[p, q] of shape (n, n).

    Terms of total order p + q >= n are dropped; c has the shape of a.  Rows
    zero-padded to the full product width turn the double series product into
    one 1-D convolution (Kronecker substitution).
    """
    n = len(a)
    width = 2 * n - 1
    pad = np.zeros((2, n, width), dtype=complex)
    pad[0, :, :n], pad[1, :, :n] = a, b
    c = np.convolve(pad[0].ravel(), pad[1].ravel())[:n * width].reshape(n, width)[:, :n]
    for p in range(1, n):  # in place: a mask would double the cost at the sizes used
        c[p, n - p:] = 0.0
    return c


# Parity class of each dressed index, as the bits (a, c) of the number of
# probe-a and probe-c transitions that reach it from dressed index 0: probe a
# moves 0 <-> {1, 2}, probe c moves {1, 2} <-> 3.
_CLASS = np.array([0b00, 0b10, 0b10, 0b11])
_SERIES = 64  # w[:_SERIES] holds the dressed couplings as [coupling, s, m, j]
# The eight couplings [coupling, m, j] these rules allow, in the order
# build_series computes them, and their flat slots in w for s = 0 and then,
# transposed, for s = 1; the rest of w[:_SERIES] is never read and stays zero.
_ALLOWED = [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 1, 3), (1, 2, 3), (1, 3, 1), (1, 3, 2)]
_COUPLING_SLOTS = np.ravel_multi_index(
    np.transpose([(c, 0, m, j) for c, m, j in _ALLOWED] + [(c, 1, j, m) for c, m, j in _ALLOWED]),
    (2, 2, 4, 4))


def _layout(w: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dressed couplings, E and A of a work vector for ``size`` orders per axis, as views."""
    split = _SERIES + 2 * size * size
    return (w[:_SERIES].reshape(2, 2, 4, 4), w[_SERIES:split].reshape(2, size, size),
            w[split:].reshape(2, size, size, 4))


@functools.cache
def _order_plan(max_order: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Flat terms of every structurally nonzero entry of the two series, by total order.

    For each order d = 1..max_order: the two factors' slots in the work
    vector of :func:`_layout` and the coefficient of each term, the start of
    each entry's terms, the entry's slot and its divisor index.  Entries are
    listed by (p, s, m) and their terms in an order fixed by (p, q, m) alone,
    so a table's lower orders never depend on ``max_order``.
    """
    size = max_order + 1
    couplings, e, a = _layout(np.arange(_SERIES + 10 * size * size), size)

    def nonzero(p, q, m):  # E, at m = 4, sits in the class of m = 0
        return _CLASS[m % 4] == 2 * (p % 2) + q % 2

    def slot(p, q, s, m):  # of A[s, p, q, m], or of E[s, p, q] for m = 4
        return e[s, p, q] if m == 4 else a[s, p, q, m]

    plan = []
    for d in range(1, max_order + 1):
        left, right, coef, counts, out, div = [], [], [], [], [], []
        for p in range(d + 1):
            q = d - p
            lower = [(i, j) for i in range(p + 1) for j in range(q + 1) if 0 < i + j < d]
            for s in (0, 1):
                for m in range(5):
                    if not nonzero(p, q, m):
                        continue
                    row = m % 4  # E, at m = 4, is row 0 of the eigenvalue equation
                    if m == 0:  # the norm expansion; the same value in both series fixes the phase
                        terms = [(slot(i, j, 1, r), slot(p - i, q - j, 0, r), -0.5)
                                 for i, j in lower for r in range(4)
                                 if nonzero(i, j, r) and nonzero(p - i, q - j, r)]
                    else:
                        # A coupling element between two entries of the right classes
                        # is one the selection rules allow; c = 0 is va, c = 1 vc.
                        terms = [(couplings[c, s, row, j], slot(p - dp, q - dq, s, j), 1.0)
                                 for c, (dp, dq) in enumerate(((1, 0), (0, 1)))
                                 if p >= dp and q >= dq
                                 for j in range(4) if nonzero(p - dp, q - dq, j)]
                        terms += [(slot(i, j, s, 4), slot(p - i, q - j, s, row), -1.0)
                                  for i, j in lower
                                  if nonzero(i, j, 4) and nonzero(p - i, q - j, row)]
                    if terms:  # an entry without terms stays zero
                        for column, values in zip((left, right, coef), zip(*terms)):
                            column.extend(values)
                        counts.append(len(terms))
                        out.append(slot(p, q, s, m))
                        div.append(row)
        arrays = (np.array(left), np.array(right), np.array(coef, dtype=complex),
                  np.cumsum([0] + counts[:-1]), np.array(out), np.array(div))
        for array in arrays:
            array.setflags(write=False)
        plan.append(arrays)
    return tuple(plan)


def build_series(split: PerturbationSplit, n: int, max_order: int) -> SeriesTable:
    """Fill the ground-state table with every order p + q <= max_order, one fused step per order.

    Both series live in one complex work vector ``w`` that holds the dressed
    couplings, then E and A; the table's arrays are views of it.  Each
    allowed entry of ``basis.left @ v @ basis.right``, v = ``split.va`` or
    ``split.vc``, has one nonzero term: a probe entry of v times one entry of
    the basis, taken on Python complex numbers.  Each order is one
    gather-multiply-reduce over its terms in ``_order_plan``.  ValueError
    unless n is the integer 1 and max_order an integer >= 0.
    """
    # n stays here and in evaluate_energy only as perfbench/series_loop.py passes it
    if not (_is_nonnegative_int(n) and n == 1):
        raise ValueError(f"only the ground state, the integer n = 1, is built, got n = {n!r}")
    if not _is_nonnegative_int(max_order):
        raise ValueError(f"max_order must be an integer >= 0, got {max_order!r}")
    basis, size = dressed_basis(split.h0), max_order + 1
    w = np.zeros(_SERIES + 10 * size * size, dtype=complex)
    _, e, a = _layout(w, size)
    # Each is one rounded product, as in the matrix product; + 0j turns a -0
    # part into the +0 that the matrix product's sum gives.  s = 1 sees the transposes.
    left, right = basis.left.tolist(), basis.right.tolist()
    a01, a10 = split.va.item(0, 1), split.va.item(1, 0)
    c23, c32 = split.vc.item(2, 3), split.vc.item(3, 2)
    allowed = [a01 * right[1][1] + 0j, a01 * right[1][2] + 0j,
               left[1][1] * a10 + 0j, left[2][1] * a10 + 0j,
               left[1][2] * c23 + 0j, left[2][2] * c23 + 0j,
               c32 * right[2][1] + 0j, c32 * right[2][2] + 0j]
    w[_COUPLING_SLOTS] = allowed * 2
    a[:, 0, 0, 0] = 1.0  # E[:, 0, 0] is the ground eigenvalue 0, as w starts
    divisor = -basis.eigenvalues
    divisor[0] = 1.0  # E and the diagonal entry, which the norm expansion fixes
    for left, right, coef, starts, out, div in _order_plan(max_order):
        w[out] = np.add.reduceat(w[left] * w[right] * coef, starts) / divisor[div]
    return SeriesTable(basis, max_order, e, a)


def power_sum(c: np.ndarray, x, y):
    """sum over (p, q) of c[p, q] x**p y**q, for scalar or array x and y."""
    xp = np.asarray(x)[..., None] ** np.arange(c.shape[0])
    yq = np.asarray(y)[..., None] ** np.arange(c.shape[1])
    return np.add.reduce((xp @ c) * yq, axis=-1)


def evaluate_energy(table: SeriesTable, n: int, eps_a: float, eps_c: float,
                    total_order: int) -> complex:
    """Partial sum of the ground eigenvalue series.

    ValueError unless n is the integer 1 and total_order an integer order the
    table holds, or for a non-finite eps_a or eps_c.
    """
    if not (math.isfinite(eps_a) and math.isfinite(eps_c)):
        raise ValueError(f"eps_a and eps_c must be finite, got {eps_a!r} and {eps_c!r}")
    if not (_is_nonnegative_int(n) and n == 1 and _is_nonnegative_int(total_order)
            and total_order <= table.order):
        raise ValueError(f"total_order {total_order!r} of state {n!r} is not in this table: "
                         f"it holds integer orders 0..{table.order} of the ground state n = 1")
    e = table.E[0, :total_order + 1, :total_order + 1]
    if total_order < table.order:  # entries above the built order are already zeros
        d = np.arange(total_order + 1)
        e = np.where(d[:, None] + d <= total_order, e, 0.0)
    return complex(power_sum(e, eps_a, eps_c))
