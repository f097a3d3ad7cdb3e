"""Two-variable Rayleigh-Schrodinger series for the driven four-level manifold.

The unperturbed operator couples bare levels 2 and 3 through the pump mode
and leaves levels 1 and 4 bare; the two probe couplings act as independent
perturbations of strengths eps_a and eps_c.  Eigenvalues and eigenvectors of
the full matrix are expanded as double power series in (eps_a, eps_c), with
state coefficients expressed in the dressed eigenbasis of the unperturbed
operator, for the relaxed ground state (dressed index 0) only.

Layout.  A double series c[p, q] is a dense (n, n) array; this is the only
layout in the package.  The ground state's series are ``E[p, q]`` and
``A[s, p, q, m]`` of :class:`SeriesTable`, contiguous views of the one work
vector that ``build_series`` fills by total order p + q, after the dressed
couplings ``left @ v @ right`` of both probes, of which it writes only the
entries the selection rules below allow.  Each
entry reads only entries of lower total order; a table is bit-reproducible
and extending ``max_order`` never changes lower entries.  So a lower order of
the same split is read off the last table: ``build_series`` gathers it from
that table's work vector, the bits of a build of its own.

Memos.  ``dressed_basis`` and ``build_series`` each keep their last result
as one module-level (split, value) tuple, read once and replaced in one
assignment, so a thread sees a whole pair, and give it back only to the same
split object (``is``), as ``model.split`` does for its configuration: a split
is an immutable record of numbers, so an equal one built apart (another
signed zero, say) builds again.  An error is never kept, and every array
returned is read-only.

Selection rules.  In the N-configuration probe a couples only bare levels
1 <-> 2 and probe c only 3 <-> 4, so in the dressed basis eps_a moves index
0 <-> {1, 2} and eps_c moves {1, 2} <-> 3.  A coefficient A[s, p, q, m] is
therefore zero unless the parities of (p, q) link index 0 to m, and
E[p, q] is zero unless p and q are both even.  ``_order_plan`` lists,
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
which is how the loss model is defined in the first place.  The perturbed
bra is the ket of the transposed problem, which needs no series of its own:
the dressed couplings form the chain 0 - {1, 2} - 3, so the diagonal
P = diag(1, f_a, f_a, f_a f_c), with f_a = V[0, m] / V[m, 0] for m = 1 and 2
alike and f_c = conj(u_c) / u_c, turns each into its transpose,
P V P^-1 = V^T.  P commutes with the unperturbed operator and fixes index 0,
so the transposed problem has the energies E and the states ``A[1]`` = P A[0].

Normalisation.  The diagonal coefficient at each order is fixed by the
order-by-order expansion of the norm, the sum over r of P[r] A[0] A[0], with
bra and ket given the same diagonal entry.  P is 1 for real couplings; in the
Hermitian case the bra is the conjugated ket, so those entries are real.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError
from .model import (PerturbationSplit, _is_finite, _is_nonnegative_int, _read_only,
                    check_finite, in_double_range, numpy_range)

DEGENERACY_TOL = 1e-8


class DressedBasis(NamedTuple):
    """Eigensystem of the unperturbed operator in physical label order.

    Index 0 is bare level 1 (eigenvalue 0), indices 1 and 2 are the dressed
    states that continue bare levels 2 and 3 as the pump turns off, index 3 is
    bare level 4.  ``right`` holds kets as columns, ``left`` holds the paired
    bras as rows with ``left @ right = identity``.  The arrays are read-only:
    :func:`dressed_basis` hands the same ones to each caller of the same split.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray


_IDENTITY = np.eye(4, dtype=complex)
# The last split and its basis, and the last split and its table; object()
# is no split.
_BASIS_MEMO: tuple = (object(), None)
_SERIES_MEMO: tuple = (object(), None)


def dressed_basis(split: PerturbationSplit) -> DressedBasis:
    """Diagonalise the split's pump block exactly; reject near-degenerate spectra.

    The block [[d1, x], [y, d2]] = [[h11, x], [y, h22]] is solved as in the 2x2
    step of the Jacobi method (Golub & Van Loan, Matrix Computations, 4th ed.,
    8.5), which never cancels: with Delta = d1 - d2, R = sqrt(Delta^2 + 4xy) and
    w the larger in size of Delta +- R, u = 2y/w, v = 2x/w (0 at w = 0),
    n = sqrt(1 + uv) and kappa = sqrt(x/y) (1 at x = y = 0) give the kets
    (kappa, kappa u)/n, (-v, 1)/n and bras (1, v)/(kappa n), (-u, 1)/n;
    defective where n = 0 or x or y alone is 0.

    Two eigenvalues are near-degenerate where their gap is at most
    ``DEGENERACY_TOL`` times the larger size of the entries that set them, with
    no floor: the pump block's norm for the dressed pair and bare level 1 (0 has
    no size), |h33| for bare level 4.  So a far level leaves the near ones' gaps
    at their own scale.  Raises the out-of-range PoleError where a dressed
    eigenvalue, the block's norm or a square on the way leaves double range.
    It is the gate every reader of a split passes first: ValueError unless
    ``split`` is a ``PerturbationSplit`` whose nine fields are Python ints,
    floats or complex numbers (a bool, a numpy number or array is not), finite
    by ``model._is_finite``, with ua and uc nonzero; so no reader converts a
    field.  A call with the split object of the last call that returned gives
    back that basis.
    """
    global _BASIS_MEMO
    last, basis = _BASIS_MEMO
    if last is split:
        return basis
    if not (isinstance(split, PerturbationSplit) and all(
            type(v) in (int, float, complex) and _is_finite(v, cmath.isfinite) for v in split)
            and split.ua and split.uc):
        raise ValueError(f"a split must hold nine finite numbers, ua and uc nonzero, got {split!r}")
    d1, d2, h33, x, y = split[:5]
    delta = d1 - d2
    with in_double_range():  # Python's complex ** and abs raise OverflowError past it
        root = cmath.sqrt(delta**2 + 4.0 * x * y + 0.0j)
        w = delta + root if abs(delta + root) > abs(delta - root) else delta - root
        block = math.hypot(abs(d1), abs(x), abs(y), abs(d2))
    u, v = (2.0 * y / w, 2.0 * x / w) if w else (0j, 0j)
    lam = [0j, d1 + x * u, d2 - y * v, h33]
    check_finite(root, *lam, block)  # a NaN gap passes the test below, an inf norm fails it
    n = cmath.sqrt(1.0 + u * v)
    if n == 0 or (x == 0) != (y == 0):
        raise DegeneracyError("dressed pair is defective: left/right pairing vanishes")
    kappa = cmath.sqrt(x / y) if y else 1.0
    for i, j in itertools.combinations(range(4), 2):  # bare level 4 is set by h33 alone
        gap, scale = abs(lam[i] - lam[j]), max(block, abs(lam[3])) if j == 3 else block
        if gap <= DEGENERACY_TOL * scale:  # so a zero gap at zero scale is refused
            raise DegeneracyError(
                f"unperturbed spectrum is near-degenerate: eigenvalues {i + 1} and {j + 1} "
                f"separated by only {gap:.3e} (tolerance {DEGENERACY_TOL:.1e} x {scale:.3e})")
    right, left = _IDENTITY.copy(), _IDENTITY.copy()
    right[1, 1], right[2, 1], right[1, 2], right[2, 2] = kappa / n, kappa * u / n, -v / n, 1 / n
    left[1, 1], left[1, 2], left[2, 1], left[2, 2] = 1 / kappa / n, v / kappa / n, -u / n, 1 / n
    basis = DressedBasis(eigenvalues=np.array(lam), right=right, left=left)
    _read_only(*basis)
    _BASIS_MEMO = split, basis
    return basis


class SeriesTable(NamedTuple):
    """Energy corrections and dressed-basis state coefficients of the ground state.

    Made by :func:`build_series` and read straight from its arrays.
    ``E[p, q]`` is the order-(p, q) eigenvalue correction and
    ``A[s, p, q, :]`` the dressed-basis coefficients of the order-(p, q)
    state correction, for p + q <= ``order``; higher entries are zero.
    ``basis.right @ A[0, p, q]`` is the order-(p, q) ket correction in the
    bare basis and ``A[1, p, q] @ basis.left`` the bra correction, where
    ``A[1]`` is P A[0] with the diagonal P of the module docstring; in the
    Hermitian case the bra is the conjugated ket.  E and A are read-only
    views of one work vector; a call that repeats the last build returns
    its table again.  Like every record of
    the package it is a tuple; since it holds arrays, a table equals itself,
    but comparing two tables raises numpy's ValueError and hashing one
    raises TypeError.
    """

    basis: DressedBasis
    order: int
    E: np.ndarray
    A: np.ndarray


# Parity class of each dressed index, as the bits (a, c) of the number of
# probe-a and probe-c transitions that reach it from dressed index 0: probe a
# moves 0 <-> {1, 2}, probe c moves {1, 2} <-> 3.
_CLASS = np.array([0b00, 0b10, 0b10, 0b11])
# The eight dressed couplings [coupling, m, j] these rules allow, in the order
# of their slots w[:8] in the work vector, where build_series computes them.
_ALLOWED = [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 1, 3), (1, 2, 3), (1, 3, 1), (1, 3, 2)]
_COUPLINGS = len(_ALLOWED)


def _layout(w: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dressed couplings, E and A of a work vector for ``size`` orders per axis, as views."""
    split = _COUPLINGS + size * size
    return (w[:_COUPLINGS], w[_COUPLINGS:split].reshape(size, size),
            w[split:].reshape(2, size, size, 4))


@functools.cache
def _order_plan(max_order: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple, ...]]:
    """Flat terms of every structurally nonzero entry of the series, by total order.

    Every term's coefficient, the dressed index r whose P[r] scales it (0,
    where P is 1, outside the norm expansion), and for each order
    d = 1..max_order the slice of the terms it owns, the two factors' slots
    in the work vector of :func:`_layout`, the start of each entry's terms,
    the entry's slot and its divisor index; the arrays are read-only.
    Entries are listed by (p, m) and their terms in an order fixed by
    (p, q, m) alone, so a table's lower orders never depend on ``max_order``.
    """
    size = max_order + 1
    couplings, e, a = _layout(np.arange(_COUPLINGS + 9 * size * size), size)
    coupling = dict(zip(_ALLOWED, couplings))

    def nonzero(p, q, m):  # E, at m = 4, sits in the class of m = 0
        return _CLASS[m % 4] == 2 * (p % 2) + q % 2

    def slot(p, q, m):  # of A[0, p, q, m], or of E[p, q] for m = 4
        return e[p, q] if m == 4 else a[0, p, q, m]

    coef, bra, steps, first = [], [], [], 0
    for d in range(1, max_order + 1):
        left, right, counts, out, div = [], [], [], [], []
        for p in range(d + 1):
            q = d - p
            lower = [(i, j) for i in range(p + 1) for j in range(q + 1) if 0 < i + j < d]
            for m in range(5):
                if not nonzero(p, q, m):
                    continue
                row = m % 4  # E, at m = 4, is row 0 of the eigenvalue equation
                if m == 0:  # the norm expansion: bra entry P[r] A[0, i, j, r] times ket
                    terms = [(slot(i, j, r), slot(p - i, q - j, r), -0.5, r)
                             for i, j in lower for r in range(4)
                             if nonzero(i, j, r) and nonzero(p - i, q - j, r)]
                else:
                    # A coupling element between two entries of the right classes
                    # is one the selection rules allow; c = 0 is va, c = 1 vc.
                    terms = [(coupling[c, row, j], slot(p - dp, q - dq, j), 1.0, 0)
                             for c, (dp, dq) in enumerate(((1, 0), (0, 1)))
                             if p >= dp and q >= dq
                             for j in range(4) if nonzero(p - dp, q - dq, j)]
                    terms += [(slot(i, j, 4), slot(p - i, q - j, row), -1.0, 0)
                              for i, j in lower
                              if nonzero(i, j, 4) and nonzero(p - i, q - j, row)]
                if terms:  # an entry without terms stays zero
                    for column, values in zip((left, right, coef, bra), zip(*terms)):
                        column.extend(values)
                    counts.append(len(terms))
                    out.append(slot(p, q, m))
                    div.append(row)
        steps.append((slice(first, len(coef)), *map(np.array, (left, right)),
                      np.cumsum([0] + counts[:-1]), np.array(out), np.array(div)))
        first = len(coef)
    coef, bra = np.array(coef, dtype=complex), np.array(bra, dtype=int)
    _read_only(coef, bra, *(x for step in steps for x in step[1:]))
    return coef, bra, tuple(steps)


@functools.cache
def _prefix_slots(order: int, max_order: int) -> np.ndarray:
    """The slot in an order-``order`` work vector of each slot of an order-``max_order`` one.

    An entry of total order <= max_order keeps its own; one above reads an
    entry that no build writes, as a build of max_order leaves it: E[0, 1],
    and A[s, 0, 0, m] for m = 1, 2, 3 and A[s, 0, 1, 0], which P turns into
    the zeros of a build of its own; the array is read-only.
    """
    couplings, e, a = _layout(np.arange(_COUPLINGS + 9 * (order + 1) ** 2), order + 1)
    low = [(p, q, p + q <= max_order) for p in range(max_order + 1) for q in range(max_order + 1)]
    slots = np.array([*couplings, *(e[p, q] if kept else e[0, 1] for p, q, kept in low),
                      *(a[s, p, q, m] if kept else a[s, 0, int(m == 0), m]
                        for s in range(2) for p, q, kept in low for m in range(4))])
    _read_only(slots)
    return slots


def build_series(split: PerturbationSplit, n: int, max_order: int) -> SeriesTable:
    """Fill the ground-state table with every order p + q <= max_order, one fused step per order.

    The series lives in one complex work vector ``w`` that holds the dressed
    couplings, then E and A; the table's arrays are views of it.  Each
    allowed entry of ``basis.left @ v @ basis.right``, v = va or vc of the
    split, has one nonzero term: a probe phase (ua, uc or a conjugate) times
    one entry of the basis, taken on Python complex numbers.  Each order is
    one gather-multiply-reduce over its terms in ``_order_plan``, whose norm
    terms are scaled by P first; ``A[1]`` is P A[0].  Where the split is the
    object of the last table's build, one of order max_order is that table and
    one of lower order is gathered from its work vector, with no basis looked
    up.  ValueError unless n is the integer 1 and max_order an integer >= 0,
    and, where the memo misses, as ``dressed_basis`` refuses the split; the
    out-of-range PoleError where an entry of E or A leaves double range.
    """
    global _SERIES_MEMO
    # n stays here and in evaluate_energy only as perfbench/series_loop.py passes it
    if not (_is_nonnegative_int(n) and n == 1):
        raise ValueError(f"only the ground state, the integer n = 1, is built, got n = {n!r}")
    if not _is_nonnegative_int(max_order):
        raise ValueError(f"max_order must be an integer >= 0, got {max_order!r}")
    size = max_order + 1
    last_split, last = _SERIES_MEMO
    if last_split is split and max_order <= last.order:
        if max_order == last.order:
            return last
        w = last.E.base[_prefix_slots(last.order, max_order)]  # the work vector E views
        _read_only(w)
        return SeriesTable(last.basis, max_order, *_layout(w, size)[1:])
    basis = dressed_basis(split)
    ua, uc, x, y = split.ua, split.uc, split.x, split.y
    a01, a10, c23, c32 = ua.conjugate(), ua, uc.conjugate(), uc
    w = np.zeros(_COUPLINGS + 9 * size * size, dtype=complex)
    _, e, a = _layout(w, size)
    # Each is one rounded product, as in the matrix product; + 0j turns a -0
    # part into the +0 that the matrix product's sum gives.
    left, right = basis.left.tolist(), basis.right.tolist()
    w[:_COUPLINGS] = [a01 * right[1][1] + 0j, a01 * right[1][2] + 0j,
                      left[1][1] * a10 + 0j, left[2][1] * a10 + 0j,
                      left[1][2] * c23 + 0j, left[2][2] * c23 + 0j,
                      c32 * right[2][1] + 0j, c32 * right[2][2] + 0j]
    # P of the module docstring; model.split makes y = conj(x), 0 only with the pump off
    f_a = a01 / a10 * (x / y if y else 1.0)
    phase = np.array([1.0, f_a, f_a, f_a * (c23 / c32)])
    a[0, 0, 0, 0] = 1.0  # E[0, 0] is the ground eigenvalue 0, as w starts
    divisor = -basis.eigenvalues
    divisor[0] = 1.0  # E and the diagonal entry, which the norm expansion fixes
    coef, bra, steps = _order_plan(max_order)
    with in_double_range(), numpy_range():
        coef = coef * phase[bra]
        for terms, left, right, starts, out, div in steps:
            w[out] = np.add.reduceat(w[left] * w[right] * coef[terms], starts) / divisor[div]
        np.multiply(a[0], phase, out=a[1])
    _read_only(w)  # then its views, which keep the flag they were made with
    table = SeriesTable(basis, max_order, *_layout(w, size)[1:])
    _SERIES_MEMO = split, table
    return table


def power_sum(c: np.ndarray, x, y):
    """sum over (p, q) of c[p, q] x**p y**q, for scalar or array x and y."""
    xp = np.asarray(x)[..., None] ** np.arange(c.shape[0])
    yq = np.asarray(y)[..., None] ** np.arange(c.shape[1])
    return np.add.reduce((xp @ c) * yq, axis=-1)


def evaluate_energy(table: SeriesTable, n: int, eps_a: float, eps_c: float,
                    total_order: int) -> complex:
    """Partial sum of the ground eigenvalue series.

    ValueError unless n is the integer 1, total_order an integer order the table holds,
    and eps_a and eps_c finite numbers (a bool or an int past double range is not);
    the out-of-range PoleError where a power or the sum leaves double range.
    """
    if not (_is_finite(eps_a, math.isfinite) and _is_finite(eps_c, math.isfinite)):
        raise ValueError(f"eps_a and eps_c must be finite, got {eps_a!r} and {eps_c!r}")
    if not (_is_nonnegative_int(n) and n == 1 and _is_nonnegative_int(total_order)
            and total_order <= table.order):
        raise ValueError(f"total_order {total_order!r} of state {n!r} is not in this table: "
                         f"it holds integer orders 0..{table.order} of the ground state n = 1")
    e = table.E[:total_order + 1, :total_order + 1]
    if total_order < table.order:  # entries above the built order are already zeros
        d = np.arange(total_order + 1)
        e = np.where(d[:, None] + d <= total_order, e, 0.0)
    with in_double_range(), numpy_range():
        return complex(power_sum(e, eps_a, eps_c))
