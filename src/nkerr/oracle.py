"""Independent ground truth: dense eigensolution, propagation, exact Taylor series.

Everything here is deliberately decoupled from the perturbation engine so the
two can cross-check each other: eigensystems come from LAPACK, time evolution
from spectral decomposition, and the Taylor coefficients of the ground
eigenvalue from its characteristic polynomial.  The ground branch has one
rule: the one eigenvalue in a Bauer-Fike disc around 0 that no other
eigenvalue can reach.  The matrix is tridiagonal, so det(H - E) is a
continuant in E and the squared probe strengths, and its root is solved
order by order on truncated double power series (Brent & Kung, J. ACM 25
(1978) 581): each coefficient is exact to rounding relative to the terms it
sums, not to itself, so a weak pump (G_b << |h11 h22|), which would lose the
cross entry, is refused; there is no step size, radius or sampling to
choose.  ``ground_series``, ``phase_comparison`` and
``ground_eigenvalue_function`` call ``perturb.dressed_basis`` as a gate (the
degeneracy test, a split's fields, and the disc's radius and gap); a gate
decides whether they go on, never a value, and they share no other code with
the perturbation side, so the continuant and the Rayleigh-Schrodinger
recursion stay two independent routes to the same coefficients.
``phase_comparison`` is where the two sides meet: it sets the effective phase
of ``effective`` against exact propagation, for ``nkerr evolve`` and
acceptance criterion 6, and takes its gate, its matrix and its bound from one split.
It alone imports ``effective``, when it runs, so a series run does not load it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import model, perturb
from .errors import ConvergenceError, TrackingError
from .model import PerturbationSplit, SystemConfig

RESIDUAL_TOL = 1e-12
COND_TOL = 1e8  # the largest eigenvector condition number that propagate accepts
WEAK_PUMP_TOL = 1e-9  # the largest r = eps |h11 h22| / G_b that ground_series accepts

_BARE_GROUND = np.array([1, 0, 0, 0], dtype=complex)  # bare level 1


class EigenSolution(NamedTuple):
    """All four eigenpairs, sorted by ascending real part then imaginary part."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unit columns, eigenvectors[:, k] pairs with eigenvalues[k]
    residuals: np.ndarray


def exact_eigensystem(h: np.ndarray) -> EigenSolution:
    """Dense eigensolution with an explicit residual contract; exactly Hermitian h takes eigh.

    Raises ConvergenceError where LAPACK fails or a residual, NaN included,
    exceeds ``RESIDUAL_TOL`` times the Frobenius norm of h, which has h's unit;
    and the out-of-range PoleError before LAPACK runs where that norm is not
    finite (h holds a NaN or an inf, or its norm leaves double range).
    ValueError unless h is a 4 x 4 numpy array of numbers of a dtype that
    numpy.linalg takes: integers, float32/64 or complex64/128.
    """
    if not (isinstance(h, np.ndarray) and h.shape == (4, 4)
            and (h.dtype.kind in "iu" or h.dtype.char in "fdFD")):
        raise ValueError(f"h must be a 4 x 4 numpy array of numbers, got {h!r}")
    bound = RESIDUAL_TOL * math.hypot(*np.abs(h).flat)  # squares no entry
    model.check_finite(bound)
    try:
        if (h == h.conj().T).all():
            w, v = np.linalg.eigh(h)
            w = w.astype(complex)
        else:
            w, v = np.linalg.eig(h)
            order = np.lexsort((w.imag, w.real))
            w = w[order]
            v = v[:, order]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    r = h @ v - v * w
    residuals = np.hypot.reduce(np.abs(r), axis=0)  # column norms; squares no entry
    if not residuals.max() <= bound:
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds contract {bound:.3e}")
    return EigenSolution(eigenvalues=w, eigenvectors=v, residuals=residuals)


def propagate(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) @ psi0 via spectral decomposition (non-defective inputs).

    ValueError unless t is a finite number (a bool or an int past double range is not), psi0
    a finite vector of 4 entries and h a 4 x 4 array ``exact_eigensystem`` takes; the out-of-range
    PoleError where -i*lambda*t or its exp leaves double range.
    ConvergenceError where the eigenvector matrix's 1-norm condition number (at most 4 for a
    Hermitian h) exceeds ``COND_TOL`` = 1e8, as for a defective h: psi0's coefficients are lost.
    """
    if (time := model._finite(t, float)) is None:
        raise ValueError(f"t must be finite, got {t!r}")
    state = model._finite_array(psi0, complex)
    if state is None or state.shape != (4,):
        raise ValueError(f"psi0 must be finite, with 4 entries, got {psi0!r}")
    sol = exact_eigensystem(h)
    v = sol.eigenvectors
    if not (cond := np.linalg.cond(v, 1)) <= COND_TOL:  # no SVD; a NaN is refused too
        raise ConvergenceError(f"eigenvector condition number {cond:.3e} exceeds {COND_TOL:.0e}")
    coeffs = np.linalg.solve(v, state)
    with model.in_double_range(), model.numpy_range():
        phases = np.exp(-1j * sol.eigenvalues * time)
    return v @ (phases * coeffs)


def phase_comparison(cfg: SystemConfig, t: float) -> tuple[float, float, float, float]:
    """Effective and propagated phase of the relaxed ground state at time t.

    Returns the effective phase -(L n_a + S n_a^2 + K n_a n_c) t, the phase
    of the level-1 amplitude under exact propagation, their difference
    wrapped to [-pi, pi) and its leakage bound 10 eps^2, all four finite.  With
    eps the larger probe strength, the bound rules anything out only for
    eps < sqrt(pi/10) ~ 0.56, where it is below pi.  It is not unit-free, but a
    unit-free bound changes the bytes ``nkerr evolve`` prints, so it waits for that.
    Raises DegeneracyError unless the unperturbed spectrum is cleanly gapped,
    and the out-of-range PoleError where t is too large for either phase.
    It imports ``effective``, which no other function here uses.
    """
    from . import effective

    co = effective.coefficients(cfg)
    sp = model.split(cfg)
    perturb.dressed_basis(sp)
    eff_phase = -effective.phase_angle(co, cfg.mode_a.n, cfg.mode_c.n, t)
    with model.in_double_range():
        bound = 10.0 * max(sp.eps_a, sp.eps_c) ** 2
    model.check_finite(bound)
    amp = complex(propagate(sp.reconstruct(), _BARE_GROUND, t)[0])
    oracle_phase = math.atan2(amp.imag, amp.real)
    diff = (oracle_phase - eff_phase + math.pi) % (2.0 * math.pi) - math.pi
    return eff_phase, oracle_phase, diff, bound


def ground_eigenvalue_function(split: PerturbationSplit) -> Callable[[float, float], complex]:
    """Ground eigenvalue of ``h0 + x*va + y*vc`` as a function of (x, y), by LAPACK.

    The branch is certified by a Bauer-Fike disc (Numer. Math. 2, 137
    (1960)): with h0 = R diag(lambda) R^-1, R = ``dressed_basis(split).right``,
    every eigenvalue lies within r = kappa(R) max(|x ua|, |y uc|) of an
    eigenvalue of h0, since va and vc act on disjoint level pairs, ua and uc
    being the only entries a split holds, and so ||x*va + y*vc|| is that
    maximum in the 1-norm (max(|x|, |y|) for the unit phases ``model.split``
    makes).  Where r < gap/2, with gap the smallest |lambda_k| over k >= 1,
    the disc |E| <= r holds exactly one eigenvalue all along t*(x, y) for t
    in [0, 1]: the branch connected to 0, which each call returns after
    solving the one matrix.  R is the identity outside its 2x2 block R2, so
    kappa = ||R||_1 ||R^-1||_1 = max(1, column sums of |R2|) max(1, column
    sums of |R2^-1|); it and gap are computed once per factory call, on
    Python floats.  Elsewhere the call raises :class:`TrackingError` naming r
    and gap/2.  ValueError unless x and y are finite numbers (a bool or an int
    past double range is not); the factory raises what ``dressed_basis``
    raises for the split, DegeneracyError where h0 is near-degenerate and
    ValueError for a split that is not nine finite numbers.
    """
    basis = perturb.dressed_basis(split)

    def norm1(m: np.ndarray) -> float:  # of a matrix that is the identity outside m[1:3, 1:3]
        (a, b), (c, d) = (row[1:3] for row in m.tolist()[1:3])
        return max(1.0, abs(a) + abs(c), abs(b) + abs(d))

    kappa = norm1(basis.right) * norm1(basis.left)
    half_gap = min(map(abs, basis.eigenvalues.tolist()[1:])) / 2.0
    unit_a, unit_c = abs(split.ua), abs(split.uc)

    def f(x: float, y: float) -> complex:
        if (a := model._finite(x, complex)) is None or (c := model._finite(y, complex)) is None:
            raise ValueError(f"x and y must be finite, got {x!r} and {y!r}")
        r = kappa * max(abs(a) * unit_a, abs(c) * unit_c)
        if r < half_gap:
            sol = exact_eigensystem(split._replace(eps_a=a, eps_c=c).reconstruct())
            inside = [e for e in sol.eigenvalues.tolist() if abs(e) <= r]
            if len(inside) == 1:
                return inside[0]
        raise TrackingError(f"ground branch not certified: the Bauer-Fike radius r = {r:.3e} "
                            f"must be below gap/2 = {half_gap:.3e} and hold one eigenvalue")
    return f


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


def ground_series(split: PerturbationSplit, order: int) -> np.ndarray:
    """Taylor coefficients c[p, q] of x**p y**q in the exact ground eigenvalue.

    The eigenvalue is that of ``h0 + x*va + y*vc`` continuously connected to
    0 at x = y = 0; c has the (order+1, order+1) layout of
    ``build_series(split, 1, order).E`` and its entries with p + q > order
    are zero.  Only the products P_a, G_b, P_c of the off-diagonal pairs
    enter det(H - E), so E is a double series in u = x**2 and v = y**2, the
    root with E(0, 0) = 0 of the continuant f1 = -E,
    f2 = (h11 - E) f1 - P_a u, f3 = (h22 - E) f2 - G_b f1,
    f4 = (h33 - E) f3 - P_c v f2.  Each pass of E <- E - f4(E) / f4'(0)
    fixes one more total degree in (u, v); the slope
    f4'(0) = -(h11 h22 - G_b) h33 is a number, so no series is divided.
    The cross entries sum terms |h11 h22| / G_b times their own size, so a
    weak pump is refused where r = eps |h11 h22| / G_b > ``WEAK_PUMP_TOL``
    (eps = 2**-52) by ``model.check_pump``, with the ``PUMP`` pole at G_b = 0.
    On the 40 seeded draws of its test, half lossy, g_b down to 1e-300, the
    chi3_cross read off E was within 3.5 r of the closed form, relative.
    Raises :class:`DegeneracyError` where the unperturbed spectrum is
    near-degenerate, which includes a vanishing slope, ValueError unless order
    is an integer >= 0 and as ``perturb.dressed_basis`` refuses the split, and
    the out-of-range PoleError where a pass overflows or the slope underflows
    to 0.
    """
    if not model._is_nonnegative_int(order):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    perturb.dressed_basis(split)
    h11, h22, h33, ua, uc = split.h11, split.h22, split.h33, split.ua, split.uc
    n = order // 2 + 1  # terms per axis in (u, v)
    mul = series_product

    one, u, e = np.zeros((3, n, n), dtype=complex)
    one[0, 0] = 1.0
    u[1:2, 0] = 1.0
    v = u.T
    with model.in_double_range(), model.numpy_range():
        p_a, g_b, p_c = ua.conjugate() * ua, split.x * split.y, uc.conjugate() * uc
        pair = h11 * h22
        model.check_finite(p_a, g_b, p_c, pair)  # Python's complex product does not raise
        model.check_pump(abs(g_b), abs(pair), WEAK_PUMP_TOL)
        slope = -(pair - g_b) * h33
        model.check_finite(slope)
        for _ in range(n - 1):
            f1 = -e
            f2 = mul(h11 * one - e, f1) - p_a * u
            f3 = mul(h22 * one - e, f2) - g_b * f1
            f4 = mul(h33 * one - e, f3) - p_c * mul(v, f2)
            e = e - f4 / slope
    c = np.zeros((order + 1, order + 1), dtype=complex)
    c[::2, ::2] = e
    return c
