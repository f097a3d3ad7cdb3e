"""Independent ground truth: dense eigensolution, propagation, exact Taylor series.

Everything here is deliberately decoupled from the perturbation engine so the
two can cross-check each other: eigensystems come from LAPACK, time evolution
from spectral decomposition, and the Taylor coefficients of the ground
eigenvalue from its characteristic polynomial.  The ground branch has one
rule: walk from bare level 1, keeping the eigenvector of maximal overlap with
the previous one.  The matrix is tridiagonal, so det(H - E) is a continuant
in E and the squared probe strengths, and its root is solved order by order
on truncated double power series (Brent & Kung, J. ACM 25 (1978) 581): each
coefficient is exact to rounding relative to the terms it sums, not to itself,
so a weak pump (G_b << |h11 h22|), which would lose the cross entry, is
refused; there is no step size, radius or sampling to choose.  ``track_ground``,
``ground_series`` and ``phase_comparison`` call ``perturb.dressed_basis`` as a
degeneracy gate, which decides whether they go on, never a value, and share no
other code with the perturbation side, so the continuant and the
Rayleigh-Schrodinger recursion stay two independent routes to the same
coefficients.  ``phase_comparison`` is where the two sides meet: it sets
the effective phase of ``effective`` against exact propagation, for ``nkerr evolve``
and acceptance criterion 6, and takes its gate, its matrix and its bound from one split.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import effective, model, perturb
from .errors import ConvergenceError, DegeneracyError, TrackingError
from .model import PerturbationSplit, SystemConfig

RESIDUAL_TOL = 1e-12
TRACK_STEPS = 32  # fixed path resolution keeps tracking bit-reproducible
WEAK_PUMP_TOL = 1e-9  # the largest r = eps |h11 h22| / G_b that ground_series accepts

_BARE_GROUND = np.array([1, 0, 0, 0], dtype=complex)  # bare level 1, where every walk starts


class EigenSolution(NamedTuple):
    """All four eigenpairs, sorted by ascending real part then imaginary part."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unit columns, eigenvectors[:, k] pairs with eigenvalues[k]
    residuals: np.ndarray


def exact_eigensystem(h: np.ndarray) -> EigenSolution:
    """Dense eigensolution with an explicit residual contract; exactly Hermitian h takes eigh.

    Raises ConvergenceError where LAPACK fails or a residual, NaN included,
    exceeds ``RESIDUAL_TOL`` times ``model.matrix_scale(h)``, and the
    out-of-range PoleError before LAPACK runs where that scale is not finite
    (h holds a NaN or an inf, or its norm leaves double range), as no
    residual could then be judged against it.
    """
    bound = RESIDUAL_TOL * model.matrix_scale(h)
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

    ValueError unless t is a finite number (a bool or an int past double range is not) and psi0
    a finite array; the out-of-range PoleError where -i*lambda*t or its exp leaves double range.
    """
    if not model._is_finite(t, math.isfinite):
        raise ValueError(f"t must be finite, got {t!r}")
    state = model._finite_array(psi0, complex)
    if state is None:
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    sol = exact_eigensystem(h)
    v = sol.eigenvectors
    coeffs = np.linalg.solve(v, state)
    with model.in_double_range(), np.errstate(over="raise", invalid="raise"):
        phases = np.exp(-1j * sol.eigenvalues * t)
    return v @ (phases * coeffs)


def phase_comparison(cfg: SystemConfig, t: float) -> tuple[float, float, float, float]:
    """Effective and propagated phase of the relaxed ground state at time t.

    Returns the effective phase -(L n_a + S n_a^2 + K n_a n_c) t, the phase
    of the level-1 amplitude under exact propagation, their difference
    wrapped to [-pi, pi) and its leakage bound 10 eps^2, all four finite.  With
    eps the larger probe strength, the bound rules anything out only for
    eps < sqrt(pi/10) ~ 0.56, where it is below pi.
    Raises DegeneracyError unless the unperturbed spectrum is cleanly gapped,
    and the out-of-range PoleError where t is too large for either phase.
    """
    co = effective.coefficients(cfg)
    sp = model.split(cfg)
    perturb.dressed_basis(sp.h0)
    eff_phase = -effective.phase_angle(co, cfg.mode_a.n, cfg.mode_c.n, t)
    with model.in_double_range():
        bound = 10.0 * max(sp.eps_a, sp.eps_c) ** 2
    model.check_finite(bound)
    amp = complex(propagate(sp.reconstruct(), _BARE_GROUND, t)[0])
    oracle_phase = math.atan2(amp.imag, amp.real)
    diff = (oracle_phase - eff_phase + math.pi) % (2.0 * math.pi) - math.pi
    return eff_phase, oracle_phase, diff, bound


def _walk_ground(split: PerturbationSplit, path: Sequence[tuple[float, float]]) -> complex:
    """Eigenvalue reached by following bare level 1 along ``path`` of (x, y) strengths.

    Each step keeps the eigenvector of maximal overlap with the previous one;
    an overlap below 0.5 raises :class:`TrackingError`.
    """
    bra = _BARE_GROUND  # of the eigenvector followed so far
    for k, (x, y) in enumerate(path, 1):
        sol = exact_eigensystem(split._replace(eps_a=x, eps_c=y).reconstruct())
        overlaps = np.abs(bra @ sol.eigenvectors)
        idx = int(np.argmax(overlaps))
        if overlaps[idx] < 0.5:
            raise TrackingError(
                f"lost the ground branch at step {k}/{len(path)}: "
                f"best overlap {overlaps[idx]:.3f} < 0.5")
        bra = sol.eigenvectors[:, idx].conj()
    return complex(sol.eigenvalues[idx])


def track_ground(split: PerturbationSplit) -> complex:
    """Eigenvalue continuously connected to bare level 1 as the probes ramp on.

    Walks ``TRACK_STEPS`` uniform increments of both probe strengths, from 0
    to (eps_a, eps_c).
    """
    try:
        perturb.dressed_basis(split.h0)
    except DegeneracyError as exc:
        raise TrackingError(f"cannot identify the ground branch: {exc}") from exc
    scales = [k / TRACK_STEPS for k in range(1, TRACK_STEPS + 1)]
    return _walk_ground(split, [(s * split.eps_a, s * split.eps_c) for s in scales])


def ground_eigenvalue_function(split: PerturbationSplit) -> Callable[[float, float], complex]:
    """Ground eigenvalue of ``h0 + x*va + y*vc`` as a function of (x, y), by LAPACK.

    Each call walks one step from bare level 1, so it keeps the eigenvector
    with the largest level-1 component: unambiguous near (0, 0).  ValueError
    unless x and y are finite numbers (a bool or an int past double range is not).
    """
    def f(x: float, y: float) -> complex:
        if not (model._is_finite(x, cmath.isfinite) and model._is_finite(y, cmath.isfinite)):
            raise ValueError(f"x and y must be finite, got {x!r} and {y!r}")
        return _walk_ground(split, ((x, y),))
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
    weak pump is refused with the pump's PoleError (``model.PUMP``), G_b = 0
    included, where r = eps |h11 h22| / G_b > ``WEAK_PUMP_TOL`` (eps = 2**-52).
    On the 40 seeded draws of its test, half lossy, g_b down to 1e-300, the
    chi3_cross read off E was within 3.5 r of the closed form, relative.
    Raises :class:`DegeneracyError` where the unperturbed spectrum is
    near-degenerate, which includes a vanishing slope, ValueError unless order
    is an integer >= 0, and the out-of-range PoleError where a pass overflows.
    """
    if not model._is_nonnegative_int(order):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    perturb.dressed_basis(split.h0)
    h0, va, vc = split.h0, split.va, split.vc
    n = order // 2 + 1  # terms per axis in (u, v)
    mul = series_product

    one, u, e = np.zeros((3, n, n), dtype=complex)
    one[0, 0] = 1.0
    u[1:2, 0] = 1.0
    v = u.T
    with model.in_double_range(), np.errstate(over="raise", invalid="raise"):
        p_a, g_b, p_c = va[0, 1] * va[1, 0], h0[1, 2] * h0[2, 1], vc[2, 3] * vc[3, 2]
        pair = h0[1, 1] * h0[2, 2]
        if np.finfo(float).eps * abs(pair) > WEAK_PUMP_TOL * abs(g_b):
            model.raise_at_pole(model.PUMP)
        slope = -(pair - g_b) * h0[3, 3]
        for _ in range(n - 1):
            f1 = -e
            f2 = mul(h0[1, 1] * one - e, f1) - p_a * u
            f3 = mul(h0[2, 2] * one - e, f2) - g_b * f1
            f4 = mul(h0[3, 3] * one - e, f3) - p_c * mul(v, f2)
            e = e - f4 / slope
    c = np.zeros((order + 1, order + 1), dtype=complex)
    c[::2, ::2] = e
    return c
