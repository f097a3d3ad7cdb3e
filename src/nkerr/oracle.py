"""Independent ground truth: dense eigensolution, propagation, Taylor extraction.

Everything here is deliberately decoupled from the perturbation engine so the
two can cross-check each other: eigensystems come from LAPACK or from Newton's
method on the characteristic polynomial, time evolution from spectral
decomposition, and series coefficients from Cauchy integrals on a
polycircle, whose trapezoidal rule is one 2-D FFT with an error falling
exponentially in the node count (Lyness & Moler, SIAM J. Numer. Anal. 4
(1967) 202; Bornemann, Found. Comput. Math. 11 (2011) 1).  The extractor
and the Newton sampler check themselves and raise :class:`StepError` when
the extraction radius is badly chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model, perturb
from .errors import ConvergenceError, DegeneracyError, StepError, TrackingError
from .model import PerturbationSplit, SystemConfig

RESIDUAL_TOL = 1e-12
TRACK_STEPS = 32  # fixed path resolution keeps tracking bit-reproducible
NODES = 24
RADIUS_FRACTION = 0.12
NEWTON_STEPS = 6
NEWTON_RTOL = 16 * float(np.finfo(float).eps)  # a few ulps
TAIL_RTOL = math.sqrt(float(np.finfo(float).eps))


@dataclass(frozen=True)
class EigenSolution:
    """All four eigenpairs, sorted by ascending real part then imaginary part."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unit columns, eigenvectors[:, k] pairs with eigenvalues[k]
    residuals: np.ndarray


def _is_hermitian(h: np.ndarray) -> bool:
    return bool(np.array_equal(h, h.conj().T))


def exact_eigensystem(h: np.ndarray) -> EigenSolution:
    """Dense eigensolution with an explicit residual contract."""
    try:
        if _is_hermitian(h):
            w, v = np.linalg.eigh(h)
            w = w.astype(complex)
        else:
            w, v = np.linalg.eig(h)
            order = np.lexsort((w.imag, w.real))
            w = w[order]
            v = v[:, order]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    residuals = np.array([np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) for k in range(4)])
    bound = RESIDUAL_TOL * max(1.0, float(np.linalg.norm(h)))
    if residuals.max() > bound:
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds contract {bound:.3e}")
    return EigenSolution(eigenvalues=w, eigenvectors=v, residuals=residuals)


def propagate(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) @ psi0 via spectral decomposition (non-defective inputs)."""
    sol = exact_eigensystem(h)
    v = sol.eigenvectors
    coeffs = np.linalg.solve(v, np.asarray(psi0, dtype=complex))
    return v @ (np.exp(-1j * sol.eigenvalues * t) * coeffs)


def track_ground(config: SystemConfig, eps_scale: float, steps: int = TRACK_STEPS) -> complex:
    """Eigenvalue continuously connected to bare level 1 as the probes ramp on.

    Walks ``steps`` uniform increments of the overall probe strength from 0
    to ``eps_scale``, following the eigenvector of maximal overlap with the
    previous step.
    """
    sp = model.split(config)
    try:
        perturb.dressed_basis(sp.h0)
    except DegeneracyError as exc:
        raise TrackingError(f"cannot identify the ground branch: {exc}") from exc
    prev = np.zeros(4, dtype=complex)
    prev[0] = 1.0
    value = 0.0 + 0.0j
    for k in range(1, steps + 1):
        s = eps_scale * k / steps
        h = sp.h0 + (s * sp.eps_a) * sp.va + (s * sp.eps_c) * sp.vc
        sol = exact_eigensystem(h)
        overlaps = np.abs(prev.conj() @ sol.eigenvectors)
        idx = int(np.argmax(overlaps))
        if overlaps[idx] < 0.5:
            raise TrackingError(
                f"lost the ground branch at ramp step {k}/{steps}: "
                f"best overlap {overlaps[idx]:.3f} < 0.5")
        prev = sol.eigenvectors[:, idx]
        value = complex(sol.eigenvalues[idx])
    return value


def ground_eigenvalue_function(split: PerturbationSplit) -> Callable[[float, float], complex]:
    """Ground eigenvalue of ``h0 + x*va + y*vc`` as a function of (x, y), by LAPACK.

    Intended for a small neighbourhood of (0, 0), where the eigenvector with
    the largest level-1 component picks the continuation unambiguously.
    """
    h0, va, vc = split.h0, split.va, split.vc

    def f(x: float, y: float) -> complex:
        h = h0 + x * va + y * vc
        sol = exact_eigensystem(h)
        idx = int(np.argmax(np.abs(sol.eigenvectors[0, :])))
        return complex(sol.eigenvalues[idx])
    return f


def ground_eigenvalue_newton(split: PerturbationSplit) -> Callable[..., np.ndarray]:
    """Ground eigenvalue of ``h0 + x*va + y*vc`` on broadcast arrays of (x, y).

    ``NEWTON_STEPS`` Newton steps on det(H - lambda) from lambda = 0, with the
    determinant and its derivative from the tridiagonal three-term
    recurrence, whose terms all carry small relative errors: the tiny root
    keeps a small *relative* error, as Taylor extraction at a small radius
    needs.  The callable raises :class:`StepError` if a last update exceeds
    ``NEWTON_RTOL`` of its root.
    """
    h0, va, vc = split.h0, split.va, split.vc

    def f(x, y) -> np.ndarray:
        x = np.asarray(x, dtype=complex)[..., None, None]
        y = np.asarray(y, dtype=complex)[..., None, None]
        h = h0 + x * va + y * vc
        diag = np.diagonal(h, 0, -2, -1)
        off = np.diagonal(h, -1, -2, -1) * np.diagonal(h, 1, -2, -1)  # h[k,k-1] h[k-1,k]
        lam = np.zeros(diag.shape[:-1], dtype=complex)
        for _ in range(NEWTON_STEPS):
            det_prev, det = np.ones_like(lam), diag[..., 0] - lam
            der_prev, der = np.zeros_like(lam), -np.ones_like(lam)
            for k in range(1, 4):
                shifted = diag[..., k] - lam
                det, det_prev, der, der_prev = (
                    shifted * det - off[..., k - 1] * det_prev, det,
                    shifted * der - det - off[..., k - 1] * der_prev, der)
            update = det / der
            lam = lam - update
        if not np.all(np.abs(update) <= NEWTON_RTOL * np.abs(lam)):
            raise StepError("Newton iteration for the ground eigenvalue did not settle; "
                            "the extraction radius is badly chosen")
        return lam

    return f


def extraction_radius(split: PerturbationSplit) -> float:
    """``RADIUS_FRACTION`` of the ground eigenvalue's distance to its nearest singularity.

    The probe couplings take the ground state to the dressed 2-3 pair at
    first order, so a pair eigenvalue at distance ``pair`` from 0 sets a
    scale ``pair`` in each variable.  Bare level 4 reaches the ground branch
    only through x*y (level 1 to the pair by x, the pair to level 4 by y), so
    its eigenvalue lambda_4 limits x*y to about |lambda_4| * pair, a scale
    sqrt(|lambda_4| * pair) in each variable, not |lambda_4|.
    """
    lam = np.abs(perturb.dressed_basis(split.h0).eigenvalues)
    pair = float(min(lam[1], lam[2]))
    return RADIUS_FRACTION * min(pair, math.sqrt(float(lam[3]) * pair))


def taylor_coefficients(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        radius: float, nodes: int = NODES) -> np.ndarray:
    """Taylor coefficients c[p, q] of x**p y**q in f about (0, 0), for p, q < nodes/2.

    ``f`` is called once, on the (nodes, nodes) polycircle x = radius*w**j,
    y = radius*w**k with w = exp(2*pi*i/nodes), and returns the samples F;
    c[p, q] = fft2(F)[p, q] / nodes**2 / radius**(p+q), exact for monomials
    of degree below nodes in each variable, else aliased by coefficients
    ``nodes`` orders higher.  The scaled tail |c[p, q]| radius**(p+q) with p
    or q >= nodes/2 must stay below ``TAIL_RTOL`` = sqrt(eps) of the largest
    scaled coefficient, which bounds the aliasing error of the kept ones by
    about the tail squared; else :class:`StepError` is raised.
    """
    if nodes < 4 or nodes % 2:
        raise ValueError(f"nodes must be an even integer >= 4, got {nodes!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    circle = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    x, y = np.meshgrid(circle, circle, indexing="ij")
    scaled = np.fft.fft2(np.asarray(f(x, y), dtype=complex)) / nodes**2
    size = np.abs(scaled)
    half = nodes // 2
    tail = max(size[half:, :].max(), size[:half, half:].max())
    if not tail <= TAIL_RTOL * size.max():
        raise StepError(f"Taylor tail {tail:.3e} is not below {TAIL_RTOL:.1e} of the largest "
                        f"coefficient {size.max():.3e}; the extraction radius is badly chosen")
    powers = radius ** np.arange(half)
    return scaled[:half, :half] / np.outer(powers, powers)
