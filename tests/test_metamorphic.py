"""Exact metamorphic relations of the closed forms and the series.

Scaling every coupling, detuning and decay rate by a power of two lambda
scales every product and quotient of them exactly, and negating every
detuning conjugates every complex detuning delta_j - i*gamma_j up to sign.
So each relation holds bit for bit, and is asserted with ``==``: no
reference route and no tolerance.  They catch a wrong power of a
denominator, a missing ``1j`` and a constant that does not scale.

One operation is not exact in this sense: CPython's float ``**`` calls the C
library's ``pow``, which glibc rounds to within 0.52 ulp rather than
correctly, so (2**k x)**2 and 2**(2k) x**2 can differ by an ulp.  The scalar
closed forms raise Python floats to powers, so their scaling relations allow
``POW_RTOL`` of the value where the bits differ.  With glibc 2.36, 2 of the
400 chi draws and 1 of the 200 L, S, K draws differ, by at most 5 eps; the
sweep's fixed configuration has no such ulp, and is compared bit for bit.
"""

import cmath
import dataclasses

import numpy as np
import pytest

from nkerr import effective, model, oracle, perturb, suscept, validate
from conftest import make_config

ORDER = 6
POW_RTOL = 8 * np.finfo(float).eps


def _transformed(cfg, g=1.0, delta=1.0, gamma=1.0):
    """``cfg`` with every coupling, detuning and decay rate multiplied by g, delta and gamma."""
    modes = {f"mode_{m.label}": dataclasses.replace(m, g=m.g * g, delta=m.delta * delta)
             for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)}
    return dataclasses.replace(cfg, **modes, gamma=tuple(gamma * rate for rate in cfg.gamma))


def _draws(n=400):
    """``n`` seeded (configuration, k) pairs: half lossy, about a quarter with random
    coupling phases, and lambda = 2**k with k in [-20, 20], so nothing under- or
    overflows."""
    rng = np.random.default_rng(7)
    draws = []
    for i in range(n):
        cfg = validate._random_config(rng, lossy=i % 2 == 1)
        if rng.random() < 0.25:
            cfg = dataclasses.replace(cfg, **{
                f"mode_{m.label}": dataclasses.replace(
                    m, g=m.g * cmath.exp(2j * np.pi * rng.random()))
                for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)})
        draws.append((cfg, int(rng.integers(-20, 21))))
    return draws


DRAWS = _draws()
LOSSLESS = [(cfg, k) for cfg, k in DRAWS if cfg.is_hermitian]


def _scaled(cfg, k):
    lam = 2.0**k
    return _transformed(cfg, lam, lam, lam)


def _scale_alike(got, want):
    """Whether each value of ``got`` is its ``want`` bit for bit or to ``POW_RTOL`` of it."""
    return all(g == w or abs(g - w) <= POW_RTOL * abs(w) for g, w in zip(got, want))


def _order_scale(k, offset):
    """lambda**(offset - p - q) on the (p, q) grid of a series table, exactly."""
    p, q = np.indices((ORDER + 1, ORDER + 1))
    return np.ldexp(1.0, k * (offset - p - q))


# -- scaling -----------------------------------------------------------------

def test_susceptibilities_scale_as_one_over_lambda_and_its_cube():
    for cfg, k in DRAWS:
        lam = 2.0**k
        chi1, chi3_self, chi3_cross = suscept.susceptibility_point(cfg)
        expected = (chi1 / lam, chi3_self / lam**3, chi3_cross / lam**3)
        assert _scale_alike(suscept.susceptibility_point(_scaled(cfg, k)), expected), (cfg, k)


def test_kerr_coefficients_scale_as_lambda():
    assert len(LOSSLESS) == len(DRAWS) // 2
    for cfg, k in LOSSLESS:
        expected = tuple(2.0**k * value for value in effective.coefficients(cfg))
        assert _scale_alike(effective.coefficients(_scaled(cfg, k)), expected), (cfg, k)


def test_series_coefficients_scale_with_their_order():
    # E[s, p, q] is an energy per eps_a**p eps_c**q, A[s, p, q] an amplitude per it
    for cfg, k in DRAWS:
        table = perturb.build_series(model.split(cfg), 1, ORDER)
        scaled = perturb.build_series(model.split(_scaled(cfg, k)), 1, ORDER)
        assert np.array_equal(scaled.E, table.E * _order_scale(k, 1)), (cfg, k)
        assert np.array_equal(scaled.A, table.A * _order_scale(k, 0)[..., None]), (cfg, k)


def test_exact_ground_series_scales_like_the_energy_corrections():
    for cfg, k in DRAWS:
        series = oracle.ground_series(model.split(cfg), ORDER)
        scaled = oracle.ground_series(model.split(_scaled(cfg, k)), ORDER)
        assert np.array_equal(scaled, series * _order_scale(k, 1)), (cfg, k)


# the dyadic grids of test_suscept's bit-for-bit sweep test, whose poles sit on grid points
@pytest.mark.parametrize("axis", ["da", "db", "dc"])
@pytest.mark.parametrize("gamma, n_c", [((0.0, 0.0, 0.0), 1), ((0.12, 0.2, 0.07), 1),
                                        ((0.0, 0.0, 0.0), 0)])
def test_sweep_scales_row_by_row_and_keeps_its_poles(axis, gamma, n_c):
    cfg = make_config(0.012, 0.5, 0.009, 2, 1, n_c, 0.5, 0.5, 0.25, gamma=gamma)
    grid = suscept.sweep_grid(-1.0, 1.0, 257)
    whole = suscept.sweep_at(cfg, axis, grid)
    for k in (-20, -7, 3, 20):
        lam = 2.0**k
        scaled = suscept.sweep_at(_scaled(cfg, k), axis, lam * grid)
        assert np.array_equal(scaled.pole, whole.pole), k
        for name, power in (("chi1", 1), ("chi3_self", 3), ("chi3_cross", 3)):
            assert np.array_equal(getattr(scaled, name), getattr(whole, name) / lam**power,
                                  equal_nan=True), (name, k)


# -- reversal ----------------------------------------------------------------

def test_reversing_every_detuning_turns_each_chi_into_minus_its_conjugate():
    for cfg, _ in DRAWS:
        expected = tuple(-chi.conjugate() for chi in suscept.susceptibility_point(cfg))
        assert suscept.susceptibility_point(_transformed(cfg, delta=-1.0)) == expected, cfg


def test_reversing_every_detuning_flips_the_sign_of_the_kerr_coefficients():
    for cfg, _ in LOSSLESS:
        expected = tuple(-value for value in effective.coefficients(cfg))
        assert effective.coefficients(_transformed(cfg, delta=-1.0)) == expected, cfg
