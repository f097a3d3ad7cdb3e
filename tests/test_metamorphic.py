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
from nkerr.errors import DegeneracyError
from conftest import make_config, numpy_draws

ORDER = 6
POW_RTOL = 8 * np.finfo(float).eps


def _transformed(cfg, g=1.0, delta=1.0, gamma=1.0):
    """``cfg`` with every coupling, detuning and decay rate multiplied by g, delta and gamma."""
    modes = {f"mode_{m.label}": dataclasses.replace(m, g=m.g * g, delta=m.delta * delta)
             for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)}
    return dataclasses.replace(cfg, **modes, gamma=tuple(gamma * rate for rate in cfg.gamma))


def _turned(cfg, rng):
    """``cfg`` with each coupling turned by its own random phase."""
    return dataclasses.replace(cfg, **{
        f"mode_{m.label}": dataclasses.replace(m, g=m.g * cmath.exp(2j * np.pi * rng.random()))
        for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)})


def _draws(n=400):
    """``n`` seeded (configuration, k) pairs: half lossy, about a quarter with random
    coupling phases, and lambda = 2**k with k in [-20, 20], so nothing under- or
    overflows."""
    rng = np.random.default_rng(7)
    draws = []
    for i in range(n):
        cfg = validate._random_config(numpy_draws(rng), lossy=i % 2 == 1)
        if rng.random() < 0.25:
            cfg = _turned(cfg, rng)
        draws.append((cfg, int(rng.integers(-20, 21))))
    return draws


DRAWS = _draws()
LOSSLESS = [(cfg, k) for cfg, k in DRAWS if cfg.is_hermitian]
# each draw and the draw with its couplings turned, which changes their bits but not |g|**2
_GAUGE_RNG = np.random.default_rng(8)
GAUGED = [(cfg, _turned(cfg, _GAUGE_RNG)) for cfg, _ in DRAWS]


def _scaled(cfg, k):
    lam = 2.0**k
    return _transformed(cfg, lam, lam, lam)


def _scale_alike(got, want):
    """Whether each value of ``got`` is its ``want`` bit for bit or to ``POW_RTOL`` of it."""
    return all(g == w or abs(g - w) <= POW_RTOL * abs(w) for g, w in zip(got, want))


def _order_scale(k, offset, order=ORDER):
    """lambda**(offset - p - q) on the (p, q) grid of a series table, exactly; 1
    past the table's order, where its entries are zero."""
    p, q = np.indices((order + 1, order + 1))
    return np.ldexp(1.0, np.where(p + q <= order, k * (offset - p - q), 0))


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
    # E[p, q] is an energy per eps_a**p eps_c**q, A[s, p, q] an amplitude per it
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


# Units far from 1: every gate judges a size against the entries it sums, so
# the series of a draw are refused in no unit where they are accepted in one.
# At order 4 every entry stays a normal double down to 2**(300 * -3).
WIDE_K = (-150, -100, -60, -30, -26, 100, 300)
WIDE_ORDER = 4


@pytest.mark.parametrize("series", [lambda sp: perturb.build_series(sp, 1, WIDE_ORDER).E,
                                    lambda sp: oracle.ground_series(sp, WIDE_ORDER)],
                         ids=["build_series", "ground_series"])
def test_energy_series_scale_bit_for_bit_in_units_far_from_one(series):
    scales = {k: _order_scale(k, 1, WIDE_ORDER) for k in WIDE_K}
    for cfg, _ in DRAWS:
        want = series(model.split(cfg))
        for k, scale in scales.items():
            assert np.array_equal(series(model.split(_scaled(cfg, k))), want * scale), (cfg, k)


def _near_threshold_blocks(n=400):
    """``n`` seeded splits without probes, half lossy, in units 2**U(-4, 4), each
    with one gap within a factor of 2 of ``DEGENERACY_TOL`` times its pump
    block's norm: bare level 4 near bare level 1 or near a dressed level, the
    dressed pair near each other under a weak pump, or a dressed level near 0."""
    rng = np.random.default_rng(9)
    blocks = []
    for i in range(n):
        unit = 2.0 ** rng.uniform(-4, 4)
        gamma = rng.uniform(0, 1, 3) * unit if i % 2 else np.zeros(3)
        d1, d2 = rng.uniform(-1, 1, 2) * unit
        x = rng.uniform(0.1, 1) * unit * cmath.exp(2j * np.pi * rng.random())
        t = (2.0 ** rng.uniform(-1, 1) * perturb.DEGENERACY_TOL
             * cmath.exp(2j * np.pi * rng.random()))
        kind = i // 2 % 4
        if kind == 1:
            x, d2, gamma[1] = x * abs(t), d1 + abs(t) * unit, gamma[0]
        h11, h22 = complex(d1 - 1j * gamma[0]), complex(d2 - 1j * gamma[1])
        if kind == 2:  # h11 h22 = |x|**2 (1 + t)
            h11 = abs(x) ** 2 / h22 * (1 + t)
        block = np.array([[h11, x], [x.conjugate(), h22]])
        norm = np.linalg.norm(block)
        if kind == 0:
            h33 = t * norm
        elif kind == 3:
            h33 = np.linalg.eigvals(block)[rng.integers(2)] + t * norm
        else:
            h33 = rng.uniform(-1, 1) * unit - 1j * gamma[2]
        blocks.append(model.PerturbationSplit(h11, h22, complex(h33), x, x.conjugate(),
                                              1 + 0j, 1 + 0j, 0.0, 0.0))
    return blocks


def _in_units(sp, scale):
    """The split with its pump block and level 4 multiplied by ``scale``."""
    return sp._replace(**{f: scale * getattr(sp, f) for f in ("h11", "h22", "h33", "x", "y")})


def test_dressed_basis_refuses_a_block_in_every_unit_or_in_none():
    refused = 0
    for sp in _near_threshold_blocks():
        try:
            want = perturb.dressed_basis(sp)
        except DegeneracyError:
            want = None
        refused += want is None
        for k in range(-60, 61):
            try:
                got = perturb.dressed_basis(_in_units(sp, 2.0**k))
            except DegeneracyError:
                assert want is None, (sp, k)
                continue
            assert want is not None, (sp, k)
            assert np.array_equal(got.eigenvalues, 2.0**k * want.eigenvalues), (sp, k)
    assert 100 < refused < 300  # the blocks straddle the threshold


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


# -- coupling-phase gauge ----------------------------------------------------
# Worst differences on GAUGED, in eps of each value or of the largest entry
# of an array (numpy 2.4, x86-64): chi 12.7, L/S/K 10.7, E 23.2, ground 15.7.
GAUGE_EPS = {"chi": 24, "kerr": 24, "series": 48, "ground": 32}


def _eps_apart(got, want, scale):
    """max |got - want| / scale in units of the double epsilon."""
    return np.max(np.abs(np.subtract(got, want)) / scale) / np.finfo(float).eps


def test_susceptibilities_and_kerr_coefficients_ignore_the_coupling_phases():
    for cfg, turned in GAUGED:
        want = suscept.susceptibility_point(cfg)
        got = suscept.susceptibility_point(turned)
        assert _eps_apart(got, want, np.abs(want)) <= GAUGE_EPS["chi"], cfg
        if cfg.is_hermitian:
            want = effective.coefficients(cfg)
            got = effective.coefficients(turned)
            assert _eps_apart(got, want, np.abs(want)) <= GAUGE_EPS["kerr"], cfg


def test_energy_series_ignore_the_coupling_phases():
    for cfg, turned in GAUGED:
        for name, series in (("series", lambda sp: perturb.build_series(sp, 1, ORDER).E),
                             ("ground", lambda sp: oracle.ground_series(sp, ORDER))):
            want = series(model.split(cfg))
            got = series(model.split(turned))
            assert _eps_apart(got, want, np.max(np.abs(want))) <= GAUGE_EPS[name], (name, cfg)


# -- reversal ----------------------------------------------------------------

def test_reversing_every_detuning_turns_each_chi_into_minus_its_conjugate():
    for cfg, _ in DRAWS:
        expected = tuple(-chi.conjugate() for chi in suscept.susceptibility_point(cfg))
        assert suscept.susceptibility_point(_transformed(cfg, delta=-1.0)) == expected, cfg


def test_reversing_every_detuning_flips_the_sign_of_the_kerr_coefficients():
    for cfg, _ in LOSSLESS:
        expected = tuple(-value for value in effective.coefficients(cfg))
        assert effective.coefficients(_transformed(cfg, delta=-1.0)) == expected, cfg
