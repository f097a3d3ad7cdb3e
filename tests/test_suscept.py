import cmath
import contextlib
import dataclasses
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkerr import cli, effective, model, oracle, perturb, suscept, validate
from nkerr.errors import PoleError, ScenarioError

import cauchy
from conftest import fuzz_scenarios, make_config, numpy_draws


# the two routes to the ground eigenvalue's Taylor array E[p, q]
_ENERGY_ROUTES = dict(build_series=lambda sp: perturb.build_series(sp, 1, 4).E,
                      ground_series=lambda sp: oracle.ground_series(sp, 4))


def _bridged(cfg, route="build_series"):
    """Susceptibilities read off a ground-eigenvalue series, independently of the closed forms."""
    return suscept.chis_from_energy(cfg, _ENERGY_ROUTES[route](model.split(cfg)))


def _phased_draws(seed, lossy):
    """20 seeded draws, each coupling turned by a random phase."""
    rng = np.random.default_rng([seed, lossy])
    draws = []
    for _ in range(20):
        cfg = validate._random_config(numpy_draws(rng), lossy=lossy)
        draws.append(dataclasses.replace(cfg, **{
            f"mode_{m}": dataclasses.replace(mode, g=mode.g * cmath.exp(2j * np.pi * rng.random()))
            for m, mode in zip("abc", (cfg.mode_a, cfg.mode_b, cfg.mode_c))}))
    return draws


# -- closed forms ------------------------------------------------------------

def test_dark_state_zeros():
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.4, 0.4, 0.9,
                      gamma=(0.1, 0.0, 0.05))  # delta_2 = 0, gamma_2 = 0
    point = suscept.susceptibility_point(cfg)
    assert point.chi1 == 0
    assert point.chi3_self == 0


def test_chi1_two_level_dispersive_limit():
    # pump off: chi1 -> |g_a|^2 / (eps_a^2 * delta) for delta_1 = delta_2 = delta
    delta = 0.8
    cfg = make_config(0.02, 0.0, 0.02, 1, 0, 1, delta, 0.0, 0.9)
    ea = model.split(cfg).eps_a
    expected = abs(cfg.mode_a.g) ** 2 / (ea**2 * delta)
    assert suscept.susceptibility_point(cfg).chi1 == pytest.approx(expected, rel=1e-13)


def test_chi1_absorptive_at_raman_resonance_with_decay():
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.0, 0.0, 0.9,
                      gamma=(0.0, 0.3, 0.0))
    val = suscept.susceptibility_point(cfg).chi1
    assert val.imag > 0
    assert abs(val.real) < 1e-6 * abs(val.imag)
    # and the eigenvalue-series route agrees
    assert val == pytest.approx(_bridged(cfg).chi1, rel=1e-8)


def test_chi3_self_sign_odd_under_detuning_flip():
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.5, 0.2, 0.9)
    flipped = make_config(0.02, 1.0, 0.02, 1, 0, 1, -0.5, -0.2, 0.9)
    a = suscept.susceptibility_point(cfg).chi3_self
    b = suscept.susceptibility_point(flipped).chi3_self
    assert a == pytest.approx(-b, rel=1e-12)


def test_chi3_cross_lorentzian_structure():
    cfg = make_config(0.05, 1.0, 0.05, 1, 0, 1, 0.0, 0.0, 0.7,
                      gamma=(0.0, 0.0, 0.4))
    val = suscept.susceptibility_point(cfg).chi3_cross
    d3 = 0.7
    g3 = 0.4
    assert val.real / val.imag == pytest.approx(d3 / g3, rel=1e-12)


def test_chi3_cross_detuning_flip_conjugates_pole():
    base = dict(ga=0.05, gb=1.0, gc=0.05, na=1, nb=0, nc=1)
    cfg = make_config(base["ga"], base["gb"], base["gc"], base["na"], base["nb"],
                      base["nc"], 0.0, 0.0, 0.7, gamma=(0.0, 0.0, 0.4))
    neg = make_config(base["ga"], base["gb"], base["gc"], base["na"], base["nb"],
                      base["nc"], 0.0, 0.0, -0.7, gamma=(0.0, 0.0, 0.4))
    a = suscept.susceptibility_point(cfg).chi3_cross
    b = suscept.susceptibility_point(neg).chi3_cross
    assert b == pytest.approx(-a.conjugate(), rel=1e-12)


def test_conjugate_transition_identity(lossy_config):
    assert suscept.susceptibility_point(lossy_config).chi3_cross == pytest.approx(
        _bridged(lossy_config, "ground_series").chi3_cross, rel=1e-9)


def test_conjugate_transition_identity_random_batch():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cfg = validate._random_config(numpy_draws(rng), lossy=True)
        assert suscept.susceptibility_point(cfg).chi3_cross == pytest.approx(
            _bridged(cfg, "ground_series").chi3_cross, rel=1e-9)


def test_hermitian_real_couplings_give_real_chis(reference_config):
    for val in suscept.susceptibility_point(reference_config):
        assert abs(val.imag) < 1e-13 * max(1.0, abs(val.real))


def test_chi_poles_raise():
    no_a = make_config(0.0, 1.0, 0.02, 1, 0, 1, 0.4, 0.1, 0.9)
    with pytest.raises(PoleError, match="eps_a"):
        suscept.susceptibility_point(no_a)
    no_c = make_config(0.02, 1.0, 0.02, 1, 0, 0, 0.4, 0.1, 0.9)
    with pytest.raises(PoleError, match="eps_c"):
        suscept.susceptibility_point(no_c)
    pole3 = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.4, 0.4, 0.0)  # delta_3 = 0, gamma_3 = 0
    with pytest.raises(PoleError, match="delta_3"):
        suscept.susceptibility_point(pole3)


@pytest.mark.parametrize("chi, deltas, match", [
    ("chi1", (1.0, 1e-16, 0.5), "n_b"),  # D = 1.1e-16 against terms of 1
    ("chi3_self", (1.0, 1e-16, 0.5), "n_b"),
    ("chi3_cross", (1.0, 1e-16, 0.5), "n_b"),
    ("chi3_cross", (0.1, 0.3, 0.2), "delta_3"),  # delta_3 = 2.8e-17 against 0.3
    ("chi3_cross", (-1.0, 1.0, 2.0 + 3 * 2**-51), "delta_3"),  # 1.3e-15 against 2
])
def test_chi_near_pole_rejected_relative_to_scale(chi, deltas, match):
    # the point raises, and the sweep row at the same detunings has no value
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, *deltas)
    with pytest.raises(PoleError, match=match):
        suscept.susceptibility_point(cfg)
    assert np.isnan(getattr(suscept.sweep_at(cfg, "da", [deltas[0]]), chi)[0])


@pytest.mark.parametrize("gamma", [(0.0, 0.0, 0.0), (0.12, 0.2, 0.07)], ids=["lossless", "lossy"])
def test_a_tiny_nonzero_probe_is_no_pole(gamma):
    # eps_a = 0 and eps_c = 0 are judged against a scale of 0, and every chi
    # is independent of the probe strengths
    weak = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5, gamma=gamma)
    tiny = make_config(1e-20, 1.0, 1e-20, 1, 0, 1, 0.3, 0.1, 0.5, gamma=gamma)
    for got, want in zip(suscept.susceptibility_point(tiny), suscept.susceptibility_point(weak)):
        assert cmath.isclose(got, want, rel_tol=1e-12)


def test_outside_double_range_is_a_pole():
    # Raman resonance with G_b = 1e-300: D**3 underflows to 0 in chi3_self and
    # D**2 leaves chi3_cross infinite, so the point raises although chi1 = 0;
    # at g_a = 1e80 |g_a|**4 of chi3_self overflows, while chi1 would be finite
    cfg = make_config(0.1, 1e-150, 0.1, 1, 0, 1, 0.3, 0.3, -1.0)
    big = make_config(1e80, 1.0, 0.1, 1, 0, 1, 0.3, 0.1, 0.5)
    for point in (cfg, big):
        with pytest.raises(PoleError, match="outside double range"):
            suscept.susceptibility_point(point)
    s = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-1.0, 1.0, 3))
    assert s.pole.tolist() == [model.OUT_OF_RANGE, model.THREE_PHOTON, model.OUT_OF_RANGE]
    with pytest.raises(PoleError, match="outside double range"):  # |g_a|**4 overflows
        suscept.sweep_at(make_config(1e100, 1.0, 0.1, 1, 0, 1, 0.3, 0.1, 0.5), "dc",
                         suscept.sweep_grid(-1.0, 1.0, 3))


def _exact_ground(cfg):
    sp = model.split(cfg)
    return oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)


_SERIES_ROUTES = dict(
    coherences=suscept.coherences,
    build_series=lambda cfg: perturb.build_series(model.split(cfg), 1, 2),
    ground_series=lambda cfg: oracle.ground_series(model.split(cfg), 2),
    ground_eigenvalue_function=_exact_ground)


@pytest.mark.parametrize("route", [suscept.susceptibility_point, *_SERIES_ROUTES.values()],
                         ids=["susceptibility_point", *_SERIES_ROUTES])
@pytest.mark.parametrize("gamma", [(0.0, 0.0, 0.0), (0.1, 0.1, 0.1)])
def test_overflowing_cumulative_detuning_is_the_out_of_range_pole(route, gamma):
    # delta_a = 1e308, delta_b = -1e308: delta_2 = delta_3 = inf
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 1e308, -1e308, 0.5, gamma=gamma)
    with pytest.raises(PoleError, match="outside double range"):
        route(cfg)


@pytest.mark.parametrize("route", _SERIES_ROUTES.values(), ids=_SERIES_ROUTES)
@pytest.mark.parametrize("g_a, g_c, n_a", [
    (1e308, 0.01, 1), (0.01, 1e308, 1), (7e307 + 7e307j, 0.01, 1), (0.01, 0.01, 10**400),
    (0.01, 0.01, 10**309)], ids=["1e+308-0.01", "0.01-1e+308", "(7e+307+7e+307j)-0.01",
                                 "n_a=10**400", "n_a=10**309"])
def test_a_probe_outside_double_range_is_the_out_of_range_pole(route, g_a, g_c, n_a):
    # 2 g sqrt(n) overflows to inf, which once left eps = inf and NaN phases in
    # the split and so NaN series; at 7e307(1 + i) |Omega_a| raised OverflowError,
    # and so did sqrt(n_a) for a photon number past double range
    cfg = make_config(g_a, 1.0, g_c, n_a, 0, 1, 0.3, 0.1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="outside double range"):
            route(cfg)


@pytest.mark.parametrize("g_a", [1e100, 1e154])
def test_coherence_sums_outside_double_range_are_the_out_of_range_pole(g_a):
    # the series is finite, but its partial sums once came out inf (1e100) or,
    # where eps_a**3 itself overflows, NaN (1e154) behind a RuntimeWarning
    cfg = make_config(g_a, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(perturb.build_series(model.split(cfg), 1, 3).A).all()
        with pytest.raises(PoleError, match="outside double range"):
            suscept.coherences(cfg)


def test_overflowing_pole_term_is_out_of_range_not_its_pole():
    # delta_1 = 1e200 makes D overflow: inf is no zero of D, and with D = inf the
    # closed forms would read a finite 0
    assert not model.near_pole(np.inf, np.inf)
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 1e200, 0.5, 0.5, gamma=(0.1, 0.1, 0.1))
    with pytest.raises(PoleError, match="outside double range"):
        suscept.susceptibility_point(cfg)
    wide = make_config(0.01, 1.0, 0.01, 1, 0, 1, 1e308, 0.5, 0.5, gamma=(0.1, 0.1, 0.1))
    result = suscept.sweep_at(wide, "db", suscept.sweep_grid(-1.0, 1.0, 5))
    assert result.pole.tolist() == [model.OUT_OF_RANGE] * 5


def test_hermitian_limit_matches_kerr_coefficients(reference_config):
    co = effective.coefficients(reference_config)
    sp = model.split(reference_config)
    ea, ec = sp.eps_a, sp.eps_c
    point = suscept.susceptibility_point(reference_config)
    assert point.chi1 == pytest.approx(-co.linear / ea**2, rel=1e-12)
    assert point.chi3_self == pytest.approx(-2 * co.self_kerr / (3 * ea**4), rel=1e-12)
    assert point.chi3_cross == pytest.approx(-co.cross_kerr / (6 * ea**2 * ec**2), rel=1e-12)


# -- coherences --------------------------------------------------------------

def test_coherences_vanish_without_a_photons():
    cfg = make_config(0.02, 1.0, 0.02, 0, 0, 1, 0.4, 0.1, 0.9)
    c = suscept.coherences(cfg, 3)
    assert c.rho21 == 0
    assert c.rho43 == 0


def test_coherence_first_order_two_level_limit():
    # pump and c-probe off: rho21 = -eps_a e^{i phi_a} / delta_1 + O(eps^3)
    phi = 0.9
    cfg = make_config(0.01 * cmath.exp(1j * phi), 0.0, 0.0, 1, 0, 0, 0.8, 0.3, 0.9)
    sp = model.split(cfg)
    c = suscept.coherences(cfg, 1)
    assert c.rho21 == pytest.approx(-sp.eps_a * cmath.exp(1j * phi) / 0.8, rel=1e-12)


def test_coherence_gauge_covariance_lossy(lossy_config):
    phi_a, phi_c = 0.7, -1.1
    phased = make_config(lossy_config.mode_a.g * cmath.exp(1j * phi_a),
                         lossy_config.mode_b.g * cmath.exp(0.4j),
                         lossy_config.mode_c.g * cmath.exp(1j * phi_c),
                         lossy_config.mode_a.n, lossy_config.mode_b.n,
                         lossy_config.mode_c.n,
                         lossy_config.mode_a.delta, lossy_config.mode_b.delta,
                         lossy_config.mode_c.delta, gamma=lossy_config.gamma)
    plain = suscept.coherences(lossy_config, 3)
    rot = suscept.coherences(phased, 3)
    assert rot.rho21 == pytest.approx(plain.rho21 * cmath.exp(1j * phi_a), rel=1e-12)
    assert rot.rho43 == pytest.approx(plain.rho43 * cmath.exp(1j * phi_c), rel=1e-12)


@pytest.mark.parametrize("gamma", [(0.0, 0.0, 0.0), (0.12, 0.2, 0.07)])
def test_closed_forms_match_coherence_extraction(gamma):
    cfg = make_config(0.012, 1.1, 0.009, 2, 1, 1, 0.45, -0.2, 0.4, gamma=gamma)
    for closed, bridged in zip(suscept.susceptibility_point(cfg), _bridged(cfg)):
        assert closed == pytest.approx(bridged, rel=1e-6)


def test_bridge_reads_each_chi_per_photon_from_its_coefficient():
    # a planted series: each chi is its coefficient over its photon numbers
    e = np.zeros((5, 5), dtype=complex)
    e[2, 0], e[4, 0], e[2, 2] = 2.0, 3j, 4.0
    cfg = make_config(0.3, 1.0, 0.7, 2, 0, 3, 0.4, 0.1, 0.9)
    bridged = suscept.chis_from_energy(cfg, e)
    assert bridged == suscept.SusceptibilityPoint(-1.0, -0.5j, -4.0 / 36)
    assert all(type(v) is complex for v in bridged)


@pytest.mark.parametrize("na, nc, match", [(0, 1, "eps_a"), (1, 0, "eps_c"), (0, 0, "eps_a")])
def test_bridge_without_probe_photons_is_the_probe_pole(na, nc, match):
    cfg = make_config(0.02, 1.0, 0.02, na, 0, nc, 0.4, 0.1, 0.9)
    e = perturb.build_series(model.split(cfg), 1, 4).E
    with pytest.raises(PoleError, match=match):
        suscept.chis_from_energy(cfg, e)


@pytest.mark.parametrize("na, e40", [(1, 1.5e308), (10**160, 1.0)],
                         ids=["E40=1.5e308", "n_a=10**160"])
def test_bridge_outside_double_range_is_the_out_of_range_pole(na, e40):
    # -2 E[4, 0] overflowed to chi3_self = -inf+nanj behind a RuntimeWarning, and
    # 3 n_a**2 past double range raised a bare OverflowError
    e = np.ones((5, 5), dtype=complex)
    e[4, 0] = e40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="^pole: a term is outside double range$"):
            suscept.chis_from_energy(make_config(0.02, 1.0, 0.02, na, 0, 1, 0.4, 0.1, 0.9), e)


@pytest.mark.parametrize("order", [1, 2])
def test_bridge_below_order_3_is_a_value_error(reference_config, order):
    # E to order k + 1 holds the coherences to order k (t[p - 1, q] is E[p, q]'s), so
    # below coherence order 3 E[4, 0] is beyond E, or a zero above the order built
    e = perturb.build_series(model.split(reference_config), 1, order + 1).E
    with pytest.raises(ValueError, match=f"order >= 4, got {order + 1}$"):
        suscept.chis_from_energy(reference_config, e)


_E = perturb.build_series(model.split(make_config(0.3, 1.0, 0.7, 2, 0, 3, 0.4, 0.1, 0.9)), 1, 4).E


@pytest.mark.parametrize("e, accepted", [
    (np.full((5, 5), np.nan), False), (_E.tolist(), True), (_E[:, :2], False), (_E[2], False),
    (_E[None], False), ([["a"] * 5] * 5, False), ([[0] * 5] * 4 + [[0] * 4], False),
    (_E.astype(str), False), (_E != 0, False),
], ids=["all-nan", "nested-list", "5x2", "1-d", "3-d", "strings", "ragged", "numeric-strings",
        "bools"])
def test_bridge_takes_a_finite_2d_series_of_at_least_5_by_5_or_raises_value_error(e, accepted):
    # a nested list is accepted, as sweep_at accepts one; anything else that is
    # not a 2-D finite array of order >= 4 is the documented ValueError
    cfg = make_config(0.3, 1.0, 0.7, 2, 0, 3, 0.4, 0.1, 0.9)
    if accepted:
        assert suscept.chis_from_energy(cfg, e) == suscept.chis_from_energy(cfg, _E)
        return
    with pytest.raises(ValueError, match="the eigenvalue series must be"):
        suscept.chis_from_energy(cfg, e)


@pytest.mark.parametrize("lossy", [False, True])
def test_coherences_equal_the_product_of_ket_and_bra_partial_sums(lossy):
    for cfg in _phased_draws(17, lossy):
        sp = model.split(cfg)
        x, y = sp.eps_a, sp.eps_c
        for order in (1, 3, 5):
            table = perturb.build_series(sp, 1, order)
            kets = table.A[0] @ table.basis.right.T
            bras = table.A[1] @ table.basis.left
            got = suscept.coherences(cfg, order)
            for value, (ket, bra) in ((got.rho21, (1, 0)), (got.rho43, (3, 2))):
                old = (perturb.power_sum(kets[..., ket], x, y)
                       * perturb.power_sum(bras[..., bra], x, y))
                assert abs(value - old) <= 1e-14 * abs(old)


def _extracted_coherence(cfg, order, ket_level, bra_level):
    """Cauchy extraction of the product of the ket and bra partial sums."""
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, order)
    ket = (table.A[0] @ table.basis.right.T)[..., ket_level]
    bra = (table.A[1] @ table.basis.left)[..., bra_level]
    return cauchy.taylor_coefficients(
        lambda x, y: perturb.power_sum(ket, x, y) * perturb.power_sum(bra, x, y),
        cauchy.extraction_radius(sp))


@pytest.mark.parametrize("lossy", [False, True])
def test_coherences_are_derivatives_of_the_ground_eigenvalue(lossy):
    # Hellmann-Feynman, t[p - 1, q] = u_a p E[p, q] / 2 and u[p, q - 1] = u_c q E[p, q] / 2,
    # which chis_from_energy rests on: the ket and bra series against the exact continuant
    for cfg in _phased_draws(11, lossy):
        sp = model.split(cfg)
        e, u_a, u_c = oracle.ground_series(sp, 4), sp.ua, sp.uc
        t, u = _extracted_coherence(cfg, 3, 1, 0), _extracted_coherence(cfg, 3, 3, 2)
        for got, want in ((t[1, 0], u_a * e[2, 0]), (t[3, 0], 2 * u_a * e[4, 0]),
                          (t[1, 2], u_a * e[2, 2]), (u[2, 1], u_c * e[2, 2])):
            assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("lossy", [False, True])
def test_chis_from_energy_match_the_closed_forms_at_any_coupling_phases(lossy):
    for cfg in _phased_draws(11, lossy):
        closed = suscept.susceptibility_point(cfg)
        for route in _ENERGY_ROUTES:
            for want, got in zip(closed, _bridged(cfg, route)):
                assert cmath.isclose(got, want, rel_tol=1e-12), route


# -- sweeps ------------------------------------------------------------------

def test_sweep_two_steps_gives_endpoints(reference_config):
    s = suscept.sweep_at(reference_config, "da", suscept.sweep_grid(-1.0, 1.0, 2))
    assert s.value.tolist() == [-1.0, 1.0]
    assert s.pole.tolist() == [0, 0]


def test_sweep_chi1_real_part_crosses_raman_point():
    # scanning the a-detuning through delta_2 = 0 flips the dispersive sign
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.0, 0.0, 0.9,
                      gamma=(0.05, 0.05, 0.05))
    re = suscept.sweep_at(cfg, "da", suscept.sweep_grid(-0.25, 0.25, 41)).chi1.real
    mid = len(re) // 2
    assert abs(re[mid]) < 1e-10 * np.max(np.abs(re))  # dark point
    assert re[mid - 1] * re[mid + 1] < 0


def test_sweep_emits_gap_row_at_pole():
    # gamma_3 = 0 and the grid hits delta_3 = 0 exactly
    cfg = make_config(0.02, 1.0, 0.02, 1, 0, 1, 0.3, 0.3, 0.5)
    s = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-1.0, 1.0, 3))
    assert s.pole.tolist() == [0, model.THREE_PHOTON, 0]
    assert "delta_3" in model.POLES[s.pole[1] - 1]
    for chi in (s.chi1, s.chi3_self, s.chi3_cross):  # NaN on the invalid row only
        assert np.isnan(chi).tolist() == [False, True, False]


def test_sweep_rejects_bad_arguments(reference_config):
    with pytest.raises(ValueError):
        suscept.sweep_at(reference_config, "dx", suscept.sweep_grid(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        suscept.sweep_grid(0.0, 1.0, 1)


@pytest.mark.parametrize("steps", [3.0, "3", True, 1, -1])
def test_sweep_grid_refuses_steps_that_are_not_an_integer_at_least_two(steps):
    with pytest.raises(ValueError, match=f"steps must be an integer >= 2, got {steps!r}$"):
        suscept.sweep_grid(0.0, 1.0, steps)


def test_sweep_grid_takes_a_numpy_integer_steps():
    assert suscept.sweep_grid(0.0, 1.0, np.int64(3)).tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (np.float64(1e308), np.float64(-1e308))])
def test_sweep_grid_refuses_a_span_outside_double_range(lo, hi):
    # hi - lo overflows, so linspace would warn and fill the grid with inf and NaN
    with pytest.raises(ValueError, match="within double range") as exc:
        suscept.sweep_grid(lo, hi, 5)
    assert str(exc.value).endswith(f"got {lo!r} and {hi!r}")


# a bound that is not a number once reached np.isfinite's TypeError, and a bool passed as one
@pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("inf")),
                                    (float("-inf"), 1.0), (0.0, float("nan")),
                                    ("0", "1"), (0.0, "1"), (None, 1.0), (True, 1.0),
                                    (0.0, np.True_), (0.0, 1j),
                                    pytest.param(0.0, 10**400, id="0.0-10**400")])
def test_sweep_rejects_non_finite_bounds(reference_config, lo, hi):
    with pytest.raises(ValueError, match="lo and hi must be finite") as exc:
        suscept.sweep_grid(lo, hi, 5)
    assert str(exc.value).endswith(f"got {lo!r} and {hi!r}")


def test_sweep_grid_takes_numpy_and_integer_bounds():
    want = [0.0, 0.25, 0.5, 0.75, 1.0]
    for lo, hi in ((np.float64(0.0), np.float64(1.0)), (np.float32(0.0), np.float32(1.0)),
                   (0, 1), (np.int64(0), np.int64(1))):
        assert suscept.sweep_grid(lo, hi, 5).tolist() == want


def _grid_cases():
    """Seeded (lo, hi, steps): signed zeros, equal and reversed bounds, the span
    5e-324 whose step underflows to 0, and draws of either sign from 1e-300 to
    1e300 with steps from 2 to 10**5."""
    rng = np.random.default_rng(50)
    cases = [(0.0, 5e-324, 3), (-0.0, 0.0, 5), (0.0, -0.0, 4), (-0.0, -0.0, 3), (1.5, 1.5, 9),
             (-2.5, -2.5, 2), (1e300, -1e300, 7), (-1e-300, 1e-300, 10**5), (0.7, -1.0, 2)]
    while len(cases) < 120:
        lo, hi = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
                  for _ in range(2))
        if math.isfinite(hi - lo):
            cases.append((lo, hi, int(10 ** rng.uniform(math.log10(2), 5))))
    return cases


def test_sweep_grid_rows_are_the_bits_of_linspace():
    # nkerr sweep asks each chunk for its own rows and never builds the whole grid
    rng = np.random.default_rng(51)
    cases = _grid_cases()
    for lo, hi, steps in cases:
        want = np.linspace(lo, hi, steps)
        assert suscept.sweep_grid(lo, hi, steps).tobytes() == want.tobytes(), (lo, hi, steps)
        a = int(rng.integers(0, steps + 1))
        for start, stop in ((a, int(rng.integers(a, steps + 1))), (steps - 1, steps)):
            got = suscept.sweep_grid(lo, hi, steps, start, stop)
            assert got.tobytes() == want[start:stop].tobytes(), (lo, hi, steps, start, stop)
    chunk = cli.SWEEP_CHUNK_ROWS
    steps = 3 * chunk + 1  # every chunk of nkerr sweep's grid, the last of one row
    for lo, hi, _ in cases[:30]:
        want = np.linspace(lo, hi, steps)
        for start in range(0, steps, chunk):
            stop = min(start + chunk, steps)
            got = suscept.sweep_grid(lo, hi, steps, start, stop)
            assert got.tobytes() == want[start:stop].tobytes(), (lo, hi, start, stop)


@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 6), (6, 6), (0.0, 2), (True, 2),
                                         (0, "2")])
def test_sweep_grid_refuses_rows_that_are_not_a_range_of_the_grid(start, stop):
    with pytest.raises(ValueError, match=r"are not a range of the 5 rows$"):
        suscept.sweep_grid(0.0, 1.0, 5, start, stop)


def test_sweep_grid_has_at_most_sys_maxsize_over_8_rows():
    # no linspace reaches past row 2**53, where float(k) skips integers; its
    # arithmetic does: float(k) * step + lo, and hi on the last row.  Over
    # [0, 2**60] the step is 1.0, so each row shows float(k) itself
    top = sys.maxsize // 8
    step = 2.0**60 / (top - 1)
    assert step == 1.0
    for start in (2**53 - 3, 2**53 + 1, 2**59 + 3, top - 5):
        stop = min(start + 5, top)
        want = np.array([float(k) * step + 0.0 for k in range(start, stop)])
        if stop == top:
            want[-1] = 2.0**60
        assert suscept.sweep_grid(0.0, 2.0**60, top, start, stop).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="is too many"):
        suscept.sweep_grid(-1.0, 1.0, top + 1, 0, 1)


def test_sweep_grid_that_does_not_fit_in_memory_is_a_value_error(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("planted: the rows do not fit")

    monkeypatch.setattr(np, "arange", no_memory)  # so nothing is allocated for real
    with pytest.raises(ValueError, match=r"rows \[0, 1000000000000\) of the grid do not fit"):
        suscept.sweep_grid(-1.0, 1.0, 10**12)


class _Unreadable:
    """A sequence whose item raises ValueError, so numpy cannot convert it."""

    def __len__(self):
        return 1

    def __getitem__(self, index):
        raise ValueError("no item")


@pytest.mark.parametrize("value", [[0.1, float("nan")], [float("inf"), 0.2], [-float("inf")],
                                   [[0.1, 0.2]], 0.1,
                                   pytest.param([10**400], id="int-past-double"),
                                   pytest.param([True, False], id="bools"),
                                   pytest.param(["0.5"], id="numeric-string"),
                                   pytest.param(np.array([1 + 1j]), id="complex-array"),
                                   pytest.param([1 + 1j], id="complex-list"),
                                   pytest.param(_Unreadable(), id="unreadable-sequence")])
def test_sweep_at_rejects_values_not_one_dimensional_or_not_finite(reference_config, value):
    # a bool, a string or a complex number is not a finite number, as for a
    # scalar detuning; a complex array is refused before numpy drops its imaginary
    # part; a sequence numpy cannot read is refused where its conversion raises
    with pytest.raises(ValueError, match="1-D array of finite numbers"):
        suscept.sweep_at(reference_config, "dc", value)


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _sliced_sweeps(draw):
    """A configuration, a sweep (axis, lo, hi, steps), a slice [a, b) of its grid and
    the row of a pole in it, or None.

    Half the draws are lossless dc grids with delta_2 = 0 and an exact 0 on the
    middle row, so delta_3 = 0 (or an earlier pole) sits there; the others have
    any axis, lossless or lossy, and bounds of either sign of zero or of no
    particular step.
    """
    ga, gb, gc = (draw(st.floats(0.0, 2.0)) for _ in range(3))
    na, nb, nc = (draw(st.integers(0, 2)) for _ in range(3))
    da, db, dc = (draw(st.one_of(_SIGNED_ZEROS, st.floats(-2.0, 2.0))) for _ in range(3))
    if draw(st.booleans()):
        half = 2 ** draw(st.integers(0, 7))
        hi = draw(st.integers(1, 64)) / 64
        cfg = make_config(ga, gb, gc, na, nb, nc, da, da, dc)
        a, b = draw(st.integers(0, half)), draw(st.integers(half + 1, 2 * half + 1))
        return cfg, "dc", -hi, hi, 2 * half + 1, a, b, half
    gamma = draw(st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(0.0, 0.5)] * 3)))
    cfg = make_config(ga, gb, gc, na, nb, nc, da, db, dc, gamma=gamma)
    bound = st.one_of(_SIGNED_ZEROS, st.floats(-3.0, 3.0))
    steps = draw(st.integers(2, 300))
    a = draw(st.integers(0, steps - 1))
    return (cfg, draw(st.sampled_from(["da", "db", "dc"])), draw(bound), draw(bound), steps,
            a, draw(st.integers(a + 1, steps)), None)


@settings(max_examples=300)
@given(_sliced_sweeps())
def test_sweep_of_a_slice_is_the_slice_of_the_sweep_bit_for_bit(case):
    # nkerr sweep evaluates its grid chunk by chunk; its CSV bytes rest on this
    cfg, axis, lo, hi, steps, a, b, pole_row = case
    whole = suscept.sweep_at(cfg, axis, suscept.sweep_grid(lo, hi, steps))
    assert pole_row is None or whole.pole[pole_row] != 0
    part = suscept.sweep_at(cfg, axis, whole.value[a:b])
    assert part.axis == whole.axis
    for name in suscept.Sweep._fields[1:]:  # every field but the axis is an array over the rows
        assert getattr(part, name).tobytes() == getattr(whole, name)[a:b].tobytes(), name


def test_sweep_even_odd_structure_about_resonance():
    cfg = make_config(0.05, 1.0, 0.05, 1, 0, 1, 0.0, 0.0, 0.0,
                      gamma=(0.0, 0.0, 0.4))
    s = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-2.0, 2.0, 101))
    assert not s.pole.any()
    im, re = s.chi3_cross.imag, s.chi3_cross.real
    assert np.max(np.abs(im - im[::-1])) < 1e-12 * np.max(np.abs(im))
    assert np.max(np.abs(re + re[::-1])) < 1e-12 * np.max(np.abs(re))
    assert int(np.argmax(im)) == 50


def _bits(chi1, chi3_self, chi3_cross):
    return struct.pack("<6d", *(v for z in (chi1, chi3_self, chi3_cross) for v in (z.real, z.imag)))


def _assert_rows_are_points(cfg, axis, grid):
    """The sweep of ``grid``, after checking that each row is the scalar point at
    its value bit for bit, or raises the message of the row's pole code; where
    the sweep raises, the point at each value raises the same."""
    attr = {"da": "mode_a", "db": "mode_b", "dc": "mode_c"}[axis]
    points = [dataclasses.replace(cfg, **{attr: dataclasses.replace(getattr(cfg, attr), delta=v)})
              for v in grid.tolist()]
    try:
        s = suscept.sweep_at(cfg, axis, grid)
    except PoleError as exc:
        for at in points:
            with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
                suscept.susceptibility_point(at)
        return None
    for k, at in enumerate(points):
        if s.pole[k] == 0:
            assert (_bits(s.chi1[k], s.chi3_self[k], s.chi3_cross[k])
                    == _bits(*suscept.susceptibility_point(at)))
        else:
            with pytest.raises(PoleError) as exc:
                suscept.susceptibility_point(at)
            assert model.POLES[s.pole[k] - 1] == str(exc.value)
    return s


# Dyadic detunings on a grid of step 1/128 put exact poles on grid points:
# lossless, delta_3 = 0 at da = 0.25, db = 0.75, dc = 0 and D = 0 at
# da = 1, db = -0.5 (G_b = 0.5).
@pytest.mark.parametrize("axis", ["da", "db", "dc"])
@pytest.mark.parametrize("gamma, n_c", [((0.0, 0.0, 0.0), 1), ((0.12, 0.2, 0.07), 1),
                                        ((0.0, 0.0, 0.0), 0)])
def test_sweep_rows_equal_scalar_point_bit_for_bit(axis, gamma, n_c):
    cfg = make_config(0.012, 0.5, 0.009, 2, 1, n_c, 0.5, 0.5, 0.25, gamma=gamma)
    s = _assert_rows_are_points(cfg, axis, suscept.sweep_grid(-1.0, 1.0, 257))
    reasons = [model.POLES[code - 1] for code in s.pole[s.pole != 0]]
    seen = {word for r in reasons for word in ("n_b", "delta_3", "eps_c") if word in r}
    lossless = gamma == (0.0, 0.0, 0.0)
    expected = {"delta_3": lossless, "n_b": lossless and axis != "dc", "eps_c": n_c == 0}
    assert seen == {word for word, present in expected.items() if present}


def test_sweep_rows_equal_scalar_point_bit_for_bit_on_the_fuzz_grids():
    # the 5-step grids of the CLI's exit-code fuzz: couplings, detunings and
    # decay rates up to 1e200 and down to 1e-300, where every pole code is reached
    codes = set()
    for doc, axis, lo, hi in fuzz_scenarios():
        with contextlib.suppress(ScenarioError):
            s = _assert_rows_are_points(cli.scenario_config(doc), axis,
                                        suscept.sweep_grid(lo, hi, 5))
            codes |= {"raise"} if s is None else set(s.pole.tolist())
    assert codes == {"raise", *range(model.OUT_OF_RANGE + 1)} - {model.PUMP}
