import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nkerr import effective
from nkerr.errors import NotHermitianError, NotResonantError, PoleError

from conftest import make_config


def test_raman_resonance_kills_linear_and_self_terms():
    cfg = make_config(0.3, 1.0, 0.2, 1, 0, 1, 0.4, 0.4, 0.6)
    co = effective.coefficients(cfg)
    assert co.linear == 0.0
    assert co.self_kerr == 0.0
    assert co.cross_kerr != 0.0


def test_cross_kerr_hand_value():
    cfg = make_config(1.0, 1.0, 1.0, 1, 0, 1, 2.0, 1.0, 0.0)  # deltas (2, 1, 1)
    co = effective.coefficients(cfg)
    assert co.cross_kerr == pytest.approx(-1.0, rel=1e-14)


def test_cross_kerr_matches_pure_form_off_na_nc():
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.7, 0.7, 5.0)  # delta_2 = 0, delta_3 = 5
    co = effective.coefficients(cfg)
    assert co.cross_kerr == pytest.approx(-2e-5, rel=1e-12)


def test_pure_cross_kerr_hand_values():
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.0, 0.0, 5.0)
    assert effective.pure_cross_kerr(cfg) == pytest.approx(-2e-5, rel=1e-12)
    cfg3 = make_config(0.1, 1.0, 0.1, 1, 3, 1, 0.0, 0.0, 5.0)
    assert effective.pure_cross_kerr(cfg3) == pytest.approx(-5e-6, rel=1e-12)


def test_pure_cross_kerr_agrees_with_general_form():
    cfg = make_config(0.07, 1.1, 0.035, 2, 1, 3, -0.6, -0.6, 0.8)
    pure = effective.pure_cross_kerr(cfg)
    full = effective.coefficients(cfg).cross_kerr
    assert pure == pytest.approx(full, rel=1e-12)


def test_pure_cross_kerr_rejects_off_resonance():
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.1, 0.0, 5.0)  # delta_2 = 0.1
    with pytest.raises(NotResonantError):
        effective.pure_cross_kerr(cfg)


@pytest.mark.parametrize("da, db, dc", [
    (0.3, 0.25, 1e11),  # delta_2 = 0.05; the size of delta_3 does not make it small
    (0.0, -0.05, 1e11),  # delta_1 = 0, so only |delta_2| itself shows it; L != 0
    (1e6, 1e6 - 5e-7, 0.5),  # |delta_2| <= 1e-12 |delta_1|, but delta_1 delta_2 = 0.5 G_b
])
def test_pure_cross_kerr_rejects_what_delta_2_changes(da, db, dc):
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, da, db, dc)
    effective.coefficients(cfg)  # the general form has a value
    with pytest.raises(NotResonantError):
        effective.pure_cross_kerr(cfg)


@pytest.mark.parametrize("d1, gb, d2, refusal", [
    # |delta_2| against 1e-12 max(1, |delta_1|); G_b = 100 leaves the product test slack
    (5.0, 10.0, 4.9e-12, None), (5.0, 10.0, 5.1e-12, "Raman-resonant"),
    (0.5, 10.0, 0.9e-12, None), (0.5, 10.0, 1.1e-12, "Raman-resonant"),
    # |delta_1 delta_2| against 1e-12 G_b, with G_b = 4 and 0.25
    (5.0, 2.0, 7.9e-13, None), (5.0, 2.0, 8.1e-13, "small against G_b"),
    (0.5, 0.5, 4.9e-13, None), (0.5, 0.5, 5.1e-13, "small against G_b"),
])
def test_pure_cross_kerr_at_each_edge_of_its_resonance_tolerance(d1, gb, d2, refusal):
    cfg = make_config(0.01, gb, 0.01, 1, 0, 1, d1, d1 - d2, 0.5)
    if refusal is None:
        assert effective.pure_cross_kerr(cfg) == pytest.approx(
            effective.coefficients(cfg).cross_kerr, rel=1e-10)
    else:
        with pytest.raises(NotResonantError, match=refusal):
            effective.pure_cross_kerr(cfg)


def test_delta3_pole_rejected():
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.4, 0.4, -0.0)
    with pytest.raises(PoleError, match="delta_3"):
        effective.coefficients(cfg)


def test_pump_pole_rejected():
    # delta_1*delta_2 = |g_b|^2 (n_b+1) exactly
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 1.0, 0.0, 0.5)  # deltas (1, 1, 1.5), g_b = 1
    with pytest.raises(PoleError, match="n_b"):
        effective.coefficients(cfg)


@pytest.mark.parametrize("da, db, dc, match", [
    (1.0, 1e-16, 0.5, "n_b"),  # D_K = -1.1e-16 against delta_1*delta_2 = 1
    (0.1, 0.3, 0.2, "delta_3"),  # delta_3 = 2.8e-17 against detunings of 0.3
    (-1.0, 1.0, 2.0 + 3 * 2**-51, "delta_3"),  # delta_3 = 1.3e-15 against |delta_c| = 2
])
def test_near_pole_rejected_relative_to_scale(da, db, dc, match):
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, da, db, dc)
    with pytest.raises(PoleError, match=match):
        effective.coefficients(cfg)


@pytest.mark.parametrize("ga, gb, closed_form", [
    (0.1, 1e-150, effective.coefficients),  # D_K**3 underflows to 0
    (0.1, 1e-160, effective.pure_cross_kerr),  # delta_3*G_b is subnormal: K = -inf
    (1e200, 1.0, effective.coefficients),  # |g_a|**2 overflows
])
def test_outside_double_range_is_a_pole(ga, gb, closed_form):
    cfg = make_config(ga, gb, 0.1, 1, 0, 1, 0.3, 0.3, 0.5)  # Raman-resonant
    with pytest.raises(PoleError, match="outside double range"):
        closed_form(cfg)


@pytest.mark.parametrize("coeffs, n_a, t", [
    (effective.KerrCoefficients(1e10, 0.0, 0.0), 3, 1e299),  # the angle overflows to inf
    (effective.KerrCoefficients(1.0, 0.0, 0.0), 10**400, 1.0),  # n_a is past double range
    (effective.KerrCoefficients(1, 1, 0), 10**200, 1),  # an int angle past double range
    (effective.KerrCoefficients(1e300, 0.0, 0.0), np.int64(10**10), 1.0),  # held as an int
], ids=["angle-inf", "n_a-int-beyond-double", "int-angle-beyond-double", "n_a-numpy-int"])
def test_a_phase_outside_double_range_is_the_out_of_range_pole(coeffs, n_a, t):
    # the angle was inf, or a bare OverflowError, and effective_phase nan+nanj;
    # a numpy n_a warned of overflow in multiply until phase_angle held it as an int
    for term in (effective.phase_angle, effective.effective_phase):
        with pytest.raises(PoleError, match="^pole: a term is outside double range$"):
            term(coeffs, n_a, 1, t)


def test_lossy_config_refused():
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.4, 0.1, 0.6, gamma=(0.1, 0.0, 0.0))
    with pytest.raises(NotHermitianError):
        effective.coefficients(cfg)
    with pytest.raises(NotHermitianError):
        effective.pure_cross_kerr(cfg)


def test_cross_kerr_negative_for_positive_delta3():
    rng = np.random.default_rng(11)
    drawn = 0
    while drawn < 50:
        ga, gc = rng.uniform(0.01, 0.5, size=2)
        gb = rng.uniform(0.5, 1.5)
        na, nc = (int(v) for v in rng.integers(1, 4, size=2))
        nb = int(rng.integers(0, 3))
        da, db = rng.uniform(-1, 1, size=2)
        d2 = da - db
        dc = rng.uniform(0.05, 2.0) - d2  # lands delta_3 strictly positive
        cfg = make_config(ga, gb, gc, na, nb, nc, da, db, dc)
        if abs(da * d2 - gb**2 * (nb + 1)) < 0.05:
            continue
        drawn += 1
        assert effective.coefficients(cfg).cross_kerr < 0


def test_effective_phase_trivial_for_empty_a_mode():
    co = effective.KerrCoefficients(0.3, 0.02, -0.5)
    for t in (0.0, 1.0, 7.5):
        assert effective.effective_phase(co, 0, 5, t) == 1.0


def test_effective_phase_pi_flip():
    co = effective.KerrCoefficients(0.0, 0.0, -1.0)
    val = effective.effective_phase(co, 2, 3, math.pi / 6)
    assert val == pytest.approx(-1.0, abs=1e-14)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.integers(0, 4), st.integers(0, 4),
       st.floats(-50, 50), st.floats(-50, 50))
def test_effective_phase_unit_modulus_and_additive(L, S, K, na, nc, t1, t2):
    co = effective.KerrCoefficients(L, S, K)
    p1 = effective.effective_phase(co, na, nc, t1)
    p2 = effective.effective_phase(co, na, nc, t2)
    both = effective.effective_phase(co, na, nc, t1 + t2)
    assert abs(p1) == pytest.approx(1.0, abs=1e-12)
    assert both == pytest.approx(p1 * p2, abs=1e-9)


def test_effective_phase_rejects_negative_occupation():
    co = effective.KerrCoefficients(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        effective.effective_phase(co, -1, 0, 1.0)


@pytest.mark.parametrize("n_a, n_c, t, match", [
    (1.5, 1, 1.0, "photon numbers"), (1, 2.0, 1.0, "photon numbers"),
    (True, 1, 1.0, "photon numbers"), (1, False, 1.0, "photon numbers"),
    (1, 1, float("nan"), "t must be finite"), (1, 1, float("inf"), "t must be finite"),
    pytest.param(1, 1, 10**400, "t must be finite", id="int-past-double"),
    (1, 1, True, "t must be finite"), (1, 1, "x", "t must be finite")])
def test_phase_angle_rejects_a_non_integer_photon_number_or_non_finite_time(n_a, n_c, t, match):
    co = effective.KerrCoefficients(0.3, 0.02, -0.5)
    for f in (effective.phase_angle, effective.effective_phase):
        with pytest.raises(ValueError, match=match):
            f(co, n_a, n_c, t)


def test_phase_angle_takes_numpy_integer_photon_numbers():
    co = effective.KerrCoefficients(0.3, 0.02, -0.5)
    assert effective.phase_angle(co, np.int64(2), np.int32(3), 1.5) == \
        effective.phase_angle(co, 2, 3, 1.5)
