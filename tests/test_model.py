import cmath
import copy
import decimal
import itertools
import math
import pickle
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nkerr import effective, model, oracle, perturb, suscept, validate
from nkerr.errors import PoleError
from nkerr.model import FieldMode, SystemConfig

from conftest import make_config, matrices, numpy_draws, phased


def test_multi_photon_detunings_all_resonant():
    assert model.multi_photon_detunings(0, 0, 0) == (0, 0, 0)


def test_multi_photon_detunings_hand_values():
    assert model.multi_photon_detunings(2, 1, -3) == (2, 1, -2)


def test_multi_photon_detunings_raman_resonance():
    d = model.multi_photon_detunings(1, 1, 5)
    assert d == (1, 0, 5)
    assert d.delta2 == 0


def test_rabi_frequency_mode_a():
    assert model.rabi_frequency(FieldMode("a", 0.1, 0.0, 4)) == pytest.approx(0.4)


def test_rabi_frequency_mode_b_vacuum():
    # pump couples to n+1 photons, so it survives the vacuum
    assert model.rabi_frequency(FieldMode("b", 0.1, 0.0, 0)) == pytest.approx(0.2)


def test_rabi_frequency_mode_a_vacuum_vanishes():
    assert model.rabi_frequency(FieldMode("a", 0.1, 0.0, 0)) == 0


def test_split_reconstruct_zero_config():
    cfg = make_config(0.0, 0.0, 0.0, 1, 0, 1, 0.0, 0.0, 0.0)
    assert np.array_equal(model.split(cfg).reconstruct(), np.zeros((4, 4)))


def test_split_reconstruct_hermitian_when_lossless():
    cfg = make_config(0.3 + 0.1j, 1.2 - 0.4j, 0.2j, 2, 1, 3, 0.7, -0.3, 0.9)
    h = model.split(cfg).reconstruct()
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


def test_split_reconstruct_dressed_eigenvalues():
    # only the pump on: eigenvalues are the bare zeros plus the +-|Omega_b|/2 pair
    cfg = make_config(0.0, 1.0, 0.0, 1, 0, 1, 0.0, 0.0, 0.0)
    h = model.split(cfg).reconstruct()
    eig = np.sort(np.linalg.eigvalsh(h))
    assert eig == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_hamiltonian_diagonal_carries_complex_detunings():
    cfg = make_config(0.01, 1.0, 0.02, 1, 0, 1, 0.3, 0.1, 0.5,
                      gamma=(0.1, 0.2, 0.3))
    h = model.split(cfg).reconstruct()
    d1, d2, d3 = cfg.detunings()
    assert h[0, 0] == 0
    assert h[1, 1] == d1 - 0.1j
    assert h[2, 2] == d2 - 0.2j
    assert h[3, 3] == d3 - 0.3j


def test_hamiltonian_coupling_pattern_zeros():
    cfg = make_config(0.3 + 0.1j, 1.2, 0.2j, 2, 1, 3, 0.7, -0.3, 0.9)
    h = model.split(cfg).reconstruct()
    for i, j in [(0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1)]:
        assert h[i, j] == 0


finite = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
photon = st.integers(min_value=0, max_value=3)
decay = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def configs(draw, lossy=True):
    gamma = (draw(decay), draw(decay), draw(decay)) if lossy else (0.0, 0.0, 0.0)
    return make_config(
        complex(draw(finite), draw(finite)),
        complex(draw(finite), draw(finite)),
        complex(draw(finite), draw(finite)),
        draw(photon), draw(photon), draw(photon),
        draw(finite), draw(finite), draw(finite),
        gamma=gamma,
    )


def _hand_matrix(cfg):
    """H written out entry by entry from the configuration's fields, and its largest |entry|."""
    a, b, c = cfg.mode_a, cfg.mode_b, cfg.mode_c
    pa, pb, pc = a.g * math.sqrt(a.n), b.g * math.sqrt(b.n + 1), c.g * math.sqrt(c.n)
    g1, g2, g3 = cfg.gamma
    h = np.array([[0.0, pa.conjugate(), 0.0, 0.0],
                  [pa, a.delta - 1j * g1, pb, 0.0],
                  [0.0, pb.conjugate(), a.delta - b.delta - 1j * g2, pc.conjugate()],
                  [0.0, 0.0, pc, a.delta - b.delta + c.delta - 1j * g3]])
    return h, np.abs(h).max()


@given(configs())
def test_split_reconstructs_hamiltonian(cfg):
    # against the matrix written by hand; each entry within rel 1e-15 of the largest
    hand, scale = _hand_matrix(cfg)
    assert np.abs(model.split(cfg).reconstruct() - hand).max() <= 1e-15 * scale


@given(configs())
def test_split_pump_block_is_the_hamiltonian_without_probe_entries(cfg):
    sp = model.split(cfg)
    hand, scale = _hand_matrix(cfg)
    _, (eps_a, _), _, (eps_c, _), _ = model.pole_terms(cfg, 0.0, 0.0, 0.0)
    assert (sp.eps_a, sp.eps_c) == (eps_a, eps_c)
    assert (sp.eps_a, sp.eps_c) == pytest.approx((abs(hand[1, 0]), abs(hand[3, 2])), rel=1e-15)
    hand[0, 1] = hand[1, 0] = hand[2, 3] = hand[3, 2] = 0.0
    assert np.abs(matrices(sp)[0] - hand).max() <= 1e-15 * scale


@given(configs(lossy=False))
def test_hermitian_iff_lossless(cfg):
    h = model.split(cfg).reconstruct()
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


@given(configs())
def test_trace_identity(cfg):
    h = model.split(cfg).reconstruct()
    d1, d2, d3 = cfg.detunings()
    g1, g2, g3 = cfg.gamma
    expected = (d1 + d2 + d3) - 1j * (g1 + g2 + g3)
    assert np.trace(h) == pytest.approx(expected, abs=1e-12)


def test_lossy_hamiltonian_not_hermitian():
    cfg = make_config(0.01, 1.0, 0.02, 1, 0, 1, 0.3, 0.1, 0.5, gamma=(0.1, 0.0, 0.0))
    h = model.split(cfg).reconstruct()
    assert np.max(np.abs(h - h.conj().T)) > 1e-3


def test_split_real_coupling_gives_unit_entries():
    cfg = make_config(0.5, 1.0, 0.25, 2, 0, 1, 0.1, 0.2, 0.3)
    sp = model.split(cfg)
    assert (sp.ua, sp.uc) == (1.0, 1.0)
    assert sp.eps_a == pytest.approx(abs(model.rabi_frequency(cfg.mode_a)) / 2)


def test_split_phases_follow_couplings():
    cfg = make_config(0.5 * cmath.exp(0.8j), 1.0, 0.25 * cmath.exp(-1.2j),
                      2, 0, 1, 0.1, 0.2, 0.3)
    sp = model.split(cfg)
    assert cmath.phase(sp.ua) == pytest.approx(0.8)
    assert cmath.phase(sp.uc) == pytest.approx(-1.2)
    assert abs(sp.ua) == pytest.approx(1.0)
    assert abs(sp.uc) == pytest.approx(1.0)


def test_split_degenerates_without_a_photons():
    cfg = make_config(0.5, 1.0, 0.25, 0, 0, 1, 0.1, 0.2, 0.3)
    sp = model.split(cfg)
    assert sp.eps_a == 0.0
    h0, _, vc = matrices(sp)
    diff = np.abs(h0 + sp.eps_c * vc - sp.reconstruct())
    assert diff.max() < 1e-15


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError, match="photon number"):
        FieldMode("a", 0.1, 0.0, -1)
    with pytest.raises(ValueError, match="photon number"):
        replace(FieldMode("a", 0.1, 0.0, 1), n=-1)


@pytest.mark.parametrize("n", [1.5, 1.0, True, "1", None])
def test_non_integer_photon_number_rejected(n):
    with pytest.raises(ValueError, match="photon number must be an integer"):
        FieldMode("a", 0.1, 0.0, n)


def test_numpy_integer_photon_number_accepted():
    mode = FieldMode("a", 0.1, 0.0, np.int64(2))
    assert mode.n == 2 and type(mode.n) is int


def test_numpy_float_detunings_overflow_to_the_out_of_range_pole():
    # delta_2 = 1e308 - (-1e308): a Python float overflows to inf silently, where
    # np.float64 would warn before the pump block can raise the out-of-range pole
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, np.float64(1e308), np.float64(-1e308), 0.5)
    assert all(type(mode.delta) is float for mode in (cfg.mode_a, cfg.mode_b, cfg.mode_c))
    with pytest.raises(PoleError, match="outside double range"):
        model.split(cfg)


def test_numpy_float_coupling_overflows_to_the_out_of_range_pole():
    # |g_a|**2 of g_a = 1e200: a Python complex raises OverflowError, which the
    # closed form reports as the out-of-range pole, where np.float64 would warn
    cfg = make_config(np.float64(1e200), 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    assert all(type(mode.g) is complex for mode in (cfg.mode_a, cfg.mode_b, cfg.mode_c))
    assert cfg.mode_a.g == 1e200
    with pytest.raises(PoleError, match="outside double range"):
        effective.coefficients(cfg)


_OUT_OF_RANGE = "^pole: a term is outside double range$"


@pytest.mark.parametrize("g, n", [(1e308, 4), (1e308, 0), (0.01, 10**400), (0.01, 10**309)],
                         ids=["4", "0", "10**400", "10**309"])
def test_a_rabi_frequency_outside_double_range_is_the_out_of_range_pole(g, n):
    # 2 g sqrt(n) was inf+nanj, or nan+nanj in the vacuum, with no error; a
    # photon number past double range raised a bare OverflowError in sqrt
    mode = FieldMode("a", g, 0.0, n)
    cfg = SystemConfig(mode, FieldMode("b", 1.0, 0.1, 0), FieldMode("c", 0.01, 0.5, 1))
    for term in (lambda: model.rabi_frequency(mode), lambda: model.pole_terms(cfg, 0.0, 0.1, 0.5)):
        with pytest.raises(PoleError, match=_OUT_OF_RANGE):
            term()


@pytest.mark.parametrize("g_a, n_a", [(1e308, 1), (1e308, 0), (7e307 * (1 + 1j), 1),
                                      pytest.param(0.01, 10**400, id="0.01-10**400"),
                                      pytest.param(0.01, 10**309, id="0.01-10**309")])
def test_a_probe_outside_double_range_is_the_out_of_range_pole_in_every_model_term(g_a, n_a):
    # the strengths were (inf, 0.01), (nan, 0.01) or a bare OverflowError of
    # |Omega_a|, and the matrix warned or held NaN; at 7e307(1 + i) only
    # |Omega_a| leaves double range, which the matrix, split(cfg).reconstruct(), needs too;
    # split raised a bare OverflowError for a photon number past double range
    cfg = make_config(g_a, 1.0, 0.01, n_a, 0, 1, 0.3, 0.1, 0.5)
    for term in (lambda: model.pole_terms(cfg, 0.3, 0.1, 0.5), lambda: model.split(cfg),
                 lambda: suscept.sweep_at(cfg, "dc", [0.5])):
        with pytest.raises(PoleError, match=_OUT_OF_RANGE):
            term()


@pytest.mark.parametrize("g_b, n_b", [(1e200, 0), (1e154, 1), (1e154, np.int64(1))])
def test_a_pump_coupling_outside_double_range_is_the_out_of_range_pole(g_b, n_b):
    # |g_b|**2 raised a bare OverflowError at 1e200; at 1e154 it is 1e308, and
    # (n_b + 1) = 2 times it overflowed to inf with no error, so a sweep wrote
    # only invalid rows where G_b = inf does not depend on the swept detuning;
    # a numpy n_b warned of overflow in multiply until FieldMode held it as an int
    cfg = make_config(0.01, g_b, 0.01, 1, n_b, 1, 0.3, 0.1, 0.5)
    with pytest.raises(PoleError, match=_OUT_OF_RANGE):
        model.pole_terms(cfg, 0.3, 0.1, 0.5)
    with pytest.raises(PoleError, match=_OUT_OF_RANGE):
        suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-1.0, 1.0, 3))


def test_decay_rates_normalised_to_a_tuple_of_floats():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5, gamma=[0, 0.0, np.float64(0.0)])
    assert cfg.gamma == (0.0, 0.0, 0.0) and all(type(g) is float for g in cfg.gamma)
    assert cfg.is_hermitian
    assert hash(cfg) == hash(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5))
    assert effective.coefficients(cfg) == effective.coefficients(replace(cfg, gamma=(0.0,) * 3))


@pytest.mark.parametrize("g, delta", [
    (float("nan"), 0.0), (complex(0.1, float("inf")), 0.0), (0.1, float("inf")),
    (0.1, float("nan")), pytest.param(0.1, 10**400, id="delta-int-beyond-double"),
    pytest.param(10**400, 0.0, id="g-int-beyond-double"), pytest.param(0.1, "0.3", id="delta-str"),
    pytest.param("0.1", 0.0, id="g-str"), pytest.param(True, 0.0, id="g-bool"),
    pytest.param(0.1, False, id="delta-bool"), pytest.param(0.1, 0.5j, id="delta-complex"),
    pytest.param(0.1, None, id="delta-none")])
def test_nonfinite_mode_rejected(g, delta):
    with pytest.raises(ValueError, match="finite"):
        FieldMode("a", g, delta, 1)


@pytest.mark.parametrize("rate", [10**400, "0.1", True, None, float("nan")],
                         ids=["int-beyond-double", "str", "bool", "none", "nan"])
def test_decay_rate_that_is_no_finite_number_is_a_value_error(rate):
    with pytest.raises(ValueError, match="decay rates must be finite"):
        make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.0, 0.0, 0.0, gamma=(0.0, rate, 0.0))


_REFERENCE = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
# every entry that asks for a real number, called with z in its place
_REAL_ENTRIES = {
    "FieldMode.delta": lambda z: FieldMode("a", 0.01, z, 1),
    "SystemConfig.gamma": lambda z: replace(_REFERENCE, gamma=(0.0, z, 0.0)),
    "evaluate_energy eps_a": lambda z: perturb.evaluate_energy(
        perturb.build_series(model.split(_REFERENCE), 1, 4), 1, z, 0.01, 4),
    "evaluate_energy eps_c": lambda z: perturb.evaluate_energy(
        perturb.build_series(model.split(_REFERENCE), 1, 4), 1, 0.01, z, 4),
    "phase_angle t": lambda z: effective.phase_angle(effective.coefficients(_REFERENCE), 1, 1, z),
    "propagate t": lambda z: oracle.propagate(np.eye(4), np.eye(4)[0], z),
    "sweep_grid lo": lambda z: suscept.sweep_grid(z, 1.0, 3),
    "sweep_grid hi": lambda z: suscept.sweep_grid(-1.0, z, 3),
    "sweep_at": lambda z: suscept.sweep_at(_REFERENCE, "da", np.array([z], dtype=object)),
}


# every entry that asks for one number, real or complex, called with z in its place
_NUMBER_ENTRIES = {
    **{entry: call for entry, call in _REAL_ENTRIES.items() if entry != "sweep_at"},
    "FieldMode.g": lambda z: FieldMode("a", z, 0.3, 1),
    "ground_eigenvalue_function x": lambda z: oracle.ground_eigenvalue_function(
        model.split(_REFERENCE))(z, 0.01),
}


@pytest.mark.parametrize("z", [np.complex128(0.3 + 1j), np.complex64(0.3 + 1j),
                               np.complex64(0.3)], ids=["complex128", "complex64", "complex64-real"])
@pytest.mark.parametrize("entry", sorted(_REAL_ENTRIES))
def test_a_numpy_complex_is_refused_where_a_real_number_is_asked(entry, z):
    # math.isfinite and a cast to float took the real part of a numpy complex,
    # with numpy's ComplexWarning, where a Python complex raises ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            _REAL_ENTRIES[entry](z)
        with pytest.raises(ValueError, match="finite"):
            _REAL_ENTRIES[entry](complex(z))


@pytest.mark.parametrize("z", [np.complex128(0.3 + 1j), np.complex64(0.3 + 1j)],
                         ids=["complex128", "complex64"])
def test_a_numpy_complex_is_taken_where_a_complex_number_is_asked(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode = FieldMode("a", z, 0.3, 1)
        assert type(mode.g) is complex and mode.g == complex(z)
        energy = oracle.ground_eigenvalue_function(model.split(_REFERENCE))
        x = z * np.float32(1e-3)
        assert energy(x, x) == energy(complex(x), complex(x))


@pytest.mark.parametrize("entry", sorted(_NUMBER_ENTRIES))
def test_a_zero_dimensional_array_is_no_number(entry):
    # math.isfinite and cmath.isfinite take a 0-d array's one value, which
    # then left phase_angle as a numpy float and fed evaluate_energy an array
    for z in (np.array(0.1), np.array(0.1 + 0j), np.array([0.1])):
        with pytest.raises(ValueError, match="finite"):
            _NUMBER_ENTRIES[entry](z)
    assert not model._is_finite(np.array(0.1), cmath.isfinite)


@pytest.mark.parametrize("entry", sorted(_NUMBER_ENTRIES))
def test_a_signaling_nan_is_refused_with_the_entrys_own_message(entry):
    # converting a Decimal sNaN to float raises ValueError("cannot convert
    # signaling NaN to float"), which _is_finite let through in place of the
    # entry's own message
    with pytest.raises(ValueError, match="finite"):
        _NUMBER_ENTRIES[entry](decimal.Decimal("sNaN"))
    assert not model._is_finite(decimal.Decimal("sNaN"), cmath.isfinite)


@pytest.mark.parametrize("value", [[np.bool_(True), 0.5], [True, 0.5],
                                   np.array([True, 0.5], dtype=object), [[0.5], [True]],
                                   [0.5, "1"], [0.5, np.array(0.5)], [0.5, None]], ids=str)
def test_a_list_or_object_array_is_judged_one_element_at_a_time(value):
    # numpy turned each bool into 1.0 before the array was judged, so a sweep
    # evaluated delta_a = 1.0 where True was passed
    for dtype in (float, complex):
        assert model._finite_array(value, dtype) is None
    with pytest.raises(ValueError, match="finite"):
        suscept.sweep_at(_REFERENCE, "da", value)


@pytest.mark.parametrize("entry", [True, np.bool_(True), "1", None, np.array(0.5)], ids=repr)
def test_an_eigenvalue_series_as_a_nested_list_is_judged_one_entry_at_a_time(entry):
    E = [[0.0] * 5 for _ in range(5)]
    E[2][2] = entry
    with pytest.raises(ValueError, match="finite"):
        suscept.chis_from_energy(_REFERENCE, E)


def test_a_numeric_array_is_judged_by_its_dtype():
    # the sweep's chunks keep numpy's one pass: no element is looked at alone
    grid = np.linspace(-1.0, 1.0, 5)
    assert model._finite_array(grid, float) is grid
    assert model._finite_array(grid.astype(complex), complex).dtype == complex
    for bad in (grid > 0, grid.astype(complex), grid.astype(str)):
        assert model._finite_array(bad, float) is None
    assert model._finite_array(np.array([0.5, np.inf]), float) is None


def test_negative_decay_rejected():
    with pytest.raises(ValueError, match="decay"):
        make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.0, 0.0, 0.0, gamma=(-0.1, 0.0, 0.0))
    # other than three rates, through the constructor and through replace
    cfg = make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.0, 0.0, 0.0)
    for gamma in ((1.0, 2.0), (0.0,) * 4, ()):
        with pytest.raises(ValueError, match="gamma must hold exactly three decay rates"):
            SystemConfig(cfg.mode_a, cfg.mode_b, cfg.mode_c, gamma)
        with pytest.raises(ValueError, match="gamma must hold exactly three decay rates"):
            replace(cfg, gamma=gamma)


def test_mislabeled_mode_rejected():
    with pytest.raises(ValueError, match="label"):
        SystemConfig(
            FieldMode("b", 0.1, 0.0, 1),
            FieldMode("b", 1.0, 0.0, 0),
            FieldMode("c", 0.1, 0.0, 1),
        )
    # a label outside ("a", "b", "c"), through the constructor and through replace
    for label in ("d", "A", "", None):
        with pytest.raises(ValueError, match="unknown mode label"):
            FieldMode(label, 0.1, 0.0, 1)
        with pytest.raises(ValueError, match="unknown mode label"):
            replace(FieldMode("a", 0.1, 0.0, 1), label=label)


def _field_bits(cfg):
    """Each field of ``cfg`` and its modes as its type and bytes, signed zeros apart."""
    modes = [(m.label, type(m.g), struct.pack("<dd", m.g.real, m.g.imag),
              type(m.delta), struct.pack("<d", m.delta), type(m.n), m.n)
             for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)]
    return modes, [type(g) for g in cfg.gamma], struct.pack("<3d", *cfg.gamma)


_ROUTES = {
    "constructor": lambda c: SystemConfig(
        *(FieldMode(m.label, m.g, m.delta, m.n) for m in (c.mode_a, c.mode_b, c.mode_c)), c.gamma),
    "replace": lambda c: replace(c, **{f"mode_{m.label}": replace(m)
                                       for m in (c.mode_a, c.mode_b, c.mode_c)}),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle-{protocol}": (lambda c, p=protocol: pickle.loads(pickle.dumps(c, protocol=p)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("gamma", [(0.0, 0.0, 0.0), (0.12, 0.0, 0.07)], ids=["lossless", "lossy"])
def test_every_way_of_building_a_configuration_gives_its_bits(route, gamma):
    cfg = make_config(complex(0.01, -0.0), complex(-0.0, 1.0), 0.004 + 0.009j, 1, 0, 2,
                      -0.0, 0.1, 0.5, gamma=gamma)
    built = _ROUTES[route](cfg)
    assert type(built) is SystemConfig and built is not cfg
    assert built == cfg and hash(built) == hash(cfg)
    assert _field_bits(built) == _field_bits(cfg)
    assert math.copysign(1.0, built.mode_a.delta) == -1.0
    assert not hasattr(built, "__dict__") and not hasattr(built.mode_a, "__dict__")


def _forget_split():
    model._SPLIT_MEMO = (object(), None)


def test_split_is_remembered_for_the_same_configuration_object_only():
    a = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    b = make_config(0.012, 1.1, 0.009, 2, 1, 1, 0.45, -0.2, 0.4, gamma=(0.12, 0.2, 0.07))
    cold = []
    for cfg in (a, b):
        _forget_split()
        cold.append(model.split(cfg))
    _forget_split()
    for cfg, want in zip((a, b, a), (*cold, cold[0])):
        assert np.array(model.split(cfg)).tobytes() == np.array(want).tobytes()
    assert model.split(a) is model.split(a)
    twin = replace(a)  # equal, not the same object: a split of its own
    assert twin == a and model.split(twin) is not model.split(a)
    # equal configurations can split to other bits: a detuning of -0.0 is == 0.0
    zero = replace(a, mode_a=replace(a.mode_a, delta=0.0))
    negative = replace(a, mode_a=replace(a.mode_a, delta=-0.0))
    assert zero == negative
    _forget_split()
    bits = [np.array(model.split(cfg)).tobytes() for cfg in (negative, zero)]
    assert bits[0] != bits[1]
    assert [np.array(model.split(cfg)).tobytes() for cfg in (negative, zero)] == bits


def test_a_split_is_numbers_that_hash_refuse_assignment_and_reconstruct_anew():
    sp = model.split(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5))
    assert [type(v) for v in sp] == [complex] * 7 + [float] * 2
    assert {sp: "memo"}[model.PerturbationSplit(*sp)] == "memo"
    for field in sp._fields:
        with pytest.raises(AttributeError):
            setattr(sp, field, 1.0)
    h = sp.reconstruct()
    h[1, 1] = 1.0
    assert h.flags.writeable and sp.reconstruct()[1, 1] == sp.h11 != 1.0


_N_ENTRIES = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 1), (1, 0), (2, 3), (3, 2)]


def test_reconstruct_is_nonzero_only_at_the_nine_n_configuration_entries():
    # every draw puts a nonzero number at most at these entries; a zero coupling
    # leaves its probe phase 1 and its entries 0
    rng = np.random.default_rng(53)
    outside = np.ones((4, 4), dtype=bool)
    outside[tuple(zip(*_N_ENTRIES))] = False
    for k in range(200):
        cfg = validate._random_config(numpy_draws(rng), bool(k % 2))
        mode = ("mode_a", "mode_b", "mode_c", None)[k % 4]
        if mode:
            cfg = replace(cfg, **{mode: replace(getattr(cfg, mode), g=0.0)})
        sp = model.split(cfg)
        h = sp.reconstruct()
        assert not h[outside].any(), cfg
        assert [h[i, j] for i, j in _N_ENTRIES[:5]] == list(sp[:5])
        if mode in ("mode_a", "mode_c"):
            assert (sp.ua if mode == "mode_a" else sp.uc) == 1
            assert h[(0, 1) if mode == "mode_a" else (2, 3)] == 0


def _sum(sp, eps_a, eps_c):
    """h0 + eps_a*va + eps_c*vc from the tests' own matrices: reconstruct's reference."""
    h0, va, vc = matrices(sp)
    return h0 + eps_a * va + eps_c * vc


def test_reconstruct_writes_the_bits_of_the_three_matrix_sum():
    # 400 draws, half lossy, a third with phased couplings, at the split's own
    # strengths and at strengths a caller of ground_eigenvalue_function may pass.
    # At a complex strength, numpy's complex loop may fuse a product's multiply
    # and add (FMA) where the probe phase is not real; reconstruct's probe entry
    # is the Python product, rounded after each operation on every host.
    rng = np.random.default_rng(54)
    for k in range(400):
        cfg = validate._random_config(numpy_draws(rng), lossy=k % 2 == 1)
        sp = model.split(phased(cfg, rng) if k % 3 == 0 else cfg)
        for a, c in [(sp.eps_a, sp.eps_c), (0.0, 0.0), (-0.0, -0.0), (-sp.eps_a, -sp.eps_c),
                     (1e-300, 1e-300), (1e300, 1e300), (np.float32(0.1), np.float64(0.2)),
                     (2e-3 - 1e-3j, -1e-3 + 3e-3j), (-1e-3 - 2e-3j, np.complex64(0.1 - 0.2j))]:
            h, want = sp._replace(eps_a=a, eps_c=c).reconstruct(), _sum(sp, a, c)
            if isinstance(a, complex):
                for (i, j), eps, u in [((0, 1), a, sp.ua.conjugate()), ((1, 0), a, sp.ua),
                                       ((2, 3), c, sp.uc.conjugate()), ((3, 2), c, sp.uc)]:
                    product = complex(eps) * u
                    assert h[i, j] == product, (cfg, a, c)
                    assert abs(want[i, j] - product) <= 2**-51 * abs(eps), (cfg, a, c)
                    h[i, j] = want[i, j]
            assert h.dtype == complex and h.tobytes() == want.tobytes(), (cfg, a, c)


def test_reconstruct_keeps_each_signed_zero_of_the_sum():
    # an h0 part that is -0 stays -0 only where both probe terms add -0 to it,
    # and a probe product's -0 part is +0, as in the sum
    sp = model.split(_REFERENCE)._replace(h11=complex(-0.0, -0.0), h22=complex(0.0, -0.0),
                                          x=complex(-0.0, 0.0), ua=complex(1.0, -0.0))
    strengths = [0.0, -0.0, 1e-3, -1e-3, 1e-3j, -1e-3j, -1e-3 - 1e-3j, complex(-0.0, -0.0)]
    for a, c in itertools.product(strengths, repeat=2):
        h = sp._replace(eps_a=a, eps_c=c).reconstruct()
        assert h.tobytes() == _sum(sp, a, c).tobytes(), (a, c)


def test_a_split_that_raises_raises_again_with_the_same_message():
    ok = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    far = make_config(1e300, 1.0, 0.01, 10**300, 0, 1, 0.3, 0.1, 0.5)
    model.split(ok)
    messages = []
    for _ in range(2):
        with pytest.raises(PoleError) as info:
            model.split(far)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == model.POLES[model.OUT_OF_RANGE - 1]
