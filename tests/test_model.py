import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nkerr import effective, model, suscept
from nkerr.errors import PoleError
from nkerr.model import FieldMode, ManifoldIndex, SystemConfig

from conftest import make_config


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
    assert (sp.eps_a, sp.eps_c) == (model.probe_strength(cfg.mode_a),
                                    model.probe_strength(cfg.mode_c))
    assert (sp.eps_a, sp.eps_c) == pytest.approx((abs(hand[1, 0]), abs(hand[3, 2])), rel=1e-15)
    hand[0, 1] = hand[1, 0] = hand[2, 3] = hand[3, 2] = 0.0
    assert np.abs(sp.h0 - hand).max() <= 1e-15 * scale


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
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(sp.va, expected)
    assert sp.eps_a == pytest.approx(abs(model.rabi_frequency(cfg.mode_a)) / 2)


def test_split_phases_follow_couplings():
    cfg = make_config(0.5 * cmath.exp(0.8j), 1.0, 0.25 * cmath.exp(-1.2j),
                      2, 0, 1, 0.1, 0.2, 0.3)
    sp = model.split(cfg)
    assert np.angle(sp.va[1, 0]) == pytest.approx(0.8)
    assert np.angle(sp.vc[3, 2]) == pytest.approx(-1.2)
    assert abs(sp.va[1, 0]) == pytest.approx(1.0)
    assert abs(sp.vc[3, 2]) == pytest.approx(1.0)


def test_split_degenerates_without_a_photons():
    cfg = make_config(0.5, 1.0, 0.25, 0, 0, 1, 0.1, 0.2, 0.3)
    sp = model.split(cfg)
    assert sp.eps_a == 0.0
    diff = np.abs(sp.h0 + sp.eps_c * sp.vc - sp.reconstruct())
    assert diff.max() < 1e-15


def test_manifold_members_minimal():
    members = model.manifold_members(ManifoldIndex(1, 1, 0, 1))
    assert members == [
        ManifoldIndex(1, 1, 0, 1),
        ManifoldIndex(2, 0, 0, 1),
        ManifoldIndex(3, 0, 1, 1),
        ManifoldIndex(4, 0, 1, 0),
    ]


def test_manifold_members_generic():
    members = model.manifold_members(ManifoldIndex(1, 5, 2, 3))
    assert members == [
        ManifoldIndex(1, 5, 2, 3),
        ManifoldIndex(2, 4, 2, 3),
        ManifoldIndex(3, 4, 3, 3),
        ManifoldIndex(4, 4, 3, 2),
    ]


def test_manifold_members_rejects_missing_a_photon():
    with pytest.raises(ValueError, match="n_a = 0"):
        model.manifold_members(ManifoldIndex(1, 0, 0, 1))
    with pytest.raises(ValueError, match="photon numbers must be integers >= 0"):
        model.manifold_members(ManifoldIndex(1, 1.5, 0, 1))  # half an 'a' photon


def test_manifold_members_rejects_missing_c_photon():
    with pytest.raises(ValueError, match="n_c = 0"):
        model.manifold_members(ManifoldIndex(1, 2, 0, 0))
    with pytest.raises(ValueError, match="photon numbers must be integers >= 0"):
        model.manifold_members(ManifoldIndex(1, 1, -1, 1))  # a negative pump photon number


@given(st.integers(min_value=1, max_value=6), photon, st.integers(min_value=1, max_value=6))
def test_manifold_bookkeeping_conserved(na, nb, nc):
    # total "a" quanta  n_a + (level above 1) and "c" quanta are integer-conserved
    members = model.manifold_members(ManifoldIndex(1, na, nb, nc))
    seed = members[0]
    for m in members:
        absorbed_a = 1 if m.atomic_level >= 2 else 0
        emitted_b = 1 if m.atomic_level >= 3 else 0
        absorbed_c = 1 if m.atomic_level >= 4 else 0
        assert m.n_a + absorbed_a == seed.n_a
        assert m.n_b - emitted_b == seed.n_b
        assert m.n_c + absorbed_c == seed.n_c


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError, match="photon number"):
        FieldMode("a", 0.1, 0.0, -1)


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
    for term in (model.rabi_frequency, model.probe_strength):
        with pytest.raises(PoleError, match=_OUT_OF_RANGE):
            term(mode)


@pytest.mark.parametrize("g_a, n_a", [(1e308, 1), (1e308, 0), (7e307 * (1 + 1j), 1),
                                      pytest.param(0.01, 10**400, id="0.01-10**400"),
                                      pytest.param(0.01, 10**309, id="0.01-10**309")])
def test_a_probe_outside_double_range_is_the_out_of_range_pole_in_every_model_term(g_a, n_a):
    # the strengths were (inf, 0.01), (nan, 0.01) or a bare OverflowError of
    # |Omega_a|, and the matrix warned or held NaN; at 7e307(1 + i) only
    # |Omega_a| leaves double range, which the matrix, split(cfg).reconstruct(), needs too;
    # split raised a bare OverflowError for a photon number past double range
    cfg = make_config(g_a, 1.0, 0.01, n_a, 0, 1, 0.3, 0.1, 0.5)
    for term in (lambda cfg: model.probe_strength(cfg.mode_a), model.split):
        with pytest.raises(PoleError, match=_OUT_OF_RANGE):
            term(cfg)


@pytest.mark.parametrize("g_b, n_b", [(1e200, 0), (1e154, 1), (1e154, np.int64(1))])
def test_a_pump_coupling_outside_double_range_is_the_out_of_range_pole(g_b, n_b):
    # |g_b|**2 raised a bare OverflowError at 1e200; at 1e154 it is 1e308, and
    # (n_b + 1) = 2 times it overflowed to inf with no error, so a sweep wrote
    # only invalid rows where G_b = inf does not depend on the swept detuning;
    # a numpy n_b warned of overflow in multiply until FieldMode held it as an int
    cfg = make_config(0.01, g_b, 0.01, 1, n_b, 1, 0.3, 0.1, 0.5)
    with pytest.raises(PoleError, match=_OUT_OF_RANGE):
        model.pump_coupling(cfg)
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


def test_negative_decay_rejected():
    with pytest.raises(ValueError, match="decay"):
        make_config(0.1, 1.0, 0.1, 1, 0, 1, 0.0, 0.0, 0.0, gamma=(-0.1, 0.0, 0.0))


def test_mislabeled_mode_rejected():
    with pytest.raises(ValueError, match="label"):
        SystemConfig(
            FieldMode("b", 0.1, 0.0, 1),
            FieldMode("b", 1.0, 0.0, 0),
            FieldMode("c", 0.1, 0.0, 1),
        )
