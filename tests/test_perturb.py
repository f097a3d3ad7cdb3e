import numpy as np
import pytest

from nkerr import effective, model, oracle, perturb
from nkerr.errors import DegeneracyError, MissingOrderError

from conftest import make_config


def _h0(d1, d2, d3, ob):
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1], h[2, 2], h[3, 3] = d1, d2, d3
    h[1, 2] = ob / 2
    h[2, 1] = np.conj(ob) / 2
    return h


# -- dressed basis -----------------------------------------------------------

def test_dressed_basis_resonant_pump():
    basis = perturb.dressed_basis(_h0(0.0, 0.0, 0.7, 2.0))
    assert basis.eigenvalues[1] == pytest.approx(-1.0)
    assert basis.eigenvalues[2] == pytest.approx(1.0)
    v_minus = basis.right[:, 1]
    v_plus = basis.right[:, 2]
    s = 1 / np.sqrt(2)
    assert np.allclose(np.abs(v_minus), [0, s, s, 0], atol=1e-12)
    assert np.allclose(np.abs(v_plus), [0, s, s, 0], atol=1e-12)
    assert v_minus[1] * v_minus[2] < 0  # (|2> - |3>)/sqrt(2) ray
    assert v_plus[1] * v_plus[2] > 0


def test_dressed_basis_uncoupled_pump_returns_bare():
    basis = perturb.dressed_basis(_h0(3.0, 1.0, 5.0, 0.0))
    assert np.allclose(basis.eigenvalues, [0, 3, 1, 5])
    assert np.allclose(basis.right, np.eye(4))


def test_dressed_basis_degeneracy_rejected():
    # delta_3 = 0 collides the two uncoupled levels
    with pytest.raises(DegeneracyError):
        perturb.dressed_basis(_h0(0.0, 0.0, 0.0, 2.0))


def test_dressed_basis_eigen_residuals():
    h0 = _h0(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j))
    basis = perturb.dressed_basis(h0)
    norm = np.linalg.norm(h0)
    for k in range(4):
        res = np.linalg.norm(h0 @ basis.right[:, k] - basis.eigenvalues[k] * basis.right[:, k])
        assert res < 1e-12 * max(1.0, norm)


def test_dressed_basis_biorthogonal():
    h0 = _h0(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j))
    basis = perturb.dressed_basis(h0)
    assert np.allclose(basis.left @ basis.right, np.eye(4), atol=1e-13)


def test_dressed_basis_hermitian_left_is_conjugate():
    h0 = _h0(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j))
    basis = perturb.dressed_basis(h0)
    assert np.allclose(basis.left, basis.right.conj().T, atol=1e-13)


# -- recursion ---------------------------------------------------------------

def test_first_order_energy_vanishes(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    assert table.E[0, 1, 0] == 0


def test_second_order_energy_matches_closed_form(reference_config):
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 2)
    d1, d2, _ = reference_config.detunings()
    oa2 = abs(model.rabi_frequency(reference_config.mode_a)) ** 2
    ob2 = abs(model.rabi_frequency(reference_config.mode_b)) ** 2
    folded = sp.eps_a**2 * table.E[0, 2, 0]
    assert folded == pytest.approx(-d2 * oa2 / (4 * d1 * d2 - ob2), rel=1e-12)


def test_mixed_fourth_order_on_raman_resonance():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.3, 0.5)  # delta_2 = 0
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 4)
    _, _, d3 = cfg.detunings()
    oa2 = abs(model.rabi_frequency(cfg.mode_a)) ** 2
    ob2 = abs(model.rabi_frequency(cfg.mode_b)) ** 2
    oc2 = abs(model.rabi_frequency(cfg.mode_c)) ** 2
    folded = sp.eps_a**2 * sp.eps_c**2 * table.E[0, 2, 2]
    assert folded == pytest.approx(-oa2 * oc2 / (4 * d3 * ob2), rel=1e-12)


def test_zeroth_order_coefficients_are_kronecker(reference_config):
    sp = model.split(reference_config)
    for n in range(1, 5):
        table = perturb.build_series(sp, n, 0)
        for m in range(1, 5):
            assert table.A[0, 0, 0, m - 1] == (1.0 if m == n else 0.0)


def test_first_order_coefficient_to_level4_vanishes(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    assert table.A[0, 1, 0, 3] == 0


def test_first_order_coefficients_textbook_formula(reference_config):
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 1)
    basis = table.basis
    for m in (2, 3):
        elem = basis.left[m - 1] @ sp.va @ basis.right[:, 0]
        expected = elem / (0.0 - basis.eigenvalues[m - 1])
        assert table.A[0, 1, 0, m - 1] == pytest.approx(expected, rel=1e-13)


def test_first_order_coefficients_vs_fd_eigenvector(reference_config):
    # independent route: differentiate the exact eigenvector itself
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 1)
    basis = table.basis
    h = 1e-6

    def ground_vec(x):
        sol = oracle.exact_eigensystem(sp.h0 + x * sp.va)
        idx = int(np.argmax(np.abs(sol.eigenvectors[0, :])))
        v = sol.eigenvectors[:, idx]
        return v / v[0]  # pin the gauge on the bare level-1 component

    deriv = (ground_vec(h) - ground_vec(-h)) / (2 * h)
    for m in (2, 3):
        fd_coeff = basis.left[m - 1] @ deriv
        assert fd_coeff == pytest.approx(table.A[0, 1, 0, m - 1], rel=1e-6, abs=1e-10)


def test_build_series_order_zero(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 0)
    assert table.order == 0
    assert table.E.shape == (2, 1, 1) and table.A.shape == (2, 1, 1, 4)
    assert table.E[0, 0, 0] == 0


def test_parity_zeros(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    for d in range(1, 5):
        for p in range(d + 1):
            q = d - p
            if p % 2 or q % 2:
                assert abs(table.E[0, p, q]) < 1e-14


def test_dark_state_cancellation():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.3, 0.5)  # delta_2 = 0
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 4)
    folded = sp.eps_a**2 * table.E[0, 2, 0] + sp.eps_a**4 * table.E[0, 4, 0]
    assert abs(folded) < 1e-13


def test_hermitian_corrections_are_real(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    for d in range(5):
        for p in range(d + 1):
            assert abs(table.E[0, p, d - p].imag) < 1e-13


def test_normalization_residual_every_order(lossy_config):
    # the order-(p, q) term of the norm <bra|ket> vanishes above order (0, 0)
    table = perturb.build_series(model.split(lossy_config), 1, 4)
    assert perturb.cauchy_term(table.A[1], table.A[0], 0, 0) == 1
    for d in range(1, 5):
        for p in range(d + 1):
            assert abs(perturb.cauchy_term(table.A[1], table.A[0], p, d - p)) < 1e-12


def test_order_independence_bit_identical(reference_config):
    sp = model.split(reference_config)
    t2 = perturb.build_series(sp, 1, 2)
    t4 = perturb.build_series(sp, 1, 4)
    for d in range(3):
        for p in range(d + 1):
            q = d - p
            assert t2.E[0, p, q] == t4.E[0, p, q]
            for m in range(4):
                assert t2.A[0, p, q, m] == t4.A[0, p, q, m]


def test_missing_order_raises(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    with pytest.raises(MissingOrderError):
        perturb.evaluate_energy(table, 1, 0.01, 0.01, 2)  # past the built order
    with pytest.raises(MissingOrderError):
        perturb.evaluate_energy(table, 1, 0.01, 0.01, -1)
    with pytest.raises(MissingOrderError):
        perturb.evaluate_energy(table, 2, 0.01, 0.01, 1)  # another state


def test_build_series_propagates_degeneracy():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.0, 0.0, 0.0)  # delta_3 = 0
    with pytest.raises(DegeneracyError):
        perturb.build_series(model.split(cfg), 1, 2)


# -- evaluation vs oracle ----------------------------------------------------

def test_evaluate_energy_at_zero_strength(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    assert perturb.evaluate_energy(table, 1, 0.0, 0.0, 4) == 0
    t3 = perturb.build_series(model.split(reference_config), 3, 2)
    assert perturb.evaluate_energy(t3, 3, 0.0, 0.0, 2) == t3.basis.eigenvalues[2]


def test_series_matches_exact_with_eps6_scaling(reference_config):
    residuals = []
    for scale in (1.0, 0.5):
        cfg = make_config(0.01 * scale, 1.0, 0.01 * scale, 1, 0, 1, 0.3, 0.1, 0.5)
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 4)
        approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
        exact = oracle.track_ground(cfg, 1.0)
        residuals.append(abs(approx - exact))
    assert residuals[0] < 1e-9
    assert 32 <= residuals[0] / residuals[1] <= 128


def test_series_equals_effective_form(reference_config):
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 4)
    series = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
    co = effective.coefficients(reference_config)
    na, nc = reference_config.mode_a.n, reference_config.mode_c.n
    expected = co.linear * na + co.self_kerr * na**2 + co.cross_kerr * na * nc
    assert abs(series - expected) < 1e-12


@pytest.mark.parametrize("cfg_args", [
    (0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5),
    (0.015, 1.2, 0.008, 2, 1, 2, -0.4, 0.25, 0.6),
])
def test_corrections_match_fd_of_exact_eigenvalue(cfg_args):
    cfg = make_config(*cfg_args)
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 4)
    c = oracle.taylor_coefficients(oracle.ground_eigenvalue_newton(sp),
                                   oracle.extraction_radius(sp))
    for d in range(1, 5):
        for p in range(d + 1):
            q = d - p
            fd = c[p, q]
            en = table.E[0, p, q]
            assert abs(fd - en) <= 1e-5 * max(abs(fd), abs(en), 1e-8)
    # E(0, q) is exactly zero: no a-photon, no coupling to level 1.  The
    # extraction radius must not be set by bare level 4, which would put the
    # Cauchy rounding of this entry near 1e-13.
    assert abs(c[0, 4]) < 1e-14


def test_lossy_series_tracks_complex_eigenvalue(lossy_config):
    sp = model.split(lossy_config)
    table = perturb.build_series(sp, 1, 4)
    approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
    exact = oracle.track_ground(lossy_config, 1.0)
    assert abs(approx - exact) < 1e-8
