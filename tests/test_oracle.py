import cmath
import contextlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nkerr import model, oracle, perturb, suscept, validate
from nkerr.errors import ConvergenceError, DegeneracyError, PoleError, TrackingError
from nkerr.oracle import EigenSolution

import cauchy
from conftest import make_config, numpy_draws


# -- exact eigensystem -------------------------------------------------------

def test_eigensystem_zero_matrix():
    sol = oracle.exact_eigensystem(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(sol.eigenvalues, np.zeros(4))


def test_eigensystem_diagonal_matrix():
    h = np.diag([0.0, 0.7, 0.2, 1.4]).astype(complex)
    sol = oracle.exact_eigensystem(h)
    assert np.allclose(sol.eigenvalues, [0.0, 0.2, 0.7, 1.4])
    # eigenvectors are canonical basis vectors up to phase
    assert np.allclose(np.abs(sol.eigenvectors), np.eye(4)[:, [0, 2, 1, 3]])


def test_eigensystem_dressed_pair():
    cfg = make_config(0.0, 1.0, 0.0, 1, 0, 1, 0.0, 0.0, 0.0)
    sol = oracle.exact_eigensystem(model.split(cfg).reconstruct())
    assert np.allclose(sol.eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_eigensystem_sorted_deterministically(lossy_config):
    h = model.split(lossy_config).reconstruct()
    w = oracle.exact_eigensystem(h).eigenvalues
    key = sorted(range(4), key=lambda k: (w[k].real, w[k].imag))
    assert key == [0, 1, 2, 3]


def test_eigensystem_reconstruction(lossy_config):
    h = model.split(lossy_config).reconstruct()
    sol = oracle.exact_eigensystem(h)
    v = sol.eigenvectors
    recon = v @ np.diag(sol.eigenvalues) @ np.linalg.inv(v)
    assert np.linalg.norm(h - recon) < 1e-11 * max(1.0, np.linalg.norm(h))


def test_eigensystem_hermitian_unitary_basis(reference_config):
    h = model.split(reference_config).reconstruct()
    sol = oracle.exact_eigensystem(h)
    v = sol.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12
    assert np.max(np.abs(sol.eigenvalues.imag)) < 1e-13


@pytest.mark.parametrize("route, lossy", [("eigh", False), ("eig", True)])
def test_eigensystem_rejects_a_perturbed_eigenvector(reference_config, lossy_config,
                                                     monkeypatch, route, lossy):
    solve = getattr(np.linalg, route)

    def perturbed(h):
        w, v = solve(h)
        v = v.copy()
        v[:, 0] += 1e-9
        return w, v

    monkeypatch.setattr(np.linalg, route, perturbed)
    h = model.split(lossy_config if lossy else reference_config).reconstruct()
    with pytest.raises(ConvergenceError, match="exceeds contract"):
        oracle.exact_eigensystem(h)


def test_eigensystem_route_is_chosen_by_exact_hermiticity(monkeypatch):
    calls = []
    for route in ("eig", "eigh"):
        solve = getattr(np.linalg, route)
        monkeypatch.setattr(np.linalg, route,
                            lambda h, route=route, solve=solve: calls.append(route) or solve(h))
    cfg = make_config(0.3 * cmath.exp(0.4j), 1.1 * cmath.exp(-2.1j), 0.2j, 1, 0, 1, 0.3, 0.1, 0.5)
    h = model.split(cfg).reconstruct()
    assert np.array_equal(h, h.conj().T)
    oracle.exact_eigensystem(h)
    h[2, 1] = np.nextafter(h[2, 1].real, 2.0) + 1j * h[2, 1].imag  # one ulp off Hermitian
    oracle.exact_eigensystem(h)
    assert calls == ["eigh", "eig"]


@pytest.mark.parametrize("route, lossy", [("eigh", False), ("eig", True)])
def test_a_failed_eigensolver_is_a_convergence_error(reference_config, lossy_config,
                                                      monkeypatch, route, lossy):
    def failing(h):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(np.linalg, route, failing)
    h = model.split(lossy_config if lossy else reference_config).reconstruct()
    with pytest.raises(ConvergenceError, match="^eigensolver failed: planted$"):
        oracle.exact_eigensystem(h)


@pytest.mark.parametrize("gamma_3", [0.0, 0.2])  # the eigh and the eig route
def test_residual_contract_is_judged_without_overflow(gamma_3):
    # at g_a = 1e200 the squares of the residual entries (~1e184) leave double
    # range, while the residuals are ~1e-16 of the matrix scale; so far outside
    # the perturbative region no ground branch is certified
    cfg = make_config(1e200, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5, (0.0, 0.0, gamma_3))
    sp = model.split(cfg)
    h = sp.reconstruct()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = oracle.exact_eigensystem(h)
        with pytest.raises(TrackingError, match="not certified"):
            oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
    r = h @ sol.eigenvectors - sol.eigenvectors * sol.eigenvalues
    norms = [math.hypot(*column) for column in np.abs(r).T]  # overflows no square
    assert sol.residuals.max() > 1e180
    assert np.allclose(sol.residuals, norms, rtol=1e-14, atol=0)  # small columns too
    assert sol.residuals.max() <= oracle.RESIDUAL_TOL * math.hypot(*np.abs(h).flat)


def test_eigensystem_of_a_matrix_whose_scale_leaves_double_range_is_a_pole_error():
    # the bound RESIDUAL_TOL * inf once passed an inf eigenvalue and residual
    big = 1e308
    h = np.array([[0, big, 0, 0], [big, big, big, 0], [0, big, -big, 0], [0, 0, 0, 1]],
                 dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="outside double range"):
            oracle.exact_eigensystem(h)


@pytest.mark.parametrize("h", [np.diag([0.0, np.nan, 0.0, 0.0]),
                               np.diag([0.0, np.nan, np.inf, 0.0])], ids=["nan", "nan-and-inf"])
def test_eigensystem_of_a_matrix_holding_a_nan_is_a_pole_error(monkeypatch, h):
    # the scale is NaN, so the error comes before LAPACK, which would raise
    # ConvergenceError on such a matrix
    monkeypatch.setattr(np.linalg, "eig", None)
    monkeypatch.setattr(np.linalg, "eigh", None)
    with pytest.raises(PoleError, match="outside double range"):
        oracle.exact_eigensystem(h)


@pytest.mark.parametrize("route, lossy", [("eigh", False), ("eig", True)])
def test_eigensystem_rejects_a_nan_residual(reference_config, lossy_config, monkeypatch,
                                            route, lossy):
    solve = getattr(np.linalg, route)

    def nan_column(h):
        w, v = solve(h)
        v = v.copy()
        v[:, 0] = np.nan
        return w, v

    monkeypatch.setattr(np.linalg, route, nan_column)
    h = model.split(lossy_config if lossy else reference_config).reconstruct()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="residual nan exceeds contract"):
            oracle.exact_eigensystem(h)


_NOT_4X4 = [[[0.0] * 4] * 4, np.zeros(4), np.full((4, 4), "0"), np.zeros((3, 4)),
            np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=object), None]
_NOT_4X4_IDS = ["nested-list", "1-d", "strings", "3x4", "bools", "objects", "none"]


@pytest.mark.parametrize("h", _NOT_4X4, ids=_NOT_4X4_IDS)
def test_eigensystem_refuses_anything_but_a_4x4_numeric_array(h):
    with pytest.raises(ValueError, match="^h must be a 4 x 4 numpy array of numbers"):
        oracle.exact_eigensystem(h)


# -- propagation -------------------------------------------------------------

def test_propagate_identity_at_t0(lossy_config):
    h = model.split(lossy_config).reconstruct()
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    assert np.allclose(oracle.propagate(h, psi0, 0.0), psi0, atol=1e-14)


def test_propagate_diagonal_phases():
    h = np.diag([0.0, 0.3, -0.2, 1.0]).astype(complex)
    psi0 = np.ones(4, dtype=complex) / 2
    t = 2.7
    out = oracle.propagate(h, psi0, t)
    assert np.allclose(out, np.exp(-1j * np.diag(h) * t) / 2, atol=1e-13)


def test_propagate_group_property(reference_config):
    h = model.split(reference_config).reconstruct()
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    a = oracle.propagate(h, psi0, 0.8 + 1.9)
    b = oracle.propagate(h, oracle.propagate(h, psi0, 0.8), 1.9)
    assert np.linalg.norm(a - b) < 1e-11


def test_propagate_preserves_norm_hermitian(reference_config):
    h = model.split(reference_config).reconstruct()
    psi0 = np.array([0.6, 0.48j, -0.36, 0.48], dtype=complex)
    out = oracle.propagate(h, psi0, 37.0)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi0)) < 1e-12


def test_propagate_phase_tracks_ground_energy(reference_config):
    sp = model.split(reference_config)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    lam = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
    t = 200.0
    out = oracle.propagate(sp.reconstruct(), psi0, t)
    overlap = complex(np.vdot(psi0, out))
    eps = max(sp.eps_a, sp.eps_c)
    assert abs(np.angle(overlap) + lam.real * t) < 10 * eps**2


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"),
                               pytest.param(10**400, id="int-past-double"), True, "x"])
def test_propagate_rejects_nonfinite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        oracle.propagate(np.eye(4), np.ones(4), t)


@pytest.mark.parametrize("t", [1e308, -1.7e308])
def test_propagate_exponent_beyond_double_range_is_a_pole_error(t):
    with pytest.raises(PoleError, match="outside double range"):
        oracle.propagate(np.diag([0.0, 2.0, -3.0, 5.0]).astype(complex), np.ones(4), t)


def test_propagate_refuses_a_defective_matrix():
    # nilpotent h: exp(-iht) psi0 is (1 - 1j, 1, 1, 1) at t = 1, but the two
    # parallel eigenvectors LAPACK returns pass the residual contract, and the
    # spectral sum came out (0, 1, 1, 1)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(ConvergenceError, match="condition number .* exceeds 1e"):
        oracle.propagate(h, np.ones(4), 1.0)


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0.0, -float("inf")),
                                   pytest.param(10**400, id="int-past-double")])
def test_propagate_rejects_nonfinite_state(entry):
    with pytest.raises(ValueError, match="psi0 must be finite"):
        oracle.propagate(np.eye(4), [entry, 0.0, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("state", [[True, False, False, False], np.eye(4, dtype=bool)[0]],
                         ids=["list", "array"])
def test_propagate_rejects_a_bool_state(state):
    # a bool is not a finite number, as for t; a list mixing bools with
    # floats is a float array to numpy, and is propagated
    with pytest.raises(ValueError, match="psi0 must be finite"):
        oracle.propagate(np.eye(4), state, 1.0)


@pytest.mark.parametrize("h", _NOT_4X4, ids=_NOT_4X4_IDS)
def test_propagate_refuses_anything_but_a_4x4_numeric_array(h):
    with pytest.raises(ValueError, match="^h must be a 4 x 4 numpy array of numbers"):
        oracle.propagate(h, np.ones(4), 1.0)


@pytest.mark.parametrize("state", [np.ones(3), [1.0] * 5, np.ones((2, 2)), np.ones((4, 1)), 1.0],
                         ids=["3", "5", "2x2", "4x1", "scalar"])
def test_propagate_refuses_a_state_without_4_entries(state):
    with pytest.raises(ValueError, match="^psi0 must be finite, with 4 entries"):
        oracle.propagate(np.eye(4), state, 1.0)


# -- exact ground eigenvalue ------------------------------------------------

def _ground(cfg):
    sp = model.split(cfg)
    return oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)


def test_ground_eigenvalue_function_weak_config(reference_config):
    lam = _ground(reference_config)
    assert abs(lam.imag) < 1e-13
    assert abs(lam) < 1e-3  # ground shift is O(eps^2)


def test_ground_series_rejects_degenerate_spectrum():
    sp = model.split(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.1 - 0.3 + 1e-12))
    with pytest.raises(DegeneracyError):
        oracle.ground_series(sp, 4)


def test_ground_eigenvalue_function_deterministic(reference_config):
    a = _ground(reference_config)
    b = _ground(reference_config)
    assert a == b


def _phased(cfg, rng):
    """``cfg`` with a random phase on each of the three couplings."""
    modes = [replace(m, g=abs(m.g) * cmath.exp(1j * rng.uniform(0, 2 * np.pi)))
             for m in (cfg.mode_a, cfg.mode_b, cfg.mode_c)]
    return replace(cfg, mode_a=modes[0], mode_b=modes[1], mode_c=modes[2])


@pytest.mark.parametrize("lossy", [False, True])
def test_both_entry_points_pick_the_same_branch(lossy):
    # the one LAPACK eigenvalue in the Bauer-Fike disc around 0 (the ground
    # eigenvalue function) against the order-8 Rayleigh-Schrodinger sum, which
    # follows the branch connected to 0 (the series entry): every other
    # eigenvalue is at least 0.3 away, so a wrong branch fails
    rng = np.random.default_rng([12, lossy])
    for _ in range(20):
        cfg = _phased(validate._random_config(numpy_draws(rng), lossy=lossy), rng)
        sp = model.split(cfg)
        series = perturb.evaluate_energy(perturb.build_series(sp, 1, 8), 1,
                                         sp.eps_a, sp.eps_c, 8)
        assert oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c) == \
            pytest.approx(series, rel=0, abs=1e-10)


@pytest.mark.parametrize("eigenvalues", [(0.0, 1e-3, 1.0, 2.0), (1.0, 2.0, 3.0, 4.0)],
                         ids=["two-in-the-disc", "none-in-the-disc"])
def test_a_disc_without_exactly_one_computed_eigenvalue_raises(
        reference_config, monkeypatch, eigenvalues):
    planted = EigenSolution(eigenvalues=np.array(eigenvalues, dtype=complex),
                            eigenvectors=np.eye(4, dtype=complex), residuals=np.zeros(4))
    monkeypatch.setattr(oracle, "exact_eigensystem", lambda h: planted)
    sp = model.split(reference_config)
    with pytest.raises(TrackingError, match="not certified"):
        oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)


def test_the_dark_state_beyond_the_disc_is_refused_not_replaced():
    # Raman-resonant, G_b = 1.21: at x = 2 the eigenvector with the largest
    # level-1 component (0.646) is a bright state at -2.0907-0.0456j, while the
    # branch connected to 0 is the dark state at about -2.6e-5
    sp = model.split(make_config(0.01, 1.1, 0.012, 1, 0, 1, 0.4, 0.4, 0.7, (0.1, 0.0, 0.2)))
    energy = oracle.ground_eigenvalue_function(sp)
    assert abs(energy(sp.eps_a, sp.eps_c)) < 1e-7
    with pytest.raises(TrackingError, match=r"r = 3\.972e\+00 must be below gap/2 = 3\.640e-01"):
        energy(2.0, 5e-3)


def test_the_bauer_fike_radius_takes_the_size_of_each_probe_phase():
    # a split holds no probe entry but ua and uc, so ||x*va + y*vc||_1 is
    # max(|x ua|, |y uc|): a phase of modulus 3, built by hand, triples r, and
    # an x that the unit phase certifies is refused
    sp = model.split(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5))
    for field in ("ua", "uc"):
        tripled = sp._replace(**{field: 3 * getattr(sp, field)})
        unit, big = (oracle.ground_eigenvalue_function(s) for s in (sp, tripled))
        r, half_gap = [], []
        for energy in (unit, big):
            with pytest.raises(TrackingError) as info:
                energy(10.0, 10.0)
            r1, g1 = re.search(r"r = (\S+) must be below gap/2 = (\S+) ", str(info.value)).groups()
            r.append(float(r1))
            half_gap.append(float(g1))
        assert r[1] == pytest.approx(3 * r[0], rel=1e-3) and half_gap[0] == half_gap[1]
        x = 0.4 * half_gap[0] / (r[0] / 10.0)  # kappa |x| = 0.4 gap/2
        xy = (x, 0.0) if field == "ua" else (0.0, x)
        assert unit(*xy) == min(oracle.exact_eigensystem(
            sp._replace(eps_a=xy[0], eps_c=xy[1]).reconstruct()).eigenvalues.tolist(), key=abs)
        with pytest.raises(TrackingError, match="not certified"):
            big(*xy)


def test_every_certified_value_is_the_branch_connected_to_zero():
    # 120 draws, half lossy, half Raman-resonant (gamma_2 = 0), a third with
    # random coupling phases, at x = y = s: each value the disc certifies is
    # where a 100-step walk from 0 along t*(s, s) ends, the walk keeping the
    # eigenvalue nearest its last; the disc's isolation holds all along it
    rng = np.random.default_rng(24)
    splits = []
    for i in range(120):
        cfg = validate._random_config(numpy_draws(rng), lossy=i % 2 == 1)
        if i % 4 < 2:
            cfg = replace(cfg, mode_b=replace(cfg.mode_b, delta=cfg.mode_a.delta),
                          gamma=(cfg.gamma[0], 0.0, cfg.gamma[2]))
        if i % 3 == 0:
            cfg = _phased(cfg, rng)
        splits.append(model.split(cfg))
    certified = {}
    for k, sp in enumerate(splits):
        energy = oracle.ground_eigenvalue_function(sp)
        for s in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
            with contextlib.suppress(TrackingError):
                certified[k, s] = energy(s, s)
    assert sum(s == 0.05 for _, s in certified) > 100
    t = np.linspace(0.0, 1.0, 101)[:, None, None]
    walks = np.linalg.eigvals([splits[k]._replace(eps_a=t * s, eps_c=t * s).reconstruct()
                               for k, s in certified])  # (point, step, 4)
    last = np.zeros(len(certified), dtype=complex)
    for step in walks.transpose(1, 0, 2):
        last = step[np.arange(len(last)), np.argmin(np.abs(step - last[:, None]), axis=1)]
    assert np.abs(np.array(list(certified.values())) - last).max() <= 1e-12


# -- exact ground series ----------------------------------------------------

def _seed_zero_configs(lane, lossy):
    rng = np.random.default_rng([0, lane])
    return [validate._random_config(numpy_draws(rng), lossy=lossy) for _ in range(20)]


@pytest.mark.parametrize("lane, lossy", [(34, False), (7, True)])
def test_ground_series_matches_build_series_through_order_8(lane, lossy):
    degree = np.add.outer(range(9), range(9))
    for cfg in _seed_zero_configs(lane, lossy):
        sp = model.split(cfg)
        exact = oracle.ground_series(sp, 8)
        series = perturb.build_series(sp, 1, 8).E
        for d in range(9):
            on = degree == d
            assert np.max(np.abs(exact[on] - series[on])) <= 1e-13 * np.max(np.abs(series[on]))


def test_ground_series_structural_zeros(reference_config, lossy_config):
    for cfg in (reference_config, lossy_config):
        c = oracle.ground_series(model.split(cfg), 9)
        p, q = np.indices(c.shape)
        assert c.shape == (10, 10)
        assert not c[(p % 2 == 1) | (q % 2 == 1)].any()
        assert not c[0, :].any()  # no a-photon, no coupling to level 1
        assert not c[p + q > 9].any()
        assert c[2, 0] != 0 and c[4, 4] != 0


@pytest.mark.parametrize("k", [360, 400, 1000])
def test_ground_series_past_double_range_is_a_pole_error(k):
    # every g and delta of the reference times 2**k: the slope overflowed to inf
    # and left an all-zero series behind a RuntimeWarning
    s = math.ldexp(1.0, k)
    cfg = make_config(0.01 * s, s, 0.01 * s, 1, 0, 1, 0.3 * s, 0.1 * s, 0.5 * s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="outside double range"):
            oracle.ground_series(model.split(cfg), 4)


@pytest.mark.parametrize("lossy", [False, True])
def test_ground_series_refuses_a_pump_too_weak_for_its_cross_entry(lossy):
    # under a weak pump the cross entry sums terms |h11 h22| / G_b times its
    # size; it is returned within 1e-8 of the closed form, or refused
    rng = np.random.default_rng([20, lossy])
    for cfg in (validate._random_config(numpy_draws(rng), lossy=lossy) for _ in range(20)):
        for g_b in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-50, 1e-100, 1e-200, 1e-300):
            weak = replace(cfg, mode_b=replace(cfg.mode_b, g=g_b))
            try:
                e = oracle.ground_series(model.split(weak), 4)
            except PoleError as exc:
                assert g_b < 1e-3 and str(exc) == _pump_refusal(model.split(weak))
                continue
            want = suscept.susceptibility_point(weak).chi3_cross
            assert abs(suscept.chis_from_energy(weak, e).chi3_cross - want) <= 1e-8 * abs(want)


def _pump_refusal(sp):
    """The message ``ground_series`` refuses the pump of ``sp`` with: the pole
    where G_b = 0, else G_b and r = eps |h11 h22| / G_b."""
    gb = abs(sp.x * sp.y)
    if gb == 0:
        return model.POLES[model.PUMP - 1]
    r = np.finfo(float).eps * abs(sp.h11 * sp.h22) / gb
    return f"pole: |g_b|^2 (n_b+1) = {gb:.3e} is near 0: r = eps |h11 h22| / G_b = {r:.3e} > 1e-09"


@pytest.mark.parametrize("g_b, message", [
    (1e-6, "pole: |g_b|^2 (n_b+1) = 1.000e-12 is near 0: r = eps |h11 h22| / G_b = 1.332e-05"
           " > 1e-09"),
    (0.0, "pole: |g_b|^2 (n_b+1) = 0"),
    (1e-200, "pole: |g_b|^2 (n_b+1) = 0")], ids=["weak", "zero", "underflows-to-zero"])
def test_a_weak_pump_is_told_from_a_zero_pump(g_b, message):
    # G_b = 1e-12 is small against |h11 h22| = 0.06, not zero: the refusal names
    # G_b and r; G_b = 0, also where |g_b|^2 underflows, keeps the pump's pole
    sp = model.split(make_config(0.01, g_b, 0.01, 1, 0, 1, 0.3, 0.1, 0.5))
    with pytest.raises(PoleError) as info:
        oracle.ground_series(sp, 4)
    assert str(info.value) == message


def test_ground_series_low_orders_are_zero(reference_config):
    sp = model.split(reference_config)
    for order in (0, 1):
        c = oracle.ground_series(sp, order)
        assert c.shape == (order + 1, order + 1)
        assert not c.any()
    with pytest.raises(ValueError):
        oracle.ground_series(sp, -1)


# -- Cauchy extraction (the helper tests/cauchy.py) -------------------------

def test_cauchy_constant_function():
    c = cauchy.taylor_coefficients(lambda x, y: np.full_like(x, 3.25), 1.0)
    assert c[0, 0] == pytest.approx(3.25, abs=1e-12)
    c[0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-12


def test_cauchy_zeroth_order_is_plain_evaluation():
    c = cauchy.taylor_coefficients(lambda x, y: np.exp(x - 2 * y) * (2.5 - 1j), 0.1)
    assert c[0, 0] == pytest.approx(2.5 - 1j, abs=1e-14)


def test_cauchy_exact_on_monomials():
    # every monomial kept by an n-node rule comes back as a single entry
    n = 8
    for p in range(n // 2):
        for q in range(n // 2):
            c = cauchy.taylor_coefficients(lambda x, y: 2.0 * x**p * y**q, 1.0, nodes=n)
            expected = np.zeros((n // 2, n // 2))
            expected[p, q] = 2.0
            assert np.max(np.abs(c - expected)) < 1e-10
    # exponents of n/2 or more alias onto the tail and are refused
    with pytest.raises(RuntimeError):
        cauchy.taylor_coefficients(lambda x, y: x ** (n // 2) * y, 1.0, nodes=n)


def test_cauchy_taylor_normalisation():
    # returns series coefficients, not bare derivatives
    c = cauchy.taylor_coefficients(lambda x, y: np.exp(x + 0.5 * y), 0.5)
    assert c[2, 0] == pytest.approx(0.5, rel=1e-8)
    assert c[1, 1] == pytest.approx(0.5, rel=1e-8)
    assert c[4, 0] == pytest.approx(1 / 24, rel=1e-8)
    assert c[2, 2] == pytest.approx(1 / 16, rel=1e-8)


def test_cauchy_bad_step_raises(reference_config):
    # radius outside the disc of convergence of 1/(1 - x), and too close to its edge
    f = lambda x, y: 1.0 / (1.0 - x) + 0 * y
    for radius in (2.0, 0.9):
        with pytest.raises(RuntimeError):
            cauchy.taylor_coefficients(f, radius)
    assert cauchy.taylor_coefficients(f, 0.05)[:5, 0] == pytest.approx(np.ones(5), rel=1e-10)
    # the ground eigenvalue sampled far beyond its extraction radius
    sp = model.split(reference_config)
    with pytest.raises(RuntimeError):
        cauchy.taylor_coefficients(cauchy.ground_eigenvalue_newton(sp),
                                   8 * cauchy.extraction_radius(sp))


def test_cauchy_rejects_unsupported_orders():
    f = lambda x, y: x
    for radius in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cauchy.taylor_coefficients(f, radius)
    for nodes in (0, 2, 7):
        with pytest.raises(ValueError):
            cauchy.taylor_coefficients(f, 0.1, nodes=nodes)


def test_ground_eigenvalue_function_lanes_agree(reference_config, lossy_config):
    # Newton on the tridiagonal continuant against the LAPACK lane
    for cfg in (reference_config, lossy_config):
        sp = model.split(cfg)
        f_lapack = oracle.ground_eigenvalue_function(sp)
        f_newton = cauchy.ground_eigenvalue_newton(sp)
        points = [(0.0, 0.0), (0.01, 0.005), (-0.02, 0.01), (0.03j, 0.02 - 0.01j)]
        grid = f_newton(np.array([x for x, _ in points]), np.array([y for _, y in points]))
        for (x, y), value in zip(points, grid):
            assert f_lapack(x, y) == pytest.approx(value, abs=1e-13)


@pytest.mark.parametrize("x, y", [(float("nan"), 0.0), (float("inf"), 0.0),
                                  (0.01, -float("inf")), (0.0, float("nan")),
                                  pytest.param(10**400, 0.0, id="int-past-double"),
                                  (0.0, True), ("x", 0.0)])
def test_ground_eigenvalue_function_rejects_nonfinite_strengths(reference_config, x, y):
    energy = oracle.ground_eigenvalue_function(model.split(reference_config))
    with pytest.raises(ValueError, match="x and y must be finite"):
        energy(x, y)
