import cmath
import itertools
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nkerr import effective, model, oracle, perturb, suscept, validate
from nkerr.errors import DegeneracyError, PoleError

import cauchy
import series_reference
from conftest import dressed_matrices, make_config, matrices, numpy_draws


def _pump(d1, d2, d3, ob):
    """A split with complex detunings d1, d2, d3, pump Rabi frequency ob and no probe."""
    ob = complex(ob)
    return model.PerturbationSplit(d1, d2, d3, ob / 2, ob.conjugate() / 2, 1 + 0j, 1 + 0j, 0.0, 0.0)


# -- dressed basis -----------------------------------------------------------

def test_dressed_basis_resonant_pump():
    basis = perturb.dressed_basis(_pump(0.0, 0.0, 0.7, 2.0))
    assert basis.eigenvalues[1] == pytest.approx(-1.0)
    assert basis.eigenvalues[2] == pytest.approx(1.0)
    right = dressed_matrices(basis)[0]
    v_minus = right[:, 1]
    v_plus = right[:, 2]
    s = 1 / np.sqrt(2)
    assert np.allclose(np.abs(v_minus), [0, s, s, 0], atol=1e-12)
    assert np.allclose(np.abs(v_plus), [0, s, s, 0], atol=1e-12)
    assert v_minus[1] * v_minus[2] < 0  # (|2> - |3>)/sqrt(2) ray
    assert v_plus[1] * v_plus[2] > 0


def test_dressed_basis_uncoupled_pump_returns_bare():
    for d1, d2 in ((3.0, 1.0), (1.0, 3.0)):  # index 1 is bare level 2 on either side
        basis = perturb.dressed_basis(_pump(d1, d2, 5.0, 0.0))
        assert np.allclose(basis.eigenvalues, [0, d1, d2, 5])
        assert np.allclose(dressed_matrices(basis), np.eye(4))


def test_a_dressed_basis_holds_python_complex_numbers_and_no_array():
    # the eigenvalues and the two 2x2 pump blocks, as rows; the pump off included
    for sp in (*map(model.split, itertools.islice(_memo_draws(), 8)), _pump(3.0, 1.0, 5.0, 0.0)):
        basis = perturb.dressed_basis(sp)
        assert not any(isinstance(field, np.ndarray) for field in basis)
        (*eigenvalues,), ((r11, r12), (r21, r22)), ((l11, l12), (l21, l22)) = basis
        numbers = [*eigenvalues, r11, r12, r21, r22, l11, l12, l21, l22]
        assert len(eigenvalues) == 4 and all(type(v) is complex for v in numbers), basis


def test_the_basis_of_an_equal_split_built_apart_is_equal_and_hashes_alike():
    for cfg in itertools.islice(_memo_draws(), 8):
        sp = model.split(cfg)
        basis = perturb.dressed_basis(sp)
        twin = perturb.dressed_basis(model.PerturbationSplit(*sp))
        assert twin is not basis and twin == basis and hash(twin) == hash(basis)


def test_dressed_basis_degeneracy_rejected():
    # delta_3 = 0 collides the two uncoupled levels
    with pytest.raises(DegeneracyError):
        perturb.dressed_basis(_pump(0.0, 0.0, 0.0, 2.0))


def test_dressed_basis_rejects_near_degenerate_gap_and_defective_pair():
    # bare level 4 1e-12 above the minus root, the dressed value -1 of (0, 0, 2.0)
    with pytest.raises(DegeneracyError, match="near-degenerate: eigenvalues 2 and 4"):
        perturb.dressed_basis(_pump(0.0, 0.0, -1.0 + 1e-12, 2.0))
    # delta_b = 0 with the pump off: Delta = R = 0, so w = 0 and the pair coincides
    with pytest.raises(DegeneracyError, match="near-degenerate: eigenvalues 2 and 3"):
        perturb.dressed_basis(_pump(0.3, 0.3, 0.7, 0.0))
    # d1 - d2 = 2i and x*y = 1: the pair is one Jordan block, with no left/right pairing
    with pytest.raises(DegeneracyError, match="defective"):
        perturb.dressed_basis(_pump(0.0, -2j, 0.7, 2.0))
    # a one-sided pump: no diagonal P turns its couplings into their transpose
    for x, y in ((0.5, 0.0), (0.0, 0.5)):
        with pytest.raises(DegeneracyError, match="defective"):
            perturb.dressed_basis(_pump(0.3, 0.2, 0.7, 0.0)._replace(x=x, y=y))


# a dressed eigenvalue past double range once gave inf+nanj, whose NaN gaps
# passed the degeneracy test; (d1 - d2)**2 past it raised OverflowError
@pytest.mark.parametrize("args", [(0.01, 1.0, 0.01, 1, 0, 1, 1.7e308, 0.0, -1e308),
                                  (0.01, 1e200, 0.01, 1, 0, 1, 0.3, 0.1, 0.5),
                                  (0.01, 1.0, 0.01, 1, 0, 1, 1e200, 2e200, 0.0)])
def test_dressed_eigenvalue_beyond_double_range_is_a_pole_error(args):
    sp = model.split(make_config(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (perturb.dressed_basis,
                     lambda sp: perturb.build_series(sp, 1, 2)):
            with pytest.raises(PoleError, match="outside double range"):
                call(sp)


def _reference_in_units(s):
    """The reference scenario with every coupling and detuning multiplied by s."""
    return make_config(0.01 * s, 1.0 * s, 0.01 * s, 1, 0, 1, 0.3 * s, 0.1 * s, 0.5 * s)


# finite inputs whose series or sum are not doubles: at eps = 1e80 the sum's
# eps**4 overflowed into nan+nanj, at s = 1e-80 A[p, q] ~ s**-(p + q)
# overflowed while E stayed finite, and at s = 1e-160 the continuant's slope
# ~ s**3 underflowed to 0 and was divided by; in a gapped pump block of size
# 1e155 the product h11 h22 overflows, and at 1e150 with h33 ~ 2e150 the slope
# -(h11 h22 - G_b) h33 does, where a Python complex product gives inf silently
@pytest.mark.parametrize("call", [
    lambda: perturb.evaluate_energy(
        perturb.build_series(model.split(_reference_in_units(1.0)), 1, 4), 1, 1e80, 1e80, 4),
    lambda: perturb.build_series(model.split(_reference_in_units(1e-80)), 1, 4),
    lambda: oracle.ground_series(model.split(_reference_in_units(1e-160)), 4),
    lambda: oracle.ground_series(model.split(make_config(
        0.01, 1.0, 0.01, 1, 0, 1, 1e155, 1e150, 1e154)), 4),
    lambda: oracle.ground_series(model.split(make_config(
        0.01, 1e149, 0.01, 1, 0, 1, 1e150, 1e145, 1e150)), 4),
], ids=["evaluate_energy", "build_series", "ground_series", "ground_series-h11-h22",
        "ground_series-slope"])
def test_a_series_outside_double_range_is_the_out_of_range_pole(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError, match="outside double range"):
            call()


@pytest.mark.parametrize("gb", [1e-3, 1e-6, 1e-9, 1e-12, 1e-50, 1e-100,
                                1e-160, 1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("gamma", [(0.0, 0.0, 0.0), (0.1, 0.2, 0.1)], ids=["lossless", "lossy"])
def test_a_weak_pump_builds_and_gives_the_linear_coefficient(gb, gamma):
    # The dressed pair is 0.1 apart, while x*y underflows from g_b = 1e-160 on.
    # Each dressed vector's level-3 part, ~x/(d1 - d2), once came from a shift
    # that cancelled, and the cross-Kerr entry was off by 8|K| from g_b = 1e-10 on.
    cfg = make_config(0.01, gb, 0.01, 1, 0, 1, 0.3, 0.1, 0.5, gamma=gamma)
    sp = model.split(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = perturb.build_series(sp, 1, 4)
    right, left = dressed_matrices(table.basis)
    assert np.abs(left @ right - np.eye(4)).max() <= 1e-15
    if cfg.is_hermitian:  # L = eps_a**2 E[2, 0], and chi1 = -E[2, 0] at n_a = 1
        want, got = effective.coefficients(cfg).linear, sp.eps_a**2 * table.E[2, 0]
    else:
        want, got = suscept.susceptibility_point(cfg).chi1, -table.E[2, 0]
    assert abs(got - want) <= 1e-15 * abs(want)
    if gb < 1e-100:  # K and chi3_cross go as G_b, which underflows
        return
    if cfg.is_hermitian:
        want = effective.coefficients(cfg).cross_kerr
        got = sp.eps_a**2 * sp.eps_c**2 * table.E[2, 2]
    else:
        want = suscept.susceptibility_point(cfg).chi3_cross
        got = suscept.chis_from_energy(cfg, table.E).chi3_cross
    assert abs(got - want) <= 1e-14 * abs(want)


def test_dressed_basis_eigen_residuals():
    sp = _pump(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j))
    h0 = matrices(sp)[0]
    basis = perturb.dressed_basis(sp)
    right = dressed_matrices(basis)[0]
    norm = np.linalg.norm(h0)
    for k in range(4):
        res = np.linalg.norm(h0 @ right[:, k] - basis.eigenvalues[k] * right[:, k])
        assert res < 1e-12 * max(1.0, norm)


def test_dressed_basis_biorthogonal():
    basis = perturb.dressed_basis(_pump(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j)))
    right, left = dressed_matrices(basis)
    assert np.allclose(left @ right, np.eye(4), atol=1e-13)


def test_dressed_basis_hermitian_left_is_conjugate():
    basis = perturb.dressed_basis(_pump(0.45, -0.31, 0.9, 2.2 * np.exp(0.7j)))
    right, left = dressed_matrices(basis)
    assert np.allclose(left, right.conj().T, atol=1e-13)


# -- recursion ---------------------------------------------------------------

def test_first_order_energy_vanishes(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    assert table.E[1, 0] == 0


def test_second_order_energy_matches_closed_form(reference_config):
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 2)
    d1, d2, _ = reference_config.detunings()
    oa2 = abs(model.rabi_frequency(reference_config.mode_a)) ** 2
    ob2 = abs(model.rabi_frequency(reference_config.mode_b)) ** 2
    folded = sp.eps_a**2 * table.E[2, 0]
    assert folded == pytest.approx(-d2 * oa2 / (4 * d1 * d2 - ob2), rel=1e-12)


def test_mixed_fourth_order_on_raman_resonance():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.3, 0.5)  # delta_2 = 0
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 4)
    _, _, d3 = cfg.detunings()
    oa2 = abs(model.rabi_frequency(cfg.mode_a)) ** 2
    ob2 = abs(model.rabi_frequency(cfg.mode_b)) ** 2
    oc2 = abs(model.rabi_frequency(cfg.mode_c)) ** 2
    folded = sp.eps_a**2 * sp.eps_c**2 * table.E[2, 2]
    assert folded == pytest.approx(-oa2 * oc2 / (4 * d3 * ob2), rel=1e-12)


def test_zeroth_order_coefficients_are_kronecker(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 0)
    assert np.array_equal(table.A[:, 0, 0], [[1, 0, 0, 0]] * 2)


def test_first_order_coefficient_to_level4_vanishes(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    assert table.A[0, 1, 0, 3] == 0


def test_first_order_coefficients_textbook_formula(reference_config):
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 1)
    basis = table.basis
    right, left = dressed_matrices(basis)
    for m in (2, 3):
        elem = left[m - 1] @ matrices(sp)[1] @ right[:, 0]
        expected = elem / (0.0 - basis.eigenvalues[m - 1])
        assert table.A[0, 1, 0, m - 1] == pytest.approx(expected, rel=1e-13)


def test_first_order_coefficients_vs_fd_eigenvector(reference_config):
    # independent route: differentiate the exact eigenvector itself
    sp = model.split(reference_config)
    table = perturb.build_series(sp, 1, 1)
    left = dressed_matrices(table.basis)[1]
    h = 1e-6

    def ground_vec(x):
        sol = oracle.exact_eigensystem(sp._replace(eps_a=x, eps_c=0.0).reconstruct())
        idx = int(np.argmax(np.abs(sol.eigenvectors[0, :])))
        v = sol.eigenvectors[:, idx]
        return v / v[0]  # pin the gauge on the bare level-1 component

    deriv = (ground_vec(h) - ground_vec(-h)) / (2 * h)
    for m in (2, 3):
        fd_coeff = left[m - 1] @ deriv
        assert fd_coeff == pytest.approx(table.A[0, 1, 0, m - 1], rel=1e-6, abs=1e-10)


def test_build_series_order_zero(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 0)
    assert table.order == 0
    assert table.E.shape == (1, 1) and table.A.shape == (2, 1, 1, 4)
    assert table.E[0, 0] == 0


def test_parity_zeros(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    reach = {0: (0, 0), 1: (1, 0), 2: (1, 0), 3: (1, 1)}  # (p, q) parity reaching each index
    for d in range(1, 5):
        for p in range(d + 1):
            q = d - p
            if p % 2 or q % 2:
                assert table.E[p, q] == 0
            for m, parity in reach.items():
                if (p % 2, q % 2) != parity:
                    assert np.all(table.A[:, p, q, m] == 0)


def _selection_rule_configs():
    """Lossless and lossy configurations with complex couplings, and one with the pump off."""
    rng = np.random.default_rng(17)
    lossless, lossy = (_complex_couplings(validate._random_config(numpy_draws(rng), loss), rng)
                       for loss in (False, True))
    return lossless, lossy, replace(lossy, mode_b=replace(lossy.mode_b, g=0.0))


def test_selection_rules_zero_entries_exactly():
    # Probe a moves dressed index 0 <-> {1, 2} and probe c moves {1, 2} <-> 3, so
    # A[s, p, q, m] needs the (p, q) parity that links index 0 to m, and E[p, q] even p, q.
    reach = np.array([0b00, 0b10, 0b10, 0b11])  # bits (p mod 2, q mod 2) from index 0
    bits = np.arange(9) % 2
    parity = 2 * bits[:, None] + bits
    forbid_e = parity != 0
    forbid_a = parity[..., None] != reach
    for cfg in _selection_rule_configs():
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 8)
        assert np.all(table.E[forbid_e] == 0) and np.all(table.A[:, forbid_a] == 0)
        # the unpruned recursion puts only rounding there
        ref = series_reference.build_series(sp, 8)
        assert np.max(np.abs(ref.E[:, forbid_e])) <= 1e-15 * np.max(np.abs(ref.E))
        assert np.max(np.abs(ref.A[:, forbid_a])) <= 1e-15 * np.max(np.abs(ref.A))


def test_dark_state_cancellation():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.3, 0.5)  # delta_2 = 0
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 4)
    folded = sp.eps_a**2 * table.E[2, 0] + sp.eps_a**4 * table.E[4, 0]
    assert abs(folded) < 1e-13


def test_hermitian_corrections_are_real(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    for d in range(5):
        for p in range(d + 1):
            assert abs(table.E[p, d - p].imag) < 1e-13


def test_normalization_residual_every_order(lossy_config):
    # the order-(p, q) term of the norm <bra|ket> vanishes above order (0, 0)
    table = perturb.build_series(model.split(lossy_config), 1, 4)
    bra, ket = table.A[1], table.A[0]
    assert series_reference.cauchy_term(bra, ket, 0, 0) == 1
    for d in range(1, 5):
        for p in range(d + 1):
            assert abs(series_reference.cauchy_term(bra, ket, p, d - p)) < 1e-12


def _complex_couplings(cfg, rng):
    """The configuration with each coupling turned by a random phase."""
    modes = {f"mode_{m}": getattr(cfg, f"mode_{m}") for m in "abc"}
    return replace(cfg, **{name: replace(mode, g=mode.g * cmath.exp(2j * np.pi * rng.random()))
                          for name, mode in modes.items()})


def test_order_independence_bit_identical(reference_config, lossy_config):
    # coherences sums the order-3 table, so its entries must be those of any longer one
    d = np.add.outer(np.arange(9), np.arange(9))
    rng = np.random.default_rng(3)
    phased_lossy = _complex_couplings(lossy_config, rng)
    phased_lossless = _complex_couplings(validate._random_config(numpy_draws(rng), False), rng)
    uncoupled = replace(phased_lossy, mode_b=replace(phased_lossy.mode_b, g=0.0))
    for cfg in (reference_config, phased_lossy, phased_lossless, uncoupled):
        sp = model.split(cfg)
        t8 = perturb.build_series(sp, 1, 8)
        for k in range(8):
            tk = perturb.build_series(sp, 1, k)
            low = d[:k + 1, :k + 1] <= k
            assert np.array_equal(tk.E[low], t8.E[:k + 1, :k + 1][low])
            assert np.array_equal(tk.A[:, low], t8.A[:, :k + 1, :k + 1][:, low])


def _coupling_configs():
    """Seeded lossless, lossy and random-phase draws, the pump off, and each probe off."""
    rng = np.random.default_rng(23)
    lossless, lossy = (validate._random_config(numpy_draws(rng), loss) for loss in (False, True))
    phased = [_complex_couplings(validate._random_config(numpy_draws(rng), loss), rng)
              for loss in (False, True)]
    return {"lossless": lossless, "lossy": lossy, "phased-lossless": phased[0],
            "phased-lossy": phased[1],
            "uncoupled-pump": replace(phased[1], mode_b=replace(phased[1].mode_b, g=0.0)),
            "no-a-photons": replace(phased[0], mode_a=replace(phased[0].mode_a, n=0)),
            "no-c-coupling": replace(phased[1], mode_c=replace(phased[1].mode_c, g=0.0))}


@pytest.mark.parametrize("name", list(_coupling_configs()))
def test_coupling_block_is_the_projected_probe_matrices(name):
    # build_series writes the allowed entries of L v R from the blocks' numbers;
    # they must be the matrix product's, and every other entry zero
    sp = model.split(_coupling_configs()[name])
    table = perturb.build_series(sp, 1, 3)
    right, left = dressed_matrices(table.basis)
    if name == "uncoupled-pump":
        assert np.array_equal(right, np.eye(4)) and np.array_equal(left, np.eye(4))
    if name.startswith("no-"):  # a probe without strength keeps the phase 1
        assert sp.ua == 1 if name == "no-a-photons" else sp.uc == 1
    couplings = perturb._layout(table.E.base, table.order + 1)[0]  # the vector E and A view
    for c, v in enumerate(matrices(sp)[1:]):
        dense = left @ v @ right
        written = np.zeros((4, 4), dtype=complex)
        for k, (coupling, m, j) in enumerate(perturb._ALLOWED):
            if coupling == c:
                written[m, j] = couplings[k]
        for part in (np.real, np.imag):
            ulp = np.spacing(np.abs(part(dense)))
            assert np.all(np.abs(part(written) - part(dense)) <= ulp), c


def _bra_identity_configs(count=12):
    """Seeded draws, half lossy: real, negative g_a, random phases, and with
    random phases the pump off, no a-photons and no c-coupling."""
    rng = np.random.default_rng(29)
    for k in range(count):
        cfg = validate._random_config(numpy_draws(rng), bool(k % 2))
        phased = _complex_couplings(cfg, rng)
        yield from (cfg, replace(cfg, mode_a=replace(cfg.mode_a, g=-cfg.mode_a.g)), phased,
                    replace(phased, mode_b=replace(phased.mode_b, g=0.0)),
                    replace(phased, mode_a=replace(phased.mode_a, n=0)),
                    replace(phased, mode_c=replace(phased.mode_c, g=0.0)))


def test_bra_series_is_the_phased_ket_series():
    # The reference builds the bra series from the transposed couplings, which
    # are P v P^-1 for a diagonal P: its eigenvalue is the ket's and its state P A[0].
    for cfg in _bra_identity_configs():
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 8)
        ref = series_reference.build_series(sp, 8)
        for s in (0, 1):
            assert np.max(np.abs(table.E - ref.E[s])) <= 1e-14 * np.max(np.abs(ref.E)), (cfg, s)
        assert np.max(np.abs(table.A[1] - ref.A[1])) <= 1e-14 * np.max(np.abs(ref.A[1])), cfg


@pytest.mark.parametrize("lossy", [False, True])
def test_batched_series_matches_per_entry_recursion(lossy):
    # the batch sums each entry in another order than the recursion it replaced
    rng = np.random.default_rng([11, 1])
    for _ in range(20):
        sp = model.split(_complex_couplings(validate._random_config(numpy_draws(rng), lossy), rng))
        table = perturb.build_series(sp, 1, 8)
        ref = series_reference.build_series(sp, 8)
        assert np.max(np.abs(table.E - ref.E)) <= 1e-14 * np.max(np.abs(ref.E))
        assert np.max(np.abs(table.A - ref.A)) <= 1e-14 * np.max(np.abs(ref.A))


def test_series_product_matches_per_entry_products():
    # dense random factors: the physics series' structural zeros would hide
    # a product that wraps one row's terms into the next
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        x, y = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        product = oracle.series_product(x, y)
        assert product.shape == (n, n)
        for p in range(n):
            for q in range(n):
                if p + q < n:
                    expected = series_reference.cauchy_term(x[..., None], y[..., None], p, q)
                    assert abs(product[p, q] - expected) <= 1e-14 * max(1.0, abs(expected))
                else:
                    assert product[p, q] == 0


@pytest.mark.parametrize("n, max_order", [(0, 4), (5, 4), (1, -1), (2, 4), (4, 8)])
def test_build_series_rejects_bad_arguments(reference_config, n, max_order):
    # only the ground state n = 1 is built; an empty cache shows any plan made
    sp = model.split(reference_config)
    perturb._order_plan.cache_clear()
    with pytest.raises(ValueError):
        perturb.build_series(sp, n, max_order)
    assert perturb._order_plan.cache_info().currsize == 0  # never reaches the plan


_REFERENCE = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
_ORDER_CALLS = {  # each entry point of an order or a state index, and its message
    "build_series max_order": (lambda sp, k: perturb.build_series(sp, 1, k),
                               r"max_order must be an integer >= 0, got"),
    "build_series n": (lambda sp, k: perturb.build_series(sp, k, 2), r"is built, got n = "),
    "evaluate_energy total_order": (lambda sp, k: perturb.evaluate_energy(
        perturb.build_series(sp, 1, 1), 1, sp.eps_a, sp.eps_c, k),
        r"total_order .+ of state 1 is not in this table"),
    "evaluate_energy n": (lambda sp, k: perturb.evaluate_energy(
        perturb.build_series(sp, 1, 2), k, sp.eps_a, sp.eps_c, 2),
        r"total_order 2 of state .+ is not in this table"),
    "ground_series order": (lambda sp, k: oracle.ground_series(sp, k),
                            r"^order must be an integer >= 0, got"),
    "coherences order": (lambda sp, k: suscept.coherences(_REFERENCE, k),
                         r"^order must be an integer >= 1, got"),
}


@pytest.mark.parametrize("call", sorted(_ORDER_CALLS))
@pytest.mark.parametrize("bad", [True, 1.0, 2.5, np.float64(1.0), np.bool_(True), "1", None])
def test_orders_and_states_are_integers_where_they_enter(call, bad):
    # an order or n that is not an integer is a ValueError naming the argument,
    # not numpy's TypeError, and True is not 1; numpy integers are accepted
    sp = model.split(_REFERENCE)
    entry, message = _ORDER_CALLS[call]
    with pytest.raises(ValueError, match=message):
        entry(sp, bad)
    entry(sp, np.int64(1))


def test_order_plan_is_read_only():
    coef, bra, steps = perturb._order_plan(3)
    assert len(steps) == 3  # one step per total order 1..max_order
    for array in (coef, bra, *(x for step in steps for x in step[1:])):
        with pytest.raises(ValueError):
            array[0] = 0


def test_order_plan_holds_one_series():
    # the bra series is the ket's times its phases, so the plan fills only the ket's
    coef, bra, steps = perturb._order_plan(8)
    assert len(coef) == len(bra) == steps[-1][0].stop == 314


def test_missing_order_raises(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 1)
    with pytest.raises(ValueError, match="order 2 of state 1"):
        perturb.evaluate_energy(table, 1, 0.01, 0.01, 2)  # past the built order
    with pytest.raises(ValueError, match=r"order 0 of state 1 .+build_series"):
        perturb.evaluate_energy(table, 1, 0.01, 0.01, 0)  # below it: a table of its own
    with pytest.raises(ValueError, match="order -1 of state 1"):
        perturb.evaluate_energy(table, 1, 0.01, 0.01, -1)
    with pytest.raises(ValueError, match="order 1 of state 2"):
        perturb.evaluate_energy(table, 2, 0.01, 0.01, 1)  # only the ground state is built


@pytest.mark.parametrize("eps_a, eps_c", [(float("nan"), 0.01), (0.01, float("inf")),
                                          (-float("inf"), 0.0), (True, 0.01), (0.01, "x"),
                                          pytest.param(10**400, 0.1, id="int-past-double")])
def test_evaluate_energy_rejects_nonfinite_strengths(reference_config, eps_a, eps_c):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    with pytest.raises(ValueError, match="eps_a and eps_c must be finite"):
        perturb.evaluate_energy(table, 1, eps_a, eps_c, 4)


def test_build_series_propagates_degeneracy():
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.0, 0.0, 0.0)  # delta_3 = 0
    with pytest.raises(DegeneracyError):
        perturb.build_series(model.split(cfg), 1, 2)
    with pytest.raises(DegeneracyError):  # not a division by the zero slope -D_K * delta_3
        oracle.ground_series(model.split(cfg), 4)


# -- evaluation vs oracle ----------------------------------------------------

def test_evaluate_energy_at_zero_strength(reference_config):
    table = perturb.build_series(model.split(reference_config), 1, 4)
    assert perturb.evaluate_energy(table, 1, 0.0, 0.0, 4) == 0


@pytest.mark.parametrize("n", [1000, np.int64(1000), 2**62, 2**70, 10**30], ids=repr)
def test_an_integer_strength_is_summed_as_its_float(reference_config, n):
    # numpy raises an integer to an integer power in int64, which wraps silently
    table = perturb.build_series(model.split(reference_config), 1, 8)
    assert perturb.evaluate_energy(table, 1, n, 0.0, 8) == perturb.evaluate_energy(
        table, 1, float(n), 0.0, 8)


def test_evaluate_energy_is_the_partial_sum_of_the_table(reference_config, lossy_config):
    # at strengths of a few tenths every order counts, so a term summed past
    # the asked order, or one left out, shows far above rounding; each order's
    # table is gathered from the order-8 build, and its sum is the order-8
    # table masked to that order, bit for bit
    for cfg in (reference_config, _complex_couplings(lossy_config, np.random.default_rng(5))):
        sp = model.split(cfg)
        E8 = perturb.build_series(sp, 1, 8).E
        for x, y in ((0.4, 0.3), (-0.25, 0.5)):
            for order in range(9):
                table = perturb.build_series(sp, 1, order)
                terms = [E8[p, q] * x**p * y**q
                         for p in range(order + 1) for q in range(order + 1 - p)]
                got = perturb.evaluate_energy(table, 1, x, y, order)
                assert abs(got - sum(terms)) <= 1e-15 * sum(map(abs, terms))
                p, q = np.indices((order + 1, order + 1))
                assert got == complex(perturb.power_sum(
                    np.where(p + q <= order, E8[:order + 1, :order + 1], 0.0), x, y))


def test_series_matches_exact_with_eps6_scaling(reference_config):
    residuals = []
    for scale in (1.0, 0.5):
        cfg = make_config(0.01 * scale, 1.0, 0.01 * scale, 1, 0, 1, 0.3, 0.1, 0.5)
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 4)
        approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
        exact = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
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
    c = cauchy.taylor_coefficients(cauchy.ground_eigenvalue_newton(sp),
                                   cauchy.extraction_radius(sp))
    for d in range(1, 5):
        for p in range(d + 1):
            q = d - p
            fd = c[p, q]
            en = table.E[p, q]
            assert abs(fd - en) <= 1e-5 * max(abs(fd), abs(en), 1e-8)
    # E(0, q) is exactly zero: no a-photon, no coupling to level 1.  The
    # extraction radius must not be set by bare level 4, which would put the
    # Cauchy rounding of this entry near 1e-13.
    assert abs(c[0, 4]) < 1e-14


def test_lossy_series_tracks_complex_eigenvalue(lossy_config):
    sp = model.split(lossy_config)
    table = perturb.build_series(sp, 1, 4)
    approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
    exact = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
    assert abs(approx - exact) < 1e-8


# -- memos -------------------------------------------------------------------

def _forget():
    """Empty the memos of split, dressed_basis and build_series, so the next call builds."""
    model._SPLIT_MEMO = perturb._BASIS_MEMO = perturb._SERIES_MEMO = (object(), None)


def _cold(sp, order):
    _forget()
    return perturb.build_series(sp, 1, order)


def _basis_bits(basis):
    """Each field of a basis as the bytes of an array, so a signed zero shows."""
    return tuple(np.array(field).tobytes() for field in basis)


def _bits(table):
    return table.E.tobytes(), table.A.tobytes(), _basis_bits(table.basis)


def _memo_draws(count=40):
    """Seeded draws: lossless and lossy, each with and without random coupling phases."""
    rng = np.random.default_rng(41)
    for k in range(count):
        cfg = validate._random_config(numpy_draws(rng), bool(k % 2))
        yield _complex_couplings(cfg, rng) if k % 4 >= 2 else cfg


def test_a_repeated_or_lower_order_table_is_a_cold_build_bit_for_bit():
    # tobytes compares bits, so a signed zero the gather got wrong shows
    for cfg in _memo_draws():
        sp = model.split(cfg)
        cold = [_bits(_cold(sp, k)) for k in range(9)]
        for top in range(1, 9):
            _cold(sp, top)
            assert _bits(perturb.build_series(sp, 1, top)) == cold[top], (cfg, top)
            for k in range(top):
                table = perturb.build_series(sp, 1, k)
                assert table.order == k and _bits(table) == cold[k], (cfg, top, k)
            assert perturb.build_series(sp, 1, top) is perturb.build_series(sp, 1, top)


@pytest.mark.parametrize("order", [np.int64(4), np.int32(4)], ids=["int64", "int32"])
def test_a_numpy_integer_order_is_held_as_a_python_int(reference_config, order):
    sp = model.split(reference_config)
    want = _bits(_cold(sp, 4))
    cold = _cold(sp, order)
    _cold(sp, 8)
    gathered = perturb.build_series(sp, 1, order)  # from the order-8 table's work vector
    for table in (cold, gathered):
        assert type(table.order) is int and table.order == 4
        assert _bits(table) == want


def test_memos_follow_their_inputs_through_a_return_to_an_earlier_one():
    a, b = itertools.islice(_memo_draws(), 2)
    cold = []
    for cfg in (a, b):
        _forget()
        sp = model.split(cfg)
        cold.append((sp.reconstruct().tobytes(), _basis_bits(perturb.dressed_basis(sp)),
                     _bits(perturb.build_series(sp, 1, 8)), _bits(_cold(sp, 3))))
    _forget()
    for cfg, want in zip((a, b, a), (*cold, cold[0])):
        sp = model.split(cfg)
        got = (sp.reconstruct().tobytes(), _basis_bits(perturb.dressed_basis(sp)),
               _bits(perturb.build_series(sp, 1, 8)), _bits(perturb.build_series(sp, 1, 3)))
        assert got == want


def _layers(sp):
    """The bits of a split and of each layer it feeds, built cold: the split's
    numbers, its matrix, the basis and the tables of order 8 and 3."""
    _forget()
    return (np.array(sp).tobytes(), sp.reconstruct().tobytes(),
            *_basis_bits(perturb.dressed_basis(sp)), _bits(perturb.build_series(sp, 1, 8)),
            _bits(perturb.build_series(sp, 1, 3)))


def test_an_equal_split_that_is_another_object_builds_cold_with_the_same_bits():
    # the memos give a result back to the same object only, so a copy builds again
    for cfg in itertools.islice(_memo_draws(), 8):
        sp = model.split(cfg)
        twin = model.PerturbationSplit(*sp)
        assert twin == sp and twin is not sp and hash(twin) == hash(sp)
        cold = _layers(sp)
        basis, table = perturb.dressed_basis(sp), perturb.build_series(sp, 1, 8)
        assert perturb.dressed_basis(twin) is not basis
        assert perturb.build_series(twin, 1, 8) is not table
        assert perturb.build_series(twin, 1, 8) is perturb.build_series(twin, 1, 8)
        got = (np.array(twin).tobytes(), twin.reconstruct().tobytes(),
               *_basis_bits(perturb.dressed_basis(twin)),
               _bits(perturb.build_series(twin, 1, 8)), _bits(perturb.build_series(twin, 1, 3)))
        assert got == cold == _layers(twin)


@pytest.mark.parametrize("signed", [  # (g_b, da, db, dc, gamma_3) with a zero to sign
    lambda z: (1.0, z, 0.1, 0.5, 0.0), lambda z: (1.0, -0.0, z, 0.5, 0.0),
    lambda z: (1.0, -0.0, 0.0, z, 0.4), lambda z: (complex(z, 1.0), 0.3, 0.1, 0.5, 0.0)],
    ids=["delta_1", "delta_2", "delta_3", "pump-phase"])
def test_a_signed_zero_gets_its_own_split_basis_and_table_bits(signed):
    # -0.0 == 0.0, so the two splits are equal, but their numbers' bits are not,
    # nor, where the zero reaches them, those of the layers they feed
    splits, layers = [], []
    for zero in (0.0, -0.0):
        gb, da, db, dc, g3 = signed(zero)
        splits.append(model.split(make_config(0.01, gb, 0.01, 1, 0, 1, da, db, dc, (0, 0, g3))))
        layers.append(_layers(splits[-1]))
    assert splits[0] == splits[1] and layers[0] != layers[1]
    for sp, bits in zip((*splits, splits[0]), (*layers, layers[0])):  # interleaved
        got = (np.array(sp).tobytes(), sp.reconstruct().tobytes(),
               *_basis_bits(perturb.dressed_basis(sp)),
               _bits(perturb.build_series(sp, 1, 8)), _bits(perturb.build_series(sp, 1, 3)))
        assert got == bits


def test_a_call_that_raises_raises_again_with_the_same_message():
    degenerate = _pump(0.3, 0.3, 0.7, 0.0)
    far = make_config(0.01, 1.0, 0.01, 1, 0, 1, 1.7e308, 0.0, -1e308)
    calls = [(DegeneracyError, lambda: perturb.dressed_basis(degenerate)),
             (DegeneracyError, lambda: perturb.build_series(
                 model.split(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.0, 0.0, 0.0)), 1, 3)),
             (PoleError, lambda: perturb.dressed_basis(model.split(far)))]
    for kind, call in calls:
        perturb.build_series(model.split(_REFERENCE), 1, 8)  # something else to remember
        messages = []
        for _ in range(2):
            with pytest.raises(kind) as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_returned_arrays_are_read_only():
    sp = model.split(_REFERENCE)
    table = perturb.build_series(sp, 1, 8)
    lower = perturb.build_series(sp, 1, 3)
    for array in (table.E, table.A, table.E.base, lower.E, lower.A, lower.E.base):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


_READERS = {"dressed_basis": perturb.dressed_basis,
            "build_series": lambda bad: perturb.build_series(bad, 1, 4),
            "ground_series": lambda bad: oracle.ground_series(bad, 4),
            "ground_eigenvalue_function": oracle.ground_eigenvalue_function}


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in model.PerturbationSplit._fields
      for value in ("1", True, None, np.array(0.5))),
    ("ua", 0j), ("uc", 0.0), ("ua", np.complex128(0)), ("h22", np.bool_(False)),
    ("h11", np.complex128(0.3)), ("eps_a", np.float64(0.01)), ("x", np.float32(0.5)),
    ("x", np.array([0.5])), ("ua", np.array([1.0, 1.0])), ("eps_a", float("inf")),
    ("y", complex("nan"))], ids=str)
def test_every_split_reader_refuses_a_field_that_is_no_finite_number_or_a_zero_phase(field, value):
    # a split holds the N-configuration's nine numbers: the gate in dressed_basis
    # refuses any other field, a numpy number included, so no reader converts
    # one, and a zero ua or uc, whose va or vc would vanish
    sp = model.split(_REFERENCE)
    bad = sp._replace(**{field: value})
    for name, read in _READERS.items():
        for _ in range(2):  # after a build of the good split, whose memos must not answer
            perturb.build_series(sp, 1, 8)
            with pytest.raises(ValueError, match=r"^a split must hold nine finite numbers"):
                read(bad)


@pytest.mark.parametrize("name", sorted(_READERS))
def test_split_readers_refuse_what_is_not_a_split(name):
    # an h0 array, the argument dressed_basis once took, or a plain tuple of the numbers
    sp = model.split(_REFERENCE)
    for bad in (matrices(sp)[0], tuple(sp), None):
        with pytest.raises(ValueError, match=r"^a split must hold nine finite numbers"):
            _READERS[name](bad)


def test_a_split_of_python_ints_and_floats_reads_as_its_complex_twin():
    # the gate takes any Python number, so a real field needs no conversion
    real = model.PerturbationSplit(0.3, 0.2, 0.5, 1, 1, 1, 1, 0.01, 0.01)
    twin = model.PerturbationSplit(*map(complex, real[:7]), *real[7:])
    got, want = ([perturb.dressed_basis(sp).eigenvalues, perturb.build_series(sp, 1, 6).E,
                  oracle.ground_series(sp, 6),
                  oracle.ground_eigenvalue_function(sp)(0.01, 0.01)] for sp in (real, twin))
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-14, atol=0.0)


def test_every_split_reader_takes_a_pump_past_double_range_as_the_out_of_range_pole():
    # Python's complex product gives inf where numpy's would warn, and is checked
    far = model.split(_REFERENCE)._replace(x=1e200 + 0j, y=1e200 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in _READERS.values():
            with pytest.raises(PoleError, match="outside double range"):
                read(far)


def _chain_bits(cfg):
    """The series loop's chain on one configuration, as bytes."""
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 8)
    energy = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 8)
    exact = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
    coh = suscept.coherences(cfg, 3)
    return (_bits(table), np.array([energy, exact, coh.rho21, coh.rho43]).tobytes(),
            _bits(perturb.build_series(sp, 1, 3)))


def test_threads_on_interleaved_configurations_get_the_serial_bits():
    configs = list(itertools.islice(_memo_draws(), 8))
    _forget()
    serial = [_chain_bits(cfg) for cfg in configs]
    results, switch = {}, sys.getswitchinterval()

    def work(t):
        for r in range(6):
            for i in range(t + r, t + r + len(configs), 2):  # every other one, rotated
                k = i % len(configs)
                results.setdefault((t, k), []).append(_chain_bits(configs[k]))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    try:
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * len(configs)
    for (_, k), runs in results.items():
        assert all(run == serial[k] for run in runs), k
