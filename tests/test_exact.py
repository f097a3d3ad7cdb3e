"""The closed-form and bridge kernels on exact rationals: the true error of
each float route, and the Kerr kernel and the chi's through the bridge against
the exact continuant.

Both sides of each ``==`` are rational functions of the inputs, so equality
at random rational points is a proof up to a chance below d/|S| per point
(J. T. Schwartz, J. ACM 27(4), 701 (1980)), with d the degree of the
numerator of their difference and S the set a coordinate is drawn from.
"""

import random
from fractions import Fraction

from exact import I, lift
from nkerr import effective, model, oracle, perturb, suscept, validate

U = Fraction(1, 2**53)  # the unit roundoff of a double

# the largest error, in u, of each float route against the exact value of its
# formula at the exact values of its float inputs; over 24000 seeded draws of
# validate._random_config, half of them lossy, the worst was 4.4, 10.3 and
# 8.0 u for the chi's and 2.5, 7.0 and 4.7 u for L, S and K
CHI_BOUNDS = 8, 16, 12
KERR_BOUNDS = 4, 12, 8
# the bridge's chi's from each order-4 series route, against the bridge on the
# exact continuant at the exact float entries of the split; over 24000 seeded
# draws of validate._random_config, half of them lossy, the worst was 9.7,
# 13.2 and 15.8 u from oracle.ground_series and 33.5, 40.6 and 22.5 u from
# perturb.build_series at order 4
GROUND_SERIES_BOUNDS = 16, 24, 24
BUILD_SERIES_BOUNDS = 48, 64, 32


def _exact_inputs(cfg):
    """The exact values of the floats the kernels read: delta_1..3, gamma_1..3,
    |g_a|^2, G_b, |g_c|^2, eps_a and eps_c."""
    deltas = cfg.mode_a.delta, cfg.mode_b.delta, cfg.mode_c.delta
    _, (eps_a, _), _, (eps_c, _), (gb2n, _) = model.pole_terms(cfg, *deltas)
    ga2, gc2 = abs(cfg.mode_a.g) ** 2, abs(cfg.mode_c.g) ** 2
    return tuple(map(Fraction, (*cfg.detunings(), *cfg.gamma, ga2, gb2n, gc2, eps_a, eps_c)))


def _within(value, exact, bound_u) -> bool:
    """|value - exact| <= bound_u * u * |exact|, decided exactly."""
    exact = lift(exact)
    return (lift(value) - exact).norm2() <= (bound_u * U) ** 2 * exact.norm2()


def test_float_closed_forms_are_within_a_few_u_of_their_exact_values():
    rng = random.Random("exact closed forms")
    for k in range(40):
        cfg = validate._random_config(rng, lossy=k % 2 == 1)
        d1, d2, d3, g1, g2, g3, ga2, gb2n, gc2, eps_a, eps_c = _exact_inputs(cfg)
        den = (g1 + I * d1) * (g2 + I * d2) + gb2n
        chis = suscept._chis(d2, g2, ga2, gb2n, gc2, eps_a, eps_c, den, d3 - I * g3, I)
        point = suscept.susceptibility_point(cfg)
        for value, exact, bound in zip(point, chis, CHI_BOUNDS):
            assert _within(value, exact, bound), (k, value, exact)
        if cfg.is_hermitian:
            kerr = effective._kerr(d2, d3, gb2n - d1 * d2, ga2, gb2n, gc2)
            assert all(type(c) is Fraction for c in kerr)
            for value, exact, bound in zip(effective.coefficients(cfg), kerr, KERR_BOUNDS):
                assert _within(value, exact, bound), (k, value, exact)


def _sub(a: dict, b: dict) -> dict:
    """a - b for double series {(p, q): coefficient}."""
    return {key: a.get(key, 0) - b.get(key, 0) for key in a.keys() | b.keys()}


def _scale(weight, a: dict) -> dict:
    return {key: weight * x for key, x in a.items()}


def _continuant_root(h11, h22, h33, gb, degree: int = 2) -> dict:
    """The root E(u, v) with E(0, 0) = 0 of ``oracle.ground_series``' continuant
    f1 = -E, f2 = (h11 - E) f1 - u, f3 = (h22 - E) f2 - G_b f1,
    f4 = (h33 - E) f3 - v f2, by its passes E <- E - f4(E) / f4'(0), each of
    which fixes one more total degree, on exact series to total degree ``degree``."""
    def mul(a: dict, b: dict) -> dict:
        c = {}
        for (p, q), x in a.items():
            for (r, s), y in b.items():
                if p + q + r + s <= degree:
                    c[p + r, q + s] = c.get((p + r, q + s), 0) + x * y
        return c

    one, u, v = {(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}
    slope = -(h11 * h22 - gb) * h33
    e = {}
    for _ in range(degree):
        f1 = _scale(-1, e)
        f2 = _sub(mul(_sub(_scale(h11, one), e), f1), u)
        f3 = _sub(mul(_sub(_scale(h22, one), e), f2), _scale(gb, f1))
        f4 = _sub(mul(_sub(_scale(h33, one), e), f3), mul(v, f2))
        e = _sub(e, _scale(1 / slope, f4))
    return e


def _rational(rng: random.Random, positive: bool = False) -> Fraction:
    numerator = rng.randint(1, 10**12) * (1 if positive else rng.choice((-1, 1)))
    return Fraction(numerator, rng.randint(1, 10**12))


def test_kerr_kernel_is_the_exact_continuant_at_random_rational_points():
    # E = L n_a + S n_a^2 + K n_a n_c + ... with u = |g_a|^2 n_a and
    # v = |g_c|^2 n_c, so L, S and K are |g_a|^2 E_u, |g_a|^4 E_uu and
    # |g_a|^2 |g_c|^2 E_uv; equal as rational functions, not to rounding
    rng = random.Random("kerr continuant")
    for _ in range(20):
        d1, d2, d3 = (_rational(rng) for _ in range(3))
        ga2, gb2n, gc2 = (_rational(rng, positive=True) for _ in range(3))
        e = _continuant_root(d1, d2, d3, gb2n)
        assert effective._kerr(d2, d3, gb2n - d1 * d2, ga2, gb2n, gc2) == (
            ga2 * e[1, 0], ga2**2 * e[2, 0], ga2 * gc2 * e[1, 1])


def test_bridge_is_the_closed_forms_on_the_exact_continuant_at_random_rational_points():
    # chis_from_energy reads E[2, 0], E[4, 0] and E[2, 2], the coefficients of
    # u, u^2 and u v in E(u, v) with u = eps_a^2 and v = eps_c^2; eps_a and eps_c
    # are drawn and |g|^2 = eps^2 / n, so every input is exact.  k % 2 picks
    # lossless or lossy and k % 3 == 2 a Raman point (delta_2 = gamma_2 = 0),
    # where chi1 and chi3_self are exactly 0
    rng = random.Random("bridge continuant")
    for k in range(24):
        raman = k % 3 == 2
        d1, d2, d3 = (_rational(rng) for _ in range(3))
        g1, g2, g3 = (_rational(rng, positive=True) if k % 2 else Fraction(0) for _ in range(3))
        if raman:
            d2 = g2 = Fraction(0)
        n_a, n_c = rng.randint(1, 9), rng.randint(1, 9)
        eps_a, eps_c, gb2n = (_rational(rng, positive=True) for _ in range(3))
        den = (g1 + I * d1) * (g2 + I * d2) + gb2n
        closed = suscept._chis(d2, g2, eps_a**2 / n_a, gb2n, eps_c**2 / n_c, eps_a, eps_c,
                               den, d3 - I * g3, I)
        e = _continuant_root(d1 - I * g1, d2 - I * g2, d3 - I * g3, gb2n)
        assert closed == suscept._chis_from_series(e[1, 0], e[2, 0], e[1, 1], n_a, n_c), k
        assert not raman or closed[:2] == (0, 0), k


def test_float_bridge_is_within_a_few_u_of_its_exact_value():
    # the exact value is the bridge on the exact continuant at the exact float
    # numbers of the split: the phase products P_a = conj(ua) ua and
    # P_c = conj(uc) uc round off 1, and E(u, v) is then e(P_a u, P_c v)
    rng = random.Random("exact bridge")
    routes = ((lambda sp: oracle.ground_series(sp, 4), GROUND_SERIES_BOUNDS),
              (lambda sp: perturb.build_series(sp, 1, 4).E, BUILD_SERIES_BOUNDS))
    for k in range(40):
        cfg = validate._random_config(rng, lossy=k % 2 == 1)
        sp = model.split(cfg)
        h11, h22, h33, x, y, ua, uc = map(lift, sp[:7])
        e = _continuant_root(h11, h22, h33, x * y)
        p_a, p_c = lift(sp.ua.conjugate()) * ua, lift(sp.uc.conjugate()) * uc
        exact = suscept._chis_from_series(p_a * e[1, 0], p_a**2 * e[2, 0], p_a * p_c * e[1, 1],
                                          cfg.mode_a.n, cfg.mode_c.n)
        for series, bounds in routes:
            for value, x, bound in zip(suscept.chis_from_energy(cfg, series(sp)), exact, bounds):
                assert _within(value, x, bound), (k, value, x)
