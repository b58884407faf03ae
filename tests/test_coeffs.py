"""Coefficient-layer tests: dispersion roots, symbol algebra, derived constants.

Expected values marked "frozen" were computed once from the independent
oracles defined at the top of this file and pasted in as literals.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from bonls import coeffs
from bonls.coeffs import (
    ANDAMAN,
    OREGON,
    DomainError,
    PhysicalParams,
    _mixing_from_theta,
    _x_coth,
    _x_csch,
    asymptotic_coefficients,
    coefficient_rows,
    derive_coefficients,
    dispersion_internal,
    dispersion_surface,
    expansion_constants,
    k_coth,
    omega1_prime,
    quartic_residual,
    resonance_residual,
    symbol_table,
)
from bonls.verify import K, kappa8_gap

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

BENCH = PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0)
# a realistic ocean contrast: csch(h1 k0) = csch(2500) underflows in floats
SHARP = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=999.9)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def quartic_coefficients(params, k):
    """Coefficients (T, P) of the dispersion quartic w^4 - T w^2 + P = 0.

    T and P are the trace and determinant of the coupled quadratic form,
    written with the printed coth weight for |k| > 0.
    """
    k = np.asarray(k, dtype=float)
    g, rho, rho1 = params.g, params.rho, params.rho1
    ak = np.abs(k)
    g11 = k_coth(k, params.h1)
    b0 = rho * g11 + rho1 * ak  # >= rho/h1, so k = 0 stays finite
    T = g * rho * ak * (ak + g11) / b0
    P = g * g * (rho - rho1) * k * k * ak / b0
    return T, P


def quartic_roots(params, k):
    """Both w^2 roots of the dispersion quartic via the quadratic formula.

    Independent of dispersion_internal / dispersion_surface and of the
    scale-free quartic in quartic_residual: (T, P) come from
    quartic_coefficients above, a direct transcription of the quartic.
    """
    T, P = quartic_coefficients(params, np.asarray([k], dtype=float))
    disc = math.sqrt(float(T[0]) ** 2 - 4.0 * float(P[0]))
    lo = 0.5 * (float(T[0]) - disc)
    hi = 0.5 * (float(T[0]) + disc)
    return lo, hi


def eig_oracle(params, k):
    """Eigenvalues of [[Qa, Qb], [Qb, Qc]] by dense symmetric eigensolve."""
    st_ = symbol_table(params, np.asarray([k], dtype=float))
    m = np.array([[st_.qa[0], st_.qb[0]], [st_.qb[0], st_.qc[0]]])
    return np.linalg.eigvalsh(m)


def symbol_oracle(g, h1, rho, rho1, k):
    """Every symbol of symbol_table at k > 0, from its closed form, in mpmath.

    The arguments are mpf, and the working precision is the caller's.  theta
    is (qc - qa)/qb and A1, A2, B1, B2 are the differences of products that
    define them, so nothing is shared with symbol_table.  a- and b- take the
    forms that keep their digits on either sign of theta: a- = ((s +
    theta)/(2s))^(1/2) for theta > 0 (the naive 2 + theta^2/2 - theta s/2 loses
    every digit once theta ~ 1e36, as at the Andaman preset) and a- = (2/(s (s
    - theta)))^(1/2), b- = -((s - theta)/(2s))^(1/2) below, with s = sqrt(4 +
    theta^2); a+(theta) = a-(-theta) and b+(theta) = -b-(-theta).
    """
    mpmath = pytest.importorskip("mpmath")
    drho = rho - rho1
    sq_d, sq_1 = mpmath.sqrt(g * drho), mpmath.sqrt(g * rho1)
    g11 = k * mpmath.coth(h1 * k)
    b0 = rho * g11 + rho1 * k
    qa = g * drho * k * g11 / b0
    qb = g * mpmath.sqrt(rho1 * drho) * k * k * mpmath.csch(h1 * k) / b0
    qc = g * k * (rho1 * g11 + rho * k) / b0
    theta = (qc - qa) / qb

    def minus(theta):
        s = mpmath.sqrt(4 + theta * theta)
        if theta > 0:
            a_m = mpmath.sqrt((s + theta) / (2 * s))
            return a_m, -2 * a_m / (theta + s)
        return mpmath.sqrt(2 / (s * (s - theta))), -mpmath.sqrt((s - theta) / (2 * s))

    a_m, b_m = minus(theta)
    a_p, b_p = (sign * v for sign, v in zip((1, -1), minus(-theta)))
    A1, B1 = (b_p * qa - a_p * qb) / sq_d, (b_m * qa - a_m * qb) / sq_d
    A4, B4 = (b * sq_d * k * k / b0 + rho / (rho1 * sq_d) * a * qb
              for a, b in ((a_p, b_p), (a_m, b_m)))
    return {"qb": qb, "qd": qc - qa, "theta": theta, "a_plus": a_p, "a_minus": a_m,
            "b_plus": b_p, "b_minus": b_m, "A1": A1, "A2": (a_p * qc - b_p * qb) / sq_1,
            "A3": A1, "A4": A4, "A5": -sq_1 * k * a_p, "B1": B1,
            "B2": (a_m * qc - b_m * qb) / sq_1, "B3": B1, "B4": B4, "B5": -sq_1 * k * a_m}


def kappa_oracle(params):
    """(value, largest term of its sum) of kappa1..kappa7, in 50 digits.

    Independent of symbol_table: the k > 0 symbols at k0 are symbol_oracle's,
    and the derivatives are mpmath's.  Only the small-k constants are shared.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        g, h1, rho, rho1 = (mpmath.mpf(v) for v in
                            (params.g, params.h1, params.rho, params.rho1))
        drho = rho - rho1
        sq_d, sq_1 = mpmath.sqrt(g * drho), mpmath.sqrt(g * rho1)
        k0 = rho / (4 * h1 * drho)

        def products(k):
            # B1^2/w1 .. B5^2/w1, b- B3, b- B4, a- B5 (B3 = B1 for k > 0)
            sy = symbol_oracle(g, h1, rho, rho1, k)
            B1, B2, B4, B5 = (sy[name] for name in ("B1", "B2", "B4", "B5"))
            w1 = mpmath.sqrt(g * k)
            return [B1 ** 2 / w1, B2 ** 2 / w1, B1 ** 2 / w1, B4 ** 2 / w1,
                    B5 ** 2 / w1, sy["b_minus"] * B1, sy["b_minus"] * B4, sy["a_minus"] * B5]

        F1, F2, F3, F4, F5, G3, G4, G5 = products(k0)
        Fp1, Fp2, Fp3, Fp4, Fp5, G4p, G5p = (
            mpmath.diff(lambda k, j=j: products(k)[j], k0) for j in (0, 1, 2, 3, 4, 6, 7))
        ap0, ap1, bp0, bp1, A3_0, A4_0, A4_1, A5_0, A5_1 = map(
            mpmath.mpf, dataclasses.astuple(expansion_constants(params)))

        def f_terms(wb, wa, f1, f2, f3, f4, f5):
            # the sum shared by kappa1, kappa4 and kappa6
            return [-wb * mpmath.sqrt(drho / g) * f1, wa * mpmath.sqrt(rho1 / g) * f2,
                    wb * rho / sq_d * f3, -wb * rho1 / sq_d * f4, -wa / (rho1 * sq_1) * f5]

        terms = {
            "kappa1": f_terms(bp0 / 2, ap0 / 2, F1, F2, F3, F4, F5),
            "kappa2": [-rho1 / sq_d * A4_0 * G4, -A5_0 * G5 / (rho1 * sq_1)],
            "kappa3": [rho1 / sq_d * bp0 * A4_0 * A4_1, ap0 * A5_0 * A5_1 / (rho1 * sq_1)],
            "kappa4": f_terms(bp0 / 4, ap0 / 4, Fp1, Fp2, Fp3, Fp4, Fp5),
            "kappa5": [-rho1 / (2 * sq_d) * A4_0 * G4p, -A5_0 * G5p / (2 * rho1 * sq_1)],
            "kappa6": f_terms(bp1 / 2, ap1 / 2, F1, F2, F3, F4, F5),
            "kappa7": [rho / sq_d * A3_0 * G3, -rho1 / sq_d * A4_1 * G4,
                       -A5_1 * G5 / (rho1 * sq_1)],
        }
        return {name: (float(mpmath.fsum(t)), float(max(abs(x) for x in t)))
                for name, t in terms.items()}


# --------------------------------------------------------------------------
# dispersion branches
# --------------------------------------------------------------------------

def test_internal_branch_vanishes_at_zero():
    assert dispersion_internal(ANDAMAN, 0.0) == pytest.approx(0.0, abs=0.0)


@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_internal_branch_even(k):
    w_plus = dispersion_internal(ANDAMAN, k)
    w_minus = dispersion_internal(ANDAMAN, -k)
    assert w_minus == pytest.approx(w_plus, rel=1e-14)


def test_internal_branch_is_smaller_quartic_root():
    k = 1.0 / 6.0
    lo, hi = quartic_roots(ANDAMAN, k)
    w2 = float(dispersion_internal(ANDAMAN, k))
    w1sq = float(dispersion_surface(ANDAMAN, k))
    assert w2 == pytest.approx(lo, rel=1e-12), f"internal branch {w2} != root {lo}"
    assert w1sq == pytest.approx(hi, rel=1e-12)


def test_surface_branch_values():
    assert dispersion_surface(ANDAMAN, 1.0) == pytest.approx(9.81, rel=1e-15)
    assert dispersion_surface(ANDAMAN, -4.0) == pytest.approx(39.24, rel=1e-15)


@pytest.mark.parametrize("params", [ANDAMAN, OREGON, BENCH])
def test_both_roots_satisfy_quartic(params):
    k = np.geomspace(0.01, 10.0, 100)
    for branch in (dispersion_internal, dispersion_surface):
        res = quartic_residual(params, k, branch(params, k))
        assert np.max(res) <= 1e-10, f"{branch.__name__}: residual {np.max(res):.3e}"


# --------------------------------------------------------------------------
# symbol table
# --------------------------------------------------------------------------

def test_eigen_decoupling_against_dense_solver():
    lo, hi = eig_oracle(ANDAMAN, 0.5)
    w2 = float(dispersion_internal(ANDAMAN, 0.5))
    w1sq = float(dispersion_surface(ANDAMAN, 0.5))
    scale = max(abs(hi), 1.0)
    assert abs(lo - w2) / scale <= 1e-10
    assert abs(hi - w1sq) / scale <= 1e-10


@pytest.mark.parametrize("k", [0.03, 0.5, 4.0])
def test_mixing_normalization_sampled(k):
    st_ = symbol_table(ANDAMAN, np.asarray([k]))
    assert st_.a_plus[0] ** 2 + st_.b_plus[0] ** 2 == pytest.approx(1.0, abs=1e-13)
    assert st_.a_minus[0] ** 2 + st_.b_minus[0] ** 2 == pytest.approx(1.0, abs=1e-13)


def test_mixing_identities_on_a_grid():
    k = np.geomspace(1e-4, 50.0, 400)
    st_ = symbol_table(ANDAMAN, k)
    assert np.max(np.abs(st_.a_plus ** 2 + st_.b_plus ** 2 - 1.0)) <= 1e-12
    assert np.max(np.abs(st_.a_minus * st_.b_plus - st_.a_plus * st_.b_minus - 1.0)) <= 1e-12
    assert np.max(np.abs(st_.a_plus * st_.a_minus + st_.b_plus * st_.b_minus)) <= 1e-12


def test_limits_at_zero_wavenumber():
    st_ = symbol_table(ANDAMAN, np.asarray([0.0]))
    # k coth(h1 k) -> 1/h1
    assert st_.g11[0] == pytest.approx(1.0 / ANDAMAN.h1, rel=1e-12)
    assert st_.g12[0] == pytest.approx(-1.0 / ANDAMAN.h1, rel=1e-12)
    assert st_.omega2[0] == 0.0


def test_symbol_table_total_over_wide_range():
    # overflow guards in coth/csch: no NaN/inf from tiny to huge wavenumbers
    k = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 60), -np.geomspace(0.1, 1e4, 20)])
    st_ = symbol_table(ANDAMAN, k)
    for name in ("qa", "qb", "qc", "a_plus", "b_minus", "A1", "B4", "omega2"):
        assert np.all(np.isfinite(getattr(st_, name))), name


# --------------------------------------------------------------------------
# layer multipliers and mixing multipliers
# --------------------------------------------------------------------------

LAYER_X = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-8, 50.0, 400),
                          [700.0, 709.0]])


@pytest.mark.parametrize("helper, divisor", [(_x_coth, "tanh"), (_x_csch, "sinh")],
                         ids=["coth", "csch"])
def test_layer_multipliers_match_40_digits(helper, divisor):
    # 400 points put samples just below x = 0.05, where a 4-term Taylor
    # series would be off by up to 8.2e-15 (37 ulp)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = np.array([1.0 if x == 0.0 else float(x / getattr(mpmath, divisor)(x))
                         for x in map(mpmath.mpf, LAYER_X)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (LAYER_X, -LAYER_X):
            err = np.max(np.abs(helper(x) - want) / want)
            assert err <= 4.5e-16, f"{helper.__name__}: {err:.2e}"


def test_layer_csch_underflows_to_zero_past_710():
    # sinh overflows at x = 710.5, where x csch(x) is already below
    # 6.4e-306; the quotient is then 0, with no warning
    x = np.array([710.5, 745.2, 1e4, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_x_csch(x), np.zeros(4))
        assert np.array_equal(_x_coth(x), x)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert float(710.5 / mpmath.sinh(710.5)) < 6.4e-306


THETA_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e100, -1e100,
                        1e200, -1e200, 1.7e308, -1.7e308, np.inf, -np.inf])


def test_mixing_identities_at_every_magnitude():
    a_p, a_m, b_p, b_m = _mixing_from_theta(THETA_EDGES)
    for values in (a_p, a_m, b_p, b_m):
        assert np.all(np.isfinite(values))
    assert np.max(np.abs(a_p ** 2 + b_p ** 2 - 1.0)) <= 4.5e-16
    assert np.max(np.abs(a_m ** 2 + b_m ** 2 - 1.0)) <= 4.5e-16
    assert np.max(np.abs(a_m * b_p - a_p * b_m - 1.0)) <= 4.5e-16
    assert np.max(np.abs(a_p * a_m + b_p * b_m)) <= 4.5e-16


# a+ and b+ at MIXING_THETA, frozen from the independent closed forms
# a+-^-2 = 2 + theta^2/2 +- (theta/2) s; a-(theta) = a+(-theta) and
# b-(theta) = -b+(-theta) hold exactly, so the two arrays fix all four
MIXING_THETA = np.concatenate([-np.geomspace(1e-4, 1e12, 33)[::-1], [0.0],
                               np.geomspace(1e-4, 1e12, 33)])
_PARENT_A_PLUS = np.array([
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9999999999999999, 0.9999999999999996,
    0.9999999999999951, 0.99999999999995, 0.9999999999995, 0.999999999995, 0.99999999995,
    0.9999999995, 0.999999995, 0.9999999500000137, 0.999999500001375, 0.9999950001374956,
    0.9999500137456889, 0.9995013707018487, 0.9951333266680702, 0.9605087856778084,
    0.85065080835204, 0.7603202489374481, 0.724547312790508, 0.712674333846746,
    0.7088723218962537, 0.7076655766863555, 0.7072835357681883, 0.7071626806757523,
    0.7071244586350898, 0.7071067811865476, 0.7070891032960636, 0.7070508772779254,
    0.7069299824107406, 0.7065475437457609, 0.7053368211354162, 0.7014950419469098,
    0.6892250659458445, 0.649548396238261, 0.5257311121191336, 0.27824965882412456,
    0.09853761796664216, 0.03157546460664577, 0.009998500387383164, 0.003162230227228823,
    0.0009999985000038749, 0.00031622771858268525, 9.999999850000004e-05,
    3.162277655424963e-05, 9.9999999985e-06, 3.1622776601209453e-06, 9.999999999985e-07,
    3.1622776601679054e-07, 9.99999999999985e-08, 3.1622776601683746e-08,
    9.999999999999999e-09, 3.162277660168379e-09, 1e-09, 3.1622776601683795e-10, 1e-10,
    3.1622776601683794e-11, 1e-11, 3.162277660168379e-12, 1e-12,
])
_PARENT_B_PLUS = np.array([
    1e-12, 3.162277660168379e-12, 1e-11, 3.1622776601683794e-11, 1e-10,
    3.1622776601683795e-10, 1e-09, 3.162277660168379e-09, 9.999999999999999e-09,
    3.1622776601683746e-08, 9.99999999999985e-08, 3.1622776601679054e-07,
    9.999999999984999e-07, 3.1622776601209453e-06, 9.9999999985e-06,
    3.162277655424963e-05, 9.999999850000002e-05, 0.00031622771858268525,
    0.000999998500003875, 0.003162230227228823, 0.009998500387383164, 0.03157546460664577,
    0.09853761796664216, 0.2782496588241245, 0.5257311121191336, 0.649548396238261,
    0.6892250659458447, 0.7014950419469097, 0.7053368211354162, 0.7065475437457608,
    0.7069299824107407, 0.7070508772779254, 0.7070891032960634, 0.7071067811865476,
    0.7071244586350899, 0.7071626806757523, 0.7072835357681881, 0.7076655766863557,
    0.7088723218962537, 0.7126743338467462, 0.7245473127905079, 0.7603202489374481,
    0.85065080835204, 0.9605087856778086, 0.9951333266680702, 0.9995013707018487,
    0.9999500137456889, 0.9999950001374956, 0.9999995000013748, 0.9999999500000137,
    0.9999999950000001, 0.9999999995, 0.9999999999500001, 0.9999999999950001,
    0.9999999999995001, 0.99999999999995, 0.999999999999995, 0.9999999999999996,
    0.9999999999999999, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9999999999999999, 1.0, 1.0,
])


def test_mixing_matches_frozen_values():
    a_p, a_m, b_p, b_m = _mixing_from_theta(MIXING_THETA)
    for got, want in ((a_p, _PARENT_A_PLUS), (b_p, _PARENT_B_PLUS),
                      (a_m, _PARENT_A_PLUS[::-1]), (b_m, -_PARENT_B_PLUS[::-1])):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4.5e-16


#: density ratios rho1/rho at which every symbol is held to 50 digits
ORACLE_RATIOS = (1e-6, 1e-4, 1e-2, 0.5, 0.997, 1.0 - 1e-4, 1.0 - 1e-6)


def _oracle_params():
    """Each of ORACLE_RATIOS at g = h1 = rho = 1, and at three seeded draws
    of g, h1 and rho (log-uniform over [0.1, 100], [0.01, 1e4], [1, 1000])."""
    rng = np.random.default_rng(7)
    draws = [(1.0, 1.0, 1.0), *10.0 ** rng.uniform((-1, -2, 0), (2, 4, 3), size=(3, 3))]
    return [PhysicalParams(g, h1, rho, ratio * rho)
            for g, h1, rho in draws for ratio in ORACLE_RATIOS]


def test_every_symbol_matches_50_digits():
    """a+-, b+-, A1..A5 and B1..B5 to 8 eps relative at verify.K / h1, theta
    relative to hypot(theta, 2) and qc - qa to hypot(qc - qa, 2 qb), the
    scales their rounding is relative to where either crosses zero."""
    mpmath = pytest.importorskip("mpmath")
    worst = {}
    with mpmath.workdps(50):
        for params in _oracle_params():
            k = K / params.h1
            st_ = symbol_table(params, k)
            for i, ki in enumerate(k):
                want = symbol_oracle(*map(mpmath.mpf, (params.g, params.h1, params.rho,
                                                        params.rho1, ki)))
                scale = {"theta": mpmath.hypot(want["theta"], 2),
                         "qd": mpmath.hypot(want["qd"], 2 * want["qb"])}
                for name, w in want.items():
                    err = float(abs(getattr(st_, name)[i] - w) / scale.get(name, abs(w)))
                    if err > worst.get(name, (0.0,))[0]:
                        worst[name] = (err, params, float(ki))
    eps = np.finfo(float).eps
    bad = {name: v for name, v in worst.items() if v[0] > 8.0 * eps}
    assert not bad, bad


# --------------------------------------------------------------------------
# derived coefficients
# --------------------------------------------------------------------------

def test_resonance_identity_presets():
    assert resonance_residual(ANDAMAN) <= 1e-12
    assert resonance_residual(OREGON) <= 1e-12


def test_andaman_headline_values():
    co = derive_coefficients(ANDAMAN, epsilon=0.1, delta=0.25)
    assert co.c0 == pytest.approx(3.8360135557633264, rel=1e-13)  # frozen
    assert co.k0 == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert co.Omega0 == pytest.approx(co.c0 ** 2, rel=1e-13)
    assert abs(omega1_prime(ANDAMAN, co.k0) - co.c0) / co.c0 <= 1e-12


def test_andaman_reduced_constants_frozen():
    co = derive_coefficients(ANDAMAN, epsilon=0.1, delta=0.25)
    frozen = {
        "a": -3167.951016620384,
        "b": 95.61263787740093,
        "c": 2.94227828476207e-4,
        "d": 4.889085749846309e-3,
        "alpha": 0.575402033364499,
        "beta": 3.269198094180079e-4,
    }
    for name, want in frozen.items():
        got = getattr(co, name)
        assert got == pytest.approx(want, rel=1e-12), f"{name}: {got!r} vs {want!r}"


def test_bench_reduced_constants_frozen():
    co = derive_coefficients(BENCH, epsilon=0.35, delta=0.25)
    assert co.a == pytest.approx(0.003609190862306335, rel=1e-12)
    assert co.b == pytest.approx(0.0618718433538229, rel=1e-12)
    assert co.c == pytest.approx(0.31216686768821433, rel=1e-12)
    assert co.d == pytest.approx(0.01820973394847917, rel=1e-12)
    assert co.alpha == pytest.approx(0.12374368670764582, rel=1e-12)
    assert co.beta == pytest.approx(0.13738825284460873, rel=1e-12)


def test_kappa8_vanishes():
    # the two terms cancel to rounding, relative to their size
    for params in (ANDAMAN, OREGON, BENCH):
        assert kappa8_gap(params) <= 1e-12
        assert derive_coefficients(params, epsilon=0.1, delta=0.25).kappa8 == 0.0


def test_sign_conventions():
    # stable stratification puts b, c, d, alpha, beta on the positive side
    co = derive_coefficients(BENCH, epsilon=0.35, delta=0.25)
    for name in ("b", "c", "d", "alpha", "beta"):
        assert getattr(co, name) > 0.0, name


@pytest.mark.parametrize("delta", [-0.1, 0.0, 0.5, 0.9])
def test_delta_domain_rejected(delta):
    with pytest.raises(DomainError):
        derive_coefficients(ANDAMAN, epsilon=0.1, delta=delta)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.3])
def test_epsilon_domain_rejected(epsilon):
    with pytest.raises(DomainError):
        derive_coefficients(ANDAMAN, epsilon=epsilon, delta=0.25)


def test_unstable_stratification_rejected():
    with pytest.raises(DomainError, match="stable configuration"):
        PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=1200.0)
    with pytest.raises(DomainError):
        PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=0.0)


@pytest.mark.parametrize("name, match", [
    ("g", "g must be positive and finite"),
    ("h1", "h1 must be positive and finite"),
    ("rho", "stable configuration requires finite rho"),
    ("rho1", "stable configuration"),
])
def test_infinite_parameters_rejected(name, match):
    # g = inf reached derive_coefficients and raised LimitUndefined there,
    # h1 = inf a ZeroDivisionError
    values = {"g": 1.0, "h1": 1.0, "rho": 2.0, "rho1": 1.0, name: math.inf}
    with pytest.raises(DomainError, match=match):
        PhysicalParams(**values)


@pytest.mark.parametrize("values", [
    {"h1": 1e308},  # Omega1 overflows
    {"rho": 1e308},
    {"rho1": 1e-300},
    {"h1": 1e-308},  # k0 = 1 / (4 h1 gamma) leaves the floats
    {"h1": 1e103, "rho": 1e50},  # Omega2 = -3.3e309
    # Omega1, Omega2 and a underflow to 0, with twin values -0.250, -0.0538, 3.7e-4
    {"g": 5.3335340131086795e-132, "h1": 9.557322778828774e-154,
     "rho": 1.2364138527146085e-119, "rho1": 5.929223369727459e-120},
])
def test_coefficients_outside_the_floats_raise_domain_error(values):
    params = PhysicalParams(**{**dataclasses.asdict(ANDAMAN), **values})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="are not all finite floats"):
            derive_coefficients(params, epsilon=0.1, delta=0.25)


def test_coefficients_inside_the_floats_are_finite():
    # Omega2 = g h1^3 gamma (rho1^2/rho^2 - 1/3) = -3.27e300: the derivation
    # at the unit twin leaves the floats only where a coefficient does
    params = PhysicalParams(g=9.81, h1=1e100, rho=1e50, rho1=997.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        co = derive_coefficients(params, epsilon=0.1, delta=0.25)
    want = params.g * params.h1 ** 3 * params.gamma * ((params.rho1 / params.rho) ** 2 - 1 / 3)
    assert co.Omega2 == pytest.approx(want, rel=1e-14)
    assert co.a == pytest.approx(-0.01 * want / (2.0 * co.c0), rel=1e-14)


def test_coefficient_rows_cover_every_field():
    co = derive_coefficients(ANDAMAN, epsilon=0.1, delta=0.25)
    rows = coefficient_rows(co)
    names = [name for name, _value, _tag in rows]
    assert names == [f.name for f in dataclasses.fields(co)]
    for name, value, tag in rows:
        assert value == getattr(co, name)
        assert tag


@pytest.mark.parametrize(
    "params",
    [ANDAMAN, OREGON, BENCH, SHARP, PhysicalParams(3.0, 7.0, 5.0, 3.0),
     PhysicalParams(9.81, 10.0, 10.0, 1.0)],
    ids=["andaman", "oregon", "bench", "gamma-1e-4", "3-7-5-3", "theta-negative"])
def test_kappas_match_mpmath_oracle(params):
    """kappa1..kappa7, values and derivatives at k0, against 50 digits.

    Each error is measured against the largest term of its sum: kappa1,
    kappa4 and kappa6 vanish to the oracle's 50 digits, where the float
    derivation sets them to 0.  The last set has theta(k0) = -1.83.
    """
    co = derive_coefficients(params, epsilon=0.1, delta=0.25)
    for name, (want, largest) in kappa_oracle(params).items():
        err = abs(getattr(co, name) - want) / largest
        assert err <= 1e-13, f"{name}: {getattr(co, name)!r} vs {want!r} ({err:.1e})"


# --------------------------------------------------------------------------
# long-wave expansions and gamma-asymptotics
# --------------------------------------------------------------------------

def _params_at_gamma(gamma, g=9.81, h1=500.0, rho=1000.0):
    return PhysicalParams(g=g, h1=h1, rho=rho, rho1=rho * (1.0 - gamma))


def test_expansion_constants_are_second_order():
    """a+(k), b+(k), A4(k)/k, A5(k)/k minus their linear expansion is O(k^2)."""
    ec = expansion_constants(BENCH)
    resid = {}
    for eps in (1e-2, 1e-3):
        st_ = symbol_table(BENCH, np.asarray([eps]))
        resid[eps] = max(
            abs(st_.a_plus[0] - (ec.a_plus_0 + ec.a_plus_1 * eps)),
            abs(st_.b_plus[0] - (ec.b_plus_0 + ec.b_plus_1 * eps)),
            abs(st_.A4[0] / eps - (ec.A4_0 + ec.A4_1 * eps)),
            abs(st_.A5[0] / eps - (ec.A5_0 + ec.A5_1 * eps)),
            abs(st_.A3[0] / eps ** 2 - ec.A3_0) * eps,
        )
    # quadratic decay: shrinking k tenfold should gain about two digits
    assert resid[1e-2] <= 1e-3
    assert resid[1e-3] <= resid[1e-2] / 50.0, (
        f"expected O(k^2) decay, got {resid[1e-2]:.3e} -> {resid[1e-3]:.3e}")


def test_asymptotic_kt_close_at_small_gamma():
    params = _params_at_gamma(0.003)
    exact = derive_coefficients(params, epsilon=0.1, delta=0.25)
    asy = asymptotic_coefficients(params)
    want = params.g ** 0.25 * params.gamma ** 0.25 / (
        4.0 * params.h1 ** 0.25 * math.sqrt(2.0 * params.rho1))
    assert asy.kt == pytest.approx(want, rel=1e-13)
    assert abs(exact.kt - asy.kt) / abs(asy.kt) <= 1e-6


@pytest.mark.parametrize("gamma", [1e-4, 1e-6, 1e-9])
def test_small_contrast_coefficients_are_finite(gamma):
    # h1 k0 = 1 / (4 gamma) >= 2500, so csch(h1 k0) underflows to 0 and
    # theta = (qc - qa) / qb is infinite; the a-/b- limits carry it
    params = _params_at_gamma(gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        co = derive_coefficients(params, epsilon=0.1, delta=0.25)
    for field in dataclasses.fields(co):
        assert math.isfinite(getattr(co, field.name)), field.name
    asy = asymptotic_coefficients(params)
    for name in ("kt", "kt1", "kt2", "kt3", "kt4"):
        assert getattr(co, name) == pytest.approx(getattr(asy, name), rel=1e-6), name


def test_asymptotic_improves_with_gamma():
    devs = {}
    for gamma in (0.05, 0.02):
        params = _params_at_gamma(gamma)
        exact = derive_coefficients(params, epsilon=0.1, delta=0.25)
        asy = asymptotic_coefficients(params)
        devs[gamma] = abs(exact.kt1 - asy.kt1) / abs(asy.kt1)
    assert devs[0.05] > devs[0.02]


@pytest.mark.parametrize("gamma", [0.01, 0.003])
def test_asymptotic_signs_agree(gamma):
    params = _params_at_gamma(gamma)
    exact = derive_coefficients(params, epsilon=0.1, delta=0.25)
    asy = asymptotic_coefficients(params)
    for name in ("kt", "kt1", "kt2", "kt3", "kt4"):
        e, a = getattr(exact, name), getattr(asy, name)
        assert math.copysign(1.0, e) == math.copysign(1.0, a), (
            f"{name}: exact {e:.6e} vs asymptotic {a:.6e}")


def test_asymptotic_warns_outside_small_gamma():
    with pytest.warns(UserWarning):
        asymptotic_coefficients(BENCH)  # gamma = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asymptotic_coefficients(ANDAMAN)  # gamma = 0.003, no warning


# --------------------------------------------------------------------------
# randomized properties
# --------------------------------------------------------------------------

if HAS_HYPOTHESIS:

    valid_params = st.builds(
        lambda g, h1, rho, ratio: PhysicalParams(g=g, h1=h1, rho=rho, rho1=ratio * rho),
        g=st.floats(min_value=0.5, max_value=50.0),
        h1=st.floats(min_value=1.0, max_value=5000.0),
        rho=st.floats(min_value=1.0, max_value=5000.0),
        ratio=st.floats(min_value=0.05, max_value=0.999),
    )

    @given(valid_params)
    @settings(max_examples=60, deadline=None)
    def test_resonance_identity_random(params):
        assert resonance_residual(params) <= 1e-12

    @given(valid_params)
    @settings(max_examples=30, deadline=None)
    def test_kappa8_zero_random(params):
        assert kappa8_gap(params) <= 1e-12
        assert derive_coefficients(params, epsilon=0.1, delta=0.25).kappa8 == 0.0

    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    densities = st.tuples(positive, positive).filter(lambda pair: pair[0] != pair[1])

    @given(positive, positive, densities,
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_finite_parameters_give_finite_coefficients_or_domain_error(
            g, h1, densities, epsilon, delta):
        params = PhysicalParams(g=g, h1=h1, rho=max(densities), rho1=min(densities))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                co = derive_coefficients(params, epsilon, delta)
            except DomainError:
                return
        twin = coeffs._derive(coeffs.unit_twin(params), epsilon, delta)
        for field in dataclasses.fields(co):
            value = getattr(co, field.name)
            assert math.isfinite(value), field.name
            # 0 only where the twin's value is exactly 0, else normal
            if getattr(twin, field.name) != 0.0:
                assert abs(value) >= sys.float_info.min, field.name

    @given(valid_params)
    @settings(max_examples=60, deadline=None)
    def test_each_coefficient_is_its_twin_value_times_its_monomial(params):
        # the units table against the derivation run in the given units
        direct = coeffs._derive(params, epsilon=0.1, delta=0.25)
        co = derive_coefficients(params, epsilon=0.1, delta=0.25)
        for field in dataclasses.fields(co):
            want = getattr(direct, field.name)
            assert getattr(co, field.name) == pytest.approx(want, rel=1e-13, abs=0.0), field.name

    @given(valid_params, st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_quartic_roots_random(params, k):
        lo, hi = quartic_roots(params, k)
        w2 = float(dispersion_internal(params, k))
        w1sq = float(dispersion_surface(params, k))
        scale = max(abs(hi), 1e-30)
        assert abs(lo - w2) / scale <= 1e-9
        assert abs(hi - w1sq) / scale <= 1e-9
