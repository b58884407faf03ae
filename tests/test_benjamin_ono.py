"""The periodic Benjamin-Ono travelling wave: an exact nonlinear solution for r.

With a = d = beta = 0 and q = 0 the r-equation of either system is the
Benjamin-Ono equation (Benjamin 1967, J. Fluid Mech. 29; Ono 1975)

    r_t = b H r_xx + c r r_x.

For z = exp(-gamma + i kappa x) let W = (1 + z) / (1 - z), analytic in z
on |z| < 1, so H Re W = Im W.  Then P = Re W = sinh gamma / (cosh gamma -
cos kappa x), whose mean is 1, and W satisfies

    W_x = (i kappa / 2) (W^2 - 1),    |W|^2 = 2 coth(gamma) P - 1,

whose real and imaginary parts give (H P)_x = kappa (P^2 - coth(gamma) P).
Put r = m + A (P - 1) moving at speed V.  Integrated once, the equation
balances its P^2 terms at A = -2 b kappa / c and its P terms at

    V = b kappa (coth(gamma) - 2) - c m.

At m = 0 this wave is slow: V = -2.7e-3 at gamma = 0.6 on the bench
coefficients.  The mean m advects it at -c m, a Fourier multiplier that
commutes with the dispersion, so the profile keeps its shape.  gamma = 0.3
and m = 1 move the wave a little more than one period, 20, by t = 72.
This tests b H r_xx against the nonlinear term, which the Yajima-Oikawa
soliton cannot, because it sets b = c = 0.
"""

import dataclasses

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients
from bonls.solver import StepperConfig, SystemState, rhs, run, step_count
from bonls.spectral import ComplexField, Grid, RealField

BENCH = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                            epsilon=0.35, delta=0.25)
BO = dataclasses.replace(BENCH, a=0.0, d=0.0, beta=0.0)

LENGTH, GAMMA, MEAN, T_END = 20.0, 0.3, 1.0, 72.0
KAPPA = 2.0 * np.pi / LENGTH  # one period in the window
AMP = -2.0 * BO.b * KAPPA / BO.c
V = BO.b * KAPPA * (1.0 / np.tanh(GAMMA) - 2.0) - BO.c * MEAN


def wave(grid, t):
    """The exact r at time t, and its time derivative -V r_x."""
    xi = grid.x - V * t
    den = np.cosh(GAMMA) - np.cos(KAPPA * xi)
    r = MEAN + AMP * (np.sinh(GAMMA) / den - 1.0)
    r_x = -AMP * np.sinh(GAMMA) * KAPPA * np.sin(KAPPA * xi) / den ** 2
    return r, -V * r_x


def start(grid):
    r, _ = wave(grid, 0.0)
    return SystemState(RealField(grid, r), ComplexField(grid, np.zeros(grid.n, complex)))


def test_wave_parameters():
    assert (AMP, V) == pytest.approx((-0.1245, -0.2843), abs=1e-4)
    # at m = 0 and gamma = 0.6 the wave crawls
    assert BO.b * KAPPA * (1.0 / np.tanh(0.6) - 2.0) == pytest.approx(-2.68e-3, abs=1e-5)
    assert abs(V) * T_END >= LENGTH  # at least one period


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_rhs_is_the_wave_time_derivative(system):
    # n = 512 keeps e^(-gamma n / 3) below roundoff; at q = 0 the full
    # system is the reduced one
    grid = Grid(512, LENGTH)
    _, r_t = wave(grid, 0.0)
    dr, dq = rhs(start(grid), BO, system)
    assert np.max(np.abs(dr.values - r_t)) / np.max(np.abs(r_t)) <= 1e-11  # 7.9e-13 measured
    assert np.max(np.abs(dq.values)) == 0.0


def wave_error(scheme, dt):
    """Sup error of r at T_END against the exact wave, relative to the wave's
    own sup about its mean."""
    grid = Grid(256, LENGTH)
    end = run(start(grid), StepperConfig(dt=dt, scheme=scheme), BO, T_END,
              diagnostics_every=step_count(T_END, dt), gauge_diagnostics=False).snapshots[-1]
    r, _ = wave(grid, T_END)
    return float(np.max(np.abs(end.r.values - r)) / np.max(np.abs(r - MEAN)))


# Measured at t = 72, n = 256 (the two-thirds cut drops e^-25 of the
# spectrum): strang-split 3.79e-5 and 8.95e-6 at dt 0.08 and 0.04;
# etdrk4 7.55e-8 and 4.90e-9 at dt 0.1 and 0.05.
@pytest.mark.parametrize("scheme, dts, order, level", [
    ("strang-split", (0.08, 0.04), 2, 5e-5),
    ("etdrk4", (0.1, 0.05), 4, 1e-7),
])
def test_wave_errors_show_each_scheme_order(scheme, dts, order, level):
    coarse, fine = (wave_error(scheme, dt) for dt in dts)
    print(f"{scheme}: {coarse:.3e} -> {fine:.3e}")
    assert coarse <= level
    assert np.log2(coarse / fine) == pytest.approx(order, abs=0.15)
