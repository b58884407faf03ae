"""The Yajima-Oikawa soliton: an exact coupled solution of the reduced system.

With a = b = c = d = 0 and kt3 = kt4 = 0 the reduced system is the
long-wave/short-wave resonance system of Yajima & Oikawa (Prog. Theor.
Phys. 56, 1976):

    r_t = beta (|q|^2)_x,    q_t = -i alpha q_xx + i beta r q

It carries the travelling soliton, with xi = x - v t,

    q = A sech(kappa xi) exp(i (k x - omega t)),    r = -(beta / v) A^2 sech^2(kappa xi)
    v = -2 alpha k,    A^2 = 2 alpha kappa^2 v / beta^2,    omega = alpha (kappa^2 - k^2)

so alpha v > 0 takes k of the sign opposite to alpha.  It pins the r-q
coupling weights (beta in both equations) and the temporal orders of both
schemes against an exact reference with q != 0.  The gauge residual is NaN
at a = 0, so the runs leave it off.
"""

import dataclasses

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients
from bonls.solver import StepperConfig, SystemState, rhs, run, step_count
from bonls.spectral import ComplexField, Grid, RealField

BENCH = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                            epsilon=0.35, delta=0.25)
YO = dataclasses.replace(BENCH, a=0.0, b=0.0, c=0.0, d=0.0, kt3=0.0, kt4=0.0)

LENGTH, KAPPA, CARRIER_MODE, T_END = 80.0, 1.0, -12, 20.0
K = 2.0 * np.pi * CARRIER_MODE / LENGTH  # -0.942
V = -2.0 * YO.alpha * K  # 0.233
AMP = np.sqrt(2.0 * YO.alpha * KAPPA ** 2 * V) / YO.beta  # 1.749
OMEGA = YO.alpha * (KAPPA ** 2 - K ** 2)


def soliton(grid, t):
    """The exact (r, q) at time t, and their time derivatives.

    On L = 80 the soliton's tails reach e^-35 of its peak at the window's
    edge by t = 20, so the periodic images are below roundoff.
    """
    x = grid.x
    sech, tanh = 1.0 / np.cosh(KAPPA * (x - V * t)), np.tanh(KAPPA * (x - V * t))
    carrier = np.exp(1j * (K * x - OMEGA * t))
    r = -(YO.beta / V) * AMP ** 2 * sech ** 2
    q = AMP * sech * carrier
    r_t = -2.0 * YO.beta * KAPPA * AMP ** 2 * sech ** 2 * tanh
    q_t = AMP * sech * (KAPPA * V * tanh - 1j * OMEGA) * carrier
    return (r, q), (r_t, q_t)


def relative_sup(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_soliton_parameters():
    assert (K, V, AMP) == pytest.approx((-0.9425, 0.2333, 1.7488), abs=1e-4)
    assert YO.alpha * V > 0.0


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_rhs_is_the_soliton_time_derivative(system):
    # n = 1024 resolves sech^2 inside the two-thirds band; kt3 = kt4 = 0
    # makes the full system the reduced one
    grid = Grid(1024, LENGTH)
    (r, q), (r_t, q_t) = soliton(grid, 0.0)
    dr, dq = rhs(SystemState(RealField(grid, r), ComplexField(grid, q)), YO, system)
    assert relative_sup(dr.values, r_t) <= 1e-13  # 1.2e-14 measured
    assert relative_sup(dq.values, q_t) <= 1e-12  # 8.2e-14 measured


def soliton_errors(scheme, n, dt):
    """Relative sup errors of r and q at T_END, against the exact soliton."""
    grid = Grid(n, LENGTH)
    (r, q), _ = soliton(grid, 0.0)
    start = SystemState(RealField(grid, r), ComplexField(grid, q))
    end = run(start, StepperConfig(dt=dt, scheme=scheme), YO, T_END,
              diagnostics_every=step_count(T_END, dt), gauge_diagnostics=False).snapshots[-1]
    (r_end, q_end), _ = soliton(grid, T_END)
    return relative_sup(end.r.values, r_end), relative_sup(end.q.values, q_end)


# Measured at dt 0.04 and 0.02, t = 20 (errors of r, then of q):
#   strang-split, n = 512: 4.85e-5, 1.21e-5 and 6.72e-5, 1.68e-5
#   etdrk4, n = 1024: 1.13e-9, 7.20e-11 and 1.85e-9, 1.14e-10
# etdrk4 needs n = 1024: at n = 512 the two-thirds cut truncates sech^2's
# spectrum and its error stays at 1.4e-8 for every dt.
@pytest.mark.parametrize("scheme, n, order, level", [
    ("strang-split", 512, 2, 8e-5),
    ("etdrk4", 1024, 4, 2.5e-9),
])
def test_soliton_errors_show_each_scheme_order(scheme, n, order, level):
    coarse, fine = (soliton_errors(scheme, n, dt) for dt in (0.04, 0.02))
    print(f"{scheme}: r {coarse[0]:.3e} -> {fine[0]:.3e}, q {coarse[1]:.3e} -> {fine[1]:.3e}")
    assert max(coarse) <= level
    for c, f in zip(coarse, fine, strict=True):
        assert np.log2(c / f) == pytest.approx(order, abs=0.15)
