"""Gauge transformation: unimodular phase, gauged derivatives, reconstruction."""

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients
from bonls.gauge import (
    NonZeroMean,
    antiderivative,
    gauge,
    gauge_ode_residual,
    reconstruct_dr,
)
from bonls.spectral import Grid, RealField, band_limited_noise, deriv

BENCH = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                            epsilon=0.35, delta=0.25)

RNG = np.random.default_rng(7171)


def narrow_noise(grid, amplitude=0.1):
    # narrow band keeps the oscillatory phase well resolved on the grid
    return band_limited_noise(grid, RNG, amplitude=amplitude, keep=1.0 / 6.0)


def test_antiderivative_of_cosine():
    grid = Grid(128, 20.0)
    k = 2.0 * np.pi * 3 / grid.length
    f = RealField(grid, np.cos(k * grid.x))
    want = np.sin(k * grid.x) / k
    assert np.max(np.abs(antiderivative(f).values - want)) <= 1e-12


def test_zero_field_gauge():
    grid = Grid(128, 20.0)
    gs = gauge(RealField(grid, np.zeros(grid.n)), BENCH)
    assert np.max(np.abs(gs.psi_plus.values - 1.0)) == 0.0
    assert np.max(np.abs(gs.w_plus.values)) == 0.0
    assert np.max(np.abs(gs.w_minus.values)) == 0.0


def test_cosine_closed_form_phase():
    grid = Grid(256, 20.0)
    k = 2.0 * np.pi * 4 / grid.length
    r = RealField(grid, np.cos(k * grid.x))
    gs = gauge(r, BENCH)
    lam = 2.0 * BENCH.d / (3.0 * BENCH.a)
    want = np.exp(-1j * lam * np.sin(k * grid.x) / k)
    assert np.max(np.abs(gs.psi_plus.values - want)) <= 1e-12


def test_cosine_reconstruction():
    grid = Grid(256, 20.0)
    k = 2.0 * np.pi * 4 / grid.length
    r = RealField(grid, np.cos(k * grid.x))
    rec = reconstruct_dr(gauge(r, BENCH)).values
    assert np.max(np.abs(rec - (-k) * np.sin(k * grid.x))) <= 1e-10


@pytest.mark.parametrize("n", [256, 512])
def test_unimodular_and_conjugate_structure(n):
    grid = Grid(n, 40.0)
    r = narrow_noise(grid)
    gs = gauge(r, BENCH)
    assert np.max(np.abs(np.abs(gs.psi_plus.values) - 1.0)) <= 1e-12
    assert np.array_equal(gs.psi_minus.values, np.conj(gs.psi_plus.values))
    assert np.max(np.abs(gs.w_minus.values - np.conj(gs.w_plus.values))) <= 1e-12


def test_gauge_of_a_cached_spectrum_makes_one_irfft_and_no_complex_transform(monkeypatch):
    grid = Grid(512, 40.0)
    r = narrow_noise(grid)
    _ = r.spectrum  # cache the spectrum
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    gs = gauge(r, BENCH)
    assert calls == ["irfft"]
    # psi- is built on first read, from psi+ alone
    assert np.array_equal(gs.psi_minus.values, np.conj(gs.psi_plus.values))
    assert calls == ["irfft"]


@pytest.mark.parametrize("n", [256, 512])
def test_gauge_ode_residual(n):
    grid = Grid(n, 40.0)
    r = narrow_noise(grid)
    sup = np.max(np.abs(r.values))
    res = gauge_ode_residual(gauge(r, BENCH), BENCH)
    assert res <= 1e-8 * sup, f"ODE residual {res:.3e} vs bound {1e-8 * sup:.3e}"


def test_reconstruction_matches_spectral_derivative():
    grid = Grid(256, 40.0)
    r = narrow_noise(grid)
    rec = reconstruct_dr(gauge(r, BENCH))
    dr = deriv(r).values
    assert np.max(np.abs(rec.values - dr)) <= 1e-10 * max(1.0, np.max(np.abs(dr)))


def test_round_trip_through_antiderivative():
    grid = Grid(256, 40.0)
    r = narrow_noise(grid)
    rec = reconstruct_dr(gauge(r, BENCH))
    back = antiderivative(RealField(grid, rec.values)).values
    centered = r.values - np.mean(r.values)
    assert np.max(np.abs(back - centered)) <= 1e-9


def test_nonzero_mean_rejected():
    grid = Grid(128, 20.0)
    r = RealField(grid, narrow_noise(grid).values + 0.05)
    with pytest.raises(NonZeroMean):
        gauge(r, BENCH)
