"""Unimodular gauge transformation and gauged derivatives of the wave field.

The gauge factor Psi = exp(-(2id/3a) * antiderivative(r)) turns the
projected third-derivative terms of the long-wave equation into first-order
ones; here it serves as a runtime diagnostic layer.  On a periodic window
the antiderivative only exists for mean-zero r, which the evolution
preserves, so a nonzero mean is rejected rather than silently projected
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import ModelCoefficients
from .spectral import ComplexField, Grid, RealField, _real_samples, deriv, project

__all__ = [
    "NonZeroMean",
    "GaugedState",
    "antiderivative",
    "gauge",
    "reconstruct_dr",
    "gauge_ode_residual",
]

_MEAN_TOL = 1e-10


class NonZeroMean(ValueError):
    """Field has a mean too large for a periodic antiderivative."""


@dataclass(frozen=True)
class GaugedState:
    """Gauge factors and gauged one-sided derivatives of a real field.

    psi_minus is the exact complex conjugate of psi_plus, and w_minus
    agrees with conj(w_plus) to roundoff; both redundant halves are kept
    because downstream formulas use them symmetrically.  psi_minus and
    the w+- pair are built on first use: the defining ODE
    (`gauge_ode_residual`) reads psi_plus alone.
    """

    psi_plus: ComplexField
    source: RealField

    @property
    def grid(self) -> Grid:
        return self.source.grid

    @cached_property
    def psi_minus(self) -> ComplexField:
        """conj(Psi+), bit for bit."""
        return ComplexField(self.grid, np.conj(self.psi_plus.values))

    @cached_property
    def w_plus(self) -> ComplexField:
        """Psi+ d/dx P+ r."""
        dp = deriv(project(self.source, 1)).values
        return ComplexField(self.grid, self.psi_plus.values * dp)

    @cached_property
    def w_minus(self) -> ComplexField:
        """Psi- d/dx P- r."""
        dp = deriv(project(self.source, -1)).values
        return ComplexField(self.grid, self.psi_minus.values * dp)


def antiderivative(f: RealField) -> RealField:
    """Mean-zero periodic antiderivative, by spectral division by ik.

    The k = 0 mode of the result is zero; the Nyquist mode is dropped as
    in every odd multiplier.  The multiplier keeps f real, so once f's
    half spectrum is cached this is one irfft of it.  Raises
    NonZeroMean if f has a mean larger than the enforcement tolerance.
    """
    grid = f.grid
    mean = abs(f.half[0]) / grid.n
    if mean > _MEAN_TOL:
        raise NonZeroMean(f"field mean {mean:.3e} exceeds {_MEAN_TOL:.0e}; "
                          "a periodic antiderivative needs mean zero")
    # inv_ik is 0 at k = 0 and at the Nyquist mode
    return RealField(grid, _real_samples(f, grid.inv_ik))


def gauge(r: RealField, coeffs: ModelCoefficients) -> GaugedState:
    """Gauge factors exp(-+(2id/3a) * antiderivative(r)) and w-+ for r.

    The exponent is purely imaginary, so the factors are unimodular by
    construction; w+- = Psi+- d/dx P+- r.  Once r's half spectrum is cached
    this makes one irfft, for the antiderivative, and no complex
    transform; Psi- costs no transform when first read, and the w+- pair
    one ifft each.  At a = 0 (rho1/rho = 1/sqrt 3) every factor is NaN.
    """
    primitive = antiderivative(r).values  # a mean is refused at a = 0 too
    psi = (np.exp(1j * (-(2.0 * coeffs.d / (3.0 * coeffs.a)) * primitive)) if coeffs.a != 0.0
           else np.full(r.grid.n, complex(np.nan, np.nan)))
    return GaugedState(psi_plus=ComplexField(r.grid, psi), source=r)


def reconstruct_dr(gs: GaugedState) -> RealField:
    """Recover d/dx of the source field from the gauged pair.

    Psi- w+ + Psi+ w- collapses to (P+ + P-) applied to the derivative
    because the gauge factors are unimodular; the roundoff imaginary part
    is discarded.
    """
    v = gs.psi_minus.values * gs.w_plus.values + gs.psi_plus.values * gs.w_minus.values
    return RealField(gs.grid, v.real)


def gauge_ode_residual(gs: GaugedState, coeffs: ModelCoefficients) -> float:
    """Max-norm defect of the defining relation 3a dPsi/dx + 2id Psi r = 0.

    dPsi/dx is one ifft of Psi+'s spectrum times ik, which costs one fft
    unless that spectrum is cached.
    """
    dpsi = np.fft.ifft(gs.psi_plus.spectrum * gs.grid.ik)
    res = 3.0 * coeffs.a * dpsi + 2.0j * coeffs.d * gs.psi_plus.values * gs.source.values
    return float(np.max(np.abs(res)))
