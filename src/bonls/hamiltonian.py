"""Quadratic and cubic wave energies in both coordinate systems.

The four canonical fields are either the interface/surface elevations and
potentials, `Original(eta, xi, eta1, xi1)`, or the decoupled mode pairs
produced by the normal-mode transform, `Normal(mu, zeta, mu1, zeta1)`.
Energies evaluate the corresponding integrands with pseudospectral
products (two-thirds-rule dealiased factors) and trapezoid quadrature,
which is exact for band-limited data on a periodic grid.  Every symbol
is applied to a field's cached spectrum, so each field is transformed
once.

Odd multipliers produce purely imaginary fields on real input, so cubic
integrands are assembled in complex arithmetic and only the real part of
the quadrature is returned; the imaginary part is roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .coeffs import (PhysicalParams, SymbolTable, dispersion_internal,
                     dispersion_surface, symbol_table)
from .spectral import Grid, RealField, dealias_mask

# Evaluator of the symbol table; the verify suites pass a perturbed one
# to check that the identities really constrain each symbol.
Symbols = Callable[[PhysicalParams, np.ndarray], SymbolTable]

__all__ = [
    "CoordinateMismatch",
    "Original",
    "Normal",
    "DnoFirstOrder",
    "normal_transform",
    "inverse_transform",
    "eval_H2",
    "eval_H3",
    "h3_terms",
    "dno_first_order",
]


class CoordinateMismatch(ValueError):
    """A transform handed the fields of the other coordinate system."""


@dataclass(frozen=True)
class _FourFields:
    def __post_init__(self):
        if len({getattr(self, f.name).grid for f in fields(self)}) != 1:
            raise ValueError("all four fields must share one grid")

    @property
    def grid(self) -> Grid:
        return getattr(self, fields(self)[0].name).grid


@dataclass(frozen=True)
class Original(_FourFields):
    """Interface elevation and potential trace, surface elevation and
    potential trace, on one grid."""

    eta: RealField
    xi: RealField
    eta1: RealField
    xi1: RealField


@dataclass(frozen=True)
class Normal(_FourFields):
    """The internal (mu, zeta) and surface (mu1, zeta1) mode pairs, on one grid."""

    mu: RealField
    zeta: RealField
    mu1: RealField
    zeta1: RealField


def _require(f, cls: type) -> None:
    if not isinstance(f, cls):
        raise CoordinateMismatch(f"needs {cls.__name__} coordinates, got {type(f).__name__}")


def _mult(m: np.ndarray, f: RealField) -> np.ndarray:
    """Apply a Fourier multiplier to a field; complex samples in general."""
    return np.fft.ifft(m * f.spectrum)


def normal_transform(f: Original, params: PhysicalParams,
                     symbols: Symbols = symbol_table) -> Normal:
    """Decouple (eta, xi, eta1, xi1) into the mode pairs (mu, zeta, mu1, zeta1).

    The 4x4 multiplier matrix mixes the two elevations (weighted by
    sqrt(g(rho-rho1)), sqrt(g rho1)) and, reciprocally, the two potentials.
    """
    _require(f, Original)
    st = symbols(params, f.grid.k)
    sq_d = np.sqrt(params.g * (params.rho - params.rho1))
    sq_1 = np.sqrt(params.g * params.rho1)
    mu = _mult(st.a_minus * sq_d, f.eta) + _mult(st.b_minus * sq_1, f.eta1)
    zeta = _mult(st.a_minus / sq_d, f.xi) + _mult(st.b_minus / sq_1, f.xi1)
    mu1 = _mult(st.a_plus * sq_d, f.eta) + _mult(st.b_plus * sq_1, f.eta1)
    zeta1 = _mult(st.a_plus / sq_d, f.xi) + _mult(st.b_plus / sq_1, f.xi1)
    return Normal(*(RealField(f.grid, v.real) for v in (mu, zeta, mu1, zeta1)))


def inverse_transform(f: Normal, params: PhysicalParams,
                      symbols: Symbols = symbol_table) -> Original:
    """Reassemble the original coordinates from the mode pairs.

    Exact inverse of normal_transform because the mixing multipliers
    satisfy a- b+ - a+ b- = 1 at every wavenumber.
    """
    _require(f, Normal)
    st = symbols(params, f.grid.k)
    sq_d = np.sqrt(params.g * (params.rho - params.rho1))
    sq_1 = np.sqrt(params.g * params.rho1)
    eta = (_mult(st.b_plus, f.mu) - _mult(st.b_minus, f.mu1)) / sq_d
    eta1 = -(_mult(st.a_plus, f.mu) - _mult(st.a_minus, f.mu1)) / sq_1
    xi = sq_d * (_mult(st.b_plus, f.zeta) - _mult(st.b_minus, f.zeta1))
    xi1 = -sq_1 * (_mult(st.a_plus, f.zeta) - _mult(st.a_minus, f.zeta1))
    return Original(*(RealField(f.grid, v.real) for v in (eta, xi, eta1, xi1)))


class _Workspace:
    """Per-call bundle of multiplier symbols and dealiased factor helpers."""

    def __init__(self, grid: Grid, params: PhysicalParams, symbols: Symbols):
        self.grid = grid
        self.st = symbols(params, grid.k)
        self.mask = dealias_mask(grid)
        rho, rho1 = params.rho, params.rho1
        st = self.st
        # Even symbols (real output on real input).
        self.e_11 = st.g0 * st.g11 / st.b0        # G0 B0^-1 G11
        self.e_12 = st.g0 * st.g12 / st.b0        # G0 B0^-1 G12
        self.e_s = st.g0 * (rho1 * st.g11 + rho * st.g0) / st.b0
        # Odd symbols (imaginary output on real input).
        self.o_11 = grid.k * st.g11 / st.b0       # D B0^-1 G11
        self.o_12 = grid.k * st.g12 / st.b0       # D B0^-1 G12
        self.o_0 = grid.k * st.g0 / st.b0         # D B0^-1 G0
        self.o_d = grid.k.astype(float)           # D itself

    def factor(self, m: np.ndarray | None, f: RealField) -> np.ndarray:
        """Multiplier applied to a field, cut to the dealiasing band."""
        spec = f.spectrum if m is None else m * f.spectrum
        return np.fft.ifft(np.where(self.mask, spec, 0.0))

    def quad(self, integrand: np.ndarray) -> float:
        return float(self.grid.dx * np.sum(integrand).real)


def eval_H2(f: Original | Normal, params: PhysicalParams,
            symbols: Symbols = symbol_table) -> float:
    """Quadratic energy of the four-field state.

    In the original coordinates the kinetic block is the symmetric form
    with entries (Qa, Qb, Qc) divided by their g-weights, plus the
    potential terms g(rho-rho1) eta^2 and g rho1 eta1^2; in normal modes
    it is (1/2) integral of zeta w^2(D) zeta + mu^2 + zeta1 w1^2(D) zeta1
    + mu1^2.
    """
    ws = _Workspace(f.grid, params, symbols)
    rho, rho1, g = params.rho, params.rho1, params.g
    if isinstance(f, Original):
        xi_c = ws.factor(None, f.xi)
        xi1_c = ws.factor(None, f.xi1)
        eta_c = ws.factor(None, f.eta)
        eta1_c = ws.factor(None, f.eta1)
        integrand = (xi_c * ws.factor(ws.e_11, f.xi)
                     - 2.0 * xi_c * ws.factor(ws.e_12, f.xi1)
                     + xi1_c * ws.factor(ws.e_s / rho1, f.xi1)
                     + g * (rho - rho1) * eta_c * eta_c
                     + g * rho1 * eta1_c * eta1_c)
        return 0.5 * ws.quad(integrand)
    w2 = dispersion_internal(params, f.grid.k)
    w1sq = dispersion_surface(params, f.grid.k)
    integrand = (ws.factor(None, f.zeta) * ws.factor(w2, f.zeta)
                 + ws.factor(None, f.mu) ** 2
                 + ws.factor(None, f.zeta1) * ws.factor(w1sq, f.zeta1)
                 + ws.factor(None, f.mu1) ** 2)
    return 0.5 * ws.quad(integrand)


def eval_H3(f: Original | Normal, params: PhysicalParams,
            symbols: Symbols = symbol_table) -> float:
    """Cubic energy of the four-field state (grouped five-term integrand).

    In normal coordinates this is the sum of the five mode-coupling terms;
    h3_terms exposes the individual contributions in either system.
    """
    if isinstance(f, Normal):
        return float(sum(h3_terms(f, params, symbols).values()))
    ws = _Workspace(f.grid, params, symbols)
    rho, rho1 = params.rho, params.rho1
    eta_c = ws.factor(None, f.eta)
    eta1_c = ws.factor(None, f.eta1)
    t1 = ws.factor(ws.e_11, f.xi) - ws.factor(ws.e_12, f.xi1)
    t2 = ws.factor(ws.e_12, f.xi) - ws.factor(ws.e_s / rho1, f.xi1)
    t3 = ws.factor(ws.o_11, f.xi) - ws.factor(ws.o_12, f.xi1)
    t4 = ws.factor(ws.o_0, f.xi) + (rho / rho1) * ws.factor(ws.o_12, f.xi1)
    t5 = ws.factor(ws.o_d, f.xi1)
    integrand = (-(rho - rho1) * eta_c * t1 * t1
                 - rho1 * eta1_c * t2 * t2
                 - rho * eta_c * t3 * t3
                 + rho1 * eta_c * t4 * t4
                 - eta1_c * t5 * t5 / rho1)
    return 0.5 * ws.quad(integrand)


def h3_terms(f: Original | Normal, params: PhysicalParams,
             symbols: Symbols = symbol_table) -> dict[str, float]:
    """Per-term breakdown of the cubic energy.

    Original coordinates: the kinetic-energy split {"I", "II", "III"},
    whose signed sum I - II + III reproduces eval_H3.  Normal coordinates:
    the five coupling terms {"R1", ..., "R5"}.
    """
    ws = _Workspace(f.grid, params, symbols)
    rho, rho1, g = params.rho, params.rho1, params.g
    if isinstance(f, Original):
        eta_c = ws.factor(None, f.eta)
        eta1_c = ws.factor(None, f.eta1)
        a_o11 = ws.factor(ws.o_11, f.xi)
        a_e11 = ws.factor(ws.e_11, f.xi)
        a_o0 = ws.factor(ws.o_0, f.xi)
        a_e12 = ws.factor(ws.e_12, f.xi)
        b_o12 = ws.factor(ws.o_12, f.xi1)
        b_e12 = ws.factor(ws.e_12, f.xi1)
        b_es = ws.factor(ws.e_s, f.xi1)
        b_d = ws.factor(ws.o_d, f.xi1)
        term_i = 0.5 * ws.quad(-rho * eta_c * a_o11 ** 2
                               - (rho - rho1) * eta_c * a_e11 ** 2
                               + rho1 * eta_c * a_o0 ** 2
                               - rho1 * eta1_c * a_e12 ** 2)
        term_ii = ws.quad(-rho * eta_c * a_o11 * b_o12
                          - (rho - rho1) * eta_c * a_e11 * b_e12
                          - rho * eta_c * a_o0 * b_o12
                          - eta1_c * a_e12 * b_es)
        term_iii = 0.5 * ws.quad(-(rho - rho1) * eta_c * b_e12 ** 2
                                 + rho * (rho - rho1) / rho1 * eta_c * b_o12 ** 2
                                 - eta1_c * b_es ** 2 / rho1
                                 - eta1_c * b_d ** 2 / rho1)
        return {"I": term_i, "II": term_ii, "III": term_iii}

    st = ws.st
    sq_d = np.sqrt(g * (params.rho - params.rho1))
    sq_1 = np.sqrt(g * params.rho1)
    mu_b = ws.factor(st.b_plus, f.mu) - ws.factor(st.b_minus, f.mu1)
    mu_a = ws.factor(st.a_plus, f.mu) - ws.factor(st.a_minus, f.mu1)
    pairs = (
        ("R1", -(rho - rho1) / (2.0 * sq_d), mu_b, st.A1, st.B1),
        ("R2", rho1 / (2.0 * sq_1), mu_a, st.A2, st.B2),
        ("R3", -rho / (2.0 * sq_d), mu_b, st.A3, st.B3),
        ("R4", rho1 / (2.0 * sq_d), mu_b, st.A4, st.B4),
        ("R5", 1.0 / (2.0 * rho1 * sq_1), mu_a, st.A5, st.B5),
    )
    out = {}
    for name, pref, mu_fac, a_sym, b_sym in pairs:
        w = ws.factor(a_sym, f.zeta) - ws.factor(b_sym, f.zeta1)
        out[name] = pref * ws.quad(mu_fac * w * w)
    return out


@dataclass(frozen=True)
class DnoFirstOrder:
    """First-order (in elevation) Dirichlet-Neumann operator closures.

    g1 is the free-surface expansion term D eta D - |D| eta |D|; the
    marked entries come from the two-layer matrix expansions, first order
    in eta (10) or in eta1 (01).  Every closure maps a RealField to a
    RealField, discarding the roundoff imaginary part.
    """

    g1: Callable[[RealField], RealField]
    g11_10: Callable[[RealField], RealField]
    g12_10: Callable[[RealField], RealField]
    g21_10: Callable[[RealField], RealField]
    g22_10: Callable[[RealField], RealField]
    g11_01: Callable[[RealField], RealField]
    g12_01: Callable[[RealField], RealField]
    g21_01: Callable[[RealField], RealField]
    g22_01: Callable[[RealField], RealField]


def dno_first_order(params: PhysicalParams, eta: RealField, eta1: RealField,
                    symbols: Symbols = symbol_table) -> DnoFirstOrder:
    """Build the first-order Dirichlet-Neumann closures for given elevations.

    Each operator is a multiplier sandwich L (w . (R phi)) with the
    elevation as the pointwise weight w; the product is dealiased before
    the outer multiplier is applied.
    """
    if eta.grid != eta1.grid:
        raise ValueError("eta and eta1 must share one grid")
    grid = eta.grid
    st = symbols(params, grid.k)
    mask = dealias_mask(grid)
    k = grid.k.astype(float)
    absk = np.abs(k)
    cth = st.g11    # D coth(h1 D): even symbol k coth(h1 k)
    csh = -st.g12   # D csch(h1 D): even symbol k csch(h1 k)

    def operator(*terms):
        # the sum of signed sandwiches sign * L (w . (R phi))
        def op(phi: RealField) -> RealField:
            out = 0.0
            for sign, left, w, right in terms:
                v = np.fft.ifft(right * phi.spectrum)
                spec = np.where(mask, np.fft.fft(w * v), 0.0)
                out = out + sign * np.fft.ifft(left * spec).real
            return RealField(grid, out)
        return op

    w0 = eta.values
    w1 = eta1.values
    return DnoFirstOrder(
        g1=operator((1, k, w0, k), (-1, absk, w0, absk)),
        g11_10=operator((1, cth, w0, cth), (-1, k, w0, k)),
        g12_10=operator((-1, cth, w0, csh)),
        g21_10=operator((-1, csh, w0, cth)),
        g22_10=operator((1, csh, w0, csh)),
        g11_01=operator((-1, csh, w1, csh)),
        g12_01=operator((1, csh, w1, cth)),
        g21_01=operator((1, cth, w1, csh)),
        g22_01=operator((1, k, w1, k), (-1, cth, w1, cth)),
    )
